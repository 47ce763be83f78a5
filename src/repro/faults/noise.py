"""Heavy-tailed and composite noise models for fault injection.

The default simulator jitter is unit-mean lognormal — well-behaved enough
that the paper's CI-driven repetition always converges quickly.  Real
shared clusters are worse: tail latencies follow power laws, and most
repetitions are quiet while a few are catastrophic.  These models let the
chaos benchmarks exercise exactly the regime the paper's Huber regression
and adaptive repetition are meant to survive.

All models are unit-mean (costs stay unbiased, only the spread changes)
and keyed like the base lognormal jitter: each draws its factors from
per-``(seed, rank)`` ``numpy`` streams through the
:class:`~repro.sim.noise.NoiseModel` interface, so they drop into
:class:`~repro.sim.network.Fabric` unchanged.
"""

from __future__ import annotations

import numpy as np

from repro.faults.plan import HeavyTailSpec
from repro.sim.noise import LognormalNoise, NoiseModel, NoNoise, StreamNoise

#: Mixed into noise seeds so fault noise streams never collide with the
#: base lognormal stream seeded with the raw measurement seed.
_NOISE_STREAM = 0x9E3779B1


class ParetoNoise(StreamNoise):
    """Unit-mean Pareto factors: power-law tail with shape ``tail_index``.

    The scale is ``(a - 1) / a`` so that ``E[factor] == 1``; factors are
    bounded below by the scale (never zero) and unbounded above, with tail
    exponent ``a``.  ``a`` close to 1 is pathological; ``a >= 2.5`` is a
    plausible "busy shared switch" profile.
    """

    def __init__(self, tail_index: float = 2.5, seed: int = 0):
        if tail_index <= 1.0:
            raise ValueError(f"tail_index must be > 1, got {tail_index}")
        super().__init__(seed)
        self.tail_index = tail_index
        self._scale = (tail_index - 1.0) / tail_index

    def _entropy(self, rank: int) -> tuple[int, ...]:
        return (self.seed, _NOISE_STREAM, 1, rank)

    def _block(self, rng: np.random.Generator, size: int) -> list[float]:
        return (self._scale * (1.0 + rng.pareto(self.tail_index, size))).tolist()

    def __repr__(self) -> str:
        return f"ParetoNoise(tail_index={self.tail_index}, seed={self.seed})"


class MixtureNoise(StreamNoise):
    """Lognormal base with rare Pareto spikes (unit mean overall).

    With probability ``1 - p`` a factor is a unit-mean lognormal draw; with
    probability ``p`` it is additionally multiplied by a Pareto spike of
    mean ``spike_scale``.  The whole mixture is rescaled by
    ``1 / (1 - p + p * spike_scale)`` so its mean stays exactly 1.
    """

    def __init__(
        self,
        sigma: float = 0.02,
        spike_probability: float = 0.01,
        spike_scale: float = 5.0,
        tail_index: float = 2.5,
        seed: int = 0,
    ):
        if sigma < 0:
            raise ValueError(f"sigma must be >= 0, got {sigma}")
        if not 0.0 <= spike_probability <= 1.0:
            raise ValueError(f"spike_probability must be in [0, 1], got {spike_probability}")
        if spike_scale < 1.0:
            raise ValueError(f"spike_scale must be >= 1, got {spike_scale}")
        if tail_index <= 1.0:
            raise ValueError(f"tail_index must be > 1, got {tail_index}")
        super().__init__(seed)
        self.sigma = sigma
        self.spike_probability = spike_probability
        self.spike_scale = spike_scale
        self.tail_index = tail_index
        self._mu = -0.5 * sigma * sigma
        self._pareto_scale = (tail_index - 1.0) / tail_index
        self._norm = 1.0 / (1.0 - spike_probability + spike_probability * spike_scale)

    def _entropy(self, rank: int) -> tuple[int, ...]:
        return (self.seed, _NOISE_STREAM, 2, rank)

    def _block(self, rng: np.random.Generator, size: int) -> list[float]:
        # One block draws its normals, spike coins and spike sizes in that
        # order; the block schedule is fixed, so each index stays keyed.
        base = np.exp(self._mu + self.sigma * rng.standard_normal(size))
        coins = rng.random(size)
        spikes = self.spike_scale * self._pareto_scale * (
            1.0 + rng.pareto(self.tail_index, size)
        )
        base = np.where(coins < self.spike_probability, base * spikes, base)
        return (base * self._norm).tolist()

    def __repr__(self) -> str:
        return (
            f"MixtureNoise(sigma={self.sigma}, "
            f"spike_probability={self.spike_probability}, "
            f"spike_scale={self.spike_scale}, seed={self.seed})"
        )


class CompositeNoise(NoiseModel):
    """Product of independent component factors.

    Used when a fault plan adds heavy-tailed noise *on top of* a cluster's
    configured lognormal jitter: each cost reads its key from every
    component, and the factors multiply.  The composite mean is the product
    of component means (1 when every component is unit-mean).
    """

    def __init__(self, components: tuple[NoiseModel, ...]):
        if not components:
            raise ValueError("CompositeNoise needs at least one component")
        self.components = tuple(components)

    def draw(self, rank: int, seq: int, term: int) -> float:
        value = 1.0
        for component in self.components:
            value *= component.draw(rank, seq, term)
        return value

    def reseed(self, seed: int) -> None:
        self._cursor = 0
        for index, component in enumerate(self.components):
            component.reseed(seed + 1_000_003 * (index + 1))

    def __repr__(self) -> str:
        return f"CompositeNoise({self.components!r})"


def make_fault_noise(spec: HeavyTailSpec, seed: int) -> NoiseModel:
    """Instantiate the noise model a :class:`HeavyTailSpec` describes."""
    if spec.kind == "pareto":
        return ParetoNoise(tail_index=spec.tail_index, seed=seed)
    return MixtureNoise(
        sigma=spec.sigma,
        spike_probability=spec.spike_probability,
        spike_scale=spec.spike_scale,
        tail_index=spec.tail_index,
        seed=seed,
    )


def compose_noise(
    sigma: float, spec: HeavyTailSpec | None, seed: int
) -> NoiseModel:
    """The fabric noise model for a cluster sigma plus an optional plan spec.

    Mirrors ``ClusterSpec.make_world``'s base rule (lognormal when
    ``sigma > 0``, else none) and layers the heavy-tail model on top when
    the plan asks for one.
    """
    components: list[NoiseModel] = []
    if sigma > 0:
        components.append(LognormalNoise(sigma=sigma, seed=seed))
    if spec is not None:
        components.append(make_fault_noise(spec, seed))
    if not components:
        return NoNoise()
    if len(components) == 1:
        return components[0]
    return CompositeNoise(tuple(components))
