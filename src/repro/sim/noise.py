"""Stochastic perturbation of simulated network costs.

Real clusters exhibit run-to-run variation (OS jitter, TCP stack state,
switch buffering).  The paper's measurement methodology — repeating each
experiment until the 95% confidence interval half-width is within 2.5% of the
sample mean — only makes sense against such variation, so the simulator
supports a seeded multiplicative noise model.

Noise is **keyed**: every factor is a pure function of

* the measurement seed,
* the sender's world rank,
* the sender's per-rank message sequence number — assigned when the send
  is posted, in the rank's program order, and
* the cost term it perturbs (:data:`INJECT`, :data:`HOP`, :data:`DRAIN`,
  :data:`RTS`, :data:`CTS`, :data:`SHM_COPY`, :data:`SHM_LATENCY`),

never of the order in which an engine happens to reach the cost.  That is
what lets the event loop and the columnar kernels of :mod:`repro.sim.batch`
perturb one message identically, so noisy cells batch bit-for-bit.

Each ``(seed, rank)`` pair owns one ``numpy`` stream; a message's factors
sit at index ``seq * TERMS + term`` of it.  Streams are drawn lazily in
blocks on a fixed schedule, so an index holds the same value whichever key
is read first, and both engines read factors through :meth:`NoiseModel.draw`
— one implementation of the transcendental functions (``np.exp`` and
``math.exp`` disagree in the last bit on a few percent of inputs).
"""

from __future__ import annotations

import numpy as np

#: The cost terms of one message (the last field of its noise key).
INJECT, HOP, DRAIN, RTS, CTS, SHM_COPY, SHM_LATENCY = range(7)
#: Stream slots per message.
TERMS = 7

#: Size of a stream's first block; each later block doubles the stream.
_FIRST_BLOCK = 64


class NoiseModel:
    """Interface: keyed multiplicative cost factors (>= 0)."""

    #: Position of the sequential :meth:`factor` walk.
    _cursor = 0

    def draw(self, rank: int, seq: int, term: int) -> float:
        """The factor of cost ``term`` of message ``seq`` sent by ``rank``."""
        raise NotImplementedError

    def reseed(self, seed: int) -> None:
        """Switch to the streams of ``seed`` (called once per measurement run)."""
        raise NotImplementedError

    def factor(self) -> float:
        """The next factor of a walk through rank 0's keys, in index order.

        A sampling view of the same keyed streams (moment checks, plots);
        the fabrics always read factors by key.
        """
        index = self._cursor
        self._cursor = index + 1
        seq, term = divmod(index, TERMS)
        return self.draw(0, seq, term)


class NoNoise(NoiseModel):
    """Deterministic model: every factor is exactly 1."""

    def draw(self, rank: int, seq: int, term: int) -> float:  # noqa: ARG002
        return 1.0

    def reseed(self, seed: int) -> None:  # noqa: ARG002 - deterministic
        return None

    def __repr__(self) -> str:
        return "NoNoise()"


class StreamNoise(NoiseModel):
    """Base of the random models: per-``(seed, rank)`` streams drawn in blocks.

    Subclasses name their stream entropy (:meth:`_entropy`) and turn a
    block of a rank's PRNG into factors (:meth:`_block`).
    """

    def __init__(self, seed: int = 0):
        self.seed = seed
        self._streams: dict[int, list[float]] = {}
        self._rngs: dict[int, np.random.Generator] = {}

    def draw(self, rank: int, seq: int, term: int) -> float:
        index = seq * TERMS + term
        stream = self._streams.get(rank)
        if stream is None or index >= len(stream):
            stream = self._grow(rank, index)
        return stream[index]

    def _grow(self, rank: int, index: int) -> list[float]:
        stream = self._streams.get(rank)
        if stream is None:
            stream = self._streams[rank] = []
            self._rngs[rank] = np.random.default_rng(self._entropy(rank))
        rng = self._rngs[rank]
        while len(stream) <= index:
            stream.extend(self._block(rng, max(_FIRST_BLOCK, len(stream))))
        return stream

    def reseed(self, seed: int) -> None:
        self.seed = seed
        self._streams.clear()
        self._rngs.clear()
        self._cursor = 0

    def _entropy(self, rank: int) -> tuple[int, ...]:
        raise NotImplementedError

    def _block(self, rng: np.random.Generator, size: int) -> list[float]:
        raise NotImplementedError


class LognormalNoise(StreamNoise):
    """Multiplicative lognormal jitter with unit mean.

    ``sigma`` is the standard deviation of the underlying normal; the
    distribution is scaled so that ``E[factor] == 1`` (costs are unbiased).
    A typical dedicated-cluster value is ``sigma = 0.02`` (~2% jitter).
    """

    def __init__(self, sigma: float = 0.02, seed: int = 0):
        if sigma < 0:
            raise ValueError(f"sigma must be non-negative, got {sigma}")
        super().__init__(seed)
        self.sigma = sigma
        # E[lognormal(mu, sigma)] = exp(mu + sigma^2/2); pick mu so mean is 1.
        self._mu = -0.5 * sigma * sigma

    def _entropy(self, rank: int) -> tuple[int, ...]:
        return (self.seed, rank)

    def _block(self, rng: np.random.Generator, size: int) -> list[float]:
        # sigma == 0 gives exp(+-0.0) == 1.0 exactly.
        return np.exp(self._mu + self.sigma * rng.standard_normal(size)).tolist()

    def __repr__(self) -> str:
        return f"LognormalNoise(sigma={self.sigma}, seed={self.seed})"


def make_noise(sigma: float, seed: int) -> NoiseModel:
    """A plain fabric's noise: lognormal jitter when ``sigma > 0``, else none."""
    return LognormalNoise(sigma=sigma, seed=seed) if sigma > 0 else NoNoise()
