"""One-call platform calibration and the resulting platform model.

:func:`calibrate_platform` runs the paper's full §4 procedure on a cluster:

1. estimate γ(P) from non-blocking linear broadcast experiments (§4.1);
2. for each algorithm, estimate α and β from experiments that contain it
   (for the broadcast: broadcast+gather), solved by Huber regression
   (§4.2).

The same function calibrates every collective with a model family; the
per-operation differences live in
:data:`~repro.estimation.alphabeta.OPERATION_PROFILES`.

The result, a :class:`PlatformModel`, is everything the runtime selector
needs: it predicts any algorithm's time for any ``(P, m)`` in microseconds
of arithmetic, and serialises to/from JSON so a calibration can be done
once per cluster and shipped with the MPI library — the deployment model
the paper proposes.

For the ablation studies the broadcast calibration can swap the model
family (``"derived"`` vs ``"traditional"``) and the estimation method
(``"collective"`` in-context experiments vs classical ``"p2p"``
ping-pongs).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from repro import obs
from repro.clusters.spec import ClusterSpec
from repro.errors import EstimationError
from repro.estimation.alphabeta import (
    DEFAULT_GATHER_BYTES,
    DEFAULT_SIZES,
    OPERATION_PROFILES,
    AlphaBeta,
    alphabeta_prefetch_jobs,
    estimate_alpha_beta,
    operation_profile,
    sweep_points,
)
from repro.estimation.gamma import (
    DEFAULT_MAX_PROCS,
    DEFAULT_SEGMENT_SIZE,
    GammaEstimate,
    estimate_gamma,
    gamma_prefetch_jobs,
)
from repro.estimation.p2p import (
    P2pEstimate,
    estimate_hockney_p2p,
    p2p_prefetch_jobs,
)
from repro.exec.runner import ParallelRunner, default_runner
from repro.models.base import BcastModel
from repro.models.derived import DERIVED_BCAST_MODELS
from repro.models.gamma import GammaFunction
from repro.models.hockney import HockneyParams
from repro.models.allgather_models import DERIVED_ALLGATHER_MODELS
from repro.models.allreduce_models import DERIVED_ALLREDUCE_MODELS
from repro.models.alltoall_models import DERIVED_ALLTOALL_MODELS
from repro.models.barrier_models import DERIVED_BARRIER_MODELS
from repro.models.gather_models import DERIVED_GATHER_MODELS
from repro.models.reduce_models import DERIVED_REDUCE_MODELS
from repro.models.scatter_models import DERIVED_SCATTER_MODELS
from repro.models.traditional import TRADITIONAL_BCAST_MODELS

MODEL_FAMILIES = {
    "derived": DERIVED_BCAST_MODELS,
    "traditional": TRADITIONAL_BCAST_MODELS,
    "reduce_derived": DERIVED_REDUCE_MODELS,
    "gather_derived": DERIVED_GATHER_MODELS,
    "barrier_derived": DERIVED_BARRIER_MODELS,
    "allreduce_derived": DERIVED_ALLREDUCE_MODELS,
    "allgather_derived": DERIVED_ALLGATHER_MODELS,
    "alltoall_derived": DERIVED_ALLTOALL_MODELS,
    "scatter_derived": DERIVED_SCATTER_MODELS,
}

#: Which collective operation each model family describes.
FAMILY_OPERATION = {
    family: profile.operation
    for profile in OPERATION_PROFILES.values()
    for family in profile.model_families
}

ESTIMATION_METHODS = ("collective", "p2p")


def instantiate_model(
    factory: type[BcastModel], gamma: GammaFunction, model_params: dict
) -> BcastModel:
    """Construct a model, forwarding the ``extra_params`` it declares.

    Platform-dependent model constants (e.g. the hierarchical models'
    ``group_ranks``) travel in a ``model_params`` dict; each model class
    declares which keys it understands, so unrelated models ignore them.
    """
    kwargs = {
        key: model_params[key]
        for key in factory.extra_params
        if key in model_params
    }
    return factory(gamma, **kwargs)


@dataclass(frozen=True)
class PlatformModel:
    """A calibrated set of analytical models for one cluster.

    ``parameters`` maps algorithm names to their fitted Hockney parameters;
    ``gamma`` is the platform function; ``model_family`` selects which model
    equations to evaluate.
    """

    cluster: str
    segment_size: int
    gamma: GammaFunction
    parameters: dict[str, HockneyParams]
    model_family: str = "derived"
    #: Platform-dependent model constants forwarded to model
    #: constructors that declare them (``BcastModel.extra_params``),
    #: e.g. ``{"group_ranks": 5}`` on a racked fabric.  Serialised only
    #: when non-empty, so flat-fabric platforms round-trip byte-for-byte.
    model_params: dict = field(default_factory=dict)
    _models: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.model_family not in MODEL_FAMILIES:
            raise EstimationError(
                f"unknown model family {self.model_family!r}; "
                f"known: {sorted(MODEL_FAMILIES)}"
            )

    @property
    def algorithms(self) -> list[str]:
        """Algorithms this platform model can predict, sorted by name."""
        return sorted(self.parameters)

    @property
    def operation(self) -> str:
        """The collective operation this platform model describes."""
        return FAMILY_OPERATION[self.model_family]

    def model_for(self, algorithm: str) -> BcastModel:
        """The (cached) model instance for ``algorithm``."""
        model = self._models.get(algorithm)
        if model is None:
            family = MODEL_FAMILIES[self.model_family]
            try:
                model = instantiate_model(
                    family[algorithm], self.gamma, self.model_params
                )
            except KeyError:
                known = ", ".join(sorted(family))
                raise EstimationError(
                    f"no {self.model_family} model for {algorithm!r}; known: {known}"
                ) from None
            self._models[algorithm] = model
        return model

    def predict(
        self,
        algorithm: str,
        procs: int,
        nbytes: int,
        segment_size: int | None = None,
    ) -> float:
        """Predicted broadcast time of ``algorithm`` at ``(procs, nbytes)``."""
        try:
            params = self.parameters[algorithm]
        except KeyError:
            known = ", ".join(self.algorithms)
            raise EstimationError(
                f"no parameters for {algorithm!r}; calibrated: {known}"
            ) from None
        seg = self.segment_size if segment_size is None else segment_size
        return self.model_for(algorithm).predict(procs, nbytes, seg, params)

    def predict_all(self, procs: int, nbytes: int) -> dict[str, float]:
        """Predictions of every calibrated algorithm at ``(procs, nbytes)``."""
        return {
            name: self.predict(name, procs, nbytes) for name in self.algorithms
        }

    # -- serialisation -----------------------------------------------------

    def to_dict(self) -> dict:
        doc = {
            "cluster": self.cluster,
            "segment_size": self.segment_size,
            "model_family": self.model_family,
            "gamma": {str(p): g for p, g in sorted(self.gamma.table.items())},
            "parameters": {
                name: {"alpha": p.alpha, "beta": p.beta}
                for name, p in sorted(self.parameters.items())
            },
        }
        if self.model_params:
            # Key present only when set: pre-fabric platform files (and
            # their artifact content hashes) stay byte-identical.
            doc["model_params"] = dict(sorted(self.model_params.items()))
        return doc

    @classmethod
    def from_dict(cls, data: dict) -> "PlatformModel":
        return cls(
            cluster=data["cluster"],
            segment_size=int(data["segment_size"]),
            model_family=data.get("model_family", "derived"),
            gamma=GammaFunction(
                {int(p): float(g) for p, g in data["gamma"].items()}
            ),
            parameters={
                name: HockneyParams(float(v["alpha"]), float(v["beta"]))
                for name, v in data["parameters"].items()
            },
            model_params=dict(data.get("model_params", {})),
        )

    def save(self, path: str | Path) -> None:
        """Write the calibration to a JSON file."""
        Path(path).write_text(json.dumps(self.to_dict(), indent=2) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "PlatformModel":
        """Read a calibration from a JSON file."""
        return cls.from_dict(json.loads(Path(path).read_text()))


@dataclass(frozen=True)
class QualityThresholds:
    """Acceptance gate for calibration fits (the ``--strict`` build).

    ``max_relative_residual`` bounds the worst residual of a fit relative
    to the data scale; ``min_converged_fraction`` requires that share of a
    sweep's measurements to have met the paper's CI precision target.  The
    residual default is deliberately generous (0.5): some model-form error
    is inherent even on a noiseless cluster (e.g. split-binary on very
    small worlds), and the gate's job is to catch *noise-wrecked*
    calibrations, not to relitigate the model family.
    """

    max_relative_residual: float = 0.5
    min_converged_fraction: float = 0.5


#: Default gate used by ``repro artifact build --strict``.
DEFAULT_QUALITY = QualityThresholds()


@dataclass(frozen=True)
class CalibrationResult:
    """A :class:`PlatformModel` plus the raw estimates behind it."""

    platform: PlatformModel
    #: The γ(P) estimate (None for operations with the ideal γ).
    gamma_estimate: GammaEstimate | None
    alpha_beta: dict[str, AlphaBeta]
    p2p_estimate: P2pEstimate | None

    def quality_report(self) -> dict[str, dict]:
        """Per-algorithm fit diagnostics, JSON-ready (empty for p2p runs)."""
        return {
            name: estimate.quality.as_dict()
            for name, estimate in sorted(self.alpha_beta.items())
            if estimate.quality is not None
        }

    def check_quality(
        self, thresholds: QualityThresholds = DEFAULT_QUALITY
    ) -> list[str]:
        """Names of algorithms whose fit fails ``thresholds`` (empty = pass)."""
        return [
            name
            for name, estimate in sorted(self.alpha_beta.items())
            if estimate.quality is not None
            and not estimate.quality.ok(
                max_relative_residual=thresholds.max_relative_residual,
                min_converged_fraction=thresholds.min_converged_fraction,
            )
        ]


def calibrate_platform(
    spec: ClusterSpec,
    *,
    operation: str = "bcast",
    procs: int | None = None,
    proc_counts: Sequence[int] | None = None,
    algorithms: Sequence[str] | None = None,
    model_family: str | None = None,
    estimation: str = "collective",
    gamma_method: str = "direct",
    segment_size: int = DEFAULT_SEGMENT_SIZE,
    sizes: Sequence[int] = DEFAULT_SIZES,
    gather_bytes=DEFAULT_GATHER_BYTES,
    gamma_max_procs: int = DEFAULT_MAX_PROCS,
    regressor: str = "huber",
    precision: float = 0.025,
    max_reps: int = 30,
    seed: int = 0,
    runner: ParallelRunner | None = None,
    screen_mad: float | None = None,
    retry_budget: int = 0,
    strict: QualityThresholds | None = None,
    model_params: dict | None = None,
) -> CalibrationResult:
    """Run the paper's full calibration procedure for ``operation`` on ``spec``.

    With the defaults this is exactly §4 for the broadcast: γ from
    collective experiments, then per-algorithm α/β from broadcast+gather
    experiments fitted by Huber regression.  Every other collective runs
    the same procedure with the experiment its
    :data:`~repro.estimation.alphabeta.OPERATION_PROFILES` entry describes
    (γ is estimated for bcast and reduce only; the barrier sweeps
    ``proc_counts`` instead of ``procs`` and ``sizes``).  ``model_family``
    defaults to the operation's derived family.  Two ablations are
    broadcast-only: ``estimation="p2p"`` replaces the α/β step with one
    ping-pong fit shared by all algorithms, and
    ``model_family="traditional"`` swaps in the traditional models.

    All simulations route through ``runner`` (default: the process-wide
    runner).  The sweep is validated first; then the *entire* experiment
    schedule — γ plus every algorithm's sweep — is prefetched as one batch,
    so with a parallel runner the whole calibration's simulations run
    concurrently and the serial estimation stages replay from the memo.

    Robustness knobs (all default off; the vanilla calibration is
    bit-identical to earlier releases): ``screen_mad`` / ``retry_budget``
    are forwarded to :func:`estimate_alpha_beta`; passing ``strict``
    thresholds makes the calibration *fail* (:class:`EstimationError`)
    instead of silently returning fits that miss them.
    """
    profile = operation_profile(operation)
    if estimation not in ESTIMATION_METHODS:
        raise EstimationError(
            f"unknown estimation method {estimation!r}; use {ESTIMATION_METHODS}"
        )
    if model_family is None:
        model_family = profile.model_families[0]
    family = MODEL_FAMILIES[model_family]  # validates the family name
    if model_family not in profile.model_families:
        raise EstimationError(
            f"{operation} calibration cannot use the {model_family!r} model "
            f"family; use {profile.model_families}"
        )
    if estimation == "p2p" and operation != "bcast":
        raise EstimationError("the p2p estimation ablation is bcast-only")
    if estimation == "collective":
        sweep_points(
            spec, profile, procs=procs, sizes=sizes, proc_counts=proc_counts
        )
    if algorithms is None:
        algorithms = sorted(
            name
            for name in family
            if profile.default_algorithms is None
            or name in profile.default_algorithms
        )
    sweep = dict(
        operation=operation,
        procs=procs,
        sizes=sizes,
        proc_counts=proc_counts,
        segment_size=segment_size,
        gather_bytes=gather_bytes,
    )

    with obs.span(
        "calibrate.platform",
        operation=operation,
        cluster=spec.name,
        estimation=estimation,
        model_family=model_family,
        algorithms=",".join(algorithms),
    ):
        runner = runner if runner is not None else default_runner()
        batch = []
        if profile.gamma:
            batch += gamma_prefetch_jobs(
                spec,
                segment_size=segment_size,
                max_procs=gamma_max_procs,
                method=gamma_method,
                seed=seed,
            )
        if estimation == "p2p":
            batch += p2p_prefetch_jobs(spec, sizes=sizes, seed=seed)
        else:
            for index, name in enumerate(algorithms):
                batch += alphabeta_prefetch_jobs(
                    spec,
                    name,
                    seed=seed + profile.seed_stride * (index + 1),
                    **sweep,
                )
        with obs.span(
            "calibrate.prefetch", jobs=len(batch), batched=runner.batch
        ):
            runner.prefetch(batch)

        gamma_estimate: GammaEstimate | None = None
        gamma = GammaFunction.ideal()
        if profile.gamma:
            gamma_estimate = estimate_gamma(
                spec,
                segment_size=segment_size,
                max_procs=gamma_max_procs,
                method=gamma_method,
                precision=precision,
                max_reps=max_reps,
                seed=seed,
                runner=runner,
                prefetch=False,
            )
            gamma = gamma_estimate.function()

        alpha_beta: dict[str, AlphaBeta] = {}
        parameters: dict[str, HockneyParams] = {}
        p2p_estimate: P2pEstimate | None = None

        if estimation == "p2p":
            p2p_estimate = estimate_hockney_p2p(
                spec,
                sizes=sizes,
                regressor=regressor,
                precision=precision,
                max_reps=max_reps,
                seed=seed,
                runner=runner,
                prefetch=False,
            )
            parameters = {name: p2p_estimate.params for name in algorithms}
        else:
            for index, name in enumerate(algorithms):
                model = instantiate_model(family[name], gamma, model_params or {})
                estimate = estimate_alpha_beta(
                    spec,
                    model,
                    regressor=regressor,
                    precision=precision,
                    max_reps=max_reps,
                    seed=seed + profile.seed_stride * (index + 1),
                    runner=runner,
                    prefetch=False,
                    screen_mad=screen_mad,
                    retry_budget=retry_budget,
                    **sweep,
                )
                alpha_beta[name] = estimate
                parameters[name] = estimate.params

        platform = PlatformModel(
            cluster=spec.name,
            segment_size=segment_size if profile.segmented else 0,
            gamma=gamma,
            parameters=parameters,
            model_family=model_family,
            model_params=dict(model_params or {}),
        )
        result = CalibrationResult(
            platform=platform,
            gamma_estimate=gamma_estimate,
            alpha_beta=alpha_beta,
            p2p_estimate=p2p_estimate,
        )
        if strict is not None:
            failed = result.check_quality(strict)
            if failed:
                details = "; ".join(
                    f"{name}: {alpha_beta[name].quality.as_dict()}" for name in failed
                )
                raise EstimationError(
                    f"{spec.name}: calibration quality gate failed for "
                    f"{', '.join(failed)} ({details})"
                )
        return result
