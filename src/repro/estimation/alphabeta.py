"""Per-algorithm estimation of the Hockney parameters (paper §4.2).

This is the paper's second contribution: instead of measuring α and β once
with ping-pongs, they are estimated *separately for each collective
algorithm*, from communication experiments that contain the algorithm
itself, so the fitted parameters capture the context the point-to-point
transfers actually run in (pipelining, concurrent injection, protocol
effects).

The broadcast experiment (Eq. 7): a broadcast of ``m`` bytes with the
algorithm under test, immediately followed by a linear-without-
synchronisation gather of ``m_g`` bytes per rank — so the experiment starts
*and finishes* on the root, whose clock times it.  With the algorithm's
model supplying its coefficients ``(c_α, c_β)`` and the gather contributing
``(P-1, (P-1)·m_g)`` (Eq. 8), each message size yields one linear equation

    (c_α + P - 1)·α + (c_β + (P-1)·m_g)·β = T.

Dividing by the α-coefficient puts the system in the canonical form of the
paper's Fig. 4, ``α + β·x_i = y_i``, which the Huber regressor solves.

The same estimation applies to every collective; only the experiment
differs.  :data:`OPERATION_PROFILES` records what does, per operation:

* reduce mirrors the broadcast — the reduce under test followed by a
  linear scatter from the root, whose root-side cost has the gather's
  ``(P-1, (P-1)·m_g)`` shape;
* gather needs no companion: it already finishes on the root, and every
  gather model's ``c_α`` is constant in ``m`` while ``c_β`` grows with it,
  so the size sweep alone spreads the canonical ``x_i``;
* allreduce, allgather, alltoall and scatter are timed globally (the
  root's clock would miss the last delivery), again without a companion;
* the barrier carries no payload, so every equation has ``c_β = 0`` and
  only α is identifiable.  Its sweep varies ``P`` instead of ``m``, and α
  is the least-squares line through the origin, ``α = Σc_i·T_i / Σc_i²``
  — the maximum-likelihood estimate under i.i.d. noise for
  ``T_i = c_i·α``.

Only broadcast and reduce estimate γ(P); the other families already
contain their serialisation in the model forms and use the ideal platform
function.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from repro import obs
from repro.clusters.spec import ClusterSpec
from repro.collectives.bcast import PAPER_BCAST_ALGORITHMS
from repro.collectives.reduce import DEFAULT_REDUCE_ALGORITHMS
from repro.errors import EstimationError
from repro.estimation.gamma import DEFAULT_SEGMENT_SIZE
from repro.estimation.regression import FitResult, get_regressor, mad_screen
from repro.estimation.statistics import SampleStats, adaptive_measure
from repro.exec.job import SimJob
from repro.exec.runner import ParallelRunner, default_runner
from repro.models.base import BcastModel
from repro.models.gather_models import linear_gather_coefficients
from repro.models.hockney import HockneyParams
from repro.units import KiB, MiB, log_spaced_sizes

#: The paper's broadcast size sweep: ten log-spaced sizes, 8 KB to 4 MB.
DEFAULT_SIZES = tuple(log_spaced_sizes(8 * KiB, 4 * MiB, 10))


def default_gather_bytes(nbytes: int) -> int:
    """The default ``m_g`` schedule: grows with the broadcast size.

    The paper varies ``m_g`` across the experiments (``m_g ∈ {m_g1..m_gM}``,
    with ``m_g ≠ m_s``) — and it must: for segmented algorithms the
    per-segment size is constant, so with a *fixed* gather size every
    canonical equation would have (nearly) the same ``x_i`` and the system
    of Fig. 4 would be singular.  A gather size proportional to ``m``
    spreads the ``x_i`` while staying small enough that the broadcast under
    test still dominates the experiment.
    """
    return max(1 * KiB, nbytes // 64)


#: Default gather schedule (see :func:`default_gather_bytes`).
DEFAULT_GATHER_BYTES = default_gather_bytes

#: Seed stride between the points of a message-size sweep.
SIZE_POINT_STRIDE = 104_729
#: Seed stride between the points of a communicator-size sweep.
PROC_POINT_STRIDE = 53_777
#: Seed stride separating retry attempts of a non-converged measurement
#: from each other and from the primary repetition stream.
RETRY_SEED_STRIDE = 15_485_863

#: Calibration kwargs every operation accepts.
_COMMON_KWARGS = frozenset(
    {"algorithms", "precision", "max_reps", "seed", "retry_budget"}
)
#: ... plus those of a message-size sweep fitted by regression.
_SIZE_SWEEP_KWARGS = _COMMON_KWARGS | {"procs", "sizes", "regressor", "screen_mad"}
#: ... plus those of a segmented experiment with an estimated γ.
_GAMMA_KWARGS = _SIZE_SWEEP_KWARGS | {"segment_size", "gamma_max_procs", "model_params"}


@dataclass(frozen=True)
class OperationProfile:
    """Everything that distinguishes one operation's α/β calibration.

    ``accepts`` and ``tolerates`` are the operation's calibration-kwarg
    contract in a combined multi-collective build (see
    :class:`~repro.estimation.registry.CalibrationPipeline`).
    """

    operation: str
    #: :class:`~repro.exec.job.SimJob` kind of the experiment.
    kind: str
    #: Model families the operation can be calibrated for; the first one
    #: is the default (bcast adds the ``traditional`` ablation).
    model_families: tuple[str, ...]
    #: Per-algorithm seed stride — distinct per operation so combined
    #: builds never alias two operations' repetition streams.
    seed_stride: int
    accepts: frozenset[str]
    tolerates: frozenset[str] = frozenset()
    #: Timing policy of the experiment runs.
    policy: str = "global"
    #: Whether a linear gather/scatter of ``gather_bytes(m)`` per rank
    #: follows the operation (its coefficients join the equation).
    companion: bool = False
    #: Whether the model and the experiment see the segment size (else 0).
    segmented: bool = False
    #: Whether γ(P) is estimated (else the ideal platform function).
    gamma: bool = False
    #: The swept variable: ``"sizes"`` (at one ``procs``) or
    #: ``"proc_counts"`` (payload-free operations).
    sweep: str = "sizes"
    #: α-only through-origin fit instead of the canonical regression.
    alpha_only: bool = False
    #: Algorithms calibrated by default (None: the whole model family).
    default_algorithms: tuple[str, ...] | None = None
    #: Decisions do not depend on the message size (single-column tables).
    size_independent: bool = False

    @property
    def point_stride(self) -> int:
        """Seed stride between the points of this operation's sweep."""
        if self.sweep == "proc_counts":
            return PROC_POINT_STRIDE
        return SIZE_POINT_STRIDE


#: Calibration profiles of every collective with a model family.
OPERATION_PROFILES: dict[str, OperationProfile] = {
    profile.operation: profile
    for profile in (
        OperationProfile(
            operation="bcast",
            kind="bcast_then_gather",
            model_families=("derived", "traditional"),
            seed_stride=2_000_017,
            accepts=_GAMMA_KWARGS | {
                "model_family", "estimation", "gamma_method",
                "gather_bytes", "strict",
            },
            companion=True,
            segmented=True,
            gamma=True,
            # The paper's six algorithms; extension models (e.g.
            # scatter_allgather) are opt-in via an explicit list.
            default_algorithms=PAPER_BCAST_ALGORITHMS,
        ),
        OperationProfile(
            operation="reduce",
            kind="reduce_then_scatter",
            model_families=("reduce_derived",),
            seed_stride=3_000_017,
            accepts=_GAMMA_KWARGS,
            companion=True,
            segmented=True,
            gamma=True,
            # The flat-fabric default: topology-aware algorithms
            # (hierarchical) are opt-in, keeping pre-fabric builds identical.
            default_algorithms=DEFAULT_REDUCE_ALGORITHMS,
        ),
        OperationProfile(
            operation="gather",
            kind="gather",
            policy="root",
            model_families=("gather_derived",),
            seed_stride=5_000_011,
            accepts=_SIZE_SWEEP_KWARGS,
            # γ, segmentation and fabric model constants only parameterise
            # sibling pipelines: these families use the ideal platform
            # function and are unsegmented, with no topology-aware variant.
            tolerates=_GAMMA_KWARGS - _SIZE_SWEEP_KWARGS,
        ),
        OperationProfile(
            operation="barrier",
            kind="barrier",
            model_families=("barrier_derived",),
            seed_stride=7_103,
            accepts=_COMMON_KWARGS | {"proc_counts"},
            # The sweep varies P, not m: size/segment/γ knobs and the
            # canonical-point screen concern the data-moving siblings only.
            tolerates=_GAMMA_KWARGS - _COMMON_KWARGS,
            sweep="proc_counts",
            alpha_only=True,
            size_independent=True,
        ),
        *(
            OperationProfile(
                operation=operation,
                kind=operation,
                model_families=(f"{operation}_derived",),
                seed_stride=seed_stride,
                accepts=_SIZE_SWEEP_KWARGS,
                tolerates=_GAMMA_KWARGS - _SIZE_SWEEP_KWARGS,
            )
            for operation, seed_stride in (
                ("allreduce", 7_000_003),
                ("allgather", 7_200_017),
                ("alltoall", 7_400_011),
                ("scatter", 7_600_003),
            )
        ),
    )
}


def operation_profile(operation: str) -> OperationProfile:
    """The calibration profile of ``operation``."""
    try:
        return OPERATION_PROFILES[operation]
    except KeyError:
        raise EstimationError(
            f"no calibration profile for {operation!r}; "
            f"known: {', '.join(sorted(OPERATION_PROFILES))}"
        ) from None


def sweep_points(
    spec: ClusterSpec,
    profile: OperationProfile,
    *,
    procs: int | None = None,
    sizes: Sequence[int] = DEFAULT_SIZES,
    proc_counts: Sequence[int] | None = None,
) -> list[tuple[int, int]]:
    """The validated ``(procs, nbytes)`` points of one algorithm's sweep.

    A size sweep runs at ``procs`` (default: half the cluster, the paper's
    choice); a ``proc_counts`` sweep carries no payload and defaults to
    three communicator sizes between an eighth and half the cluster.  Raises
    :class:`EstimationError` for out-of-range input, so callers validate
    before simulating anything.
    """
    if profile.sweep == "proc_counts":
        if procs is not None:
            raise EstimationError(
                f"{profile.operation} sweeps proc_counts; procs does not apply"
            )
        if proc_counts is None:
            top = spec.max_procs
            proc_counts = sorted(
                {max(2, top // 8), max(2, top // 3), max(2, top // 2)}
            )
        if len(proc_counts) < 1:
            raise EstimationError("need at least one communicator size")
        for count in proc_counts:
            if not 2 <= count <= spec.max_procs:
                raise EstimationError(f"{spec.name}: invalid procs {count}")
        return [(count, 0) for count in proc_counts]
    if proc_counts is not None:
        raise EstimationError(
            f"{profile.operation} sweeps message sizes; proc_counts does not apply"
        )
    if procs is None:
        procs = max(2, spec.max_procs // 2)
    if not 2 <= procs <= spec.max_procs:
        raise EstimationError(
            f"{spec.name}: procs={procs} outside 2..{spec.max_procs}"
        )
    if len(sizes) < 2:
        raise EstimationError("need at least two message sizes to fit a line")
    for nbytes in sizes:
        if nbytes < 0:
            raise EstimationError(f"negative message size {nbytes}")
    return [(procs, nbytes) for nbytes in sizes]


def _gather_of(gather_bytes: int | Callable[[int], int]) -> Callable[[int], int]:
    return gather_bytes if callable(gather_bytes) else (lambda _m: gather_bytes)


def _sweep_job(
    spec: ClusterSpec,
    profile: OperationProfile,
    algorithm: str,
    procs: int,
    nbytes: int,
    segment_size: int,
    gather_of: Callable[[int], int],
    seed: int,
) -> SimJob:
    """The simulation behind one repetition at one sweep point."""
    return SimJob(
        spec=spec,
        kind=profile.kind,
        procs=procs,
        algorithm=algorithm,
        nbytes=nbytes,
        segment_size=segment_size if profile.segmented else 0,
        gather_bytes=gather_of(nbytes) if profile.companion else 0,
        seed=seed,
        policy=profile.policy,
    )


def alphabeta_prefetch_jobs(
    spec: ClusterSpec,
    algorithm: str,
    *,
    operation: str = "bcast",
    procs: int | None = None,
    sizes: Sequence[int] = DEFAULT_SIZES,
    proc_counts: Sequence[int] | None = None,
    segment_size: int = DEFAULT_SEGMENT_SIZE,
    gather_bytes: int | Callable[[int], int] = DEFAULT_GATHER_BYTES,
    seed: int = 0,
    reps: int = 2,
) -> list[SimJob]:
    """The first ``reps`` repetitions of one algorithm's sweep, as jobs.

    Enumerates exactly the seeds :func:`estimate_alpha_beta`'s adaptive
    loop will request, so prefetching these makes the loop replay from the
    runner's memo.
    """
    profile = operation_profile(operation)
    points = sweep_points(
        spec, profile, procs=procs, sizes=sizes, proc_counts=proc_counts
    )
    gather_of = _gather_of(gather_bytes)
    return [
        _sweep_job(
            spec, profile, algorithm, point_procs, nbytes, segment_size,
            gather_of, seed + profile.point_stride * (index + 1) + 7919 * rep,
        )
        for index, (point_procs, nbytes) in enumerate(points)
        for rep in range(reps)
    ]


@dataclass(frozen=True)
class FitQuality:
    """Per-fit quality diagnostics: how trustworthy are these α/β?

    Recorded by :func:`estimate_alpha_beta` for every fit (the knobs that
    *change* the fit — screening, retries — stay opt-in, but diagnosing it
    is free), surfaced through :class:`CalibrationResult` and the strict
    artifact build's quality gate.
    """

    #: Canonical points available / dropped by MAD screening / fitted.
    points: int
    screened: int
    fitted: int
    #: Largest |residual| of the final fit over the fitted points.
    max_abs_residual: float
    #: ``max_abs_residual`` relative to the mean |y| of the fitted points —
    #: the scale-free "is this line actually describing the data" number.
    relative_residual: float
    #: Measurements whose CI met the precision target / total measurements.
    converged: int
    #: Measurements that were re-run under the retry budget.
    retried: int
    #: Mean CI half-width over mean, across all measurements.
    mean_relative_precision: float

    @property
    def converged_fraction(self) -> float:
        return self.converged / self.points if self.points else 1.0

    def ok(
        self,
        max_relative_residual: float = 0.5,
        min_converged_fraction: float = 0.5,
    ) -> bool:
        """Whether this fit passes the (strict-build) quality gate."""
        return (
            self.relative_residual <= max_relative_residual
            and self.converged_fraction >= min_converged_fraction
        )

    def as_dict(self) -> dict:
        return {
            "points": self.points,
            "screened": self.screened,
            "fitted": self.fitted,
            "max_abs_residual": self.max_abs_residual,
            "relative_residual": self.relative_residual,
            "converged": self.converged,
            "retried": self.retried,
            "mean_relative_precision": self.mean_relative_precision,
        }


@dataclass(frozen=True)
class AlphaBeta:
    """Fitted per-algorithm Hockney parameters plus fit diagnostics."""

    algorithm: str
    params: HockneyParams
    fit: FitResult
    #: The (x_i, y_i) points the line was fitted to: canonical points, or
    #: (message count, time) for an α-only fit through the origin.
    points: tuple[tuple[float, float], ...]
    #: Swept values of the experiments, in order: message sizes, or
    #: communicator sizes on a ``proc_counts`` sweep.
    sizes: tuple[int, ...]
    #: Statistics of each experiment's time measurement, one per point.
    stats: tuple[SampleStats, ...]
    #: Quality diagnostics of the fit (None for legacy constructions).
    quality: FitQuality | None = None

    @property
    def alpha(self) -> float:
        return self.params.alpha

    @property
    def beta(self) -> float:
        return self.params.beta


def estimate_alpha_beta(
    spec: ClusterSpec,
    model: BcastModel,
    *,
    operation: str = "bcast",
    procs: int | None = None,
    sizes: Sequence[int] = DEFAULT_SIZES,
    proc_counts: Sequence[int] | None = None,
    segment_size: int = DEFAULT_SEGMENT_SIZE,
    gather_bytes: int | Callable[[int], int] = DEFAULT_GATHER_BYTES,
    regressor: str = "huber",
    precision: float = 0.025,
    max_reps: int = 30,
    seed: int = 0,
    runner: ParallelRunner | None = None,
    prefetch: bool = True,
    screen_mad: float | None = None,
    retry_budget: int = 0,
) -> AlphaBeta:
    """Fit α and β for ``model.algorithm`` of ``operation`` on ``spec``.

    ``procs`` defaults to half the cluster, the paper's choice ("the use of
    larger numbers of nodes in the experiments will not change the
    estimation"); the barrier sweeps ``proc_counts`` instead.
    ``gather_bytes`` (the companion gather/scatter size of bcast and
    reduce) may be a constant or a function of the message size ``m`` (the
    paper varies ``m_g`` with the experiment).  Simulations run through
    ``runner`` (default: the process-wide runner); ``prefetch=False`` skips
    the warm-up batch when the caller has already prefetched a larger one.

    Robustness knobs (both default *off* so the vanilla estimate is
    bit-identical to earlier releases): ``screen_mad`` enables MAD-based
    outlier screening of the canonical points before the fit (see
    :func:`~repro.estimation.regression.mad_screen`), and ``retry_budget``
    re-runs each measurement whose CI misses the precision target up to
    that many times with fresh seeds, keeping the tightest sample.  Quality
    diagnostics are recorded in ``AlphaBeta.quality`` either way.
    """
    profile = operation_profile(operation)
    points = sweep_points(
        spec, profile, procs=procs, sizes=sizes, proc_counts=proc_counts
    )
    fit_fn = None if profile.alpha_only else get_regressor(regressor)
    gather_of = _gather_of(gather_bytes)
    runner = runner if runner is not None else default_runner()
    if prefetch:
        runner.prefetch(
            alphabeta_prefetch_jobs(
                spec,
                model.algorithm,
                operation=operation,
                procs=procs,
                sizes=sizes,
                proc_counts=proc_counts,
                segment_size=segment_size,
                gather_bytes=gather_bytes,
                seed=seed,
            )
        )

    memo_before = runner.stats.memo_hits
    sims_before = runner.stats.simulations
    with obs.span(
        "estimate.alphabeta",
        operation=operation,
        algorithm=model.algorithm,
        cluster=spec.name,
        procs=max(point_procs for point_procs, _ in points),
        sizes=len(points),
    ) as ab_span:
        coefficients = []
        stats: list[SampleStats] = []
        retried = 0
        for index, (point_procs, nbytes) in enumerate(points):
            coeffs = model.coefficients(
                point_procs, nbytes, segment_size if profile.segmented else 0
            )
            if profile.companion:
                coeffs = coeffs + linear_gather_coefficients(
                    point_procs, gather_of(nbytes)
                )
            if coeffs.c_alpha <= 0:
                raise EstimationError(
                    f"{model.algorithm}: degenerate experiment at "
                    f"P={point_procs}, m={nbytes}"
                )

            def measure_once(
                rep_seed: int, point_procs: int = point_procs, nbytes: int = nbytes
            ) -> float:
                return runner.run_one(
                    _sweep_job(
                        spec, profile, model.algorithm, point_procs, nbytes,
                        segment_size, gather_of, rep_seed,
                    )
                )

            base_seed = seed + profile.point_stride * (index + 1)
            sample = adaptive_measure(
                measure_once,
                precision=precision,
                max_reps=max_reps,
                seed=base_seed,
            )
            attempt = 0
            while not sample.converged and attempt < retry_budget:
                # A fresh seed gives an independent noise realisation; keep
                # whichever sample pinned the mean down tighter.
                attempt += 1
                retried += 1
                candidate = adaptive_measure(
                    measure_once,
                    precision=precision,
                    max_reps=max_reps,
                    seed=base_seed + RETRY_SEED_STRIDE * attempt,
                )
                if candidate.relative_precision < sample.relative_precision:
                    sample = candidate
            coefficients.append(coeffs)
            stats.append(sample)

        if profile.alpha_only:
            # T_i = c_i·α, fitted through the origin in the time domain.
            xs = [coeffs.c_alpha for coeffs in coefficients]
            ys = [sample.mean for sample in stats]
            numerator = denominator = 0.0
            for x, y in zip(xs, ys):
                numerator += x * y
                denominator += x * x
            alpha = numerator / denominator
            kept = list(range(len(xs)))
            fit = FitResult(
                0.0, alpha, tuple(y - x * alpha for x, y in zip(xs, ys)), 0
            )
            params = HockneyParams(alpha=alpha, beta=0.0)
        else:
            xs = [coeffs.c_beta / coeffs.c_alpha for coeffs in coefficients]
            ys = [
                sample.mean / coeffs.c_alpha
                for coeffs, sample in zip(coefficients, stats)
            ]
            if screen_mad is not None and len(xs) > 2:
                kept = mad_screen(xs, ys, threshold=screen_mad)
            else:
                kept = list(range(len(xs)))
            fit = fit_fn([xs[i] for i in kept], [ys[i] for i in kept])
            params = HockneyParams(
                alpha=max(fit.intercept, 0.0), beta=max(fit.slope, 0.0)
            )
        mean_abs_y = sum(abs(ys[i]) for i in kept) / len(kept)
        quality = FitQuality(
            points=len(xs),
            screened=len(xs) - len(kept),
            fitted=len(kept),
            # float() casts: residuals are numpy scalars, and quality dicts
            # must serialise to JSON (artifact documents, CLI output).
            max_abs_residual=float(fit.max_abs_residual),
            relative_residual=float(
                fit.max_abs_residual / mean_abs_y if mean_abs_y > 0 else 0.0
            ),
            converged=sum(1 for s in stats if s.converged),
            retried=retried,
            mean_relative_precision=float(
                sum(s.relative_precision for s in stats) / len(stats)
            ),
        )
        # Aggregate measurement traffic: single-job memo hits bypass
        # exec.run spans (runner fast path), so the counts live here.
        ab_span.set_attrs(
            memo_hits=runner.stats.memo_hits - memo_before,
            simulations=runner.stats.simulations - sims_before,
            retried=retried,
        )
        return AlphaBeta(
            algorithm=model.algorithm,
            params=params,
            fit=fit,
            points=tuple(zip(xs, ys)),
            sizes=tuple(
                point_procs if profile.sweep == "proc_counts" else nbytes
                for point_procs, nbytes in points
            ),
            stats=tuple(stats),
            quality=quality,
        )
