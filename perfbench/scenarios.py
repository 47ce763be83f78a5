"""What each workload builds and serves, and why it exists.

A *scenario* is the artifact a user builds: cluster preset, noise,
fabric, collectives and calibration knobs.  A *workload* runs one
scenario through the whole user journey -- cold build, warm rebuild,
serving the artifact -- and decides where the run's time goes.  Every
workload reports every end-to-end metric, so two commits can be compared
metric by metric on each workload.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

ALL_COLLECTIVES = (
    "bcast", "reduce", "gather", "barrier",
    "allreduce", "allgather", "alltoall", "scatter",
)


@dataclass(frozen=True)
class Scenario:
    cluster: str
    collectives: tuple[str, ...]
    procs: int
    gamma_max_procs: int = 5
    max_reps: int = 8
    #: ``None`` keeps the preset's noise (GROS ships sigma = 0.015).
    noise: float | None = None
    fabric: str = ""
    #: Decision grid; ``None`` is ``build_artifact``'s default (62 x 10
    #: on GROS).
    proc_points: tuple[int, ...] | None = None
    size_points: tuple[int, ...] | None = None

    def params(self) -> dict:
        return {**asdict(self), "jobs": 1}


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: Scenario
    why: str
    #: Whose peak RSS ``peak_rss_mb`` reports: "build" (the largest
    #: cold build child) or "serve" (the server).
    focus: str
    #: Cycles a run makes, each in an equal share of ``--seconds``: one
    #: cold build, then rounds until the share is used.
    cycles: int
    #: A round is one burst of warm rebuilds, at least one and
    #: ``warm_seconds`` long, then one ``slice_seconds`` slice of every
    #: serving phase (pipelined singles, pipelined batches, depth 1).
    #: Short rounds spread every metric's samples over the whole run.
    slice_seconds: float = 0.25
    warm_seconds: float = 0.2


NOISY = Scenario(cluster="gros", collectives=ALL_COLLECTIVES, procs=8)
QUIET = Scenario(cluster="gros", collectives=ALL_COLLECTIVES, procs=16, noise=0.0)
FABRIC = Scenario(
    cluster="minicluster", collectives=("bcast", "reduce"), procs=16,
    fabric="leaf_spine_2to1",
)

WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            name="build-noisy",
            scenario=NOISY,
            why="the cold build users pay on GROS as shipped (noisy): every "
                "cell on the event loop plus serial adaptive top-ups",
            focus="build",
            cycles=1,
        ),
        Workload(
            name="build-fabric",
            scenario=FABRIC,
            why="the only workload on a two-rack leaf-spine fabric: "
                "repro.fabric, shared uplinks and hierarchical candidates",
            focus="build",
            cycles=1,
        ),
        Workload(
            name="build-quiet-serve-mixed",
            scenario=QUIET,
            why="noise-free GROS, where the columnar sim.batch kernels do "
                "most of the build; its artifact served under all eight "
                "operations, on- and off-grid, LRU and batch paths",
            focus="serve",
            cycles=3,
        ),
    )
}

#: A seconds-long configuration for the self-tests: a small minicluster
#: build and short serving phases exercise every code path of a run.
SMOKE = Workload(
    name="smoke",
    scenario=Scenario(
        cluster="minicluster", collectives=("bcast", "barrier"), procs=4,
        max_reps=3, gamma_max_procs=3, proc_points=(2, 4, 8),
        size_points=(8192, 65536),
    ),
    why="self-test configuration",
    focus="serve",
    cycles=1,
    slice_seconds=0.1,
    warm_seconds=0.05,
)
