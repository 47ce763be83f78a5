"""Scenario: the paper's future work — model-based MPI_Reduce selection.

The paper validates its method on MPI_Bcast and proposes extending it to
the other collectives.  This example runs the complete extension for the
reduce family on the small test cluster:

1. calibrate: γ(P) plus per-algorithm α/β from reduce+scatter experiments
   (the dual of the paper's broadcast+gather experiment — both start and
   finish on the root);
2. select: the same argmin machinery, now over reduce models;
3. verify: compare each pick against exhaustive measurement and against
   Open MPI 3.1's fixed reduce decision function (ported), which famously
   falls back to *linear* reduce for large messages.

Run:  python examples/future_work_reduce.py
"""

from repro.clusters import MINICLUSTER
from repro.estimation.workflow import calibrate_platform
from repro.measure import time_reduce
from repro.models.reduce_models import DERIVED_REDUCE_MODELS
from repro.selection.model_based import ModelBasedSelector
from repro.selection.ompi_fixed import OmpiFixedSelector
from repro.units import KiB, MiB, format_bytes, format_seconds, log_spaced_sizes

PROCS = 14
SIZES = log_spaced_sizes(8 * KiB, 2 * MiB, 7)


def main() -> None:
    cluster = MINICLUSTER
    print(f"Platform: {cluster.describe()}")

    print("\nCalibrating the reduce family (the paper's §4, dualised)...")
    platform = calibrate_platform(cluster, operation="reduce", procs=8).platform
    for name in platform.algorithms:
        print(f"  {name:20s} {platform.parameters[name]}")

    model_selector = ModelBasedSelector(platform)
    ompi_selector = OmpiFixedSelector(operation="reduce")

    print(f"\nMPI_Reduce selection at P={PROCS} (vs measured best):")
    header = (
        f"{'message':>9} {'best':>20} {'model pick':>20} {'deg%':>6} "
        f"{'Open MPI pick':>22} {'deg%':>6}"
    )
    print(header)
    measured_cache: dict = {}

    def measured(name: str, nbytes: int, segment: int = 8 * KiB) -> float:
        key = (name, nbytes, segment)
        if key not in measured_cache:
            measured_cache[key] = time_reduce(
                cluster, name, PROCS, nbytes, segment
            )
        return measured_cache[key]

    model_total = ompi_total = 0.0
    for nbytes in SIZES:
        times = {name: measured(name, nbytes) for name in DERIVED_REDUCE_MODELS}
        best = min(times, key=times.get)
        model_pick = model_selector.select(PROCS, nbytes)
        ompi_pick = ompi_selector.select(PROCS, nbytes)
        model_time = measured(model_pick.algorithm, nbytes, model_pick.segment_size)
        ompi_time = measured(ompi_pick.algorithm, nbytes, ompi_pick.segment_size)
        model_deg = 100 * (model_time - times[best]) / times[best]
        ompi_deg = 100 * (ompi_time - times[best]) / times[best]
        model_total += model_deg
        ompi_total += ompi_deg
        print(
            f"{format_bytes(nbytes):>9} {best:>20} {model_pick.algorithm:>20} "
            f"{model_deg:>6.1f} {ompi_pick.describe():>22} {ompi_deg:>6.1f}"
        )

    print(
        f"\nAccumulated degradation: model-based {model_total:.0f}%, "
        f"Open MPI fixed {ompi_total:.0f}%"
    )
    print(
        "The fixed reduce decision selects linear reduce once the message\n"
        "grows (its a1*m + b1 boundary overtakes any communicator size) —\n"
        "the kind of hard-coded mistake the paper's method removes."
    )


if __name__ == "__main__":
    main()
