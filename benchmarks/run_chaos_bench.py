"""Chaos benchmark: selection drift under faults; writes BENCH_chaos.json.

Runs :func:`repro.bench.chaos.chaos_sweep` — the Table-3 selection
comparison on clusters degraded by deterministic straggler fault plans of
rising severity, recalibrated on the faulted platform with the robustness
knobs on — and asserts the ISSUE 3 acceptance criteria:

1. at **severity 0** the faulted pipeline is byte-identical to the
   pristine one (the disabled plan leaves every fingerprint untouched);
2. at **severity <= 0.02** the strict-quality calibration still passes
   and model-based selection stays **within 10% of the measured oracle**;
3. a strict ``build_artifact`` on the severity-0.02 faulted cluster
   succeeds (the quality gate tolerates a mild straggler).

Usage::

    PYTHONPATH=src python benchmarks/run_chaos_bench.py --smoke
    PYTHONPATH=src python benchmarks/run_chaos_bench.py            # full sweep
    PYTHONPATH=src python benchmarks/run_chaos_bench.py --jobs 8
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from bench_meta import run_metadata  # noqa: E402
from repro.bench.chaos import chaos_sweep, format_chaos, severity_plan  # noqa: E402
from repro.clusters import MINICLUSTER  # noqa: E402
from repro.errors import ArtifactError  # noqa: E402
from repro.exec import ParallelRunner, cpu_count  # noqa: E402
from repro.service.artifact import build_artifact  # noqa: E402
from repro.units import KiB, log_spaced_sizes  # noqa: E402

#: The acceptance bar: model within this much of the oracle at mild faults.
DRIFT_BUDGET_PERCENT = 10.0

#: "Mild": the acceptance criterion's straggler severity.
MILD_SEVERITY = 0.02


def run(smoke: bool, jobs: int, seed: int) -> dict:
    runner = ParallelRunner(jobs=jobs)
    if smoke:
        severities = (0.0, MILD_SEVERITY)
        max_reps = 3
        procs = max(2, MINICLUSTER.max_procs // 2)
    else:
        severities = (0.0, 0.01, MILD_SEVERITY, 0.05, 0.1)
        max_reps = 6
        procs = max(2, MINICLUSTER.max_procs // 2)

    started = time.perf_counter()
    reports = chaos_sweep(
        MINICLUSTER,
        procs=procs,
        severities=severities,
        max_reps=max_reps,
        seed=seed,
        runner=runner,
    )
    sweep_seconds = time.perf_counter() - started
    print(format_chaos(reports))

    # 1. Severity 0 is the pristine pipeline, bit-for-bit.
    clean = severity_plan(MINICLUSTER, procs, 0.0)
    assert not clean.enabled(), "severity 0 must be a disabled plan"
    faulted = MINICLUSTER.with_faults(severity_plan(MINICLUSTER, procs, 0.1))
    assert faulted.fingerprint() != MINICLUSTER.fingerprint()

    # 2. Mild faults: strict calibration passes, drift within budget.
    for report in reports:
        if report.severity <= MILD_SEVERITY:
            assert report.strict_ok, (
                f"strict calibration failed at severity {report.severity}: "
                f"{report.quality_failures}"
            )
            assert report.max_model_degradation <= DRIFT_BUDGET_PERCENT, (
                f"severity {report.severity}: model drifted "
                f"{report.max_model_degradation:.2f}% from the oracle "
                f"(budget {DRIFT_BUDGET_PERCENT}%)"
            )

    # 3. Strict artifact build succeeds on the mildly faulted cluster.
    mild = MINICLUSTER.with_faults(
        severity_plan(MINICLUSTER, procs, MILD_SEVERITY)
    )
    try:
        artifact = build_artifact(
            mild,
            proc_points=(4, procs),
            size_points=tuple(log_spaced_sizes(8 * KiB, 1024 * KiB, 4)),
            max_reps=max_reps,
            seed=seed,
            runner=runner,
            strict=True,
        )
    except ArtifactError as error:
        raise AssertionError(
            f"strict build refused a {MILD_SEVERITY:.0%}-severity "
            f"straggler: {error}"
        ) from None
    print(f"strict artifact build OK: {artifact.artifact_id}")

    print(f"sweep completed in {sweep_seconds:.1f} s "
          f"({'smoke' if smoke else 'full'}, jobs={jobs})")
    return {
        "metadata": run_metadata(),
        "benchmark": "chaos",
        "mode": "smoke" if smoke else "full",
        "cluster": MINICLUSTER.name,
        "procs": procs,
        "jobs": jobs,
        "seed": seed,
        "sweep_seconds": sweep_seconds,
        "drift_budget_percent": DRIFT_BUDGET_PERCENT,
        "strict_artifact": artifact.artifact_id,
        "reports": [report.as_dict() for report in reports],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="two severities, low rep count (CI budget)")
    parser.add_argument("--jobs", type=int, default=min(4, cpu_count()))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default=str(REPO / "BENCH_chaos.json"))
    args = parser.parse_args()

    record = run(args.smoke, args.jobs, args.seed)
    out = Path(args.out)
    runs = []
    if out.exists():
        try:
            existing = json.loads(out.read_text())
        except json.JSONDecodeError:
            existing = {"runs": []}
        # Files from before the runs list held a bare list of records.
        runs = existing if isinstance(existing, list) else existing["runs"]
    runs.append(record)
    out.write_text(json.dumps({"runs": runs}, indent=2) + "\n")
    print(f"run {len(runs)} appended to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
