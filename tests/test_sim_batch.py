"""Tests for the batched grid simulator (:mod:`repro.sim.batch`).

The load-bearing properties:

* the columnar fast path is **bit-for-bit identical** to the event-loop
  engine over the full calibration grid of every collective — broadcast,
  reduce, gather and barrier pipelines alike;
* noisy cells take the columnar path too, bit-identical to the event
  loop, because every noise factor is keyed by message
  (:mod:`repro.sim.noise`), never by the order an engine draws it in;
* ineligible cells (fault plans, unsupported algorithms) fall back to
  :func:`repro.exec.execute_job` cleanly, still returning identical
  results;
* the runner's batched prefetch is equivalent to the serial path and a
  warm persistent cache replays a batch with *zero* new simulations;
* on every multi-level fabric the rack/pod link reservations and the
  hierarchical trees stay bit-identical too, and every fallback is
  recorded under a named reason.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.clusters import GRISOU, MINICLUSTER
from repro.clusters.presets import DEFAULT_NOISE_SIGMA
from repro.collectives import BARRIER_ALGORITHMS, GATHER_ALGORITHMS
from repro.collectives.bcast import BCAST_ALGORITHMS, PAPER_BCAST_ALGORITHMS
from repro.collectives.reduce import REDUCE_ALGORITHMS
from repro.estimation.alphabeta import alphabeta_prefetch_jobs
from repro.exec import ParallelRunner, ResultCache, SimJob, execute_job
from repro.fabric import available_fabrics, build_fabric
from repro.faults import HeavyTailSpec, compose_noise
from repro.faults.plan import FaultPlan, StragglerFault
from repro.service.artifact import build_artifact
from repro.sim import batch
from repro.sim.batch import BatchSimulator, dedupe_key, noise_free
from repro.sim.noise import TERMS, LognormalNoise
from repro.units import KiB, MiB

SIZES = (1 * KiB, 64 * KiB, 1 * MiB)

#: A quiet two-port SMP cluster: exercises shared memory, the two NICs per
#: node and the spread/block distinction that MINICLUSTER (1 ppn) cannot.
GRISOU_QUIET = GRISOU.with_noise(0.0)


def calibration_grid(spec, procs):
    """Every job the four calibration pipelines would prefetch."""
    jobs: list[SimJob] = []
    for algorithm in PAPER_BCAST_ALGORITHMS:
        jobs += alphabeta_prefetch_jobs(
            spec, algorithm, procs=procs, sizes=SIZES
        )
    for algorithm in REDUCE_ALGORITHMS:
        jobs += alphabeta_prefetch_jobs(
            spec, algorithm, operation="reduce", procs=procs, sizes=SIZES
        )
    for algorithm in GATHER_ALGORITHMS:
        jobs += alphabeta_prefetch_jobs(
            spec, algorithm, operation="gather", procs=procs, sizes=SIZES
        )
    for algorithm in BARRIER_ALGORITHMS:
        jobs += alphabeta_prefetch_jobs(
            spec, algorithm, operation="barrier", proc_counts=(4, procs)
        )
    return jobs


class TestColumnarParity:
    @pytest.mark.parametrize(
        "spec,procs",
        [(MINICLUSTER, 12), (GRISOU_QUIET, 24)],
        ids=["minicluster", "grisou-quiet"],
    )
    def test_full_calibration_grid_bit_identical(self, spec, procs):
        jobs = calibration_grid(spec, procs)
        sim = BatchSimulator()
        got = sim.run(jobs)
        want = [execute_job(job) for job in jobs]
        assert got == want  # bit-for-bit, not approx
        # The dominant broadcast/reduce grids must actually take the
        # columnar path — a silent wholesale fallback would pass parity
        # while destroying the speedup.
        assert sim.stats.columnar > sim.stats.event_loop
        assert sim.stats.cells == len(jobs)

    def test_bcast_root_and_policy_variants(self):
        jobs = [
            SimJob(
                spec=MINICLUSTER,
                kind="bcast",
                procs=10,
                algorithm=algorithm,
                nbytes=32 * KiB,
                segment_size=8 * KiB,
                root=root,
                policy=policy,
                mapping=mapping,
            )
            for algorithm in ("linear", "chain", "binary", "binomial")
            for root in (0, 3)
            for policy in ("root", "global")
            for mapping in ("block", "spread")
        ]
        sim = BatchSimulator()
        assert sim.run(jobs) == [execute_job(job) for job in jobs]
        assert sim.stats.columnar == len(jobs)

    def test_noise_free_cells_are_seed_deduped(self):
        jobs = [
            SimJob(spec=MINICLUSTER, kind="bcast", procs=8,
                   algorithm="binomial", nbytes=8 * KiB, seed=seed)
            for seed in (0, 1, 2, 3)
        ]
        assert len({dedupe_key(job) for job in jobs}) == 1
        sim = BatchSimulator()
        results = sim.run(jobs)
        assert len(set(results)) == 1
        assert sim.stats.deduped == 3
        assert sim.stats.unique_cells == 1


class TestEmptyTrailer:
    def test_empty_scatter_is_a_no_op(self):
        # ``scatter_linear`` returns at once for an empty payload; the
        # kernel must not simulate zero-byte sends in its place.
        jobs = [SimJob(spec=MINICLUSTER, kind="reduce_then_scatter", procs=8,
                       algorithm=algorithm, nbytes=4 * KiB, gather_bytes=0)
                for algorithm in ("linear", "binomial")]
        sim = BatchSimulator()
        assert sim.run(jobs) == [execute_job(job) for job in jobs]
        assert sim.stats.columnar == len(jobs)


class TestFallback:
    def test_fault_plan_falls_back_and_matches(self):
        spec = MINICLUSTER.with_faults(
            FaultPlan(stragglers=(StragglerFault(node=2, inject_factor=2.0),))
        )
        assert not noise_free(spec)
        jobs = [
            SimJob(spec=spec, kind="reduce_then_scatter", procs=8,
                   algorithm="binomial", nbytes=16 * KiB,
                   segment_size=8 * KiB, gather_bytes=1 * KiB)
        ]
        sim = BatchSimulator()
        assert sim.run(jobs) == [execute_job(job) for job in jobs]
        assert sim.stats.event_loop == 1
        assert sim.stats.fallbacks == {"faulty spec": 1}

    def test_unsupported_algorithm_falls_back_and_matches(self):
        jobs = [
            SimJob(spec=MINICLUSTER, kind="bcast", procs=12,
                   algorithm="split_binary", nbytes=64 * KiB,
                   segment_size=8 * KiB)
        ]
        sim = BatchSimulator()
        assert sim.run(jobs) == [execute_job(job) for job in jobs]
        assert sim.stats.event_loop == 1


class TestRunnerIntegration:
    def test_batched_prefetch_matches_serial(self):
        jobs = calibration_grid(MINICLUSTER, 10)[:40]
        serial = ParallelRunner(jobs=1, batch=False)
        batched = ParallelRunner(jobs=1, batch=True)
        serial.prefetch(jobs)
        batched.prefetch(jobs)
        assert batched.run(jobs) == serial.run(jobs)
        assert batched.stats.batched_cells == len(jobs)
        assert batched.stats.deduped_cells > 0
        assert batched.stats.simulations < serial.stats.simulations

    def test_warm_cache_replays_batch_with_zero_simulations(self, tmp_path):
        jobs = calibration_grid(MINICLUSTER, 8)[:24]
        cold = ParallelRunner(jobs=1, cache=ResultCache(tmp_path), batch=True)
        cold.prefetch(jobs)
        first = cold.run(jobs)
        assert cold.stats.simulations > 0

        warm = ParallelRunner(jobs=1, cache=ResultCache(tmp_path), batch=True)
        warm.prefetch(jobs)
        assert warm.run(jobs) == first
        assert warm.stats.simulations == 0


def fabric_grid(spec, procs, fabric, root=0, seed=0):
    """Both calibration composites of every bcast/reduce algorithm.

    Three shapes per algorithm: eager, unsegmented rendezvous, and a
    segmented eager pipeline — with gather/scatter trailers on both sides
    of the eager limit.
    """
    spec = spec.with_fabric(build_fabric(fabric, spec))
    shapes = ((1 * KiB, 0, 32 * KiB), (48 * KiB, 0, 1 * KiB),
              (64 * KiB, 8 * KiB, 2 * KiB))
    jobs = []
    for nbytes, segment, trailer in shapes:
        for algorithm in BCAST_ALGORITHMS:
            jobs.append(SimJob(
                spec=spec, kind="bcast_then_gather", procs=procs,
                algorithm=algorithm, nbytes=nbytes, segment_size=segment,
                gather_bytes=trailer, root=root, seed=seed,
            ))
        for algorithm in REDUCE_ALGORITHMS:
            jobs.append(SimJob(
                spec=spec, kind="reduce_then_scatter", procs=procs,
                algorithm=algorithm, nbytes=nbytes, segment_size=segment,
                gather_bytes=trailer, root=root, seed=seed,
            ))
    return jobs


class TestFabricParity:
    @pytest.mark.parametrize("fabric", available_fabrics())
    @pytest.mark.parametrize(
        "spec,procs",
        # GRISOU at 56 ranks spans two racks on every shape (26 nodes of
        # two ranks per rack on the 2:1 shapes) and two pods on the tree.
        [(MINICLUSTER, 16), (GRISOU_QUIET, 56)],
        ids=["minicluster", "grisou-quiet"],
    )
    def test_every_fabric_bit_identical(self, spec, procs, fabric):
        jobs = fabric_grid(spec, procs, fabric, root=0 if procs == 16 else 3)
        sim = BatchSimulator()
        assert sim.run(jobs) == [execute_job(job) for job in jobs]
        assert sim.stats.columnar > 0
        # Every fallback carries a named reason.
        assert sum(sim.stats.fallbacks.values()) == sim.stats.event_loop

    def test_leaf_spine_mostly_columnar(self):
        jobs = fabric_grid(MINICLUSTER, 16, "leaf_spine_2to1")
        jobs += [
            SimJob(spec=jobs[0].spec, kind=kind, procs=16,
                   algorithm="hierarchical", nbytes=256 * KiB,
                   segment_size=8 * KiB, root=root, policy=policy)
            for kind in ("bcast", "reduce")
            for root in (0, 11)
            for policy in ("root", "global")
        ]
        sim = BatchSimulator()
        assert sim.run(jobs) == [execute_job(job) for job in jobs]
        assert sim.stats.columnar > sim.stats.event_loop
        # Hierarchical trees and uplink reservations run columnar.
        hierarchical = [job for job in jobs if job.algorithm == "hierarchical"]
        only = BatchSimulator()
        only.run(hierarchical)
        assert only.stats.event_loop == 0


class TestFallbackLedger:
    def test_unsafe_link_tie_falls_back_named(self):
        # Two relays of a binary tree forward into the other rack at one
        # timestamp with identical injection ends: which one takes the
        # shared uplink first is up to the event loop's heap.
        spec = MINICLUSTER.with_fabric(
            build_fabric("leaf_spine_2to1", MINICLUSTER)
        )
        jobs = [SimJob(spec=spec, kind="bcast_then_gather", procs=16,
                       algorithm="binary", nbytes=8 * KiB,
                       segment_size=8 * KiB, gather_bytes=1 * KiB)]
        sim = BatchSimulator()
        assert sim.run(jobs) == [execute_job(job) for job in jobs]
        assert sim.stats.fallbacks == {"unsafe link tie": 1}
        assert sim.stats.as_dict()["fallbacks"] == {"unsafe link tie": 1}

    def test_out_of_order_call_falls_back_named(self, monkeypatch):
        # A kernel that issues its sends latest-first breaks the egress
        # NIC's call order; the guard must refuse rather than guess.
        def reversed_fan_out(self, src, targets, nbytes, clock, tag,
                             post_of, ties_ok):
            calls = []
            for _ in targets:
                clock = clock + self.g.so
                calls.append(clock)
            ends = [self.send(src, dst, nbytes, call, tag)
                    for dst, call in reversed(list(zip(targets, calls)))]
            return max(ends + [clock])

        monkeypatch.setattr(batch._Cell, "fan_out", reversed_fan_out)
        spec = MINICLUSTER.with_fabric(
            build_fabric("leaf_spine_2to1", MINICLUSTER)
        )
        jobs = [SimJob(spec=spec, kind="bcast", procs=12, algorithm="linear",
                       nbytes=4 * KiB)]
        sim = BatchSimulator()
        assert sim.run(jobs) == [execute_job(job) for job in jobs]
        assert sim.stats.fallbacks == {"egress call order violated": 1}

    def test_unsupported_algorithm_reason(self):
        faulty = MINICLUSTER.with_noise(0.1).with_faults(
            FaultPlan(noise=HeavyTailSpec(kind="pareto"))
        )
        jobs = [SimJob(spec=MINICLUSTER, kind="bcast", procs=8,
                       algorithm="split_binary", nbytes=64 * KiB,
                       segment_size=8 * KiB),
                SimJob(spec=faulty, kind="reduce",
                       procs=8, algorithm="binomial", nbytes=1 * KiB)]
        sim = BatchSimulator()
        assert sim.run(jobs) == [execute_job(job) for job in jobs]
        assert sim.stats.fallbacks == {
            "bcast algorithm 'split_binary'": 1,
            "faulty spec": 1,
        }

    def test_runner_folds_inline_ledger(self):
        jobs = fabric_grid(MINICLUSTER, 16, "leaf_spine_2to1")[:12]
        runner = ParallelRunner(jobs=1, batch=True)
        runner.prefetch(jobs)
        stats = runner.stats
        assert stats.columnar_cells + stats.event_loop_cells == len(jobs)
        assert sum(stats.fallbacks.values()) == stats.event_loop_cells
        assert stats.as_dict()["fallbacks"] == dict(sorted(
            stats.fallbacks.items()
        ))


#: The paper's default jitter on the quiet test preset; GRISOU ships it.
NOISY_MINICLUSTER = MINICLUSTER.with_noise(DEFAULT_NOISE_SIGMA)
SEEDS = (0, 1, 2)
#: Broadcasts the kernels do not implement: the only fallbacks expected.
UNSUPPORTED = {
    "bcast algorithm 'split_binary'", "bcast algorithm 'scatter_allgather'",
}


class TestNoisyParity:
    """Keyed noise lets noisy cells batch, bit-for-bit."""

    @pytest.mark.parametrize("fabric", ["flat", "leaf_spine_2to1"])
    @pytest.mark.parametrize(
        "spec,procs,root",
        [(NOISY_MINICLUSTER, 16, 0), (GRISOU, 56, 3)],
        ids=["minicluster", "grisou"],
    )
    def test_every_bcast_reduce_algorithm_bit_identical(
        self, spec, procs, root, fabric
    ):
        assert not noise_free(spec)
        jobs = [
            job for seed in SEEDS
            for job in fabric_grid(spec, procs, fabric, root=root, seed=seed)
        ]
        sim = BatchSimulator()
        assert sim.run(jobs) == [execute_job(job) for job in jobs]
        assert sim.stats.deduped == 0  # noisy seeds are distinct results
        # Every cell the kernels implement runs columnar, the reduce
        # leaves' start-up ties included.
        assert set(sim.stats.fallbacks) <= UNSUPPORTED
        assert sim.stats.columnar > sim.stats.event_loop

    def test_plain_collectives_roots_policies_and_mappings(self):
        jobs = [
            SimJob(spec=NOISY_MINICLUSTER, kind=kind, procs=12,
                   algorithm=algorithm, nbytes=nbytes, segment_size=segment,
                   root=root, policy=policy, mapping=mapping, seed=seed)
            for kind, algorithm in (
                ("bcast", "linear"), ("bcast", "binomial"),
                ("reduce", "linear"), ("reduce", "chain"),
                ("gather", "linear"),
            )
            for nbytes, segment in ((2 * KiB, 0), (48 * KiB, 0),
                                    (64 * KiB, 8 * KiB))
            for root in (0, 5)
            for policy in ("root", "global")
            for mapping in ("block", "spread")
            for seed in (3, 4)
        ]
        sim = BatchSimulator()
        assert sim.run(jobs) == [execute_job(job) for job in jobs]
        assert sim.stats.columnar == len(jobs)

    def test_noisy_seeds_batch_bit_identical(self):
        spec = MINICLUSTER.with_noise(0.2)
        jobs = [
            SimJob(spec=spec, kind="bcast", procs=8, algorithm="binomial",
                   nbytes=8 * KiB, seed=seed)
            for seed in (0, 1)
        ]
        sim = BatchSimulator()
        results = sim.run(jobs)
        assert results == [execute_job(job) for job in jobs]
        assert results[0] != results[1]
        assert sim.stats.columnar == 2
        assert sim.stats.deduped == 0


def _keys(ranks=4, messages=60):
    return [
        (rank, seq, term)
        for rank in range(ranks)
        for seq in range(messages)
        for term in range(TERMS)
    ]


class TestKeyedNoise:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: LognormalNoise(sigma=DEFAULT_NOISE_SIGMA, seed=5),
            lambda: compose_noise(0.02, HeavyTailSpec(kind="mixture"), seed=5),
            lambda: compose_noise(0.0, HeavyTailSpec(kind="pareto"), seed=5),
        ],
        ids=["lognormal", "lognormal+mixture", "pareto"],
    )
    def test_factor_independent_of_draw_order(self, make):
        keys = _keys()
        forward = make()
        want = {key: forward.draw(*key) for key in keys}
        shuffled = list(keys)
        random.Random(1).shuffle(shuffled)
        backward = make()
        # Start from the far end, so streams grow several blocks at once.
        got = {key: backward.draw(*key) for key in reversed(keys)}
        assert got == want
        replay = make()
        assert {key: replay.draw(*key) for key in shuffled} == want

    def test_reseed_switches_streams(self):
        noise = LognormalNoise(sigma=0.05, seed=1)
        first = noise.draw(3, 10, 2)
        noise.reseed(2)
        assert noise.draw(3, 10, 2) != first
        noise.reseed(1)
        assert noise.draw(3, 10, 2) == first

    def test_keyed_stream_moments(self):
        sigma = 0.1
        noise = LognormalNoise(sigma=sigma, seed=11)
        factors = np.array([noise.draw(*key) for key in _keys(40, 200)])
        assert factors.mean() == pytest.approx(1.0, abs=0.005)
        logs = np.log(factors)
        assert logs.std() == pytest.approx(sigma, rel=0.02)
        assert logs.mean() == pytest.approx(-0.5 * sigma * sigma, abs=0.003)


class TestPoolLedger:
    def test_jobs2_ledger_equals_jobs1(self):
        kwargs = dict(
            collectives=("bcast", "reduce"), procs=6, gamma_max_procs=4,
            max_reps=3, proc_points=(2, 8, 16),
            size_points=(8192, 65536),
        )
        built = []
        for jobs in (1, 2):
            runner = ParallelRunner(jobs=jobs, batch=True)
            try:
                built.append(build_artifact(NOISY_MINICLUSTER, runner=runner,
                                            **kwargs))
            finally:
                runner.close()
        serial, pooled = built
        assert pooled.content_hash() == serial.content_hash()
        ledger = serial.build_info["simulation"]
        assert pooled.build_info["simulation"] == ledger
        assert ledger["columnar_cells"] > ledger["event_loop_cells"]
        assert ledger["topups"]["columnar_cells"] > 0
        assert ledger["simulations"] == (
            ledger["columnar_cells"] + ledger["event_loop_cells"]
        )
