"""Parallel execution of simulation jobs with layered caching.

A :class:`ParallelRunner` takes batches of :class:`~repro.exec.job.SimJob`
and returns their results *in batch order*.  Resolution is layered:

1. **in-process memo** — every result this runner has ever produced,
   keyed by job fingerprint (always on; this is what makes *prefetching*
   work even with the persistent cache disabled);
2. **persistent cache** — the cross-process, cross-session
   :class:`~repro.exec.cache.ResultCache`, if configured;
3. **execution** — remaining jobs run through the batched engine
   (:class:`~repro.sim.batch.BatchSimulator`, the default) or
   :func:`~repro.exec.job.execute_job`, either in process or on a
   ``ProcessPoolExecutor``.

Determinism: simulations are seeded and share no state, worker dispatch
preserves batch order (``Executor.map``), and a worker computes exactly the
float the parent would — so results are bit-for-bit identical for any
``jobs`` value, warm or cold cache.  Tests assert this
(``tests/test_exec.py``).

The typical access pattern is *prefetch then replay*: a hot caller submits
the first repetitions of every measurement in its sweep as one parallel
batch, then runs its (inherently sequential) adaptive-measurement loop,
which finds each simulation already memoised.  Adaptive loops that need
more repetitions than were prefetched fall through to execution of just
the extra repetitions (through the batched engine when it is on) —
semantics identical to the fully serial path.
"""

from __future__ import annotations

import atexit
import os
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Sequence

from repro import obs
from repro.exec.cache import ResultCache
from repro.exec.job import BatchJob, SimJob, execute_batch_job, execute_job
from repro.sim.batch import BatchSimulator, BatchStats, dedupe_key

#: Sleep before each pool-rebuild attempt after a worker crash.  Short:
#: the common killer (OOM, an operator's stray ``kill``) either clears
#: immediately or keeps recurring, in which case we stop paying for pools
#: and fall back to in-process execution.
_POOL_RETRY_BACKOFF = (0.05, 0.25)


@dataclass
class ExecStats:
    """Counters of one runner's activity.

    ``simulations`` counts actual simulator executions; a fully warm rerun
    of a benchmark shows ``simulations == 0``.  ``pool_failures`` counts
    worker-pool crashes survived by rebuilding the pool;
    ``fallback_batches`` counts batches that exhausted the retries and ran
    in-process instead.
    """

    simulations: int = 0
    memo_hits: int = 0
    cache_hits: int = 0
    batches: int = 0
    pool_failures: int = 0
    fallback_batches: int = 0
    #: Cells resolved through the batched engine, and how many of those
    #: were answered by another cell's result (noise-free seed dedupe).
    batched_cells: int = 0
    deduped_cells: int = 0
    #: Distinct cells the batched engine resolved through its columnar
    #: kernels / through the event loop (in process or in pool slabs), and
    #: the fallback reasons.
    columnar_cells: int = 0
    event_loop_cells: int = 0
    fallbacks: Counter = field(default_factory=Counter)
    #: The share of those cells that were adaptive top-ups (:meth:`run`
    #: misses) rather than prefetched grid cells.
    topup_columnar_cells: int = 0
    topup_event_loop_cells: int = 0

    def add_batch(self, batch: BatchStats, topup: bool) -> None:
        """Fold one batched pass's ledger into these counters."""
        self.columnar_cells += batch.columnar
        self.event_loop_cells += batch.event_loop
        self.fallbacks.update(batch.fallbacks)
        if topup:
            self.topup_columnar_cells += batch.columnar
            self.topup_event_loop_cells += batch.event_loop

    def as_dict(self) -> dict:
        return {
            "simulations": self.simulations,
            "memo_hits": self.memo_hits,
            "cache_hits": self.cache_hits,
            "batches": self.batches,
            "pool_failures": self.pool_failures,
            "fallback_batches": self.fallback_batches,
            "batched_cells": self.batched_cells,
            "deduped_cells": self.deduped_cells,
            "columnar_cells": self.columnar_cells,
            "event_loop_cells": self.event_loop_cells,
            "fallbacks": dict(sorted(self.fallbacks.items())),
            "topup_columnar_cells": self.topup_columnar_cells,
            "topup_event_loop_cells": self.topup_event_loop_cells,
        }


def cpu_count() -> int:
    """Usable CPU count (respects affinity masks where available)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def batch_default() -> bool:
    """Whether batched prefetching is on by default (``REPRO_BATCH``).

    On unless the environment says ``0``/empty — the batched engine is
    bit-identical to the serial path, so there is no fidelity trade-off in
    defaulting to it.
    """
    return os.environ.get("REPRO_BATCH", "1") not in ("", "0")


def _worker_init() -> None:
    """Initialise a pool worker: start from empty topology memos.

    Workers live for the whole pool generation and execute arbitrarily many
    slabs; starting each generation from a known-empty (and bounded, see
    :data:`repro.topology.builders.TREE_CACHE_MAXSIZE`) tree cache keeps
    long chaos sweeps over many (P, algorithm) pairs at a flat footprint.
    """
    from repro.topology.builders import clear_tree_caches

    clear_tree_caches()


class ParallelRunner:
    """Executes simulation jobs across processes, memoising every result.

    ``jobs`` is the worker-process count: 1 (the default) executes inline
    with no pool; ``0`` or ``None`` means "all cores".  The pool is created
    lazily on the first parallel batch and reused across batches.
    """

    def __init__(
        self,
        jobs: int | None = 1,
        cache: ResultCache | None = None,
        batch: bool | None = None,
    ):
        self.jobs = cpu_count() if not jobs else max(1, int(jobs))
        self.cache = cache
        self.batch = batch_default() if batch is None else bool(batch)
        self.stats = ExecStats()
        self._memo: dict[str, float] = {}
        #: The in-process batched engine; its grids (placements, trees)
        #: serve every prefetch and top-up of this runner.
        self._simulator = BatchSimulator()
        self._pool: ProcessPoolExecutor | None = None
        atexit.register(self.close)

    def close(self) -> None:
        """Shut the worker pool down and release the cache handle."""
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None
        if self.cache is not None:
            self.cache.close()

    # -- execution ---------------------------------------------------------

    def _make_pool(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=self.jobs, initializer=_worker_init
        )

    def _discard_pool(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None

    def _execute_batch(self, jobs: list[SimJob]) -> list[float]:
        if self.batch:
            return self._execute_cells(jobs, topup=True)
        if self.jobs == 1 or len(jobs) == 1:
            with obs.span("exec.execute", dispatch="inline", jobs=len(jobs)):
                return [execute_job(job) for job in jobs]
        # A worker dying mid-batch (OOM killer, stray signal, container
        # eviction) surfaces as BrokenProcessPool and poisons the whole
        # executor.  Jobs are pure functions of their fingerprint, so the
        # batch is safely re-runnable: rebuild the pool and retry, then
        # give up on parallelism and finish in-process.  Results stay
        # bit-identical on every path — the same simulations run, only the
        # process executing them changes.
        for backoff in _POOL_RETRY_BACKOFF:
            try:
                if self._pool is None:
                    self._pool = self._make_pool()
                # Chunked dispatch: ship several jobs per IPC round trip,
                # but keep enough chunks in flight (~4 per worker) that an
                # unlucky chunk of heavy jobs cannot serialise the tail of
                # the batch.
                chunksize = max(1, len(jobs) // (self.jobs * 4))
                with obs.span(
                    "exec.execute", dispatch="pool", jobs=len(jobs),
                    workers=self.jobs, chunksize=chunksize,
                ):
                    return list(
                        self._pool.map(execute_job, jobs, chunksize=chunksize)
                    )
            except BrokenProcessPool:
                self.stats.pool_failures += 1
                self._discard_pool()
                time.sleep(backoff)
        self.stats.fallback_batches += 1
        with obs.span("exec.execute", dispatch="fallback", jobs=len(jobs)):
            return [execute_job(job) for job in jobs]

    def run(self, batch: Sequence[SimJob]) -> list[float]:
        """Results of ``batch``, in order; simulates only unseen jobs."""
        self.stats.batches += 1
        if len(batch) == 1:
            # Fast path: a single already-memoised job is a dict lookup —
            # the per-rep shape of adaptive measurement after a prefetch.
            # It skips span bookkeeping entirely (a span would cost ~5x
            # the lookup); estimation spans carry the aggregate hit
            # counts instead.
            value = self._memo.get(batch[0].fingerprint())
            if value is not None:
                self.stats.memo_hits += 1
                return [value]
        traced = obs.is_enabled()
        memo_before, cache_before = self.stats.memo_hits, self.stats.cache_hits
        with obs.span("exec.run", jobs=len(batch)) as run_span:
            results: list[float | None] = [None] * len(batch)
            pending: list[tuple[int, SimJob, str]] = []
            for index, job in enumerate(batch):
                key = job.fingerprint()
                value = self._memo.get(key)
                if value is not None:
                    self.stats.memo_hits += 1
                    results[index] = value
                    continue
                if self.cache is not None:
                    value = self.cache.get(key)
                    if value is not None:
                        self.stats.cache_hits += 1
                        self._memo[key] = value
                        results[index] = value
                        continue
                pending.append((index, job, key))
            if pending:
                outcomes = self._execute_batch([job for _, job, _ in pending])
                for (index, _job, key), value in zip(pending, outcomes):
                    self.stats.simulations += 1
                    self._memo[key] = value
                    if self.cache is not None:
                        self.cache.put(key, value)
                    results[index] = value
            if traced:
                # Hit counts come from stats deltas so the untraced loop
                # above stays byte-for-byte the fast path.  Per-job spans
                # only cover jobs that actually simulated: memo/cache hits
                # are microsecond dict/disk lookups, and a span each would
                # cost more than the hit itself (measured >15% on a
                # warm-cache build).
                run_span.set_attrs(
                    memo_hits=self.stats.memo_hits - memo_before,
                    cache_hits=self.stats.cache_hits - cache_before,
                    executed=len(pending),
                )
                for _index, job, _key in pending:
                    with obs.span(
                        "exec.job",
                        source="sim",
                        kind=job.kind,
                        algorithm=job.algorithm,
                        procs=job.procs,
                        nbytes=job.nbytes,
                    ):
                        pass
        return results  # type: ignore[return-value]

    def run_one(self, job: SimJob) -> float:
        """Result of a single job (memo -> cache -> execute)."""
        return self.run([job])[0]

    # -- batched grid execution --------------------------------------------

    def _execute_cells(
        self, cells: list[SimJob], topup: bool = False
    ) -> list[float]:
        """Run ``cells`` through the batched engine, in order.

        Serial runners execute one inline pass; parallel runners cut the
        grid into contiguous slabs (~2 per worker: slabs are coarse on
        purpose, one IPC round trip and one shared-setup scope each) and
        ship whole slabs to pool workers, with the same crash-retry and
        in-process fallback discipline as the per-job path.  Every slab's
        ledger is folded into :attr:`stats`; ``topup`` marks the cells as
        adaptive top-ups there.
        """
        if self.jobs == 1 or len(cells) <= 2:
            with obs.span("exec.execute", dispatch="batch-inline",
                          cells=len(cells)):
                return self._run_inline(cells, topup)
        slab_size = -(-len(cells) // (self.jobs * 2))
        slabs = [
            BatchJob(cells=tuple(cells[start:start + slab_size]))
            for start in range(0, len(cells), slab_size)
        ]
        for backoff in _POOL_RETRY_BACKOFF:
            try:
                if self._pool is None:
                    self._pool = self._make_pool()
                with obs.span(
                    "exec.execute", dispatch="batch-pool", cells=len(cells),
                    workers=self.jobs, slabs=len(slabs),
                ):
                    outcomes = list(self._pool.map(execute_batch_job, slabs))
                results: list[float] = []
                for slab_results, slab_stats in outcomes:
                    results.extend(slab_results)
                    self.stats.add_batch(slab_stats, topup)
                return results
            except BrokenProcessPool:
                self.stats.pool_failures += 1
                self._discard_pool()
                time.sleep(backoff)
        self.stats.fallback_batches += 1
        with obs.span("exec.execute", dispatch="batch-fallback",
                      cells=len(cells)):
            return self._run_inline(cells, topup)

    def _run_inline(self, cells: list[SimJob], topup: bool) -> list[float]:
        """One in-process batched pass, folded into :attr:`stats`."""
        simulator = self._simulator
        before = simulator.stats.copy()
        results = simulator.run(cells)
        self.stats.add_batch(simulator.stats.since(before), topup)
        return results

    def _run_batched(self, batch: list[SimJob]) -> None:
        """Warm memo and cache with ``batch`` via the batched engine.

        ``batch`` must be fingerprint-unique (the :meth:`prefetch` contract).
        Cells that would produce the same float (noise-free seed
        repetitions) collapse to one simulation *before* slabbing, so the
        dedupe works across slab boundaries; every original fingerprint
        still receives its own memo and cache entry, keeping warm-cache
        replay identical to the per-job path.
        """
        self.stats.batches += 1
        with obs.span("exec.run", jobs=len(batch), mode="batch") as run_span:
            pending: list[tuple[SimJob, str]] = []
            groups: dict[str, list[int]] = {}
            for job in batch:
                key = job.fingerprint()
                if key in self._memo:
                    self.stats.memo_hits += 1
                    continue
                if self.cache is not None:
                    value = self.cache.get(key)
                    if value is not None:
                        self.stats.cache_hits += 1
                        self._memo[key] = value
                        continue
                groups.setdefault(dedupe_key(job), []).append(len(pending))
                pending.append((job, key))
            representatives = [
                pending[members[0]][0] for members in groups.values()
            ]
            if representatives:
                outcomes = self._execute_cells(representatives)
                self.stats.simulations += len(representatives)
                self.stats.batched_cells += len(pending)
                self.stats.deduped_cells += len(pending) - len(representatives)
                stored: list[tuple[str, float]] = []
                for members, value in zip(groups.values(), outcomes):
                    for member in members:
                        _job, key = pending[member]
                        self._memo[key] = value
                        stored.append((key, value))
                if self.cache is not None:
                    self.cache.put_many(stored)
            if obs.is_enabled():
                run_span.set_attrs(
                    executed=len(representatives),
                    deduped=len(pending) - len(representatives),
                )

    def prefetch(self, batch: Sequence[SimJob]) -> None:
        """Warm the memo (and cache) with ``batch``, in parallel.

        Duplicate fingerprints inside ``batch`` are collapsed before
        dispatch, so callers can enumerate naively.  With :attr:`batch`
        enabled (the default) the grid goes through the batched engine —
        bit-identical results, one engine pass per slab instead of per
        cell.
        """
        unique: dict[str, SimJob] = {}
        for job in batch:
            unique.setdefault(job.fingerprint(), job)
        jobs = list(unique.values())
        if self.batch and len(jobs) > 1:
            self._run_batched(jobs)
        else:
            self.run(jobs)


# -- process-wide default runner ------------------------------------------

_default_runner: ParallelRunner | None = None


def configure(
    jobs: int | None = 1,
    cache: bool = False,
    cache_dir: str | None = None,
    batch: bool | None = None,
) -> ParallelRunner:
    """Install (and return) the process-wide default runner.

    Called by the CLI's ``--jobs`` / ``--no-cache`` / ``--cache-dir`` /
    ``--batch`` flags; library users can call it directly or pass explicit
    ``runner=`` objects to the hot callers instead.
    """
    global _default_runner
    if _default_runner is not None:
        _default_runner.close()
    _default_runner = ParallelRunner(
        jobs=jobs,
        cache=ResultCache(cache_dir) if cache else None,
        batch=batch,
    )
    return _default_runner


def default_runner() -> ParallelRunner:
    """The process-wide runner, built from the environment on first use.

    ``REPRO_JOBS`` (int; 0 = all cores), ``REPRO_CACHE`` (non-empty,
    non-"0" enables the persistent cache at ``REPRO_CACHE_DIR`` or the
    default location) and ``REPRO_BATCH`` ("0"/empty disables batched
    prefetching) configure it without code changes.  The zero-config
    default is serial execution with in-process memoisation only — exactly
    the seed behaviour — plus the (bit-identical) batched prefetch path.
    """
    global _default_runner
    if _default_runner is None:
        jobs = int(os.environ.get("REPRO_JOBS", "1") or "1")
        cache_on = os.environ.get("REPRO_CACHE", "") not in ("", "0")
        _default_runner = ParallelRunner(
            jobs=jobs, cache=ResultCache() if cache_on else None
        )
    return _default_runner


def reset_default_runner() -> None:
    """Tear down the default runner (tests; re-created on next use)."""
    global _default_runner
    if _default_runner is not None:
        _default_runner.close()
        _default_runner = None
