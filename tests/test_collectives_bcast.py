"""Tests for the six broadcast algorithms.

Correctness (every rank receives the whole message), structural fidelity to
the Open MPI implementations (segment counts, pipelining, per-stage
non-blocking fan-out), and cross-algorithm sanity at paper scales.
"""

import collections

import pytest

from repro.clusters import MINICLUSTER
from repro.collectives.bcast import (
    BCAST_ALGORITHMS,
    PAPER_BCAST_ALGORITHMS,
    TAG_BCAST_XCHG,
    _split_halves,
)
from repro.measure import time_bcast
from repro.mpi.segmentation import plan_segments
from repro.sim.trace import Tracer
from repro.units import KiB

#: The paper's six algorithms: the tree broadcasts where the root only
#: sends and every other rank receives exactly the message size.
ALGORITHMS = sorted(PAPER_BCAST_ALGORITHMS)
SEGMENT = 8 * KiB


def traced_bcast(algorithm, procs, nbytes, segment_size=SEGMENT, root=0):
    tracer = Tracer()
    elapsed = time_bcast(
        MINICLUSTER, algorithm, procs, nbytes, segment_size, root=root,
        tracer=tracer,
    )
    return elapsed, tracer


def received_bytes(tracer):
    """Payload bytes received per rank (all tags)."""
    totals = collections.Counter()
    for event in tracer.of_kind("recv_complete"):
        totals[event.rank] += event.nbytes
    return totals


class TestDelivery:
    """Every non-root rank must end up with all nbytes."""

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("procs", [2, 3, 5, 8, 13, 16])
    def test_all_ranks_receive_full_message(self, algorithm, procs):
        nbytes = 64 * KiB
        _, tracer = traced_bcast(algorithm, procs, nbytes)
        totals = received_bytes(tracer)
        for rank in range(procs):
            if rank == 0:
                assert totals.get(rank, 0) == 0
            else:
                assert totals[rank] == nbytes, f"rank {rank} short-changed"

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_non_default_root(self, algorithm):
        nbytes = 32 * KiB
        _, tracer = traced_bcast(algorithm, 8, nbytes, root=5)
        totals = received_bytes(tracer)
        assert totals.get(5, 0) == 0
        for rank in range(8):
            if rank != 5:
                assert totals[rank] == nbytes

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_single_process_is_noop(self, algorithm):
        elapsed, tracer = traced_bcast(algorithm, 1, 8 * KiB)
        assert elapsed == 0.0
        assert len(tracer) == 0

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_two_processes(self, algorithm):
        _, tracer = traced_bcast(algorithm, 2, 64 * KiB)
        assert received_bytes(tracer)[1] == 64 * KiB

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_non_segment_multiple_size(self, algorithm):
        nbytes = 20_000  # not a multiple of 8 KiB
        _, tracer = traced_bcast(algorithm, 6, nbytes)
        totals = received_bytes(tracer)
        for rank in range(1, 6):
            assert totals[rank] == nbytes


class TestTrafficVolume:
    def test_linear_sends_exactly_p_minus_1_messages(self):
        _, tracer = traced_bcast("linear", 8, 64 * KiB, segment_size=0)
        posts = tracer.of_kind("send_post")
        assert len(posts) == 7
        assert all(event.rank == 0 for event in posts)
        assert all(event.nbytes == 64 * KiB for event in posts)

    def test_linear_ignores_segment_size(self):
        """Open MPI's basic linear broadcast never segments."""
        _, tracer = traced_bcast("linear", 4, 64 * KiB, segment_size=SEGMENT)
        assert all(e.nbytes == 64 * KiB for e in tracer.of_kind("send_post"))

    def test_chain_every_rank_but_last_forwards(self):
        nbytes = 64 * KiB
        _, tracer = traced_bcast("chain", 6, nbytes)
        sent = collections.Counter()
        for event in tracer.of_kind("send_post"):
            sent[event.rank] += event.nbytes
        for rank in range(5):
            assert sent[rank] == nbytes
        assert sent.get(5, 0) == 0

    def test_binomial_total_traffic_is_p_minus_1_messages(self):
        nbytes = 64 * KiB
        procs = 16
        _, tracer = traced_bcast("binomial", procs, nbytes)
        assert tracer.total_bytes_sent() == (procs - 1) * nbytes

    def test_split_binary_halves_the_per_rank_egress_bottleneck(self):
        """Any bcast moves >= (P-1)*m bytes in total; split-binary's edge is
        that no single rank sends more than ~1.5 m (half per child plus the
        exchange) versus 2 m for a binary-tree interior node."""
        nbytes = 256 * KiB
        per_rank = {}
        for algorithm in ("split_binary", "binary"):
            _, tracer = traced_bcast(algorithm, 15, nbytes)
            sent = collections.Counter()
            for event in tracer.of_kind("send_post"):
                if event.rank != 0:  # exclude the root
                    sent[event.rank] += event.nbytes
            per_rank[algorithm] = max(sent.values())
        assert per_rank["split_binary"] <= 0.8 * per_rank["binary"]

    @pytest.mark.parametrize("algorithm", ["chain", "binary", "binomial", "k_chain"])
    def test_segment_count_matches_plan(self, algorithm):
        nbytes = 100 * KiB  # 13 segments, last one short
        plan = plan_segments(nbytes, SEGMENT)
        _, tracer = traced_bcast(algorithm, 5, nbytes)
        by_rank = collections.Counter(
            e.rank for e in tracer.of_kind("send_post")
        )
        # The root emits exactly num_segments messages per child.
        from repro.topology import (
            build_binary_tree,
            build_binomial_tree,
            build_chain_tree,
        )

        trees = {
            "chain": build_chain_tree(5, 0, 1),
            "k_chain": build_chain_tree(5, 0, 4),
            "binary": build_binary_tree(5),
            "binomial": build_binomial_tree(5),
        }
        children = len(trees[algorithm].children[0])
        assert by_rank[0] == plan.num_segments * children


class TestPipelining:
    def test_chain_overlaps_segments(self):
        """A segmented chain must be far faster than segment-by-segment."""
        procs, nbytes = 8, 512 * KiB
        pipelined = time_bcast(MINICLUSTER, "chain", procs, nbytes, SEGMENT)
        sequential_estimate = (
            time_bcast(MINICLUSTER, "chain", procs, SEGMENT, SEGMENT)
            * (nbytes // SEGMENT)
        )
        assert pipelined < 0.5 * sequential_estimate

    def test_root_fanout_sends_are_nonblocking(self):
        """Within one stage the root posts to all children before waiting."""
        _, tracer = traced_bcast("binomial", 8, 8 * KiB)
        root_posts = [e for e in tracer.of_kind("send_post") if e.rank == 0]
        first_complete = min(
            e.time for e in tracer.of_kind("send_complete") if e.rank == 0
        )
        # All three children of the binomial root are posted before any
        # send completes: that is the non-blocking linear broadcast.
        assert len(root_posts) == 3
        assert all(e.time <= first_complete for e in root_posts)

    def test_interior_forwards_while_receiving(self):
        """Interior nodes overlap receive of segment i+1 with forwarding i."""
        procs, nbytes = 4, 256 * KiB
        _, tracer = traced_bcast("chain", procs, nbytes)
        rank1_posts = [e.time for e in tracer.of_kind("send_post") if e.rank == 1]
        rank1_recvs = [
            e.time for e in tracer.of_kind("recv_complete") if e.rank == 1
        ]
        # Rank 1 starts forwarding before it finished receiving everything.
        assert rank1_posts[0] < rank1_recvs[-1]


class TestSplitBinary:
    def test_halves_align_to_segments(self):
        left, right = _split_halves(100 * KiB, SEGMENT)
        assert left + right == 100 * KiB
        assert left % SEGMENT == 0 or right == 0

    def test_odd_segment_count_gives_left_the_extra(self):
        left, right = _split_halves(24 * KiB, SEGMENT)  # 3 segments
        assert left == 16 * KiB and right == 8 * KiB

    def test_exchange_phase_present(self):
        _, tracer = traced_bcast("split_binary", 8, 64 * KiB)
        exchange = [e for e in tracer.of_kind("send_post") if e.tag == TAG_BCAST_XCHG]
        assert exchange, "no exchange-phase messages observed"

    def test_falls_back_to_linear_for_tiny_cases(self):
        # One segment: cannot split -> linear shape (root sends whole m).
        _, tracer = traced_bcast("split_binary", 6, 4 * KiB)
        posts = tracer.of_kind("send_post")
        assert all(e.rank == 0 for e in posts)
        assert all(e.nbytes == 4 * KiB for e in posts)

    def test_exchange_partners_are_mutual_where_balanced(self):
        _, tracer = traced_bcast("split_binary", 15, 64 * KiB)  # perfect tree
        exchange = [
            (e.rank, e.peer)
            for e in tracer.of_kind("send_post")
            if e.tag == TAG_BCAST_XCHG
        ]
        pairs = set(exchange)
        assert all((peer, rank) in pairs for rank, peer in pairs)


class TestRelativePerformance:
    """Coarse ranking facts that hold on any sane platform."""

    def test_linear_worst_at_large_message_many_procs(self):
        nbytes = 1024 * KiB
        times = {
            a: time_bcast(MINICLUSTER, a, 16, nbytes, SEGMENT) for a in ALGORITHMS
        }
        assert max(times, key=times.get) == "linear"

    def test_trees_beat_chain_at_small_messages(self):
        small = 8 * KiB
        chain = time_bcast(MINICLUSTER, "chain", 16, small, SEGMENT)
        binomial = time_bcast(MINICLUSTER, "binomial", 16, small, SEGMENT)
        assert binomial < chain


class TestScatterAllgather:
    """The Van de Geijn extension algorithm routes blocks, so its delivery
    invariants differ from the six tree broadcasts."""

    @pytest.mark.parametrize("procs", [3, 5, 8, 13, 16])
    def test_every_rank_assembles_the_message(self, procs):
        """Each rank ends up holding all P blocks: scatter gives it its
        subtree, the ring circulates every block past every rank."""
        nbytes = 64 * KiB
        _, tracer = traced_bcast("scatter_allgather", procs, nbytes)
        ring_bytes = collections.Counter()
        for event in tracer.of_kind("recv_complete"):
            if event.tag >= TAG_BCAST_XCHG:
                ring_bytes[event.rank] += event.nbytes
        # Ring phase: every rank receives all blocks except its own initial
        # one once around the ring = m - (its block at each step)... in
        # total exactly (P-1)/P of the message.
        expected = nbytes - nbytes // procs  # up to remainder distribution
        for rank in range(procs):
            assert abs(ring_bytes[rank] - expected) <= procs

    def test_bandwidth_optimality(self):
        """No rank sends more than ~2m(P-1)/P bytes — the property that
        makes the algorithm win for huge messages."""
        procs, nbytes = 8, 512 * KiB
        _, tracer = traced_bcast("scatter_allgather", procs, nbytes)
        sent = collections.Counter()
        for event in tracer.of_kind("send_post"):
            sent[event.rank] += event.nbytes
        bound = 2 * nbytes * (procs - 1) / procs
        assert max(sent.values()) <= bound * 1.01

    def test_beats_root_bound_algorithms_for_huge_messages(self):
        """At very large m the block schedule beats every algorithm whose
        root emits a multiple of m (linear, binomial, k-chain).  It does
        *not* beat a cleanly pipelined chain on this fabric — the chain is
        already per-rank bandwidth-optimal — which is exactly the kind of
        platform-specific verdict the selection framework exists to give.
        """
        procs, nbytes = 16, 8 * 1024 * KiB
        times = {
            name: time_bcast(MINICLUSTER, name, procs, nbytes, SEGMENT)
            for name in ("linear", "binomial", "k_chain", "scatter_allgather")
        }
        assert min(times, key=times.get) == "scatter_allgather"

    def test_falls_back_when_blocks_degenerate(self):
        # Fewer bytes than ranks: linear fallback (root sends whole m).
        _, tracer = traced_bcast("scatter_allgather", 8, 6)
        posts = tracer.of_kind("send_post")
        assert all(event.rank == 0 for event in posts)

    def test_non_default_root(self):
        _, tracer = traced_bcast("scatter_allgather", 8, 64 * KiB, root=5)
        assert received_bytes(tracer)  # completes without deadlock


class TestZeroByteConvention:
    """m = 0 is a no-op everywhere: no traffic, zero time, zero prediction.

    MPI returns immediately from a count-0 collective, so the simulator
    must send nothing (``plan_segments(0, s)`` plans zero segments) and
    the analytical models must predict exactly 0.0 — otherwise simulator
    and model disagree at the degenerate corner of every sweep.
    """

    @pytest.mark.parametrize("algorithm", sorted(BCAST_ALGORITHMS))
    def test_simulator_is_a_noop(self, algorithm):
        elapsed, tracer = traced_bcast(algorithm, procs=8, nbytes=0)
        assert elapsed == 0.0
        assert not tracer.of_kind("recv_complete")

    @pytest.mark.parametrize("algorithm", sorted(BCAST_ALGORITHMS))
    def test_simulator_is_a_noop_unsegmented(self, algorithm):
        elapsed, tracer = traced_bcast(algorithm, procs=5, nbytes=0,
                                       segment_size=0)
        assert elapsed == 0.0
        assert not tracer.of_kind("recv_complete")

    def test_all_bcast_models_predict_zero(self):
        from repro.models.derived import DERIVED_BCAST_MODELS
        from repro.models.gamma import GammaFunction
        from repro.models.hockney import HockneyParams
        from repro.models.traditional import TRADITIONAL_BCAST_MODELS

        gamma = GammaFunction(table={2: 1.0, 3: 1.3, 4: 1.6})
        params = HockneyParams(alpha=1e-5, beta=1e-9)
        families = dict(DERIVED_BCAST_MODELS)
        families.update(
            (f"traditional/{name}", cls)
            for name, cls in TRADITIONAL_BCAST_MODELS.items()
        )
        for name, model_cls in families.items():
            model = model_cls(gamma)
            assert model.predict(8, 0, SEGMENT, params) == 0.0, name
            # ... and the sized prediction stays untouched by the guard.
            assert model.predict(8, 64 * KiB, SEGMENT, params) > 0.0, name

    def test_barrier_models_are_not_noops_at_zero_bytes(self):
        """Barriers always carry m = 0; they must keep their cost."""
        from repro.models.barrier_models import DERIVED_BARRIER_MODELS
        from repro.models.gamma import GammaFunction
        from repro.models.hockney import HockneyParams

        gamma = GammaFunction(table={2: 1.0})
        params = HockneyParams(alpha=1e-5, beta=1e-9)
        for name, model_cls in DERIVED_BARRIER_MODELS.items():
            model = model_cls(gamma)
            assert model.predict(8, 0, 0, params) > 0.0, name

    def test_reduce_is_a_noop_too(self):
        from repro.measure import time_reduce
        from repro.collectives.reduce import REDUCE_ALGORITHMS

        for name in REDUCE_ALGORITHMS:
            assert time_reduce(MINICLUSTER, name, 8, 0, SEGMENT) == 0.0, name
