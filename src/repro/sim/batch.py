"""Batched grid simulation: many independent cells, one engine pass.

Calibration sweeps and artifact builds execute thousands of *independent*
simulations — one per (P, m, algorithm, seed) grid cell — and each cell
pays the full generator-coroutine event-loop overhead (~90 Python function
calls per simulated message).  :class:`BatchSimulator` runs a whole grid in
one call and removes that overhead where it provably can:

* **Seed dedupe.**  A noise-free cell (``noise_sigma == 0`` and no enabled
  fault plan) is seed-independent: the seed only feeds the noise and fault
  models.  Cells differing solely in ``seed`` collapse to one simulation,
  and calibration prefetches ship every measurement twice (the adaptive
  loop's zero-variance convergence needs two identical repetitions) — a
  structural 2x.

* **Columnar kernels.**  For the collectives that dominate calibration
  (the generic-tree, hierarchical and linear broadcasts, the tree,
  hierarchical and linear reductions, the linear gather/scatter phases),
  the event loop is replaced by per-rank kernels doing direct arithmetic
  on rank clocks, per-NIC ``free_at`` clocks and — on multi-level fabrics
  — the rack/pod uplink clocks of :mod:`repro.fabric`: one heap entry per
  message instead of futures, matching queues and several engine events.
  Topology construction and placement are hoisted out of the per-cell
  loop and shared across message sizes (:class:`_Grid`).  Noisy cells
  take this path too: every noise factor is keyed by its message
  (:mod:`repro.sim.noise`), so the kernels read exactly the factors the
  event loop's fabric reads for the same message.

* **Event-loop fallback.**  Anything the kernels cannot reproduce
  *bit-for-bit* — fault plans, degraded nodes, shared NIC ports,
  unsupported algorithms (split-binary, scatter-allgather, barriers), or a
  detected unsafe tie — falls back to :func:`repro.exec.job.execute_job`
  for that cell, and :attr:`BatchStats.fallbacks` records why.  The batch
  layer is therefore always exact: the fast path is taken only where
  equality with the event loop is guaranteed, and parity tests
  (``tests/test_sim_batch.py``) assert bit-identical results over the full
  calibration grid, flat and on every fabric shape, noisy and noise-free.

Exactness argument (why plain arithmetic can match an event loop):

1. Within one rank, simulated time only advances through ``timeout`` /
   future completions whose timestamps are pure float expressions of
   earlier timestamps — mirrored here verbatim (same operation order).
2. The only *shared* mutable state is the ``free_at`` clock of each NIC
   and fabric link, and the event loop reserves all of a transfer's
   resources at its ``transfer()`` call, in the global order of calls.
   With one exclusive (node, port) per rank, each egress NIC is reserved
   in its owner's program order, so the kernels reserve it when the rank
   issues the send.  Everything downstream — uplink, pod tier, downlink,
   ingress — is reserved from a per-cell heap of pending calls in
   ascending call time, which *is* the global call order.  A rank resumes
   when its awaited deliveries are known; it can only issue calls later
   than the call that woke it, so nothing is ever reserved out of order.
3. Where two calls carry the same timestamp the event loop's ordering is
   an implementation detail of its heap.  Calls at ``t = send_overhead``
   are ranks' first eager sends, which the engine makes in rank order, so
   the kernels pop them in sender-rank order.  Any other tie is admitted
   only when it is provably permutation-invariant — tied calls contending
   for a shared ingress NIC or link must be indistinguishable (same
   destination and ``waitall``, size, injection end and source rack, and
   no noise), and tied rendezvous calls of one fan-out, which share the
   sender's egress, must reach interchangeable targets inside one
   ``waitall`` — or refuse and fall back.
4. Noise factors are keyed by ``(sender rank, message number, cost
   term)``; a message's number is fixed where its rank's program posts the
   send, which the kernels mirror in program order (:meth:`_Cell.post_send`).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, replace
from heapq import heappop, heappush

from repro import obs
from repro.clusters.spec import ClusterSpec
from repro.collectives.reduce import DEFAULT_OP_BYTE_TIME
from repro.mpi.segmentation import plan_segments
from repro.sim.network import _TopologyState
from repro.sim.noise import (
    CTS,
    DRAIN,
    HOP,
    INJECT,
    RTS,
    SHM_COPY,
    SHM_LATENCY,
    NoNoise,
    make_noise,
)
from repro.topology import (
    build_binary_tree,
    build_binomial_tree,
    build_chain_tree,
    build_hierarchy_tree,
    build_in_order_binomial_tree,
)

__all__ = ["BatchSimulator", "BatchStats", "dedupe_key", "noise_free"]

#: Mailbox tags of the trailing linear phases (segment ``i`` of a tree
#: phase uses tag ``i``).
_GATHER_TAG = -1
_SCATTER_TAG = -2


class _Unsupported(Exception):
    """Internal: this cell cannot take the columnar path; fall back."""


def noise_free(spec: ClusterSpec) -> bool:
    """Whether a spec's simulations are seed-independent.

    True when the fabric noise is unit (``noise_sigma == 0``) and no fault
    plan is enabled — then the seed feeds nothing, so results for any two
    seeds are bit-identical and seed-deduplication is sound.
    """
    return spec.noise_sigma == 0.0 and (
        spec.faults is None or not spec.faults.enabled()
    )


def dedupe_key(job) -> str:
    """Collapsing key for grid cells that must produce the same float.

    A noise-free cell's result is seed-independent (the seed only feeds the
    noise and fault models), so seed repetitions of one measurement share a
    key; anything else falls back to the full job fingerprint.
    """
    if not noise_free(job.spec):
        return job.fingerprint()
    return "|".join(
        (
            "nf", job.spec.fingerprint(), job.kind, str(job.procs),
            job.algorithm, str(job.nbytes), str(job.segment_size),
            str(job.gather_bytes), str(job.calls), str(job.root),
            job.policy, job.mapping, repr(tuple(job.ranks)),
        )
    )


@dataclass
class BatchStats:
    """Counters of one :class:`BatchSimulator`'s activity."""

    #: Cells submitted / distinct cells after seed dedupe.
    cells: int = 0
    unique_cells: int = 0
    #: Cells resolved by the columnar kernels / by event-loop fallback.
    columnar: int = 0
    event_loop: int = 0
    #: Cells answered by another cell's result (seed dedupe).
    deduped: int = 0
    #: Reuses of a (spec, procs, mapping) placement across cells.
    shared_setup_hits: int = 0
    #: Event-loop fallbacks by reason (the kernels' refusal message).
    fallbacks: Counter = field(default_factory=Counter)

    _COUNTS = (
        "cells", "unique_cells", "columnar", "event_loop", "deduped",
        "shared_setup_hits",
    )

    def copy(self) -> "BatchStats":
        return replace(self, fallbacks=Counter(self.fallbacks))

    def since(self, before: "BatchStats") -> "BatchStats":
        """The counts added after ``before`` (an earlier :meth:`copy`)."""
        delta = BatchStats(fallbacks=self.fallbacks - before.fallbacks)
        for name in self._COUNTS:
            setattr(delta, name, getattr(self, name) - getattr(before, name))
        return delta

    def as_dict(self) -> dict:
        return {
            "cells": self.cells,
            "unique_cells": self.unique_cells,
            "columnar": self.columnar,
            "event_loop": self.event_loop,
            "deduped": self.deduped,
            "shared_setup_hits": self.shared_setup_hits,
            "fallbacks": dict(sorted(self.fallbacks.items())),
        }


class _Grid:
    """Shared per-(spec, procs, mapping) setup, hoisted out of the cell loop.

    Holds the rank placement and the fabric constants; verified eligible for
    the columnar kernels at construction (raises :class:`_Unsupported`
    otherwise).  NIC and link clocks are *not* here — they are per-cell run
    state.
    """

    __slots__ = (
        "procs", "node", "latency", "bto", "bti", "pmo", "so", "ro",
        "eager", "cl", "slat", "sbt", "fabric", "num_nodes", "group_of",
        "trees", "sigma",
    )

    def __init__(self, spec: ClusterSpec, procs: int, mapping: str):
        if spec.faults is not None and spec.faults.enabled():
            raise _Unsupported("faulty spec")
        if spec.slow_nodes:
            raise _Unsupported("degraded nodes")
        net = spec.network
        if net.send_overhead <= 0.0:
            # Zero send overhead collapses distinct isend call times onto
            # one timestamp; the tie-safety proofs below need them distinct.
            raise _Unsupported("zero send_overhead")
        placement = spec.rank_to_node(procs, mapping=mapping)
        slots_seen: dict[int, int] = {}
        endpoints = set()
        for node in placement:
            slot = slots_seen.get(node, 0)
            slots_seen[node] = slot + 1
            endpoint = (node, slot % spec.nics_per_node)
            if endpoint in endpoints:
                # Two ranks sharing a NIC port interleave reservations in
                # ways only the event loop can order.
                raise _Unsupported("shared NIC port")
            endpoints.add(endpoint)
        self.procs = procs
        self.node = placement
        self.latency = net.latency
        self.bto = net.byte_time_out
        self.bti = net.byte_time_in
        self.pmo = net.per_message_overhead
        self.so = net.send_overhead
        self.ro = net.recv_overhead
        self.eager = net.eager_limit
        self.cl = net.control_latency
        self.slat = net.shm_latency
        self.sbt = net.shm_byte_time
        #: Lognormal jitter of the fabric; each cell keys it by its seed.
        self.sigma = spec.noise_sigma
        # The fabric the world is built on: ``None`` when flat, exactly as
        # ``ClusterSpec.make_world`` decides.
        fabric = spec.fabric
        self.fabric = None if fabric is None or fabric.is_flat() else fabric
        self.num_nodes = max(placement) + 1
        # ``comm_group_of``: hierarchical trees group ranks by rack on a
        # multi-level fabric, by node otherwise.
        self.group_of = tuple(
            self.fabric.rack_of(node) if self.fabric is not None else node
            for node in placement
        )
        #: Trees built on this placement, keyed by (builder, root).
        self.trees: dict = {}

    def tree(self, builder, root: int):
        tree = self.trees.get((builder, root))
        if tree is None:
            tree = self.trees[(builder, root)] = builder(self, root)
        return tree


class _Cell:
    """Mutable per-cell run state: rank programs, NIC and link clocks.

    Each rank runs a *program*: phase generators mirroring its collective
    code, which yield ``(tag, count)`` to wait for ``count`` deliveries
    tagged ``tag`` and are resumed with the latest of their deliver times.
    A send reserves the sender's exclusive egress NIC at once (``eg``,
    guarded to advance in call order by ``eg_call``) and queues the rest
    of the transfer on ``heap``; :meth:`run` drains the heap in call-time
    order, reserving fabric links (``topo``, the event loop's own
    :class:`~repro.sim.network._TopologyState`) and ingress NICs (``ig``)
    and waking the receivers.

    On a noisy grid every cost is scaled by the factor the event loop's
    fabric reads for the same message key (:mod:`repro.sim.noise`): the
    sender's rank, its per-rank post count (``seqs``) and the cost term.
    ``draw`` is ``None`` on noise-free grids, whose arithmetic then skips
    the factors (every one of them is exactly 1).
    """

    __slots__ = (
        "g", "topo", "eg", "ig", "eg_call", "heap", "mail", "waiting",
        "post", "programs", "trailer", "trailing", "finish", "draw", "seqs",
    )

    def __init__(self, grid: _Grid, seed: int):
        self.g = grid
        procs = grid.procs
        noise = make_noise(grid.sigma, seed)
        self.draw = None if isinstance(noise, NoNoise) else noise.draw
        #: Sends each rank has posted: the next message's sequence number.
        self.seqs = [0] * procs
        self.topo = (
            None if grid.fabric is None
            else _TopologyState(grid.fabric, grid.num_nodes)
        )
        self.eg = [0.0] * procs
        self.ig = [0.0] * procs
        self.eg_call = [0.0] * procs
        #: Pending transfers ``(call_t, src, dst, tag, nbytes, inject_end,
        #: seq)``: tied calls pop in sender rank order (see :meth:`_check_tie`).
        self.heap: list = []
        #: Per-rank ``{tag: [deliveries, latest deliver]}`` of messages that
        #: arrived before their wait (or in a group still incomplete).
        self.mail: list[dict] = [{} for _ in range(procs)]
        #: Per-rank ``(tag, count)`` the program is blocked on, or None.
        self.waiting: list = [None] * procs
        #: Receive-post times published by the trailing linear phases.
        self.post: list = [None] * procs
        self.programs: list = []
        self.trailer = None
        #: Whether each rank's program has entered the trailer.
        self.trailing = [False] * procs
        self.finish = [0.0] * procs

    # -- primitive transfers ------------------------------------------------

    def post_send(self, rank: int) -> int:
        """Post a send from ``rank``; returns the message's sequence number.

        Called where the rank's program posts the send (after its
        ``send_overhead``), so numbers follow program order exactly as
        :meth:`repro.mpi.communicator.MpiWorld._start_send` assigns them.
        """
        seq = self.seqs[rank]
        self.seqs[rank] = seq + 1
        return seq

    def control(
        self, src: int, dst: int, t: float, sender: int, seq: int, term: int
    ) -> float:
        """Delivery time of an RTS/CTS control message sent at ``t``.

        ``(sender, seq)`` keys the payload message the handshake belongs
        to; ``term`` is :data:`~repro.sim.noise.RTS` or ``CTS``.
        """
        g = self.g
        draw = self.draw
        factor = 1.0 if draw is None else draw(sender, seq, term)
        src_node, dst_node = g.node[src], g.node[dst]
        if src_node == dst_node:
            return t + g.slat * factor
        t = t + g.cl * factor
        if self.topo is not None:
            t += self.topo.control_extra(src_node, dst_node)
        return t

    def send(
        self, src: int, dst: int, nbytes: int, call_t: float, tag: int,
        seq: int | None = None,
    ) -> float:
        """Start a transfer called at ``call_t``; returns its inject end.

        ``seq`` is the number :meth:`post_send` gave a rendezvous message
        when it was posted; an eager send is posted at its call, so it
        leaves ``seq`` out and is numbered here.  The egress reservation
        happens now (the rank's own NIC, in its program order); delivery
        into ``dst``'s ``tag`` mailbox is queued for :meth:`run`, which
        completes transfers in call order.  Every call is later than the
        call being completed when it is issued: a rank only runs after a
        delivery, and charges ``send_overhead`` (checked positive by
        :class:`_Grid`) before its next call.
        """
        g = self.g
        draw = self.draw
        if seq is None:
            # Inlined :meth:`post_send`: eager sends are the hot path.
            seqs = self.seqs
            seq = seqs[src]
            seqs[src] = seq + 1
        if g.node[src] == g.node[dst]:
            copy = nbytes * g.sbt
            if draw is not None:
                copy = copy * draw(src, seq, SHM_COPY)
            inject_end = call_t + copy
        else:
            if call_t < self.eg_call[src]:
                raise _Unsupported("egress call order violated")
            self.eg_call[src] = call_t
            cost = g.pmo + nbytes * g.bto
            if draw is not None:
                cost = cost * draw(src, seq, INJECT)
            free = self.eg[src]
            inject_end = (call_t if call_t > free else free) + cost
            self.eg[src] = inject_end
        heappush(self.heap, (call_t, src, dst, tag, nbytes, inject_end, seq))
        return inject_end

    def fan_out(
        self,
        src: int,
        targets,
        nbytes: int,
        clock: float,
        tag: int,
        post_of,
        ties_ok: bool,
    ) -> float:
        """``isend`` of ``nbytes`` to each target in order, then ``waitall``.

        Mirrors the root loop of the linear broadcast / scatter / generic
        tree segment: each ``isend`` charges ``send_overhead`` to the
        sender, then starts an eager or rendezvous transfer.  ``post_of``
        maps a target to its (statically known) receive-post time — needed
        for the rendezvous match.  Returns the sender's clock after the
        ``waitall``.

        ``ties_ok`` admits equal rendezvous payload-call times contending
        for the sender's egress: safe only when the tied targets' downstream
        behaviour is a pure function of their deliver time within one
        enclosing ``waitall`` (linear broadcast, scatter) and their
        transfers end alike whichever goes first (:meth:`_interchangeable`)
        — the inject-end and deliver *multisets* are then
        permutation-invariant, so root-timed and max-over-ranks results are
        unchanged.  Tree fan-outs pass ``False`` (children have distinct
        subtrees) and rely on strictly increasing call times instead.
        Noisy transfers never end alike, so noisy cells refuse every tie.
        """
        g = self.g
        send = self.send
        last = clock
        if nbytes <= g.eager:
            # Eager transfer calls happen at the isend times, strictly
            # increasing: reserve in program order.
            for dst in targets:
                clock = clock + g.so
                end = send(src, dst, nbytes, clock, tag)
                if end > last:
                    last = end
            return last if last > clock else clock
        pending: list[tuple[float, int, int]] = []
        for dst in targets:
            clock = clock + g.so
            seq = self.post_send(src)
            # Rendezvous: RTS out now; payload moves at CTS arrival.
            rts = self.control(src, dst, clock, src, seq, RTS)
            post = post_of(dst)
            match = rts if rts > post else post
            cts = self.control(dst, src, match, src, seq, CTS)
            if g.node[src] == g.node[dst]:
                end = send(src, dst, nbytes, cts, tag, seq)
                if end > last:
                    last = end
            else:
                pending.append((cts, dst, seq))
        pending.sort(key=lambda e: e[0])
        ties_ok = ties_ok and self.draw is None
        for (a, x, _), (b, y, _) in zip(pending, pending[1:]):
            if a == b and not (ties_ok and self._interchangeable(x, y)):
                raise _Unsupported("tied rendezvous fan-out")
        for cts, dst, seq in pending:
            end = send(src, dst, nbytes, cts, tag, seq)
            if end > last:
                last = end
        return last if last > clock else clock

    def _interchangeable(self, x: int, y: int) -> bool:
        """Whether transfers to ``x`` and ``y`` end alike in either order.

        True when both destinations' ingress clocks agree and both sit in
        one rack (one path through the fabric); only the sender, which
        reaches them in this fan-out alone, touches them in between.
        """
        if self.ig[x] != self.ig[y]:
            return False
        if self.topo is None:
            return True
        rack, node = self.topo.rack_of, self.g.node
        return rack[node[x]] == rack[node[y]]

    # -- the driver ---------------------------------------------------------

    def _resume(self, rank: int, value) -> None:
        """Run ``rank``'s program until it blocks on undelivered messages."""
        program = self.programs[rank]
        mail = self.mail[rank]
        while True:
            try:
                want = program.send(value)
            except StopIteration as stop:
                trailer = self.trailer
                if trailer is None or self.trailing[rank]:
                    self.finish[rank] = stop.value
                    return
                # The leading collective is done: enter the trailing phase.
                self.trailing[rank] = True
                phase, root, nbytes = trailer
                program = self.programs[rank] = phase(
                    self, rank, root, nbytes, stop.value
                )
                value = None
                continue
            got = mail.get(want[0])
            if got is None or got[0] != want[1]:
                self.waiting[rank] = want
                return
            value = got[1]

    def _check_tie(self, tied: list, entry: tuple) -> None:
        """Refuse a tied call unless the engine's order is known or moot.

        *Start-up calls* are ordered exactly: every transfer called at
        ``t == send_overhead`` is some rank's first, eager ``isend``, made
        when the timeout its process scheduled on starting fires.  The
        engine starts processes in rank order and fires same-time events in
        scheduling order, so it makes these calls in rank order — the
        heap's ``(call_t, src)`` order.  (A rendezvous payload moves at CTS
        arrival, strictly later, and every other call follows a delivery.)

        Any other two calls at one timestamp that contend for a NIC or link
        are admitted only when indistinguishable: same destination and tag
        (one ``waitall``), size, inject end and source rack on a noise-free
        grid — then swapping them relabels identical outcomes and the
        awaited max is unchanged.  Noisy transfers differ in their hop and
        drain factors, so a noisy grid refuses such ties.
        """
        g = self.g
        if entry[0] == g.so and entry[4] <= g.eager and all(
            other[4] <= g.eager for other in tied
        ):
            return
        node = g.node
        topo = self.topo
        _t, src, dst, tag, nbytes, inject_end, _seq = entry
        for other in tied:
            if topo is None:
                if other[2] != dst:
                    continue
                same_path = True
            else:
                rack = topo.rack_of
                a_src, a_dst = rack[node[src]], rack[node[dst]]
                b_src, b_dst = rack[node[other[1]]], rack[node[other[2]]]
                if other[2] != dst and not _links_shared(
                    topo, a_src, a_dst, b_src, b_dst
                ):
                    continue
                same_path = a_src == b_src
            if not (
                self.draw is None and same_path and other[2] == dst
                and other[3] == tag and other[4] == nbytes
                and other[5] == inject_end
            ):
                raise _Unsupported(
                    "unsafe ingress tie" if other[2] == dst
                    else "unsafe link tie"
                )

    def run(self, first, trailer) -> list[float]:
        """Per-rank finish clocks of the leading phase plus its trailer.

        ``first`` is ``(phase, args)`` or None (a no-op leading
        collective); ``trailer`` is ``(phase, root, nbytes)`` or None.
        """
        g = self.g
        procs = g.procs
        self.trailer = trailer
        if first is None:
            # Every rank enters the trailer at time zero.
            self.trailer = None
            self.post = [0.0] * procs
            phase, root, nbytes = trailer
            self.programs = [
                phase(self, rank, root, nbytes, 0.0) for rank in range(procs)
            ]
        else:
            phase, args = first
            self.programs = [phase(self, rank, *args) for rank in range(procs)]
        resume = self._resume
        for rank in range(procs):
            resume(rank, None)
        heap, node, topo, ig = self.heap, g.node, self.topo, self.ig
        mail, waiting, draw = self.mail, self.waiting, self.draw
        latency, bti, slat = g.latency, g.bti, g.slat
        tie_t = -1.0
        tied: list = []
        while heap:
            entry = heappop(heap)
            call_t, src, dst, tag, nbytes, inject_end, seq = entry
            src_node, dst_node = node[src], node[dst]
            if src_node == dst_node:
                if draw is None:
                    deliver = inject_end + slat
                else:
                    deliver = inject_end + slat * draw(src, seq, SHM_LATENCY)
            else:
                if call_t == tie_t:
                    self._check_tie(tied, entry)
                    tied.append(entry)
                else:
                    tie_t = call_t
                    tied = [entry]
                if draw is None:
                    hop = 1.0
                    drain = nbytes * bti
                else:
                    hop = draw(src, seq, HOP)
                    drain = nbytes * bti * draw(src, seq, DRAIN)
                if topo is None:
                    arrive = inject_end + latency * hop
                else:
                    arrive = topo.arrive(
                        src_node, dst_node, nbytes, inject_end, latency * hop,
                        hop,
                    )
                free = ig[dst]
                deliver = (arrive if arrive > free else free) + drain
                ig[dst] = deliver
            want = waiting[dst]
            if want is not None and want[0] == tag and want[1] == 1:
                waiting[dst] = None
                resume(dst, deliver)
                continue
            box = mail[dst]
            got = box.get(tag)
            if got is None:
                got = box[tag] = [1, deliver]
            else:
                got[0] += 1
                if deliver > got[1]:
                    got[1] = deliver
            if want is not None and want[0] == tag and want[1] == got[0]:
                waiting[dst] = None
                resume(dst, got[1])
        if any(want is not None for want in waiting):
            raise _Unsupported("rank program never completed")
        return self.finish


def _links_shared(topo, a_src, a_dst, b_src, b_dst) -> bool:
    """Whether two inter-rack paths reserve a common uplink/downlink."""
    if a_src == a_dst or b_src == b_dst:
        return False
    if a_src == b_src or a_dst == b_dst:
        return True
    if topo.pod_link is None:
        return False
    pod = topo.pod_of
    pa_src, pa_dst = pod[a_src], pod[a_dst]
    pb_src, pb_dst = pod[b_src], pod[b_dst]
    return (
        pa_src != pa_dst and pb_src != pb_dst
        and (pa_src == pb_src or pa_dst == pb_dst)
    )


# -- rank programs ------------------------------------------------------------
#
# Each phase is a generator run by every rank that returns the rank's clock
# when the phase ends.  A leading collective starts every rank at time
# zero; a trailing linear phase takes the clock its rank's leading phase
# ended at (``_Cell._resume`` chains them).


def _zero_post(_rank: int) -> float:
    return 0.0


def _bcast_linear(cell: _Cell, rank: int, root: int, nbytes: int):
    """Linear broadcast (never segmented)."""
    g = cell.g
    if rank == root:
        # Every peer's sole action is one recv posted at time zero.
        peers = [p for p in range(g.procs) if p != root]
        return cell.fan_out(root, peers, nbytes, 0.0, 0, _zero_post, True)
    # Eager: match = max(deliver, post=0) = deliver; rendezvous completes
    # at deliver regardless of post.
    deliver = yield (0, 1)
    return deliver + g.ro


def _bcast_tree(cell: _Cell, rank: int, tree, sizes: list[int]):
    """Generic pipelined tree broadcast: root push, double-buffered relay."""
    g = cell.g
    children = tree.children[rank]
    clock = 0.0
    if rank == tree.root:
        for index, size in enumerate(sizes):
            clock = cell.fan_out(
                rank, children, size, clock, index, _zero_post, False
            )
        return clock
    # Single-segment rendezvous is admitted because every non-root rank
    # posts its first receive at its local time zero.
    rendezvous = sizes[0] > g.eager
    post = 0.0  # the receive for segment ``index`` was posted at ``post``
    for index, size in enumerate(sizes):
        next_post = clock  # segment index+1's irecv precedes this wait
        deliver = yield (index, 1)
        if not rendezvous and post > deliver:
            deliver = post
        done = deliver + g.ro
        if done > clock:
            clock = done
        if children:
            clock = cell.fan_out(
                rank, children, size, clock, index, _zero_post, False
            )
        post = next_post
    return clock


def _reduce_linear(cell: _Cell, rank: int, root: int, nbytes: int):
    """Linear (direct) reduce."""
    g = cell.g
    if rank == root:
        # Posted at 0: eager match = deliver; rendezvous completes at
        # deliver as well — identical expression either way.
        deliver = yield (0, g.procs - 1)
        clock = deliver + g.ro
        compute = (g.procs - 1) * nbytes * DEFAULT_OP_BYTE_TIME
        if compute > 0:
            clock = clock + compute
        return clock
    clock = 0.0 + g.so
    if nbytes <= g.eager:
        call_t, seq = clock, None
    else:
        # The root posts every receive at time zero, before any RTS.
        seq = cell.post_send(rank)
        rts = cell.control(rank, root, clock, rank, seq, RTS)
        call_t = cell.control(root, rank, rts, rank, seq, CTS)
    inject_end = cell.send(rank, root, nbytes, call_t, 0, seq)
    return clock if inject_end < clock else inject_end


def _reduce_tree(cell: _Cell, rank: int, tree, sizes: list[int]):
    """Generic pipelined tree reduce (leaf-to-root mirror of the bcast)."""
    g = cell.g
    children = tree.children[rank]
    parent = tree.parent[rank]
    rendezvous = sizes[0] > g.eager
    clock = 0.0
    for index, size in enumerate(sizes):
        if children:
            post = clock
            deliver = yield (index, len(children))
            if not rendezvous and post > deliver:
                deliver = post
            done = deliver + g.ro
            if done > clock:
                clock = done
            compute = len(children) * size * DEFAULT_OP_BYTE_TIME
            if compute > 0:
                clock = clock + compute
        if rank != tree.root:
            clock = clock + g.so
            if rendezvous:
                # Single segment only (guarded): the parent posts all its
                # receives at its local time zero.
                seq = cell.post_send(rank)
                rts = cell.control(rank, parent, clock, rank, seq, RTS)
                call_t = cell.control(parent, rank, rts, rank, seq, CTS)
            else:
                call_t, seq = clock, None
            inject_end = cell.send(rank, parent, size, call_t, index, seq)
            if inject_end > clock:
                clock = inject_end
    return clock


def _gather_linear(cell: _Cell, rank: int, root: int, nbytes: int, clock):
    """Linear gather appended at ``clock``: every peer sends to the root."""
    g = cell.g
    eager = nbytes <= g.eager
    if rank == root:
        # The root posts every receive, in peer order, at its clock.
        cell.post[root] = clock
        deliver = yield (_GATHER_TAG, g.procs - 1)
        if eager and clock > deliver:
            deliver = clock
        done = deliver + g.ro
        return done if done > clock else clock
    clock = clock + g.so
    if eager:
        call_t, seq = clock, None
    else:
        root_post = cell.post[root]
        if root_post is None:
            raise _Unsupported("gather root post unknown")
        seq = cell.post_send(rank)
        rts = cell.control(rank, root, clock, rank, seq, RTS)
        match = rts if rts > root_post else root_post
        call_t = cell.control(root, rank, match, rank, seq, CTS)
    inject_end = cell.send(rank, root, nbytes, call_t, _GATHER_TAG, seq)
    return clock if inject_end < clock else inject_end


def _scatter_linear(cell: _Cell, rank: int, root: int, nbytes: int, clock):
    """Linear scatter appended at ``clock``: the root sends to every peer."""
    g = cell.g
    if rank == root:
        posts = cell.post

        def post_of(peer: int) -> float:
            # Each peer posts its receive on entering the scatter, which it
            # reaches before the root can finish the preceding reduce.
            post = posts[peer]
            if post is None:
                raise _Unsupported("scatter receive post unknown")
            return post

        peers = [p for p in range(g.procs) if p != root]
        return cell.fan_out(
            root, peers, nbytes, clock, _SCATTER_TAG, post_of, True
        )
    cell.post[rank] = clock
    deliver = yield (_SCATTER_TAG, 1)
    if nbytes <= g.eager and clock > deliver:
        deliver = clock
    return deliver + g.ro


_BCAST_TREES = {
    "chain": lambda grid, root: build_chain_tree(grid.procs, root, 1),
    "k_chain": lambda grid, root: build_chain_tree(grid.procs, root, 4),
    "binary": lambda grid, root: build_binary_tree(grid.procs, root),
    "binomial": lambda grid, root: build_binomial_tree(grid.procs, root),
    "hierarchical": lambda grid, root: build_hierarchy_tree(
        grid.group_of, root
    ),
}

_REDUCE_TREES = {
    "chain": lambda grid, root: build_chain_tree(grid.procs, root, 1),
    "binary": lambda grid, root: build_binary_tree(grid.procs, root),
    "binomial": lambda grid, root: build_binomial_tree(grid.procs, root),
    "in_order_binomial": lambda grid, root: build_in_order_binomial_tree(
        grid.procs, root
    ),
    "hierarchical": lambda grid, root: build_hierarchy_tree(
        grid.group_of, root
    ),
}


def _first_phase(grid: _Grid, job):
    """``(phase, args)`` of the job's leading collective, or None (no-op)."""
    if job.kind in ("bcast", "bcast_then_gather"):
        family, linear, tree_phase, table = (
            "bcast", _bcast_linear, _bcast_tree, _BCAST_TREES
        )
    elif job.kind in ("reduce", "reduce_then_scatter"):
        family, linear, tree_phase, table = (
            "reduce", _reduce_linear, _reduce_tree, _REDUCE_TREES
        )
    elif job.kind == "gather":
        if job.algorithm != "linear":
            raise _Unsupported("non-linear gather")
        return None
    else:
        raise _Unsupported(f"kind {job.kind!r}")
    if job.algorithm != "linear" and job.algorithm not in table:
        raise _Unsupported(f"{family} algorithm {job.algorithm!r}")
    if grid.procs == 1 or job.nbytes == 0:
        return None
    if job.algorithm == "linear":
        return linear, (job.root, job.nbytes)
    tree = grid.tree(table[job.algorithm], job.root)
    sizes = plan_segments(job.nbytes, job.segment_size).sizes
    if not sizes:
        return None
    if len(sizes) > 1 and any(size > grid.eager for size in sizes):
        # Multi-segment rendezvous couples receiver post times back into
        # sender timelines mid-pipeline; only the event loop orders that.
        raise _Unsupported("segmented rendezvous pipeline")
    return tree_phase, (tree, sizes)


# -- the batch front end ------------------------------------------------------


class BatchSimulator:
    """Runs a grid of :class:`~repro.exec.job.SimJob` cells in one pass.

    Bit-for-bit identical to per-cell :func:`~repro.exec.job.execute_job`
    on every input: the columnar kernels only claim cells they reproduce
    exactly, everything else falls back to the event loop, and noise-free
    seed variants of one cell share a single simulation.
    """

    def __init__(self) -> None:
        self.stats = BatchStats()
        self._grids: dict[tuple, _Grid | str] = {}

    def _grid_for(self, job) -> _Grid:
        # ``execute_job`` forwards ``job.mapping`` only for the plain
        # broadcast; the composite/gather/reduce measurements use
        # ``measure``'s default block mapping — mirror that exactly.
        mapping = job.mapping if job.kind == "bcast" else "block"
        key = (job.spec.fingerprint(), job.procs, mapping)
        grid = self._grids.get(key)
        if grid is None:
            try:
                grid = _Grid(job.spec, job.procs, mapping)
            except _Unsupported as refusal:
                grid = str(refusal)
            self._grids[key] = grid
        else:
            self.stats.shared_setup_hits += 1
        if isinstance(grid, str):
            raise _Unsupported(grid)
        return grid

    # -- columnar dispatch --------------------------------------------------

    def _columnar(self, job) -> float:
        """The cell's result via the columnar kernels.

        Raises :class:`_Unsupported`, naming the reason, for a cell the
        kernels cannot reproduce exactly.
        """
        grid = self._grid_for(job)
        first = _first_phase(grid, job)
        last = None
        if job.kind == "bcast_then_gather" or job.kind == "gather":
            nbytes = job.gather_bytes if job.kind != "gather" else job.nbytes
            last = (_gather_linear, job.root, nbytes)
        elif job.kind == "reduce_then_scatter" and job.gather_bytes:
            # ``scatter_linear`` returns at once for an empty payload.
            last = (_scatter_linear, job.root, job.gather_bytes)
        if grid.procs == 1 or (first is None and last is None):
            finish = [0.0] * grid.procs
        else:
            finish = _Cell(grid, job.seed).run(first, last)
        # The composite experiments hardcode root timing in ``measure``
        # (their programs end on the root); ``job.policy`` only reaches the
        # simple-collective measurements.
        policy = (
            "root"
            if job.kind in ("bcast_then_gather", "reduce_then_scatter")
            else job.policy
        )
        if policy == "root":
            return finish[job.root]
        if policy == "global":
            return max(finish)
        raise _Unsupported(f"timing policy {policy!r}")

    # -- execution ----------------------------------------------------------

    def run(self, jobs) -> list[float]:
        """Results of ``jobs``, in order — one grid, one pass."""
        from repro.exec.job import execute_job

        jobs = list(jobs)
        before = self.stats.copy()
        stats = self.stats
        with obs.span("sim.batch", cells=len(jobs)) as span:
            groups: dict[str, list[int]] = {}
            for index, job in enumerate(jobs):
                groups.setdefault(dedupe_key(job), []).append(index)
            stats.cells += len(jobs)
            stats.unique_cells += len(groups)
            stats.deduped += len(jobs) - len(groups)
            results: list[float] = [0.0] * len(jobs)
            for indices in groups.values():
                job = jobs[indices[0]]
                try:
                    value = self._columnar(job)
                except _Unsupported as refusal:
                    stats.event_loop += 1
                    stats.fallbacks[str(refusal)] += 1
                    value = execute_job(job)
                else:
                    stats.columnar += 1
                for index in indices:
                    results[index] = value
            if obs.is_enabled():
                added = stats.since(before)
                span.set_attrs(
                    unique_cells=added.unique_cells,
                    columnar=added.columnar,
                    event_loop=added.event_loop,
                    shared_setup_hits=added.shared_setup_hits,
                    fallbacks=dict(sorted(added.fallbacks.items())),
                )
        return results
