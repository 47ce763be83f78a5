"""The simulated MPI world and rank-bound communicators.

An :class:`MpiWorld` ties together a :class:`~repro.sim.engine.Simulator`,
a :class:`~repro.sim.network.Fabric` and a rank→node mapping.  Each rank's
program is a generator function receiving a rank-bound :class:`Communicator`
whose point-to-point calls are sub-generators (``yield from``).

Protocol semantics (mirroring Open MPI over a TCP BTL):

* **eager** sends (size ≤ ``eager_limit``): the payload starts injecting
  immediately; the send request completes at *local* completion (last byte
  injected), possibly before the receiver has even posted a receive;
* **rendezvous** sends: a ready-to-send notice travels to the receiver, the
  payload only moves after the notice matches a posted receive and a
  clear-to-send returns to the sender; the send request completes at
  injection end, the receive at delivery.

Per-call CPU costs: every ``isend`` charges ``send_overhead`` to the calling
rank before returning; every matched message adds ``recv_overhead`` between
payload delivery and receive completion.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Sequence

from repro.errors import MpiError
from repro.mpi.matching import (
    ANY_SOURCE,
    ANY_TAG,
    Envelope,
    MatchingEngine,
    PostedRecv,
    RtsNotice,
)
from repro.mpi.requests import Request, Status
from repro.sim.engine import Future, Process, SimGen, Simulator
from repro.sim.network import Fabric
from repro.sim.noise import CTS, RTS
from repro.sim.trace import NULL_TRACER, Tracer

#: Type of a rank program: ``def body(comm): yield ...``.
RankProgram = Callable[["Communicator"], SimGen]


class MpiWorld:
    """All simulated ranks plus the fabric they communicate over."""

    def __init__(
        self,
        sim: Simulator,
        fabric: Fabric,
        rank_to_node: Sequence[int],
        tracer: Tracer = NULL_TRACER,
        rank_to_port: Sequence[int] | None = None,
        compute_factor: Sequence[float] | None = None,
        node_to_rack: Sequence[int] | None = None,
    ):
        if not rank_to_node:
            raise MpiError("world needs at least one rank")
        for node in rank_to_node:
            if not 0 <= node < fabric.num_nodes:
                raise MpiError(f"rank mapped to unknown node {node}")
        self.sim = sim
        self.fabric = fabric
        self.rank_to_node = list(rank_to_node)
        if rank_to_port is None:
            rank_to_port = [0] * len(self.rank_to_node)
        if len(rank_to_port) != len(self.rank_to_node):
            raise MpiError("rank_to_port length must match rank_to_node")
        for rank, port in enumerate(rank_to_port):
            if not 0 <= port < fabric.ports_per_node:
                raise MpiError(f"rank {rank} mapped to unknown NIC port {port}")
        self.rank_to_port = list(rank_to_port)
        if compute_factor is not None:
            if len(compute_factor) != len(self.rank_to_node):
                raise MpiError("compute_factor length must match rank_to_node")
            for rank, factor in enumerate(compute_factor):
                if factor < 1.0:
                    raise MpiError(
                        f"compute factor must be >= 1, got {factor} for rank {rank}"
                    )
            compute_factor = list(compute_factor)
        #: Per-rank CPU slowdown (straggler hosts); ``None`` — the default —
        #: keeps every per-call cost exactly as configured.
        self.compute_factor = compute_factor
        if node_to_rack is not None:
            if len(node_to_rack) < fabric.num_nodes:
                raise MpiError("node_to_rack must cover every fabric node")
            node_to_rack = list(node_to_rack)
        #: Node→rack map of a multi-level fabric (``None`` on flat
        #: fabrics); hierarchical collectives group ranks by it.
        self.node_to_rack = node_to_rack
        self.tracer = tracer
        self.size = len(rank_to_node)
        self.engines = [MatchingEngine() for _ in range(self.size)]
        #: Per-rank count of posted sends: the sequence half of each
        #: message's noise key.  ``None`` on unit-noise fabrics, whose
        #: transfers draw no factors.
        self._send_seq = None if fabric._unit_noise else [0] * self.size
        self._next_cid = 0
        self._world_group = tuple(range(self.size))

    # -- communicator construction ----------------------------------------

    def _allocate_cid(self) -> int:
        cid = self._next_cid
        self._next_cid += 1
        return cid

    def comm_world(self, rank: int) -> "Communicator":
        """The world communicator handle bound to ``rank``.

        All handles returned by this method share context id 0.
        """
        if self._next_cid == 0:
            self._allocate_cid()
        return Communicator(self, cid=0, group=self._world_group, rank=rank)

    def subgroup_comm(self, group: Sequence[int]) -> list["Communicator"]:
        """Create a communicator over ``group`` (world ranks); one handle per member.

        This plays the role of ``MPI_Comm_create``; since this is a
        simulator, creation is immediate rather than collective.
        """
        group = tuple(group)
        if len(set(group)) != len(group):
            raise MpiError(f"duplicate ranks in group {group}")
        for world_rank in group:
            if not 0 <= world_rank < self.size:
                raise MpiError(f"rank {world_rank} outside world")
        cid = self._allocate_cid()
        return [
            Communicator(self, cid=cid, group=group, rank=i)
            for i in range(len(group))
        ]

    # -- program execution -------------------------------------------------

    def spawn(self, program: RankProgram, ranks: Sequence[int] | None = None) -> list[Process]:
        """Spawn ``program(comm)`` as one coroutine per rank.

        Returns the processes; run the world's simulator to execute them.
        """
        if ranks is None:
            ranks = range(self.size)
        return [
            self.sim.process(program(self.comm_world(r)), name=f"rank-{r}")
            for r in ranks
        ]

    def run(self, program: RankProgram) -> list[Process]:
        """Spawn ``program`` on every rank and run the simulation to the end."""
        processes = self.spawn(program)
        self.sim.run()
        return processes

    # -- point-to-point internals -------------------------------------------

    def _start_send(
        self,
        cid: int,
        group: tuple[int, ...],
        src_local: int,
        dst_local: int,
        nbytes: int,
        tag: int,
        request: Request,
    ) -> None:
        sim = self.sim
        fabric = self.fabric
        src_world = group[src_local]
        dst_world = group[dst_local]
        src_node = self.rank_to_node[src_world]
        dst_node = self.rank_to_node[dst_world]
        src_port = self.rank_to_port[src_world]
        dst_port = self.rank_to_port[dst_world]
        engine = self.engines[dst_world]
        send_status = Status(source=dst_local, tag=tag, nbytes=nbytes)
        tracer = self.tracer
        tracer.record(sim.now, "send_post", src_world, dst_world, tag, nbytes)
        # The noise key is fixed here, at post time and in the sender's
        # program order: a rendezvous payload only moves at CTS arrival,
        # whose order across ranks is itself noisy.
        seqs = self._send_seq
        if seqs is None:
            key = None
        else:
            key = (src_world, seqs[src_world])
            seqs[src_world] += 1

        def complete_send() -> None:
            tracer.record(sim.now, "send_complete", src_world, dst_world, tag, nbytes)
            request.succeed(send_status)

        if nbytes <= fabric.params.eager_limit:
            timing = fabric.transfer(
                src_node, dst_node, nbytes, sim.now, src_port, dst_port, key
            )
            sim._schedule_at(timing.inject_end, complete_send)
            envelope = Envelope(cid, src_local, tag, nbytes, timing.deliver)
            sim._schedule_at(
                timing.deliver, lambda: engine.arrive(envelope, timing.deliver)
            )
            return

        # Rendezvous: RTS -> match -> CTS -> payload.  The notice's grant
        # carries the message key to the CTS and the payload.
        def grant(match_time: float, recv_done: Callable[[float], None]) -> None:
            cts_at_sender = fabric.control_transfer(
                dst_node, src_node, match_time, key, CTS
            )

            def start_payload() -> None:
                timing = fabric.transfer(
                    src_node, dst_node, nbytes, sim.now, src_port, dst_port,
                    key,
                )
                sim._schedule_at(timing.inject_end, complete_send)
                recv_done(timing.deliver)

            sim._schedule_at(cts_at_sender, start_payload)

        notice = RtsNotice(cid, src_local, tag, nbytes, grant)
        rts_arrival = fabric.control_transfer(
            src_node, dst_node, sim.now, key, RTS
        )
        sim._schedule_at(rts_arrival, lambda: engine.arrive(notice, rts_arrival))

    def _post_recv(
        self,
        cid: int,
        group: tuple[int, ...],
        dst_local: int,
        src_local: int,
        tag: int,
        request: Request,
    ) -> None:
        sim = self.sim
        dst_world = group[dst_local]
        recv_overhead = self.fabric.params.recv_overhead
        tracer = self.tracer
        tracer.record(sim.now, "recv_post", dst_world, src_local, tag, -1)

        def finish(status: Status) -> Callable[[], None]:
            def _done() -> None:
                tracer.record(
                    sim.now, "recv_complete", dst_world, status.source,
                    status.tag, status.nbytes,
                )
                request.succeed(status)

            return _done

        def on_match(message: Envelope | RtsNotice, match_time: float) -> None:
            status = Status(source=message.src, tag=message.tag, nbytes=message.nbytes)
            if isinstance(message, Envelope):
                sim._schedule_at(match_time + recv_overhead, finish(status))
            else:
                message.grant(
                    match_time,
                    lambda deliver: sim._schedule_at(
                        deliver + recv_overhead, finish(status)
                    ),
                )

        self.engines[dst_world].post(
            PostedRecv(cid, src_local, tag, on_match), sim.now
        )

    def quiescent(self) -> bool:
        """True when no unmatched receives or messages remain anywhere."""
        return all(engine.idle() for engine in self.engines)


class Communicator:
    """A communicator handle bound to one rank (its caller)."""

    __slots__ = ("world", "cid", "group", "rank")

    def __init__(self, world: MpiWorld, cid: int, group: tuple[int, ...], rank: int):
        self.world = world
        self.cid = cid
        self.group = group
        self.rank = rank

    @property
    def size(self) -> int:
        """Number of ranks in this communicator."""
        return len(self.group)

    @property
    def sim(self) -> Simulator:
        """The underlying simulator (for ``comm.sim.now`` timestamps)."""
        return self.world.sim

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self.world.sim.now

    def _check_peer(self, peer: int, wildcard_ok: bool) -> None:
        if wildcard_ok and peer == ANY_SOURCE:
            return
        if not 0 <= peer < len(self.group):
            raise MpiError(
                f"peer rank {peer} outside communicator of size {len(self.group)}"
            )

    # -- non-blocking point-to-point ---------------------------------------

    def isend(
        self, dest: int, nbytes: int, tag: int = 0
    ) -> Generator[Future, Any, Request]:
        """Start a standard-mode non-blocking send; returns the request.

        Charges the caller ``send_overhead`` of CPU time, so back-to-back
        ``isend`` calls serialise on the calling rank, exactly the effect the
        paper's γ(P) parameter captures for the linear-tree broadcast.
        """
        self._check_peer(dest, wildcard_ok=False)
        if dest == self.rank:
            raise MpiError("send to self would deadlock the rank coroutine")
        if nbytes < 0:
            raise MpiError(f"negative message size {nbytes}")
        world = self.world
        overhead = world.fabric.params.send_overhead
        if world.compute_factor is not None:
            overhead *= world.compute_factor[self.group[self.rank]]
        yield world.sim.timeout(overhead)
        request = Request(world.sim, "send", self.rank, dest, tag, nbytes)
        world._start_send(self.cid, self.group, self.rank, dest, nbytes, tag, request)
        return request

    def irecv(
        self, source: int = ANY_SOURCE, tag: int = ANY_TAG, nbytes: int | None = None
    ) -> Generator[Future, Any, Request]:
        """Post a non-blocking receive; returns the request.

        ``nbytes`` is informational (the matched message determines the
        size); posting is free of simulated CPU time, like a real
        ``MPI_Irecv`` pre-posted buffer.
        """
        self._check_peer(source, wildcard_ok=True)
        world = self.world
        request = Request(
            world.sim, "recv", self.rank, source, tag, -1 if nbytes is None else nbytes
        )
        world._post_recv(self.cid, self.group, self.rank, source, tag, request)
        return request
        yield  # pragma: no cover - makes this function a generator

    # -- completion ----------------------------------------------------------

    def wait(self, request: Request) -> Generator[Future, Any, Status]:
        """Block until ``request`` completes; returns its :class:`Status`."""
        status = yield request
        return status

    def waitall(
        self, requests: Sequence[Request]
    ) -> Generator[Future, Any, list[Status]]:
        """Block until every request completes; returns statuses in order."""
        statuses = yield self.world.sim.all_of(list(requests))
        return statuses

    def waitany(
        self, requests: Sequence[Request]
    ) -> Generator[Future, Any, tuple[int, Status]]:
        """Block until one request completes; returns ``(index, status)``."""
        result = yield self.world.sim.any_of(list(requests))
        return result

    # -- blocking convenience --------------------------------------------------

    def send(
        self, dest: int, nbytes: int, tag: int = 0
    ) -> Generator[Future, Any, Status]:
        """Blocking standard-mode send (``isend`` + ``wait``)."""
        request = yield from self.isend(dest, nbytes, tag)
        status = yield from self.wait(request)
        return status

    def recv(
        self, source: int = ANY_SOURCE, tag: int = ANY_TAG
    ) -> Generator[Future, Any, Status]:
        """Blocking receive (``irecv`` + ``wait``)."""
        request = yield from self.irecv(source, tag)
        status = yield from self.wait(request)
        return status

    def sendrecv(
        self,
        dest: int,
        nbytes: int,
        source: int,
        sendtag: int = 0,
        recvtag: int = ANY_TAG,
    ) -> Generator[Future, Any, Status]:
        """Simultaneous send and receive (deadlock-free exchange)."""
        recv_request = yield from self.irecv(source, recvtag)
        send_request = yield from self.isend(dest, nbytes, sendtag)
        statuses = yield from self.waitall([send_request, recv_request])
        return statuses[1]

    def compute(self, seconds: float) -> Generator[Future, Any, None]:
        """Occupy the calling rank for ``seconds`` of local computation.

        Used by reduction collectives to charge per-byte operator cost.
        """
        factors = self.world.compute_factor
        if factors is not None:
            seconds *= factors[self.group[self.rank]]
        if seconds > 0:
            yield self.world.sim.timeout(seconds)
