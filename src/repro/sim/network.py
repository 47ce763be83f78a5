"""Cluster fabric model: hosts, NICs, and message transfer timing.

The model captures the mechanisms that the paper's results hinge on:

* **Egress serialisation.**  A host injects bytes into the network through
  one NIC; concurrent sends from the same rank serialise their injection
  (per-message fixed cost plus a per-byte cost).  This is what makes the
  non-blocking linear broadcast slower than a single point-to-point message
  and hence what the paper's ``γ(P)`` parameter measures.
* **Parallel wire latency.**  Once injected, messages to different
  destinations propagate concurrently; only the injection is serial.
* **Ingress serialisation.**  A host drains incoming bytes through one NIC;
  P-1 simultaneous messages to the root (the linear gather used in the
  paper's α/β experiments) serialise on arrival, giving the
  ``(P-1)(α + m_g β)`` gather term of the paper's Eq. 8.
* **Eager vs rendezvous point-to-point protocol.**  Messages up to
  ``eager_limit`` are buffered (the send completes locally once injected);
  larger messages complete only after a ready-to-send/clear-to-send
  handshake, like Open MPI's TCP BTL.
* **Intra-node shared-memory transfers.**  Ranks mapped to the same node
  bypass the NIC (Grisou runs two ranks per node in the paper).

The fabric computes *timings*; queueing state is a single ``free_at`` clock
per NIC direction, which is exact for serially-reserved resources.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import SimulationError
from repro.sim.noise import (
    DRAIN,
    HOP,
    INJECT,
    RTS,
    SHM_COPY,
    SHM_LATENCY,
    LognormalNoise,
    NoiseModel,
    NoNoise,
)


@dataclass(frozen=True)
class NetworkParams:
    """Physical parameters of a simulated cluster fabric.

    All times are seconds; per-byte costs are seconds/byte.
    """

    #: One-way wire + switch latency between any two hosts.
    latency: float
    #: Per-byte egress (injection) cost at the sending host's NIC.
    byte_time_out: float
    #: Per-byte ingress (drain) cost at the receiving host's NIC.
    byte_time_in: float
    #: Fixed NIC/driver cost per injected message (serialised at egress).
    per_message_overhead: float
    #: CPU time charged to the sending rank per send/isend call.
    send_overhead: float
    #: CPU-side time to hand a matched message to the receiving rank.
    recv_overhead: float
    #: Messages strictly larger than this use the rendezvous protocol.
    eager_limit: int
    #: One-way latency of a tiny control message (RTS/CTS).
    control_latency: float
    #: Latency of an intra-node (shared memory) transfer.
    shm_latency: float
    #: Per-byte cost of an intra-node transfer (memory copy).
    shm_byte_time: float

    def __post_init__(self) -> None:
        for name in (
            "latency",
            "byte_time_out",
            "byte_time_in",
            "per_message_overhead",
            "send_overhead",
            "recv_overhead",
            "control_latency",
            "shm_latency",
            "shm_byte_time",
        ):
            if getattr(self, name) < 0:
                raise ValueError(f"NetworkParams.{name} must be >= 0")
        if self.eager_limit < 0:
            raise ValueError("NetworkParams.eager_limit must be >= 0")


class TransferTiming:
    """Timestamps of one message transfer.

    ``inject_end`` is when the sender's NIC finishes injecting (local
    completion for eager sends); ``deliver`` is when the last byte is
    available at the receiving host.

    A plain ``__slots__`` class rather than a dataclass: one instance is
    built per simulated message, which makes construction cost part of the
    simulator's innermost loop.
    """

    __slots__ = ("inject_start", "inject_end", "deliver")

    def __init__(
        self, inject_start: float, inject_end: float, deliver: float
    ) -> None:
        if not inject_start <= inject_end <= deliver:
            raise SimulationError(
                f"non-monotonic transfer timing: {inject_start} "
                f"-> {inject_end} -> {deliver}"
            )
        self.inject_start = inject_start
        self.inject_end = inject_end
        self.deliver = deliver

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TransferTiming({self.inject_start!r}, {self.inject_end!r}, "
            f"{self.deliver!r})"
        )


class _Nic:
    """One direction of a NIC: a serially-reserved resource."""

    __slots__ = ("free_at",)

    def __init__(self) -> None:
        self.free_at = 0.0

    def reserve(self, ready: float, duration: float) -> tuple[float, float]:
        start = ready if ready > self.free_at else self.free_at
        end = start + duration
        self.free_at = end
        return start, end

    def reset(self) -> None:
        self.free_at = 0.0


class _TopologyState:
    """Reservation state for a non-flat :class:`~repro.fabric.FabricSpec`.

    Built once per :class:`Fabric` (i.e. per simulation run) from the
    declarative spec: per-rack uplink/downlink NIC clocks, optional pod
    tier, and the node→rack map.  Inter-rack payloads serialise on the
    source rack's uplink and the destination rack's downlink between
    host injection and host ingress, which is what makes oversubscribed
    uplinks a genuine bottleneck for algorithms that cross rack
    boundaries often.
    """

    __slots__ = (
        "rack_of",
        "pod_of",
        "up_links",
        "up",
        "down",
        "pod_link",
        "pod_up",
        "pod_down",
    )

    def __init__(self, spec, num_nodes: int) -> None:
        racks = spec.racks_for(num_nodes)
        self.rack_of = [spec.rack_of(node) for node in range(num_nodes)]
        self.pod_of = [spec.pod_of(rack) for rack in range(racks)]
        self.up_links = [spec.uplink_of(rack) for rack in range(racks)]
        self.up = [
            [_Nic() for _ in range(link.count)] for link in self.up_links
        ]
        self.down = [
            [_Nic() for _ in range(link.count)] for link in self.up_links
        ]
        if spec.pod_racks > 0:
            pods = max(self.pod_of) + 1
            self.pod_link = spec.pod_uplink
            self.pod_up = [
                [_Nic() for _ in range(self.pod_link.count)]
                for _ in range(pods)
            ]
            self.pod_down = [
                [_Nic() for _ in range(self.pod_link.count)]
                for _ in range(pods)
            ]
        else:
            self.pod_link = None
            self.pod_up = []
            self.pod_down = []

    @staticmethod
    def _reserve(
        nics: list[_Nic], ready: float, duration: float
    ) -> tuple[float, float]:
        # Parallel physical links: traffic takes the least-loaded one.
        if len(nics) > 1:
            nic = min(nics, key=lambda n: n.free_at)
        else:
            nic = nics[0]
        return nic.reserve(ready, duration)

    def arrive(
        self,
        src: int,
        dst: int,
        nbytes: int,
        inject_end: float,
        wire_latency: float,
        factor: float,
    ) -> float:
        """When the payload's last byte reaches ``dst``'s host NIC.

        ``wire_latency`` is the host-level latency term (already noise-
        scaled by the caller); ``factor`` scales the uplink hop costs so
        noisy and faulty fabrics perturb the whole path consistently.
        """
        rack_src = self.rack_of[src]
        rack_dst = self.rack_of[dst]
        if rack_src == rack_dst:
            return inject_end + wire_latency
        up = self.up_links[rack_src]
        _, t = self._reserve(
            self.up[rack_src],
            inject_end + up.latency * factor,
            nbytes * up.byte_time * factor,
        )
        if self.pod_link is not None:
            pod_src = self.pod_of[rack_src]
            pod_dst = self.pod_of[rack_dst]
            if pod_src != pod_dst:
                pl = self.pod_link
                _, t = self._reserve(
                    self.pod_up[pod_src],
                    t + pl.latency * factor,
                    nbytes * pl.byte_time * factor,
                )
                _, t = self._reserve(
                    self.pod_down[pod_dst],
                    t + pl.latency * factor,
                    nbytes * pl.byte_time * factor,
                )
        down = self.up_links[rack_dst]
        _, t = self._reserve(
            self.down[rack_dst],
            t + down.latency * factor,
            nbytes * down.byte_time * factor,
        )
        return t + wire_latency

    def control_extra(self, src: int, dst: int) -> float:
        """Extra latency a control message pays for crossing racks."""
        rack_src = self.rack_of[src]
        rack_dst = self.rack_of[dst]
        if rack_src == rack_dst:
            return 0.0
        extra = (
            self.up_links[rack_src].latency + self.up_links[rack_dst].latency
        )
        if self.pod_link is not None and (
            self.pod_of[rack_src] != self.pod_of[rack_dst]
        ):
            extra += 2.0 * self.pod_link.latency
        return extra

    def reset(self) -> None:
        for tier in (self.up, self.down, self.pod_up, self.pod_down):
            for nics in tier:
                for nic in nics:
                    nic.reset()


class Host:
    """A cluster node: one or more NIC ports plus an identity.

    Multi-port hosts model nodes like Grid'5000 Grisou's, which expose
    several 10 GbE ports; ranks co-located on such a node are assigned
    distinct ports and do not contend for injection bandwidth.
    """

    __slots__ = ("node_id", "egress", "ingress")

    def __init__(self, node_id: int, ports: int = 1):
        if ports < 1:
            raise SimulationError(f"host needs at least one NIC port, got {ports}")
        self.node_id = node_id
        self.egress = [_Nic() for _ in range(ports)]
        self.ingress = [_Nic() for _ in range(ports)]

    @property
    def ports(self) -> int:
        return len(self.egress)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Host {self.node_id} ports={self.ports}>"


@dataclass
class Fabric:
    """The cluster interconnect: computes message transfer timings.

    One :class:`Fabric` is created per simulation run; NIC clocks are part
    of the run state.
    """

    params: NetworkParams
    num_nodes: int
    noise: NoiseModel = field(default_factory=NoNoise)
    ports_per_node: int = 1
    #: Per-node *egress* slowdown factors (>= 1), e.g. ``{60: 6.0}``: the
    #: node's outgoing injection runs six times slower (a collapsed TCP
    #: congestion window, a flapping link).  Egress-only on purpose: every
    #: broadcast participant must *receive* the message whatever the
    #: algorithm, but only algorithms that route traffic *through* the sick
    #: node pay its send-side pathology — which is what makes long
    #: pipelines collapse while leaving tree leaves harmless.
    degradation: dict = field(default_factory=dict)
    #: Optional multi-level physical topology (a
    #: :class:`repro.fabric.FabricSpec`).  ``None`` or a flat spec keeps
    #: the single-switch model bit-identical to the pre-fabric code.
    topology: object = None

    def __post_init__(self) -> None:
        if self.num_nodes < 1:
            raise ValueError("fabric needs at least one node")
        for node, factor in self.degradation.items():
            if not 0 <= node < self.num_nodes:
                raise SimulationError(f"degraded node {node} outside fabric")
            if factor < 1.0:
                raise SimulationError(
                    f"degradation factor must be >= 1, got {factor} for node {node}"
                )
        self.hosts = [Host(i, self.ports_per_node) for i in range(self.num_nodes)]
        self.bytes_transferred = 0
        self.messages_transferred = 0
        # Deterministic fabrics (the default in tests and benchmarks) skip
        # the per-cost noise draws entirely: ``transfer`` is the simulator's
        # innermost loop, and four virtual calls per message add up.  The
        # check is deliberately exact about *which* models are unit-valued:
        # other models (e.g. a spiking mixture) may carry a zero ``sigma``
        # attribute yet still produce non-unit factors.
        self._unit_noise = isinstance(self.noise, NoNoise) or (
            isinstance(self.noise, LognormalNoise) and self.noise.sigma == 0.0
        )
        # ``None`` for flat fabrics, so the transfer hot path pays a
        # single attribute check and nothing else.
        if self.topology is not None and not self.topology.is_flat():
            self._topo = _TopologyState(self.topology, self.num_nodes)
        else:
            self._topo = None

    def _slowdown(self, node: int) -> float:
        return self.degradation.get(node, 1.0)

    def host(self, node_id: int) -> Host:
        return self.hosts[node_id]

    def transfer(
        self,
        src: int,
        dst: int,
        nbytes: int,
        ready: float,
        src_port: int = 0,
        dst_port: int = 0,
        key: tuple[int, int] | None = None,
    ) -> TransferTiming:
        """Timing of moving ``nbytes`` from node ``src`` to node ``dst``.

        ``ready`` is the earliest time the payload can start moving (after
        the sender's CPU overhead, and after CTS for rendezvous sends).
        ``src_port``/``dst_port`` select the NIC port on multi-port hosts.
        ``key`` is the message's ``(sender world rank, sequence number)``
        noise key (:mod:`repro.sim.noise`); unit-noise fabrics ignore it.
        """
        if nbytes < 0:
            raise SimulationError(f"negative message size: {nbytes}")
        self.bytes_transferred += nbytes
        self.messages_transferred += 1
        p = self.params
        if self._unit_noise:
            # Fast path: every noise factor is exactly 1, so the costs are
            # pure arithmetic on the (hoisted) fabric constants.
            if src == dst:
                inject_end = ready + nbytes * p.shm_byte_time
                return TransferTiming(
                    ready, inject_end, inject_end + p.shm_latency
                )
            inject_cost = p.per_message_overhead + nbytes * p.byte_time_out
            if self.degradation:
                inject_cost *= self.degradation.get(src, 1.0)
            inject_start, inject_end = self.hosts[src].egress[src_port].reserve(
                ready, inject_cost
            )
            if self._topo is None:
                arrive = inject_end + p.latency
            else:
                arrive = self._topo.arrive(
                    src, dst, nbytes, inject_end, p.latency, 1.0
                )
            _, deliver = self.hosts[dst].ingress[dst_port].reserve(
                arrive, nbytes * p.byte_time_in
            )
            return TransferTiming(inject_start, inject_end, deliver)
        if key is None:
            raise SimulationError("a noisy fabric needs each message's noise key")
        rank, seq = key
        draw = self.noise.draw
        if src == dst:
            # Intra-node: one memory copy by the sender, no NIC involvement.
            copy = nbytes * p.shm_byte_time * draw(rank, seq, SHM_COPY)
            inject_end = ready + copy
            deliver = inject_end + p.shm_latency * draw(rank, seq, SHM_LATENCY)
            return TransferTiming(ready, inject_end, deliver)
        src_host = self.hosts[src]
        dst_host = self.hosts[dst]
        inject_cost = (
            (p.per_message_overhead + nbytes * p.byte_time_out)
            * draw(rank, seq, INJECT)
            * self._slowdown(src)
        )
        inject_start, inject_end = src_host.egress[src_port].reserve(
            ready, inject_cost
        )
        hop_factor = draw(rank, seq, HOP)
        if self._topo is None:
            arrive = inject_end + p.latency * hop_factor
        else:
            arrive = self._topo.arrive(
                src, dst, nbytes, inject_end, p.latency * hop_factor, hop_factor
            )
        drain_cost = nbytes * p.byte_time_in * draw(rank, seq, DRAIN)
        _, deliver = dst_host.ingress[dst_port].reserve(arrive, drain_cost)
        return TransferTiming(inject_start, inject_end, deliver)

    def control_transfer(
        self,
        src: int,
        dst: int,
        ready: float,
        key: tuple[int, int] | None = None,
        term: int = RTS,
    ) -> float:
        """Delivery time of a tiny control message (rendezvous RTS/CTS).

        Control messages ride a fast path: they pay only control latency (no
        NIC byte serialisation), or a shared-memory hop intra-node.  ``key``
        is the payload message's noise key and ``term`` says which of its
        handshake legs this is (:data:`~repro.sim.noise.RTS` or
        :data:`~repro.sim.noise.CTS`).
        """
        p = self.params
        if self._unit_noise:
            if src == dst:
                return ready + p.shm_latency
            deliver = ready + p.control_latency
            if self._topo is not None:
                deliver += self._topo.control_extra(src, dst)
            return deliver
        if key is None:
            raise SimulationError("a noisy fabric needs each message's noise key")
        factor = self.noise.draw(key[0], key[1], term)
        if src == dst:
            return ready + p.shm_latency * factor
        deliver = ready + p.control_latency * factor
        if self._topo is not None:
            deliver += self._topo.control_extra(src, dst)
        return deliver

    def reset(self) -> None:
        """Clear NIC clocks and counters (between measurement repetitions)."""
        for host in self.hosts:
            for nic in host.egress:
                nic.reset()
            for nic in host.ingress:
                nic.reset()
        if self._topo is not None:
            self._topo.reset()
        self.bytes_transferred = 0
        self.messages_transferred = 0
