"""Cluster descriptions and world construction."""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace

from repro.errors import SimulationError
from repro.fabric.spec import FabricSpec
from repro.faults.fabric import FaultyFabric
from repro.faults.noise import compose_noise
from repro.faults.plan import FaultPlan
from repro.mpi.communicator import MpiWorld
from repro.sim.engine import Simulator
from repro.sim.network import Fabric, NetworkParams
from repro.sim.noise import make_noise
from repro.sim.trace import NULL_TRACER, Tracer


@dataclass(frozen=True)
class ClusterSpec:
    """A simulated cluster platform.

    Combines the node inventory with the fabric parameters and a default
    noise level.  ``rank_to_node`` uses block ("by slot") placement, the
    Open MPI default: ranks fill a node's slots before moving to the next
    node, so e.g. Grisou's two ranks per node make ranks ``2k`` and
    ``2k + 1`` node-local.
    """

    name: str
    nodes: int
    procs_per_node: int
    network: NetworkParams
    #: Lognormal sigma of run-to-run cost jitter (0 disables noise).
    noise_sigma: float = 0.0
    #: NIC ports per node; co-located ranks round-robin over ports, so a
    #: node with as many ports as ranks has no injection contention.
    nics_per_node: int = 1
    #: Per-node NIC slowdown factors (straggler nodes), e.g. ``{60: 6.0}``.
    slow_nodes: dict = field(default_factory=dict)
    #: Optional fault plan (:mod:`repro.faults`); ``None`` — and an empty,
    #: inert plan — leave every code path and fingerprint untouched.
    faults: FaultPlan | None = None
    #: Optional multi-level fabric (:mod:`repro.fabric`); ``None`` — and
    #: the explicit flat fabric — leave every code path and fingerprint
    #: untouched, exactly mirroring the ``faults`` contract.
    fabric: FabricSpec | None = None

    def __post_init__(self) -> None:
        if self.nodes < 1:
            raise SimulationError(f"{self.name}: need at least one node")
        if self.procs_per_node < 1:
            raise SimulationError(f"{self.name}: need at least one proc per node")
        if self.nics_per_node < 1:
            raise SimulationError(f"{self.name}: need at least one NIC port")

    @property
    def max_procs(self) -> int:
        """Largest process count this cluster can host."""
        return self.nodes * self.procs_per_node

    def rank_to_node(self, procs: int, mapping: str = "block") -> list[int]:
        """Map ``procs`` ranks onto nodes.

        ``"block"`` (by-slot, the Open MPI default) fills each node's slots
        before moving on; ``"spread"`` (by-node, round-robin) puts
        consecutive ranks on distinct nodes — used by the small-P parameter
        estimation experiments so every link under test is a network link.
        """
        if not 1 <= procs <= self.max_procs:
            raise SimulationError(
                f"{self.name}: {procs} procs outside 1..{self.max_procs}"
            )
        if mapping == "block":
            return [rank // self.procs_per_node for rank in range(procs)]
        if mapping == "spread":
            return [rank % self.nodes for rank in range(procs)]
        raise SimulationError(f"unknown mapping {mapping!r}; use 'block' or 'spread'")

    def make_world(
        self,
        procs: int,
        seed: int = 0,
        noise_sigma: float | None = None,
        tracer: Tracer = NULL_TRACER,
        mapping: str = "block",
    ) -> MpiWorld:
        """A fresh simulated world with ``procs`` ranks on this cluster.

        Each call builds an independent simulator; pass distinct ``seed``
        values to obtain independent noise realisations (repetitions of a
        measurement).
        """
        sigma = self.noise_sigma if noise_sigma is None else noise_sigma
        placement = self.rank_to_node(procs, mapping=mapping)
        slots_seen: dict[int, int] = {}
        ports = []
        for node in placement:
            slot = slots_seen.get(node, 0)
            slots_seen[node] = slot + 1
            ports.append(slot % self.nics_per_node)
        num_nodes = max(placement) + 1
        degradation = {
            node: factor
            for node, factor in self.slow_nodes.items()
            if node <= max(placement)
        }
        topology = (
            self.fabric
            if self.fabric is not None and not self.fabric.is_flat()
            else None
        )
        plan = self.faults
        if plan is not None and plan.enabled():
            fabric: Fabric = FaultyFabric(
                params=self.network,
                num_nodes=num_nodes,
                noise=compose_noise(sigma, plan.noise, seed),
                ports_per_node=self.nics_per_node,
                degradation=degradation,
                topology=topology,
                plan=plan,
                seed=seed,
            )
            slow_cpu = {
                s.node: s.compute_factor
                for s in plan.stragglers
                if s.node < num_nodes and s.compute_factor != 1.0
            }
            compute_factor = (
                [slow_cpu.get(node, 1.0) for node in placement]
                if slow_cpu
                else None
            )
        else:
            fabric = Fabric(
                params=self.network,
                num_nodes=num_nodes,
                noise=make_noise(sigma, seed),
                ports_per_node=self.nics_per_node,
                degradation=degradation,
                topology=topology,
            )
            compute_factor = None
        node_to_rack = (
            [topology.rack_of(node) for node in range(num_nodes)]
            if topology is not None
            else None
        )
        return MpiWorld(
            Simulator(),
            fabric,
            placement,
            tracer=tracer,
            rank_to_port=ports,
            compute_factor=compute_factor,
            node_to_rack=node_to_rack,
        )

    def fingerprint(self) -> str:
        """Stable content hash over every fidelity knob of this platform.

        Two specs with equal fields produce equal fingerprints in any
        process or session; changing *any* field — a network constant, the
        noise level, the NIC count, a straggler entry — changes it.  This is
        the cache-key foundation of :mod:`repro.exec`: a persisted
        simulation result is only reusable if the platform that produced it
        is byte-for-byte the platform being asked about.

        The hash covers field *values*, not the preset name alone, so e.g.
        ``GRISOU.with_noise(0.0)`` and ``GRISOU`` never collide.
        """
        net = self.network
        payload = {
            "name": self.name,
            "nodes": self.nodes,
            "procs_per_node": self.procs_per_node,
            "noise_sigma": self.noise_sigma,
            "nics_per_node": self.nics_per_node,
            "slow_nodes": sorted(
                (int(node), float(factor))
                for node, factor in self.slow_nodes.items()
            ),
            "network": {
                "latency": net.latency,
                "byte_time_out": net.byte_time_out,
                "byte_time_in": net.byte_time_in,
                "per_message_overhead": net.per_message_overhead,
                "send_overhead": net.send_overhead,
                "recv_overhead": net.recv_overhead,
                "eager_limit": net.eager_limit,
                "control_latency": net.control_latency,
                "shm_latency": net.shm_latency,
                "shm_byte_time": net.shm_byte_time,
            },
        }
        if self.faults is not None and self.faults.enabled():
            # Key added only for an *enabled* plan: specs without faults
            # (or with an inert empty plan) keep their pre-fault
            # fingerprints, so existing cache entries and artifact hashes
            # survive this feature bit-for-bit.
            payload["faults"] = self.faults.payload()
        if self.fabric is not None and not self.fabric.is_flat():
            # Same contract as faults: only a *non-flat* fabric folds in,
            # so flat configurations (explicit or implicit) keep their
            # pre-fabric fingerprints and warm caches bit-for-bit.
            payload["fabric"] = self.fabric.payload()
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def with_noise(self, sigma: float) -> "ClusterSpec":
        """A copy of this spec with a different default noise level."""
        return replace(self, noise_sigma=sigma)

    def with_slow_nodes(self, slow_nodes: dict) -> "ClusterSpec":
        """A copy of this spec with straggler nodes injected.

        ``slow_nodes`` maps node ids to NIC slowdown factors (>= 1).  Use to
        study algorithm sensitivity to platform pathologies — long pipelines
        route every byte through every node, so one straggler collapses
        them, while trees only suffer if the straggler lands on an interior
        position.
        """
        return replace(self, slow_nodes=dict(slow_nodes))

    def with_faults(self, faults: FaultPlan | None) -> "ClusterSpec":
        """A copy of this spec carrying a fault plan (``None`` clears it).

        The plan flows through :meth:`make_world` (fault-aware fabric,
        straggler CPU factors) and :meth:`fingerprint` (faulty results get
        their own cache keys), so every downstream consumer — measurement,
        the result cache, calibration, benchmarks — sees it automatically.
        """
        return replace(self, faults=faults)

    def with_fabric(self, fabric: FabricSpec | None) -> "ClusterSpec":
        """A copy of this spec on a multi-level fabric (``None`` clears it).

        A non-flat fabric flows through :meth:`make_world` (topology-aware
        routing, rack map for hierarchical algorithms) and
        :meth:`fingerprint` (fabric results get their own cache keys); the
        flat fabric and ``None`` are indistinguishable everywhere.
        """
        return replace(self, fabric=fabric)

    def describe(self) -> str:
        """One-line summary used by the CLI."""
        net = self.network
        line = (
            f"{self.name}: {self.nodes} nodes x {self.procs_per_node} procs, "
            f"latency {net.latency * 1e6:.1f} us, "
            f"{8e-9 / net.byte_time_out:.0f} Gbit/s, "
            f"eager limit {net.eager_limit} B"
        )
        if self.fabric is not None and not self.fabric.is_flat():
            line += f", fabric {self.fabric.name}"
        return line
