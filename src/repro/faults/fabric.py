"""A :class:`~repro.sim.network.Fabric` that executes a :class:`FaultPlan`.

``FaultyFabric`` is only ever constructed when a plan is *enabled*; the
pristine ``Fabric.transfer`` fast path stays untouched for fault-free
simulations, which is what keeps the "faults disabled ≡ pre-fault
pipeline" guarantee bit-exact.

Determinism: noise factors are keyed by message (:mod:`repro.sim.noise`),
like on the plain fabric.  The only other randomness a plan introduces is
message loss, drawn from one sequential PRNG seeded with
``(seed, plan.salt)``.
The simulation itself is single-threaded and schedules ties by sequence
number, so the draw order — and therefore every timing — is a pure
function of ``(cluster, plan, seed)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import SimulationError
from repro.faults.plan import FaultPlan, LinkFault
from repro.sim.network import Fabric, TransferTiming
from repro.sim.noise import (
    DRAIN,
    HOP,
    INJECT,
    RTS,
    SHM_COPY,
    SHM_LATENCY,
)

#: Stream tag separating the loss PRNG from noise-model PRNGs.
_LOSS_STREAM = 0xFA17


@dataclass
class FaultyFabric(Fabric):
    """Fabric with stragglers, degraded/flapping links and message loss.

    Stragglers' ``inject_factor`` composes multiplicatively with the base
    ``degradation`` map; link factors apply per message according to the
    fault's time window evaluated at the moment the payload is ready to
    inject.  Faults referencing nodes outside this world (the plan was
    written for the full cluster, the run uses fewer nodes) are ignored,
    mirroring how ``ClusterSpec`` filters ``slow_nodes``.
    """

    plan: FaultPlan = field(default_factory=FaultPlan)
    seed: int = 0

    def __post_init__(self) -> None:
        super().__post_init__()
        n = self.num_nodes
        self._inject = {
            s.node: s.inject_factor
            for s in self.plan.stragglers
            if s.node < n and s.inject_factor != 1.0
        }
        links: dict[tuple[int, int], list[LinkFault]] = {}
        for link in self.plan.links:
            if link.src < n and link.dst < n:
                links.setdefault((link.src, link.dst), []).append(link)
        self._links = {pair: tuple(faults) for pair, faults in links.items()}
        self.messages_lost = 0
        self._loss_rng = np.random.default_rng(
            (self.seed, self.plan.salt, _LOSS_STREAM)
        )

    # -- fault lookups -----------------------------------------------------

    def _link_factors(self, src: int, dst: int, t: float) -> tuple[float, float]:
        faults = self._links.get((src, dst))
        if not faults:
            return 1.0, 1.0
        latency_factor = 1.0
        byte_factor = 1.0
        for fault in faults:
            if fault.active(t):
                latency_factor *= fault.latency_factor
                byte_factor *= fault.byte_factor
        return latency_factor, byte_factor

    def _factor(self, key: tuple[int, int] | None, term: int) -> float:
        if self._unit_noise:
            return 1.0
        if key is None:
            raise SimulationError("a noisy fabric needs each message's noise key")
        return self.noise.draw(key[0], key[1], term)

    # -- transfers ---------------------------------------------------------

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
        if nbytes < 0:
            raise SimulationError(f"negative message size: {nbytes}")
        self.bytes_transferred += nbytes
        self.messages_transferred += 1
        p = self.params
        if src == dst:
            # Intra-node copies bypass the NIC and hence every network fault.
            inject_end = ready + nbytes * p.shm_byte_time * self._factor(
                key, SHM_COPY
            )
            deliver = inject_end + p.shm_latency * self._factor(key, SHM_LATENCY)
            return TransferTiming(ready, inject_end, deliver)
        latency_factor, byte_factor = self._link_factors(src, dst, ready)
        slowdown = self._slowdown(src) * self._inject.get(src, 1.0)
        byte_cost = nbytes * p.byte_time_out * byte_factor
        # Every attempt of a lost-and-retried message re-injects the same
        # payload: it pays the message's one keyed injection factor.
        inject_cost = (
            (p.per_message_overhead + byte_cost) * self._factor(key, INJECT)
            * slowdown
        )
        egress = self.hosts[src].egress[src_port]
        inject_start, inject_end = egress.reserve(ready, inject_cost)
        loss = self.plan.loss
        if loss is not None and loss.rate > 0.0:
            retries = 0
            # Each lost attempt burns the injection plus a sender timeout;
            # after max_retries losses the next attempt always delivers.
            while retries < loss.max_retries and self._loss_rng.random() < loss.rate:
                retries += 1
                self.messages_lost += 1
                _, inject_end = egress.reserve(
                    inject_end + loss.timeout, inject_cost
                )
        hop_factor = self._factor(key, HOP)
        wire_latency = p.latency * latency_factor * hop_factor
        if self._topo is None:
            arrive = inject_end + wire_latency
        else:
            arrive = self._topo.arrive(
                src, dst, nbytes, inject_end, wire_latency, hop_factor
            )
        drain_cost = nbytes * p.byte_time_in * byte_factor * self._factor(
            key, DRAIN
        )
        _, deliver = self.hosts[dst].ingress[dst_port].reserve(arrive, drain_cost)
        return TransferTiming(inject_start, inject_end, deliver)

    def control_transfer(
        self,
        src: int,
        dst: int,
        ready: float,
        key: tuple[int, int] | None = None,
        term: int = RTS,
    ) -> float:
        p = self.params
        if src == dst:
            return ready + p.shm_latency * self._factor(key, term)
        latency_factor, _ = self._link_factors(src, dst, ready)
        deliver = ready + p.control_latency * latency_factor * self._factor(
            key, term
        )
        if self._topo is not None:
            deliver += self._topo.control_extra(src, dst)
        return deliver

    def reset(self) -> None:
        super().reset()
        self.messages_lost = 0
        self._loss_rng = np.random.default_rng(
            (self.seed, self.plan.salt, _LOSS_STREAM)
        )
