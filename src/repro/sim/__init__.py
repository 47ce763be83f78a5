"""Discrete-event simulation substrate.

This package is the stand-in for the physical Grid'5000 clusters used in the
paper.  It provides:

* :mod:`repro.sim.engine` — a small generator-coroutine discrete-event engine
  (processes, futures, timeouts, deadlock detection);
* :mod:`repro.sim.network` — the cluster fabric model: per-host NIC egress and
  ingress serialisation, per-message overheads, wire/switch latency, and an
  eager/rendezvous point-to-point protocol switch;
* :mod:`repro.sim.noise` — seeded stochastic perturbation of network costs,
  keyed by message, so that the statistical estimation machinery
  (confidence-interval driven repetition) is exercised meaningfully;
* :mod:`repro.sim.trace` — optional structured event tracing.
"""

from repro.sim.engine import Future, Process, Simulator
from repro.sim.network import Fabric, NetworkParams, TransferTiming
from repro.sim.noise import LognormalNoise, NoiseModel, NoNoise, make_noise

__all__ = [
    "Fabric",
    "Future",
    "LognormalNoise",
    "NetworkParams",
    "NoNoise",
    "NoiseModel",
    "Process",
    "Simulator",
    "TransferTiming",
    "make_noise",
]
