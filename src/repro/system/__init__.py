"""System assembly and the simulation harness.

* :mod:`repro.system.builder` -- wires cores, entry points, L1s, network,
  LLC, memory controller and PIM module per a
  :class:`~repro.sim.config.SystemConfig` (the Fig. 5 system).
* :mod:`repro.system.simulation` -- runs compiled workloads, collects the
  statistics behind every figure, and reports stale reads.
"""
