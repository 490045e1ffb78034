"""Bulk-bitwise PIM substrate.

Two layers share one instruction set:

* **Functional layer** (:mod:`repro.pim.crossbar`, :mod:`repro.pim.logic`,
  :mod:`repro.pim.isa`, :mod:`repro.pim.database`): memristive crossbar
  arrays executing MAGIC-NOR stateful logic for real, with microcode
  synthesis of comparison/arithmetic from NOR primitives, and a PIMDB-style
  bit-column database engine on top.  Used by examples and unit tests.

* **Timing layer** (:mod:`repro.pim.module`, :mod:`repro.pim.latency`):
  the PIM module as seen by the memory system -- a finite op buffer,
  same-scope serialization, cross-scope parallelism, and per-op latencies
  derived from the functional layer's microcode lengths.

:mod:`repro.pim.schema` holds the record layout both layers and the
workloads share.  Only :mod:`repro.pim.crossbar` and
:mod:`repro.pim.database` import numpy (the ``functional`` extra); the
timing layer, ``isa``, ``logic`` and ``schema`` need only the standard
library.  This package imports none of its modules, so the timing path
loads only the ones it uses.
"""
