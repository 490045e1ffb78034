"""Discrete-event simulation kernel.

This package provides the generic machinery that the memory hierarchy, host
cores, and PIM module are built on:

* :mod:`repro.sim.kernel` -- the event queue and simulator loop.
* :mod:`repro.sim.component` -- components with bounded, back-pressured
  input queues (the building block of every pipeline stage).
* :mod:`repro.sim.messages` -- memory-system message types.
* :mod:`repro.sim.stats` -- counters, means, histograms and time-weighted
  statistics used to reproduce the paper's figures.
* :mod:`repro.sim.config` -- configuration dataclasses (Table II defaults).
"""
