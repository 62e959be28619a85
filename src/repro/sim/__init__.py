"""Discrete-event simulation kernel.

The paper evaluates Correctables on Amazon EC2 with replicas spread across
three regions (Ireland, Frankfurt, N. Virginia).  This package provides the
deterministic substrate we substitute for that testbed: a virtual clock and
event scheduler (:mod:`repro.sim.scheduler`), a region topology with the
paper's WAN round-trip times (:mod:`repro.sim.topology`), a message-passing
network with byte accounting (:mod:`repro.sim.network`), and node processing
queues that model server load (:mod:`repro.sim.node`).

All latencies are expressed in milliseconds of simulated time.
"""
