"""Correctables: incremental consistency guarantees for replicated objects.

A from-scratch Python reproduction of the OSDI '16 paper by Guerraoui,
Pavlovic and Seredinschi.  The client API (:class:`CorrectableClient`,
:class:`Correctable`, consistency levels, operations) is
:mod:`repro.core`; storage bindings are in :mod:`repro.bindings`, the
simulated stores in :mod:`repro.cassandra_sim` and
:mod:`repro.zookeeper_sim`, the discrete-event substrate in
:mod:`repro.sim` and the figure harnesses in :mod:`repro.bench`.  This
package and most subpackages import nothing on their own, so a process
loads only the modules it names.

See ``README.md`` for a quickstart.
"""

__version__ = "1.0.0"
