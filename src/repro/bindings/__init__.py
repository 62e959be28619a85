"""Storage bindings (Section 5).

A binding encapsulates everything specific to one storage stack — which
consistency levels it offers and how to execute an operation under each —
behind the two-method API of :class:`~repro.bindings.base.Binding`.
"""
