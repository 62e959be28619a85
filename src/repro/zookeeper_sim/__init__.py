"""A Zab-replicated coordination service modelled after ZooKeeper.

Substitute for the Apache ZooKeeper v3.4.8 deployment of the paper.  It
implements the pieces the evaluation exercises:

* a znode data tree with sequential nodes (:mod:`datatree`);
* a leader/follower ensemble running a Zab-style atomic broadcast for write
  transactions, with local reads (:mod:`server`, :mod:`zab`);
* the distributed-queue recipe, in both the standard client-side form
  (``getChildren`` + ``delete``, whose messages grow with queue length) and
  the constant-size server-side dequeue used by Correctable ZooKeeper
  (:mod:`queue_recipe`);
* the CZK fast path: the contacted replica simulates an operation on its
  local state and returns a preliminary result before Zab coordination
  (:mod:`server`).
"""
