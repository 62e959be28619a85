"""YCSB-style workload generation and closed-loop load running.

The paper drives its Cassandra experiments with YCSB workloads A (50:50
read/update), B (95:5) and C (read-only), under Zipfian and Latest request
distributions.  This package reimplements those workload semantics and a
closed-loop runner that measures latency, throughput, divergence and
bandwidth over a steady-state window.
"""
