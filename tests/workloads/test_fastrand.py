"""The bulk draws of :mod:`repro.workloads.fastrand` against per-draw loops.

Every function must return exactly what the per-draw ``random.Random`` loop
returns and leave the generator in exactly the state the loop leaves
(``getstate()`` equal), for any seed and size — the property every golden
hash and committed figure table rests on.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.workloads import fastrand

_SEEDS = st.integers(min_value=0, max_value=2**64)
_COUNTS = st.integers(min_value=0, max_value=600)


def _pair(seed):
    return random.Random(seed), random.Random(seed)


def _per_draw_accepted(rng, n, bits, limit):
    out = []
    for _ in range(n):
        r = rng.getrandbits(bits)
        while r >= limit:
            r = rng.getrandbits(bits)
        out.append(r)
    return out


@st.composite
def _ascii_tables(draw):
    size = draw(st.one_of(st.sampled_from([1, 2, 62, 64, 128, 255]),
                          st.integers(min_value=1, max_value=255)))
    return "".join(draw(st.lists(st.characters(max_codepoint=127),
                                 min_size=size, max_size=size)))


class TestBulkDrawsEqualPerDrawLoops:
    @settings(max_examples=60, deadline=None)
    @given(seed=_SEEDS, n=_COUNTS, table=_ascii_tables())
    def test_chars(self, seed, n, table):
        bulk, loop = _pair(seed)
        assert fastrand.chars(bulk, n, table) == \
            "".join([loop.choice(table) for _ in range(n)])
        assert bulk.getstate() == loop.getstate()

    @settings(max_examples=80, deadline=None)
    @given(seed=_SEEDS, n=_COUNTS, bits=st.integers(min_value=1, max_value=40),
           data=st.data())
    def test_accepted(self, seed, n, bits, data):
        limit = data.draw(st.integers(min_value=(1 << (bits - 1)) + 1,
                                      max_value=1 << bits), label="limit")
        bulk, loop = _pair(seed)
        assert fastrand.accepted(bulk, n, bits, limit) == \
            _per_draw_accepted(loop, n, bits, limit)
        assert bulk.getstate() == loop.getstate()

    @settings(max_examples=40, deadline=None)
    @given(seed=_SEEDS, n=_COUNTS)
    def test_doubles(self, seed, n):
        bulk, loop = _pair(seed)
        assert fastrand.doubles(bulk, n) == [loop.random() for _ in range(n)]
        assert bulk.getstate() == loop.getstate()

    @settings(max_examples=40, deadline=None)
    @given(seed=_SEEDS, n=_COUNTS,
           rate=st.floats(min_value=1e-4, max_value=1e3))
    def test_exponential_gaps(self, seed, n, rate):
        bulk, loop = _pair(seed)
        assert fastrand.exponential_gaps(bulk, n, rate) == \
            [loop.expovariate(rate) for _ in range(n)]
        assert bulk.getstate() == loop.getstate()

    def test_bulk_and_per_draw_calls_interleave(self):
        """No lookahead: the generator is current after every bulk call."""
        bulk, loop = _pair(17)
        got = fastrand.doubles(bulk, 257) + [bulk.random()]
        got += fastrand.accepted(bulk, 5, 6, 62) + [bulk.randrange(62)]
        assert got == [loop.random() for _ in range(258)] \
            + [loop.randrange(62) for _ in range(6)]
        assert bulk.getstate() == loop.getstate()


class TestRefusals:
    @pytest.mark.parametrize("table", ["x" * 256, "y" * 300, "",
                                       "abcé", "ab中"])
    def test_chars_rejects_tables_it_cannot_map(self, table):
        with pytest.raises(ValueError):
            fastrand.chars(random.Random(1), 10, table)

    @pytest.mark.parametrize("draw", [
        lambda rng: fastrand.chars(rng, 3, "abc"),
        lambda rng: fastrand.accepted(rng, 3, 4, 10),
        lambda rng: fastrand.doubles(rng, 3),
        lambda rng: fastrand.exponential_gaps(rng, 3, 0.5),
    ], ids=["chars", "accepted", "doubles", "exponential_gaps"])
    def test_random_subclasses_are_refused(self, draw):
        class Counting(random.Random):
            pass

        with pytest.raises(TypeError):
            draw(Counting(1))


#: Builds a Cassandra cluster, prefills a generator and draws an arrival
#: process's gaps past its per-draw phase (into the chunked ones) with the
#: ZooKeeper stack and the bench helpers imported, then prints
#: every module that import loaded from outside the standard library and
#: ``repro``, every figure module and every worker-pool package.
_IMPORT_PROBE = """
import os, sys, sysconfig
before = set(sys.modules)
import random
import repro.apps.tickets, repro.zookeeper_sim
import repro.bench.common
from repro.core.cluster_spec import ClusterSpec
from repro.workloads.arrivals import PoissonArrivals
from repro.workloads.ycsb import OperationGenerator, workload_by_name
built = ClusterSpec(record_count=50).build()
generator = OperationGenerator.seeded(workload_by_name("A"), built.dataset,
                                      1, "imports")
assert generator.prefill(64) == 64
arrivals = PoissonArrivals(100.0, random.Random(1))
assert all(arrivals.next_gap_ms() > 0 for _ in range(200))
paths = sysconfig.get_paths()
def under(keys):
    return tuple(os.path.join(os.path.realpath(paths[key]), "")
                 for key in keys)
stdlib, site = under(("stdlib", "platstdlib")), under(("purelib", "platlib"))
def outside(name):
    if name.startswith(("multiprocessing", "concurrent.futures")):
        return True
    if name == "repro" or name.startswith("repro."):
        return name.startswith("repro.bench.fig")
    file = getattr(sys.modules[name], "__file__", None)
    if file is None:
        return False
    file = os.path.realpath(file)
    return file.startswith(site) or not file.startswith(stdlib)
print(sorted(name for name in set(sys.modules) - before if outside(name)))
"""


def test_workload_setup_imports_no_third_party_and_no_figure_module():
    """Bulk draws are standard-library code, ``repro.bench`` imports no
    figure harness a workload does not use, and nothing loads a worker
    pool before a sweep asks for one."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
