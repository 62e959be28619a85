"""Figure 11: speculation case studies — ad serving and Twissandra.

Both applications perform a two-step read (fetch a reference list, then fetch
the referenced objects).  The baseline reads the reference list with strong
consistency and only then fetches the objects; the Correctable Cassandra
variant reads the reference list with ICG and speculatively prefetches on the
preliminary view.  Shapes to reproduce:

* CC2 cuts end-to-end latency substantially (the paper reports 100 ms → 60 ms
  for the ads system before saturation, ≈40 %);
* the throughput cost is small (≈6 % for the ads system);
* Twissandra shows the same effect at higher absolute latencies because its
  replicas (Virginia / N. California / Oregon) are farther from the client;
* misspeculation stays rare (divergence < 1 %).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence

from repro.apps.ads import AdServingSystem
from repro.apps.datasets import AdsDataset, TwissandraDataset
from repro.apps.twissandra import Twissandra
from repro.bench.common import (
    DrainCheck,
    cassandra_config_for,
    make_generator_factory,
)
from repro.bench.sweep import JobsSpec, SweepPoint, make_points, run_sweep
from repro.bindings.cassandra import CassandraBinding
from repro.cassandra_sim.cluster import CassandraCluster
from repro.core.client import CorrectableClient
from repro.metrics.summary import format_table
from repro.sim.environment import SimEnvironment
from repro.sim.rand import derive_rng
from repro.sim.topology import Region, replica_regions_twissandra
from repro.workloads.records import Dataset
from repro.workloads.runner import ClosedLoopRunner
from repro.workloads.ycsb import workload_by_name

DEFAULT_APPS = ("ads", "twissandra")
DEFAULT_SYSTEMS = ("C2", "CC2")
DEFAULT_WORKLOADS = ("A", "B", "C")
DEFAULT_THREADS = (1, 3)

#: Remote contact map for load clients in the ads deployment (FRK/IRL/VRG).
_ADS_CONTACTS = {Region.IRL: Region.FRK, Region.FRK: Region.VRG,
                 Region.VRG: Region.IRL}
#: The Twissandra deployment places replicas in VRG/NCA/ORE; all load clients
#: sit in IRL-adjacent regions and connect to a remote replica.
_TWISSANDRA_CONTACTS = {Region.IRL: Region.VRG, Region.NCA: Region.ORE,
                        Region.ORE: Region.NCA}


class _AppDeployment:
    """One app wired to a preloaded cluster with per-region app instances."""

    def __init__(self, app_name: str, seed: int,
                 profile_count: int, ref_count: int) -> None:
        self.app_name = app_name
        self.env = SimEnvironment(seed=seed)
        config = cassandra_config_for("CC2")
        if app_name == "ads":
            self.dataset = AdsDataset(profile_count=profile_count,
                                      ad_count=ref_count, seed=seed)
            replica_regions = None
            contacts = _ADS_CONTACTS
            key_prefix = "profile:"
        elif app_name == "twissandra":
            self.dataset = TwissandraDataset(user_count=profile_count,
                                             tweet_count=ref_count, seed=seed)
            replica_regions = replica_regions_twissandra()
            contacts = _TWISSANDRA_CONTACTS
            key_prefix = "timeline:"
        else:
            raise ValueError(f"unknown application {app_name!r}")
        self.cluster = CassandraCluster(self.env, config,
                                        replica_regions=replica_regions)
        self.cluster.preload(self.dataset.initial_items())
        # A key-only Dataset drives the YCSB generator over app keys.
        record_count = (profile_count if app_name == "ads"
                        else self.dataset.user_count)
        self.key_dataset = Dataset(record_count=record_count,
                                   key_prefix=key_prefix, seed=seed)
        self.apps: Dict[str, object] = {}
        for region, contact in contacts.items():
            node = self.cluster.add_client(f"{app_name}-client-{region}",
                                           region=region,
                                           contact_region=contact)
            client = CorrectableClient(CassandraBinding(node))
            if app_name == "ads":
                self.apps[region] = AdServingSystem(
                    client, self.dataset, rng=derive_rng(seed, f"ads-{region}"))
            else:
                self.apps[region] = Twissandra(
                    client, self.dataset, rng=derive_rng(seed, f"tw-{region}"))
        self.measured_region = Region.IRL

    def issue_function(self, region: str, speculate: bool) -> Callable:
        app = self.apps[region]
        ads = self.app_name == "ads"

        def _issue(op_type: str, key: str, value: Optional[str], sink,
                   session_id: Optional[int] = None) -> None:
            # The apps report ``on_done(info)``; forward it into the
            # runner's record (an application operation has one view).
            def _done(info: Dict[str, Any]) -> None:
                if "error" in info:
                    sink.deliver_error(str(info["error"]), info["latency_ms"])
                else:
                    sink.deliver_final(None, None, info["latency_ms"])

            if op_type == "read":
                if ads:
                    app.fetch_ads_by_user_id(key, _done, speculate=speculate)
                else:
                    app.get_timeline(key, _done, speculate=speculate)
            elif ads:
                app.update_profile(key, _done)
            else:
                app.post_tweet(key, value or "hello world", _done)

        return _issue


def build_fig11_points(apps: Iterable[str] = DEFAULT_APPS,
                       systems: Iterable[str] = DEFAULT_SYSTEMS,
                       workloads: Iterable[str] = DEFAULT_WORKLOADS,
                       thread_counts: Sequence[int] = DEFAULT_THREADS,
                       duration_ms: float = 6_000.0,
                       warmup_ms: float = 1_500.0,
                       cooldown_ms: float = 1_000.0, profile_count: int = 300,
                       ref_count: int = 600,
                       seed: int = 42) -> List[SweepPoint]:
    """One sweep point per (app, workload, system, thread count) cell."""
    return make_points("fig11", (
        ({"app": app_name, "workload": workload_name, "system": system,
          "threads": threads},
         dict(app=app_name, workload=workload_name, system=system,
              threads=threads, duration_ms=duration_ms, warmup_ms=warmup_ms,
              cooldown_ms=cooldown_ms, profile_count=profile_count,
              ref_count=ref_count, seed=seed))
        for app_name in apps
        for workload_name in workloads
        for system in systems
        for threads in thread_counts))


def run_fig11_point(point: SweepPoint) -> Dict:
    """Run one (app, workload, system, thread count) deployment."""
    kwargs = point.kwargs
    app_name, workload_name = kwargs["app"], kwargs["workload"]
    system, threads, seed = kwargs["system"], kwargs["threads"], kwargs["seed"]
    spec = workload_by_name(workload_name)
    speculate = system.startswith("CC")
    drain = DrainCheck(point.spec())
    deployment = _AppDeployment(app_name, seed, kwargs["profile_count"],
                                kwargs["ref_count"])
    runners = {}
    for region in deployment.apps:
        runner = ClosedLoopRunner(
            scheduler=deployment.env.scheduler,
            issue=deployment.issue_function(region, speculate),
            make_generator=make_generator_factory(
                spec, deployment.key_dataset, seed,
                f"{app_name}-{system}-{region}"),
            threads=threads, duration_ms=kwargs["duration_ms"],
            warmup_ms=kwargs["warmup_ms"], cooldown_ms=kwargs["cooldown_ms"],
            label=f"{app_name}-{system}-{workload_name}-{region}")
        runners[region] = runner
    for runner in runners.values():
        runner.start()
    end = max(r.end_time for r in runners.values())
    deployment.env.run(until=end + 120_000.0)
    drain.verify(deployment.cluster)
    measured = runners[deployment.measured_region].result
    measured_app = deployment.apps[deployment.measured_region]
    stats = getattr(measured_app, "speculation_stats")
    return {
        "app": app_name,
        "workload": workload_name,
        "system": system,
        "threads_per_client": threads,
        "throughput_ops_s": measured.throughput_ops_per_sec(),
        "latency_mean_ms": measured.final_latency.mean(),
        "latency_p99_ms": measured.final_latency.p99(),
        "read_latency_mean_ms": measured.read_latency.mean(),
        "misspeculation_pct":
            100.0 * (1.0 - stats.hit_rate())
            if stats.total_closed else 0.0,
        "measured_ops": measured.measured_ops,
    }


def run_fig11(apps: Iterable[str] = DEFAULT_APPS,
              systems: Iterable[str] = DEFAULT_SYSTEMS,
              workloads: Iterable[str] = DEFAULT_WORKLOADS,
              thread_counts: Sequence[int] = DEFAULT_THREADS,
              duration_ms: float = 6_000.0, warmup_ms: float = 1_500.0,
              cooldown_ms: float = 1_000.0, profile_count: int = 300,
              ref_count: int = 600, seed: int = 42,
              jobs: JobsSpec = 1) -> List[Dict]:
    """Regenerate the Figure 11 latency-vs-throughput series for both apps.

    ``C2`` denotes the no-speculation baseline (strong reads only), ``CC2``
    the ICG + speculation variant.  The measured client is in Ireland.
    """
    points = build_fig11_points(
        apps=apps, systems=systems, workloads=workloads,
        thread_counts=thread_counts, duration_ms=duration_ms,
        warmup_ms=warmup_ms, cooldown_ms=cooldown_ms,
        profile_count=profile_count, ref_count=ref_count, seed=seed)
    return run_sweep(points, run_fig11_point, jobs=jobs).records()


def format_fig11(records: List[Dict]) -> str:
    rows = [[r["app"], r["workload"], r["system"], r["threads_per_client"],
             r["throughput_ops_s"], r["read_latency_mean_ms"],
             r["latency_mean_ms"], r["misspeculation_pct"]] for r in records]
    return format_table(
        ["app", "workload", "system", "threads/client", "throughput (ops/s)",
         "read latency (ms)", "overall latency (ms)", "misspeculation (%)"],
        rows,
        title="Figure 11 — application-level speculation (baseline C2 vs CC2)")
