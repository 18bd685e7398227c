"""The four workloads: inputs drawn from the run seed, one operation at a time.

Each workload names the instance that the timed set-up generates with the
program's own generator, draws its remaining inputs from the run seed, runs
one operation per ``op`` call, and checks every recorded result afterwards
with ``checker``, never against a saved copy of an earlier output.  The program is reached
through module attributes at call time (``lf.local_flow.run_a2``), so the
traced run sees every call.
"""

from __future__ import annotations

import random
import statistics
import time
from dataclasses import replace

import checker

# Fixed generator seeds: the graphs do not vary with the run seed, so run-to-run
# spread comes from the sampled edges and labelling seeds alone.
QUERY_GEN_SEED = 1
TESTER_GEN_SEED = 2
LOCALITY_GEN_SEED = 8026  # the instance of acceptance check AC-5
GRID_GEN_SEED = 3


def raw(g) -> tuple[list, list]:
    """The checker's view of a graph: plain node and edge tuples."""
    nodes = [(nd.id, nd.color) for nd in g.nodes]
    edges = [(e.id, e.a, e.b, e.cap_ab, e.cap_ba) for e in g.edges]
    return nodes, edges


def _quantile(sorted_values: list[float], q: float) -> float:
    return sorted_values[min(len(sorted_values) - 1, int(q * len(sorted_values)))]


class Workload:
    """A workload; the runner sets ``lf`` (the program) and ``g`` (the graph)."""

    name = ""
    ops_per_pass = 1  # operations 0..ops_per_pass-1 make one pass

    def __init__(self, seed: int, n: int | None = None):
        self.seed = seed
        self.n = n

    def spec(self, lf):
        """The instance the set-up generates; ``lf`` is the freshly imported program."""
        raise NotImplementedError

    def prepare(self) -> None:
        """One-off work before the timed passes; not part of any operation's time."""

    def op(self, i: int) -> tuple[int, object]:
        """Run operation i; return (items of work done, result to check)."""
        raise NotImplementedError

    def check(self, results: list) -> None:
        """Raise ``checker.CheckFailed`` unless every operation's result is right."""
        raise NotImplementedError

    def figures(self, times: list[float], items: int) -> list[tuple[str, float, str]]:
        """The workload's own named figures, from per-operation best times."""
        raise NotImplementedError


class EdgeQuery(Workload):
    """One fresh ``local_f2_edge`` call per sampled edge of a large graph."""

    name = "edge-query"
    ops_per_pass = 500  # so that 25 queries lie beyond the 95th percentile
    L, S = 4, 2

    def spec(self, lf):
        return lf.InstanceSpec("random_bounded", n=self.n or 30000, gen_seed=QUERY_GEN_SEED)

    def prepare(self) -> None:
        ids = [e.id for e in self.g.edges]
        self.sample = random.Random(self.seed).sample(ids, min(self.ops_per_pass, len(ids)))
        self.cfg = self.lf.RunConfig(l=self.L, s=self.S, seed=self.seed)

    def op(self, i: int) -> tuple[int, object]:
        eid = self.sample[i % len(self.sample)]
        ref = self.lf.DirectedEdgeRef(eid, "AB")
        return 1, (eid, self.lf.local_flow.local_f2_edge(self.g, ref, self.cfg))

    def check(self, results: list) -> None:
        nodes, edges = raw(self.g)
        f2, _trace = self.lf.local_flow.run_a2(self.g, self.cfg)
        checker.flow_value(nodes, edges, f2.values)
        checker.check_local_values(dict(results), f2.values)

    def figures(self, times, items):
        ms = sorted(t * 1e3 for t in times)
        return [
            ("edge_query_ms_p50", statistics.median(ms), "ms"),
            ("edge_query_ms_p95", _quantile(ms, 0.95), "ms"),
            ("edge_queries_per_s", items / sum(times), "1/s"),
            ("queries", len(ms), "count"),
        ]


class Tester(Workload):
    """Fresh ``run_tester`` estimates, one distinct sampling seed each."""

    name = "tester"
    ops_per_pass = 8  # the estimates' work varies with the sampling seed by about 5 %
    L, S, SEEDS, K = 4, 2, (1, 2, 3), 1000

    def spec(self, lf):
        return lf.InstanceSpec("random_bounded", n=self.n or 10000, gen_seed=TESTER_GEN_SEED)

    def prepare(self) -> None:
        self.cfg = self.lf.TesterConfig(l=self.L, s=self.S, seeds=self.SEEDS, k=self.K)

    def op(self, i: int) -> tuple[int, object]:
        cfg = replace(self.cfg, sample_seed=self.seed * 100_000 + i)
        report = self.lf.estimator_tester.run_tester(self.g, cfg)
        return len(report.sampled_nodes), (report.sampled_nodes, report.per_sample,
                                            report.estimate)

    def check(self, results: list) -> None:
        nodes, edges = raw(self.g)
        flows = []
        for label_seed in self.SEEDS:
            cfg = self.lf.RunConfig(l=self.L, s=self.S, seed=label_seed)
            f2, _trace = self.lf.local_flow.run_a2(self.g, cfg)
            checker.flow_value(nodes, edges, f2.values)
            flows.append(f2.values)
        for sampled, per_sample, estimate in results:
            checker.check_tester(nodes, edges, sampled, per_sample, estimate, flows, self.K)

    def figures(self, times, items):
        return [("tester_estimate_s", statistics.median(times), "s"),
                ("estimates", len(times), "count")]


class LocalityCheck(Workload):
    """``verify_locality`` over every edge of AC-5's instance, one labelling seed per call."""

    name = "locality-check"
    ops_per_pass = 8
    L, S = 6, 3

    def spec(self, lf):
        return lf.InstanceSpec("random_bounded", n=self.n or 300, gen_seed=LOCALITY_GEN_SEED,
                               params={"rounds": 2})

    def prepare(self) -> None:
        self.refs = [self.lf.DirectedEdgeRef(e.id, "AB") for e in self.g.edges]

    def op(self, i: int) -> tuple[int, object]:
        label_seed = self.seed * 100_000 + i
        cfg = self.lf.RunConfig(l=self.L, s=self.S, seed=label_seed)
        report = self.lf.local_flow.verify_locality(self.g, cfg, self.refs)
        return len(self.refs), (label_seed, report.checked, len(report.mismatches))

    def check(self, results: list) -> None:
        # verify_locality's own count is kept, but the benchmark also compares
        # every edge's local value with the global run itself.
        nodes, edges = raw(self.g)
        for label_seed, checked, mismatches in results:
            if checked != len(self.refs) or mismatches:
                raise checker.CheckFailed(
                    f"seed {label_seed}: {mismatches} mismatches over {checked} edges")
            cfg = self.lf.RunConfig(l=self.L, s=self.S, seed=label_seed)
            f2, _trace = self.lf.local_flow.run_a2(self.g, cfg)
            checker.flow_value(nodes, edges, f2.values)
            local = {ref.edge_id: self.lf.local_flow.local_f2_edge(self.g, ref, cfg)
                     for ref in self.refs}
            checker.check_local_values(local, f2.values)

    def figures(self, times, items):
        return [("verified_edges_per_s", items / sum(times), "1/s"),
                ("seeds", len(times), "count")]


class GlobalSweep(Workload):
    """One exact ``max_flow``, then ``run_a1`` and ``run_a2`` per labelling seed."""

    name = "global-sweep"
    ops_per_pass = 4  # run_a1 and run_a2 for each of two labelling seeds
    L, S = 6, 3

    def spec(self, lf):
        return lf.InstanceSpec("grid", params={"rows": 30, "cols": 40}, gen_seed=GRID_GEN_SEED)

    def prepare(self) -> None:
        # One exact max flow and the one enumeration that every seed's runs share.
        start = time.perf_counter()
        self.best = self.lf.exact_oracle.max_flow(self.g)
        self.maxflow_s = time.perf_counter() - start
        self.lf.path_engine.enumerate_paths(self.g, self.L)

    def op(self, i: int) -> tuple[int, object]:
        label_seed = self.seed * 100_000 + i // 2
        if i % 2 == 0:
            cfg = self.lf.RunConfig(l=self.L, seed=label_seed)
            flow, trace = self.lf.local_flow.run_a1(self.g, cfg)
        else:
            cfg = self.lf.RunConfig(l=self.L, s=self.S, seed=label_seed)
            flow, trace = self.lf.local_flow.run_a2(self.g, cfg)
        return len(trace.entries), (i % 2 == 0, flow.values)

    def check(self, results: list) -> None:
        nodes, edges = raw(self.g)
        fstar = self.best.value
        checker.check_max_flow(nodes, edges, self.best.flow.values, fstar)
        g = self.g
        for is_a1, flow in results:
            value = checker.flow_value(nodes, edges, flow)
            if is_a1:
                checker.check_no_short_path(nodes, edges, flow, self.L)
                checker.check_gap_bound(value, fstar, g.degree_bound, g.capacity_bound_ticks,
                                        g.n, self.L)

    def figures(self, times, items):
        return [("sweep_s", sum(times), "s"),
                ("maxflow_s", self.maxflow_s, "s"),
                ("runs", len(times), "count")]


WORKLOADS = {w.name: w for w in (EdgeQuery, Tester, LocalityCheck, GlobalSweep)}
