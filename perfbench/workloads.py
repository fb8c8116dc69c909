"""The benchmark workloads.

Each workload has a set-up (the program-side work a user pays on every
invocation before the timed phase) and a pass (the timed phase).  A pass
times only calls into patbench; its correctness digest and sanity checks are
computed after the clock stops.  Every call goes through the module object
(``execution.run_evaluation``, not an imported name), so the traced run sees
the wrapped functions.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import bootstrap  # noqa: F401  (must precede the patbench imports)
import patbench.corpus as corpus_mod
import patbench.dataset as dataset_mod
import patbench.execution as execution
import patbench.query as query_mod
import patbench.report as report
from patbench.metrics import DEFAULT_BOOTSTRAP_STRATA, DEFAULT_K_GRID, MATCH_EXACT, MATCH_FAMILY

from inputs import CORPUS_FILE, DATASET_FILE, RUN_A_FILE, RUN_B_FILE

MAX_DEPTH = 100
N_RESAMPLES = 10_000


@dataclass
class PassResult:
    """What one pass of the timed phase produced."""

    wall_s: float
    digest: str
    attempted: int
    failed: int
    problems: list[str] = field(default_factory=list)
    # Throughput metric name -> items the pass handled, e.g. queries_per_s.
    per_s: dict[str, int] = field(default_factory=dict)
    # Durations of the parts of the timed phase, e.g. evaluate_s.
    stages: dict[str, float] = field(default_factory=dict)
    latencies_ns: list[int] = field(default_factory=list)
    counters: dict[str, float] = field(default_factory=dict)


def _sha(parts) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(repr(part).encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


def run_digest(record: execution.RunRecord) -> str:
    """Hash of (query_id, status, [(doc_id, repr(score), rank)]) per query."""
    return _sha(
        (qid, r.status, [(h.doc_id, repr(h.score), h.rank) for h in r.hits])
        for qid, r in sorted(record.results.items())
    )


class SearchTimer:
    """Pass-through adapter that times each ``search`` call."""

    def __init__(self, adapter: Any, tracer=None) -> None:
        self.adapter = adapter
        self.adapter_id = adapter.adapter_id
        self.latencies_ns: list[int] = []
        if tracer is not None:
            self.search = tracer.wrap(self.search, "adapter.search")

    def search(self, query, controls):
        t0 = time.perf_counter_ns()
        try:
            return self.adapter.search(query, controls)
        finally:
            self.latencies_ns.append(time.perf_counter_ns() - t0)


def _ranked_list_problems(
    record, dataset, families: dict[str, str], exclusion: bool
) -> list[str]:
    """Structural checks on standardized results that hold for any seed;
    ``exclusion`` also checks that the query and its family are left out."""
    problems = []
    for qid in dataset.query_ids():
        ranked = record.results.get(qid)
        if ranked is None:
            problems.append(f"{qid}: no result")
            continue
        if ranked.status != execution.STATUS_OK:
            problems.append(f"{qid}: status {ranked.status}")
            continue
        ids = [h.doc_id for h in ranked.hits]
        if not 0 < len(ids) <= MAX_DEPTH or len(set(ids)) != len(ids):
            problems.append(f"{qid}: {len(ids)} hits, {len(set(ids))} distinct")
        if [h.rank for h in ranked.hits] != list(range(1, len(ids) + 1)):
            problems.append(f"{qid}: ranks not contiguous")
        if any(a.score < b.score for a, b in zip(ranked.hits, ranked.hits[1:])):
            problems.append(f"{qid}: scores increase")
        if any(i not in families for i in ids):
            problems.append(f"{qid}: hit outside the corpus")
        own = families[qid]
        if exclusion and (qid in ids or own and any(families.get(i) == own for i in ids)):
            problems.append(f"{qid}: hit in the query's own family")
    return problems


class Workload:
    """Set-up and timed pass of one workload; ``start`` and ``stop`` bracket
    the whole run for workloads that need a helper process."""

    tracer = None

    def __init__(self, inputs: Path, out: Path) -> None:
        self.inputs = inputs
        self.out = out

    def start(self) -> None:
        pass

    def stop(self) -> None:
        pass


class Retrieve(Workload):
    """Reference adapter over the shipped generator's corpus, one worker."""

    parallelism = 1
    exclusion = True
    repairs = False

    def make_adapter(self, corpus):
        return execution.ReferenceAdapter(corpus, exclude_family=True)

    def setup(self) -> dict:
        corpus = corpus_mod.load_corpus(self.inputs / CORPUS_FILE)
        dataset = dataset_mod.load_dataset(self.inputs / DATASET_FILE)
        queries = query_mod.build_queries(corpus, dataset.query_ids())
        adapter = self.make_adapter(corpus)
        return {"corpus": corpus, "dataset": dataset, "queries": queries, "adapter": adapter}

    def counters(self) -> dict[str, float]:
        return {}

    def run_pass(self, state: dict) -> PassResult:
        dataset = state["dataset"]
        timer = SearchTimer(state["adapter"], self.tracer)
        controls = execution.RunControls(
            seed=0, max_depth=MAX_DEPTH, adapter_id=timer.adapter_id,
            parallelism=self.parallelism,
        )
        before = self.counters()
        t0 = time.perf_counter()
        record = execution.run_evaluation(dataset, timer, controls, queries=state["queries"])
        execution.write_run_log(record, self.out / "run.jsonl")
        wall = time.perf_counter() - t0
        after = self.counters()
        families = {d.doc_id: d.family_id for d in state["corpus"].documents.values()}
        n = len(dataset.queries)
        failed = sum(1 for r in record.results.values() if r.status != execution.STATUS_OK)
        problems = _ranked_list_problems(record, dataset, families, self.exclusion)
        if self.repairs and record.anomaly_count == 0:
            problems.append("no unmappable ids were dropped")
        return PassResult(
            wall_s=wall,
            digest=run_digest(record),
            attempted=n,
            failed=failed,
            problems=problems,
            per_s={"queries_per_s": n},
            latencies_ns=timer.latencies_ns,
            counters={k: after[k] - before[k] for k in after} | {"queries": n},
        )


class RemoteLoopback(Retrieve):
    """RemoteAdapter (POST) against the stub server in a child process."""

    parallelism = 2
    # The stub ranks arbitrary documents, the query's own family included,
    # and plants unmappable ids that standardization must drop.
    exclusion = False
    repairs = True

    def start(self) -> None:
        self.stub = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("stub_server.py")),
             str(self.inputs / CORPUS_FILE)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        self.port = int(self.stub.stdout.readline())

    def stop(self) -> None:
        stub = getattr(self, "stub", None)
        if stub is None:
            return
        stub.stdin.close()
        try:
            stub.wait(timeout=10)
        except subprocess.TimeoutExpired:
            stub.kill()
            stub.wait()
        stub.stdout.close()

    def make_adapter(self, corpus):
        config = execution.RemoteEndpointConfig(
            adapter_id="stub", url=f"http://127.0.0.1:{self.port}/search", method="POST"
        )
        return execution.RemoteAdapter(config)

    def counters(self) -> dict[str, float]:
        self.stub.stdin.write("stats\n")
        self.stub.stdin.flush()
        return json.loads(self.stub.stdout.readline())


class EvaluateCompare(Workload):
    """Evaluate one run log and compare two, as the CLI commands do."""

    def setup(self) -> dict:
        return {
            "dataset": dataset_mod.load_dataset(self.inputs / DATASET_FILE),
            "corpus": corpus_mod.load_corpus(self.inputs / CORPUS_FILE),
            "run_a": execution.load_run_log(self.inputs / RUN_A_FILE),
            "run_b": execution.load_run_log(self.inputs / RUN_B_FILE),
        }

    def run_pass(self, state: dict) -> PassResult:
        dataset, corpus = state["dataset"], state["corpus"]
        run_a, run_b = state["run_a"], state["run_b"]
        dims = report.REPORT_DIMENSIONS
        t0 = time.perf_counter()
        family_of = {d.doc_id: d.family_id for d in corpus.documents.values() if d.family_id}
        overall = report.breakdown_by(
            run_a, dataset, report.OVERALL_DIMENSION, ks=DEFAULT_K_GRID,
            match_rule=MATCH_EXACT, family_of=family_of,
        )
        breakdowns = tuple(
            report.breakdown_by(
                run_a, dataset, dim, ks=DEFAULT_K_GRID, match_rule=MATCH_EXACT,
                family_of=family_of,
            )
            for dim in dims
        )
        family_overall = report.breakdown_by(
            run_a, dataset, report.OVERALL_DIMENSION, ks=DEFAULT_K_GRID,
            match_rule=MATCH_FAMILY, family_of=family_of,
        )
        cross = report.cross_language_recall(
            run_a, dataset, corpus, match_rule=MATCH_EXACT, family_of=family_of
        )
        evaluation = report.MetricsReport(
            match_rule=MATCH_EXACT, overall=overall, breakdowns=breakdowns,
            cross_language=cross, family_overall=family_overall,
        )
        report.emit_report(evaluation, self.out / "evaluate", report.REPORT_FORMATS)
        t1 = time.perf_counter()
        comparison = report.compare_systems(
            run_a, run_b, dataset, ks=DEFAULT_K_GRID, dimensions=dims,
            match_rule=MATCH_EXACT, family_of=family_of, n_resamples=N_RESAMPLES,
            seed=0, strata_dims=DEFAULT_BOOTSTRAP_STRATA,
        )
        report.emit_report(
            report.MetricsReport(
                match_rule=MATCH_EXACT, overall=None, breakdowns=(), comparison=comparison
            ),
            self.out / "compare",
            report.REPORT_FORMATS,
        )
        t2 = time.perf_counter()

        tables = (overall, family_overall) + breakdowns + comparison.breakdowns_a + (
            comparison.breakdowns_b
        ) + (comparison.table_a, comparison.table_b)
        rows = [(t.dimension, row) for t in tables for row in (t.totals,) + t.rows]
        significance = [
            (s.metric_name, repr(s.observed_diff), repr(s.p_value), repr(s.ci_low), repr(s.ci_high))
            for s in comparison.significance
        ]
        digest = _sha(
            [(dim, r.stratum, [repr(x) for x in r.rates], repr(r.recall)) for dim, r in rows]
            + [(c.query_language, c.relevant_language, repr(c.recall)) for c in cross]
            + [[repr(d) for d in comparison.deltas], repr(comparison.recall_delta)]
            + significance
        )
        problems = []
        for dim, row in rows:
            if list(row.rates) != sorted(row.rates) or not 0.0 <= row.recall <= 1.0:
                problems.append(f"{dim}/{row.stratum}: rates not monotone or recall outside [0, 1]")
        for s in comparison.significance:
            if not (0.0 <= s.p_value <= 1.0 and s.ci_low <= s.ci_high):
                problems.append(f"{s.metric_name}: p-value or interval malformed")
        return PassResult(
            wall_s=t2 - t0,
            digest=digest,
            attempted=1,
            failed=0,
            problems=problems,
            stages={"evaluate_s": t1 - t0, "compare_s": t2 - t1},
            counters={"queries": len(dataset.queries)},
        )


WORKLOADS = {
    "retrieve": Retrieve,
    "remote-loopback": RemoteLoopback,
    "evaluate-compare": EvaluateCompare,
}
