"""In-memory span tracer for the traced run, and the per-layer metrics
derived from its spans.

The tracer wraps patbench's public functions from outside by replacing
module attributes: in the defining module and in every patbench module that
imported the same function object (``patbench.dataset.family_members`` is
``patbench.corpus.family_members``).  Each call records a span: name, start,
end, parent span, query id and the segment (one set-up or one pass) it ran
in.  A call made on a worker thread with no open span of its own takes the
innermost span open on the installing thread as its parent, so searches run
by ``run_evaluation``'s thread pool are its children.

Spans stay in memory until :meth:`Tracer.write` is called at the end.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import statistics
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable

import bootstrap  # noqa: F401  (must precede the patbench imports)
from patbench.execution import tokenize

# (module, function, extract).  ``extract(args, kwargs, result)`` returns the
# counts kept on the span; it runs after the span's end time is taken.
TRACED: tuple[tuple[str, str, Callable | None], ...] = (
    ("corpus", "load_corpus", lambda a, k, r: {"bytes": os.path.getsize(a[0])}),
    ("dataset", "load_dataset", None),
    ("query", "build_query", None),
    ("query", "preprocess_text", lambda a, k, r: {"chars": len(a[0])}),
    ("query", "parse_description", None),
    ("execution", "build_reference_index", lambda a, k, r: {
        "postings": sum(len(p) for p in r.postings.values())}),
    ("execution", "reference_retrieve", lambda a, k, r: {
        "query": a[0], "index": a[1], "kept": len(r.hits)}),
    ("execution", "run_evaluation", None),
    ("execution", "standardize_results", lambda a, k, r: {"dropped": r[1]}),
    ("execution", "remote_adapter_query", None),
    ("execution", "write_run_log", None),
    ("execution", "load_run_log", lambda a, k, r: {
        "hits": sum(len(x.hits) for x in r.results.values())}),
    ("metrics", "first_relevant_rank", None),
    ("metrics", "paired_bootstrap", None),
    ("report", "breakdown_by", None),
    ("report", "cross_language_recall", None),
    ("report", "compare_systems", None),
    ("report", "emit_report", lambda a, k, r: {"bytes": sum(p.stat().st_size for p in r)}),
)


def _query_id(args: tuple) -> str | None:
    for arg in args[:2]:
        qid = getattr(arg, "query_id", None) or getattr(arg, "doc_id", None)
        if isinstance(qid, str):
            return qid
    return None


class Tracer:
    def __init__(self) -> None:
        # Finished spans: (id, name, start_ns, end_ns, parent_id, query_id,
        # segment, extra).  list.append is atomic under the interpreter lock.
        self.spans: list[tuple] = []
        self.segment = ""
        self._ids = itertools.count()
        self._local = threading.local()
        self._root_stack: list[tuple[int, str | None]] = self._stack()
        self._patches: list[tuple[Any, str, Any]] = []

    def _stack(self) -> list[tuple[int, str | None]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn: Callable, name: str, extract: Callable | None = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else (
                self._root_stack[-1] if self._root_stack else (-1, None)
            )
            qid = kwargs.get("query_id") or _query_id(args) or parent[1]
            span_id = next(self._ids)
            segment = self.segment
            stack.append((span_id, qid))
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end = time.perf_counter_ns()
                stack.pop()
                self.spans.append((span_id, name, start, end, parent[0], qid, segment, None))
                raise
            end = time.perf_counter_ns()
            stack.pop()
            extra = extract(args, kwargs, result) if extract else None
            self.spans.append((span_id, name, start, end, parent[0], qid, segment, extra))
            return result

        return traced

    def install(self) -> None:
        """Replace every traced function in every loaded patbench module."""
        for layer, func, extract in TRACED:
            original = getattr(importlib.import_module(f"patbench.{layer}"), func)
            wrapped = self.wrap(original, f"{layer}.{func}", extract)
            for module in list(sys.modules.values()):
                if not getattr(module, "__name__", "").startswith("patbench"):
                    continue
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapped)
                        self._patches.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for span_id, name, start, end, parent, qid, segment, _ in sorted(self.spans):
                fh.write(json.dumps({
                    "id": span_id, "name": name, "start_ns": start, "end_ns": end,
                    "parent": parent, "query_id": qid, "segment": segment,
                }) + "\n")


def _union_ns(intervals: list[tuple[int, int]], lo: int, hi: int) -> int:
    covered, cursor = 0, lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            covered += end - start
            cursor = end
    return covered


class _Segment:
    """Per-name totals over the spans of one set-up or one pass."""

    def __init__(self, spans: list[tuple]) -> None:
        children: dict[int, list[tuple]] = {}
        for span in spans:
            children.setdefault(span[4], []).append(span)
        self.calls: dict[str, int] = {}
        self.total_ns: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        self.outside_search_ns: dict[str, int] = {}
        self.extra: dict[str, dict[str, float]] = {}
        for span_id, name, start, end, _, _, _, extra in spans:
            kids = children.get(span_id, [])
            self.calls[name] = self.calls.get(name, 0) + 1
            self.total_ns[name] = self.total_ns.get(name, 0) + end - start
            covered = _union_ns([(k[2], k[3]) for k in kids], start, end)
            self.self_ns[name] = self.self_ns.get(name, 0) + end - start - covered
            searching = _union_ns(
                [(k[2], k[3]) for k in kids if k[1] == "adapter.search"], start, end
            )
            self.outside_search_ns[name] = (
                self.outside_search_ns.get(name, 0) + end - start - searching
            )
            for key, value in _counts(name, extra).items():
                sums = self.extra.setdefault(name, {})
                sums[key] = sums.get(key, 0) + value


def _counts(name: str, extra: dict | None) -> dict[str, float]:
    if not extra:
        return {}
    if name == "execution.reference_retrieve":
        # Work an exhaustive term-at-a-time scorer does, computed from the
        # public index: postings visited, and documents given a score.
        index, postings, scored = extra["index"], 0, set()
        for term in set(tokenize(extra["query"].text)):
            plist = index.postings.get(term, {})
            postings += len(plist)
            scored.update(plist)
        return {"postings": postings, "scored": len(scored), "kept": extra["kept"]}
    return extra


def layer_metrics(
    tracer: Tracer, pass_counters: list[dict[str, float]]
) -> dict[str, float]:
    """Per-layer metrics for one set-up plus one pass.

    Each time or count is the median over the set-ups plus the median over
    the passes, so counts repeat exactly from run to run.  Rates divide
    totals over all segments.
    """
    by_segment: dict[str, list[tuple]] = {}
    for span in tracer.spans:
        by_segment.setdefault(span[6], []).append(span)
    segments = {key: _Segment(spans) for key, spans in by_segment.items()}
    setups = [s for key, s in segments.items() if key.startswith("setup")]
    passes = [s for key, s in segments.items() if key.startswith("pass")]

    def per_run(get: Callable[[_Segment], float]) -> float:
        return sum(statistics.median(get(s) for s in group) for group in (setups, passes) if group)

    def calls(name: str) -> float:
        return per_run(lambda s: s.calls.get(name, 0))

    def seconds(name: str, table: str = "total_ns") -> float:
        return per_run(lambda s: getattr(s, table).get(name, 0)) / 1e9

    def count(name: str, key: str) -> float:
        return per_run(lambda s: s.extra.get(name, {}).get(key, 0))

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def rate(name: str, key: str, scale: float = 1.0) -> float:
        total = sum(s.extra.get(name, {}).get(key, 0) for s in segments.values())
        ns = sum(s.total_ns.get(name, 0) for s in segments.values())
        return ratio(total * scale, ns / 1e9)

    queries = statistics.median(c.get("queries", 0) for c in pass_counters) if pass_counters else 0
    remote = [c for c in pass_counters if "connections" in c]
    m: dict[str, float] = {}
    m["corpus.load_corpus.s"] = seconds("corpus.load_corpus")
    m["corpus.load_corpus.mb_per_s"] = rate("corpus.load_corpus", "bytes", 1e-6)
    m["dataset.load_dataset.s"] = seconds("dataset.load_dataset")
    m["query.build_query.calls"] = calls("query.build_query")
    m["query.build_query.self_s"] = seconds("query.build_query", "self_ns")
    m["query.preprocess_text.calls"] = calls("query.preprocess_text")
    m["query.preprocess_text.s"] = seconds("query.preprocess_text")
    m["query.preprocess_text.chars_per_s"] = rate("query.preprocess_text", "chars")
    m["query.parse_description.self_s"] = seconds("query.parse_description", "self_ns")
    m["execution.build_reference_index.s"] = seconds("execution.build_reference_index")
    m["execution.build_reference_index.postings"] = count(
        "execution.build_reference_index", "postings")
    rr = "execution.reference_retrieve"
    m[f"{rr}.calls"] = calls(rr)
    m[f"{rr}.s"] = seconds(rr)
    m[f"{rr}.postings_per_query"] = ratio(count(rr, "postings"), calls(rr))
    m[f"{rr}.kept_per_scored"] = ratio(count(rr, "kept"), count(rr, "scored"))
    m["execution.run_evaluation.overhead_s"] = seconds(
        "execution.run_evaluation", "outside_search_ns")
    sr = "execution.standardize_results"
    m[f"{sr}.calls"] = calls(sr)
    m[f"{sr}.s"] = seconds(sr)
    m[f"{sr}.dropped"] = count(sr, "dropped")
    m["execution.remote_adapter_query.calls"] = calls("execution.remote_adapter_query")
    m["execution.remote_adapter_query.s"] = seconds("execution.remote_adapter_query")
    m["remote.connections_per_query"] = statistics.median(
        ratio(c["connections"], c["queries"]) for c in remote) if remote else 0.0
    m["remote.server_s_per_request"] = statistics.median(
        ratio(c["handle_s"], c["requests"]) for c in remote) if remote else 0.0
    m["execution.write_run_log.s"] = seconds("execution.write_run_log")
    m["execution.load_run_log.s"] = seconds("execution.load_run_log")
    m["execution.load_run_log.hits_per_s"] = rate("execution.load_run_log", "hits")
    fr = "metrics.first_relevant_rank"
    m[f"{fr}.calls"] = calls(fr)
    m[f"{fr}.calls_per_query"] = ratio(calls(fr), queries)
    m[f"{fr}.s"] = seconds(fr)
    m["metrics.paired_bootstrap.calls"] = calls("metrics.paired_bootstrap")
    m["metrics.paired_bootstrap.s"] = seconds("metrics.paired_bootstrap")
    m["report.breakdown_by.calls"] = calls("report.breakdown_by")
    m["report.breakdown_by.self_s"] = seconds("report.breakdown_by", "self_ns")
    m["report.cross_language_recall.s"] = seconds("report.cross_language_recall")
    m["report.compare_systems.self_s"] = seconds("report.compare_systems", "self_ns")
    m["report.emit_report.s"] = seconds("report.emit_report")
    m["report.emit_report.bytes"] = count("report.emit_report", "bytes")
    return m
