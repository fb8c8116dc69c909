from __future__ import annotations

import contextlib
import json
import math
import os
import pathlib
import re
import socket
import subprocess
import sys
import threading
import time
import traceback
import tracemalloc
from array import array
from collections import Counter
from dataclasses import replace
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    make_corpus,
    make_doc,
    scalar_normalize_doc_id,
    scalar_reference_retrieve,
    scalar_standardize_results,
)
import patbench
from patbench.corpus import load_corpus
from patbench.dataset import EvaluationDataset, QueryCase, load_dataset
from patbench.execution import (
    AdapterError,
    AdapterTimeout,
    Hit,
    RankedList,
    ReferenceAdapter,
    RemoteAdapter,
    RemoteEndpointConfig,
    RunControls,
    RunFailureError,
    RunLogFormatError,
    RunRecord,
    build_reference_index,
    load_run_log,
    normalize_doc_id,
    reference_retrieve,
    remote_adapter_query,
    run_evaluation,
    sanitize_run_log,
    standardize_results,
    tally_statuses,
    tokenize,
    write_run_log,
)
from patbench.query import EmptyInputError, Query, build_queries


def _query(query_id: str, text: str = "alpha beta gamma") -> Query:
    return Query(query_id=query_id, text=text, truncated=False)


def tiny_dataset(qids: list[str]) -> EvaluationDataset:
    queries = tuple(
        QueryCase(
            query_doc_id=q,
            relevant_ids=frozenset({q + ".R"}),
            relevant_provenance={q + ".R": "EXAMINER"},
        )
        for q in qids
    )
    strata = {
        q: {"language": "en", "ipc_section": "G", "jurisdiction": "US"} for q in qids
    }
    return EvaluationDataset(
        queries=queries, strata=strata, build_manifest={"seed": 0, "n_queries": len(qids)}
    )


class TestNormalizeDocId:
    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("cn109123456 a", "CN109123456A"),
            ("  us 98 76 ", "US9876"),
            ("EP-1234/B1", "EP-1234/B1"[:0] or None),  # leading char ok, see below
        ],
    )
    def test_basic(self, raw, expected):
        if raw == "EP-1234/B1":
            assert normalize_doc_id(raw) == "EP-1234/B1"
        else:
            assert normalize_doc_id(raw) == expected

    def test_separators_allowed_inside(self):
        assert normalize_doc_id("ep 1234.5/b-1") == "EP1234.5/B-1"

    @pytest.mark.parametrize("raw", [None, 42, "", "   ", "-US1", ".X1", "US#1", "西1A"])
    def test_unmappable(self, raw):
        assert normalize_doc_id(raw) is None


# Mappable ids, repeated across forms: bare, lower-case and with whitespace.
_GOOD_IDS = st.one_of(
    st.sampled_from(["US1A", "us1a", " US 1A ", "EP-2/B1", "ep-2/b1", "CN3"]),
    st.from_regex(r"[A-Za-z0-9][A-Za-z0-9 ./-]{0,3}", fullmatch=True),
)


class _IdStr(str):
    """An id an adapter may hand back: a ``str`` subclass."""


class _PairHit(NamedTuple):
    """A two-field record hit, read as a (doc_id, score) pair."""

    doc_id: object
    score: object


# Non-finite and signed-zero floats, drawn often: the float fast path in
# standardize_results must leave each to the general rule, first score or not.
_EDGE_SCORES = st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0])
_RAW_IDS = st.one_of(
    _GOOD_IDS,
    _GOOD_IDS.map(_IdStr),
    st.sampled_from(["??", "", "-X1"]),
    st.text(max_size=6),
    st.integers(),
    st.none(),
    st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
)
_RAW_SCORES = st.one_of(
    st.none(),
    _EDGE_SCORES,
    st.floats(min_value=0.0, max_value=10.0),
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(),
    st.booleans(),
    st.text(max_size=3),
)
_RAW_HITS = st.one_of(
    st.tuples(_GOOD_IDS, _RAW_SCORES),
    st.builds(_PairHit, _RAW_IDS, _RAW_SCORES),
    _RAW_IDS,
    st.tuples(_RAW_IDS, _RAW_SCORES),
    st.tuples(_RAW_IDS, _RAW_SCORES).map(list),
    st.tuples(_RAW_IDS, _RAW_SCORES, _RAW_SCORES),
    st.fixed_dictionaries({}, optional={"doc_id": _RAW_IDS, "score": _RAW_SCORES}),
)


def _outcome(standardize, raw, max_depth):
    """``repr`` of the result, or the exception type: where the spec raises,
    the library must raise the same type, and nowhere else."""
    try:
        return repr(standardize(raw, query_id="Q", max_depth=max_depth, latency_ms=7))
    except Exception as exc:
        return f"raised {type(exc).__name__}"


class TestStandardizeResults:
    def test_accepts_mixed_shapes(self):
        raw = [
            {"doc_id": "us1a", "score": 0.9},
            ("us 2a", 0.8),
            "US3A",
        ]
        ranked, repairs = standardize_results(raw, query_id="Q", max_depth=10)
        assert repairs == 1  # the bare id's missing score, inherited
        assert ranked.doc_ids == ("US1A", "US2A", "US3A")
        assert [h.rank for h in ranked.hits] == [1, 2, 3]

    def test_duplicates_keep_best_rank(self):
        raw = [("us1a", 0.9), ("US2A", 0.8), ("US1A", 0.7)]
        ranked, repairs = standardize_results(raw, query_id="Q", max_depth=10)
        assert ranked.doc_ids == ("US1A", "US2A")
        assert ranked.hits[0].score == 0.9
        assert repairs == 1

    def test_truncates_to_max_depth(self):
        raw = [(f"US{i}A", 1.0 - i / 100) for i in range(20)]
        ranked, _ = standardize_results(raw, query_id="Q", max_depth=5)
        assert len(ranked.hits) == 5
        assert ranked.hits[-1].doc_id == "US4A"

    def test_unmappable_entries_counted_as_anomalies(self):
        raw = [42, "??", ("US1A", 0.5), None, {"doc_id": ""}]
        ranked, dropped = standardize_results(raw, query_id="Q", max_depth=10)
        assert ranked.doc_ids == ("US1A",)
        assert dropped == 4

    def test_missing_scores_inherit_previous(self):
        raw = ["US1A", ("US2A", 0.6), "US3A"]
        ranked, repairs = standardize_results(raw, query_id="Q", max_depth=10)
        assert [h.score for h in ranked.hits] == [1.0, 0.6, 0.6]
        assert repairs == 2
        # An int beyond float range has no float value, so it counts as missing.
        raw = [("US1A", 10**400), ("US2A", 0.6), ("US3A", -(10**400))]
        ranked, repairs = standardize_results(raw, query_id="Q", max_depth=10)
        assert [h.score for h in ranked.hits] == [1.0, 0.6, 0.6]
        assert repairs == 2

    def test_increasing_scores_are_clamped(self):
        raw = [("US1A", 0.5), ("US2A", 0.9), ("US3A", float("nan"))]
        ranked, repairs = standardize_results(raw, query_id="Q", max_depth=10)
        assert [h.score for h in ranked.hits] == [0.5, 0.5, 0.5]
        assert repairs == 2  # one clamp, one inherited NaN

    @settings(max_examples=200)
    @given(
        raw=st.lists(
            st.tuples(
                st.one_of(_GOOD_IDS, st.sampled_from(["??", ""])),
                st.one_of(st.none(), st.floats(allow_nan=True, allow_infinity=True)),
            ),
            max_size=30,
        ),
        max_depth=st.integers(min_value=1, max_value=25),
    )
    def test_tally_counts_every_entry_not_kept_as_given(self, raw, max_depth):
        # Each raw entry read is either kept with the score it was given, or
        # counted: dropped (unmappable or duplicate) or given another score.
        ranked, repairs = standardize_results(raw, query_id="Q", max_depth=max_depth)
        first_seen: dict[str, int] = {}
        for i, (raw_id, _) in enumerate(raw):
            norm = scalar_normalize_doc_id(raw_id)
            if norm is not None:
                first_seen.setdefault(norm, i)
        positions = [first_seen[h.doc_id] for h in ranked.hits]
        read = positions[-1] + 1 if len(positions) == max_depth else len(raw)
        rescored = sum(h.score != raw[i][1] for h, i in zip(ranked.hits, positions))
        assert repairs == read - len(positions) + rescored

    @settings(max_examples=200)
    @given(
        raw=st.lists(
            st.one_of(
                st.text(max_size=10),
                st.tuples(
                    st.text(max_size=10),
                    st.one_of(
                        st.none(),
                        st.floats(allow_nan=True, allow_infinity=True),
                    ),
                ),
                st.integers(),
            ),
            max_size=40,
        ),
        max_depth=st.integers(min_value=1, max_value=25),
    )
    def test_output_invariants(self, raw, max_depth):
        ranked, dropped = standardize_results(raw, query_id="Q", max_depth=max_depth)
        ids = ranked.doc_ids
        assert len(ids) == len(set(ids))
        assert len(ids) <= max_depth
        assert [h.rank for h in ranked.hits] == list(range(1, len(ids) + 1))
        scores = [h.score for h in ranked.hits]
        assert all(a >= b for a, b in zip(scores, scores[1:]))
        assert all(math.isfinite(s) for s in scores)
        assert dropped >= 0

    @settings(max_examples=300, deadline=None)
    # An inherited score above 1.0, a 3-tuple and unhashable ids, every run.
    @example(
        raw=[("US1A", 5.0), (" cn 3", None), ("EP-2/B1", 2.0, 1), ([1], 0.5), {"doc_id": {}}],
        max_depth=25,
    )
    # Ints beyond float range, which float() and math.isfinite reject with
    # OverflowError, after a finite score and first in the list.
    @example(
        raw=[("US1A", 10**400), ("US2A", 3), ("US3A", -(10**400)), {"doc_id": "US4A", "score": 10**400}],
        max_depth=25,
    )
    @given(
        raw=st.lists(_RAW_HITS, max_size=30),
        max_depth=st.integers(min_value=1, max_value=25),
    )
    def test_matches_scalar_spec(self, raw, max_depth):
        assert _outcome(standardize_results, raw, max_depth) == _outcome(
            scalar_standardize_results, raw, max_depth
        )

    @settings(max_examples=100, deadline=None)
    @given(
        first=_EDGE_SCORES,
        rest=st.lists(_RAW_HITS, max_size=5),
        max_depth=st.sampled_from([1, 2, 25]),
    )
    def test_edge_first_score_matches_scalar_spec(self, first, rest, max_depth):
        heads = [("US1A", first), _PairHit(_IdStr("us 1a"), first), {"doc_id": "US1A", "score": first}]
        for head in heads:
            raw = [head, *rest]
            assert _outcome(standardize_results, raw, max_depth) == _outcome(
                scalar_standardize_results, raw, max_depth
            )


class ListAdapter:
    adapter_id = "list"

    def __init__(self, mapping):
        self.mapping = mapping

    def search(self, query, controls):
        return self.mapping[query.query_id]


class FlakyAdapter:
    adapter_id = "flaky"

    def __init__(self, bad_ids):
        self.bad_ids = set(bad_ids)

    def search(self, query, controls):
        if query.query_id in self.bad_ids:
            raise RuntimeError("backend exploded")
        return [("US1A", 1.0)]


class SleepyAdapter:
    adapter_id = "sleepy"

    def search(self, query, controls):
        time.sleep(0.05)
        return [("US1A", 1.0)]


class TestRunEvaluation:
    def test_ok_run_records_all_queries(self):
        qids = ["Q1", "Q2", "Q3"]
        dataset = tiny_dataset(qids)
        queries = {q: _query(q) for q in qids}
        adapter = ListAdapter({q: [(f"US{i}A", 1.0 - i / 10) for i in range(3)] for q in qids})
        record = run_evaluation(
            dataset, adapter, RunControls(seed=0, adapter_id="list"), queries=queries
        )
        assert sorted(record.results) == qids
        assert tally_statuses(record) == {"ERROR": 0, "OK": 3, "TIMEOUT": 0}
        assert record.dataset_manifest_hash == dataset.manifest_hash

    def test_missing_query_becomes_error_result(self):
        qids = ["Q1", "Q2"]
        dataset = tiny_dataset(qids)
        queries = {"Q1": _query("Q1")}
        adapter = ListAdapter({"Q1": ["US1A"], "Q2": ["US1A"]})
        record = run_evaluation(dataset, adapter, RunControls(seed=0), queries=queries)
        assert record.results["Q2"].status == "ERROR"
        assert record.results["Q2"].hits == ()

    def test_slow_queries_time_out_but_run_completes(self):
        qids = ["Q1", "Q2", "Q3", "Q4"]
        dataset = tiny_dataset(qids)
        queries = {q: _query(q) for q in qids}
        controls = RunControls(seed=0, timeout_ms=10)
        record = run_evaluation(dataset, SleepyAdapter(), controls, queries=queries)
        assert tally_statuses(record) == {"ERROR": 0, "OK": 0, "TIMEOUT": 4}

    @pytest.mark.parametrize("search_ms, status", [(500, "OK"), (501, "TIMEOUT")])
    def test_timeout_is_strictly_more_than_the_budget(self, monkeypatch, search_ms, status):
        # The adapter moves the run's clock forward by its search time.
        clock = SimpleNamespace(now=0.0)
        fake_time = SimpleNamespace(perf_counter=lambda: clock.now)
        monkeypatch.setattr(patbench.execution, "time", fake_time)

        class ClockAdapter:
            adapter_id = "clock"

            def search(self, query, controls):
                clock.now += search_ms / 1000
                return [("US1A", 1.0)]

        record = run_evaluation(
            tiny_dataset(["Q1"]),
            ClockAdapter(),
            RunControls(seed=0, timeout_ms=500),
            queries={"Q1": _query("Q1")},
        )
        assert record.results["Q1"].status == status

    def test_adapter_timeout_exception_is_timeout_status(self):
        class RaisingAdapter:
            adapter_id = "raising"

            def search(self, query, controls):
                raise AdapterTimeout("budget blown")

        qids = ["Q1", "Q2"]
        record = run_evaluation(
            tiny_dataset(qids),
            RaisingAdapter(),
            RunControls(seed=0),
            queries={q: _query(q) for q in qids},
        )
        assert tally_statuses(record)["TIMEOUT"] == 2

    def test_majority_errors_abort_the_run(self):
        qids = [f"Q{i}" for i in range(4)]
        dataset = tiny_dataset(qids)
        queries = {q: _query(q) for q in qids}
        with pytest.raises(RunFailureError):
            run_evaluation(
                dataset, FlakyAdapter(["Q0", "Q1", "Q2"]), RunControls(seed=0), queries=queries
            )

    def test_half_errors_do_not_abort(self):
        qids = [f"Q{i}" for i in range(4)]
        dataset = tiny_dataset(qids)
        queries = {q: _query(q) for q in qids}
        record = run_evaluation(
            dataset, FlakyAdapter(["Q0", "Q1"]), RunControls(seed=0), queries=queries
        )
        assert tally_statuses(record) == {"ERROR": 2, "OK": 2, "TIMEOUT": 0}

    def test_parallelism_does_not_change_results(self, tmp_path):
        qids = [f"Q{i}" for i in range(8)]
        dataset = tiny_dataset(qids)
        queries = {q: _query(q) for q in qids}
        mapping = {q: [(f"US{i}{q[-1]}A", 1.0 - i / 10) for i in range(5)] for q in qids}
        logs = []
        for parallelism in (1, 2, 4):
            record = run_evaluation(
                dataset,
                ListAdapter(mapping),
                RunControls(seed=0, parallelism=parallelism, adapter_id="list"),
                queries=queries,
            )
            path = tmp_path / f"run_p{parallelism}.jsonl"
            write_run_log(record, path)
            logs.append(sanitize_run_log(path))
        assert logs[0] == logs[1] == logs[2]

    def test_results_come_back_in_dataset_order(self):
        qids = [f"Q{i}" for i in range(6)]
        dataset = tiny_dataset(qids)

        class ReverseFinishAdapter:
            adapter_id = "reverse"

            def search(self, query, controls):
                # Earlier queries sleep longer, so they finish last.
                time.sleep(0.004 * (len(qids) - int(query.query_id[1:])))
                return [("US1A", 1.0)]

        record = run_evaluation(
            dataset,
            ReverseFinishAdapter(),
            RunControls(seed=0, parallelism=4),
            queries={q: _query(q) for q in qids},
        )
        assert list(record.results) == dataset.query_ids()

    def test_failed_run_starts_no_further_search(self):
        qids = [f"Q{i}" for i in range(6)]
        searched = []

        class RecordingFlakyAdapter(FlakyAdapter):
            def search(self, query, controls):
                searched.append(query.query_id)
                return super().search(query, controls)

        with pytest.raises(RunFailureError):
            run_evaluation(
                tiny_dataset(qids),
                RecordingFlakyAdapter(["Q0", "Q1", "Q2", "Q3"]),
                RunControls(seed=0, parallelism=1),
                queries={q: _query(q) for q in qids},
            )
        assert searched == ["Q0", "Q1", "Q2", "Q3"]

    @pytest.mark.parametrize("parallelism", [1, 2])
    def test_base_exception_from_adapter_propagates(self, parallelism):
        class Halt(BaseException):
            pass

        class HaltingAdapter:
            adapter_id = "halting"

            def search(self, query, controls):
                if query.query_id == "Q1":
                    raise Halt
                return [("US1A", 1.0)]

        qids = ["Q0", "Q1", "Q2"]
        with pytest.raises(Halt):
            run_evaluation(
                tiny_dataset(qids),
                HaltingAdapter(),
                RunControls(seed=0, parallelism=parallelism),
                queries={q: _query(q) for q in qids},
            )

    def test_threads_bounded_by_query_count(self):
        qids = ["Q0", "Q1", "Q2"]
        thread_ids = set()

        class ThreadRecordingAdapter:
            adapter_id = "threads"

            def search(self, query, controls):
                thread_ids.add(threading.get_ident())
                time.sleep(0.01)
                return [("US1A", 1.0)]

        before = threading.active_count()
        run_evaluation(
            tiny_dataset(qids),
            ThreadRecordingAdapter(),
            RunControls(seed=0, parallelism=16),
            queries={q: _query(q) for q in qids},
        )
        assert 1 <= len(thread_ids) <= 3
        assert threading.get_ident() not in thread_ids
        assert threading.active_count() == before

    @pytest.mark.parametrize("parallelism", [1, 2, 8])
    @pytest.mark.parametrize("outcome", ["ok", "run-failure", "base-exception"])
    def test_workers_are_daemons_and_all_exit(self, parallelism, outcome):
        class Halt(BaseException):
            pass

        qids = [f"Q{i}" for i in range(10)]
        daemons = []

        class LifecycleAdapter:
            adapter_id = "lifecycle"

            def search(self, query, controls):
                daemons.append(threading.current_thread().daemon)
                time.sleep(0.001)
                if outcome == "run-failure":
                    raise RuntimeError("backend exploded")
                if outcome == "base-exception" and query.query_id == "Q3":
                    raise Halt
                return [("US1A", 1.0)]

        expected = {"ok": None, "run-failure": RunFailureError, "base-exception": Halt}[outcome]
        before = threading.active_count()
        with pytest.raises(expected) if expected else contextlib.nullcontext():
            run_evaluation(
                tiny_dataset(qids),
                LifecycleAdapter(),
                RunControls(seed=0, parallelism=parallelism),
                queries={q: _query(q) for q in qids},
            )
        assert threading.active_count() == before
        assert daemons and all(daemons)

    def test_tallies_survive_frequent_thread_switches(self):
        # More workers than cores and a tiny switch interval: each query is
        # searched once, and every worker's repairs and errors reach the
        # tallies, those of the last query it settled included.
        qids = [f"Q{i:03d}" for i in range(300)]
        searched = []

        class CountingAdapter:
            adapter_id = "counting"

            def search(self, query, controls):
                searched.append(query.query_id)
                if query.query_id.endswith("7"):
                    raise RuntimeError("backend exploded")
                # One duplicate and one unmappable entry: two repairs.
                return [("US1A", 1.0), ("US1A", 0.5), "??"]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            record = run_evaluation(
                tiny_dataset(qids),
                CountingAdapter(),
                RunControls(seed=0, parallelism=8),
                queries={q: _query(q) for q in qids},
            )
        finally:
            sys.setswitchinterval(interval)
        assert sorted(searched) == qids
        assert list(record.results) == qids
        assert tally_statuses(record) == {"ERROR": 30, "OK": 270, "TIMEOUT": 0}
        assert record.anomaly_count == 2 * 270

    def test_no_search_starts_after_the_run_fails(self):
        # Every query fails; 6 errors of 10 fail the run.  Each worker adds
        # its last query's tally and draws the next one under one lock, so
        # once the sixth error is tallied, only the other worker's search,
        # already running, may still start and finish.
        qids = [f"Q{i}" for i in range(10)]
        searched = []

        class SlowFlakyAdapter:
            adapter_id = "slow-flaky"

            def search(self, query, controls):
                searched.append(query.query_id)
                time.sleep(0.005)
                raise RuntimeError("backend exploded")

        with pytest.raises(RunFailureError):
            run_evaluation(
                tiny_dataset(qids),
                SlowFlakyAdapter(),
                RunControls(seed=0, parallelism=2),
                queries={q: _query(q) for q in qids},
            )
        # Queries are drawn in dataset order, so the searched ones are a prefix.
        assert sorted(searched) == qids[: len(searched)]
        assert 6 <= len(searched) <= 7

    def test_controls_validation(self):
        with pytest.raises(ValueError):
            RunControls(seed=0, timeout_ms=0)
        with pytest.raises(ValueError):
            RunControls(seed=0, max_depth=0)
        with pytest.raises(ValueError):
            RunControls(seed=0, parallelism=0)

    def test_unknown_status_rejected(self):
        with pytest.raises(ValueError, match="unknown status 'DONE'"):
            RankedList(query_id="Q", status="DONE")

    def test_non_ok_ranked_list_cannot_carry_hits(self):
        with pytest.raises(ValueError):
            RankedList(
                query_id="Q",
                doc_ids=("US1A",),
                scores=(1.0,),
                status="ERROR",
            )


class TestRankedList:
    def test_hits_are_built_from_the_columns(self):
        ranked = RankedList(
            query_id="Q", doc_ids=("US2A", "US1A", "EP3B"), scores=(0.9, 0.5, 0.5)
        )
        hits = ranked.hits
        assert all(type(h) is Hit for h in hits)
        assert [h.rank for h in hits] == [1, 2, 3]
        assert tuple(h.doc_id for h in hits) == ranked.doc_ids
        assert tuple(h.score for h in hits) == tuple(ranked.scores)
        assert RankedList(query_id="Q").hits == ()

    def test_every_producer_packs_scores_as_float64(self, tmp_path):
        given = RankedList(query_id="Q", doc_ids=("US1A", "US2A"), scores=(1, 0.5))
        standardized, _ = standardize_results(
            [("US1A", 0.9), "US2A", ("US3A", 2)], query_id="Q", max_depth=5
        )
        corpus = make_corpus(
            [make_doc("US1A", description="rotor"), make_doc("US2A", description="rotor stator")]
        )
        retrieved = reference_retrieve(_query("US9Z", "rotor stator"), build_reference_index(corpus))
        path = tmp_path / "run.jsonl"
        write_run_log(
            RunRecord(
                controls=RunControls(seed=0),
                dataset_manifest_hash="0" * 64,
                results={"Q": standardized},
                started="",
                finished="",
            ),
            path,
        )
        loaded = load_run_log(path).results["Q"]
        producers = (given, standardized, retrieved, loaded, RankedList(query_id="Q"))
        for ranked in producers:
            assert type(ranked.scores) is array and ranked.scores.typecode == "d"
        assert [len(ranked.scores) for ranked in producers] == [2, 3, 2, 3, 0]
        assert all(type(h.score) is float for ranked in producers for h in ranked.hits)
        assert list(given.scores) == [1.0, 0.5]
        assert loaded == standardized

    def test_not_hashable(self):
        # The packed score column is mutable, so the record opts out of hashing.
        with pytest.raises(TypeError, match="unhashable type: 'RankedList'"):
            hash(RankedList(query_id="Q", doc_ids=("US1A",), scores=(1.0,)))

    @pytest.mark.parametrize("doc_ids, scores", [(("US1A", "US2A"), (1.0,)), ((), (1.0,))])
    def test_columns_of_unequal_length_are_rejected(self, doc_ids, scores):
        with pytest.raises(ValueError, match="scores"):
            RankedList(query_id="Q", doc_ids=doc_ids, scores=scores)


class TestHit:
    def test_fields_keywords_and_repr(self):
        hit = Hit(doc_id="US1A", score=0.5, rank=1)
        assert Hit._fields == ("doc_id", "score", "rank")
        assert (hit.doc_id, hit.score, hit.rank) == ("US1A", 0.5, 1)
        assert hit == Hit("US1A", 0.5, 1)
        assert repr(hit) == "Hit(doc_id='US1A', score=0.5, rank=1)"

    def test_immutable(self):
        hit = Hit(doc_id="US1A", score=0.5, rank=1)
        with pytest.raises(AttributeError):
            hit.rank = 2
        with pytest.raises(AttributeError):
            hit.extra = 1


class TestTokenize:
    def test_latin_and_digits(self):
        assert tokenize("The Widget-9 spins.") == ["the", "widget", "9", "spins"]

    def test_cjk_single_char_tokens(self):
        assert tokenize("电池模块") == ["电", "池", "模", "块"]

    def test_mixed(self):
        assert tokenize("ABC电池 def") == ["abc", "电", "池", "def"]


def _oracle_scores(corpus, query_text: str) -> dict[str, float]:
    # independent accounting of the reference formula
    doc_tokens = {
        doc_id: tokenize(" ".join((d.title, d.abstract, d.claims, d.description)))
        for doc_id, d in corpus.documents.items()
    }
    df: Counter[str] = Counter()
    for tokens in doc_tokens.values():
        df.update(set(tokens))
    n = len(doc_tokens)
    out: dict[str, float] = {}
    q = Counter(tokenize(query_text))
    for doc_id, tokens in doc_tokens.items():
        tf = Counter(tokens)
        score = 0.0
        for term, qtf in q.items():
            if tf[term]:
                score += qtf * (1.0 + math.log(tf[term])) * math.log(1.0 + n / df[term])
        if score:
            out[doc_id] = score / math.sqrt(len(tokens))
    return out


_VOCAB = ["rotor", "stator", "pump", "valve", "gear", "seal", "a1", "电", "池", "轴"]
_DOC_IDS = ["US1A", "US2A", "US10A", "US3B", "EP4A", "EP40A", "CN5A", "CN50A"]


class TestReferenceRetriever:
    def _corpus(self):
        return make_corpus(
            [
                make_doc("US1A", description="rotor stator rotor winding"),
                make_doc("US2A", description="rotor bearing housing"),
                make_doc("US3A", description="stator winding insulation"),
                make_doc("US4A", family_id="F7", description="rotor stator alignment"),
                make_doc("US5A", family_id="F7", description="rotor stator alignment tool"),
            ]
        )

    def test_matches_independent_oracle(self):
        corpus = self._corpus()
        index = build_reference_index(corpus)
        query = _query("US1A", "rotor stator")
        ranked = reference_retrieve(query, index, exclude_family=False)
        oracle = _oracle_scores(corpus, "rotor stator")
        oracle.pop("US1A")
        expected_order = sorted(oracle, key=lambda d: (-oracle[d], d))
        assert list(ranked.doc_ids) == expected_order
        for hit in ranked.hits:
            assert hit.score == pytest.approx(oracle[hit.doc_id], rel=1e-12)

    def test_tie_breaks_lexicographically(self):
        corpus = make_corpus(
            [
                make_doc("US9A", description="turbine blade"),
                make_doc("US2A", description="turbine blade"),
                make_doc("US5A", description="turbine blade"),
                make_doc("US1A", description="turbine"),
            ]
        )
        index = build_reference_index(corpus)
        ranked = reference_retrieve(_query("US1A", "turbine blade"), index)
        assert ranked.doc_ids == ("US2A", "US5A", "US9A")

    def test_excludes_self_always(self):
        index = build_reference_index(self._corpus())
        for exclude_family in (True, False):
            ranked = reference_retrieve(
                _query("US1A", "rotor"), index, exclude_family=exclude_family
            )
            assert "US1A" not in ranked.doc_ids

    def test_family_exclusion_toggle(self):
        index = build_reference_index(self._corpus())
        with_family = reference_retrieve(
            _query("US4A", "rotor stator alignment"), index, exclude_family=False
        )
        without_family = reference_retrieve(
            _query("US4A", "rotor stator alignment"), index, exclude_family=True
        )
        assert "US5A" in with_family.doc_ids
        assert "US5A" not in without_family.doc_ids

    def test_max_depth_truncates(self):
        index = build_reference_index(self._corpus())
        ranked = reference_retrieve(_query("US1A", "rotor stator"), index, max_depth=2)
        assert len(ranked.hits) == 2

    def test_query_without_tokens_raises(self):
        index = build_reference_index(self._corpus())
        with pytest.raises(EmptyInputError):
            reference_retrieve(_query("US1A", "!!! ???"), index)

    def test_postings_oracle(self):
        corpus = make_corpus(
            [
                make_doc("US1A", title="", abstract="", claims="", description="pump pump valve"),
                make_doc("US2A", title="", abstract="", claims="", description="valve seat"),
            ]
        )
        index = build_reference_index(corpus)
        assert index.postings["pump"] == {"US1A": 2}
        assert index.postings["valve"] == {"US1A": 1, "US2A": 1}
        assert index.n_docs == 2

    def test_index_columns_match_token_count_oracle(self, synth_corpus):
        index = build_reference_index(synth_corpus)
        # The index holds its postings once, as columns: no dict of dicts is
        # built until ``postings`` is read.
        assert "postings" not in vars(index)
        doc_ids = sorted(synth_corpus.documents)
        oracle: dict[str, dict[str, int]] = {}
        for doc_id in doc_ids:
            doc = synth_corpus.documents[doc_id]
            text = " ".join((doc.title, doc.abstract, doc.claims, doc.description))
            for term, tf in Counter(tokenize(text)).items():
                oracle.setdefault(term, {})[doc_id] = tf
        assert list(index.terms) == list(oracle)
        for term, plist in oracle.items():
            rows, weights, idf = index.terms[term]
            want_rows = np.array([doc_ids.index(doc_id) for doc_id in plist], dtype=np.int32)
            want_weights = np.array([1.0 + math.log(tf) for tf in plist.values()])
            assert rows.dtype == np.int32 and rows.tobytes() == want_rows.tobytes(), term
            assert weights.dtype == np.float64, term
            assert weights.tobytes() == want_weights.tobytes(), term
            assert repr(idf) == repr(math.log(1 + len(doc_ids) / len(plist))), term
        assert index.postings == oracle
        assert vars(index)["postings"] is index.postings

    def test_adapter_is_deterministic_over_synth_corpus(self, synth_corpus, tmp_path):
        from patbench.dataset import build_dataset

        dataset = build_dataset(synth_corpus, seed=5, sample_size=20)
        queries = build_queries(synth_corpus, dataset.query_ids())
        logs = []
        for i in range(2):
            record = run_evaluation(
                dataset,
                ReferenceAdapter(synth_corpus),
                RunControls(seed=5, adapter_id="reference", parallelism=3),
                queries=queries,
            )
            path = tmp_path / f"ref{i}.jsonl"
            write_run_log(record, path)
            logs.append(sanitize_run_log(path))
        assert logs[0] == logs[1]

    def test_retrieval_invariants_on_synth_corpus(self, synth_corpus):
        index = build_reference_index(synth_corpus)
        for doc_id in sorted(synth_corpus.documents)[:5]:
            doc = synth_corpus.documents[doc_id]
            query = _query(doc_id, doc.description[:200])
            ranked = reference_retrieve(query, index, max_depth=50)
            ids = ranked.doc_ids
            assert doc_id not in ids
            assert len(ids) == len(set(ids))
            assert len(ids) <= 50
            scores = [h.score for h in ranked.hits]
            assert all(a >= b for a, b in zip(scores, scores[1:]))

    def test_run_loop_calls_retriever_and_standardizer_through_the_module(self, monkeypatch):
        # perfbench times these two layers by replacing the module attributes,
        # so the run loop and the adapter must look them up there, once per query.
        import patbench.execution as execution

        calls: Counter[str] = Counter()

        def counting(name):
            real = getattr(execution, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            return wrapper

        for name in ("reference_retrieve", "standardize_results"):
            monkeypatch.setattr(execution, name, counting(name))
        corpus = self._corpus()
        qids = ["US1A", "US2A", "US4A"]
        record = run_evaluation(
            tiny_dataset(qids),
            ReferenceAdapter(corpus),
            RunControls(seed=0, adapter_id="reference"),
            queries={q: _query(q, corpus.documents[q].description) for q in qids},
        )
        assert tally_statuses(record)["OK"] == len(qids)
        assert calls == {"reference_retrieve": len(qids), "standardize_results": len(qids)}

    def test_large_tf_matches_scalar_spec(self):
        # With numpy 2.4 on x86-64, np.log(9170) and math.log(9170) differ in
        # the last bit; the weights must come from math.log.
        corpus = make_corpus(
            [
                make_doc("US1A", description="pump " * 9170 + "valve"),
                make_doc("US2A", description="pump valve seal"),
                make_doc("US3A", description="valve"),
            ]
        )
        index = build_reference_index(corpus)
        query = _query("US3A", "pump valve")
        got = reference_retrieve(query, index)
        expected = scalar_reference_retrieve(query, corpus)
        assert [(h.doc_id, repr(h.score)) for h in got.hits] == [
            (h.doc_id, repr(h.score)) for h in expected.hits
        ]

    @settings(max_examples=300, deadline=None)
    # Repeated query terms, three of them shared with US2A: computing a
    # contribution as qtf * (w * idf), or adding the terms in sorted rather
    # than Counter order, changes the last bit of a score.
    @example(
        docs=[(["池", "valve", "pump"], ""), (["pump", "轴", "a1", "pump", "seal", "轴"], "")],
        queries=[("US99Z", ["pump", "pump", "轴", "pump", "seal"])],
        max_depth=50,
        exclude_family=False,
    )
    # Six documents tied at the third-best score, so the depth cut falls
    # inside a tie and only the doc_id tie-break decides which one is kept.
    @example(
        docs=[(["pump", "pump"], "")] + [(["pump", "seal"], "")] * 6
        + [(["pump", "pump", "pump"], "")],
        queries=[("US99Z", ["pump"])],
        max_depth=3,
        exclude_family=False,
    )
    @given(
        docs=st.lists(
            st.tuples(
                st.lists(st.sampled_from(_VOCAB), max_size=6),
                st.sampled_from(["", "", "F1", "F2"]),
            ),
            min_size=1,
            max_size=len(_DOC_IDS),
        ),
        queries=st.lists(
            st.tuples(
                st.sampled_from(_DOC_IDS + ["US99Z"]),
                st.lists(st.sampled_from(_VOCAB + ["!!"]), min_size=1, max_size=5),
            ),
            min_size=1,
            max_size=4,
        ),
        max_depth=st.sampled_from([1, 3, 50]),
        exclude_family=st.booleans(),
    )
    def test_matches_scalar_spec_byte_for_byte(self, docs, queries, max_depth, exclude_family):
        # Small vocabularies and repeated words make score ties common, so
        # this pins the doc_id tie-break as well as every score's bytes.
        corpus = make_corpus(
            [
                make_doc(
                    doc_id,
                    title="",
                    abstract="",
                    claims="",
                    description=" ".join(words),
                    family_id=family,
                )
                for doc_id, (words, family) in zip(_DOC_IDS, docs)
            ]
        )
        index = build_reference_index(corpus)
        for query_id, words in queries:
            query = _query(query_id, " ".join(words))
            kwargs = dict(max_depth=max_depth, exclude_family=exclude_family)
            try:
                expected = scalar_reference_retrieve(query, corpus, **kwargs)
            except EmptyInputError:
                with pytest.raises(EmptyInputError):
                    reference_retrieve(query, index, **kwargs)
                continue
            got = reference_retrieve(query, index, **kwargs)
            assert (got.query_id, got.status) == (expected.query_id, expected.status)
            assert [(h.doc_id, repr(h.score), h.rank) for h in got.hits] == [
                (h.doc_id, repr(h.score), h.rank) for h in expected.hits
            ]


class _StubHandler(BaseHTTPRequestHandler):
    def log_message(self, *args):
        pass

    def _send(self, status: int, body: dict | str | bytes):
        if isinstance(body, dict):
            body = json.dumps(body)
        payload = body.encode() if isinstance(body, str) else body
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def do_POST(self):
        raw = self.rfile.read(int(self.headers.get("Content-Length", 0)))
        body = json.loads(raw or b"{}")
        self.server.received[self.path] += 1
        if self.path == "/canned":
            answer = self.server.canned.get(body.get("query"), (404, "no canned answer"))
            if answer is None:
                # Hold the answer until the client gives up and hangs up.
                self.connection.settimeout(30)
                self.connection.recv(1)
            else:
                self._send(*answer)
        elif self.path == "/ok":
            depth = int(body.get("max_depth", 5))
            hits = [
                {"doc_id": f"us{i}a", "score": round(1.0 - i / 100, 4)}
                for i in range(depth)
            ]
            self._send(200, {"hits": hits})
        elif self.path == "/nested":
            self._send(200, {"data": {"results": [{"id": "US7A", "conf": 0.7}]}})
        elif self.path == "/pairs":
            self._send(200, {"hits": [["US1A", 0.9], ["US2A", 0.5]]})
        elif self.path == "/auth":
            self._send(
                200,
                {"hits": [{"doc_id": self.headers.get("Authorization", ""), "score": 1.0}]},
            )
        elif self.path == "/echo":
            names = ("Content-Type", "User-Agent", "Accept-Encoding")
            self._send(200, {"hits": [self.path, *map(self.headers.get, names), raw.decode()]})
        elif self.path == "/moved":
            self.send_response(302)
            self.send_header("Location", "/ok")
            self.send_header("Content-Length", "0")
            self.end_headers()
        elif self.path == "/boom":
            self._send(500, "kaboom: internal index corrupt")
        elif self.path == "/boom-bytes":
            self._send(503, b"\xff" + b"x" * 300)
        elif self.path == "/notjson":
            self._send(200, "this is not json")
        elif self.path == "/flaky":
            # Hangs up unanswered on two requests of every three.
            if self.server.received[self.path] % 3:
                return
            self._send(200, {"hits": [{"doc_id": "US1A", "score": 1.0}]})
        elif self.path == "/slow":
            time.sleep(0.4)
            # The client timed out meanwhile and may have closed the socket.
            try:
                self._send(200, {"hits": []})
            except (BrokenPipeError, ConnectionResetError):
                pass
        else:
            self._send(404, "no such route")

    def do_GET(self):
        from urllib.parse import parse_qs, urlparse

        parsed = urlparse(self.path)
        if parsed.path == "/get":
            params = parse_qs(parsed.query)
            depth = int(params.get("max_depth", ["3"])[0])
            self._send(200, {"hits": [f"G{i}A" for i in range(depth)]})
        elif parsed.path == "/echo":
            self._send(200, {"hits": [self.path]})
        else:
            self._send(404, "no such route")


class _StubServer(ThreadingHTTPServer):
    """Records a handler's exception instead of printing it, so that the
    fixture can fail on it."""

    def __init__(self) -> None:
        super().__init__(("127.0.0.1", 0), _StubHandler)
        self.handler_errors: list[str] = []
        # POST requests received, by path.
        self.received: Counter[str] = Counter()
        # Route /canned: query text -> (status, body), or None to hold.
        self.canned: dict[str, tuple[int, object] | None] = {}
        self.url = f"http://127.0.0.1:{self.server_address[1]}"

    def handle_error(self, request, client_address) -> None:
        self.handler_errors.append(traceback.format_exc())


@pytest.fixture(scope="module")
def stub():
    server = _StubServer()
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    thread.join(timeout=10)
    assert not thread.is_alive()
    assert not server.handler_errors, "stub handler raised:\n" + "".join(server.handler_errors)


@pytest.fixture(scope="module")
def stub_server(stub):
    return stub.url


GOLDEN_DIR = pathlib.Path(__file__).resolve().parent / "golden"

# The stub's answer to each query of the family-dense golden dataset, in
# dataset order: every repair kind, every hit shape, a held answer (TIMEOUT)
# and an HTTP error (ERROR).
_CANNED_ANSWERS = (
    # Two unmappable entries (a null id, a number) and a duplicate.
    (200, {"hits": [{"doc_id": "us 2001 a", "score": 0.9}, {"doc_id": None, "score": 0.85}, 7,
                    {"doc_id": "US2001A", "score": 0.8}, {"doc_id": "kr2004a", "score": 0.7}]}),
    # Two inherited scores: a missing one and one that is not a number.
    (200, {"hits": [["US2002A", 0.8], ["JP2002A", None], ["US3001A", "high"], ["JP3001A", 0.5]]}),
    # One clamped score.
    (200, {"hits": [["US0901A", 0.4], ["KR3005A", 0.6], ["US2001A", 0.2]]}),
    # Bare ids: each inherits a score.
    (200, {"hits": ["us2004a", "JP2002A"]}),
    None,
    (500, "index unavailable"),
)


def _remote_config(url: str, **overrides) -> RemoteEndpointConfig:
    fields = dict(adapter_id="stub", url=url, backoff_s=0.0)
    fields.update(overrides)
    return RemoteEndpointConfig(**fields)


class TestRemoteAdapter:
    def test_post_round_trip(self, stub_server):
        config = _remote_config(stub_server + "/ok")
        raw = remote_adapter_query(
            config, _query("Q1"), RunControls(seed=0, max_depth=4)
        )
        assert raw == [
            ("us0a", 1.0),
            ("us1a", 0.99),
            ("us2a", 0.98),
            ("us3a", 0.97),
        ]

    def test_adapter_feeds_standardization(self, stub_server):
        adapter = RemoteAdapter(_remote_config(stub_server + "/ok"))
        record = run_evaluation(
            tiny_dataset(["Q1"]),
            adapter,
            RunControls(seed=0, max_depth=3, adapter_id="stub"),
            queries={"Q1": _query("Q1")},
        )
        assert record.results["Q1"].doc_ids == ("US0A", "US1A", "US2A")

    def test_nested_hits_path_and_field_names(self, stub_server):
        config = _remote_config(
            stub_server + "/nested",
            hits_path=("data", "results"),
            id_field="id",
            score_field="conf",
        )
        raw = remote_adapter_query(config, _query("Q1"), RunControls(seed=0))
        assert raw == [("US7A", 0.7)]

    def test_pair_hits_keep_their_ids_and_scores(self, stub_server):
        config = _remote_config(stub_server + "/pairs")
        raw = remote_adapter_query(config, _query("Q1"), RunControls(seed=0))
        ranked, repairs = standardize_results(raw, query_id="Q1", max_depth=10)
        assert ranked.doc_ids == ("US1A", "US2A")
        assert list(ranked.scores) == [0.9, 0.5]
        assert repairs == 0

    def test_auth_token_from_environment(self, stub_server, monkeypatch):
        monkeypatch.setenv("STUB_TOKEN", "s3cr3t")
        config = _remote_config(stub_server + "/auth", auth_token_env="STUB_TOKEN")
        raw = remote_adapter_query(config, _query("Q1"), RunControls(seed=0))
        assert raw == [("Bearer s3cr3t", 1.0)]

    def test_missing_token_sends_no_header(self, stub_server, monkeypatch):
        monkeypatch.delenv("ABSENT_TOKEN", raising=False)
        config = _remote_config(stub_server + "/auth", auth_token_env="ABSENT_TOKEN")
        raw = remote_adapter_query(config, _query("Q1"), RunControls(seed=0))
        assert raw == [("", 1.0)]

    def test_http_error_carries_snippet(self, stub_server):
        config = _remote_config(stub_server + "/boom")
        with pytest.raises(AdapterError) as err:
            remote_adapter_query(config, _query("Q1"), RunControls(seed=0))
        assert "500" in str(err.value)
        assert "kaboom" in str(err.value)

    def test_error_snippet_is_200_characters_of_replaced_utf8(self, stub_server):
        config = _remote_config(stub_server + "/boom-bytes")
        with pytest.raises(AdapterError) as err:
            remote_adapter_query(config, _query("Q1"), RunControls(seed=0))
        assert str(err.value) == "stub: HTTP 503: \ufffd" + "x" * 199

    def test_redirect_is_not_followed(self, stub_server):
        config = _remote_config(stub_server + "/moved")
        with pytest.raises(AdapterError, match="HTTP 302"):
            remote_adapter_query(config, _query("Q1"), RunControls(seed=0))

    def test_post_sends_the_payload_as_json(self, stub_server):
        config = _remote_config(stub_server + "/echo", extra_params={"lang": "en"})
        raw = remote_adapter_query(config, _query("Q1", "naïve"), RunControls(seed=3, max_depth=4))
        payload = {"query": "naïve", "max_depth": 4, "seed": 3, "lang": "en"}
        # No User-Agent, and http.client's default Accept-Encoding: no gzip.
        assert raw == ["/echo", "application/json", None, "identity", json.dumps(payload)]
        own_type = replace(config, headers={"content-type": "application/vnd.acme+json"})
        raw = remote_adapter_query(own_type, _query("Q1"), RunControls(seed=0))
        assert raw[1] == "application/vnd.acme+json"

    def test_get_encodes_params_after_the_url_query(self, stub_server):
        config = _remote_config(
            stub_server + "/echo?k=v ä", method="GET",
            extra_params={"lang": ["en", "zh"], "skip": None},
        )
        raw = remote_adapter_query(config, _query("Q1", "a b&c"), RunControls(seed=0, max_depth=2))
        assert raw == ["/echo?k=v%20%C3%A4&query=a+b%26c&max_depth=2&seed=0&lang=en&lang=zh"]

    def test_unparseable_body(self, stub_server):
        config = _remote_config(stub_server + "/notjson")
        with pytest.raises(AdapterError) as err:
            remote_adapter_query(config, _query("Q1"), RunControls(seed=0))
        assert "unparseable" in str(err.value)

    def test_missing_hits_path(self, stub_server):
        config = _remote_config(stub_server + "/nested", hits_path=("data", "absent"))
        with pytest.raises(AdapterError) as err:
            remote_adapter_query(config, _query("Q1"), RunControls(seed=0))
        assert "data.absent" in str(err.value)

    def test_hits_path_to_a_non_array(self, stub_server):
        config = _remote_config(stub_server + "/nested", hits_path=("data",))
        with pytest.raises(AdapterError, match="hit list is not an array"):
            remote_adapter_query(config, _query("Q1"), RunControls(seed=0))

    def test_timeout_maps_to_adapter_timeout(self, stub_server):
        config = _remote_config(stub_server + "/slow")
        with pytest.raises(AdapterTimeout):
            remote_adapter_query(config, _query("Q1"), RunControls(seed=0, timeout_ms=100))

    def test_remote_run_matches_golden_log(self, stub, tmp_path):
        corpus = load_corpus(GOLDEN_DIR / "family_corpus.jsonl")
        dataset = load_dataset(GOLDEN_DIR / "family_dataset.jsonl")
        queries = build_queries(corpus, dataset.query_ids())
        stub.canned = {
            queries[qid].text: answer
            for qid, answer in zip(dataset.query_ids(), _CANNED_ANSWERS, strict=True)
        }
        assert len(stub.canned) == len(_CANNED_ANSWERS)
        # 2 s against answers that take milliseconds on loopback: the held
        # query times out, and the others keep a wide margin on a loaded host.
        controls = RunControls(seed=7, timeout_ms=2000, adapter_id="stub", parallelism=2)
        adapter = RemoteAdapter(_remote_config(stub.url + "/canned"))
        record = run_evaluation(dataset, adapter, controls, queries=queries)
        assert tally_statuses(record) == {"ERROR": 1, "OK": 4, "TIMEOUT": 1}
        assert record.anomaly_count == 8
        log = write_run_log(record, tmp_path / "remote_run.jsonl")
        assert sanitize_run_log(log) == (GOLDEN_DIR / "remote_run.jsonl").read_bytes()

    def test_get_uses_query_params(self, stub_server):
        config = _remote_config(stub_server + "/get", method="GET")
        raw = remote_adapter_query(config, _query("Q1"), RunControls(seed=0, max_depth=2))
        assert raw == ["G0A", "G1A"]

    def test_connection_errors_retry_then_succeed(self, stub):
        config = _remote_config(stub.url + "/flaky", max_retries=2)
        before = stub.received["/flaky"]
        raw = remote_adapter_query(config, _query("Q1"), RunControls(seed=0))
        assert raw == [("US1A", 1.0)]
        assert stub.received["/flaky"] - before == 3

    def test_connection_errors_exhaust_retries(self, monkeypatch):
        # A loopback port with no listener: each connection is refused.
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        dead_port = probe.getsockname()[1]
        probe.close()
        attempts = []
        connect = socket.create_connection

        def counting_connect(*args, **kwargs):
            attempts.append(args[0])
            return connect(*args, **kwargs)

        monkeypatch.setattr(socket, "create_connection", counting_connect)
        config = _remote_config(f"http://127.0.0.1:{dead_port}/ok", max_retries=1)
        with pytest.raises(AdapterError) as err:
            remote_adapter_query(config, _query("Q1"), RunControls(seed=0))
        assert len(attempts) == 2
        assert "transport failure" in str(err.value)

    def test_timeout_and_http_errors_are_not_retried(self, stub):
        before = stub.received.copy()
        config = _remote_config(stub.url + "/slow", max_retries=5)
        with pytest.raises(AdapterTimeout):
            remote_adapter_query(config, _query("Q1"), RunControls(seed=0, timeout_ms=100))
        config = _remote_config(stub.url + "/boom", max_retries=5)
        with pytest.raises(AdapterError, match="HTTP 500"):
            remote_adapter_query(config, _query("Q1"), RunControls(seed=0))
        assert stub.received - before == Counter({"/slow": 1, "/boom": 1})

    def test_config_from_file(self, tmp_path):
        path = tmp_path / "remote.json"
        path.write_text(
            json.dumps(
                {
                    "adapter_id": "vendor",
                    "url": "http://vendor.test/search",
                    "hits_path": ["data", "hits"],
                    "max_retries": 1,
                }
            )
        )
        config = RemoteEndpointConfig.from_file(path)
        assert config.adapter_id == "vendor"
        assert config.hits_path == ("data", "hits")

        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"adapter_id": "x", "url": "http://x.test/", "surprise": 1}))
        with pytest.raises(ValueError):
            RemoteEndpointConfig.from_file(bad)
        incomplete = tmp_path / "incomplete.json"
        incomplete.write_text(json.dumps({"adapter_id": "x"}))
        with pytest.raises(ValueError):
            RemoteEndpointConfig.from_file(incomplete)
        not_an_object = tmp_path / "list.json"
        not_an_object.write_text(json.dumps(["adapter_id", "url"]))
        with pytest.raises(ValueError, match="JSON object"):
            RemoteEndpointConfig.from_file(not_an_object)

    @pytest.mark.parametrize(
        "key, value",
        [("adapter_id", None), ("url", 5), ("max_retries", True), ("max_retries", 1.0),
         ("backoff_s", "0.5"), ("hits_path", ["data", 0]), ("headers", {"h": None}),
         ("extra_params", [1])],
    )
    def test_config_from_file_rejects_a_field_of_the_wrong_type(self, tmp_path, key, value):
        path = tmp_path / "remote.json"
        path.write_text(json.dumps({"adapter_id": "x", "url": "http://x.test/", key: value}))
        with pytest.raises(ValueError, match=f"^field {key!r} must be "):
            RemoteEndpointConfig.from_file(path)

    @pytest.mark.parametrize(
        "overrides",
        [{"max_retries": -1}, {"backoff_s": -0.5}, {"backoff_s": math.inf}, {"backoff_s": math.nan}],
    )
    def test_config_range_checked_however_built(self, tmp_path, overrides):
        with pytest.raises(ValueError, match=next(iter(overrides))):
            _remote_config("http://invalid.test/ok", **overrides)
        path = tmp_path / "remote.json"
        path.write_text(json.dumps({"adapter_id": "x", "url": "http://x.test/", **overrides}))
        with pytest.raises(ValueError, match=next(iter(overrides))):
            RemoteEndpointConfig.from_file(path)

    @pytest.mark.parametrize(
        "url",
        ["u", "ftp://x.test/s", "http:///s", "https://:8080/s", "http://x.test:port/s",
         "http://x.test:99999/s", "http://[::1/s", "http://user:pw@x.test/s",
         "http://user@x.test/s"],
    )
    def test_config_rejects_an_unusable_url(self, tmp_path, url):
        with pytest.raises(ValueError, match="'url' must be an http:// or https:// URL"):
            _remote_config(url)
        path = tmp_path / "remote.json"
        path.write_text(json.dumps({"adapter_id": "x", "url": url}))
        with pytest.raises(ValueError, match="'url'"):
            RemoteEndpointConfig.from_file(path)

    @pytest.mark.parametrize(
        "url", ["http://x.test", "HTTPS://X.test:8443/s?k=v", "http://[::1]:80/"]
    )
    def test_config_accepts_http_and_https_urls(self, url):
        assert _remote_config(url).url == url

    def test_http_client_loaded_only_when_adapter_is_built(self, tmp_path):
        # A fresh interpreter, because this one has imported http.client already.
        config = tmp_path / "remote.json"
        config.write_text(json.dumps({"adapter_id": "x", "url": "http://127.0.0.1:9/search"}))
        script = (
            "import json, sys\n"
            "import patbench.cli\n"
            "from patbench.execution import RemoteAdapter, RemoteEndpointConfig\n"
            "loaded = lambda: [name in sys.modules for name in ('http.client', 'ssl')]\n"
            "seen = [loaded()]\n"
            "RemoteAdapter(RemoteEndpointConfig.from_file(sys.argv[1]))\n"
            "seen.append(loaded())\n"
            "print(json.dumps(seen))\n"
        )
        src = str(pathlib.Path(patbench.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run(
            [sys.executable, "-c", script, str(config)],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout) == [[False, False], [True, True]]


class TestRunLogIO:
    def _record(self):
        qids = ["Q1", "Q2", "Q3"]
        dataset = tiny_dataset(qids)
        queries = {q: _query(q) for q in qids}
        mapping = {
            "Q1": [("US1A", 0.9), ("US2A", 0.8)],
            "Q2": [],
            "Q3": [("US3A", 0.7)],
        }
        return run_evaluation(
            dataset,
            ListAdapter(mapping),
            RunControls(seed=11, adapter_id="list"),
            queries=queries,
        )

    def test_round_trip(self, tmp_path):
        record = self._record()
        path = tmp_path / "run.jsonl"
        write_run_log(record, path)
        assert load_run_log(path) == record

    @staticmethod
    def _write_lists(path, lists):
        """Write a run log of ``{query_id: [doc ids best-first]}``."""
        results = {
            qid: RankedList(
                query_id=qid,
                doc_ids=tuple(ids),
                scores=tuple(1.0 - r / 1000 for r in range(len(ids))),
            )
            for qid, ids in lists.items()
        }
        record = RunRecord(
            controls=RunControls(seed=0, adapter_id="fixture"),
            dataset_manifest_hash="0" * 64,
            results=results,
            started="",
            finished="",
        )
        write_run_log(record, path)
        return record

    def test_load_shares_equal_doc_ids_and_builds_hits(self, tmp_path):
        # `json.loads` makes a new string per occurrence, so without the
        # per-load dict equal ids are distinct objects; and a plain tuple
        # compares equal to a Hit, so only a type test catches one.
        path = tmp_path / "run.jsonl"
        record = self._write_lists(
            path, {"Q1": ["US1A", "US2A"], "Q2": ["US2A", "US3A", "US1A"], "Q3": ["US3A"]}
        )
        loaded = load_run_log(path)
        assert loaded == record
        hits = [h for ranked in loaded.results.values() for h in ranked.hits]
        assert all(type(h) is Hit for h in hits)
        first: dict[str, str] = {}
        for h in hits:
            assert first.setdefault(h.doc_id, h.doc_id) is h.doc_id
        assert len(first) == 3

    def test_load_keeps_hits_small(self, tmp_path):
        # 500 lists of 100 hits over 300 ids: a hit is a slot in the id
        # column and 8 bytes in the packed score column, not also a float
        # object, a Hit tuple or its own copy of the id string (166 B per hit
        # with all of them, 107 B with Hit tuples of shared ids, 44 B with a
        # tuple of floats as the score column, about 20 B packed).
        ids = [f"US{j:07d}A" for j in range(300)]
        path = tmp_path / "run.jsonl"
        self._write_lists(
            path, {f"Q{i:03d}": [ids[(i + r) % 300] for r in range(100)] for i in range(500)}
        )
        tracemalloc.start()
        try:
            loaded = load_run_log(path)
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        n_hits = sum(len(ranked.hits) for ranked in loaded.results.values())
        assert n_hits == 50_000
        assert retained / n_hits < 28

    def test_sanitized_bytes_ignore_wall_clock(self, tmp_path):
        record = self._record()
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_run_log(record, a)
        from dataclasses import replace

        later = replace(record, started="2999-01-01T00:00:00.000000Z", finished="2999-01-01T00:00:01.000000Z")
        write_run_log(later, b)
        assert a.read_bytes() != b.read_bytes()
        assert sanitize_run_log(a) == sanitize_run_log(b)

    def test_load_reads_int_scores_as_floats(self, tmp_path):
        path = tmp_path / "run.jsonl"
        write_run_log(self._record(), path)
        lines = path.read_text().splitlines(keepends=True)
        rec = json.loads(lines[2])
        rec["hits"] = [["US1A", 3, 1], ["US2A", -(2**60 + 1), 2]]
        lines[2] = json.dumps(rec) + "\n"
        path.write_text("".join(lines))
        hits = load_run_log(path).results[rec["query_id"]].hits
        assert [repr(h.score) for h in hits] == ["3.0", repr(float(-(2**60)))]

    def test_round_trip_keeps_extreme_score_bytes(self, tmp_path):
        # Packed as float64, a score reads back as the float it was written
        # as: the sign of zero, the smallest subnormal and the largest finite
        # double keep their bytes, and a JSON integer is written back as the
        # float it was read as, from then on unchanged.
        path, again, third = (tmp_path / name for name in ("a.jsonl", "b.jsonl", "c.jsonl"))
        write_run_log(self._record(), path)
        lines = path.read_text().splitlines(keepends=True)
        rec = json.loads(lines[2])
        rec["hits"] = [
            ["US1A", 1.7976931348623157e308, 1],
            ["US2A", 7, 2],
            ["US3A", 5e-324, 3],
            ["US4A", -0.0, 4],
        ]
        lines[2] = json.dumps(rec, sort_keys=True, ensure_ascii=False) + "\n"
        written = "".join(lines)
        assert (
            '[["US1A", 1.7976931348623157e+308, 1], ["US2A", 7, 2], '
            '["US3A", 5e-324, 3], ["US4A", -0.0, 4]]'
        ) in written
        path.write_text(written)
        loaded = load_run_log(path)
        scores = loaded.results[rec["query_id"]].scores
        assert list(scores) == [1.7976931348623157e308, 7.0, 5e-324, 0.0]
        assert math.copysign(1.0, scores[3]) == -1.0
        write_run_log(loaded, again)
        assert again.read_text() == written.replace('["US2A", 7, 2]', '["US2A", 7.0, 2]')
        write_run_log(load_run_log(again), third)
        assert third.read_bytes() == again.read_bytes()

    def test_load_rejects_headerless_file(self, tmp_path):
        path = tmp_path / "broken.jsonl"
        path.write_text('{"kind":"ranked_list","query_id":"Q1","status":"OK","hits":[]}\n')
        with pytest.raises(ValueError):
            load_run_log(path)

    @pytest.mark.parametrize(
        "hits, message",
        [
            ([["US1A", 0.9, 0]], "hit 'US1A' at rank 0: ranks must be the integers 1, 2, ..."),
            ([["US1A", 0.9, 1], ["US2A", 0.8, 3]], "hit 'US2A' at rank 3: ranks must be"),
            ([["US1A", 0.9]], "hit 1 of query 'Q2' must be a [doc_id, score, rank] array, got ['US1A', 0.9]"),
            ([["US1A", 0.9, 1.5]], "hit 'US1A' at rank 1.5: ranks must be"),
            ([["US1A", 0.9, 1.0]], "hit 'US1A' at rank 1.0: ranks must be"),
            ([["US1A", 0.9, True]], "hit 'US1A' at rank True: ranks must be"),
            ([["US1A", 0.9, "1"]], "hit 'US1A' at rank '1': ranks must be"),
            ([[123, 0.9, 1]], "hit at rank 1: doc_id 123 is not a non-empty string"),
            ([["", 0.9, 1]], "hit at rank 1: doc_id '' is not a non-empty string"),
            ([["US1A", "nan", 1]], "hit 'US1A': score 'nan' is not a finite number"),
            ([["US1A", float("nan"), 1]], "hit 'US1A': score nan is not a finite number"),
            ([["US1A", float("inf"), 1]], "hit 'US1A': score inf is not a finite number"),
            ([["US1A", None, 1]], "hit 'US1A': score None is not a finite number"),
            ([["US1A", True, 1]], "hit 'US1A': score True is not a finite number"),
            ([["US1A", 10**400, 1]], f"hit 'US1A': score {10**400} is not a finite number"),
            ([["US1A", 0.1, 1], ["US2A", 0.9, 2]], "hit 'US2A' at rank 2: score 0.9 is above the previous score 0.1"),
            ([["US1A", 0.0, 1], ["US2A", 5e-324, 2]], "hit 'US2A' at rank 2: score 5e-324 is above"),
            (
                [{"doc_id": "US1A", "score": 0.9, "rank": 1}],
                "hit 1 of query 'Q2' must be a [doc_id, score, rank] array, got {'doc_id': 'US1A'",
            ),
            ([["US1A", 0.9, 1], ["US2A", 0.8]], "hit 2 of query 'Q2' must be a [doc_id, score, rank] array"),
            ([["US1A", 0.9, 1, 0]], "hit 1 of query 'Q2' must be a [doc_id, score, rank] array"),
            (["abc"], "hit 1 of query 'Q2' must be a [doc_id, score, rank] array, got 'abc'"),
            ([5], "hit 1 of query 'Q2' must be a [doc_id, score, rank] array, got 5"),
            ([["US1A", 0.9, 0], ["US2A", 0.8]], "hit 'US1A' at rank 0"),
        ],
        ids=[
            "rank-0", "rank-gap", "short-hit", "rank-fraction", "rank-float", "rank-bool",
            "rank-str", "doc-id-int", "doc-id-empty", "score-str", "score-nan", "score-inf",
            "score-null", "score-bool", "score-int-beyond-float-range",
            "score-increases", "score-rises-above-zero", "hit-object", "second-hit-short",
            "long-hit", "hit-string", "hit-number", "first-fault-reported",
        ],
    )
    def test_load_rejects_broken_ranked_list(self, tmp_path, hits, message):
        path = tmp_path / "run.jsonl"
        write_run_log(self._record(), path)
        lines = path.read_text().splitlines(keepends=True)
        rec = json.loads(lines[2])
        assert rec["query_id"] == "Q2"
        rec["hits"] = hits
        lines[2] = json.dumps(rec) + "\n"
        path.write_text("".join(lines))
        with pytest.raises(RunLogFormatError, match=re.escape(f"{path}:3: {message}")):
            load_run_log(path)

    def test_load_rejects_more_hits_than_max_depth(self, tmp_path):
        # Loaded, a third hit would count towards recall@2: with the only
        # relevant id at rank 3, recall would read 1.0.
        path = tmp_path / "run.jsonl"
        record = self._record()
        write_run_log(replace(record, controls=replace(record.controls, max_depth=2)), path)
        lines = path.read_text().splitlines(keepends=True)
        rec = json.loads(lines[2])
        rec["hits"] = [["US1A", 0.9, 1], ["US2A", 0.8, 2]]
        lines[2] = json.dumps(rec) + "\n"
        path.write_text("".join(lines))
        assert len(load_run_log(path).results[rec["query_id"]].doc_ids) == 2
        rec["hits"].append(["US3A", 0.7, 3])
        lines[2] = json.dumps(rec) + "\n"
        path.write_text("".join(lines))
        message = f"{path}:3: 3 hits for query {rec['query_id']!r}, but the run_header's max_depth is 2"
        with pytest.raises(RunLogFormatError, match=re.escape(message)):
            load_run_log(path)

    def test_load_rejects_ranked_list_before_header(self, tmp_path):
        path = tmp_path / "run.jsonl"
        write_run_log(self._record(), path)
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[1:2] + lines[:1] + lines[2:]))
        with pytest.raises(
            RunLogFormatError, match=re.escape(f"{path}:1: ranked_list before the run_header record")
        ):
            load_run_log(path)

    def test_load_rejects_second_header(self, tmp_path):
        # A second header would replace the manifest hash and the max_depth
        # that the lists before it were checked against.
        path = tmp_path / "run.jsonl"
        write_run_log(self._record(), path)
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:2] + lines[:1] + lines[2:]))
        with pytest.raises(RunLogFormatError, match=re.escape(f"{path}:3: second run_header record")):
            load_run_log(path)

    def test_load_rejects_repeated_ranked_list(self, tmp_path):
        path = tmp_path / "run.jsonl"
        write_run_log(self._record(), path)
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines + lines[1:2]))
        with pytest.raises(
            RunLogFormatError, match=re.escape(f"{path}:5: second ranked_list for query 'Q1'")
        ):
            load_run_log(path)

    @pytest.mark.parametrize(
        "key, value",
        [("max_depth", 100.5), ("max_depth", "100"), ("max_depth", True), ("seed", None),
         ("timeout_ms", 1e3), ("adapter_id", None), ("parallelism", "2")],
    )
    def test_load_rejects_control_of_the_wrong_type(self, tmp_path, key, value):
        # int() once truncated 100.5 and read "100", and str() made null "None".
        path = tmp_path / "run.jsonl"
        write_run_log(self._record(), path)
        lines = path.read_text().splitlines(keepends=True)
        header = json.loads(lines[0])
        header["controls"][key] = value
        path.write_text(json.dumps(header) + "\n" + "".join(lines[1:]))
        with pytest.raises(RunLogFormatError, match=re.escape(f"{path}:1: field {key!r} must be ")):
            load_run_log(path)

    @pytest.mark.parametrize(
        "key, rule",
        [("timeout_ms", "timeout_ms must be positive"),
         ("max_depth", "max_depth must be at least 1"),
         ("parallelism", "parallelism must be at least 1")],
    )
    def test_load_rejects_controls_that_break_their_rules(self, tmp_path, key, rule):
        # The controls are built, checks and all, as the header is read.
        path = tmp_path / "run.jsonl"
        write_run_log(self._record(), path)
        lines = path.read_text().splitlines(keepends=True)
        header = json.loads(lines[0])
        header["controls"][key] = 0
        path.write_text(json.dumps(header) + "\n" + "".join(lines[1:]))
        with pytest.raises(RunLogFormatError, match=f"^{re.escape(f'{path}:1: {rule}')}$"):
            load_run_log(path)

    @pytest.mark.parametrize("key", ["seed", "timeout_ms", "max_depth"])
    def test_load_requires_controls_with_defaults(self, tmp_path, key):
        path = tmp_path / "run.jsonl"
        write_run_log(self._record(), path)
        lines = path.read_text().splitlines(keepends=True)
        header = json.loads(lines[0])
        del header["controls"][key]
        path.write_text(json.dumps(header) + "\n" + "".join(lines[1:]))
        with pytest.raises(RunLogFormatError, match=re.escape(f"{path}:1: ")):
            load_run_log(path)

    def test_load_rejects_unknown_kind_and_empty_file(self, tmp_path):
        path = tmp_path / "run.jsonl"
        write_run_log(self._record(), path)
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:1] + ['{"kind": "mystery"}\n'] + lines[1:]))
        with pytest.raises(RunLogFormatError, match=re.escape(f"{path}:2: unknown record kind 'mystery'")):
            load_run_log(path)
        path.write_text("\n")
        with pytest.raises(RunLogFormatError, match=re.escape(f"{path}: missing run_header record")):
            load_run_log(path)

    @pytest.mark.parametrize(
        "line, key, value",
        [
            (0, "dataset_manifest_hash", None),
            (0, "dataset_manifest_hash", 5),
            (0, "started", 5),
            (0, "finished", None),
            (0, "anomaly_count", 2.9),
            (0, "anomaly_count", -1),
            (0, "anomaly_count", True),
            (0, "anomaly_count", "2"),
            (1, "query_id", 5),
            (1, "query_id", None),
            (1, "status", 5),
            (1, "status", ["OK"]),
            (1, "latency_ms", "7"),
            (1, "latency_ms", -1),
            (1, "latency_ms", 7.0),
            (1, "latency_ms", False),
            (0, "controls", None),
            (0, "controls", [["seed", 11]]),
            (1, "hits", 5),
            (1, "hits", {"US1A": 0.9}),
        ],
    )
    def test_load_rejects_field_of_the_wrong_type(self, tmp_path, line, key, value):
        # int() once read 2.9 as 2 and "7" as 7, and a null hash or an
        # integer query id loaded unchecked.
        path = tmp_path / "run.jsonl"
        write_run_log(self._record(), path)
        lines = path.read_text().splitlines(keepends=True)
        rec = json.loads(lines[line])
        rec[key] = value
        lines[line] = json.dumps(rec) + "\n"
        path.write_text("".join(lines))
        with pytest.raises(
            RunLogFormatError, match=re.escape(f"{path}:{line + 1}: field {key!r} must be ")
        ):
            load_run_log(path)

    def test_load_keeps_defaults_of_left_out_fields(self, tmp_path):
        path = tmp_path / "run.jsonl"
        write_run_log(self._record(), path)
        lines = path.read_text().splitlines(keepends=True)
        header, first = json.loads(lines[0]), json.loads(lines[1])
        for key in ("started", "finished", "anomaly_count"):
            del header[key]
        del first["latency_ms"]
        lines[:2] = [json.dumps(header) + "\n", json.dumps(first) + "\n"]
        path.write_text("".join(lines))
        loaded = load_run_log(path)
        assert (loaded.started, loaded.finished, loaded.anomaly_count) == ("", "", 0)
        assert loaded.results[first["query_id"]].latency_ms == 0
        for key in ("dataset_manifest_hash", "query_id", "status"):
            rec = json.loads(lines[0] if key == "dataset_manifest_hash" else lines[1])
            del rec[key]
            line = 0 if key == "dataset_manifest_hash" else 1
            broken = lines[:line] + [json.dumps(rec) + "\n"] + lines[line + 1:]
            path.write_text("".join(broken))
            with pytest.raises(
                RunLogFormatError, match=re.escape(f"{path}:{line + 1}: missing field {key!r}")
            ):
                load_run_log(path)

    @pytest.mark.parametrize(
        "doc_ids, scores",
        [
            (("US1A", "CN-雷达1", "DE-Größe2", "JP\u3000３"), (1.7976931348623157e308, 1.0, 5e-324, -0.0)),
            (("EP\U0001f600", 'US"1"A', "US\\1A"), (0.0, -0.0, -1.7976931348623157e308)),
            ((), ()),
        ],
    )
    def test_log_line_is_json_dumps(self, doc_ids, scores):
        from patbench.corpus import encode_line
        from patbench.execution import _log_records

        ranked = RankedList(query_id="Q-ü1", doc_ids=doc_ids, scores=scores, latency_ms=3)
        record = RunRecord(
            controls=RunControls(seed=1, adapter_id="adaptér"),
            dataset_manifest_hash="h",
            results={"Q-ü1": ranked},
            started="",
            finished="",
        )
        for rec in _log_records(record):
            assert encode_line(rec) == json.dumps(rec, sort_keys=True, ensure_ascii=False)

    def test_load_rejects_header_without_controls(self, tmp_path):
        path = tmp_path / "run.jsonl"
        write_run_log(self._record(), path)
        lines = path.read_text().splitlines(keepends=True)
        header = json.loads(lines[0])
        del header["controls"]
        path.write_text(json.dumps(header) + "\n" + "".join(lines[1:]))
        with pytest.raises(RunLogFormatError, match=re.escape(f"{path}:1: missing field 'controls'")):
            load_run_log(path)
