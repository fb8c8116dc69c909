from __future__ import annotations

import json
import math
import re
import threading
import time
import tracemalloc
from collections import Counter
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest
import requests
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    make_corpus,
    make_doc,
    scalar_normalize_doc_id,
    scalar_reference_retrieve,
    scalar_standardize_results,
)
from patbench.dataset import EvaluationDataset, QueryCase
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
    return Query(
        query_id=query_id,
        text=text,
        language="en",
        char_length=len(text),
        truncated=False,
    )


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
_RAW_IDS = st.one_of(
    _GOOD_IDS,
    st.sampled_from(["??", "", "-X1"]),
    st.text(max_size=6),
    st.integers(),
    st.none(),
    st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
)
_RAW_SCORES = st.one_of(
    st.none(),
    st.floats(min_value=0.0, max_value=10.0),
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(),
    st.booleans(),
    st.text(max_size=3),
)
_RAW_HITS = st.one_of(
    st.tuples(_GOOD_IDS, _RAW_SCORES),
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
        for parallelism in (1, 4):
            record = run_evaluation(
                dataset,
                ListAdapter(mapping),
                RunControls(seed=0, parallelism=parallelism, adapter_id="list"),
                queries=queries,
            )
            path = tmp_path / f"run_p{parallelism}.jsonl"
            write_run_log(record, path)
            logs.append(sanitize_run_log(path))
        assert logs[0] == logs[1]

    def test_controls_validation(self):
        with pytest.raises(ValueError):
            RunControls(seed=0, timeout_ms=0)
        with pytest.raises(ValueError):
            RunControls(seed=0, max_depth=0)
        with pytest.raises(ValueError):
            RunControls(seed=0, parallelism=0)

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
        assert tuple(h.score for h in hits) == ranked.scores
        assert RankedList(query_id="Q").hits == ()

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

    def _send(self, status: int, body: dict | str):
        payload = body.encode() if isinstance(body, str) else json.dumps(body).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def _read_json(self) -> dict:
        n = int(self.headers.get("Content-Length", 0))
        return json.loads(self.rfile.read(n) or b"{}")

    def do_POST(self):
        body = self._read_json()
        if self.path == "/ok":
            depth = int(body.get("max_depth", 5))
            hits = [
                {"doc_id": f"us{i}a", "score": round(1.0 - i / 100, 4)}
                for i in range(depth)
            ]
            self._send(200, {"hits": hits})
        elif self.path == "/nested":
            self._send(200, {"data": {"results": [{"id": "US7A", "conf": 0.7}]}})
        elif self.path == "/auth":
            self._send(
                200,
                {"hits": [{"doc_id": self.headers.get("Authorization", ""), "score": 1.0}]},
            )
        elif self.path == "/boom":
            self._send(500, "kaboom: internal index corrupt")
        elif self.path == "/notjson":
            self._send(200, "this is not json")
        elif self.path == "/slow":
            time.sleep(0.4)
            self._send(200, {"hits": []})
        else:
            self._send(404, "no such route")

    def do_GET(self):
        from urllib.parse import parse_qs, urlparse

        parsed = urlparse(self.path)
        if parsed.path == "/get":
            params = parse_qs(parsed.query)
            depth = int(params.get("max_depth", ["3"])[0])
            self._send(200, {"hits": [f"G{i}A" for i in range(depth)]})
        else:
            self._send(404, "no such route")


@pytest.fixture(scope="module")
def stub_server():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _StubHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_address[1]}"
    server.shutdown()
    server.server_close()
    thread.join(timeout=10)
    assert not thread.is_alive()


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

    def test_timeout_maps_to_adapter_timeout(self, stub_server):
        config = _remote_config(stub_server + "/slow")
        with pytest.raises(AdapterTimeout):
            remote_adapter_query(config, _query("Q1"), RunControls(seed=0, timeout_ms=100))

    def test_get_uses_query_params(self, stub_server):
        config = _remote_config(stub_server + "/get", method="GET")
        raw = remote_adapter_query(config, _query("Q1"), RunControls(seed=0, max_depth=2))
        assert raw == [("G0A", None), ("G1A", None)]

    def test_connection_errors_retry_then_succeed(self, monkeypatch):
        attempts = []

        class FakeResponse:
            ok = True
            status_code = 200
            text = "{}"

            def json(self):
                return {"hits": [{"doc_id": "US1A", "score": 1.0}]}

        def fake_request(method, url, **kwargs):
            attempts.append(method)
            if len(attempts) < 3:
                raise requests.ConnectionError("refused")
            return FakeResponse()

        monkeypatch.setattr(requests, "request", fake_request)
        config = _remote_config("http://invalid.test/ok", max_retries=2)
        raw = remote_adapter_query(config, _query("Q1"), RunControls(seed=0))
        assert raw == [("US1A", 1.0)]
        assert len(attempts) == 3

    def test_connection_errors_exhaust_retries(self, monkeypatch):
        attempts = []

        def fake_request(method, url, **kwargs):
            attempts.append(method)
            raise requests.ConnectionError("refused")

        monkeypatch.setattr(requests, "request", fake_request)
        config = _remote_config("http://invalid.test/ok", max_retries=1)
        with pytest.raises(AdapterError) as err:
            remote_adapter_query(config, _query("Q1"), RunControls(seed=0))
        assert len(attempts) == 2
        assert "transport failure" in str(err.value)

    def test_timeout_and_http_errors_are_not_retried(self, monkeypatch):
        attempts = []

        def fake_timeout(method, url, **kwargs):
            attempts.append(method)
            raise requests.Timeout("too slow")

        monkeypatch.setattr(requests, "request", fake_timeout)
        config = _remote_config("http://invalid.test/ok", max_retries=5)
        with pytest.raises(AdapterTimeout):
            remote_adapter_query(config, _query("Q1"), RunControls(seed=0))
        assert len(attempts) == 1

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
        bad.write_text(json.dumps({"adapter_id": "x", "url": "u", "surprise": 1}))
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
        # column, a slot in the score column and its float, not also a Hit
        # tuple or its own copy of the id string (166 B per hit with both,
        # 107 B with Hit tuples of shared ids, 44 B in columns).
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
        assert retained / n_hits < 60

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

    def test_load_rejects_headerless_file(self, tmp_path):
        path = tmp_path / "broken.jsonl"
        path.write_text('{"kind":"ranked_list","query_id":"Q1","status":"OK","hits":[]}\n')
        with pytest.raises(ValueError):
            load_run_log(path)

    @pytest.mark.parametrize(
        "hits",
        [
            [["US1A", 0.9, 0]],
            [["US1A", 0.9, 1], ["US2A", 0.8, 3]],
            [["US1A", 0.9]],
            [["US1A", 0.9, 1.5]],
            [["US1A", 0.9, 1.0]],
            [["US1A", 0.9, True]],
            [["US1A", 0.9, "1"]],
            [[123, 0.9, 1]],
            [["", 0.9, 1]],
            [["US1A", "nan", 1]],
            [["US1A", float("nan"), 1]],
            [["US1A", float("inf"), 1]],
            [["US1A", None, 1]],
            [["US1A", True, 1]],
            [["US1A", 10**400, 1]],
        ],
        ids=[
            "rank-0", "rank-gap", "short-hit", "rank-fraction", "rank-float", "rank-bool",
            "rank-str", "doc-id-int", "doc-id-empty", "score-str", "score-nan", "score-inf",
            "score-null", "score-bool", "score-int-beyond-float-range",
        ],
    )
    def test_load_rejects_broken_ranked_list(self, tmp_path, hits):
        path = tmp_path / "run.jsonl"
        write_run_log(self._record(), path)
        lines = path.read_text().splitlines(keepends=True)
        rec = json.loads(lines[2])
        rec["hits"] = hits
        lines[2] = json.dumps(rec) + "\n"
        path.write_text("".join(lines))
        with pytest.raises(RunLogFormatError, match=re.escape(f"{path}:3: ")):
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

    def test_load_rejects_header_without_controls(self, tmp_path):
        path = tmp_path / "run.jsonl"
        write_run_log(self._record(), path)
        lines = path.read_text().splitlines(keepends=True)
        header = json.loads(lines[0])
        del header["controls"]
        path.write_text(json.dumps(header) + "\n" + "".join(lines[1:]))
        with pytest.raises(RunLogFormatError, match=re.escape(f"{path}:1: missing field 'controls'")):
            load_run_log(path)
