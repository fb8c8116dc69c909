from __future__ import annotations

import logging
import sys
import threading
import tracemalloc
from collections.abc import Mapping

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    build_eval_dataset,
    build_run,
    scalar_first_ranks,
    scalar_matched_count,
    scalar_paired_bootstrap,
)
from patbench import metrics
from patbench.execution import RankedList
from patbench.metrics import (
    CoverageError,
    UndefinedMetricError,
    detection_curve,
    first_relevant_rank,
    paired_bootstrap,
    paired_bootstrap_outcomes,
    query_outcomes,
    recall,
    topk_detection_rate,
)


def _ranked(qid: str, ids: list[str], status: str = "OK") -> RankedList:
    if status != "OK":
        return RankedList(query_id=qid, status=status)
    scores = tuple(1.0 - i / 100 for i in range(len(ids)))
    return RankedList(query_id=qid, doc_ids=tuple(ids), scores=scores, status=status)


class TestFirstRelevantRank:
    def test_exact_match_rank(self):
        ranked = _ranked("Q", ["US1A", "US2A", "US3A"])
        assert first_relevant_rank(ranked, {"US3A"}) == 3
        assert first_relevant_rank(ranked, {"US2A", "US3A"}) == 2
        assert first_relevant_rank(ranked, {"US9A"}) is None

    def test_non_ok_matches_nothing(self):
        ranked = _ranked("Q", [], status="ERROR")
        assert first_relevant_rank(ranked, {"US1A"}) is None

    def test_family_rule_matches_sibling_publications(self):
        family_of = {"US3A": "F1", "EP3A": "F1", "US9A": "F2"}
        ranked = _ranked("Q", ["US1A", "EP3A"])
        assert first_relevant_rank(ranked, {"US3A"}, "family", family_of) == 2
        assert first_relevant_rank(ranked, {"US3A"}, "exact") is None
        # direct id match still wins at its own rank
        ranked2 = _ranked("Q", ["US3A", "EP3A"])
        assert first_relevant_rank(ranked2, {"US3A"}, "family", family_of) == 1

    def test_family_rule_needs_mapping(self):
        with pytest.raises(ValueError):
            first_relevant_rank(_ranked("Q", ["US1A"]), {"US1A"}, "family", None)
        with pytest.raises(ValueError):
            first_relevant_rank(_ranked("Q", ["US1A"]), {"US1A"}, "fuzzy")


def _four_query_fixture():
    # first relevant at ranks 1, 3, 7, and never
    relevants = {f"Q{i}": {f"R{i}A"} for i in range(4)}
    dataset = build_eval_dataset(relevants)
    lists = {
        "Q0": ["R0A", "X1A", "X2A"],
        "Q1": ["X1A", "X2A", "R1A"],
        "Q2": ["X1A", "X2A", "X3A", "X4A", "X5A", "X6A", "R2A"],
        "Q3": ["X1A", "X2A"],
    }
    return dataset, build_run(dataset, lists)


class TestDetection:
    def test_four_query_oracle(self):
        dataset, run = _four_query_fixture()
        curve = detection_curve(run, dataset, ks=(1, 3, 5, 10))
        assert curve.points == ((1, 0.25), (3, 0.5), (5, 0.5), (10, 0.75))
        assert curve.n_queries == 4
        assert curve.rate_at(3) == 0.5
        with pytest.raises(KeyError):
            curve.rate_at(4)

    def test_rate_matches_curve_point(self):
        dataset, run = _four_query_fixture()
        for k in (1, 3, 5, 10):
            assert topk_detection_rate(run, dataset, k) == detection_curve(
                run, dataset, ks=(k,)
            ).points[0][1]

    def test_monotone_in_k(self):
        dataset, run = _four_query_fixture()
        rates = [r for _, r in detection_curve(run, dataset, ks=tuple(range(1, 31))).points]
        assert all(a <= b for a, b in zip(rates, rates[1:]))

    def test_error_and_timeout_queries_count_as_misses(self):
        relevants = {"Q0": {"R0A"}, "Q1": {"R1A"}}
        dataset = build_eval_dataset(relevants)
        run = build_run(
            dataset, {"Q0": ["R0A"]}, statuses={"Q1": "TIMEOUT"}
        )
        assert topk_detection_rate(run, dataset, 10) == 0.5

    def test_grid_validation(self):
        dataset, run = _four_query_fixture()
        for ks in ((), (3, 1), (1, 1), (0, 5)):
            with pytest.raises(UndefinedMetricError):
                detection_curve(run, dataset, ks=ks)
        with pytest.raises(UndefinedMetricError):
            topk_detection_rate(run, dataset, 0)

    def test_coverage_mismatch_rejected(self):
        dataset, run = _four_query_fixture()
        smaller = build_eval_dataset({"Q0": {"R0A"}})
        with pytest.raises(CoverageError):
            topk_detection_rate(run, smaller, 10)
        with pytest.raises(CoverageError):
            detection_curve(build_run(smaller, {"Q0": ["R0A"]}), dataset)

    def test_family_match_rule_lifts_detection(self):
        relevants = {"Q0": {"US3A"}}
        dataset = build_eval_dataset(relevants)
        run = build_run(dataset, {"Q0": ["EP3A"]})
        family_of = {"US3A": "F1", "EP3A": "F1"}
        assert topk_detection_rate(run, dataset, 10, "exact") == 0.0
        assert topk_detection_rate(run, dataset, 10, "family", family_of) == 1.0


class TestRecall:
    def test_micro_pools_counts(self):
        relevants = {"Q0": {"R0A"}, "Q1": {"R1A", "R2A", "R3A"}}
        dataset = build_eval_dataset(relevants)
        run = build_run(dataset, {"Q0": ["R0A"], "Q1": ["R1A", "X1A"]})
        assert recall(run, dataset) == 0.5  # (1 + 1) / (1 + 3)

    def test_error_results_contribute_zero(self):
        relevants = {"Q0": {"R0A"}, "Q1": {"R1A"}}
        dataset = build_eval_dataset(relevants)
        run = build_run(dataset, {"Q0": ["R0A"]}, statuses={"Q1": "ERROR"})
        assert recall(run, dataset) == 0.5

    def test_family_rule_counts_sibling_retrieval(self):
        relevants = {"Q0": {"US3A", "US4A"}}
        dataset = build_eval_dataset(relevants)
        run = build_run(dataset, {"Q0": ["EP3A", "X1A"]})
        family_of = {"US3A": "F1", "EP3A": "F1"}
        assert recall(run, dataset, "exact") == 0.0
        assert recall(run, dataset, "family", family_of) == 0.5

    def test_empty_dataset_undefined(self):
        dataset = build_eval_dataset({"Q0": {"R0A"}})
        run = build_run(dataset, {})
        empty = build_eval_dataset({})
        with pytest.raises(UndefinedMetricError):
            recall(build_run(empty, {}), empty)
        with pytest.raises(UndefinedMetricError):
            detection_curve(build_run(empty, {}), empty)


class _CountingMapping(Mapping):
    """A read-only mapping that counts its lookups (``get`` goes through
    ``__getitem__``)."""

    def __init__(self, data: dict[str, str]) -> None:
        self._data = data
        self.lookups = 0

    def __getitem__(self, key: str) -> str:
        self.lookups += 1
        return self._data[key]

    def __iter__(self):
        return iter(self._data)

    def __len__(self) -> int:
        return len(self._data)


class TestFamilyRuleWork:
    def test_no_family_lookup_per_hit(self):
        # Four depth-100 lists.  Query i's first relevant document has a
        # sibling planted at rank 10 * i + 5 (none for Q3).  Its second has a
        # sibling that no list holds, and is itself retrieved only by Q1, at
        # rank 61.  Every tenth filler belongs to a family of its own.
        relevants, lists, family_of = {}, {}, {}
        for i in range(4):
            qid = f"Q{i}"
            relevants[qid] = {f"R{i}0A", f"R{i}1A"}
            family_of.update({f"R{i}0A": f"F{i}", f"S{i}0A": f"F{i}"})
            family_of.update({f"R{i}1A": f"H{i}", f"S{i}1A": f"H{i}"})
            fillers = [f"X{i}{j:02d}A" for j in range(100)]
            family_of.update({doc_id: f"G{doc_id}" for doc_id in fillers[::10]})
            if i < 3:
                fillers[10 * i + 4] = f"S{i}0A"
            if i == 1:
                fillers[60] = f"R{i}1A"
            lists[qid] = fillers
        dataset = build_eval_dataset(relevants)
        run = build_run(dataset, lists)
        counting = _CountingMapping(family_of)
        outcomes = query_outcomes(run, dataset, "family", counting)
        n_hits = sum(len(ids) for ids in lists.values())
        assert counting.lookups < n_hits
        assert outcomes.first_rank.tolist() == [
            rank or 0 for rank in scalar_first_ranks(run, dataset, "family", family_of)
        ] == [5, 15, 25, 0]
        assert outcomes.matched.tolist() == [
            scalar_matched_count(run.results[q], relevants[q], "family", family_of)
            for q in dataset.query_ids()
        ] == [1, 2, 1, 0]


    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_empty_family_ids_match_the_scalar_oracle(self, data):
        # Ids draw their family from a pool where "" (no family) is common;
        # two documents with "" share no family.
        ids = [f"D{i}A" for i in range(10)]
        family_of = data.draw(
            st.dictionaries(st.sampled_from(ids), st.sampled_from(["", "", "F1", "F2"]))
        )
        relevants = {
            f"Q{q}": set(data.draw(st.lists(st.sampled_from(ids), min_size=1, max_size=3)))
            for q in range(3)
        }
        lists = {
            qid: data.draw(st.lists(st.sampled_from(ids), unique=True, max_size=6))
            for qid in relevants
        }
        dataset = build_eval_dataset(relevants)
        run = build_run(dataset, lists)
        outcomes = query_outcomes(run, dataset, "family", family_of)
        assert outcomes.first_rank.tolist() == [
            rank or 0 for rank in scalar_first_ranks(run, dataset, "family", family_of)
        ]
        assert outcomes.matched.tolist() == [
            scalar_matched_count(run.results[q], relevants[q], "family", family_of)
            for q in dataset.query_ids()
        ]

    def test_empty_family_id_is_no_family(self):
        family_of = {"R1A": "", "D1A": "", "R2A": "F1", "D2A": "F1"}
        dataset = build_eval_dataset({"Q1": {"R1A"}, "Q2": {"R2A"}})
        run = build_run(dataset, {"Q1": ["D1A"], "Q2": ["D1A", "D2A"]})
        outcomes = query_outcomes(run, dataset, "family", family_of)
        assert outcomes.first_rank.tolist() == [0, 2]
        assert outcomes.matched.tolist() == [0, 1]


def _paired_fixture(u_map: dict[str, tuple[bool, bool]], strata=None):
    """u_map: query -> (system A hits top-k, system B hits top-k)."""
    relevants = {qid: {f"{qid}.R"} for qid in u_map}
    dataset = build_eval_dataset(relevants, strata=strata)
    lists_a = {qid: [f"{qid}.R"] if hit_a else ["X0A"] for qid, (hit_a, _) in u_map.items()}
    lists_b = {qid: [f"{qid}.R"] if hit_b else ["X0A"] for qid, (_, hit_b) in u_map.items()}
    return dataset, build_run(dataset, lists_a), build_run(dataset, lists_b)


class TestPairedBootstrap:
    def test_identical_runs_have_p_one(self):
        u_map = {f"Q{i}": (i % 2 == 0, i % 2 == 0) for i in range(12)}
        dataset, run_a, run_b = _paired_fixture(u_map)
        result = paired_bootstrap(
            run_a, run_b, dataset, k=10, n_resamples=1000, strata_dims=()
        )
        assert result.observed_diff == 0.0
        assert result.p_value == 1.0

    def test_one_sided_runs_give_the_smallest_p(self):
        # A hits and B misses on every query, so every resampled diff is 1.0:
        # none opposes the observed sign, and p = 2 * (0 + 1) / (B + 1).
        u_map = {f"Q{i}": (True, False) for i in range(6)}
        dataset, run_a, run_b = _paired_fixture(u_map)
        result = paired_bootstrap(
            run_a, run_b, dataset, k=10, n_resamples=1000, strata_dims=()
        )
        assert result.p_value == 2 / 1001
        assert (result.ci_low, result.ci_high) == (1.0, 1.0)

    def test_same_seed_reproduces_sampled_mode(self):
        u_map = {f"Q{i:02d}": (i % 3 != 0, i % 4 == 0) for i in range(30)}
        dataset, run_a, run_b = _paired_fixture(u_map)
        kw = dict(k=10, n_resamples=2000, strata_dims=())
        r1 = paired_bootstrap(run_a, run_b, dataset, seed=42, **kw)
        r2 = paired_bootstrap(run_a, run_b, dataset, seed=42, **kw)
        assert (r1.p_value, r1.ci_low, r1.ci_high) == (r2.p_value, r2.ci_low, r2.ci_high)

    def test_seed_moves_the_resample_stream(self):
        u_map = {f"Q{i:02d}": (i % 3 != 0, i % 4 == 0) for i in range(30)}
        dataset, run_a, run_b = _paired_fixture(u_map)
        kw = dict(k=10, n_resamples=1000, strata_dims=())
        outcomes = {
            (r.p_value, r.ci_low, r.ci_high)
            for r in (
                paired_bootstrap(run_a, run_b, dataset, seed=s, **kw) for s in range(10)
            )
        }
        assert len(outcomes) >= 3

    def test_stratified_resampling_preserves_composition(self):
        # zh stratum: u = 0 on every query; en stratum: u = +1 on every query.
        # Within-stratum resampling keeps 3 queries of each, so every
        # resampled diff is exactly 0.5 and the CI collapses to a point.
        u_map = {}
        strata = {}
        for i in range(3):
            u_map[f"CNQ{i}"] = (True, True)
            strata[f"CNQ{i}"] = {"language": "zh", "ipc_section": "G", "jurisdiction": "CN"}
        for i in range(3):
            u_map[f"USQ{i}"] = (True, False)
            strata[f"USQ{i}"] = {"language": "en", "ipc_section": "G", "jurisdiction": "US"}
        dataset, run_a, run_b = _paired_fixture(u_map, strata=strata)
        stratified = paired_bootstrap(
            run_a, run_b, dataset, k=10, n_resamples=1000, strata_dims=("language",)
        )
        assert (stratified.ci_low, stratified.ci_high) == (0.5, 0.5)
        assert stratified.strata_spec == "language (2 strata)"
        pooled = paired_bootstrap(
            run_a, run_b, dataset, k=10, n_resamples=1000, strata_dims=()
        )
        assert (pooled.ci_low, pooled.ci_high) != (0.5, 0.5)

    def test_small_strata_merge_with_warning(self, caplog):
        u_map = {f"Q{i}": (True, False) for i in range(5)}
        strata = {
            f"Q{i}": {"language": "en", "ipc_section": "G", "jurisdiction": "US"}
            for i in range(4)
        }
        strata["Q4"] = {"language": "zh", "ipc_section": "G", "jurisdiction": "CN"}
        dataset, run_a, run_b = _paired_fixture(u_map, strata=strata)
        with caplog.at_level(logging.WARNING, logger="patbench.metrics"):
            result = paired_bootstrap(
                run_a, run_b, dataset, k=10, n_resamples=1000, strata_dims=("language",)
            )
        assert any("catch-all" in rec.message for rec in caplog.records)
        assert result.strata_spec == "language (2 strata)"

    def test_resample_floor_enforced(self):
        dataset, run_a, run_b = _paired_fixture({"Q0": (True, False), "Q1": (True, True)})
        with pytest.raises(ValueError):
            paired_bootstrap(run_a, run_b, dataset, n_resamples=500)

    def test_coverage_checked_for_both_runs(self):
        dataset, run_a, run_b = _paired_fixture({"Q0": (True, False), "Q1": (True, True)})
        other = build_eval_dataset({"Q0": {"Q0.R"}})
        run_other = build_run(other, {"Q0": ["Q0.R"]})
        with pytest.raises(CoverageError):
            paired_bootstrap(run_a, run_other, dataset, n_resamples=1000)

    # Tables of 1 and 10 rows, and two tables of 12 rows over two datasets
    # built alike: neither pair shares one dataset object.
    @pytest.mark.parametrize("rows_a, rows_b", [(1, 10), (12, 12)])
    def test_outcome_tables_must_match_the_dataset(self, rows_a, rows_b):
        def table(n):
            dataset, run, _ = _paired_fixture({f"Q{i:02d}": (i % 2 == 0, False) for i in range(n)})
            return query_outcomes(run, dataset)

        with pytest.raises(ValueError, match="different datasets"):
            paired_bootstrap_outcomes(
                table(rows_a), table(rows_b), (("detection", 1),),
                strata_dims=(), n_resamples=1000,
            )

    # Ten rows each and equal manifests, but of queries Q0-Q9 and Z0-Z9: the
    # rows of one table are not the queries of the other.
    def test_outcome_tables_of_another_dataset_rejected(self):
        other, _, run_b = _paired_fixture({f"Z{i}": (False, True) for i in range(10)})
        dataset, run_a, _ = _paired_fixture({f"Q{i}": (True, False) for i in range(10)})
        assert other.build_manifest == dataset.build_manifest
        with pytest.raises(ValueError, match="different datasets"):
            paired_bootstrap_outcomes(
                query_outcomes(run_a, dataset), query_outcomes(run_b, other),
                (("detection", 1),), strata_dims=(), n_resamples=1000,
            )

    def test_unknown_metric_rejected(self):
        dataset, run_a, run_b = _paired_fixture({"Q0": (True, False), "Q1": (True, True)})
        with pytest.raises(UndefinedMetricError):
            paired_bootstrap(
                run_a, run_b, dataset, metric="ndcg", n_resamples=1000, strata_dims=()
            )


def _mixed_strata_fixture():
    """17 queries in strata of 9, 5 and 3, each with one to three relevant
    documents, found at varying ranks by two runs."""
    relevants, strata, lists_a, lists_b = {}, {}, {}, {}
    for i, language in enumerate(["en"] * 9 + ["zh"] * 5 + ["de"] * 3):
        qid = f"Q{i:02d}"
        relevants[qid] = {f"R{i}{j}A" for j in range(1 + i % 3)}
        strata[qid] = {"language": language, "ipc_section": "G", "jurisdiction": "US"}
        lists_a[qid] = [f"X{j}A" for j in range(i % 4)] + sorted(relevants[qid])[: 1 + i % 2]
        lists_b[qid] = sorted(relevants[qid])[i % 3 :] + ["X9A"]
    dataset = build_eval_dataset(relevants, strata=strata)
    return dataset, build_run(dataset, lists_a), build_run(dataset, lists_b)


def _wide_contributions_fixture():
    """12 queries in strata of 6, each with two to five relevant documents;
    each run retrieves more of them than the other on some queries, so both
    the detection and the recall differences take negative values."""
    relevants, strata, lists_a, lists_b = {}, {}, {}, {}
    for i in range(12):
        qid = f"Q{i:02d}"
        ids = sorted(f"R{i}{j}A" for j in range(2 + i % 4))
        relevants[qid] = set(ids)
        language = "en" if i < 6 else "zh"
        strata[qid] = {"language": language, "ipc_section": "G", "jurisdiction": "US"}
        lists_a[qid] = [f"X{j}A" for j in range(i % 3)] + ids[: 2 * i % (len(ids) + 1)]
        lists_b[qid] = ids[(i + 1) % len(ids) :] + ["X9A"]
    dataset = build_eval_dataset(relevants, strata=strata)
    return dataset, build_run(dataset, lists_a), build_run(dataset, lists_b)


def _kernel_result_and_oracle(dataset, run_a, run_b):
    spec = dict(strata_dims=("language",), n_resamples=1000, seed=11)
    metric_list = (("detection", 2), ("recall", None))
    got = paired_bootstrap_outcomes(
        query_outcomes(run_a, dataset), query_outcomes(run_b, dataset), metric_list, **spec
    )
    expected = tuple(
        scalar_paired_bootstrap(
            run_a, run_b, dataset, metric=metric, k=k, match_rule="exact",
            family_of=None, **spec,
        )
        for metric, k in metric_list
    )
    return got, expected


def _stratified_runs(n_strata, per_stratum):
    """Queries in ``n_strata`` languages; run A finds every second query's
    relevant document, run B every third."""
    n = n_strata * per_stratum
    qids = [f"Q{i:05d}" for i in range(n)]
    strata = {
        qid: {"language": f"L{i % n_strata}", "ipc_section": "G", "jurisdiction": "US"}
        for i, qid in enumerate(qids)
    }
    dataset = build_eval_dataset({qid: {f"R{i}A"} for i, qid in enumerate(qids)}, strata=strata)
    run_a = build_run(dataset, {qid: [f"R{i}A"] for i, qid in enumerate(qids) if i % 2 == 0})
    run_b = build_run(dataset, {qid: [f"R{i}A"] for i, qid in enumerate(qids) if i % 3 == 0})
    return dataset, run_a, run_b


def _traced_peak(dataset, run_a, run_b, strata_dims, n_resamples=1000):
    """tracemalloc peak of one bootstrap call on two prepared outcome tables."""
    outcomes = (query_outcomes(run_a, dataset), query_outcomes(run_b, dataset))
    tracemalloc.start()
    try:
        paired_bootstrap_outcomes(
            *outcomes, (("detection", 1), ("recall", None)),
            strata_dims=strata_dims, n_resamples=n_resamples,
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


class TestBootstrapKernel:
    @pytest.mark.parametrize("draws", [1, 7, 64, 5400, 1 << 14])
    def test_chunk_size_does_not_change_results(self, monkeypatch, draws):
        # With one worker, 1 and 7 give one resample per chunk of the
        # 9-query stratum; 64 gives chunks of 7, 12 and 21 resamples, none
        # dividing 1000.  5400 gives the 9-query stratum a chunk of 600 and a
        # short last one of 400, and the other strata one chunk each; 1 << 14
        # gives every stratum one chunk, its buffer capped at 1000 rows.
        monkeypatch.setattr(metrics, "_bootstrap_workers", lambda n_strata: 1)
        monkeypatch.setattr(metrics, "_BOOTSTRAP_DRAWS", draws)
        got, expected = _kernel_result_and_oracle(*_mixed_strata_fixture())
        assert repr(got) == repr(expected)

    @pytest.mark.parametrize("workers", [1, 2, 7])
    def test_thread_count_does_not_change_results(self, monkeypatch, workers):
        # Seven workers for three strata is more threads than tasks and than
        # the two cores this was written on.  Small chunks and a short switch
        # interval interleave the workers' adds into the shared sums, so a
        # lost update would change the result.
        monkeypatch.setattr(metrics, "_bootstrap_workers", lambda n_strata: workers)
        monkeypatch.setattr(metrics, "_BOOTSTRAP_DRAWS", 64 * workers)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got, expected = _kernel_result_and_oracle(*_mixed_strata_fixture())
        finally:
            sys.setswitchinterval(interval)
        assert repr(got) == repr(expected)

    @pytest.mark.parametrize("bits, words", [(6, 3), (8, 2), (63, 1)])
    def test_word_packing_does_not_change_results(self, monkeypatch, bits, words):
        # Each stratum's four fields are 3, 4 or 5, 0 and 5 bits wide.
        monkeypatch.setattr(metrics, "_PACKED_WORD_BITS", bits)
        pack = metrics._pack_columns
        n_words = []

        def counting_pack(values):
            packed, fields = pack(values)
            n_words.append(len(packed))
            return packed, fields

        monkeypatch.setattr(metrics, "_pack_columns", counting_pack)
        got, expected = _kernel_result_and_oracle(*_wide_contributions_fixture())
        assert repr(got) == repr(expected)
        assert n_words == [words, words]

    def test_field_wider_than_a_word_rejected(self, monkeypatch):
        monkeypatch.setattr(metrics, "_PACKED_WORD_BITS", 4)
        with pytest.raises(ValueError, match="bits"):
            _kernel_result_and_oracle(*_wide_contributions_fixture())

    def test_working_memory_at_the_default_resample_count(self, monkeypatch):
        # About 3,000 queries in 12 strata, at the CLI's 10,000 resamples.
        # Two workers, so that the bound does not depend on the host's CPU
        # count: besides its share of the draw budget, each worker holds its
        # stratum's word sums, 8 bytes per resample and word.  A first,
        # untraced call imports what numpy loads lazily (numpy.random, and
        # numpy.ma through np.percentile).
        monkeypatch.setattr(metrics, "_bootstrap_workers", lambda n_strata: 2)
        runs = _stratified_runs(12, 250)
        _traced_peak(*runs, strata_dims=("language",))
        peak = _traced_peak(*runs, strata_dims=("language",), n_resamples=10_000)
        assert peak < 2 * 2**20

    def test_working_memory_does_not_grow_with_stratum_size(self):
        assert _traced_peak(*_stratified_runs(1, 20_000), strata_dims=()) < 16 * 2**20

    def test_working_memory_does_not_grow_with_thread_count(self, monkeypatch):
        # One worker per stratum: eight chunks in flight at once share the
        # draw budget of one.
        monkeypatch.setattr(metrics, "_bootstrap_workers", lambda n_strata: n_strata)
        threads = threading.active_count()
        peak = _traced_peak(*_stratified_runs(8, 2_500), strata_dims=("language",))
        assert peak < 16 * 2**20
        assert threading.active_count() == threads
