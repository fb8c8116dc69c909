from __future__ import annotations

import csv
import dataclasses
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    build_eval_dataset,
    build_run,
    make_corpus,
    make_doc,
    scalar_breakdown_by,
    scalar_compare_systems,
    scalar_cross_language_recall,
    scalar_first_relevant_rank,
    scalar_recall,
)
from patbench.metrics import (
    UndefinedMetricError,
    detection_curve,
    first_relevant_rank,
    paired_bootstrap,
    query_outcomes,
    recall,
    topk_detection_rate,
)
from patbench.report import (
    OVERALL_DIMENSION,
    REPORT_DIMENSIONS,
    IntegrityMismatchError,
    MetricsReport,
    breakdown_by,
    compare_systems,
    cross_language_recall,
    emit_report,
    evaluate_run,
)

KS = (1, 5, 10)


def _six_query_fixture():
    """4 en + 2 zh queries, 2 relevant docs each, zh strictly easier."""
    relevants = {}
    strata = {}
    for qid in ("E0", "E1", "E2", "E3"):
        relevants[qid] = {f"{qid}.R1", f"{qid}.R2"}
        strata[qid] = {"language": "en", "ipc_section": "G", "jurisdiction": "US"}
    for qid in ("Z0", "Z1"):
        relevants[qid] = {f"{qid}.R1", f"{qid}.R2"}
        strata[qid] = {"language": "zh", "ipc_section": "H", "jurisdiction": "CN"}
    dataset = build_eval_dataset(relevants, strata=strata)
    fill = [f"X{i}A" for i in range(1, 11)]
    lists = {
        "E0": ["E0.R1", "E0.R2"],            # first hit rank 1, 2/2 retrieved
        "E1": fill[:4] + ["E1.R1"],          # rank 5, 1/2
        "E2": fill[:10] + ["E2.R1"],         # rank 11, 1/2
        "E3": fill[:1],                      # never, 0/2
        "Z0": ["Z0.R1", "Z0.R2"],            # rank 1, 2/2
        "Z1": fill[:1] + ["Z1.R1"],          # rank 2, 1/2
    }
    return dataset, build_run(dataset, lists)


class TestBreakdown:
    def test_rows_and_totals_hand_checked(self):
        dataset, run = _six_query_fixture()
        table = breakdown_by(run, dataset, "language", ks=KS)
        assert [r.stratum for r in table.rows] == ["en", "zh"]
        en, zh = table.rows
        assert en.n_queries == 4
        assert en.hit_counts == (1, 2, 2)
        assert en.rates == (0.25, 0.5, 0.5)
        assert (en.recall_numerator, en.recall_denominator) == (4, 8)
        assert en.recall == 0.5
        assert zh.n_queries == 2
        assert zh.hit_counts == (1, 2, 2)
        assert zh.rates == (0.5, 1.0, 1.0)
        assert (zh.recall_numerator, zh.recall_denominator) == (3, 4)
        assert table.totals.hit_counts == (2, 4, 4)
        assert table.totals.rates == (2 / 6, 4 / 6, 4 / 6)
        assert table.totals.recall == 7 / 12

    def test_slice_consistency_is_exact_integer_identity(self):
        dataset, run = _six_query_fixture()
        for dimension in ("language", "ipc_section", "jurisdiction"):
            table = breakdown_by(run, dataset, dimension, ks=KS)
            for i in range(len(KS)):
                assert (
                    sum(r.hit_counts[i] for r in table.rows)
                    == table.totals.hit_counts[i]
                )
            assert (
                sum(r.recall_numerator for r in table.rows)
                == table.totals.recall_numerator
            )
            assert (
                sum(r.recall_denominator for r in table.rows)
                == table.totals.recall_denominator
            )
            assert sum(r.n_queries for r in table.rows) == table.totals.n_queries

    def test_totals_equal_overall_table(self):
        dataset, run = _six_query_fixture()
        overall = breakdown_by(run, dataset, "overall", ks=KS)
        assert overall.rows == ()
        for dimension in ("language", "ipc_section", "jurisdiction"):
            table = breakdown_by(run, dataset, dimension, ks=KS)
            assert table.totals == overall.totals

    def test_rows_sorted_by_size_then_label(self):
        relevants = {f"Q{i}": {f"Q{i}.R"} for i in range(6)}
        strata = {}
        for i, jur in enumerate(["US", "US", "CN", "CN", "EP", "AU"]):
            strata[f"Q{i}"] = {"language": "en", "ipc_section": "G", "jurisdiction": jur}
        dataset = build_eval_dataset(relevants, strata=strata)
        run = build_run(dataset, {q: [f"{q}.R"] for q in relevants})
        table = breakdown_by(run, dataset, "jurisdiction", ks=(10,))
        assert [r.stratum for r in table.rows] == ["CN", "US", "AU", "EP"]

    def test_validation(self):
        dataset, run = _six_query_fixture()
        with pytest.raises(ValueError):
            breakdown_by(run, dataset, "decade", ks=KS)
        empty = build_eval_dataset({})
        with pytest.raises(UndefinedMetricError):
            breakdown_by(build_run(empty, {}), empty, "language", ks=KS)


class TestCrossLanguage:
    def _fixture(self):
        relevants = {}
        strata = {}
        lists = {}
        docs = []
        # 5 en queries, each citing 2 zh documents: 10 pairs, 4 retrieved
        retrieved_plan = {"Q0": 2, "Q1": 1, "Q2": 1, "Q3": 0, "Q4": 0}
        for qid, n_got in retrieved_plan.items():
            rids = [f"{qid}.Z1", f"{qid}.Z2"]
            relevants[qid] = set(rids)
            strata[qid] = {"language": "en", "ipc_section": "G", "jurisdiction": "US"}
            lists[qid] = rids[:n_got] + ["X1A"]
            for rid in rids:
                docs.append(make_doc(rid, jurisdiction="CN", language="zh"))
        # one en query with an en relevant, retrieved
        relevants["Q5"] = {"Q5.E1"}
        strata["Q5"] = {"language": "en", "ipc_section": "G", "jurisdiction": "US"}
        lists["Q5"] = ["Q5.E1"]
        docs.append(make_doc("Q5.E1"))
        dataset = build_eval_dataset(relevants, strata=strata)
        return dataset, build_run(dataset, lists), make_corpus(docs)

    def test_cells_hand_checked(self):
        dataset, run, corpus = self._fixture()
        cells = cross_language_recall(run, dataset, corpus)
        by_pair = {(c.query_language, c.relevant_language): c for c in cells}
        assert set(by_pair) == {("en", "zh"), ("en", "en")}
        en_zh = by_pair[("en", "zh")]
        assert (en_zh.n_pairs, en_zh.n_retrieved) == (10, 4)
        assert en_zh.recall == 0.4
        assert by_pair[("en", "en")].recall == 1.0

    def test_monolingual_corpus_has_no_off_diagonal(self):
        relevants = {"Q0": {"R0A"}, "Q1": {"R1A"}}
        dataset = build_eval_dataset(relevants)
        run = build_run(dataset, {"Q0": ["R0A"], "Q1": []})
        corpus = make_corpus([make_doc("R0A"), make_doc("R1A")])
        cells = cross_language_recall(run, dataset, corpus)
        assert [(c.query_language, c.relevant_language) for c in cells] == [("en", "en")]
        assert cells[0].n_pairs == 2
        assert cells[0].recall == 0.5

    def test_relevant_missing_from_corpus_goes_to_unknown(self):
        relevants = {"Q0": {"GHOST1A"}}
        dataset = build_eval_dataset(relevants)
        run = build_run(dataset, {"Q0": []})
        cells = cross_language_recall(run, dataset, make_corpus([]))
        assert cells[0].relevant_language == "unknown"

    def test_family_rule_counts_sibling(self):
        relevants = {"Q0": {"US3A"}}
        dataset = build_eval_dataset(relevants)
        run = build_run(dataset, {"Q0": ["EP3A"]})
        corpus = make_corpus([make_doc("US3A"), make_doc("EP3A")])
        family_of = {"US3A": "F1", "EP3A": "F1"}
        exact = cross_language_recall(run, dataset, corpus)
        family = cross_language_recall(
            run, dataset, corpus, match_rule="family", family_of=family_of
        )
        assert exact[0].n_retrieved == 0
        assert family[0].n_retrieved == 1


@pytest.mark.parametrize(
    "entry",
    [
        lambda run, dataset: query_outcomes(run, dataset),
        lambda run, dataset: topk_detection_rate(run, dataset, 10),
        lambda run, dataset: detection_curve(run, dataset),
        lambda run, dataset: recall(run, dataset),
        lambda run, dataset: paired_bootstrap(run, run, dataset, n_resamples=1000),
        lambda run, dataset: breakdown_by(run, dataset, OVERALL_DIMENSION),
        lambda run, dataset: cross_language_recall(run, dataset, make_corpus([])),
        lambda run, dataset: evaluate_run(run, dataset, make_corpus([])),
        lambda run, dataset: compare_systems(run, run, dataset, n_resamples=1000),
    ],
    ids=[
        "query_outcomes", "topk_detection_rate", "detection_curve", "recall",
        "paired_bootstrap", "breakdown_by", "cross_language_recall", "evaluate_run",
        "compare_systems",
    ],
)
def test_every_metric_is_undefined_on_an_empty_dataset(entry):
    empty = build_eval_dataset({})
    with pytest.raises(UndefinedMetricError, match="empty dataset"):
        entry(build_run(empty, {}), empty)


def _comparison_fixture():
    dataset, run_a = _six_query_fixture()
    # system B finds every first relevant at rank 1 and both docs for Z queries
    lists_b = {
        "E0": ["E0.R1", "E0.R2"],
        "E1": ["E1.R1"],
        "E2": ["E2.R1"],
        "E3": ["X1A"],
        "Z0": ["Z0.R1", "Z0.R2"],
        "Z1": ["Z1.R1", "Z1.R2"],
    }
    run_b = build_run(dataset, lists_b, adapter_id="system-b")
    return dataset, run_a, run_b


class TestCompareSystems:
    def test_deltas_are_b_minus_a(self):
        dataset, run_a, run_b = _comparison_fixture()
        comp = compare_systems(
            run_a, run_b, dataset, ks=KS, n_resamples=1000, strata_dims=()
        )
        # B: hits at rank 1 for 5 of 6 queries at every k
        assert comp.table_b.totals.rates == (5 / 6, 5 / 6, 5 / 6)
        expected = tuple(
            b - a for a, b in zip(comp.table_a.totals.rates, comp.table_b.totals.rates)
        )
        assert comp.deltas == expected
        assert comp.recall_delta == comp.table_b.totals.recall - comp.table_a.totals.recall

    def test_significance_direction_matches_deltas(self):
        dataset, run_a, run_b = _comparison_fixture()
        comp = compare_systems(
            run_a, run_b, dataset, ks=KS, n_resamples=1000, strata_dims=()
        )
        det = next(s for s in comp.significance if s.metric_name == "top10_detection")
        rec = next(s for s in comp.significance if s.metric_name.startswith("recall@"))
        k10_index = KS.index(10)
        # same value along a different float path (indicator sums vs rate
        # subtraction), so compare with a tight tolerance
        assert det.observed_diff == pytest.approx(comp.deltas[k10_index], rel=1e-12)
        assert rec.observed_diff == pytest.approx(comp.recall_delta, rel=1e-12)

    def test_manifest_mismatch_rejected(self):
        dataset, run_a, run_b = _comparison_fixture()
        other = build_eval_dataset({"Q0": {"R0A"}})
        run_other = build_run(other, {"Q0": ["R0A"]})
        with pytest.raises(IntegrityMismatchError):
            compare_systems(run_a, run_other, dataset, ks=KS, n_resamples=1000)
        with pytest.raises(IntegrityMismatchError):
            evaluate_run(run_other, dataset, ks=KS)

    def test_breakdown_dimensions_included(self):
        dataset, run_a, run_b = _comparison_fixture()
        comp = compare_systems(
            run_a,
            run_b,
            dataset,
            ks=KS,
            dimensions=("language",),
            n_resamples=1000,
            strata_dims=(),
        )
        assert [t.dimension for t in comp.breakdowns_a] == ["language"]
        assert [t.dimension for t in comp.breakdowns_b] == ["language"]


def _full_report():
    dataset, run = _six_query_fixture()
    overall = breakdown_by(run, dataset, "overall", ks=KS)
    breakdowns = tuple(
        breakdown_by(run, dataset, dim, ks=KS)
        for dim in ("language", "ipc_section", "jurisdiction")
    )
    docs = [make_doc(rid, language="zh" if rid.startswith("Z") else "en")
            for case in dataset.queries for rid in sorted(case.relevant_ids)]
    corpus = make_corpus(docs)
    cells = cross_language_recall(run, dataset, corpus)
    return MetricsReport(
        match_rule="exact",
        overall=overall,
        breakdowns=breakdowns,
        cross_language=cells,
    )


class TestEmission:
    def test_expected_file_set(self, tmp_path):
        report = _full_report()
        written = emit_report(report, tmp_path / "out")
        names = sorted(p.name for p in written)
        assert names == [
            "cross_language.csv",
            "detection.csv",
            "detection_ipc_section.svg",
            "detection_jurisdiction.svg",
            "detection_language.svg",
            "detection_overall.svg",
            "recall.csv",
            "recall_ipc_section.svg",
            "recall_jurisdiction.svg",
            "recall_language.svg",
            "recall_overall.svg",
            "report.txt",
        ]

    def test_emission_is_byte_deterministic(self, tmp_path):
        report = _full_report()
        a = emit_report(report, tmp_path / "a")
        b = emit_report(report, tmp_path / "b")
        for pa, pb in zip(a, b):
            assert pa.name == pb.name
            assert pa.read_bytes() == pb.read_bytes()

    def test_detection_csv_round_trips_exact_floats(self, tmp_path):
        report = _full_report()
        emit_report(report, tmp_path, formats=("csv",))
        with (tmp_path / "detection.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        overall_rows = [
            r for r in rows if r["dimension"] == "overall" and r["stratum"] == "__all__"
        ]
        parsed = {int(r["k"]): float(r["detection_rate"]) for r in overall_rows}
        for k, rate in report.overall.totals.rates and zip(KS, report.overall.totals.rates):
            assert parsed[k] == rate  # exact, repr() round-trip
        lang_rows = [r for r in rows if r["dimension"] == "language"]
        assert {r["stratum"] for r in lang_rows} == {"__all__", "en", "zh"}

    def test_recall_csv_exact(self, tmp_path):
        report = _full_report()
        emit_report(report, tmp_path, formats=("csv",))
        with (tmp_path / "recall.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        overall = next(
            r for r in rows if r["dimension"] == "overall" and r["stratum"] == "__all__"
        )
        assert float(overall["recall"]) == report.overall.totals.recall
        assert int(overall["recall_depth"]) == 100

    def test_text_report_layout(self, tmp_path):
        report = _full_report()
        emit_report(report, tmp_path, formats=("table-text",))
        text = (tmp_path / "report.txt").read_text()
        assert "Top1" in text and "Top5" in text and "Top10" in text
        assert "recall@100" in text
        assert "Breakdown by language" in text
        assert "en -> en: 0.50 (4/8 pairs)" in text
        assert "zh -> zh: 0.75 (3/4 pairs)" in text
        # 2/6 renders as a clean percentage with one decimal
        assert "33.3%" in text
        assert "50%" in text

    def test_comparison_emission(self, tmp_path):
        dataset, run_a, run_b = _comparison_fixture()
        comp = compare_systems(
            run_a, run_b, dataset, ks=KS, n_resamples=1000, strata_dims=()
        )
        report = MetricsReport(match_rule="exact", overall=None, comparison=comp)
        written = emit_report(report, tmp_path, formats=("csv", "table-text"))
        names = sorted(p.name for p in written)
        # A comparison has no evaluation tables, so no detection.csv or recall.csv.
        assert names == ["comparison_detection.csv", "comparison_recall.csv", "report.txt"]
        with (tmp_path / "comparison_detection.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2 * len(KS)
        a_rows = [r for r in rows if r["system"] == "fixture"]
        b_rows = [r for r in rows if r["system"] == "system-b"]
        assert all(r["delta"] == "" and r["p_value"] == "" for r in a_rows)
        assert all(r["delta"] != "" for r in b_rows)
        k10 = next(r for r in b_rows if r["k"] == "10")
        assert float(k10["delta"]) == comp.deltas[KS.index(10)]
        assert k10["p_value"] != "" and k10["ci_low"] != "" and k10["ci_high"] != ""
        other_k = next(r for r in b_rows if r["k"] == "1")
        assert other_k["p_value"] == ""

        text = (tmp_path / "report.txt").read_text()
        assert text.startswith("System comparison: fixture vs system-b\n")
        assert "top10_detection" in text
        assert "pp" in text

    def test_unknown_format_rejected(self, tmp_path):
        report = _full_report()
        with pytest.raises(ValueError):
            emit_report(report, tmp_path, formats=("csv", "parquet"))
        assert not any(tmp_path.iterdir())

    def test_unwritable_out_dir_leaves_no_partial_output(self, tmp_path):
        report = _full_report()
        blocker = tmp_path / "occupied"
        blocker.write_text("a file, not a directory")
        with pytest.raises(OSError):
            emit_report(report, blocker)
        assert blocker.read_text() == "a file, not a directory"

    def test_svg_shapes(self, tmp_path):
        report = _full_report()
        emit_report(report, tmp_path, formats=("svg-plot-data",))
        line = (tmp_path / "detection_language.svg").read_text()
        bars = (tmp_path / "recall_language.svg").read_text()
        assert line.startswith("<svg ") and "<polyline" in line
        assert line.count("<polyline") == 2  # en and zh series
        assert "<rect" in bars
        assert "recall@100 by language" in bars

    def test_svg_line_chart_of_a_one_k_grid(self, tmp_path):
        # One cutoff has no span to spread over: its points sit mid-plot.
        dataset, run = _six_query_fixture()
        report = MetricsReport(
            match_rule="exact",
            overall=breakdown_by(run, dataset, "overall", ks=(10,)),
            breakdowns=(breakdown_by(run, dataset, "language", ks=(10,)),),
        )
        emit_report(report, tmp_path, formats=("svg-plot-data",))
        line = (tmp_path / "detection_language.svg").read_text()
        points = re.findall(r'<polyline [^>]*points="([^"]*)"', line)
        assert len(points) == 2
        assert all(len(p.split()) == 1 and p.startswith("255.0,") for p in points)


# Relevant ids come from _POOL; the GHOST ids are never in the corpus, the X
# ids are never relevant.
_POOL = [f"D{i}A" for i in range(8)] + ["GHOST1A", "GHOST2A"]
_LABELS = {
    "language": st.sampled_from(["en", "zh", "de"]),
    "ipc_section": st.sampled_from(["A", "G"]),
    "jurisdiction": st.sampled_from(["US", "CN", "EP"]),
}


@st.composite
def _evaluation_case(draw):
    """Dataset, two runs, corpus and family map.  Strata may lack labels or
    hold a single query; hit lists may repeat a doc id; runs carry TIMEOUT
    and ERROR rows; family ids may be empty."""
    qids = [f"Q{i}A" for i in range(draw(st.integers(1, 10)))]
    relevants = {q: draw(st.sets(st.sampled_from(_POOL), min_size=1, max_size=4)) for q in qids}
    strata = {q: draw(st.fixed_dictionaries({}, optional=_LABELS)) for q in qids}
    dataset = build_eval_dataset(relevants, strata=strata)
    family_of = draw(
        st.dictionaries(st.sampled_from(_POOL + ["X1A"]), st.sampled_from(["", "F1", "F2", "F3"]))
    )
    corpus = make_corpus(
        make_doc(doc_id, language=draw(st.sampled_from(["en", "zh"])))
        for doc_id in _POOL[:8]
        if draw(st.booleans())
    )

    def run(adapter_id):
        lists = {
            q: draw(st.lists(st.sampled_from(_POOL + ["X1A", "X2A"]), max_size=8)) for q in qids
        }
        statuses = {q: draw(st.sampled_from(["OK", "OK", "OK", "TIMEOUT", "ERROR"])) for q in qids}
        depth = draw(st.sampled_from([3, 100]))
        return build_run(dataset, lists, max_depth=depth, statuses=statuses, adapter_id=adapter_id)

    return dataset, run("sys-a"), run("sys-b"), corpus, family_of


class TestScalarSpecOracle:
    @settings(max_examples=150, deadline=None)
    @given(
        case=_evaluation_case(),
        match_rule=st.sampled_from(["exact", "family"]),
        ks=st.sampled_from([(1, 2, 3, 5, 10), (1, 3, 8)]),
        seed=st.integers(0, 3),
    )
    def test_matches_scalar_spec(self, case, match_rule, ks, seed):
        dataset, run_a, run_b, corpus, family_of = case
        kw = dict(match_rule=match_rule, family_of=family_of)
        for case_ in dataset.queries:
            ranked = run_a.results[case_.query_doc_id]
            assert first_relevant_rank(ranked, case_.relevant_ids, **kw) == (
                scalar_first_relevant_rank(ranked, case_.relevant_ids, **kw)
            )
        for dim in (OVERALL_DIMENSION,) + REPORT_DIMENSIONS:
            assert repr(breakdown_by(run_a, dataset, dim, ks=ks, **kw)) == repr(
                scalar_breakdown_by(run_a, dataset, dim, ks, **kw)
            )
        totals = scalar_breakdown_by(run_a, dataset, OVERALL_DIMENSION, ks, **kw).totals
        assert detection_curve(run_a, dataset, ks, **kw).points == tuple(zip(ks, totals.rates))
        assert topk_detection_rate(run_a, dataset, ks[-1], **kw) == totals.rates[-1]
        assert repr(cross_language_recall(run_a, dataset, corpus, **kw)) == repr(
            scalar_cross_language_recall(run_a, dataset, corpus, **kw)
        )
        assert repr(recall(run_a, dataset, **kw)) == repr(scalar_recall(run_a, dataset, **kw))
        compare_kw = dict(
            ks=ks, dimensions=REPORT_DIMENSIONS, n_resamples=1000, seed=seed,
            strata_dims=("language", "ipc_section"), **kw,
        )
        assert repr(compare_systems(run_a, run_b, dataset, **compare_kw)) == repr(
            scalar_compare_systems(run_a, run_b, dataset, **compare_kw)
        )

    @settings(max_examples=100, deadline=None)
    @given(
        case=_evaluation_case(),
        match_rule=st.sampled_from(["exact", "family"]),
        ks=st.sampled_from([(1, 2, 3, 5, 10), (1, 3, 8)]),
        dimensions=st.sampled_from([REPORT_DIMENSIONS, ("jurisdiction", "language"), ()]),
    )
    def test_evaluate_run_matches_scalar_spec(self, case, match_rule, ks, dimensions):
        """``evaluate_run`` equals the report assembled from the scalar
        breakdowns and cross-language recall, with the families read from
        the corpus documents."""
        dataset, run, _, corpus, family_of = case
        docs = dict(corpus.documents)
        family_corpus = make_corpus(
            dataclasses.replace(docs.get(doc_id) or make_doc(doc_id), family_id=family)
            for doc_id, family in sorted({**dict.fromkeys(docs, ""), **family_of}.items())
        )
        for corp in (None, family_corpus):
            kw = dict(ks=ks, match_rule=match_rule, dimensions=dimensions)
            if corp is None and match_rule == "family":
                with pytest.raises(ValueError):
                    evaluate_run(run, dataset, corp, **kw)
                continue
            fam = {} if corp is None else {d.doc_id: d.family_id for d in corp.documents.values()}
            spec = dict(match_rule=match_rule, family_of=fam)
            expected = MetricsReport(
                match_rule=match_rule,
                overall=scalar_breakdown_by(run, dataset, OVERALL_DIMENSION, ks, **spec),
                breakdowns=tuple(
                    scalar_breakdown_by(run, dataset, dim, ks, **spec) for dim in dimensions
                ),
                cross_language=(
                    () if corp is None
                    else scalar_cross_language_recall(run, dataset, corp, **spec)
                ),
                family_overall=(
                    scalar_breakdown_by(
                        run, dataset, OVERALL_DIMENSION, ks, match_rule="family", family_of=fam
                    )
                    if match_rule == "exact" and any(fam.values())
                    else None
                ),
            )
            assert repr(evaluate_run(run, dataset, corp, **kw)) == repr(expected)
