from __future__ import annotations

import dataclasses
import json
import logging
import re
from collections import Counter
from datetime import date

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import build_eval_dataset, cite, make_corpus, make_doc, scalar_stratum_counts
from patbench.corpus import MISSING_LABEL, RESERVED_LABELS, is_stratum_label
from patbench.dataset import (
    STRATUM_DIMENSIONS,
    InfeasibleTargetsError,
    QueryCase,
    TrigramJaccardScorer,
    UndefinedScoreError,
    apply_quality_filters,
    assemble_dataset,
    augment_with_family_citations,
    build_dataset,
    extract_x_citations,
    largest_remainder,
    load_dataset,
    profile_distributions,
    write_dataset,
)


class ConstScorer:
    scorer_id = "const"

    def __init__(self, value: float):
        self.value = value

    def score(self, doc_a, doc_b) -> float:
        return self.value


class RecordingScorer(ConstScorer):
    scorer_id = "recording"

    def __init__(self, value: float = 1.0):
        super().__init__(value)
        self.calls: list[tuple[str, str]] = []

    def score(self, doc_a, doc_b) -> float:
        self.calls.append((doc_a.doc_id, doc_b.doc_id))
        return self.value


class FailingScorer:
    scorer_id = "boom"

    def score(self, doc_a, doc_b) -> float:
        raise RuntimeError("backend down")


class TestTrigramJaccard:
    # "aaab" vs "aaac": grams {aaa, aab} vs {aaa, aac}; one of three
    # union grams is shared.
    def test_hand_computed_value(self):
        a = make_doc("US1A", claims="", description="aaab")
        b = make_doc("US2A", claims="", description="aaac")
        assert TrigramJaccardScorer().score(a, b) == pytest.approx(1 / 3)

    def test_multiset_semantics(self):
        # "aaaa" holds gram "aaa" twice, "aaa" holds it once: 1/2, not 1.
        a = make_doc("US1A", claims="", description="aaaa")
        b = make_doc("US2A", claims="", description="aaa")
        assert TrigramJaccardScorer().score(a, b) == pytest.approx(0.5)

    def test_identical_text_scores_one(self):
        a = make_doc("US1A")
        b = make_doc("US2A")
        assert TrigramJaccardScorer().score(a, b) == 1.0

    def test_case_and_whitespace_insensitive(self):
        a = make_doc("US1A", claims="", description="Widget  Body\nCast")
        b = make_doc("US2A", claims="", description="widget body cast")
        assert TrigramJaccardScorer().score(a, b) == 1.0

    def test_uses_claims_and_description(self):
        a = make_doc("US1A", claims="shared claim", description="left text")
        b = make_doc("US2A", claims="shared claim", description="unrelated words")
        only_desc = TrigramJaccardScorer().score(
            make_doc("US3A", claims="", description="left text"),
            make_doc("US4A", claims="", description="unrelated words"),
        )
        assert TrigramJaccardScorer().score(a, b) > only_desc

    def test_short_texts(self):
        a = make_doc("US1A", claims="", description="ab")
        b = make_doc("US2A", claims="", description="ab")
        c = make_doc("US3A", claims="", description="cd")
        assert TrigramJaccardScorer().score(a, b) == 1.0
        assert TrigramJaccardScorer().score(a, c) == 0.0

    def test_both_empty_is_undefined(self):
        a = make_doc("US1A", claims="", description="")
        b = make_doc("US2A", claims="", description=" ")
        with pytest.raises(UndefinedScoreError):
            TrigramJaccardScorer().score(a, b)

    @settings(max_examples=150)
    @given(st.text(min_size=1, max_size=80), st.text(min_size=1, max_size=80))
    def test_symmetric_and_bounded(self, text_a, text_b):
        a = make_doc("US1A", claims="", description="x" + text_a)
        b = make_doc("US2A", claims="", description="x" + text_b)
        scorer = TrigramJaccardScorer()
        ab = scorer.score(a, b)
        assert ab == scorer.score(b, a)
        assert 0.0 <= ab <= 1.0


def _family_fixture():
    docs = [
        make_doc("US1A", family_id="F1"),
        make_doc("US2A", family_id="F1"),
        make_doc("US3A", family_id="F1"),
        make_doc("US10A"),
        make_doc("US11A"),
        make_doc("US12A"),
    ]
    citations = [
        cite("US1A", "US10A"),
        cite("US2A", "US11A"),
        cite("US2A", "US1A"),
        cite("US2A", "US3A"),
        cite("US3A", "US12A", category="Y"),
    ]
    return make_corpus(docs, citations)


class TestExtractXCitations:
    def test_filters_category_source_and_dangling(self):
        docs = [make_doc("US1A"), make_doc("US2A"), make_doc("US3A")]
        citations = [
            cite("US1A", "US2A"),
            cite("US1A", "US3A", category="Y"),
            cite("US2A", "US3A", source="FAMILY_DERIVED"),
            cite("US3A", "US999A"),
        ]
        got = extract_x_citations(make_corpus(docs, citations))
        assert got == {"US1A": {"US2A"}}


class TestFamilyAugmentation:
    def test_member_citations_fold_in_with_exclusions(self):
        corpus = _family_fixture()
        cases = augment_with_family_citations(
            corpus, {"US1A": {"US10A"}}, RecordingScorer(1.0)
        )
        case = cases["US1A"]
        # US1A (the main patent) and US3A (same family) are dropped from the
        # member's contributions; US11A stays.
        assert case.relevant_ids == frozenset({"US10A", "US11A"})
        assert case.relevant_provenance == {
            "US10A": "EXAMINER",
            "US11A": "FAMILY_DERIVED",
        }

    def test_members_without_x_citations_are_never_scored(self):
        corpus = _family_fixture()
        scorer = RecordingScorer(1.0)
        augment_with_family_citations(corpus, {"US1A": {"US10A"}}, scorer)
        assert ("US1A", "US3A") not in scorer.calls
        assert ("US1A", "US2A") in scorer.calls

    def test_examiner_provenance_wins_on_collision(self):
        corpus = _family_fixture()
        base = {"US1A": {"US10A", "US11A"}}
        cases = augment_with_family_citations(corpus, base, ConstScorer(1.0))
        assert cases["US1A"].relevant_provenance["US11A"] == "EXAMINER"

    @pytest.mark.parametrize(
        "value,included", [(0.89, False), (0.90, True), (0.91, True)]
    )
    def test_threshold_boundary_is_inclusive(self, value, included):
        corpus = _family_fixture()
        cases = augment_with_family_citations(
            corpus, {"US1A": {"US10A"}}, ConstScorer(value)
        )
        assert ("US11A" in cases["US1A"].relevant_ids) is included

    def test_scorer_failure_warns_and_skips_member(self, caplog):
        corpus = _family_fixture()
        with caplog.at_level(logging.WARNING, logger="patbench.dataset"):
            cases = augment_with_family_citations(
                corpus, {"US1A": {"US10A"}}, FailingScorer()
            )
        assert cases["US1A"].relevant_ids == frozenset({"US10A"})
        assert any(
            "US1A" in rec.message and "US2A" in rec.message for rec in caplog.records
        )

    def test_out_of_range_score_warns_and_skips_member(self, caplog):
        corpus = _family_fixture()
        with caplog.at_level(logging.WARNING, logger="patbench.dataset"):
            cases = augment_with_family_citations(
                corpus, {"US1A": {"US10A"}}, ConstScorer(1.5)
            )
        assert cases["US1A"].relevant_ids == frozenset({"US10A"})
        assert any(
            "US2A" in rec.message and "outside [0, 1]" in rec.message
            for rec in caplog.records
        )

    def test_real_scorer_separates_near_copy_from_unrelated(self):
        near = make_doc("US2A", family_id="F1")  # same default text as US1A
        far = make_doc(
            "US4A",
            family_id="F1",
            claims="1. A pump impeller with vanes.",
            description="The impeller rotates inside the volute housing at speed.",
        )
        docs = [
            make_doc("US1A", family_id="F1"),
            near,
            far,
            make_doc("US10A"),
            make_doc("US11A"),
            make_doc("US12A"),
        ]
        citations = [
            cite("US1A", "US10A"),
            cite("US2A", "US11A"),
            cite("US4A", "US12A"),
        ]
        corpus = make_corpus(docs, citations)
        cases = augment_with_family_citations(
            corpus, {"US1A": {"US10A"}}, TrigramJaccardScorer()
        )
        assert cases["US1A"].relevant_ids == frozenset({"US10A", "US11A"})

    def test_threshold_monotonicity(self, synth_corpus):
        base = extract_x_citations(synth_corpus)
        scorer = TrigramJaccardScorer()
        previous = None
        for threshold in (0.95, 0.9, 0.7, 0.5, 0.0):
            cases = augment_with_family_citations(synth_corpus, base, scorer, threshold)
            if previous is not None:
                for qid in previous:
                    assert previous[qid].relevant_ids <= cases[qid].relevant_ids
            previous = cases

    def test_invalid_threshold(self, synth_corpus):
        with pytest.raises(ValueError):
            augment_with_family_citations(synth_corpus, {}, ConstScorer(1.0), 1.01)


def _case(qid: str, relevant: set[str]) -> QueryCase:
    return QueryCase(
        query_doc_id=qid,
        relevant_ids=frozenset(relevant),
        relevant_provenance={r: "EXAMINER" for r in relevant},
    )


class TestQualityFilters:
    def test_recency_boundary_inclusive(self):
        docs = [
            make_doc("US1A", filing_date=date(2010, 6, 15)),
            make_doc("US2A", filing_date=date(2010, 6, 14)),
            make_doc("US3A", filing_date=date(2020, 6, 15)),
        ]
        corpus = make_corpus(docs, reference_date=date(2020, 6, 15))
        cases = {d.doc_id: _case(d.doc_id, {"US9A"}) for d in docs}
        kept = apply_quality_filters(cases, corpus, recency_years=10)
        assert set(kept) == {"US1A", "US3A"}

    def test_leap_day_reference(self):
        docs = [
            make_doc("US1A", filing_date=date(2019, 2, 28)),
            make_doc("US2A", filing_date=date(2019, 2, 27)),
        ]
        corpus = make_corpus(docs, reference_date=date(2020, 2, 29))
        cases = {d.doc_id: _case(d.doc_id, {"US9A"}) for d in docs}
        kept = apply_quality_filters(cases, corpus, recency_years=1)
        assert set(kept) == {"US1A"}

    def test_empty_description_and_missing_doc_dropped(self):
        docs = [make_doc("US1A"), make_doc("US2A", description="  ")]
        corpus = make_corpus(docs)
        cases = {
            "US1A": _case("US1A", {"US9A"}),
            "US2A": _case("US2A", {"US9A"}),
            "US7A": _case("US7A", {"US9A"}),
        }
        assert set(apply_quality_filters(cases, corpus)) == {"US1A"}

    def test_known_violation_mix(self):
        # 20 candidate cases, 6 violations: 3 stale filings, 2 empty
        # descriptions, 1 case whose main patent is missing from the corpus.
        docs = []
        for i in range(19):
            overrides = {}
            if i < 3:
                overrides["filing_date"] = date(2009, 1, 1)
            elif i < 5:
                overrides["description"] = ""
            docs.append(make_doc(f"US{i:02d}A", **overrides))
        corpus = make_corpus(docs, reference_date=date(2020, 6, 15))
        cases = {d.doc_id: _case(d.doc_id, {"US99A"}) for d in docs}
        cases["USXXA"] = _case("USXXA", {"US99A"})
        kept = apply_quality_filters(cases, corpus, recency_years=10)
        assert len(cases) == 20
        assert len(kept) == 14

    def test_negative_recency_rejected(self, synth_corpus):
        with pytest.raises(ValueError):
            apply_quality_filters({}, synth_corpus, recency_years=-1)


class TestLargestRemainder:
    def test_hand_case_with_tie(self):
        # quotas: CN 9.0, US 3.6, EP 3.6, WO 1.8; two seats remain after
        # flooring and EP beats US on the ascending-key tie at .6.
        alloc = largest_remainder({"CN": 0.5, "US": 0.2, "EP": 0.2, "WO": 0.1}, 18)
        assert alloc == {"CN": 9, "US": 3, "EP": 4, "WO": 2}

    def test_exact_split_needs_no_remainder(self):
        assert largest_remainder({"a": 0.25, "b": 0.75}, 8) == {"a": 2, "b": 6}

    @settings(max_examples=150)
    @given(
        weights=st.dictionaries(
            st.sampled_from("abcdef"),
            st.floats(min_value=0.01, max_value=10, allow_nan=False),
            min_size=1,
            max_size=6,
        ),
        total=st.integers(min_value=0, max_value=60),
    )
    def test_sums_to_total_and_respects_floors(self, weights, total):
        norm = sum(weights.values())
        proportions = {k: v / norm for k, v in weights.items()}
        alloc = largest_remainder(proportions, total)
        assert sum(alloc.values()) == total
        for key, share in proportions.items():
            assert alloc[key] >= int(share * total) - 1


def _cases_by_language(n_zh: int, n_en: int):
    docs, cases = [], {}
    for i in range(n_zh):
        doc = make_doc(f"CN{i:03d}A", jurisdiction="CN", language="zh")
        docs.append(doc)
        cases[doc.doc_id] = _case(doc.doc_id, {"US900A"})
    for i in range(n_en):
        doc = make_doc(f"US{i:03d}A")
        docs.append(doc)
        cases[doc.doc_id] = _case(doc.doc_id, {"US900A"})
    return make_corpus(docs), cases


_ASSEMBLE_KW = dict(scorer_id="const", threshold=0.9, recency_years=10)


class TestAssembleDataset:
    def test_availability_capping_redistributes(self):
        corpus, cases = _cases_by_language(n_zh=2, n_en=8)
        dataset = assemble_dataset(
            cases,
            corpus,
            {"language": {"zh": 0.9, "en": 0.1}},
            sample_size=10,
            seed=1,
            **_ASSEMBLE_KW,
        )
        counts = Counter(dataset.strata[qid]["language"] for qid in dataset.query_ids())
        assert counts == {"zh": 2, "en": 8}
        assert dataset.build_manifest["stratum_counts"] == {"en": 8, "zh": 2}

    def test_capping_can_land_exactly_on_availability(self):
        corpus, cases = _cases_by_language(n_zh=2, n_en=3)
        dataset = assemble_dataset(
            cases,
            corpus,
            {"language": {"zh": 0.9, "en": 0.1}},
            sample_size=5,
            seed=1,
            **_ASSEMBLE_KW,
        )
        assert dataset.build_manifest["stratum_counts"] == {"en": 3, "zh": 2}

    def test_infeasible_targets_name_the_stratum(self):
        corpus, cases = _cases_by_language(n_zh=2, n_en=8)
        with pytest.raises(InfeasibleTargetsError) as err:
            assemble_dataset(
                cases,
                corpus,
                {"language": {"zh": 1.0}},
                sample_size=5,
                seed=1,
                **_ASSEMBLE_KW,
            )
        assert err.value.stratum == "zh"
        assert err.value.demanded == 5
        assert err.value.available == 2

    def test_sample_size_beyond_pool_rejected(self):
        corpus, cases = _cases_by_language(n_zh=1, n_en=1)
        with pytest.raises(ValueError):
            assemble_dataset(cases, corpus, None, sample_size=3, seed=0, **_ASSEMBLE_KW)

    def test_composite_strata_use_product_proportions(self):
        docs, cases = [], {}
        for i in range(5):
            doc = make_doc(f"US{i}A", jurisdiction="US", language="en")
            docs.append(doc)
            cases[doc.doc_id] = _case(doc.doc_id, {"X1A"})
        for i in range(5):
            doc = make_doc(f"CN{i}A", jurisdiction="CN", language="zh")
            docs.append(doc)
            cases[doc.doc_id] = _case(doc.doc_id, {"X1A"})
        corpus = make_corpus(docs)
        dataset = assemble_dataset(
            cases,
            corpus,
            {
                "language": {"en": 0.5, "zh": 0.5},
                "jurisdiction": {"US": 0.5, "CN": 0.5},
            },
            sample_size=8,
            seed=0,
            **_ASSEMBLE_KW,
        )
        # dimensions combine in sorted order (jurisdiction, language); empty
        # cross cells (CN|en, US|zh) cap at zero and their seats flow back to
        # the populated cells.
        assert dataset.build_manifest["stratum_counts"] == {"CN|zh": 4, "US|en": 4}

    def test_same_seed_reproduces_and_seeds_differ(self):
        corpus, cases = _cases_by_language(n_zh=30, n_en=30)
        kw = dict(targets={"language": {"zh": 0.5, "en": 0.5}}, sample_size=20, **_ASSEMBLE_KW)
        a = assemble_dataset(cases, corpus, seed=7, **kw)
        b = assemble_dataset(cases, corpus, seed=7, **kw)
        c = assemble_dataset(cases, corpus, seed=8, **kw)
        assert a.query_ids() == b.query_ids()
        assert a.manifest_hash == b.manifest_hash
        assert a.query_ids() != c.query_ids()
        assert a.manifest_hash != c.manifest_hash

    def test_strata_sample_independently(self):
        corpus, cases = _cases_by_language(n_zh=30, n_en=30)
        targets = {"language": {"zh": 0.5, "en": 0.5}}
        before = assemble_dataset(
            cases, corpus, targets, sample_size=20, seed=7, **_ASSEMBLE_KW
        )
        # grow only the zh pool; the en draw must not move
        grown_corpus, grown = _cases_by_language(n_zh=45, n_en=30)
        after = assemble_dataset(
            grown, grown_corpus, targets, sample_size=20, seed=7, **_ASSEMBLE_KW
        )
        en_before = [q for q in before.query_ids() if q.startswith("US")]
        en_after = [q for q in after.query_ids() if q.startswith("US")]
        assert en_before == en_after

    def test_unstratified_sampling_is_seeded(self):
        corpus, cases = _cases_by_language(n_zh=20, n_en=20)
        a = assemble_dataset(cases, corpus, None, sample_size=10, seed=3, **_ASSEMBLE_KW)
        b = assemble_dataset(cases, corpus, None, sample_size=10, seed=3, **_ASSEMBLE_KW)
        assert a.query_ids() == b.query_ids()
        assert len(a.queries) == 10

    def test_bad_targets_rejected(self):
        corpus, cases = _cases_by_language(n_zh=5, n_en=5)
        for targets in (
            {"flavor": {"zh": 1.0}},
            {"language": {"zh": 0.4, "en": 0.4}},
            {"language": {"zh": -0.1, "en": 1.1}},
            {"language": {}},
        ):
            with pytest.raises(ValueError):
                assemble_dataset(
                    cases, corpus, targets, sample_size=4, seed=0, **_ASSEMBLE_KW
                )

    @pytest.mark.parametrize(
        "targets",
        [
            [1, 2],
            {"language": [0.5, 0.5]},
            {"language": {"zh": "0.5", "en": 0.5}},
            {"language": {"zh": True, "en": 0.0}},
            {"language": {"zh": float("nan"), "en": 0.5}},
        ],
        ids=["list", "dimension-list", "string", "bool", "nan"],
    )
    def test_malformed_target_shapes_rejected(self, targets):
        corpus, cases = _cases_by_language(n_zh=5, n_en=5)
        with pytest.raises(ValueError):
            assemble_dataset(cases, corpus, targets, sample_size=4, seed=0, **_ASSEMBLE_KW)


_LABEL_POOLS = {
    "language": ("en", "en-GB", "zh", "zh-Hant"),
    "jurisdiction": ("US", "US-X", "CN"),
    "ipc_section": ("G", "H", "unclassified"),
}
_IPC_CODE = {"G": ("G06F 17/30",), "H": ("H04L 1/00",), "unclassified": ()}


@st.composite
def _stratified_pools(draw):
    """Cases labelled from small pools (labels with "-" included), targets
    over a random set of dimensions (or none) and a sample size from 0 up."""
    specs = draw(
        st.lists(
            st.tuples(*(st.sampled_from(_LABEL_POOLS[d]) for d in STRATUM_DIMENSIONS)),
            min_size=1,
            max_size=25,
        )
    )
    docs, cases = [], {}
    for i, spec in enumerate(specs):
        labels = dict(zip(STRATUM_DIMENSIONS, spec))
        doc = make_doc(
            f"US{i:03d}A",
            language=labels["language"],
            jurisdiction=labels["jurisdiction"],
            ipc_codes=_IPC_CODE[labels["ipc_section"]],
        )
        docs.append(doc)
        cases[doc.doc_id] = _case(doc.doc_id, {"XX900A"})
    dims = draw(st.lists(st.sampled_from(STRATUM_DIMENSIONS), unique=True, max_size=3))
    targets = {}
    for dim in dims:
        present = sorted({spec[STRATUM_DIMENSIONS.index(dim)] for spec in specs})
        # Every present label gets a positive weight, so the targets are
        # feasible; an absent label may take a share too.
        weights = {label: draw(st.integers(1, 4)) for label in present}
        weights["absent"] = draw(st.integers(0, 2))
        total = sum(weights.values())
        targets[dim] = {label: w / total for label, w in weights.items()}
    sample_size = draw(st.integers(0, len(cases)))
    return make_corpus(docs), cases, targets or None, sample_size


class TestStratumCounts:
    @settings(max_examples=150, deadline=None)
    @given(_stratified_pools(), st.integers(0, 3))
    def test_counts_equal_a_recount_of_the_chosen_queries(self, pool, seed):
        corpus, cases, targets, sample_size = pool
        dataset = assemble_dataset(
            cases, corpus, targets, sample_size=sample_size, seed=seed, **_ASSEMBLE_KW
        )
        counts = dataset.build_manifest["stratum_counts"]
        # Item order too: the keys sort as strings.
        assert list(counts.items()) == list(scalar_stratum_counts(dataset, targets).items())
        assert sum(counts.values()) == sample_size

    def test_keys_sort_as_joined_strings(self):
        docs = [
            make_doc("US1A", jurisdiction="US", language="en"),
            make_doc("US2A", jurisdiction="US-X", language="en"),
        ]
        cases = {d.doc_id: _case(d.doc_id, {"XX900A"}) for d in docs}
        targets = {"jurisdiction": {"US": 0.5, "US-X": 0.5}, "language": {"en": 1.0}}
        dataset = assemble_dataset(
            cases, make_corpus(docs), targets, sample_size=2, seed=0, **_ASSEMBLE_KW
        )
        # ("US", "en") < ("US-X", "en") as tuples, but "US-X|en" < "US|en".
        assert list(dataset.build_manifest["stratum_counts"]) == ["US-X|en", "US|en"]

    @pytest.mark.parametrize(
        "targets, sample_size, expected",
        [
            (None, 4, {"__all__": 4}),
            (None, 0, {}),
            ({"language": {"en": 0.5, "zh": 0.5}}, 0, {}),
        ],
    )
    def test_plain_and_empty_samples(self, targets, sample_size, expected):
        corpus, cases = _cases_by_language(n_zh=3, n_en=3)
        dataset = assemble_dataset(
            cases, corpus, targets, sample_size=sample_size, seed=0, **_ASSEMBLE_KW
        )
        assert dataset.build_manifest["stratum_counts"] == expected


@pytest.mark.parametrize("label", ["", "c|a", "__all__", "__rest__", "?", "unknown"])
def test_a_target_label_must_name_one_stratum(label):
    docs = [make_doc(f"US{i}A", jurisdiction="c") for i in range(3)]
    cases = {d.doc_id: _case(d.doc_id, {"XX900A"}) for d in docs}
    targets = {"jurisdiction": {"c": 0.5, label: 0.5}}
    with pytest.raises(ValueError, match=r"target jurisdiction .* is not a stratum label"):
        assemble_dataset(cases, make_corpus(docs), targets, sample_size=2, seed=0, **_ASSEMBLE_KW)


@pytest.mark.parametrize(
    "targets",
    [{"language": {"en|zh": 1.0}}, {"language": {"en": 0.5}}, {"colour": {"red": 1.0}}],
)
def test_build_checks_targets_before_scoring(synth_corpus, targets):
    scorer = RecordingScorer()
    with pytest.raises(ValueError):
        build_dataset(synth_corpus, scorer=scorer, targets=targets)
    assert scorer.calls == []


# Short text, the separator, the missing label's key and the reserved names;
# a label the rule rejects becomes a missing label (None).
_LABELS = st.one_of(
    st.text(max_size=3), st.text("ab|?", max_size=3), st.sampled_from(sorted(RESERVED_LABELS))
).map(lambda label: label if is_stratum_label(label) else None)


class TestStratumKeys:
    def test_follow_the_dimension_order_and_mark_missing_labels(self):
        dataset = build_eval_dataset({"Q1": {"R1A"}, "Q2": {"R2A"}, "Q3": {"R3A"}})
        dataset = dataclasses.replace(
            dataset,
            strata={"Q1": {"language": "en", "jurisdiction": "US"}, "Q2": {"language": "zh"}},
        )
        assert dataset.stratum_keys(("language", "jurisdiction")) == ["en|US", "zh|?", "?|?"]
        assert dataset.stratum_keys(("jurisdiction", "language")) == ["US|en", "?|zh", "?|?"]
        assert dataset.stratum_keys(("ipc_section",)) == ["?", "?", "?"]
        assert dataset.stratum_keys(()) == ["", "", ""]

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.sampled_from(STRATUM_DIMENSIONS), unique=True, min_size=1, max_size=3),
        st.lists(st.lists(_LABELS, min_size=3, max_size=3), min_size=1, max_size=12),
    )
    def test_are_injective_over_accepted_labels(self, dims, rows):
        """Each key splits back into its labels (``None`` for a missing
        label), so distinct label tuples give distinct keys."""
        qids = [f"Q{i:02d}" for i in range(len(rows))]
        dataset = dataclasses.replace(
            build_eval_dataset({qid: {"R1A"} for qid in qids}),
            strata={
                qid: {dim: label for dim, label in zip(STRATUM_DIMENSIONS, row) if label is not None}
                for qid, row in zip(qids, rows)
            },
        )
        labels = [tuple(row[STRATUM_DIMENSIONS.index(dim)] for dim in dims) for row in rows]
        keys = dataset.stratum_keys(dims)
        assert [
            tuple(None if part == MISSING_LABEL else part for part in key.split("|"))
            for key in keys
        ] == labels


class TestBuildAndSerialize:
    def test_build_dataset_end_to_end(self, synth_corpus):
        dataset = build_dataset(synth_corpus, seed=3)
        assert dataset.queries
        manifest = dataset.build_manifest
        assert manifest["scorer_id"] == "char3-jaccard-v1"
        assert manifest["threshold"] == 0.9
        assert manifest["n_queries"] == len(dataset.queries)
        assert manifest["profile"]["jurisdiction_counts"]["CN"] == 100
        for case in dataset.queries:
            assert case.relevant_ids
            assert case.query_doc_id not in case.relevant_ids
            labels = dataset.strata[case.query_doc_id]
            assert set(labels) == {"language", "ipc_section", "jurisdiction"}

    def test_round_trip_preserves_hash_and_cases(self, synth_corpus, tmp_path):
        dataset = build_dataset(synth_corpus, seed=3)
        path = tmp_path / "dataset.jsonl"
        write_dataset(dataset, path)
        loaded = load_dataset(path)
        assert loaded.manifest_hash == dataset.manifest_hash
        assert loaded.queries == dataset.queries
        assert {q: dict(s) for q, s in loaded.strata.items()} == {
            q: dict(s) for q, s in dataset.strata.items()
        }

    def test_write_is_byte_stable(self, synth_corpus, tmp_path):
        dataset = build_dataset(synth_corpus, seed=3)
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_dataset(dataset, a)
        write_dataset(dataset, b)
        assert a.read_bytes() == b.read_bytes()

    def test_load_rejects_malformed_files(self, tmp_path):
        from patbench.dataset import DatasetFormatError

        missing = tmp_path / "missing_manifest.jsonl"
        missing.write_text('{"kind":"query_case","query_doc_id":"US1A","relevant":[{"doc_id":"US2A","source":"EXAMINER"}],"strata":{}}\n')
        with pytest.raises(DatasetFormatError):
            load_dataset(missing)

        unknown = tmp_path / "unknown_kind.jsonl"
        unknown.write_text('{"kind":"mystery"}\n')
        with pytest.raises(DatasetFormatError):
            load_dataset(unknown)

        bad = tmp_path / "bad_json.jsonl"
        bad.write_text("{nope\n")
        with pytest.raises(DatasetFormatError):
            load_dataset(bad)


def _query_case(**overrides) -> dict:
    rec = {
        "kind": "query_case",
        "query_doc_id": "US1A",
        "relevant": [{"doc_id": "US2A", "source": "EXAMINER"}],
        "strata": {"language": "en"},
    }
    rec.update(overrides)
    return rec


class TestLoadQueryCases:
    """Each query_case field is checked as read, not coerced."""

    def _write(self, tmp_path, case: dict):
        path = tmp_path / "dataset.jsonl"
        manifest = {"kind": "manifest", "seed": 0}
        path.write_text(json.dumps(manifest) + "\n" + json.dumps(case) + "\n")
        return path

    def test_good_case_loads(self, tmp_path):
        dataset = load_dataset(self._write(tmp_path, _query_case()))
        (case,) = dataset.queries
        assert case.query_doc_id == "US1A"
        assert dict(case.relevant_provenance) == {"US2A": "EXAMINER"}
        assert dict(dataset.strata["US1A"]) == {"language": "en"}

    # Each id names the fault in the input line.
    @pytest.mark.parametrize(
        "overrides, message",
        [
            pytest.param(
                {"query_doc_id": 7}, "field 'query_doc_id' must be a string, got 7",
                id="overrides0-query_doc_id 7 is not a string",
            ),
            pytest.param(
                {"query_doc_id": None}, "field 'query_doc_id' must be a string, got None",
                id="overrides1-query_doc_id None is not a string",
            ),
            pytest.param(
                {"relevant": []}, "query 'US1A' has an empty relevant set",
                id="overrides2-relevant of 'US1A' is not a non-empty list",
            ),
            pytest.param(
                {"relevant": {"doc_id": "US2A", "source": "EXAMINER"}},
                "field 'relevant' must be a list of objects, got {",
                id="overrides3-is not a non-empty list",
            ),
            pytest.param(
                {"relevant": ["US2A"]}, "field 'relevant' must be a list of objects, got ['US2A']",
                id="overrides4-relevant entry 'US2A' is not an object",
            ),
            pytest.param(
                {"relevant": [{"doc_id": None, "source": 3}]},
                "field 'doc_id' must be a string, got None",
                id="overrides5-relevant doc_id None is not a string",
            ),
            pytest.param(
                {"relevant": [{"doc_id": "US2A", "source": 3}]},
                "field 'source' must be a string, got 3",
                id="overrides6-has source 3, not EXAMINER",
            ),
            pytest.param(
                {"relevant": [{"doc_id": "US2A", "source": "examiner"}]},
                "relevant 'US2A' has source 'examiner', not EXAMINER or FAMILY_DERIVED",
                id="overrides7-has source 'examiner'",
            ),
            pytest.param(
                {"relevant": [{"doc_id": "US2A"}]}, "missing field 'source'",
                id="overrides8-missing field 'source'",
            ),
            pytest.param(
                {"strata": [["language", "en"]]},
                "field 'strata' must be an object of strings, got [['language', 'en']]",
                id="overrides9-strata of 'US1A' is not an object",
            ),
            pytest.param(
                {"strata": None}, "field 'strata' must be an object of strings, got None",
                id="overrides10-strata of 'US1A' is not an object",
            ),
            pytest.param(
                {
                    "relevant": [
                        {"doc_id": "US2A", "source": "EXAMINER"},
                        {"doc_id": "US2A", "source": "FAMILY_DERIVED"},
                    ]
                },
                "relevant 'US2A' is listed twice for 'US1A'",
                id="overrides11-relevant 'US2A' is listed twice for 'US1A'",
            ),
        ],
    )
    def test_bad_case_is_a_format_error(self, tmp_path, overrides, message):
        from patbench.dataset import DatasetFormatError

        path = self._write(tmp_path, _query_case(**overrides))
        with pytest.raises(DatasetFormatError, match=re.escape(f"{path}:2: ") + ".*" + re.escape(message)):
            load_dataset(path)

    def test_a_bad_source_is_rejected_when_the_case_is_built(self):
        """So write_dataset cannot write a case that load_dataset rejects."""
        message = "relevant 'US2A' has source 'bogus', not EXAMINER or FAMILY_DERIVED"
        with pytest.raises(ValueError, match=re.escape(message)):
            QueryCase("US1A", frozenset({"US2A"}), {"US2A": "bogus"})


class TestProfile:
    def test_profile_counts(self):
        docs = [
            make_doc("US1A"),
            make_doc("CN1A", jurisdiction="CN", language="zh", ipc_codes=("H04L 1/00",)),
            make_doc("EP1A", jurisdiction="EP"),
        ]
        citations = [
            cite("US1A", "CN1A"),
            cite("US1A", "EP1A", category="Y"),
            cite("CN1A", "US1A"),
            cite("EP1A", "US999A", category="A"),
        ]
        profile = profile_distributions(make_corpus(docs, citations))
        assert profile == {
            "citation_type_proportions": {"A": 0.25, "X": 0.5, "Y": 0.25},
            "language_counts_primary": {"en": 2, "zh": 1},
            "language_counts_cited": {"en": 1, "zh": 1},
            "ipc_section_counts": {"G": 2, "H": 1},
            "jurisdiction_counts": {"CN": 1, "EP": 1, "US": 1},
        }
