from __future__ import annotations

import dataclasses
import json
import pathlib
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import make_corpus, make_doc, scalar_preprocess_text
import patbench.query
from patbench.query import (
    HEADING_LEXICON,
    SECTION_BACKGROUND,
    SECTION_DETAILED,
    SECTION_OTHER,
    SECTION_SUMMARY,
    EmptyInputError,
    Query,
    Segment,
    build_queries,
    build_query,
    extract_key_sections,
    parse_description,
    preprocess_text,
)

EN_DESCRIPTION = (
    "TECHNICAL FIELD\n"
    "This relates to widgets.\n"
    "BACKGROUND OF THE INVENTION\n"
    "Widgets have long been heavy. Prior widgets also rusted.\n"
    "SUMMARY\n"
    "A lighter widget is provided.\n"
    "BRIEF DESCRIPTION OF THE DRAWINGS\n"
    "FIG. 1 shows a widget.\n"
    "DETAILED DESCRIPTION\n"
    "The widget body is cast from aluminum. A coating prevents rust."
)

ZH_DESCRIPTION = (
    "技术领域\n本实用新型涉及一种电池模块。\n"
    "背景技术\n现有电池模块体积较大。\n"
    "发明内容\n本实用新型提供一种紧凑的电池模块。\n"
    "具体实施方式\n如图所示，电池模块包括外壳和多个电芯。"
)

GOLDEN_QUERIES = pathlib.Path(__file__).resolve().parent / "golden" / "queries.jsonl"
GOLDEN_MAX_CHARS = 160

# Fixed documents for tests/golden/queries.jsonl: one per path through
# parse_description, extract_key_sections and the sentence cut.
GOLDEN_DOCS = (
    make_doc("GQ1EN", description="Cross reference: see US2A. " + EN_DESCRIPTION),
    make_doc("GQ2ZH", language="zh", jurisdiction="CN", description=ZH_DESCRIPTION),
    make_doc("GQ3NOHEAD", description="A plain paragraph.\n\nNo heading appears anywhere."),
    make_doc("GQ4SUMMARY", description="SUMMARY OF THE INVENTION\nOnly a summary is given here."),
    make_doc(
        "GQ5REPEAT",
        description=(
            "BACKGROUND\nFirst part. DETAILED DESCRIPTION\nEarly detail. "
            "SUMMARY\nMiddle. BACKGROUND\nSecond part. DETAILED DESCRIPTION\nLate detail."
        ),
    ),
    make_doc(
        "GQ6CHARS",
        description=(
            "BACKGROUND\tRu\x00st\x07 on a <b>bold</b>\u200bclaim\ufeff.\r\n"
            "DETAILED DESCRIPTION\u3000The cafe\u0301 uses \u1100\u1161 tiles\u00a0and\u2003gaps."
        ),
    ),
    make_doc(
        "GQ7INEQ",
        description=(
            "BACKGROUND\nHeaters overshoot. DETAILED DESCRIPTION\n"
            "The loop holds wherein 20 < T and T > 5 degrees apply."
        ),
    ),
    make_doc(
        "GQ8CUT",
        description="BACKGROUND\n" + "Each clause of this sentence adds length. " * 8,
    ),
)


def _query_golden_bytes() -> bytes:
    queries = build_queries(
        make_corpus(GOLDEN_DOCS), [d.doc_id for d in GOLDEN_DOCS], max_chars=GOLDEN_MAX_CHARS
    )
    lines = (
        json.dumps(
            {"query_id": q.query_id, "text": q.text, "truncated": q.truncated},
            ensure_ascii=False,
            sort_keys=True,
        )
        + "\n"
        for q in queries.values()
    )
    return "".join(lines).encode("utf-8")


def test_queries_match_golden():
    assert _query_golden_bytes() == GOLDEN_QUERIES.read_bytes()


class TestPreprocess:
    def test_strips_tags_controls_and_collapses_whitespace(self):
        raw = "A <b>bold</b>​claim\x00 with   spaces\r\nand lines"
        assert preprocess_text(raw) == "A bold claim with spaces and lines"

    def test_applies_nfc(self):
        decomposed = "café"
        assert preprocess_text(decomposed) == "café"

    def test_empty_and_whitespace_only(self):
        assert preprocess_text("") == ""
        assert preprocess_text(" \t\r\n ") == ""

    @pytest.mark.parametrize(
        "raw, expected",
        [
            ("wherein 20 < T and T > 5 degrees", "wherein 20 < T and T > 5 degrees"),
            ("a<br/>b</P>c", "a b c"),
            ("a <\x00b>bold", "a bold"),  # a tag once the NUL is gone
            ("<\u212a>x", "x"),  # NFC makes the Kelvin sign a "K"
            ("<a<b>>c", ">c"),  # a tag runs to the first ">"
            ("< b> </ p> <1>", "< b> </ p> <1>"),
            ("x <b unclosed", "x <b unclosed"),
        ],
    )
    def test_tag_shaped_markup_only(self, raw, expected):
        assert preprocess_text(raw) == expected
        assert preprocess_text(expected) == expected

    @settings(max_examples=200)
    @given(st.text(max_size=400))
    def test_idempotent(self, raw):
        once = preprocess_text(raw)
        assert preprocess_text(once) == once

    @settings(max_examples=300)
    @given(
        st.lists(
            st.one_of(
                st.sampled_from(
                    ["<b>", "</p>", "<br/>", "<a href='x'>", "<", ">", "</", "<1>", "< b>",
                     "<\x00i>", "<\u200bb>", "\u212a", "e\u0301", "\u3000", "\r\n"]
                ),
                st.text(alphabet="<>/ab 1", max_size=6),
                st.text(alphabet=st.characters(min_codepoint=0x4E00, max_codepoint=0x4E20), max_size=4),
                st.text(alphabet=st.characters(whitelist_categories=("Cc", "Cf", "Zs")), max_size=3),
                st.text(max_size=6),
            ),
            max_size=16,
        ).map("".join)
    )
    def test_matches_scalar_spec(self, raw):
        out = preprocess_text(raw)
        assert out == scalar_preprocess_text(raw)
        assert preprocess_text(out) == out

    @settings(max_examples=200)
    @given(st.text(max_size=400))
    def test_output_has_no_markup_or_control_chars(self, raw):
        out = preprocess_text(raw)
        assert not re.search(r"</?[A-Za-z][^>]*>", out)
        assert not any(ch for ch in out if ord(ch) < 32)
        assert "  " not in out


def _category_text(segments, category: str) -> str:
    return " ".join(s.text for s in segments if s.category == category and s.text)


class TestParseDescription:
    def test_english_sections(self):
        segments = parse_description(make_doc("US1A", description=EN_DESCRIPTION))
        assert _category_text(segments, SECTION_BACKGROUND) == (
            "Widgets have long been heavy. Prior widgets also rusted."
        )
        assert _category_text(segments, SECTION_SUMMARY) == "A lighter widget is provided."
        assert (
            _category_text(segments, SECTION_DETAILED)
            == "The widget body is cast from aluminum. A coating prevents rust."
        )
        assert [s.heading for s in segments if s.category == SECTION_OTHER] == [
            "TECHNICAL FIELD",
            "BRIEF DESCRIPTION OF THE DRAWINGS",
        ]

    def test_chinese_sections(self):
        segments = parse_description(make_doc("CN1A", language="zh", description=ZH_DESCRIPTION))
        assert _category_text(segments, SECTION_BACKGROUND) == "现有电池模块体积较大。"
        assert _category_text(segments, SECTION_SUMMARY) == "本实用新型提供一种紧凑的电池模块。"
        assert _category_text(segments, SECTION_DETAILED) == "如图所示，电池模块包括外壳和多个电芯。"

    def test_longest_heading_wins(self):
        doc = make_doc("US1A", description="BACKGROUND OF THE INVENTION\nOld tech.")
        assert parse_description(doc) == (
            Segment(SECTION_BACKGROUND, "BACKGROUND OF THE INVENTION", "Old tech."),
        )

    def test_lowercase_phrases_do_not_split(self):
        description = "The background of the invention is discussed in the summary below."
        assert parse_description(make_doc("US1A", description=description)) == (
            Segment(SECTION_DETAILED, "", description),
        )

    def test_headingless_goes_to_detailed(self):
        doc = make_doc("US1A", description="Just one plain paragraph.")
        assert parse_description(doc) == (
            Segment(SECTION_DETAILED, "", "Just one plain paragraph."),
        )

    def test_preamble_lands_in_other_with_empty_heading(self):
        doc = make_doc("US1A", description="Cross reference text. BACKGROUND\nOld tech.")
        assert parse_description(doc)[0] == Segment(SECTION_OTHER, "", "Cross reference text.")

    def test_repeated_headings_concatenate(self):
        doc = make_doc(
            "US1A",
            description="BACKGROUND\nFirst part. SUMMARY\nMiddle. BACKGROUND\nSecond part.",
        )
        segments = parse_description(doc)
        assert _category_text(segments, SECTION_BACKGROUND) == "First part. Second part."

    def test_segments_are_lossless(self):
        doc = make_doc("US1A", description=EN_DESCRIPTION)
        reassembled = " ".join(
            part for s in parse_description(doc) for part in (s.heading, s.text) if part
        )
        assert reassembled == preprocess_text(EN_DESCRIPTION)

    def test_empty_description_raises(self):
        with pytest.raises(EmptyInputError):
            parse_description(make_doc("US1A", description="  \n "))


class TestExtractKeySections:
    def test_joins_background_and_detailed(self):
        segments = parse_description(make_doc("US1A", description=EN_DESCRIPTION))
        text = extract_key_sections(segments)
        assert text == (
            "Widgets have long been heavy. Prior widgets also rusted."
            " "
            "The widget body is cast from aluminum. A coating prevents rust."
        )
        assert "lighter widget" not in text
        assert "FIG. 1" not in text

    def test_background_only(self):
        segments = parse_description(make_doc("US1A", description="BACKGROUND\nOld tech."))
        assert extract_key_sections(segments) == "Old tech."

    def test_falls_back_to_full_text_when_key_sections_empty(self):
        doc = make_doc("US1A", description="SUMMARY\nOnly a summary exists here.")
        assert extract_key_sections(parse_description(doc)) == "Only a summary exists here."

    def test_raises_when_nothing_usable(self):
        with pytest.raises(EmptyInputError):
            extract_key_sections(())
        with pytest.raises(EmptyInputError):
            extract_key_sections((Segment(SECTION_BACKGROUND, "BACKGROUND", ""),))


class TestBuildQuery:
    def test_fields(self):
        query = build_query(make_doc("US1A", description=EN_DESCRIPTION))
        assert query == Query(
            query_id="US1A",
            text=(
                "Widgets have long been heavy. Prior widgets also rusted. "
                "The widget body is cast from aluminum. A coating prevents rust."
            ),
            truncated=False,
        )

    def test_truncates_at_sentence_boundary(self):
        description = "BACKGROUND\n" + "This sentence has eight words in it now. " * 40
        query = build_query(make_doc("US1A", description=description), max_chars=100)
        assert query.truncated
        assert len(query.text) <= 100
        assert query.text.endswith(".")
        assert query.text == "This sentence has eight words in it now. This sentence has eight words in it now."

    def test_chinese_sentence_boundary(self):
        description = "背景技术\n" + "电池模块包括外壳。" * 30
        query = build_query(make_doc("CN1A", language="zh", description=description), max_chars=50)
        assert query.truncated
        assert query.text.endswith("。")
        assert len(query.text) <= 50

    def test_hard_cut_without_boundary(self):
        description = "BACKGROUND\n" + "x" * 500
        query = build_query(make_doc("US1A", description=description), max_chars=64)
        assert query.truncated
        assert len(query.text) == 64

    def test_text_of_exactly_max_chars_is_kept_whole(self):
        # The text does not end at a sentence boundary, so a cut would lose
        # its last fragment: only a text longer than max_chars is cut.
        text = "Alpha beta. Gamma delta"
        doc = make_doc("US1A", description="BACKGROUND\n" + text)
        assert build_query(doc, max_chars=len(text)) == Query("US1A", text, truncated=False)
        assert build_query(doc, max_chars=len(text) - 1) == Query(
            "US1A", "Alpha beta.", truncated=True
        )

    @settings(max_examples=100)
    @given(max_chars=st.integers(min_value=1, max_value=300))
    def test_never_exceeds_budget(self, max_chars):
        description = "BACKGROUND\n" + "Alpha beta gamma delta. " * 30
        query = build_query(make_doc("US1A", description=description), max_chars=max_chars)
        assert 1 <= len(query.text) <= max_chars

    def test_inequality_split_across_sections_is_kept(self):
        # Background is joined before detailed description, so the "<" of
        # one section comes before the ">" of the other; that is not markup.
        doc = make_doc("US1A", description="DETAILED DESCRIPTION a > b. BACKGROUND x < y.")
        assert build_query(doc).text == "x < y. a > b."

    def test_normalizes_once(self, monkeypatch):
        calls = []
        original = patbench.query.preprocess_text

        def counting(raw):
            calls.append(raw)
            return original(raw)

        monkeypatch.setattr(patbench.query, "preprocess_text", counting)
        build_query(make_doc("US1A", description=EN_DESCRIPTION))
        assert calls == [EN_DESCRIPTION]

    @settings(max_examples=200)
    @given(
        parts=st.lists(
            st.one_of(
                st.sampled_from([h for h, _ in HEADING_LEXICON]).map(lambda h: f"\n{h}\n"),
                st.text(alphabet=st.characters(blacklist_characters="<>"), max_size=40),
            ),
            max_size=12,
        ),
        max_chars=st.integers(min_value=1, max_value=200),
    )
    def test_query_text_is_already_normalized(self, parts, max_chars):
        # Without "<" or ">" a second preprocess_text pass over the query
        # text would change nothing.
        try:
            query = build_query(make_doc("US1A", description="".join(parts)), max_chars=max_chars)
        except EmptyInputError:
            return
        assert preprocess_text(query.text) == query.text

    def test_rejects_nonpositive_budget(self):
        with pytest.raises(ValueError):
            build_query(make_doc("US1A"), max_chars=0)

    def test_build_queries_maps_ids(self, synth_corpus):
        ids = sorted(synth_corpus.documents)[:10]
        queries = build_queries(synth_corpus, ids, max_chars=400)
        assert sorted(queries) == ids
        for doc_id, query in queries.items():
            assert query.query_id == doc_id
            assert len(query.text) <= 400

    def test_build_queries_skips_unbuildable_ids(self, synth_corpus):
        # An id missing from the corpus and a document with an empty
        # description get no query; the runner records both as ERROR.
        ids = sorted(synth_corpus.documents)[:3]
        documents = dict(synth_corpus.documents)
        documents[ids[1]] = dataclasses.replace(documents[ids[1]], description=" ")
        corpus = dataclasses.replace(synth_corpus, documents=documents)
        queries = build_queries(corpus, [ids[0], "ZZ999999A", ids[1], ids[2]])
        assert list(queries) == [ids[0], ids[2]]

    def test_build_queries_rejects_nonpositive_budget(self, synth_corpus):
        with pytest.raises(ValueError):
            build_queries(synth_corpus, sorted(synth_corpus.documents)[:1], max_chars=0)
