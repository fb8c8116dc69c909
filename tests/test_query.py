from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import make_doc
from patbench.query import (
    EmptyInputError,
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

    @settings(max_examples=200)
    @given(st.text(max_size=400))
    def test_idempotent(self, raw):
        once = preprocess_text(raw)
        assert preprocess_text(once) == once

    @settings(max_examples=200)
    @given(st.text(max_size=400))
    def test_output_has_no_markup_or_control_chars(self, raw):
        out = preprocess_text(raw)
        assert "<" not in out or ">" not in out.partition("<")[2]
        assert not any(ch for ch in out if ord(ch) < 32)
        assert "  " not in out


class TestParseDescription:
    def test_english_sections(self):
        sections = parse_description(make_doc("US1A", description=EN_DESCRIPTION))
        assert sections.background == "Widgets have long been heavy. Prior widgets also rusted."
        assert sections.summary == "A lighter widget is provided."
        assert (
            sections.detailed_description
            == "The widget body is cast from aluminum. A coating prevents rust."
        )
        assert [h for h, _ in sections.other] == [
            "TECHNICAL FIELD",
            "BRIEF DESCRIPTION OF THE DRAWINGS",
        ]

    def test_chinese_sections(self):
        sections = parse_description(make_doc("CN1A", language="zh", description=ZH_DESCRIPTION))
        assert sections.background == "现有电池模块体积较大。"
        assert sections.summary == "本实用新型提供一种紧凑的电池模块。"
        assert sections.detailed_description == "如图所示，电池模块包括外壳和多个电芯。"

    def test_longest_heading_wins(self):
        doc = make_doc("US1A", description="BACKGROUND OF THE INVENTION\nOld tech.")
        sections = parse_description(doc)
        assert sections.segments[0].heading == "BACKGROUND OF THE INVENTION"
        assert sections.background == "Old tech."

    def test_lowercase_phrases_do_not_split(self):
        doc = make_doc(
            "US1A",
            description="The background of the invention is discussed in the summary below.",
        )
        sections = parse_description(doc)
        assert sections.background == ""
        assert sections.detailed_description.startswith("The background")

    def test_headingless_goes_to_detailed(self):
        doc = make_doc("US1A", description="Just one plain paragraph.")
        sections = parse_description(doc)
        assert sections.detailed_description == "Just one plain paragraph."
        assert sections.background == sections.summary == ""

    def test_preamble_lands_in_other_with_empty_heading(self):
        doc = make_doc("US1A", description="Cross reference text. BACKGROUND\nOld tech.")
        sections = parse_description(doc)
        assert sections.other == (("", "Cross reference text."),)

    def test_repeated_headings_concatenate(self):
        doc = make_doc(
            "US1A",
            description="BACKGROUND\nFirst part. SUMMARY\nMiddle. BACKGROUND\nSecond part.",
        )
        assert parse_description(doc).background == "First part. Second part."

    def test_segments_are_lossless(self):
        doc = make_doc("US1A", description=EN_DESCRIPTION)
        sections = parse_description(doc)
        reassembled = " ".join(
            part for s in sections.segments for part in (s.heading, s.text) if part
        )
        assert reassembled == preprocess_text(EN_DESCRIPTION)

    def test_empty_description_raises(self):
        with pytest.raises(EmptyInputError):
            parse_description(make_doc("US1A", description="  \n "))


class TestExtractKeySections:
    def test_joins_background_and_detailed(self):
        sections = parse_description(make_doc("US1A", description=EN_DESCRIPTION))
        text = extract_key_sections(sections)
        assert text == (
            "Widgets have long been heavy. Prior widgets also rusted."
            "\n\n"
            "The widget body is cast from aluminum. A coating prevents rust."
        )
        assert "lighter widget" not in text
        assert "FIG. 1" not in text

    def test_background_only(self):
        sections = parse_description(make_doc("US1A", description="BACKGROUND\nOld tech."))
        assert extract_key_sections(sections) == "Old tech."

    def test_falls_back_to_full_text_when_key_sections_empty(self):
        doc = make_doc("US1A", description="SUMMARY\nOnly a summary exists here.")
        assert extract_key_sections(parse_description(doc)) == "Only a summary exists here."

    def test_raises_when_nothing_usable(self):
        doc = make_doc("US1A", description="BACKGROUND\nSome text.")
        sections = parse_description(doc)
        empty = type(sections)(
            background="", summary="", detailed_description="", other=(), segments=()
        )
        with pytest.raises(EmptyInputError):
            extract_key_sections(empty)


class TestBuildQuery:
    def test_fields(self):
        query = build_query(make_doc("US1A", description=EN_DESCRIPTION))
        assert query.query_id == "US1A"
        assert query.language == "en"
        assert query.char_length == len(query.text)
        assert not query.truncated

    def test_truncates_at_sentence_boundary(self):
        description = "BACKGROUND\n" + "This sentence has eight words in it now. " * 40
        query = build_query(make_doc("US1A", description=description), max_chars=100)
        assert query.truncated
        assert query.char_length <= 100
        assert query.text.endswith(".")
        assert query.text == "This sentence has eight words in it now. This sentence has eight words in it now."

    def test_chinese_sentence_boundary(self):
        description = "背景技术\n" + "电池模块包括外壳。" * 30
        query = build_query(make_doc("CN1A", language="zh", description=description), max_chars=50)
        assert query.truncated
        assert query.text.endswith("。")
        assert query.char_length <= 50

    def test_hard_cut_without_boundary(self):
        description = "BACKGROUND\n" + "x" * 500
        query = build_query(make_doc("US1A", description=description), max_chars=64)
        assert query.truncated
        assert query.char_length == 64

    @settings(max_examples=100)
    @given(max_chars=st.integers(min_value=1, max_value=300))
    def test_never_exceeds_budget(self, max_chars):
        description = "BACKGROUND\n" + "Alpha beta gamma delta. " * 30
        query = build_query(make_doc("US1A", description=description), max_chars=max_chars)
        assert 1 <= query.char_length <= max_chars

    def test_rejects_nonpositive_budget(self):
        with pytest.raises(ValueError):
            build_query(make_doc("US1A"), max_chars=0)

    def test_build_queries_maps_ids(self, synth_corpus):
        ids = sorted(synth_corpus.documents)[:10]
        queries = build_queries(synth_corpus, ids, max_chars=400)
        assert sorted(queries) == ids
        for doc_id, query in queries.items():
            assert query.query_id == doc_id
            assert query.char_length <= 400

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
