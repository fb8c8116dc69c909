from __future__ import annotations

import dataclasses
import hashlib
import json
import pathlib
import re
from datetime import date, timedelta
from typing import Mapping

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import make_corpus, make_doc, scalar_family_members, scalar_normalize_doc_id
from patbench.corpus import (
    CitationRecord,
    Count,
    CorpusFormatError,
    DuplicateDocIdError,
    PatentDocument,
    UnknownDocIdError,
    _normalize_str_id,
    _require_canonical,
    canonical_corpus_lines,
    corpus_content_hash,
    family_members,
    from_record,
    invert_families,
    ipc_section_of,
    is_stratum_label,
    load_corpus,
    manifest_path_for,
    read_jsonl,
    write_corpus,
)
from patbench.dataset import QueryCaseRecord, RelevantEntry, load_dataset
from patbench.execution import (
    RankedListRecord,
    RemoteEndpointConfig,
    RunControls,
    RunHeaderRecord,
    load_run_log,
)
from patbench.synth import synthetic_corpus


def test_write_then_load_round_trips(synth_corpus, tmp_path):
    path = tmp_path / "corpus.jsonl"
    write_corpus(synth_corpus, path)
    loaded = load_corpus(path)
    assert dict(loaded.documents) == dict(synth_corpus.documents)
    assert sorted(loaded.citations, key=lambda c: (c.citing_id, c.cited_id, c.category)) == sorted(
        synth_corpus.citations, key=lambda c: (c.citing_id, c.cited_id, c.category)
    )
    assert loaded.reference_date == synth_corpus.reference_date
    assert corpus_content_hash(loaded) == corpus_content_hash(synth_corpus)


def test_canonical_write_is_byte_stable(synth_corpus, tmp_path):
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    write_corpus(synth_corpus, a)
    write_corpus(synth_corpus, b)
    assert a.read_bytes() == b.read_bytes()
    assert manifest_path_for(a).read_bytes() == manifest_path_for(b).read_bytes()


def test_bundled_corpus_matches_generator(synth_corpus, bundled_corpus_path):
    loaded = load_corpus(bundled_corpus_path)
    assert corpus_content_hash(loaded) == corpus_content_hash(synth_corpus)


def test_bundled_corpus_regenerates_byte_for_byte(bundled_corpus_path, tmp_path):
    # scripts/make_synthetic_corpus.py promises that rerunning it leaves data/
    # unchanged.
    out = write_corpus(synthetic_corpus(n_docs=200, seed=0), tmp_path / "corpus.jsonl")
    assert out.read_bytes() == bundled_corpus_path.read_bytes()
    assert manifest_path_for(out).read_bytes() == manifest_path_for(bundled_corpus_path).read_bytes()


@pytest.mark.parametrize(
    "n_docs, seed, digest",
    [
        # Too small for a cross-language pair: 6 same-language families.
        (12, 2, "baeea1e0f8cde82a8c7897c7f7e474d42f1299644dfca72b738f5e8a7ad41597"),
        (57, 5, "a41e48bbe28a19198404ae68f403bbf2c076f9fb62a60d2322ad5bdffc37dc97"),
        (300, 1, "0b238918e6f3feb3246627e29847ee45f3f906d72d6ba62a05408c3c50683534"),
    ],
)
def test_synthetic_corpus_bytes_are_pinned(n_docs, seed, digest):
    lines = "".join(line + "\n" for line in canonical_corpus_lines(synthetic_corpus(n_docs, seed)))
    assert hashlib.sha256(lines.encode("utf-8")).hexdigest() == digest


def _write_lines(path, lines):
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def _citation_line(citing_id: str, cited_id: str) -> str:
    return json.dumps(
        {"kind": "citation", "citing_id": citing_id, "cited_id": cited_id, "category": "X"}
    )


def _patent_line(doc_id: str, **overrides) -> str:
    rec = {
        "kind": "patent",
        "doc_id": doc_id,
        "jurisdiction": "US",
        "language": "en",
        "ipc_codes": ["G06F 17/30"],
        "filing_date": "2015-01-01",
        "claims": "1. A widget.",
        "description": "A widget described at length.",
    }
    rec.update(overrides)
    return json.dumps(rec)


def test_strict_load_rejects_malformed_line_with_location(tmp_path):
    path = tmp_path / "bad.jsonl"
    _write_lines(path, [_patent_line("US1A"), "{not json"])
    with pytest.raises(CorpusFormatError) as err:
        load_corpus(path)
    assert f"{path}:2" in str(err.value)


class TestEncoding:
    """Lines are decoded one at a time, so a byte that is not UTF-8 is a format
    error of its own line."""

    def test_strict_names_the_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        latin1 = _patent_line("US2A", title="cafe").encode().replace(b"cafe", b"caf\xe9")
        path.write_bytes(_patent_line("US1A").encode() + b"\n" + latin1 + b"\n")
        with pytest.raises(CorpusFormatError) as err:
            load_corpus(path)
        assert f"{path}:2:" in str(err.value)
        assert "0xe9" in str(err.value)

    def test_lenient_skips_the_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        lines = [_patent_line("US1A").encode(), b"\xff", _patent_line("US3A").encode()]
        path.write_bytes(b"\n".join(lines) + b"\n")
        corpus = load_corpus(path, lenient=True)
        assert sorted(corpus.documents) == ["US1A", "US3A"]
        assert [line for line, _ in corpus.load_skips] == [2]

    def test_crlf_and_non_ascii_text_load(self, tmp_path):
        path = tmp_path / "crlf.jsonl"
        raw_utf8 = _patent_line("CN1A", title="TITLE").replace("TITLE", "\u4e2d\u6587")
        lines = [raw_utf8, _patent_line("US2A")]
        path.write_bytes("".join(line + "\r\n" for line in lines).encode("utf-8"))
        corpus = load_corpus(path)
        assert corpus.documents["CN1A"].title == "\u4e2d\u6587"
        assert sorted(corpus.documents) == ["CN1A", "US2A"]


class TestCanonicalDocIds:
    """Run logs hold normalized ids, so a corpus id must already be normalized
    or no hit could ever match it."""

    @pytest.mark.parametrize("doc_id", ["us2a", "US 2A", "US2A!"])
    def test_strict_rejects_with_location(self, tmp_path, doc_id):
        path = tmp_path / "ids.jsonl"
        _write_lines(path, [_patent_line("US1A"), _patent_line(doc_id)])
        with pytest.raises(CorpusFormatError) as err:
            load_corpus(path)
        assert f"{path}:2:" in str(err.value)
        assert repr(doc_id) in str(err.value)

    def test_lenient_skips(self, tmp_path):
        path = tmp_path / "ids.jsonl"
        _write_lines(path, [_patent_line("us1a"), _patent_line("US2A")])
        corpus = load_corpus(path, lenient=True)
        assert sorted(corpus.documents) == ["US2A"]
        assert [line for line, _ in corpus.load_skips] == [1]

    @pytest.mark.parametrize("field, doc_id", [("citing_id", "us1a"), ("cited_id", "US 2A")])
    def test_citation_ids_strict_rejects_with_location(self, tmp_path, field, doc_id):
        path = tmp_path / "ids.jsonl"
        ids = {"citing_id": "US1A", "cited_id": "US2A", field: doc_id}
        _write_lines(
            path, [_patent_line("US1A"), _patent_line("US2A"), _citation_line(**ids)]
        )
        with pytest.raises(CorpusFormatError) as err:
            load_corpus(path)
        assert f"{path}:3:" in str(err.value)
        assert f"{field} {doc_id!r}" in str(err.value)

    def test_citation_ids_lenient_skips(self, tmp_path):
        path = tmp_path / "ids.jsonl"
        _write_lines(
            path,
            [
                _patent_line("US1A"),
                _patent_line("US2A"),
                _citation_line("US1A", "us2a"),
                _citation_line("US2A", "US1A"),
            ],
        )
        corpus = load_corpus(path, lenient=True)
        assert [(c.citing_id, c.cited_id) for c in corpus.citations] == [("US2A", "US1A")]
        assert [line for line, _ in corpus.load_skips] == [3]


class TestStratumLabels:
    """A language or jurisdiction names one stratum: a label with "|" would
    share its stratum key with another, and a reserved name would share a
    row with the total, the bootstrap's catch-all or a missing label."""

    BAD = ["", "a|b", "__all__", "__rest__", "?", "unknown"]

    @pytest.mark.parametrize("label", BAD)
    @pytest.mark.parametrize("field", ["language", "jurisdiction"])
    def test_strict_rejects_with_location(self, tmp_path, field, label):
        path = tmp_path / "labels.jsonl"
        _write_lines(path, [_patent_line("US1A"), _patent_line("US2A", **{field: label})])
        with pytest.raises(CorpusFormatError) as err:
            load_corpus(path)
        assert f"{path}:2:" in str(err.value)
        assert f"{field} {label!r} is not a stratum label" in str(err.value)

    def test_lenient_skips(self, tmp_path):
        path = tmp_path / "labels.jsonl"
        _write_lines(
            path,
            [_patent_line("US1A", jurisdiction="__all__"), _patent_line("US2A", language="a|b"),
             _patent_line("US3A")],
        )
        corpus = load_corpus(path, lenient=True)
        assert sorted(corpus.documents) == ["US3A"]
        assert [line for line, _ in corpus.load_skips] == [1, 2]

    def test_bundled_and_benchmark_labels_pass(self):
        labels = ["en", "zh", "CN", "US", "EP", "WO", "unclassified", *"ABCDEFGH"]
        assert all(is_stratum_label(label) for label in labels)
        assert not any(is_stratum_label(label) for label in self.BAD)


class TestDates:
    """Dates are YYYY-MM-DD on every Python: from 3.11, date.fromisoformat
    also takes the basic and week forms."""

    @pytest.mark.parametrize("value", ["20150101", "2015-W01-1", "2015-1-01", "2015-01-01T00:00"])
    def test_filing_date_strict_rejects_with_location(self, tmp_path, value):
        path = tmp_path / "dates.jsonl"
        _write_lines(path, [_patent_line("US1A"), _patent_line("US2A", filing_date=value)])
        with pytest.raises(CorpusFormatError) as err:
            load_corpus(path)
        assert f"{path}:2:" in str(err.value)
        assert f"date {value!r} is not YYYY-MM-DD" in str(err.value)

    def test_filing_date_lenient_skips(self, tmp_path):
        path = tmp_path / "dates.jsonl"
        _write_lines(path, [_patent_line("US1A", filing_date="20150101"), _patent_line("US2A")])
        corpus = load_corpus(path, lenient=True)
        assert sorted(corpus.documents) == ["US2A"]
        assert [line for line, _ in corpus.load_skips] == [1]

    @pytest.mark.parametrize("value", ["20200615", "2020-W25-1"])
    @pytest.mark.parametrize("lenient", [False, True])
    def test_sidecar_reference_date_rejected_in_both_modes(self, tmp_path, value, lenient):
        path = tmp_path / "c.jsonl"
        _write_lines(path, [_patent_line("US1A")])
        side = manifest_path_for(path)
        side.write_text(json.dumps({"reference_date": value, "doc_count": 1}))
        with pytest.raises(CorpusFormatError) as err:
            load_corpus(path, lenient=lenient)
        assert str(side) in str(err.value)
        assert repr(value) in str(err.value)


class TestFieldTypes:
    """A present field holds its annotated type; nothing is coerced.  With
    ``str(...)`` a null family_id became the family "None", which joined
    every patent written that way into one family."""

    @pytest.mark.parametrize(
        "field, value",
        [
            ("family_id", None), ("family_id", 7), ("title", False), ("language", 5),
            ("jurisdiction", None), ("doc_id", 12), ("ipc_codes", "G06F 17/30"),
            ("ipc_codes", ["G06F 17/30", None]), ("filing_date", None),
        ],
    )
    def test_patent_field_strict_rejects_with_location(self, tmp_path, field, value):
        path = tmp_path / "typed.jsonl"
        patent = {**json.loads(_patent_line("US2A")), field: value}
        _write_lines(path, [_patent_line("US1A"), json.dumps(patent)])
        with pytest.raises(CorpusFormatError) as err:
            load_corpus(path)
        assert f"{path}:2: field {field!r}" in str(err.value)

    @pytest.mark.parametrize("field, value", [("cited_id", None), ("category", 1), ("source", None)])
    def test_citation_field_strict_rejects_with_location(self, tmp_path, field, value):
        path = tmp_path / "typed.jsonl"
        citation = {"kind": "citation", "citing_id": "US1A", "cited_id": "US2A", "category": "X"}
        _write_lines(path, [_patent_line("US1A"), json.dumps({**citation, field: value})])
        with pytest.raises(CorpusFormatError) as err:
            load_corpus(path)
        assert f"{path}:2: field {field!r}" in str(err.value)

    def test_lenient_skips_null_families(self, tmp_path):
        path = tmp_path / "typed.jsonl"
        _write_lines(
            path,
            [_patent_line("US1A", family_id=None), _patent_line("US2A", family_id=None),
             _patent_line("US3A")],
        )
        corpus = load_corpus(path, lenient=True)
        assert sorted(corpus.documents) == ["US3A"]
        assert [line for line, _ in corpus.load_skips] == [1, 2]
        assert corpus.families == {}


@dataclasses.dataclass(frozen=True)
class _Inner:
    a: str
    n: Count = 0


@dataclasses.dataclass(frozen=True)
class _EveryType:
    s: str
    i: int = 0
    f: float = 0.0
    d: date = date(2000, 1, 1)
    t: tuple[str, ...] = ()
    ms: Mapping[str, str] = dataclasses.field(default_factory=dict)
    mo: Mapping[str, object] = dataclasses.field(default_factory=dict)
    c: Count = 0
    r: _Inner = _Inner("x")
    rs: tuple[_Inner, ...] = ()


@dataclasses.dataclass(frozen=True)
class _Unreadable:
    b: bytes


@dataclasses.dataclass(frozen=True)
class _HoldsUnreadable:
    u: _Unreadable


class TestFromRecord:
    @pytest.mark.parametrize(
        "field, value, read",
        [
            ("s", "x", "x"), ("i", -3, -3), ("f", 2, 2), ("f", 2.5, 2.5),
            ("d", "2015-01-02", date(2015, 1, 2)), ("t", ["a", "b"], ("a", "b")), ("t", [], ()),
            ("ms", {"k": "v"}, {"k": "v"}), ("mo", {"k": [1, None]}, {"k": [1, None]}),
            ("c", 0, 0), ("c", 7, 7), ("r", {"a": "y", "n": 2}, _Inner("y", 2)),
            ("rs", [{"a": "y"}, {"a": "z"}], (_Inner("y"), _Inner("z"))), ("rs", [], ()),
        ],
    )
    def test_accepts(self, field, value, read):
        assert getattr(from_record(_EveryType, {"s": "x", field: value}), field) == read

    @pytest.mark.parametrize(
        "field, value",
        [
            ("s", None), ("s", 5), ("s", True), ("s", ["x"]),
            ("i", None), ("i", 1.5), ("i", 1.0), ("i", "1"), ("i", True),
            ("f", None), ("f", "1.5"), ("f", False),
            ("d", None), ("d", 20150102),
            ("t", None), ("t", "ab"), ("t", ["a", 1]), ("t", {"a": "b"}),
            ("ms", None), ("ms", {"k": 1}), ("ms", ["k"]),
            ("mo", None), ("mo", [1]),
            ("c", -1), ("c", True), ("c", 1.0), ("c", None),
            ("r", None), ("r", ["y"]), ("r", "y"),
            ("rs", None), ("rs", {"a": "y"}), ("rs", [["y"]]), ("rs", [{"a": "y"}, None]),
        ],
    )
    def test_rejects_naming_the_field(self, field, value):
        with pytest.raises(ValueError, match=f"^field {field!r} must be "):
            from_record(_EveryType, {"s": "x", field: value})

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("c", -1, "field 'c' must be an integer >= 0, got -1"),
            # A nested record's fault names the nested field.
            ("r", {"a": 5}, "field 'a' must be a string, got 5"),
            ("r", {"n": 1}, "missing field 'a'"),
            ("rs", [{"a": "y"}, {"a": "z", "n": -2}], "field 'n' must be an integer >= 0, got -2"),
        ],
    )
    def test_message(self, field, value, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            from_record(_EveryType, {"s": "x", field: value})

    def test_date_format_keeps_its_message(self):
        with pytest.raises(ValueError, match="date '20150102' is not YYYY-MM-DD"):
            from_record(_EveryType, {"s": "x", "d": "20150102"})

    def test_missing_required_key(self):
        with pytest.raises(ValueError, match="^missing field 's'$"):
            from_record(_EveryType, {"i": 1})

    def test_left_out_keys_take_defaults_and_other_keys_are_ignored(self):
        assert from_record(_EveryType, {"s": "x", "kind": "patent", "extra": None}) == _EveryType("x")

    def test_rejects_a_record_that_is_not_an_object(self):
        with pytest.raises(ValueError, match="JSON object"):
            from_record(_EveryType, ["s", "x"])

    def test_every_field_of_the_record_classes_has_a_reader(self):
        # Every field holds a value other than its default, so each is read.
        doc, other, cit = _record_fixture()
        cit = dataclasses.replace(cit, source="FAMILY_DERIVED")
        patent, _, citation = _canonical_records(make_corpus([doc, other], [cit]))
        assert from_record(PatentDocument, patent) == doc
        assert from_record(CitationRecord, citation) == cit
        controls = RunControls(seed=3, timeout_ms=9, max_depth=7, adapter_id="x", parallelism=2)
        config = RemoteEndpointConfig(
            adapter_id="a", url="http://a.test/s", method="GET", headers={"h": "v"},
            auth_token_env="E", auth_header="H", auth_scheme="S", query_field="q",
            max_depth_field="m", seed_field="", extra_params={"p": [1]}, hits_path=("r", "h"),
            id_field="i", score_field="c", max_retries=0, backoff_s=1,
        )
        header = RunHeaderRecord(
            controls=controls, dataset_manifest_hash="h", started="s", finished="f", anomaly_count=4
        )
        ranked = RankedListRecord(query_id="Q1", status="TIMEOUT", latency_ms=5)
        entry = RelevantEntry(doc_id="US2A", source="FAMILY_DERIVED")
        case = QueryCaseRecord(
            query_doc_id="US1A", relevant=(entry, RelevantEntry("US3A", "EXAMINER")),
            strata={"language": "de"},
        )
        records = (controls, config, header, ranked, entry, case)
        for record in records:
            as_json = json.loads(json.dumps(dataclasses.asdict(record)))
            assert from_record(type(record), as_json) == record
        for record in (doc, cit) + records:
            for f in dataclasses.fields(record):
                assert getattr(record, f.name) != f.default, f.name

    def test_without_a_pool_a_call_pools_its_own_strings(self):
        line = (
            '{"query_doc_id": "US1A", "relevant": [{"doc_id": "US2A", "source": "EXAMINER"}], '
            '"strata": {"language": "en", "jurisdiction": "en"}}'
        )
        record = from_record(QueryCaseRecord, json.loads(line))
        assert record == from_record(QueryCaseRecord, json.loads(line), {})
        assert record == QueryCaseRecord(
            "US1A", (RelevantEntry("US2A", "EXAMINER"),), {"language": "en", "jurisdiction": "en"}
        )
        assert record.strata["language"] is record.strata["jurisdiction"]

    def test_an_annotation_without_a_reader_is_no_format_error(self, tmp_path):
        with pytest.raises(NotImplementedError, match="_Unreadable.b"):
            from_record(_Unreadable, {"b": "x"})
        with pytest.raises(NotImplementedError, match="_Unreadable.b"):
            from_record(_HoldsUnreadable, {"u": {"b": "x"}})
        path = tmp_path / "x.jsonl"
        path.write_text('{"b": "x"}\n', encoding="utf-8")
        with pytest.raises(NotImplementedError):
            read_jsonl(path, lambda rec, line: from_record(_Unreadable, rec), CorpusFormatError, [])


class TestReadJsonl:
    @pytest.mark.parametrize(
        "line",
        [
            '{"a": 1}', '  {"a": 1}', '{"a": 1}  ', '\t{"a": [1, {"b": null}]}\r',
            '{"a": 1} x', '{"a": 1}{}', '\u00a0{"a": 1}', '{"a": 1}\u00a0', '\ufeff{"a": 1}',
            '{not json', '{"a": NaN}', '[1]', '"a"', '1 2',
        ],
    )
    def test_a_line_reads_as_json_loads_reads_it(self, tmp_path, line):
        path = tmp_path / "x.jsonl"
        path.write_text(line + "\n", encoding="utf-8")
        try:
            expected = json.loads(line)
        except ValueError as exc:
            expected = f"{path}:1: {exc}"
        else:
            if not isinstance(expected, dict):
                expected = f"{path}:1: record is not a JSON object"
        seen = []
        try:
            read_jsonl(path, lambda rec, number: seen.append(rec), CorpusFormatError)
        except CorpusFormatError as exc:
            seen.append(str(exc))
        assert seen == [expected]

    @pytest.mark.parametrize("line", ["", " \t", "\x0c", "\u00a0 \u2003"])
    def test_a_line_of_whitespace_is_skipped(self, tmp_path, line):
        path = tmp_path / "x.jsonl"
        path.write_text(line + '\n{"a": 1}\n', encoding="utf-8")
        seen = []
        read_jsonl(path, lambda rec, number: seen.append((number, rec)), CorpusFormatError)
        assert seen == [(2, {"a": 1})]

    def _read(self, path, handle):
        path.write_text('{"a": 1}\n\n{"a": 2}\n', encoding="utf-8")
        read_jsonl(path, handle, CorpusFormatError)

    def test_blank_line_skipped_but_counted(self, tmp_path):
        seen = []
        self._read(tmp_path / "x.jsonl", lambda rec, line: seen.append((line, rec["a"])))
        assert seen == [(1, 1), (3, 2)]

    @pytest.mark.parametrize(
        "exc, raised",
        [(ValueError("bad value"), CorpusFormatError), (RuntimeError("not a format error"), RuntimeError)],
    )
    def test_handler_raises(self, tmp_path, exc, raised):
        def handle(rec, line):
            raise exc

        path = tmp_path / "x.jsonl"
        with pytest.raises(raised) as err:
            self._read(path, handle)
        if raised is CorpusFormatError:
            assert str(err.value) == f"{path}:1: bad value"
        else:
            assert err.value is exc


GOLDEN_DIR = pathlib.Path(__file__).resolve().parent / "golden"


def _strings(value) -> list[str]:
    """Every str in a loaded record's fields, container or mapping, keys included."""
    if isinstance(value, str):
        return [value]
    if dataclasses.is_dataclass(value):
        value = [getattr(value, f.name) for f in dataclasses.fields(value)]
    if isinstance(value, Mapping):
        return [s for k, v in value.items() for s in _strings(k) + _strings(v)]
    if isinstance(value, (tuple, list, frozenset)):
        return [s for v in value for s in _strings(v)]
    return []


def _one_object_per_value(strings) -> None:
    by_value: dict[str, set[int]] = {}
    for s in strings:
        by_value.setdefault(s, set()).add(id(s))
    assert by_value
    assert {v: ids for v, ids in by_value.items() if len(ids) > 1} == {}


class TestLoadPool:
    """Each loader reads a file's ids and labels through one pool: equal
    strings within the file are one object, and no object outlives the load
    into another load's records."""

    def test_dataset_examiner_and_labels(self):
        dataset = load_dataset(GOLDEN_DIR / "quickstart_dataset.jsonl")
        sources = [s for case in dataset.queries for s in case.relevant_provenance.values()]
        _one_object_per_value(s for s in sources if s == "EXAMINER")
        assert sources.count("EXAMINER") > 1
        _one_object_per_value(_strings(dataset.strata))
        _one_object_per_value(_strings(dataset.queries))

    def test_corpus_fields(self, bundled_corpus_path):
        corpus = load_corpus(bundled_corpus_path)
        docs = list(corpus.documents.values())
        for name in ("language", "jurisdiction", "family_id"):
            values = [getattr(doc, name) for doc in docs]
            assert len(values) > len(set(values)), name
            _one_object_per_value(values)
        _one_object_per_value(code for doc in docs for code in doc.ipc_codes)
        # Citation ends are the patents' own doc_id objects.
        assert corpus.citations
        for cit in corpus.citations:
            assert cit.citing_id is corpus.documents[cit.citing_id].doc_id

    def test_run_log_doc_ids_and_statuses(self):
        record = load_run_log(GOLDEN_DIR / "quickstart_run_exclude_family.jsonl")
        lists = list(record.results.values())
        doc_ids = [doc_id for ranked in lists for doc_id in ranked.doc_ids]
        # Ids are unique within a list, so a repeat is an id in two lists.
        assert len(doc_ids) > len(set(doc_ids))
        _one_object_per_value(doc_ids)
        statuses = [ranked.status for ranked in lists]
        assert statuses.count("OK") > 1
        _one_object_per_value(statuses)

    def test_corpus_load_leaves_no_id_in_the_normalize_cache(self, bundled_corpus_path):
        _normalize_str_id.cache_clear()
        load_corpus(bundled_corpus_path)
        assert _normalize_str_id.cache_info().currsize == 0

    @pytest.mark.parametrize(
        "load, name",
        [
            (load_dataset, "quickstart_dataset.jsonl"),
            (load_corpus, None),
            (load_run_log, "quickstart_run_exclude_family.jsonl"),
        ],
    )
    def test_two_loads_share_no_id(self, load, name, bundled_corpus_path):
        path = bundled_corpus_path if name is None else GOLDEN_DIR / name
        first, second = load(path), load(path)
        # One-character strings are the interpreter's own shared objects.
        ids = [{id(s) for s in _strings(loaded) if len(s) > 1} for loaded in (first, second)]
        assert ids[0] and ids[1]
        assert ids[0].isdisjoint(ids[1])


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="AZaz09./-_ \t\n\u00a0\u00df\u0131\ufb01", max_size=6))
def test_canonical_id_check_is_the_normalize_fixed_point(raw):
    try:
        _require_canonical("doc_id", raw)
    except ValueError:
        accepted = False
    else:
        accepted = True
    assert accepted == (scalar_normalize_doc_id(raw) == raw)


def test_lenient_load_skips_and_records(tmp_path):
    path = tmp_path / "bad.jsonl"
    _write_lines(
        path,
        [
            _patent_line("US1A"),
            "{not json",
            json.dumps({"kind": "mystery"}),
            _patent_line("US2A", filing_date="not-a-date"),
            _patent_line("US3A"),
        ],
    )
    corpus = load_corpus(path, lenient=True)
    assert set(corpus.documents) == {"US1A", "US3A"}
    assert [line for line, _ in corpus.load_skips] == [2, 3, 4]


def test_duplicate_doc_id_fatal_even_in_lenient_mode(tmp_path):
    path = tmp_path / "dup.jsonl"
    _write_lines(path, [_patent_line("US1A"), _patent_line("US1A")])
    with pytest.raises(DuplicateDocIdError) as err:
        load_corpus(path, lenient=True)
    assert err.value.doc_id == "US1A"
    assert err.value.line_number == 2


def test_citation_before_document_resolves(tmp_path):
    path = tmp_path / "order.jsonl"
    _write_lines(
        path,
        [
            json.dumps(
                {"kind": "citation", "citing_id": "US2A", "cited_id": "US1A", "category": "X"}
            ),
            _patent_line("US1A"),
            _patent_line("US2A"),
        ],
    )
    corpus = load_corpus(path)
    assert len(corpus.citations) == 1


def test_citation_with_unknown_citing_id_is_strict_error(tmp_path):
    path = tmp_path / "orphan.jsonl"
    _write_lines(
        path,
        [
            _patent_line("US1A"),
            json.dumps(
                {"kind": "citation", "citing_id": "US9A", "cited_id": "US1A", "category": "X"}
            ),
        ],
    )
    with pytest.raises(CorpusFormatError):
        load_corpus(path)
    corpus = load_corpus(path, lenient=True)
    assert corpus.citations == ()
    assert corpus.load_skips[0][0] == 2


def test_reference_date_from_sidecar_manifest(tmp_path):
    path = tmp_path / "c.jsonl"
    _write_lines(path, [_patent_line("US1A", filing_date="2001-05-05")])
    manifest_path_for(path).write_text(
        json.dumps({"reference_date": "2019-12-31", "doc_count": 1, "citation_count": 0})
    )
    assert load_corpus(path).reference_date == date(2019, 12, 31)


def test_sidecar_count_mismatch_strict_vs_lenient(tmp_path):
    path = tmp_path / "c.jsonl"
    _write_lines(path, [_patent_line("US1A")])
    manifest_path_for(path).write_text(
        json.dumps({"reference_date": "2019-12-31", "doc_count": 7})
    )
    with pytest.raises(CorpusFormatError):
        load_corpus(path)
    assert load_corpus(path, lenient=True).reference_date == date(2019, 12, 31)


def test_reference_date_falls_back_to_latest_filing(tmp_path):
    path = tmp_path / "c.jsonl"
    _write_lines(
        path,
        [
            _patent_line("US1A", filing_date="2011-03-09"),
            _patent_line("US2A", filing_date="2016-08-30"),
        ],
    )
    assert load_corpus(path).reference_date == date(2016, 8, 30)


def test_empty_corpus_gets_epoch_reference_date(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    assert load_corpus(path).reference_date == date(1970, 1, 1)


def test_self_citation_rejected():
    with pytest.raises(ValueError):
        CitationRecord(citing_id="US1A", cited_id="US1A", category="X")


@pytest.mark.parametrize("bad", [{"category": "Z"}, {"source": "GUESSED"}])
def test_citation_field_validation(bad):
    fields = dict(citing_id="US1A", cited_id="US2A", category="X")
    fields.update(bad)
    with pytest.raises(ValueError):
        CitationRecord(**fields)


def test_content_hash_tracks_reference_date():
    docs = [make_doc("US1A")]
    a = make_corpus(docs, reference_date=date(2020, 6, 15))
    b = make_corpus(docs, reference_date=date(2020, 6, 16))
    assert corpus_content_hash(a) != corpus_content_hash(b)


def test_ipc_section_of_variants():
    assert ipc_section_of(make_doc("US1A", ipc_codes=("G06F 17/30",))) == "G"
    assert ipc_section_of(make_doc("US2A", ipc_codes=("h04l 1/00",))) == "H"
    assert ipc_section_of(make_doc("US3A", ipc_codes=())) == "unclassified"
    assert ipc_section_of(make_doc("US4A", ipc_codes=("9X99 1/00",))) == "unclassified"
    # only the first listed code decides the stratum
    assert ipc_section_of(make_doc("US5A", ipc_codes=("A01B 1/00", "G06F 17/30"))) == "A"


def test_family_members_sorted_and_excludes_self():
    docs = [
        make_doc("US3A", family_id="F1"),
        make_doc("US1A", family_id="F1"),
        make_doc("EP2A", family_id="F1"),
        make_doc("WO4A", family_id="F2"),
        make_doc("WO5A"),
    ]
    corpus = make_corpus(docs)
    members = family_members(corpus, "US1A")
    assert [d.doc_id for d in members] == ["EP2A", "US3A"]
    assert family_members(corpus, "WO5A") == []
    with pytest.raises(UnknownDocIdError):
        family_members(corpus, "XX0A")


# Documents draw a family from a small pool so that empty ids, singletons and
# larger families all occur; "" means no family.
_family_docs = st.lists(
    st.tuples(
        st.sampled_from(["US", "EP", "CN", "WO"]),
        st.sampled_from(["en", "zh", "de"]),
        st.sampled_from(["", "", "F1", "F2", "F3", "F4"]),
    ),
    max_size=14,
)


@settings(max_examples=200)
@given(_family_docs, st.lists(st.sampled_from(["XX0A", "US1A", "ZZ99B"]), max_size=3))
def test_family_index_matches_scan(specs, unknown):
    docs = [
        make_doc(f"{jur}{i}A", jurisdiction=jur, language=lang, family_id=fam)
        for i, (jur, lang, fam) in enumerate(specs)
    ]
    corpus = make_corpus(docs)
    assert corpus.family_of == {d.doc_id: d.family_id for d in docs if d.family_id}
    for doc_id in list(corpus.documents) + unknown:
        if doc_id in corpus.documents:
            assert family_members(corpus, doc_id) == scalar_family_members(corpus, doc_id)
            continue
        for lookup in (family_members, scalar_family_members):
            with pytest.raises(UnknownDocIdError):
                lookup(corpus, doc_id)


@settings(max_examples=200)
@given(_family_docs)
def test_family_inverse_equals_the_corpus_index(specs):
    docs = [
        make_doc(f"{jur}{i}A", jurisdiction=jur, language=lang, family_id=fam)
        for i, (jur, lang, fam) in enumerate(specs)
    ]
    corpus = make_corpus(docs)
    # Every document, empty family ids included: the inverse skips them.
    raw = {d.doc_id: d.family_id for d in docs}
    expected = {
        fam: tuple(sorted(d for d, f in raw.items() if f == fam))
        for fam in set(raw.values())
        if fam
    }
    assert invert_families(raw) == expected == corpus.families
    assert invert_families(corpus.family_of) == expected


def test_family_inverse_skips_empty_ids_and_sorts_members():
    family_of = {"US3A": "F1", "EP2A": "F1", "WO5A": "", "CN4A": "F2", "US1A": "F1"}
    assert invert_families(family_of) == {"F1": ("EP2A", "US1A", "US3A"), "F2": ("CN4A",)}
    assert invert_families({"US1A": ""}) == {}


def _canonical_records(corpus):
    return [json.loads(line) for line in canonical_corpus_lines(corpus)]


def _record_fixture():
    doc = make_doc("US1A", family_id="F1", ipc_codes=("G06F 17/30", "H04L 1/00"))
    other = make_doc("US2A")
    return doc, other, CitationRecord(citing_id="US1A", cited_id="US2A", category="X")


def test_canonical_records_hold_exactly_the_dataclass_fields():
    doc, other, cit = _record_fixture()
    patent, _, citation = _canonical_records(make_corpus([doc, other], [cit]))
    assert set(patent) == {f.name for f in dataclasses.fields(PatentDocument)} | {"kind"}
    assert set(citation) == {f.name for f in dataclasses.fields(CitationRecord)} | {"kind"}
    assert patent["kind"] == "patent" and citation["kind"] == "citation"
    assert patent["ipc_codes"] == ["G06F 17/30", "H04L 1/00"]
    assert patent["filing_date"] == doc.filing_date.isoformat()


def _changed(name, value):
    """Another valid value of a record field."""
    if name == "category":
        return "Y" if value != "Y" else "X"
    if name == "source":
        return "FAMILY_DERIVED" if value != "FAMILY_DERIVED" else "EXAMINER"
    if isinstance(value, str):
        return value + "9"
    if isinstance(value, tuple):
        return value + ("A01B 1/00",)
    if isinstance(value, date):
        return value + timedelta(days=1)
    raise AssertionError(f"no other value for field {name!r} of type {type(value).__name__}")


def test_content_hash_covers_every_record_field():
    doc, other, cit = _record_fixture()
    base = corpus_content_hash(make_corpus([doc, other], [cit]))
    for f in dataclasses.fields(PatentDocument):
        edited = dataclasses.replace(doc, **{f.name: _changed(f.name, getattr(doc, f.name))})
        assert corpus_content_hash(make_corpus([edited, other], [cit])) != base, f.name
    for f in dataclasses.fields(CitationRecord):
        edited = dataclasses.replace(cit, **{f.name: _changed(f.name, getattr(cit, f.name))})
        assert corpus_content_hash(make_corpus([doc, other], [edited])) != base, f.name
