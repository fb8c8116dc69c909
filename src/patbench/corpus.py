"""Patent corpus model: line-delimited loading with format checks, and
family/classification lookups.

A corpus file holds one JSON record per line, UTF-8 encoded.  Each record
carries a ``kind`` field: ``"patent"`` for documents, ``"citation"`` for
citation edges.  A sidecar manifest (``<file>.manifest.json``) records the
corpus reference date and record counts.
"""

from __future__ import annotations

import functools
import hashlib
import json
import logging
import re
from dataclasses import MISSING, dataclass, fields, is_dataclass
from datetime import date
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, NewType, TypeVar, get_type_hints

logger = logging.getLogger(__name__)

T = TypeVar("T")

CITATION_CATEGORIES = frozenset({"X", "Y", "A", "OTHER"})
CITATION_SOURCES = frozenset({"EXAMINER", "FAMILY_DERIVED"})
IPC_SECTIONS = frozenset("ABCDEFGH")
UNCLASSIFIED = "unclassified"

# Stratum labels the code itself writes: the total row of a breakdown, the
# bootstrap's catch-all stratum, a query's missing label, and a language the
# cross-language table does not know.  Stratum keys join labels with "|".
TOTAL_LABEL = "__all__"
CATCH_ALL_LABEL = "__rest__"
MISSING_LABEL = "?"
UNKNOWN_LANGUAGE = "unknown"
RESERVED_LABELS = frozenset({TOTAL_LABEL, CATCH_ALL_LABEL, MISSING_LABEL, UNKNOWN_LANGUAGE})

_ID_WS_RE = re.compile(r"\s+")
_ID_OK_RE = re.compile(r"^[A-Z0-9][A-Z0-9./-]*$")
_DATE_RE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")


class CorpusError(Exception):
    """Base class for corpus loading and lookup failures."""


class CorpusFormatError(CorpusError):
    """A record or sidecar manifest violates the corpus file format."""


class DuplicateDocIdError(CorpusFormatError):
    """Two patent records share a doc_id.  Always fatal, even in lenient mode."""

    def __init__(self, doc_id: str, line_number: int) -> None:
        super().__init__(f"duplicate doc_id {doc_id!r} at line {line_number}")
        self.doc_id = doc_id
        self.line_number = line_number


class UnknownDocIdError(CorpusError, KeyError):
    """A doc_id was looked up that the corpus does not contain."""

    def __init__(self, doc_id: str) -> None:
        super().__init__(f"unknown doc_id {doc_id!r}")
        self.doc_id = doc_id


@dataclass(frozen=True, slots=True)
class PatentDocument:
    """One patent publication.

    Text fields may be empty.  ``family_id`` may be empty for documents with
    no known family.
    """

    doc_id: str
    jurisdiction: str
    language: str
    ipc_codes: tuple[str, ...]
    filing_date: date
    family_id: str = ""
    title: Text = ""
    abstract: Text = ""
    claims: Text = ""
    description: Text = ""

    def __post_init__(self) -> None:
        if not self.doc_id:
            raise ValueError("doc_id must be non-empty")


@dataclass(frozen=True, order=True, slots=True)
class CitationRecord:
    """A directed citation edge between two publications.  Records order by
    their fields in declaration order."""

    citing_id: str
    cited_id: str
    category: str
    source: str = "EXAMINER"

    def __post_init__(self) -> None:
        if not self.citing_id or not self.cited_id:
            raise ValueError("citing_id and cited_id must be non-empty")
        if self.citing_id == self.cited_id:
            raise ValueError(f"citation of {self.citing_id!r} to itself")
        if self.category not in CITATION_CATEGORIES:
            raise ValueError(f"unknown citation category {self.category!r}")
        if self.source not in CITATION_SOURCES:
            raise ValueError(f"unknown citation source {self.source!r}")


@dataclass(frozen=True)
class Corpus:
    """An in-memory corpus: documents by id, citation edges, reference date.

    ``reference_date`` anchors recency filtering.  ``load_skips`` records
    (line_number, reason) pairs for lines skipped during a lenient load.
    The family index (``family_of``, ``families``) is built on first use,
    is shared by every caller, who must not mutate it, and assumes
    ``documents`` is not mutated afterwards.
    """

    documents: Mapping[str, PatentDocument]
    citations: tuple[CitationRecord, ...]
    reference_date: date
    load_skips: tuple[tuple[int, str], ...] = ()

    # cached_property stores into the instance __dict__, bypassing the
    # frozen dataclass's __setattr__.
    @functools.cached_property
    def family_of(self) -> dict[str, str]:
        """doc_id -> family_id, for documents with a non-empty family only."""
        return {doc_id: doc.family_id for doc_id, doc in self.documents.items() if doc.family_id}

    @functools.cached_property
    def families(self) -> dict[str, tuple[str, ...]]:
        """family_id -> member doc_ids in sorted order."""
        return invert_families(self.family_of)


def invert_families(family_of: Mapping[str, str]) -> dict[str, tuple[str, ...]]:
    """The inverse of a doc_id -> family_id mapping: each non-empty family's
    member doc_ids in sorted order.  An empty family_id is no family."""
    members: dict[str, list[str]] = {}
    for doc_id, family_id in family_of.items():
        if family_id:
            members.setdefault(family_id, []).append(doc_id)
    return {family_id: tuple(sorted(ids)) for family_id, ids in members.items()}


def normalize_doc_id(raw: object) -> str | None:
    """Uppercase, whitespace-free publication id; ``None`` when unmappable."""
    if not isinstance(raw, str):
        return None
    return _normalize_str_id(raw)


# Ids repeat heavily: a run sees the same few thousand ids in every query's
# hits.  The type test stays outside the cache so that unhashable ids never
# reach it.  At about 140 bytes an entry, the bound keeps the cache under 5 MB.
@functools.lru_cache(maxsize=1 << 15)
def _normalize_str_id(raw: str) -> str | None:
    norm = _ID_WS_RE.sub("", raw).upper()
    if not _ID_OK_RE.match(norm):
        return None
    return norm


def _require_canonical(field_name: str, doc_id: str) -> None:
    # An id is its own normalize_doc_id form exactly when it holds only the
    # characters that form allows.  Tested without that function's cache,
    # which would keep every id of a loaded file for the life of the process.
    if not _ID_OK_RE.fullmatch(doc_id):
        raise ValueError(
            f"{field_name} {doc_id!r} is not a canonical publication id: "
            "upper-case letters, digits, '.', '/' and '-', led by a letter or digit"
        )


def is_stratum_label(label: object) -> bool:
    """Whether ``label`` can name one stratum: it is a non-empty string,
    holds no ``|`` and is not one of :data:`RESERVED_LABELS`."""
    return (
        isinstance(label, str) and bool(label) and "|" not in label
        and label not in RESERVED_LABELS
    )


def require_stratum_label(field_name: str, label: object) -> None:
    if not is_stratum_label(label):
        raise ValueError(
            f"{field_name} {label!r} is not a stratum label: it must be a non-empty string, "
            f"hold no '|' and be none of {', '.join(sorted(RESERVED_LABELS))}"
        )


def _parse_date(value: str) -> date:
    # The format prescribes YYYY-MM-DD.  date.fromisoformat alone is not
    # enough: from Python 3.11 it also takes 20150101 and 2015-W01-1.
    if not isinstance(value, str):
        raise ValueError(f"date must be an ISO string, got {type(value).__name__}")
    if not _DATE_RE.fullmatch(value):
        raise ValueError(f"date {value!r} is not YYYY-MM-DD")
    return date.fromisoformat(value)


# An integer >= 0, such as a count or a latency; a plain int at run time.
Count = NewType("Count", int)

# Free text, such as a patent's claims; a plain str at run time.  Unlike the
# other strings of a record, it is not read through the pool.
Text = NewType("Text", str)


class _WrongItem(Exception):
    """An item of a list or object field that is not of the field's type."""


def _pooled(value: str, pool: dict[str, str]) -> str:
    return pool.setdefault(value, value)


# A field holding strings reads its items in one pass, which checks and
# pools each; a comprehension after an all() test took twice as long.
def _pooled_list(value: list, pool: dict[str, str]) -> tuple[str, ...]:
    items = []
    for x in value:
        if type(x) is not str:
            raise _WrongItem
        items.append(pool.setdefault(x, x))
    return tuple(items)


def _pooled_object(value: dict, pool: dict[str, str]) -> dict[str, str]:
    items = {}
    for k, x in value.items():
        if type(x) is not str:
            raise _WrongItem
        items[pool.setdefault(k, k)] = pool.setdefault(x, x)
    return items


# By field type: (test of a present JSON value, what it must be, conversion
# of the value and the pool, which raises _WrongItem for an item of the wrong
# type).  None is the str test, inlined.  ``type(v) is int`` skips bool.
_FIELD_TYPES: dict[object, tuple[Callable[[object], bool] | None, str, Callable | None]] = {
    str: (None, "a string", _pooled),
    Text: (None, "a string", None),
    int: (lambda v: type(v) is int, "an integer", None),
    Count: (lambda v: type(v) is int and v >= 0, "an integer >= 0", None),
    float: (lambda v: type(v) in (int, float), "a number", None),
    date: (None, "a YYYY-MM-DD string", lambda v, pool: _parse_date(v)),
    tuple[str, ...]: (lambda v: type(v) is list, "a list of strings", _pooled_list),
    Mapping[str, str]: (lambda v: type(v) is dict, "an object of strings", _pooled_object),
    Mapping[str, object]: (lambda v: type(v) is dict, "an object", None),
}


def _field_type(hint: object) -> tuple | None:
    """The ``_FIELD_TYPES`` entry of a field type.  A dataclass is read from
    an object and a ``tuple[Record, ...]`` from a list of objects, each record
    built as it is read."""
    if is_dataclass(hint):
        readers = _record_type(hint)
        return (
            lambda v: type(v) is dict, "an object",
            lambda v, pool: hint(*_read_values(readers, v, pool)),
        )
    item = getattr(hint, "__args__", (None,))[0]
    if is_dataclass(item) and hint == tuple[item, ...]:
        readers = _record_type(item)

        def read(value: list, pool: dict[str, str]) -> tuple:
            records = []
            for x in value:
                if type(x) is not dict:
                    raise _WrongItem
                records.append(item(*_read_values(readers, x, pool)))
            return tuple(records)

        return (lambda v: type(v) is list, "a list of objects", read)
    return _FIELD_TYPES.get(hint)


@functools.cache
def _record_type(cls: type) -> tuple[tuple, ...]:
    """The readers of ``cls``'s fields, in field order."""
    hints = get_type_hints(cls)
    readers = []
    for f in fields(cls):
        field_type = _field_type(hints[f.name])
        if field_type is None or not f.init or f.kw_only:
            # A programming error, which read_jsonl's format-error policy lets through.
            raise NotImplementedError(f"from_record cannot read {cls.__name__}.{f.name}: {f.type}")
        default = f.default_factory if f.default is MISSING else (lambda d=f.default: d)
        readers.append((f.name, *field_type, default))
    return tuple(readers)


def _read_values(readers: tuple[tuple, ...], rec: dict, pool: dict[str, str]) -> list:
    # Positional arguments and rec[name]: kwargs or rec.get made parsing 5-15% slower.
    values = []
    for name, test, expected, convert, default in readers:
        try:
            value = rec[name]
        except KeyError:
            if default is MISSING:
                raise ValueError(f"missing field {name!r}") from None
            value = default()
        else:
            if not (type(value) is str if test is None else test(value)):
                raise ValueError(f"field {name!r} must be {expected}, got {value!r}")
            # The str conversion, inlined: most fields are strings.
            if convert is _pooled:
                value = pool.setdefault(value, value)
            elif convert is not None:
                try:
                    value = convert(value, pool)
                except _WrongItem:
                    raise ValueError(f"field {name!r} must be {expected}, got {value!r}") from None
        values.append(value)
    return values


def from_record(cls: type[T], rec: object, pool: dict[str, str] | None = None) -> T:
    """The dataclass ``cls`` read from a JSON object, the inverse of ``asdict``
    and :func:`canonical_corpus_lines`.  A field with no default is required; a
    key left out takes the field's default; a present key must hold a non-null
    value of the field's annotated type.  Other keys are ignored.  A field that
    holds records builds each one, checks and all, when it is read.

    The strings of ``str``, ``tuple[str, ...]`` and ``Mapping[str, str]``
    fields, keys included, are taken from ``pool``: the first string of each
    value is added to it and an equal string read later is replaced by that
    one, so that the records of one file hold one object per id and label.
    :data:`Text` fields and ``Mapping[str, object]`` values are read as they
    are.  A loader passes one pool to every call over its file and drops it
    when the load returns; without one, a call uses a pool of its own."""
    if type(rec) is not dict:
        raise ValueError(f"a {cls.__name__} must be a JSON object, got {type(rec).__name__}")
    return cls(*_read_values(_record_type(cls), rec, {} if pool is None else pool))


def manifest_path_for(corpus_path: str | Path) -> Path:
    return Path(str(corpus_path) + ".manifest.json")


_scan_json = json.JSONDecoder().scan_once

# The one encoder of corpus and run-log lines, where json.dumps with options
# builds one per call.  Lines are built afresh from dataclasses and are never
# cyclic, so the circular-reference check, which tracks every list, is
# skipped; the bytes are those of json.dumps(rec, sort_keys=True, ensure_ascii=False).
encode_line = json.JSONEncoder(sort_keys=True, ensure_ascii=False, check_circular=False).encode


def read_jsonl(
    path: Path,
    handle: Callable[[dict, int], None],
    error_cls: type[Exception],
    skips: list[tuple[int, str]] | None = None,
) -> None:
    """Call ``handle(record, line_number)`` on each non-blank line of a JSONL file.

    The one format-error policy of the corpus, dataset and run-log loaders: a
    line that is not UTF-8, not JSON or not an object, or whose handler raises
    ``ValueError``, ``KeyError`` (a missing field) or ``TypeError``, raises
    ``error_cls("path:line: message")``.  With ``skips`` given, the
    ``(line_number, message)`` pair is appended there instead and reading goes
    on.  Other exceptions propagate unchanged.
    """
    # Bytes in, one line decoded at a time: a bad byte is an error of its own
    # line, under the same policy as bad JSON.
    with path.open("rb") as fh:
        for line_number, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8")
                # The line without JSON's whitespace; it is blank when the
                # rest is whitespace too.
                text = line.strip(" \t\n\r")
                if not text or text.isspace():
                    continue
                # json.loads(line) in one C call: its Python steps cost about a
                # microsecond a line.  A line that the scanner does not read
                # whole goes to json.loads, which raises the error naming the fault.
                try:
                    rec, end = _scan_json(text, 0)
                except StopIteration:
                    end = -1
                if end != len(text):
                    rec = json.loads(line)
                if not isinstance(rec, dict):
                    raise ValueError("record is not a JSON object")
                handle(rec, line_number)
            except (ValueError, KeyError, TypeError) as exc:
                msg = f"missing field {exc}" if isinstance(exc, KeyError) else str(exc)
                if skips is None:
                    raise error_cls(f"{path}:{line_number}: {msg}") from exc
                skips.append((line_number, msg))


def write_lines(path: str | Path, lines: Iterable[str]) -> Path:
    """Write each of ``lines`` plus ``"\n"`` to ``path`` as UTF-8, creating
    its directory; the one writer of corpus, dataset and run-log files.
    ``lines`` is consumed as it is written, never joined in memory."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(line + "\n" for line in lines)
    return path


def load_corpus(path: str | Path, lenient: bool = False) -> Corpus:
    """Load a line-delimited corpus file.

    Strict mode (default) raises :class:`CorpusFormatError` on the first
    malformed line.  Lenient mode skips malformed lines and records them in
    ``Corpus.load_skips``.  A patent whose doc_id, or a citation whose
    citing_id or cited_id, is not its own :func:`normalize_doc_id` form is
    malformed, since run logs hold normalized ids only.  So is a record that
    :func:`from_record` rejects, a patent whose language or jurisdiction fails
    :func:`is_stratum_label`, or whose filing date is not YYYY-MM-DD.  A
    duplicate doc_id is fatal in both modes.

    Args:
        path: corpus file location.
        lenient: skip malformed lines instead of failing.

    Returns:
        The parsed corpus.  The reference date comes from the sidecar
        manifest when present, otherwise the latest filing date on record.
    """
    path = Path(path)
    documents: dict[str, PatentDocument] = {}
    citations: list[CitationRecord] = []
    citation_lines: list[int] = []
    skips: list[tuple[int, str]] = []
    pool: dict[str, str] = {}

    def add(rec: dict, line_number: int) -> None:
        kind = rec.get("kind")
        if kind == "patent":
            doc = from_record(PatentDocument, rec, pool)
            _require_canonical("doc_id", doc.doc_id)
            require_stratum_label("language", doc.language)
            require_stratum_label("jurisdiction", doc.jurisdiction)
            if doc.doc_id in documents:
                raise DuplicateDocIdError(doc.doc_id, line_number)
            documents[doc.doc_id] = doc
        elif kind == "citation":
            cit = from_record(CitationRecord, rec, pool)
            _require_canonical("citing_id", cit.citing_id)
            _require_canonical("cited_id", cit.cited_id)
            citations.append(cit)
            citation_lines.append(line_number)
        else:
            raise ValueError(f"unknown record kind {kind!r}")

    read_jsonl(path, add, CorpusFormatError, skips if lenient else None)

    # Citing ends must resolve; citations can appear before their documents
    # in the file, so this check runs after the full pass.
    kept: list[CitationRecord] = []
    for cit, line_number in zip(citations, citation_lines):
        if cit.citing_id not in documents:
            msg = f"citation citing unknown doc_id {cit.citing_id!r}"
            if lenient:
                skips.append((line_number, msg))
                continue
            raise CorpusFormatError(f"{path}:{line_number}: {msg}")
        kept.append(cit)

    reference_date = _read_reference_date(path, documents, len(kept), lenient)
    return Corpus(
        documents=documents,
        citations=tuple(kept),
        reference_date=reference_date,
        load_skips=tuple(skips),
    )


def _read_reference_date(
    path: Path,
    documents: dict[str, PatentDocument],
    citation_count: int,
    lenient: bool,
) -> date:
    side = manifest_path_for(path)
    if side.exists():
        try:
            manifest = json.loads(side.read_text(encoding="utf-8"))
            ref = _parse_date(manifest["reference_date"])
        except (ValueError, KeyError, TypeError) as exc:
            raise CorpusFormatError(f"{side}: bad sidecar manifest: {exc}") from exc
        for key, actual in (("doc_count", len(documents)), ("citation_count", citation_count)):
            expected = manifest.get(key)
            if expected is not None and expected != actual:
                msg = f"{side}: manifest {key}={expected} but file holds {actual}"
                if lenient:
                    logger.warning("%s", msg)
                else:
                    raise CorpusFormatError(msg)
        return ref
    # No sidecar: fall back to the latest filing date so recency filtering
    # stays deterministic for the same file content.
    if documents:
        return max(doc.filing_date for doc in documents.values())
    return date(1970, 1, 1)


def canonical_corpus_lines(corpus: Corpus) -> Iterator[str]:
    """Canonical serialization: documents sorted by id, then sorted citations.

    A record holds every field of its dataclass plus ``kind``, with the IPC
    codes as a list and the filing date as an ISO string.
    """
    doc_fields = [f.name for f in fields(PatentDocument)]
    for doc_id in sorted(corpus.documents):
        doc = corpus.documents[doc_id]
        record = {name: getattr(doc, name) for name in doc_fields}
        record.update(kind="patent", filing_date=doc.filing_date.isoformat())
        yield encode_line(record)
    citation_fields = [f.name for f in fields(CitationRecord)]
    for cit in sorted(corpus.citations):
        record = {name: getattr(cit, name) for name in citation_fields}
        record["kind"] = "citation"
        yield encode_line(record)


def write_corpus(corpus: Corpus, path: str | Path) -> Path:
    """Write the canonical corpus serialization plus its sidecar manifest."""
    path = write_lines(path, canonical_corpus_lines(corpus))
    manifest = {
        "reference_date": corpus.reference_date.isoformat(),
        "doc_count": len(corpus.documents),
        "citation_count": len(corpus.citations),
    }
    write_lines(manifest_path_for(path), [json.dumps(manifest, sort_keys=True, indent=2)])
    return path


def corpus_content_hash(corpus: Corpus) -> str:
    """sha256 over the canonical serialization and reference date."""
    digest = hashlib.sha256()
    digest.update(corpus.reference_date.isoformat().encode("utf-8"))
    digest.update(b"\n")
    for line in canonical_corpus_lines(corpus):
        digest.update(line.encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


def ipc_section_of(doc: PatentDocument) -> str:
    """Section letter (A-H) of the first listed IPC code, or ``unclassified``."""
    if not doc.ipc_codes:
        return UNCLASSIFIED
    first = doc.ipc_codes[0].strip()
    if first and first[0].upper() in IPC_SECTIONS:
        return first[0].upper()
    return UNCLASSIFIED


def family_members(corpus: Corpus, doc_id: str) -> list[PatentDocument]:
    """Other corpus documents sharing the family of ``doc_id``, sorted by id.

    A document with an empty family_id has no members.  Raises
    :class:`UnknownDocIdError` for an id the corpus does not hold.
    """
    try:
        doc = corpus.documents[doc_id]
    except KeyError:
        raise UnknownDocIdError(doc_id) from None
    if not doc.family_id:
        return []
    return [
        corpus.documents[other_id]
        for other_id in corpus.families[doc.family_id]
        if other_id != doc_id
    ]
