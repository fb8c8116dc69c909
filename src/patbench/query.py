"""Query construction from patent descriptions: text normalization, section
parsing, key-section extraction, and length-bounded query assembly."""

from __future__ import annotations

import re
import unicodedata
from dataclasses import dataclass
from typing import Iterable, Mapping

from .corpus import Corpus, PatentDocument

DEFAULT_MAX_QUERY_CHARS = 6000

SECTION_BACKGROUND = "background"
SECTION_SUMMARY = "summary"
SECTION_DETAILED = "detailed_description"
SECTION_OTHER = "other"

# Heading lexicon, English and Chinese.  English headings are recognized in
# upper case only; lower-case phrases like "the background of the invention"
# occur in running text and must not split sections.
HEADING_LEXICON: tuple[tuple[str, str], ...] = (
    ("BACKGROUND OF THE INVENTION", SECTION_BACKGROUND),
    ("DESCRIPTION OF RELATED ART", SECTION_BACKGROUND),
    ("BACKGROUND ART", SECTION_BACKGROUND),
    ("RELATED ART", SECTION_BACKGROUND),
    ("BACKGROUND", SECTION_BACKGROUND),
    ("SUMMARY OF THE INVENTION", SECTION_SUMMARY),
    ("BRIEF SUMMARY", SECTION_SUMMARY),
    ("SUMMARY", SECTION_SUMMARY),
    ("DETAILED DESCRIPTION OF THE PREFERRED EMBODIMENTS", SECTION_DETAILED),
    ("DETAILED DESCRIPTION OF THE EMBODIMENTS", SECTION_DETAILED),
    ("DETAILED DESCRIPTION OF EMBODIMENTS", SECTION_DETAILED),
    ("DETAILED DESCRIPTION OF THE INVENTION", SECTION_DETAILED),
    ("DESCRIPTION OF EMBODIMENTS", SECTION_DETAILED),
    ("DETAILED DESCRIPTION", SECTION_DETAILED),
    ("BRIEF DESCRIPTION OF THE DRAWINGS", SECTION_OTHER),
    ("BRIEF DESCRIPTION OF DRAWINGS", SECTION_OTHER),
    ("FIELD OF THE INVENTION", SECTION_OTHER),
    ("TECHNICAL FIELD", SECTION_OTHER),
    ("背景技术", SECTION_BACKGROUND),
    ("技术背景", SECTION_BACKGROUND),
    ("发明内容", SECTION_SUMMARY),
    ("实用新型内容", SECTION_SUMMARY),
    ("具体实施方式", SECTION_DETAILED),
    ("具体实施例", SECTION_DETAILED),
    ("技术领域", SECTION_OTHER),
    ("附图说明", SECTION_OTHER),
)

_HEADING_CATEGORY: Mapping[str, str] = dict(HEADING_LEXICON)

# Longest alternatives first so "BACKGROUND OF THE INVENTION" wins over
# "BACKGROUND".  \b keeps headings from firing inside words.
_HEADING_RE = re.compile(
    "|".join(
        rf"\b{re.escape(h)}\b"
        for h, _ in sorted(HEADING_LEXICON, key=lambda kv: -len(kv[0]))
    )
)

# Markup is tag-shaped: "<", an optional "/", an ASCII letter, then up to the
# next ">".  A lone "<" or ">", as in "20 < T and T > 5", is text.
_TAG_RE = re.compile(r"</?[A-Za-z][^>]*>")
_WS_RE = re.compile(r"\s+")
_SENTENCE_ENDERS = ".!?。！？"


class EmptyInputError(ValueError):
    """The operation received text with no usable content."""


@dataclass(frozen=True)
class Segment:
    """One contiguous stretch of description text under a single heading.

    ``heading`` is empty for preamble text before the first recognized
    heading and for headingless documents.
    """

    category: str
    heading: str
    text: str


@dataclass(frozen=True)
class Query:
    query_id: str
    text: str
    truncated: bool

    def __post_init__(self) -> None:
        if not self.text:
            raise ValueError("query text must be non-empty")


def preprocess_text(raw: str) -> str:
    """Normalize raw patent text.

    Control and format characters are removed, the text is Unicode NFC
    normalized, tag-shaped markup (``<b>``, ``</p>``, ``<br/>``) is replaced
    with spaces, and whitespace runs collapse to single spaces.  Tags are
    matched after the first two steps, which can make one (``<\x00b>``, or
    the Kelvin sign that NFC turns into ``K``), so the function is
    idempotent: applying it twice equals once.
    """
    s = "".join(
        ch
        for ch in raw
        if not (unicodedata.category(ch) in ("Cc", "Cf") and ch not in "\t\n\r\x0b\x0c")
    )
    s = _TAG_RE.sub(" ", unicodedata.normalize("NFC", s))
    return _WS_RE.sub(" ", s).strip()


def parse_description(doc: PatentDocument) -> tuple[Segment, ...]:
    """Split a description into segments, one per recognized heading.

    Runs on the preprocessed description.  Content before the first heading
    is a ``SECTION_OTHER`` segment under an empty heading; a document with no
    recognized heading at all is one ``SECTION_DETAILED`` segment.  No text
    is dropped: the concatenated segment texts cover the whole preprocessed
    description apart from the headings themselves.
    """
    text = preprocess_text(doc.description)
    if not text:
        raise EmptyInputError(f"document {doc.doc_id!r} has an empty description")

    matches = list(_HEADING_RE.finditer(text))
    segments: list[Segment] = []
    if not matches:
        segments.append(Segment(SECTION_DETAILED, "", text))
    else:
        preamble = text[: matches[0].start()].strip()
        if preamble:
            segments.append(Segment(SECTION_OTHER, "", preamble))
        for i, m in enumerate(matches):
            end = matches[i + 1].start() if i + 1 < len(matches) else len(text)
            heading = m.group(0)
            body = text[m.end() : end].strip()
            segments.append(Segment(_HEADING_CATEGORY[heading], heading, body))
    return tuple(segments)


def extract_key_sections(segments: tuple[Segment, ...]) -> str:
    """Background segments, then detailed-description segments, joined by a space.

    Empty segments are skipped.  When neither category has text the full
    description text (all segments, in document order) is used instead.
    Raises :class:`EmptyInputError` when there is no content at all.
    """
    key = [
        s.text
        for category in (SECTION_BACKGROUND, SECTION_DETAILED)
        for s in segments
        if s.category == category and s.text
    ]
    text = " ".join(key) or " ".join(s.text for s in segments if s.text)
    if text:
        return text
    raise EmptyInputError("all description sections are empty")


def _truncate_at_sentence(text: str, max_chars: int) -> str:
    window = text[:max_chars]
    cut = max(window.rfind(ch) for ch in _SENTENCE_ENDERS)
    if cut >= 0:
        candidate = window[: cut + 1].rstrip()
        if candidate:
            return candidate
    return window.rstrip()


def build_query(doc: PatentDocument, max_chars: int = DEFAULT_MAX_QUERY_CHARS) -> Query:
    """Assemble the retrieval query for one patent.

    The query text is the key sections of the preprocessed description,
    truncated at the last sentence boundary at or below ``max_chars`` (hard
    cut when no boundary exists in the window).  The result never exceeds
    ``max_chars``.
    """
    if max_chars < 1:
        raise ValueError("max_chars must be at least 1")
    text = extract_key_sections(parse_description(doc))
    truncated = len(text) > max_chars
    if truncated:
        text = _truncate_at_sentence(text, max_chars)
    return Query(query_id=doc.doc_id, text=text, truncated=truncated)


def build_queries(
    corpus: Corpus,
    doc_ids: Iterable[str],
    max_chars: int = DEFAULT_MAX_QUERY_CHARS,
) -> dict[str, Query]:
    """Build queries for the given doc ids.

    An id missing from the corpus, or whose document yields no query text
    (:func:`build_query` raises ``ValueError``), gets no query; the runner
    records it as ERROR.
    """
    if max_chars < 1:
        raise ValueError("max_chars must be at least 1")
    out: dict[str, Query] = {}
    for doc_id in doc_ids:
        doc = corpus.documents.get(doc_id)
        if doc is None:
            continue
        try:
            out[doc_id] = build_query(doc, max_chars=max_chars)
        except ValueError:
            continue
    return out
