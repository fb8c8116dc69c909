"""Relevance dataset construction: examiner X citations as ground truth,
family-based augmentation behind an alignment threshold, quality filters,
and stratified sampling with largest-remainder rounding."""

from __future__ import annotations

import json
import hashlib
import logging
import math
import random
import re
from collections import Counter
from dataclasses import dataclass
from datetime import date
from pathlib import Path
from typing import Iterator, Mapping, Protocol, Sequence

from .corpus import (
    CITATION_SOURCES,
    MISSING_LABEL,
    TOTAL_LABEL,
    Corpus,
    PatentDocument,
    corpus_content_hash,
    family_members,
    from_record,
    ipc_section_of,
    is_stratum_label,
    read_jsonl,
    require_stratum_label,
    write_lines,
)

logger = logging.getLogger(__name__)

DEFAULT_ALIGNMENT_THRESHOLD = 0.90
DEFAULT_RECENCY_YEARS = 10
STRATUM_DIMENSIONS = ("language", "ipc_section", "jurisdiction")
DATASET_SCHEMA_VERSION = 1

PROVENANCE_EXAMINER = "EXAMINER"
PROVENANCE_FAMILY = "FAMILY_DERIVED"

_WS_RE = re.compile(r"\s+")


class UndefinedScoreError(ValueError):
    """Alignment score is undefined because both documents have no text."""


class InfeasibleTargetsError(ValueError):
    """Sampling targets demand more cases than the pool can supply."""

    def __init__(self, stratum: str, demanded: int, available: int) -> None:
        super().__init__(
            f"stratum {stratum!r} demands {demanded} cases "
            f"but only {available} are available"
        )
        self.stratum = stratum
        self.demanded = demanded
        self.available = available


class DatasetFormatError(ValueError):
    """A dataset file violates the expected line-delimited layout."""


class AlignmentScorer(Protocol):
    """Pluggable document-pair similarity backend."""

    scorer_id: str

    def score(self, doc_a: PatentDocument, doc_b: PatentDocument) -> float: ...


class TrigramJaccardScorer:
    """Default alignment proxy: character 3-gram Jaccard over claims plus
    description, lowercased and whitespace-normalized.

    Multiset semantics: repeated 3-grams count with multiplicity.  Symmetric
    and deterministic; identical non-empty texts score 1.0.
    """

    scorer_id = "char3-jaccard-v1"

    @staticmethod
    def _grams(doc: PatentDocument) -> Counter[str]:
        text = " ".join(part for part in (doc.claims, doc.description) if part.strip())
        text = _WS_RE.sub(" ", text.lower()).strip()
        if len(text) < 3:
            return Counter([text]) if text else Counter()
        return Counter(text[i : i + 3] for i in range(len(text) - 2))

    def score(self, doc_a: PatentDocument, doc_b: PatentDocument) -> float:
        a, b = self._grams(doc_a), self._grams(doc_b)
        union = sum((a | b).values())
        if union == 0:
            raise UndefinedScoreError(
                f"no text to align for ({doc_a.doc_id!r}, {doc_b.doc_id!r})"
            )
        inter = sum((a & b).values())
        return inter / union


@dataclass(frozen=True, slots=True)
class QueryCase:
    """One evaluation query: a main patent and its relevant publication ids.

    ``relevant_provenance`` maps every relevant id to EXAMINER or
    FAMILY_DERIVED; examiner provenance wins when both would apply.
    """

    query_doc_id: str
    relevant_ids: frozenset[str]
    relevant_provenance: Mapping[str, str]

    def __post_init__(self) -> None:
        if not self.relevant_ids:
            raise ValueError(f"query {self.query_doc_id!r} has an empty relevant set")
        if self.query_doc_id in self.relevant_ids:
            raise ValueError(f"query {self.query_doc_id!r} lists itself as relevant")
        if self.relevant_provenance.keys() != self.relevant_ids:
            raise ValueError("relevant_provenance must cover exactly relevant_ids")
        for doc_id, source in self.relevant_provenance.items():
            if source not in CITATION_SOURCES:
                expected = " or ".join(sorted(CITATION_SOURCES))
                raise ValueError(f"relevant {doc_id!r} has source {source!r}, not {expected}")


@dataclass(frozen=True)
class RelevantEntry:
    """One relevant publication of a ``query_case`` line, and its source."""

    doc_id: str
    source: str


@dataclass(frozen=True)
class QueryCaseRecord:
    """A dataset file's ``query_case`` line, apart from its ``kind``: the
    relevant ids in sorted order, and the query's stratum labels."""

    query_doc_id: str
    relevant: tuple[RelevantEntry, ...]
    strata: Mapping[str, str]


@dataclass(frozen=True)
class EvaluationDataset:
    """Assembled dataset: ordered query cases, per-query stratum labels, and
    the build manifest that pins every input needed to rebuild it."""

    queries: tuple[QueryCase, ...]
    strata: Mapping[str, Mapping[str, str]]
    build_manifest: Mapping[str, object]

    @property
    def manifest_hash(self) -> str:
        return manifest_hash(self.build_manifest)

    def query_ids(self) -> list[str]:
        return [case.query_doc_id for case in self.queries]

    def stratum_keys(self, dimensions: Sequence[str]) -> list[str]:
        """Each query's stratum key, in ``queries`` order: its label in each
        of ``dimensions``, in that order, :data:`~patbench.corpus.MISSING_LABEL`
        for a missing label, joined by ``|``."""
        labels = [self.strata.get(case.query_doc_id, {}) for case in self.queries]
        if not dimensions:
            return [""] * len(labels)
        # Column by column: a join per query over a generator costs about
        # three times as much, and breakdowns ask for keys once per table.
        columns = [[str(row.get(dim, MISSING_LABEL)) for row in labels] for dim in dimensions]
        return ["|".join(key) for key in zip(*columns)]


def canonical_json(obj: object) -> str:
    # A dataclass record encodes as the object of its fields.
    return json.dumps(obj, sort_keys=True, ensure_ascii=False, separators=(",", ":"), default=vars)


def manifest_hash(manifest: Mapping[str, object]) -> str:
    return hashlib.sha256(canonical_json(dict(manifest)).encode("utf-8")).hexdigest()


def extract_x_citations(corpus: Corpus) -> dict[str, set[str]]:
    """Map each patent to the set of in-corpus publications its examiner
    cited with category X.  Patents without such citations are absent."""
    out: dict[str, set[str]] = {}
    for cit in corpus.citations:
        if (
            cit.category == "X"
            and cit.source == PROVENANCE_EXAMINER
            and cit.cited_id in corpus.documents
        ):
            out.setdefault(cit.citing_id, set()).add(cit.cited_id)
    return out


def profile_distributions(corpus: Corpus) -> dict[str, dict]:
    """Corpus-level distributions, as the build manifest's ``profile``.

    ``citation_type_proportions`` is over all citation records.
    ``language_counts_primary``, ``ipc_section_counts`` and
    ``jurisdiction_counts`` cover the corpus documents (candidate main
    patents); ``language_counts_cited`` covers the distinct in-corpus
    targets of X citations.
    """
    type_counts = Counter(c.category for c in corpus.citations)
    total = sum(type_counts.values())
    proportions = {cat: n / total for cat, n in sorted(type_counts.items())} if total else {}

    docs = corpus.documents.values()
    cited_ids = {
        c.cited_id
        for c in corpus.citations
        if c.category == "X" and c.cited_id in corpus.documents
    }
    return {
        "citation_type_proportions": proportions,
        "language_counts_primary": dict(Counter(d.language for d in docs)),
        "language_counts_cited": dict(Counter(corpus.documents[i].language for i in cited_ids)),
        "ipc_section_counts": dict(Counter(ipc_section_of(d) for d in docs)),
        "jurisdiction_counts": dict(Counter(d.jurisdiction for d in docs)),
    }


def augment_with_family_citations(
    corpus: Corpus,
    base: Mapping[str, set[str]],
    scorer: AlignmentScorer,
    threshold: float = DEFAULT_ALIGNMENT_THRESHOLD,
) -> dict[str, QueryCase]:
    """Fold family members' X citations into each main patent's relevant set.

    A family member contributes only when its alignment score against the
    main patent reaches ``threshold`` (inclusive).  Contributed ids that are
    the main patent itself or family members of the main patent are dropped.
    A scorer failure on a pair logs a warning and skips that member; examiner
    provenance always wins over family-derived on collisions.
    """
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"threshold {threshold} outside [0, 1]")
    x_map = extract_x_citations(corpus)
    cases: dict[str, QueryCase] = {}
    for main_id in sorted(base):
        main_doc = corpus.documents[main_id]
        provenance: dict[str, str] = {
            cited: PROVENANCE_EXAMINER for cited in sorted(base[main_id])
        }
        members = family_members(corpus, main_id)
        family_ids = {m.doc_id for m in members}
        for member in members:
            member_x = x_map.get(member.doc_id)
            if not member_x:
                continue
            try:
                score = scorer.score(main_doc, member)
                if not 0.0 <= score <= 1.0:
                    raise ValueError(f"alignment score {score} outside [0, 1]")
            except Exception as exc:
                logger.warning(
                    "alignment scoring failed for (%s, %s): %s; member skipped",
                    main_id,
                    member.doc_id,
                    exc,
                )
                continue
            if score < threshold:
                continue
            for cited in sorted(member_x):
                if cited == main_id or cited in family_ids:
                    continue
                provenance.setdefault(cited, PROVENANCE_FAMILY)
        cases[main_id] = QueryCase(
            query_doc_id=main_id,
            relevant_ids=frozenset(provenance),
            relevant_provenance=provenance,
        )
    return cases


def _years_before(day: date, years: int) -> date:
    try:
        return day.replace(year=day.year - years)
    except ValueError:  # Feb 29 on a non-leap target year
        return day.replace(year=day.year - years, day=28)


def apply_quality_filters(
    cases: Mapping[str, QueryCase],
    corpus: Corpus,
    recency_years: int = DEFAULT_RECENCY_YEARS,
) -> dict[str, QueryCase]:
    """Drop cases failing recency or integrity requirements.

    Retained cases have a main patent filed within ``recency_years`` of the
    corpus reference date (boundary inclusive) and a non-empty description.
    Every case has a non-empty relevant set, because :class:`QueryCase`
    rejects an empty one.
    """
    if recency_years < 0:
        raise ValueError("recency_years must be non-negative")
    cutoff = _years_before(corpus.reference_date, recency_years)
    kept: dict[str, QueryCase] = {}
    for qid in sorted(cases):
        doc = corpus.documents.get(qid)
        if doc is None:
            continue
        if doc.filing_date < cutoff:
            continue
        if not doc.description.strip():
            continue
        kept[qid] = cases[qid]
    return kept


def stratum_labels(doc: PatentDocument) -> dict[str, str]:
    return {
        "language": doc.language,
        "ipc_section": ipc_section_of(doc),
        "jurisdiction": doc.jurisdiction,
    }


def largest_remainder(proportions: Mapping[str, float], total: int) -> dict[str, int]:
    """Integer allocation summing to ``total``; ties by ascending key."""
    quotas = {key: p * total for key, p in proportions.items()}
    alloc = {key: math.floor(q) for key, q in quotas.items()}
    leftover = total - sum(alloc.values())
    by_fraction = sorted(quotas, key=lambda k: (-(quotas[k] - alloc[k]), k))
    for key in by_fraction[:leftover]:
        alloc[key] += 1
    return alloc


def validate_targets(targets: Mapping[str, Mapping[str, float]]) -> None:
    """Raise ``ValueError`` unless ``targets`` maps stratification dimensions
    to stratum labels with finite, non-negative proportions summing to 1."""
    if not isinstance(targets, Mapping):
        raise ValueError("targets must map each dimension to stratum proportions")
    for dim, props in targets.items():
        if dim not in STRATUM_DIMENSIONS:
            raise ValueError(f"unknown stratification dimension {dim!r}")
        if not isinstance(props, Mapping):
            raise ValueError(f"targets for dimension {dim!r} must map strata to proportions")
        if not props:
            raise ValueError(f"empty target map for dimension {dim!r}")
        for label in props:
            require_stratum_label(f"target {dim}", label)
        if not all(type(p) in (int, float) and math.isfinite(p) for p in props.values()):
            raise ValueError(f"proportions for {dim!r} must be finite numbers")
        if any(p < 0 for p in props.values()):
            raise ValueError(f"negative proportion in dimension {dim!r}")
        if abs(sum(props.values()) - 1.0) > 1e-9:
            raise ValueError(f"proportions for {dim!r} must sum to 1.0")


def _stratum_label(key: tuple[str, ...]) -> str:
    """A composite stratum's label: its labels joined by ``|``, or
    :data:`~patbench.corpus.TOTAL_LABEL` for the one stratum over no
    dimensions."""
    return "|".join(key) if key else TOTAL_LABEL


def _composite_allocation(
    targets: Mapping[str, Mapping[str, float]],
    pools: Mapping[str, list[str]],
    sample_size: int,
) -> dict[str, int]:
    """Largest-remainder allocation over composite strata, keyed by stratum
    label and capped by availability; shortfall is redistributed
    proportionally to the targets of strata that still have spare cases."""
    props: dict[tuple[str, ...], float] = {(): 1.0}
    for dim in sorted(targets):
        props = {
            key + (label,): props[key] * targets[dim][label]
            for key in props
            for label in sorted(targets[dim])
        }
    # Keyed by label, not by tuple: largest_remainder breaks ties by key, and
    # the two orders differ.
    shares = {_stratum_label(key): p for key, p in props.items()}
    avail = {label: len(pools.get(label, ())) for label in shares}

    alloc = largest_remainder(shares, sample_size)
    while True:
        over = {k: alloc[k] - avail[k] for k in shares if alloc[k] > avail[k]}
        if not over:
            break
        shortfall = sum(over.values())
        for k in over:
            alloc[k] = avail[k]
        # A capped stratum has alloc == avail, so it is never open again.
        open_keys = [k for k in shares if shares[k] > 0 and alloc[k] < avail[k]]
        if not open_keys:
            worst = max(over, key=lambda k: (over[k], k))
            demanded = over[worst] + avail[worst]
            raise InfeasibleTargetsError(worst, demanded, avail[worst])
        weight = sum(shares[k] for k in open_keys)
        extra = largest_remainder({k: shares[k] / weight for k in open_keys}, shortfall)
        for k in open_keys:
            alloc[k] += extra[k]
    return alloc


def assemble_dataset(
    cases: Mapping[str, QueryCase],
    corpus: Corpus,
    targets: Mapping[str, Mapping[str, float]] | None,
    sample_size: int,
    seed: int,
    *,
    scorer_id: str,
    threshold: float,
    recency_years: int,
    profile: Mapping[str, object] | None = None,
) -> EvaluationDataset:
    """Draw a stratified sample of cases and pin the build manifest.

    ``targets`` maps dimension name (language, ipc_section, jurisdiction) to
    stratum proportions; multiple dimensions combine into composite strata
    with product proportions.  ``None`` or ``{}`` means a plain random
    sample: the one stratum over no dimensions,
    :data:`~patbench.corpus.TOTAL_LABEL`, through the same allocation.  The
    same (cases, corpus, targets, seed) always yields the same dataset.
    """
    if sample_size < 0:
        raise ValueError("sample_size must be non-negative")
    if sample_size > len(cases):
        raise ValueError(
            f"sample_size {sample_size} exceeds the {len(cases)} available cases"
        )

    labels = {qid: stratum_labels(corpus.documents[qid]) for qid in cases}

    targets = targets or {}
    validate_targets(targets)
    dims = sorted(targets)
    pools: dict[str, list[str]] = {}
    for qid in sorted(cases):
        key = tuple(labels[qid][dim] for dim in dims)
        pools.setdefault(_stratum_label(key), []).append(qid)
    alloc = _composite_allocation(targets, pools, sample_size)
    chosen: list[str] = []
    counts: dict[str, int] = {}
    for label, n in alloc.items():
        if n:
            chosen.extend(random.Random(f"{seed}|{label}").sample(pools[label], n))
            counts[label] = n

    chosen.sort()
    queries = tuple(cases[qid] for qid in chosen)
    strata = {qid: labels[qid] for qid in chosen}

    manifest = {
        "schema_version": DATASET_SCHEMA_VERSION,
        "seed": seed,
        "sample_size": sample_size,
        "n_queries": len(queries),
        "targets": {d: dict(sorted(p.items())) for d, p in sorted(targets.items())},
        "scorer_id": scorer_id,
        "threshold": threshold,
        "recency_years": recency_years,
        "filters": ["recency", "non_empty_description", "non_empty_relevants"],
        "corpus_hash": corpus_content_hash(corpus),
        "stratum_counts": dict(sorted(counts.items())),
        "profile": profile,
    }
    return EvaluationDataset(queries=queries, strata=strata, build_manifest=manifest)


def build_dataset(
    corpus: Corpus,
    *,
    scorer: AlignmentScorer | None = None,
    threshold: float = DEFAULT_ALIGNMENT_THRESHOLD,
    recency_years: int = DEFAULT_RECENCY_YEARS,
    targets: Mapping[str, Mapping[str, float]] | None = None,
    sample_size: int | None = None,
    seed: int = 0,
) -> EvaluationDataset:
    """Full pipeline: extract, augment, filter, assemble.  ``targets`` is
    checked first, so a bad map costs no alignment scoring."""
    validate_targets(targets or {})
    scorer = scorer if scorer is not None else TrigramJaccardScorer()
    base = extract_x_citations(corpus)
    cases = augment_with_family_citations(corpus, base, scorer, threshold)
    cases = apply_quality_filters(cases, corpus, recency_years)
    profile = profile_distributions(corpus)
    n = len(cases) if sample_size is None else sample_size
    return assemble_dataset(
        cases,
        corpus,
        targets,
        n,
        seed,
        scorer_id=scorer.scorer_id,
        threshold=threshold,
        recency_years=recency_years,
        profile=profile,
    )


def _dataset_records(dataset: EvaluationDataset) -> Iterator[dict]:
    """The dataset file's records in file order: the manifest, then one case
    per query in ``queries`` order."""
    yield {"kind": "manifest", **dataset.build_manifest}
    for case in dataset.queries:
        relevant = tuple(RelevantEntry(*item) for item in sorted(case.relevant_provenance.items()))
        record = QueryCaseRecord(case.query_doc_id, relevant, dataset.strata[case.query_doc_id])
        yield {"kind": "query_case", **vars(record)}


def write_dataset(dataset: EvaluationDataset, path: str | Path) -> Path:
    """Serialize to line-delimited JSON: manifest header, then one query per line."""
    return write_lines(path, map(canonical_json, _dataset_records(dataset)))


def load_dataset(path: str | Path) -> EvaluationDataset:
    """Inverse of :func:`write_dataset`; the manifest hash survives the trip.

    Raises :class:`DatasetFormatError`, naming the file and line, for a
    ``query_case`` line that :func:`~patbench.corpus.from_record` cannot
    read as a :class:`QueryCaseRecord` or that :class:`QueryCase` rejects (an
    empty relevant set, a source other than EXAMINER or FAMILY_DERIVED), that
    repeats a query or lists one relevant ``doc_id`` twice, or that holds a
    stratum label failing :func:`~patbench.corpus.is_stratum_label`."""
    path = Path(path)
    queries: list[QueryCase] = []
    strata: dict[str, Mapping[str, str]] = {}
    manifest: dict | None = None
    pool: dict[str, str] = {}

    def add(rec: dict, line_number: int) -> None:
        nonlocal manifest
        kind = rec.get("kind")
        if kind == "manifest":
            if manifest is not None:
                raise ValueError("second manifest record")
            manifest = {k: v for k, v in rec.items() if k != "kind"}
        elif kind == "query_case":
            case = from_record(QueryCaseRecord, rec, pool)
            query_id = case.query_doc_id
            if query_id in strata:
                raise ValueError(f"repeated query_case for {query_id!r}")
            provenance = {entry.doc_id: entry.source for entry in case.relevant}
            if len(provenance) < len(case.relevant):
                doc_id = Counter(entry.doc_id for entry in case.relevant).most_common(1)[0][0]
                raise ValueError(f"relevant {doc_id!r} is listed twice for {query_id!r}")
            queries.append(QueryCase(query_id, frozenset(provenance), provenance))
            # The field name is formatted only for a label that fails.
            for dim, label in case.strata.items():
                if not is_stratum_label(label):
                    require_stratum_label(f"strata {dim}", label)
            strata[query_id] = case.strata
        else:
            raise ValueError(f"unknown record kind {kind!r}")

    read_jsonl(path, add, DatasetFormatError)
    if manifest is None:
        raise DatasetFormatError(f"{path}: missing manifest record")
    return EvaluationDataset(
        queries=tuple(queries), strata=strata, build_manifest=manifest
    )
