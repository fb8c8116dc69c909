"""Shared builders for hand-constructed fixtures."""

from __future__ import annotations

import math
from collections import Counter
from datetime import date

from patbench.corpus import CitationRecord, Corpus, PatentDocument

_LOREM = (
    "The control module receives sensor data over the primary bus. "
    "A buffer stage filters the sampled waveform before conversion. "
    "The output driver regulates current through the load winding."
)


def make_doc(doc_id: str, **overrides) -> PatentDocument:
    fields = dict(
        doc_id=doc_id,
        jurisdiction="US",
        language="en",
        ipc_codes=("G06F 17/30",),
        filing_date=date(2015, 1, 1),
        family_id="",
        title="control module",
        abstract="A control module for sensor data.",
        claims="1. A control module comprising a buffer stage.",
        description=_LOREM,
    )
    fields.update(overrides)
    return PatentDocument(**fields)


def make_corpus(
    docs,
    citations=(),
    reference_date: date = date(2020, 6, 15),
) -> Corpus:
    return Corpus(
        documents={d.doc_id: d for d in docs},
        citations=tuple(citations),
        reference_date=reference_date,
    )


def cite(citing: str, cited: str, category: str = "X", source: str = "EXAMINER") -> CitationRecord:
    return CitationRecord(citing_id=citing, cited_id=cited, category=category, source=source)


def build_eval_dataset(relevants, strata=None, manifest_extra=None):
    """EvaluationDataset from {query_id: relevant_ids}; default strata are
    uniform en/G/US."""
    from patbench.dataset import EvaluationDataset, QueryCase

    queries = tuple(
        QueryCase(
            query_doc_id=qid,
            relevant_ids=frozenset(relevants[qid]),
            relevant_provenance={r: "EXAMINER" for r in relevants[qid]},
        )
        for qid in sorted(relevants)
    )
    strata = strata or {}
    full_strata = {
        qid: strata.get(
            qid, {"language": "en", "ipc_section": "G", "jurisdiction": "US"}
        )
        for qid in sorted(relevants)
    }
    manifest = {"seed": 0, "n_queries": len(queries), "sample_size": len(queries)}
    manifest.update(manifest_extra or {})
    return EvaluationDataset(queries=queries, strata=full_strata, build_manifest=manifest)


def build_run(dataset, lists, max_depth=100, statuses=None, adapter_id="fixture", seed=0):
    """RunRecord from {query_id: [doc ids best-first]}; statuses overrides
    individual queries to TIMEOUT or ERROR (empty hit lists)."""
    from patbench.execution import Hit, RankedList, RunControls, RunRecord

    statuses = statuses or {}
    results = {}
    for qid in dataset.query_ids():
        status = statuses.get(qid, "OK")
        if status != "OK":
            results[qid] = RankedList(query_id=qid, hits=(), status=status)
            continue
        ids = lists.get(qid, [])[:max_depth]
        hits = tuple(
            Hit(doc_id=doc_id, score=round(1.0 - i / max(len(ids), 1) / 2, 6), rank=i + 1)
            for i, doc_id in enumerate(ids)
        )
        results[qid] = RankedList(query_id=qid, hits=hits, status="OK")
    controls = RunControls(seed=seed, max_depth=max_depth, adapter_id=adapter_id)
    return RunRecord(
        controls=controls,
        dataset_manifest_hash=dataset.manifest_hash,
        results=results,
        started="",
        finished="",
    )


def scalar_reference_retrieve(query, index, max_depth=100, *, exclude_family=True):
    """Term-at-a-time spec of the reference retriever, computed from the
    index's dict fields only.  ``patbench.execution.reference_retrieve`` must
    match it byte for byte: same hits, same ``repr`` of every score."""
    from patbench.execution import STATUS_OK, Hit, RankedList, tokenize
    from patbench.query import EmptyInputError

    q_tokens = tokenize(query.text)
    if not q_tokens:
        raise EmptyInputError(f"query {query.query_id!r} has no indexable tokens")
    q_family = index.families.get(query.query_id, "")

    scores: dict[str, float] = {}
    for term, qtf in Counter(q_tokens).items():
        plist = index.postings.get(term)
        if not plist:
            continue
        idf = math.log(1.0 + index.n_docs / len(plist))
        for doc_id, tf in plist.items():
            scores[doc_id] = scores.get(doc_id, 0.0) + qtf * (1.0 + math.log(tf)) * idf

    ranked: list[tuple[str, float]] = []
    for doc_id in sorted(scores):
        if doc_id == query.query_id:
            continue
        if exclude_family and q_family and index.families.get(doc_id, "") == q_family:
            continue
        length = index.doc_lengths.get(doc_id, 0) or 1
        ranked.append((doc_id, scores[doc_id] / math.sqrt(length)))
    ranked.sort(key=lambda pair: (-pair[1], pair[0]))

    hits = tuple(
        Hit(doc_id=doc_id, score=score, rank=i + 1)
        for i, (doc_id, score) in enumerate(ranked[:max_depth])
    )
    return RankedList(query_id=query.query_id, hits=hits, status=STATUS_OK)
