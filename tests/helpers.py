"""Shared builders for hand-constructed fixtures."""

from __future__ import annotations

import math
import re
import unicodedata
from collections import Counter
from collections.abc import Mapping
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


def scalar_family_members(corpus: Corpus, doc_id: str) -> list[PatentDocument]:
    """Whole-corpus scan spec of ``patbench.corpus.family_members``: every
    other document with the same non-empty family_id, sorted by id."""
    from patbench.corpus import UnknownDocIdError

    try:
        doc = corpus.documents[doc_id]
    except KeyError:
        raise UnknownDocIdError(doc_id) from None
    if not doc.family_id:
        return []
    return [
        other
        for other_id, other in sorted(corpus.documents.items())
        if other_id != doc_id and other.family_id == doc.family_id
    ]


def scalar_stratum_counts(dataset, targets):
    """Recount spec of the manifest's ``stratum_counts``: each chosen query's
    labels over the sorted target dimensions joined by ``|``, or ``__all__``
    without targets, counted and sorted by that string."""
    realized = Counter()
    for qid in dataset.query_ids():
        labels = dataset.strata[qid]
        key = "|".join(labels[dim] for dim in sorted(targets)) if targets else "__all__"
        realized[key] += 1
    return dict(sorted(realized.items()))


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
    from patbench.execution import RankedList, RunControls, RunRecord

    statuses = statuses or {}
    results = {}
    for qid in dataset.query_ids():
        status = statuses.get(qid, "OK")
        if status != "OK":
            results[qid] = RankedList(query_id=qid, status=status)
            continue
        ids = tuple(lists.get(qid, [])[:max_depth])
        scores = tuple(round(1.0 - i / max(len(ids), 1) / 2, 6) for i in range(len(ids)))
        results[qid] = RankedList(query_id=qid, doc_ids=ids, scores=scores, status="OK")
    controls = RunControls(seed=seed, max_depth=max_depth, adapter_id=adapter_id)
    return RunRecord(
        controls=controls,
        dataset_manifest_hash=dataset.manifest_hash,
        results=results,
        started="",
        finished="",
    )


def scalar_reference_retrieve(query, corpus, max_depth=100, *, exclude_family=True):
    """Term-at-a-time spec of the reference retriever, computed from the
    corpus alone, without its index.  ``patbench.execution.reference_retrieve``
    over ``build_reference_index(corpus)`` must match it byte for byte: same
    hits, same ``repr`` of every score."""
    from patbench.execution import STATUS_OK, RankedList, tokenize
    from patbench.query import EmptyInputError

    q_tokens = tokenize(query.text)
    if not q_tokens:
        raise EmptyInputError(f"query {query.query_id!r} has no indexable tokens")
    term_counts = {
        doc_id: Counter(
            tokenize(" ".join((doc.title, doc.abstract, doc.claims, doc.description)))
        )
        for doc_id, doc in corpus.documents.items()
    }
    q_doc = corpus.documents.get(query.query_id)
    q_family = q_doc.family_id if q_doc else ""

    scores: dict[str, float] = {}
    for term, qtf in Counter(q_tokens).items():
        containing = [doc_id for doc_id, counts in term_counts.items() if term in counts]
        if not containing:
            continue
        idf = math.log(1.0 + len(corpus.documents) / len(containing))
        for doc_id in containing:
            tf = term_counts[doc_id][term]
            scores[doc_id] = scores.get(doc_id, 0.0) + qtf * (1.0 + math.log(tf)) * idf

    ranked: list[tuple[str, float]] = []
    for doc_id in sorted(scores):
        if doc_id == query.query_id:
            continue
        if exclude_family and q_family and corpus.documents[doc_id].family_id == q_family:
            continue
        length = sum(term_counts[doc_id].values()) or 1
        ranked.append((doc_id, scores[doc_id] / math.sqrt(length)))
    ranked.sort(key=lambda pair: (-pair[1], pair[0]))

    return RankedList(
        query_id=query.query_id,
        doc_ids=tuple(doc_id for doc_id, _ in ranked[:max_depth]),
        scores=tuple(score for _, score in ranked[:max_depth]),
        status=STATUS_OK,
    )


_SCALAR_KEPT_CONTROLS = "\t\n\r\x0b\x0c"


def scalar_preprocess_text(raw):
    """Character-by-character spec of ``patbench.query.preprocess_text``:
    drop control and format characters (tab, LF, CR, VT and FF kept), NFC,
    replace each tag (``<``, an optional ``/``, an ASCII letter, then up to
    the next ``>``) with a space, collapse whitespace runs, strip."""
    kept = []
    for ch in raw:
        if unicodedata.category(ch) in ("Cc", "Cf") and ch not in _SCALAR_KEPT_CONTROLS:
            continue
        kept.append(ch)
    text = unicodedata.normalize("NFC", "".join(kept))

    out = []
    i = 0
    while i < len(text):
        if text[i] == "<":
            j = i + 1
            if j < len(text) and text[j] == "/":
                j += 1
            if j < len(text) and text[j].isascii() and text[j].isalpha():
                end = text.find(">", j)
                if end >= 0:
                    out.append(" ")
                    i = end + 1
                    continue
        out.append(text[i])
        i += 1
    return " ".join("".join(out).split())


_SCALAR_ID_WS_RE = re.compile(r"\s+")
_SCALAR_ID_OK_RE = re.compile(r"^[A-Z0-9][A-Z0-9./-]*$")


def scalar_normalize_doc_id(raw):
    """Uncached spec of ``patbench.corpus.normalize_doc_id``."""
    if not isinstance(raw, str):
        return None
    norm = _SCALAR_ID_WS_RE.sub("", raw).upper()
    if not _SCALAR_ID_OK_RE.match(norm):
        return None
    return norm


def _scalar_coerce_hit(item):
    if isinstance(item, Mapping):
        return item.get("doc_id"), item.get("score")
    if isinstance(item, (tuple, list)) and len(item) == 2:
        return item[0], item[1]
    if isinstance(item, str):
        return item, None
    return None, None


def scalar_standardize_results(raw, *, query_id, max_depth, latency_ms=0):
    """Spec of ``patbench.execution.standardize_results``, with the id rule
    evaluated afresh for every hit.  The library must match it by ``repr`` of
    the whole ``(RankedList, repairs)`` result; ``repairs`` counts each
    unmappable entry, dropped duplicate, inherited score and clamped score."""
    from patbench.execution import STATUS_OK, RankedList

    unmappable = duplicates = inherited = clamped = 0
    seen = set()
    kept = []
    for item in raw:
        raw_id, score = _scalar_coerce_hit(item)
        norm = scalar_normalize_doc_id(raw_id)
        if norm is None:
            unmappable += 1
            continue
        if norm in seen:
            duplicates += 1
            continue
        seen.add(norm)
        kept.append((norm, score))
        if len(kept) == max_depth:
            break

    scores = []
    prev = math.inf
    for _, score in kept:
        try:
            finite = isinstance(score, (int, float)) and math.isfinite(float(score))
        except OverflowError:  # an int beyond float range
            finite = False
        if not finite:
            inherited += 1
            score = 1.0 if prev is math.inf else prev
        elif float(score) > prev:
            clamped += 1
        score = float(min(score, prev))
        prev = score
        scores.append(score)
    ranked = RankedList(
        query_id=query_id,
        doc_ids=tuple(doc_id for doc_id, _ in kept),
        scores=tuple(scores),
        status=STATUS_OK,
        latency_ms=latency_ms,
    )
    return ranked, unmappable + duplicates + inherited + clamped


# ---------------------------------------------------------------------------
# Scalar specification of the metrics and reports.  Each walks the ranked
# lists again for every number it reports; ``patbench.metrics`` and
# ``patbench.report`` compute the same numbers from one outcome table per run
# and must match these by ``repr``.
# ---------------------------------------------------------------------------


def scalar_first_relevant_rank(ranked, relevant, match_rule="exact", family_of=None):
    """Rank of the earliest hit matching the relevant set, or ``None``."""
    if ranked.status != "OK":
        return None
    if match_rule == "family":
        fams = {f for f in (family_of.get(rid, "") for rid in relevant) if f}
        for hit in ranked.hits:
            if hit.doc_id in relevant:
                return hit.rank
            if fams and family_of.get(hit.doc_id, "") in fams:
                return hit.rank
        return None
    for hit in ranked.hits:
        if hit.doc_id in relevant:
            return hit.rank
    return None


def scalar_matched_count(ranked, relevant, match_rule, family_of):
    """Number of relevant documents retrieved anywhere in the returned list."""
    if ranked.status != "OK" or not ranked.hits:
        return 0
    hit_ids = {h.doc_id for h in ranked.hits}
    if match_rule == "exact":
        return len(relevant & hit_ids)
    hit_fams = {f for f in (family_of.get(h, "") for h in hit_ids) if f}
    matched = 0
    for rid in relevant:
        if rid in hit_ids:
            matched += 1
            continue
        fam = family_of.get(rid, "")
        if fam and fam in hit_fams:
            matched += 1
    return matched


def scalar_first_ranks(run, dataset, match_rule, family_of):
    return [
        scalar_first_relevant_rank(
            run.results[case.query_doc_id], case.relevant_ids, match_rule, family_of
        )
        for case in dataset.queries
    ]


def scalar_recall(run, dataset, match_rule="exact", family_of=None):
    counts = [
        (
            scalar_matched_count(
                run.results[case.query_doc_id], case.relevant_ids, match_rule, family_of
            ),
            len(case.relevant_ids),
        )
        for case in dataset.queries
    ]
    numerator = 0
    denominator = 0
    for matched, relevant in counts:
        numerator += matched
        denominator += relevant
    return numerator / denominator


def _scalar_row(run, dataset, query_indices, stratum, ks, first_ranks, match_rule, family_of):
    from patbench.report import BreakdownRow

    n = len(query_indices)
    hit_counts = tuple(
        sum(1 for i in query_indices if first_ranks[i] is not None and first_ranks[i] <= k)
        for k in ks
    )
    numerator = 0
    denominator = 0
    for i in query_indices:
        case = dataset.queries[i]
        numerator += scalar_matched_count(
            run.results[case.query_doc_id], case.relevant_ids, match_rule, family_of
        )
        denominator += len(case.relevant_ids)
    return BreakdownRow(
        stratum=stratum,
        n_queries=n,
        hit_counts=hit_counts,
        rates=tuple(count / n for count in hit_counts),
        recall_numerator=numerator,
        recall_denominator=denominator,
        recall=numerator / denominator,
        recall_depth=run.controls.max_depth,
    )


def scalar_breakdown_by(run, dataset, dimension, ks, match_rule="exact", family_of=None):
    from patbench.report import OVERALL_DIMENSION, TOTAL_LABEL, BreakdownTable

    ks = tuple(ks)
    first_ranks = scalar_first_ranks(run, dataset, match_rule, family_of)
    groups = {}
    if dimension != OVERALL_DIMENSION:
        for i, case in enumerate(dataset.queries):
            label = str(dataset.strata.get(case.query_doc_id, {}).get(dimension, "?"))
            groups.setdefault(label, []).append(i)
    args = (ks, first_ranks, match_rule, family_of)
    totals = _scalar_row(run, dataset, range(len(dataset.queries)), TOTAL_LABEL, *args)
    rows = tuple(
        _scalar_row(run, dataset, idxs, label, *args)
        for label, idxs in sorted(groups.items(), key=lambda kv: (-len(kv[1]), kv[0]))
    )
    return BreakdownTable(dimension=dimension, ks=ks, rows=rows, totals=totals)


def scalar_cross_language_recall(run, dataset, corpus, match_rule="exact", family_of=None):
    from patbench.report import CrossLanguageCell

    counts = {}
    for case in dataset.queries:
        qlang = str(dataset.strata.get(case.query_doc_id, {}).get("language", "unknown"))
        ranked = run.results[case.query_doc_id]
        hit_ids = {h.doc_id for h in ranked.hits} if ranked.status == "OK" else set()
        hit_fams = set()
        if match_rule == "family" and family_of:
            hit_fams = {f for f in (family_of.get(h, "") for h in hit_ids) if f}
        for rid in sorted(case.relevant_ids):
            doc = corpus.documents.get(rid)
            cell = counts.setdefault((qlang, doc.language if doc else "unknown"), [0, 0])
            cell[0] += 1
            retrieved = rid in hit_ids
            if not retrieved and hit_fams:
                fam = family_of.get(rid, "")
                retrieved = bool(fam) and fam in hit_fams
            if retrieved:
                cell[1] += 1
    return tuple(
        CrossLanguageCell(
            query_language=qlang,
            relevant_language=rlang,
            n_pairs=pair[0],
            n_retrieved=pair[1],
            recall=pair[1] / pair[0],
        )
        for (qlang, rlang), pair in sorted(counts.items())
    )


def scalar_per_query_arrays(run_a, run_b, dataset, metric, k, match_rule, family_of):
    """Per-query paired contributions (u, m), the observed difference and the
    metric name, each run's lists walked again."""
    import numpy as np

    if metric == "detection":
        ranks_a = scalar_first_ranks(run_a, dataset, match_rule, family_of)
        ranks_b = scalar_first_ranks(run_b, dataset, match_rule, family_of)
        a = np.array([1.0 if r is not None and r <= k else 0.0 for r in ranks_a])
        b = np.array([1.0 if r is not None and r <= k else 0.0 for r in ranks_b])
        u = a - b
        m = np.ones(len(dataset.queries), dtype=np.float64)
        name = f"top{k}_detection"
    else:
        u_list = []
        m_list = []
        for case in dataset.queries:
            ca = scalar_matched_count(
                run_a.results[case.query_doc_id], case.relevant_ids, match_rule, family_of
            )
            cb = scalar_matched_count(
                run_b.results[case.query_doc_id], case.relevant_ids, match_rule, family_of
            )
            u_list.append(float(ca - cb))
            m_list.append(float(len(case.relevant_ids)))
        u = np.array(u_list, dtype=np.float64)
        m = np.array(m_list, dtype=np.float64)
        name = f"recall@{run_a.controls.max_depth}"
    return u, m, float(u.sum() / m.sum()), name


def scalar_paired_bootstrap(
    run_a, run_b, dataset, *, metric, k, strata_dims, n_resamples, seed, match_rule, family_of
):
    """Stratified paired bootstrap, one draw of its own per metric.  Strata
    grouping is shared with the package; the two-sided p-value with
    +1/(B+1) smoothing is computed here."""
    import numpy as np

    from patbench.metrics import SignificanceResult, _group_strata

    u, m, observed, name = scalar_per_query_arrays(
        run_a, run_b, dataset, metric, k, match_rule, family_of
    )
    strata = _group_strata(dataset, strata_dims)
    sum_u = np.zeros(n_resamples, dtype=np.float64)
    sum_m = np.zeros(n_resamples, dtype=np.float64)
    children = np.random.SeedSequence(seed).spawn(len(strata))
    for (_, idxs), child in zip(strata, children):
        rng = np.random.default_rng(child)
        u_s = u[idxs]
        m_s = m[idxs]
        n_s = len(idxs)
        for start in range(0, n_resamples, 2048):
            stop = min(start + 2048, n_resamples)
            draw = rng.integers(0, n_s, size=(stop - start, n_s))
            sum_u[start:stop] += u_s[draw].sum(axis=1)
            sum_m[start:stop] += m_s[draw].sum(axis=1)
    diffs = sum_u / sum_m
    ci_low, ci_high = (float(x) for x in np.percentile(diffs, [2.5, 97.5]))
    if observed == 0.0:
        p_value = 1.0
    else:
        opposed = sum(1 for d in diffs.tolist() if (d <= 0.0 if observed > 0 else d >= 0.0))
        p_value = min(1.0, 2.0 * (opposed + 1) / (n_resamples + 1))
    return SignificanceResult(
        metric_name=name,
        observed_diff=observed,
        p_value=p_value,
        ci_low=ci_low,
        ci_high=ci_high,
        n_resamples=n_resamples,
        strata_spec=f"{'x'.join(strata_dims)} ({len(strata)} strata)",
        seed=seed,
    )


def scalar_compare_systems(
    run_a, run_b, dataset, *, ks, dimensions, match_rule, family_of, n_resamples, seed,
    strata_dims,
):
    from patbench.report import OVERALL_DIMENSION, SystemComparison

    ks = tuple(ks)
    table_a = scalar_breakdown_by(run_a, dataset, OVERALL_DIMENSION, ks, match_rule, family_of)
    table_b = scalar_breakdown_by(run_b, dataset, OVERALL_DIMENSION, ks, match_rule, family_of)
    sig_k = 10 if 10 in ks else ks[len(ks) // 2]
    common = dict(
        strata_dims=strata_dims, n_resamples=n_resamples, seed=seed,
        match_rule=match_rule, family_of=family_of,
    )
    return SystemComparison(
        system_a=run_a.controls.adapter_id or "system-a",
        system_b=run_b.controls.adapter_id or "system-b",
        ks=ks,
        table_a=table_a,
        table_b=table_b,
        deltas=tuple(rb - ra for ra, rb in zip(table_a.totals.rates, table_b.totals.rates)),
        recall_delta=table_b.totals.recall - table_a.totals.recall,
        recall_depth=run_a.controls.max_depth,
        significance=(
            scalar_paired_bootstrap(
                run_b, run_a, dataset, metric="detection", k=sig_k, **common
            ),
            scalar_paired_bootstrap(run_b, run_a, dataset, metric="recall", k=None, **common),
        ),
        breakdowns_a=tuple(
            scalar_breakdown_by(run_a, dataset, dim, ks, match_rule, family_of)
            for dim in dimensions
        ),
        breakdowns_b=tuple(
            scalar_breakdown_by(run_b, dataset, dim, ks, match_rule, family_of)
            for dim in dimensions
        ),
    )
