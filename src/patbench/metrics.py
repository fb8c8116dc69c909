"""Retrieval quality metrics: top-k detection rate, recall at retrieval
depth, and stratified paired-bootstrap significance for system deltas."""

from __future__ import annotations

import logging
import os
import threading
from collections.abc import Set as AbstractSet
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Hashable, Mapping, Sequence

import numpy as np

from .corpus import CATCH_ALL_LABEL, invert_families
from .dataset import EvaluationDataset
from .execution import RankedList, RunRecord

logger = logging.getLogger(__name__)

MATCH_EXACT = "exact"
MATCH_FAMILY = "family"
MATCH_RULES = (MATCH_EXACT, MATCH_FAMILY)

DEFAULT_K_GRID = (1, 3, 5, 10, 20, 30, 50, 100)
DEFAULT_N_RESAMPLES = 10_000
DEFAULT_BOOTSTRAP_STRATA = ("language", "ipc_section")
MIN_STRATUM_SIZE = 2
# Draws in flight at once in the sampled bootstrap, shared out among its
# worker threads: its draw matrices, and its gather buffers, hold about this
# many elements whatever the stratum size.
_BOOTSTRAP_DRAWS = 1 << 16
# Bits of one packed int64 word of the sampled bootstrap's contributions:
# below the sign bit, so a word's sums stay non-negative.
_PACKED_WORD_BITS = 63


class UndefinedMetricError(ValueError):
    """The metric is undefined for the given inputs (e.g. empty dataset)."""


class CoverageError(ValueError):
    """The run does not cover exactly the dataset's query ids."""


@dataclass(frozen=True)
class DetectionCurve:
    """Detection rate at each k of the grid; monotonically non-decreasing."""

    points: tuple[tuple[int, float], ...]
    n_queries: int

    def rate_at(self, k: int) -> float:
        for kk, rate in self.points:
            if kk == k:
                return rate
        raise KeyError(k)


@dataclass(frozen=True)
class SignificanceResult:
    metric_name: str
    observed_diff: float
    p_value: float
    ci_low: float
    ci_high: float
    n_resamples: int
    strata_spec: str
    seed: int


def _check_coverage(run: RunRecord, dataset: EvaluationDataset) -> None:
    run_ids = set(run.results)
    ds_ids = set(dataset.query_ids())
    if run_ids != ds_ids:
        missing = sorted(ds_ids - run_ids)[:5]
        extra = sorted(run_ids - ds_ids)[:5]
        raise CoverageError(
            f"run does not cover the dataset (missing {missing}, extra {extra})"
        )


def _match_args(
    match_rule: str, family_of: Mapping[str, str] | None
) -> tuple[Mapping[str, str] | None, dict[str, tuple[str, ...]] | None]:
    """Check the match rule; return ``family_of`` and its inverse under the
    family rule, and ``(None, None)`` under the exact rule."""
    if match_rule not in MATCH_RULES:
        raise ValueError(f"unknown match rule {match_rule!r}")
    if match_rule == MATCH_EXACT:
        return None, None
    if family_of is None:
        raise ValueError("family match rule requires a family_of mapping")
    return family_of, invert_families(family_of)


def _match(
    ranked: RankedList,
    relevant: AbstractSet[str],
    family_of: Mapping[str, str] | None,
    members: Mapping[str, Sequence[str]] | None,
) -> tuple[int, list[str], list[bool]]:
    """The match rule.  ``family_of`` is ``None`` for the exact rule, and
    ``members`` is its inverse from :func:`~patbench.corpus.invert_families`.

    A hit matches when its doc_id is relevant or, under the family rule,
    when it shares a non-empty family with a relevant document.  A relevant
    document counts as retrieved when it appears anywhere in the list or,
    under the family rule, when any hit shares its family.  Non-OK results
    match nothing.  Returns the rank of the earliest matching hit (0 for
    none), the relevant ids in sorted order and, per id, whether it was
    retrieved.

    The list is probed once: the matching ids are the relevant ids plus the
    members of their families, so no hit's family is looked up.
    """
    relevant_ids = sorted(relevant)
    ids = ranked.doc_ids  # non-OK results carry none
    families = None
    targets = relevant
    if members:
        families = [family_of.get(rid) for rid in relevant_ids]
        targets = set(relevant)
        for family_id in set(families):
            targets.update(members.get(family_id, ()))
    found = targets.intersection(ids)
    if not found:
        return 0, relevant_ids, [False] * len(relevant_ids)
    first = min(map(ids.index, found))
    if families is None:
        return first + 1, relevant_ids, [rid in found for rid in relevant_ids]
    found_families = set(map(family_of.get, found)) - {None, ""}
    retrieved = [
        rid in found or family_id in found_families
        for rid, family_id in zip(relevant_ids, families)
    ]
    return first + 1, relevant_ids, retrieved


def first_relevant_rank(
    ranked: RankedList,
    relevant: frozenset[str] | set[str],
    match_rule: str = MATCH_EXACT,
    family_of: Mapping[str, str] | None = None,
) -> int | None:
    """Rank of the earliest hit matching the relevant set, or ``None``.

    Exact rule matches on doc_id; family rule additionally matches any hit
    sharing a family with a relevant document.  Non-OK results match nothing.
    """
    family_map, members = _match_args(match_rule, family_of)
    first, _, _ = _match(ranked, relevant, family_map, members)
    return first or None


@dataclass(frozen=True, eq=False)
class QueryOutcomes:
    """What one run retrieved for each query of ``dataset`` under one match rule.

    The per-query columns follow ``dataset.queries``, which is never empty.
    The pair columns have one row per (query, relevant document): queries in
    the same order, relevant ids sorted within a query.  Every metric and
    report is a count or sum over these columns, grouped by the strata of
    ``dataset``.
    """

    dataset: EvaluationDataset = field(repr=False)
    first_rank: np.ndarray  # int64: rank of the earliest matching hit, 0 for none
    matched: np.ndarray  # int64: relevant documents retrieved
    relevant: np.ndarray  # int64: size of the relevant set
    pair_query: np.ndarray  # int64: the pair's row in the per-query columns
    pair_doc_id: tuple[str, ...]
    pair_matched: np.ndarray  # bool
    depth: int  # the run's max_depth, which recall is measured at

    def detected(self, ks: Sequence[int]) -> np.ndarray:
        """Boolean (query, k) matrix: a matching hit lies within the top k."""
        first = self.first_rank[:, None]
        return (first > 0) & (first <= np.asarray(ks, dtype=np.int64)[None, :])


def query_outcomes(
    run: RunRecord,
    dataset: EvaluationDataset,
    match_rule: str = MATCH_EXACT,
    family_of: Mapping[str, str] | None = None,
) -> QueryOutcomes:
    """Walk each ranked list of ``run`` once and tabulate its outcomes.

    Raises :class:`UndefinedMetricError` for an empty dataset, on which every
    metric is undefined, and :class:`CoverageError` unless the run covers
    exactly the dataset's query ids.
    """
    if not dataset.queries:
        raise UndefinedMetricError("metrics are undefined on an empty dataset")
    family_map, members = _match_args(match_rule, family_of)
    _check_coverage(run, dataset)
    first_rank: list[int] = []
    matched: list[int] = []
    relevant: list[int] = []
    pair_doc_id: list[str] = []
    pair_matched: list[bool] = []
    for case in dataset.queries:
        first, relevant_ids, retrieved = _match(
            run.results[case.query_doc_id], case.relevant_ids, family_map, members
        )
        first_rank.append(first)
        matched.append(sum(retrieved))
        relevant.append(len(relevant_ids))
        pair_doc_id += relevant_ids
        pair_matched += retrieved
    relevant_col = np.array(relevant, dtype=np.int64)
    return QueryOutcomes(
        dataset=dataset,
        first_rank=np.array(first_rank, dtype=np.int64),
        matched=np.array(matched, dtype=np.int64),
        relevant=relevant_col,
        pair_query=np.repeat(np.arange(len(relevant), dtype=np.int64), relevant_col),
        pair_doc_id=tuple(pair_doc_id),
        pair_matched=np.array(pair_matched, dtype=bool),
        depth=run.controls.max_depth,
    )


def validate_k_grid(ks: Sequence[int]) -> tuple[int, ...]:
    """``ks`` as a tuple, checked to be a non-empty, strictly increasing grid
    of cutoffs >= 1; raises :class:`UndefinedMetricError` otherwise."""
    ks = tuple(ks)
    if not ks or any(k < 1 for k in ks) or any(a >= b for a, b in zip(ks, ks[1:])):
        raise UndefinedMetricError(f"k grid must be strictly increasing and >= 1: {ks}")
    return ks


def topk_detection_rate(
    run: RunRecord,
    dataset: EvaluationDataset,
    k: int,
    match_rule: str = MATCH_EXACT,
    family_of: Mapping[str, str] | None = None,
) -> float:
    """Share of queries with at least one relevant document in the top k."""
    if k < 1:
        raise UndefinedMetricError(f"k must be at least 1, got {k}")
    outcomes = query_outcomes(run, dataset, match_rule, family_of)
    return int(outcomes.detected((k,)).sum()) / len(dataset.queries)


def detection_curve(
    run: RunRecord,
    dataset: EvaluationDataset,
    ks: Sequence[int] = DEFAULT_K_GRID,
    match_rule: str = MATCH_EXACT,
    family_of: Mapping[str, str] | None = None,
) -> DetectionCurve:
    """Detection rates over a strictly increasing k grid."""
    ks = validate_k_grid(ks)
    counts = query_outcomes(run, dataset, match_rule, family_of).detected(ks).sum(axis=0)
    n = len(dataset.queries)
    points = tuple((k, count / n) for k, count in zip(ks, counts.tolist()))
    return DetectionCurve(points=points, n_queries=n)


def recall(
    run: RunRecord,
    dataset: EvaluationDataset,
    match_rule: str = MATCH_EXACT,
    family_of: Mapping[str, str] | None = None,
) -> float:
    """Recall over the full returned lists (depth = the run's max_depth):
    pooled retrieved-relevant count over pooled relevant count."""
    outcomes = query_outcomes(run, dataset, match_rule, family_of)
    return int(outcomes.matched.sum()) / int(outcomes.relevant.sum())


# ---------------------------------------------------------------------------
# Stratified paired bootstrap.
# ---------------------------------------------------------------------------


def group_indices(labels: Sequence[Hashable]) -> dict[Hashable, list[int]]:
    """Row indices by label, in first-seen order."""
    groups: dict[Hashable, list[int]] = {}
    for i, label in enumerate(labels):
        groups.setdefault(label, []).append(i)
    return groups


def _group_strata(
    dataset: EvaluationDataset, strata_dims: Sequence[str]
) -> list[tuple[str, list[int]]]:
    """Query indices grouped by stratum key
    (:meth:`~patbench.dataset.EvaluationDataset.stratum_keys`); strata smaller
    than MIN_STRATUM_SIZE merge into a catch-all with a warning."""
    groups = group_indices(dataset.stratum_keys(strata_dims))
    small = [key for key, idxs in groups.items() if len(idxs) < MIN_STRATUM_SIZE]
    if small and len(groups) > 1:
        merged: list[int] = []
        for key in small:
            merged.extend(groups.pop(key))
        logger.warning(
            "merged %d strata below %d queries into catch-all", len(small), MIN_STRATUM_SIZE
        )
        groups.setdefault(CATCH_ALL_LABEL, []).extend(merged)
    return sorted(groups.items())


def _paired_contributions(
    outcomes_a: QueryOutcomes, outcomes_b: QueryOutcomes, metric: str, k: int | None
) -> tuple[str, np.ndarray, np.ndarray]:
    """Name and per-query paired contributions (u, m), both int64; the
    difference on a resample S is sum(u[S]) / sum(m[S]).

    Detection: u is the hit-indicator difference and m is all ones.  Recall
    (micro): u is the matched-count difference, m the relevant-set size.
    """
    if metric == "detection":
        if k is None or k < 1:
            raise UndefinedMetricError("detection metric needs k >= 1")
        hit_a, hit_b = (o.detected((k,))[:, 0].astype(np.int64) for o in (outcomes_a, outcomes_b))
        u = hit_a - hit_b
        return f"top{k}_detection", u, np.ones_like(u)
    if metric == "recall":
        u = outcomes_a.matched - outcomes_b.matched
        return f"recall@{outcomes_a.depth}", u, outcomes_a.relevant
    raise UndefinedMetricError(f"unknown bootstrap metric {metric!r}")


def _two_sided_p(observed: float, diffs: np.ndarray) -> float:
    """Two-sided sign-opposition p-value with +1/(B+1) smoothing.  A zero
    observed difference yields p = 1."""
    if observed == 0.0:
        return 1.0
    opposed = diffs <= 0.0 if observed > 0 else diffs >= 0.0
    return min(1.0, 2.0 * (int(opposed.sum()) + 1) / (len(diffs) + 1))


def paired_bootstrap(
    run_a: RunRecord,
    run_b: RunRecord,
    dataset: EvaluationDataset,
    *,
    metric: str = "detection",
    k: int | None = 10,
    strata_dims: Sequence[str] = DEFAULT_BOOTSTRAP_STRATA,
    n_resamples: int = DEFAULT_N_RESAMPLES,
    seed: int = 0,
    match_rule: str = MATCH_EXACT,
    family_of: Mapping[str, str] | None = None,
) -> SignificanceResult:
    """Stratified paired bootstrap for the metric difference run_a minus run_b.

    Queries are resampled with replacement independently within each stratum,
    preserving stratum sizes; the same resampled indices apply to both runs.
    Deterministic for a given
    seed: per-stratum random streams are derived from the seed and the
    stratum's position in sorted order, so results do not depend on
    evaluation order.
    """
    (result,) = paired_bootstrap_outcomes(
        query_outcomes(run_a, dataset, match_rule, family_of),
        query_outcomes(run_b, dataset, match_rule, family_of),
        ((metric, k),),
        strata_dims=strata_dims,
        n_resamples=n_resamples,
        seed=seed,
    )
    return result


def paired_bootstrap_outcomes(
    outcomes_a: QueryOutcomes,
    outcomes_b: QueryOutcomes,
    metrics: Sequence[tuple[str, int | None]],
    *,
    strata_dims: Sequence[str] = DEFAULT_BOOTSTRAP_STRATA,
    n_resamples: int = DEFAULT_N_RESAMPLES,
    seed: int = 0,
) -> tuple[SignificanceResult, ...]:
    """:func:`paired_bootstrap` over two outcome tables of one dataset, for
    each ``(metric, k)`` of ``metrics``.

    Every metric is evaluated on the same resamples, drawn once, so each
    result equals what :func:`paired_bootstrap` gives for that metric alone
    with the same seed.  Raises :class:`ValueError` unless both tables were
    built over the same dataset object.
    """
    if outcomes_a.dataset is not outcomes_b.dataset:
        raise ValueError("the two outcome tables were built over different datasets")
    if n_resamples < 1000:
        raise ValueError("n_resamples must be at least 1000")
    stats = [_paired_contributions(outcomes_a, outcomes_b, metric, k) for metric, k in metrics]
    strata = _group_strata(outcomes_a.dataset, strata_dims)
    strata_spec = f"{'x'.join(strata_dims)} ({len(strata)} strata)"
    all_diffs = _resampled_diffs([(u, m) for _, u, m in stats], strata, n_resamples, seed)

    results = []
    for (metric_name, u, m), diffs in zip(stats, all_diffs):
        observed = float(u.sum() / m.sum())
        ci_low, ci_high = (float(x) for x in np.percentile(diffs, [2.5, 97.5]))
        results.append(
            SignificanceResult(
                metric_name=metric_name,
                observed_diff=observed,
                p_value=_two_sided_p(observed, diffs),
                ci_low=ci_low,
                ci_high=ci_high,
                n_resamples=n_resamples,
                strata_spec=strata_spec,
                seed=seed,
            )
        )
    return tuple(results)


def _bootstrap_workers(n_strata: int) -> int:
    """Threads for the sampled bootstrap: one per stratum, at most one per
    CPU this process may run on."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return min(n_strata, cpus)


def _pack_columns(values: np.ndarray) -> tuple[np.ndarray, list[tuple[int, int, int, int]]]:
    """A stratum's ``(n_s, c)`` integer contribution matrix packed into
    int64 words, so that one gather-and-sum per word sums every column.

    Each column is shifted by its minimum ``low`` to be non-negative and gets
    a bit field as wide as ``bit_length(n_s * (max - low))``, so that the sum
    of any ``n_s`` of its values fits in the field.  Fields go into the first
    word with room, within ``_PACKED_WORD_BITS`` bits, so the sums of a word
    never carry from one field into the next or past the int64 sign bit.
    Returns the ``(words, n_s)`` matrix and, per column, its ``(word, shift,
    width, low)``.
    """
    n_s = len(values)
    used: list[int] = []  # bits taken in each word
    fields = []
    for column in values.T:
        low = int(column.min())
        width = (n_s * (int(column.max()) - low)).bit_length()
        if width > _PACKED_WORD_BITS:
            raise ValueError(f"bootstrap sums of a stratum need {width} bits")
        word = next((w for w, bits in enumerate(used) if bits + width <= _PACKED_WORD_BITS), None)
        if word is None:
            word = len(used)
            used.append(0)
        fields.append((word, used[word], width, low))
        used[word] += width
    words = np.zeros((len(used), n_s), dtype=np.int64)
    for column, (word, shift, _, low) in zip(values.T, fields):
        words[word] += (column - low) << shift
    return words, fields


def _resampled_diffs(
    contributions: Sequence[tuple[np.ndarray, np.ndarray]],
    strata: list[tuple[str, list[int]]],
    n_resamples: int,
    seed: int,
) -> list[np.ndarray]:
    """Resampled differences of each statistic, all from one draw per chunk.

    Every statistic's int64 ``u`` and ``m`` columns form one ``(n, 2 *
    stats)`` matrix of integers.  Each stratum's rows are packed into int64
    words (:func:`_pack_columns`).  A chunk of ``rows`` resamples of a
    stratum of ``n_s`` queries is one ``(rows, n_s)`` matrix of drawn
    indices; gathering each word at those indices and summing along the rows
    sums every column at once.

    Strata are resampled concurrently, one task per stratum on a pool of
    :func:`_bootstrap_workers` threads; numpy draws, gathers and sums
    without holding the interpreter lock.  Each worker's chunks hold at most
    ``draws = _BOOTSTRAP_DRAWS // workers`` draws (one row when ``n_s`` is
    larger), so memory does not grow with the stratum size.  A worker holds
    the chunk's draw matrix, one gather buffer of ``(min(rows, n_resamples),
    n_s)`` int64 that every chunk of the stratum reuses, and the stratum's
    ``(words, n_resamples)`` int64 word sums, into which each chunk sums in
    place.  The gather uses ``mode="clip"`` because the draws are in range by
    construction, and under the default ``mode="raise"`` numpy gathers into
    a temporary copy of the buffer.  Once all its chunks are summed, a task
    takes the shared lock once and unpacks each field into the shared sums:
    a shift, a mask, and ``low * n_s`` added back.  The result does not
    depend on the thread count, the scheduling or the packing: each stratum
    draws from its own generator, spawned from ``seed`` by its position in
    sorted order, the draws do not depend on the chunk shape, and every sum
    is an exact integer.
    """
    n_stats = len(contributions)
    values = np.column_stack([u for u, _ in contributions] + [m for _, m in contributions])
    sums = np.zeros((2 * n_stats, n_resamples), dtype=np.int64)
    lock = threading.Lock()
    workers = _bootstrap_workers(len(strata))
    draws = _BOOTSTRAP_DRAWS // workers

    def resample(idxs: list[int], child: np.random.SeedSequence) -> None:
        rng = np.random.default_rng(child)
        n_s = len(idxs)
        words, fields = _pack_columns(values[idxs])
        rows = min(max(1, draws // n_s), n_resamples)
        gathered = np.empty((rows, n_s), dtype=np.int64)
        word_sums = np.empty((len(words), n_resamples), dtype=np.int64)
        for start in range(0, n_resamples, rows):
            stop = min(start + rows, n_resamples)
            draw = rng.integers(0, n_s, size=(stop - start, n_s))
            chunk = gathered[: stop - start]
            for word, word_sum in zip(words, word_sums):
                word.take(draw, out=chunk, mode="clip")
                chunk.sum(axis=1, out=word_sum[start:stop])
            del draw  # freed before the next chunk is drawn
        with lock:
            for total, (word, shift, width, low) in zip(sums, fields):
                unpacked = word_sums[word] >> shift
                unpacked &= (1 << width) - 1
                unpacked += low * n_s
                total += unpacked

    children = np.random.SeedSequence(seed).spawn(len(strata))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        tasks = [pool.submit(resample, idxs, child) for (_, idxs), child in zip(strata, children)]
        for task in tasks:
            task.result()
    return list(sums[:n_stats] / sums[n_stats:])
