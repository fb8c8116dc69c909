"""Retrieval quality metrics: top-k detection rate, recall at retrieval
depth, and stratified paired-bootstrap significance for system deltas."""

from __future__ import annotations

import logging
import math
import os
import threading
from collections import Counter
from collections.abc import Set as AbstractSet
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import combinations_with_replacement, compress, count, product
from typing import Mapping, Sequence

import numpy as np

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
_CATCH_ALL = "__rest__"
# Draws in flight at once in the sampled bootstrap, shared out among its
# worker threads: its working arrays hold about this many elements whatever
# the stratum size.
_BOOTSTRAP_DRAWS = 1 << 17
_EXHAUSTIVE_LIMIT = 200_000


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
    # Exhaustive mode only: the full (diff, probability) support.
    distribution: tuple[tuple[float, float], ...] | None = None


def _check_coverage(run: RunRecord, dataset: EvaluationDataset) -> None:
    run_ids = set(run.results)
    ds_ids = set(dataset.query_ids())
    if run_ids != ds_ids:
        missing = sorted(ds_ids - run_ids)[:5]
        extra = sorted(run_ids - ds_ids)[:5]
        raise CoverageError(
            f"run does not cover the dataset (missing {missing}, extra {extra})"
        )


def _validate_match_args(match_rule: str, family_of: Mapping[str, str] | None) -> None:
    if match_rule not in MATCH_RULES:
        raise ValueError(f"unknown match rule {match_rule!r}")
    if match_rule == MATCH_FAMILY and family_of is None:
        raise ValueError("family match rule requires a family_of mapping")


def _match(
    ranked: RankedList,
    relevant: AbstractSet[str],
    family_of: Mapping[str, str] | None,
) -> tuple[int, list[str], list[bool]]:
    """The match rule.  ``family_of`` is ``None`` for the exact rule.

    A hit matches when its doc_id is relevant or, under the family rule,
    when it shares a non-empty family with a relevant document.  A relevant
    document counts as retrieved when it appears anywhere in the list or,
    under the family rule, when any hit shares its family.  Non-OK results
    match nothing.  Returns the rank of the earliest matching hit (0 for
    none), the relevant ids in sorted order and, per id, whether it was
    retrieved.
    """
    relevant_ids = sorted(relevant)
    ids = ranked.doc_ids  # non-OK results carry none
    found_ids = relevant.intersection(ids)
    # Position of the earliest match so far; len(ids) while there is none.
    first = min(map(ids.index, found_ids), default=len(ids))
    retrieved = [rid in found_ids for rid in relevant_ids]
    families = set(map(family_of.get, relevant_ids)) - {None, ""} if family_of else None
    if families:
        found_families = families.intersection(map(family_of.get, ids))
        if found_families:
            # One scan of the hits before `first`, up to the first family match.
            in_family = map(found_families.__contains__, map(family_of.get, ids[:first]))
            first = next(compress(count(), in_family), first)
            retrieved = [
                hit or family_of.get(rid) in found_families
                for rid, hit in zip(relevant_ids, retrieved)
            ]
    return (first + 1 if first < len(ids) else 0), relevant_ids, retrieved


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
    _validate_match_args(match_rule, family_of)
    first, _, _ = _match(ranked, relevant, family_of if match_rule == MATCH_FAMILY else None)
    return first or None


@dataclass(frozen=True, eq=False)
class QueryOutcomes:
    """What one run retrieved for each query of a dataset under one match rule.

    The per-query columns follow ``query_ids``, the dataset's query ids in
    ``dataset.queries`` order.  The pair columns have one row per (query,
    relevant document): queries in the same order, relevant ids sorted within
    a query.  Every metric and report is a count or sum over these columns.
    """

    query_ids: tuple[str, ...]
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

    def check_dataset(self, dataset: EvaluationDataset) -> None:
        """Raise :class:`ValueError` unless the rows follow the queries of
        ``dataset``, in its order."""
        expected = tuple(dataset.query_ids())
        if self.query_ids == expected:
            return
        if len(self.query_ids) != len(expected):
            raise ValueError(
                f"outcome table has {len(self.query_ids)} rows, "
                f"the dataset {len(expected)} queries"
            )
        row, got, wanted = next(
            (i, a, b) for i, (a, b) in enumerate(zip(self.query_ids, expected)) if a != b
        )
        raise ValueError(f"outcome table row {row} is query {got!r}, the dataset's is {wanted!r}")


def query_outcomes(
    run: RunRecord,
    dataset: EvaluationDataset,
    match_rule: str = MATCH_EXACT,
    family_of: Mapping[str, str] | None = None,
) -> QueryOutcomes:
    """Walk each ranked list of ``run`` once and tabulate its outcomes.

    Raises :class:`CoverageError` unless the run covers exactly the
    dataset's query ids.
    """
    _validate_match_args(match_rule, family_of)
    _check_coverage(run, dataset)
    family_map = family_of if match_rule == MATCH_FAMILY else None
    first_rank: list[int] = []
    matched: list[int] = []
    relevant: list[int] = []
    pair_doc_id: list[str] = []
    pair_matched: list[bool] = []
    for case in dataset.queries:
        first, relevant_ids, retrieved = _match(
            run.results[case.query_doc_id], case.relevant_ids, family_map
        )
        first_rank.append(first)
        matched.append(sum(retrieved))
        relevant.append(len(relevant_ids))
        pair_doc_id += relevant_ids
        pair_matched += retrieved
    relevant_col = np.array(relevant, dtype=np.int64)
    return QueryOutcomes(
        query_ids=tuple(dataset.query_ids()),
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
    if not dataset.queries:
        raise UndefinedMetricError("detection rate is undefined on an empty dataset")
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
    if not dataset.queries:
        raise UndefinedMetricError("detection curve is undefined on an empty dataset")
    counts = query_outcomes(run, dataset, match_rule, family_of).detected(ks).sum(axis=0)
    n = len(dataset.queries)
    points = tuple((k, count / n) for k, count in zip(ks, counts.tolist()))
    return DetectionCurve(points=points, n_queries=n)


def recall(
    run: RunRecord,
    dataset: EvaluationDataset,
    match_rule: str = MATCH_EXACT,
    family_of: Mapping[str, str] | None = None,
    macro: bool = False,
) -> float:
    """Recall over the full returned lists (depth = the run's max_depth).

    Micro-averaged by default: pooled retrieved-relevant count over pooled
    relevant count.  ``macro=True`` averages per-query recall instead.
    """
    if not dataset.queries:
        raise UndefinedMetricError("recall is undefined on an empty dataset")
    outcomes = query_outcomes(run, dataset, match_rule, family_of)
    if macro:
        per_query = [
            matched / relevant
            for matched, relevant in zip(outcomes.matched.tolist(), outcomes.relevant.tolist())
        ]
        return sum(per_query) / len(per_query)
    return int(outcomes.matched.sum()) / int(outcomes.relevant.sum())


# ---------------------------------------------------------------------------
# Stratified paired bootstrap.
# ---------------------------------------------------------------------------


def _group_strata(
    dataset: EvaluationDataset, strata_dims: Sequence[str]
) -> list[tuple[str, list[int]]]:
    """Query indices grouped by stratum label tuple; strata smaller than
    MIN_STRATUM_SIZE merge into a catch-all with a warning."""
    groups: dict[str, list[int]] = {}
    for i, case in enumerate(dataset.queries):
        labels = dataset.strata.get(case.query_doc_id, {})
        key = "|".join(str(labels.get(dim, "?")) for dim in strata_dims)
        groups.setdefault(key, []).append(i)

    small = [key for key, idxs in groups.items() if len(idxs) < MIN_STRATUM_SIZE]
    if small and len(groups) > 1:
        merged: list[int] = []
        for key in small:
            merged.extend(groups.pop(key))
        if merged:
            logger.warning(
                "merged %d strata below %d queries into catch-all", len(small), MIN_STRATUM_SIZE
            )
            groups.setdefault(_CATCH_ALL, []).extend(merged)
    return sorted(groups.items())


def _paired_contributions(
    outcomes_a: QueryOutcomes, outcomes_b: QueryOutcomes, metric: str, k: int | None
) -> tuple[str, float, np.ndarray, np.ndarray | None]:
    """Name, observed difference and per-query paired contributions (u, m).

    Detection: u is the hit-indicator difference and m is all ones, given as
    ``None``; diff on a resample S is sum(u[S]) / |S|.  Recall (micro): u is
    the matched-count difference, m the relevant-set size; diff is
    sum(u[S]) / sum(m[S]).
    """
    if metric == "detection":
        if k is None or k < 1:
            raise UndefinedMetricError("detection metric needs k >= 1")
        hit_a, hit_b = (
            o.detected((k,))[:, 0].astype(np.float64) for o in (outcomes_a, outcomes_b)
        )
        u = hit_a - hit_b
        return f"top{k}_detection", float(u.sum() / len(u)), u, None
    if metric == "recall":
        u = (outcomes_a.matched - outcomes_b.matched).astype(np.float64)
        m = outcomes_a.relevant.astype(np.float64)
        return f"recall@{outcomes_a.depth}", float(u.sum() / m.sum()), u, m
    raise UndefinedMetricError(f"unknown bootstrap metric {metric!r}")


def _two_sided_p(observed: float, diffs: np.ndarray, weights: np.ndarray | None) -> float:
    """Two-sided sign-opposition p-value.

    Sampled mode (weights None) applies +1/(B+1) smoothing; exhaustive mode
    uses exact probabilities.  A zero observed difference yields p = 1.
    """
    if observed == 0.0:
        return 1.0
    if observed > 0:
        mask = diffs <= 0.0
    else:
        mask = diffs >= 0.0
    if weights is None:
        b = len(diffs)
        return min(1.0, 2.0 * (int(mask.sum()) + 1) / (b + 1))
    return min(1.0, 2.0 * float(weights[mask].sum()))


def _weighted_percentile(
    diffs: np.ndarray, weights: np.ndarray, q: float
) -> float:
    order = np.argsort(diffs, kind="stable")
    sorted_diffs = diffs[order]
    cum = np.cumsum(weights[order])
    idx = int(np.searchsorted(cum, q, side="left"))
    idx = min(idx, len(sorted_diffs) - 1)
    return float(sorted_diffs[idx])


def _multiset_weight(counts: Counter, n: int) -> float:
    log_w = math.lgamma(n + 1) - n * math.log(n)
    for c in counts.values():
        log_w -= math.lgamma(c + 1)
    return math.exp(log_w)


def _exhaustive_support(
    strata: list[tuple[str, list[int]]]
) -> list[tuple[tuple[int, ...], float]]:
    """All paired resamples as (index multiset, probability) per stratum,
    combined across strata by cross product."""
    total = 1
    for _, idxs in strata:
        n = len(idxs)
        total *= math.comb(2 * n - 1, n)
        if total > _EXHAUSTIVE_LIMIT:
            raise UndefinedMetricError(
                f"exhaustive enumeration too large ({total}+ combinations)"
            )
    per_stratum: list[list[tuple[tuple[int, ...], float]]] = []
    for _, idxs in strata:
        n = len(idxs)
        options: list[tuple[tuple[int, ...], float]] = []
        for combo in combinations_with_replacement(idxs, n):
            options.append((combo, _multiset_weight(Counter(combo), n)))
        per_stratum.append(options)
    support: list[tuple[tuple[int, ...], float]] = []
    for parts in product(*per_stratum):
        indices: tuple[int, ...] = ()
        weight = 1.0
        for combo, w in parts:
            indices += combo
            weight *= w
        support.append((indices, weight))
    return support


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
    exhaustive: bool = False,
) -> SignificanceResult:
    """Stratified paired bootstrap for the metric difference run_a minus run_b.

    Queries are resampled with replacement independently within each stratum,
    preserving stratum sizes; the same resampled indices apply to both runs.
    Deterministic for a given
    seed: per-stratum random streams are derived from the seed and the
    stratum's position in sorted order, so results do not depend on
    evaluation order.

    ``exhaustive=True`` replaces sampling with full enumeration of the
    resample distribution (small datasets only) and exact probabilities.
    """
    (result,) = paired_bootstrap_outcomes(
        query_outcomes(run_a, dataset, match_rule, family_of),
        query_outcomes(run_b, dataset, match_rule, family_of),
        dataset,
        ((metric, k),),
        strata_dims=strata_dims,
        n_resamples=n_resamples,
        seed=seed,
        exhaustive=exhaustive,
    )
    return result


def paired_bootstrap_outcomes(
    outcomes_a: QueryOutcomes,
    outcomes_b: QueryOutcomes,
    dataset: EvaluationDataset,
    metrics: Sequence[tuple[str, int | None]],
    *,
    strata_dims: Sequence[str] = DEFAULT_BOOTSTRAP_STRATA,
    n_resamples: int = DEFAULT_N_RESAMPLES,
    seed: int = 0,
    exhaustive: bool = False,
) -> tuple[SignificanceResult, ...]:
    """:func:`paired_bootstrap` over two outcome tables of ``dataset``, for
    each ``(metric, k)`` of ``metrics``.

    Every metric is evaluated on the same resamples, drawn once, so each
    result equals what :func:`paired_bootstrap` gives for that metric alone
    with the same seed.  Raises :class:`ValueError` unless both tables follow
    the queries of ``dataset`` (:meth:`QueryOutcomes.check_dataset`).
    """
    if not dataset.queries:
        raise UndefinedMetricError("bootstrap is undefined on an empty dataset")
    outcomes_a.check_dataset(dataset)
    outcomes_b.check_dataset(dataset)
    if not exhaustive and n_resamples < 1000:
        raise ValueError("n_resamples must be at least 1000 (or use exhaustive mode)")
    stats = [_paired_contributions(outcomes_a, outcomes_b, metric, k) for metric, k in metrics]
    strata = _group_strata(dataset, strata_dims)
    strata_spec = f"{'x'.join(strata_dims)} ({len(strata)} strata)"

    if exhaustive:
        support = _exhaustive_support(strata)
        n_resamples = len(support)
        weights = np.array([w for _, w in support], dtype=np.float64)
        weights = weights / weights.sum()
        all_diffs = [
            np.array(
                [
                    u[list(indices)].sum()
                    / (len(indices) if m is None else m[list(indices)].sum())
                    for indices, _ in support
                ],
                dtype=np.float64,
            )
            for _, _, u, m in stats
        ]
    else:
        weights = None
        all_diffs = _resampled_diffs(stats, strata, n_resamples, seed)

    results = []
    for (metric_name, observed, _, _), diffs in zip(stats, all_diffs):
        distribution = None
        if weights is None:
            ci_low, ci_high = (float(x) for x in np.percentile(diffs, [2.5, 97.5]))
        else:
            ci_low = _weighted_percentile(diffs, weights, 0.025)
            ci_high = _weighted_percentile(diffs, weights, 0.975)
            order = np.argsort(diffs, kind="stable")
            distribution = tuple((float(diffs[i]), float(weights[i])) for i in order)
        results.append(
            SignificanceResult(
                metric_name=metric_name,
                observed_diff=observed,
                p_value=_two_sided_p(observed, diffs, weights),
                ci_low=ci_low,
                ci_high=ci_high,
                n_resamples=n_resamples,
                strata_spec=strata_spec,
                seed=seed,
                distribution=distribution,
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


def _resampled_diffs(
    stats: Sequence[tuple[str, float, np.ndarray, np.ndarray | None]],
    strata: list[tuple[str, list[int]]],
    n_resamples: int,
    seed: int,
) -> list[np.ndarray]:
    """Resampled differences of each statistic, all from one draw per chunk.

    Every statistic's ``u`` and ``m`` columns (ones for detection) form one
    ``(n, 2 * stats)`` matrix.  A chunk of ``rows`` resamples of a stratum of
    ``n_s`` queries becomes one ``(rows, n_s)`` matrix of how often each
    query was drawn, and one product with the stratum's rows sums every
    column.

    Strata are resampled concurrently, one task per stratum on a pool of
    :func:`_bootstrap_workers` threads; numpy draws, casts and multiplies
    without holding the interpreter lock (``np.bincount`` holds it).  Each worker's chunks hold at most
    ``_BOOTSTRAP_DRAWS // workers`` draws, so memory does not grow with the
    stratum size or the thread count.  Workers add each chunk's sums into
    one shared array under a lock.  The result does not depend on the thread
    count or the scheduling: each stratum draws from its own generator,
    spawned from ``seed`` by its position in sorted order, and the draws do
    not depend on the chunk shape; the columns hold integers and every
    partial sum stays below 2**53, so the sums are exact in any order.
    """
    n_stats = len(stats)
    columns = [u for _, _, u, _ in stats] + [
        np.ones_like(u) if m is None else m for _, _, u, m in stats
    ]
    values = np.column_stack(columns)
    sums = np.zeros((n_resamples, 2 * n_stats), dtype=np.float64)
    lock = threading.Lock()
    workers = _bootstrap_workers(len(strata))
    draws = _BOOTSTRAP_DRAWS // workers

    def resample(idxs: list[int], child: np.random.SeedSequence) -> None:
        rng = np.random.default_rng(child)
        values_s = values[idxs]
        n_s = len(idxs)
        rows = max(1, draws // n_s)
        offsets = np.arange(rows, dtype=np.int64)[:, None] * n_s
        for start in range(0, n_resamples, rows):
            stop = min(start + rows, n_resamples)
            draw = rng.integers(0, n_s, size=(stop - start, n_s))
            draw += offsets[: stop - start]
            counts = np.bincount(draw.ravel(), minlength=draw.size).astype(np.float64)
            chunk_sums = counts.reshape(draw.shape) @ values_s
            with lock:
                sums[start:stop] += chunk_sums

    children = np.random.SeedSequence(seed).spawn(len(strata))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        tasks = [pool.submit(resample, idxs, child) for (_, idxs), child in zip(strata, children)]
        for task in tasks:
            task.result()
    return list(sums[:, :n_stats].T / sums[:, n_stats:].T)
