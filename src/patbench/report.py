"""Result analysis and emission: per-dimension breakdowns, cross-language
recall, two-system comparison, and deterministic text/CSV/SVG outputs."""

from __future__ import annotations

import csv
import io
import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Hashable, Mapping, Sequence

import numpy as np

from .corpus import Corpus
from .dataset import EvaluationDataset
from .execution import RunRecord
from .metrics import (
    DEFAULT_BOOTSTRAP_STRATA,
    DEFAULT_K_GRID,
    DEFAULT_N_RESAMPLES,
    MATCH_EXACT,
    MATCH_FAMILY,
    QueryOutcomes,
    SignificanceResult,
    UndefinedMetricError,
    paired_bootstrap_outcomes,
    query_outcomes,
    validate_k_grid,
)

logger = logging.getLogger(__name__)

REPORT_DIMENSIONS = ("language", "ipc_section", "jurisdiction")
REPORT_FORMATS = ("table-text", "csv", "svg-plot-data")
TOTAL_LABEL = "__all__"
OVERALL_DIMENSION = "overall"

_SVG_PALETTE = (
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#9467bd",
    "#ff7f0e",
    "#8c564b",
    "#17becf",
    "#7f7f7f",
)


class IntegrityMismatchError(ValueError):
    """Run logs and dataset disagree about the dataset manifest hash."""


@dataclass(frozen=True)
class BreakdownRow:
    """Per-stratum detection counts and recall.

    ``hit_counts[i]`` is the number of queries whose first relevant hit lies
    within ``ks[i]`` of the containing table; integer counts make slice sums
    exactly checkable against the whole-dataset row.
    """

    stratum: str
    n_queries: int
    hit_counts: tuple[int, ...]
    rates: tuple[float, ...]
    recall_numerator: int
    recall_denominator: int
    recall: float
    recall_depth: int


@dataclass(frozen=True)
class BreakdownTable:
    dimension: str
    ks: tuple[int, ...]
    rows: tuple[BreakdownRow, ...]
    totals: BreakdownRow


@dataclass(frozen=True)
class CrossLanguageCell:
    query_language: str
    relevant_language: str
    n_pairs: int
    n_retrieved: int
    recall: float


@dataclass(frozen=True)
class SystemComparison:
    system_a: str
    system_b: str
    ks: tuple[int, ...]
    table_a: BreakdownTable
    table_b: BreakdownTable
    deltas: tuple[float, ...]
    recall_delta: float
    recall_depth: int
    significance: tuple[SignificanceResult, ...]
    breakdowns_a: tuple[BreakdownTable, ...] = ()
    breakdowns_b: tuple[BreakdownTable, ...] = ()


@dataclass(frozen=True)
class MetricsReport:
    """Everything a single evaluation emits."""

    match_rule: str
    overall: BreakdownTable | None
    breakdowns: tuple[BreakdownTable, ...] = ()
    cross_language: tuple[CrossLanguageCell, ...] = ()
    family_overall: BreakdownTable | None = None
    comparison: SystemComparison | None = None


def _check_manifest(run: RunRecord, dataset: EvaluationDataset, run_name: str) -> None:
    """Raise :class:`IntegrityMismatchError` unless ``run`` was produced
    against ``dataset``'s manifest."""
    if run.dataset_manifest_hash != dataset.manifest_hash:
        raise IntegrityMismatchError(
            f"{run_name} was produced against dataset manifest "
            f"{run.dataset_manifest_hash[:12]}... but this dataset hashes to "
            f"{dataset.manifest_hash[:12]}..."
        )


def _groups(labels: Sequence[Hashable]) -> dict[Hashable, list[int]]:
    """Row indices by label, in first-seen order."""
    groups: dict[Hashable, list[int]] = {}
    for i, label in enumerate(labels):
        groups.setdefault(label, []).append(i)
    return groups


def _breakdown(
    outcomes: QueryOutcomes,
    dataset: EvaluationDataset,
    dimension: str,
    ks: Sequence[int],
) -> BreakdownTable:
    if dimension != OVERALL_DIMENSION and dimension not in REPORT_DIMENSIONS:
        raise ValueError(f"unknown breakdown dimension {dimension!r}")
    ks = validate_k_grid(ks)
    if not dataset.queries:
        raise UndefinedMetricError("breakdown is undefined on an empty dataset")
    outcomes.check_dataset(dataset)
    # Per query: a hit within each k, then the recall numerator and denominator.
    columns = np.column_stack((outcomes.detected(ks), outcomes.matched, outcomes.relevant))

    def row(stratum: str, idxs: Sequence[int]) -> BreakdownRow:
        n = len(idxs)
        *hit_counts, numerator, denominator = columns[idxs].sum(axis=0).tolist()
        return BreakdownRow(
            stratum=stratum,
            n_queries=n,
            hit_counts=tuple(hit_counts),
            rates=tuple(count / n for count in hit_counts),
            recall_numerator=numerator,
            recall_denominator=denominator,
            recall=numerator / denominator,
            recall_depth=outcomes.depth,
        )

    labels = (
        []
        if dimension == OVERALL_DIMENSION
        else [
            str(dataset.strata.get(case.query_doc_id, {}).get(dimension, "?"))
            for case in dataset.queries
        ]
    )
    totals = row(TOTAL_LABEL, range(len(dataset.queries)))
    rows = tuple(
        row(label, idxs)
        for label, idxs in sorted(_groups(labels).items(), key=lambda kv: (-len(kv[1]), kv[0]))
    )
    return BreakdownTable(dimension=dimension, ks=ks, rows=rows, totals=totals)


def breakdown_by(
    run: RunRecord,
    dataset: EvaluationDataset,
    dimension: str,
    *,
    ks: Sequence[int] = DEFAULT_K_GRID,
    match_rule: str = MATCH_EXACT,
    family_of: Mapping[str, str] | None = None,
) -> BreakdownTable:
    """Detection and recall per stratum of one dimension.

    Rows are ordered by descending query count, then label.  The totals row
    is computed over the whole dataset and therefore equals the overall
    metrics; per-stratum hit counts sum exactly to its counts.
    """
    outcomes = query_outcomes(run, dataset, match_rule, family_of)
    return _breakdown(outcomes, dataset, dimension, ks)


def cross_language_recall(
    run: RunRecord,
    dataset: EvaluationDataset,
    corpus: Corpus,
    *,
    match_rule: str = MATCH_EXACT,
    family_of: Mapping[str, str] | None = None,
) -> tuple[CrossLanguageCell, ...]:
    """Recall per (query language, relevant-document language) pair.

    Pairs whose relevant document is missing from the corpus land in an
    ``unknown`` language bucket.  Only observed pairs produce cells, so a
    monolingual corpus yields no off-diagonal entries.
    """
    return _cross_language(query_outcomes(run, dataset, match_rule, family_of), dataset, corpus)


def _cross_language(
    outcomes: QueryOutcomes, dataset: EvaluationDataset, corpus: Corpus
) -> tuple[CrossLanguageCell, ...]:
    outcomes.check_dataset(dataset)
    query_language = [
        str(dataset.strata.get(case.query_doc_id, {}).get("language", "unknown"))
        for case in dataset.queries
    ]
    documents = corpus.documents
    keys = [
        (query_language[q], doc.language if doc is not None else "unknown")
        for q, doc in zip(
            outcomes.pair_query.tolist(), map(documents.get, outcomes.pair_doc_id)
        )
    ]
    cells = []
    for (qlang, rlang), idxs in sorted(_groups(keys).items()):
        n_retrieved = int(outcomes.pair_matched[idxs].sum())
        cells.append(
            CrossLanguageCell(
                query_language=qlang,
                relevant_language=rlang,
                n_pairs=len(idxs),
                n_retrieved=n_retrieved,
                recall=n_retrieved / len(idxs),
            )
        )
    return tuple(cells)


def evaluate_run(
    run: RunRecord,
    dataset: EvaluationDataset,
    corpus: Corpus | None = None,
    *,
    ks: Sequence[int] = DEFAULT_K_GRID,
    match_rule: str = MATCH_EXACT,
    dimensions: Sequence[str] = REPORT_DIMENSIONS,
) -> MetricsReport:
    """Everything ``patbench evaluate`` reports for one run.

    The overall table, one breakdown per dimension and, given a corpus, the
    cross-language recall all read one outcome table under ``match_rule``.
    Under the exact rule, a corpus with families adds the overall table
    under the family rule.  The family rule needs a corpus.  Raises
    :class:`IntegrityMismatchError` when the run was produced against a
    different dataset manifest, and ``ValueError`` for other unusable input.
    """
    _check_manifest(run, dataset, "run log")
    family_of = corpus.family_of if corpus is not None else None
    outcomes = query_outcomes(run, dataset, match_rule, family_of)
    overall = _breakdown(outcomes, dataset, OVERALL_DIMENSION, ks)
    breakdowns = tuple(_breakdown(outcomes, dataset, dim, ks) for dim in dimensions)
    family_overall = None
    if corpus is not None and match_rule != MATCH_FAMILY and corpus.family_of:
        family = query_outcomes(run, dataset, MATCH_FAMILY, family_of)
        family_overall = _breakdown(family, dataset, OVERALL_DIMENSION, ks)
    return MetricsReport(
        match_rule=match_rule,
        overall=overall,
        breakdowns=breakdowns,
        cross_language=_cross_language(outcomes, dataset, corpus) if corpus is not None else (),
        family_overall=family_overall,
    )


def compare_systems(
    run_a: RunRecord,
    run_b: RunRecord,
    dataset: EvaluationDataset,
    *,
    ks: Sequence[int] = DEFAULT_K_GRID,
    dimensions: Sequence[str] = (),
    match_rule: str = MATCH_EXACT,
    family_of: Mapping[str, str] | None = None,
    n_resamples: int = DEFAULT_N_RESAMPLES,
    seed: int = 0,
    strata_dims: Sequence[str] = DEFAULT_BOOTSTRAP_STRATA,
) -> SystemComparison:
    """Side-by-side metrics for two runs over the same dataset.

    Deltas are system B minus system A.  The stratified paired bootstrap
    tests detection at k = 10 (the grid's middle k without 10) and recall.
    Raises :class:`IntegrityMismatchError` when either run was produced
    against a different dataset manifest.
    """
    _check_manifest(run_a, dataset, "run A")
    _check_manifest(run_b, dataset, "run B")
    ks = tuple(ks)
    outcomes_a = query_outcomes(run_a, dataset, match_rule, family_of)
    outcomes_b = query_outcomes(run_b, dataset, match_rule, family_of)
    table_a = _breakdown(outcomes_a, dataset, OVERALL_DIMENSION, ks)
    table_b = _breakdown(outcomes_b, dataset, OVERALL_DIMENSION, ks)
    deltas = tuple(
        rb - ra for ra, rb in zip(table_a.totals.rates, table_b.totals.rates)
    )
    recall_delta = table_b.totals.recall - table_a.totals.recall

    sig_k = 10 if 10 in ks else ks[len(ks) // 2]
    significance = paired_bootstrap_outcomes(
        outcomes_b,
        outcomes_a,
        dataset,
        (("detection", sig_k), ("recall", None)),
        strata_dims=strata_dims,
        n_resamples=n_resamples,
        seed=seed,
    )
    breakdowns_a = tuple(_breakdown(outcomes_a, dataset, dim, ks) for dim in dimensions)
    breakdowns_b = tuple(_breakdown(outcomes_b, dataset, dim, ks) for dim in dimensions)
    return SystemComparison(
        system_a=run_a.controls.adapter_id or "system-a",
        system_b=run_b.controls.adapter_id or "system-b",
        ks=ks,
        table_a=table_a,
        table_b=table_b,
        deltas=deltas,
        recall_delta=recall_delta,
        recall_depth=run_a.controls.max_depth,
        significance=significance,
        breakdowns_a=breakdowns_a,
        breakdowns_b=breakdowns_b,
    )


# ---------------------------------------------------------------------------
# Emission.  All outputs are deterministic byte-for-byte: fixed column
# orders, repr-based float formatting, sorted iteration, no timestamps.
# ---------------------------------------------------------------------------


def _fmt(x: float) -> str:
    return repr(float(x))


def _percent(x: float) -> str:
    text = f"{x * 100:.1f}".rstrip("0").rstrip(".")
    return f"{text}%"


def _csv_bytes(header: Sequence[str], rows: Sequence[Sequence[object]]) -> bytes:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    return buf.getvalue().encode("utf-8")


def _csv_rows(table: BreakdownTable) -> list[tuple[str, BreakdownRow]]:
    """(stratum, row) pairs in file order: the totals first, then the strata."""
    return [(TOTAL_LABEL, table.totals)] + [(r.stratum, r) for r in table.rows]


def _detection_csv(tables: Sequence[BreakdownTable]) -> bytes:
    rows: list[list[object]] = []
    for table in tables:
        for stratum, row in _csv_rows(table):
            for k, rate in zip(table.ks, row.rates):
                rows.append([table.dimension, stratum, row.n_queries, k, _fmt(rate)])
    return _csv_bytes(["dimension", "stratum", "n_queries", "k", "detection_rate"], rows)


def _recall_csv(tables: Sequence[BreakdownTable]) -> bytes:
    rows: list[list[object]] = []
    for table in tables:
        for stratum, row in _csv_rows(table):
            rows.append(
                [table.dimension, stratum, row.n_queries, _fmt(row.recall), row.recall_depth]
            )
    return _csv_bytes(["dimension", "stratum", "n_queries", "recall", "recall_depth"], rows)


def _cross_language_csv(cells: Sequence[CrossLanguageCell]) -> bytes:
    rows = [
        [c.query_language, c.relevant_language, c.n_pairs, c.n_retrieved, _fmt(c.recall)]
        for c in cells
    ]
    return _csv_bytes(
        ["query_language", "relevant_language", "n_pairs", "n_retrieved", "recall"], rows
    )


def _comparison_csv(
    comp: SystemComparison,
    metric_header: Sequence[str],
    metric_cells: Callable[[BreakdownTable], list[list[object]]],
    deltas: Sequence[float],
    significance: Sequence[SignificanceResult | None],
) -> bytes:
    """Whole-dataset rows ``metric_cells(table)`` of system A, then of system B.

    Each row names its system; B's rows also carry the delta and, for a
    bootstrapped metric, the p-value and confidence interval, which A's rows
    leave blank.
    """
    lead = [OVERALL_DIMENSION, TOTAL_LABEL]
    rows = [
        lead + [comp.table_a.totals.n_queries] + cells + [comp.system_a, "", "", "", ""]
        for cells in metric_cells(comp.table_a)
    ]
    for cells, delta, sig in zip(metric_cells(comp.table_b), deltas, significance):
        stats = [_fmt(sig.p_value), _fmt(sig.ci_low), _fmt(sig.ci_high)] if sig else ["", "", ""]
        rows.append(
            lead + [comp.table_b.totals.n_queries] + cells + [comp.system_b, _fmt(delta)] + stats
        )
    return _csv_bytes(
        ["dimension", "stratum", "n_queries", *metric_header]
        + ["system", "delta", "p_value", "ci_low", "ci_high"],
        rows,
    )


def _comparison_detection_csv(comp: SystemComparison) -> bytes:
    sig = {s.metric_name: s for s in comp.significance}
    return _comparison_csv(
        comp,
        ["k", "detection_rate"],
        lambda table: [[k, _fmt(rate)] for k, rate in zip(table.ks, table.totals.rates)],
        comp.deltas,
        [sig.get(f"top{k}_detection") for k in comp.ks],
    )


def _comparison_recall_csv(comp: SystemComparison) -> bytes:
    sig = next(
        (s for s in comp.significance if s.metric_name.startswith("recall")), None
    )
    return _comparison_csv(
        comp,
        ["recall", "recall_depth"],
        lambda table: [[_fmt(table.totals.recall), table.totals.recall_depth]],
        [comp.recall_delta],
        [sig],
    )


def _metric_cells(row: BreakdownRow) -> list[str]:
    """Detection rate at each k, then recall, as the text tables print them."""
    return [_percent(rate) for rate in row.rates] + [f"{row.recall:.2f}"]


def _aligned(header: Sequence[str], body: Sequence[Sequence[str]]) -> list[str]:
    """Header, a dashed rule and the body, each column padded to its widest cell."""
    widths = [
        max(len(header[c]), *(len(r[c]) for r in body)) for c in range(len(header))
    ]
    lines = ["  ".join(h.ljust(widths[c]) for c, h in enumerate(header))]
    lines.append("  ".join("-" * w for w in widths))
    for r in body:
        lines.append("  ".join(v.ljust(widths[c]) for c, v in enumerate(r)))
    return lines


def _render_table(table: BreakdownTable, label_header: str) -> list[str]:
    header = (
        [label_header, "n"]
        + [f"Top{k}" for k in table.ks]
        + [f"recall@{table.totals.recall_depth}"]
    )
    body: list[list[str]] = []
    for row in list(table.rows) + [table.totals]:
        body.append([row.stratum, str(row.n_queries)] + _metric_cells(row))
    return _aligned(header, body)


def _table_text(report: MetricsReport) -> str:
    out: list[str] = []
    if report.overall is not None:
        depth = report.overall.totals.recall_depth
        out.append(f"Overall detection by rank cutoff (match rule: {report.match_rule}; "
                   f"recall depth: {depth})")
        out.extend(_render_table(report.overall, "stratum"))
        out.append("")
    if report.family_overall is not None:
        out.append("Overall, family-level matching")
        out.extend(_render_table(report.family_overall, "stratum"))
        out.append("")
    for table in report.breakdowns:
        out.append(f"Breakdown by {table.dimension}")
        out.extend(_render_table(table, table.dimension))
        out.append("")
    if report.cross_language:
        out.append("Cross-language recall (query language x relevant-document language)")
        for cell in report.cross_language:
            out.append(
                f"  {cell.query_language} -> {cell.relevant_language}: "
                f"{cell.recall:.2f} ({cell.n_retrieved}/{cell.n_pairs} pairs)"
            )
        out.append("")
    return "\n".join(out)


def _comparison_text(comp: SystemComparison) -> str:
    out: list[str] = []
    out.append(f"System comparison: {comp.system_a} vs {comp.system_b}")
    out.append(f"(deltas are {comp.system_b} minus {comp.system_a}; "
               f"recall depth {comp.recall_depth})")
    out.append("")
    header = ["system"] + [f"Top{k}" for k in comp.ks] + [f"recall@{comp.recall_depth}"]
    rows = [
        [comp.system_a] + _metric_cells(comp.table_a.totals),
        [comp.system_b] + _metric_cells(comp.table_b.totals),
        ["delta"]
        + [f"{d * 100:+.1f}pp" for d in comp.deltas]
        + [f"{comp.recall_delta:+.3f}"],
    ]
    out.extend(_aligned(header, rows))
    out.append("")
    for sig in comp.significance:
        out.append(
            f"{sig.metric_name}: diff {sig.observed_diff:+.4f}, "
            f"p={sig.p_value:.4g}, 95% CI [{sig.ci_low:+.4f}, {sig.ci_high:+.4f}], "
            f"{sig.n_resamples} resamples, strata {sig.strata_spec}"
        )
    out.append("")
    return "\n".join(out)


def _svg_frame(
    width: int, height: int, left: int, top: int, plot_w: int, plot_h: int
) -> list[str]:
    """Opening tag, white background and the 0-1 gridlines with labels."""
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        y = top + plot_h * (1.0 - frac)
        parts.append(
            f'<line x1="{left}" y1="{y:.1f}" x2="{left + plot_w}" y2="{y:.1f}" '
            f'stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{left - 8}" y="{y + 4:.1f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="12">{frac:.2f}</text>'
        )
    return parts


def _svg_line_chart(table: BreakdownTable) -> bytes:
    """Minimal hand-rolled line chart: detection rate against the k grid."""
    width, height = 640, 400
    left, right, top, bottom = 60, 190, 20, 50
    plot_w = width - left - right
    plot_h = height - top - bottom
    ks = table.ks

    def x_at(i: int) -> float:
        if len(ks) == 1:
            return left + plot_w / 2
        return left + plot_w * i / (len(ks) - 1)

    def y_at(rate: float) -> float:
        return top + plot_h * (1.0 - rate)

    parts = _svg_frame(width, height, left, top, plot_w, plot_h)
    for i, k in enumerate(ks):
        x = x_at(i)
        parts.append(
            f'<text x="{x:.1f}" y="{top + plot_h + 18}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12">{k}</text>'
        )
    parts.append(
        f'<text x="{left + plot_w / 2:.1f}" y="{height - 12}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">rank cutoff k</text>'
    )
    series = list(table.rows) if table.rows else [table.totals]
    for s_i, row in enumerate(series):
        color = _SVG_PALETTE[s_i % len(_SVG_PALETTE)]
        points = " ".join(
            f"{x_at(i):.1f},{y_at(rate):.1f}" for i, rate in enumerate(row.rates)
        )
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="2" points="{points}"/>'
        )
        ly = top + 16 + 18 * s_i
        lx = left + plot_w + 12
        parts.append(
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 18}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{lx + 24}" y="{ly}" font-family="sans-serif" font-size="12">'
            f"{row.stratum} (n={row.n_queries})</text>"
        )
    parts.append("</svg>")
    return ("\n".join(parts) + "\n").encode("utf-8")


def _svg_recall_bars(table: BreakdownTable) -> bytes:
    width, height = 640, 400
    left, right, top, bottom = 60, 40, 20, 70
    plot_w = width - left - right
    plot_h = height - top - bottom
    rows = list(table.rows) if table.rows else [table.totals]
    n = len(rows)
    slot = plot_w / n
    bar_w = min(60.0, slot * 0.6)

    parts = _svg_frame(width, height, left, top, plot_w, plot_h)
    for i, row in enumerate(rows):
        x = left + slot * i + (slot - bar_w) / 2
        h = plot_h * row.recall
        y = top + plot_h - h
        color = _SVG_PALETTE[i % len(_SVG_PALETTE)]
        parts.append(
            f'<rect x="{x:.1f}" y="{y:.1f}" width="{bar_w:.1f}" height="{h:.1f}" '
            f'fill="{color}"/>'
        )
        parts.append(
            f'<text x="{x + bar_w / 2:.1f}" y="{top + plot_h + 18}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12">{row.stratum}</text>'
        )
        parts.append(
            f'<text x="{x + bar_w / 2:.1f}" y="{y - 6:.1f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{row.recall:.2f}</text>'
        )
    parts.append(
        f'<text x="{left + plot_w / 2:.1f}" y="{height - 12}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">recall@{rows[0].recall_depth} '
        f"by {table.dimension}</text>"
    )
    parts.append("</svg>")
    return ("\n".join(parts) + "\n").encode("utf-8")


def emit_report(
    report: MetricsReport,
    out_dir: str | Path,
    formats: Sequence[str] = REPORT_FORMATS,
) -> list[Path]:
    """Write the report files and return their paths.

    All content is rendered before anything touches disk, so an unwritable
    location fails without leaving partial output.  Identical inputs produce
    byte-identical files.
    """
    for fmt in formats:
        if fmt not in REPORT_FORMATS:
            raise ValueError(f"unknown report format {fmt!r}")
    out_dir = Path(out_dir)

    tables = ([report.overall] if report.overall else []) + list(report.breakdowns)
    files: dict[str, bytes] = {}
    if "csv" in formats:
        files["detection.csv"] = _detection_csv(tables)
        files["recall.csv"] = _recall_csv(tables)
        for table in report.breakdowns:
            files[f"breakdown_{table.dimension}.csv"] = _detection_csv([table])
        if report.cross_language:
            files["cross_language.csv"] = _cross_language_csv(report.cross_language)
        if report.comparison is not None:
            files["comparison_detection.csv"] = _comparison_detection_csv(report.comparison)
            files["comparison_recall.csv"] = _comparison_recall_csv(report.comparison)
    if "table-text" in formats:
        text = _table_text(report)
        if report.comparison is not None:
            text += "\n" + _comparison_text(report.comparison)
        files["report.txt"] = text.encode("utf-8")
    if "svg-plot-data" in formats:
        for table in tables:
            files[f"detection_{table.dimension}.svg"] = _svg_line_chart(table)
            files[f"recall_{table.dimension}.svg"] = _svg_recall_bars(table)

    out_dir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    for name in sorted(files):
        path = out_dir / name
        path.write_bytes(files[name])
        written.append(path)
    return written
