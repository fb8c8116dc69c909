"""Command-line interface: build datasets, run systems, evaluate, compare.

Exit codes: 0 success, 2 argument, feasibility, input-format or file errors,
3 run aborted on the failure threshold, 4 dataset integrity mismatch.
"""

from __future__ import annotations

import json
import logging
import sys
from pathlib import Path
from typing import Mapping, Sequence

import click

from .corpus import Corpus, CorpusError, load_corpus
from .dataset import (
    DEFAULT_ALIGNMENT_THRESHOLD,
    DEFAULT_RECENCY_YEARS,
    EvaluationDataset,
    build_dataset,
    load_dataset,
    validate_targets,
    write_dataset,
)
from .execution import (
    DEFAULT_MAX_DEPTH,
    DEFAULT_TIMEOUT_MS,
    ReferenceAdapter,
    RemoteAdapter,
    RemoteEndpointConfig,
    RunControls,
    RunFailureError,
    RunRecord,
    load_run_log,
    run_evaluation,
    tally_statuses,
    write_run_log,
)
from .metrics import (
    DEFAULT_BOOTSTRAP_STRATA,
    DEFAULT_K_GRID,
    DEFAULT_N_RESAMPLES,
    MATCH_FAMILY,
    MATCH_RULES,
)
from .query import DEFAULT_MAX_QUERY_CHARS, build_queries
from .report import (
    IntegrityMismatchError,
    MetricsReport,
    REPORT_DIMENSIONS,
    REPORT_FORMATS,
    compare_systems,
    emit_report,
    evaluate_run,
)

EXIT_USAGE = 2
EXIT_RUN_FAILURES = 3
EXIT_INTEGRITY = 4

_DIMENSION_ALIASES = {"ipc": "ipc_section", "country": "jurisdiction"}


class _ExitCodeGroup(click.Group):
    """The one map from errors to exit codes: commands raise, and this group
    prints ``error: <message>`` and exits with the error's code."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except BrokenPipeError:
            raise  # left to click's own handling of a closed stdout
        except IntegrityMismatchError as exc:  # a ValueError, so it comes first
            code, error = EXIT_INTEGRITY, exc
        except RunFailureError as exc:
            code, error = EXIT_RUN_FAILURES, exc
        except (ValueError, CorpusError, OSError) as exc:
            code, error = EXIT_USAGE, exc
        click.echo(f"error: {error}", err=True)
        sys.exit(code)


def _parse_int_list(raw: str, name: str) -> tuple[int, ...]:
    try:
        values = tuple(int(part) for part in raw.split(",") if part.strip())
    except ValueError:
        raise ValueError(f"{name} must be a comma-separated list of integers: {raw!r}") from None
    if not values:
        raise ValueError(f"{name} must not be empty")
    return values


def _parse_choices(
    raw: str, what: str, allowed: Sequence[str], aliases: Mapping[str, str]
) -> tuple[str, ...]:
    """The distinct comma-separated values of ``raw`` in first-seen order,
    aliases resolved; raises ``ValueError`` on a value outside ``allowed``."""
    values: dict[str, None] = {}
    for part in raw.split(","):
        part = part.strip()
        if not part:
            continue
        value = aliases.get(part, part)
        if value not in allowed:
            raise ValueError(f"unknown {what} {part!r} (use {', '.join(allowed)})")
        values[value] = None
    return tuple(values)


def _load_corpus(path: str, lenient: bool) -> Corpus:
    corpus = load_corpus(path, lenient=lenient)
    if corpus.load_skips:
        click.echo(f"skipped {len(corpus.load_skips)} malformed lines", err=True)
    return corpus


def _load_report_inputs(
    ks: tuple[int, ...],
    dataset_path: str,
    run_paths: Mapping[str, str],
    corpus_path: str | None,
    match_rule: str,
) -> tuple[EvaluationDataset, list[RunRecord], Corpus | None]:
    """The dataset, the named run logs and the optional corpus of ``evaluate``
    and ``compare``, checked against the k grid and the match rule.  The
    match rule is checked first, before any file is read."""
    if match_rule == MATCH_FAMILY and corpus_path is None:
        raise ValueError("family match rule requires --corpus")
    dataset = load_dataset(dataset_path)
    runs = [load_run_log(path) for path in run_paths.values()]
    depths = [run.controls.max_depth for run in runs]
    for name, depth in zip(run_paths, depths):
        if max(ks) > depth:
            raise ValueError(
                f"k grid reaches {max(ks)} but {name} retrieved only {depth} results per query"
            )
    if len(set(depths)) > 1:
        raise ValueError(
            "runs of different --max-depth: "
            + " but ".join(f"{name} retrieved {depth}" for name, depth in zip(run_paths, depths))
            + " results per query"
        )
    corpus = load_corpus(corpus_path) if corpus_path else None
    return dataset, runs, corpus


@click.group(cls=_ExitCodeGroup)
def main() -> None:
    """Evaluation harness for patent novelty search systems."""
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")


@main.command("build-dataset")
@click.option("--corpus", "corpus_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--out", required=True, type=click.Path(dir_okay=False))
@click.option("--targets", "targets_path", type=click.Path(exists=True, dir_okay=False),
              help="JSON file mapping dimension to stratum proportions.")
@click.option("--seed", default=0, show_default=True, type=int)
@click.option("--threshold", default=DEFAULT_ALIGNMENT_THRESHOLD, show_default=True,
              type=click.FloatRange(0.0, 1.0),
              help="Family alignment score needed to adopt a member's citations.")
@click.option("--recency-years", default=DEFAULT_RECENCY_YEARS, show_default=True,
              type=click.IntRange(min=0))
@click.option("--sample-size", default=0, show_default="all cases", type=click.IntRange(min=0))
@click.option("--lenient", is_flag=True, help="Skip malformed corpus lines instead of failing.")
def cmd_build_dataset(
    corpus_path: str,
    out: str,
    targets_path: str | None,
    seed: int,
    threshold: float,
    recency_years: int,
    sample_size: int,
    lenient: bool,
) -> None:
    """Construct an evaluation dataset from a corpus."""
    targets = None
    if targets_path:
        try:
            targets = json.loads(Path(targets_path).read_text(encoding="utf-8"))
        except ValueError as exc:
            raise ValueError(f"bad targets file: {exc}") from exc
        validate_targets(targets)  # before the corpus loads: a bad file fails at once
    corpus = _load_corpus(corpus_path, lenient)
    dataset = build_dataset(
        corpus,
        threshold=threshold,
        recency_years=recency_years,
        targets=targets,
        sample_size=sample_size or None,
        seed=seed,
    )
    write_dataset(dataset, out)
    manifest = dataset.build_manifest
    click.echo(f"wrote {len(dataset.queries)} query cases to {out}")
    click.echo(f"manifest hash: {dataset.manifest_hash}")
    counts = manifest.get("stratum_counts", {})
    if counts:
        click.echo("stratum counts: " + ", ".join(f"{k}={v}" for k, v in sorted(counts.items())))


def _make_adapter(adapter: str, corpus: Corpus, exclude_family: bool):
    if adapter == "reference":
        return ReferenceAdapter(corpus, exclude_family=exclude_family)
    kind, _, config_path = adapter.partition(":")
    if kind == "remote":
        if not config_path:
            raise ValueError("remote adapter needs remote:<config.json>")
        try:
            return RemoteAdapter(RemoteEndpointConfig.from_file(config_path))
        except (OSError, ValueError) as exc:
            raise ValueError(f"bad adapter config {config_path}: {exc}") from exc
    raise ValueError(f"unknown adapter {adapter!r} (use reference or remote:<config.json>)")


@main.command("run")
@click.option("--dataset", "dataset_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--corpus", "corpus_path", required=True, type=click.Path(exists=True, dir_okay=False),
              help="Corpus used to build query text (and to serve the reference adapter).")
@click.option("--adapter", default="reference", show_default=True,
              help="reference, or remote:<config.json>.")
@click.option("--out", required=True, type=click.Path(dir_okay=False))
@click.option("--seed", default=0, show_default=True, type=int)
@click.option("--timeout-ms", default=DEFAULT_TIMEOUT_MS, show_default=True, type=click.IntRange(min=1))
@click.option("--max-depth", default=DEFAULT_MAX_DEPTH, show_default=True, type=click.IntRange(min=1))
@click.option("--parallelism", default=1, show_default=True, type=click.IntRange(min=1))
@click.option("--max-chars", default=DEFAULT_MAX_QUERY_CHARS, show_default=True,
              type=click.IntRange(min=1), help="Query text budget in characters.")
@click.option("--exclude-family/--include-family", default=True, show_default=True,
              help="Drop the query patent's own family from reference results.")
@click.option("--lenient", is_flag=True)
def cmd_run(
    dataset_path: str,
    corpus_path: str,
    adapter: str,
    out: str,
    seed: int,
    timeout_ms: int,
    max_depth: int,
    parallelism: int,
    max_chars: int,
    exclude_family: bool,
    lenient: bool,
) -> None:
    """Run a retrieval system over every dataset query."""
    dataset = load_dataset(dataset_path)  # before the corpus loads: a bad file fails at once
    if not dataset.queries:
        raise ValueError(f"dataset {dataset_path} holds no query cases")
    corpus = _load_corpus(corpus_path, lenient)
    system = _make_adapter(adapter, corpus, exclude_family)
    controls = RunControls(
        seed=seed,
        timeout_ms=timeout_ms,
        max_depth=max_depth,
        adapter_id=system.adapter_id,
        parallelism=parallelism,
    )
    queries = build_queries(corpus, dataset.query_ids(), max_chars=max_chars)
    # An unwritable --out fails here, before any query is searched.
    Path(out).parent.mkdir(parents=True, exist_ok=True)
    click.echo(f"running {len(dataset.queries)} queries against {system.adapter_id}")
    record = run_evaluation(dataset, system, controls, queries=queries)
    write_run_log(record, out)
    tally = tally_statuses(record)
    click.echo(
        "statuses: " + ", ".join(f"{k}={v}" for k, v in tally.items())
        + f"; anomalies: {record.anomaly_count}"
    )
    click.echo(f"wrote run log to {out}")


@main.command("evaluate")
@click.option("--run", "run_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--dataset", "dataset_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--corpus", "corpus_path", type=click.Path(exists=True, dir_okay=False),
              help="Needed for family matching and the cross-language matrix.")
@click.option("--out", "out_dir", required=True, type=click.Path(file_okay=False))
@click.option("--k-grid", default=",".join(str(k) for k in DEFAULT_K_GRID), show_default=True)
@click.option("--match-rule", default="exact", show_default=True,
              type=click.Choice(list(MATCH_RULES)))
@click.option("--dimensions", default=",".join(REPORT_DIMENSIONS), show_default=True)
@click.option("--formats", default=",".join(REPORT_FORMATS), show_default=True)
def cmd_evaluate(
    run_path: str,
    dataset_path: str,
    corpus_path: str | None,
    out_dir: str,
    k_grid: str,
    match_rule: str,
    dimensions: str,
    formats: str,
) -> None:
    """Score one run log against its dataset and emit reports."""
    ks = _parse_int_list(k_grid, "--k-grid")
    dims = _parse_choices(dimensions, "dimension", REPORT_DIMENSIONS, _DIMENSION_ALIASES)
    fmts = _parse_choices(formats, "format", REPORT_FORMATS, {})
    dataset, (run,), corpus = _load_report_inputs(
        ks, dataset_path, {"the run": run_path}, corpus_path, match_rule
    )
    report = evaluate_run(run, dataset, corpus, ks=ks, match_rule=match_rule, dimensions=dims)
    written = emit_report(report, out_dir, fmts)
    overall = report.overall
    for k, rate in zip(overall.ks, overall.totals.rates):
        click.echo(f"top-{k} detection: {rate * 100:.1f}%")
    click.echo(
        f"recall@{overall.totals.recall_depth}: {overall.totals.recall:.4f} "
        f"(match rule: {match_rule})"
    )
    click.echo(f"wrote {len(written)} report files to {out_dir}")


@main.command("compare")
@click.option("--run-a", "run_a_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--run-b", "run_b_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--dataset", "dataset_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--corpus", "corpus_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--out", "out_dir", required=True, type=click.Path(file_okay=False))
@click.option("--k-grid", default=",".join(str(k) for k in DEFAULT_K_GRID), show_default=True)
@click.option("--match-rule", default="exact", show_default=True,
              type=click.Choice(list(MATCH_RULES)))
@click.option("--formats", default=",".join(REPORT_FORMATS), show_default=True)
@click.option("--n-resamples", default=DEFAULT_N_RESAMPLES, show_default=True,
              type=click.IntRange(min=1000))
@click.option("--seed", default=0, show_default=True, type=int)
@click.option("--strata", default=",".join(DEFAULT_BOOTSTRAP_STRATA), show_default=True,
              help="Stratification dimensions for the paired bootstrap.")
def cmd_compare(
    run_a_path: str,
    run_b_path: str,
    dataset_path: str,
    corpus_path: str | None,
    out_dir: str,
    k_grid: str,
    match_rule: str,
    formats: str,
    n_resamples: int,
    seed: int,
    strata: str,
) -> None:
    """Compare two run logs over the same dataset, with significance."""
    ks = _parse_int_list(k_grid, "--k-grid")
    fmts = _parse_choices(formats, "format", REPORT_FORMATS, {})
    strata_dims = _parse_choices(strata, "dimension", REPORT_DIMENSIONS, _DIMENSION_ALIASES)
    dataset, (run_a, run_b), corpus = _load_report_inputs(
        ks, dataset_path, {"run A": run_a_path, "run B": run_b_path}, corpus_path, match_rule
    )
    comparison = compare_systems(
        run_a,
        run_b,
        dataset,
        ks=ks,
        match_rule=match_rule,
        family_of=corpus.family_of if corpus is not None else None,
        n_resamples=n_resamples,
        seed=seed,
        strata_dims=strata_dims or DEFAULT_BOOTSTRAP_STRATA,
    )
    report = MetricsReport(
        match_rule=match_rule,
        overall=None,
        breakdowns=(),
        comparison=comparison,
    )
    written = emit_report(report, out_dir, fmts)
    for k, delta in zip(comparison.ks, comparison.deltas):
        click.echo(f"top-{k} detection delta: {delta * 100:+.1f} pp")
    click.echo(f"recall@{comparison.recall_depth} delta: {comparison.recall_delta:+.3f}")
    for sig in comparison.significance:
        click.echo(
            f"{sig.metric_name}: p={sig.p_value:.4g} "
            f"[{sig.ci_low:+.4f}, {sig.ci_high:+.4f}]"
        )
    click.echo(f"wrote {len(written)} report files to {out_dir}")


if __name__ == "__main__":
    main()
