from __future__ import annotations

import json
import pathlib
import socket

import pytest
from click.testing import CliRunner

from patbench.cli import main
from patbench.execution import RankedList, sanitize_run_log

BUNDLED = "data/synthetic_corpus.jsonl"
GOLDEN_DIR = pathlib.Path(__file__).resolve().parent / "golden"


@pytest.fixture(scope="module")
def runner():
    return CliRunner()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory, bundled_corpus_path):
    return tmp_path_factory.mktemp("cli")


@pytest.fixture(scope="module")
def dataset_path(runner, workdir, bundled_corpus_path):
    out = workdir / "dataset.jsonl"
    result = runner.invoke(
        main,
        [
            "build-dataset",
            "--corpus", str(bundled_corpus_path),
            "--out", str(out),
            "--sample-size", "25",
            "--seed", "7",
        ],
    )
    assert result.exit_code == 0, result.output
    return out


@pytest.fixture(scope="module")
def run_paths(runner, workdir, dataset_path, bundled_corpus_path):
    paths = {}
    for name, extra in (
        ("a", ["--exclude-family"]),
        ("b", ["--include-family"]),
    ):
        out = workdir / f"run_{name}.jsonl"
        result = runner.invoke(
            main,
            [
                "run",
                "--dataset", str(dataset_path),
                "--corpus", str(bundled_corpus_path),
                "--adapter", "reference",
                "--out", str(out),
                "--seed", "7",
                "--max-depth", "50",
            ]
            + extra,
        )
        assert result.exit_code == 0, result.output
        paths[name] = out
    return paths


def _hits_forbidden(ranked):
    raise AssertionError(f"RankedList.hits read for {ranked.query_id!r}")


@pytest.fixture(scope="module")
def quickstart(runner, workdir, bundled_corpus_path):
    """The README quick start: dataset and run logs with and without family
    exclusion, plus a run on a 120-character query budget whose ranking
    differs enough to give the bootstrap something to resample."""
    dataset = workdir / "quickstart_dataset.jsonl"
    result = runner.invoke(
        main,
        [
            "build-dataset",
            "--corpus", str(bundled_corpus_path),
            "--out", str(dataset),
            "--seed", "7",
            "--sample-size", "40",
        ],
    )
    assert result.exit_code == 0, result.output
    paths = {"dataset": dataset, "corpus": bundled_corpus_path}
    # `run` reads a ranked list's doc id and score columns and never builds
    # its Hit records.
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(RankedList, "hits", property(_hits_forbidden))
        for name, extra in (
            ("exclude", ["--exclude-family"]),
            ("include", ["--include-family"]),
            ("short", ["--max-chars", "120"]),
        ):
            out = workdir / f"quickstart_run_{name}.jsonl"
            result = runner.invoke(
                main,
                [
                    "run",
                    "--dataset", str(dataset),
                    "--corpus", str(bundled_corpus_path),
                    "--adapter", "reference",
                    "--out", str(out),
                    "--seed", "7",
                ]
                + extra,
            )
            assert result.exit_code == 0, result.output
            paths[name] = out
    return paths


class TestBuildDataset:
    def test_build_succeeds_and_reports(self, runner, workdir, bundled_corpus_path):
        out = workdir / "build_smoke.jsonl"
        result = runner.invoke(
            main,
            ["build-dataset", "--corpus", str(bundled_corpus_path), "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        assert "query cases" in result.output
        assert "manifest hash:" in result.output
        assert out.exists()

    def test_build_is_deterministic(self, runner, workdir, bundled_corpus_path):
        outs = []
        for name in ("det1.jsonl", "det2.jsonl"):
            out = workdir / name
            result = runner.invoke(
                main,
                [
                    "build-dataset",
                    "--corpus", str(bundled_corpus_path),
                    "--out", str(out),
                    "--seed", "3",
                    "--sample-size", "30",
                ],
            )
            assert result.exit_code == 0, result.output
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_quick_start_dataset_matches_golden(self, quickstart):
        golden = GOLDEN_DIR / "quickstart_dataset.jsonl"
        assert quickstart["dataset"].read_bytes() == golden.read_bytes()

    def test_full_build_matches_golden(self, runner, workdir, bundled_corpus_path):
        out = workdir / "full_dataset.jsonl"
        result = runner.invoke(
            main, ["build-dataset", "--corpus", str(bundled_corpus_path), "--out", str(out)]
        )
        assert result.exit_code == 0, result.output
        assert out.read_bytes() == (GOLDEN_DIR / "full_dataset.jsonl").read_bytes()

    def test_threshold_out_of_range_is_usage_error(self, runner, workdir, bundled_corpus_path):
        result = runner.invoke(
            main,
            [
                "build-dataset",
                "--corpus", str(bundled_corpus_path),
                "--out", str(workdir / "x.jsonl"),
                "--threshold", "1.01",
            ],
        )
        assert result.exit_code == 2

    def test_infeasible_targets_exit_2(self, runner, workdir, bundled_corpus_path, tmp_path):
        targets = tmp_path / "targets.json"
        targets.write_text(json.dumps({"language": {"fr": 1.0}}))
        result = runner.invoke(
            main,
            [
                "build-dataset",
                "--corpus", str(bundled_corpus_path),
                "--out", str(workdir / "y.jsonl"),
                "--targets", str(targets),
            ],
        )
        assert result.exit_code == 2
        assert "fr" in result.output

    def test_missing_corpus_exit_2(self, runner, workdir):
        result = runner.invoke(
            main,
            ["build-dataset", "--corpus", "no/such/file.jsonl", "--out", str(workdir / "z.jsonl")],
        )
        assert result.exit_code == 2

    def test_lenient_skips_bad_lines(self, runner, tmp_path):
        corpus = tmp_path / "dirty.jsonl"
        doc = {
            "kind": "patent",
            "jurisdiction": "US",
            "language": "en",
            "ipc_codes": ["G06F 1/00"],
            "filing_date": "2018-01-01",
            "claims": "1. A thing.",
            "description": "A thing, described. More of the thing described here.",
        }
        lines = [
            json.dumps({**doc, "doc_id": "US1A"}),
            json.dumps({**doc, "doc_id": "US2A"}),
            "{broken json",
            json.dumps({"kind": "citation", "citing_id": "US1A", "cited_id": "US2A", "category": "X"}),
        ]
        corpus.write_text("".join(line + "\n" for line in lines))
        out = tmp_path / "ds.jsonl"
        strict = runner.invoke(
            main, ["build-dataset", "--corpus", str(corpus), "--out", str(out)]
        )
        assert strict.exit_code == 2
        lenient = runner.invoke(
            main, ["build-dataset", "--corpus", str(corpus), "--out", str(out), "--lenient"]
        )
        assert lenient.exit_code == 0, lenient.output
        assert "skipped 1 malformed lines" in lenient.output
        assert "wrote 1 query cases" in lenient.output


class TestRun:
    def test_reference_run_statuses(self, runner, run_paths):
        log = run_paths["a"].read_text()
        assert '"kind": "run_header"' in log

    def test_runs_are_deterministic_after_sanitizing(
        self, runner, workdir, dataset_path, bundled_corpus_path
    ):
        logs = []
        for name in ("rep1.jsonl", "rep2.jsonl"):
            out = workdir / name
            result = runner.invoke(
                main,
                [
                    "run",
                    "--dataset", str(dataset_path),
                    "--corpus", str(bundled_corpus_path),
                    "--out", str(out),
                    "--seed", "7",
                    "--parallelism", str(1 if name == "rep1.jsonl" else 4),
                ],
            )
            assert result.exit_code == 0, result.output
            logs.append(sanitize_run_log(out))
        assert logs[0] == logs[1]

    @pytest.mark.parametrize("family", ["exclude", "include"])
    def test_quick_start_run_matches_golden_log(self, quickstart, family):
        # The README quick start; the fixtures pin the reference retriever's
        # exact hits and score bytes.
        golden = GOLDEN_DIR / f"quickstart_run_{family}_family.jsonl"
        assert sanitize_run_log(quickstart[family]) == golden.read_bytes()

    def test_unknown_adapter_exit_2(self, runner, workdir, dataset_path, bundled_corpus_path):
        result = runner.invoke(
            main,
            [
                "run",
                "--dataset", str(dataset_path),
                "--corpus", str(bundled_corpus_path),
                "--adapter", "quantum",
                "--out", str(workdir / "q.jsonl"),
            ],
        )
        assert result.exit_code == 2

    def test_remote_without_config_exit_2(self, runner, workdir, dataset_path, bundled_corpus_path):
        result = runner.invoke(
            main,
            [
                "run",
                "--dataset", str(dataset_path),
                "--corpus", str(bundled_corpus_path),
                "--adapter", "remote",
                "--out", str(workdir / "r.jsonl"),
            ],
        )
        assert result.exit_code == 2

    # A bad field escaped as a TypeError (exit 1) or failed every query
    # against the adapter (exit 3); the config is at fault, so exit 2.
    @pytest.mark.parametrize(
        "key, value",
        [("hits_path", 5), ("max_retries", "two"), ("headers", "abc")],
        ids=["hits_path", "max_retries", "headers"],
    )
    def test_bad_remote_config_field_exit_2(
        self, runner, workdir, dataset_path, bundled_corpus_path, tmp_path, key, value
    ):
        config = tmp_path / "cfg.json"
        config.write_text(
            json.dumps({"adapter_id": "a", "url": "http://127.0.0.1:9/search", key: value})
        )
        result = runner.invoke(
            main,
            [
                "run",
                "--dataset", str(dataset_path),
                "--corpus", str(bundled_corpus_path),
                "--adapter", f"remote:{config}",
                "--out", str(workdir / "bad_config_run.jsonl"),
            ],
        )
        _assert_input_error(result, "bad adapter config", repr(key))

    def test_majority_failures_exit_3(
        self, runner, workdir, bundled_corpus_path, tmp_path
    ):
        small = workdir / "small_dataset.jsonl"
        result = runner.invoke(
            main,
            [
                "build-dataset",
                "--corpus", str(bundled_corpus_path),
                "--out", str(small),
                "--sample-size", "4",
            ],
        )
        assert result.exit_code == 0, result.output
        # a loopback port with no listener: connections are refused instantly
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        dead_port = probe.getsockname()[1]
        probe.close()
        config = tmp_path / "dead.json"
        config.write_text(
            json.dumps(
                {
                    "adapter_id": "dead",
                    "url": f"http://127.0.0.1:{dead_port}/search",
                    "max_retries": 0,
                    "backoff_s": 0.0,
                }
            )
        )
        result = runner.invoke(
            main,
            [
                "run",
                "--dataset", str(small),
                "--corpus", str(bundled_corpus_path),
                "--adapter", f"remote:{config}",
                "--out", str(workdir / "dead_run.jsonl"),
            ],
        )
        assert result.exit_code == 3
        assert "aborting" in result.output


class TestEvaluate:
    def test_evaluate_emits_reports(self, runner, workdir, dataset_path, run_paths, bundled_corpus_path):
        out_dir = workdir / "eval_a"
        result = runner.invoke(
            main,
            [
                "evaluate",
                "--run", str(run_paths["a"]),
                "--dataset", str(dataset_path),
                "--corpus", str(bundled_corpus_path),
                "--out", str(out_dir),
                "--k-grid", "1,5,10,50",
            ],
        )
        assert result.exit_code == 0, result.output
        assert "top-10 detection:" in result.output
        assert "recall@50:" in result.output
        for name in ("detection.csv", "recall.csv", "report.txt", "cross_language.csv"):
            assert (out_dir / name).exists()
        for dim in ("language", "ipc_section", "jurisdiction"):
            assert (out_dir / f"breakdown_{dim}.csv").exists()
        text = (out_dir / "report.txt").read_text()
        assert "family-level matching" in text

    def test_k_grid_beyond_run_depth_exit_2(self, runner, workdir, dataset_path, run_paths):
        result = runner.invoke(
            main,
            [
                "evaluate",
                "--run", str(run_paths["a"]),
                "--dataset", str(dataset_path),
                "--out", str(workdir / "eval_deep"),
                "--k-grid", "1,10,200",
            ],
        )
        assert result.exit_code == 2
        assert "200" in result.output

    @pytest.mark.parametrize(
        "command, k_grid, named",
        [
            ("evaluate", "10,1", "(10, 1)"),
            ("evaluate", "0,10", "(0, 10)"),
            ("evaluate", "10,10", "(10, 10)"),
            ("compare", "10,1", "(10, 1)"),
            ("compare", "0,10", "(0, 10)"),
            ("compare", "10,10", "(10, 10)"),
            ("compare", "1,10,200", "200"),
        ],
    )
    def test_bad_k_grid_exit_2(
        self, runner, tmp_path, dataset_path, run_paths, command, k_grid, named
    ):
        """Every report takes only a strictly increasing grid of cutoffs from
        1 to the depth of the runs (50 here)."""
        runs = {
            "evaluate": ["--run", str(run_paths["a"])],
            "compare": [
                "--run-a", str(run_paths["a"]), "--run-b", str(run_paths["b"]),
                "--n-resamples", "1000",
            ],
        }[command]
        result = runner.invoke(
            main,
            [command, *runs, "--dataset", str(dataset_path), "--out", str(tmp_path / "out"),
             "--k-grid", k_grid],
        )
        assert result.exit_code == 2, result.output
        assert named in result.output
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("match_rule, tables", [("exact", 2), ("family", 1)])
    def test_one_outcome_table_per_match_rule(
        self, runner, tmp_path, quickstart, monkeypatch, match_rule, tables
    ):
        """Overall, breakdowns and cross-language recall share one outcome
        table; the exact rule adds the family-rule overall table."""
        import patbench.report

        calls = []
        real = patbench.report.query_outcomes

        def counting(*args, **kwargs):
            calls.append(args[2])  # the match rule
            return real(*args, **kwargs)

        monkeypatch.setattr(patbench.report, "query_outcomes", counting)
        result = runner.invoke(
            main,
            [
                "evaluate",
                "--run", str(quickstart["exclude"]),
                "--dataset", str(quickstart["dataset"]),
                "--corpus", str(quickstart["corpus"]),
                "--out", str(tmp_path / "out"),
                "--match-rule", match_rule,
            ],
        )
        assert result.exit_code == 0, result.output
        assert len(calls) == tables
        assert sorted(set(calls)) == sorted({match_rule, "family"})

    def test_family_rule_requires_corpus(self, runner, workdir, dataset_path, run_paths):
        result = runner.invoke(
            main,
            [
                "evaluate",
                "--run", str(run_paths["a"]),
                "--dataset", str(dataset_path),
                "--out", str(workdir / "eval_fam"),
                "--match-rule", "family",
                "--k-grid", "1,10",
            ],
        )
        assert result.exit_code == 2
        assert "corpus" in result.output

    def test_hash_mismatch_exit_4(self, runner, workdir, run_paths, bundled_corpus_path):
        other = workdir / "other_dataset.jsonl"
        result = runner.invoke(
            main,
            [
                "build-dataset",
                "--corpus", str(bundled_corpus_path),
                "--out", str(other),
                "--sample-size", "25",
                "--seed", "99",
            ],
        )
        assert result.exit_code == 0
        result = runner.invoke(
            main,
            [
                "evaluate",
                "--run", str(run_paths["a"]),
                "--dataset", str(other),
                "--out", str(workdir / "eval_bad"),
                "--k-grid", "1,10",
            ],
        )
        assert result.exit_code == 4
        assert "manifest" in result.output

    def test_dimension_alias(self, runner, workdir, dataset_path, run_paths):
        out_dir = workdir / "eval_alias"
        result = runner.invoke(
            main,
            [
                "evaluate",
                "--run", str(run_paths["a"]),
                "--dataset", str(dataset_path),
                "--out", str(out_dir),
                "--k-grid", "1,10",
                "--dimensions", "ipc,country",
                "--formats", "csv",
            ],
        )
        assert result.exit_code == 0, result.output
        assert (out_dir / "breakdown_ipc_section.csv").exists()
        assert (out_dir / "breakdown_jurisdiction.csv").exists()


class TestCompare:
    def test_compare_reports_deltas(
        self, runner, workdir, dataset_path, run_paths, bundled_corpus_path
    ):
        out_dir = workdir / "cmp"
        result = runner.invoke(
            main,
            [
                "compare",
                "--run-a", str(run_paths["a"]),
                "--run-b", str(run_paths["b"]),
                "--dataset", str(dataset_path),
                "--out", str(out_dir),
                "--k-grid", "1,10",
                "--n-resamples", "1000",
                "--seed", "3",
            ],
        )
        assert result.exit_code == 0, result.output
        assert "top-10 detection delta:" in result.output
        assert "recall@50 delta:" in result.output
        assert "top10_detection: p=" in result.output
        assert (out_dir / "comparison_detection.csv").exists()
        assert (out_dir / "comparison_recall.csv").exists()

    def test_compare_is_deterministic(
        self, runner, workdir, dataset_path, run_paths
    ):
        outputs = []
        for name in ("cmp1", "cmp2"):
            out_dir = workdir / name
            result = runner.invoke(
                main,
                [
                    "compare",
                    "--run-a", str(run_paths["a"]),
                    "--run-b", str(run_paths["b"]),
                    "--dataset", str(dataset_path),
                    "--out", str(out_dir),
                    "--k-grid", "1,10",
                    "--n-resamples", "1000",
                    "--seed", "3",
                    "--formats", "csv",
                ],
            )
            assert result.exit_code == 0, result.output
            outputs.append((out_dir / "comparison_detection.csv").read_bytes())
        assert outputs[0] == outputs[1]

    def test_low_resample_count_rejected(self, runner, workdir, dataset_path, run_paths):
        result = runner.invoke(
            main,
            [
                "compare",
                "--run-a", str(run_paths["a"]),
                "--run-b", str(run_paths["b"]),
                "--dataset", str(dataset_path),
                "--out", str(workdir / "cmp_low"),
                "--n-resamples", "500",
            ],
        )
        assert result.exit_code == 2

    def test_mismatched_run_exit_4(self, runner, workdir, run_paths, bundled_corpus_path):
        other = workdir / "cmp_other_dataset.jsonl"
        build = runner.invoke(
            main,
            [
                "build-dataset",
                "--corpus", str(bundled_corpus_path),
                "--out", str(other),
                "--sample-size", "10",
                "--seed", "123",
            ],
        )
        assert build.exit_code == 0
        result = runner.invoke(
            main,
            [
                "compare",
                "--run-a", str(run_paths["a"]),
                "--run-b", str(run_paths["b"]),
                "--dataset", str(other),
                "--out", str(workdir / "cmp_bad"),
                "--k-grid", "1,10",
                "--n-resamples", "1000",
            ],
        )
        assert result.exit_code == 4


class TestGoldenReports:
    """Every report file of the quick start, pinned byte for byte."""

    @pytest.fixture(autouse=True)
    def _columns_only(self, monkeypatch):
        # `evaluate` and `compare` read the columns too, under both rules.
        monkeypatch.setattr(RankedList, "hits", property(_hits_forbidden))

    @pytest.mark.parametrize(
        "name, args",
        [
            ("evaluate_exact", ["evaluate", "--run", "{exclude}", "--corpus", "{corpus}"]),
            (
                "evaluate_family",
                ["evaluate", "--run", "{exclude}", "--corpus", "{corpus}",
                 "--match-rule", "family"],
            ),
            (
                "compare",
                ["compare", "--run-a", "{exclude}", "--run-b", "{include}",
                 "--seed", "7", "--n-resamples", "2000"],
            ),
            (
                "compare_short_family",
                ["compare", "--run-a", "{exclude}", "--run-b", "{short}",
                 "--corpus", "{corpus}", "--match-rule", "family",
                 "--seed", "7", "--n-resamples", "2000"],
            ),
        ],
    )
    def test_reports_match_golden(self, runner, workdir, quickstart, name, args):
        out_dir = workdir / f"golden_{name}"
        argv = [arg.format(**quickstart) for arg in args] + [
            "--dataset", str(quickstart["dataset"]), "--out", str(out_dir),
        ]
        result = runner.invoke(main, argv)
        assert result.exit_code == 0, result.output
        golden = GOLDEN_DIR / f"quickstart_{name}"
        expected = sorted(p.name for p in golden.iterdir())
        assert sorted(p.name for p in out_dir.iterdir()) == expected
        for file_name in expected:
            assert (out_dir / file_name).read_bytes() == (golden / file_name).read_bytes(), (
                file_name
            )


class TestRunCoverage:
    """A run log must cover exactly the dataset's queries (exit 2 otherwise)."""

    @pytest.fixture
    def uncovered_log(self, tmp_path, run_paths, request):
        lines = run_paths["a"].read_text().splitlines(keepends=True)
        if request.param == "truncated":
            dropped = json.loads(lines.pop())
            named = dropped["query_id"]
        else:
            named = "ZZ999999A"
            lines.append(
                json.dumps(
                    {"kind": "ranked_list", "query_id": named, "status": "OK",
                     "latency_ms": 0, "hits": []}
                )
                + "\n"
            )
        path = tmp_path / f"run_{request.param}.jsonl"
        path.write_text("".join(lines))
        return path, named

    @pytest.mark.parametrize("uncovered_log", ["truncated", "extended"], indirect=True)
    def test_evaluate_exit_2(self, runner, tmp_path, dataset_path, uncovered_log):
        path, named = uncovered_log
        result = runner.invoke(
            main,
            [
                "evaluate",
                "--run", str(path),
                "--dataset", str(dataset_path),
                "--out", str(tmp_path / "eval"),
                "--k-grid", "1,10",
            ],
        )
        assert result.exit_code == 2, result.output
        assert "does not cover the dataset" in result.output
        assert named in result.output
        assert not (tmp_path / "eval").exists()

    @pytest.mark.parametrize("uncovered_log", ["truncated", "extended"], indirect=True)
    def test_compare_exit_2(self, runner, tmp_path, dataset_path, run_paths, uncovered_log):
        path, named = uncovered_log
        result = runner.invoke(
            main,
            [
                "compare",
                "--run-a", str(run_paths["b"]),
                "--run-b", str(path),
                "--dataset", str(dataset_path),
                "--out", str(tmp_path / "cmp"),
                "--k-grid", "1,10",
                "--n-resamples", "1000",
            ],
        )
        assert result.exit_code == 2, result.output
        assert "does not cover the dataset" in result.output
        assert named in result.output
        assert not (tmp_path / "cmp").exists()


def _first_ranked_list_with_bad_ranks(lines):
    """The first ranked list holds one doc id at ranks 0 and -3."""
    rec = json.loads(lines[1])
    doc_id, score, _ = rec["hits"][0]
    rec["hits"] = [[doc_id, score, 0], [doc_id, score, -3]]
    return lines[:1] + [json.dumps(rec) + "\n"] + lines[2:]


def _first_hit_with(field, value):
    """An edit that sets one field (0 doc_id, 1 score, 2 rank) of the first
    ranked list's first hit."""

    def edit(lines):
        rec = json.loads(lines[1])
        rec["hits"][0][field] = value
        return lines[:1] + [json.dumps(rec) + "\n"] + lines[2:]

    return edit


def _second_line_repeated(lines):
    """The first record after the header appears again on line 3."""
    return lines[:2] + lines[1:]


def _query_case_without_relevant(lines):
    rec = json.loads(lines[1])
    del rec["relevant"]
    return lines[:1] + [json.dumps(rec) + "\n"] + lines[2:]


class TestMalformedInputs:
    """A malformed run log or dataset is a data-format error: exit 2 with the
    file named, not a traceback."""

    @pytest.mark.parametrize(
        "command, broken, edit, line",
        [
            ("evaluate", "exclude", lambda lines: lines[:1] + ["{not json\n"] + lines[1:], 2),
            ("compare", "exclude", lambda lines: lines[1:], None),
            ("evaluate", "exclude", _first_ranked_list_with_bad_ranks, 2),
            ("compare", "exclude", _first_ranked_list_with_bad_ranks, 2),
            ("evaluate", "dataset", _query_case_without_relevant, 2),
            ("run", "dataset", _query_case_without_relevant, 2),
            ("compare", "dataset", lambda lines: ["garbage\n"], 1),
            ("evaluate", "exclude", _first_hit_with(2, 1.5), 2),
            ("evaluate", "exclude", _first_hit_with(2, True), 2),
            ("compare", "exclude", _first_hit_with(2, "1"), 2),
            ("evaluate", "exclude", _first_hit_with(0, 123), 2),
            ("compare", "exclude", _first_hit_with(1, "nan"), 2),
            ("evaluate", "exclude", _first_hit_with(1, 10**400), 2),
            ("compare", "exclude", _first_hit_with(1, -(10**400)), 2),
            ("evaluate", "exclude", _second_line_repeated, 3),
            ("compare", "exclude", _second_line_repeated, 3),
            ("run", "dataset", _second_line_repeated, 3),
            ("evaluate", "dataset", _second_line_repeated, 3),
            ("compare", "dataset", _second_line_repeated, 3),
        ],
        ids=[
            "evaluate-run-log-bad-json",
            "compare-run-log-no-header",
            "evaluate-run-log-bad-ranks",
            "compare-run-log-bad-ranks",
            "evaluate-dataset-no-relevant",
            "run-dataset-no-relevant",
            "compare-dataset-garbage",
            "evaluate-run-log-fractional-rank",
            "evaluate-run-log-bool-rank",
            "compare-run-log-string-rank",
            "evaluate-run-log-int-doc-id",
            "compare-run-log-string-score",
            "evaluate-run-log-int-score-beyond-float-range",
            "compare-run-log-negative-int-score-beyond-float-range",
            "evaluate-run-log-repeated-ranked-list",
            "compare-run-log-repeated-ranked-list",
            "run-dataset-repeated-query-case",
            "evaluate-dataset-repeated-query-case",
            "compare-dataset-repeated-query-case",
        ],
    )
    def test_exit_2(self, runner, tmp_path, quickstart, command, broken, edit, line):
        source = quickstart[broken].read_text(encoding="utf-8").splitlines(keepends=True)
        bad = tmp_path / f"bad_{broken}.jsonl"
        bad.write_text("".join(edit(source)), encoding="utf-8")
        paths = {name: str(quickstart[name]) for name in ("dataset", "exclude", "corpus")}
        paths[broken] = str(bad)
        argv = {
            "run": ["run", "--corpus", paths["corpus"], "--out", str(tmp_path / "run.jsonl")],
            "evaluate": ["evaluate", "--run", paths["exclude"], "--out", str(tmp_path / "out")],
            "compare": [
                "compare", "--run-a", paths["exclude"], "--run-b", paths["exclude"],
                "--out", str(tmp_path / "out"), "--n-resamples", "1000",
            ],
        }[command] + ["--dataset", paths["dataset"]]
        result = runner.invoke(main, argv)
        assert result.exit_code == 2, result.output
        where = str(bad) if line is None else f"{bad}:{line}:"
        assert where in result.output
        assert not (tmp_path / "out").exists()


def _assert_input_error(result, *named):
    """Exit 2 through the group's error map: an ``error:`` line naming each
    of ``named``, and no escaped exception."""
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit), result.exception
    assert "error:" in result.output
    for text in named:
        assert text in result.output


def _with_bad_byte(source, dest, line):
    """Copy ``source`` to ``dest`` with a 0xFF byte, never valid UTF-8, in
    the given 1-based line."""
    lines = source.read_bytes().splitlines(keepends=True)
    lines[line - 1] = lines[line - 1][:5] + b"\xff" + lines[line - 1][5:]
    dest.write_bytes(b"".join(lines))
    return dest


class TestInputErrors:
    """Input faults that escaped as tracebacks (exit 1) or passed silently
    (exit 0) now exit 2 with an ``error:`` line."""

    @pytest.mark.parametrize("broken", ["exclude", "dataset"])
    def test_non_utf8_run_log_or_dataset(self, runner, tmp_path, quickstart, broken):
        bad = _with_bad_byte(quickstart[broken], tmp_path / "bad.jsonl", 2)
        paths = {name: str(quickstart[name]) for name in ("dataset", "exclude")}
        paths[broken] = str(bad)
        result = runner.invoke(
            main,
            ["evaluate", "--run", paths["exclude"], "--dataset", paths["dataset"],
             "--out", str(tmp_path / "out")],
        )
        _assert_input_error(result, f"{bad}:2:", "0xff")
        assert not (tmp_path / "out").exists()

    def test_non_utf8_corpus_line(self, runner, tmp_path, bundled_corpus_path):
        bad = _with_bad_byte(bundled_corpus_path, tmp_path / "corpus.jsonl", 3)
        argv = ["build-dataset", "--corpus", str(bad), "--out", str(tmp_path / "ds.jsonl")]
        _assert_input_error(runner.invoke(main, argv), f"{bad}:3:", "0xff")
        lenient = runner.invoke(main, argv + ["--lenient"])
        assert lenient.exit_code == 0, lenient.output
        assert "skipped" in lenient.output

    @pytest.mark.parametrize(
        "targets, named",
        [
            ([1, 2], "targets must map"),
            ({"language": [0.5]}, "'language' must map"),
            ({"language": {"en": "x"}}, "'language' must be finite numbers"),
        ],
        ids=["list", "dimension-list", "string-proportion"],
    )
    def test_malformed_targets_file(
        self, runner, tmp_path, bundled_corpus_path, targets, named
    ):
        path = tmp_path / "targets.json"
        path.write_text(json.dumps(targets))
        result = runner.invoke(
            main,
            ["build-dataset", "--corpus", str(bundled_corpus_path),
             "--out", str(tmp_path / "ds.jsonl"), "--targets", str(path)],
        )
        _assert_input_error(result, named)
        assert not (tmp_path / "ds.jsonl").exists()

    @pytest.mark.parametrize("command", ["build-dataset", "run", "evaluate", "compare"])
    def test_out_under_a_regular_file(
        self, runner, tmp_path, dataset_path, run_paths, bundled_corpus_path, command, monkeypatch
    ):
        import patbench.cli

        def no_queries(*args, **kwargs):
            pytest.fail("queries were searched before --out was checked")

        monkeypatch.setattr(patbench.cli, "run_evaluation", no_queries)
        blocker = tmp_path / "file"
        blocker.write_text("")
        argv = {
            "build-dataset": ["build-dataset", "--sample-size", "5"],
            "run": ["run", "--dataset", str(dataset_path)],
            "evaluate": ["evaluate", "--dataset", str(dataset_path),
                         "--run", str(run_paths["a"]), "--k-grid", "1,10"],
            "compare": ["compare", "--dataset", str(dataset_path),
                        "--run-a", str(run_paths["a"]), "--run-b", str(run_paths["b"]),
                        "--k-grid", "1,10", "--n-resamples", "1000"],
        }[command]
        result = runner.invoke(
            main, argv + ["--corpus", str(bundled_corpus_path), "--out", str(blocker / "x.jsonl")]
        )
        _assert_input_error(result, str(blocker))

    def test_compare_runs_of_different_depth(self, runner, tmp_path, quickstart):
        shallow = tmp_path / "run_depth10.jsonl"
        result = runner.invoke(
            main,
            ["run", "--dataset", str(quickstart["dataset"]), "--corpus", str(quickstart["corpus"]),
             "--out", str(shallow), "--seed", "7", "--max-depth", "10"],
        )
        assert result.exit_code == 0, result.output
        result = runner.invoke(
            main,
            ["compare", "--run-a", str(shallow), "--run-b", str(quickstart["exclude"]),
             "--dataset", str(quickstart["dataset"]), "--out", str(tmp_path / "cmp"),
             "--k-grid", "1,10", "--n-resamples", "1000"],
        )
        _assert_input_error(result, "--max-depth", "run A retrieved 10", "run B retrieved 100")
        assert not (tmp_path / "cmp").exists()

    def test_lower_case_corpus_id(self, runner, tmp_path, bundled_corpus_path):
        lines = bundled_corpus_path.read_text(encoding="utf-8").splitlines(keepends=True)
        rec = json.loads(lines[0])
        rec["doc_id"] = rec["doc_id"].lower()
        lowered = tmp_path / "corpus.jsonl"
        lowered.write_text(json.dumps(rec) + "\n" + "".join(lines[1:]), encoding="utf-8")
        argv = ["build-dataset", "--corpus", str(lowered), "--out", str(tmp_path / "ds.jsonl")]
        _assert_input_error(runner.invoke(main, argv), f"{lowered}:1:", repr(rec["doc_id"]))
        lenient = runner.invoke(main, argv + ["--lenient"])
        assert lenient.exit_code == 0, lenient.output
        assert "skipped" in lenient.output

    def test_lower_case_cited_ids(self, runner, tmp_path, bundled_corpus_path):
        lines = bundled_corpus_path.read_text(encoding="utf-8").splitlines(keepends=True)
        first_citation = None
        for number, line in enumerate(lines, start=1):
            rec = json.loads(line)
            if rec["kind"] == "citation":
                rec["cited_id"] = rec["cited_id"].lower()
                lines[number - 1] = json.dumps(rec) + "\n"
                first_citation = first_citation or (number, rec["cited_id"])
        lowered = tmp_path / "corpus.jsonl"
        lowered.write_text("".join(lines), encoding="utf-8")
        argv = ["build-dataset", "--corpus", str(lowered), "--out", str(tmp_path / "ds.jsonl")]
        number, cited_id = first_citation
        _assert_input_error(runner.invoke(main, argv), f"{lowered}:{number}:", repr(cited_id))
        assert not (tmp_path / "ds.jsonl").exists()

    def test_closed_stdout_keeps_clicks_exit_1(
        self, runner, tmp_path, bundled_corpus_path, monkeypatch
    ):
        """A closed stdout is an OSError, but not an input error."""
        import errno

        import patbench.cli

        def closed_pipe(*args, **kwargs):
            raise BrokenPipeError(errno.EPIPE, "Broken pipe")

        monkeypatch.setattr(patbench.cli, "write_dataset", closed_pipe)
        result = runner.invoke(
            main,
            ["build-dataset", "--corpus", str(bundled_corpus_path), "--sample-size", "5",
             "--out", str(tmp_path / "ds.jsonl")],
        )
        assert result.exit_code == 1
        assert "error:" not in result.output
