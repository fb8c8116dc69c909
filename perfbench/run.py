"""patbench benchmark: one workload per invocation.

    python3 perfbench/run.py --workload retrieve --seed 3 --seconds 45 --trace 0

Inputs are generated from the seed (cached under ``.bench_cache/``), the
workload's set-up runs several times, then passes of the timed phase run
until ``--seconds`` have elapsed.  Every pass's output digest, and the input
digest, must equal the values recorded in ``perfbench/digests.json``.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  A result file with
the machine description goes to ``.bench_out/results/``, and the spans of a
traced run to ``.bench_out/spans/``.  The exit status is 0 only when every
output was correct.  See ``perfbench/README.md`` for the workloads.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

try:
    import bootstrap
except ImportError as exc:
    sys.exit(f"perfbench: {exc}; run from a patbench checkout")

import numpy

import inputs
from tracer import Tracer, layer_metrics
from workloads import WORKLOADS, PassResult

# Set-up runs at least MIN_SETUPS times and often enough to fill about
# SETUP_BUDGET_S seconds, at most MAX_SETUPS times; setup_s is the median.
MIN_SETUPS, MAX_SETUPS, SETUP_BUDGET_S = 3, 15, 2.0
# The seed selects one of POOL_SEEDS recorded input sets, so that every seed
# has a recorded digest to check against.
POOL_SEEDS = 10
BENCH_DIR = Path(__file__).resolve().parent
DIGESTS = BENCH_DIR / "digests.json"
# The last output line carries exactly the metrics this file lists.
SPEC = bootstrap.ROOT / "BENCHMARK.json"
OUT = bootstrap.ROOT / ".bench_out"
CACHE = bootstrap.ROOT / ".bench_cache"

def unit_of(name: str) -> str:
    for suffix, unit in (
        ("_ms", "ms"), ("_mb", "MB"), ("_per_query", "1/query"), ("queries_per_s", "1/s"),
        ("docs_per_s", "1/s"), ("mb_per_s", "MB/s"), ("chars_per_s", "chars/s"),
        ("hits_per_s", "hits/s"), ("_per_request", "s/request"), ("kept_per_scored", "ratio"),
        ("_fraction", "ratio"), (".bytes", "bytes"), ("_s", "s"), (".s", "s"),
    ):
        if name.endswith(suffix):
            return unit
    return "count"


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


def git_sha() -> str | None:
    git = bootstrap.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine() -> dict:
    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "git_sha": git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def checked_inputs(workload: str, size: str, pool: int, expected: str | None) -> tuple[Path, str]:
    """Input directory and its digest; a cached set whose digest differs from
    the recorded one is regenerated once before the mismatch is reported."""
    directory = inputs.ensure_inputs(CACHE, workload, size, pool)
    digest = inputs.input_digest(directory)
    if expected is not None and digest != expected:
        shutil.rmtree(directory)
        directory = inputs.ensure_inputs(CACHE, workload, size, pool)
        digest = inputs.input_digest(directory)
    return directory, digest


@dataclass
class Measurement:
    setup_s: list[float] = field(default_factory=list)
    passes: list[PassResult] = field(default_factory=list)
    traced_passes: list[PassResult] = field(default_factory=list)


def measure(workload, seconds: float, tracer: Tracer | None) -> Measurement:
    """Set-ups and passes of one workload.

    With a tracer, every set-up is traced and each untraced pass is followed
    by a traced one; the untraced passes are the baseline for the tracing
    overhead.
    """
    m = Measurement()
    state = None

    def setup() -> None:
        nonlocal state
        state = None
        gc.collect()
        if tracer:
            tracer.segment = f"setup{len(m.setup_s)}"
            tracer.install()
        try:
            t0 = time.perf_counter()
            state = workload.setup()
            m.setup_s.append(time.perf_counter() - t0)
        finally:
            if tracer:
                tracer.uninstall()

    def setups_wanted() -> int:
        enough = math.ceil(SETUP_BUDGET_S / statistics.fmean(m.setup_s))
        return min(MAX_SETUPS, max(MIN_SETUPS, enough))

    setup()
    measured = 0.0
    # Passes continue while the next one would end within half a pass of
    # the limit, so a run measures about `seconds` whatever the pass length.
    while not m.passes or measured * (1 + 0.5 / len(m.passes)) < seconds:
        if m.passes:
            # The machine's speed drifts over seconds, so set-ups are spread
            # over the run instead of being taken back to back.
            expected = max(1, round(seconds * len(m.passes) / measured))
            due = math.ceil(setups_wanted() * (len(m.passes) + 1) / expected)
            while len(m.setup_s) < min(due, setups_wanted()):
                setup()
        gc.collect()
        t0 = time.perf_counter()
        m.passes.append(workload.run_pass(state))
        if tracer:
            gc.collect()
            tracer.segment = f"pass{len(m.traced_passes)}"
            tracer.install()
            workload.tracer = tracer
            try:
                m.traced_passes.append(workload.run_pass(state))
            finally:
                workload.tracer = None
                tracer.uninstall()
        measured += time.perf_counter() - t0
    while len(m.setup_s) < setups_wanted():
        setup()
    return m


def workload_metrics(m: Measurement, peak_rss_mb: float) -> tuple[dict, dict, dict]:
    """End-to-end metrics, the workload's own further metrics, and the
    sample count behind each median or percentile."""
    walls = [p.wall_s for p in m.passes]
    e2e = {
        "setup_s": statistics.median(m.setup_s),
        "wall_s": statistics.median(walls),
        "peak_rss_mb": peak_rss_mb,
    }
    samples = {"setup_s": len(m.setup_s), "wall_s": len(walls)}
    extra: dict[str, float] = {}
    for name in m.passes[0].per_s:
        extra[name] = statistics.median(p.per_s[name] / p.wall_s for p in m.passes)
        samples[name] = len(walls)
    for stage in m.passes[0].stages:
        extra[stage] = statistics.median(p.stages[stage] for p in m.passes)
        samples[stage] = len(walls)
    latencies = sorted(ns / 1e6 for p in m.passes for ns in p.latencies_ns)
    for q in (50, 99) if latencies else ():
        extra[f"query_latency_p{q}_ms"] = percentile(latencies, q)
        samples[f"query_latency_p{q}_ms"] = len(latencies)
    if "connections" in m.passes[0].counters:
        extra["remote.connections_per_query"] = statistics.median(
            p.counters["connections"] / p.counters["queries"] for p in m.passes)
        extra["remote.server_s_per_request"] = statistics.median(
            p.counters["handle_s"] / p.counters["requests"] for p in m.passes)
    return e2e, extra, samples


def run(args: argparse.Namespace) -> int:
    # The remote workload talks to 127.0.0.1 only: no proxy, and no netrc
    # lookup outside the checkout.
    os.environ["NO_PROXY"] = os.environ["no_proxy"] = "127.0.0.1,localhost"
    os.environ["NETRC"] = str(OUT / "no-netrc")
    pool = args.seed % POOL_SEEDS
    spec = json.loads(SPEC.read_text())
    reported = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    digests = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    recorded = digests.get(args.workload, {}).get(args.size, {}).get(str(pool), {})
    input_dir, input_digest = checked_inputs(
        args.workload, args.size, pool, recorded.get("input")
    )
    tag = f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}"
    out_dir = OUT / "work" / tag
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)

    tracer = Tracer() if args.trace else None
    workload = WORKLOADS[args.workload](input_dir, out_dir)
    workload.start()
    try:
        m = measure(workload, args.seconds, tracer)
    finally:
        workload.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    if args.record and not recorded:
        recorded = {"input": input_digest, "output": m.passes[0].digest}
        record = True
    else:
        record = False
    all_passes = m.passes + m.traced_passes
    problems = []
    if input_digest != recorded.get("input"):
        problems.append(f"input digest {input_digest[:16]} != recorded {recorded.get('input')}")
    mismatched = sum(1 for p in all_passes if p.digest != recorded.get("output"))
    if mismatched:
        problems.append(
            f"{mismatched} of {len(all_passes)} passes: output digest "
            f"{all_passes[0].digest[:16]} != recorded {recorded.get('output')}"
        )
    for p in all_passes:
        problems.extend(p.problems[:5])
    attempted = sum(p.attempted for p in all_passes)
    failed = sum(p.failed for p in all_passes) + mismatched
    correct = not problems

    e2e, extra, samples = workload_metrics(m, peak_rss_mb)
    extra["failed_fraction"] = failed / attempted
    if tracer:
        shown = layer_metrics(tracer, [p.counters for p in m.traced_passes])
        shown["trace.overhead_s"] = (
            statistics.median(p.wall_s for p in m.traced_passes) - e2e["wall_s"]
        )
        tracer.write(OUT / "spans" / f"{tag}.jsonl")
    else:
        shown = {**e2e, **extra}
    units = {n: unit_of(n) for n in shown}

    print(f"{args.workload} (seed {args.seed}, input set {pool}, {len(m.passes)} passes)")
    for name, value in shown.items():
        count = f"  [n={samples[name]}]" if name in samples else ""
        print(f"  {name:48s} {value:14.6g} {units[name]}{count}")
    for problem in problems:
        print(f"  PROBLEM: {problem}")

    result_file = OUT / "results" / f"{tag}.json"
    result_file.parent.mkdir(parents=True, exist_ok=True)
    result_file.write_text(json.dumps({
        "workload": args.workload, "size": args.size, "seed": args.seed, "input_set": pool,
        "trace": args.trace, "seconds": args.seconds, "machine": machine(),
        "correct": correct, "attempted": attempted, "failed": failed, "problems": problems,
        "input_digest": input_digest, "output_digest": m.passes[0].digest,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in shown.items()},
        "samples": samples, "setup_s_runs": m.setup_s,
        "wall_s_runs": [p.wall_s for p in m.passes],
        "traced_wall_s_runs": [p.wall_s for p in m.traced_passes],
    }, indent=1, sort_keys=True) + "\n")

    if record and correct:
        digests.setdefault(args.workload, {}).setdefault(args.size, {})[str(pool)] = recorded
        DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")

    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": shown[n], "unit": units[n]} for n in reported},
    }))
    return 0 if correct else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="input size; smoke is the tiny mode of the benchmark's tests")
    parser.add_argument("--record", action="store_true",
                        help="store the digests of an input set that has none recorded yet")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
