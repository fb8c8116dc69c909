"""Seeded input generation for the benchmark workloads, with an on-disk cache.

Inputs are generated in a child process (``python3 perfbench/inputs.py``) so
that neither generation time nor generation memory shows in a measured
process.  Generation writes into a temporary directory and renames it into
place, so an interrupted generation never leaves a partial cache entry.

Every input set is identified by (workload, size, pool seed).  Its digest is
the sha256 over the names and bytes of the generated files; the benchmark
compares it with the value recorded in ``digests.json`` so that a change to
the generators, to ``patbench.synth`` or to the writers they call cannot
silently change what the benchmark measures.
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
import subprocess
import sys
from datetime import date, timedelta
from pathlib import Path

import bootstrap  # noqa: F401  (must precede the patbench imports)
from patbench import synth
from patbench.corpus import Corpus, PatentDocument, write_corpus
from patbench.dataset import EvaluationDataset, QueryCase, build_dataset, write_dataset

CORPUS_FILE = "corpus.jsonl"
DATASET_FILE = "dataset.jsonl"
RUN_A_FILE = "run_a.jsonl"
RUN_B_FILE = "run_b.jsonl"

# Sizes per workload.  "full" is what a benchmark run measures; "smoke" is
# the tiny mode the benchmark's own tests run in a few seconds.
SIZES: dict[str, dict[str, dict[str, int]]] = {
    "retrieve": {
        "full": {"n_docs": 3000, "n_queries": 200},
        "smoke": {"n_docs": 300, "n_queries": 60},
    },
    "remote-loopback": {
        "full": {"n_docs": 3000, "n_queries": 300},
        "smoke": {"n_docs": 300, "n_queries": 60},
    },
    "evaluate-compare": {
        "full": {"n_queries": 3000},
        "smoke": {"n_queries": 120},
    },
}

REFERENCE_DATE = synth.DEFAULT_REFERENCE_DATE
_JURISDICTION_OF = {"zh": ("CN",), "en": ("US", "EP", "WO")}
_SECTIONS = "GHABCF"
_SECTION_WEIGHTS = (30, 25, 10, 10, 10, 15)


def input_digest(directory: Path) -> str:
    """sha256 over the sorted file names and bytes of one input set."""
    digest = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        digest.update(path.name.encode("utf-8") + b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()


def _ipc(rng: random.Random) -> str:
    section = rng.choices(_SECTIONS, weights=_SECTION_WEIGHTS)[0]
    return f"{section}{rng.randint(1, 99):02d}{rng.choice('BFKLMN')} {rng.randint(1, 99)}/{rng.randint(0, 99):02d}"


def _filing(rng: random.Random) -> date:
    if rng.random() < 0.1:
        return REFERENCE_DATE - timedelta(days=rng.randint(4000, 5400))
    return REFERENCE_DATE - timedelta(days=rng.randint(30, 3600))


# ---------------------------------------------------------------------------
# retrieve, remote-loopback: the shipped generator plus a sampled dataset.
# ---------------------------------------------------------------------------


def _gen_shipped(out: Path, n_docs: int, n_queries: int, seed: int) -> None:
    corpus = synth.synthetic_corpus(n_docs=n_docs, seed=seed)
    dataset = build_dataset(corpus, sample_size=n_queries, seed=seed)
    write_corpus(corpus, out / CORPUS_FILE)
    write_dataset(dataset, out / DATASET_FILE)


# ---------------------------------------------------------------------------
# evaluate-compare: dataset, corpus and two run logs written directly.
# ---------------------------------------------------------------------------

_RUN_DEPTH = 100
_TIMEOUT_SHARE = 0.02


def _sentence(rng: random.Random, pool: list[str], language: str) -> str:
    if language == "zh":
        return "所述" + "".join(rng.choice(pool) for _ in range(rng.randint(4, 9))) + "。"
    words = [rng.choice(pool) for _ in range(3)]
    return (
        f"The {words[0]} {rng.choice(synth.EN_VERBS)} the {words[1]} "
        f"through the {words[2]} of the {rng.choice(synth.EN_VOCAB)}."
    )


def _short_doc(rng: random.Random, i: int, family_id: str) -> PatentDocument:
    language = "zh" if rng.random() < 0.45 else "en"
    jurisdiction = rng.choice(_JURISDICTION_OF[language])
    vocab = synth.ZH_VOCAB if language == "zh" else synth.EN_VOCAB
    return PatentDocument(
        doc_id=f"{jurisdiction}{300000 + i}A",
        jurisdiction=jurisdiction,
        language=language,
        ipc_codes=(_ipc(rng),),
        filing_date=_filing(rng),
        family_id=family_id,
        title=" ".join(rng.choice(vocab) for _ in range(3)),
        abstract=_sentence(rng, list(vocab), language),
        claims="1. " + _sentence(rng, list(vocab), language),
        description="DETAILED DESCRIPTION " + _sentence(rng, list(vocab), language),
    )


def _run_rows(
    rng: random.Random,
    cases: list[QueryCase],
    doc_ids: list[str],
    members_of: dict[str, list[str]],
    family_of: dict[str, str],
    hit_rate: float,
) -> list[dict]:
    """One system's ranked lists: distractors with relevant documents, or a
    family member of one, planted at seeded ranks."""
    rows = []
    for case in cases:
        qid = case.query_doc_id
        if rng.random() < _TIMEOUT_SHARE:
            rows.append({"kind": "ranked_list", "query_id": qid, "status": "TIMEOUT",
                         "latency_ms": 0, "hits": []})
            continue
        exclude = set(case.relevant_ids) | {qid}
        for rid in case.relevant_ids:
            exclude.update(members_of.get(family_of.get(rid, ""), ()))
        ranked: list[str | None] = [None] * _RUN_DEPTH
        for rid in sorted(case.relevant_ids):
            if rng.random() >= hit_rate:
                continue
            planted = rid
            siblings = [m for m in members_of.get(family_of.get(rid, ""), ()) if m != rid]
            if siblings and rng.random() < 0.3:
                planted = rng.choice(siblings)
            rank = min(_RUN_DEPTH, int(rng.expovariate(1 / 12.0)) + 1)
            while ranked[rank - 1] is not None:
                rank = rank % _RUN_DEPTH + 1
            ranked[rank - 1] = planted
        used = {d for d in ranked if d is not None}
        for i in range(_RUN_DEPTH):
            while ranked[i] is None:
                candidate = rng.choice(doc_ids)
                if candidate not in exclude and candidate not in used:
                    ranked[i] = candidate
                    used.add(candidate)
        score = 40.0 + rng.random()
        hits = []
        for i, doc_id in enumerate(ranked):
            hits.append([doc_id, score, i + 1])
            score -= rng.random() * 0.3
        rows.append({"kind": "ranked_list", "query_id": qid, "status": "OK",
                     "latency_ms": rng.randint(5, 60), "hits": hits})
    return rows


def _write_run(path: Path, adapter_id: str, manifest_hash: str, rows: list[dict]) -> None:
    header = {
        "kind": "run_header",
        "controls": {"seed": 0, "timeout_ms": 30000, "max_depth": _RUN_DEPTH,
                     "adapter_id": adapter_id, "parallelism": 1},
        "dataset_manifest_hash": manifest_hash,
        "started": "2020-06-15T00:00:00.000000Z",
        "finished": "2020-06-15T00:10:00.000000Z",
        "anomaly_count": 0,
    }
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        for rec in [header] + sorted(rows, key=lambda r: r["query_id"]):
            fh.write(json.dumps(rec, sort_keys=True, ensure_ascii=False) + "\n")


def _gen_evaluate(out: Path, n_queries: int, seed: int) -> None:
    rng = random.Random(seed)
    docs: list[PatentDocument] = []
    families = 0
    while len(docs) < int(n_queries * 2.5):
        size = rng.choices((1, 2, 3), weights=(6, 3, 1))[0]
        family_id = ""
        if size > 1:
            families += 1
            family_id = f"F{families:05d}"
        for _ in range(size):
            docs.append(_short_doc(rng, len(docs), family_id))
    doc_ids = [d.doc_id for d in docs]
    family_of = {d.doc_id: d.family_id for d in docs if d.family_id}
    members_of: dict[str, list[str]] = {}
    for doc_id, family_id in family_of.items():
        members_of.setdefault(family_id, []).append(doc_id)

    cases: list[QueryCase] = []
    strata: dict[str, dict[str, str]] = {}
    for doc in sorted(rng.sample(docs, n_queries), key=lambda d: d.doc_id):
        qid = doc.doc_id
        relevant: set[str] = set()
        while len(relevant) < rng.randint(1, 4):
            candidate = rng.choice(doc_ids)
            if candidate != qid and (not doc.family_id or family_of.get(candidate) != doc.family_id):
                relevant.add(candidate)
        provenance = {
            rid: "FAMILY_DERIVED" if rng.random() < 0.15 else "EXAMINER"
            for rid in sorted(relevant)
        }
        cases.append(QueryCase(qid, frozenset(relevant), provenance))
        strata[qid] = {
            "language": doc.language,
            "ipc_section": doc.ipc_codes[0][0],
            "jurisdiction": doc.jurisdiction,
        }
    dataset = EvaluationDataset(
        queries=tuple(cases),
        strata=strata,
        build_manifest={
            "schema_version": 1,
            "seed": seed,
            "sample_size": n_queries,
            "n_queries": n_queries,
            "generator": "perfbench evaluate-compare",
        },
    )
    write_corpus(
        Corpus(
            documents={d.doc_id: d for d in docs}, citations=(), reference_date=REFERENCE_DATE
        ),
        out / CORPUS_FILE,
    )
    write_dataset(dataset, out / DATASET_FILE)
    for name, adapter_id, rate in ((RUN_A_FILE, "system-a", 0.45), (RUN_B_FILE, "system-b", 0.5)):
        rows = _run_rows(rng, cases, doc_ids, members_of, family_of, rate)
        _write_run(out / name, adapter_id, dataset.manifest_hash, rows)


def generate(workload: str, size: str, seed: int, out: Path) -> None:
    params = SIZES[workload][size]
    out.mkdir(parents=True)
    if workload == "evaluate-compare":
        _gen_evaluate(out, params["n_queries"], seed)
    else:
        _gen_shipped(out, params["n_docs"], params["n_queries"], seed)


def ensure_inputs(cache: Path, workload: str, size: str, seed: int) -> Path:
    """Directory of the cached input set, generating it in a child process
    when absent.  The child's exit status is checked; its output is passed
    through to stderr."""
    final = cache / workload / f"{size}-seed{seed}"
    if final.is_dir():
        return final
    tmp = final.with_name(final.name + ".tmp")
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.parent.mkdir(parents=True, exist_ok=True)
    subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), workload, size, str(seed), str(tmp)],
        check=True,
        stdout=sys.stderr,
    )
    tmp.rename(final)
    return final


def main(argv: list[str]) -> None:
    workload, size, seed, out = argv
    generate(workload, size, int(seed), Path(out))


if __name__ == "__main__":
    main(sys.argv[1:])
