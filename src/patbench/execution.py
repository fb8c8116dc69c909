"""Running retrieval systems over a dataset: adapter contract, run controls,
result standardization, run logging, and a deterministic tf-idf reference
retriever for harness validation."""

from __future__ import annotations

import json
import logging
import math
import os
import re
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor, as_completed
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Iterator, Mapping, NamedTuple, Protocol, Sequence, runtime_checkable

import numpy as np
import requests

from .corpus import Corpus, normalize_doc_id, read_jsonl
from .dataset import EvaluationDataset
from .query import EmptyInputError, Query

logger = logging.getLogger(__name__)

STATUS_OK = "OK"
STATUS_TIMEOUT = "TIMEOUT"
STATUS_ERROR = "ERROR"
STATUSES = frozenset({STATUS_OK, STATUS_TIMEOUT, STATUS_ERROR})

DEFAULT_TIMEOUT_MS = 30_000
DEFAULT_MAX_DEPTH = 100

# Latin alnum runs, or single CJK ideographs: Chinese text has no spaces, so
# each ideograph indexes as its own token.
_TOKEN_RE = re.compile(r"[a-z0-9]+|[㐀-䶿一-鿿]")


class AdapterError(Exception):
    """The system under test failed to produce a usable response."""


class AdapterTimeout(AdapterError):
    """The system under test did not answer within the per-query budget."""


class RunFailureError(RuntimeError):
    """More than half of the queries hard-failed; the run is not usable."""


class RunLogFormatError(ValueError):
    """A run log file violates the run-log layout or the RankedList contract."""


@dataclass(frozen=True)
class RunControls:
    """Execution knobs for one run.  ``seed`` is forwarded to adapters that
    accept one; the harness itself draws no randomness during a run."""

    seed: int
    timeout_ms: int = DEFAULT_TIMEOUT_MS
    max_depth: int = DEFAULT_MAX_DEPTH
    adapter_id: str = ""
    parallelism: int = 1

    def __post_init__(self) -> None:
        if self.timeout_ms <= 0:
            raise ValueError("timeout_ms must be positive")
        if self.max_depth < 1:
            raise ValueError("max_depth must be at least 1")
        if self.parallelism < 1:
            raise ValueError("parallelism must be at least 1")


class Hit(NamedTuple):
    """One retrieved document, as :attr:`RankedList.hits` hands it out.

    No library path builds hits: a :class:`RankedList` stores its doc ids
    and scores as two columns, and :func:`load_run_log` fills those columns
    directly."""

    doc_id: str
    score: float
    rank: int


@dataclass(frozen=True)
class RankedList:
    """Standardized result for one query, stored as two columns.

    The hit at position i is ``(doc_ids[i], scores[i])`` and has rank i + 1.
    Doc ids are unique and scores non-increasing; non-OK statuses carry no
    hits.  Both columns are tuples, so the record stays immutable and
    hashable; a tuple of floats keeps the float objects a loader or
    retriever already made.
    """

    query_id: str
    doc_ids: tuple[str, ...] = ()
    scores: tuple[float, ...] = ()
    status: str = STATUS_OK
    latency_ms: int = 0

    def __post_init__(self) -> None:
        if self.status not in STATUSES:
            raise ValueError(f"unknown status {self.status!r}")
        if len(self.doc_ids) != len(self.scores):
            raise ValueError(
                f"{len(self.doc_ids)} doc ids but {len(self.scores)} scores"
            )
        if self.status != STATUS_OK and self.doc_ids:
            raise ValueError("non-OK results must carry no hits")

    @property
    def hits(self) -> tuple[Hit, ...]:
        """The hits as records, built afresh on every access (O(n)); code
        that reads many lists should read the columns instead."""
        return tuple(map(Hit, self.doc_ids, self.scores, range(1, len(self.doc_ids) + 1)))


@dataclass(frozen=True)
class RunRecord:
    controls: RunControls
    dataset_manifest_hash: str
    results: Mapping[str, RankedList]
    started: str
    finished: str
    anomaly_count: int = 0


def _finite_score(score: object) -> float | None:
    """``score`` as a finite float, or ``None`` when it is not a number or
    has no finite float value (NaN, an infinity, an int beyond float range)."""
    if not isinstance(score, (int, float)):
        return None
    try:
        value = float(score)
    except OverflowError:
        return None
    return value if math.isfinite(value) else None


def _coerce_hit(item: object) -> tuple[object, float | None]:
    # Pairs first: most adapters return them, and the Mapping test is an ABC
    # check that costs more than the tuple/list one.
    if isinstance(item, (tuple, list)) and len(item) == 2:
        return item[0], item[1]
    if isinstance(item, Mapping):
        return item.get("doc_id"), item.get("score")
    if isinstance(item, str):
        return item, None
    return None, None


def standardize_results(
    raw: Sequence[object],
    *,
    query_id: str,
    max_depth: int,
    latency_ms: int = 0,
) -> tuple[RankedList, int]:
    """Convert raw adapter output into a RankedList.

    Accepts (doc_id, score) pairs, mappings with doc_id/score keys, or bare
    id strings.  Ids are normalized; unmappable entries are dropped.
    Duplicates keep their best rank.  A missing or non-finite score inherits
    the previous one; scores are clamped to be non-increasing so the ranking
    order stays authoritative.  The list is truncated to ``max_depth``.
    Returns the list and the anomaly tally: one per unmappable entry, dropped
    duplicate, inherited score and clamped score.
    """
    repairs = 0
    # Normalized id -> its raw score, in the order the ids were first seen.
    kept: dict[str, object] = {}
    for item in raw:
        raw_id, score = _coerce_hit(item)
        norm = normalize_doc_id(raw_id)
        if norm is None or norm in kept:
            repairs += 1
            continue
        kept[norm] = score
        if len(kept) == max_depth:
            break

    scores: list[float] = []
    prev = math.inf
    for score in kept.values():
        score = _finite_score(score)
        if score is None:
            repairs += 1
            score = 1.0 if prev is math.inf else prev
        elif score > prev:
            repairs += 1
            score = prev
        prev = score
        scores.append(score)
    ranked = RankedList(
        query_id=query_id, doc_ids=tuple(kept), scores=tuple(scores), latency_ms=latency_ms
    )
    return ranked, repairs


@runtime_checkable
class SystemAdapter(Protocol):
    """Contract a retrieval system must satisfy to be evaluated.

    ``search`` returns raw hits (best first); the harness standardizes them.
    Raise :class:`AdapterTimeout` for budget overruns and any other exception
    for hard failures.
    """

    adapter_id: str

    def search(self, query: Query, controls: RunControls) -> Sequence[object]: ...


def _utc_now() -> str:
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%S.%fZ")


def run_evaluation(
    dataset: EvaluationDataset,
    adapter: SystemAdapter,
    controls: RunControls,
    *,
    queries: Mapping[str, Query],
) -> RunRecord:
    """Execute the adapter over every dataset query.

    ``queries`` maps query ids to built Query objects (see
    :func:`patbench.query.build_queries`); a missing or unbuildable query is
    recorded as an ERROR result so coverage stays complete.  Timeouts are
    recorded as TIMEOUT with no hits.  When more than half of the queries end
    in ERROR the run aborts with :class:`RunFailureError`.
    """
    started = _utc_now()
    query_ids = dataset.query_ids()
    total = len(query_ids)
    results: dict[str, RankedList] = {}
    anomalies = 0
    errors = 0

    def one(query_id: str) -> tuple[RankedList, int]:
        query = queries.get(query_id)
        if query is None:
            raise AdapterError(f"no query built for {query_id!r}")
        t0 = time.perf_counter()
        raw = adapter.search(query, controls)
        elapsed_ms = int((time.perf_counter() - t0) * 1000)
        if elapsed_ms > controls.timeout_ms:
            raise AdapterTimeout(f"query {query_id!r} took {elapsed_ms} ms")
        return standardize_results(
            raw, query_id=query_id, max_depth=controls.max_depth, latency_ms=elapsed_ms
        )

    with ThreadPoolExecutor(max_workers=controls.parallelism) as pool:
        pending = {pool.submit(one, qid): qid for qid in query_ids}
        for fut in as_completed(pending):
            qid = pending[fut]
            try:
                ranked, repairs = fut.result()
                anomalies += repairs
                results[qid] = ranked
            except AdapterTimeout:
                results[qid] = RankedList(query_id=qid, status=STATUS_TIMEOUT)
            except Exception as exc:
                logger.debug("query %s failed: %s", qid, exc)
                errors += 1
                results[qid] = RankedList(query_id=qid, status=STATUS_ERROR)
            if errors * 2 > total:
                for other in pending:
                    other.cancel()
                break

    if errors * 2 > total:
        raise RunFailureError(
            f"{errors} of {total} queries failed against adapter "
            f"{adapter.adapter_id!r}; aborting run"
        )
    return RunRecord(
        controls=controls,
        dataset_manifest_hash=dataset.manifest_hash,
        results=results,
        started=started,
        finished=_utc_now(),
        anomaly_count=anomalies,
    )


def tally_statuses(record: RunRecord) -> dict[str, int]:
    counts = Counter(r.status for r in record.results.values())
    return {status: counts.get(status, 0) for status in sorted(STATUSES)}


# ---------------------------------------------------------------------------
# Reference retriever: deterministic tf-idf with length normalization.
# score(q, d) = sum over shared terms of
#     qtf(t) * (1 + ln tf_d(t)) * ln(1 + N / df(t)) / sqrt(len_d)
# Ties break lexicographically by doc_id.
#
# A query is scored over numpy arrays.  Rows are documents in doc_id order,
# so the row index is the tie-break key.  Each term keeps an int32 row array,
# a float64 weight array holding 1 + ln tf, and its idf; each row keeps
# sqrt(len or 1) and an integer family code (-1 for none).  Scores must keep
# the exact bytes of the term-at-a-time definition above, which the tests
# hold as their oracle, so:
#   - weights come from math.log through a table over tf, never np.log,
#     which may differ in the last bit;
#   - each posting contributes (qtf * w) * idf, and one np.bincount adds a
#     row's contributions in input order, which is the query's Counter order;
#   - the sum is divided by sqrt(len), not multiplied by its reciprocal;
#   - only documents sharing a term with the query are ranked.  Every
#     contribution is positive (w >= 1, idf = ln(1 + N/df) > 0), so those
#     are exactly the rows whose sum is above zero.
# ---------------------------------------------------------------------------


def tokenize(text: str) -> list[str]:
    return _TOKEN_RE.findall(text.lower())


@dataclass
class ReferenceIndex:
    postings: dict[str, dict[str, int]]
    n_docs: int
    # Scoring arrays derived from the fields above; see the comment block.
    doc_ids: list[str]
    row_of: dict[str, int]
    terms: dict[str, tuple[np.ndarray, np.ndarray, float]]
    sqrt_len: np.ndarray
    family_code: np.ndarray


def build_reference_index(corpus: Corpus) -> ReferenceIndex:
    """Inverted index over title, abstract, claims, and description."""
    doc_ids = sorted(corpus.documents)
    postings: dict[str, dict[str, int]] = {}
    doc_lengths: dict[str, int] = {}
    for doc_id in doc_ids:
        doc = corpus.documents[doc_id]
        tokens = tokenize(
            " ".join((doc.title, doc.abstract, doc.claims, doc.description))
        )
        doc_lengths[doc_id] = len(tokens)
        for term, tf in Counter(tokens).items():
            postings.setdefault(term, {})[doc_id] = tf

    n_docs = len(doc_ids)
    row_of = {doc_id: row for row, doc_id in enumerate(doc_ids)}
    max_tf = max((max(plist.values()) for plist in postings.values()), default=0)
    weight_of_tf = np.array([0.0] + [1.0 + math.log(tf) for tf in range(1, max_tf + 1)])
    terms = {
        term: (
            np.fromiter(map(row_of.__getitem__, plist), dtype=np.int32, count=len(plist)),
            weight_of_tf[np.fromiter(plist.values(), dtype=np.intp, count=len(plist))],
            math.log(1.0 + n_docs / len(plist)),
        )
        for term, plist in postings.items()
    }
    code_of = {family: code for code, family in enumerate(sorted(corpus.families))}
    return ReferenceIndex(
        postings=postings,
        n_docs=n_docs,
        doc_ids=doc_ids,
        row_of=row_of,
        terms=terms,
        sqrt_len=np.array([math.sqrt(doc_lengths[doc_id] or 1) for doc_id in doc_ids]),
        family_code=np.array(
            [code_of.get(corpus.family_of.get(doc_id), -1) for doc_id in doc_ids], dtype=np.int32
        ),
    )


def reference_retrieve(
    query: Query,
    index: ReferenceIndex,
    max_depth: int = DEFAULT_MAX_DEPTH,
    *,
    exclude_family: bool = True,
) -> RankedList:
    """Rank corpus documents against the query text.

    The query's own document is always excluded; documents sharing its
    family are excluded by default.  Deterministic: identical inputs yield
    identical rankings regardless of parallelism in the caller.
    """
    q_tokens = tokenize(query.text)
    if not q_tokens:
        raise EmptyInputError(f"query {query.query_id!r} has no indexable tokens")

    found = [(term, qtf) for term, qtf in Counter(q_tokens).items() if term in index.terms]
    if not found:
        return RankedList(query_id=query.query_id)
    terms, qtfs = zip(*found)
    term_rows, term_weights, idfs = zip(*map(index.terms.__getitem__, terms))
    lengths = np.fromiter(map(len, term_rows), dtype=np.intp, count=len(term_rows))
    # (qtf * w) * idf for every posting, in place on the concatenated weights.
    contributions = np.concatenate(term_weights)
    contributions *= np.repeat(qtfs, lengths)
    contributions *= np.repeat(idfs, lengths)
    acc = np.bincount(np.concatenate(term_rows), weights=contributions, minlength=index.n_docs)
    touched = acc > 0.0

    q_row = index.row_of.get(query.query_id)
    if q_row is not None:
        touched[q_row] = False
        q_family = index.family_code[q_row]
        if exclude_family and q_family >= 0:
            touched &= index.family_code != q_family

    rows = np.flatnonzero(touched)
    scores = acc[rows] / index.sqrt_len[rows]
    if len(rows) > max_depth:
        # Only rows scoring at least the max_depth-th best score can be
        # ranked; rows tied at that score stay for the doc_id tie-break.
        cut = np.partition(scores, len(scores) - max_depth)[len(scores) - max_depth]
        kept = scores >= cut
        rows, scores = rows[kept], scores[kept]
    order = np.lexsort((rows, -scores))[:max_depth]
    return RankedList(
        query_id=query.query_id,
        doc_ids=tuple(map(index.doc_ids.__getitem__, rows[order].tolist())),
        scores=tuple(scores[order].tolist()),
    )


class ReferenceAdapter:
    """In-process adapter wrapping the reference retriever."""

    adapter_id = "reference"

    def __init__(self, corpus: Corpus, exclude_family: bool = True) -> None:
        self._index = build_reference_index(corpus)
        self._exclude_family = exclude_family

    def search(self, query: Query, controls: RunControls) -> Sequence[object]:
        ranked = reference_retrieve(
            query,
            self._index,
            max_depth=controls.max_depth,
            exclude_family=self._exclude_family,
        )
        return list(zip(ranked.doc_ids, ranked.scores))


# ---------------------------------------------------------------------------
# Remote adapter: HTTP endpoint behind a JSON config.
# ---------------------------------------------------------------------------


# What a remote config key must hold, for the keys that are not strings.
_CONFIG_TYPES: dict[str, tuple[Callable[[object], bool], str]] = {
    "headers": (
        lambda v: isinstance(v, dict) and all(isinstance(x, str) for x in v.values()),
        "an object of strings",
    ),
    "extra_params": (lambda v: isinstance(v, dict), "an object"),
    "hits_path": (
        lambda v: isinstance(v, list) and all(isinstance(x, str) for x in v),
        "a list of strings",
    ),
    "max_retries": (lambda v: type(v) is int and v >= 0, "an integer >= 0"),
    "backoff_s": (lambda v: type(v) in (int, float) and 0 <= v < math.inf, "a number >= 0"),
}


@dataclass(frozen=True)
class RemoteEndpointConfig:
    """Shape of a remote system endpoint.

    ``auth_token_env`` names an environment variable holding the bearer
    token; the token itself never lives in the config file.  ``hits_path``
    walks the response JSON to the hit list.
    """

    adapter_id: str
    url: str
    method: str = "POST"
    headers: Mapping[str, str] = field(default_factory=dict)
    auth_token_env: str = ""
    auth_header: str = "Authorization"
    auth_scheme: str = "Bearer"
    query_field: str = "query"
    max_depth_field: str = "max_depth"
    seed_field: str = "seed"
    extra_params: Mapping[str, object] = field(default_factory=dict)
    hits_path: tuple[str, ...] = ("hits",)
    id_field: str = "doc_id"
    score_field: str = "score"
    max_retries: int = 2
    backoff_s: float = 0.25

    @classmethod
    def from_file(cls, path: str | Path) -> "RemoteEndpointConfig":
        rec = json.loads(Path(path).read_text(encoding="utf-8"))
        if not isinstance(rec, dict):
            raise ValueError(f"{path}: remote config must be a JSON object")
        if "adapter_id" not in rec or "url" not in rec:
            raise ValueError(f"{path}: remote config needs adapter_id and url")
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(rec) - known
        if unknown:
            raise ValueError(f"{path}: unknown config keys {sorted(unknown)}")
        for key, value in rec.items():
            fits, expected = _CONFIG_TYPES.get(key, (lambda v: isinstance(v, str), "a string"))
            if not fits(value):
                raise ValueError(f"{path}: config key {key!r} must be {expected}, got {value!r}")
        if "hits_path" in rec:
            rec["hits_path"] = tuple(rec["hits_path"])
        return cls(**rec)


def remote_adapter_query(
    config: RemoteEndpointConfig, query: Query, controls: RunControls
) -> list[tuple[object, object]]:
    """Issue one search request against a remote endpoint.

    Retries transport failures at most ``config.max_retries`` times with
    exponential backoff.  A timeout raises :class:`AdapterTimeout`; a
    non-success HTTP status or unparseable body raises :class:`AdapterError`
    with a response snippet.
    """
    payload: dict[str, object] = {
        config.query_field: query.text,
        config.max_depth_field: controls.max_depth,
    }
    if config.seed_field:
        payload[config.seed_field] = controls.seed
    payload.update(config.extra_params)

    headers = dict(config.headers)
    if config.auth_token_env:
        token = os.environ.get(config.auth_token_env, "")
        if token:
            headers[config.auth_header] = f"{config.auth_scheme} {token}".strip()

    method = config.method.upper()
    # GET sends the payload as query parameters, every other method as JSON.
    send = {"params" if method == "GET" else "json": payload}
    last_exc: Exception | None = None
    for attempt in range(config.max_retries + 1):
        if attempt:
            time.sleep(config.backoff_s * (2 ** (attempt - 1)))
        try:
            resp = requests.request(
                method,
                config.url,
                headers=headers,
                timeout=controls.timeout_ms / 1000.0,
                **send,
            )
        except requests.Timeout as exc:
            raise AdapterTimeout(f"{config.adapter_id}: {exc}") from exc
        except requests.ConnectionError as exc:
            last_exc = exc
            continue
        if not resp.ok:
            snippet = resp.text[:200]
            raise AdapterError(f"{config.adapter_id}: HTTP {resp.status_code}: {snippet}")
        try:
            body = resp.json()
        except ValueError as exc:
            raise AdapterError(f"{config.adapter_id}: unparseable body: {exc}") from exc
        node: object = body
        for step in config.hits_path:
            if not isinstance(node, Mapping) or step not in node:
                raise AdapterError(
                    f"{config.adapter_id}: response missing {'.'.join(config.hits_path)}"
                )
            node = node[step]
        if not isinstance(node, list):
            raise AdapterError(f"{config.adapter_id}: hit list is not an array")
        return [
            (item.get(config.id_field), item.get(config.score_field))
            if isinstance(item, Mapping)
            else (item, None)
            for item in node
        ]
    raise AdapterError(
        f"{config.adapter_id}: transport failure after "
        f"{config.max_retries + 1} attempts: {last_exc}"
    )


class RemoteAdapter:
    """Adapter for a remote HTTP retrieval system."""

    def __init__(self, config: RemoteEndpointConfig) -> None:
        self.config = config
        self.adapter_id = config.adapter_id

    def search(self, query: Query, controls: RunControls) -> Sequence[object]:
        return remote_adapter_query(self.config, query, controls)


# ---------------------------------------------------------------------------
# Run log I/O.
# ---------------------------------------------------------------------------


def _log_records(record: RunRecord) -> Iterator[dict]:
    """The run log's records in file order: the header, then one ranked list
    per query in query-id order."""
    yield {
        "kind": "run_header",
        "controls": asdict(record.controls),
        "dataset_manifest_hash": record.dataset_manifest_hash,
        "started": record.started,
        "finished": record.finished,
        "anomaly_count": record.anomaly_count,
    }
    for query_id, ranked in sorted(record.results.items()):
        ranks = range(1, len(ranked.doc_ids) + 1)
        yield {
            "kind": "ranked_list",
            "query_id": query_id,
            "status": ranked.status,
            "latency_ms": ranked.latency_ms,
            # Encodes to the same bytes as a list of [doc_id, score, rank].
            "hits": list(zip(ranked.doc_ids, ranked.scores, ranks)),
        }


def _log_line(rec: dict) -> str:
    return json.dumps(rec, sort_keys=True, ensure_ascii=False) + "\n"


def write_run_log(record: RunRecord, path: str | Path) -> Path:
    """Line-delimited run log: header record, then one result per line."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(map(_log_line, _log_records(record)))
    return path


def load_run_log(path: str | Path) -> RunRecord:
    """Inverse of :func:`write_run_log`.

    Raises :class:`RunLogFormatError`, naming the file and line, for a record
    that is not valid JSON, misses a field, repeats a query's ranked list, or
    holds a hit whose rank is not an integer in the run 1, 2, ..., whose
    doc_id is not a non-empty string, or whose score is not a finite number.
    """
    path = Path(path)
    header: dict | None = None
    results: dict[str, RankedList] = {}
    # One id object per distinct doc id in this log: `json.loads` makes a new
    # string for every occurrence, and a log repeats a few thousand ids
    # hundreds of thousands of times.
    shared: dict[str, str] = {}

    def add(rec: dict, line_number: int) -> None:
        nonlocal header
        kind = rec.get("kind")
        if kind == "run_header":
            c = rec["controls"]
            header = {
                "controls": RunControls(
                    seed=int(c["seed"]),
                    timeout_ms=int(c["timeout_ms"]),
                    max_depth=int(c["max_depth"]),
                    adapter_id=str(c.get("adapter_id", "")),
                    parallelism=int(c.get("parallelism", 1)),
                ),
                "dataset_manifest_hash": rec["dataset_manifest_hash"],
                "started": rec.get("started", ""),
                "finished": rec.get("finished", ""),
                "anomaly_count": int(rec.get("anomaly_count", 0)),
            }
        elif kind == "ranked_list":
            query_id = rec["query_id"]
            if query_id in results:
                raise ValueError(f"second ranked_list for query {query_id!r}")
            doc_ids: list[str] = []
            scores: list[float] = []
            # JSON values come back as exactly these types, so `type(x) is`
            # tests suffice, and they keep bool out of int.
            for expected, (doc_id, score, rank) in enumerate(rec["hits"], start=1):
                if type(rank) is not int or rank != expected:
                    raise ValueError(f"hit {doc_id!r} at rank {rank!r}: ranks must be the integers 1, 2, ...")
                if type(doc_id) is not str or not doc_id:
                    raise ValueError(f"hit at rank {rank}: doc_id {doc_id!r} is not a non-empty string")
                if type(score) is not float or not math.isfinite(score):
                    value = _finite_score(score) if type(score) is int else None
                    if value is None:
                        raise ValueError(f"hit {doc_id!r}: score {score!r} is not a finite number")
                    score = value
                doc_ids.append(shared.setdefault(doc_id, doc_id))
                scores.append(score)
            results[query_id] = RankedList(
                query_id=query_id,
                doc_ids=tuple(doc_ids),
                scores=tuple(scores),
                status=rec["status"],
                latency_ms=int(rec.get("latency_ms", 0)),
            )
        else:
            raise ValueError(f"unknown record kind {kind!r}")

    read_jsonl(path, add, RunLogFormatError)
    if header is None:
        raise RunLogFormatError(f"{path}: missing run_header record")
    return RunRecord(results=results, **header)


def sanitize_run_log(path: str | Path) -> bytes:
    """Canonical bytes of a run log with scheduling detail removed.

    Two runs of the same seed over the same dataset must sanitize to
    identical bytes.  Started/finished timestamps, per-query latencies, and
    the parallelism setting are execution detail, not result content, so
    they are the only fields allowed to differ.
    """
    records = _log_records(load_run_log(path))
    header = next(records)
    del header["started"], header["finished"], header["controls"]["parallelism"]
    lines = [_log_line(header)]
    for rec in records:
        del rec["latency_ms"]
        lines.append(_log_line(rec))
    return "".join(lines).encode("utf-8")
