"""Running retrieval systems over a dataset: adapter contract, run controls,
result standardization, run logging, and a deterministic tf-idf reference
retriever for harness validation."""

from __future__ import annotations

import functools
import json
import logging
import math
import os
import re
import sys
import threading
import time
from array import array
from collections import Counter
from dataclasses import asdict, dataclass, field, fields
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterator, Mapping, NamedTuple, Protocol, Sequence
from urllib.parse import quote, urlencode, urlsplit

import numpy as np

from .corpus import Count, Corpus, encode_line, from_record, normalize_doc_id, read_jsonl, write_lines
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
    directly.  ``score`` is read out of the packed score column, so it is a
    new float object with the stored value on each access."""

    doc_id: str
    score: float
    rank: int


@dataclass(frozen=True, slots=True)
class RankedList:
    """Standardized result for one query, stored as two columns.

    The hit at position i is ``(doc_ids[i], scores[i])`` and has rank i + 1.
    Doc ids are unique and scores non-increasing; non-OK statuses carry no
    hits.  ``doc_ids`` is a tuple of str.  ``scores`` is packed as an
    ``array('d')``, 8 bytes a score rather than a tuple slot and a float
    object; any other float sequence given is converted once.  The array is
    mutable and the record is not hashable: nothing may change a list's
    scores after it is built.
    """

    query_id: str
    doc_ids: tuple[str, ...] = ()
    scores: Sequence[float] = ()
    status: str = STATUS_OK
    latency_ms: int = 0

    __hash__ = None  # the score column is mutable

    def __post_init__(self) -> None:
        if type(self.scores) is not array or self.scores.typecode != "d":
            object.__setattr__(self, "scores", array("d", self.scores))
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
class RunHeaderRecord:
    """A run log's ``run_header`` line, apart from its ``kind``: the
    :class:`RunRecord` without its results."""

    controls: RunControls
    dataset_manifest_hash: str
    started: str = ""
    finished: str = ""
    anomaly_count: Count = 0


@dataclass(frozen=True)
class RunRecord(RunHeaderRecord):
    results: Mapping[str, RankedList] = field(kw_only=True)


@dataclass(frozen=True)
class RankedListRecord:
    """A run log's ``ranked_list`` line, apart from its ``kind`` and its
    ``hits``: the :class:`RankedList` without its columns."""

    query_id: str
    status: str
    latency_ms: Count = 0


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


# The largest finite float: a float score x is finite and no higher than the
# previous score p exactly when -_FLOAT_MAX <= x <= p, with p = _FLOAT_MAX
# before the first hit.  NaN fails every comparison.
_FLOAT_MAX = sys.float_info.max


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
    # Normalized ids in the order they were first seen; the values are unused.
    kept: dict[str, None] = {}
    scores = array("d")
    prev = _FLOAT_MAX
    for item in raw:
        # Pairs first: most adapters return them, and the Mapping test is an
        # ABC check that costs more than the tuple/list one.
        if isinstance(item, (tuple, list)) and len(item) == 2:
            raw_id, score = item[0], item[1]
        elif isinstance(item, Mapping):
            raw_id, score = item.get("doc_id"), item.get("score")
        elif isinstance(item, str):
            raw_id, score = item, None
        else:
            repairs += 1
            continue
        norm = normalize_doc_id(raw_id)
        if norm is None or norm in kept:
            repairs += 1
            continue
        kept[norm] = None
        if type(score) is not float or not -_FLOAT_MAX <= score <= prev:
            value = _finite_score(score)
            if value is None:
                repairs += 1
                score = prev if scores else 1.0
            elif value > prev:
                repairs += 1
                score = prev
            else:
                score = value
        prev = score
        scores.append(score)
        if len(scores) == max_depth:
            break
    ranked = RankedList(
        query_id=query_id, doc_ids=tuple(kept), scores=scores, latency_ms=latency_ms
    )
    return ranked, repairs


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
    in ERROR the run aborts with :class:`RunFailureError`, and no search
    starts after that point.  ``RunRecord.results`` is in dataset query order
    at any parallelism.
    """
    started = _utc_now()
    query_ids = dataset.query_ids()
    total = len(query_ids)
    # Guards the counters below; each worker takes it once per query, to add
    # its last query's tallies and draw the next index.
    tally_lock = threading.Lock()
    anomalies = 0
    errors = 0
    next_index = 0
    # What a worker let through: a BaseException from the adapter.
    raised: list[BaseException] = []
    results: list[RankedList | None] = [None] * total

    def work() -> None:
        """Settle queries, drawn in dataset order, until none is left, the
        run has failed or another worker has let an exception through."""
        nonlocal anomalies, errors, next_index
        repairs = 0
        failed = False
        while True:
            with tally_lock:
                anomalies += repairs
                errors += failed
                if errors * 2 > total or raised or next_index == total:
                    return
                index = next_index
                next_index += 1
            query_id = query_ids[index]
            repairs = 0
            try:
                query = queries.get(query_id)
                if query is None:
                    raise AdapterError(f"no query built for {query_id!r}")
                t0 = time.perf_counter()
                raw = adapter.search(query, controls)
                elapsed_ms = int((time.perf_counter() - t0) * 1000)
                if elapsed_ms > controls.timeout_ms:
                    raise AdapterTimeout(f"query {query_id!r} took {elapsed_ms} ms")
                ranked, repairs = standardize_results(
                    raw, query_id=query_id, max_depth=controls.max_depth, latency_ms=elapsed_ms
                )
            except AdapterTimeout:
                ranked = RankedList(query_id=query_id, status=STATUS_TIMEOUT)
            except Exception as exc:
                logger.debug("query %s failed: %s", query_id, exc)
                ranked = RankedList(query_id=query_id, status=STATUS_ERROR)
            except BaseException as exc:
                with tally_lock:
                    raised.append(exc)
                return
            results[index] = ranked
            failed = ranked.status == STATUS_ERROR

    # Daemon workers, so that a worker still searching can never keep the
    # process alive.  The main thread waits once, in the joins, and never
    # takes the interpreter lock from a searching worker.
    workers = [
        threading.Thread(target=work, name=f"patbench-run-{i}", daemon=True)
        for i in range(min(controls.parallelism, total))
    ]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    if raised:
        raise raised[0]
    if errors * 2 > total:
        raise RunFailureError(
            f"{errors} of {total} queries failed against adapter "
            f"{adapter.adapter_id!r}; aborting run"
        )
    return RunRecord(
        controls=controls,
        dataset_manifest_hash=dataset.manifest_hash,
        results=dict(zip(query_ids, results)),
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
    n_docs: int
    doc_ids: list[str]
    row_of: dict[str, int]
    terms: dict[str, tuple[np.ndarray, np.ndarray, float]]
    sqrt_len: np.ndarray
    family_code: np.ndarray
    # weight_of_tf[tf] == 1 + ln tf (0.0 at tf 0); strictly increasing.
    weight_of_tf: np.ndarray

    @functools.cached_property
    def postings(self) -> dict[str, dict[str, int]]:
        """term -> {doc_id: tf}, derived from ``terms`` on first read.

        No scoring path reads it; the index holds its postings once, as the
        ``terms`` columns.
        """
        return {
            term: dict(
                zip(
                    map(self.doc_ids.__getitem__, rows.tolist()),
                    np.searchsorted(self.weight_of_tf, weights).tolist(),
                )
            )
            for term, (rows, weights, _) in self.terms.items()
        }


def build_reference_index(corpus: Corpus) -> ReferenceIndex:
    """Inverted index over title, abstract, claims, and description."""
    doc_ids = sorted(corpus.documents)
    # Each term's postings as flat (row, tf) pairs, rows ascending.
    pairs: dict[str, array] = {}
    lengths: list[int] = []
    for row, doc_id in enumerate(doc_ids):
        doc = corpus.documents[doc_id]
        tokens = tokenize(
            " ".join((doc.title, doc.abstract, doc.claims, doc.description))
        )
        lengths.append(len(tokens))
        for term, tf in Counter(tokens).items():
            plist = pairs.get(term)
            if plist is None:
                pairs[term] = plist = array("i")
            plist.append(row)
            plist.append(tf)

    n_docs = len(doc_ids)
    max_tf = max((max(plist[1::2]) for plist in pairs.values()), default=0)
    weight_of_tf = np.array([0.0] + [1.0 + math.log(tf) for tf in range(1, max_tf + 1)])
    terms = {}
    # Pop each term's pairs as its columns are built, so the two copies of
    # the postings never coexist whole.
    for term in list(pairs):
        flat = np.frombuffer(pairs.pop(term), dtype=np.intc)
        rows = flat[0::2].astype(np.int32)
        terms[term] = (rows, weight_of_tf[flat[1::2]], math.log(1.0 + n_docs / len(rows)))
    code_of = {family: code for code, family in enumerate(sorted(corpus.families))}
    return ReferenceIndex(
        n_docs=n_docs,
        doc_ids=doc_ids,
        row_of={doc_id: row for row, doc_id in enumerate(doc_ids)},
        terms=terms,
        sqrt_len=np.array([math.sqrt(length or 1) for length in lengths]),
        family_code=np.array(
            [code_of.get(corpus.family_of.get(doc_id), -1) for doc_id in doc_ids], dtype=np.int32
        ),
        weight_of_tf=weight_of_tf,
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
        scores=array("d", scores[order].tobytes()),
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


@dataclass(frozen=True)
class RemoteEndpointConfig:
    """Shape of a remote system endpoint.

    ``url`` is an http or https URL with a host and without user info.
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

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if not 0 <= self.backoff_s < math.inf:
            raise ValueError("backoff_s must be a finite number >= 0")
        if not _usable_url(self.url):
            raise ValueError(
                "'url' must be an http:// or https:// URL with a host, a valid port and "
                "no user:password@ (the token comes from auth_token_env)"
            )

    @classmethod
    def from_file(cls, path: str | Path) -> "RemoteEndpointConfig":
        rec = json.loads(Path(path).read_text(encoding="utf-8"))
        config = from_record(cls, rec)
        unknown = set(rec) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown config keys {sorted(unknown)}")
        return config


def _usable_url(url: str) -> bool:
    try:
        parts = urlsplit(url)
        parts.port  # raises ValueError unless the port is a number in range
    except ValueError:
        return False
    return parts.scheme in ("http", "https") and bool(parts.hostname) and "@" not in parts.netloc


def remote_adapter_query(
    config: RemoteEndpointConfig, query: Query, controls: RunControls
) -> list[object]:
    """Issue one search request against a remote endpoint.

    Returns the hits in response order: an object hit as its
    ``(id_field, score_field)`` pair, a ``[doc_id, score]`` pair or a bare id
    unchanged, for :func:`standardize_results` to read.  Each attempt opens
    one connection and closes it after the response.  Retries transport
    failures at most ``config.max_retries`` times with exponential backoff.
    A timeout raises :class:`AdapterTimeout`; a status outside 2xx (redirects
    are not followed) or an unparseable body raises :class:`AdapterError`
    with a response snippet.
    """
    import http.client  # only remote runs pay for loading it and ssl

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

    parts = urlsplit(config.url)
    query_string = parts.query
    method = config.method.upper()
    # GET sends the payload as query parameters (None values left out),
    # every other method as JSON.
    if method == "GET":
        params = urlencode({k: v for k, v in payload.items() if v is not None}, doseq=True)
        query_string = "&".join(filter(None, (query_string, params)))
        body = None
    else:
        body = json.dumps(payload, allow_nan=False).encode("utf-8")
        if "content-type" not in map(str.lower, headers):
            headers["Content-Type"] = "application/json"
    target = (parts.path or "/") + ("?" + query_string if query_string else "")
    # Percent-encode what the request line cannot carry (spaces, non-ASCII),
    # keeping every URL delimiter and existing escape.
    target = quote(target, safe="!#$%&'()*+,/:;=?@[]~")
    connection = (
        http.client.HTTPSConnection if parts.scheme == "https" else http.client.HTTPConnection
    )
    last_exc: Exception | None = None
    for attempt in range(config.max_retries + 1):
        if attempt:
            time.sleep(config.backoff_s * (2 ** (attempt - 1)))
        conn = connection(parts.hostname, parts.port, timeout=controls.timeout_ms / 1000.0)
        try:
            conn.request(method, target, body=body, headers=headers)
            resp = conn.getresponse()
            content = resp.read()
        except TimeoutError as exc:  # an OSError, so caught first
            raise AdapterTimeout(f"{config.adapter_id}: {exc}") from exc
        except (OSError, http.client.HTTPException) as exc:
            last_exc = exc
            continue
        finally:
            conn.close()
        if not 200 <= resp.status < 300:
            snippet = content.decode("utf-8", errors="replace")[:200]
            raise AdapterError(f"{config.adapter_id}: HTTP {resp.status}: {snippet}")
        try:
            node: object = json.loads(content)
        except ValueError as exc:
            raise AdapterError(f"{config.adapter_id}: unparseable body: {exc}") from exc
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
            else item
            for item in node
        ]
    raise AdapterError(
        f"{config.adapter_id}: transport failure after "
        f"{config.max_retries + 1} attempts: {last_exc}"
    )


class RemoteAdapter:
    """Adapter for a remote HTTP retrieval system."""

    def __init__(self, config: RemoteEndpointConfig) -> None:
        # Loaded here, so that the first timed search does not pay for it.
        import http.client  # noqa: F401

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
    header = RunHeaderRecord(*[getattr(record, f.name) for f in fields(RunHeaderRecord)])
    yield {"kind": "run_header", **asdict(header)}
    for _, ranked in sorted(record.results.items()):
        ranks = range(1, len(ranked.doc_ids) + 1)
        # The scalars by name: asdict would deep-copy the columns.
        rec = {f.name: getattr(ranked, f.name) for f in fields(RankedListRecord)}
        # Encodes to the same bytes as a list of [doc_id, score, rank].
        yield dict(rec, kind="ranked_list", hits=list(zip(ranked.doc_ids, ranked.scores, ranks)))


def write_run_log(record: RunRecord, path: str | Path) -> Path:
    """Line-delimited run log: header record, then one result per line."""
    return write_lines(path, map(encode_line, _log_records(record)))


def load_run_log(path: str | Path) -> RunRecord:
    """Inverse of :func:`write_run_log`.

    Raises :class:`RunLogFormatError`, naming the file and line, for a record
    that is not valid JSON or that :func:`~patbench.corpus.from_record` cannot
    read as a :class:`RunHeaderRecord` or :class:`RankedListRecord`, controls
    without ``timeout_ms`` and ``max_depth``, a repeated header, a ranked list
    before the header or repeating a query's, ``hits`` that are not a list or
    outnumber the header's ``max_depth``, or a hit that is not a ``[doc_id,
    score, rank]`` array, whose rank is not an integer in the run 1, 2, ...,
    whose doc_id is not a non-empty string, whose score is not a finite
    number, or whose score is above the previous hit's.
    """
    path = Path(path)
    header: RunHeaderRecord | None = None
    results: dict[str, RankedList] = {}
    # One object per distinct id and label in this log (see from_record): a
    # log repeats a few thousand doc ids hundreds of thousands of times.
    pool: dict[str, str] = {}

    def add(rec: dict, line_number: int) -> None:
        nonlocal header
        kind = rec.get("kind")
        if kind == "run_header":
            if header is not None:
                raise ValueError("second run_header record")
            header = from_record(RunHeaderRecord, rec, pool)
            # RunControls has defaults for these, but a run log must state them.
            if not {"timeout_ms", "max_depth"} <= rec["controls"].keys():
                raise ValueError("controls must hold timeout_ms and max_depth")
        elif kind == "ranked_list":
            if header is None:
                raise ValueError("ranked_list before the run_header record")
            meta = from_record(RankedListRecord, rec, pool)
            query_id = meta.query_id
            if query_id in results:
                raise ValueError(f"second ranked_list for query {query_id!r}")
            hits = rec["hits"]
            if type(hits) is not list:
                raise ValueError(f"field 'hits' must be a list of hit arrays, got {hits!r}")
            max_depth = header.controls.max_depth
            if len(hits) > max_depth:
                raise ValueError(
                    f"{len(hits)} hits for query {query_id!r}, "
                    f"but the run_header's max_depth is {max_depth}"
                )
            doc_ids: list[str] = []
            scores = array("d")
            previous = math.inf
            # JSON values come back as exactly these types, so `type(x) is`
            # tests suffice, and they keep bool out of int.
            try:
                for expected, (doc_id, score, rank) in enumerate(hits, start=1):
                    if type(rank) is not int or rank != expected:
                        raise ValueError(f"hit {doc_id!r} at rank {rank!r}: ranks must be the integers 1, 2, ...")
                    if type(doc_id) is not str or not doc_id:
                        raise ValueError(f"hit at rank {rank}: doc_id {doc_id!r} is not a non-empty string")
                    if type(score) is not float or not math.isfinite(score):
                        value = _finite_score(score) if type(score) is int else None
                        if value is None:
                            raise ValueError(f"hit {doc_id!r}: score {score!r} is not a finite number")
                        score = value
                    if score > previous:
                        raise ValueError(
                            f"hit {doc_id!r} at rank {rank}: score {score!r} is above the previous "
                            f"score {previous!r}; scores must be non-increasing"
                        )
                    previous = score
                    doc_ids.append(pool.setdefault(doc_id, doc_id))
                    scores.append(score)
            except (ValueError, TypeError):
                # A malformed hit fails above at its own position: name its shape.
                position, hit = len(doc_ids) + 1, hits[len(doc_ids)]
                if type(hit) is not list or len(hit) != 3:
                    shape = "must be a [doc_id, score, rank] array"
                    raise ValueError(f"hit {position} of query {query_id!r} {shape}, got {hit!r}") from None
                raise
            results[query_id] = RankedList(doc_ids=tuple(doc_ids), scores=scores, **vars(meta))
        else:
            raise ValueError(f"unknown record kind {kind!r}")

    read_jsonl(path, add, RunLogFormatError)
    if header is None:
        raise RunLogFormatError(f"{path}: missing run_header record")
    return RunRecord(results=results, **vars(header))


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
    lines = [encode_line(header)]
    for rec in records:
        del rec["latency_ms"]
        lines.append(encode_line(rec))
    return ("\n".join(lines) + "\n").encode("utf-8")
