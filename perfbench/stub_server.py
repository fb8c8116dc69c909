"""Stub retrieval endpoint for the remote-loopback workload.

Run as ``python3 perfbench/stub_server.py <corpus.jsonl>``.  It serves
``POST /search`` on 127.0.0.1 at a free port and prints the port as its
first line of standard output.  Each response is a canned, deterministic
depth-100 hit list keyed by the query text, drawn from the corpus doc ids,
with a fixed share of entries the harness must repair: unmappable ids,
duplicates, ids in lower case with spaces, and missing scores.

The process also reads commands on standard input, one per line:
``stats`` prints one JSON line with the TCP connections accepted, the
requests served and the seconds spent handling them; end of input shuts the
server down.  Counters travel over this pipe, not over HTTP, so reading them
opens no connection.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

DEPTH = 100
UNMAPPABLE = ("", "#n/a", "??", 12345, None)


def canned_hits(doc_ids: list[str], text: str, depth: int) -> list[dict]:
    """Deterministic hit list for one query text."""
    rng = random.Random(hashlib.sha256(text.encode("utf-8")).digest())
    chosen = rng.sample(doc_ids, min(depth, len(doc_ids)))
    hits: list[dict] = []
    score = 50.0 + rng.random()
    for i, doc_id in enumerate(chosen):
        roll = rng.random()
        entry: dict = {"doc_id": doc_id, "score": round(score, 6)}
        if roll < 0.03:
            entry["doc_id"] = rng.choice(UNMAPPABLE)
        elif roll < 0.06 and i:
            entry["doc_id"] = hits[rng.randrange(i)]["doc_id"]
        elif roll < 0.08:
            entry["doc_id"] = f" {doc_id[:2].lower()} {doc_id[2:].lower()}"
        elif roll < 0.10:
            del entry["score"]
        hits.append(entry)
        score -= rng.random() * 0.4
    return hits


class StubServer(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, doc_ids: list[str]) -> None:
        super().__init__(("127.0.0.1", 0), StubHandler)
        self.doc_ids = doc_ids
        self.lock = threading.Lock()
        self.connections = 0
        self.requests = 0
        self.handle_s = 0.0

    def get_request(self):
        conn = super().get_request()
        with self.lock:
            self.connections += 1
        return conn

    def stats(self) -> dict:
        with self.lock:
            return {
                "connections": self.connections,
                "requests": self.requests,
                "handle_s": self.handle_s,
            }


class StubHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server: StubServer

    def do_POST(self) -> None:
        t0 = time.perf_counter()
        length = int(self.headers.get("Content-Length", "0"))
        request = json.loads(self.rfile.read(length))
        depth = int(request.get("max_depth", DEPTH))
        body = json.dumps(
            {"hits": canned_hits(self.server.doc_ids, str(request["query"]), depth)}
        ).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)
        elapsed = time.perf_counter() - t0
        with self.server.lock:
            self.server.requests += 1
            self.server.handle_s += elapsed

    def log_message(self, format: str, *args: object) -> None:
        pass


def load_doc_ids(corpus_path: str) -> list[str]:
    with open(corpus_path, encoding="utf-8") as fh:
        records = (json.loads(line) for line in fh if line.strip())
        return sorted(r["doc_id"] for r in records if r.get("kind") == "patent")


def main(corpus_path: str) -> None:
    server = StubServer(load_doc_ids(corpus_path))
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        print(server.server_address[1], flush=True)
        for line in sys.stdin:
            if line.strip() == "stats":
                print(json.dumps(server.stats()), flush=True)
    finally:
        server.shutdown()
        thread.join()
        server.server_close()


if __name__ == "__main__":
    main(sys.argv[1])
