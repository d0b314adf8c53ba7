"""Loopback chat-completion endpoint that stands in for the remote labeler.

It answers every request with the verdict of docprune's MockQualityTransport
after a fixed service delay. A seeded share of query snippets gets a fault on
its first attempt: HTTP 503 for one share, an ambiguous word for the next.
Faults are keyed by snippet content, so retry counts repeat exactly for a
given corpus and seed.

    PYTHONPATH=src python3 perfbench/stub.py --fault-seed 7

binds a free loopback port, prints it on its first stdout line and serves
until terminated. POST /reset forgets which snippets were already seen;
GET /stats returns {"requests": n, "busy_s": seconds spent handling chat
requests}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from docprune.mocks import MockQualityTransport, hash01, query_snippet

AMBIGUOUS_ANSWER = "Perhaps"
DELAY_MS = 5.0  # service time of one chat request
FAULT_RATE = 0.02  # share of snippets answered 503, and again ambiguous, first time


class StubState:
    """Fault plan plus the counters the benchmark reads back."""

    def __init__(self, fault_seed: int):
        self.fault_seed = fault_seed
        self.transport = MockQualityTransport()
        self.lock = threading.Lock()
        self.seen: set[bytes] = set()
        self.requests = 0
        self.busy_s = 0.0

    def fault_for(self, snippet: str) -> str | None:
        """The fault planned for this snippet's first attempt, if any."""
        key = hashlib.blake2b(snippet.encode("utf-8"), digest_size=16).digest()
        with self.lock:
            first = key not in self.seen
            self.seen.add(key)
        if not first:
            return None
        draw = hash01(f"stub-fault|{self.fault_seed}|{snippet}")
        if draw < FAULT_RATE:
            return "503"
        if draw < 2 * FAULT_RATE:
            return "ambiguous"
        return None

    def reset(self) -> None:
        with self.lock:
            self.seen.clear()


class Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"  # keep-alive: one connection per client thread
    disable_nagle_algorithm = True  # no delayed-ACK stall between header and body
    state: StubState

    def log_message(self, format, *args):  # noqa: A002 - signature from the base class
        pass

    def _send(self, status: int, payload: dict) -> None:
        body = json.dumps(payload).encode("utf-8")
        head = (
            f"HTTP/1.1 {status} {'OK' if status == 200 else 'Error'}\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
        ).encode("ascii")
        self.wfile.write(head + body)  # one write: header and body in one segment

    def do_GET(self):
        if self.path != "/stats":
            self._send(404, {"error": "not found"})
            return
        with self.state.lock:
            payload = {"requests": self.state.requests, "busy_s": self.state.busy_s}
        self._send(200, payload)

    def do_POST(self):
        body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
        if self.path == "/reset":
            self.state.reset()
            self._send(200, {"ok": True})
            return
        t0 = time.perf_counter()
        prompt = json.loads(body)["messages"][0]["content"]
        fault = self.state.fault_for(query_snippet(prompt))
        time.sleep(DELAY_MS / 1000.0)
        if fault == "503":
            status, payload = 503, {"error": "overloaded"}
        else:
            answer = AMBIGUOUS_ANSWER if fault else self.state.transport.complete(prompt)
            status, payload = 200, {"choices": [{"message": {"content": answer}}]}
        self._send(status, payload)
        with self.state.lock:
            self.state.requests += 1
            self.state.busy_s += time.perf_counter() - t0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--fault-seed", type=int, default=0)
    args = parser.parse_args(argv)
    Handler.state = StubState(args.fault_seed)
    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    server.daemon_threads = True
    print(server.server_address[1], flush=True)
    try:
        server.serve_forever()
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
