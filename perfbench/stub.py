"""Loopback chat-completions stub for the http-mes-2k workload.

Serves ``POST /chat/completions`` on 127.0.0.1 with the answer
``Answer: A`` after a fixed service time (``SERVICE_S``), and answers
every ``FAIL_EVERY``-th request with a transient 503 instead.  It counts
requests, accepted TCP connections, injected 503s and its own service
time.  It prints ``{"port": N}`` once listening, serves until its
standard input closes or reads a line, then prints its counters as one
JSON line and exits, so it never outlives the process that started it.

    python3 perfbench/stub.py
"""

from __future__ import annotations

import json
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

ANSWER = "Answer: A"
SERVICE_S = 0.002
FAIL_EVERY = 20  # one request in 20 gets a transient 503


class StubServer(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self):
        super().__init__(("127.0.0.1", 0), StubHandler)
        self.lock = threading.Lock()
        self.requests = 0
        self.connections = 0
        self.injected_503 = 0
        self.service_ns = 0

    def process_request(self, request, client_address):
        with self.lock:
            self.connections += 1
        super().process_request(request, client_address)

    def counters(self) -> dict:
        with self.lock:
            return {
                "requests": self.requests,
                "connections": self.connections,
                "injected_503": self.injected_503,
                "service_ms": self.service_ns / 1e6,
            }


class StubHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def log_message(self, format, *args):  # keep stderr quiet
        pass

    def do_POST(self):
        started = time.perf_counter_ns()
        server: StubServer = self.server
        length = int(self.headers.get("Content-Length", 0))
        self.rfile.read(length)
        with server.lock:
            server.requests += 1
            fail = server.requests % FAIL_EVERY == 0
            if fail:
                server.injected_503 += 1
        if fail:
            status, body = 503, {"error": "injected transient failure"}
        else:
            time.sleep(SERVICE_S)
            status, body = 200, {"choices": [{"message": {"content": ANSWER}}]}
        payload = json.dumps(body).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)
        with server.lock:
            server.service_ns += time.perf_counter_ns() - started


def main() -> int:
    server = StubServer()
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    print(json.dumps({"port": server.server_address[1]}), flush=True)
    try:
        sys.stdin.readline()
    finally:
        server.shutdown()
        server.server_close()
        print(json.dumps(server.counters()), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
