"""The server under test as a child process, and a lean HTTP client.

``Server`` starts ``repro-cut serve`` with its defaults (``python -m
repro.cli serve``; ``--port 0`` only so that concurrent checkouts never
collide) or, for a traced run, ``traced_server.py``, which builds the
same server behind timing wrappers.  The server's stderr carries one
access-log line per request, so it goes to DEVNULL; its stdout is
drained by a reader thread, so the child can never block on a full
pipe.

The client is one ``http.client`` connection per request (the server
speaks HTTP/1.0 and closes after each reply), one request in flight.
A request's time runs from connect to the last byte of the reply;
encoding the request and decoding the reply happen outside it.
"""

from __future__ import annotations

import http.client
import json
import os
import queue
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 20.0


class ServerError(RuntimeError):
    pass


class Server:
    def __init__(self, root: Path, *, traced: bool = False):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src")
        if traced:
            cmd = [sys.executable, str(HERE / "traced_server.py")]
        else:
            cmd = [sys.executable, "-m", "repro.cli", "serve"]
        self.proc = subprocess.Popen(
            cmd + ["--port", "0"],
            cwd=root,
            env=env,
            stdin=subprocess.PIPE if traced else subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
        )
        self._lines: queue.Queue = queue.Queue()
        self._reader = threading.Thread(target=self._drain, daemon=True)
        self._reader.start()
        try:
            url = self._expect("serving on ")
            self.host, _, port = url.removeprefix("http://").partition(":")
            self.port = int(port)
            status, _ = self.get("/healthz")[1:]
            if status != 200:
                raise ServerError(f"/healthz answered {status}")
        except BaseException:
            self.close()
            raise

    def _drain(self) -> None:
        for line in self.proc.stdout:
            self._lines.put(line.rstrip("\n"))
        self._lines.put(None)

    def _expect(self, prefix: str) -> str:
        deadline = time.monotonic() + START_TIMEOUT_S
        while True:
            try:
                line = self._lines.get(
                    timeout=max(0.0, deadline - time.monotonic())
                )
            except queue.Empty:
                raise ServerError(f"no {prefix!r} line from the server")
            if line is None:
                raise ServerError(
                    f"server exited with {self.proc.wait()} before {prefix!r}"
                )
            if line.startswith(prefix):
                return line[len(prefix):]

    # ------------------------------------------------------------------
    def _call(self, method: str, path: str, body: bytes | None):
        conn = http.client.HTTPConnection(self.host, self.port, timeout=120)
        headers = {"Content-Type": "application/json"} if body else {}
        try:
            t0 = time.perf_counter()
            conn.request(method, path, body, headers)
            resp = conn.getresponse()
            raw = resp.read()
            elapsed = time.perf_counter() - t0
        finally:
            conn.close()
        return elapsed, resp.status, raw

    def get(self, path: str) -> tuple[float, int, bytes]:
        """``(seconds, status, raw body)`` of one GET."""
        return self._call("GET", path, None)

    def post(self, path: str, payload: dict) -> tuple[float, int, bytes]:
        """``(seconds, status, raw body)`` of one POST."""
        return self._call("POST", path, json.dumps(payload).encode())

    def stats(self) -> dict:
        return json.loads(self.get("/stats")[2])

    def layer_snapshot(self) -> dict:
        """Traced server only: ``{name: [calls, self_s, inclusive_s]}``."""
        self.proc.stdin.write("snap\n")
        self.proc.stdin.flush()
        return json.loads(self._expect("SNAP "))

    def close(self) -> None:
        """SIGINT (the server's clean shutdown), then wait; kill if stuck."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self.proc.stdin is not None:
            self.proc.stdin.close()
        self._reader.join(timeout=STOP_TIMEOUT_S)
        self.proc.stdout.close()
