"""``repro serve`` in its own process, and an open-loop load generator.

The server is started exactly as a user would start it —
``python -m repro.cli serve --model M --port 0`` with default policy flags —
and read back only through HTTP (``/healthz``, ``/stats``, ``/predict``).

The generator is one asyncio thread.  Requests are due on a fixed schedule
(``i / rate``); each is sent on an idle keep-alive connection, or a new one
up to a cap, and timed from when it was due, so a stall charges every
request it delays.  How late the generator itself dispatched is recorded.
"""

from __future__ import annotations

import asyncio
import json
import os
import re
import signal
import subprocess
import sys
import time
import urllib.request
from dataclasses import dataclass
from pathlib import Path

#: Upper bound on keep-alive connections the generator keeps open.
MAX_CONNECTIONS = 48
#: A response slower than this counts as failed.
REQUEST_TIMEOUT_S = 60.0

_ADDRESS = re.compile(r"http://([0-9.]+):([0-9]+)")


class ServerProcess:
    """One ``repro serve`` child process, stopped on every exit path."""

    def __init__(self, model_path: Path, src_dir: Path, log_dir: Path, tag: str) -> None:
        self.model_path = model_path
        self.src_dir = src_dir
        self.stdout_path = log_dir / f"serve-{tag}.out"
        self.stderr_path = log_dir / f"serve-{tag}.err"
        self.process: subprocess.Popen | None = None
        self.host = "127.0.0.1"
        self.port = 0

    def start(self, timeout: float = 60.0) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self.src_dir)
        with open(self.stdout_path, "wb") as out, open(self.stderr_path, "wb") as err:
            self.process = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "serve",
                 "--model", str(self.model_path), "--port", "0"],
                stdout=out, stderr=err, stdin=subprocess.DEVNULL, env=env,
            )
        deadline = time.monotonic() + timeout
        while True:
            if self.process.poll() is not None:
                raise RuntimeError(
                    f"repro serve exited with {self.process.returncode}: "
                    + self.stderr_path.read_text(errors="replace")[-2000:]
                )
            if time.monotonic() > deadline:
                raise RuntimeError("repro serve did not answer /healthz in time")
            if not self.port:
                match = _ADDRESS.search(self.stdout_path.read_text(errors="replace"))
                if match:
                    self.host, self.port = match.group(1), int(match.group(2))
            if self.port:
                try:
                    if self.get("/healthz").get("status") == "ok":
                        return
                except OSError:
                    pass
            time.sleep(0.005)

    def get(self, path: str) -> dict:
        with urllib.request.urlopen(
            f"http://{self.host}:{self.port}{path}", timeout=10
        ) as response:
            return json.loads(response.read())

    def stop(self) -> None:
        process, self.process = self.process, None
        if process is None or process.poll() is not None:
            return
        # SIGTERM, not SIGINT: a process started in the background inherits
        # an ignored SIGINT, and the server would never see it.
        process.send_signal(signal.SIGTERM)
        try:
            process.wait(timeout=10)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()


def request_bytes(host: str, port: int, body: bytes) -> bytes:
    head = (
        f"POST /predict HTTP/1.1\r\nHost: {host}:{port}\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    ).encode("ascii")
    return head + body


@dataclass
class PhaseResult:
    latency: list[float | None]  # seconds from due to full response; None = failed
    late: list[float]  # seconds from due to dispatch
    status: list[int]
    bodies: list[bytes]
    in_flight_at_end: int  # requests outstanding when the last one was due
    connections_opened: int
    spans: list[tuple[int, int, int]]  # (request, sent ns, answered ns)

    @property
    def failed(self) -> int:
        return self.latency.count(None)


async def _roundtrip(conn, payload: bytes) -> tuple[int, bytes]:
    reader, writer = conn
    writer.write(payload)
    head = await reader.readuntil(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    status = int(lines[0].split()[1])
    length = 0
    for line in lines[1:]:
        if line.lower().startswith("content-length:"):
            length = int(line.split(":", 1)[1])
    body = await reader.readexactly(length)
    return status, body


async def _phase(host, port, payloads, rate, count, warm_connections):
    loop = asyncio.get_running_loop()
    idle = [await asyncio.open_connection(host, port) for _ in range(warm_connections)]
    opened = [len(idle)]
    slots = asyncio.Semaphore(MAX_CONNECTIONS)
    n = count
    due = [0.0] * n
    latency: list[float | None] = [None] * n
    late = [0.0] * n
    status = [0] * n
    bodies = [b""] * n
    spans = []

    async def one(i: int) -> None:
        async with slots:
            conn = idle.pop() if idle else None
            if conn is None:
                conn = await asyncio.open_connection(host, port)
                opened[0] += 1
            sent = time.perf_counter_ns()
            try:
                code, body = await asyncio.wait_for(
                    _roundtrip(conn, payloads[i % len(payloads)]), REQUEST_TIMEOUT_S
                )
            except (OSError, asyncio.TimeoutError, asyncio.IncompleteReadError, ValueError):
                conn[1].close()
                return
            done = loop.time()
            # A refused request misses every limit, like a failed one.
            latency[i] = done - due[i] if code == 200 else None
            status[i], bodies[i] = code, body
            spans.append((i, sent, time.perf_counter_ns()))
            idle.append(conn)

    start = loop.time() + 0.02
    tasks = []
    for i in range(n):
        due[i] = start + i / rate
        delay = due[i] - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        late[i] = max(0.0, loop.time() - due[i])
        tasks.append(asyncio.create_task(one(i)))
    in_flight = sum(1 for task in tasks if not task.done())
    await asyncio.gather(*tasks)
    for _, writer in idle:
        writer.close()
    return PhaseResult(latency, late, status, bodies, in_flight, opened[0], spans)


def run_phase(server: ServerProcess, payloads: list[bytes], rate: float,
              count: int, first: int = 0) -> PhaseResult:
    """Offer ``count`` requests at ``rate`` req/s, cycling through
    ``payloads`` from index ``first``."""
    wire = [request_bytes(server.host, server.port, body) for body in payloads]
    wire = wire[first:] + wire[:first]
    warm = min(MAX_CONNECTIONS, max(2, int(rate * 0.1)))
    return asyncio.run(_phase(server.host, server.port, wire, rate, count, warm))


def percentile(values, q: float) -> float:
    ordered = sorted(values)
    if not ordered:
        return float("nan")
    rank = (len(ordered) - 1) * q
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    if rank == low:
        return ordered[low]
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tail_quantile(samples: int) -> float | None:
    """Highest percentile that leaves at least ten samples beyond it."""
    if samples < 40:
        return None
    return 1.0 - 10.0 / samples
