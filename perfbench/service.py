"""The ``service_mixed_20k`` workload: the resident service under mixed
reads and writes.

``repro-experiment serve --nodes 20000 --estimators
sample_collide,hops_sampling,aggregation`` runs with its HTTP and binary
listeners, a journal and a checkpoint path.  The load generator is this
process, with two threads and at most two open connections:

* the **writer** is open loop: round ``k`` is due at ``k / RATE`` seconds.
  Each round it sends ``POST /ingest`` (seeded joins and leaves) and then
  ``POST /tick``.  A round is timed from when it was due.  If the writer
  starts a round more than one period late it has fallen behind its
  schedule, and the run fails instead of reporting numbers;
* the **reader** is closed loop: ``/estimate`` calls back to back,
  alternating a block of :data:`HTTP_BLOCK` calls through
  :class:`~repro.service.server.ServiceClient` over HTTP (a connection
  per request) with a block of :data:`BINARY_BLOCK` calls over one
  binary-frame connection held for the block.  Blocks of fixed counts
  keep the traffic mix fixed, so a slower transport cannot shift where
  the pooled percentiles fall.

The window ends with one ``POST /checkpoint`` and a final ``/estimate``.
Checks: every request answers 200 and no ingest is shed; the final
estimates equal those of an in-process ``EstimationService`` fed the
same event sequence; every read's staleness is within its family's
refresh period (``probe_interval`` rounds for the probe families, one
epoch for aggregation).  A failed request, a timeout, a dropped
connection or a read past its staleness bound counts as a failed
operation.
"""

from __future__ import annotations

import json
import pathlib
import random
import socket
import sys
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

from perfbench import harness, layers, tracing
from perfbench.stats import median, percentile, supports_percentile, tail_percentile

FAMILIES = ("sample_collide", "hops_sampling", "aggregation")
PROBE_INTERVAL = 5
#: Aggregation closes an epoch every this many rounds (ServiceConfig default).
AGG_EPOCH = 40
#: Writer rounds per second (a tick costs about 55 ms at 20k nodes).  A
#: 20-second window then holds 100 rounds, the fewest that support p90.
RATE = 5.0
#: Reads per reader block on each transport: one HTTP read in eleven.
HTTP_BLOCK = 100
BINARY_BLOCK = 1000
#: Per-request client timeout, seconds.
TIMEOUT_S = 10.0
NODES = {"paper": 20_000, "tiny": 300}


class Session:
    """One ``serve`` process and one measured window against it."""

    def __init__(self, seed: int, nodes: int, name: str,
                 trace_dir: Optional[pathlib.Path] = None) -> None:
        self.seed = seed
        self.nodes = nodes
        self.trace_dir = trace_dir
        self.dir = harness.fresh_dir(name)
        self.program: Optional[harness.Program] = None
        self.http_ms: List[float] = []
        self.binary_ms: List[float] = []
        self.round_ms: List[float] = []
        self.late_max_ms = 0.0
        self.behind = False
        self.staleness_max = 0
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.rounds: List[List[Dict[str, int]]] = []
        self._lock = threading.Lock()

    # -- lifecycle -------------------------------------------------------

    def boot(self) -> float:
        """Start ``serve``; seconds from launch until ``/health`` answers."""
        from repro.service.server import ServiceClient

        args = [
            "serve", "--nodes", str(self.nodes), "--estimators", ",".join(FAMILIES),
            "--seed", str(self.seed), "--probe-interval", str(PROBE_INTERVAL),
            "--bind", "127.0.0.1:0", "--binary-bind", "127.0.0.1:0",
            "--journal", str(self.dir / "journal.jsonl"),
            "--snapshot", str(self.dir / "service.ckpt"),
        ]
        self.program = harness.Program(
            harness.cli(args, traced=self.trace_dir is not None), trace_dir=self.trace_dir
        )
        self.http = self.program.read_value("REPRO_SERVICE_ADDR=")
        self.binary = self.program.read_value("REPRO_SERVICE_BINARY_ADDR=")
        self.client = ServiceClient(self.http, timeout=TIMEOUT_S)
        health = self.client.health()
        ready = time.perf_counter() - self.program.started
        if health.get("size") != self.nodes:
            raise harness.BenchError(f"service booted with {health.get('size')} nodes")
        return ready

    def stop(self) -> float:
        """Stop the server; its peak RSS in MB."""
        if self.program is None:
            return 0.0
        self.program.stop()
        return self.program.peak_rss_mb

    def _attempt(self, count: int = 1) -> None:
        with self._lock:
            self.attempted += count

    def _fail(self, message: str) -> None:
        with self._lock:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(message)

    # -- load generator --------------------------------------------------

    def _writer(self, start: float, seconds: float) -> None:
        rng = random.Random(self.seed)
        period = 1.0 / RATE
        k = 0
        while True:
            due = start + k * period
            if due >= start + seconds:
                return
            pause = due - time.perf_counter()
            if pause > 0:
                time.sleep(pause)
            began = time.perf_counter()
            late = began - due
            self.late_max_ms = max(self.late_max_ms, late * 1e3)
            if late > period:
                self.behind = True
                return
            events = [{"joins": rng.randint(0, 40), "leaves": rng.randint(0, 40)}]
            self.rounds.append(events)
            self._attempt(2)
            try:
                reply = self.client.ingest(events)
                if reply.get("dropped"):
                    self._fail(f"round {k + 1}: {reply['dropped']} events shed")
                reply = self.client.tick()
                if reply.get("round") != k + 1:
                    self._fail(f"tick answered round {reply.get('round')}, expected {k + 1}")
            except Exception as exc:  # noqa: BLE001 - every failure is counted
                self._fail(f"round {k + 1}: {exc!r}")
            self.round_ms.append((time.perf_counter() - due) * 1e3)
            k += 1

    def _check_staleness(self, estimates: Dict[str, Any]) -> None:
        for family, entry in estimates.items():
            staleness = entry.get("staleness")
            if staleness is None:
                continue
            bound = AGG_EPOCH if family == "aggregation" else PROBE_INTERVAL - 1
            self.staleness_max = max(self.staleness_max, staleness)
            if staleness > bound:
                self._fail(f"{family} staleness {staleness} > {bound}")

    def _read_http(self, count: int) -> None:
        for _ in range(count):
            self._attempt()
            began = time.perf_counter()
            try:
                reply = self.client.estimate()
            except Exception as exc:  # noqa: BLE001 - throttled, error, timeout
                self._fail(f"http read: {exc!r}")
                continue
            self.http_ms.append((time.perf_counter() - began) * 1e3)
            self._check_staleness(reply["estimates"])

    def _read_binary(self, count: int) -> None:
        from repro.service.server import recv_frame, send_frame

        host, port = self.binary.rsplit(":", 1)
        try:
            conn = socket.create_connection((host, int(port)), timeout=TIMEOUT_S)
        except OSError as exc:
            self._attempt()
            self._fail(f"binary connect: {exc!r}")
            return
        with conn:
            for _ in range(count):
                self._attempt()
                began = time.perf_counter()
                try:
                    send_frame(conn, {"op": "estimate"})
                    reply = recv_frame(conn)
                except (OSError, EOFError, ValueError) as exc:
                    self._fail(f"binary read: {exc!r}")
                    return
                elapsed = (time.perf_counter() - began) * 1e3
                if reply.get("status") != 200:
                    self._fail(f"binary read answered {reply.get('status')}")
                    continue
                self.binary_ms.append(elapsed)
                self._check_staleness(reply["estimates"])

    def _reader(self, stop: threading.Event) -> None:
        began = time.perf_counter()
        while not stop.is_set():
            self._read_http(HTTP_BLOCK)
            self._read_binary(BINARY_BLOCK)
        self.read_s = time.perf_counter() - began

    def window(self, seconds: float) -> None:
        """Drive the writer and the reader for ``seconds``, then checkpoint."""
        stop = threading.Event()
        start = time.perf_counter() + 0.05
        writer = threading.Thread(target=self._writer, args=(start, seconds))
        reader = threading.Thread(target=self._reader, args=(stop,))
        writer.start()
        reader.start()
        writer.join()
        stop.set()
        reader.join()
        if self.behind:
            raise harness.BenchError(
                f"writer fell behind its {RATE:g} rounds/s schedule "
                f"(late by {self.late_max_ms:.0f} ms)"
            )
        self._attempt(2)
        try:
            path = self.client.checkpoint()["path"]
            self.checkpoint_bytes = pathlib.Path(path).stat().st_size
            self.final = self.client.estimate()
        except Exception as exc:  # noqa: BLE001
            self._fail(f"checkpoint/final read: {exc!r}")
            self.final = None

    def verify(self) -> None:
        """The served estimates equal an in-process replica fed the same events."""
        from repro.service.core import EstimationService, ServiceConfig

        replica = EstimationService(ServiceConfig(
            seed=self.seed, initial_size=self.nodes, estimators=FAMILIES,
            probe_interval=PROBE_INTERVAL,
        ))
        for events in self.rounds:
            replica.ingest(events)
            replica.tick()
        expected = {"round": replica.round, "estimates": replica.read_estimates()}
        # JSON round trip: the server's floats travel as repr strings.
        expected = json.loads(json.dumps(expected))
        if self.final != expected:
            self._fail(f"final estimate {self.final} != replica {expected}")


class ServiceWorkload:
    """``service_mixed_20k`` (or its tiny variant for the benchmark's tests)."""

    def __init__(self, seed: int, size: str = "paper") -> None:
        if str(harness.SRC) not in sys.path:
            sys.path.insert(0, str(harness.SRC))
        self.seed = seed
        self.nodes = NODES[size]
        self.attempted = 0
        self.failed = 0
        self.checks: List[str] = []
        self.notes: List[str] = []

    def _pct(self, metric: str, samples: List[float], p: float) -> float:
        """The ``p``-th percentile; notes when fewer than 10 samples lie beyond it."""
        if not samples:
            return 0.0
        if not supports_percentile(len(samples), p):
            best = tail_percentile(samples)
            note = f"{metric}: too few samples for p{p:g}; " + (
                "none supports a percentile" if best is None
                else f"the highest supported is p{best[0]:g}"
            )
            if note not in self.notes:
                self.notes.append(note)
        return percentile(samples, p)

    def _account(self, session: Session) -> None:
        self.attempted += session.attempted
        self.failed += session.failed
        self.checks.extend(session.problems)

    def _run(self, name: str, seconds: float, boots: int = 1,
             trace_dir: Optional[pathlib.Path] = None) -> Tuple[Session, float, float]:
        """Boot ``boots`` times (the last one serves), measure, stop, verify."""
        setup_times = []
        rss = 0.0
        for i in range(boots):
            session = Session(self.seed, self.nodes, f"{name}-{i}", trace_dir=trace_dir)
            try:
                setup_times.append(session.boot())
                if i + 1 == boots:
                    session.window(seconds)
            finally:
                rss = max(rss, session.stop())
        session.verify()
        self._account(session)
        return session, median(setup_times), rss

    def measure(self, seconds: float) -> Dict[str, float]:
        """Read metrics over every read of the window.

        A read that arrives during a tick waits for the service lock; over
        a whole window the ~100 ticks average out, where a shorter slice
        would depend on how many ticks it happened to overlap.
        """
        session, setup_s, rss = self._run("service", seconds, boots=3)
        reads = session.http_ms + session.binary_ms
        return {
            "throughput_per_s": len(reads) / session.read_s,
            "latency_p50_ms": self._pct("latency_p50_ms", reads, 50),
            "latency_p99_ms": self._pct("latency_p99_ms", reads, 99),
            "setup_s": setup_s,
            "peak_rss_mb": rss,
        }

    def trace(self, seconds: float) -> Dict[str, float]:
        """One window untraced (client-side metrics), one with the server traced."""
        trace_dir = harness.fresh_dir("trace-service")
        plain, _, _ = self._run("service-plain", seconds)
        traced, _, _ = self._run("service-traced", seconds, trace_dir=trace_dir)
        found = layers.summarize(tracing.load(str(trace_dir)))
        serve_ms = found.pop("serve_ms")
        pct = self._pct
        metrics: Dict[str, float] = dict(found)
        metrics.update({
            "service.checkpoint_bytes": getattr(traced, "checkpoint_bytes", 0),
            "obs.journal_bytes": (traced.dir / "journal.jsonl").stat().st_size,
            "service.staleness_max_rounds": plain.staleness_max,
            "server.http_overhead_p50_ms":
                pct("traced http reads", traced.http_ms, 50)
                - pct("server http serve", serve_ms["http"], 50),
            "server.binary_overhead_p50_ms":
                pct("traced binary reads", traced.binary_ms, 50)
                - pct("server binary serve", serve_ms["binary"], 50),
            "bench.read_http_p50_ms": pct("bench.read_http_p50_ms", plain.http_ms, 50),
            "bench.read_http_p99_ms": pct("bench.read_http_p99_ms", plain.http_ms, 99),
            "bench.read_binary_p50_ms": pct("bench.read_binary_p50_ms", plain.binary_ms, 50),
            "bench.read_binary_p99_ms": pct("bench.read_binary_p99_ms", plain.binary_ms, 99),
            "bench.round_p50_ms": pct("bench.round_p50_ms", plain.round_ms, 50),
            "bench.round_p90_ms": pct("bench.round_p90_ms", plain.round_ms, 90),
            "bench.writer_late_max_ms": max(plain.late_max_ms, traced.late_max_ms),
        })
        plain_reads = plain.http_ms + plain.binary_ms
        traced_reads = traced.http_ms + traced.binary_ms
        metrics["trace.overhead_ratio"] = (
            (sum(traced_reads) / len(traced_reads)) / (sum(plain_reads) / len(plain_reads))
        )
        return metrics
