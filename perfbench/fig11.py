"""The three fig11 workloads: one paper-scale batch run serially, on a
local process pool, and on two loopback cluster workers.

Each batch is ``repro-experiment run fig11 --scale paper --graph-backend
array --seed S``: 300 Sample & Collide trials (3 streams x 100 steps) on
a 100k-node overlay shrinking by 50%.  Every batch is checked:

* the command exits 0 and writes ``fig11.csv`` with one finite estimate
  per trial (a NaN estimate is a trial that failed);
* the mean of |estimate / true live size - 1| is within
  :data:`ERROR_TOLERANCE`;
* the CSV is byte-identical to the first batch of the run, and to the
  serial workload's CSV when that ran with the same seed in the same
  invocation (the determinism contract);
* with a journal, every ``trial`` event is ``ok`` and the journal passes
  ``repro-experiment obs validate``; on the cluster, no batch is a cache
  hit and the store holds the batch's artifact.

A batch whose checks fail counts all its trials as failed.
"""

from __future__ import annotations

import csv
import io
import json
import math
import pathlib
import time
from typing import Any, Dict, List, Optional

from perfbench import harness, layers, tracing
from perfbench.stats import median

#: Largest accepted mean relative error of the S&C oneShot estimates.
#: Paper-scale runs sit near 0.10 (a few walks return the degenerate
#: estimate 1, which counts as error ~1).
ERROR_TOLERANCE = 0.25

#: Scale preset per benchmark size; "tiny" is for the benchmark's own tests.
SCALES = {"paper": "paper", "tiny": "small"}

def _csv_check(data: bytes) -> Dict[str, float]:
    rows = list(csv.DictReader(io.StringIO(data.decode("utf-8"))))
    true = {r["x"]: float(r["y"]) for r in rows if r["curve"] == "Real network size"}
    estimates = [(r["x"], float(r["y"])) for r in rows if r["curve"].startswith("Estimation")]
    finite = [(x, y) for x, y in estimates if math.isfinite(y)]
    errors = [abs(y / true[x] - 1.0) for x, y in finite if true.get(x)]
    return {
        "trials": len(estimates),
        "failed": len(estimates) - len(finite),
        "mean_error": sum(errors) / len(errors) if errors else math.inf,
    }


def _journal_check(path: pathlib.Path) -> Dict[str, int]:
    out = {"trial_events": 0, "not_ok": 0, "cache_hits": 0, "steals": 0, "migrations": 0}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            event = json.loads(line)
            kind = event.get("event")
            if kind == "trial":
                out["trial_events"] += 1
                out["not_ok"] += 0 if event.get("ok", True) else 1
            elif kind == "cache_hit":
                out["cache_hits"] += 1
            elif kind == "steal":
                out["steals"] += 1
            elif kind == "chunk_migrated":
                out["migrations"] += 1
    return out


class Fig11:
    """One fig11 workload in one of the three execution modes."""

    def __init__(self, mode: str, seed: int, size: str = "paper",
                 serial_csv: Optional[Dict[int, bytes]] = None) -> None:
        """``serial_csv`` maps seed to serial CSV bytes, shared by the
        workloads of one invocation for the cross-mode determinism check."""
        if mode not in ("serial", "pool2", "cluster2"):
            raise ValueError(f"unknown fig11 mode {mode!r}")
        self.mode = mode
        self.serial_csv = {} if serial_csv is None else serial_csv
        self.seed = seed
        self.scale = SCALES[size]
        self.workers: List[harness.Program] = []
        self.hosts = ""
        self.checks: List[str] = []
        self.notes: List[str] = []
        self.attempted = 0
        self.failed = 0
        self.peak_rss_mb = 0.0
        self.first_csv: Optional[bytes] = None
        self.validated = False

    # -- set-up ----------------------------------------------------------

    def _start_workers(self, traced_dir: Optional[pathlib.Path] = None) -> float:
        """Launch two ``worker serve`` hosts; seconds until both print their address."""
        self._stop_workers()
        began = time.perf_counter()
        self.workers = [
            harness.Program(
                harness.cli(["worker", "serve", "--bind", "127.0.0.1:0"],
                            traced=traced_dir is not None),
                trace_dir=traced_dir,
            )
            for _ in range(2)
        ]
        addresses = [w.read_value("REPRO_WORKER_ADDR=") for w in self.workers]
        elapsed = time.perf_counter() - began
        self.hosts = ",".join(addresses)
        return elapsed

    def _stop_workers(self) -> None:
        for worker in self.workers:
            worker.stop()
            self.peak_rss_mb = max(self.peak_rss_mb, worker.peak_rss_mb)
        self.workers = []

    def setup(self, repeats: int = 3) -> float:
        """Median set-up time over ``repeats`` launches.

        Cluster: launch until both workers print ``REPRO_WORKER_ADDR=``.
        Serial and pool: launch of the CLI until it has loaded and
        answered (``repro-experiment list``), the fixed cost every batch
        command pays before it starts work.
        """
        times = []
        for _ in range(repeats):
            if self.mode == "cluster2":
                times.append(self._start_workers())
            else:
                times.append(harness.run_to_end(harness.cli(["list"])).wall)
        return median(times)

    # -- one batch -------------------------------------------------------

    def batch(self, number: int, trace_dir: Optional[pathlib.Path] = None) -> Dict[str, Any]:
        """Run one batch command, check its outputs, return its measurements."""
        out = harness.fresh_dir(f"fig11-{self.mode}-{number}")
        args = [
            "run", "fig11", "--scale", self.scale, "--graph-backend", "array",
            "--seed", str(self.seed), "--quiet", "--csv-dir", str(out),
        ]
        journal = out / "journal.jsonl"
        store = out / "store"
        if self.mode == "serial":
            args += ["--workers", "1"]
        elif self.mode == "pool2":
            args += ["--workers", "2", "--journal", str(journal)]
        else:
            args += ["--hosts", self.hosts, "--journal", str(journal), "--cache-dir", str(store)]
        program = harness.run_to_end(
            harness.cli(args, traced=trace_dir is not None), trace_dir=trace_dir
        )
        self.peak_rss_mb = max(self.peak_rss_mb, program.peak_rss_mb)

        data = (out / "fig11.csv").read_bytes()
        found = _csv_check(data)
        problems = []
        if found["failed"]:
            problems.append(f"{found['failed']} trials without an estimate")
        if not found["mean_error"] <= ERROR_TOLERANCE:
            problems.append(
                f"mean |estimate/true - 1| = {found['mean_error']:.3f} > {ERROR_TOLERANCE}"
            )
        if self.first_csv is None:
            self.first_csv = data
        elif data != self.first_csv:
            problems.append("CSV differs from the run's first batch")
        if self.mode == "serial":
            self.serial_csv.setdefault(self.seed, data)
        elif self.seed in self.serial_csv and data != self.serial_csv[self.seed]:
            problems.append("CSV differs from the serial run with the same seed")
        info: Dict[str, Any] = {"wall": program.wall, "trials": found["trials"]}
        if self.mode != "serial":
            events = _journal_check(journal)
            info.update(events)
            info["journal_bytes"] = journal.stat().st_size
            if events["trial_events"] != found["trials"] or events["not_ok"]:
                problems.append(
                    f"journal has {events['trial_events']} trial events, "
                    f"{events['not_ok']} not ok"
                )
            if not self.validated:
                harness.run_to_end(harness.cli(["obs", "validate", str(journal)]))
                self.validated = True
        if self.mode == "cluster2":
            info["store_bytes"] = harness.dir_bytes(store)
            if info["cache_hits"]:
                problems.append("batch was served from the results store")
            if not any(store.rglob("*.json")):
                problems.append("results store holds no artifact")
        self.attempted += found["trials"]
        self.failed += found["trials"] if problems else 0
        self.checks.extend(problems)
        return info

    # -- whole runs ------------------------------------------------------

    def measure(self, seconds: float) -> Dict[str, float]:
        """Untraced run: set-up, then batches until ``seconds`` have passed."""
        setup_s = self.setup()
        try:
            began = time.perf_counter()
            walls = []
            number = 0
            while True:
                number += 1
                info = self.batch(number)
                walls.append(info["wall"])
                if time.perf_counter() - began >= seconds:
                    break
        finally:
            self._stop_workers()
        per_batch = self.attempted / len(walls)
        rates = [per_batch / wall for wall in walls]
        walls_ms = [wall * 1e3 for wall in walls]
        return {
            "throughput_per_s": median(rates),
            "latency_p50_ms": median(walls_ms),
            # A run holds far fewer batches than the 1000 a p99 needs: the
            # slowest batch stands in for the tail.
            "latency_p99_ms": max(walls_ms),
            "setup_s": setup_s,
            "peak_rss_mb": self.peak_rss_mb,
        }

    def trace(self, seconds: float) -> Dict[str, float]:
        """Traced run: one untraced batch, then one batch with every process traced.

        ``seconds`` is not used: the two batches set the run length.
        """
        trace_dir = harness.fresh_dir(f"trace-{self.mode}")
        try:
            if self.mode == "cluster2":
                self._start_workers()
            plain = self.batch(1)
            if self.mode == "cluster2":
                self._start_workers(traced_dir=trace_dir)
            traced = self.batch(2, trace_dir=trace_dir)
        finally:
            self._stop_workers()
        metrics = layers.summarize(tracing.load(str(trace_dir)))
        metrics.pop("serve_ms")
        metrics["obs.journal_bytes"] = traced.get("journal_bytes", 0)
        metrics["store.bytes"] = traced.get("store_bytes", 0)
        metrics["cluster.steals"] = traced.get("steals", 0)
        metrics["cluster.migrations"] = traced.get("migrations", 0)
        metrics["trace.overhead_ratio"] = traced["wall"] / plain["wall"]
        return metrics
