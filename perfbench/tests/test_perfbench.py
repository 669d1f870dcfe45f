"""Tests of the benchmark itself: statistics, writer hygiene, a tiny-size
smoke run of every workload, and the printed metric names.

Run from the repository root with ``python -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import pathlib
import re
import shutil
import subprocess
import time

import pytest

from perfbench import harness
from perfbench.stats import (
    percentile,
    self_time_by_name,
    self_times,
    supports_percentile,
    tail_percentile,
)

ROOT = pathlib.Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RUN = ["python3", "perfbench/run.py"]


# -- percentile rule -----------------------------------------------------


def test_percentile_interpolates_between_order_statistics():
    samples = [float(x) for x in range(1, 101)]  # 1..100
    assert percentile(samples, 50) == pytest.approx(50.5)
    assert percentile(samples, 90) == pytest.approx(90.1)
    assert percentile(samples, 0) == 1.0
    assert percentile(samples, 100) == 100.0
    assert percentile([7.0], 99) == 7.0


def test_percentile_needs_ten_samples_beyond_it():
    assert supports_percentile(1000, 99)
    assert not supports_percentile(999, 99)
    assert supports_percentile(100, 90)
    assert not supports_percentile(99, 90)
    assert supports_percentile(20, 50)
    assert not supports_percentile(19, 50)


def test_tail_percentile_reports_the_highest_supported_candidate():
    assert tail_percentile([1.0] * 19) is None
    assert tail_percentile([1.0] * 20)[0] == 50.0
    assert tail_percentile([1.0] * 100)[0] == 90.0
    assert tail_percentile([1.0] * 999)[0] == 90.0
    assert tail_percentile([1.0] * 1000)[0] == 99.0
    assert tail_percentile([1.0] * 10_000)[0] == 99.9
    p, value = tail_percentile([float(x) for x in range(1000)])
    assert (p, value) == (99.0, pytest.approx(989.01))


# -- self time -------------------------------------------------------------


def test_self_time_subtracts_direct_children_only():
    spans = [
        ("run", 0.0, 10.0, -1),
        ("estimate", 1.0, 4.0, 0),
        ("kernel", 2.0, 3.0, 1),  # grandchild: only its parent loses the time
        ("churn", 5.0, 6.0, 0),
    ]
    assert self_times(spans) == pytest.approx([6.0, 2.0, 1.0, 1.0])


def test_self_time_counts_overlapping_children_once_and_clips_them():
    spans = [
        ("parent", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),  # two threads working under one parent
        ("b", 2.0, 5.0, 0),
        ("late", 9.0, 12.0, 0),  # sticks out: only [9, 10] is inside
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 4.0 - 1.0)


def test_self_time_by_name_sums_every_span_of_a_name():
    spans = [
        ("tick", 0.0, 3.0, -1),
        ("churn", 0.5, 1.0, 0),
        ("tick", 5.0, 6.0, -1),
    ]
    assert self_time_by_name(spans) == pytest.approx({"tick": 3.5, "churn": 0.5})


# -- open-loop writer hygiene ----------------------------------------------


class _SlowClient:
    """Stands in for ServiceClient: every tick outlasts the writer's period."""

    def __init__(self, tick_s: float) -> None:
        self.tick_s = tick_s
        self.rounds = 0

    def ingest(self, events):
        return {"accepted": len(events), "dropped": 0}

    def tick(self):
        time.sleep(self.tick_s)
        self.rounds += 1
        return {"round": self.rounds}

    def estimate(self):
        return {"round": self.rounds, "estimates": {}}


def test_writer_that_falls_behind_fails_the_run():
    from perfbench.service import RATE, Session

    session = Session(seed=1, nodes=10, name="test-writer")
    session.client = _SlowClient(tick_s=2.5 / RATE)
    session.binary = "127.0.0.1:1"  # nothing listens: binary blocks fail fast
    try:
        with pytest.raises(harness.BenchError, match="fell behind"):
            session.window(seconds=3.0)
    finally:
        shutil.rmtree(harness.WORK, ignore_errors=True)
    assert session.behind
    assert session.late_max_ms > 1e3 / RATE


def test_writer_on_schedule_times_rounds_from_when_they_were_due():
    from perfbench.service import RATE, Session

    session = Session(seed=1, nodes=10, name="test-writer")
    session.client = _SlowClient(tick_s=0.01)
    try:
        session._writer(time.perf_counter(), seconds=4.0 / RATE)
    finally:
        shutil.rmtree(harness.WORK, ignore_errors=True)
    assert not session.behind
    assert len(session.round_ms) == 4
    assert all(ms >= 10.0 for ms in session.round_ms)
    assert session.late_max_ms < 1e3 / RATE


# -- BENCHMARK.json and the printed metrics ----------------------------------

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def test_benchmark_json_keeps_its_contract():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert SPEC["command"] == RUN
    assert 2 <= len(SPEC["workloads"]) <= 8
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(len(w["why"]) <= 200 for w in SPEC["workloads"])
    assert all(m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"] for m in SPEC["end_to_end"])}]
    from perfbench.run import WORKLOADS

    listed = [w["name"] for w in SPEC["workloads"]]
    assert listed == [name for name in WORKLOADS if name in listed]


def _run(args, cwd=ROOT, timeout=300):
    return subprocess.run(
        RUN + args, cwd=cwd, capture_output=True, text=True, timeout=timeout
    )


@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_smoke_run_prints_exactly_the_benchmark_metrics(trace):
    done = _run(["--workload", "all", "--size", "tiny", "--seed", "3",
                 "--seconds", "2", "--trace", str(trace)])
    assert done.returncode == 0, done.stderr
    final = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["correct"] and final["failed"] == 0 and final["attempted"] > 0
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    from perfbench.run import WORKLOADS

    for name in WORKLOADS:
        prefix = name + ":"
        printed = {
            k[len(prefix):]: v for k, v in final["metrics"].items() if k.startswith(prefix)
        }
        assert {k: v["unit"] for k, v in printed.items()} == wanted
        if not trace:
            assert all(v["value"] > 0 for v in printed.values())
    assert "failed/attempted:" in done.stdout
    assert '"nproc"' in done.stdout and "supersedes:" in done.stdout
    assert not harness.WORK.exists()


def test_single_workload_prints_the_contract_object_last(tmp_path):
    done = _run(["--workload", "fig11_sc_100k_serial", "--size", "tiny", "--seed", "4",
                 "--seconds", "1", "--trace", "0"])
    assert done.returncode == 0, done.stderr
    final = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(final["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(["--workload", "fig11_sc_100k_serial", "--seed", "1", "--seconds", "1",
                 "--trace", "0"], cwd=tmp_path, timeout=60)
    assert done.returncode != 0
    assert not done.stdout.strip().endswith("}")
