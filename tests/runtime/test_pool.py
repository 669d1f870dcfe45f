"""Tests for the trial executor: chunking, parallel dispatch, worker loss."""

from __future__ import annotations

import json
import threading

import pytest

import chaos
import repro.runtime.cluster as cluster_module
from repro.churn.models import shrinking_trace
from repro.runtime import trace_to_payload
from repro.runtime.cluster import chunk_specs, plan_chunks
from repro.runtime.pool import TrialExecutor
from repro.runtime.snapshots import SnapshotBackbone
from repro.runtime.progress import TelemetryCollector
from repro.runtime.trials import EstimatorSpec, OverlaySpec, TrialSpec, run_chunk


def _static_specs(count=8, seed=31, n=300, l=20):
    overlay = OverlaySpec.heterogeneous(n)
    estimator = EstimatorSpec.sample_collide(l=l)
    return [
        TrialSpec("static_probe", seed, i, overlay=overlay, estimator=estimator)
        for i in range(1, count + 1)
    ]


class TestChunking:
    def test_chunks_preserve_order_and_cover(self):
        specs = _static_specs(7)
        chunks = chunk_specs(specs, 3)
        assert [len(c) for c in chunks] == [3, 3, 1]
        assert [s.index for c in chunks for s in c] == list(range(1, 8))

    def test_bad_chunk_size(self):
        with pytest.raises(ValueError):
            chunk_specs(_static_specs(3), 0)
        with pytest.raises(ValueError):
            TrialExecutor(chunk_size=0)


class TestExecution:
    def test_empty_batch(self):
        assert TrialExecutor().run([]) == []

    def test_serial_vs_parallel_identical(self):
        """The headline determinism guarantee: same seeds → identical
        series at any worker count."""
        specs = _static_specs(10)
        serial = TrialExecutor(workers=1).run(specs)
        parallel = TrialExecutor(workers=3, chunk_size=2).run(specs)
        assert [(r.index, r.value, r.true_size) for r in serial] == [
            (r.index, r.value, r.true_size) for r in parallel
        ]

    def test_results_sorted_by_index(self):
        results = TrialExecutor(workers=2, chunk_size=3).run(_static_specs(9))
        assert [r.index for r in results] == list(range(1, 10))

    def test_progress_callbacks_fire(self):
        telemetry = TelemetryCollector()
        TrialExecutor(workers=2, chunk_size=2, progress=telemetry).run(
            _static_specs(6)
        )
        assert telemetry.count("batch_start") == 1
        assert telemetry.count("batch_finish") == 1
        assert telemetry.count("progress") >= 1
        # Both loopback workers served chunks; nothing fell back.
        assert telemetry.count("worker_connect") == 2
        assert telemetry.count("partial_fallback") == 0


class TestWorkerDeath:
    """A pool worker is a loopback host: its death migrates, never fails."""

    def test_worker_killed_mid_batch(self, tmp_path, monkeypatch):
        specs = _static_specs(12)
        serial = run_chunk(list(specs))
        log = tmp_path / "executions.jsonl"
        real_run_chunk = cluster_module.run_chunk

        def logged_run_chunk(chunk, snapshot=None):
            results = real_run_chunk(chunk, snapshot)
            with open(log, "a", encoding="utf-8") as fh:
                fh.write(json.dumps([s.index for s in chunk]) + "\n")
            return results

        # Forked workers inherit the wrapper: the log sees every chunk
        # computed in any process, including the one about to be killed.
        monkeypatch.setattr(cluster_module, "run_chunk", logged_run_chunk)
        killer = chaos.WorkerKiller(victims=1)
        results = TrialExecutor(workers=2, chunk_size=2, progress=killer).run(specs)

        assert len(killer.killed) == 1
        assert chaos.results_key(results) == chaos.results_key(serial)
        dones = [e["chunk"] for e in killer.events if e["event"] == "chunk_done"]
        assert sorted(dones) == list(range(6))
        # Chunks completed before the kill ran exactly once; only the
        # dead worker's unfinished work moved elsewhere.
        indices = [[s.index for s in chunk] for chunk in plan_chunks(specs, 2, 2)]
        runs = [json.loads(line) for line in log.read_text().splitlines()]
        assert killer.done_before_kill
        for chunk in killer.done_before_kill:
            assert runs.count(indices[chunk]) == 1
        migrated = {e["chunk"] for e in killer.events if e["event"] == "chunk_migrated"}
        assert not migrated & set(killer.done_before_kill)
        later = [
            e["results"][0].profile["chunk"]["pid"]
            for e in killer.events
            if e["event"] == "chunk_done" and e["chunk"] not in killer.done_before_kill
        ]
        assert killer.killed[0] not in later


class TestPipelineFailure:
    def test_backbone_error_fails_the_batch(self, monkeypatch):
        def broken(self, target):
            if target > 0:
                raise RuntimeError("backbone broke")
            return None

        monkeypatch.setattr(SnapshotBackbone, "payload_at", broken)
        trace = shrinking_trace(300, 0.5, start=1.0, end=8.0, steps=7)
        specs = [
            TrialSpec(
                "multi_probe",
                17,
                i,
                overlay=OverlaySpec.heterogeneous(300),
                estimator=EstimatorSpec.sample_collide(l=10, timer=5.0),
                params={
                    "trace": trace_to_payload(trace),
                    "time_per_estimation": 1.0,
                    "max_degree": 10,
                },
            )
            for i in range(8)
        ]
        box = {}

        def drive():
            try:
                TrialExecutor(workers=2, chunk_size=2).run(specs)
            except BaseException as exc:  # surfaced below
                box["error"] = exc

        # Hosts waiting for a payload that never comes must be released.
        driver = threading.Thread(target=drive, daemon=True)
        driver.start()
        driver.join(timeout=60.0)
        assert not driver.is_alive()
        assert "backbone broke" in str(box["error"])
