"""Byte-level pins for the event writers: journal lines and log text.

The golden journals elsewhere only check the *readers* (validation,
summary, trace export).  These tests pin what the *writers* produce:
one fixed event sequence covering every schema event — profiled and
unprofiled ``chunk_done`` expansions, a batch opened by ``batch_start``
alone, a cache-hit batch and the service events — is sent through a
:class:`JournalReporter` on a fixed clock and through
:class:`LogProgress`, and both outputs must match byte for byte.
"""

from __future__ import annotations

import io
import os
import pathlib

from repro.analysis.obs_report import EVENT_FIELDS, read_journal, validate_journal
from repro.runtime import JournalReporter, LogProgress
from repro.runtime.trials import TrialResult

DATA = pathlib.Path(__file__).parent / "data"

A, B = "10.0.0.1:7700", "10.0.0.2:7700"

PROFILED = [
    TrialResult(
        1,
        980.0,
        1000.0,
        profile={
            "chunk": {
                "pid": 4242,
                "started": 1000.0,
                "elapsed": 0.5,
                "phases": {"restore": 0.125},
            },
            "started": 0.125,
            "elapsed": 0.25,
            "phases": {"estimation": 0.25},
        },
    ),
    TrialResult(
        2,
        1010.0,
        1000.0,
        stream=1,
        ok=False,
        profile={"started": 0.375, "elapsed": 0.125, "phases": {"estimation": 0.125}},
    ),
]
UNPROFILED = [TrialResult(3, 990.0, 1000.0), TrialResult(4, 1005.0, 1000.0)]

#: Every schema event with fields in journal key order.
EVENTS = [
    ("batch_meta", dict(kind="dynamic_probe", trials=4, tag="fig11", key="k1", group="g1")),
    ("batch_start", dict(total=4, workers=2)),
    ("snapshot_boundary", dict(target=-1, seconds=0.0, outcome="skipped")),
    ("snapshot_boundary", dict(target=2, seconds=0.25, outcome="computed")),
    ("snapshot_save_error", dict(error="read-only store")),
    ("chunk_start", dict(chunk=0, trials=2, boundary=-1)),
    ("chunk_start", dict(chunk=1, trials=2, boundary=2)),
    ("worker_connect", dict(host=A, pid=4242)),
    ("steal", dict(chunk=1, from_host=B, to_host=A)),
    ("chunk_done", dict(chunk=0, trials=2, results=PROFILED)),
    ("progress", dict(done=2, total=4)),
    ("heartbeat_miss", dict(host=B, misses=1, threshold=2)),
    ("fault_injected", dict(host=B, kind="kill_worker", detail="killed after 1 chunks")),
    ("worker_lost", dict(host=B, reason="no heartbeat after 2 probes")),
    ("chunk_migrated", dict(chunk=1, from_host=B, to_host=A)),
    ("partial_fallback", dict(done=2, total=4, reason="pool died")),
    ("chunk_done", dict(chunk=1, trials=2, results=UNPROFILED)),
    ("progress", dict(done=4, total=4)),
    ("batch_finish", dict(done=4, elapsed=1.5)),
    ("batch_start", dict(total=3, workers=1)),
    ("fallback", dict(reason="batch holds live objects")),
    ("chunk_start", dict(chunk=0, trials=3, boundary=None)),
    ("chunk_done", dict(chunk=0, trials=0, results=[])),
    ("batch_finish", dict(done=3, elapsed=0.5)),
    ("batch_meta", dict(kind="static_probe", trials=3, tag="static_probe")),
    ("cache_hit", dict(trials=3)),
    ("service_start", dict(families=["sample_collide"], size=1000, seed=7, round=0)),
    ("estimate_served", dict(families=["sample_collide"], round=3, staleness=1)),
    ("estimate_served", dict(families=["sample_collide"], round=3, staleness=None)),
    ("ingest_dropped", dict(dropped=5, queued=64)),
    ("snapshot_checkpoint", dict(round=4, path="svc/ckpt.json", bytes=2048, seconds=0.125)),
]

GOLDEN_LOG = """\
[trials] running 4 trials (2 workers)
[trials] snapshot save failed (results unaffected): read-only store
[trials] connected to worker 10.0.0.1:7700 (pid 4242)
[trials] 2/4 trials done
[trials] heartbeat miss 1/2 for worker 10.0.0.2:7700
[trials] fault injected on 10.0.0.2:7700: kill_worker (killed after 1 chunks)
[trials] lost worker 10.0.0.2:7700: no heartbeat after 2 probes
[trials] chunk 1 migrated 10.0.0.2:7700 -> 10.0.0.1:7700
[trials] pool failed after 2/4 trials; re-running the remaining 2 serially: pool died
[trials] 4/4 trials done
[trials] finished 4 trials in 1.5s
[trials] running 3 trials (serial)
[trials] falling back to serial execution: batch holds live objects
[trials] finished 3 trials in 0.5s
[trials] cache hit: 3 trials loaded from store
"""


def _drive(reporter):
    for event, fields in EVENTS:
        reporter.emit(event, **fields)


def _journal_text(monkeypatch):
    # The header carries the driver PID; pin it like the clock.
    monkeypatch.setattr(os, "getpid", lambda: 4242)
    stream = io.StringIO()
    ticks = iter(range(1000))
    reporter = JournalReporter(stream, clock=lambda: float(next(ticks)))
    _drive(reporter)
    return stream.getvalue()


class TestWriterBytes:
    def test_journal_bytes_match_golden(self, monkeypatch):
        golden = (DATA / "golden_emit_journal.jsonl").read_text(encoding="utf-8")
        assert _journal_text(monkeypatch) == golden

    def test_golden_covers_every_event_and_validates(self):
        events = read_journal(DATA / "golden_emit_journal.jsonl")
        assert validate_journal(events) == []
        kinds = {e["event"] for e in events}
        assert kinds == set(EVENT_FIELDS)
        assert {event for event, _ in EVENTS} == kinds - {"journal", "trial"}

    def test_log_text_matches_golden(self):
        stream = io.StringIO()
        _drive(LogProgress(stream=stream))
        assert stream.getvalue() == GOLDEN_LOG
