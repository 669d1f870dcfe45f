"""Structured observability for the trial runtime: phase profiling + journal.

Two halves, decoupled so the hot path stays unaffected by the telemetry
path (the progress/diagnostics split of the Mercury RPC runtime):

* **Worker side** — :func:`~repro.runtime.trials.run_chunk` installs a
  :class:`PhaseAccumulator` around every chunk; chunk runners wrap their
  sections in :func:`phase`, which sums ``perf_counter`` deltas per phase,
  chunk-wide or attributed to one ``(index, stream)`` trial.  The timings
  ride back on each result's ``profile`` field through the normal result
  channel (the pool's, or a cluster result frame) — no extra sockets,
  files or global state cross process boundaries.
* **Driver side** — :class:`JournalReporter` writes every event emitted
  through :mod:`repro.runtime.progress` as one JSON object per line.  The
  journal is append-only, so a crashed run leaves a readable prefix, and
  each line carries epoch time, the only clock comparable across worker
  processes.

The format is versioned (:data:`JOURNAL_SCHEMA_VERSION`), documented with
the phase taxonomy in ``docs/OBSERVABILITY.md`` and read back by
:mod:`repro.analysis.obs_report`.

Determinism: profiling only *observes* — it draws no randomness, mutates
no scenario state, and the ``profile`` field is excluded from result
equality and from stored artifacts, so results are bit-identical with or
without a journal attached.
"""

from __future__ import annotations

import json
import os
import threading
import time
from contextlib import contextmanager
from typing import Any, Dict, IO, Iterator, Optional, Sequence, Tuple, Union

from .progress import ProgressReporter

__all__ = [
    "JOURNAL_SCHEMA_VERSION",
    "PHASES",
    "JournalReporter",
    "PhaseAccumulator",
    "chunk_profiler",
    "phase",
]

#: Version stamped into every journal's header line.
JOURNAL_SCHEMA_VERSION = 1

#: The closed set of phase names chunk runners may record: ``boot`` (cold
#: construction), ``restore`` (from a hand-off snapshot), ``churn``,
#: ``estimation``, ``kernel`` (array-backend kernel work, nested inside and a
#: subset of ``estimation``) and ``serialize`` (snapshot capture/encoding).
PHASES: Tuple[str, ...] = ("boot", "restore", "churn", "estimation", "kernel", "serialize")


class PhaseAccumulator:
    """Collects phase timings for one ``run_chunk`` invocation.

    Durations are ``perf_counter`` deltas (monotonic, high resolution);
    the chunk's start is additionally captured as epoch time so driver-side
    consumers can place worker spans on a shared wall-clock timeline.
    """

    def __init__(self) -> None:
        self.started = time.time()
        self._t0 = time.perf_counter()
        self.chunk_phases: Dict[str, float] = {}
        self.trials: Dict[Tuple[int, int], Dict[str, Any]] = {}

    @contextmanager
    def measure(self, name: str, key: Optional[Tuple[int, int]] = None) -> Iterator[None]:
        """Time the enclosed block under phase ``name``.

        With ``key=(index, stream)`` the duration is attributed to that
        trial; without, it accrues to the chunk as a whole (boot, restore
        and churn are typically shared across a chunk's trials).
        """
        if name not in PHASES:
            raise ValueError(f"unknown phase {name!r}; expected one of {PHASES}")
        begin = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            delta = end - begin
            if key is None:
                self.chunk_phases[name] = self.chunk_phases.get(name, 0.0) + delta
            else:
                trial = self.trials.setdefault(key, {"started": begin - self._t0, "phases": {}})
                trial["phases"][name] = trial["phases"].get(name, 0.0) + delta
                trial["elapsed"] = end - self._t0 - trial["started"]

    def chunk_summary(self) -> Dict[str, Any]:
        """Chunk-level profile: pid, epoch start, elapsed, shared phases."""
        return {
            "pid": os.getpid(),
            "started": self.started,
            "elapsed": time.perf_counter() - self._t0,
            "phases": dict(self.chunk_phases),
        }


#: The accumulator installed by the currently-executing ``run_chunk``
#: (worker-process local; ``None`` outside a chunk).
_ACTIVE: Optional[PhaseAccumulator] = None


@contextmanager
def chunk_profiler() -> Iterator[PhaseAccumulator]:
    """Install a fresh :class:`PhaseAccumulator` for the enclosed chunk."""
    global _ACTIVE
    previous = _ACTIVE
    accumulator = PhaseAccumulator()
    _ACTIVE = accumulator
    try:
        yield accumulator
    finally:
        _ACTIVE = previous


@contextmanager
def phase(name: str, key: Optional[Tuple[int, int]] = None) -> Iterator[None]:
    """Record the enclosed block under phase ``name`` (no-op outside a chunk).

    Chunk runners call this without caring whether profiling is active;
    when no accumulator is installed the block runs untimed.
    """
    accumulator = _ACTIVE
    if accumulator is None:
        yield
    else:
        with accumulator.measure(name, key):
            yield


class JournalReporter(ProgressReporter):
    """Serialise every emitted event to an append-only JSONL run journal.

    Parameters
    ----------
    target:
        Path to the journal file (opened in append mode, so several runs
        may share one journal) or an already-open text stream.
    clock:
        Timestamp source; injectable for deterministic tests.

    Every line is one JSON object with at least ``ts`` (epoch seconds) and
    ``event``, followed by the emitted fields in call order.  The first
    line written by each reporter is a ``journal`` header carrying the
    schema version and the driver PID.  A ``batch_meta`` or ``batch_start``
    opens a batch scope and a ``cache_hit`` or ``batch_finish`` closes it;
    events inside share a ``batch`` sequence number.  ``chunk_done``
    expands into the chunk line plus one ``trial`` line per result.
    """

    def __init__(
        self,
        target: Union[str, "os.PathLike[str]", IO[str]],
        *,
        clock=time.time,
    ) -> None:
        if hasattr(target, "write"):
            self._stream: IO[str] = target  # type: ignore[assignment]
            self._owns_stream = False
        else:
            self._stream = open(os.fspath(target), "a", encoding="utf-8")
            self._owns_stream = True
        self._clock = clock
        self._batch = 0
        self._in_batch = False
        # Cluster batches journal from several threads at once (dispatch
        # threads, heartbeat monitors, in-process chaos workers); the lock
        # keeps each JSONL line atomic.
        self._write_lock = threading.Lock()
        self._emit("journal", schema=JOURNAL_SCHEMA_VERSION, pid=os.getpid())

    def _emit(self, event: str, **data: Any) -> None:
        """Write one journal line."""
        with self._write_lock:
            record: Dict[str, Any] = {"ts": float(self._clock()), "event": event}
            if self._in_batch:
                record["batch"] = self._batch
            record.update(data)
            self._stream.write(json.dumps(record, sort_keys=False) + "\n")
            self._stream.flush()

    def emit(self, event: str, **fields: Any) -> None:
        """Journal one event, maintaining the batch scope."""
        if event == "batch_meta" or (
            event in ("batch_start", "cache_hit") and not self._in_batch
        ):
            self._batch += 1
            self._in_batch = True
        if event == "chunk_done":
            self._chunk_done(**fields)
        else:
            self._emit(event, **fields)
        if event in ("cache_hit", "batch_finish"):
            self._in_batch = False

    def _chunk_done(self, chunk: int, trials: int, results: Sequence[Any]) -> None:
        """The chunk line plus one ``trial`` line per result.

        Worker-side profiles (pid, epoch start, phase timings) are folded
        in when present; trial start offsets are rebased onto the worker's
        epoch start so all journal timestamps share one timeline.
        """
        profiles = [getattr(result, "profile", None) or {} for result in results]
        summary = next((p["chunk"] for p in profiles if "chunk" in p), {})
        pid, chunk_started = summary.get("pid"), summary.get("started")
        self._emit(
            "chunk_done",
            chunk=chunk,
            trials=trials,
            pid=pid,
            started=chunk_started,
            elapsed=summary.get("elapsed"),
            phases=summary.get("phases") or {},
        )
        for result, profile in zip(results, profiles):
            started = profile.get("started")
            if started is not None and chunk_started is not None:
                started = chunk_started + started
            self._emit(
                "trial",
                chunk=chunk,
                index=getattr(result, "index", None),
                stream=getattr(result, "stream", 0),
                ok=getattr(result, "ok", True),
                pid=pid,
                started=started,
                elapsed=profile.get("elapsed"),
                phases=profile.get("phases") or {},
            )

    def close(self) -> None:
        """Close the underlying file if this reporter opened it."""
        if self._owns_stream:
            self._stream.close()

    def __enter__(self) -> "JournalReporter":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()
