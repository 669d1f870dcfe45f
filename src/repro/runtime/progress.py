"""One event pipeline: a single ``emit`` and a single schema table.

Every producer (pool and cluster executors, :func:`run_trials`, the
estimation service) reports through one method, e.g.
``progress.emit("chunk_start", chunk=i, trials=n, boundary=target)``, with
keywords in journal key order.  :data:`EVENT_FIELDS` is the one description
every consumer derives from: required fields (``obs validate``,
:class:`TelemetryCollector`), the :class:`LogProgress` line (stderr, so
CSV/chart stdout stays clean) and the ``obs trace``/``obs summary`` rows.
Adding an event is one schema row plus the producer's ``emit`` call.
"""

from __future__ import annotations

import sys
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, TextIO, Tuple, Union

__all__ = [
    "EVENT_FIELDS",
    "Event",
    "LogProgress",
    "NullProgress",
    "ProgressReporter",
    "TeeProgress",
    "TelemetryCollector",
]


class Event(NamedTuple):
    """One row of :data:`EVENT_FIELDS`.

    ``fields``: required journal fields (beyond ``ts``).  ``log``: the
    :class:`LogProgress` line, a ``str.format`` template or a callable over
    the fields.  ``instant``: label of the ``obs trace`` marker, whose args
    are ``args`` (``"name"`` or ``"name=field"``; default ``fields``).
    ``counter``: ``(line, label)`` of the ``obs summary`` count.
    """

    fields: Tuple[str, ...]
    log: Union[None, str, Callable[..., str]] = None
    instant: Optional[str] = None
    args: Optional[Tuple[str, ...]] = None
    counter: Optional[Tuple[str, str]] = None


def _running(total: int, workers: int) -> str:
    mode = f"{workers} workers" if workers > 1 else "serial"
    return f"running {total} trials ({mode})"


def _partial(done: int, total: int, reason: str) -> str:
    return (
        f"pool failed after {done}/{total} trials; "
        f"re-running the remaining {total - done} serially: {reason}"
    )


#: The event schema.  ``batch`` is added by the journal writer itself.
EVENT_FIELDS: Dict[str, Event] = {
    "journal": Event(("schema", "pid")),
    "batch_meta": Event(("batch", "kind", "trials", "tag")),
    "batch_start": Event(("batch", "total", "workers"), _running),
    "progress": Event(("done", "total"), "{done}/{total} trials done"),
    "cache_hit": Event(("trials",), "cache hit: {trials} trials loaded from store", "cache hit"),
    # Written only by older versions, which ran live-object batches
    # serially; kept so their journals still validate.
    "fallback": Event(("reason",), "falling back to serial execution: {reason}",
                      "serial fallback", counter=("runtime", "serial fallbacks")),
    "partial_fallback": Event(("done", "total", "reason"), _partial, "partial fallback",
                              counter=("runtime", "partial fallbacks")),
    "chunk_start": Event(("chunk", "trials")),
    "chunk_done": Event(("chunk", "trials")),
    "trial": Event(("chunk", "index", "stream")),
    "snapshot_boundary": Event(("target", "seconds", "outcome")),
    "snapshot_save_error": Event(
        ("error",), "snapshot save failed (results unaffected): {error}", "snapshot save error",
        counter=("runtime", "snapshot save errors")),
    "batch_finish": Event(("done", "elapsed"), "finished {done} trials in {elapsed:.1f}s"),
    # Cluster lifecycle (repro.runtime.cluster, docs/DISTRIBUTED.md).
    "worker_connect": Event(("host", "pid"), "connected to worker {host} (pid {pid})",
                            "worker connect {host}", ("host", "worker_pid=pid")),
    "worker_lost": Event(("host", "reason"), "lost worker {host}: {reason}", "worker lost {host}",
                         counter=("cluster", "workers lost")),
    "chunk_migrated": Event(("chunk", "from_host", "to_host"),
                            "chunk {chunk} migrated {from_host} -> {to_host}",
                            "chunk {chunk} migrated", counter=("cluster", "chunks migrated")),
    "steal": Event(("chunk", "from_host", "to_host"), instant="chunk {chunk} stolen",
                   counter=("cluster", "steals")),
    # Liveness + chaos harness (heartbeat monitor, fault injection).
    "heartbeat_miss": Event(("host", "misses", "threshold"),
                            "heartbeat miss {misses}/{threshold} for worker {host}",
                            "heartbeat miss {host}", counter=("cluster", "heartbeat misses")),
    "fault_injected": Event(("host", "kind"), "fault injected on {host}: {kind} ({detail})",
                            "fault {kind} on {host}", ("host", "fault=kind", "detail"),
                            counter=("cluster", "faults injected")),
    # Service lifecycle (repro.service, docs/SERVICE.md).
    "service_start": Event(("families", "size", "seed", "round")),
    "estimate_served": Event(("families", "round", "staleness")),
    "ingest_dropped": Event(("dropped", "queued")),
    "snapshot_checkpoint": Event(("round", "path", "bytes", "seconds")),
}


class ProgressReporter:
    """The reporting protocol: one :meth:`emit` per event."""

    def emit(self, event: str, **fields: Any) -> None:
        """Report ``event`` (a key of :data:`EVENT_FIELDS`) with its fields."""


class NullProgress(ProgressReporter):
    """The do-nothing default."""


class LogProgress(ProgressReporter):
    """Human-readable one-line progress on a text stream."""

    def __init__(self, label: str = "trials", stream: Optional[TextIO] = None) -> None:
        self.label = label
        self.stream = stream if stream is not None else sys.stderr

    def emit(self, event: str, **fields: Any) -> None:
        """Write the event's ``log`` line, if its schema row has one."""
        log = EVENT_FIELDS[event].log
        if log is None:
            return
        line = log.format(**fields) if isinstance(log, str) else log(**fields)
        self.stream.write(f"[{self.label}] {line}\n")
        self.stream.flush()


class TelemetryCollector(ProgressReporter):
    """Records every event as a dict, validated against the schema.

    An unknown event or a missing required field raises
    :class:`ValueError`, so every test that runs with telemetry checks
    its producers against :data:`EVENT_FIELDS`.
    """

    def __init__(self) -> None:
        self.events: List[Dict[str, Any]] = []

    def emit(self, event: str, **fields: Any) -> None:
        """Validate and record one event."""
        if event not in EVENT_FIELDS:
            raise ValueError(f"unknown event {event!r}")
        missing = [f for f in EVENT_FIELDS[event].fields if f not in fields and f != "batch"]
        if missing:
            raise ValueError(f"{event} event missing {missing}")
        self.events.append({"event": event, **fields})

    def count(self, kind: str) -> int:
        """Number of recorded events of ``kind``."""
        return sum(1 for ev in self.events if ev["event"] == kind)


class TeeProgress(ProgressReporter):
    """Fan every event out to several reporters (e.g. log + journal)."""

    def __init__(self, reporters: Sequence[ProgressReporter]) -> None:
        self.reporters = list(reporters)

    def emit(self, event: str, **fields: Any) -> None:
        """Forward to every reporter."""
        for reporter in self.reporters:
            reporter.emit(event, **fields)
