"""Span and count recording around the program's public layer entry points.

A traced benchmark run starts every program process through
``python -m perfbench.traced_cli`` instead of ``python -m
repro.experiments.cli``.  That launcher calls :func:`install`, which
wraps the public functions and methods of each layer (and a few
dispatch hooks of the batch command) so each call records a span — name,
start, end and the enclosing span of the same thread — and, where the
layer does countable work, a count.  Nothing in ``src/`` changes: the
wrappers are installed from this file, in memory, in the process being
traced.

Spans and counts stay in memory.  A process writes them as one JSON line
to ``$PERFBENCH_TRACE_DIR/spans-<pid>.jsonl`` when it exits; a forked
pool worker, which leaves through ``os._exit``, writes whenever its
outermost span closes.  :func:`load` reads every file back for the
benchmark process.
"""

from __future__ import annotations

import atexit
import functools
import json
import os
import pickle
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional

TRACE_DIR_ENV = "PERFBENCH_TRACE_DIR"


class Recorder:
    """Per-process store of spans, counts and one-off time marks."""

    def __init__(self, out_dir: str, role: str) -> None:
        self.out_dir = out_dir
        self.role = role
        self.owner_pid = os.getpid()
        self._lock = threading.Lock()
        self._reset()

    def _reset(self) -> None:
        self.pid = os.getpid()
        self.spans: List[List[Any]] = []
        self.counts: Dict[str, float] = {}
        self.marks: List[List[Any]] = []
        self._local = threading.local()

    def after_fork(self) -> None:
        """Forget what the parent recorded; the child writes its own file."""
        self._lock = threading.Lock()
        self._reset()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else -1
        with self._lock:
            index = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, parent])
        stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack().pop()

    def flush_if_worker(self) -> None:
        """Write out in a forked worker once its outermost span has closed."""
        if self.pid != self.owner_pid and not self._stack():
            self.flush()

    def add(self, name: str, value: float = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + value

    def mark(self, name: str) -> None:
        with self._lock:
            self.marks.append([name, time.perf_counter()])

    def flush(self) -> None:
        """Append everything recorded so far to this process's file."""
        with self._lock:
            record = {
                "pid": self.pid,
                "role": self.role,
                "spans": [s for s in self.spans if s[2] is not None],
                "counts": self.counts,
                "marks": self.marks,
            }
            self.spans, self.counts, self.marks = [], {}, []
        path = os.path.join(self.out_dir, f"spans-{self.pid}.jsonl")
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")


REC: Optional[Recorder] = None


class _CountingSocket:
    """Socket stand-in that counts the bytes a framing helper moves."""

    def __init__(self, sock: Any, prefix: str) -> None:
        self._sock = sock
        self._prefix = prefix

    def sendall(self, data: bytes) -> None:
        REC.add(f"{self._prefix}bytes_sent", len(data))
        self._sock.sendall(data)

    def recv(self, size: int) -> bytes:
        data = self._sock.recv(size)
        REC.add(f"{self._prefix}bytes_recv", len(data))
        return data

    def __getattr__(self, name: str) -> Any:
        return getattr(self._sock, name)


def _wrap(fn: Callable, span: str, after: Optional[Callable] = None,
          before: Optional[Callable] = None) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        if before is not None:
            args, kwargs = before(args, kwargs)
        index = REC.begin(span)
        try:
            try:
                result = fn(*args, **kwargs)
            finally:
                REC.end(index)
            if after is not None:
                after(result, args)
            return result
        finally:
            REC.flush_if_worker()

    return wrapper


def _patch_function(module: Any, attr: str, wrapper_factory: Callable) -> None:
    """Replace ``module.attr`` and every ``from module import attr`` binding."""
    original = getattr(module, attr)
    wrapper = wrapper_factory(original)
    for name, mod in list(sys.modules.items()):
        if not name.startswith("repro") or mod is None:
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, wrapper)


def _patch_method(cls: type, attr: str, wrapper_factory: Callable) -> None:
    setattr(cls, attr, wrapper_factory(getattr(cls, attr)))


# -- count hooks (run after the wrapped call returns) -------------------


def _count_churn(result: Any, _args: Any) -> None:
    joins, leaves = result
    REC.add("churn.events", joins + leaves)


def _count_estimate(result: Any, _args: Any) -> None:
    REC.add("core.estimates")
    REC.add("core.messages", int(result.messages))


def _count_chunk(results: Any, _args: Any) -> None:
    for result in results:
        profile = result.profile or {}
        for phase, seconds in profile.get("phases", {}).items():
            REC.add(f"trials.{phase}_s", seconds)
        for phase, seconds in (profile.get("chunk") or {}).get("phases", {}).items():
            REC.add(f"trials.{phase}_s", seconds)


def _count_boundary(payload: Any, _args: Any) -> None:
    REC.add("snapshots.boundaries")
    if payload is not None:
        REC.add("snapshots.bytes", len(pickle.dumps(payload, pickle.HIGHEST_PROTOCOL)))


def _count_checkpoint(path: Any, _args: Any) -> None:
    REC.add("service.checkpoint_bytes", os.path.getsize(path))


# -- before-call hooks (may replace the arguments) ------------------------


def _counting(name: str) -> Callable:
    def before(args: Any, kwargs: Any):
        REC.add(name)
        return args, kwargs

    return before


def _marking(name: str) -> Callable:
    def before(args: Any, kwargs: Any):
        REC.mark(name)
        return args, kwargs

    return before


def _frame_counter(prefix: str, frames_key: Optional[str] = None, mark_chunks: bool = False):
    """Count the frame (when ``frames_key`` is given) and its bytes on the socket."""

    def before(args: Any, kwargs: Any):
        if frames_key is not None:
            REC.add(frames_key)
        if mark_chunks and len(args) > 1 and args[1].get("type") == "chunk":
            REC.mark("runtime.dispatch")
        return (_CountingSocket(args[0], prefix),) + tuple(args[1:]), kwargs

    return before


def install(out_dir: str, role: str) -> None:
    """Wrap every instrumented entry point in this process."""
    global REC
    REC = Recorder(out_dir, role)
    os.register_at_fork(after_in_child=REC.after_fork)
    atexit.register(REC.flush)

    import concurrent.futures

    import repro.experiments.cli  # noqa: F401 - loads the runtime and service
    from repro.churn import scheduler
    from repro.core import aggregation, base
    from repro.overlay import builders, graph
    from repro.runtime import cluster, obs, pool, store, trials
    from repro.service import core as service_core
    from repro.service import server

    def w(span, after=None, before=None):
        return lambda fn: _wrap(fn, span, after=after, before=before)

    for name in ("heterogeneous_random", "homogeneous_random", "scale_free",
                 "erdos_renyi", "ring_lattice"):
        _patch_function(builders, name, w("overlay.build"))
    _patch_method(graph.OverlayGraph, "to_array", w("overlay.to_array"))
    _patch_method(scheduler.ChurnScheduler, "advance_to",
                  w("churn.advance", after=_count_churn))

    pending = list(base.SizeEstimator.__subclasses__())
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if "estimate" in cls.__dict__:
            _patch_method(cls, "estimate", w("core.estimate", after=_count_estimate))
    _patch_method(aggregation.AggregationMonitor, "on_round", w("core.aggregation_step"))

    _patch_function(trials, "run_chunk", w("trials.run_chunk", after=_count_chunk))
    _patch_method(pool.SnapshotBackbone, "payload_at",
                  w("snapshots.boundary", after=_count_boundary))
    for cls in (pool.TrialExecutor, cluster.ClusterExecutor):
        _patch_method(cls, "run", w("runtime.run", before=_marking("runtime.run_start")))
    _patch_method(concurrent.futures.ProcessPoolExecutor, "submit",
                  w("runtime.submit", before=_marking("runtime.dispatch")))
    _patch_function(cluster, "send_message", w(
        "cluster.send", before=_frame_counter("cluster.", "cluster.frames_sent", True)))
    _patch_function(cluster, "recv_message", w(
        "cluster.recv", before=_frame_counter("cluster.", "cluster.frames_recv")))

    _patch_method(obs.JournalReporter, "_emit",
                  w("obs.emit", before=_counting("obs.journal_events")))
    for name in ("save", "save_snapshot"):
        _patch_method(store.ResultsStore, name, w("store.save"))

    svc = service_core.EstimationService
    _patch_method(svc, "tick", w("service.tick"))
    _patch_method(svc, "ingest", w("service.ingest"))
    _patch_method(svc, "serve_estimate", w("service.serve_estimate"))
    _patch_method(svc, "checkpoint", w("service.checkpoint", after=_count_checkpoint))
    _patch_function(server, "_dispatch", w("server.dispatch"))
    _patch_method(server._ServiceHandler, "do_GET", w("server.http_request"))
    _patch_method(server._ServiceHandler, "do_POST", w("server.http_request"))
    _patch_method(server._ServiceHandler, "handle",
                  w("server.http_connection", before=_counting("server.http_connections")))
    _patch_method(server.ServiceServer, "_serve_binary", w("server.binary_connection"))
    for name in ("send_frame", "recv_frame"):
        _patch_function(server, name, w(
            f"server.{name}", before=_frame_counter("server.frame_")))


def load(out_dir: str) -> List[Dict[str, Any]]:
    """Every record written under ``out_dir``, in file order."""
    records = []
    for entry in sorted(os.listdir(out_dir)):
        if entry.startswith("spans-") and entry.endswith(".jsonl"):
            with open(os.path.join(out_dir, entry), encoding="utf-8") as fh:
                records.extend(json.loads(line) for line in fh if line.strip())
    return records
