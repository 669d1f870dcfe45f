"""Per-layer metrics computed from the spans and counts a traced run records."""

from __future__ import annotations

from typing import Any, Dict, List, Sequence

from perfbench.stats import percentile, self_time_by_name

#: Metric -> span name whose summed self time it reports (seconds).
SELF_TIME = {
    "overlay.build_s": "overlay.build",
    "overlay.to_array_s": "overlay.to_array",
    "churn.advance_s": "churn.advance",
    "core.estimate_s": "core.estimate",
    "core.aggregation_step_s": "core.aggregation_step",
    "snapshots.boundary_s": "snapshots.boundary",
    "cluster.send_s": "cluster.send",
    "cluster.recv_wait_s": "cluster.recv",
    "obs.emit_s": "obs.emit",
    "store.save_s": "store.save",
    "service.tick_s": "service.tick",
    "service.ingest_s": "service.ingest",
    "service.checkpoint_s": "service.checkpoint",
}

#: Metrics that are counts (or program-reported seconds) summed over processes.
COUNTED = (
    "churn.events",
    "core.estimates",
    "core.messages",
    "trials.boot_s",
    "trials.restore_s",
    "trials.churn_s",
    "trials.estimation_s",
    "trials.kernel_s",
    "trials.serialize_s",
    "snapshots.boundaries",
    "snapshots.bytes",
    "cluster.frames_sent",
    "cluster.bytes_sent",
    "cluster.frames_recv",
    "cluster.bytes_recv",
    "obs.journal_events",
    "service.checkpoint_bytes",
    "server.http_connections",
)

_TRANSPORT_SPANS = {
    "server.http_request": "http",
    "server.binary_connection": "binary",
}


def _transport(spans: Sequence[List[Any]], index: int) -> str:
    parent = spans[index][3]
    while parent >= 0:
        kind = _TRANSPORT_SPANS.get(spans[parent][0])
        if kind is not None:
            return kind
        parent = spans[parent][3]
    return "other"


def _first_dispatch(records: Sequence[Dict[str, Any]]) -> float:
    """Seconds from the first executor ``run`` to its first chunk dispatch."""
    for record in records:
        starts = [t for name, t in record["marks"] if name == "runtime.run_start"]
        if not starts:
            continue
        t0 = min(starts)
        sent = [t for name, t in record["marks"] if name == "runtime.dispatch" and t >= t0]
        return min(sent) - t0 if sent else 0.0
    return 0.0


def summarize(records: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """Layer metrics plus the server-side estimate durations by transport.

    Returns ``(metrics, serve_ms)`` folded into one dict: the metric
    names of :data:`SELF_TIME` and :data:`COUNTED`, ``server.frame_bytes``,
    ``runtime.first_dispatch_s``, and ``serve_ms`` mapping ``http`` /
    ``binary`` to lists of ``serve_estimate`` durations in milliseconds.
    """
    self_time: Dict[str, float] = {}
    counts: Dict[str, float] = {}
    serve_ms: Dict[str, List[float]] = {"http": [], "binary": [], "other": []}
    for record in records:
        spans = record["spans"]
        for name, seconds in self_time_by_name([tuple(s) for s in spans]).items():
            self_time[name] = self_time.get(name, 0.0) + seconds
        for name, value in record["counts"].items():
            counts[name] = counts.get(name, 0) + value
        for i, (name, start, end, _parent) in enumerate(spans):
            if name == "service.serve_estimate":
                serve_ms[_transport(spans, i)].append((end - start) * 1e3)
    out: Dict[str, Any] = {m: self_time.get(span, 0.0) for m, span in SELF_TIME.items()}
    out.update({m: counts.get(m, 0) for m in COUNTED})
    out["server.frame_bytes"] = counts.get("server.frame_bytes_sent", 0) + counts.get(
        "server.frame_bytes_recv", 0
    )
    out["runtime.first_dispatch_s"] = _first_dispatch(records)
    all_serve = serve_ms["http"] + serve_ms["binary"] + serve_ms["other"]
    out["service.serve_estimate_p50_ms"] = percentile(all_serve, 50) if all_serve else 0.0
    out["service.serve_estimate_p99_ms"] = percentile(all_serve, 99) if all_serve else 0.0
    out["serve_ms"] = serve_ms
    return out
