"""Replay-state snapshotting: O(horizon) churn replay across chunks.

The churn-replay trial kinds (``multi_probe``, ``repair_replay``) share
one evolving scenario — an overlay mutated by a churn schedule, possibly
with repair and a monitoring protocol riding on it — that every trial of
the batch observes at its own index.  A chunk of
such trials historically replayed the scenario *from t=0* up to its last
index, which makes the total replay work quadratic in the horizon once a
batch is split into chunks.

This module makes the scenario state an explicit, transferable object:

* a **replay state** (:class:`ProbeReplayState`, :class:`RepairReplayState`)
  bundles the live objects — overlay, churn scheduler, and for
  ``repair_replay`` the repair policy, aggregation monitor, message meter
  and round driver — and advances them step by step exactly as the serial
  loop did;
* :meth:`ReplayState.snapshot` captures the state as **pure data**
  (JSON-able, picklable, content-hashable — the same contract as the
  PR 4 spec classes), and :meth:`ReplayState.restore` rebuilds a state
  whose future steps are *bit-identical* to the uninterrupted run's
  (every component guarantees this individually: see
  ``OverlayGraph.snapshot``, ``ChurnScheduler.snapshot``,
  ``AggregationProtocol.snapshot``, ``generator_state``);
* :func:`snapshot_config` derives the content address a boundary snapshot
  is stored under — the *scenario prefix* configuration (overlay, seed,
  churn trace, scenario params, boundary index), deliberately excluding
  everything that cannot affect the churn trajectory (the estimator spec,
  worker count, chunking), so snapshots are shared across every batch
  that replays the same scenario.  Result artifacts keep their own,
  untouched addresses: enabling snapshots never invalidates a cached
  result;
* :class:`SnapshotBackbone` is the one driver-side replay that produces
  those boundary payloads in chunk order (store lookups first, saves
  after).

The chunk hand-off lifecycle, its invariants, and the replay-cost
arithmetic are documented in ``docs/SNAPSHOTS.md``; the scheduler that
publishes the backbone's payloads to chunks while they run lives in
:mod:`repro.runtime.cluster` and serves the local worker pool and remote
hosts alike.
"""

from __future__ import annotations

import hashlib
import time
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from ..churn.models import ChurnEvent, ChurnTrace
from ..churn.scheduler import ChurnScheduler
from ..core.aggregation import AggregationMonitor
from ..overlay.graph import OverlayGraph
from ..overlay.repair import RepairPolicySpec
from ..sim.messages import MessageMeter
from ..sim.rng import RngHub, generator_from_state
from ..sim.rounds import RoundDriver
from .progress import NullProgress, ProgressReporter

__all__ = [
    "SNAPSHOT_KINDS",
    "SNAPSHOT_SCHEMA_VERSION",
    "ProbeReplayState",
    "RepairReplayState",
    "SnapshotBackbone",
    "replay_state_for",
    "snapshot_config",
    "trace_from_payload",
    "trace_to_payload",
]

#: Bump when snapshot payload layout or replay semantics change; mixed into
#: every snapshot's content address so stale payloads become misses, never
#: wrong restores.
SNAPSHOT_SCHEMA_VERSION = 1


def trace_to_payload(trace: ChurnTrace) -> List[Dict[str, float]]:
    """Flatten a trace into a list of plain event dicts (JSON/pickle safe).

    Only non-default fields are emitted so payloads hash stably.
    """
    payload: List[Dict[str, float]] = []
    for ev in trace:
        item: Dict[str, float] = {"time": float(ev.time)}
        if ev.joins:
            item["joins"] = int(ev.joins)
        if ev.leaves:
            item["leaves"] = int(ev.leaves)
        if ev.frac_joins:
            item["frac_joins"] = float(ev.frac_joins)
        if ev.frac_leaves:
            item["frac_leaves"] = float(ev.frac_leaves)
        payload.append(item)
    return payload


def trace_from_payload(payload: Sequence[Mapping[str, float]]) -> ChurnTrace:
    """Rebuild a fresh (unconsumed) :class:`ChurnTrace` from a payload."""
    return ChurnTrace(ChurnEvent(**item) for item in payload)


class ProbeReplayState:
    """Replay state of the probe-under-churn kinds (Figs 9-14).

    The scenario is: one overlay, one churn schedule consumed through the
    hub's dedicated ``"churn"`` stream, advanced in steps of
    ``time_per_estimation``; estimations at each step draw from stateless
    per-index child hubs and therefore leave no trace in this state.  The
    serial loop's death rule is preserved exactly: once the overlay is
    empty at a step boundary the replay is *dead* — it never advances
    again, even if later trace events would regrow the membership.
    """

    kind_params: Tuple[str, ...] = ("trace", "time_per_estimation", "max_degree")

    def __init__(
        self,
        hub: RngHub,
        scheduler: ChurnScheduler,
        tpe: float,
        position: int = 0,
        dead: bool = False,
    ) -> None:
        self.hub = hub
        self.scheduler = scheduler
        self.tpe = float(tpe)
        self.position = int(position)
        self.dead = bool(dead)

    @property
    def graph(self) -> OverlayGraph:
        """The scenario's (mutating) overlay."""
        return self.scheduler.graph

    # -- lifecycle -----------------------------------------------------

    @classmethod
    def boot(cls, spec) -> "ProbeReplayState":
        """Build the scenario at position 0 from a trial spec.

        Mirrors the historical chunk warm-up bit for bit: the overlay is
        built from its own hub (``overlay_seed`` or ``hub_seed``) while
        churn consumes the estimation hub's ``"churn"`` stream.
        """
        p = spec.params
        hub = RngHub(spec.hub_seed)
        graph = spec.build_overlay()
        scheduler = ChurnScheduler(
            graph,
            trace_from_payload(p["trace"]),
            rng=hub.stream("churn"),
            max_degree=int(p.get("max_degree", 10)),
        )
        return cls(hub, scheduler, tpe=float(p.get("time_per_estimation", 1.0)))

    def advance(self, to_index: int) -> None:
        """Advance the scenario through step ``to_index`` (serial semantics).

        Steps one estimation slot at a time, checking the death rule after
        each, so a state advanced in any increments visits exactly the
        same intermediate states as the uninterrupted loop.
        """
        for i in range(self.position + 1, int(to_index) + 1):
            if self.dead:
                break
            self.scheduler.advance_to(i * self.tpe)
            self.position = i
            if self.graph.size == 0:
                self.dead = True

    # -- hand-off ------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """Pure-data capture of the scenario at the current position."""
        return {
            "schema": SNAPSHOT_SCHEMA_VERSION,
            "index": self.position,
            "dead": self.dead,
            "scheduler": self.scheduler.snapshot(),
        }

    @classmethod
    def restore(cls, spec, payload: Mapping[str, Any]) -> "ProbeReplayState":
        """Rebuild the scenario mid-replay from a :meth:`snapshot` payload.

        ``spec`` supplies the configuration (trace payload, step length);
        the payload supplies the state.  Future :meth:`advance` steps are
        bit-identical to an uninterrupted replay's.
        """
        p = spec.params
        hub = RngHub(spec.hub_seed)
        scheduler = ChurnScheduler.restore(
            payload["scheduler"],
            trace_from_payload(p["trace"]),
            max_degree=int(p.get("max_degree", 10)),
        )
        return cls(
            hub,
            scheduler,
            tpe=float(p.get("time_per_estimation", 1.0)),
            position=int(payload["index"]),
            dead=bool(payload.get("dead", False)),
        )


class RepairReplayState:
    """Replay state of ``repair_replay`` (Fig 17 revisited, with repair).

    One scenario = churn (``"churn"`` stream) + repair policy (``"rep"``
    stream) + aggregation monitor (``"monitor"`` stream) advancing in lock
    step on a shared :class:`RoundDriver`, with cumulative repair traffic
    metered.  All of that is state and all of it is captured; the
    per-round observation ``records`` list is *local* — it accumulates
    from the position the state was booted or restored at, and the chunk
    runner maps absolute round numbers onto it.
    """

    kind_params: Tuple[str, ...] = ("trace", "max_degree", "repair", "restart_interval")

    def __init__(
        self,
        scheduler: ChurnScheduler,
        policy,
        monitor: AggregationMonitor,
        meter: MessageMeter,
        position: int = 0,
    ) -> None:
        self.scheduler = scheduler
        self.policy = policy
        self.monitor = monitor
        self.meter = meter
        self.position = int(position)
        #: (graph size, cumulative repair messages, failed epochs) observed
        #: at each round run on *this* state object; index 0 is round
        #: ``position_at_construction + 1``.
        self.records: List[Tuple[int, int, int]] = []
        self.driver = RoundDriver(start_round=self.position)
        scheduler.attach(self.driver)
        policy.attach(self.driver)
        monitor.attach(self.driver)
        self.driver.subscribe(
            lambda rnd: self.records.append(
                (self.graph.size, self.meter.total, self.monitor.failures)
            ),
            priority=30,
        )

    @property
    def graph(self) -> OverlayGraph:
        """The scenario's (mutating, repaired) overlay."""
        return self.scheduler.graph

    # -- lifecycle -----------------------------------------------------

    @classmethod
    def boot(cls, spec) -> "RepairReplayState":
        """Build the scenario at round 0 from a trial spec."""
        p = spec.params
        hub = RngHub(spec.hub_seed)
        graph = spec.build_overlay()
        scheduler = ChurnScheduler(
            graph,
            trace_from_payload(p["trace"]),
            rng=hub.stream("churn"),
            max_degree=int(p.get("max_degree", 10)),
        )
        meter = MessageMeter()
        policy = RepairPolicySpec.from_config(p["repair"]).build(
            graph, rng=hub.stream("rep"), meter=meter
        )
        monitor = AggregationMonitor(
            graph,
            restart_interval=int(p["restart_interval"]),
            rng=hub.stream("monitor"),
        )
        return cls(scheduler, policy, monitor, meter)

    def advance(self, to_index: int) -> None:
        """Run rounds up to ``to_index`` (round numbers are 1-based)."""
        rounds = int(to_index) - self.position
        if rounds > 0:
            self.driver.run(rounds)
            self.position = int(to_index)

    # -- hand-off ------------------------------------------------------

    @property
    def dead(self) -> bool:
        """Repair scenarios never die: an emptied overlay may regrow."""
        return False

    def snapshot(self) -> Dict[str, Any]:
        """Pure-data capture: scheduler + policy + monitor + meter state."""
        return {
            "schema": SNAPSHOT_SCHEMA_VERSION,
            "index": self.position,
            "scheduler": self.scheduler.snapshot(),
            "policy": self.policy.snapshot(),
            "monitor": self.monitor.snapshot(),
            "meter": dict(self.meter.snapshot().counts),
        }

    @classmethod
    def restore(cls, spec, payload: Mapping[str, Any]) -> "RepairReplayState":
        """Rebuild the scenario mid-run from a :meth:`snapshot` payload.

        Components are restored in dependency order (overlay+scheduler,
        meter, policy, monitor) and re-attached to a fresh driver starting
        at the captured round, so hook execution order — churn, repair,
        protocol, observer — matches the uninterrupted run exactly.
        """
        p = spec.params
        scheduler = ChurnScheduler.restore(
            payload["scheduler"],
            trace_from_payload(p["trace"]),
            max_degree=int(p.get("max_degree", 10)),
        )
        graph = scheduler.graph
        meter = MessageMeter.restore(payload["meter"])
        # Build directly with the captured generator: a policy that drew
        # (or forwarded) its rng at construction time would otherwise
        # silently diverge from the uninterrupted run.
        policy = RepairPolicySpec.from_config(p["repair"]).build(
            graph, rng=generator_from_state(payload["policy"]["rng"]), meter=meter
        )
        policy.apply_snapshot(payload["policy"])
        monitor = AggregationMonitor.restore(
            graph,
            payload["monitor"],
            restart_interval=int(p["restart_interval"]),
        )
        return cls(
            scheduler,
            policy,
            monitor,
            meter,
            position=int(payload["index"]),
        )


def replay_state_for(kind: str):
    """The replay-state class handling ``kind`` (raises KeyError if none)."""
    return SNAPSHOT_KINDS[kind]


#: trial kind -> replay-state class.  Kinds absent here either have no
#: shared scenario to hand off (``agg_dynamic`` runs one independent
#: scenario per trial) or no churn at all (the static/fresh kinds).
SNAPSHOT_KINDS: Dict[str, Any] = {
    "multi_probe": ProbeReplayState,
    "repair_replay": RepairReplayState,
}


def snapshot_config(spec, index: int) -> Dict[str, Any]:
    """Content-address configuration of a boundary snapshot.

    Identifies the *churn trajectory prefix* the snapshot captures: the
    trial kind, the hub seed(s), the declarative overlay, the scenario
    subset of ``params`` (each state class's ``kind_params``) and the
    boundary ``index`` — plus :data:`SNAPSHOT_SCHEMA_VERSION`.  The
    estimator spec and the ``(index, stream)`` layout of the batch are
    excluded on purpose: they cannot influence the trajectory, so one
    stored snapshot serves every batch replaying the same scenario.
    The churn-trace payload enters the address as its SHA-256 digest —
    equally distinguishing, but a dense paper-scale trace is then not
    duplicated verbatim into every boundary artifact on disk.  Because
    this document is disjoint from a batch's result configuration (the
    ``"snapshot"`` key marks it), snapshot artifacts can never collide
    with — or invalidate — result artifacts.
    """
    from .store import canonical_json  # late: store imports trials imports us

    state_cls = SNAPSHOT_KINDS[spec.kind]
    params = {
        key: spec.params[key] for key in state_cls.kind_params if key in spec.params
    }
    trace = params.pop("trace", None)
    if trace is not None:
        params["trace_sha256"] = hashlib.sha256(
            canonical_json(trace).encode("utf-8")
        ).hexdigest()
    return {
        "snapshot": SNAPSHOT_SCHEMA_VERSION,
        "kind": spec.kind,
        "hub_seed": int(spec.hub_seed),
        "overlay": spec.overlay.as_config() if spec.overlay is not None else None,
        "overlay_seed": spec.overlay_seed,
        "params": params,
        "index": int(index),
    }


class SnapshotBackbone:
    """Driver-side churn-only replay feeding boundary snapshots to chunks.

    The chunk scheduler of :mod:`~repro.runtime.cluster` drives one of
    these per churn-replay batch, on the driver thread, publishing each
    hand-off payload while earlier chunks already run.
    One instance serves one pipelined batch: it advances a single replay
    state through the chunk boundaries in order (O(horizon) total work)
    and captures a pure-data snapshot at each.  When a store is attached,
    boundaries are looked up before computing and saved after — the
    content address (:func:`snapshot_config`)
    covers only the scenario prefix, so any batch replaying the same
    scenario shares them.  Store hits are adopted lazily: the payload is
    handed out immediately and only materialized into a live state if a
    later boundary misses and must be advanced to.
    """

    def __init__(
        self, spec, store, progress: Optional[ProgressReporter] = None
    ) -> None:
        self.spec = spec
        self.store = store
        self.progress = progress if progress is not None else NullProgress()
        self.state_cls = SNAPSHOT_KINDS[spec.kind]
        self._state = None
        self._adopt: Optional[Mapping[str, Any]] = None
        self._save_error_reported = False

    def payload_at(self, target: int) -> Optional[Mapping[str, Any]]:
        """Snapshot payload at boundary ``target`` (``None`` = no hand-off).

        Boundary 0 is the freshly built scenario before any churn — worth
        handing off too, because restoring an overlay from pure data is an
        order of magnitude cheaper than rebuilding it from its RNG stream.
        Returns ``None`` for negative boundaries and for non-monotone
        chunk layouts the backbone cannot serve — the chunk then falls
        back to prefix replay, which is always correct.

        Every resolution is reported as a ``snapshot_boundary`` event; a
        failed best-effort save (read-only store) is surfaced once per
        backbone as ``snapshot_save_error`` instead of being silently
        dropped.
        """
        begin = time.perf_counter()
        if target < 0:
            self.progress.emit("snapshot_boundary", target=target, seconds=0.0, outcome="skipped")
            return None
        config = snapshot_config(self.spec, target)
        if self.store is not None:
            cached = self.store.load_snapshot(config)
            if cached is not None:
                self._adopt = cached
                self.progress.emit(
                    "snapshot_boundary",
                    target=target,
                    seconds=time.perf_counter() - begin,
                    outcome="hit",
                )
                return cached
        if self._adopt is not None:
            self._state = self.state_cls.restore(self.spec, self._adopt)
            self._adopt = None
        if self._state is None:
            self._state = self.state_cls.boot(self.spec)
        if target < self._state.position:
            self.progress.emit(
                "snapshot_boundary",
                target=target,
                seconds=time.perf_counter() - begin,
                outcome="skipped",
            )
            return None
        self._state.advance(target)
        payload = self._state.snapshot()
        if self.store is not None:
            try:
                self.store.save_snapshot(
                    config, payload, meta={"tag": f"snapshot:{self.spec.kind}"}
                )
            except OSError as exc:  # read-only store: snapshots are best-effort
                if not self._save_error_reported:
                    self._save_error_reported = True
                    self.progress.emit("snapshot_save_error", error=str(exc))
        self.progress.emit(
            "snapshot_boundary",
            target=target,
            seconds=time.perf_counter() - begin,
            outcome="computed",
        )
        return payload
