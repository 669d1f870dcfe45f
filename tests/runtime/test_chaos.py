"""Chaos suite: deterministic fault injection against the cluster backend.

Every plan in :func:`repro.runtime.faults.chaos_matrix` — worker kill,
heartbeat stall, frame truncation, slow host — must leave a batch's
results bit-identical to serial with unchanged content addresses, account
for every chunk exactly once, and produce a journal ``obs validate``
accepts.  A stalled worker must additionally be *detected* within the
documented ``misses x interval`` bound, mid-batch, not post-hoc.
"""

from __future__ import annotations

import threading
import time

import pytest

import chaos
from repro.runtime import (
    ClusterExecutor,
    EstimatorSpec,
    OverlaySpec,
    TelemetryCollector,
    TrialSpec,
    WorkerServer,
    run_chunk,
)
from repro.runtime.cluster import _RunState, _WorkerSession, plan_chunks
from repro.runtime.faults import (
    FAULT_KINDS,
    Fault,
    FaultPlan,
    FrameFault,
    WorkerFaults,
    chaos_matrix,
    dealt_chunks,
)

N = 300


def _specs(count=12, seed=7):
    overlay = OverlaySpec.heterogeneous(N)
    return [
        TrialSpec(
            "static_probe",
            seed,
            i,
            overlay=overlay,
            estimator=EstimatorSpec.sample_collide(l=10),
        )
        for i in range(1, count + 1)
    ]


class TestFaultPlans:
    def test_random_plans_are_seed_reproducible(self):
        a = FaultPlan.random(42, hosts=3, events=2, chunks=6)
        b = FaultPlan.random(42, hosts=3, events=2, chunks=6)
        assert a == b
        assert FaultPlan.random(43, hosts=3, events=2, chunks=6) != a

    def test_random_plans_never_kill_host_zero(self):
        for seed in range(50):
            plan = FaultPlan.random(seed, hosts=3, events=3, chunks=6)
            assert not any(
                e.kind == "kill_worker" and e.host == 0 for e in plan.events
            )

    def test_config_round_trip(self):
        plan = chaos_matrix()["kill_worker"]
        assert FaultPlan.from_config(plan.as_config()) == plan
        soak = FaultPlan.random(7, hosts=4, events=3, chunks=6)
        assert FaultPlan.from_config(soak.as_config()) == soak

    def test_matrix_names_the_acceptance_failure_classes(self):
        matrix = chaos_matrix()
        kinds = {e.kind for plan in matrix.values() for e in plan.events}
        assert {
            "kill_worker",
            "stall_heartbeat",
            "truncate_frame",
            "slow_host",
        } <= kinds

    def test_invalid_faults_are_rejected(self):
        with pytest.raises(ValueError):
            Fault("reboot_rack")
        with pytest.raises(ValueError):
            Fault("kill_worker", host=-1)
        with pytest.raises(ValueError):
            Fault("slow_host")  # timed kind needs seconds > 0
        with pytest.raises(ValueError):
            Fault("kill_worker", after=-1)

    def test_worker_faults_compile_only_the_target_host(self):
        plan = FaultPlan(
            seed=1,
            events=(
                Fault("kill_worker", host=1, after=2),
                Fault("slow_host", host=0, seconds=0.1),
                Fault("truncate_frame", host=0, after=3),
            ),
        )
        zero = plan.worker_faults(0)
        one = plan.worker_faults(1)
        assert zero.kill_after_chunks is None
        assert zero.slow_seconds == 0.1
        assert zero.frame_fault_at(3).mode == "truncate"
        assert one == WorkerFaults(kill_after_chunks=2)
        assert plan.hosts_touched() == (0, 1)

    def test_random_plans_draw_within_the_deal(self):
        for chunks in (1, 2, 4, 7):
            for seed in range(40):
                plan = FaultPlan.random(seed, hosts=3, events=3, chunks=chunks)
                assert plan.unreachable(3, chunks) == ()

    def test_unreachable_lists_counts_beyond_the_deal(self):
        # 4 chunks on 3 hosts: host 0 is dealt 2, hosts 1 and 2 one each.
        assert [dealt_chunks(h, 3, 4) for h in range(4)] == [2, 1, 1, 0]
        kill = Fault("kill_worker", host=1, after=2)
        frame = Fault("drop_frame", host=0, after=2)
        plan = FaultPlan(
            events=(
                kill,
                frame,
                Fault("kill_worker", host=2, after=1),
                Fault("truncate_frame", host=0, after=1),
                Fault("stall_heartbeat", host=1, after=9),
            )
        )
        assert plan.unreachable(3, 4) == (kill, frame)

    def test_run_chaos_rejects_an_unreachable_plan(self):
        plan = FaultPlan(events=(Fault("kill_worker", host=1, after=2),))
        with pytest.raises(ValueError, match="unreachable"):
            chaos.run_chaos(plan, _specs(), hosts=3)

    def test_every_kind_describes_itself(self):
        for kind in FAULT_KINDS:
            seconds = 0.25 if kind in ("slow_host", "delay_frame") else 0.0
            fault = Fault(kind, host=1, after=1, seconds=seconds)
            assert kind in fault.describe()


class TestScheduleProofFaults:
    """Planned faults fire whatever order idle hosts steal work in."""

    @pytest.mark.parametrize("after", [0, 1, 2])
    def test_planned_kill_fires_without_a_later_chunk(self, after):
        # The host gets exactly the chunks the count needs and nothing
        # after them, as when a peer stole the rest of its queue: the kill
        # must still land, while the counted chunk is in flight.
        plan = FaultPlan(seed=1, events=(Fault("kill_worker", host=0, after=after),))
        telemetry = TelemetryCollector()
        server = WorkerServer(faults=plan.worker_faults(0), progress=telemetry)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            session = _WorkerSession.connect(server.address, 5.0)
            assert session.pinned
            replies = []
            for chunk, spec in enumerate(_specs(count=max(after, 1))):
                message = {"type": "chunk", "chunk": chunk, "specs": [spec.as_config()], "snapshot": None}
                try:
                    replies.append(session.request(message))
                except (EOFError, OSError):
                    break
            session.close()
            assert [e["kind"] for e in telemetry.events] == ["kill_worker"]
            assert len(replies) == max(after - 1, 0)
            with pytest.raises(OSError):
                _WorkerSession.connect(server.address, 1.0)
        finally:
            server.close()
            thread.join(timeout=5.0)

    def test_counted_faults_pin_the_host_against_steals(self):
        assert WorkerFaults(kill_after_chunks=3).pins_work
        assert WorkerFaults(frame_faults=(FrameFault(2, "drop"),)).pins_work
        assert not WorkerFaults(slow_seconds=0.1).pins_work
        assert not WorkerFaults(stall_heartbeat_after=1).pins_work
        # A straggler that carries a (never-reached) frame fault keeps its
        # queue: the idle fast host waits instead of stealing, so every
        # counted frame still reaches the faulty host.
        specs = _specs(count=16)
        serial = run_chunk(list(specs))
        faults = WorkerFaults(slow_seconds=0.05, frame_faults=(FrameFault(99, "drop"),))
        servers = [WorkerServer(faults=faults), WorkerServer()]
        threads = [threading.Thread(target=s.serve_forever, daemon=True) for s in servers]
        for thread in threads:
            thread.start()
        try:
            telemetry = TelemetryCollector()
            executor = ClusterExecutor(
                [s.address for s in servers],
                chunk_size=2,
                progress=telemetry,
                heartbeat_interval=0,
            )
            results = executor.run(list(specs))
        finally:
            for server in servers:
                server.close()
            for thread in threads:
                thread.join(timeout=5.0)
        assert chaos.results_key(results) == chaos.results_key(serial)
        assert telemetry.count("steal") == 0

    def test_no_steal_before_the_handshake_pins_the_host(self):
        # The faulty host's welcome arrives late; until it does, its
        # queue must not be stealable, or an idle peer could take the
        # chunks its counted fault is waiting for.
        class SlowHandshake(WorkerServer):
            def _serve_session(self, conn):
                time.sleep(1.0)
                return super()._serve_session(conn)

        specs = _specs(count=16)
        serial = run_chunk(list(specs))
        faults = WorkerFaults(frame_faults=(FrameFault(99, "drop"),))
        servers = [SlowHandshake(faults=faults), WorkerServer()]
        threads = [threading.Thread(target=s.serve_forever, daemon=True) for s in servers]
        for thread in threads:
            thread.start()
        try:
            telemetry = TelemetryCollector()
            executor = ClusterExecutor(
                [s.address for s in servers],
                chunk_size=2,
                progress=telemetry,
                heartbeat_interval=0,
            )
            results = executor.run(list(specs))
        finally:
            for server in servers:
                server.close()
            for thread in threads:
                thread.join(timeout=5.0)
        assert chaos.results_key(results) == chaos.results_key(serial)
        assert telemetry.count("steal") == 0


class TestChaosMatrix:
    @pytest.mark.parametrize("hosts", [2, 3])
    @pytest.mark.parametrize("name", sorted(chaos_matrix(slow_seconds=0.1)))
    def test_plan_preserves_results_and_journal(self, tmp_path, name, hosts):
        plan = chaos_matrix(slow_seconds=0.1)[name]
        specs = _specs()
        serial = run_chunk(list(specs))
        run = chaos.run_chaos(
            plan,
            specs,
            hosts=hosts,
            journal_path=tmp_path / f"{name}-{hosts}.jsonl",
        )
        chaos.assert_chaos_invariants(run, serial)

    def test_kill_plan_actually_loses_the_worker(self, tmp_path):
        plan = chaos_matrix()["kill_worker"]
        specs = _specs()
        serial = run_chunk(list(specs))
        run = chaos.run_chaos(
            plan, specs, hosts=2, journal_path=tmp_path / "kill.jsonl"
        )
        chaos.assert_chaos_invariants(run, serial)
        assert [e["kind"] for e in run.events("fault_injected")] == ["kill_worker"]
        assert [e["host"] for e in run.events("worker_lost")] == [
            run.host_address(1)
        ]
        assert run.telemetry.count("chunk_migrated") >= 1
        journal_kinds = {e["event"] for e in run.journal}
        assert {"fault_injected", "worker_lost", "chunk_migrated"} <= journal_kinds

    def test_truncated_frame_surfaces_as_loss_never_as_bad_results(self):
        plan = chaos_matrix()["frame_truncate"]
        specs = _specs()
        serial = run_chunk(list(specs))
        run = chaos.run_chaos(plan, specs, hosts=2)
        chaos.assert_chaos_invariants(run, serial)
        assert [e["kind"] for e in run.events("fault_injected")] == [
            "truncate_frame"
        ]
        # retries=0: the torn frame converts to a loss + migration.
        assert [e["host"] for e in run.events("worker_lost")] == [
            run.host_address(0)
        ]


class TestHeartbeatDetectionBound:
    def test_stalled_worker_detected_within_bound_mid_batch(self):
        interval, misses = 0.1, 3
        # The straggler fault keeps the batch alive long enough that
        # detection must happen mid-batch, not after the queue drains.
        plan = FaultPlan(
            seed=201,
            name="stall-under-load",
            events=(
                Fault("stall_heartbeat", host=1, after=1),
                Fault("slow_host", host=0, seconds=1.0),
            ),
        )
        specs = _specs()
        serial = run_chunk(list(specs))
        run = chaos.run_chaos(
            plan,
            specs,
            hosts=2,
            heartbeat_interval=interval,
            heartbeat_misses=misses,
        )
        chaos.assert_chaos_invariants(run, serial)
        lost = run.events("worker_lost")
        assert [e["host"] for e in lost] == [run.host_address(1)]
        assert "heartbeat" in lost[0]["reason"]
        assert run.telemetry.count("heartbeat_miss") >= misses
        stalled = min(
            e["at"] for e in run.events("fault_injected")
            if e["kind"] == "stall_heartbeat"
        )
        detected = run.telemetry.at("worker_lost")
        # Documented bound: misses consecutive probes, each costing
        # max(interval, ping timeout); generous slack for CI scheduling.
        bound = misses * max(interval, 0.02)
        assert detected - stalled <= bound + 0.6
        kinds = [e["event"] for e in run.telemetry.events]
        assert kinds.index("worker_lost") < kinds.index("batch_finish")


class TestChunkSizeAdaptation:
    def test_first_batch_plans_uniformly(self):
        chunks = plan_chunks(_specs(), hosts=2)
        assert [len(chunk) for chunk in chunks] == [2] * 6
        assert [s.index for chunk in chunks for s in chunk] == list(range(1, 13))
        state = _RunState(chunks, ["a:1", "b:2"])
        assert {host: list(queue) for host, queue in state.queues.items()} == {
            "a:1": [0, 2, 4],
            "b:2": [1, 3, 5],
        }


@pytest.mark.slow
class TestRandomPlanSoak:
    """Seed-walk the random fault space (excluded from tier-1 via -m)."""

    @pytest.mark.parametrize("seed", range(6))
    def test_random_plans_preserve_results(self, seed):
        plan = FaultPlan.random(seed, hosts=3, events=2, chunks=4)
        specs = _specs()
        serial = run_chunk(list(specs))
        run = chaos.run_chaos(plan, specs, hosts=3)
        chaos.assert_chaos_invariants(run, serial)
