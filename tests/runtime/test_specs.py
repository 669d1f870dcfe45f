"""Tests for the declarative spec layer (latency / id-space / repair).

Covers the two properties the spec layer exists for: *round-tripping*
(``as_config()`` → ``from_config()`` rebuilds an equal spec, and a worker
can build the live object from the config alone) and *chunk-boundary
determinism* of the trial kinds built on the specs (a chunk starting
mid-sequence replays the shared-stream prefix — latency draws for
``delay_probe``, churn rounds for ``repair_replay`` — and reproduces the
full-batch results exactly).
"""

from __future__ import annotations

import pickle
import socket

import pytest
from hypothesis import given, strategies as st

from repro.churn.models import shrinking_trace
from repro.core.idspace import IdSpaceSpec, IdentifierSpace
from repro.overlay.repair import (
    DegreeRepair,
    FullRepair,
    NoRepair,
    RepairPolicySpec,
)
from repro.runtime import wire
from repro.runtime.trials import (
    TRIAL_KINDS,
    EstimatorSpec,
    OverlaySpec,
    TrialSpec,
    run_chunk,
    trace_to_payload,
)
from repro.sim.latency import LatencyModel, LatencySpec
from repro.sim.messages import MessageMeter
from repro.sim.rng import RngHub


class TestLatencySpec:
    def test_round_trip(self):
        spec = LatencySpec(median_ms=80.0, sigma=0.25)
        assert LatencySpec.from_config(spec.as_config()) == spec

    def test_config_is_plain_json(self):
        config = LatencySpec().as_config()
        assert config == {"median_ms": 50.0, "sigma": 0.5}

    def test_build_inside_worker(self):
        # the worker path: pickle the spec, rebuild the model from it
        spec = pickle.loads(pickle.dumps(LatencySpec(median_ms=20.0, sigma=0.0)))
        model = spec.build(rng=RngHub(3).stream("lat"))
        assert isinstance(model, LatencyModel)
        assert model.median_ms == 20.0
        assert float(model.draw(1)[0]) == pytest.approx(0.02)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            LatencySpec(median_ms=0.0)
        with pytest.raises(ValueError):
            LatencySpec(sigma=-1.0)


class TestRepairPolicySpec:
    def test_round_trip(self):
        for spec in (
            RepairPolicySpec.none(),
            RepairPolicySpec.degree(min_degree=2, target_degree=4, max_links_per_round=50),
            RepairPolicySpec.full(target_degree=6),
        ):
            assert RepairPolicySpec.from_config(spec.as_config()) == spec

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            RepairPolicySpec("cyclon")

    def test_build_against_local_graph(self, tiny_graph):
        meter = MessageMeter()
        policy = RepairPolicySpec.degree(
            min_degree=2, target_degree=3, max_links_per_round=10
        ).build(tiny_graph, rng=RngHub(1).stream("rep"), meter=meter)
        assert isinstance(policy, DegreeRepair)
        assert policy.graph is tiny_graph
        assert policy.meter is meter
        assert policy.min_degree == 2
        assert isinstance(RepairPolicySpec.none().build(tiny_graph), NoRepair)
        assert isinstance(RepairPolicySpec.full().build(tiny_graph), FullRepair)


class TestIdSpaceSpec:
    def test_round_trip(self):
        spec = IdSpaceSpec(transform="power", params={"exponent": 3.0}, stream="sk")
        assert IdSpaceSpec.from_config(spec.as_config()) == spec
        assert IdSpaceSpec.from_config({}) == IdSpaceSpec()

    def test_unknown_transform_rejected(self):
        with pytest.raises(ValueError):
            IdSpaceSpec(transform="zipf")

    def test_uniform_build_matches_plain_space(self, small_het_graph):
        built = IdSpaceSpec(stream="ids").build(small_het_graph, RngHub(7))
        plain = IdentifierSpace(small_het_graph, rng=RngHub(7).stream("ids"))
        assert [built.id_of(u) for u in small_het_graph.nodes()] == [
            plain.id_of(u) for u in small_het_graph.nodes()
        ]

    def test_power_build_matches_public_transform(self, small_het_graph):
        built = IdSpaceSpec(
            transform="power", params={"exponent": 3.0}, stream="sk"
        ).build(small_het_graph, RngHub(7))
        manual = IdentifierSpace(
            small_het_graph, rng=RngHub(7).stream("sk")
        ).with_transform(lambda pos: pos**3.0)
        assert [built.id_of(u) for u in small_het_graph.nodes()] == [
            manual.id_of(u) for u in small_het_graph.nodes()
        ]


sizes = st.integers(min_value=1, max_value=10**6)
small = st.integers(min_value=1, max_value=64)
backends = st.sampled_from(["dict", "array"])

#: Every named constructor of the overlay and estimator catalogs.
overlay_specs = st.one_of(
    st.builds(
        OverlaySpec.heterogeneous,
        sizes,
        max_degree=small,
        min_degree=small,
        stream=st.sampled_from(["overlay", "het"]),
    ),
    st.builds(OverlaySpec.homogeneous, sizes, k=small, stream=st.sampled_from(["overlay", "hom"])),
    st.builds(OverlaySpec.ring_lattice, sizes, k=small),
    st.builds(OverlaySpec.scale_free, sizes, m=small),
)
estimator_specs = st.one_of(
    st.builds(
        EstimatorSpec.sample_collide,
        l=small,
        timer=st.floats(min_value=0.0, max_value=1e6),
        backend=backends,
    ),
    st.builds(
        EstimatorSpec.hops_sampling,
        gossip_to=small,
        min_hops_reporting=small,
        oracle_distances=st.booleans(),
        backend=backends,
    ),
    st.just(EstimatorSpec.random_tour()),
    st.builds(EstimatorSpec.aggregation_epoch, rounds=small),
    st.builds(EstimatorSpec.interval_density, k=small),
)
json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False)
    | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)
trial_specs = st.builds(
    TrialSpec,
    kind=st.sampled_from(sorted(TRIAL_KINDS)),
    hub_seed=st.integers(min_value=0, max_value=2**63),
    index=st.integers(min_value=0, max_value=10**6),
    overlay=st.none() | overlay_specs,
    estimator=st.none() | estimator_specs,
    params=st.dictionaries(st.text(max_size=8), json_values, max_size=4),
    stream=st.integers(min_value=0, max_value=8),
    overlay_seed=st.none() | st.integers(min_value=0, max_value=2**63),
)


class TestTrialSpecWireForm:
    """Cluster workers rebuild every spec from its ``as_config`` frame."""

    @given(spec=trial_specs)
    def test_from_config_inverts_as_config(self, spec):
        assert TrialSpec.from_config(spec.as_config()) == spec

    @given(spec=trial_specs)
    def test_round_trip_through_a_json_frame(self, spec):
        a, b = socket.socketpair()
        with a, b:
            wire.send(a, {"spec": spec.as_config()})
            decoded = wire.recv(b)["spec"]
        assert TrialSpec.from_config(decoded) == spec

    @given(overlay=overlay_specs, estimator=estimator_specs)
    def test_catalog_specs_round_trip(self, overlay, estimator):
        assert OverlaySpec.from_config(overlay.as_config()) == overlay
        assert EstimatorSpec.from_config(estimator.as_config()) == estimator


def _delay_specs(hub_seed=11, n=300):
    params = {
        "latency": LatencySpec(median_ms=50.0).as_config(),
        "sc": {"l": 20, "timer": 5.0},
        "hops": {"gossip_to": 2, "min_hops_reporting": 3},
        "agg_rounds": 15,
    }
    return [
        TrialSpec(
            "delay_probe",
            hub_seed,
            i,
            overlay=OverlaySpec.heterogeneous(n),
            params=params,
        )
        for i in range(4)
    ]


class TestDelayProbeChunks:
    def test_single_trial_chunks_replay_latency_prefix(self):
        specs = _delay_specs()
        full = run_chunk(specs)
        split = [run_chunk([spec])[0] for spec in specs]
        assert [r.value for r in split] == [r.value for r in full]
        assert [r.extra for r in split] == [r.extra for r in full]

    def test_out_of_range_index_rejected(self):
        bad = _delay_specs()[0]
        bad = TrialSpec(
            bad.kind, bad.hub_seed, 7, overlay=bad.overlay, params=bad.params
        )
        with pytest.raises(ValueError):
            run_chunk([bad])


class TestIdspaceProbeChunks:
    def test_split_matches_full(self):
        specs = [
            TrialSpec(
                "idspace_probe",
                21,
                k,
                overlay=OverlaySpec.heterogeneous(300),
                estimator=EstimatorSpec.interval_density(k=40),
                params={
                    "fresh_name": "idu",
                    "idspace": IdSpaceSpec(
                        transform="power", params={"exponent": 3.0}
                    ).as_config(),
                },
            )
            for k in range(6)
        ]
        full = run_chunk(specs)
        split = run_chunk(specs[:3]) + run_chunk(specs[3:])
        assert [(r.index, r.value, r.extra["messages"]) for r in split] == [
            (r.index, r.value, r.extra["messages"]) for r in full
        ]


def _repair_specs(horizon=40, n=300, indices=None):
    trace = trace_to_payload(
        shrinking_trace(n, 0.5, start=1.0, end=float(horizon), steps=10)
    )
    params = {
        "trace": trace,
        "max_degree": 10,
        "restart_interval": 8,
        "repair": RepairPolicySpec.degree(
            min_degree=3, target_degree=5, max_links_per_round=20
        ).as_config(),
    }
    return [
        TrialSpec(
            "repair_replay",
            33,
            rnd,
            overlay=OverlaySpec.heterogeneous(n),
            params=params,
        )
        for rnd in (indices if indices is not None else range(1, horizon + 1))
    ]


class TestRepairReplayChunks:
    @staticmethod
    def _key(r):
        # repr() compares NaN estimates (pre-first-epoch rounds) as text
        return (r.index, repr(r.value), r.true_size, r.extra)

    def test_chunk_boundary_reproduces_churn_prefix(self):
        specs = _repair_specs()
        full = run_chunk(specs)
        # a chunk holding only the tail must replay rounds 1..cut itself
        cut = len(specs) // 2
        split = run_chunk(specs[:cut]) + run_chunk(specs[cut:])
        assert [self._key(r) for r in split] == [self._key(r) for r in full]

    def test_sparse_tail_indices_match_full_replay(self):
        full = {r.index: r for r in run_chunk(_repair_specs())}
        tail = run_chunk(_repair_specs(indices=[35, 40]))
        for r in tail:
            assert self._key(r) == self._key(full[r.index])

    def test_zero_index_rejected(self):
        # rounds are 1-based; a 0 index would silently never be emitted
        with pytest.raises(ValueError):
            run_chunk(_repair_specs(indices=[0, 5]))

    def test_cumulative_counters_monotone(self):
        results = run_chunk(_repair_specs())
        msgs = [r.extra["messages"] for r in results]
        fails = [r.extra["failures"] for r in results]
        assert msgs == sorted(msgs)
        assert fails == sorted(fails)
        assert msgs[-1] > 0  # degree repair under -50% churn must spend links
