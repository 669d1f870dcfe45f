"""Tests for the shared experiment runners."""

from __future__ import annotations


import numpy as np
import pytest

from repro.churn.models import shrinking_trace
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import (
    aggregation_convergence,
    aggregation_dynamic,
    overlay_spec,
    static_probe_series,
)
from repro.runtime import (
    EstimatorSpec,
    OverlaySpec,
    TrialSpec,
    run_trials,
    series_from_results,
    trace_to_payload,
)
from repro.sim.rng import RngHub


def _cfg(tiny_scale):
    return ExperimentConfig(seed=77, scale=tiny_scale)


def _churn_series(overlay, estimator, trace, count, hub):
    """Probe estimations interleaved with churn, one ``multi_probe`` stream."""
    params = {
        "trace": trace_to_payload(trace),
        "time_per_estimation": 1.0,
        "max_degree": 10,
    }
    specs = [
        TrialSpec(
            "multi_probe", hub.seed, i, overlay=overlay, estimator=estimator, params=params
        )
        for i in range(1, count + 1)
    ]
    return series_from_results(run_trials(specs))


class TestBuilders:
    def test_build_overlay_size(self, tiny_scale):
        cfg = _cfg(tiny_scale)
        g = overlay_spec(cfg, 300).build(RngHub(1))
        assert g.size == 300

    def test_build_overlay_deterministic(self, tiny_scale):
        cfg = _cfg(tiny_scale)
        a = overlay_spec(cfg, 200).build(RngHub(3))
        b = overlay_spec(cfg, 200).build(RngHub(3))
        assert sorted(a.edges()) == sorted(b.edges())

    def test_scale_free_overlay(self):
        g = OverlaySpec.scale_free(300, m=3).build(RngHub(2))
        assert g.size == 300


class TestStaticSeries:
    def test_counts_and_truth(self, tiny_scale):
        cfg = _cfg(tiny_scale)
        hub = RngHub(5)
        series = static_probe_series(
            EstimatorSpec.sample_collide(l=20), overlay_spec(cfg, 400), 10, hub
        )
        assert len(series) == 10
        assert (series.true_sizes == 400).all()
        assert (series.estimates > 0).all()

    def test_runs_are_independent(self, tiny_scale):
        cfg = _cfg(tiny_scale)
        hub = RngHub(6)
        series = static_probe_series(
            EstimatorSpec.sample_collide(l=20), overlay_spec(cfg, 400), 8, hub
        )
        assert len(set(series.estimates)) > 1


class TestDynamicSeries:
    def test_true_size_follows_trace(self, tiny_scale):
        cfg = _cfg(tiny_scale)
        hub = RngHub(7)
        trace = shrinking_trace(400, 0.5, start=1, end=10, steps=10)
        series = _churn_series(
            overlay_spec(cfg, 400), EstimatorSpec.sample_collide(l=20), trace, 10, hub
        )
        assert series.true_sizes[-1] == 200
        assert len(series) == 10

    def test_estimates_track_truth_loosely(self, tiny_scale):
        cfg = _cfg(tiny_scale)
        hub = RngHub(8)
        trace = shrinking_trace(400, 0.5, start=1, end=20, steps=20)
        series = _churn_series(
            overlay_spec(cfg, 400), EstimatorSpec.sample_collide(l=50), trace, 20, hub
        )
        ratio = np.nanmean(series.estimates / series.true_sizes)
        assert ratio == pytest.approx(1.0, abs=0.35)


class TestAggregationRunners:
    def test_convergence_curves(self, tiny_scale):
        cfg = _cfg(tiny_scale)
        hub = RngHub(9)
        curves = aggregation_convergence(overlay_spec(cfg, 300), 30, hub, runs=2)
        assert len(curves) == 2
        for xs, qs in curves:
            assert xs.shape == qs.shape == (30,)
            assert qs[-1] == pytest.approx(100, abs=3)

    def test_dynamic_monitor_runs(self, tiny_scale):
        cfg = _cfg(tiny_scale)
        hub = RngHub(10)
        series_list, failures = aggregation_dynamic(
            cfg,
            300,
            lambda n0: shrinking_trace(n0, 0.3, start=1, end=60, steps=10),
            60,
            hub,
            runs=2,
            restart_interval=15,
        )
        assert len(series_list) == 2
        assert len(failures) == 2
        for series in series_list:
            assert len(series) == 60
            assert series.true_sizes[-1] == pytest.approx(210, abs=2)
