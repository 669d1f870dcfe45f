"""Shared experiment machinery: overlay setup and series runners.

Each paper figure is "run algorithm X on overlay Y under churn Z and log a
series"; this module provides those three verbs so the per-figure functions
in the experiment modules stay declarative.

Every series runner routes through :func:`repro.runtime.run_trials`: the
experiment is expressed as a batch of picklable
:class:`~repro.runtime.TrialSpec` units, which the runtime executes
serially or over a worker pool and (optionally) serves from its
content-addressed results store.  Callers pick the execution policy via the
``runtime`` argument (:class:`~repro.runtime.RuntimeOptions`); ``None``
means serial and uncached, the historical behaviour.  Overlays and
estimators are declarative specs (:class:`~repro.runtime.OverlaySpec` /
:class:`~repro.runtime.EstimatorSpec`).
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

import numpy as np

from ..churn.models import ChurnTrace
from ..runtime import (
    EstimatorSpec,
    OverlaySpec,
    RuntimeOptions,
    TrialSpec,
    run_trials,
    series_from_results,
    trace_to_payload,
)
from ..sim.metrics import EstimateSeries
from ..sim.rng import RngHub
from .config import ExperimentConfig

__all__ = [
    "overlay_spec",
    "static_probe_series",
    "aggregation_convergence",
    "aggregation_dynamic",
]


def overlay_spec(cfg: ExperimentConfig, n: int) -> OverlaySpec:
    """The paper's standard heterogeneous random overlay at size ``n``."""
    return OverlaySpec.heterogeneous(
        n, max_degree=cfg.max_degree, min_degree=cfg.min_degree
    )


def static_probe_series(
    factory: EstimatorSpec,
    graph: OverlaySpec,
    count: int,
    hub: RngHub,
    label: str = "",
    runtime: Optional[RuntimeOptions] = None,
    overlay_seed: Optional[int] = None,
) -> EstimateSeries:
    """Run ``count`` independent one-shot estimations on a static overlay.

    Matches the static figures' procedure: the estimator is re-instantiated
    per run with a fresh RNG lineage (a new random initiator each time), and
    the one-shot estimates are logged against the estimation index.
    The *last10runs* curves are derived later via
    :meth:`~repro.sim.metrics.EstimateSeries.rolling_qualities`.

    ``overlay_seed`` pins the hub the overlay is (re)built from when it
    differs from the series hub (Fig 8 shares one overlay across series).
    """
    specs = [
        TrialSpec(
            "static_probe",
            hub.seed,
            i,
            overlay=graph,
            estimator=factory,
            overlay_seed=overlay_seed,
        )
        for i in range(1, count + 1)
    ]
    return series_from_results(run_trials(specs, runtime=runtime), name=label)


def aggregation_convergence(
    graph: OverlaySpec,
    rounds: int,
    hub: RngHub,
    runs: int = 3,
    runtime: Optional[RuntimeOptions] = None,
) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Per-round convergence curves for ``runs`` independent epochs (Figs 5-6).

    Returns one ``(round_numbers, quality_percent)`` pair per run; the
    quality of a round is read at the epoch initiator, 0 when the epidemic
    has not yet reached a readable state (the paper's curves likewise start
    near 0 and rise to 100).
    """
    specs = [
        TrialSpec(
            "agg_convergence",
            hub.seed,
            r,
            overlay=graph,
            params={"rounds": int(rounds)},
        )
        for r in range(runs)
    ]
    curves: List[Tuple[np.ndarray, np.ndarray]] = []
    for result in run_trials(specs, runtime=runtime):
        qs = np.asarray(result.extra["quality"], dtype=float)
        xs = np.arange(1, qs.size + 1, dtype=float)
        curves.append((xs, qs))
    return curves


def aggregation_dynamic(
    cfg: ExperimentConfig,
    n: int,
    trace_factory: Callable[[int], ChurnTrace],
    horizon: int,
    hub: RngHub,
    runs: int = 3,
    restart_interval: Optional[int] = None,
    runtime: Optional[RuntimeOptions] = None,
) -> Tuple[List[EstimateSeries], List[int]]:
    """Continuous Aggregation monitoring under churn (Figs 15-17).

    Each run gets its own overlay realization and churn randomness (the
    trace *schedule* is shared).  Returns the per-run estimate series
    (x = round, estimate = staircase of end-of-epoch reads, true = live
    size) and the per-run failed-epoch counts.
    """
    interval = restart_interval or cfg.scale.restart_interval
    params = {
        "trace": trace_to_payload(trace_factory(n)),
        "horizon": int(horizon),
        "restart_interval": int(interval),
        "max_degree": int(cfg.max_degree),
    }
    specs = [
        TrialSpec(
            "agg_dynamic",
            hub.seed,
            r,
            overlay=overlay_spec(cfg, n),
            params=params,
        )
        for r in range(runs)
    ]
    all_series: List[EstimateSeries] = []
    failures: List[int] = []
    for result in run_trials(specs, runtime=runtime):
        series = EstimateSeries(name=f"run{result.index + 1}")
        for x, est, size in zip(
            result.extra["x"], result.extra["estimates"], result.extra["true"]
        ):
            series.append(x, est, size)
        all_series.append(series)
        failures.append(int(result.extra["failures"]))
    return all_series, failures
