"""The repository benchmark: paper-scale fig11 serially, on a local pool and
on a cluster, and the resident service under mixed reads and writes.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload NAME[,NAME...|all] --seed N \\
        --seconds S --trace 0|1 [--size paper|tiny]

It drives the program from outside through the commands users run
(``repro-experiment run ...``, ``worker serve``, ``serve``), checks the
outputs, and prints a report followed, as its last line, by one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` they are its per-layer metrics,
taken from a run whose program processes record spans (see
``perfbench/tracing.py``).  Naming several workloads runs them in order;
the last line then maps ``workload:metric`` to each value.

``--size tiny`` shrinks every workload (small-scale fig11, a 300-node
service) for the benchmark's own tests.  Exit codes: 0 with a result
(which may say ``"correct": false``), 1 when a workload could not
produce a result, 2 when the program or ``BENCHMARK.json`` is missing.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import shutil
import sys
from typing import Any, Dict, List

ROOT = pathlib.Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import harness  # noqa: E402
from perfbench.fig11 import Fig11  # noqa: E402
from perfbench.service import ServiceWorkload  # noqa: E402

#: Per workload: how to build it and which older artifact it replaces.  Why
#: each exists is in BENCHMARK.json, which lists every workload here except
#: service_mixed_20k: on this 2-vCPU host its run-to-run spread is several
#: times the largest bound a benchmark may set, so it runs only on request.
WORKLOADS: Dict[str, Dict[str, Any]] = {
    "fig11_sc_100k_serial": {
        "make": lambda seed, size, shared: Fig11("serial", seed, size, shared),
        "supersedes": ["BENCH_KERNELS.json fig11_ab (array arm)"],
    },
    "fig11_sc_100k_pool2": {
        "make": lambda seed, size, shared: Fig11("pool2", seed, size, shared),
        "supersedes": ["BENCH_SNAPSHOTS.json", "BENCH_OBS.json"],
    },
    "fig11_sc_100k_cluster2": {
        "make": lambda seed, size, shared: Fig11("cluster2", seed, size, shared),
        "supersedes": [],
    },
    "service_mixed_20k": {
        "make": lambda seed, size, shared: ServiceWorkload(seed, size),
        "supersedes": ["BENCH_SERVICE.json throughput", "BENCH_SERVICE.json checkpoint"],
    },
}


def load_spec() -> Dict[str, Any]:
    """``BENCHMARK.json``: metric names and units."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_workload(name: str, seed: int, seconds: float, trace: bool, size: str,
                 spec: Dict[str, Any], shared: Dict[int, bytes]) -> Dict[str, Any]:
    """Run one workload; its result object (the contract's last line).

    ``shared`` carries the serial fig11 CSVs of this invocation to the
    pool and cluster workloads, which must reproduce them byte for byte.
    """
    workload = WORKLOADS[name]["make"](seed, size, shared)
    if trace:
        found = workload.trace(seconds)
        wanted = spec["per_layer"]
        # Layers a workload does not exercise report 0 (e.g. the service
        # layers on fig11); a name the workload made up is an error.
        missing_ok = True
    else:
        found = workload.measure(seconds)
        wanted = spec["end_to_end"]
        missing_ok = False
    names = {m["name"] for m in wanted}
    unknown = sorted(set(found) - names)
    missing = sorted(names - set(found))
    if unknown or (missing and not missing_ok):
        raise harness.BenchError(
            f"{name}: metrics not in BENCHMARK.json {unknown}, missing {missing}"
        )
    metrics = {
        m["name"]: {"value": float(found.get(m["name"], 0)), "unit": m["unit"]}
        for m in wanted
    }
    return {
        "correct": workload.failed == 0 and not workload.checks,
        "attempted": int(workload.attempted),
        "failed": int(workload.failed),
        "metrics": metrics,
        "checks": workload.checks,
        "notes": workload.notes,
    }


def _report(name: str, result: Dict[str, Any], env: Dict[str, Any],
            spec: Dict[str, Any]) -> List[str]:
    why = next((w["why"] for w in spec["workloads"] if w["name"] == name),
               "not in BENCHMARK.json: too unsteady to gate on (perfbench/README.md)")
    lines = [
        f"== {name} (seed {env['seed']})",
        f"   why: {why}",
        f"   supersedes: {', '.join(WORKLOADS[name]['supersedes']) or '(new)'}",
        f"   failed/attempted: {result['failed']}/{result['attempted']}"
        f"  correct: {str(result['correct']).lower()}",
    ]
    for check in result["checks"][:10]:
        lines.append(f"   check failed: {check}")
    for note in result["notes"]:
        lines.append(f"   note: {note}")
    for metric, entry in result["metrics"].items():
        lines.append(f"   {metric:<34} {entry['value']:>16.6g} {entry['unit']}")
    return lines


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help=f"one of {sorted(WORKLOADS)}, a comma list, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("paper", "tiny"), default="paper")
    args = parser.parse_args(argv)

    names = list(WORKLOADS) if args.workload == "all" else args.workload.split(",")
    for name in names:
        if name not in WORKLOADS:
            parser.error(f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}")
    if not (harness.SRC / "repro" / "experiments" / "cli.py").is_file():
        sys.stderr.write(f"perfbench: no program under {harness.SRC}\n")
        return 2
    try:
        spec = load_spec()
    except (OSError, ValueError) as exc:
        sys.stderr.write(f"perfbench: cannot read BENCHMARK.json: {exc}\n")
        return 2

    env = harness.environment(args.seed)
    print("# environment " + json.dumps(env))
    cpu_before = harness.cpu_times()
    results: Dict[str, Dict[str, Any]] = {}
    shared: Dict[int, bytes] = {}
    try:
        for name in names:
            try:
                results[name] = run_workload(
                    name, args.seed, args.seconds, bool(args.trace), args.size, spec, shared
                )
            except harness.BenchError as exc:
                sys.stderr.write(f"perfbench: {name}: {exc}\n")
                return 1
            print("\n".join(_report(name, results[name], env, spec)), flush=True)
    finally:
        shutil.rmtree(harness.WORK, ignore_errors=True)

    steal = harness.steal_share(cpu_before, harness.cpu_times())
    if steal is not None:
        print(f"# cpu steal during the run: {steal:.1%} of busy CPU time")

    def strip(result: Dict[str, Any]) -> Dict[str, Any]:
        return {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}

    if len(names) == 1:
        final = strip(results[names[0]])
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}:{metric}": entry
                for name, result in results.items()
                for metric, entry in result["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
