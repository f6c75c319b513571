"""Run one workload of the repository benchmark and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fleet-cold --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

Every end-to-end metric is printed by name with its unit; the last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``failed`` counts every
operation that raised, timed out or was rejected by its oracle;
``correct`` is false when an oracle rejected a result.  ``--trace 0`` reports the
end-to-end metrics.  ``--trace 1`` measures one untraced window, then a
second window with every layer wrapped in spans, and reports the
per-layer metrics plus the tracing overhead (the gap between the two
windows); the spans are written to ``.perfbench_out/`` when the run ends.

See ``perfbench/README.md`` for the metric table and the layer map.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time

from hostspeed import HostSpeed
from layers import PER_LAYER, layer_metrics
from tracing import Instrumentation, SpanRecorder

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")
OUT_ROOT = os.path.join(ROOT, ".perfbench_out")

#: set-ups per run; ``setup_s`` is their median
SETUP_REPEATS = 3

#: name -> unit of every end-to-end metric (BENCHMARK.json ``end_to_end``)
END_TO_END: dict[str, str] = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "throughput_per_s": "1/s",
    "p50_ms": "ms",
    "tail_ms": "ms",
    "analysis_success_rate": "ratio",
    "precision": "ratio",
    "recall": "ratio",
    "f1": "ratio",
}

#: the names the workloads' users know these metrics by
ALIASES: dict[str, dict[str, str]] = {
    "fleet-cold": {"throughput_per_s": "fleet_bin_per_s"},
    "service-mix": {
        "throughput_per_s": "service_rps",
        "p50_ms": "service_p50_ms",
        "tail_ms": "service_tail_ms",
    },
    "update": {"p50_ms": "update_p50_ms", "tail_ms": "update_tail_ms"},
}


#: the tail percentile: ten samples lie beyond it in a window of 100,
#: and every full-size window has 300 or more
TAIL_PERCENTILE = 90


def tail(values: list[float]) -> tuple[float, float, int, int]:
    """``(value, percentile, samples, samples beyond)`` of the
    :data:`TAIL_PERCENTILE` latency (nearest rank).

    The percentile is fixed instead of moving up with the sample count:
    a faster program completes more samples in the same window and would
    otherwise be judged at a more extreme percentile, and on
    ``service-mix`` p95 and above sit on the edge between one-poll and
    two-poll latencies and swung by 40% from run to run.
    """
    ordered = sorted(values)
    n = len(ordered)
    rank = max(1, -(-TAIL_PERCENTILE * n // 100))
    return ordered[rank - 1], float(TAIL_PERCENTILE), n, n - rank


def _mean(values) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def end_to_end(outcome, setup_times: list[float]) -> dict[str, float]:
    lat = outcome.latencies_ms
    return {
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "throughput_per_s": outcome.throughput,
        "p50_ms": statistics.median(lat) if lat else 0.0,
        "tail_ms": tail(lat)[0] if lat else 0.0,
        "analysis_success_rate": _ratio(outcome.successes, outcome.analyses),
        "precision": _mean(s.precision for s in outcome.scores),
        "recall": _mean(s.recall for s in outcome.scores),
        "f1": _mean(s.f1 for s in outcome.scores),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 sizes=None) -> dict:
    """Set up ``name`` SETUP_REPEATS times, measure, check; returns the
    run's result document (metrics, counts, provenance, errors)."""
    from workloads import DEFAULT, WORKLOADS

    sizes = sizes or DEFAULT
    os.makedirs(WORK_ROOT, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_ROOT)
    workload = None
    try:
        setup_times = []
        host = HostSpeed(work)
        for i in range(SETUP_REPEATS):
            if workload is not None:
                workload.close()
            workload = WORKLOADS[name](seed, sizes, os.path.join(work, str(i)))
            host.start()
            started = time.perf_counter()
            workload.setup()
            setup_times.append((time.perf_counter() - started) * host.factor())
        _quiesce()
        outcome = workload.measure(seconds)
        metrics = end_to_end(outcome, setup_times)
        result = {
            "workload": name,
            "metrics": metrics,
            "attempted": outcome.attempted,
            "failed": outcome.failed,
            "wrong": outcome.wrong,
            "errors": list(outcome.errors),
            "extra": dict(outcome.extra),
            "tail": dict(zip(("value_ms", "percentile", "samples",
                              "beyond"), _tail_doc(outcome.latencies_ms))),
            "setup_times_s": setup_times,
        }
        if trace:
            _quiesce()
            recorder = SpanRecorder()
            with Instrumentation(recorder):
                traced = workload.measure(seconds)
            traced_metrics = end_to_end(traced, setup_times)
            overhead = {
                key: _ratio(traced_metrics[key] - metrics[key], metrics[key])
                for key in ("throughput_per_s", "p50_ms", "tail_ms")
            }
            layers = layer_metrics(recorder.spans, traced, overhead)
            result["layers"] = layers
            result["overhead"] = overhead
            result["attempted"] += traced.attempted
            result["failed"] += traced.failed
            result["wrong"] += traced.wrong
            result["errors"] += traced.errors
            path = os.path.join(OUT_ROOT, f"trace-{name}-seed{seed}.json")
            recorder.write(path, {
                "workload": name, "seed": seed, "seconds": seconds,
                "layers": layers, "overhead": overhead,
                "untraced": metrics, "traced": traced_metrics,
            })
            result["trace_file"] = os.path.relpath(path, ROOT)
        result["provenance"] = dict(workload.provenance)
        return result
    finally:
        gc.unfreeze()
        if workload is not None:
            workload.close()
        shutil.rmtree(work, ignore_errors=True)


def _quiesce() -> None:
    """Move the harness's own set-up objects out of the collector's view.

    Without this every full collection inside the timed window also scans
    the generated corpus the harness holds, which a ``bside`` process
    never has in memory (it put 45-60 ms spikes into ``fleet-cold``'s
    tail)."""
    gc.collect()
    gc.freeze()


def _tail_doc(latencies: list[float]) -> tuple:
    return tail(latencies) if latencies else (0.0, 0.0, 0, 0)


def _print_result(result: dict, trace: bool) -> None:
    name = result["workload"]
    aliases = ALIASES.get(name, {})
    print(f"== {name}: {result['attempted']} attempted, "
          f"{result['failed']} failed, {result['wrong']} of them wrong "
          f"(failed_frac {_ratio(result['failed'], result['attempted']):.4f})")
    for metric, value in result["metrics"].items():
        alias = f"  [{aliases[metric]}]" if metric in aliases else ""
        print(f"  {metric:<24} {value:>14.6f} {END_TO_END[metric]}{alias}")
    tail_doc = result["tail"]
    print(f"  tail_ms = p{tail_doc['percentile']:g} of "
          f"{tail_doc['samples']} samples ({tail_doc['beyond']} beyond it)")
    for key, value in result["extra"].items():
        print(f"  {key:<24} {value}")
    if trace:
        for metric, value in result["layers"].items():
            print(f"  {metric:<34} {value:>14.6g} {PER_LAYER[metric]}")
        for key, value in result["overhead"].items():
            print(f"  tracing overhead on {key}: {100 * value:+.2f}%")
        print(f"  spans written to {result['trace_file']}")
    for error in result["errors"]:
        print(f"  FAILED: {error}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["fleet-cold", "service-mix", "update", "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program sources at {SRC}; run from the root "
              "of a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = [
        run_workload(name, args.seed, args.seconds, bool(args.trace))
        for name in names
    ]
    for result in results:
        _print_result(result, bool(args.trace))
    print("provenance: " + json.dumps({
        "seed": args.seed,
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "workloads": {r["workload"]: r["provenance"] for r in results},
    }, sort_keys=True))

    units = PER_LAYER if args.trace else END_TO_END
    metrics = {}
    for result in results:
        values = result["layers"] if args.trace else result["metrics"]
        prefix = "" if len(results) == 1 else result["workload"] + "."
        for metric, value in values.items():
            metrics[prefix + metric] = {"value": value, "unit": units[metric]}
    print(json.dumps({
        "correct": all(r["wrong"] == 0 for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
