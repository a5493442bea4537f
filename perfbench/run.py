"""The repo's benchmark: one workload against the fixed deployment.

    python3 perfbench/run.py --workload lookup_open --seed 1 --seconds 20 --trace 0

Run from the repository root. It boots the deployment described in
``perfbench/README.md``, runs the workload, checks the service's
outputs, prints every end-to-end metric by name, unit and clock, and
ends with one JSON line::

    {"correct": true, "attempted": N, "failed": F, "metrics": {...}}

With ``--trace 0`` the JSON metrics are the ``end_to_end`` metrics of
``BENCHMARK.json``; with ``--trace 1`` the workload runs twice on half
the budget each, untraced then traced, and the JSON metrics are the
``per_layer`` metrics. The traced run's sim-clock results must equal
the untraced run's exactly. Exit status is 0 only when every check
passed.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

#: The twelve end-to-end metrics: unit, clock, better, applies-to.
#: ``None`` for applies-to means every workload.
END_TO_END = {
    "lookup_p50_ms": ("ms", "sim", "lower", None),
    "lookup_p99_ms": ("ms", "sim", "lower", None),
    "update_p50_ms": ("ms", "sim", "lower",
                      ("production_mix", "update_saturation", "sequencer_failover")),
    "update_p99_ms": ("ms", "sim", "lower", ("update_saturation",)),
    "update_pairs_per_s": ("1/s", "sim", "higher", ("update_saturation",)),
    "max_lookup_rate_per_s": ("1/s", "sim", "higher", ("lookup_open",)),
    "failed_ratio": ("ratio", "count", "lower", None),
    "write_outage_ms": ("ms", "sim", "lower", ("sequencer_failover",)),
    "rejoin_ms": ("ms", "sim", "lower", ("sequencer_failover",)),
    "host_us_per_op": ("us", "host", "lower", None),
    "setup_s": ("s", "host", "lower", None),
    "peak_rss_mb": ("MB", "host", "lower", None),
}


def end_to_end(result, setup) -> dict:
    """name -> (value, samples) for every metric that applies."""
    from core import MIN_P99_SAMPLES, peak_rss_mb, percentile

    lookups = result.latencies("lookup")
    pairs = result.latencies("pair")
    attempted = len(result.window)
    failed = sum(1 for s in result.window if not s.ok)
    out = {
        "lookup_p50_ms": (percentile(lookups, 0.5), len(lookups)),
        "failed_ratio": (failed / attempted if attempted else math.nan, attempted),
        "host_us_per_op": (result.timing.host_us_per_op, result.timing.ops),
        "setup_s": (setup.setup_s, len(setup.times)),
        "peak_rss_mb": (peak_rss_mb(), 1),
    }
    if len(lookups) >= MIN_P99_SAMPLES:
        out["lookup_p99_ms"] = (percentile(lookups, 0.99), len(lookups))
    if pairs:
        out["update_p50_ms"] = (percentile(pairs, 0.5), len(pairs))
    if len(pairs) >= MIN_P99_SAMPLES:
        out["update_p99_ms"] = (percentile(pairs, 0.99), len(pairs))
    extra = result.extra
    if "update_pairs_per_s" in extra:
        out["update_pairs_per_s"] = (extra["update_pairs_per_s"], len(pairs))
    if "max_lookup_rate_per_s" in extra:
        out["max_lookup_rate_per_s"] = (
            float(extra["max_lookup_rate_per_s"]), len(extra["ladder"])
        )
    if extra.get("outages"):
        out["write_outage_ms"] = (statistics.median(extra["outages"]), len(extra["outages"]))
    if extra.get("rejoins"):
        out["rejoin_ms"] = (statistics.median(extra["rejoins"]), len(extra["rejoins"]))
    return out


def sim_clock(values: dict) -> dict:
    """The sim-clock and count subset (must repeat exactly per seed)."""
    return {
        name: value for name, (value, _n) in values.items()
        if END_TO_END[name][1] in ("sim", "count")
    }


def print_table(workload, values) -> None:
    print(f"workload {workload}: end-to-end metrics")
    for name, (unit, clock, better, applies) in END_TO_END.items():
        if name in values:
            value, n = values[name]
            shown = f"{value:.6g}"
            print(f"  {name:<24}{shown:>14} {unit:<6}{clock:<6}{better:<7}n={n}")
        else:
            reason = (
                "not measured on this workload"
                if applies is not None and workload not in applies
                else "too few samples"
            )
            print(f"  {name:<24}{'n/a':>14} {unit:<6}{clock:<6}{better:<7}({reason})")


def run_workload(workload, seed, budget_s, setup_repeats, tracer=None):
    """Boot, run and check one workload; returns (result, setup times,
    probe) where probe holds counter snapshots around the workload.
    With a *tracer*, what it recorded during boot is dropped."""
    import core

    deployment, setup = core.boot(seed, setup_repeats)
    op_hook = None
    if tracer is not None:
        tracer.reset()
        op_hook = tracer.open_op
    cluster = deployment.cluster
    probe = {
        "counters_before": cluster.obs.registry.counter_values(),
        "frames_before": cluster.network.stats.snapshot(),
        "bytes_before": cluster.network.stats.bytes_sent,
        "sim_before": deployment.sim.now,
        "events_before": deployment.sim._sequence,
    }
    result = core.RUNNERS[workload](deployment, seed, budget_s, op_hook=op_hook)
    probe.update(
        counters_after=cluster.obs.registry.counter_values(),
        frames_after=cluster.network.stats.snapshot(),
        bytes=cluster.network.stats.bytes_sent - probe["bytes_before"],
        elapsed_ms=deployment.sim.now - probe["sim_before"],
        events=deployment.sim._sequence - probe["events_before"],
    )
    return result, setup, probe


def traced_run(workload, seed, budget_s):
    """Untraced then traced pass; returns the per-layer metrics, the
    problems found, and the untraced pass's result and end-to-end values."""
    from layers import coverage_problems, layer_metrics
    from tracing import Tracer

    untraced, setup, _ = run_workload(workload, seed, budget_s, 1)
    plain = end_to_end(untraced, setup)
    with Tracer() as tracer:
        traced, _, probe = run_workload(workload, seed, budget_s, 1, tracer)
    problems = list(untraced.problems) + list(traced.problems)
    traced_values = end_to_end(traced, setup)
    if sim_clock(traced_values) != sim_clock(plain):
        problems.append(
            "tracing is not passive: sim-clock metrics differ "
            f"({sim_clock(plain)} untraced vs {sim_clock(traced_values)} traced)"
        )
    metrics = layer_metrics(tracer, traced, untraced, probe)
    problems.extend(coverage_problems(workload, metrics))
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    tracer.write(out_dir / f"spans-{workload}-seed{seed}.jsonl")
    return metrics, problems, untraced, plain


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def main(argv=None) -> int:
    import core

    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=core.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="host-time budget of the measured work")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = load_spec()

    if args.trace:
        metrics, problems, result, values = traced_run(
            args.workload, args.seed, args.seconds / 2.0
        )
        print_table(args.workload, values)
        print(f"workload {args.workload}: per-layer metrics (traced run)")
        for name in sorted(metrics):
            print(f"  {name:<32}{metrics[name]:>16.6g}")
        wanted = spec["per_layer"]
        reported = {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted
        }
    else:
        result, setup, _ = run_workload(
            args.workload, args.seed, args.seconds, core.SETUP_REPEATS
        )
        problems = list(result.problems)
        values = end_to_end(result, setup)
        print_table(args.workload, values)
        timing = result.timing
        print(f"  host metrics at reference speed: measured host_us_per_op "
              f"{timing.raw_us_per_op:.6g} x speed {timing.speed:.4f}; measured "
              f"boots {[round(t, 4) for t in setup.times]} s x speed "
              f"{core.speed_factor(setup.calibrations):.4f}")
        if "ladder" in result.extra:
            print("  ladder (offered lookups/s -> p99 ms, refused, ok):")
            for rate, verdict in result.extra["ladder"]:
                print(f"    {rate:>6} -> {verdict['p99_ms']:10.3f} "
                      f"{verdict['refused']:>5} {verdict['ok']}")
        missing = [m["name"] for m in spec["end_to_end"] if m["name"] not in values]
        if missing:
            problems.append(f"metrics not measured: {missing}")
        reported = {
            m["name"]: {"value": values[m["name"]][0], "unit": m["unit"]}
            for m in spec["end_to_end"] if m["name"] in values
        }

    for name, entry in reported.items():
        if not math.isfinite(entry["value"]):
            problems.append(f"{name} is {entry['value']} (failures or refusals)")
            entry["value"] = None
    attempted = len(result.window)
    failed = sum(1 for s in result.window if not s.ok)
    print(f"  retried lookups: {result.driver.retried}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    correct = not problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": reported,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except ImportError as exc:
        print(f"cannot import the system under test: {exc}", file=sys.stderr)
        sys.exit(2)
