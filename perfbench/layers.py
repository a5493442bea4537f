"""Per-layer metrics of the traced run, and their coverage checks.

Layer names are the repo's modules. Which end-to-end metric each layer
metric should move, and on which workload, is recorded in
``perfbench/README.md``. Counts come from the deployment's own
counters (network frame counts by kind, the metrics registry); times
come from the spans :mod:`tracing` recorded.
"""

from __future__ import annotations

import statistics

from core import percentile
from tracing import LAYERS, Breakdown

#: Ops whose span trees are reconciled per traced run (the first N
#: completed operations), which bounds the analysis' host time.
RECONCILE_OPS = 3000


def _durations(spans, names, ok_only=True):
    return sorted(
        s.t1 - s.t0 for s in spans
        if s.name in names and s.t1 is not None and not (ok_only and s.failed)
    )


def _p(values, q):
    return percentile(values, q) if values else 0.0


def _mean(values):
    return statistics.fmean(values) if values else 0.0


def _delta(after, before, metric, node_filter=None):
    return sum(
        value - before.get(key, 0.0)
        for key, value in after.items()
        if key[1] == metric and (node_filter is None or node_filter in key[0])
    )


def _frames(after, before, predicate):
    return sum(
        n - before.get(kind, 0) for kind, n in after.items() if predicate(kind)
    )


def layer_metrics(tracer, traced, untraced, probe) -> dict:
    """Every per-layer metric of one traced workload run.

    *traced* / *untraced* are the two passes' :class:`core.Result`;
    *probe* holds the traced pass's counter and frame snapshots taken
    around the workload and its sim elapsed time.
    """
    spans = [s for s in tracer.spans if s.t1 is not None]
    driver = traced.driver
    ops = sum((1 if s.kind == "lookup" else 2) for s in driver.samples if s.ok) or 1
    updates = 2 * sum(1 for s in driver.samples if s.ok and s.kind == "pair") or 1
    elapsed = probe["elapsed_ms"] or 1.0
    c0, c1 = probe["counters_before"], probe["counters_after"]
    f0, f1 = probe["frames_before"], probe["frames_after"]

    self_host = dict.fromkeys(LAYERS, 0)
    for span in spans:
        if span.host_ns:  # timed spans only; serve and op spans are not
            self_host[span.layer] += span.host_ns - span.kids_host
    for name in ("dir.query", "dir.apply"):
        self_host["directory"] += tracer.calls[name][1]
    self_host["net"] += tracer.calls["net.transmit"][1]

    def per_op_us(ns):
        return ns / ops / 1000.0

    trans = [s for s in spans if s.name == "rpc.trans"]
    sends = [s for s in spans if s.name == "group.send"]
    read_waits = sorted(
        s.t1 - s.t0 for s in spans
        if s.name == "group.wait_applied" and s.parent is not None
        and s.parent.name == "rpc.serve" and getattr(s.parent.arg, "is_read", False)
    )
    flushes = [s for s in spans if s.name == "disk.write_blocks"]
    resets = [s for s in spans if s.name == "group.reset"]
    disk_grants = _delta(c1, c0, "disk.arm.grants")
    query_calls, query_ns = tracer.calls["dir.query"]
    apply_calls, apply_ns = tracer.calls["dir.apply"]
    recoveries = traced.extra.get("recoveries") or []

    metrics = {
        "driver.lateness_ms_max": driver.lateness_ms_max,
        "driver.users_peak": driver.users_peak,
        "driver.refused": driver.refused,
        "sim.events_per_op": probe["events"] / ops,
        "sim.host_ns_per_event": untraced.timing.host_s * 1e9 / max(untraced.timing.events, 1),
        "net.packets_per_op": _frames(f1, f0, lambda k: True) / ops,
        "net.bytes_per_op": probe["bytes"] / ops,
        "net.host_us_per_op": per_op_us(self_host["net"]),
        "rpc.trans_ms_p50": _p(_durations(trans, {"rpc.trans"}), 0.5),
        "rpc.trans_ms_p99": _p(_durations(trans, {"rpc.trans"}), 0.99),
        "rpc.attempts_per_trans": (
            _frames(f1, f0, lambda k: k == "rpc.request") / max(len(trans), 1)
        ),
        "rpc.locates_per_op": _frames(f1, f0, lambda k: k == "rpc.locate") / ops,
        "rpc.nothere_per_op": _frames(f1, f0, lambda k: k == "rpc.nothere") / ops,
        "rpc.failures": sum(1 for s in trans if s.failed),
        "rpc.host_us_per_op": per_op_us(self_host["rpc"]),
        "group.send_ms_p50": _p(_durations(sends, {"group.send"}), 0.5),
        "group.send_ms_p99": _p(_durations(sends, {"group.send"}), 0.99),
        "group.ops_per_batch": _mean(tracer.batches),
        "group.packets_per_send": (
            _frames(f1, f0, lambda k: ".grp." in k and not k.endswith((".hb", ".echo")))
            / max(len(sends), 1)
        ),
        "group.seq_busy_frac": _delta(c1, c0, "group.seq_busy_ms") / elapsed,
        "group.read_wait_ms_mean": _mean(read_waits),
        "group.read_wait_ms_p99": _p(read_waits, 0.99),
        "group.reset_ms": _mean([s.t1 - s.t0 for s in resets if not s.failed]),
        "group.resets_without_winner": sum(1 for s in resets if s.failed),
        "group.host_us_per_op": per_op_us(self_host["group"]),
        "directory.persist_ms_p50": _p(_durations(spans, {"dir.persist"}), 0.5),
        "directory.persist_ms_p99": _p(_durations(spans, {"dir.persist"}), 0.99),
        "directory.cpu_busy_frac": (
            _delta(c1, c0, "cpu.busy_ms", ".dir") / (3 * elapsed)
        ),
        "directory.query_host_us": query_ns / max(query_calls, 1) / 1000.0,
        "directory.apply_host_us": apply_ns / max(apply_calls, 1) / 1000.0,
        "directory.recovery_ms": statistics.median(recoveries) if recoveries else 0.0,
        "directory.host_us_per_op": per_op_us(self_host["directory"]),
        "storage.disk_ops_per_update": disk_grants / updates if disk_grants else 0.0,
        "storage.blocks_per_flush": _mean([len(s.arg) for s in flushes if s.arg]),
        "storage.disk_write_ms_p50": _p(
            _durations(spans, {"disk.write_blocks", "disk.write_block"}), 0.5
        ),
        "storage.disk_queue_ms_mean": (
            _delta(c1, c0, "disk.arm.wait_ms") / disk_grants if disk_grants else 0.0
        ),
        "storage.disk_busy_frac": _delta(c1, c0, "disk.arm.busy_ms") / (3 * elapsed),
        "storage.bullet_ms_p50": _p(
            _durations(spans, {"bullet.create", "bullet.delete"}), 0.5
        ),
        "storage.host_us_per_op": per_op_us(self_host["storage"]),
        "trace_overhead_pct": (traced.timing.host_s / untraced.timing.host_s - 1.0) * 100.0,
    }
    metrics.update(reconcile(tracer))
    return metrics


def reconcile(tracer) -> dict:
    """Split each operation's latency into sim self-time per layer.

    For the first :data:`RECONCILE_OPS` completed operations, the self
    times over the operation's span tree (client spans, the request's
    network flights and server spans, and the group thread's apply and
    persist spans a ``wait_applied`` covers) are summed per layer.
    Overlapping sibling spans (work done in parallel) make the sum
    exceed the latency; the mean excess is ``recon.residual_pct``.
    """
    breakdown = Breakdown(tracer)
    roots = [
        s for s in tracer.spans
        if s.layer == "driver" and s.t1 is not None and s.t1 > s.t0
    ][:RECONCILE_OPS]
    totals = dict.fromkeys(LAYERS, 0.0)
    latency = 0.0
    residuals = []
    for root in roots:
        parts = breakdown.of(root)
        duration = root.t1 - root.t0
        latency += duration
        for layer, value in parts.items():
            totals[layer] += value
        residuals.append(abs(sum(parts.values()) - duration) / duration)
    out = {
        f"recon.{layer}_pct": (100.0 * totals[layer] / latency if latency else 0.0)
        for layer in LAYERS
    }
    out["recon.residual_pct"] = 100.0 * _mean(residuals)
    out["recon.ops"] = len(roots)
    return out


#: Coverage expectations: (workload, metric, "nonzero" | "zero").
COVERAGE = (
    ("lookup_open", "rpc.trans_ms_p50", "nonzero"),
    ("lookup_open", "net.packets_per_op", "nonzero"),
    ("lookup_open", "directory.query_host_us", "nonzero"),
    ("lookup_open", "driver.users_peak", "nonzero"),
    ("lookup_open", "group.read_wait_ms_mean", "zero"),
    ("lookup_open", "group.send_ms_p50", "zero"),
    ("lookup_open", "storage.disk_busy_frac", "zero"),
    ("lookup_open", "storage.disk_write_ms_p50", "zero"),
    ("lookup_open", "directory.persist_ms_p50", "zero"),
    ("production_mix", "group.read_wait_ms_mean", "nonzero"),
    ("production_mix", "directory.persist_ms_p50", "nonzero"),
    ("production_mix", "storage.disk_write_ms_p50", "nonzero"),
    ("update_saturation", "group.send_ms_p50", "nonzero"),
    ("update_saturation", "group.seq_busy_frac", "nonzero"),
    ("update_saturation", "storage.disk_busy_frac", "nonzero"),
    ("update_saturation", "storage.bullet_ms_p50", "nonzero"),
    ("update_saturation", "directory.cpu_busy_frac", "nonzero"),
    ("sequencer_failover", "group.reset_ms", "nonzero"),
    ("sequencer_failover", "directory.recovery_ms", "nonzero"),
)


def coverage_problems(workload, metrics) -> list[str]:
    problems = []
    for name, metric, expect in COVERAGE:
        if name != workload:
            continue
        value = metrics[metric]
        if (expect == "zero") != (value == 0):
            problems.append(f"coverage: {metric} = {value!r}, predicted {expect}")
    for layer in LAYERS:
        if layer != "driver" and metrics[f"recon.{layer}_pct"] < 0:
            problems.append(f"coverage: negative share for {layer}")
    return problems
