"""Per-phase latency attribution for one Fig. 7 run.

Given the flight-recorder trace of a single-client benchmark this
module splits every client-observed operation latency into the
paper's cost components (section 4, discussion of Fig. 7):

* **wire** — request and reply transit between the client and the
  server that handled the operation (including FLIP locate costs);
* **sequencer** — from handing the update to the group kernel until
  the kernel reports it committed (broadcast to the sequencer, the
  sequenced broadcast back, commit propagation);
* **disk** / **nvram** — the persistence stage of the apply pipeline
  (two Bullet+object-table disk subsystems, or the board append);
* **compute** — everything else on the server's critical path
  (marshalling, state application, scheduling gaps).

The phases are measured between *adjacent* markers on the critical
path, so for every operation they sum to the client-observed latency
exactly — the acceptance check "phase sums reproduce the Fig. 7
latency" holds by construction, and any residual is attributed
honestly to ``compute`` rather than silently dropped.

This module is imported lazily by the CLI (``python -m repro trace``)
and pulls :mod:`repro.bench` in only inside functions, keeping
:mod:`repro.obs` itself free of simulator imports.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Marker events on the handling server's critical path.
_RECV_EVENTS = ("dir.write.recv", "dir.read.recv")
_REPLY_EVENTS = ("dir.write.reply", "dir.read.reply")

#: Column order for tables and JSON output.
PHASE_ORDER = ("wire", "sequencer", "compute", "disk", "nvram")

_EPS = 1e-9


@dataclass
class OpWindow:
    """One client-observed operation: its kind and [start, end] ms."""

    op: str
    start: float
    end: float
    pair: int  # iteration index; append+delete of one pair share it


@dataclass
class OpBreakdown:
    """One operation's latency split into phases (all simulated ms)."""

    op: str
    pair: int
    total: float
    phases: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "op": self.op,
            "pair": self.pair,
            "total_ms": round(self.total, 6),
            "phases_ms": {
                k: round(v, 6) for k, v in sorted(self.phases.items())
            },
        }


@dataclass
class TraceRun:
    """Everything one traced benchmark run produced."""

    scenario: str
    impl: str
    seed: int
    iterations: int
    events: list
    windows: list
    dropped: int

    @property
    def breakdowns(self) -> list:
        return attribute(self.events, self.windows)


class AttributionError(ValueError):
    """The trace lacks the markers an operation window needs."""


# ----------------------------------------------------------------------
# attribution
# ----------------------------------------------------------------------

def attribute_window(events, window: OpWindow) -> OpBreakdown:
    """Split one operation window into phases.

    *events* is the full trace; only events inside the window on the
    handling server (the one that emitted ``dir.*.recv``) matter.
    """
    inside = [
        e
        for e in events
        if window.start - _EPS <= e.ts <= window.end + _EPS
    ]
    recv = _first(inside, lambda e: e.name in _RECV_EVENTS)
    if recv is None:
        raise AttributionError(
            f"no dir.*.recv marker inside window for {window.op!r} "
            f"[{window.start:.3f}, {window.end:.3f}]"
        )
    node = recv.node
    mine = [e for e in inside if e.node == node]
    reply = _first(mine, lambda e: e.name in _REPLY_EVENTS and e.ts >= recv.ts)
    if reply is None:
        raise AttributionError(
            f"no dir.*.reply marker for {window.op!r} on {node}"
        )

    total = window.end - window.start
    wire = (recv.ts - window.start) + (window.end - reply.ts)
    phases = {"wire": wire}

    if recv.name == "dir.read.recv":
        # Reads never enter the kernel or touch storage.
        phases["compute"] = total - wire
        return OpBreakdown(window.op, window.pair, total, phases)

    submit = _first(mine, lambda e: e.name == "grp.submit" and e.ts >= recv.ts)
    if submit is None:
        raise AttributionError(f"no grp.submit for {window.op!r} on {node}")
    lineage = submit.lineage
    committed = _first(
        mine,
        lambda e: e.name == "grp.send.committed" and e.lineage == lineage,
    )
    if committed is None:
        raise AttributionError(
            f"no grp.send.committed for lineage {lineage} on {node}"
        )
    phases["sequencer"] = committed.ts - submit.ts

    persist_start = _first(
        mine,
        lambda e: e.name == "dir.persist.start" and e.lineage == lineage,
    )
    persist_end = _first(
        mine,
        lambda e: e.name == "dir.persist.end" and e.lineage == lineage,
    )
    if persist_start is not None and persist_end is not None:
        storage = persist_start.args.get("storage", "disk")
        phases[storage] = persist_end.ts - persist_start.ts

    phases["compute"] = total - sum(phases.values())
    return OpBreakdown(window.op, window.pair, total, phases)


def attribute(events, windows) -> list:
    """Attribute every window; returns one OpBreakdown per window."""
    return [attribute_window(events, w) for w in windows]


def _first(events, predicate):
    for event in events:
        if predicate(event):
            return event
    return None


# ----------------------------------------------------------------------
# aggregation
# ----------------------------------------------------------------------

def aggregate(breakdowns) -> dict:
    """Mean per-phase costs, per op kind and for the full iteration.

    Returns ``{"ops": {op: {"count", "total_ms", phases...}},
    "iteration": {...}}`` where *iteration* sums every op of one
    benchmark iteration (e.g. append + delete of one pair), matching
    what :func:`repro.bench.harness.fig7_cell` measures.
    """
    by_op: dict = {}
    for b in breakdowns:
        by_op.setdefault(b.op, []).append(b)

    def mean_block(items) -> dict:
        n = len(items)
        block = {"count": n, "total_ms": sum(b.total for b in items) / n}
        keys = sorted({k for b in items for k in b.phases})
        for key in keys:
            block[key] = sum(b.phases.get(key, 0.0) for b in items) / n
        return block

    ops = {op: mean_block(items) for op, items in sorted(by_op.items())}

    by_pair: dict = {}
    for b in breakdowns:
        by_pair.setdefault(b.pair, []).append(b)
    iteration_totals = []
    for pair, items in sorted(by_pair.items()):
        phases: dict = {}
        for b in items:
            for key, value in b.phases.items():
                phases[key] = phases.get(key, 0.0) + value
        iteration_totals.append(
            OpBreakdown("iteration", pair, sum(b.total for b in items), phases)
        )
    return {"ops": ops, "iteration": mean_block(iteration_totals)}


def format_table(summary: dict, scenario: str, impl: str) -> str:
    """Render :func:`aggregate`'s output as a fixed-width table."""
    rows = dict(summary["ops"])
    if len(rows) > 1:
        rows["iteration"] = summary["iteration"]
    keys = [
        k
        for k in PHASE_ORDER
        if any(k in block for block in rows.values())
    ]
    lines = [
        f"Per-phase latency breakdown — scenario={scenario} impl={impl}",
        "(simulated ms, mean over iterations; phases sum to total)",
        "",
    ]
    header = f"{'op':<12} {'n':>3} {'total':>9}" + "".join(
        f" {k:>10}" for k in keys
    )
    lines.append(header)
    lines.append("-" * len(header))
    for op, block in rows.items():
        line = f"{op:<12} {block['count']:>3} {block['total_ms']:>9.3f}"
        for key in keys:
            value = block.get(key)
            line += f" {value:>10.3f}" if value is not None else f" {'-':>10}"
        lines.append(line)
    return "\n".join(lines)


# ----------------------------------------------------------------------
# traced benchmark driver
# ----------------------------------------------------------------------

#: scenario name -> (implementation, fig7 test it mirrors)
SCENARIOS = {
    "update": ("group", "append_delete"),
    "nvram-update": ("nvram", "append_delete"),
    "lookup": ("group", "lookup"),
}


def record_update_trace(
    scenario: str = "update",
    iterations: int = 15,
    seed: int = 0,
    capacity: int | None = None,
) -> TraceRun:
    """Run one Fig. 7 scenario with the flight recorder on.

    The driver repeats :func:`repro.bench.harness.fig7_cell`'s exact
    sequence (same warmup, same operations, same seed) so the traced
    totals equal the benchmark's — but it records one
    :class:`OpWindow` per client operation, ready for
    :func:`attribute`.
    """
    from repro.bench.harness import build_deployment
    from repro.workloads.generators import lookup_once

    if scenario not in SCENARIOS:
        raise ValueError(
            f"unknown scenario {scenario!r}; expected one of "
            f"{sorted(SCENARIOS)}"
        )
    impl, test = SCENARIOS[scenario]
    deployment = build_deployment(impl, seed=seed)
    cluster = deployment.cluster
    client = deployment.add_client("bench")
    sim = deployment.sim
    root = deployment.root
    windows: list = []

    def driver():
        target = yield from client.create_dir()
        if test == "lookup":
            yield from client.append_row(root, "bench-name", (target,))
        tracer = cluster.enable_tracing(capacity)
        assert tracer.enabled
        for i in range(iterations):
            if test == "append_delete":
                start = sim.now
                yield from client.append_row(root, f"t{i}", (target,))
                windows.append(OpWindow("append", start, sim.now, i))
                start = sim.now
                yield from client.delete_row(root, f"t{i}")
                windows.append(OpWindow("delete", start, sim.now, i))
            else:
                start = sim.now
                yield from lookup_once(client, root, "bench-name")
                windows.append(OpWindow("lookup", start, sim.now, i))

    cluster.run_process(driver())
    tracer = cluster.obs.tracer
    return TraceRun(
        scenario=scenario,
        impl=impl,
        seed=seed,
        iterations=iterations,
        events=list(tracer.events()),
        windows=windows,
        dropped=tracer.dropped,
    )


def check_against_benchmark(
    run: TraceRun, tolerance: float = 0.05
) -> dict:
    """Compare the traced per-iteration phase sums against an
    untraced :func:`fig7_cell` run of the same cell.

    Returns ``{"benchmark_ms", "traced_ms", "relative_error", "ok"}``.
    The benchmark runs fresh (same seed/iterations), so this verifies
    both that tracing does not perturb the simulation and that the
    phase decomposition accounts for the full latency.
    """
    from repro.bench.harness import fig7_cell

    benchmark = fig7_cell(
        run.impl, SCENARIOS[run.scenario][1],
        iterations=run.iterations, seed=run.seed,
    )
    traced = aggregate(run.breakdowns)["iteration"]["total_ms"]
    error = abs(traced - benchmark) / benchmark if benchmark else 0.0
    return {
        "benchmark_ms": round(benchmark, 6),
        "traced_ms": round(traced, 6),
        "relative_error": round(error, 6),
        "ok": error <= tolerance,
    }
