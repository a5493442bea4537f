"""Unit + smoke tests for the queueing-theoretic capacity attributor."""

import json
from contextlib import contextmanager

import pytest

from repro.bench.harness import (
    GROUP_COMMIT,
    build_deployment,
    drive_closed_loop,
    lookup_throughput,
    update_throughput,
)
from repro.obs import HealthMonitor, MetricsRegistry
from repro.obs.capacity import (
    SCENARIOS,
    RegistryMarks,
    load_headline,
    run_point,
    utilization_summary,
    window_stats,
)
from repro.obs.saturation import SaturationSampler

#: capacity scenario -> the headline bench's measurement of that service.
HEADLINE_RUNS = {
    "update": lambda n, **kw: update_throughput(
        "group", n, **GROUP_COMMIT, **kw),
    "nvram-update": lambda n, **kw: update_throughput("nvram", n, **kw),
    "lookup": lambda n, **kw: lookup_throughput("group", n, **kw),
}


def make_marked_registry():
    """A registry with one metered CPU's worth of synthetic counters."""
    holder = {"now": 0.0}
    registry = MetricsRegistry(clock=lambda: holder["now"])
    return holder, registry


class TestWindowStats:
    def test_single_resource_queueing_stats(self):
        holder, registry = make_marked_registry()
        busy = registry.counter("n0", "cpu.busy_ms")
        grants = registry.counter("n0", "cpu.grants")
        wait = registry.counter("n0", "cpu.wait_ms")
        depth = registry.gauge("n0", "cpu.queue_depth")
        marks0 = RegistryMarks.capture(registry, 0.0)
        # 1000 ms window: 10 grants of 50 ms each (rho 0.5), each one
        # having queued 50 ms first — so residence W = 100 ms and the
        # gauge's time-weighted mean must be L = lambda * W = 1.0.
        busy.inc(500.0)
        grants.inc(10)
        wait.inc(500.0)
        holder["now"] = 500.0
        depth.set(2.0)
        holder["now"] = 1_000.0
        depth.set(0.0)
        marks1 = RegistryMarks.capture(registry, 1_000.0)
        rows = window_stats(marks0, marks1)
        assert len(rows) == 1
        row = rows[0]
        assert row.kind == "cpu" and row.node == "n0"
        assert row.utilization == pytest.approx(0.5)
        assert row.throughput_per_s == pytest.approx(10.0)
        assert row.service_ms == pytest.approx(50.0)
        assert row.residence_ms == pytest.approx(100.0)
        assert row.queue_depth == pytest.approx(1.0)
        assert row.little_residual == 0.0  # exact: under the floor

    def test_little_residual_flags_mismatched_accounting(self):
        holder, registry = make_marked_registry()
        # Gauge stuck at 3.0 the whole window while lambda*W says 1.0.
        registry.gauge("n0", "cpu.queue_depth").set(3.0)
        marks0 = RegistryMarks.capture(registry, 0.0)
        registry.counter("n0", "cpu.busy_ms").inc(500.0)
        registry.counter("n0", "cpu.grants").inc(10)
        registry.counter("n0", "cpu.wait_ms").inc(500.0)
        holder["now"] = 1_000.0
        marks1 = RegistryMarks.capture(registry, 1_000.0)
        (row,) = window_stats(marks0, marks1)
        assert row.queue_depth == pytest.approx(3.0)
        assert row.little_residual == pytest.approx(2.0 / 3.0)

    def test_ranking_is_by_utilization_then_pipeline_first(self):
        holder, registry = make_marked_registry()
        marks0 = RegistryMarks.capture(registry, 0.0)
        registry.counter("n0", "cpu.busy_ms").inc(900.0)
        registry.counter("n0", "cpu.grants").inc(9)
        registry.counter("d0", "disk.arm.busy_ms").inc(900.0)
        registry.counter("d0", "disk.arm.grants").inc(3)
        registry.counter("s0", "group.seq_busy_ms").inc(400.0)
        registry.counter("s0", "group.delivered").inc(4)
        holder["now"] = 1_000.0
        marks1 = RegistryMarks.capture(registry, 1_000.0)
        rows = window_stats(marks0, marks1)
        # cpu and disk tie at rho 0.9; the seq row trails at 0.4. A
        # tie breaks by kind priority: seq < cpu < disk < nvram < wire.
        assert [r.label for r in rows] == [
            "cpu(n0)", "disk(d0)", "seq(s0)"]

    def test_idle_seq_counter_on_replicas_is_skipped(self):
        # Every member carries the seq counters, but only the node that
        # actually sequenced (busy > 0) is a resource row — a replica
        # with deliveries and zero busy time is consumer lag, not a
        # service station, and would fail Little's law by construction.
        holder, registry = make_marked_registry()
        registry.counter("r1", "group.seq_busy_ms")  # exists, zero
        marks0 = RegistryMarks.capture(registry, 0.0)
        registry.counter("r1", "group.delivered").inc(50)
        holder["now"] = 1_000.0
        marks1 = RegistryMarks.capture(registry, 1_000.0)
        assert window_stats(marks0, marks1) == []

    def test_wire_is_offered_load_not_a_ranked_resource(self):
        holder, registry = make_marked_registry()
        marks0 = RegistryMarks.capture(registry, 0.0)
        registry.counter("net", "net.wire_ms").inc(1_500.0)
        registry.counter("net", "net.frames_sent").inc(300)
        registry.counter("n0", "cpu.busy_ms").inc(400.0)
        registry.counter("n0", "cpu.grants").inc(4)
        holder["now"] = 1_000.0
        marks1 = RegistryMarks.capture(registry, 1_000.0)
        assert [r.label for r in window_stats(marks0, marks1)] == ["cpu(n0)"]
        summary = utilization_summary(registry, 1_000.0)
        assert list(summary) == ["seq", "cpu", "disk", "nvram", "wire"]
        assert summary["wire"] == 1.5

    def test_empty_window_yields_no_rows(self):
        holder, registry = make_marked_registry()
        marks = RegistryMarks.capture(registry, 5.0)
        assert window_stats(marks, marks) == []


class TestUtilizationSummary:
    def test_max_across_nodes_per_kind(self):
        holder, registry = make_marked_registry()
        registry.counter("a", "cpu.busy_ms").inc(100.0)
        registry.counter("b", "cpu.busy_ms").inc(900.0)
        registry.counter("d", "disk.arm.busy_ms").inc(250.0)
        summary = utilization_summary(registry, 1_000.0)
        assert summary["cpu"] == pytest.approx(0.9)
        assert summary["disk"] == pytest.approx(0.25)
        assert summary["seq"] == 0.0

    def test_zero_elapsed_is_all_zero(self):
        holder, registry = make_marked_registry()
        registry.counter("a", "cpu.busy_ms").inc(100.0)
        assert all(
            v == 0.0 for v in utilization_summary(registry, 0.0).values()
        )


class TestHeadline:
    def test_missing_file_returns_none(self, tmp_path):
        assert load_headline(str(tmp_path / "nope.json")) is None

    def test_unparsable_file_returns_none(self, tmp_path):
        path = tmp_path / "BENCH_headline.json"
        path.write_text("{not json")
        assert load_headline(str(path)) is None


class TestRunPoint:
    def test_short_update_run_attributes_and_self_checks(self):
        report = run_point(
            "update", 2, seed=0, warmup_ms=1_000.0, measure_ms=3_000.0
        )
        assert report["throughput_per_s"] > 0.0
        resources = report["resources"]
        assert resources, "no resource was exercised?"
        labels = {r["resource"] for r in resources}
        assert any(label.startswith("seq(") for label in labels)
        assert any(label.startswith("disk(") for label in labels)
        # The acceptance bar: every Little's-law self-check within 10%.
        for row in resources:
            if row["little_residual"] is not None:
                assert row["little_residual"] < 0.10, row
        assert report["top_resource"] == resources[0]["resource"]
        assert report["predicted_ceiling_per_s"] > 0.0
        # The sampler rode along and saw the measure window.
        assert report["sampler"]["samples"]
        assert report["sampler_events"]

    def test_same_seed_reports_are_byte_identical(self):
        def render():
            report = run_point(
                "update", 2, seed=1, warmup_ms=500.0, measure_ms=2_000.0
            )
            report.pop("sampler_events")
            return json.dumps(report, indent=2, sort_keys=True)

        assert render() == render()

    def test_unknown_scenario_raises(self):
        with pytest.raises(ValueError):
            run_point("fizzbuzz", 1)

    def test_saturated_wire_is_reported_but_never_the_bottleneck(self):
        # 48 batched writers offer the cable more time than the window
        # holds: senders never contend for it, so its rho passes 1.0.
        report = run_point(
            "update", 48, seed=0, warmup_ms=1_000.0, measure_ms=2_000.0)
        (wire,) = report["offered_load"]
        assert wire["resource"] == "wire(net)"
        assert wire["utilization"] > 1.0
        assert all(r["kind"] != "wire" for r in report["resources"])
        assert report["top_resource"] == "seq(grp.dir0)"
        assert report["predicted_ceiling_per_s"] >= report["throughput_per_s"]


class TestSameExperimentAsHeadline:
    """Capacity measures the deployment the headline bench records."""

    def test_every_scenario_has_a_headline_twin(self):
        assert set(HEADLINE_RUNS) == set(SCENARIOS)

    @pytest.mark.parametrize("scenario", sorted(HEADLINE_RUNS))
    def test_run_point_throughput_equals_harness(self, scenario):
        window = {"seed": 0, "warmup_ms": 500.0, "measure_ms": 2_000.0}
        report = run_point(scenario, 4, **window)
        expected = HEADLINE_RUNS[scenario](4, **window)
        assert report["throughput_per_s"] == round(expected, 6)



class TestOneSourceForSequencerBusyFraction:
    """The monitor, the saturation sampler and the capacity attributor
    read the sequencer's busy fraction from the same marks."""

    def test_three_readings_of_one_window_are_one_number(self):
        deployment = build_deployment("group", seed=0, **GROUP_COMMIT)
        sim = deployment.sim
        measure_ms = 2_000.0
        # Intervals past the window: each tool's only reading is the
        # one taken as the measure window closes.
        sampler = SaturationSampler(sim, interval_ms=10 * measure_ms)
        monitor = HealthMonitor(sim, interval_ms=10 * measure_ms)
        readings = {}

        @contextmanager
        def window():
            sampler.start()
            monitor.start()
            yield
            readings.update(monitor.tick())
            sampler.stop()

        drive_closed_loop(deployment, "pair", 8, 1_000.0, measure_ms, window())
        (sample,) = sampler.samples
        rows = {
            r.label: r for r in window_stats(sampler.first_marks, sampler.marks)
        }
        node = "grp.dir0"
        busy_fraction = readings[(node, "group.seq_utilization")]
        assert 0.0 < busy_fraction < 1.0
        assert sample["series"][f"{node}:group.seq.rho"] == busy_fraction
        # Capacity publishes rho at six places; the raw value is the same.
        assert rows[f"seq({node})"].utilization == round(busy_fraction, 6)
