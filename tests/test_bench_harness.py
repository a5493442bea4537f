"""Smoke tests for the benchmark harness (tiny configurations).

The real experiments live in benchmarks/; these just pin the harness
API so refactors cannot silently break the reproduction machinery.
"""

import json
import math
import pathlib

import pytest

from repro.bench import GROUP_COMMIT, build_deployment, fig7_cell, lookup_throughput
from repro.bench.harness import PAPER_FIG7
from repro.bench.simbench import run_perf_scenario
from repro.bench.tables import format_fig7, format_throughput_curve, shape_check_fig7

BENCH_SIM = pathlib.Path(__file__).parent.parent / "BENCH_sim.json"


class TestBuildDeployment:
    @pytest.mark.parametrize("impl", ["group", "rpc", "nfs", "nvram"])
    def test_every_implementation_boots(self, impl):
        deployment = build_deployment(impl, seed=1)
        client = deployment.add_client("smoke")
        root = deployment.root

        def work():
            sub = yield from client.create_dir()
            yield from client.append_row(root, "smoke", (sub,))
            found = yield from client.lookup(root, "smoke")
            return found is not None

        assert deployment.cluster.run_process(work()) is True

    def test_unknown_implementation_rejected(self):
        with pytest.raises(ValueError):
            build_deployment("carrier-pigeon")

    @pytest.mark.parametrize("impl", ["group", "nfs"])
    def test_file_service_for(self, impl):
        deployment = build_deployment(impl, seed=1)
        client = deployment.add_client("smoke")
        files = deployment.file_service_for(client)

        def work():
            ref = yield from files.create(b"abcd")
            data = yield from files.read(ref)
            return data

        assert deployment.cluster.run_process(work()) == b"abcd"


class TestFig7Harness:
    def test_cell_returns_positive_latency(self):
        value = fig7_cell("nfs", "lookup", iterations=3, seed=2)
        assert 2.0 < value < 20.0

    def test_unknown_test_rejected(self):
        with pytest.raises(ValueError):
            fig7_cell("group", "made-up-test", iterations=1)

    def test_format_fig7_renders_all_cells(self):
        table = {
            test: {impl: 1.0 for impl in PAPER_FIG7[test]}
            for test in PAPER_FIG7
        }
        rendered = format_fig7(table)
        assert "Append-delete" in rendered
        assert "Group+NVRAM" in rendered
        assert rendered.count("/") >= 12  # measured/paper per cell

    def test_shape_check_flags_inverted_ordering(self):
        table = {
            "append_delete": {"group": 300.0, "rpc": 100.0, "nfs": 90.0,
                              "nvram": 28.0},
            "tmp_file": {"group": 220.0, "rpc": 230.0, "nfs": 110.0,
                         "nvram": 52.0},
            "lookup": {"group": 5.0, "rpc": 5.0, "nfs": 6.0, "nvram": 5.0},
        }
        problems = shape_check_fig7(table)
        assert any("beat RPC" in p for p in problems)


class TestCalibrationStability:
    def test_fig7_cell_insensitive_to_seed(self):
        """The headline numbers must be properties of the model, not of
        one lucky seed: jitter is the only seed-dependent input and it
        is bounded at 0.05 ms/packet."""
        values = [
            fig7_cell("group", "append_delete", iterations=5, seed=seed)
            for seed in (0, 1, 2)
        ]
        spread = max(values) - min(values)
        assert spread < max(values) * 0.02, values

    def test_nvram_cell_insensitive_to_seed(self):
        """The NVRAM cell is timer-phase sensitive (flusher vs op
        arrival), so its tolerance is wider — but it must stay inside
        the window that keeps the paper's 6.8x claim meaningful."""
        values = [
            fig7_cell("nvram", "append_delete", iterations=5, seed=seed)
            for seed in (0, 1, 2)
        ]
        assert all(22.0 < v < 35.0 for v in values), values


class TestThroughputHarness:
    def test_single_client_lookup_rate(self):
        rate = lookup_throughput("nfs", 1, seed=3, warmup_ms=500.0,
                                 measure_ms=2_000.0)
        assert 100.0 < rate < 300.0

    def test_format_throughput_curve(self):
        rendered = format_throughput_curve(
            "Title", {"group": {1: 100.0, 2: 200.0}}, "ops/s"
        )
        assert "Title" in rendered and "ops/s" in rendered
        assert "100.0" in rendered and "200.0" in rendered


class TestClosedLoopDriver:
    """The one closed-loop driver must keep every caller's schedule."""

    @pytest.mark.parametrize("obs", ["obs_off", "obs_on"])
    def test_perf_mixed_small_reproduces_bench_sim(self, obs):
        committed = json.loads(BENCH_SIM.read_text())["scales"]["small"][obs]
        on = obs == "obs_on"
        run = run_perf_scenario(
            "mixed", "small", seed=0, trace=on, monitor=on, profile=False)
        assert run.ops == committed["ops"]
        assert run.scheduled_events == committed["scheduled_events"]
        assert round(run.sim_ms, 1) == committed["sim_ms"]

    def test_group_commit_single_client_latency(self):
        # A lone writer forms singleton batches, so the group-commit
        # deployment keeps the classic pair latency, batched or not.
        for overrides in ({}, GROUP_COMMIT, {**GROUP_COMMIT, "batch_max": 1}):
            latency = fig7_cell(
                "group", "append_delete", iterations=20, seed=0, **overrides)
            assert latency == 195.26197269060395, overrides

