"""The benchmark's own tests.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import core  # noqa: E402
import run  # noqa: E402

#: Small host budget: enough for every workload's minimum window.
BUDGET_S = 0.3


def _sim_metrics(workload, seed):
    result, setup, _ = run.run_workload(workload, seed, BUDGET_S, 1)
    assert result.problems == []
    return run.sim_clock(run.end_to_end(result, setup))


def test_same_seed_gives_identical_sim_clock_metrics():
    first = _sim_metrics("production_mix", 3)
    assert first == _sim_metrics("production_mix", 3)
    assert first["lookup_p50_ms"] > 0


def test_traced_run_matches_untraced_run_on_the_sim_clock():
    metrics, problems, _result, _values = run.traced_run("update_saturation", 4, BUDGET_S)
    assert not [p for p in problems if "passive" in p]
    assert metrics["group.send_ms_p50"] > 0
    assert metrics["recon.ops"] > 0


def test_different_seed_gives_different_arrival_schedule():
    names = [f"n{i}" for i in range(10)]

    def schedule(seed):
        return core.poisson_schedule(
            core.rng(seed, "production_mix"), 0.0, 60.0,
            duration_ms=5_000.0, pair_fraction=0.02, names=names,
        )

    assert schedule(1) == schedule(1)
    assert schedule(1) != schedule(2)


def test_overload_rung_terminates_with_refusals_counted():
    deployment, _ = core.boot(5)
    driver = core.Driver(deployment)
    verdict = core.run_rung(deployment, driver, 5, core.LADDER[-1], 1500)
    assert verdict["refused"] > 1500 // 100
    assert verdict["n"] < 1500  # the rest of the schedule was dropped
    assert verdict["refused"] == driver.refused
    assert not verdict["ok"]
    assert driver.busy == 0
