"""Unit tests for the closed-loop workload driver."""

from contextlib import contextmanager

import pytest

from repro.errors import ReproError
from repro.sim import Simulator
from repro.workloads import ClosedLoopClient, Metrics
from repro.workloads.clients import run_closed_loop


def make_client(sim, metrics, op_ms=5.0, fail_every=None):
    state = {"n": 0}

    def iteration(_n):
        state["n"] += 1
        if fail_every and state["n"] % fail_every == 0:
            yield sim.sleep(op_ms)
            raise ReproError("injected")
        yield sim.sleep(op_ms)

    return ClosedLoopClient(sim, "c", iteration, metrics, "op")


class TestClosedLoop:
    def test_back_to_back_iterations(self):
        sim = Simulator(seed=0)
        metrics = Metrics()
        client = make_client(sim, metrics, op_ms=10.0)
        client.start()
        sim.run(until=100.0)
        client.stop()
        sim.run(until=200.0)
        assert client.iterations == pytest.approx(10, abs=1)
        assert client.finished

    def test_errors_counted_and_loop_continues(self):
        sim = Simulator(seed=0)
        metrics = Metrics()
        client = make_client(sim, metrics, op_ms=5.0, fail_every=3)
        client.start()
        sim.run(until=300.0)
        client.stop()
        sim.run(until=400.0)
        assert client.errors > 0
        assert client.iterations > 0
        assert metrics.errors.get("op", 0) == client.errors

    def test_run_closed_loop_window(self):
        sim = Simulator(seed=0)
        metrics = Metrics()
        clients = [make_client(sim, metrics, op_ms=10.0)]
        window = run_closed_loop(sim, clients, warmup_ms=50.0, measure_ms=200.0)
        assert window == 200.0
        # ~20 ops fit in the 200 ms window; warmup ops are excluded.
        assert 17 <= metrics.count("op") <= 21

    def test_run_closed_loop_multiple_clients_share_metrics(self):
        sim = Simulator(seed=0)
        metrics = Metrics()
        clients = [make_client(sim, metrics, op_ms=10.0) for _ in range(3)]
        run_closed_loop(sim, clients, warmup_ms=0.0, measure_ms=100.0)
        assert metrics.count("op") == pytest.approx(30, abs=3)

    def test_observer_wraps_exactly_the_measure_window(self):
        sim = Simulator(seed=0)
        metrics = Metrics()
        edges = []

        @contextmanager
        def observer():
            edges.append(sim.now)
            yield
            edges.append(sim.now)

        run_closed_loop(sim, [make_client(sim, metrics, op_ms=10.0)],
                        warmup_ms=50.0, measure_ms=200.0, observer=observer())
        assert edges == [50.0, 250.0]

