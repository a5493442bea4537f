"""Experiment runners for the paper's evaluation (section 4).

Implementations are addressed by name:

* ``"group"`` — the triplicated group-communication service;
* ``"rpc"`` — the duplicated RPC service (previous design);
* ``"nfs"`` — the single-copy SunOS/NFS-like baseline;
* ``"nvram"`` — the group service with the 24 KB NVRAM board.

Every multi-client experiment is one closed loop,
:func:`drive_closed_loop`: boot a deployment, run the workload's setup,
start N clients with one outstanding request each, then warm up,
measure and drain. Figs. 8 and 9, the capacity observatory
(:mod:`repro.obs.capacity`) and the host-speed scenarios
(:mod:`repro.bench.simbench`) all run it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from repro.cluster import (
    GroupServiceCluster,
    NfsServiceCluster,
    NvramServiceCluster,
    RpcServiceCluster,
)
from repro.directory.nfs_server import NfsFileClient
from repro.storage.bullet import BulletClient
from repro.workloads.clients import ClosedLoopClient, run_closed_loop
from repro.workloads.generators import (
    append_delete_once,
    lookup_once,
    tmp_file_once,
)
from repro.workloads.metrics import Metrics

IMPLEMENTATIONS = ("group", "rpc", "nfs", "nvram")

#: Fig. 7 of the paper, msec (columns: implementation).
PAPER_FIG7 = {
    "append_delete": {"group": 184, "rpc": 192, "nfs": 87, "nvram": 27},
    "tmp_file": {"group": 215, "rpc": 277, "nfs": 111, "nvram": 52},
    "lookup": {"group": 5, "rpc": 5, "nfs": 6, "nvram": 5},
}

#: Saturation throughputs the paper reports around Figs. 8 and 9.
PAPER_SATURATION = {
    "lookup": {"group": 652, "rpc": 520, "nvram": 652},
    "append_delete": {"group": 5, "rpc": 5, "nvram": 45},
}


@dataclass
class Deployment:
    """A booted cluster plus its file service for the tmp-file test."""

    impl: str
    cluster: object

    def add_client(self, name: str):
        return self.cluster.add_client(name)

    def file_service_for(self, directory_client):
        """A file-service client sharing the directory client's RPC."""
        if self.impl == "nfs":
            return NfsFileClient(
                directory_client.rpc, self.cluster.file_server.port
            )
        return BulletClient(directory_client.rpc, self.cluster.sites[0].bullet.port)

    @property
    def root(self):
        return self.cluster.root_capability

    @property
    def sim(self):
        return self.cluster.sim


def build_deployment(impl: str, seed: int = 0, **kwargs) -> Deployment:
    """Boot one implementation and wait until it serves."""
    if impl == "group":
        cluster = GroupServiceCluster(seed=seed, name="grp", **kwargs)
    elif impl == "rpc":
        cluster = RpcServiceCluster(seed=seed, name="rpc", **kwargs)
    elif impl == "nfs":
        cluster = NfsServiceCluster(seed=seed, name="nfs", **kwargs)
    elif impl == "nvram":
        cluster = NvramServiceCluster(seed=seed, name="nvr", **kwargs)
    else:
        raise ValueError(f"unknown implementation {impl!r}")
    cluster.start()
    cluster.wait_operational()
    return Deployment(impl, cluster)


# ----------------------------------------------------------------------
# Fig. 7: single-client latency
# ----------------------------------------------------------------------

def fig7_cell(
    impl: str,
    test: str,
    iterations: int = 15,
    seed: int = 0,
    **deploy_kwargs,
) -> float:
    """Mean latency (ms) of one Fig. 7 cell on a deployment built with
    *deploy_kwargs*."""
    deployment = build_deployment(impl, seed=seed, **deploy_kwargs)
    client = deployment.add_client("bench")
    sim = deployment.sim
    root = deployment.root
    out = {}

    def driver():
        target = yield from client.create_dir()  # warm locate + a capability
        if test == "lookup":
            yield from client.append_row(root, "bench-name", (target,))
        file_service = deployment.file_service_for(client)
        if test == "tmp_file":
            # Warm the file service's port cache outside the window.
            warm = yield from file_service.create(b"warm")
            yield from file_service.read(warm)
        samples = []
        for i in range(iterations):
            start = sim.now
            if test == "append_delete":
                yield from append_delete_once(client, root, f"t{i}", target)
            elif test == "tmp_file":
                yield from tmp_file_once(client, root, file_service, f"f{i}")
            elif test == "lookup":
                yield from lookup_once(client, root, "bench-name")
            else:
                raise ValueError(f"unknown test {test!r}")
            samples.append(sim.now - start)
        out["mean"] = sum(samples) / len(samples)

    deployment.cluster.run_process(driver())
    return out["mean"]


def fig7_table(iterations: int = 15, seed: int = 0) -> dict:
    """The whole Fig. 7: {test: {impl: measured_ms}}."""
    table: dict = {}
    for test in ("append_delete", "tmp_file", "lookup"):
        table[test] = {}
        for impl in IMPLEMENTATIONS:
            table[test][impl] = fig7_cell(impl, test, iterations, seed)
    return table


# ----------------------------------------------------------------------
# Figs. 8 and 9: N closed-loop clients against one deployment
# ----------------------------------------------------------------------

#: The group-commit deployment: eight initiator threads per server, so
#: concurrent writers' requests can queue into one batch (the paper's
#: single thread caps in-flight requests at one per server). The
#: headline bench, Fig. 9b and ``capacity update`` all run it.
GROUP_COMMIT = {"server_threads": 8}

#: The name every lookup reads; setup registers it.
HOT_NAME = "hot-name"

#: In the mixed workload, 1 iteration in 10 is an append/delete pair.
MIXED_UPDATE_EVERY = 10


def _lookup(client, root, _target, _tag, _n):
    return lookup_once(client, root, HOT_NAME)


def _pair(client, root, target, tag, n):
    return append_delete_once(client, root, f"w{tag}-{n}", target)


def _mixed(client, root, target, tag, n):
    if n % MIXED_UPDATE_EVERY == 0:
        return append_delete_once(client, root, f"m{tag}-{n}", target)
    return lookup_once(client, root, HOT_NAME)


#: workload -> (setup registers HOT_NAME, one iteration of client *tag*).
#: Setup always creates the directory the pairs append to. Names keep
#: their exact length: it sets the frame size and so the schedule.
WORKLOADS = {
    "lookup": (True, _lookup),
    "pair": (False, _pair),
    "mixed": (True, _mixed),
}


def drive_closed_loop(
    deployment: Deployment,
    workload: str,
    n_clients: int,
    warmup_ms: float,
    measure_ms: float,
    observer=None,
) -> tuple[float, list[ClosedLoopClient]]:
    """Run *workload*'s setup on the booted *deployment*, then
    *n_clients* closed-loop clients through warmup, measurement and
    drain (*observer* wraps the measure window). Returns the window's
    ops/s and the clients."""
    registers_hot_name, iteration = WORKLOADS[workload]
    sim = deployment.sim
    root = deployment.root
    setup_client = deployment.add_client("setup")

    def setup():
        target = yield from setup_client.create_dir()
        if registers_hot_name:
            yield from setup_client.append_row(root, HOT_NAME, (target,))
        return target

    target = deployment.cluster.run_process(setup())
    metrics = Metrics()
    clients = [
        ClosedLoopClient(
            sim, f"load{i}",
            partial(iteration, deployment.add_client(f"load{i}"), root,
                    target, i),
            metrics, workload)
        for i in range(n_clients)
    ]
    window = run_closed_loop(sim, clients, warmup_ms, measure_ms, observer)
    return metrics.throughput_per_second(workload, window), clients


def lookup_throughput(
    impl: str,
    n_clients: int,
    seed: int = 0,
    warmup_ms: float = 2_000.0,
    measure_ms: float = 10_000.0,
    **deploy_kwargs,
) -> float:
    """One Fig. 8 point: total lookups/second with *n_clients*."""
    deployment = build_deployment(impl, seed=seed, **deploy_kwargs)
    return drive_closed_loop(
        deployment, "lookup", n_clients, warmup_ms, measure_ms)[0]


def update_throughput(
    impl: str,
    n_clients: int,
    seed: int = 0,
    warmup_ms: float = 2_000.0,
    measure_ms: float = 20_000.0,
    **deploy_kwargs,
) -> float:
    """One Fig. 9 point: append-delete PAIRS/second with *n_clients*."""
    deployment = build_deployment(impl, seed=seed, **deploy_kwargs)
    return drive_closed_loop(
        deployment, "pair", n_clients, warmup_ms, measure_ms)[0]
