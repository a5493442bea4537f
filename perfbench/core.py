"""Deployment, load drivers and the four workloads of the benchmark.

Everything here drives the directory service through its public
surface only: :class:`repro.cluster.GroupServiceCluster` to build and
fault the deployment, :class:`repro.directory.client.DirectoryClient`
(via ``cluster.add_client``) to issue operations. Simulated users are
simulator processes, so the whole run is one single-threaded process.

Every random choice of the load (arrival times, operation kinds, names)
comes from :func:`rng`, a ``random.Random`` seeded from the benchmark
seed and the workload part; the system under test only ever sees the
generated requests. The simulator's own seed is the benchmark seed too,
so network jitter differs from seed to seed while each seed replays
exactly.
"""

from __future__ import annotations

import heapq
import math
import random
import resource
import statistics
import time
from dataclasses import dataclass, field

from repro.cluster import GroupServiceCluster
from repro.errors import ReproError
from repro.sim.latency import LatencyModel
from repro.verify import HistoryRecorder, check_cluster

#: Lookup latency limit (sim ms) for ``max_lookup_rate_per_s``: about
#: ten times the unloaded lookup (paper Fig. 7: 5 ms; here 4.5 ms).
LOOKUP_LIMIT_MS = 50.0
#: A p99 is reported only from at least this many samples, so that at
#: least ten samples lie beyond it.
MIN_P99_SAMPLES = 1000
#: Names populated before every workload (the lookup working set).
N_NAMES = 300
#: Bounded pool of simulated users for open-loop arrivals; an arrival
#: that finds every user busy is refused (counted as failed).
USER_POOL = 64
#: Unmeasured lead-in before every measured window (sim ms).
WARMUP_MS = 2_000.0
#: Boots per run; ``setup_s`` is their median host time.
SETUP_REPEATS = 3
#: An open-loop user retries a failed lookup (it is idempotent) every
#: 100 ms for up to 5 s, as an application would: a restarting server
#: refuses requests until it has recovered, and when every server
#: thread is busy no server answers a locate. The failed attempts count
#: in ``Driver.retried`` and their time in the lookup's latency.
LOOKUP_RETRIES = 50

#: The offered-rate ladder (lookups/s) searched for the highest rate
#: that meets the lookup limit. Bisection visits a handful of rungs;
#: each rung's arrival schedule depends only on (seed, rate), never on
#: which rungs were visited before it.
LADDER = tuple(range(600, 1501, 20))
#: Arrivals offered on each ladder rung, per second of run budget.
RUNG_ARRIVALS_PER_S = 100
MIN_RUNG_ARRIVALS = 1200

WORKLOADS = ("lookup_open", "production_mix", "update_saturation", "sequencer_failover")


def rng(seed: int, *part) -> random.Random:
    """The benchmark's own RNG for one part of one workload."""
    return random.Random(":".join(str(p) for p in (seed, *part)))


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an already sorted list."""
    if not sorted_values:
        return math.nan
    index = max(0, math.ceil(q * len(sorted_values)) - 1)
    return sorted_values[index]


#: Host-clock metrics are reported at a reference host speed. A shared
#: VM can change speed by 20-50% from one minute to the next, which
#: would swamp any regression bound; so each run also times a fixed
#: pure-Python calibration loop, interleaved with the measured work, and
#: scales its host times by ``CAL_REF_S / median(calibration times)``.
#: CAL_REF_S is the loop's median on the reference host (a 2-CPU VM in
#: its fast phase). The loop lives here, not in ``src/``, so no change
#: to the system can move it.
CAL_REF_S = 0.0138
#: Calibrations before each boot and after the last one.
CAL_SAMPLES = 3


def _calibration_work() -> int:
    """Heap pushes and pops, dict updates and generator resumes: the
    operations the simulator's hot path is made of."""
    heap, table = [], {}

    def accumulate():
        total = 0
        while True:
            total += yield total

    acc = accumulate()
    next(acc)
    for i in range(20_000):
        heapq.heappush(heap, ((i * 7919) % 1009, i, None))
        key = (i * 31) & 1023
        table[key] = table.get(key, 0) + 1
        acc.send(i)
        if len(heap) > 64:
            heapq.heappop(heap)
    return len(table)


def calibration_s() -> float:
    """Host seconds of one run of the calibration loop."""
    started = time.perf_counter()
    _calibration_work()
    return time.perf_counter() - started


def speed_factor(calibrations) -> float:
    """Multiplier from this host's current speed to the reference's."""
    return CAL_REF_S / statistics.median(calibrations)


def peak_rss_mb() -> float:
    """Peak resident memory of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# deployment
# ----------------------------------------------------------------------

class Deployment:
    """The fixed deployment every workload runs against.

    Three disk-backed servers, resilience r = 2, group commit of up to
    16 records, eight server threads, client caches off, and the 1993
    testbed latency model — the "batched" configuration of
    ``BENCH_headline.json``. Booting includes populating
    :data:`N_NAMES` names that all map to one target capability.
    """

    def __init__(self, seed: int):
        started = time.perf_counter()
        self.cluster = GroupServiceCluster(
            n_servers=3,
            seed=seed,
            latency=LatencyModel.paper_testbed(),
            resilience=2,
            batch_max=16,
            server_threads=8,
        )
        self.sim = self.cluster.sim
        self.cluster.start()
        self.cluster.wait_operational()
        self.root = self.cluster.root_capability
        self.names = [f"name{i:04d}" for i in range(N_NAMES)]
        admin = self.cluster.add_client("setup")
        made = {}

        def populate():
            made["target"] = yield from admin.create_dir()
            for name in self.names:
                yield from admin.append_row(self.root, name, (made["target"],))

        self.cluster.run_process(populate(), name="populate")
        # Let the last update's off-path Bullet file removal finish, so
        # no setup work spills into a measured window.
        self.cluster.run(until=self.sim.now + 1_000.0)
        self.target = made["target"]
        self.admin = admin
        self.setup_s = time.perf_counter() - started

    def final_names(self) -> set:
        """The root directory's names, read through the service."""
        out = {}

        def listing():
            rows = yield from self.admin.list_dir(self.root)
            out["names"] = {row.name for row in rows}

        self.cluster.run_process(listing(), name="final-listing")
        return out["names"]


@dataclass
class Setup:
    """Host time of the boots of one run, with a calibration before,
    between and after them."""

    times: list
    calibrations: list

    @property
    def setup_s(self) -> float:
        """Median boot time at the reference host speed."""
        return statistics.median(self.times) * speed_factor(self.calibrations)


def boot(seed: int, repeats: int = 1) -> tuple[Deployment, Setup]:
    """Boot *repeats* identical deployments; return the last one and
    every boot's host time (each boot is a fresh, identical cluster)."""
    setup = Setup([], [])
    deployment = None
    for _ in range(repeats):
        setup.calibrations.extend(calibration_s() for _ in range(CAL_SAMPLES))
        deployment = Deployment(seed)
        setup.times.append(deployment.setup_s)
    setup.calibrations.extend(calibration_s() for _ in range(CAL_SAMPLES))
    return deployment, setup


# ----------------------------------------------------------------------
# load drivers
# ----------------------------------------------------------------------

@dataclass
class Sample:
    """One attempted user operation."""

    kind: str  # "lookup" or "pair"
    due: float  # sim ms the operation was due (open loop) / started
    end: float  # sim ms it completed (nan when refused)
    ok: bool
    refused: bool = False

    @property
    def latency(self) -> float:
        """Sim ms from due to completion; failures miss every limit."""
        return self.end - self.due if self.ok else math.inf


@dataclass
class Driver:
    """The benchmark's load generator over one deployment.

    Open-loop arrivals are served by a bounded pool of users (simulated
    client machines); closed-loop writers each own one client. Every
    operation is recorded as a :class:`Sample`. The driver also checks
    results: a lookup must return the populated capability.
    """

    deployment: Deployment
    users: int = USER_POOL
    retry_safe: bool = False
    #: End-to-end resend rounds of a retry-safe client (library default
    #: when None); a failover outage can outlast the default's backoff.
    retry_rounds: int | None = None
    samples: list = field(default_factory=list)
    history: HistoryRecorder = field(default_factory=HistoryRecorder)
    wrong_lookups: int = 0
    refused: int = 0
    busy: int = 0
    users_peak: int = 0
    lateness_ms_max: float = 0.0
    pairs_started: int = 0
    retried: int = 0
    ops_done: int = 0
    #: Hook for the traced run: called as ``op_hook(kind, due)`` when a
    #: user starts an operation; returns an object whose ``close(end)``
    #: is called when the operation ends.
    op_hook: object = None

    def __post_init__(self):
        cluster = self.deployment.cluster
        self.free = [
            cluster.add_client(
                f"user{i}", retry_safe=self.retry_safe, retry_rounds=self.retry_rounds
            )
            for i in range(self.users)
        ]

    # -- operations --------------------------------------------------------

    def _lookup(self, client, name):
        result = yield from client.lookup(self.deployment.root, name)
        if result != self.deployment.target:
            self.wrong_lookups += 1

    def _pair(self, client, name):
        sim = self.deployment.sim
        root, target = self.deployment.root, self.deployment.target
        who = str(client.transport.address)
        start = sim.now
        yield from client.append_row(root, name, (target,))
        self.history.record(who, "append", name, target, start, sim.now)
        start = sim.now
        yield from client.delete_row(root, name)
        self.history.record(who, "delete", name, None, start, sim.now)

    def _operate(self, client, kind, arg):
        if kind == "lookup":
            yield from self._lookup(client, arg)
        else:
            yield from self._pair(client, arg)

    def new_pair_name(self) -> str:
        self.pairs_started += 1
        return f"p{self.pairs_started}"

    def _user(self, client, due, kind, arg, retries: int, pool=None):
        sim = self.deployment.sim
        self.lateness_ms_max = max(self.lateness_ms_max, sim.now - due)
        hook = self.op_hook(kind, due) if self.op_hook else None
        sample = Sample(kind, due, math.nan, False)
        try:
            for attempt in range(retries + 1):
                try:
                    yield from self._operate(client, kind, arg)
                    sample.ok = True
                    self.ops_done += 1 if kind == "lookup" else 2
                    break
                except ReproError:
                    if attempt == retries:
                        break
                    self.retried += 1
                    yield sim.sleep(100.0)
        finally:
            sample.end = sim.now
            if hook is not None:
                hook.close(sample.end)
            self.samples.append(sample)
            self.busy -= 1
            if pool is not None:
                pool.append(client)

    def open_loop(self, schedule, max_refused=None):
        """Process: offer ``(due_ms, kind, arg)`` arrivals on schedule.

        Latency is measured from each arrival's due time. An arrival
        that finds no free user is refused. A failed lookup is retried
        (see :data:`LOOKUP_RETRIES`); a pair is not. With *max_refused*,
        the rest of the schedule is dropped once more arrivals than that
        have been refused.
        """
        sim = self.deployment.sim
        refused = 0
        for due, kind, arg in schedule:
            if due > sim.now:
                yield sim.sleep(due - sim.now)
            if not self.free:
                self.refused += 1
                self.samples.append(Sample(kind, due, math.nan, False, refused=True))
                refused += 1
                if max_refused is not None and refused > max_refused:
                    return
                continue
            self.busy += 1
            self.users_peak = max(self.users_peak, self.busy)
            if kind == "pair":
                arg = self.new_pair_name()
            retries = LOOKUP_RETRIES if kind == "lookup" else 0
            sim.spawn(
                self._user(self.free.pop(), due, kind, arg, retries, self.free),
                "user",
            )

    def writer(self, index: int, until_ms: float):
        """Process: one closed-loop writer doing pairs until *until_ms*."""
        sim = self.deployment.sim
        client = self.deployment.cluster.add_client(
            f"writer{index}", retry_safe=self.retry_safe, retry_rounds=self.retry_rounds
        )
        n = 0
        while sim.now < until_ms:
            n += 1
            self.busy += 1
            yield from self._user(client, sim.now, "pair", f"w{index}-{n}", 0)


def poisson_schedule(r: random.Random, start_ms, rate_per_s, count=None,
                     duration_ms=None, pair_fraction=0.0, names=()):
    """Poisson arrivals of lookups (and pairs with *pair_fraction*)."""
    out = []
    t = start_ms
    mean_gap = 1000.0 / rate_per_s
    while True:
        t += r.expovariate(1.0 / mean_gap)
        if duration_ms is not None and t >= start_ms + duration_ms:
            break
        kind = "pair" if r.random() < pair_fraction else "lookup"
        out.append((t, kind, r.choice(names) if kind == "lookup" else None))
        if count is not None and len(out) >= count:
            break
    return out


# ----------------------------------------------------------------------
# results
# ----------------------------------------------------------------------

@dataclass
class Timing:
    """Host cost of a workload's measured phase (tracing off)."""

    host_s: float  # total host time
    events: int  # simulator events scheduled (Simulator._sequence: no public counter)
    ops: int  # directory operations completed (a pair is two)
    raw_us_per_op: float  # median over the phase's slices
    speed: float  # speed_factor() of the calibrations taken between slices

    @property
    def host_us_per_op(self) -> float:
        """Host us per operation at the reference host speed."""
        return self.raw_us_per_op * self.speed


#: Slices per measured phase for ``host_us_per_op``: the median over
#: slices keeps a burst of host contention from moving the figure. The
#: calibration loop runs (untimed) after every slice.
TIMING_SLICES = 40


def run_timed(deployment, driver, process_gen, name, phase_ms) -> Timing:
    """Run *process_gen* to completion in sim slices of *phase_ms* /
    :data:`TIMING_SLICES`, timing each slice on the host clock."""
    sim = deployment.sim
    process = sim.spawn(process_gen, name)
    slice_ms = phase_ms / TIMING_SLICES
    events_before, ops_before = sim._sequence, driver.ops_done
    per_op, total, calibrations = [], 0.0, [calibration_s()]
    while not process.resolved:
        ops = driver.ops_done
        started = time.perf_counter()
        sim.run(until=sim.now + slice_ms)
        spent = time.perf_counter() - started
        total += spent
        if driver.ops_done > ops:
            per_op.append(spent * 1e6 / (driver.ops_done - ops))
        calibrations.append(calibration_s())
    if process.exception is not None:
        raise process.exception
    return Timing(
        total, sim._sequence - events_before, driver.ops_done - ops_before,
        statistics.median(per_op), speed_factor(calibrations),
    )


@dataclass
class Result:
    """What one workload run measured (before metric formatting)."""

    workload: str
    window: list  # samples of the measured window(s)
    timing: Timing
    extra: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)
    driver: Driver | None = None

    def latencies(self, kind):
        return sorted(s.latency for s in self.window if s.kind == kind)


def _in_window(samples, start, end):
    return [s for s in samples if start <= s.due < end]


def _check_common(deployment, driver, problems):
    """Correctness checks shared by every workload (outside timing)."""
    cluster = deployment.cluster
    cluster.run(until=deployment.sim.now + 1_000.0)  # let replicas settle
    if not cluster.replicas_consistent():
        problems.append("replicas are not consistent")
    if driver.wrong_lookups:
        problems.append(f"{driver.wrong_lookups} lookups returned a wrong capability")
    final = deployment.final_names()
    expected = set(deployment.names)
    if final != expected:
        extra = sorted(final - expected)[:5]
        missing = sorted(expected - final)[:5]
        problems.append(
            f"final directory differs: extra {extra}, missing {missing}"
        )
    return final


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------

def lookup_open(deployment, seed, budget_s, op_hook=None):
    """Open-loop lookups at 800/s, then the offered-rate ladder."""
    sim = deployment.sim
    driver = Driver(deployment, op_hook=op_hook)
    window_ms = budget_s * 2_000.0  # 800/s: ~0.2 ms host per lookup
    start = sim.now + WARMUP_MS
    schedule = poisson_schedule(
        rng(seed, "lookup_open"), sim.now, 800.0,
        duration_ms=WARMUP_MS + window_ms, names=deployment.names,
    )
    timing = run_timed(
        deployment, driver, _then_drain(driver, schedule), "load", WARMUP_MS + window_ms
    )
    window = _in_window(driver.samples, start, start + window_ms)
    result = Result("lookup_open", window, timing, driver=driver)
    result.extra["ladder"] = rate_ladder(deployment, driver, seed, budget_s)
    result.extra["max_lookup_rate_per_s"] = max(
        (rate for rate, verdict in result.extra["ladder"] if verdict["ok"]),
        default=0,
    )
    _check_common(deployment, driver, result.problems)
    return result


def _then_drain(driver, schedule, max_refused=None):
    """Process: offer *schedule*, then wait until every user is idle."""
    sim = driver.deployment.sim
    yield from driver.open_loop(schedule, max_refused)
    while driver.busy:
        yield sim.sleep(10.0)


def rung_verdict(samples) -> dict:
    """Whether one ladder rung met the limit: p99 within
    :data:`LOOKUP_LIMIT_MS` (failures and refusals count as misses),
    nothing failed, and nothing was refused (a refusal means the user
    pool, i.e. the backlog, hit its bound)."""
    latencies = sorted(s.latency for s in samples)
    p99 = percentile(latencies, 0.99)
    failed = sum(1 for s in samples if not s.ok and not s.refused)
    refused = sum(1 for s in samples if s.refused)
    return {
        "ok": p99 <= LOOKUP_LIMIT_MS and not failed and not refused,
        "p99_ms": p99,
        "failed": failed,
        "refused": refused,
        "n": len(samples),
    }


def rate_ladder(deployment, driver, seed, budget_s):
    """Bisect :data:`LADDER` for the highest rung meeting the limit.

    Rungs run one after another on the same deployment and the same
    user pool; before each, the previous rung's users drain. Returns
    the visited ``[(rate, verdict), ...]`` in visiting order.
    """
    count = max(MIN_RUNG_ARRIVALS, int(budget_s * RUNG_ARRIVALS_PER_S))
    visited = []
    lo, hi = -1, len(LADDER)  # LADDER[lo] passes, LADDER[hi] fails
    while hi - lo > 1:
        mid = (lo + hi) // 2
        verdict = run_rung(deployment, driver, seed, LADDER[mid], count)
        visited.append((LADDER[mid], verdict))
        if verdict["ok"]:
            lo = mid
        else:
            hi = mid
    return visited


def run_rung(deployment, driver, seed, rate, count) -> dict:
    """Offer *count* Poisson lookups at *rate*/s, drain, and judge.

    Once more than 1% of *count* arrivals are refused the rung has
    failed whatever follows (its p99 is a refusal), so the rest of its
    schedule is not offered: an overload rung ends early.
    """
    sim = deployment.sim
    first = len(driver.samples)
    schedule = poisson_schedule(
        rng(seed, "ladder", rate), sim.now + 500.0, rate,
        count=count, names=deployment.names,
    )
    deployment.cluster.run_process(
        _then_drain(driver, schedule, max_refused=count // 100), name="rung"
    )
    deployment.cluster.run(until=sim.now + 500.0)
    return rung_verdict(driver.samples[first:])


def production_mix(deployment, seed, budget_s, op_hook=None):
    """Open loop at 60 ops/s: 98% lookups, 2% append+delete pairs."""
    sim = deployment.sim
    driver = Driver(deployment, op_hook=op_hook)
    window_ms = max(20_000.0, budget_s * 12_000.0)  # >= 1000 lookups
    start = sim.now + WARMUP_MS
    schedule = poisson_schedule(
        rng(seed, "production_mix"), sim.now, 60.0,
        duration_ms=WARMUP_MS + window_ms, pair_fraction=0.02,
        names=deployment.names,
    )
    timing = run_timed(
        deployment, driver, _then_drain(driver, schedule), "load", WARMUP_MS + window_ms
    )
    window = _in_window(driver.samples, start, start + window_ms)
    result = Result("production_mix", window, timing, driver=driver)
    _check_common(deployment, driver, result.problems)
    return result


#: Closed-loop writers of the saturation workload, and its open-loop
#: readers: lookups/s and the size of their user pool. Every client is
#: a machine on the simulated Ethernet that each broadcast reaches, so
#: the pool is no larger than the reads in flight need.
WRITERS = 16
SAT_READ_RATE = 20.0
SAT_READERS = 32


def update_saturation(deployment, seed, budget_s, op_hook=None):
    """Closed loop: 16 writers doing pairs on their own names, beside
    open-loop lookups at 20/s."""
    sim = deployment.sim
    driver = Driver(deployment, users=SAT_READERS, op_hook=op_hook)
    window_ms = max(55_000.0, budget_s * 10_000.0)  # >= 1000 lookups
    start = sim.now + WARMUP_MS
    end = start + window_ms
    reads = poisson_schedule(
        rng(seed, "update_saturation"), sim.now, SAT_READ_RATE,
        duration_ms=WARMUP_MS + window_ms, names=deployment.names,
    )

    def load():
        writers = [sim.spawn(driver.writer(i, end), f"writer{i}") for i in range(WRITERS)]
        yield from driver.open_loop(reads)
        for process in writers:
            yield process
        while driver.busy:
            yield sim.sleep(10.0)

    timing = run_timed(deployment, driver, load(), "load", WARMUP_MS + window_ms)
    samples = driver.samples
    window = [s for s in samples if s.kind == "lookup" and start <= s.due < end]
    pairs = [s for s in samples if s.kind == "pair" and start <= s.end < end]
    result = Result("update_saturation", window + pairs, timing, driver=driver)
    result.extra["update_pairs_per_s"] = (
        sum(1 for s in pairs if s.ok) / (window_ms / 1000.0)
    )
    _check_common(deployment, driver, result.problems)
    return result


#: Offered load of the failover workload (ops/s).
FAILOVER_RATE = 60.0
#: Period of the sequencer crash/restart cycles of a failover run and
#: their timing within each period (sim ms). Cycles are far enough apart
#: that fewer than 1% of lookups meet an outage, so the failover shows
#: in ``write_outage_ms``/``rejoin_ms`` while the lookup percentiles stay
#: off the boundary between the outage and steady latency modes.
FAILOVER_PERIOD_MS = 45_000.0
CRASH_AT_MS = 2_000.0
RESTART_AFTER_MS = 2_000.0


def sequencer_failover(deployment, seed, budget_s, op_hook=None):
    """Open-loop mix at 60 ops/s while the sequencer crashes and
    restarts once every :data:`FAILOVER_PERIOD_MS`.

    Users are retry-safe clients (exactly-once resends of updates), so
    each operation completes and its latency includes the outage.
    """
    sim = deployment.sim
    cluster = deployment.cluster
    driver = Driver(deployment, retry_safe=True, retry_rounds=6, op_hook=op_hook)
    cycles = max(2, round(budget_s / 4.0))  # ~4 host s per cycle
    window_ms = cycles * FAILOVER_PERIOD_MS
    start = sim.now + WARMUP_MS
    schedule = poisson_schedule(
        rng(seed, "sequencer_failover"), sim.now, FAILOVER_RATE,
        duration_ms=WARMUP_MS + window_ms, pair_fraction=0.02,
        names=deployment.names,
    )
    probe_client = cluster.add_client("outage-probe", retry_safe=True, retry_rounds=6)
    outages, rejoins, recoveries = [], [], []

    def probe_write(crash_at, tag):
        name = f"probe{tag}"
        yield from probe_client.append_row(deployment.root, name, (deployment.target,))
        outages.append(sim.now - crash_at)
        yield from probe_client.delete_row(deployment.root, name)

    def faults():
        for cycle in range(cycles):
            yield sim.sleep(start + cycle * FAILOVER_PERIOD_MS + CRASH_AT_MS - sim.now)
            victim = next(
                s.index for s in cluster.servers
                if s is not None and s.operational and s.member.is_sequencer
            )
            cluster.crash_server(victim)
            probe = sim.spawn(probe_write(sim.now, cycle), "outage-probe")
            yield sim.sleep(RESTART_AFTER_MS)
            restarted_at = sim.now
            server = cluster.restart_server(victim)
            recovered = False
            while True:
                if server.operational and not recovered:
                    recoveries.append(sim.now - restarted_at)
                    recovered = True
                if (
                    recovered
                    and server.member.is_member
                    and cluster.replicas_consistent()
                    and len(cluster.operational_servers()) == 3
                ):
                    rejoins.append(sim.now - restarted_at)
                    break
                yield sim.sleep(5.0)
            yield probe

    def load():
        fault_process = sim.spawn(faults(), "faults")
        yield from _then_drain(driver, schedule)
        yield fault_process

    timing = run_timed(deployment, driver, load(), "load", WARMUP_MS + window_ms)
    window = _in_window(driver.samples, start, start + window_ms)
    result = Result("sequencer_failover", window, timing, driver=driver)
    result.extra.update(outages=outages, rejoins=rejoins, recoveries=recoveries)
    final = _check_common(deployment, driver, result.problems)
    report = check_cluster(cluster, driver.history, final_names=final)
    if not report.ok:
        result.problems.extend(report.problems())
    if len(outages) != cycles or len(rejoins) != cycles:
        result.problems.append(
            f"failover cycles incomplete: {len(outages)} outages, "
            f"{len(rejoins)} rejoins of {cycles}"
        )
    return result


RUNNERS = {
    "lookup_open": lookup_open,
    "production_mix": production_mix,
    "update_saturation": update_saturation,
    "sequencer_failover": sequencer_failover,
}
