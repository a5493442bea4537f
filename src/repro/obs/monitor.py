"""The in-sim health watchdog: registry sampling + hysteresis alerts.

A :class:`HealthMonitor` is the registry sampler
(:class:`repro.obs.saturation.RegistrySampler`) with its own signal
table: it wakes on a fixed cadence, reads the metrics registry (and
*only* the registry — it has no privileged view into server
internals) over the window since its last tick, derives a small set of
health signals per node, and runs each through a two-threshold
hysteresis state machine:

* the signal rising to ``alert_above`` raises an **alert** (recorded,
  and emitted as a ``mon.alert`` trace event when the flight recorder
  is on);
* the signal falling back to ``clear_below`` **clears** it
  (``mon.clear``) — the gap between the thresholds stops a signal
  hovering near the line from flapping.

Signals (see docs/OBSERVABILITY.md, "Health monitoring"):

========================    =================================================
``group.backlog``           window mean of sequenced-but-undelivered
                            messages (gauge area differencing)
``disk.queue_depth``        window mean of ops waiting for / holding the arm
``group.retrans_rate``      retransmission requests per second (counter rate)
``session.dup_rate``        session reply-cache hits per second — a burst
                            means clients are resending committed updates
``group.heartbeat_staleness``  ms since the member last saw (or sent) a
                            group heartbeat — the failure-detector's view
``group.view_churn``        view adoptions per second — any membership
                            change (crash, partition, rejoin) churns views
                            on the surviving side, while a steady group
                            adopts none at all
``storage.corrupt_rate``    corruption evidence per second on one node's
                            durable storage — detected checksum failures
                            plus (on legacy, integrity-off media) corrupt
                            bytes silently served or replayed
``group.seq_utilization``   fraction of the window the node spent as the
                            busy sequencer (pipeline non-empty) — the
                            saturation signal the remediation controller's
                            scale policy consults (docs/OBSERVABILITY.md
                            §10)
========================    =================================================

Gauges are sampled by *area differencing*: the window mean over
``[a, b]`` is ``(area(b) - area(a)) / (b - a)``, which no instant
sample can fake — a queue that spikes and drains between ticks still
shows up. An instrument created after the previous tick counts from
zero. Everything is deterministic: same seed, same alerts.

The chaos runner (:mod:`repro.chaos.runner`) starts a monitor on every
scenario; nemesis runs must raise at least one alert inside the fault
window and end with every alert cleared, while fault-free control runs
must stay silent end to end.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.obs.saturation import RegistrySampler

#: Default sampling cadence: four ticks per heartbeat-failure window,
#: fine enough to land inside every chaos fault window.
DEFAULT_INTERVAL_MS = 500.0


@dataclass(frozen=True)
class Threshold:
    """One signal's hysteresis pair (alert high, clear low)."""

    signal: str
    alert_above: float
    clear_below: float
    unit: str = ""
    description: str = ""


#: Calibrated against fault-free runs of every deployment (the control
#: scenario sweeps seeds and asserts silence) and against the nemesis
#: rotation (every fault window must trip at least one of these).
DEFAULT_THRESHOLDS = (
    Threshold(
        "group.backlog", 8.0, 2.0, "msgs",
        "sequenced messages not yet delivered to the state machine",
    ),
    Threshold(
        "disk.queue_depth", 4.0, 1.5, "ops",
        "operations waiting for (or holding) the disk arm",
    ),
    Threshold(
        "group.retrans_rate", 4.0, 0.5, "req/s",
        "gap-repair retransmission requests per second",
    ),
    # A reply-cache hit means a client resent an already-committed
    # update: one hit per sampling window (2/s at the default cadence)
    # is already anomalous on a healthy network, so the threshold sits
    # just under a single hit, like view churn below.
    Threshold(
        "session.dup_rate", 1.9, 0.1, "hits/s",
        "session reply-cache hits per second (duplicate resends)",
    ),
    Threshold(
        "group.heartbeat_staleness", 400.0, 150.0, "ms",
        "time since the member last saw or sent a group heartbeat",
    ),
    # One adoption inside a sampling window reads as 1/interval per
    # second (2/s at the default cadence): the alert threshold sits
    # just under that, so a single membership change trips it and a
    # single quiet window clears it. A partitioned minority member
    # re-forms a solo view (heartbeating itself, staleness low) — the
    # churn it causes on BOTH sides is what this signal catches.
    Threshold(
        "group.view_churn", 1.9, 0.1, "views/s",
        "group view adoptions per second (membership churn)",
    ),
    # One corruption event inside a sampling window (2/s at the default
    # cadence) trips the alert — a single flipped block is already a
    # remediation-worthy fact, and fault-free runs sit at exactly zero.
    # The signal sums every corruption counter a node's storage exposes:
    # detections (disk.corrupt_detected, nvram.corrupt_records) and the
    # integrity-off evidence of silently served damage
    # (disk.corrupt_served, nvram.corrupt_replayed).
    Threshold(
        "storage.corrupt_rate", 1.9, 0.1, "events/s",
        "storage-corruption evidence (detections + corrupt bytes served)",
    ),
    # Sequencer saturation: the windowed delta of the sequencer's
    # busy-time counter over the window length — the fraction of the
    # last 500 ms this node spent with sequenced-but-undelivered
    # messages in flight while holding the sequencer role. A pipeline
    # that is never empty for a whole window (>= 0.95) means offered
    # load is at or beyond the ordering path's capacity ceiling
    # (docs/OBSERVABILITY.md §10); chaos workloads on a healthy group
    # keep it well under 0.5, which doubles as the clear line so the
    # remediation controller sees a crisp saturated/unsaturated edge.
    Threshold(
        "group.seq_utilization", 0.95, 0.5, "frac",
        "fraction of the window spent sequencing (pipeline non-empty)",
    ),
)

#: Counter metrics summed into one node's ``storage.corrupt_rate``.
CORRUPTION_METRICS = (
    "disk.corrupt_detected",
    "disk.corrupt_served",
    "nvram.corrupt_records",
    "nvram.corrupt_replayed",
)


def thresholds_with(overrides: dict) -> tuple:
    """:data:`DEFAULT_THRESHOLDS` with per-signal replacements.

    *overrides* maps a signal name to either a full :class:`Threshold`
    or an ``(alert_above, clear_below)`` pair that keeps the default's
    unit and description. This is the hook chaos scenarios and
    remediation policies use to tune hysteresis without editing this
    module. Unknown signal names raise (a typo would silently leave
    the default in force).
    """
    known = {t.signal for t in DEFAULT_THRESHOLDS}
    unknown = sorted(set(overrides) - known)
    if unknown:
        raise ValueError(f"unknown health signals: {unknown}")
    out = []
    for default in DEFAULT_THRESHOLDS:
        override = overrides.get(default.signal)
        if override is None:
            out.append(default)
        elif isinstance(override, Threshold):
            out.append(override)
        else:
            alert_above, clear_below = override
            out.append(
                dataclasses.replace(
                    default, alert_above=alert_above, clear_below=clear_below
                )
            )
    return tuple(out)


@dataclass(frozen=True)
class Alert:
    """One raised (or cleared) alert instance."""

    at_ms: float
    node: str
    signal: str
    value: float
    threshold: float
    kind: str = "alert"  # "alert" | "clear"

    def as_dict(self) -> dict:
        return {
            "at_ms": round(self.at_ms, 3),
            "node": self.node,
            "signal": self.signal,
            "value": round(self.value, 6),
            "threshold": self.threshold,
            "kind": self.kind,
        }


class HealthMonitor(RegistrySampler):
    """Sample the registry on a cadence; raise/clear hysteresis alerts."""

    SERIES = (
        ("mean", "group.backlog", "group.backlog"),
        ("mean", "disk.queue_depth", "disk.queue_depth"),
        ("rate", "group.retrans_rate", "group.retrans_requested"),
        ("rate", "session.dup_rate", "session.cache_hits"),
        ("rate", "group.view_churn", "group.views_adopted"),
        ("rate", "storage.corrupt_rate", *CORRUPTION_METRICS),
        ("ratio", "group.seq_utilization", "group.seq_busy_ms"),
        ("since", "group.heartbeat_staleness", "group.last_heartbeat_ms"),
    )
    PROCESS_NAME = "health-monitor"

    def __init__(
        self,
        sim,
        interval_ms: float = DEFAULT_INTERVAL_MS,
        thresholds=DEFAULT_THRESHOLDS,
    ):
        super().__init__(sim, interval_ms)
        self.thresholds = {t.signal: t for t in thresholds}
        self.alerts: list[Alert] = []
        self.clears: list[Alert] = []
        self._active: dict = {}  # (node, signal) -> Alert
        self._listeners: list = []
        self._retired: set = set()  # nodes evicted from the cluster

    def tick(self) -> dict:
        """Take one sample window; returns ``{(node, signal): value}``."""
        now = self.sim.now
        samples = self.read()
        for (node, signal), value in sorted(samples.items()):
            self._update(now, node, signal, value)
        return samples

    # -- hysteresis --------------------------------------------------------

    def _update(self, now: float, node: str, signal: str, value: float) -> None:
        threshold = self.thresholds.get(signal)
        if threshold is None or node in self._retired:
            return
        key = (node, signal)
        active = self._active.get(key)
        if active is None and value >= threshold.alert_above:
            alert = Alert(now, node, signal, value, threshold.alert_above)
            self._active[key] = alert
            self.alerts.append(alert)
            self._emit("mon.alert", alert)
            self._notify(alert)
        elif active is not None and value <= threshold.clear_below:
            del self._active[key]
            clear = Alert(
                now, node, signal, value, threshold.clear_below, kind="clear"
            )
            self.clears.append(clear)
            self._emit("mon.clear", clear)
            self._notify(clear)

    # -- subscriptions -----------------------------------------------------

    def subscribe(self, listener) -> None:
        """Call *listener(alert)* on every raise AND clear (the
        ``kind`` field distinguishes them). Listeners run inside the
        monitor tick, so reactions are deterministic — the remediation
        controller attaches here."""
        self._listeners.append(listener)

    def _notify(self, alert: Alert) -> None:
        for listener in list(self._listeners):
            listener(alert)

    def retire_node(self, node: str) -> None:
        """Stop watching *node* (evicted from the cluster).

        Its active alerts clear immediately — an evicted machine's
        frozen gauges would otherwise hold e.g. a heartbeat-staleness
        alert active forever — and later samples of it are ignored.
        """
        node = str(node)
        self._retired.add(node)
        now = self.sim.now
        for key in sorted(k for k in self._active if k[0] == node):
            alert = self._active.pop(key)
            clear = Alert(
                now, node, alert.signal, 0.0,
                self.thresholds[alert.signal].clear_below, kind="clear",
            )
            self.clears.append(clear)
            self._emit("mon.clear", clear)
            self._notify(clear)

    def _emit(self, name: str, alert: Alert) -> None:
        self.sim.obs.emit(
            alert.node, "mon", name,
            lineage=("mon", alert.node),
            signal=alert.signal,
            value=round(alert.value, 6),
            threshold=alert.threshold,
        )

    # -- reading -----------------------------------------------------------

    @property
    def active_alerts(self) -> list:
        """Alerts raised and not yet cleared, deterministically ordered."""
        return [self._active[key] for key in sorted(self._active)]

    def alerts_between(self, start_ms: float, end_ms: float) -> list:
        """Alerts raised inside ``[start_ms, end_ms]``."""
        return [a for a in self.alerts if start_ms <= a.at_ms <= end_ms]

    def summary(self) -> dict:
        """JSON-safe digest (the chaos verdict embeds this)."""
        return {
            "ticks": self.ticks,
            "alerts": [a.as_dict() for a in self.alerts],
            "clears": [c.as_dict() for c in self.clears],
            "active": [a.as_dict() for a in self.active_alerts],
        }
