"""The one registry sampler, and the utilization time series built on it.

:class:`RegistrySampler` is a plain simulated process that wakes at a
fixed sim interval, captures :class:`~repro.obs.registry.RegistryMarks`
and reads its table of series over the
:class:`~repro.obs.registry.Window` since the previous tick. Two tools
are that sampler with their own table (docs/OBSERVABILITY.md §8, §10):
the health monitor (:class:`repro.obs.monitor.HealthMonitor`) and the
:class:`SaturationSampler` here, which turns the registry's always-on
resource accounting into derived series:

* **rho** — busy-counter deltas over the interval (``cpu.busy_ms`` →
  ``cpu.rho`` and friends): the fraction of the interval each resource
  spent busy;
* **rates** — completion-counter deltas per second (grants, delivered
  records, NVRAM appends, link bytes);
* **queues** — exact time-weighted window means of queue-depth gauges
  (via gauge-area differencing);
* **ages** — the sequencer pipeline's backlog age, i.e. how long the
  oldest sequenced-but-undelivered message has been in flight.

The saturation sampler holds a bounded ring of samples (oldest evicted
first) and renders them on demand as Perfetto counter-track events
(``ph: "C"``) so a capacity run's trace shows utilization timelines
next to the span profiler's slices. The capacity attributor reads its
measurement window from the same sampler's first and last marks.

Passivity: nothing here runs unless :meth:`RegistrySampler.start` is
called, and a tick only *reads* the registry — it creates no
instruments and mutates none, so a sampled run's schedule digest
differs from an unsampled one only by the sampler's own wakeups, and a
run that never starts the sampler is byte-identical to one without
this module (the BENCH_sim obs-off gate relies on that).
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING

from repro.obs.registry import RegistryMarks, Window
from repro.obs.trace import TraceEvent

if TYPE_CHECKING:
    from repro.sim.scheduler import Simulator

#: Default sampling cadence (sim ms).
DEFAULT_INTERVAL_MS = 250.0
#: Default ring capacity (samples kept; oldest evicted first).
DEFAULT_CAPACITY = 4096


class RegistrySampler:
    """A simulated process that reads the registry over fixed windows.

    ``SERIES`` is the table of what to read: ``(kind, name, *metrics)``
    rows, each producing one value per node under *name*:

    * ``ratio`` — counter delta over the window length (busy-ms -> rho);
    * ``rate`` — counter delta per second, summed over *metrics*;
    * ``mean`` — time-weighted window mean of a gauge;
    * ``age`` — ``now - level`` of a timestamp gauge, 0 while it is 0;
    * ``since`` — ``now - level`` of a timestamp gauge.

    The windowed kinds read a :class:`~repro.obs.registry.Window`
    between the previous tick's marks and this one's; a window of zero
    length yields only ``age``/``since`` values. ``first_marks`` and
    ``marks`` bound everything sampled since :meth:`start`. Subclasses
    define :meth:`tick`, which calls :meth:`read` and keeps or acts on
    the values.
    """

    SERIES: tuple
    PROCESS_NAME: str

    def __init__(self, sim: "Simulator", interval_ms: float):
        if interval_ms <= 0.0:
            raise ValueError("sampling interval must be positive")
        self.sim = sim
        self.registry = sim.obs.registry
        self.interval_ms = interval_ms
        self.ticks = 0
        self.first_marks: RegistryMarks | None = None
        self.marks: RegistryMarks | None = None
        self._process = None

    @property
    def running(self) -> bool:
        return self._process is not None and not self._process.resolved

    def start(self):
        """Mark the registry now; the first tick fires one interval on."""
        if self.running:
            return self
        self._baseline()
        self._process = self.sim.spawn(self._run(), self.PROCESS_NAME)
        return self

    def stop(self) -> None:
        """Close the window at now (a final partial tick if time has
        passed since the last one) and stop the process."""
        if not self.running:
            return
        if self.sim.now > self.marks.t_ms:
            self.tick()
        else:
            self.marks = RegistryMarks.capture(self.registry, self.sim.now)
        self._process.kill("sampler stopped")
        self._process = None

    def _baseline(self) -> None:
        self.first_marks = self.marks = RegistryMarks.capture(
            self.registry, self.sim.now)

    def _run(self):
        while True:
            yield self.sim.sleep(self.interval_ms)
            self.tick()

    def read(self) -> dict:
        """Advance the marks to now; ``{(node, name): value}`` for every
        ``SERIES`` row over the window since the previous read."""
        marks = RegistryMarks.capture(self.registry, self.sim.now)
        window = Window(self.marks, marks)
        self.marks = marks
        self.ticks += 1
        now, dt = marks.t_ms, window.dt_ms
        values: dict = {}
        for kind, name, *metrics in self.SERIES:
            for metric in metrics:
                if kind in ("age", "since"):
                    for node, gauge in self.registry.find_gauges(metric):
                        level = gauge.value
                        values[(node, name)] = (
                            now - level if level > 0.0 or kind == "since"
                            else 0.0)
                elif dt <= 0.0:
                    continue
                elif kind == "mean":
                    for node, mean in window.means(metric).items():
                        values[(node, name)] = mean
                else:
                    scale = 1000.0 if kind == "rate" else 1.0
                    for node, delta in window.deltas(metric).items():
                        values[(node, name)] = (
                            values.get((node, name), 0.0) + delta * scale / dt)
        return values


class SaturationSampler(RegistrySampler):
    """Fixed-interval utilization sampler with a bounded ring of samples."""

    SERIES = (
        ("ratio", "cpu.rho", "cpu.busy_ms"),
        ("ratio", "disk.arm.rho", "disk.arm.busy_ms"),
        ("ratio", "nvram.rho", "nvram.busy_ms"),
        ("ratio", "group.seq.rho", "group.seq_busy_ms"),
        ("ratio", "dir.apply.rho", "dir.apply_busy_ms"),
        ("ratio", "dir.persist.rho", "dir.persist_busy_ms"),
        ("ratio", "net.wire.rho", "net.wire_ms"),
        ("ratio", "net.link.rho", "net.busy_ms"),
        ("rate", "cpu.grants_per_s", "cpu.grants"),
        ("rate", "disk.grants_per_s", "disk.arm.grants"),
        ("rate", "nvram.appends_per_s", "nvram.appends"),
        ("rate", "group.delivered_per_s", "group.delivered"),
        ("rate", "dir.applied_per_s", "dir.applied_records"),
        # The segment counts under "net", each link under its own node.
        ("rate", "net.bytes_per_s", "net.bytes_sent", "net.bytes"),
        ("mean", "cpu.queue_depth", "cpu.queue_depth"),
        ("mean", "disk.arm.queue_depth", "disk.arm.queue_depth"),
        ("mean", "disk.queue_depth", "disk.queue_depth"),
        ("mean", "group.backlog", "group.backlog"),
        ("age", "group.backlog_age_ms", "group.seq_oldest_ms"),
    )
    PROCESS_NAME = "obs.saturation"

    def __init__(self, sim: "Simulator",
                 interval_ms: float = DEFAULT_INTERVAL_MS,
                 capacity: int = DEFAULT_CAPACITY):
        super().__init__(sim, interval_ms)
        self.capacity = capacity
        self.samples: deque[dict] = deque(maxlen=capacity)
        self.dropped = 0

    def tick(self) -> dict:
        """Take one sample now (also called internally every interval)."""
        series = {
            f"{node}:{name}": value for (node, name), value in self.read().items()
        }
        if len(self.samples) == self.samples.maxlen:
            self.dropped += 1
        sample = {"t_ms": round(self.sim.now, 6), "series": series}
        self.samples.append(sample)
        return sample

    # -- export -----------------------------------------------------------

    def as_dict(self) -> dict:
        """Deterministic snapshot of the ring (series keys sorted,
        values rounded to 6 places; the ring itself keeps them exact)."""
        return {
            "interval_ms": self.interval_ms,
            "capacity": self.capacity,
            "dropped": self.dropped,
            "samples": [
                {
                    "t_ms": s["t_ms"],
                    "series": {
                        key: round(value, 6)
                        for key, value in sorted(s["series"].items())
                    },
                }
                for s in self.samples
            ],
        }

    def counter_track_events(self) -> list[TraceEvent]:
        """The ring as Perfetto counter-track events (``ph: "C"``).

        One event per (sample, series); the exporter groups them into
        per-node counter tracks next to the span slices.
        """
        events: list[TraceEvent] = []
        for sample in self.samples:
            ts = sample["t_ms"]
            for key in sorted(sample["series"]):
                node, metric = key.split(":", 1)
                events.append(TraceEvent(
                    ts=ts, node=node, cat="saturation", name=metric,
                    ph="C", args={"value": round(sample["series"][key], 6)},
                ))
        return events
