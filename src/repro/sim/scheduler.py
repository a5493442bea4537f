"""The simulator event loop.

:class:`Simulator` owns the simulated clock (a float, in milliseconds)
and a binary heap of scheduled callbacks. Processes
(:class:`repro.sim.process.Process`) are spawned onto a simulator and
advance whenever the futures they wait on settle.

Determinism: events scheduled for the same instant run in scheduling
order (a monotonically increasing tie-break counter), and all
randomness flows through :class:`repro.sim.randomness.RngStreams`, so a
run is a pure function of the seed.

Host profiling: when ``sim.hostprof`` holds an active
:class:`repro.obs.hostprof.HostProfiler`, the event loop hands each
event to the profiler's ``dispatch`` hook, which times it on the *host*
clock and attributes it; otherwise the loop calls the event directly
and the hook costs one test of a local variable. Profiling reads host
time only and never touches simulated state, so a profiled run is
event-for-event identical to an unprofiled one (pinned by
tests/obs/test_hostprof.py).

Reserved places: :meth:`Simulator.reserve` takes a sequence number
without scheduling anything. A component that would post an event
whose only effect is to be a no-op at that place in the order can
reserve it instead, and post it later with :meth:`Simulator._post_at`
at the reserved number if something has to happen there after all;
:attr:`Simulator.current_seq` tells whether the place is still ahead
(see :mod:`repro.rpc.transport`).
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generator, Iterable

from repro.errors import SimulationError
from repro.obs.trace import Observability
from repro.sim.future import Future
from repro.sim.process import Process
from repro.sim.randomness import RngStreams

#: Hooks invoked with every newly constructed Simulator. The host
#: profiler's ``capture()`` registers here so benchmark helpers that
#: build their own clusters (and therefore their own simulators) are
#: still profiled. Empty in normal operation.
_new_sim_hooks: list[Callable[["Simulator"], None]] = []

#: The "no time bound" of :meth:`Simulator._loop`.
_FOREVER = float("inf")


class Timer:
    """Handle for a scheduled callback; supports cancellation."""

    __slots__ = ("when", "cancelled")

    def __init__(self, when: float):
        self.when = when
        self.cancelled = False

    def cancel(self) -> None:
        """Prevent the callback from running (no-op if already ran)."""
        self.cancelled = True


class Simulator:
    """Discrete-event scheduler with a simulated millisecond clock."""

    def __init__(self, seed: int = 0):
        self.now: float = 0.0
        self.seed = seed
        self.rng = RngStreams(seed)
        # Heap entries are (when, seq, timer, fn); timer is None for the
        # non-cancellable fast path (_post/_post_in), which skips the
        # per-event Timer allocation entirely.
        self._heap: list[tuple[float, int, Timer | None, Callable[[], None]]] = []
        self._sequence = 0
        #: Sequence number of the event running now (or of the last one
        #: run). After :meth:`run` returns it is past every number taken
        #: so far, since every event up to the stop time has run.
        self.current_seq = -1
        self._processes: list[Process] = []
        self.trace: list[tuple[float, str]] | None = None
        #: Metrics registry + causal trace recorder (see repro.obs).
        self.obs = Observability(self)
        #: Host-clock profiler (repro.obs.hostprof), attached explicitly
        #: or via a _new_sim_hooks capture; None means events run unprofiled.
        self.hostprof = None
        for hook in list(_new_sim_hooks):
            hook(self)

    # -- scheduling ------------------------------------------------------

    def schedule(self, delay: float, fn: Callable[[], None]) -> Timer:
        """Run ``fn()`` after *delay* simulated milliseconds."""
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay} ms in the past")
        timer = Timer(self.now + delay)
        heapq.heappush(self._heap, (timer.when, self._sequence, timer, fn))
        self._sequence += 1
        return timer

    def call_soon(self, fn: Callable[[], None]) -> Timer:
        """Run ``fn()`` at the current instant, after pending same-time events."""
        return self.schedule(0.0, fn)

    def _post(self, fn: Callable[[], None]) -> None:
        """``call_soon`` without the Timer handle (hot path).

        Process wakeups dominate the heap; none of them are ever
        cancelled, so they skip the Timer allocation.
        """
        heapq.heappush(self._heap, (self.now, self._sequence, None, fn))
        self._sequence += 1

    def _post_in(self, delay: float, fn: Callable[[], None]) -> None:
        """Non-cancellable ``schedule`` (hot path; caller validates delay)."""
        heapq.heappush(self._heap, (self.now + delay, self._sequence, None, fn))
        self._sequence += 1

    def _post_at(self, when: float, fn: Callable[[], None], seq: int | None = None) -> None:
        """Non-cancellable event at absolute time *when* (>= now).

        *seq* places it at a number taken earlier with :meth:`reserve`;
        by default it takes the next one.
        """
        if seq is None:
            seq = self._sequence
            self._sequence = seq + 1
        heapq.heappush(self._heap, (when, seq, None, fn))

    def reserve(self) -> int:
        """Take the next sequence number without scheduling an event.

        The number marks a place in the order of the events at the
        current instant: events scheduled earlier run before it, later
        ones after. It has passed once the clock moved on or
        :attr:`current_seq` went beyond it.
        """
        seq = self._sequence
        self._sequence = seq + 1
        return seq

    def sleep(self, delay: float) -> Future:
        """A future that resolves after *delay* simulated milliseconds."""
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay} ms in the past")
        fut = Future("sleep")
        self._post_in(delay, fut.resolve)
        return fut

    def timeout(self, fut: Future, delay: float, reason: str = "timeout") -> Future:
        """Wrap *fut* with a deadline.

        The returned future resolves with ``fut``'s value if it settles
        within *delay* ms, otherwise fails with
        :class:`repro.errors.TimeoutError`.
        """
        from repro.errors import TimeoutError as SimTimeout

        wrapped = Future("timeout")
        timer = self.schedule(
            delay, lambda: wrapped.fail_if_pending(SimTimeout(reason))
        )

        def on_done(inner: Future) -> None:
            timer.cancel()
            if inner.exception is not None:
                wrapped.fail_if_pending(inner.exception)
            else:
                wrapped.resolve_if_pending(inner.value)

        fut.add_callback(on_done)
        return wrapped

    # -- processes -------------------------------------------------------

    def spawn(
        self, gen: Generator[Future, Any, Any], name: str = "process"
    ) -> Process:
        """Start a generator as a cooperative process.

        The generator yields :class:`Future` objects; each yield
        suspends the process until the future settles, at which point
        the future's value is sent back in (or its exception raised at
        the yield site). The process object is itself a future that
        settles with the generator's return value.
        """
        process = Process(self, gen, name)
        self._processes.append(process)
        self._post(process._step_initial)
        return process

    # -- running ---------------------------------------------------------

    def run(self, until: float | None = None, max_events: int = 50_000_000) -> float:
        """Run events until the heap drains or the clock passes *until*.

        Returns the simulated time at which the run stopped.
        """
        bound = _FOREVER if until is None else until
        if self._loop(bound, None, max_events):
            self.now = until  # stopped at the bound: every event <= until ran
        elif until is not None and until > self.now:
            self.now = until
        # Every sequence number taken so far is now behind the clock.
        self.current_seq = self._sequence
        return self.now

    def run_until_complete(self, process: Process, max_events: int = 50_000_000) -> Any:
        """Run until *process* finishes; return its result (or raise)."""
        self._loop(_FOREVER, lambda: process.resolved, max_events)
        if not process.resolved:
            raise SimulationError(
                f"event queue drained but process {process.name!r} "
                "never completed (deadlock)"
            )
        return process.value

    def _loop(
        self,
        until: float,
        stop: Callable[[], bool] | None,
        max_events: int,
    ) -> bool:
        """The one event loop behind :meth:`run` and :meth:`run_until_complete`.

        Runs events in (time, seq) order until the heap drains, *stop*
        (checked before each event) returns true, or the next event lies
        past *until*; returns True only in the last case. An active host
        profiler dispatches each event instead of a plain call.
        """
        prof = self.hostprof
        if prof is not None:
            if prof.active:
                prof.begin()
            else:
                prof = None
        heap = self._heap
        pop = heapq.heappop
        events = 0
        while heap:
            if stop is not None and stop():
                return False
            when, seq, timer, fn = heap[0]
            if when > until:
                return True
            pop(heap)
            if timer is not None and timer.cancelled:
                if prof is not None:
                    prof.note_cancelled_pop()
                continue
            self.now = when
            self.current_seq = seq
            if prof is None:
                fn()
            else:
                prof.dispatch(fn, len(heap))
            events += 1
            if events > max_events:
                raise SimulationError(
                    f"exceeded {max_events} events at t={self.now:.3f} ms; "
                    "likely a livelock in the simulated system"
                )
        return False

    # -- introspection ----------------------------------------------------

    def log(self, message: str) -> None:
        """Record a trace line if tracing is enabled (``sim.trace = []``)."""
        if self.trace is not None:
            self.trace.append((self.now, message))

    def pending_events(self) -> int:
        """Number of scheduled, uncancelled events."""
        return sum(
            1 for _, _, timer, _ in self._heap
            if timer is None or not timer.cancelled
        )

    def alive_processes(self) -> Iterable[Process]:
        """Processes that have not yet finished."""
        return [p for p in self._processes if not p.resolved]
