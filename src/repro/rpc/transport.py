"""Per-machine packet demultiplexer (the FLIP layer stand-in).

One :class:`Transport` runs per simulated machine. It claims the
machine's NIC, queues each delivered packet, and dispatches it to the
handler registered for the packet's ``kind``. The RPC client, RPC
server, and group-communication kernel all register handlers on the
same transport, exactly as they share one FLIP instance inside an
Amoeba kernel.

Dispatch order. The transport behaves, event for event, like a pump
process that loops ``packet = yield recv(); handler(packet)``: a
packet arriving at an idle transport is dispatched from a fresh event
posted at the arrival; one arriving while a dispatch is pending waits
in the FIFO queue, and each dispatch posts the next one after its
handler returns. Packets that arrive at the same instant are therefore
handled in the same order as by such a pump (docs/PROTOCOL.md,
"Packet delivery").

Packets nobody handles. Most multicast frames reach machines that do
not listen for their kind (clients ignore ``grp.*``). A dispatch of such
a packet at an idle transport does nothing but drop it, so it costs no
event: the transport only reserves the sequence number that dispatch
would have taken (:meth:`~repro.sim.scheduler.Simulator.reserve`). If
another packet arrives, or a handler for the kind is registered, before
that place in the event order has passed, the dispatch is posted at the
reserved number after all, so the schedule stays exactly the same.
A handler that raises ends the run with its exception.
"""

from __future__ import annotations

from collections import deque
from typing import Callable

from repro.net.network import Nic, Packet
from repro.sim.resources import Cpu
from repro.sim.scheduler import Simulator


class Transport:
    """Dispatches incoming packets by kind; survives NIC restarts."""

    def __init__(self, sim: Simulator, nic: Nic, cpu: Cpu | None = None):
        self.sim = sim
        self.nic = nic
        self.cpu = cpu or Cpu(sim, f"cpu({nic.address})", node=str(nic.address))
        self._handlers: dict[str, Callable[[Packet], None]] = {}
        # Delivered packets no dispatch has taken yet, oldest first.
        self._queue: deque[Packet] = deque()
        # True while a dispatch event waits in the heap.
        self._armed = False
        # (when, seq, packet) of a dispatch that holds its place in the
        # event order without an event: it would drop *packet*, or, with
        # packet None, only look at the queue (the boot step).
        self._reserved: tuple[float, int, Packet | None] | None = None
        # Dispatch events still in the heap from before a shutdown.
        self._stale = 0
        # True while a handler runs (a pump running a handler is not
        # blocked on its inbox, so a crash does not wake it).
        self._in_dispatch = False
        self._up = False
        self._dropped = 0
        nic.receiver = self._accept
        self.start()

    @property
    def address(self):
        """The machine's network address."""
        return self.nic.address

    @property
    def alive(self) -> bool:
        """True between start() and shutdown() (machine is up)."""
        return self._up

    @property
    def dropped_unroutable(self) -> int:
        """Packets dispatched with no handler registered for their kind."""
        self._settle()
        return self._dropped

    # -- handler registry ---------------------------------------------------

    def register(self, kind: str, handler: Callable[[Packet], None]) -> None:
        """Route packets of *kind* to *handler* (replacing any previous)."""
        self._handlers[kind] = handler
        reserved = self._reserved
        if (
            reserved is not None
            and reserved[2] is not None
            and reserved[2].kind == kind
            and self._settle()
        ):
            self._claim()  # the reserved dispatch now has a handler

    def unregister(self, kind: str) -> None:
        """Stop routing packets of *kind*."""
        self._handlers.pop(kind, None)

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> None:
        """(Re)start dispatching; used at boot and after restart()."""
        if self._up:
            return
        self._up = True
        # The boot step of a pump: it only looks at the queue.
        self._reserved = (self.sim.now, self.sim.reserve(), None)

    def shutdown(self) -> None:
        """Crash the machine's network stack (with its NIC)."""
        if self.nic.up:
            self.nic.shutdown()
            if self._up and self._idle():
                # A pump blocked on the inbox is woken to die: that step
                # takes a place in the event order and does nothing.
                self.sim.reserve()
        self._stop()

    def restart(self) -> None:
        """Bring the stack back up after a crash. Handlers must be
        re-registered by the restarted services."""
        self._handlers = {}
        kernel = getattr(self, "_rpc_kernel", None)
        if kernel is not None:
            kernel.attached = False  # force a fresh RPC kernel after reboot
        self.nic.restart()
        self._stop()
        self.start()

    def _stop(self) -> None:
        """Forget queued packets and pending dispatches."""
        self._settle()
        self._reserved = None
        if self._armed:
            self._armed = False
            self._stale += 1
        self._queue.clear()
        self._in_dispatch = False
        self._up = False

    # -- delivery and dispatch ------------------------------------------------

    def _accept(self, packet: Packet) -> None:
        """The NIC's receiver: queue *packet*, dispatching it if idle."""
        if self._armed:
            self._queue.append(packet)
            return
        if self._reserved is not None and self._settle():
            self._claim()
            self._queue.append(packet)
            return
        sim = self.sim
        if packet.kind in self._handlers:
            self._queue.append(packet)
            self._armed = True
            sim._post(self._dispatch)
        else:
            self._reserved = (sim.now, sim.reserve(), packet)

    def _dispatch(self) -> None:
        """Hand the oldest queued packet to its handler."""
        if self._stale:
            self._stale -= 1
            return
        self._armed = False
        packet = self._queue.popleft()
        handler = self._handlers.get(packet.kind)
        if handler is None:
            self._dropped += 1
        else:
            self._in_dispatch = True
            handler(packet)
            self._in_dispatch = False
        self._next()

    def _boot(self) -> None:
        """The boot step, when packets arrived before its place passed."""
        if self._stale:
            self._stale -= 1
            return
        self._armed = False
        self._next()

    def _next(self) -> None:
        """After a dispatch: post the next one, or reserve its place if
        all it would do is drop the last queued packet."""
        queue = self._queue
        if not queue:
            return
        if len(queue) == 1 and queue[0].kind not in self._handlers:
            self._reserved = (self.sim.now, self.sim.reserve(), queue.popleft())
            return
        self._armed = True
        self.sim._post(self._dispatch)

    def _idle(self) -> bool:
        """No dispatch is pending, running, or holding a place ahead."""
        return not self._armed and not self._in_dispatch and not self._settle()

    def _settle(self) -> bool:
        """Whether a reserved dispatch still holds a place ahead in the
        event order. One whose place has passed is forgotten: it ran as
        a no-op, dropping its packet (if any)."""
        reserved = self._reserved
        if reserved is None:
            return False
        sim = self.sim
        if reserved[0] == sim.now and reserved[1] > sim.current_seq:
            return True
        if reserved[2] is not None:
            self._dropped += 1
        self._reserved = None
        return False

    def _claim(self) -> None:
        """Post the reserved dispatch at its place after all."""
        when, seq, packet = self._reserved
        self._reserved = None
        if packet is None:
            step = self._boot
        else:
            self._queue.appendleft(packet)
            step = self._dispatch
        self._armed = True
        self.sim._post_at(when, step, seq)

    # -- convenience -----------------------------------------------------------

    def send(self, dst, kind: str, payload, size: int = 128) -> None:
        """Unicast via this machine's NIC."""
        self.nic.send(dst, kind, payload, size)

    def broadcast(self, kind: str, payload, size: int = 128) -> None:
        """Multicast via this machine's NIC."""
        self.nic.broadcast(kind, payload, size)
