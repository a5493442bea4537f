"""The transport dispatches exactly like the generator pump it replaced.

:class:`PumpTransport` below is the reference implementation: a
process per machine looping ``packet = yield nic.recv()`` and calling
the handler for the packet's kind. The property test drives random
delivery schedules through both, with zero network jitter so packets
often arrive at the same instant (a multicast and a unicast clamped
behind it, unhandled kinds, chains of them, crashes and restarts with
packets still queued, handlers that register kinds or crash and
restart machines at that instant), and demands the same handler calls at the same
(time, seq) places, the same (time, seq) places for every event the
handlers post, and the same unroutable-drop counts whenever sampled.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import Interrupted, NetworkError
from repro.net import Network
from repro.rpc import Transport
from repro.sim import LatencyModel, Simulator

MACHINES = ("m0", "m1", "m2", "m3")
KINDS = ("k.a", "k.b", "k.c")
SIZES = (64, 128, 1500)


class PumpTransport:
    """Reference: the per-machine generator pump (packets via the inbox)."""

    def __init__(self, sim, nic):
        self.sim = sim
        self.nic = nic
        self._handlers = {}
        self._pump = None
        self.dropped_unroutable = 0
        self.start()

    def register(self, kind, handler):
        self._handlers[kind] = handler

    def start(self):
        if self._pump is not None and not self._pump.resolved:
            return
        self._pump = self.sim.spawn(self._run(), f"pump({self.nic.address})")

    def shutdown(self):
        if self.nic.up:
            self.nic.shutdown()
        if self._pump is not None:
            self._pump.kill("transport shutdown")
            self._pump = None

    def restart(self):
        self._handlers = {}
        self.nic.restart()
        self._pump = None
        self.start()

    def _run(self):
        while True:
            try:
                packet = yield self.nic.recv()
            except (NetworkError, Interrupted):
                return
            handler = self._handlers.get(packet.kind)
            if handler is None:
                self.dropped_unroutable += 1
                continue
            handler(packet)

    def send(self, dst, kind, payload, size=128):
        self.nic.send(dst, kind, payload, size)

    def broadcast(self, kind, payload, size=128):
        self.nic.broadcast(kind, payload, size)


def run_schedule(make_transport, actions, handled):
    """Play *actions* on a fresh zero-jitter segment; return the log."""
    sim = Simulator(seed=3)
    latency = LatencyModel.paper_testbed()
    latency.network.jitter_ms = 0.0
    network = Network(sim, latency)
    transports = {m: make_transport(sim, network.attach(m)) for m in MACHINES}
    log = []

    def place():
        return (sim.now, sim.current_seq)

    def handler_for(machine):
        def handle(packet):
            hops, tag = packet.payload
            log.append(("handle", machine, packet.kind, tag, place()))
            sim.call_soon(lambda: log.append(("posted", machine, tag, place())))
            sim.schedule(0.25, lambda: log.append(("later", machine, tag, place())))
            # Side effects at this instant, on this or another machine.
            effect, offset = tag % 6, tag // 6
            target = MACHINES[(MACHINES.index(machine) + offset) % len(MACHINES)]
            if effect == 1 and transports[target].nic.up:
                transports[target].shutdown()  # may be this very machine
            elif effect == 2 and target != machine and not transports[target].nic.up:
                transports[target].restart()
                register_all(target)
            elif effect == 3:
                transports[target].register(KINDS[tag % len(KINDS)], handler_for(target))
            if hops > 0 and transports[machine].nic.up:  # a chain
                if tag % 2:
                    transports[machine].broadcast(packet.kind, (hops - 1, tag), 64)
                else:
                    nxt = MACHINES[(MACHINES.index(machine) + 1) % len(MACHINES)]
                    transports[machine].send(nxt, packet.kind, (hops - 1, tag), 64)
        return handle

    def register_all(machine):
        for kind in handled.get(machine, ()):
            transports[machine].register(kind, handler_for(machine))

    def act(action):
        op, _, machine = action[:3]
        transport = transports[machine]
        up = transport.nic.up
        if op == "send" and up:
            _, _, _, dst, kind, size, hops, tag = action
            transport.send(dst, kind, (hops, tag), size)
        elif op == "bcast" and up:
            _, _, _, kind, size, hops, tag = action
            transport.broadcast(kind, (hops, tag), size)
        elif op == "register" and up:
            transport.register(action[3], handler_for(machine))
        elif op == "crash" and up:
            transport.shutdown()
        elif op == "restart" and not up:
            transport.restart()
            register_all(machine)
        elif op == "probe":
            log.append(("probe", machine, transport.dropped_unroutable, place()))

    for machine in MACHINES:
        register_all(machine)
    for action in actions:
        sim.schedule(action[1], lambda a=action: act(a))
    sim.run()
    log.append(("dropped", [transports[m].dropped_unroutable for m in MACHINES]))
    return log


# Action times that coincide with arrivals: one and two 64-byte hops,
# one 128-byte hop, plus times that coincide with nothing.
_WIRE = LatencyModel.paper_testbed().network.transmit_time
TIMES = st.sampled_from(
    [0.0, _WIRE(64), _WIRE(64) + _WIRE(64), _WIRE(128), 0.5, 1.0]
)
MACHINE = st.sampled_from(MACHINES)
KIND = st.sampled_from(KINDS)
TAG = st.integers(0, 23)
ACTION = st.one_of(
    st.tuples(st.just("send"), TIMES, MACHINE, MACHINE, KIND,
              st.sampled_from(SIZES), st.integers(0, 2), TAG),
    st.tuples(st.just("bcast"), TIMES, MACHINE, KIND,
              st.sampled_from(SIZES), st.integers(0, 2), TAG),
    st.tuples(st.just("register"), TIMES, MACHINE, KIND),
    st.tuples(st.just("crash"), TIMES, MACHINE),
    st.tuples(st.just("restart"), TIMES, MACHINE),
    st.tuples(st.just("probe"), TIMES, MACHINE),
)
HANDLED = st.fixed_dictionaries(
    {m: st.frozensets(KIND, max_size=2) for m in MACHINES}
)


@settings(max_examples=150, deadline=None)
@given(actions=st.lists(ACTION, min_size=1, max_size=25), handled=HANDLED)
def test_transport_matches_generator_pump(actions, handled):
    expected = run_schedule(PumpTransport, actions, handled)
    got = run_schedule(Transport, actions, handled)
    assert got == expected


W64 = _WIRE(64)

EDGE_CASES = {
    # A unicast sent behind a larger multicast is clamped to the same
    # arrival instant: the listener m1 handles both, multicast first.
    "clamped_unicast": (
        [("bcast", 0.0, "m0", "k.a", 1500, 0, 0),
         ("send", 0.0, "m0", "m1", "k.a", 64, 0, 2)],
        {"m1": frozenset({"k.a"})},
    ),
    # m1's handler (tag 9: register k.a one machine on) runs after m2
    # reserved a place for dropping the same multicast, but before that
    # place: m2 must handle the packet after all.
    "register_before_reserved_place": (
        [("bcast", 0.0, "m0", "k.a", 64, 0, 9)],
        {"m1": frozenset({"k.a"}), "m3": frozenset({"k.a"})},
    ),
    # m1 restarts at the instant a multicast arrives: the packet comes
    # in before m1's boot step, which must still take its turn after
    # m3's dispatch of the same multicast.
    "arrival_before_boot_step": (
        [("crash", 0.0, "m1"),
         ("bcast", 0.0, "m0", "k.a", 64, 0, 0),
         ("restart", W64, "m1")],
        {"m1": frozenset({"k.a"}), "m2": frozenset({"k.a"})},
    ),
    # m2's handler (tag 1: crash this machine) shuts m2 down while a
    # second packet waits in its queue; m3 still sees its copy.
    "crash_in_handler_with_queue": (
        [("bcast", 0.0, "m0", "k.a", 64, 0, 1),
         ("send", 0.0, "m0", "m2", "k.a", 64, 0, 0),
         ("probe", 1.0, "m2")],
        {"m2": frozenset({"k.a"}), "m3": frozenset({"k.a"})},
    ),
}


@pytest.mark.parametrize("case", sorted(EDGE_CASES))
def test_same_instant_edge_cases(case):
    actions, handled = EDGE_CASES[case]
    expected = run_schedule(PumpTransport, actions, handled)
    assert run_schedule(Transport, actions, handled) == expected
    assert any(entry[0] == "handle" for entry in expected)


def test_unhandled_multicast_costs_no_event():
    """Receivers without a handler for a multicast's kind post nothing:
    the frame's one arrival event is the only event it costs."""
    sim = Simulator(seed=0)
    network = Network(sim)
    transports = [Transport(sim, network.attach(f"m{i}")) for i in range(6)]
    sim.run()
    transports[0].broadcast("grp.x.bc", None)
    assert len(sim._heap) == 1
    sim.run()
    assert [t.dropped_unroutable for t in transports] == [0, 1, 1, 1, 1, 1]


def test_handler_that_raises_fails_the_run():
    """A broken handler must stop the simulation, not silently kill the
    machine's packet dispatch."""
    sim = Simulator(seed=0)
    network = Network(sim)
    sender = Transport(sim, network.attach("a"))
    receiver = Transport(sim, network.attach("b"))

    def broken(packet):
        raise ValueError(f"bad packet {packet.payload}")

    receiver.register("boom", broken)
    sender.send("b", "boom", 1)
    with pytest.raises(ValueError, match="bad packet 1"):
        sim.run()
