"""The simulated Ethernet segment.

Every simulated machine attaches one :class:`Nic`. Sending costs
simulated time per the :class:`~repro.sim.latency.NetworkLatency`
model; a multicast is *one* frame on the wire (as with Ethernet
hardware multicast, which Amoeba's FLIP exploits) offered to every
other NIC, and the receiving machine's transport decides whether it
listens for the frame's kind.

Delivery costs one event per frame and arrival instant, not one per
receiver: :meth:`Network.transmit` works out each receiver's arrival
(link policies, per-pair FIFO) and posts one event per distinct
instant, which hands the packet to its receivers in the order the
per-receiver events would have run. A NIC passes each packet to
its receiver callback (a :class:`~repro.rpc.transport.Transport`), or
queues it on :attr:`Nic.inbox` when nothing claimed the NIC.

Failure model, mirroring the paper's assumptions:

* fail-stop machines — a down NIC neither sends nor receives;
* clean partitions via :class:`~repro.net.partition.PartitionController`;
* optional uniform packet loss (off by default; the group protocol's
  retransmission machinery is exercised with it on).

Beyond the paper's assumptions, an adversarial per-*delivery*
interceptor chain (:mod:`repro.net.policy`) can drop, duplicate, delay,
and reorder individual frames per (src, dst) link and per frame kind —
the chaos layer (:mod:`repro.chaos`) drives it.

Reachability is evaluated at *delivery* time, so a partition that
forms while a frame is in flight drops the frame.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Hashable, Iterable, NamedTuple

from repro.errors import NetworkError
from repro.net.partition import PartitionController
from repro.net.policy import LinkContext, LinkDecision, LinkPolicy
from repro.sim.latency import LatencyModel
from repro.sim.primitives import Channel
from repro.sim.scheduler import Simulator

Address = Hashable

#: Destination constant for link-level broadcast frames.
BROADCAST = "<broadcast>"


class Packet(NamedTuple):
    """One frame as seen by a receiving NIC."""

    src: Address
    dst: Address  # the NIC it was delivered to (not BROADCAST)
    kind: str  # protocol discriminator, e.g. "rpc.request", "grp.bc"
    payload: Any
    size: int  # bytes, for wire-time accounting
    multicast: bool = False


@dataclass
class NetworkStats:
    """Wire-level counters (one frame counted once, however many receivers)."""

    frames_sent: int = 0
    bytes_sent: int = 0
    frames_dropped: int = 0
    frames_by_kind: dict[str, int] = field(default_factory=dict)
    # Link-policy effects (per delivery, not per frame).
    frames_duplicated: int = 0
    frames_delayed: int = 0
    frames_reordered: int = 0
    policy_drops: dict[str, int] = field(default_factory=dict)

    def record(self, kind: str, size: int) -> None:
        self.frames_sent += 1
        self.bytes_sent += size
        self.frames_by_kind[kind] = self.frames_by_kind.get(kind, 0) + 1

    def snapshot(self) -> dict[str, int]:
        """Copy of the per-kind counters (for before/after diffs)."""
        return dict(self.frames_by_kind)

    def full_snapshot(self) -> dict:
        """Every counter, copied — the determinism tests compare this."""
        return {
            "frames_sent": self.frames_sent,
            "bytes_sent": self.bytes_sent,
            "frames_dropped": self.frames_dropped,
            "frames_by_kind": dict(self.frames_by_kind),
            "frames_duplicated": self.frames_duplicated,
            "frames_delayed": self.frames_delayed,
            "frames_reordered": self.frames_reordered,
            "policy_drops": dict(self.policy_drops),
        }


class Network:
    """A single Ethernet-like segment."""

    def __init__(
        self,
        sim: Simulator,
        latency: LatencyModel | None = None,
        loss_probability: float = 0.0,
        link_policies: Iterable[LinkPolicy] | None = None,
    ):
        self.sim = sim
        self.latency = latency or LatencyModel.paper_testbed()
        self.loss_probability = loss_probability
        self.link_policies: list[LinkPolicy] = list(link_policies or [])
        self.partitions = PartitionController()
        self.stats = NetworkStats()
        # Segment-wide registry counters under the pseudo-node "net"
        # (NetworkStats stays the compact per-network API; the registry
        # is the cross-layer sink report()/exporters read from).
        registry = sim.obs.registry
        self._obs = sim.obs
        self._c_frames = registry.counter("net", "net.frames_sent")
        self._c_bytes = registry.counter("net", "net.bytes_sent")
        self._c_dropped = registry.counter("net", "net.frames_dropped")
        self._c_delayed = registry.counter("net", "net.frames_delayed")
        self._c_duplicated = registry.counter("net", "net.frames_duplicated")
        self._c_reordered = registry.counter("net", "net.frames_reordered")
        self._c_policy_drops = registry.counter("net", "net.policy_drops")
        # Segment occupancy: transmit_time (size-proportional, jitter
        # excluded) summed over every frame put on the wire. A window
        # delta over the window length is the segment's offered-load
        # fraction; it can exceed 1.0 because the model does not make
        # senders contend for the cable (docs/OBSERVABILITY.md §10).
        self._c_wire = registry.counter("net", "net.wire_ms")
        self._registry = registry
        # src -> dst -> _Link, created on a pair's first delivery.
        self._links: dict[Address, dict[Address, _Link]] = {}
        self._nics: dict[Address, "Nic"] = {}

    # -- topology --------------------------------------------------------

    def attach(self, address: Address) -> "Nic":
        """Create and register the NIC for *address*."""
        if address in self._nics:
            raise NetworkError(f"address {address!r} already attached")
        nic = Nic(self, address)
        self._nics[address] = nic
        return nic

    def nic(self, address: Address) -> "Nic":
        """Look up an attached NIC."""
        try:
            return self._nics[address]
        except KeyError:
            raise NetworkError(f"no NIC at address {address!r}") from None

    def addresses(self) -> list[Address]:
        """All attached addresses, in attach order."""
        return list(self._nics)

    def reachable(self, src: Address, dst: Address) -> bool:
        """Whether a frame from *src* would currently reach *dst*."""
        dst_nic = self._nics.get(dst)
        if dst_nic is None or not dst_nic.up:
            return False
        src_nic = self._nics.get(src)
        if src_nic is None or not src_nic.up:
            return False
        return self.partitions.connected(src, dst)

    # -- link policies ----------------------------------------------------

    def add_policy(self, policy: LinkPolicy) -> LinkPolicy:
        """Append *policy* to the interceptor chain; returns it."""
        self.link_policies.append(policy)
        return policy

    def remove_policy(self, policy: "LinkPolicy | str") -> None:
        """Remove a policy (by instance or name); unknown names no-op."""
        self.link_policies = [
            p
            for p in self.link_policies
            if p is not policy and p.name != policy
        ]

    def clear_policies(self) -> None:
        self.link_policies.clear()

    def _intercept(
        self, src: Address, dst: Address, kind: str, size: int, multicast: bool
    ) -> LinkDecision:
        """Run the policy chain over one candidate delivery."""
        decision = LinkDecision()
        ctx = LinkContext(src, dst, kind, size, multicast, self.sim.now)
        for policy in self.link_policies:
            policy.apply(ctx, decision, self.sim.rng)
        return decision

    # -- transmission ------------------------------------------------------

    def transmit(
        self,
        src: Address,
        dst: Address,
        kind: str,
        payload: Any,
        size: int,
    ) -> None:
        """Put one frame on the wire (unicast, or BROADCAST)."""
        src_nic = self.nic(src)
        if not src_nic.up:
            raise NetworkError(f"NIC {src!r} is down")
        self.stats.record(kind, size)
        self._c_frames.inc()
        self._c_bytes.inc(size)
        tracer = self._obs.tracer
        if tracer.enabled:
            tracer.emit(
                str(src), "net", "net.send",
                dst=str(dst), kind=kind, size=size,
            )
        if self._lost():
            self.stats.frames_dropped += 1
            self._c_dropped.inc()
            if tracer.enabled:
                tracer.emit(
                    str(src), "net", "net.drop",
                    dst=str(dst), kind=kind, reason="loss",
                )
            return
        wire_ms = self.latency.network.transmit_time(size)
        self._c_wire.inc(wire_ms)
        now = self.sim.now
        base = now + (wire_ms + self._jitter())
        if dst == BROADCAST:
            receivers: Iterable[Address] = [a for a in self._nics if a != src]
            multicast = True
        else:
            receivers = (dst,)
            multicast = False
        links = self._links.get(src)
        if links is None:
            links = self._links[src] = {}
        # Event time -> receivers arriving then, in scheduling order.
        # One event per instant keeps the order of per-receiver events:
        # all receivers of one instant would have had consecutive
        # places among that instant's events.
        arrivals: dict[float, list[Address]] = {}
        batch_when = batch = None
        for receiver in receivers:
            arrival = base
            decision = None
            if self.link_policies:
                decision = self._intercept(src, receiver, kind, size, multicast)
                if decision.drop:
                    self._policy_drop(src, receiver, kind, decision)
                    continue
                if decision.extra_delay_ms > 0.0:
                    arrival += decision.extra_delay_ms
                    self.stats.frames_delayed += 1
                    self._c_delayed.inc()
                self.stats.frames_duplicated += decision.duplicates
                if decision.duplicates:
                    self._c_duplicated.inc(decision.duplicates)
            link = links.get(receiver)
            if link is None:
                link = links[receiver] = _Link(self._registry, src, receiver)
            link.bytes.inc(size)
            link.busy.inc(wire_ms)
            if decision is not None and decision.allow_reorder:
                # Exempt from per-pair FIFO: this delivery may be
                # overtaken by later frames (bounded by the policy's
                # delay ceiling). Do not advance the FIFO horizon.
                if arrival < link.horizon:
                    self.stats.frames_reordered += 1
                    self._c_reordered.inc()
            else:
                if arrival < link.horizon:
                    arrival = link.horizon  # keep per-pair delivery FIFO
                link.horizon = arrival
            # The event time is now + (arrival - now), which need not
            # equal arrival in floating point.
            when = now + (arrival - now)
            if when != batch_when:
                batch_when = when
                batch = arrivals.get(when)
                if batch is None:
                    batch = arrivals[when] = []
            batch.append(receiver)
            if decision is not None and decision.duplicates:
                batch.extend([receiver] * decision.duplicates)
        post = self.sim._post_at
        for when, batch in arrivals.items():
            post(when, partial(self._arrive, src, kind, payload, size, multicast, batch))

    def _arrive(
        self,
        src: Address,
        kind: str,
        payload: Any,
        size: int,
        multicast: bool,
        receivers: list[Address],
    ) -> None:
        """One frame's event at one arrival instant: hand the packet to
        each receiver that is reachable now, in order."""
        tracer = self._obs.tracer
        for receiver in receivers:
            packet = Packet(src, receiver, kind, payload, size, multicast)
            if not self.reachable(src, receiver):
                self._drop_unreachable(packet)
                continue
            if tracer.enabled:
                tracer.emit(
                    str(receiver), "net", "net.deliver",
                    src=str(src), kind=kind,
                )
            self._nics[receiver].accept(packet)

    def _policy_drop(
        self, src: Address, receiver: Address, kind: str, decision: LinkDecision
    ) -> None:
        self.stats.frames_dropped += 1
        self._c_dropped.inc()
        self._c_policy_drops.inc()
        name = decision.dropped_by or "?"
        self.stats.policy_drops[name] = self.stats.policy_drops.get(name, 0) + 1
        tracer = self._obs.tracer
        if tracer.enabled:
            tracer.emit(
                str(src), "net", "net.drop",
                dst=str(receiver), kind=kind, reason=name,
            )

    def _drop_unreachable(self, packet: Packet) -> None:
        self.stats.frames_dropped += 1
        self._c_dropped.inc()
        tracer = self._obs.tracer
        if tracer.enabled:
            tracer.emit(
                str(packet.src), "net", "net.drop",
                dst=str(packet.dst), kind=packet.kind,
                reason="unreachable",
            )
        self._maybe_refuse(packet)

    def _maybe_refuse(self, packet: Packet) -> None:
        """Connection refused: an RPC request whose destination NIC is
        down (machine crashed or shut off) earns an immediate
        ``rpc.unreach`` control frame back to the sender, modelling a
        link-layer refusal. Only NIC-down counts — a *partitioned*
        destination stays a silent timeout (the sender cannot tell a
        cut cable from a dead host), and multicast is never refused.
        """
        if packet.kind != "rpc.request" or packet.multicast:
            return
        dst_nic = self._nics.get(packet.dst)
        if dst_nic is not None and dst_nic.up:
            return  # dropped for another reason (e.g. partition)
        src_nic = self._nics.get(packet.src)
        if src_nic is None or not src_nic.up:
            return
        if not self.partitions.connected(packet.src, packet.dst):
            return
        payload = packet.payload
        if not isinstance(payload, dict) or "txid" not in payload:
            return
        refusal = Packet(
            packet.dst, packet.src, "rpc.unreach", {"txid": payload["txid"]}, 64
        )
        delay = self.latency.network.transmit_time(64)
        self.stats.record("rpc.unreach", 64)
        self._c_frames.inc()
        self._c_bytes.inc(64)
        self.sim._post_in(delay, partial(self._deliver_refusal, refusal))

    def _deliver_refusal(self, refusal: Packet) -> None:
        # The refusal's nominal src is the dead machine, so the
        # reachable() check would drop it; deliver directly, requiring
        # only a live receiver and no new partition.
        nic = self._nics.get(refusal.dst)
        if (
            nic is not None
            and nic.up
            and self.partitions.connected(refusal.src, refusal.dst)
        ):
            nic.accept(refusal)

    def _lost(self) -> bool:
        if self.loss_probability <= 0.0:
            return False
        return self.sim.rng.uniform("net.loss", 0.0, 1.0) < self.loss_probability

    def _jitter(self) -> float:
        bound = self.latency.network.jitter_ms
        if bound <= 0.0:
            return 0.0
        return self.sim.rng.uniform("net.jitter", 0.0, bound)


class _Link:
    """One directed (src, dst) pair: its registry meters under the
    pseudo-node ``link(src->dst)`` and its FIFO horizon, the last
    arrival scheduled on it. A single Ethernet segment serializes
    frames, so delivery between a given pair is FIFO even with
    per-packet jitter."""

    __slots__ = ("bytes", "busy", "horizon")

    def __init__(self, registry, src: Address, dst: Address):
        node = f"link({src}->{dst})"
        self.bytes = registry.counter(node, "net.bytes")
        self.busy = registry.counter(node, "net.busy_ms")
        self.horizon = 0.0


class Nic:
    """One machine's network interface.

    A delivered frame goes to :attr:`receiver` when a protocol stack
    claimed the NIC (a :class:`~repro.rpc.transport.Transport` does),
    and otherwise waits on :attr:`inbox` (a :class:`Channel` of
    :class:`Packet`) for whoever drains it.
    """

    def __init__(self, network: Network, address: Address):
        self.network = network
        self.address = address
        self.up = True
        self.inbox = Channel(f"nic({address}).inbox")
        #: Called with each delivered packet instead of queueing it on
        #: the inbox; None leaves packets on the inbox.
        self.receiver: Callable[[Packet], None] | None = None

    def accept(self, packet: Packet) -> None:
        """A frame arrived for this NIC (the network checked it is up)."""
        if self.receiver is not None:
            self.receiver(packet)
        else:
            self.inbox.send(packet)

    # -- lifecycle --------------------------------------------------------

    def shutdown(self) -> None:
        """Take the NIC down (machine crash); pending frames are lost."""
        self.up = False
        self.inbox.close(NetworkError(f"NIC {self.address!r} went down"))

    def restart(self) -> None:
        """Bring the NIC back up with a fresh, empty inbox."""
        self.up = True
        self.inbox = Channel(f"nic({self.address}).inbox")

    # -- sending ----------------------------------------------------------

    def send(self, dst: Address, kind: str, payload: Any, size: int = 128) -> None:
        """Unicast one frame to *dst*."""
        self.network.transmit(self.address, dst, kind, payload, size)

    def broadcast(self, kind: str, payload: Any, size: int = 128) -> None:
        """Multicast one frame to every other attached NIC."""
        self.network.transmit(self.address, BROADCAST, kind, payload, size)

    # -- receiving ---------------------------------------------------------

    def recv(self):
        """Future resolving with the next :class:`Packet` on the inbox
        (only NICs without a :attr:`receiver` queue packets there)."""
        return self.inbox.recv()
