"""Unit tests for the simulated Ethernet segment."""

import pytest

from repro.errors import NetworkError
from repro.net import BROADCAST, Delay, Duplicate, LinkFilter, Network
from repro.sim import LatencyModel, Simulator


def make_network(loss=0.0, latency=None):
    sim = Simulator(seed=1)
    net = Network(sim, latency or LatencyModel.paper_testbed(), loss_probability=loss)
    return sim, net


class TestTopology:
    def test_attach_and_lookup(self):
        _, net = make_network()
        nic = net.attach("a")
        assert net.nic("a") is nic
        assert net.addresses() == ["a"]

    def test_duplicate_attach_rejected(self):
        _, net = make_network()
        net.attach("a")
        with pytest.raises(NetworkError):
            net.attach("a")

    def test_unknown_nic_lookup_raises(self):
        _, net = make_network()
        with pytest.raises(NetworkError):
            net.nic("ghost")

    def test_reachability_requires_both_up(self):
        _, net = make_network()
        a, b = net.attach("a"), net.attach("b")
        assert net.reachable("a", "b")
        b.shutdown()
        assert not net.reachable("a", "b")
        b.restart()
        assert net.reachable("a", "b")
        a.shutdown()
        assert not net.reachable("a", "b")


class TestUnicast:
    def test_packet_arrives_with_latency(self):
        sim, net = make_network()
        net.attach("a")
        b = net.attach("b")
        fut = b.recv()
        net.nic("a").send("b", "test", {"x": 1}, size=100)
        sim.run()
        packet = fut.value
        assert packet.src == "a" and packet.dst == "b"
        assert packet.payload == {"x": 1}
        assert not packet.multicast
        assert sim.now > 0.0  # latency was charged

    def test_larger_packets_take_longer(self):
        def arrival_time(size):
            sim, net = make_network(latency=LatencyModel.paper_testbed())
            # zero jitter for a deterministic comparison
            net.latency.network.jitter_ms = 0.0
            net.attach("a")
            b = net.attach("b")
            fut = b.recv()
            net.nic("a").send("b", "t", None, size=size)
            sim.run()
            assert fut.resolved
            return sim.now

        assert arrival_time(10_000) > arrival_time(100)

    def test_send_from_down_nic_raises(self):
        _, net = make_network()
        a = net.attach("a")
        net.attach("b")
        a.shutdown()
        with pytest.raises(NetworkError):
            a.send("b", "t", None)

    def test_packet_to_down_nic_dropped(self):
        sim, net = make_network()
        net.attach("a")
        b = net.attach("b")
        b.shutdown()
        net.nic("a").send("b", "t", None)
        sim.run()
        assert net.stats.frames_dropped == 1

    def test_packet_in_flight_during_crash_is_lost(self):
        sim, net = make_network()
        net.attach("a")
        b = net.attach("b")
        net.nic("a").send("b", "t", None)
        b.shutdown()  # crash before delivery event fires
        sim.run()
        assert net.stats.frames_dropped == 1

    def test_fifo_between_same_pair(self):
        sim, net = make_network()
        net.attach("a")
        b = net.attach("b")
        for i in range(5):
            net.nic("a").send("b", "t", i, size=64)
        sim.run()
        got = [b.inbox.recv().value.payload for _ in range(5)]
        assert got == [0, 1, 2, 3, 4]


class TestBroadcast:
    def test_broadcast_reaches_all_others(self):
        sim, net = make_network()
        a = net.attach("a")
        receivers = [net.attach(x) for x in ("b", "c", "d")]
        futures = [r.recv() for r in receivers]
        a.broadcast("hello", 42)
        sim.run()
        assert all(f.value.payload == 42 for f in futures)
        assert all(f.value.multicast for f in futures)

    def test_broadcast_not_delivered_to_sender(self):
        sim, net = make_network()
        a = net.attach("a")
        net.attach("b")
        a.broadcast("hello", None)
        sim.run()
        assert len(a.inbox) == 0

    def test_broadcast_counts_as_one_frame(self):
        sim, net = make_network()
        a = net.attach("a")
        for x in ("b", "c", "d"):
            net.attach(x)
        a.broadcast("grp.bc", None, size=256)
        sim.run()
        assert net.stats.frames_sent == 1
        assert net.stats.frames_by_kind == {"grp.bc": 1}

    def test_broadcast_is_one_event_per_arrival_instant(self):
        sim, net = make_network()
        a = net.attach("a")
        receivers = [net.attach(x) for x in ("b", "c", "d")]
        a.broadcast("hello", None)
        assert len(sim._heap) == 1  # not one event per receiver
        sim.run()
        assert all(len(r.inbox) == 1 for r in receivers)

    def test_delayed_receiver_gets_its_own_event(self):
        sim, net = make_network()
        net.add_policy(
            Delay("slow-c", LinkFilter(dst="c"), min_ms=5.0, max_ms=5.0)
        )
        a = net.attach("a")
        order = []
        for x in ("b", "c", "d"):
            net.attach(x).receiver = lambda p: order.append((p.dst, sim.now))
        a.broadcast("hello", None)
        assert len(sim._heap) == 2
        sim.run()
        assert [dst for dst, _ in order] == ["b", "d", "c"]
        assert order[0][1] == order[1][1] < order[2][1]

    def test_duplicates_arrive_back_to_back(self):
        sim, net = make_network()
        net.add_policy(Duplicate("dup-b", LinkFilter(dst="b"), copies=2))
        a = net.attach("a")
        got = []
        for x in ("b", "c"):
            net.attach(x).receiver = lambda p: got.append(p.dst)
        a.broadcast("hello", None)
        sim.run()
        assert got == ["b", "b", "b", "c"]

    def test_broadcast_respects_partitions(self):
        sim, net = make_network()
        a = net.attach("a")
        b, c = net.attach("b"), net.attach("c")
        net.partitions.split([["a", "b"], ["c"]])
        a.broadcast("hello", None)
        sim.run()
        assert len(b.inbox) == 1
        assert len(c.inbox) == 0


class TestPartitionsAndLoss:
    def test_unicast_across_partition_dropped(self):
        sim, net = make_network()
        net.attach("a")
        b = net.attach("b")
        net.partitions.split([["a"], ["b"]])
        net.nic("a").send("b", "t", None)
        sim.run()
        assert len(b.inbox) == 0
        assert net.stats.frames_dropped == 1

    def test_heal_restores_delivery(self):
        sim, net = make_network()
        net.attach("a")
        b = net.attach("b")
        net.partitions.split([["a"], ["b"]])
        net.partitions.heal()
        net.nic("a").send("b", "t", None)
        sim.run()
        assert len(b.inbox) == 1

    def test_loss_probability_drops_packets(self):
        sim, net = make_network(loss=1.0)
        net.attach("a")
        b = net.attach("b")
        net.nic("a").send("b", "t", None)
        sim.run()
        assert len(b.inbox) == 0
        assert net.stats.frames_dropped == 1

    def test_partial_loss_is_deterministic_per_seed(self):
        def delivered(seed):
            sim = Simulator(seed=seed)
            net = Network(sim, loss_probability=0.5)
            net.attach("a")
            b = net.attach("b")
            for _ in range(100):
                net.nic("a").send("b", "t", None)
            sim.run()
            return len(b.inbox)

        assert delivered(42) == delivered(42)
        assert 20 < delivered(42) < 80  # loss is actually happening


class TestStats:
    def test_bytes_and_kind_accounting(self):
        sim, net = make_network()
        net.attach("a")
        net.attach("b")
        net.nic("a").send("b", "rpc.request", None, size=100)
        net.nic("a").send("b", "rpc.request", None, size=50)
        net.nic("a").send("b", "rpc.reply", None, size=25)
        sim.run()
        assert net.stats.frames_sent == 3
        assert net.stats.bytes_sent == 175
        assert net.stats.frames_by_kind == {"rpc.request": 2, "rpc.reply": 1}

    def test_snapshot_is_a_copy(self):
        _, net = make_network()
        snap = net.stats.snapshot()
        net.stats.record("x", 1)
        assert "x" not in snap
