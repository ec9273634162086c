"""Unit tests for channel-path routing (``Machine.route``)."""

import pytest

from repro.machine import lassen, shepard
from repro.runtime.copies import CopyEngine
from repro.runtime.events import TimelinePool
from repro.runtime.instances import CopyNeed
from repro.util.units import MIB


@pytest.fixture
def machine2():
    return shepard(2)


def copy_finish(machine, src, dst, nbytes):
    """Finish time of one uncontended copy through the copy engine."""
    engine = CopyEngine(machine, TimelinePool())
    need = CopyNeed(src_mem=src, lo=0, hi=nbytes, src_time=0.0)
    return engine.execute(need, dst, ready=0.0)


class TestCopyPath:
    def test_self_path_free(self, machine2):
        assert machine2.route("n0.fb0", "n0.fb0") == ()
        assert copy_finish(machine2, "n0.fb0", "n0.fb0", 10 * MIB) == 0.0

    def test_direct_channel(self, machine2):
        route = machine2.route("n0.fb0", "n0.zc")
        assert route == (machine2.channel("n0.fb0", "n0.zc"),)

    def test_cross_node_routed(self, machine2):
        route = machine2.route("n0.fb0", "n1.fb0")
        assert route is not None
        assert len(route) >= 2  # fb -> host -> network -> ... -> fb

    def test_route_is_a_channel_walk(self, machine2):
        mems = [m.uid for m in machine2.memories]
        for src in mems:
            for dst in mems:
                at = src
                for hop in machine2.route(src, dst):
                    assert at in hop.endpoints()
                    at = hop.mem_b if at == hop.mem_a else hop.mem_a
                assert at == dst

    def test_latency_sums(self, machine2):
        # A zero-byte copy costs exactly the per-hop latencies.
        route = machine2.route("n0.fb0", "n1.zc")
        assert copy_finish(machine2, "n0.fb0", "n1.zc", 0) == pytest.approx(
            sum(h.latency for h in route)
        )

    def test_transfer_time_monotone_in_bytes(self, machine2):
        t1 = copy_finish(machine2, "n0.fb0", "n1.zc", MIB)
        t2 = copy_finish(machine2, "n0.fb0", "n1.zc", 64 * MIB)
        assert t2 > t1

    def test_cross_node_slower_than_local(self, machine2):
        local = copy_finish(machine2, "n0.fb0", "n0.zc", 64 * MIB)
        remote = copy_finish(machine2, "n0.fb0", "n1.zc", 64 * MIB)
        assert remote > local

    def test_connected(self, machine2):
        mems = [m.uid for m in machine2.memories]
        assert all(machine2.route(a, b) is not None for a in mems for b in mems)

    def test_lassen_peer_gpu_copies(self):
        machine = lassen(1)
        # Peer channel exists -> one hop.
        assert machine.route("n0.fb0", "n0.fb3") == (
            machine.channel("n0.fb0", "n0.fb3"),
        )

    def test_caching_returns_same_object(self, machine2):
        a = machine2.route("n0.fb0", "n1.zc")
        b = machine2.route("n0.fb0", "n1.zc")
        assert a is b
