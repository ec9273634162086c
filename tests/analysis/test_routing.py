"""Routes as the analyzer sees them: the machine's own copy paths.

Soundness of the per-channel congestion bound rests on two identities
pinned here: the analyzer and the simulator's copy engine read the same
``Machine.route``, and the timeline key per hop is ``Channel.key``, the
one key the copy engine reserves.
"""

from __future__ import annotations

from repro.analysis.engine import diagnose_routes
from repro.machine import lassen, shepard, single_node
from repro.machine.kinds import MemKind, ProcKind
from repro.machine.model import (
    AccessLink,
    Channel,
    Machine,
    Memory,
    Processor,
)
from repro.obs.trace import TraceRecorder
from repro.runtime.copies import CopyEngine
from repro.runtime.events import TimelinePool
from repro.runtime.instances import CopyNeed
from repro.util.serialization import to_jsonable
from repro.util.units import GIB, MIB


def island_machine() -> Machine:
    """Two CPUs whose system memories share no channel (an island)."""
    procs = [
        Processor(
            uid=f"cpu{i}",
            kind=ProcKind.CPU,
            node=0,
            throughput=1e11,
            launch_overhead=1e-4,
        )
        for i in range(2)
    ]
    mems = [
        Memory(uid="sysA", kind=MemKind.SYSTEM, node=0, capacity=GIB),
        Memory(uid="sysB", kind=MemKind.SYSTEM, node=0, capacity=GIB),
        Memory(uid="zc", kind=MemKind.ZERO_COPY, node=0, capacity=GIB),
    ]
    access = [
        AccessLink(proc="cpu0", mem="sysA", bandwidth=1e11, latency=0.0),
        AccessLink(proc="cpu1", mem="sysB", bandwidth=1e11, latency=0.0),
        AccessLink(proc="cpu0", mem="zc", bandwidth=5e10, latency=0.0),
        AccessLink(proc="cpu1", mem="zc", bandwidth=5e10, latency=0.0),
    ]
    channels = [
        Channel(mem_a="sysA", mem_b="zc", bandwidth=2e10, latency=1e-5),
    ]
    return Machine(
        name="island-1n",
        processors=procs,
        memories=mems,
        access_links=access,
        channels=channels,
    )


class TestChannelKey:
    def test_matches_copy_engine_key(self):
        machine = shepard(2)
        recorder = TraceRecorder()
        engine = CopyEngine(machine, TimelinePool(), recorder=recorder)
        need = CopyNeed(src_mem="n0.fb0", lo=0, hi=MIB, src_time=0.0)
        engine.execute(need, "n1.fb0", ready=0.0)
        reserved = [span.resource for span in recorder.spans]
        assert reserved == [
            hop.key for hop in machine.route("n0.fb0", "n1.fb0")
        ]

    def test_orientation_independent(self):
        a = Channel(mem_a="a", mem_b="b", bandwidth=1e9)
        b = Channel(mem_a="b", mem_b="a", bandwidth=1e9)
        assert a.key == b.key == "chan:a<->b"


class TestRoutes:
    def test_same_memory_routes_empty(self):
        assert shepard(1).route("n0.zc", "n0.zc") == ()


class TestUnreachable:
    def test_connected_machines_have_no_unreachable_pairs(self):
        for machine in (shepard(2), lassen(2), single_node()):
            assert diagnose_routes(machine) == []

    def test_island_memory_is_reported(self):
        machine = island_machine()
        assert machine.route("sysA", "sysB") is None
        diags = diagnose_routes(machine)
        assert [d.rule_id for d in diags] == ["AM503", "AM503"]
        assert [d.span.memory for d in diags] == ["sysA", "sysB"]
        assert "sysB" in diags[0].message
        assert "zc" in diags[1].message


class TestModelCache:
    def test_same_machine_object_hits_cache(self):
        # The route memo is private state: a machine that has routed
        # every pair still equals, and serializes like, a fresh one.
        machine = shepard(1)
        mems = [m.uid for m in machine.memories]
        for src in mems:
            for dst in mems:
                machine.route(src, dst)
        assert machine == shepard(1)
        assert to_jsonable(machine) == to_jsonable(shepard(1))

    def test_equal_but_distinct_machines_get_distinct_models(self):
        a, b = shepard(1), shepard(1)
        assert a == b
        assert a.route("n0.fb0", "n0.sys0") == b.route("n0.fb0", "n0.sys0")
        assert a.route("n0.fb0", "n0.sys0") is not b.route(
            "n0.fb0", "n0.sys0"
        )
