"""Derived work keyed by content: shared route tables and launch
signatures.

Routes are computed once per routing graph and process, and per-launch
caches (spill planner shards, launch costs, footprint contributions) key
by ``TaskLaunch.signature``, so launches and machines with equal content
share entries.  Sharing must never show: every result here is compared
field for field against a reference that keeps one entry per launch
(``per_launch_signatures``) or a machine with its own table.
"""

from __future__ import annotations

from collections import OrderedDict

import pytest

import repro.machine.model as model
from repro.analysis.memfeas import StaticMemoryFeasibility
from repro.apps import make_app
from repro.machine import lassen, shepard
from repro.machine.model import Machine
from repro.machine.overrides import apply_machine_params
from repro.mapping import SearchSpace
from repro.runtime.incremental import LaunchCostCache
from repro.runtime.memory import MemoryPlanner, OOMError
from repro.util.rng import RngStream
from tests.conftest import build_pingpong_graph, per_launch_signatures
from tests.test_incremental import APP_INPUTS, _chain


# ----------------------------------------------------------------------
# One route table per routing graph
# ----------------------------------------------------------------------
@pytest.fixture
def fresh_tables(monkeypatch):
    """An empty process-wide registry, with every Dijkstra run counted
    per ``(machine, src, dst)``."""
    monkeypatch.setattr(model, "_ROUTE_TABLES", OrderedDict())
    runs = []
    search = Machine._shortest_route

    def counted(self, src, dst):
        runs.append((id(self), src, dst))
        return search(self, src, dst)

    monkeypatch.setattr(Machine, "_shortest_route", counted)
    return runs


def _pairs(machine):
    uids = [m.uid for m in machine.memories]
    return [(src, dst) for src in uids for dst in uids if src != dst]


def _hop_keys(machine, pairs):
    return [
        None if route is None else [chan.key for chan in route]
        for route in (machine.route(src, dst) for src, dst in pairs)
    ]


def test_equal_routing_graphs_search_each_pair_once(fresh_tables):
    first, second = shepard(2), shepard(2)
    pairs = _pairs(first)
    assert _hop_keys(first, pairs) == _hop_keys(second, pairs)
    assert len(fresh_tables) == len(pairs)
    assert {(src, dst) for _, src, dst in fresh_tables} == set(pairs)
    # Renamed and capacity-changed machines route over the same graph.
    renamed = apply_machine_params(
        shepard(2), {"name": "other", "memory_capacity": {"n0.zc": 1 << 30}}
    )
    assert _hop_keys(renamed, pairs) == _hop_keys(first, pairs)
    assert len(fresh_tables) == len(pairs)


def test_route_hops_are_the_calling_machines_channels(fresh_tables):
    first, second = shepard(2), shepard(2)
    for src, dst in _pairs(first):
        hops_first = first.route(src, dst)
        hops_second = second.route(src, dst)
        assert hops_first == hops_second
        for hop_first, hop_second in zip(hops_first, hops_second):
            assert hop_second is second.channel(hop_second.mem_a, hop_second.mem_b)
            assert hop_first is first.channel(hop_first.mem_a, hop_first.mem_b)
            assert hop_second is not hop_first


def test_perturbed_channel_gets_its_own_table(fresh_tables):
    base = shepard(2)
    pairs = _pairs(base)
    base_routes = _hop_keys(base, pairs)
    slow = apply_machine_params(
        shepard(2), {"channel_bandwidth": {"n0.sys0|n0.sys1": 1.0e6}}
    )
    slow_routes = _hop_keys(slow, pairs)
    assert len(fresh_tables) == 2 * len(pairs)
    assert slow._route_table is not base._route_table
    # The slow channel is routed around, so sharing would be wrong.
    assert slow_routes != base_routes
    assert slow.route("n0.sys0", "n0.sys1") != base.route("n0.sys0", "n0.sys1")


def test_registry_is_bounded(fresh_tables):
    machines = [
        apply_machine_params(
            shepard(1),
            {"channel_latency": {"n0.sys0|n0.sys1": 1e-6 * (i + 1)}},
        )
        for i in range(model.ROUTE_TABLE_LIMIT + 2)
    ]
    for machine in machines:
        machine.route("n0.fb0", "n0.sys1")
    assert len(model._ROUTE_TABLES) == model.ROUTE_TABLE_LIMIT
    assert machines[0]._graph_key not in model._ROUTE_TABLES
    assert machines[-1]._graph_key in model._ROUTE_TABLES
    # A machine keeps the table it resolved after the registry drops it.
    assert ("n0.fb0", "n0.sys1") in machines[0]._route_table


# ----------------------------------------------------------------------
# One launch signature for every per-launch cache
# ----------------------------------------------------------------------
def _tight(machine, graph):
    """``machine`` with every memory three quarters as large as the
    default mapping's largest footprint, so spill demotions and OOM
    messages are exercised."""
    space = SearchSpace(graph, machine)
    demand = MemoryPlanner(graph, machine).check(space.default_mapping())
    capacity = max(demand.per_memory.values()) * 3 // 4
    caps = {mem.uid: capacity for mem in machine.memories}
    return apply_machine_params(machine, {"memory_capacity": caps})


def _cases():
    yield "pingpong", build_pingpong_graph(), shepard(2)
    for app_name in sorted(APP_INPUTS):
        machine = lassen(2)
        graph = make_app(app_name, **APP_INPUTS[app_name]).graph(machine)
        yield app_name, graph, _tight(machine, graph)


CASES = list(_cases())


def _outcome(call):
    try:
        return ("ok", call())
    except OOMError as exc:
        return ("oom", str(exc))


def _planner_view(planner, mapping):
    spilled = _outcome(lambda: planner.apply_spill(mapping).key())
    demand = planner.check(mapping)
    fits = _outcome(lambda: planner.ensure_fits(mapping))
    return (
        spilled,
        list(demand.per_memory.items()),
        list(demand.overflows.items()),
        fits,
    )


def _costs_view(costs, graph, mapping):
    out = []
    for launch in graph.launches:
        decision = mapping.decision(launch.kind.name)
        try:
            points = costs.costs(launch, decision)
        except ValueError as exc:
            out.append(("invalid", str(exc)))
            continue
        out.append(
            [
                (p.proc_uid, p.duration.hex(), p.slots, p.writes)
                for p in points
            ]
        )
    return out


def _contribution_view(feas, space):
    out = []
    for kind_name in space.kind_names():
        dims = space.dims(kind_name)
        for dist in (False, True):
            for proc in dims.proc_options:
                for slot in range(dims.num_slots):
                    for mem in dims.mem_options[proc]:
                        try:
                            contrib = feas.slot_contribution(
                                kind_name, dist, proc, slot, mem
                            )
                        except ValueError as exc:
                            out.append(str(exc))
                            continue
                        out.append(
                            [(key, list(ivs)) for key, ivs in contrib.items()]
                        )
    return out


@pytest.mark.parametrize("name, graph, machine", CASES, ids=[c[0] for c in CASES])
def test_signature_keyed_results_match_per_launch(name, graph, machine):
    space = SearchSpace(graph, machine)
    signatures = {launch.signature for launch in graph.launches}
    if name == "pingpong":
        assert len(signatures) == 3
    # Relaunches share entries, so sharing is exercised.
    assert len(signatures) < len(graph.launches)
    planner = MemoryPlanner(graph, machine, memoize=True)
    costs = LaunchCostCache(machine)
    feas = StaticMemoryFeasibility(graph, machine)
    with per_launch_signatures():
        reference_contribs = _contribution_view(
            StaticMemoryFeasibility(graph, machine), space
        )
    assert _contribution_view(feas, space) == reference_contribs
    ooms = 0
    rng = RngStream(23).fork(name)
    for mapping in _chain(space, rng, length=16):
        with per_launch_signatures():
            reference = (
                _planner_view(MemoryPlanner(graph, machine, memoize=True), mapping),
                _planner_view(MemoryPlanner(graph, machine), mapping),
                _costs_view(LaunchCostCache(machine), graph, mapping),
            )
        view = _planner_view(planner, mapping)
        assert view == reference[0], mapping.key()
        assert view == reference[1], mapping.key()
        assert _costs_view(costs, graph, mapping) == reference[2], mapping.key()
        ooms += view[0][0] == "oom" or bool(view[2])
    if name != "pingpong":
        assert ooms, "the tight machine never overflowed"
