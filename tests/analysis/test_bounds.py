"""Unit tests for the static cost-bound analyzer (AM4xx)."""

from __future__ import annotations

import pytest

from repro.analysis.bounds import (
    FLOAT_SAFETY,
    BoundBreakdown,
    StaticBoundAnalyzer,
    _FlowMap,
)
from repro.apps import make_app
from repro.machine import lassen, shepard
from repro.machine.kinds import ProcKind
from repro.mapping.mapping import Mapping
from repro.mapping.space import SearchSpace
from repro.runtime.simulator import SimConfig, Simulator
from repro.util.rng import RngStream
from tests.conftest import build_pingpong_graph, per_launch_signatures
from tests.test_incremental import APP_INPUTS, _chain


@pytest.fixture(scope="module")
def stencil():
    machine = shepard(2)
    graph = make_app("stencil", nx=200, ny=200).graph(machine)
    space = SearchSpace(graph, machine)
    return graph, machine, space


class TestFlowMap:
    """The write-only-authority coherence mirror behind the
    communication estimator."""

    def test_virgin_reads_materialise_for_free(self):
        flow = _FlowMap()
        local, pieces = flow.read(0, 100, "m0")
        assert (local, pieces) == (0.0, [])
        # The first reader's memory now owns the range (plan_read's
        # virgin-gap rule): a later reader elsewhere pays a real copy.
        _, pieces = flow.read(0, 100, "m1")
        assert pieces == [("m0", 0, 100, 0.0)]

    def test_read_after_remote_write_moves_bytes(self):
        flow = _FlowMap()
        flow.write(0, 100, "m0", 2.0)
        assert flow.read(0, 100, "m0") == (2.0, [])
        local, pieces = flow.read(0, 100, "m1")
        assert pieces == [("m0", 0, 100, 2.0)]
        # The replica becomes cached only once its copy finishes.
        flow.commit(0, 100, "m1", 5.0)
        assert flow.read(0, 100, "m1") == (5.0, [])

    def test_write_invalidates_replicas(self):
        flow = _FlowMap()
        flow.write(0, 100, "m0", 1.0)
        _, pieces = flow.read(0, 100, "m1")
        flow.commit(0, 100, "m1", 2.0)
        flow.write(0, 100, "m0", 3.0)
        _, pieces = flow.read(0, 100, "m1")
        assert pieces == [("m0", 0, 100, 3.0)]

    def test_partial_overlap_splits_segments(self):
        flow = _FlowMap()
        flow.write(0, 100, "m0", 1.0)
        flow.write(50, 150, "m1", 2.0)
        _, pieces = flow.read(0, 150, "m2")
        assert sorted(pieces) == [
            ("m0", 0, 50, 1.0),
            ("m1", 50, 150, 2.0),
        ]


class TestBreakdown:
    def test_total_is_max_of_components(self):
        bd = BoundBreakdown(
            critical_path=3.0, load=5.0, communication=4.0, schedule=6.0
        )
        assert bd.total == 6.0

    def test_full_mapping_has_all_components(self, stencil):
        graph, machine, space = stencil
        analyzer = StaticBoundAnalyzer(graph, machine)
        bd = analyzer.breakdown(space.default_mapping())
        assert bd.critical_path > 0.0
        assert bd.load > 0.0
        assert bd.schedule > 0.0
        assert bd.total == max(
            bd.critical_path, bd.load, bd.communication, bd.schedule
        )

    def test_partial_mapping_is_critical_path_only(self, stencil):
        graph, machine, space = stencil
        analyzer = StaticBoundAnalyzer(graph, machine)
        full = space.default_mapping()
        kinds = full.kind_names()
        partial = Mapping({kinds[0]: full.decision(kinds[0])})
        bd = analyzer.breakdown(partial)
        assert bd.load == 0.0
        assert bd.communication == 0.0
        assert 0.0 < bd.critical_path <= analyzer.lower_bound(full)

    def test_bound_cache_hits(self, stencil):
        graph, machine, space = stencil
        analyzer = StaticBoundAnalyzer(graph, machine)
        mapping = space.default_mapping()
        first = analyzer.lower_bound(mapping)
        checks = analyzer.checks
        assert analyzer.lower_bound(mapping) == first
        assert analyzer.checks == checks + 1
        assert analyzer.cache_hits >= 1


class TestNodeCounts:
    """The blocked point->node split must mirror the placer exactly —
    an over-count here was the one soundness bug this layer shipped
    with, so pin it against the placer's own formula."""

    @pytest.mark.parametrize("size", [1, 2, 3, 4, 5, 7, 8, 16, 31])
    def test_matches_placer_split(self, stencil, size):
        graph, machine, _ = stencil
        analyzer = StaticBoundAnalyzer(graph, machine)
        nodes = machine.num_nodes
        expected = [0] * nodes
        for point in range(size):
            expected[point * nodes // size] += 1
        assert analyzer._node_counts(size, True) == tuple(expected)
        undistributed = analyzer._node_counts(size, False)
        assert undistributed[0] == size
        assert sum(undistributed) == size


class TestDiagnostics:
    def _analyze(self, stencil, mapping, incumbent=None):
        graph, machine, _ = stencil
        analyzer = StaticBoundAnalyzer(graph, machine)
        return analyzer.diagnose_mapping(mapping, incumbent=incumbent)

    def test_am401_fires_on_dominated_mapping(self, stencil):
        graph, machine, space = stencil
        simulator = Simulator(
            graph, machine, SimConfig(noise_sigma=0.0, spill=True)
        )
        default = space.default_mapping()
        incumbent = simulator.run(default).makespan
        # Serializing every launch onto one node's processors is far
        # slower than the distributed default: the load component of
        # the *lower bound* already exceeds the incumbent.
        bad = default
        for kind in default.kind_names():
            bad = bad.with_distribute(kind, False)
        report = self._analyze(stencil, bad, incumbent=incumbent)
        assert any(d.rule_id == "AM401" for d in report)

    def test_am401_silent_without_incumbent(self, stencil):
        _, _, space = stencil
        report = self._analyze(stencil, space.default_mapping())
        assert not any(d.rule_id == "AM401" for d in report)

    def test_am403_reports_idle_kind(self, stencil):
        # Stencil's default mapping is all-GPU on shepard: the CPU pool
        # is statically idle even though CPU task variants exist.
        _, _, space = stencil
        default = space.default_mapping()
        assert all(
            default.decision(k).proc_kind is ProcKind.GPU
            for k in default.kind_names()
        )
        report = self._analyze(stencil, default)
        idle = [d for d in report if d.rule_id == "AM403"]
        assert idle and any("cpu" in str(d).lower() for d in idle)


class TestFloatSafety:
    def test_deflation_is_tiny_but_strict(self):
        assert 0.0 < FLOAT_SAFETY < 1.0
        assert 1.0 - FLOAT_SAFETY < 1e-8


def _exact(bd: BoundBreakdown) -> tuple:
    """Every field of a breakdown, floats as exact hex strings."""
    return tuple(
        value.hex() if isinstance(value, float) else value
        for value in (
            bd.critical_path,
            bd.load,
            bd.communication,
            bd.comm_memory,
            bd.comm_edge,
            bd.comm_edge_bytes,
            bd.communication_incident,
            bd.comm_channel,
            bd.comm_channel_share,
            bd.schedule,
        )
    )


class TestWarmColdIdentity:
    """One analyzer walked along a search chain (prefix snapshots,
    replay ops shared across launches of one signature) must price every
    mapping exactly like a fresh analyzer that has seen nothing else."""

    @pytest.mark.parametrize("app_name", sorted(APP_INPUTS))
    @pytest.mark.parametrize(
        "machine_factory, nodes", [(shepard, 2), (lassen, 1)]
    )
    def test_chain_breakdowns_match_fresh(
        self, app_name, machine_factory, nodes
    ):
        machine = machine_factory(nodes)
        graph = make_app(app_name, **APP_INPUTS[app_name]).graph(machine)
        space = SearchSpace(graph, machine)
        warm = StaticBoundAnalyzer(graph, machine)
        rng = RngStream(7).fork(app_name, machine.name)
        for mapping in _chain(space, rng, length=20):
            bd = warm.breakdown(mapping)
            fresh = StaticBoundAnalyzer(graph, machine).breakdown(mapping)
            assert _exact(bd) == _exact(fresh), mapping.key()
            # The quick bound is the first tier of the prune check: it
            # may never exceed the full bound, as floats.
            assert warm.quick_bound(mapping) <= bd.total

    def test_shared_ops_match_per_launch_ops(self):
        """Replay ops are shared by launches with one signature; a kind
        relaunched over swapped buffers and at another size must still
        price exactly like an analyzer that keeps ops per launch."""
        graph = build_pingpong_graph()
        machine = shepard(2)
        space = SearchSpace(graph, machine)
        shared = StaticBoundAnalyzer(graph, machine)
        assert len({launch.signature for launch in graph.launches}) == 3
        rng = RngStream(5).fork("pingpong")
        for mapping in _chain(space, rng, length=12):
            with per_launch_signatures():
                per_launch = _exact(
                    StaticBoundAnalyzer(graph, machine).breakdown(mapping)
                )
            assert _exact(shared.breakdown(mapping)) == per_launch, (
                mapping.key()
            )
