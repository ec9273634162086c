"""The AM6xx workload-equivalence analysis: footprint bounds,
touchable-resource diagnostics, and the observational-equivalence
prover's accept/reject vectors."""

from __future__ import annotations

import random

from repro.analysis.equivalence import (
    Workload,
    diagnose_equivalence,
    footprint_bounds,
    prove_equivalent,
    pullback_result_doc,
    touchable_resources,
)
from repro.analysis.memfeas import StaticMemoryFeasibility
from repro.apps import make_app
from repro.machine import MACHINE_ZOO
from repro.machine.kinds import MemKind, ProcKind
from repro.machine.overrides import apply_machine_params
from repro.mapping.decision import MappingDecision
from repro.mapping.space import SearchSpace
from repro.util.units import GIB, KIB


def _workload(machine_name="shepard", nodes=1, **overrides):
    machine = MACHINE_ZOO[machine_name](nodes)
    if overrides:
        machine = apply_machine_params(machine, overrides)
    app = make_app("forkjoin", width=2, iterations=2, elems=65536)
    graph = app.graph(machine)
    space = app.space(machine)
    return graph, machine, space


CONFIG = {"algorithm": "ccd", "seed": 0, "noise_sigma": 0.0}


class TestFootprintBounds:
    def test_bounds_dominate_sampled_mappings(self):
        """U(m) is an upper bound on every valid mapping's exact static
        footprint (the planner-identical memfeas check)."""
        graph, machine, space = _workload()
        bounds = footprint_bounds(graph, machine, space)
        feas = StaticMemoryFeasibility(graph, machine)
        rng = random.Random(7)
        mappings = [space.default_mapping()] + [
            space.random_mapping(rng, valid=True) for _ in range(20)
        ]
        for mapping in mappings:
            for uid, total in feas.check(mapping).per_memory.items():
                assert total <= bounds[uid], (mapping.key(), uid)

    def test_every_memory_has_a_bound(self):
        graph, machine, space = _workload()
        bounds = footprint_bounds(graph, machine, space)
        assert set(bounds) == {m.uid for m in machine.memories}
        assert all(b >= 0 for b in bounds.values())

    def test_fixed_decision_narrows_bounds(self):
        """Pinning every kind to one decision can only shrink U."""
        graph, machine, space = _workload()
        free = footprint_bounds(graph, machine, space)
        default = space.default_mapping()
        fixed_space = SearchSpace(
            graph,
            machine,
            fixed_decisions={
                name: default.decision(name) for name in default
            },
        )
        fixed = footprint_bounds(graph, machine, fixed_space)
        assert all(fixed[uid] <= free[uid] for uid in free)


class TestTouchableResources:
    def test_free_space_touches_all_kinds(self):
        graph, machine, space = _workload()
        touch = touchable_resources(graph, machine, space)
        assert ProcKind.CPU in touch.proc_kinds
        assert ProcKind.GPU in touch.proc_kinds
        assert touch.mem_uids  # something is reachable
        assert touch.proc_uids <= {p.uid for p in machine.processors}

    def test_all_cpu_fixed_space_frees_gpu_resources(self):
        """Pinning every kind to CPU/system makes the GPUs, the
        framebuffers, and their channels untouchable (AM602)."""
        graph, machine, _ = _workload()
        cpu_space = SearchSpace(
            graph,
            machine,
            fixed_decisions={
                kind.name: MappingDecision(
                    distribute=False,
                    proc_kind=ProcKind.CPU,
                    mem_kinds=(MemKind.SYSTEM,) * kind.num_slots,
                )
                for kind in graph.task_kinds
            },
        )
        touch = touchable_resources(graph, machine, cpu_space)
        assert touch.proc_kinds == frozenset({ProcKind.CPU})
        fb_uids = {
            m.uid for m in machine.memories if m.kind is MemKind.FRAMEBUFFER
        }
        assert not (touch.mem_uids & fb_uids)
        diags = diagnose_equivalence(graph, machine, cpu_space)
        am602 = [d for d in diags if d.rule_id == "AM602"]
        assert any("gpu" in d.message for d in am602)
        assert any(d.span.memory in fb_uids for d in am602)


class TestDiagnostics:
    def test_am601_on_slack_capacity(self):
        graph, machine, space = _workload()
        diags = diagnose_equivalence(graph, machine, space)
        am601 = [d for d in diags if d.rule_id == "AM601"]
        # The zoo machines are sized in GiB; the toy forkjoin footprint
        # is KiB-scale, so every touchable memory has provable slack.
        touch = touchable_resources(graph, machine, space)
        assert {d.span.memory for d in am601} == set(touch.mem_uids)

    def test_am603_reports_automorphisms(self):
        # mirrored has two identical nodes -> a node-swap automorphism.
        graph, machine, space = _workload("mirrored")
        diags = diagnose_equivalence(graph, machine, space)
        assert any(d.rule_id == "AM603" for d in diags)


class TestProver:
    def test_self_equivalence(self):
        graph, machine, space = _workload()
        w = Workload(graph, machine, dict(CONFIG), None, space)
        proof = prove_equivalent(w, w)
        assert proof.equivalent
        assert proof.relabel == {}
        assert proof.log
        assert "verdict: equivalent" in proof.render()

    def test_uniform_capacity_slack_accepted(self):
        g1, m1, s1 = _workload()
        g2, m2, s2 = _workload(
            memory_capacity={
                m.uid: m.capacity + GIB for m in m1.memories
            }
        )
        proof = prove_equivalent(
            Workload(g1, m1, dict(CONFIG), None, s1),
            Workload(g2, m2, dict(CONFIG), None, s2),
        )
        assert proof.equivalent
        assert proof.relabel == {}

    def test_machine_rename_accepted_with_witness(self):
        g1, m1, s1 = _workload()
        g2, m2, s2 = _workload(name="renamed-box")
        proof = prove_equivalent(
            Workload(g1, m1, dict(CONFIG), None, s1),
            Workload(g2, m2, dict(CONFIG), None, s2),
        )
        assert proof.equivalent
        assert proof.relabel == {"machine": "renamed-box"}

    def test_capacity_below_bound_rejected(self):
        g1, m1, s1 = _workload()
        g2, m2, s2 = _workload(memory_capacity={"n0.sys0": 64 * KIB})
        proof = prove_equivalent(
            Workload(g1, m1, dict(CONFIG), None, s1),
            Workload(g2, m2, dict(CONFIG), None, s2),
        )
        assert not proof.equivalent
        assert "below the footprint bound" in proof.witness
        assert "n0.sys0" in proof.witness

    def test_touchable_channel_change_rejected(self):
        g1, m1, s1 = _workload()
        touch = touchable_resources(g1, m1, s1)
        chan = next(c for c in m1.channels if c.key in touch.channel_keys)
        g2, m2, s2 = _workload(
            channel_bandwidth={
                f"{chan.mem_a}|{chan.mem_b}": chan.bandwidth * 2
            }
        )
        proof = prove_equivalent(
            Workload(g1, m1, dict(CONFIG), None, s1),
            Workload(g2, m2, dict(CONFIG), None, s2),
        )
        assert not proof.equivalent
        assert "reachable route" in proof.witness

    def test_config_difference_rejected(self):
        g1, m1, s1 = _workload()
        other = dict(CONFIG, seed=1)
        proof = prove_equivalent(
            Workload(g1, m1, dict(CONFIG), None, s1),
            Workload(g1, m1, other, None, s1),
        )
        assert not proof.equivalent
        assert "seed" in proof.witness

    def test_different_graph_rejected(self):
        g1, m1, s1 = _workload()
        machine = MACHINE_ZOO["shepard"](1)
        app = make_app("forkjoin", width=4, iterations=2, elems=64)
        g2 = app.graph(machine)
        s2 = app.space(machine)
        proof = prove_equivalent(
            Workload(g1, m1, dict(CONFIG), None, s1),
            Workload(g2, machine, dict(CONFIG), None, s2),
        )
        assert not proof.equivalent


class TestPullback:
    def test_pullback_rewrites_relabeled_fields(self):
        doc = {
            "fingerprint": "old-fp",
            "application": "app",
            "machine": "shepard-1n",
            "best_mean": 1.25,
        }
        g1, m1, s1 = _workload()
        g2, m2, s2 = _workload(name="renamed-box")
        proof = prove_equivalent(
            Workload(g1, m1, dict(CONFIG), None, s1),
            Workload(g2, m2, dict(CONFIG), None, s2),
        )
        out = pullback_result_doc(doc, proof, "new-fp")
        assert out["fingerprint"] == "new-fp"
        assert out["machine"] == "renamed-box"
        assert out["best_mean"] == 1.25
        assert doc["fingerprint"] == "old-fp"  # input untouched
