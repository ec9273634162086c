"""Property test for the AM6xx equivalence prover's service contract:
whenever the prover says *equivalent*, fresh noise-free tuning runs of
the two workloads bit-compare identical — and engineered inequivalent
pairs are rejected with the right blocking witness.

200 seeded (workload, slack-perturbation) pairs are drawn from a small
pool of base workloads; every tune is memoized by (base, perturbation)
so the wall-clock cost is bounded by the number of *distinct* tunes,
not the number of pairs.
"""

from __future__ import annotations

import json
import random

from repro.analysis.equivalence import (
    Workload,
    footprint_bounds,
    prove_equivalent,
    touchable_resources,
)
from repro.apps import make_app
from repro.core import AutoMapDriver, OracleConfig
from repro.machine import MACHINE_ZOO
from repro.machine.overrides import apply_machine_params
from repro.runtime import SimConfig
from repro.util.units import GIB

PAIRS = 200

#: Base workload pool: (app kwargs, machine, nodes, algorithm, seed).
BASES = [
    ("forkjoin", dict(width=2, iterations=1, elems=4096), "shepard", 1, "ccd", 3),
    ("forkjoin", dict(width=2, iterations=2, elems=65536), "mirrored", 1, "cd", 5),
    ("halo", dict(parts=2, elems=512, halo=1, iterations=1), "lopsided", 1, "ccd", 7),
    ("reduction", dict(fanout=2, levels=2, elems=4096), "helix", 1, "random", 11),
]


def _build(base_index):
    app_name, kwargs, machine_name, nodes, algorithm, seed = BASES[base_index]
    machine = MACHINE_ZOO[machine_name](nodes)
    app = make_app(app_name, **kwargs)
    config = {
        "algorithm": algorithm,
        "seed": seed,
        "max_suggestions": 6,
        "noise_sigma": 0.0,
        "spill": True,
    }
    return app, machine, config


def _materialize(base_index, params):
    """(graph, machine, space) of a base workload with overrides."""
    app, machine, config = _build(base_index)
    if params:
        machine = apply_machine_params(machine, params)
    graph = app.graph(machine)
    space = app.space(machine)
    return graph, machine, space, config


def _perturbation(base_index, rng):
    """A seeded slack perturbation document for one base workload.
    Capacity slack and renames are engineered to be provable;
    off-route channel tweaks may legitimately fail to prove (weighted
    routing) and are only checked when they do prove."""
    _, machine, _ = _build(base_index)
    graph, machine, space, _ = _materialize(base_index, {})
    kind = rng.choice(("capacity", "rename", "channel", "combo"))
    if kind in ("capacity", "combo"):
        bounds = footprint_bounds(graph, machine, space)
        if any(m.capacity < bounds[m.uid] for m in machine.memories):
            kind = "rename"  # slack lemma inapplicable; fall back
    params = {}
    if kind in ("capacity", "combo"):
        slack = rng.choice((GIB, 2 * GIB, 4 * GIB))
        params["memory_capacity"] = {
            m.uid: m.capacity + slack for m in machine.memories
        }
    if kind in ("rename", "combo"):
        params["name"] = f"{machine.name}-v{rng.randrange(1000)}"
    if kind == "channel":
        touch = touchable_resources(graph, machine, space)
        off = [c for c in machine.channels if c.key not in touch.channel_keys]
        if off:
            chan = rng.choice(off)
            params["channel_bandwidth"] = {
                f"{chan.mem_a}|{chan.mem_b}": chan.bandwidth
                * rng.choice((2, 3, 5))
            }
            return params, False  # accepted => must bit-match
        params["name"] = f"{machine.name}-v{rng.randrange(1000)}"
    return params, True  # engineered to be provable


class _TuneCache:
    """Memoized fresh tunes keyed by (base, perturbation-doc)."""

    def __init__(self):
        self._reports = {}

    def report(self, base_index, params):
        key = (base_index, json.dumps(params, sort_keys=True))
        if key not in self._reports:
            graph, machine, space, config = _materialize(
                base_index, params
            )
            self._reports[key] = AutoMapDriver(
                graph,
                machine,
                algorithm=config["algorithm"],
                oracle_config=OracleConfig(
                    max_suggestions=config["max_suggestions"]
                ),
                sim_config=SimConfig(
                    noise_sigma=0.0,
                    seed=config["seed"],
                    spill=True,
                    incremental=True,
                ),
                space=space,
                seed=config["seed"],
            ).tune()
        return self._reports[key]


def _report_key(report):
    """The bit-comparable identity of a tuning report."""
    return (
        report.best_mapping.key(),
        report.best_mean,
        report.best_stddev,
        report.suggested,
        report.evaluated,
        report.invalid_suggestions,
        report.failed_evaluations,
        tuple(report.search.trace),
        tuple((m.key(), a, b, c) for m, a, b, c in report.finalists),
    )


class TestEquivalenceImpliesBitIdentity:
    def test_200_seeded_pairs(self):
        tunes = _TuneCache()
        proved = 0
        for i in range(PAIRS):
            rng = random.Random(f"equiv-prop:{i}")
            base_index = rng.randrange(len(BASES))
            params, must_prove = _perturbation(base_index, rng)

            graph, machine, space, config = _materialize(base_index, {})
            p_graph, p_machine, p_space, _ = _materialize(
                base_index, params
            )
            proof = prove_equivalent(
                Workload(graph, machine, config, None, space),
                Workload(p_graph, p_machine, config, None, p_space),
            )
            if not proof.equivalent:
                assert not must_prove, (
                    f"pair {i}: engineered slack rejected: {proof.witness}"
                )
                continue
            proved += 1
            base_report = tunes.report(base_index, {})
            pert_report = tunes.report(base_index, params)
            assert _report_key(base_report) == _report_key(pert_report), (
                f"pair {i}: proved equivalent but tunes differ "
                f"(params {params})"
            )
            if params.get("name"):
                assert proof.relabel.get("machine") == params["name"]
            else:
                assert proof.relabel == {}
        # The sampler is engineered so most pairs prove: a silent
        # all-rejected run would make the test vacuous.
        assert proved >= PAIRS // 2


class TestEngineeredInequivalence:
    def test_capacity_below_bound_rejected(self):
        graph, machine, space, config = _materialize(1, {})
        bounds = footprint_bounds(graph, machine, space)
        touch = touchable_resources(graph, machine, space)
        uid = sorted(touch.mem_uids)[0]
        assert bounds[uid] > 1024
        p_graph, p_machine, p_space, _ = _materialize(
            1, {"memory_capacity": {uid: 1024}}
        )
        proof = prove_equivalent(
            Workload(graph, machine, config, None, space),
            Workload(p_graph, p_machine, config, None, p_space),
        )
        assert not proof.equivalent
        assert "below the footprint bound" in proof.witness
        assert uid in proof.witness

    def test_on_route_channel_rejected(self):
        graph, machine, space, config = _materialize(0, {})
        touch = touchable_resources(graph, machine, space)
        chan = next(c for c in machine.channels if c.key in touch.channel_keys)
        p_graph, p_machine, p_space, _ = _materialize(
            0,
            {
                "channel_bandwidth": {
                    f"{chan.mem_a}|{chan.mem_b}": chan.bandwidth * 2
                }
            },
        )
        proof = prove_equivalent(
            Workload(graph, machine, config, None, space),
            Workload(p_graph, p_machine, config, None, p_space),
        )
        assert not proof.equivalent
        assert "reachable route" in proof.witness

    def test_config_mismatch_rejected(self):
        graph, machine, space, config = _materialize(0, {})
        other = dict(config, max_suggestions=7)
        proof = prove_equivalent(
            Workload(graph, machine, config, None, space),
            Workload(graph, machine, other, None, space),
        )
        assert not proof.equivalent
        assert "max_suggestions" in proof.witness
