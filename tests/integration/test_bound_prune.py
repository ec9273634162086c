"""Bound-based pruning is result-preserving — the acceptance criterion.

A bound-pruned tune must return the byte-identical best mapping, best
statistics, search trajectory, and finalists as the same tune with
``bound_prune=False``, while performing strictly fewer simulations on
at least two of the four stencil/circuit x shepard/lassen configs (in
practice: on all of them).  Pruning only skips candidates whose static
lower bound proves they cannot beat the incumbent, so the searches
take the same trajectory; the pruned run simply does not pay for the
doomed simulations.
"""

from __future__ import annotations

import math

import pytest

from repro.analysis.bounds import StaticBoundAnalyzer
from repro.apps import make_app
from repro.core import OracleConfig, TuneRequest, TuningEngine
from repro.core.oracle import SimulationOracle
from repro.machine import lassen, shepard
from repro.mapping import SearchSpace
from repro.runtime import SimConfig, Simulator
from repro.util.rng import RngStream

SEED = 11

#: (application, machine factory, algorithm) — cd and ccd both appear
#: on both machine models.
CONFIGS = [
    ("stencil", shepard, "cd"),
    ("stencil", lassen, "ccd"),
    ("circuit", shepard, "ccd"),
    ("circuit", lassen, "cd"),
]


#: CCD with pruning on the CI bound-tightness configs:
#: (simulations, bound_pruned, bound_settled, best_mean.hex()).  Any
#: change to how the prune check is computed must leave every decision,
#: and so every one of these values, exactly as it is.
PINNED_DECISIONS = {
    ("stencil", "shepard"): (7, 178, 2, "0x1.b0b5b6e559d06p-11"),
    ("stencil", "lassen"): (7, 189, 4, "0x1.15232389ef63dp-10"),
    ("circuit", "shepard"): (10, 223, 2, "0x1.6924f4aa4651cp-10"),
    ("circuit", "lassen"): (10, 226, 4, "0x1.03309ce2a0873p-9"),
}


def _tune(app_name, machine_factory, algorithm, bound_prune):
    machine = machine_factory(2)
    app = make_app(app_name)
    request = TuneRequest(
        graph=app.graph(machine),
        machine=machine,
        algorithm=algorithm,
        oracle_config=OracleConfig(max_suggestions=600),
        sim_config=SimConfig(noise_sigma=0.04, seed=SEED, spill=True),
        space=app.space(machine),
        seed=SEED,
        bound_prune=bound_prune,
    )
    return TuningEngine().tune(request)


def _improvements(report):
    """The distinct best-so-far values, in order of discovery."""
    bests = []
    for point in report.search.trace:
        if not bests or point.best_performance != bests[-1]:
            bests.append(point.best_performance)
    return bests


@pytest.fixture(scope="module")
def report_pairs():
    return {
        (app, factory.__name__, algo): (
            _tune(app, factory, algo, True),
            _tune(app, factory, algo, False),
        )
        for app, factory, algo in CONFIGS
    }


class TestBoundPruneAcceptance:
    def test_results_identical(self, report_pairs):
        for config, (pruned, full) in report_pairs.items():
            assert pruned.best_mapping.key() == full.best_mapping.key(), (
                config
            )
            assert pruned.best_mean == full.best_mean, config
            assert pruned.best_stddev == full.best_stddev, config
            assert pruned.suggested == full.suggested, config
            assert pruned.invalid_suggestions == full.invalid_suggestions
            # The trace logs one point per *simulated* evaluation, so
            # the pruned run's is shorter — but the sequence of
            # incumbent improvements must match exactly.
            assert _improvements(pruned) == _improvements(full), config
            assert [
                (m.key(), mean, stddev, count)
                for m, mean, stddev, count in pruned.finalists
            ] == [
                (m.key(), mean, stddev, count)
                for m, mean, stddev, count in full.finalists
            ], config

    def test_strictly_fewer_simulations(self, report_pairs):
        fewer = sum(
            pruned.simulations < full.simulations
            for pruned, full in report_pairs.values()
        )
        for config, (pruned, full) in report_pairs.items():
            assert pruned.simulations <= full.simulations, config
        assert fewer >= 2, "pruning must save simulations somewhere"

    def test_prunes_reported(self, report_pairs):
        total = sum(p.bound_pruned for p, _ in report_pairs.values())
        assert total > 0
        for config, (pruned, full) in report_pairs.items():
            assert full.bound_pruned == 0, config
            assert pruned.bound_pruned >= 0, config
            # Accounting: every suggestion is evaluated, folded,
            # rejected, failed, or bound-pruned — never dropped.
            assert pruned.evaluated <= full.evaluated, config

    def test_disabled_flag_reaches_report(self, report_pairs):
        for pruned, full in report_pairs.values():
            assert full.bound_settled == 0
            assert "bound pruning" not in full.describe()
            if pruned.bound_pruned:
                assert "bound pruning" in pruned.describe()


@pytest.mark.parametrize("app_name, machine_name", sorted(PINNED_DECISIONS))
def test_pinned_prune_decisions(app_name, machine_name):
    factory = {"shepard": shepard, "lassen": lassen}[machine_name]
    report = _tune(app_name, factory, "ccd", True)
    assert (
        report.simulations,
        report.bound_pruned,
        report.bound_settled,
        report.best_mean.hex(),
    ) == PINNED_DECISIONS[(app_name, machine_name)]


def _random_pruning_oracle():
    """A bound-pruning oracle after a seeded random search on a small
    stencil: most candidates end up in the prune ledger."""
    machine = shepard(2)
    graph = make_app("stencil", nx=64, ny=64).graph(machine)
    space = SearchSpace(graph, machine)
    simulator = Simulator(
        graph, machine, SimConfig(noise_sigma=0.04, seed=SEED, spill=True)
    )
    oracle = SimulationOracle(
        simulator, OracleConfig(), bounds=StaticBoundAnalyzer(graph, machine)
    )
    rng = RngStream(SEED).fork("settle")
    oracle.evaluate(space.default_mapping())
    for _ in range(80):
        oracle.evaluate(space.random_mapping(rng))
    return oracle


def _eager_settle(oracle, top_n):
    """Reference settle: full bounds for the whole ledger, sorted
    best-bound-first, stopping at the first bound above the (live)
    top-``n`` threshold.  Returns the settled keys in settle order."""

    def threshold():
        ranked = oracle.profiles.best(top_n)
        return ranked[-1].mean if len(ranked) >= top_n else math.inf

    def full(mapping):
        value = oracle._bound_perf(mapping)
        return -math.inf if value is None else value

    settled = []
    for key, mapping in sorted(
        oracle._bound_ledger.items(), key=lambda item: full(item[1])
    ):
        if oracle.profiles.lookup(mapping) is not None:
            continue
        if full(mapping) > threshold():
            break
        result = oracle.simulator.run(mapping)
        oracle.profiles.record(
            mapping,
            oracle._measure(mapping, result.report, result.makespan, 0),
            makespan=result.makespan,
        )
        settled.append(key)
    return settled


def test_lazy_settle_skips_full_bounds_and_settles_the_same():
    """``settle_pruned`` never walks the full bound of a candidate whose
    quick bound already exceeds the threshold on entry, and settles
    exactly the candidates an eager best-bound-first settle does."""
    top_n = 5
    lazy = _random_pruning_oracle()
    eager = _random_pruning_oracle()
    ranked = lazy.profiles.best(top_n)
    entry_threshold = ranked[-1].mean
    dropped = {
        lazy.simulator.spill_plan(mapping).key()
        for mapping in lazy._bound_ledger.values()
        if lazy._bound_perf(mapping, quick=True) > entry_threshold
        and mapping.key() not in lazy._bound_cache
    }
    assert dropped, "the ledger must hold candidates the quick tier drops"

    walked = []
    full_bound = lazy.bounds.lower_bound

    def spy(mapping):
        walked.append(mapping.key())
        return full_bound(mapping)

    lazy.bounds.lower_bound = spy
    count = lazy.settle_pruned(top_n)
    assert not dropped & set(walked)

    expected = _eager_settle(eager, top_n)
    assert count == len(expected) > 0
    assert lazy.settled_keys == frozenset(expected)
    assert [
        (r.mapping.key(), r.mean.hex()) for r in lazy.profiles.best(top_n)
    ] == [
        (r.mapping.key(), r.mean.hex()) for r in eager.profiles.best(top_n)
    ]
