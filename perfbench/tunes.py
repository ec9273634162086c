"""The ``ccd-16n`` and ``ensemble-16n`` workloads.

Both tune circuit and stencil on ``shepard(16)`` with the smoke
configurations of ``benchmarks/smoke.py`` (300 suggestions, noise sigma
0.04, spill on, winner traced), through :meth:`TuningEngine.prepare` and
:meth:`TuningEngine.run` — together, exactly :meth:`TuningEngine.tune`.
``ccd-16n`` uses the engine defaults (bound pruning, incremental
simulation); ``ensemble-16n`` the OpenTuner-style ensemble of the
paper's Figure 9, which supports no bound pruning.

A run is a sequence of rounds, one tune of each application per round,
each round with its own tune seed drawn from the workload seed.  Rounds
keep starting until ``seconds`` have passed, so every run weighs the two
applications equally.
"""

from __future__ import annotations

import hashlib
import json
import random
import subprocess
import sys
import time
from typing import Dict, List, Optional

from common import (
    BENCH_DIR,
    DEFAULT_SEED,
    ROOT,
    WORK_DIR,
    BenchFailure,
    child_env,
    geomean,
    install_tune_layers,
    mean,
    median,
    self_peak_rss_mb,
    tune_layer_metrics,
)

#: The 16-node smoke configurations (mirrors ``benchmarks/smoke.py``;
#: copied so that the benchmark's inputs change only with the benchmark).
APPS: Dict[str, dict] = {
    "circuit": {"nodes": 200, "wires": 800, "iterations": 4},
    "stencil": {"nx": 200, "ny": 200, "iterations": 6},
}
NODES = 16
MAX_SUGGESTIONS = 300
NOISE_SIGMA = 0.04

ALGORITHMS = {"ccd-16n": "ccd", "ensemble-16n": "opentuner"}

GOLDEN_PATH = BENCH_DIR / "golden.json"


def round_seeds(seed: int, count: int) -> List[int]:
    """Tune seeds of the first ``count`` rounds of workload seed ``seed``."""
    rng = random.Random(f"perfbench-tunes-{seed}")
    return [rng.randrange(1, 2**31) for _ in range(count)]


def build_request(app: str, algorithm: str, seed: int):
    """Application, machine and :class:`TuneRequest` for one tune."""
    from repro.apps import make_app
    from repro.core.engine import TuneRequest
    from repro.core.oracle import OracleConfig
    from repro.machine import shepard
    from repro.runtime.simulator import SimConfig

    machine = shepard(NODES)
    application = make_app(app, **APPS[app])
    return TuneRequest(
        graph=application.graph(machine),
        machine=machine,
        algorithm=algorithm,
        oracle_config=OracleConfig(max_suggestions=MAX_SUGGESTIONS),
        sim_config=SimConfig(noise_sigma=NOISE_SIGMA, seed=seed, spill=True),
        space=application.space(machine),
        seed=seed,
        trace=True,
    )


def report_digest(report) -> str:
    """SHA-256 over the report's outcome: winner key, exact mean,
    finalists and simulation count."""
    doc = [
        repr(report.best_mapping.key()),
        report.best_mean.hex(),
        [
            [repr(mapping.key()), mean.hex(), stddev.hex(), count]
            for mapping, mean, stddev, count in report.finalists
        ],
        report.simulations,
    ]
    return hashlib.sha256(json.dumps(doc).encode("utf-8")).hexdigest()


def load_golden() -> Dict[str, str]:
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def golden_key(workload: str, index: int, app: str) -> str:
    return f"{workload}/{index}/{app}"


def check_tune(report, prepared, expected_digest: Optional[str]) -> None:
    """Raise :class:`BenchFailure` unless the report is correct.

    The winner's makespan from the tune's incremental simulator must
    equal, bit for bit, a fresh non-incremental re-simulation and the
    traced re-execution; with a golden digest, the digest must match.
    """
    from dataclasses import replace

    from repro.runtime.simulator import Simulator

    if report.best_mapping is None:
        raise BenchFailure("tune found no mapping")
    cached = prepared.simulator.cached(report.best_mapping)
    if cached is None:
        raise BenchFailure("winner was never simulated")
    fresh = Simulator(
        prepared.graph,
        prepared.machine,
        replace(prepared.sim_config, incremental=False),
    ).run(report.best_mapping)
    if fresh.makespan.hex() != cached.makespan.hex():
        raise BenchFailure(
            f"winner makespan {cached.makespan!r} != fresh "
            f"re-simulation {fresh.makespan!r}"
        )
    if report.breakdown is None or report.breakdown["makespan"] != fresh.makespan:
        raise BenchFailure("traced winner makespan differs")
    if expected_digest is not None and report_digest(report) != expected_digest:
        raise BenchFailure("report digest differs from golden")


class TuneRun:
    """Accumulates one run's tunes and their checks."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.algorithm = ALGORITHMS[workload]
        self.seed = seed
        self.golden = load_golden() if seed == DEFAULT_SEED else {}
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.walls: List[float] = []
        self.apps: List[str] = []
        self.sims: List[int] = []
        self.best_means: List[float] = []

    def tune(self, index: int, app: str, tune_seed: int, tracer=None):
        """One checked tune; returns ``(report, prepared, wall)``."""
        from repro.core.engine import TuningEngine

        request = build_request(app, self.algorithm, tune_seed)
        engine = TuningEngine()
        self.attempted += 1
        root = None
        try:
            started = time.perf_counter()
            if tracer is not None:
                root = tracer.open("bench.tune", rid=f"tune:{index}:{app}")
            prepared = engine.prepare(request)
            report = engine.run(prepared)
            if root is not None:
                tracer.close(root)
                root = None
            wall = time.perf_counter() - started
            check_tune(
                report,
                prepared,
                self.golden.get(golden_key(self.workload, index, app)),
            )
        except Exception as exc:  # noqa: BLE001 - counted, run goes on
            self.failed += 1
            self.failures.append(
                f"{app} round {index}: {type(exc).__name__}: {exc}"
            )
            return None
        finally:
            if root is not None:
                tracer.close(root)
        self.walls.append(wall)
        self.apps.append(app)
        self.sims.append(report.simulations)
        self.best_means.append(report.best_mean)
        return report, prepared, wall


    def walls_of(self, app: str) -> List[float]:
        return [w for w, a in zip(self.walls, self.apps) if a == app]


def run_rounds(run: TuneRun, seconds: float, min_rounds: int = 1) -> int:
    """Untraced rounds until ``seconds`` have passed; returns the count."""
    deadline = time.perf_counter() + seconds
    index = 0
    seeds = round_seeds(run.seed, 10_000)
    while index < min_rounds or time.perf_counter() < deadline:
        for app in APPS:
            run.tune(index, app, seeds[index])
        index += 1
    return index


#: Fresh-process set-ups timed per tune run (their median is setup_s).
SETUP_REPS = 5


def probe_setup(workload: str) -> float:
    """Seconds from spawning a fresh process to its ``ready`` line."""
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "probe.py"), workload],
        cwd=str(ROOT),
        env=child_env(),
        stdout=subprocess.PIPE,
    )
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - started
    finally:
        proc.stdout.close()
        code = proc.wait(timeout=60)
    if line.strip() != b"ready" or code != 0:
        raise SystemExit(f"benchmark: set-up probe failed (exit {code})")
    return elapsed


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run; returns ``{"attempted", "failed", "values", "log"}``."""
    from repro.core.engine import TuningEngine

    run = TuneRun(workload, seed)
    log = [f"seed {seed}", "closed loop: one tune at a time"]
    # Finish this process's own lazy set-up (first-use imports) before
    # timing, as a set-up probe does.
    for app in APPS:
        TuningEngine().prepare(build_request(app, run.algorithm, 1))
    if not trace:
        setups = [probe_setup(workload) for _ in range(SETUP_REPS)]
        started = time.perf_counter()
        rounds = run_rounds(run, seconds)
        window = time.perf_counter() - started
        # Per-application medians, averaged: robust to a stalled tune and
        # weighing the two applications equally.
        tune_s = mean([median(run.walls_of(app)) for app in APPS])
        values = {
            "setup_s": median(setups),
            "tune_s": tune_s,
            "sims_per_tune": mean(run.sims),
            "mapping_makespan_s": geomean(run.best_means),
            # The engine keeps no result cache: a request of any class
            # is one more fresh tune, so each class reports tune_s.
            "miss_s_p50": tune_s,
            "hit_s_p50": tune_s,
            "hit_s_p95": tune_s,
            "equiv_s_p50": tune_s,
            "req_per_s": len(run.walls) / window,
            "peak_rss_mb": self_peak_rss_mb(),
        }
        log.append(
            f"{rounds} rounds; tunes sent {run.attempted}, succeeded "
            f"{len(run.walls)}, failed {run.failed}"
        )
        for app in APPS:
            walls = run.walls_of(app)
            log.append(f"{app}: n={len(walls)} median wall {median(walls):.4f}s")
    else:
        from spans import END, NAME, START, Tracer, layer_totals, self_times

        tracer = Tracer()
        install_tune_layers(tracer)
        seeds = round_seeds(seed, 10_000)
        deadline = time.perf_counter() + seconds
        plain, traced, extra = [], [], []
        rounds = 0
        while rounds == 0 or time.perf_counter() < deadline:
            for turn, app in enumerate(APPS):
                # The same tune untraced and traced, in alternating
                # order: the ratio of their walls is the tracing overhead.
                traced_first = (rounds + turn) % 2 == 1
                pair = {}
                for on in (traced_first, not traced_first):
                    tracer.enabled = on
                    pair[on] = run.tune(
                        rounds, app, seeds[rounds], tracer=tracer if on else None
                    )
                tracer.enabled = False
                if pair[False] is None or pair[True] is None:
                    continue
                plain.append(pair[False][2])
                traced.append(pair[True][2])
                report, prepared = pair[True][0], pair[True][1]
                stats = prepared.simulator.incremental_stats
                extra.append(
                    (
                        report.bound_settled,
                        report.suggested,
                        report.bound_pruned,
                        stats.replay_fraction,
                        stats.cost_hit_rate,
                    )
                )
            rounds += 1
        spans = tracer.spans
        tracer.dump(WORK_DIR / f"spans-{workload}.json")
        values = tune_layer_metrics(
            layer_totals(spans, lambda span: span[NAME] != "bench.tune"),
            len(traced),
            {
                "settle_sims": sum(e[0] for e in extra),
                "suggested": sum(e[1] for e in extra),
                "bound_pruned": sum(e[2] for e in extra),
                "replay_fraction": mean([e[3] for e in extra]),
                "cost_hit_rate": mean([e[4] for e in extra]),
            },
        )
        own = self_times(spans)
        roots = [i for i, span in enumerate(spans) if span[NAME] == "bench.tune"]
        root_total = sum(spans[i][END] - spans[i][START] for i in roots)
        values["bench.unattributed_frac"] = (
            sum(own[i] for i in roots) / root_total if root_total else 0.0
        )
        values["bench.trace_overhead_frac"] = (
            sum(traced) / sum(plain) - 1.0 if plain else 0.0
        )
        log.append(
            f"{rounds} rounds; tunes sent {run.attempted} (half traced), "
            f"succeeded {len(run.walls)}, failed {run.failed}; "
            f"{len(spans)} spans"
        )
    return {
        "attempted": run.attempted,
        "failed": run.failed,
        "values": values,
        "log": log + run.failures,
    }
