"""Shared pieces of the benchmark: paths, statistics, the layer table.

The layer table names the public functions a traced run wraps (see
:mod:`spans`) and the span name each one records under.  Nothing in the
program is edited; wrappers are installed in the process that does the
work, before the work starts.
"""

from __future__ import annotations

import math
import os
import resource
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Sequence

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

#: Scratch space: each run's own directory (service roots), removed at
#: the end of the run, and the last traced run's spans per workload.
WORK_DIR = BENCH_DIR / "_work"

#: The seed whose tune reports are pinned by ``golden.json``.
DEFAULT_SEED = 0


class BenchFailure(Exception):
    """An operation whose output failed a correctness check."""


def use_source_tree() -> None:
    """Import the program from this checkout's ``src`` directory."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no program sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> Dict[str, str]:
    """Environment for benchmark subprocesses: same interpreter, the
    checkout's sources first on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(BENCH_DIR)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["PYTHONHASHSEED"] = "0"
    return env


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def geomean(values: Sequence[float]) -> float:
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def self_peak_rss_mb() -> float:
    """Peak resident set of this process, MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_peak_rss_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of a live process, MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchFailure(f"no VmHWM for pid {pid}")


# ----------------------------------------------------------------------
# Layer table: (module:qualname, span name)
# ----------------------------------------------------------------------
TUNE_LAYERS: List[tuple] = [
    ("repro.core.engine:TuningEngine.prepare", "core.engine.prepare"),
    ("repro.core.oracle:SimulationOracle.evaluate", "core.oracle.evaluate"),
    ("repro.core.oracle:SimulationOracle.settle_pruned", "core.oracle.settle"),
    ("repro.core.oracle:SimulationOracle.measure_more", "core.oracle.final"),
    ("repro.search.cd:CoordinateDescent.search", "search"),
    ("repro.search.ccd:ConstrainedCoordinateDescent.search", "search"),
    ("repro.search.ensemble:EnsembleTuner.search", "search"),
    ("repro.search.random_search:RandomSearch.search", "search"),
    (
        "repro.analysis.bounds:StaticBoundAnalyzer.lower_bound",
        "analysis.bounds.lower_bound",
    ),
    (
        "repro.analysis.bounds:StaticBoundAnalyzer.quick_bound",
        "analysis.bounds.quick_bound",
    ),
    ("repro.analysis.bounds:bound_guided_mapping", "analysis.bounds.guided_start"),
    ("repro.analysis.canonical:Canonicalizer.canonical", "analysis.canonical"),
    ("repro.runtime.simulator:Simulator.run", "runtime.simulator.run"),
    ("repro.runtime.simulator:Simulator.spill_plan", "runtime.simulator.spill_plan"),
    ("repro.runtime.simulator:Simulator.trace", "runtime.simulator.trace"),
    ("repro.resilience.checkpoint:TuningCheckpoint.save", "resilience.checkpoint"),
]


def _job_id_of(result, args):
    return None if result is None else {"job": result.job_id}


def _tune_meta(result, args):
    """What a service tune's spans cannot show: its report's counters
    and the incremental engine's effectiveness."""
    if result is None:
        return None
    stats = args[0].driver.simulator.incremental_stats
    return {
        "settled": result.bound_settled,
        "suggested": result.suggested,
        "bound_pruned": result.bound_pruned,
        "replay_fraction": stats.replay_fraction,
        "cost_hit_rate": stats.cost_hit_rate,
    }


SERVICE_LAYERS: List[tuple] = [
    ("repro.service.spec:JobSpec.build", "service.spec_build", {}),
    (
        "repro.service.fingerprint:workload_fingerprint",
        "service.fingerprint",
        {},
    ),
    ("repro.service.fingerprint:workload_class_key", "service.class_key", {}),
    # The worker binds the class-key function at import time.
    ("repro.service.worker:workload_class_key", "service.class_key", {}),
    ("repro.service.cache:ResultCache.lookup", "service.cache.lookup", {}),
    ("repro.service.cache:ResultCache.read", "service.cache.read", {}),
    ("repro.service.cache:ResultCache.put", "service.cache.put", {}),
    (
        "repro.service.cache:ResultCache.lookup_equivalent",
        "service.cache.lookup_equivalent",
        {},
    ),
    ("repro.service.store:JobStore.create", "service.store.create", {"meta_of": _job_id_of}),
    ("repro.service.store:JobStore.update", "service.store.update", {}),
    ("repro.service.store:JobStore.claim_next", "service.store.claim", {"meta_of": _job_id_of}),
    (
        "repro.analysis.equivalence:prove_equivalent",
        "analysis.equivalence.prove",
        {"meta_of": lambda result, args: {"ok": bool(result and result.equivalent)}},
    ),
    (
        "repro.analysis.equivalence:pullback_result_doc",
        "analysis.equivalence.pullback",
        {},
    ),
    (
        "repro.service.worker:JobWorker.execute",
        "service.worker.execute",
        {"rid_of": lambda args: "job:" + args[1].job_id},
    ),
    (
        "repro.core.session:AutoMapSession.tune",
        "service.worker.tune",
        {"meta_of": _tune_meta},
    ),
    (
        "repro.service.http:_Handler.do_POST",
        "service.http.handle",
        {"rid_of": lambda args: args[0].headers.get("X-Bench-Request")},
    ),
    (
        "repro.service.http:_Handler.do_GET",
        "service.http.handle",
        {"rid_of": lambda args: args[0].headers.get("X-Bench-Request")},
    ),
]


def install_tune_layers(tracer) -> None:
    for target, name in TUNE_LAYERS:
        tracer.wrap(target, name)


def install_service_layers(tracer) -> None:
    install_tune_layers(tracer)
    for target, name, options in SERVICE_LAYERS:
        tracer.wrap(target, name, **options)


# ----------------------------------------------------------------------
# Per-layer metric names and units (the traced run's output)
# ----------------------------------------------------------------------
COUNT, SECONDS, RATIO = "count", "s", "ratio"

#: The untraced run's metrics (see README.md for each one's definition).
END_TO_END_UNITS: Dict[str, str] = {
    "setup_s": "s",
    "tune_s": "s",
    "sims_per_tune": "count",
    "mapping_makespan_s": "s",
    "miss_s_p50": "s",
    "hit_s_p50": "s",
    "hit_s_p95": "s",
    "equiv_s_p50": "s",
    "req_per_s": "1/s",
    "peak_rss_mb": "MiB",
}

#: The traced run's metrics.
PER_LAYER_UNITS: Dict[str, str] = {
    "core.engine.prepare_s": SECONDS,
    "core.oracle.evaluate.calls": COUNT,
    "core.oracle.evaluate.self_s": SECONDS,
    "core.oracle.settle.sims": COUNT,
    "core.oracle.settle.s": SECONDS,
    "core.oracle.final.s": SECONDS,
    "search.suggestions": COUNT,
    "search.self_s": SECONDS,
    "analysis.bounds.lower_bound.calls": COUNT,
    "analysis.bounds.lower_bound.self_s": SECONDS,
    "analysis.bounds.quick_bound.calls": COUNT,
    "analysis.bounds.quick_bound.self_s": SECONDS,
    "analysis.bounds.guided_start_s": SECONDS,
    "analysis.bounds.prune_yield": RATIO,
    "analysis.canonical.calls": COUNT,
    "analysis.canonical.self_s": SECONDS,
    "runtime.simulator.run.calls": COUNT,
    "runtime.simulator.run.self_s": SECONDS,
    "runtime.incremental.replay_fraction": RATIO,
    "runtime.incremental.cost_hit_rate": RATIO,
    "runtime.simulator.spill_plan.calls": COUNT,
    "runtime.simulator.spill_plan.self_s": SECONDS,
    "runtime.simulator.trace_s": SECONDS,
    "resilience.checkpoint.saves": COUNT,
    "resilience.checkpoint.s": SECONDS,
    "service.spec_build.s": SECONDS,
    "service.fingerprint.s": SECONDS,
    "service.cache.lookup.s": SECONDS,
    "service.cache.read.s": SECONDS,
    "service.cache.put.s": SECONDS,
    "service.store.create.s": SECONDS,
    "service.store.update.s": SECONDS,
    "service.http.overhead_s": SECONDS,
    "service.class_key.s": SECONDS,
    "service.cache.lookup_equivalent.s": SECONDS,
    "analysis.equivalence.prove.calls": COUNT,
    "analysis.equivalence.prove.s": SECONDS,
    "analysis.equivalence.prove.accept_rate": RATIO,
    "analysis.equivalence.pullback.s": SECONDS,
    "service.queue_wait_s": SECONDS,
    "service.worker.tune_s": SECONDS,
    "bench.unattributed_frac": RATIO,
    "bench.trace_overhead_frac": RATIO,
}


def tune_layer_metrics(
    totals: Dict[str, tuple],
    tunes: int,
    extra: Dict[str, float],
) -> Dict[str, float]:
    """Tune-level per-layer metrics, each per tune.

    ``totals`` is :func:`spans.layer_totals` over the tunes' spans;
    ``extra`` carries what spans cannot see (settle simulations, bound
    prunes, the incremental engine's own counters).
    """

    def calls(name):
        return totals.get(name, (0, 0.0, 0.0))[0] / max(1, tunes)

    def total(name):
        return totals.get(name, (0, 0.0, 0.0))[1] / max(1, tunes)

    def own(name):
        return totals.get(name, (0, 0.0, 0.0))[2] / max(1, tunes)

    lower_calls = totals.get("analysis.bounds.lower_bound", (0,))[0]
    return {
        "core.engine.prepare_s": total("core.engine.prepare"),
        "core.oracle.evaluate.calls": calls("core.oracle.evaluate"),
        "core.oracle.evaluate.self_s": own("core.oracle.evaluate"),
        "core.oracle.settle.sims": extra["settle_sims"] / max(1, tunes),
        "core.oracle.settle.s": total("core.oracle.settle"),
        "core.oracle.final.s": total("core.oracle.final"),
        "search.suggestions": extra["suggested"] / max(1, tunes),
        "search.self_s": own("search"),
        "analysis.bounds.lower_bound.calls": calls("analysis.bounds.lower_bound"),
        "analysis.bounds.lower_bound.self_s": own("analysis.bounds.lower_bound"),
        "analysis.bounds.quick_bound.calls": calls("analysis.bounds.quick_bound"),
        "analysis.bounds.quick_bound.self_s": own("analysis.bounds.quick_bound"),
        "analysis.bounds.guided_start_s": total("analysis.bounds.guided_start"),
        "analysis.bounds.prune_yield": (
            extra["bound_pruned"] / lower_calls if lower_calls else 0.0
        ),
        "analysis.canonical.calls": calls("analysis.canonical"),
        "analysis.canonical.self_s": own("analysis.canonical"),
        "runtime.simulator.run.calls": calls("runtime.simulator.run"),
        "runtime.simulator.run.self_s": own("runtime.simulator.run"),
        "runtime.incremental.replay_fraction": extra["replay_fraction"],
        "runtime.incremental.cost_hit_rate": extra["cost_hit_rate"],
        "runtime.simulator.spill_plan.calls": calls("runtime.simulator.spill_plan"),
        "runtime.simulator.spill_plan.self_s": own("runtime.simulator.spill_plan"),
        "runtime.simulator.trace_s": total("runtime.simulator.trace"),
        "resilience.checkpoint.saves": calls("resilience.checkpoint"),
        "resilience.checkpoint.s": total("resilience.checkpoint"),
    }


def metric_doc(values: Dict[str, float], units: Dict[str, str]) -> dict:
    """The ``metrics`` object of the result line, every name present."""
    return {
        name: {"value": float(values.get(name, 0.0)), "unit": unit}
        for name, unit in units.items()
    }
