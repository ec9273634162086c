"""The repository benchmark: one command, three workloads.

``BENCHMARK.json`` lists ``ccd-16n`` and ``service-mix``; ``ensemble-16n``
runs the same way but is not in that list (see ``perfbench/README.md``).

Usage (from the repository root)::

    python3 perfbench/run.py --workload ccd-16n --seed 0 --seconds 35 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing;
``--trace 1`` wraps each layer's public functions and reports the
per-layer metrics instead.  Human-readable lines (the run's shape, the
checks that failed) come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

from common import (
    END_TO_END_UNITS,
    PER_LAYER_UNITS,
    WORK_DIR,
    metric_doc,
    use_source_tree,
)

WORKLOADS = ("ccd-16n", "ensemble-16n", "service-mix")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    use_source_tree()

    workdir = WORK_DIR / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.workload == "service-mix":
            from service_mix import run_workload

            outcome = run_workload(args.seed, args.seconds, bool(args.trace), workdir)
        else:
            from tunes import run_workload

            outcome = run_workload(
                args.workload, args.seed, args.seconds, bool(args.trace)
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    attempted, failed = outcome["attempted"], outcome["failed"]
    for line in outcome["log"]:
        print(line)
    print(f"failed_frac {failed / attempted if attempted else 1.0:.6f} ratio")
    for name, unit in units.items():
        print(f"{name} {outcome['values'].get(name, 0.0):.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": failed == 0 and attempted > 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metric_doc(outcome["values"], units),
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
