"""Regenerate ``golden.json``: the digests of the default seed's tunes.

    python3 perfbench/make_golden.py

A run with ``--seed 0`` compares every tune report against these
digests, so the file pins the tuner's results, not its speed.  Rewrite
it only together with a change that is meant to alter those results.
"""

import json
import sys

from common import DEFAULT_SEED, use_source_tree

use_source_tree()

from repro.core.engine import TuningEngine  # noqa: E402
from tunes import (  # noqa: E402
    ALGORITHMS,
    APPS,
    GOLDEN_PATH,
    build_request,
    golden_key,
    report_digest,
    round_seeds,
)

#: Rounds covered; more than a run of the default length reaches.
ROUNDS = 20


def main() -> int:
    golden = {}
    for workload, algorithm in ALGORITHMS.items():
        for index, seed in enumerate(round_seeds(DEFAULT_SEED, ROUNDS)):
            for app in APPS:
                report = TuningEngine().tune(build_request(app, algorithm, seed))
                golden[golden_key(workload, index, app)] = report_digest(report)
                print(golden_key(workload, index, app), flush=True)
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
