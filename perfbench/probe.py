"""Set-up probe: a fresh process that gets a workload ready to run.

``python3 perfbench/probe.py <workload>`` imports the program, builds
the workload's applications and machine and prepares their tune
requests, then prints ``ready``.  The benchmark times a probe from
spawn to that line; a service workload times its server instead.
"""

import sys

from common import use_source_tree

use_source_tree()

from repro.core.engine import TuningEngine  # noqa: E402
from tunes import ALGORITHMS, APPS, build_request  # noqa: E402


def main(workload: str) -> int:
    engine = TuningEngine()
    for app in APPS:
        engine.prepare(build_request(app, ALGORITHMS[workload], 1))
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
