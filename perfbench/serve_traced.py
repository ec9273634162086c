"""Launch ``repro serve`` with the benchmark's layer wrappers installed.

``python3 perfbench/serve_traced.py SPANS.json serve --root DIR ...``
wraps the public functions of every layer (see ``common.py``), then
runs the program's own command line with the remaining arguments.  When
the server is terminated (SIGTERM), it shuts down as on an interrupt
and the recorded spans are written to ``SPANS.json``.
"""

import signal
import sys

from common import install_service_layers, use_source_tree

use_source_tree()

from spans import Tracer  # noqa: E402


def _interrupt(signum, frame):
    raise KeyboardInterrupt


def main(argv) -> int:
    spans_out, cli_args = argv[0], argv[1:]
    signal.signal(signal.SIGTERM, _interrupt)
    tracer = Tracer()
    install_service_layers(tracer)
    tracer.enabled = True
    from repro.cli import main as cli_main

    try:
        return cli_main(cli_args)
    finally:
        tracer.dump(spans_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
