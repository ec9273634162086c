"""The package runs on the standard library plus numpy.

Routing used to pull in networkx; the guard below fails if any import
path, a tune, or ``repro analyze`` loads it again.
"""

from __future__ import annotations

import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def test_tune_and_analyze_never_import_networkx(tmp_path):
    script = textwrap.dedent(
        f"""
        import sys
        sys.path.insert(0, {str(SRC)!r})
        import repro
        import repro.cli
        common = ["--app", "stencil", "--machine", "shepard", "--nodes", "2"]
        assert repro.cli.main(
            ["tune", *common, "--max-suggestions", "6",
             "--workdir", {str(tmp_path / "run")!r}]
        ) == 0
        assert repro.cli.main(["analyze", *common, "--bounds"]) == 0
        assert "networkx" not in sys.modules, "networkx was imported"
        """
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
