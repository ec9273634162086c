"""Every example script and benchmark module imports cleanly.

Nothing else in the tier-1 suite runs ``examples/`` or ``benchmarks/``
(the scripts are ``__main__``-guarded and the benchmarks need
``--benchmark-only`` and minutes of search), so an import of a name the
library no longer exports would otherwise go unnoticed.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))
BENCHMARKS = sorted((ROOT / "benchmarks").glob("*.py"))


def test_found_the_scripts():
    assert len(EXAMPLES) >= 6
    assert len(BENCHMARKS) >= 10


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.stem)
def test_example_imports(path):
    spec = importlib.util.spec_from_file_location(
        f"examples_{path.stem}", path
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)


@pytest.mark.parametrize("path", BENCHMARKS, ids=lambda path: path.stem)
def test_benchmark_imports(path):
    importlib.import_module(f"benchmarks.{path.stem}")
