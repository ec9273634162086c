"""Tests of the benchmark itself (not collected by the program's suite).

    python3 -m pytest perfbench -q

Each workload of ``BENCHMARK.json`` runs once at its smallest size
(``--seconds 0``) untraced and traced, and must print every metric
``BENCHMARK.json`` names, with its unit.  The checks must count a tampered report or a wrong byte count as
a failure.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace

import pytest

from common import BENCH_DIR, ROOT, BenchFailure, use_source_tree

use_source_tree()

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int, cwd=ROOT, seed: int = 0):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace)],
        cwd=str(cwd),
        capture_output=True,
        timeout=600,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr.decode()[-2000:]
    result = json.loads(proc.stdout.decode().strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    for metric in wanted:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"]
        assert isinstance(entry["value"], float)
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in wanted)


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = _run("ccd-16n", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == b""


# ----------------------------------------------------------------------
# Tune checks
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def tuned():
    from repro.core.engine import TuningEngine
    from tunes import build_request

    engine = TuningEngine()
    prepared = engine.prepare(build_request("stencil", "opentuner", 11))
    return engine.run(prepared), prepared


def test_a_correct_tune_passes(tuned):
    from tunes import check_tune, report_digest

    report, prepared = tuned
    check_tune(report, prepared, report_digest(report))


def test_a_tampered_mean_fails_the_golden_digest(tuned):
    from tunes import check_tune, report_digest

    report, prepared = tuned
    digest = report_digest(report)
    tampered = replace(report, best_mean=report.best_mean * (1 + 1e-15))
    with pytest.raises(BenchFailure):
        check_tune(tampered, prepared, digest)


def test_a_tampered_makespan_fails_the_resimulation(tuned):
    from tunes import check_tune

    report, prepared = tuned
    breakdown = dict(report.breakdown, makespan=report.breakdown["makespan"] * 2)
    with pytest.raises(BenchFailure):
        check_tune(replace(report, breakdown=breakdown), prepared, None)


def test_a_failed_check_is_counted():
    import tunes

    run = tunes.TuneRun("ensemble-16n", 11)
    run.golden = {tunes.golden_key("ensemble-16n", 0, "stencil"): "0" * 64}
    assert run.tune(0, "stencil", 11) is None
    assert (run.attempted, run.failed) == (1, 1)


# ----------------------------------------------------------------------
# Service checks
# ----------------------------------------------------------------------
class _Response:
    def __init__(self, body: bytes, length) -> None:
        self.body = body
        self.length = length

    def getheader(self, name):
        return None if self.length is None else str(self.length)

    def read(self):
        return self.body


def test_read_body_counts_a_wrong_byte_count():
    from service_mix import read_body

    assert read_body(_Response(b"abc", 3)) == b"abc"
    for length in (2, 4, None):
        with pytest.raises(BenchFailure):
            read_body(_Response(b"abc", length))


def _doc(mode, simulations=0, fingerprint="f" * 64):
    return {"fingerprint": fingerprint, "cache_mode": mode, "simulations": simulations}


def test_exact_hit_must_serve_the_first_bytes():
    from service_mix import check_response

    first = {}
    report = json.dumps({"fingerprint": "f" * 64, "best_mean": 1.5}).encode()
    check_response("miss", _doc("none", 7), report, first, None)
    check_response("exact", _doc("exact"), report, first, None)
    with pytest.raises(BenchFailure):
        check_response("exact", _doc("exact"), report.replace(b"1.5", b"1.6"), first, None)
    with pytest.raises(BenchFailure):
        check_response("exact", _doc("none", 7), report, first, None)


def test_equivalent_hit_must_be_proof_served_with_the_base_mean():
    from service_mix import check_response

    report = json.dumps({"fingerprint": "e" * 64, "best_mean": 2.0}).encode()
    check_response("equiv", _doc("equiv", fingerprint="e" * 64), report, {}, 2.0)
    with pytest.raises(BenchFailure):
        check_response("equiv", _doc("equiv", fingerprint="e" * 64), report, {}, 2.5)
    with pytest.raises(BenchFailure):
        check_response("equiv", _doc("none", 3, "e" * 64), report, {}, 2.0)
