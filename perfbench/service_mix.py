"""The ``service-mix`` workload: a real mapping service under one
closed-loop client.

The server is ``python -m repro serve --workers 1`` on a fresh root (or,
for the traced run, the same command started through
``serve_traced.py``).  One client connection sends each request only
after the previous one is served, timing it from the POST to the last
byte of the job's ``report``.  Before the measured rounds, one 16-node
circuit job is tuned with a small budget: the base that later
resubmissions prove equivalent to (a proof's cost does not depend on
the base's budget).

Each round sends:

* six misses: two each of the 1-node pennant, htr and maestro smoke
  tunes, each with a seed never sent before;
* three equivalent resubmissions of the 16-node base, two with a
  distinct amount of extra capacity on every memory, one with a
  distinct machine name — each costs a cold AM6xx proof and no
  simulation;
* 67 exact repeats of requests already served, 54 of 1-node jobs and
  13 of 16-node ones, in seeded order.

The misses and resubmissions are spread evenly through the round's
repeats rather than sent in a block, so each class samples the whole
run: the host's speed drifts over seconds, and a class sent in one
burst per round would measure that drift at only a few instants.

Rounds keep starting until the run's time is up, and an untraced run
sends at least three; a run always ends on a whole round, so every run
holds the same mix.
"""

from __future__ import annotations

import http.client
import json
import math
import random
import select
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from common import (
    BENCH_DIR,
    ROOT,
    WORK_DIR,
    BenchFailure,
    child_env,
    geomean,
    mean,
    median,
    percentile,
    proc_peak_rss_mb,
)

MISS_APPS: Dict[str, dict] = {
    "pennant": {"zx": 64, "zy": 36},
    "htr": {"x": 8, "y": 8, "z": 9},
    "maestro": {"lf_count": 4, "lf_res": 16},
}
MISS_SUGGESTIONS = 150
BASE_GEN = {"nodes": 200, "wires": 800, "iterations": 4}
BASE_NODES = 16
BASE_SUGGESTIONS = 50
NOISE_SIGMA = 0.04

#: Whole rounds an untraced run always sends: enough exact hits (201)
#: that at least ten lie beyond their 95th percentile.
MIN_ROUNDS = 3
MISSES_PER_APP = 2
SLACK_EQUIVS = 2
SMALL_REPEATS = 54
BIG_REPEATS = 13

#: Seconds one request may take before it counts as failed.
REQUEST_TIMEOUT = 120.0
#: Client poll period while a job is queued or running.
POLL_SECONDS = 0.02
#: Seconds a server may take to answer its first ``/healthz``.
START_TIMEOUT = 60.0

GIB = 1 << 30


# ----------------------------------------------------------------------
# Server process
# ----------------------------------------------------------------------
class Server:
    """One ``repro serve`` process on a fresh root, ready on return."""

    def __init__(self, root: Path, spans_out: Optional[Path] = None) -> None:
        root.mkdir(parents=True, exist_ok=True)
        args = ["serve", "--root", str(root), "--port", "0", "--workers", "1"]
        if spans_out is None:
            command = [sys.executable, "-m", "repro"] + args
        else:
            command = [
                sys.executable,
                str(BENCH_DIR / "serve_traced.py"),
                str(spans_out),
            ] + args
        self.log_path = root.parent / (root.name + ".log")
        self._log = open(self.log_path, "wb")
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            command,
            cwd=str(ROOT),
            env=child_env(),
            stdout=subprocess.PIPE,
            stderr=self._log,
        )
        try:
            self.host, self.port = self._await_listening()
            self._await_health()
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - started

    def _await_listening(self):
        deadline = time.monotonic() + START_TIMEOUT
        line = b""
        while not line.endswith(b"\n"):
            remaining = deadline - time.monotonic()
            if remaining <= 0 or self.proc.poll() is not None:
                raise BenchFailure(f"server did not start (log: {self.log_path})")
            ready, _, _ = select.select([self.proc.stdout], [], [], remaining)
            if ready:
                chunk = self.proc.stdout.read1(4096)
                if not chunk:
                    raise BenchFailure("server closed its output")
                line += chunk
        address = line.decode().split("http://", 1)[1].split()[0]
        host, port = address.rsplit(":", 1)
        return host, int(port)

    def _await_health(self) -> None:
        deadline = time.monotonic() + START_TIMEOUT
        while time.monotonic() < deadline:
            conn = http.client.HTTPConnection(self.host, self.port, timeout=5)
            try:
                conn.request("GET", "/healthz")
                response = conn.getresponse()
                response.read()
                if response.status == 200:
                    return
            except OSError:
                pass
            finally:
                conn.close()
            time.sleep(0.005)
        raise BenchFailure("server never answered /healthz")

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def peak_rss_mb(self) -> float:
        return proc_peak_rss_mb(self.proc.pid)

    def stop(self) -> None:
        """Terminate the server and wait for it; kill it if it does not
        exit.  (SIGTERM, not SIGINT: a process started in the background
        may inherit SIGINT ignored.)"""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self._log.close()


# ----------------------------------------------------------------------
# Client
# ----------------------------------------------------------------------
def read_body(response) -> bytes:
    """The response body; :class:`BenchFailure` unless exactly
    ``Content-Length`` bytes arrived."""
    expected = response.getheader("Content-Length")
    try:
        data = response.read()
    except http.client.IncompleteRead as exc:
        raise BenchFailure(
            f"short body: {len(exc.partial)} of {expected} bytes"
        ) from None
    if expected is None or len(data) != int(expected):
        raise BenchFailure(f"body is {len(data)} bytes, header says {expected}")
    return data


class Client:
    """One persistent HTTP/1.1 connection."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self.conn = http.client.HTTPConnection(host, port, timeout=REQUEST_TIMEOUT)

    def call(self, method: str, path: str, rid: str, doc=None):
        body = None if doc is None else json.dumps(doc).encode("utf-8")
        headers = {"X-Bench-Request": rid}
        if body is not None:
            headers["Content-Type"] = "application/json"
        try:
            self.conn.request(method, path, body=body, headers=headers)
            response = self.conn.getresponse()
            data = read_body(response)
        except (OSError, http.client.HTTPException, BenchFailure):
            # The connection state is unknown: start a fresh one.
            self.conn.close()
            self.conn = http.client.HTTPConnection(
                self.host, self.port, timeout=REQUEST_TIMEOUT
            )
            raise
        if not 200 <= response.status < 300:
            raise BenchFailure(f"{method} {path} -> {response.status}: {data[:200]!r}")
        return data

    def close(self) -> None:
        self.conn.close()


# ----------------------------------------------------------------------
# The request mix
# ----------------------------------------------------------------------
def miss_spec(app: str, seed: int) -> dict:
    return {
        "app": app,
        "gen_params": dict(MISS_APPS[app]),
        "machine": "shepard",
        "nodes": 1,
        "max_suggestions": MISS_SUGGESTIONS,
        "noise_sigma": NOISE_SIGMA,
        "seed": seed,
    }


def base_spec(seed: int) -> dict:
    return {
        "app": "circuit",
        "gen_params": dict(BASE_GEN),
        "machine": "shepard",
        "nodes": BASE_NODES,
        "max_suggestions": BASE_SUGGESTIONS,
        "noise_sigma": NOISE_SIGMA,
        "seed": seed,
    }


class Mix:
    """The seeded request sequence: ``(kind, spec)`` per request.

    ``kind`` is ``base``, ``miss``, ``equiv`` or ``exact``; an exact
    repeat's spec is one already sent, drawn when the round is built.
    """

    def __init__(self, seed: int) -> None:
        from repro.machine import shepard

        self.rng = random.Random(f"perfbench-service-{seed}")
        self.used_seeds = set()
        self.used_slack = set()
        self.renames = 0
        self.base = base_spec(self._fresh(self.used_seeds, 2**31))
        self.capacities = {
            memory.uid: memory.capacity for memory in shepard(BASE_NODES).memories
        }
        self.small: List[dict] = []
        self.big: List[dict] = [self.base]

    def _fresh(self, used: set, bound: int) -> int:
        while True:
            value = self.rng.randrange(1, bound)
            if value not in used:
                used.add(value)
                return value

    def _slack(self) -> dict:
        """The base with a never-used amount of extra capacity on every
        memory."""
        slack = self._fresh(self.used_slack, 4096) * GIB
        caps = {uid: cap + slack for uid, cap in self.capacities.items()}
        return dict(self.base, machine_params={"memory_capacity": caps})

    def _rename(self) -> dict:
        """The base on a machine with a never-used name."""
        self.renames += 1
        return dict(self.base, machine_params={"name": f"shepard-r{self.renames}"})

    def round(self) -> List[tuple]:
        """One round: the misses and resubmissions evenly interleaved,
        each followed by an even share of the repeats.  A repeat draws
        only from specs sent before it."""
        misses = [
            ("miss", miss_spec(app, self._fresh(self.used_seeds, 2**31)))
            for app in list(MISS_APPS) * MISSES_PER_APP
        ]
        equivs = [("equiv", self._slack()) for _ in range(SLACK_EQUIVS)]
        equivs.append(("equiv", self._rename()))
        placed = [((i + 0.5) / len(misses), item) for i, item in enumerate(misses)]
        placed += [((i + 0.5) / len(equivs), item) for i, item in enumerate(equivs)]
        fresh = [item for _, item in sorted(placed, key=lambda pair: pair[0])]
        labels = [True] * SMALL_REPEATS + [False] * BIG_REPEATS
        self.rng.shuffle(labels)
        out = []
        for index, (kind, spec) in enumerate(fresh):
            out.append((kind, spec))
            (self.small if kind == "miss" else self.big).append(spec)
            share = labels[
                index * len(labels) // len(fresh) : (index + 1) * len(labels) // len(fresh)
            ]
            for small in share:
                out.append(("exact", self.rng.choice(self.small if small else self.big)))
        return out


# ----------------------------------------------------------------------
# Sending and checking
# ----------------------------------------------------------------------
class Outcome:
    """One request as the client saw it."""

    __slots__ = ("kind", "rid", "start", "latency", "ok", "job_id", "doc", "result")

    def __init__(self, kind: str, rid: str, start: float) -> None:
        self.kind = kind
        self.rid = rid
        self.start = start
        self.latency = 0.0
        self.ok = False
        self.job_id: Optional[str] = None
        self.doc: Optional[dict] = None
        self.result: Optional[dict] = None


def check_response(
    kind: str, doc: dict, report: bytes, first_bytes: Dict[str, bytes], base_mean
) -> dict:
    """Check one served request; returns the parsed result document.

    A fresh tune must have simulated and report its own fingerprint; an
    exact hit must serve the bytes first served for its fingerprint; an
    equivalent resubmission must be proof-served with no simulation and
    the base's ``best_mean``.
    """
    fingerprint = doc["fingerprint"]
    result = json.loads(report.decode("utf-8"))
    mode = doc["cache_mode"]
    if kind in ("base", "miss"):
        if mode != "none" or doc["simulations"] <= 0:
            raise BenchFailure(f"fresh tune served as {mode!r}")
        if result.get("fingerprint") != fingerprint:
            raise BenchFailure("report carries another fingerprint")
    elif kind == "exact":
        if mode != "exact" or doc["simulations"] != 0:
            raise BenchFailure(f"repeat served as {mode!r}")
        if report != first_bytes.get(fingerprint):
            raise BenchFailure("repeat bytes differ from the first served")
    elif kind == "equiv":
        if mode != "equiv" or doc["simulations"] != 0:
            raise BenchFailure(f"equivalent resubmission served as {mode!r}")
        if result.get("best_mean") != base_mean:
            raise BenchFailure("proof-served best_mean differs from the base")
    if kind != "exact":
        first_bytes.setdefault(fingerprint, report)
    return result


class MixRun:
    """Sends a :class:`Mix` through one client and records outcomes."""

    def __init__(self, client: Client) -> None:
        self.client = client
        self.outcomes: List[Outcome] = []
        self.failures: List[str] = []
        self.first_bytes: Dict[str, bytes] = {}
        self.base_mean = None
        self.rounds = 0
        self.window = 0.0

    def send(self, kind: str, spec: dict) -> Outcome:
        rid = f"r{len(self.outcomes)}"
        outcome = Outcome(kind, rid, time.perf_counter())
        self.outcomes.append(outcome)
        client = self.client
        try:
            doc = json.loads(client.call("POST", "/jobs", rid, spec))
            outcome.job_id = doc["job_id"]
            while doc["state"] not in ("done", "failed"):
                if time.perf_counter() - outcome.start > REQUEST_TIMEOUT:
                    raise BenchFailure("timed out")
                time.sleep(POLL_SECONDS)
                doc = json.loads(client.call("GET", f"/jobs/{outcome.job_id}", rid))
            if doc["state"] == "failed":
                raise BenchFailure(f"job failed: {doc.get('error')}")
            report = client.call("GET", f"/jobs/{outcome.job_id}/report", rid)
            outcome.latency = time.perf_counter() - outcome.start
            outcome.doc = doc
            outcome.result = check_response(
                kind, doc, report, self.first_bytes, self.base_mean
            )
        except (BenchFailure, OSError, http.client.HTTPException, ValueError, KeyError) as exc:
            self.failures.append(f"{rid} {kind}: {type(exc).__name__}: {exc}")
            return outcome
        outcome.ok = True
        if kind == "base":
            self.base_mean = outcome.result["best_mean"]
        return outcome

    def run(self, mix: Mix, seconds: float, min_rounds: int = 1) -> None:
        """The base, then whole rounds until ``seconds`` have passed
        (and at least ``min_rounds``)."""
        self.send("base", mix.base)
        started = time.perf_counter()
        deadline = started + seconds
        while self.rounds < min_rounds or time.perf_counter() < deadline:
            for kind, spec in mix.round():
                self.send(kind, spec)
            self.rounds += 1
        self.window = time.perf_counter() - started

    def measured(self, kind: Optional[str] = None) -> List[Outcome]:
        return [
            o
            for o in self.outcomes
            if o.ok and o.kind != "base" and (kind is None or o.kind == kind)
        ]

    def shape(self) -> List[str]:
        lines = [f"closed loop, 1 connection, {self.rounds} rounds after the base"]
        for kind in ("base", "miss", "exact", "equiv"):
            sent = [o for o in self.outcomes if o.kind == kind]
            ok = sum(o.ok for o in sent)
            lines.append(
                f"{kind}: sent {len(sent)}, succeeded {ok}, failed {len(sent) - ok}"
            )
        return lines


def per_app_median(misses: List[Outcome], value) -> float:
    """The median of ``value`` over each application's misses, averaged
    over the applications.  Their costs differ several-fold, so a median
    pooled over all misses would jump from one application's to
    another's between runs."""
    return mean(
        [
            median([value(o) for o in misses if o.doc["spec"]["app"] == app])
            for app in MISS_APPS
        ]
    )


def end_to_end(run: MixRun, setups: List[float], rss_mb: float) -> Dict[str, float]:
    misses = run.measured("miss")
    hits = [o.latency for o in run.measured("exact")]
    return {
        "setup_s": median(setups),
        "tune_s": per_app_median(misses, lambda o: o.doc["updated_at"] - o.doc["created_at"]),
        "sims_per_tune": mean([o.doc["simulations"] for o in misses]),
        "mapping_makespan_s": geomean([o.result["best_mean"] for o in misses]),
        "miss_s_p50": per_app_median(misses, lambda o: o.latency),
        "hit_s_p50": median(hits),
        "hit_s_p95": percentile(hits, 95),
        "equiv_s_p50": median([o.latency for o in run.measured("equiv")]),
        "req_per_s": len(run.measured()) / run.window if run.window > 0 else 0.0,
        "peak_rss_mb": rss_mb,
    }


def percentile_lines(run: MixRun) -> List[str]:
    lines = []
    for app in MISS_APPS:
        values = [o.latency for o in run.measured("miss") if o.doc["spec"]["app"] == app]
        lines.append(f"miss {app} latency: n={len(values)} p50={median(values):.6f}s")
    for kind in ("miss", "exact", "equiv"):
        values = [o.latency for o in run.measured(kind)]
        lines.append(
            f"{kind} latency: n={len(values)} p50={median(values):.6f}s "
            f"p95={percentile(values, 95):.6f}s "
            f"({len(values) - max(1, math.ceil(0.95 * len(values)))} samples "
            f"beyond p95)"
        )
    return lines


# ----------------------------------------------------------------------
# Per-layer metrics from the server's spans
# ----------------------------------------------------------------------
_CONTAINERS = {"service.http.handle", "service.worker.execute"}


def layer_metrics(spans: List[list], run: MixRun) -> Dict[str, float]:
    from common import tune_layer_metrics
    from spans import END, META, NAME, RID, START, covered, layer_totals

    measured = run.measured()
    miss_jobs = {"job:" + o.job_id for o in run.measured("miss")}
    rids = {o.rid for o in measured} | miss_jobs
    totals = layer_totals(spans, lambda span: span[RID] in miss_jobs)
    tunes = [s for s in spans if s[NAME] == "service.worker.tune" and s[RID] in miss_jobs]
    metas = [s[META] or {} for s in tunes]

    def avg(key):
        return mean([m.get(key, 0.0) for m in metas])

    values = tune_layer_metrics(
        totals,
        len(tunes),
        {
            "settle_sims": sum(m.get("settled", 0) for m in metas),
            "suggested": sum(m.get("suggested", 0) for m in metas),
            "bound_pruned": sum(m.get("bound_pruned", 0) for m in metas),
            "replay_fraction": avg("replay_fraction"),
            "cost_hit_rate": avg("cost_hit_rate"),
        },
    )

    def per_call(name, within):
        durations = [s[END] - s[START] for s in spans if s[NAME] == name and s[RID] in within]
        return mean(durations)

    equivs = run.measured("equiv")
    equiv_rids = {o.rid for o in equivs}
    for metric, name, within in (
        ("service.spec_build.s", "service.spec_build", rids),
        ("service.fingerprint.s", "service.fingerprint", rids),
        ("service.cache.lookup.s", "service.cache.lookup", rids),
        ("service.cache.read.s", "service.cache.read", rids),
        ("service.cache.put.s", "service.cache.put", rids),
        ("service.store.create.s", "service.store.create", rids),
        ("service.store.update.s", "service.store.update", rids),
        # The proof path, timed on the equivalent resubmissions only.
        ("service.class_key.s", "service.class_key", equiv_rids),
        ("service.cache.lookup_equivalent.s", "service.cache.lookup_equivalent", equiv_rids),
        ("analysis.equivalence.prove.s", "analysis.equivalence.prove", equiv_rids),
        ("analysis.equivalence.pullback.s", "analysis.equivalence.pullback", equiv_rids),
    ):
        values[metric] = per_call(name, within)

    by_rid: Dict[str, List[list]] = {}
    for span in spans:
        by_rid.setdefault(span[RID], []).append(span)

    overheads = []
    for o in run.measured("exact"):
        handled = sum(
            s[END] - s[START] for s in by_rid.get(o.rid, ()) if s[NAME] == "service.http.handle"
        )
        overheads.append(o.latency - handled)
    values["service.http.overhead_s"] = median(overheads)

    proofs = [
        s for s in spans if s[NAME] == "analysis.equivalence.prove" and s[RID] in equiv_rids
    ]
    values["analysis.equivalence.prove.calls"] = len(proofs) / max(1, len(equivs))
    values["analysis.equivalence.prove.accept_rate"] = (
        sum(bool((s[META] or {}).get("ok")) for s in proofs) / len(proofs) if proofs else 0.0
    )

    created = {}
    claimed = {}
    for span in spans:
        job = (span[META] or {}).get("job")
        if span[NAME] == "service.store.create" and job:
            created[job] = span[END]
        elif span[NAME] == "service.store.claim" and job:
            claimed[job] = span[END]
    values["service.queue_wait_s"] = mean(
        [claimed[o.job_id] - created[o.job_id] for o in run.measured("miss")
         if o.job_id in claimed and o.job_id in created]
    )
    values["service.worker.tune_s"] = mean([s[END] - s[START] for s in tunes])

    lost = 0.0
    total = 0.0
    for o in measured:
        end = o.start + o.latency
        intervals = [
            (s[START], s[END])
            for rid in (o.rid, "job:" + o.job_id)
            for s in by_rid.get(rid, ())
            if s[NAME] not in _CONTAINERS
        ]
        lost += o.latency - covered(intervals, o.start, end)
        total += o.latency
    values["bench.unattributed_frac"] = lost / total if total else 0.0
    return values


# ----------------------------------------------------------------------
# The workload
# ----------------------------------------------------------------------
SETUP_REPS = 5


def run_workload(seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    """One run; returns ``{"attempted", "failed", "values", "log"}``."""
    if not trace:
        setups = []
        for rep in range(SETUP_REPS - 1):
            with Server(workdir / f"setup{rep}") as server:
                setups.append(server.setup_s)
        with Server(workdir / "service") as server:
            setups.append(server.setup_s)
            run = _drive(server, seed, seconds, min_rounds=MIN_ROUNDS)
            rss = server.peak_rss_mb()
        values = end_to_end(run, setups, rss)
        runs = [run]
    else:
        # The same mix twice: untraced for half the time, then traced
        # for the same number of rounds; their latency ratio is the
        # tracing overhead.
        with Server(workdir / "untraced") as server:
            plain = _drive(server, seed, seconds / 2)
        spans_path = WORK_DIR / "spans-service-mix.json"
        with Server(workdir / "traced", spans_out=spans_path) as server:
            traced = _drive(server, seed, 0.0, min_rounds=plain.rounds)
        from spans import load_spans

        values = layer_metrics(load_spans(spans_path), traced)
        pairs = [
            (a.latency, b.latency)
            for a, b in zip(plain.outcomes, traced.outcomes)
            if a.ok and b.ok and a.kind != "base"
        ]
        base_total = sum(a for a, _ in pairs)
        values["bench.trace_overhead_frac"] = (
            sum(b for _, b in pairs) / base_total - 1.0 if base_total else 0.0
        )
        runs = [plain, traced]
    log = [f"seed {seed}"]
    for run in runs:
        log += run.shape() + percentile_lines(run) + run.failures
    return {
        "attempted": sum(len(r.outcomes) for r in runs),
        "failed": sum(len(r.failures) for r in runs),
        "values": values,
        "log": log,
    }


def _drive(server: Server, seed: int, seconds: float, min_rounds: int = 1) -> MixRun:
    client = Client(server.host, server.port)
    try:
        run = MixRun(client)
        run.run(Mix(seed), seconds, min_rounds)
    finally:
        client.close()
    return run
