"""The content-addressed workload fingerprint.

A cache key for tuning results must identify the *workload*, not the
submission: two requests that provably run the same tune have to hash
identically, and any request that could produce a different result
document must not.  The fingerprint therefore hashes the canonical JSON
of four components:

1. the **materialised task graph** (kinds, slots, launches, collections,
   dependences) — so a generator knob spelled explicitly at its default
   value hashes like the omitted knob, and textual re-orderings of the
   submitted spec are invisible;
2. the **materialised machine** (processors, memories, access links,
   channels) plus the space's fixed decisions;
3. the **semantic search configuration** (algorithm, seed, budget,
   noise, spill, pruning passes) — execution knobs with a bit-identity
   contract (``workers``, ``incremental``, ``checkpoint_every``) are
   deliberately excluded: serial/parallel (PR 1), checkpointed (PR 3)
   and incremental/full (PR 6) runs return byte-identical results, a
   contract the ``parallel`` fuzz invariant re-checks per case;
4. the **canonicalized start mapping**:
   :class:`repro.analysis.canonical.Canonicalizer` folds provably
   unobservable choices (dead distribute bits, zero-byte memory
   choices) and machine-symmetry relabelings onto orbit minima, so
   canonically-equivalent starts are one cache entry.  The worker runs
   the job from the same canonical start, keeping the cached result
   valid for every member of the equivalence class.

JSON canonicalisation is ``sort_keys=True`` with compact separators —
key order in the client's submission can never split the cache.
"""

from __future__ import annotations

import hashlib
import json
from typing import TYPE_CHECKING, Optional

from repro.util.serialization import to_jsonable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.machine.model import Machine
    from repro.mapping.space import SearchSpace
    from repro.service.spec import JobSpec
    from repro.taskgraph.graph import TaskGraph

__all__ = [
    "FINGERPRINT_FORMAT",
    "CLASS_KEY_FORMAT",
    "canonical_graph_doc",
    "canonical_machine_doc",
    "canonical_start_doc",
    "workload_fingerprint",
    "workload_class_key",
    "spec_config",
    "spec_fingerprint",
]

#: Version marker hashed into every fingerprint; bump when the result
#: document or the engine's deterministic contract changes shape, which
#: invalidates every previously cached entry at once.
FINGERPRINT_FORMAT = "automap-workload-v1"

#: Version marker of the *erased* (equivalence-class) key; bump together
#: with any change to the AM6xx prover's lemmas.
CLASS_KEY_FORMAT = "automap-workload-class-v1"


def canonical_graph_doc(graph: "TaskGraph") -> dict:
    """The graph's structural identity: everything the simulator and
    the search can observe, nothing else."""
    return {
        "name": graph.name,
        "launches": [to_jsonable(launch) for launch in graph.launches],
        "dependences": [to_jsonable(dep) for dep in graph.dependences],
    }


def canonical_machine_doc(machine: "Machine") -> dict:
    """The machine's structural identity (a plain dataclass tree)."""
    return to_jsonable(machine)


def canonical_start_doc(
    graph: "TaskGraph",
    machine: "Machine",
    start_doc: Optional[dict],
) -> Optional[dict]:
    """The canonical representative of a submitted start mapping, as a
    ``kinds`` document — or ``None`` when no start was given.

    Uses the :mod:`repro.analysis` canonicalizer, so any two starts in
    the same provable runtime-equivalence class (folded dead distribute
    bits, folded zero-byte memory choices, machine-symmetry relabelings)
    collapse onto one document."""
    if start_doc is None:
        return None
    from repro.analysis.canonical import Canonicalizer
    from repro.mapping.io import mapping_from_doc, mapping_to_doc

    canon = Canonicalizer(graph, machine)
    return mapping_to_doc(canon.canonical(mapping_from_doc(start_doc)))


def _canonical_json(doc) -> str:
    return json.dumps(
        to_jsonable(doc), sort_keys=True, separators=(",", ":")
    )


def workload_fingerprint(
    graph: "TaskGraph",
    machine: "Machine",
    config: dict,
    start_doc: Optional[dict] = None,
    space: Optional["SearchSpace"] = None,
) -> str:
    """The hex SHA-256 fingerprint of one workload.

    ``config`` holds the semantic search knobs (already normalized —
    see :data:`repro.service.spec.SEMANTIC_FIELDS`); ``start_doc`` the
    raw submitted start mapping (canonicalized here); ``space`` the
    app-provided search space, whose ``fixed_decisions`` restriction is
    part of the workload identity (the graph and machine alone do not
    record it).
    """
    doc = {
        "format": FINGERPRINT_FORMAT,
        "graph": canonical_graph_doc(graph),
        "machine": canonical_machine_doc(machine),
        "config": dict(config),
        "start": canonical_start_doc(graph, machine, start_doc),
        "fixed_decisions": (
            None if space is None else to_jsonable(space.fixed_decisions)
        ),
    }
    return hashlib.sha256(_canonical_json(doc).encode()).hexdigest()


def workload_class_key(
    graph: "TaskGraph",
    machine: "Machine",
    config: dict,
    start_doc: Optional[dict] = None,
    space: Optional["SearchSpace"] = None,
) -> str:
    """The *erased* fingerprint grouping near-equivalent workloads.

    Hashes the same components as :func:`workload_fingerprint` after
    erasing everything the AM6xx prover (:mod:`repro.analysis
    .equivalence`) can prove immaterial: names are dropped, touchable
    memories' capacities are clamped to ``min(capacity, U(m))`` (the
    static footprint bound), and the parameters of unreachable
    processors, their access links, and off-route channels are blanked.
    Two provably-equivalent workloads therefore hash identically — but
    not conversely: the key only *narrows* the candidate walk, and the
    full prover re-checks every candidate, so a collision costs a proof
    attempt, never soundness.
    """
    from repro.analysis.equivalence import (
        footprint_bounds,
        graph_body_doc,
        touchable_resources,
    )

    if space is None:
        from repro.mapping.space import SearchSpace

        space = SearchSpace(graph, machine)
    bounds = footprint_bounds(graph, machine, space)
    touch = touchable_resources(graph, machine, space)

    machine_doc = to_jsonable(machine)
    machine_doc["name"] = None
    proc_kind = {p.uid: p.kind for p in machine.processors}
    for proc in machine_doc["processors"]:
        if proc_kind[proc["uid"]] not in touch.proc_kinds:
            proc["throughput"] = None
            proc["launch_overhead"] = None
    for mem in machine_doc["memories"]:
        mem["capacity"] = min(
            mem["capacity"], bounds.get(mem["uid"], 0)
        )
    for link in machine_doc["access_links"]:
        if proc_kind[link["proc"]] not in touch.proc_kinds:
            link["bandwidth"] = None
            link["latency"] = None
    for chan, chan_doc in zip(machine.channels, machine_doc["channels"]):
        if chan.key not in touch.channel_keys:
            chan_doc["bandwidth"] = None
            chan_doc["latency"] = None

    graph_doc = graph_body_doc(graph)
    doc = {
        "format": CLASS_KEY_FORMAT,
        "graph": graph_doc,
        "machine": machine_doc,
        "config": dict(config),
        "start": canonical_start_doc(graph, machine, start_doc),
        "fixed_decisions": to_jsonable(space.fixed_decisions),
    }
    return hashlib.sha256(_canonical_json(doc).encode()).hexdigest()


def spec_config(spec: "JobSpec") -> dict:
    """The semantic search-configuration dict of a spec — the ``config``
    component both fingerprints hash and the prover compares."""
    return {
        "algorithm": spec.algorithm,
        "seed": spec.seed,
        "max_suggestions": spec.max_suggestions,
        "noise_sigma": spec.noise_sigma,
        "spill": spec.spill,
        "static_prune": spec.static_prune,
        "bound_prune": spec.bound_prune,
    }


def spec_fingerprint(spec: "JobSpec") -> str:
    """Materialise a :class:`~repro.service.spec.JobSpec` and fingerprint
    it.  Raises ``ValueError`` for specs that cannot build."""
    _, graph, machine, space = spec.build()
    return workload_fingerprint(
        graph, machine, spec_config(spec), spec.start_mapping, space=space
    )
