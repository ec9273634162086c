"""Machine symmetry detection: interchangeable kind relabelings.

Two mappings that differ only by a relabeling of *interchangeable*
machine kinds (say, two processor kinds with identical pools, speeds,
and memory systems) produce identical simulated executions, so the
search should treat them as one point.  This module finds the kind
relabelings under which the machine — and the task graph's view of it —
is provably indistinguishable, and the canonicalizer folds every
mapping onto the lexicographically least member of its orbit.

A candidate relabeling is a pair of permutations ``(π over processor
kinds, σ over memory kinds)``.  It is accepted only when *every* layer
the simulator consults is preserved exactly:

1. **Preference order** — ``σ`` maps ``mem_kinds_for(pk)`` elementwise
   onto ``mem_kinds_for(π(pk))``: addressability, legalization, the
   default mapper's "fastest" choice, and the spill planner's demotion
   order are all index-based lookups into this tuple.
2. **Task-kind closure** — each task kind's variant set is closed under
   ``π``, and (for non-identity ``π``) every kind's ``gpu_speedup`` is
   1.0, because the executor applies the speedup by *kind identity*
   (``proc_kind == GPU``), not by relative capability.
3. **Processor pools** — for every ``(kind, node)``, the pools pair up
   index-by-index with equal throughput and launch overhead (the placer
   assigns points by pool index, so index-wise pairing mirrors it).
4. **Memory pools** — likewise with equal capacity.
5. **Access links** — every link's image exists with equal bandwidth
   and latency (a bijection, so one direction implies both).
6. **Closest-memory choice** — ``closest_memory`` commutes with the
   pairing for every processor and addressable memory kind (this
   absorbs socket/device locality without constraining the raw fields).
7. **Channels** — every channel's image exists with equal bandwidth and
   latency.
8. **Routes** — the machine's chosen ``route`` between every memory
   pair maps hop-by-hop onto the route between the image pair.
   Bandwidth/latency equality (7) does not pin down *which* of several
   equal-cost paths the route tie-break picks (it follows declaration
   order, which a relabeling need not preserve), and the executor
   reserves the channels of the chosen route, so route equality is
   checked explicitly.

Under these checks, relabeling a mapping permutes which concrete
resources carry which timeline reservations but leaves every float
operand and operation order of the simulation unchanged, so the
makespan — and the entire trace — is bit-identical (property-tested in
``tests/analysis/test_symmetry.py``).

The accepted set is automatically a group: structure-preserving
bijections compose and invert, and every candidate permutation pair is
verified independently, so the enumeration *is* the automorphism group.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import permutations
from typing import Dict, List, Optional, Tuple

from repro.machine.kinds import MemKind, ProcKind
from repro.machine.model import Machine
from repro.mapping.decision import MappingDecision
from repro.mapping.mapping import Mapping
from repro.taskgraph.graph import TaskGraph

__all__ = ["KindRelabeling", "MachineSymmetry"]


@dataclass(frozen=True)
class KindRelabeling:
    """One verified kind automorphism of a machine."""

    proc_map: Dict[ProcKind, ProcKind] = field(default_factory=dict)
    mem_map: Dict[MemKind, MemKind] = field(default_factory=dict)

    def proc(self, kind: ProcKind) -> ProcKind:
        return self.proc_map.get(kind, kind)

    def mem(self, kind: MemKind) -> MemKind:
        return self.mem_map.get(kind, kind)

    def is_identity(self) -> bool:
        return all(k == v for k, v in self.proc_map.items()) and all(
            k == v for k, v in self.mem_map.items()
        )

    def apply_decision(self, decision: MappingDecision) -> MappingDecision:
        """The decision with every kind relabeled (distribute kept)."""
        return MappingDecision(
            distribute=decision.distribute,
            proc_kind=self.proc(decision.proc_kind),
            mem_kinds=tuple(self.mem(mk) for mk in decision.mem_kinds),
        )

    def apply(self, mapping: Mapping) -> Mapping:
        """The mapping with every decision relabeled."""
        return Mapping(
            {
                name: self.apply_decision(mapping.decision(name))
                for name, _ in mapping.key()
            }
        )

    def describe(self) -> str:
        """Human-readable cycle notation of the moved kinds."""
        moved = [
            f"{k.value}->{v.value}"
            for k, v in list(self.proc_map.items()) + list(self.mem_map.items())
            if k != v
        ]
        return ", ".join(moved) if moved else "identity"


class MachineSymmetry:
    """The verified kind-automorphism group of one (graph, machine)."""

    def __init__(self, graph: TaskGraph, machine: Machine) -> None:
        self.graph = graph
        self.machine = machine
        self._automorphisms: Tuple[KindRelabeling, ...] = tuple(
            self._enumerate()
        )

    def automorphisms(self) -> Tuple[KindRelabeling, ...]:
        """Every verified non-identity relabeling."""
        return self._automorphisms

    def is_trivial(self) -> bool:
        """Whether the identity is the only automorphism."""
        return not self._automorphisms

    # ------------------------------------------------------------------
    # Enumeration and verification
    # ------------------------------------------------------------------
    def _enumerate(self) -> List[KindRelabeling]:
        proc_kinds = self.machine.proc_kinds()
        mem_kinds = self.machine.mem_kinds()
        found: List[KindRelabeling] = []
        for proc_perm in permutations(proc_kinds):
            proc_map = dict(zip(proc_kinds, proc_perm))
            for mem_perm in permutations(mem_kinds):
                mem_map = dict(zip(mem_kinds, mem_perm))
                rel = KindRelabeling(proc_map=proc_map, mem_map=mem_map)
                if rel.is_identity():
                    continue
                if self._verify(rel):
                    found.append(rel)
        return found

    def _verify(self, rel: KindRelabeling) -> bool:
        machine = self.machine
        # 1. Preference order commutes with the relabeling.
        for pk in machine.proc_kinds():
            before = machine.mem_kinds_for(pk)
            after = machine.mem_kinds_for(rel.proc(pk))
            if tuple(rel.mem(mk) for mk in before) != after:
                return False
        # 2. Task kinds cannot tell the relabeled kinds apart.
        proc_moved = any(k != v for k, v in rel.proc_map.items())
        for kind in self.graph.task_kinds:
            for pk in ProcKind:
                if kind.has_variant(pk) != kind.has_variant(rel.proc(pk)):
                    return False
            if proc_moved and kind.gpu_speedup != 1.0:
                return False
        # 3 + 4. Concrete pools pair index-wise with equal capability.
        proc_pair = self._pair_processors(rel)
        if proc_pair is None:
            return False
        mem_pair = self._pair_memories(rel)
        if mem_pair is None:
            return False
        # 5. Access links are preserved.
        for link in machine.access_links:
            image = machine.access_link(
                proc_pair[link.proc], mem_pair[link.mem]
            )
            if (
                image is None
                or image.bandwidth != link.bandwidth
                or image.latency != link.latency
            ):
                return False
        # 6. The closest-memory choice commutes with the pairing.
        for proc in machine.processors:
            partner = machine.processor(proc_pair[proc.uid])
            for mk in machine.mem_kinds_for(proc.kind):
                mine = machine.closest_memory(proc, mk)
                theirs = machine.closest_memory(partner, rel.mem(mk))
                if mine is None or theirs is None:
                    if mine is not theirs:
                        return False
                    continue
                if mem_pair[mine.uid] != theirs.uid:
                    return False
        # 7. Channels are preserved.
        for chan in machine.channels:
            image = machine.channel(
                mem_pair[chan.mem_a], mem_pair[chan.mem_b]
            )
            if (
                image is None
                or image.bandwidth != chan.bandwidth
                or image.latency != chan.latency
            ):
                return False
        # 8. The chosen routes commute with the pairing (each hop's image
        #    channel has equal parameters by 7).
        mems = [m.uid for m in machine.memories]
        for src in mems:
            for dst in mems:
                if src == dst:
                    continue
                route = machine.route(src, dst)
                image = machine.route(mem_pair[src], mem_pair[dst])
                if route is None or image is None:
                    if (route is None) != (image is None):
                        return False
                    continue
                if len(route) != len(image):
                    return False
                for hop, hop_image in zip(route, image):
                    mapped = machine.channel(
                        mem_pair[hop.mem_a], mem_pair[hop.mem_b]
                    )
                    if mapped is not hop_image:
                        return False
        return True

    def _pair_processors(
        self, rel: KindRelabeling
    ) -> Optional[Dict[str, str]]:
        machine = self.machine
        pairing: Dict[str, str] = {}
        for pk in machine.proc_kinds():
            for node in range(machine.num_nodes):
                mine = machine.processors_of_kind(pk, node)
                theirs = machine.processors_of_kind(rel.proc(pk), node)
                if len(mine) != len(theirs):
                    return None
                for a, b in zip(mine, theirs):
                    if (
                        a.throughput != b.throughput
                        or a.launch_overhead != b.launch_overhead
                    ):
                        return None
                    pairing[a.uid] = b.uid
        return pairing

    def _pair_memories(
        self, rel: KindRelabeling
    ) -> Optional[Dict[str, str]]:
        machine = self.machine
        pairing: Dict[str, str] = {}
        for mk in machine.mem_kinds():
            for node in range(machine.num_nodes):
                mine = machine.memories_of_kind(mk, node)
                theirs = machine.memories_of_kind(rel.mem(mk), node)
                if len(mine) != len(theirs):
                    return None
                for a, b in zip(mine, theirs):
                    if a.capacity != b.capacity:
                        return None
                    pairing[a.uid] = b.uid
        return pairing
