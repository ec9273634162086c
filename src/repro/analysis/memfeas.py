"""Pass 1 — static memory feasibility.

The paper's oracle contract (§3.1) lets a kind-valid mapping "fail at
runtime if a collection assignment exceeds the capacity of the physical
memory"; §5.2's memory-constrained searches then burn a full
discrete-event simulation per doomed candidate just to observe the OOM.
This pass proves the same out-of-memory outcome statically, and exactly:
it computes the very footprint :meth:`repro.runtime.memory.MemoryPlanner
.check` would compute, without building a simulator.

The key observation is that the placement function is *factored* the
same way the search space is (§3.2).  For a launch of kind ``k``, the
concrete processor of point ``i`` depends only on the kind's
``(distribute, proc_kind)`` choice, and the concrete memory of slot
``s`` is ``closest(proc_i, mem_kind_s)`` — a function of that processor
and the slot's own memory-kind choice.  Therefore the byte intervals a
slot contributes to each ``(concrete memory, root index space)`` pair
depend only on the tuple ``(kind, distribute, proc_kind, slot,
mem_kind)`` and can be precomputed per *option* rather than per
*mapping*.  A mapping's footprint is the union of its options'
contributions, and unions are order-independent — so the static check
equals the planner's check bit for bit.

Because footprint unions are monotone, a single option whose own
contribution already overflows some memory can never appear in any
feasible mapping with the same ``(distribute, proc)`` choice; an option
dead under *every* distribute choice is a provably-dead search
coordinate (rule ``AM101``) that
:meth:`repro.mapping.space.SearchSpace.prune_infeasible` removes from
move enumeration.

Instances are memoized aggressively: per-option contributions, per-launch
point->processor assignments, and per-mapping verdicts (keyed by
``mapping.key()``), so oracle-side checks are amortized O(kinds x slots)
dictionary unions.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.analysis.diagnostics import Diagnostic, Span
from repro.machine.kinds import MemKind, ProcKind
from repro.runtime.intervals import IntervalSet
from repro.runtime.memory import MemoryDemand
from repro.util.units import format_bytes

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.machine.model import Machine, Memory, Processor
    from repro.mapping.mapping import Mapping
    from repro.mapping.space import SearchSpace
    from repro.taskgraph.graph import TaskGraph
    from repro.taskgraph.task import TaskLaunch

__all__ = ["StaticMemoryFeasibility"]

#: contribution of one (kind, distribute, proc, slot, mem_kind) option:
#: byte intervals per (concrete memory uid, root index space).
_Contribution = Dict[Tuple[str, str], IntervalSet]


class StaticMemoryFeasibility:
    """Exact static reimplementation of the memory planner's footprint
    check, factored per search-space option for memoization and dead
    coordinate detection."""

    def __init__(self, graph: "TaskGraph", machine: "Machine") -> None:
        self.graph = graph
        self.machine = machine
        self._capacity: Dict[str, int] = {
            mem.uid: mem.capacity for mem in machine.memories
        }
        self._procs_by_kind_node: Dict[Tuple[ProcKind, int], List["Processor"]] = {}
        for kind in machine.proc_kinds():
            for node in range(machine.num_nodes):
                self._procs_by_kind_node[(kind, node)] = (
                    machine.processors_of_kind(kind, node)
                )
        #: Kind name -> one launch per distinct signature (launches with
        #: one signature contribute identical intervals).
        self._shapes_by_kind: Dict[str, Dict[tuple, "TaskLaunch"]] = {}
        for launch in graph.launches:
            shapes = self._shapes_by_kind.setdefault(launch.kind.name, {})
            shapes.setdefault(launch.signature, launch)

        self._closest_cache: Dict[Tuple[str, MemKind], "Memory"] = {}
        self._point_proc_cache: Dict[
            Tuple[int, bool, ProcKind], Tuple["Processor", ...]
        ] = {}
        self._contrib_cache: Dict[
            Tuple[str, bool, ProcKind, int, MemKind], _Contribution
        ] = {}
        self._reason_cache: Dict[Tuple, Optional[str]] = {}
        #: verdicts served from the per-mapping cache vs computed fresh.
        self.checks = 0
        self.cache_hits = 0

    # ------------------------------------------------------------------
    # Placement mirrors (must match repro.runtime.placement.Placer)
    # ------------------------------------------------------------------
    def _closest(self, proc: "Processor", mem_kind: MemKind) -> "Memory":
        key = (proc.uid, mem_kind)
        mem = self._closest_cache.get(key)
        if mem is None:
            found = self.machine.closest_memory(proc, mem_kind)
            if found is None:
                raise ValueError(
                    f"processor {proc.uid} cannot address any "
                    f"{mem_kind.value} memory (run the validity check "
                    f"before the feasibility pass)"
                )
            mem = found
            self._closest_cache[key] = mem
        return mem

    def _point_procs(
        self, launch: "TaskLaunch", distribute: bool, proc_kind: ProcKind
    ) -> Tuple["Processor", ...]:
        """Processor executing each point of ``launch``, mirroring
        :meth:`Placer.place_launch`'s blocked split + round-robin (a
        function of the launch's size alone)."""
        key = (launch.size, distribute, proc_kind)
        cached = self._point_proc_cache.get(key)
        if cached is not None:
            return cached
        num_nodes = self.machine.num_nodes
        procs: List["Processor"] = []
        rr_counters: Dict[int, int] = {}
        for point in range(launch.size):
            node = point * num_nodes // launch.size if distribute else 0
            pool = self._procs_by_kind_node.get((proc_kind, node), [])
            if not pool:
                raise ValueError(
                    f"no {proc_kind.value} processors on node {node}"
                )
            index = rr_counters.get(node, 0)
            rr_counters[node] = index + 1
            procs.append(pool[index % len(pool)])
        out = tuple(procs)
        self._point_proc_cache[key] = out
        return out

    # ------------------------------------------------------------------
    # Per-option contributions
    # ------------------------------------------------------------------
    def _slot_contribution(
        self,
        kind_name: str,
        distribute: bool,
        proc_kind: ProcKind,
        slot_index: int,
        mem_kind: MemKind,
    ) -> _Contribution:
        """Byte intervals this option adds to each (memory, root)."""
        key = (kind_name, distribute, proc_kind, slot_index, mem_kind)
        cached = self._contrib_cache.get(key)
        if cached is not None:
            return cached
        pieces: Dict[Tuple[str, str], List[Tuple[int, int]]] = {}
        for launch in self._shapes_by_kind.get(kind_name, {}).values():
            procs = self._point_procs(launch, distribute, proc_kind)
            root = launch.args[slot_index].root
            assert root is not None
            for point, proc in enumerate(procs):
                lo, hi = launch.shard_interval(
                    slot_index, point, for_write=False
                )
                if hi <= lo:
                    continue
                mem_uid = self._closest(proc, mem_kind).uid
                pieces.setdefault((mem_uid, root), []).append((lo, hi))
        out: _Contribution = {
            slot_key: IntervalSet(spans) for slot_key, spans in pieces.items()
        }
        self._contrib_cache[key] = out
        return out

    def slot_contribution(
        self,
        kind_name: str,
        distribute: bool,
        proc_kind: ProcKind,
        slot_index: int,
        mem_kind: MemKind,
    ) -> _Contribution:
        """Public read access to the per-option contribution table.

        The equivalence prover (:mod:`repro.analysis.equivalence`) unions
        these per-option contributions over *every* reachable option to
        obtain the exact static footprint upper bound; raising
        ``ValueError`` here means the option is unreachable (no processor
        pool / unaddressable memory) and contributes nothing.
        """
        return self._slot_contribution(
            kind_name, distribute, proc_kind, slot_index, mem_kind
        )

    def _contribution_overflows(self, contrib: _Contribution) -> bool:
        """Whether this option's own footprint already exceeds some
        memory's capacity (a lower bound on any containing mapping)."""
        per_mem: Dict[str, int] = {}
        for (mem_uid, _root), ivs in contrib.items():
            per_mem[mem_uid] = per_mem.get(mem_uid, 0) + ivs.total
        return any(
            total > self._capacity[mem_uid]
            for mem_uid, total in per_mem.items()
        )

    # ------------------------------------------------------------------
    # Whole-mapping feasibility
    # ------------------------------------------------------------------
    def check(self, mapping: "Mapping") -> MemoryDemand:
        """Static footprint of ``mapping``; equals
        :meth:`MemoryPlanner.check` exactly."""
        per_mem_root: Dict[Tuple[str, str], IntervalSet] = {}
        for kind in self.graph.task_kinds:
            decision = mapping.decision(kind.name)
            for slot_index in range(kind.num_slots):
                contrib = self._slot_contribution(
                    kind.name,
                    decision.distribute,
                    decision.proc_kind,
                    slot_index,
                    decision.mem_kinds[slot_index],
                )
                for key, ivs in contrib.items():
                    current = per_mem_root.get(key)
                    per_mem_root[key] = (
                        ivs if current is None else current.union(ivs)
                    )
        per_memory: Dict[str, int] = {}
        for (mem_uid, _root), ivs in per_mem_root.items():
            per_memory[mem_uid] = per_memory.get(mem_uid, 0) + ivs.total
        demand = MemoryDemand(per_memory=per_memory)
        for uid, total in per_memory.items():
            if total > self._capacity[uid]:
                demand.overflows[uid] = (total, self._capacity[uid])
        return demand

    def oom_reason(self, mapping: "Mapping") -> Optional[str]:
        """The exact OOM message the runtime planner would raise for
        ``mapping``, or ``None`` when it fits.  Memoized per mapping."""
        key = mapping.key()
        if key in self._reason_cache:
            self.cache_hits += 1
            return self._reason_cache[key]
        self.checks += 1
        demand = self.check(mapping)
        reason = None if demand.ok else demand.oom_message()
        self._reason_cache[key] = reason
        return reason

    def is_feasible(self, mapping: "Mapping") -> bool:
        return self.oom_reason(mapping) is None

    # ------------------------------------------------------------------
    # Dead search coordinates
    # ------------------------------------------------------------------
    def dead_slot_options(
        self, space: "SearchSpace"
    ) -> Dict[Tuple[str, ProcKind, int], Tuple[MemKind, ...]]:
        """Memory-kind options that cannot appear in any feasible
        mapping, per ``(kind, proc, slot)``.

        An option is dead when its own contribution overflows some
        memory under *every* distribute choice the space offers —
        footprints only grow by union, so any mapping containing it
        overflows too.  Options are never reported dead when *all*
        options of a slot would die (the kind/proc combination itself is
        infeasible then; whole-mapping checks handle that case and move
        enumeration must not go empty).
        """
        dead: Dict[Tuple[str, ProcKind, int], Tuple[MemKind, ...]] = {}
        for kind_name in space.kind_names():
            dims = space.dims(kind_name)
            for proc in dims.proc_options:
                options = dims.mem_options[proc]
                for slot_index in range(dims.num_slots):
                    dead_mems = tuple(
                        mem
                        for mem in options
                        if all(
                            self._contribution_overflows(
                                self._slot_contribution(
                                    kind_name, dist, proc, slot_index, mem
                                )
                            )
                            for dist in dims.distribute_options
                        )
                    )
                    if dead_mems and len(dead_mems) < len(options):
                        dead[(kind_name, proc, slot_index)] = dead_mems
        return dead

    # ------------------------------------------------------------------
    # Diagnostics
    # ------------------------------------------------------------------
    def diagnose_space(self, space: "SearchSpace") -> List[Diagnostic]:
        """``AM101`` for every provably-dead search coordinate."""
        out: List[Diagnostic] = []
        for (kind_name, proc, slot_index), mems in sorted(
            self.dead_slot_options(space).items(),
            key=lambda item: (item[0][0], item[0][1].value, item[0][2]),
        ):
            slot_name = space.dims(kind_name).slot_names[slot_index]
            for mem in mems:
                out.append(
                    Diagnostic(
                        "AM101",
                        f"{kind_name}[{slot_name}] in {mem.value} on "
                        f"{proc.value} overflows memory under every "
                        f"distribute choice",
                        Span(kind=kind_name, slot=slot_name),
                    )
                )
        return out

    def diagnose_mapping(self, mapping: "Mapping") -> List[Diagnostic]:
        """``AM102`` when the mapping's footprint provably overflows."""
        demand = self.check(mapping)
        if demand.ok:
            return []
        out: List[Diagnostic] = []
        for uid, (need, cap) in sorted(demand.overflows.items()):
            out.append(
                Diagnostic(
                    "AM102",
                    f"footprint {format_bytes(need)} exceeds "
                    f"{format_bytes(cap)} capacity",
                    Span(memory=uid),
                )
            )
        return out
