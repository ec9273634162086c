"""Memory-capacity accounting, OOM detection, and the spill fallback.

The paper (§3.1) allows mappings "to fail at runtime if a collection
assignment exceeds the capacity of the physical memory", and generalises
a mapping to "a priority list of memories ... where the first memory that
can hold c will be used".  Both behaviours live here:

* :meth:`MemoryPlanner.check` computes the steady-state footprint each
  concrete memory would hold under a mapping and reports overflows — the
  evaluation oracle turns those into failed evaluations (§5.2: AutoMap
  "detect[s] when a mapping results in an out of memory error and mov[es]
  on to a different mapping");
* :meth:`MemoryPlanner.apply_spill` realises the priority-list fallback:
  walking launches in program order, each collection-argument slot keeps
  its mapped memory kind if the instance fits and is demoted to the next
  memory kind in the processor's preference order otherwise.  This is how
  the default mapper's "collections (that fit) are placed in Frame-Buffer
  memory" behaves.

Footprints are unions of byte intervals per (root index space, concrete
memory), so overlapping collections are not double-counted and replicated
arguments are counted once per memory, matching how a runtime shares
physical instances.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.machine.kinds import MemKind, addressable_mem_kinds
from repro.machine.model import Machine
from repro.mapping.mapping import Mapping
from repro.runtime.intervals import IntervalSet
from repro.runtime.placement import Placer
from repro.taskgraph.graph import TaskGraph
from repro.util.units import format_bytes

__all__ = ["OOMError", "MemoryDemand", "MemoryPlanner"]


class OOMError(RuntimeError):
    """A mapping's footprint exceeds some memory's physical capacity."""


@dataclass
class MemoryDemand:
    """Steady-state footprint report for one mapping."""

    #: bytes demanded per concrete memory uid.
    per_memory: Dict[str, int] = field(default_factory=dict)
    #: memories whose demand exceeds capacity: uid -> (demand, capacity).
    overflows: Dict[str, Tuple[int, int]] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.overflows

    def describe(self) -> str:
        lines = []
        for uid in sorted(self.per_memory):
            demand = self.per_memory[uid]
            marker = " OVERFLOW" if uid in self.overflows else ""
            lines.append(f"{uid}: {format_bytes(demand)}{marker}")
        return "\n".join(lines)

    def oom_message(self) -> str:
        """The canonical OOM reason for this demand.  Shared by the
        runtime planner and the static feasibility pass so a statically
        proven OOM carries a byte-identical reason string."""
        details = ", ".join(
            f"{uid} needs {format_bytes(need)} of {format_bytes(cap)}"
            for uid, (need, cap) in sorted(self.overflows.items())
        )
        return f"mapping exceeds memory capacity: {details}"


class _FootprintAccumulator:
    """Incremental union-of-intervals footprint per (memory, root)."""

    def __init__(self, machine: Machine) -> None:
        self._machine = machine
        self._per_mem_root: Dict[Tuple[str, str], IntervalSet] = {}
        self._per_mem_total: Dict[str, int] = {}

    def would_fit(self, mem_uid: str, root: str, lo: int, hi: int) -> bool:
        """Whether adding ``[lo, hi)`` of ``root`` to ``mem_uid`` stays
        within capacity."""
        added = self._added_bytes(mem_uid, root, lo, hi)
        capacity = self._machine.memory(mem_uid).capacity
        return self._per_mem_total.get(mem_uid, 0) + added <= capacity

    def _added_bytes(self, mem_uid: str, root: str, lo: int, hi: int) -> int:
        current = self._per_mem_root.get((mem_uid, root))
        if current is None:
            return hi - lo
        return (hi - lo) - current.overlap(lo, hi)

    def add(self, mem_uid: str, root: str, lo: int, hi: int) -> None:
        key = (mem_uid, root)
        current = self._per_mem_root.get(key, IntervalSet.empty())
        added = self._added_bytes(mem_uid, root, lo, hi)
        self._per_mem_root[key] = current.union(IntervalSet.single(lo, hi))
        self._per_mem_total[mem_uid] = (
            self._per_mem_total.get(mem_uid, 0) + added
        )

    def totals(self) -> Dict[str, int]:
        return dict(self._per_mem_total)


class MemoryPlanner:
    """Static capacity analysis of a mapping on a machine.

    With ``memoize=True`` the per-launch shard lists — pure functions of
    ``(launch.signature, decision)`` — are cached, so repeated capacity
    walks over a search chain skip the placement and interval
    arithmetic, and relaunches of one shape share one entry.  The walk
    itself (accumulator operations, demotion order, error messages) is
    unchanged, so memoised and unmemoised planners produce identical
    results byte-for-byte.
    """

    def __init__(
        self, graph: TaskGraph, machine: Machine, memoize: bool = False
    ) -> None:
        self.graph = graph
        self.machine = machine
        self._placer = Placer(machine)
        self._shard_cache: Optional[Dict[tuple, tuple]] = (
            {} if memoize else None
        )
        if memoize:
            #: Kind names in task-kind declaration order, launches only.
            self._launched_kinds = [
                kind.name
                for kind in graph.task_kinds
                if graph.launches_of_kind(kind.name)
            ]
            #: (kind, decision.key()) -> {(mem_uid, root): IntervalSet}
            self._contrib_cache: Dict[tuple, dict] = {}
            #: (mem_uid, root, contributors) -> union size in bytes
            self._union_cache: Dict[tuple, int] = {}
        else:
            self._launched_kinds = []
            self._contrib_cache = {}
            self._union_cache = {}
        #: Decision-independent per-point read shard intervals,
        #: (launch.signature, slot) -> ((lo, hi), ...).
        self._interval_cache: Dict[tuple, tuple] = {}

    def _read_intervals(self, launch, slot_index: int) -> tuple:
        key = (launch.signature, slot_index)
        cached = self._interval_cache.get(key)
        if cached is None:
            cached = tuple(
                launch.shard_interval(slot_index, point, for_write=False)
                for point in range(launch.size)
            )
            self._interval_cache[key] = cached
        return cached

    def _shards(self, launch, decision) -> tuple:
        """Non-empty ``(slot_index, mem_uid, root, lo, hi)`` shards of
        one launch in the program walk's encounter order (placement
        outer, slot inner)."""
        if self._shard_cache is not None:
            key = (launch.signature, decision.key())
            cached = self._shard_cache.get(key)
            if cached is not None:
                return cached
        entries = []
        placements = self._placer.place_launch(launch, decision)
        slot_data = [
            (launch.args[i].root, self._read_intervals(launch, i))
            for i in range(len(launch.kind.slots))
        ]
        for placement in placements:
            for slot_index, mem in enumerate(placement.mems):
                root, intervals = slot_data[slot_index]
                assert root is not None
                lo, hi = intervals[placement.point]
                if hi > lo:
                    entries.append((slot_index, mem.uid, root, lo, hi))
        shards = tuple(entries)
        if self._shard_cache is not None:
            self._shard_cache[(launch.signature, decision.key())] = shards
        return shards

    # ------------------------------------------------------------------
    def _kind_contrib(self, kind_name: str, decision) -> dict:
        """Merged ``{(mem_uid, root): disjoint (lo, hi) intervals}``
        footprint contribution of every launch of ``kind_name`` under
        ``decision`` — a pure function of the pair, so it is cached.
        Launches with one signature add the same shards, so each
        signature is walked once."""
        key = (kind_name, decision.key())
        cached = self._contrib_cache.get(key)
        if cached is not None:
            return cached
        buckets: Dict[Tuple[str, str], list] = {}
        shapes = {
            launch.signature: launch
            for launch in self.graph.launches_of_kind(kind_name)
        }
        for launch in shapes.values():
            for _slot, mem_uid, root, lo, hi in self._shards(launch, decision):
                buckets.setdefault((mem_uid, root), []).append((lo, hi))
        contrib = {
            slot_key: tuple(IntervalSet(pieces))
            for slot_key, pieces in buckets.items()
        }
        self._contrib_cache[key] = contrib
        return contrib

    def _fast_fits(self, mapping: Mapping) -> bool:
        """Whether the mapping's exact steady-state footprint fits every
        memory, computed from cached per-kind contributions.

        The final per-(memory, root) footprint is the union of the
        per-kind contributions, which is order-independent, so these
        totals equal the ones the program-order walk in :meth:`check`
        produces.  Unions are cached by their contributor set: along a
        search chain most kinds keep their decision, so only groups
        touched by the changed kind are re-merged.
        """
        groups: Dict[Tuple[str, str], list] = {}
        contribs: Dict[tuple, dict] = {}
        for kind_name in self._launched_kinds:
            decision = mapping.decision(kind_name)
            member = (kind_name, decision.key())
            contrib = self._kind_contrib(kind_name, decision)
            contribs[member] = contrib
            for slot_key in contrib:
                groups.setdefault(slot_key, []).append(member)
        totals: Dict[str, int] = {}
        for slot_key, members in groups.items():
            mem_uid, _root = slot_key
            union_key = (slot_key, tuple(members))
            size = self._union_cache.get(union_key)
            if size is None:
                pieces: list = []
                for member in members:
                    pieces.extend(contribs[member][slot_key])
                size = IntervalSet(pieces).total
                self._union_cache[union_key] = size
            totals[mem_uid] = totals.get(mem_uid, 0) + size
        for mem_uid, total in totals.items():
            if total > self.machine.memory(mem_uid).capacity:
                return False
        return True

    # ------------------------------------------------------------------
    def check(self, mapping: Mapping) -> MemoryDemand:
        """Compute the footprint of ``mapping``; report overflows."""
        acc = _FootprintAccumulator(self.machine)
        for launch in self.graph.launches:
            decision = mapping.decision(launch.kind.name)
            for _slot, mem_uid, root, lo, hi in self._shards(launch, decision):
                acc.add(mem_uid, root, lo, hi)
        demand = MemoryDemand(per_memory=acc.totals())
        for uid, total in demand.per_memory.items():
            capacity = self.machine.memory(uid).capacity
            if total > capacity:
                demand.overflows[uid] = (total, capacity)
        return demand

    def ensure_fits(self, mapping: Mapping) -> None:
        """Raise :class:`OOMError` if the mapping overflows any memory."""
        if self._shard_cache is not None and self._fast_fits(mapping):
            return
        # Overflow (or no memoisation): take the exact walk so the OOM
        # message is byte-identical to the unmemoised planner's.
        demand = self.check(mapping)
        if not demand.ok:
            raise OOMError(demand.oom_message())

    # ------------------------------------------------------------------
    def apply_spill(self, mapping: Mapping) -> Mapping:
        """Demote overflowing slots along the priority list (§3.1).

        Slots are considered in program order of their first use; a slot
        that does not fit in its mapped memory kind is demoted — for the
        *whole kind*, keeping the factored-space invariant that all
        launches of a kind share one decision — to the next addressable
        memory kind.  Raises :class:`OOMError` when no kind fits.
        """
        if self._shard_cache is not None and self._fast_fits(mapping):
            # Footprint accumulation is monotone, so if the final
            # per-memory unions fit, every prefix ``would_fit`` check in
            # the exact walk below passes and the walk returns the
            # mapping unchanged — skip it.
            return mapping
        demoted: Dict[Tuple[str, int], MemKind] = {}
        current = mapping
        # Iterate to a fixed point: each pass re-walks program order with
        # the demotions applied; at most (kinds x slots x kinds) passes.
        for _ in range(1 + sum(k.num_slots for k in self.graph.task_kinds) * 2):
            acc = _FootprintAccumulator(self.machine)
            retry = False
            for launch in self.graph.launches:
                decision = current.decision(launch.kind.name)
                for slot_index, mem_uid, root, lo, hi in self._shards(
                    launch, decision
                ):
                    if acc.would_fit(mem_uid, root, lo, hi):
                        acc.add(mem_uid, root, lo, hi)
                        continue
                    # Demote this slot to the next preference kind.
                    next_kind = self._next_kind(
                        decision.proc_kind, decision.mem_kinds[slot_index]
                    )
                    if next_kind is None:
                        raise OOMError(
                            f"no memory kind can hold "
                            f"{launch.kind.name}[{slot_index}] "
                            f"({format_bytes(hi - lo)} shard in "
                            f"{mem_uid})"
                        )
                    demoted[(launch.kind.name, slot_index)] = next_kind
                    current = current.with_mem(
                        launch.kind.name, slot_index, next_kind
                    )
                    retry = True
                    break
                if retry:
                    break
            if not retry:
                return current
        raise OOMError("spill fallback failed to converge")

    def _next_kind(
        self, proc_kind, mem_kind: MemKind
    ) -> Optional[MemKind]:
        """Next memory kind after ``mem_kind`` in the processor's
        preference order that exists on this machine."""
        order = [
            mk
            for mk in addressable_mem_kinds(proc_kind)
            if mk in self.machine.mem_kinds()
        ]
        try:
            index = order.index(mem_kind)
        except ValueError:
            return order[0] if order else None
        if index + 1 < len(order):
            return order[index + 1]
        return None
