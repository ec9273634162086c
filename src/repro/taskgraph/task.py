"""Task kinds and task launches.

The unit the *mapping* ranges over is the task **kind** together with its
argument slots: AutoMap's factored search space (paper §3.2) assigns one
(distribute, processor-kind) decision per kind and one memory-kind
decision per collection-argument slot; every launch of the kind shares
those decisions ("tasks in a group task are assigned the same mapping").
Figure 5's "Tasks" and "Collection Arguments" columns count kinds and
slots, which is why they are small even for long-running applications.

A task **launch** is one group launch in the dependence graph: a set of
``size`` independent point tasks of the same kind, bound to concrete
collections (one per slot).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from typing import FrozenSet, Tuple

from repro.machine.kinds import ProcKind
from repro.taskgraph.collection import Collection

__all__ = ["Privilege", "ShardPattern", "ArgSlot", "TaskKind", "TaskLaunch"]


class Privilege(str, enum.Enum):
    """Access privilege a task holds on a collection argument."""

    READ = "read"
    WRITE = "write"
    READ_WRITE = "read_write"

    @property
    def reads(self) -> bool:
        return self in (Privilege.READ, Privilege.READ_WRITE)

    @property
    def writes(self) -> bool:
        return self in (Privilege.WRITE, Privilege.READ_WRITE)


class ShardPattern(str, enum.Enum):
    """How a point task's accessed range relates to its blocked share.

    The patterns mirror the region requirements real Legion applications
    declare: private blocks, blocks widened by read halos, boundary
    strips exchanged with neighbours, and fully-replicated broadcast
    data.  ``lo``/``hi`` refer to the low/high end of the point's blocked
    share of the collection.

    ======== =============================== ==========================
    Pattern   Accessed range                  Typical use
    ======== =============================== ==========================
    BLOCK     the blocked 1/size share        private data
    BLOCK_HALO share widened by halo_bytes on reads (ghost cells); the
              both sides                      written range stays the
                                              exact share
    STRIP_LO_OUT [lo-halo, lo)                read neighbour's boundary
    STRIP_HI_OUT [hi, hi+halo)                read neighbour's boundary
    STRIP_LO_IN  [lo, lo+halo)                produce own boundary strip
    STRIP_HI_IN  [hi-halo, hi)                produce own boundary strip
    REPLICATED the whole collection           broadcast tables
    ======== =============================== ==========================
    """

    BLOCK = "block"
    BLOCK_HALO = "block_halo"
    STRIP_LO_OUT = "strip_lo_out"
    STRIP_HI_OUT = "strip_hi_out"
    STRIP_LO_IN = "strip_lo_in"
    STRIP_HI_IN = "strip_hi_in"
    REPLICATED = "replicated"


@dataclass(frozen=True)
class ArgSlot:
    """One collection-argument slot of a task kind.

    Attributes
    ----------
    name:
        Slot name, unique within the kind (e.g. ``"node_voltages"``).
    privilege:
        Access privilege for this slot.
    pattern:
        How each point task's accessed range relates to its blocked
        share (see :class:`ShardPattern`).
    halo_bytes:
        Width of the halo/strip for the non-BLOCK patterns.
    """

    name: str
    privilege: Privilege = Privilege.READ
    pattern: ShardPattern = ShardPattern.BLOCK
    halo_bytes: int = 0

    def __post_init__(self) -> None:
        if self.halo_bytes < 0:
            raise ValueError(f"slot {self.name}: halo_bytes must be >= 0")
        needs_halo = self.pattern not in (
            ShardPattern.BLOCK,
            ShardPattern.REPLICATED,
        )
        if needs_halo and self.halo_bytes == 0:
            raise ValueError(
                f"slot {self.name}: pattern {self.pattern.value} requires "
                "halo_bytes > 0"
            )

    @property
    def replicated(self) -> bool:
        return self.pattern is ShardPattern.REPLICATED


@dataclass(frozen=True)
class TaskKind:
    """A task kind: a function of named data collections.

    Attributes
    ----------
    name:
        Unique kind name (e.g. ``"calc_new_currents"``).
    slots:
        Collection-argument slots, in positional order.
    variants:
        Processor kinds for which object code exists.  A mapping may only
        place the kind on processors whose kind is in this set (paper §2).
    gpu_speedup:
        Ratio by which one GPU outpaces one CPU *core* on this kind's
        inner kernel, applied on top of the machine's throughput ratio
        being normalised out; 1.0 means the kind's kernel saturates both
        architectures equally.  Values < 1 model poorly-vectorising,
        branchy kernels (common in unstructured-mesh codes like Pennant).
    """

    name: str
    slots: Tuple[ArgSlot, ...]
    variants: FrozenSet[ProcKind] = frozenset({ProcKind.CPU, ProcKind.GPU})
    gpu_speedup: float = 1.0

    def __post_init__(self) -> None:
        if not self.slots:
            raise ValueError(f"task kind {self.name!r} must have >= 1 slot")
        names = [s.name for s in self.slots]
        if len(set(names)) != len(names):
            raise ValueError(f"task kind {self.name!r} has duplicate slot names")
        if not self.variants:
            raise ValueError(f"task kind {self.name!r} must have >= 1 variant")
        if self.gpu_speedup <= 0:
            raise ValueError(f"task kind {self.name!r}: gpu_speedup must be > 0")

    @property
    def num_slots(self) -> int:
        return len(self.slots)

    def slot_index(self, slot_name: str) -> int:
        """Positional index of the named slot (raises ``KeyError``)."""
        for i, slot in enumerate(self.slots):
            if slot.name == slot_name:
                return i
        raise KeyError(f"{self.name} has no slot {slot_name!r}")

    def has_variant(self, kind: ProcKind) -> bool:
        return kind in self.variants


@dataclass(frozen=True)
class TaskLaunch:
    """One group launch of a task kind.

    Attributes
    ----------
    uid:
        Unique launch id (e.g. ``"calc_new_currents#12"``).
    kind:
        The launched task kind.
    args:
        Concrete collections bound to the kind's slots, positionally.
    size:
        Number of independent point tasks in the group (>= 1).  Individual
        tasks are groups of size one (paper §3.1).
    flops:
        Total floating-point work of the whole launch; each point task
        performs ``flops / size``.
    sequence:
        Program-order index used for dependence derivation and stable
        ordering.
    """

    uid: str
    kind: TaskKind
    args: Tuple[Collection, ...]
    size: int = 1
    flops: float = 0.0
    sequence: int = 0

    def __post_init__(self) -> None:
        if len(self.args) != self.kind.num_slots:
            raise ValueError(
                f"launch {self.uid}: expected {self.kind.num_slots} args "
                f"for kind {self.kind.name!r}, got {len(self.args)}"
            )
        if self.size < 1:
            raise ValueError(f"launch {self.uid}: group size must be >= 1")
        if self.flops < 0:
            raise ValueError(f"launch {self.uid}: flops must be >= 0")

    @cached_property
    def signature(self) -> Tuple:
        """The launch's content key, ``(kind name, size, flops, ((root,
        interval) per arg))``.

        Within one graph (kind names are unique) placement, shard
        intervals, durations and footprints depend on a launch only
        through its signature, so per-launch caches key by it and an
        iteration that relaunches a kind over the same data shares one
        entry with every earlier relaunch.
        """
        return (
            self.kind.name,
            self.size,
            self.flops,
            tuple((arg.root, arg.interval) for arg in self.args),
        )

    def slot_arg(self, slot_name: str) -> Collection:
        """The collection bound to the named slot."""
        return self.args[self.kind.slot_index(slot_name)]

    def shard_interval(
        self, slot_index: int, point: int, for_write: bool = False
    ) -> Tuple[int, int]:
        """Byte interval (in the collection's *root* index space) accessed
        by one point task through one argument slot.

        Reads through halo patterns are widened/offset per the slot's
        :class:`ShardPattern`; writes through ``BLOCK_HALO`` stay on the
        exact blocked share (point tasks of a group are independent, so
        they never write each other's cells through a halo).  Ranges are
        clamped to the collection's extent, so boundary points get
        naturally truncated (empty) ghost strips.
        """
        slot = self.kind.slots[slot_index]
        coll = self.args[slot_index]
        c_lo, c_hi = coll.interval
        if slot.pattern is ShardPattern.REPLICATED or self.size == 1:
            if slot.pattern in (ShardPattern.REPLICATED, ShardPattern.BLOCK):
                return (c_lo, c_hi)
        nbytes = c_hi - c_lo
        lo = c_lo + point * nbytes // self.size
        hi = c_lo + (point + 1) * nbytes // self.size
        h = slot.halo_bytes
        pattern = slot.pattern
        if pattern is ShardPattern.BLOCK:
            return (lo, hi)
        if pattern is ShardPattern.BLOCK_HALO:
            if for_write:
                return (lo, hi)
            return (max(c_lo, lo - h), min(c_hi, hi + h))
        if pattern is ShardPattern.STRIP_LO_OUT:
            return (max(c_lo, lo - h), lo)
        if pattern is ShardPattern.STRIP_HI_OUT:
            return (hi, min(c_hi, hi + h))
        if pattern is ShardPattern.STRIP_LO_IN:
            return (lo, min(hi, lo + h))
        if pattern is ShardPattern.STRIP_HI_IN:
            return (max(lo, hi - h), hi)
        if pattern is ShardPattern.REPLICATED:
            return (c_lo, c_hi)
        raise ValueError(f"unknown shard pattern {pattern!r}")

    def arg_bytes_per_point(self, slot_index: int) -> float:
        """Bytes of the slot's collection accessed by *each point task*
        (read-side width), used by the streaming access-cost model."""
        lo, hi = self.shard_interval(slot_index, 0, for_write=False)
        if self.size > 1:
            # Use an interior point to avoid boundary-clamped strips.
            mid = self.size // 2
            lo, hi = self.shard_interval(slot_index, mid, for_write=False)
        return float(hi - lo)

    def total_arg_bytes(self) -> int:
        """Total bytes over all argument collections (no dedup)."""
        return sum(c.nbytes for c in self.args)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.uid}(x{self.size})"
