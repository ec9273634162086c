"""The machine graph: processors, memories, access links, and channels.

This is the data structure the paper formalises in §2: "We model a machine
M as a graph where the nodes are processors and memories. ... An edge
between a processor p and a memory m indicates that m is addressable by p,
and an edge between two memories indicates that there is a communication
channel between the two memories."

Concrete devices carry the physical parameters the simulator needs:
compute throughput and per-task launch overhead for processors, capacity
for memories, and bandwidth/latency for access links and channels.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import cached_property
from heapq import heappop, heappush
from itertools import count
from typing import Dict, Iterable, List, Optional, Tuple

from repro.machine.kinds import ADDRESSABLE, MemKind, ProcKind
from repro.util.units import format_bytes

__all__ = ["Processor", "Memory", "AccessLink", "Channel", "Machine"]

#: Representative message size weighting channels for routing: a
#: channel costs ``latency + ROUTING_MESSAGE_BYTES / bandwidth``, which
#: balances latency- and bandwidth-dominated regimes so routes prefer
#: the fast direct links the hardware actually uses.
ROUTING_MESSAGE_BYTES = 16 * 1024 * 1024

#: How many routing graphs keep a process-wide route table; resolving
#: one more drops the least recently resolved.  A machine keeps the
#: table it resolved, so a drop only costs later machines the reuse.
ROUTE_TABLE_LIMIT = 8

#: ``(src, dst)`` -> the route's channel indexes, or ``None``.
_RouteTable = Dict[Tuple[str, str], Optional[Tuple[int, ...]]]

#: Routing graph ``(memory uids, channels in declaration order)`` -> its
#: route table, least recently resolved first.
_ROUTE_TABLES: "OrderedDict[tuple, _RouteTable]" = OrderedDict()
_ROUTE_TABLES_LOCK = threading.Lock()


def _shared_route_table(graph_key: tuple) -> _RouteTable:
    """The route table every machine with this routing graph shares."""
    with _ROUTE_TABLES_LOCK:
        table = _ROUTE_TABLES.get(graph_key)
        if table is None:
            table = _ROUTE_TABLES[graph_key] = {}
            if len(_ROUTE_TABLES) > ROUTE_TABLE_LIMIT:
                _ROUTE_TABLES.popitem(last=False)
        else:
            _ROUTE_TABLES.move_to_end(graph_key)
        return table


@dataclass(frozen=True)
class Processor:
    """A concrete processor (one CPU core or one GPU).

    Attributes
    ----------
    uid:
        Globally unique id, e.g. ``"n0.cpu3"``.
    kind:
        The processor kind.
    node:
        Index of the machine node hosting this processor.
    socket:
        CPU socket index (``None`` for GPUs).
    device:
        GPU device index on its node (``None`` for CPUs).
    throughput:
        Effective compute throughput in FLOP/s for this single processor.
    launch_overhead:
        Fixed per-task cost (seconds) of launching work here; models
        runtime dispatch plus (for GPUs) kernel-launch latency.
    """

    uid: str
    kind: ProcKind
    node: int
    socket: Optional[int] = None
    device: Optional[int] = None
    throughput: float = 1e10
    launch_overhead: float = 0.0

    def __post_init__(self) -> None:
        if self.throughput <= 0:
            raise ValueError(f"{self.uid}: throughput must be positive")
        if self.launch_overhead < 0:
            raise ValueError(f"{self.uid}: launch_overhead must be >= 0")


@dataclass(frozen=True)
class Memory:
    """A concrete memory (one System allocation, Zero-Copy pool, or GPU
    frame buffer).

    Attributes
    ----------
    uid:
        Globally unique id, e.g. ``"n0.fb0"``.
    kind:
        The memory kind.
    node:
        Index of the machine node hosting this memory.
    socket / device:
        Locality within the node (socket for System memory, GPU device
        for frame buffers; ``None`` otherwise).
    capacity:
        Capacity in bytes.
    """

    uid: str
    kind: MemKind
    node: int
    socket: Optional[int] = None
    device: Optional[int] = None
    capacity: int = 0

    def __post_init__(self) -> None:
        if self.capacity < 0:
            raise ValueError(f"{self.uid}: capacity must be >= 0")

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.uid}({self.kind}, {format_bytes(self.capacity)})"


@dataclass(frozen=True)
class AccessLink:
    """A processor→memory "addressable by" edge with its access parameters.

    ``bandwidth`` is the sustained bandwidth (bytes/s) the processor sees
    when streaming from/to the memory; ``latency`` the per-access-stream
    startup time in seconds.
    """

    proc: str
    mem: str
    bandwidth: float
    latency: float = 0.0

    def __post_init__(self) -> None:
        if self.bandwidth <= 0:
            raise ValueError(f"{self.proc}->{self.mem}: bandwidth must be > 0")
        if self.latency < 0:
            raise ValueError(f"{self.proc}->{self.mem}: latency must be >= 0")


@dataclass(frozen=True)
class Channel:
    """A memory↔memory communication channel (bidirectional).

    Copies routed over the channel cost ``latency + bytes / bandwidth``
    and serialise on the channel in the event simulation.
    """

    mem_a: str
    mem_b: str
    bandwidth: float
    latency: float = 0.0

    def __post_init__(self) -> None:
        if self.bandwidth <= 0:
            raise ValueError(
                f"{self.mem_a}<->{self.mem_b}: bandwidth must be > 0"
            )
        if self.latency < 0:
            raise ValueError(
                f"{self.mem_a}<->{self.mem_b}: latency must be >= 0"
            )

    def endpoints(self) -> Tuple[str, str]:
        return (self.mem_a, self.mem_b)

    @cached_property
    def key(self) -> str:
        """The channel's serial timeline key, ``chan:{a}<->{b}`` with
        sorted endpoints: the copy engine reserves every hop on this
        timeline, and the static bounds attribute bytes to it."""
        a, b = sorted((self.mem_a, self.mem_b))
        return f"chan:{a}<->{b}"


@dataclass
class Machine:
    """The machine graph M.

    Construction validates global invariants: unique ids, access links and
    channels referencing known devices, and access links consistent with
    the kind-level addressability relation.

    The class offers the kind- and locality-queries that both the search
    (kind level) and the runtime simulator (concrete level) need, plus
    the memoised channel route of every copy (:meth:`route`).  Routes
    are computed once per routing graph and process: machines with equal
    memory uids and equal channels in equal order share one table.
    """

    name: str
    processors: List[Processor] = field(default_factory=list)
    memories: List[Memory] = field(default_factory=list)
    access_links: List[AccessLink] = field(default_factory=list)
    channels: List[Channel] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._procs_by_uid: Dict[str, Processor] = {}
        self._mems_by_uid: Dict[str, Memory] = {}
        for proc in self.processors:
            if proc.uid in self._procs_by_uid:
                raise ValueError(f"duplicate processor uid {proc.uid!r}")
            self._procs_by_uid[proc.uid] = proc
        for mem in self.memories:
            if mem.uid in self._mems_by_uid or mem.uid in self._procs_by_uid:
                raise ValueError(f"duplicate device uid {mem.uid!r}")
            self._mems_by_uid[mem.uid] = mem

        self._access: Dict[Tuple[str, str], AccessLink] = {}
        for link in self.access_links:
            proc = self._procs_by_uid.get(link.proc)
            mem = self._mems_by_uid.get(link.mem)
            if proc is None:
                raise ValueError(f"access link references unknown proc {link.proc!r}")
            if mem is None:
                raise ValueError(f"access link references unknown mem {link.mem!r}")
            if (proc.kind, mem.kind) not in ADDRESSABLE:
                raise ValueError(
                    f"access link {link.proc}->{link.mem} violates "
                    f"kind addressability ({proc.kind} -> {mem.kind})"
                )
            self._access[(link.proc, link.mem)] = link

        self._channels: Dict[Tuple[str, str], Channel] = {}
        #: mem uid -> ``(neighbour, routing weight, channel index)`` in
        #: channel declaration order; the tie-break order of :meth:`route`.
        self._adjacency: Dict[str, List[Tuple[str, float, int]]] = {
            uid: [] for uid in self._mems_by_uid
        }
        for index, chan in enumerate(self.channels):
            for end in chan.endpoints():
                if end not in self._mems_by_uid:
                    raise ValueError(f"channel references unknown memory {end!r}")
            key = tuple(sorted(chan.endpoints()))
            if key in self._channels:
                raise ValueError(f"duplicate channel {key}")
            self._channels[key] = chan
            weight = chan.latency + ROUTING_MESSAGE_BYTES / chan.bandwidth
            self._adjacency[chan.mem_a].append((chan.mem_b, weight, index))
            self._adjacency[chan.mem_b].append((chan.mem_a, weight, index))
        self._routes: Dict[Tuple[str, str], Optional[Tuple[Channel, ...]]] = {}
        #: The routing graph: everything :meth:`_shortest_route` reads.
        self._graph_key = (tuple(self._mems_by_uid), tuple(self.channels))
        self._route_table: Optional[_RouteTable] = None

        self._nodes = sorted(
            {p.node for p in self.processors} | {m.node for m in self.memories}
        )
        if self._nodes != list(range(len(self._nodes))):
            raise ValueError("node indices must be contiguous from 0")

    # ------------------------------------------------------------------
    # Basic lookups
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Number of machine nodes."""
        return len(self._nodes)

    def processor(self, uid: str) -> Processor:
        """Look up a processor by uid (raises ``KeyError`` if unknown)."""
        return self._procs_by_uid[uid]

    def memory(self, uid: str) -> Memory:
        """Look up a memory by uid (raises ``KeyError`` if unknown)."""
        return self._mems_by_uid[uid]

    def proc_kinds(self) -> Tuple[ProcKind, ...]:
        """Processor kinds present on this machine, in enum order."""
        present = {p.kind for p in self.processors}
        return tuple(pk for pk in ProcKind if pk in present)

    def mem_kinds(self) -> Tuple[MemKind, ...]:
        """Memory kinds present on this machine, in enum order."""
        present = {m.kind for m in self.memories}
        return tuple(mk for mk in MemKind if mk in present)

    def mem_kinds_for(self, proc_kind: ProcKind) -> Tuple[MemKind, ...]:
        """Memory kinds present on this machine and addressable by
        ``proc_kind``, fastest first."""
        present = set(self.mem_kinds())
        from repro.machine.kinds import addressable_mem_kinds

        return tuple(
            mk for mk in addressable_mem_kinds(proc_kind) if mk in present
        )

    # ------------------------------------------------------------------
    # Locality queries
    # ------------------------------------------------------------------
    def processors_of_kind(
        self, kind: ProcKind, node: Optional[int] = None
    ) -> List[Processor]:
        """Processors of ``kind`` (optionally restricted to ``node``),
        in a deterministic order."""
        return [
            p
            for p in self.processors
            if p.kind == kind and (node is None or p.node == node)
        ]

    def memories_of_kind(
        self, kind: MemKind, node: Optional[int] = None
    ) -> List[Memory]:
        """Memories of ``kind`` (optionally restricted to ``node``)."""
        return [
            m
            for m in self.memories
            if m.kind == kind and (node is None or m.node == node)
        ]

    def access_link(self, proc_uid: str, mem_uid: str) -> Optional[AccessLink]:
        """The access link between a processor and a memory, if any."""
        return self._access.get((proc_uid, mem_uid))

    def accessible_memories(self, proc_uid: str) -> List[Memory]:
        """All memories addressable by the given processor."""
        return [
            self._mems_by_uid[mem]
            for (proc, mem) in self._access
            if proc == proc_uid
        ]

    def closest_memory(
        self, proc: Processor, kind: MemKind
    ) -> Optional[Memory]:
        """The concrete memory of ``kind`` "closest" to ``proc``.

        Closest means: same device (frame buffer of the task's own GPU),
        else same socket, else same node.  Returns ``None`` when ``proc``
        cannot address any memory of that kind — a kind-level
        addressability violation the mapping validator rejects earlier.
        """
        candidates = [
            mem
            for mem in self.memories_of_kind(kind, node=proc.node)
            if (proc.uid, mem.uid) in self._access
        ]
        if not candidates:
            return None

        def rank(mem: Memory) -> Tuple[int, str]:
            if mem.device is not None and mem.device == proc.device:
                return (0, mem.uid)
            if mem.socket is not None and mem.socket == proc.socket:
                return (1, mem.uid)
            return (2, mem.uid)

        return min(candidates, key=rank)

    def channel(self, mem_a: str, mem_b: str) -> Optional[Channel]:
        """The channel between two memories, if one exists."""
        return self._channels.get(tuple(sorted((mem_a, mem_b))))

    def route(self, src: str, dst: str) -> Optional[Tuple[Channel, ...]]:
        """The channels a copy from ``src`` to ``dst`` crosses, source
        side first: ``()`` when ``src == dst``, ``None`` when no channel
        path exists.  Memoised per ordered pair; raises ``KeyError`` for
        an unknown memory.

        The search runs once per pair and routing graph: the shared
        table holds channel indexes, and the hops returned are this
        machine's own :class:`Channel` objects."""
        pair = (src, dst)
        if pair not in self._routes:
            table = self._route_table
            if table is None:
                table = self._route_table = _shared_route_table(
                    self._graph_key
                )
            if pair not in table:
                table[pair] = self._shortest_route(src, dst)
            indexes = table[pair]
            channels = self._graph_key[1]
            self._routes[pair] = (
                None
                if indexes is None
                else tuple(channels[i] for i in indexes)
            )
        return self._routes[pair]

    def _shortest_route(
        self, src: str, dst: str
    ) -> Optional[Tuple[int, ...]]:
        """Bidirectional Dijkstra over the routing weights; returns the
        route as channel indexes.

        The tie-break rule is part of the contract (DESIGN.md): the
        search alternates directions starting forward, pops the heap
        entry with the least ``(distance, insertion count)`` (one
        counter shared by both directions), relaxes a memory only on a
        strictly shorter distance, and moves the meeting memory only on
        a strictly smaller total.
        """
        if src == dst:
            return ()
        adjacency = self._adjacency
        tick = count()
        fringe = ([(0.0, next(tick), src)], [(0.0, next(tick), dst)])
        seen: Tuple[Dict[str, float], ...] = ({src: 0.0}, {dst: 0.0})
        done: Tuple[set, ...] = (set(), set())
        # memory -> (the memory one hop closer to the search's origin,
        # the index of the channel between them).
        pred: Tuple[Dict[str, Tuple[str, int]], ...] = ({}, {})
        best: Optional[float] = None
        meet = src
        side = 1
        while fringe[0] and fringe[1]:
            side = 1 - side
            dist, _, mem = heappop(fringe[side])
            if mem in done[side]:
                continue
            done[side].add(mem)
            if mem in done[1 - side]:
                hops: List[int] = []
                node = meet
                while node in pred[0]:
                    node, index = pred[0][node]
                    hops.append(index)
                hops.reverse()
                node = meet
                while node in pred[1]:
                    node, index = pred[1][node]
                    hops.append(index)
                return tuple(hops)
            for nbr, weight, index in adjacency[mem]:
                total = dist + weight
                known = seen[side].get(nbr)
                if nbr in done[side] or (known is not None and total >= known):
                    continue
                seen[side][nbr] = total
                heappush(fringe[side], (total, next(tick), nbr))
                pred[side][nbr] = (mem, index)
                if nbr in seen[1 - side]:
                    joined = total + seen[1 - side][nbr]
                    if best is None or joined < best:
                        best, meet = joined, nbr
        return None

    def channels_of(self, mem_uid: str) -> List[Channel]:
        """All channels incident to a memory."""
        return [
            chan
            for chan in self.channels
            if mem_uid in chan.endpoints()
        ]

    # ------------------------------------------------------------------
    # Kind-level access characteristics (used by the task cost model)
    # ------------------------------------------------------------------
    def typical_access_bandwidth(
        self, proc_kind: ProcKind, mem_kind: MemKind
    ) -> Optional[float]:
        """Representative access bandwidth for a (proc kind, mem kind)
        pair: the maximum over concrete access links of that shape.

        Returns ``None`` when the pair is not addressable on this machine.
        The cost model uses kind-level bandwidths because AutoMap's
        factored search space never distinguishes concrete devices of the
        same kind (paper §3.2).
        """
        best: Optional[float] = None
        for (proc_uid, mem_uid), link in self._access.items():
            if (
                self._procs_by_uid[proc_uid].kind == proc_kind
                and self._mems_by_uid[mem_uid].kind == mem_kind
            ):
                if best is None or link.bandwidth > best:
                    best = link.bandwidth
        return best

    def total_capacity(self, kind: MemKind) -> int:
        """Total capacity (bytes) over all memories of ``kind``."""
        return sum(m.capacity for m in self.memories_of_kind(kind))

    # ------------------------------------------------------------------
    def describe(self) -> str:
        """A multi-line human-readable summary of the machine."""
        lines = [f"Machine {self.name!r}: {self.num_nodes} node(s)"]
        for node in range(self.num_nodes):
            cpus = self.processors_of_kind(ProcKind.CPU, node)
            gpus = self.processors_of_kind(ProcKind.GPU, node)
            lines.append(
                f"  node {node}: {len(cpus)} CPU processor(s), {len(gpus)} GPU(s)"
            )
            for mem in sorted(
                (m for m in self.memories if m.node == node),
                key=lambda m: m.uid,
            ):
                lines.append(f"    {mem}")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Machine(name={self.name!r}, nodes={self.num_nodes}, "
            f"procs={len(self.processors)}, mems={len(self.memories)})"
        )


def validate_same_shape(machines: Iterable[Machine]) -> None:
    """Check that machines share kind inventory (useful in tests comparing
    clusters)."""
    shapes = {
        (m.proc_kinds(), m.mem_kinds()) for m in machines
    }
    if len(shapes) > 1:
        raise ValueError(f"machines differ in kind inventory: {shapes}")
