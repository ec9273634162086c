"""Copy execution over the channel graph.

Turns the coherence layer's :class:`~repro.runtime.instances.CopyNeed`
records into timed transfers: each copy is routed over the machine's
channel path (:meth:`~repro.machine.model.Machine.route`) and reserved
hop-by-hop (store-and-forward), so concurrent copies contend for shared
links — the Frame-Buffer↔host PCIe link and the inter-node network are
exactly where the paper's mapping trade-offs live.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.machine.model import Machine
from repro.runtime.events import TimelinePool
from repro.runtime.instances import CopyNeed

if TYPE_CHECKING:  # recorder is optional observability plumbing
    from repro.obs.trace import TraceRecorder

__all__ = ["CopyStats", "CopyEngine", "DMA_EFFICIENCY"]

#: Fraction of a channel's link bandwidth a runtime-issued DMA copy
#: sustains (descriptor setup, strided field layouts, synchronisation).
#: In-task streaming access saturates the same link fully, which is why
#: placing shared data in Zero-Copy can beat producing into Frame-Buffer
#: and copying — the §4.2 trade-off.
DMA_EFFICIENCY = 0.7


@dataclass
class CopyStats:
    """Aggregate data-movement statistics for one simulated execution."""

    num_copies: int = 0
    bytes_moved: int = 0
    copy_seconds: float = 0.0  # sum of per-copy durations (overlappable)

    def record(self, nbytes: int, duration: float) -> None:
        self.num_copies += 1
        self.bytes_moved += nbytes
        self.copy_seconds += duration

    def clone(self) -> "CopyStats":
        """An independent copy (incremental-simulation snapshots)."""
        return CopyStats(
            num_copies=self.num_copies,
            bytes_moved=self.bytes_moved,
            copy_seconds=self.copy_seconds,
        )


class CopyEngine:
    """Schedules copies on channel timelines."""

    def __init__(
        self,
        machine: Machine,
        channels: TimelinePool,
        recorder: Optional["TraceRecorder"] = None,
        stats: Optional[CopyStats] = None,
    ) -> None:
        self._machine = machine
        self._channels = channels
        # ``stats`` lets the incremental engine resume accumulation from
        # a snapshot instead of starting a fresh tally.
        self.stats = stats if stats is not None else CopyStats()
        #: Optional span recorder (observational only; ``None`` = off).
        self.recorder = recorder

    def execute(self, need: CopyNeed, dst_mem: str, ready: float) -> float:
        """Perform one copy; returns its finish time.

        The copy may not start before ``ready`` (control dependence) nor
        before the source data exists (``need.src_time``).  Each hop of
        the routed path is a serially-reusable resource; hops are chained
        store-and-forward.
        """
        route = self._machine.route(need.src_mem, dst_mem)
        if route is None:
            raise ValueError(
                f"no channel path from {need.src_mem} to {dst_mem}"
            )
        start_floor = max(ready, need.src_time)
        if not route:
            return start_floor
        time = start_floor
        total_duration = 0.0
        for hop in route:
            duration = hop.latency + need.nbytes / (
                hop.bandwidth * DMA_EFFICIENCY
            )
            key = hop.key
            hop_start, time = self._channels.reserve(key, time, duration)
            if self.recorder is not None:
                self.recorder.record_copy(
                    key,
                    need.src_mem,
                    dst_mem,
                    hop_start,
                    duration,
                    need.nbytes,
                )
            total_duration += duration
        self.stats.record(need.nbytes, total_duration)
        return time
