"""In-memory span recording for the traced benchmark runs.

The benchmark never edits the program: a traced run replaces public
functions of each layer with wrappers (:meth:`Tracer.wrap`) before any
work starts.  Each call records one span — name, start, end, parent
span and a per-tune or per-request id — into a list kept in memory and
written out once, when the run ends.

Spans nest per thread: the parent of a span is the innermost span still
open on the same thread, so the direct children of a span never overlap
and its *self time* is its duration minus the sum of its children's.
"""

from __future__ import annotations

import importlib
import json
import threading
import time
from typing import Callable, Dict, Iterable, List, Optional, Tuple

# Span fields, stored as lists for cheap in-place completion.
NAME, START, END, PARENT, RID, META = range(6)


class Tracer:
    """Records spans from wrapped functions; off until :attr:`enabled`."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.enabled = False
        self._local = threading.local()
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.rid = None
        return local

    def open(self, name: str, rid: Optional[str] = None) -> list:
        """Start a span on the current thread; close it with :meth:`close`."""
        state = self._state()
        if rid is not None:
            state.rid = rid
        parent = state.stack[-1] if state.stack else -1
        span = [name, time.perf_counter(), None, parent, state.rid, None]
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        state.stack.append(index)
        return span

    def close(self, span: list, meta: Optional[dict] = None) -> None:
        span[END] = time.perf_counter()
        span[META] = meta
        self._state().stack.pop()

    # ------------------------------------------------------------------
    def wrap(
        self,
        target: str,
        name: str,
        rid_of: Optional[Callable] = None,
        meta_of: Optional[Callable] = None,
    ) -> None:
        """Replace ``module:Owner.attr`` (or ``module:func``) with a
        recording wrapper.

        ``rid_of(args)`` may return the id the span and everything under
        it is tagged with; ``meta_of(result, args)`` may return a small
        dict kept with the span (a job id, a proof verdict).
        """
        module_name, _, path = target.partition(":")
        owner = importlib.import_module(module_name)
        *owner_path, attr = path.split(".")
        for part in owner_path:
            owner = getattr(owner, part)
        original = owner.__dict__[attr] if owner_path else getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return original(*args, **kwargs)
            state = tracer._state()
            saved_rid = state.rid
            span = tracer.open(
                name, None if rid_of is None else rid_of(args)
            )
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                tracer.close(
                    span,
                    None if meta_of is None else meta_of(result, args),
                )
                state.rid = saved_rid

        setattr(owner, attr, wrapper)

    # ------------------------------------------------------------------
    def dump(self, path) -> None:
        """Write every recorded span as JSON (one list per span); a span
        still open ends now."""
        now = time.perf_counter()
        for span in self.spans:
            if span[END] is None:
                span[END] = now
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.spans, handle)


def load_spans(path) -> List[list]:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------
def self_times(spans: List[list]) -> List[float]:
    """Each span's duration minus the durations of its direct children
    (children on one thread are sequential, so they never overlap)."""
    own = [span[END] - span[START] for span in spans]
    for span in spans:
        parent = span[PARENT]
        if parent >= 0:
            own[parent] -= span[END] - span[START]
    return own


def has_ancestor(spans: List[list], index: int, name: str) -> bool:
    parent = spans[index][PARENT]
    while parent >= 0:
        if spans[parent][NAME] == name:
            return True
        parent = spans[parent][PARENT]
    return False


def layer_totals(
    spans: List[list], select: Optional[Callable[[list], bool]] = None
) -> Dict[str, Tuple[int, float, float]]:
    """``name -> (calls, total seconds, self seconds)`` over the spans
    ``select`` accepts (all by default).  A call nested in a span of the
    same name (a subclass's ``search`` calling its base's) counts once,
    and its time once."""
    own = self_times(spans)
    totals: Dict[str, List[float]] = {}
    for index, span in enumerate(spans):
        if select is not None and not select(span):
            continue
        entry = totals.setdefault(span[NAME], [0, 0.0, 0.0])
        entry[2] += own[index]
        if not has_ancestor(spans, index, span[NAME]):
            entry[0] += 1
            entry[1] += span[END] - span[START]
    return {name: tuple(entry) for name, entry in totals.items()}


def covered(intervals: Iterable[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi
    )
    total = 0.0
    cursor = lo
    for a, b in clipped:
        if b <= cursor:
            continue
        total += b - max(a, cursor)
        cursor = b
    return total
