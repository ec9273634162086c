"""Parallel batch evaluation of candidate mappings.

:class:`BatchOracle` wraps a :class:`~repro.core.oracle.SimulationOracle`
and fans the expensive part of evaluation — the deterministic simulation
of previously-unseen valid mappings — out over a process pool, while
keeping every observable result bit-identical to the serial oracle.

The trick is a strict split between *computing* and *accounting*:

* :meth:`prefetch` runs the deterministic simulations of a batch's cache
  misses in worker processes and absorbs the results into the driver-side
  simulator's memo cache.  It touches no oracle state — no suggestion
  counters, no search clock, no trace.
* :meth:`evaluate_many` prefetches, then replays the batch through the
  wrapped oracle's ordinary :meth:`~repro.core.oracle.SimulationOracle.
  evaluate` in submission order.  Every replayed evaluation is now a pure
  cache hit plus noise draws (noise is a pure function of seed, mapping
  key, and run index), so the accounting — ``suggested``, ``evaluated``,
  ``sim_elapsed``, the §5.3 trace — advances exactly as the serial path
  would have advanced it.

With ``workers=1`` the pool is never created and every call degrades to
the serial path, so a single code path in the search layer serves both
modes.

**Worker supervision.**  Because prefetching only ever warms the cache,
every worker failure is recoverable without touching results: the batch
is supervised with a per-candidate timeout, bounded retries with
exponential backoff, a pool rebuild whenever the pool breaks (worker
crash) or a candidate hangs, and — when workers keep dying — graceful
degradation to fully serial evaluation.  A candidate whose worker never
delivered is simply computed by the driver-side replay.  Every recovery
event is counted in :class:`repro.resilience.supervisor.SupervisorStats`
and surfaced in the tuning report.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool
from typing import TYPE_CHECKING, Iterable, List, Optional, Sequence

from repro.mapping.mapping import Mapping
from repro.mapping.validate import explain_invalid
from repro.parallel.spec import SimulatorSpec, WorkerResult, init_worker, run_mapping
from repro.resilience.supervisor import SupervisorStats
from repro.search.base import INFEASIBLE, EvalOutcome
from repro.util.logging import get_logger, kv

if TYPE_CHECKING:  # import cycle: repro.core.engine uses BatchOracle
    from repro.core.oracle import SimulationOracle

__all__ = ["BatchOracle"]

_LOG = get_logger("parallel.batch")

#: Batch capacity per worker: deep enough to amortise pool dispatch,
#: shallow enough that speculative batches rarely outrun the budget.
BATCH_DEPTH = 8

#: Default supervision limits: how many re-submission rounds a failed
#: batch gets, and how many pool rebuilds the run tolerates before
#: degrading to serial evaluation for good.
MAX_RETRIES = 2
MAX_POOL_REBUILDS = 3
RETRY_BACKOFF = 0.05


class BatchOracle:
    """A batching, process-parallel front-end over the serial oracle.

    Satisfies the :class:`repro.search.base.Oracle` protocol (single
    evaluations delegate to the wrapped oracle) and adds the batch API
    the search layer discovers by duck typing: ``batch_size``,
    ``prefetch``, ``evaluate_many``, and ``peek``.
    """

    def __init__(
        self,
        oracle: "SimulationOracle",
        workers: int = 1,
        batch_depth: int = BATCH_DEPTH,
        timeout: Optional[float] = None,
        max_retries: int = MAX_RETRIES,
        max_pool_rebuilds: int = MAX_POOL_REBUILDS,
        retry_backoff: float = RETRY_BACKOFF,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if timeout is not None and timeout <= 0:
            raise ValueError("timeout must be positive (or None)")
        self.oracle = oracle
        self.workers = workers
        self.batch_depth = batch_depth
        #: Per-candidate wall-clock limit for a worker result (None =
        #: wait forever).  A breach marks the pool as wedged: it is
        #: torn down (hung processes terminated) and rebuilt.
        self.timeout = timeout
        self.max_retries = max_retries
        self.max_pool_rebuilds = max_pool_rebuilds
        self.retry_backoff = retry_backoff
        # Fold recovery accounting into the oracle's metrics registry
        # (one namespace per tuning run); fakes without one get private
        # stats, same behaviour as before.
        self.stats = SupervisorStats(
            registry=getattr(oracle, "metrics", None)
        )
        self._pool: Optional[ProcessPoolExecutor] = None
        self._serial_only = False

    # ------------------------------------------------------------------
    # Oracle protocol: single-candidate path delegates untouched.
    # ------------------------------------------------------------------
    def evaluate(self, mapping: Mapping) -> EvalOutcome:
        return self.oracle.evaluate(mapping)

    @property
    def exhausted(self) -> bool:
        return self.oracle.exhausted

    def kind_runtimes(self, mapping: Mapping) -> dict:
        return self.oracle.kind_runtimes(mapping)

    def __getattr__(self, name: str):
        # Statistics, profiles, measure_more, ... — read-through to the
        # wrapped oracle so the driver can treat both interchangeably.
        # Underscore-prefixed names (including dunders the object
        # protocol probes for: __getstate__, __deepcopy__, __fspath__,
        # ...) must NOT be delegated: answering them with the wrapped
        # oracle's implementations silently corrupts pickling/copying
        # of the BatchOracle itself.
        if name.startswith("_"):
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}"
            )
        return getattr(self.oracle, name)

    # ------------------------------------------------------------------
    # Batch API
    # ------------------------------------------------------------------
    @property
    def batch_size(self) -> int:
        """How many candidates the search layer should group per batch
        (1 = serial; algorithms fall back to one-at-a-time loops)."""
        if self.workers <= 1:
            return 1
        return self.workers * self.batch_depth

    def peek(self, mapping: Mapping) -> Optional[float]:
        """The performance this oracle *would* report for ``mapping`` if
        it is already decided — recorded profile or validity rejection —
        without consuming any budget or touching any statistic.  Returns
        None for candidates that would need an execution.  Used by
        speculative batch generation (e.g. the ensemble tuner predicting
        a generation ahead).

        Replay-pending candidates (checkpoint resume) also report None:
        the serial oracle answered None for them before the original
        run's execution, and diverging here would steer a resumed
        speculation differently from the uninterrupted run.
        """
        simulator = self.oracle.simulator
        if explain_invalid(simulator.graph, simulator.machine, mapping):
            return INFEASIBLE
        mapping = self.oracle.canonical(mapping)
        record = self.oracle.profiles.lookup(mapping)
        if record is not None:
            return INFEASIBLE if record.failed else record.mean
        if self.oracle.replay_pending(mapping):
            return None
        feasibility = self.oracle.feasibility
        if feasibility is not None and not feasibility.is_feasible(mapping):
            return INFEASIBLE
        return None

    def prefetch(self, mappings: Iterable[Mapping]) -> int:
        """Execute the batch's cache misses in worker processes and
        absorb their deterministic results into the simulator cache.

        Deduplicates within the batch, skips invalid candidates and
        candidates already known to the profiles database, the replay
        ledger, or the simulator cache, and trims to the remaining
        suggestion / evaluation budget so a speculative batch cannot run
        far past the search's end.  Returns the number of mappings
        submitted to workers (0 with ``workers=1`` or after degradation
        to serial — the serial path computes lazily).  Mappings that
        fail with out-of-memory in a worker are left uncached; the
        replay reproduces the failure from the driver's own memory
        planner.
        """
        if self.workers <= 1 or self._serial_only:
            return 0
        simulator = self.oracle.simulator
        feasibility = self.oracle.feasibility
        budget = self._remaining_budget()
        todo: List[Mapping] = []
        seen = set()
        for mapping in mappings:
            if budget is not None and len(todo) >= budget:
                break
            if explain_invalid(simulator.graph, simulator.machine, mapping):
                continue
            # Workers simulate the canonical representative — the same
            # mapping the replay will execute — so equivalent candidates
            # collapse to one worker run and one cache entry.
            mapping = self.oracle.canonical(mapping)
            key = mapping.key()
            if key in seen:
                continue
            seen.add(key)
            if simulator.cached(mapping) is not None:
                continue
            if self.oracle.profiles.lookup(mapping) is not None:
                continue
            if self.oracle.replay_pending(mapping):
                # A checkpointed evaluation replays for free — a worker
                # simulation would be discarded anyway.
                continue
            if feasibility is not None and not feasibility.is_feasible(mapping):
                # The replay proves the OOM statically; a worker
                # simulation would be discarded anyway.
                continue
            if self.oracle.would_bound_prune(mapping):
                # The replay will prune this candidate from its static
                # lower bound (the best-so-far only improves between now
                # and the replay, so the prune decision cannot flip back);
                # a worker simulation would be discarded anyway.
                continue
            todo.append(mapping)
        if not todo:
            return 0

        preloaded = 0
        for mapping, result in zip(todo, self._run_supervised(todo)):
            if (
                result is not None
                and result.ok
                and simulator.preload(mapping, result.to_sim_result())
            ):
                preloaded += 1
        _LOG.debug(kv("prefetch", submitted=len(todo), preloaded=preloaded))
        return len(todo)

    def evaluate_many(
        self, mappings: Sequence[Mapping]
    ) -> List[EvalOutcome]:
        """Evaluate a batch of candidates, results identical to calling
        :meth:`evaluate` in a loop — same outcomes, same accounting, same
        trace order.  Stops once the budget is exhausted (mirroring the
        serial loops' between-candidate checks), so the returned list may
        be shorter than the input."""
        self.prefetch(mappings)
        outcomes: List[EvalOutcome] = []
        for mapping in mappings:
            if self.oracle.exhausted:
                break
            outcomes.append(self.oracle.evaluate(mapping))
        return outcomes

    # ------------------------------------------------------------------
    # Worker supervision
    # ------------------------------------------------------------------
    def _run_supervised(
        self, todo: Sequence[Mapping]
    ) -> List[Optional[WorkerResult]]:
        """Dispatch ``todo`` to the pool under supervision.

        Guarantees: always returns a result slot per candidate (None =
        the worker never delivered — the serial replay recomputes it);
        a hung or crashed pool is torn down and rebuilt; a failing batch
        is retried with backoff up to ``max_retries`` rounds, each retry
        carrying a fresh attempt number (so the deterministic fault
        harness re-rolls its dice); persistent failure degrades the
        whole run to serial evaluation.
        """
        results: List[Optional[WorkerResult]] = [None] * len(todo)
        pending = list(range(len(todo)))
        attempt = 0
        while pending and not self._serial_only:
            try:
                pool = self._ensure_pool()
            except Exception:
                self._degrade("worker pool failed to start")
                break
            failed: List[int] = []
            pool_wedged = False
            try:
                futures = {
                    index: pool.submit(run_mapping, todo[index], attempt)
                    for index in pending
                }
            except BrokenProcessPool:
                # A worker crash from an earlier batch can mark the pool
                # broken between batches, in which case submit() raises
                # before any future exists.  Treat it like a mid-batch
                # breakage: rebuild and resubmit the whole round.
                self.stats.broken_pools += 1
                futures = {}
                failed = list(pending)
                pool_wedged = True
            for index, future in futures.items():
                if pool_wedged:
                    future.cancel()
                    failed.append(index)
                    continue
                try:
                    results[index] = future.result(timeout=self.timeout)
                except FutureTimeoutError:
                    self.stats.timeouts += 1
                    failed.append(index)
                    pool_wedged = True
                except BrokenProcessPool:
                    self.stats.broken_pools += 1
                    failed.append(index)
                    pool_wedged = True
                except Exception:
                    self.stats.worker_errors += 1
                    failed.append(index)
            if pool_wedged:
                self._rebuild_pool()
            pending = failed
            if not pending:
                break
            attempt += 1
            if attempt > self.max_retries:
                self.stats.abandoned += len(pending)
                _LOG.warning(
                    kv(
                        "retries-exhausted",
                        abandoned=len(pending),
                        attempts=attempt,
                    )
                )
                break
            self.stats.retries += 1
            time.sleep(self.retry_backoff * (2 ** (attempt - 1)))
        return results

    def _rebuild_pool(self) -> None:
        """Tear down a crashed/wedged pool (terminating any hung worker
        processes) so the next round starts from a fresh pool; degrade
        to serial once rebuilds exceed the tolerance."""
        self.stats.pool_rebuilds += 1
        self._shutdown_pool(force=True)
        _LOG.warning(kv("pool-rebuild", n=self.stats.pool_rebuilds))
        if self.stats.pool_rebuilds > self.max_pool_rebuilds:
            self._degrade(
                f"{self.stats.pool_rebuilds} pool rebuilds exceeded the "
                f"tolerance of {self.max_pool_rebuilds}"
            )

    def _degrade(self, why: str) -> None:
        """Give up on worker processes for the rest of the run; the
        serial path computes everything from here on (bit-identically —
        prefetching was only ever a cache warmer)."""
        if not self._serial_only:
            self._serial_only = True
            self.stats.serial_fallback = True
            _LOG.warning(kv("serial-fallback", reason=why))
        self._shutdown_pool(force=True)

    # ------------------------------------------------------------------
    # Pool lifecycle
    # ------------------------------------------------------------------
    def _remaining_budget(self) -> Optional[int]:
        """Upper bound on evaluations the search can still pay for, from
        the wrapped oracle's suggestion/evaluation limits (None =
        unbounded)."""
        cfg = self.oracle.config
        bounds = []
        if cfg.max_suggestions is not None:
            bounds.append(cfg.max_suggestions - self.oracle.suggested)
        if cfg.max_evaluations is not None:
            bounds.append(cfg.max_evaluations - self.oracle.evaluated)
        if not bounds:
            return None
        return max(0, min(bounds))

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            spec = SimulatorSpec.of(self.oracle.simulator)
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers,
                initializer=init_worker,
                initargs=(spec,),
            )
            _LOG.info(kv("pool-start", workers=self.workers))
        return self._pool

    def _shutdown_pool(self, force: bool = False) -> None:
        """Shut the pool down.  ``force`` handles wedged pools: futures
        are cancelled, the shutdown does not wait, and worker processes
        that survive (hung in an injected or real stall) are terminated
        so they cannot leak."""
        pool = self._pool
        if pool is None:
            return
        self._pool = None
        if not force:
            pool.shutdown(wait=True)
            return
        processes = list(getattr(pool, "_processes", {}).values())
        pool.shutdown(wait=False, cancel_futures=True)
        for process in processes:
            if process.is_alive():
                process.terminate()
        for process in processes:
            process.join(timeout=5)

    @property
    def pool_started(self) -> bool:
        """Whether worker processes were ever spawned (False for the
        ``workers=1`` fallback)."""
        return self._pool is not None

    def close(self) -> None:
        """Shut the worker pool down (idempotent)."""
        self._shutdown_pool(force=False)

    def __enter__(self) -> "BatchOracle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
