"""The on-disk job store.

One directory per job under ``<root>/jobs/``, with the job's metadata in
``job.json`` and the tuning run's working directory (checkpoint,
profiles, trace) in ``work/``.  Every metadata write is atomic
(:func:`repro.util.serialization.dump_json` — temp file + ``os.replace``)
so a SIGKILL at any instant leaves either the old record or the new one,
never a torn file; crash recovery is therefore a pure read
(:meth:`JobStore.recover_running`) plus the checkpoint machinery the
engine already has.

States move ``submitted -> running -> done | failed``; a cache hit jumps
straight to ``done`` (with ``cache_hit`` set and zero simulations).  The
store is shared between the HTTP threads and the worker loop, so every
mutating method holds one lock; the artifacts themselves are written by
exactly one owner (the worker for fresh runs, the cache populater for
hits) and never rewritten.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field, replace
from enum import Enum
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.util.serialization import dump_json, load_json

__all__ = ["JOB_FILENAME", "JobRecord", "JobState", "JobStore"]

JOB_FILENAME = "job.json"
_RECORD_FORMAT = "automap-jobrecord-v1"


class JobState(str, Enum):
    SUBMITTED = "submitted"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"

    @property
    def terminal(self) -> bool:
        return self in (JobState.DONE, JobState.FAILED)


@dataclass(frozen=True)
class JobRecord:
    """One job's metadata (the ``GET /jobs/<id>`` document)."""

    job_id: str
    spec_doc: dict
    fingerprint: str
    state: JobState = JobState.SUBMITTED
    #: True when the result was served from the content-addressed cache
    #: (and ``simulations`` is therefore zero).
    cache_hit: bool = False
    #: How the cache served it: ``"none"`` (fresh run), ``"exact"``
    #: (fingerprint hit), or ``"equiv"`` (AM6xx near-equivalence proof).
    cache_mode: str = "none"
    #: Simulator executions this job actually paid for.
    simulations: int = 0
    error: Optional[str] = None
    #: How many times the service (re)started this job — 1 for a clean
    #: run, more after crash recovery.
    attempts: int = 0
    created_at: float = field(default_factory=time.time)
    updated_at: float = field(default_factory=time.time)

    def with_(self, **changes) -> "JobRecord":
        changes.setdefault("updated_at", time.time())
        return replace(self, **changes)

    # ------------------------------------------------------------------
    def to_doc(self) -> dict:
        return {
            "format": _RECORD_FORMAT,
            "job_id": self.job_id,
            "spec": self.spec_doc,
            "fingerprint": self.fingerprint,
            "state": self.state.value,
            "cache_hit": self.cache_hit,
            "cache_mode": self.cache_mode,
            "simulations": self.simulations,
            "error": self.error,
            "attempts": self.attempts,
            "created_at": self.created_at,
            "updated_at": self.updated_at,
        }

    @staticmethod
    def from_doc(doc: dict) -> "JobRecord":
        if doc.get("format") != _RECORD_FORMAT:
            raise ValueError(
                f"unsupported job record format {doc.get('format')!r}"
            )
        return JobRecord(
            job_id=doc["job_id"],
            spec_doc=doc["spec"],
            fingerprint=doc["fingerprint"],
            state=JobState(doc["state"]),
            cache_hit=bool(doc.get("cache_hit", False)),
            cache_mode=str(
                doc.get("cache_mode")
                or ("exact" if doc.get("cache_hit") else "none")
            ),
            simulations=int(doc.get("simulations", 0)),
            error=doc.get("error"),
            attempts=int(doc.get("attempts", 0)),
            created_at=float(doc.get("created_at", 0.0)),
            updated_at=float(doc.get("updated_at", 0.0)),
        )


class JobStore:
    """Directory-backed job records with atomic persistence."""

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.jobs_dir = self.root / "jobs"
        self.jobs_dir.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._next_id = self._scan_next_id()
        #: Every job numbered below this is known not to be
        #: ``submitted``: only :meth:`create` (always a fresh, higher
        #: number) and :meth:`recover_running` (which resets the floor)
        #: produce ``submitted`` jobs, so the idle claim poll reads no
        #: job file below it.
        self._claim_floor = 1

    # ------------------------------------------------------------------
    def _scan_next_id(self) -> int:
        """Next job number = max existing + 1 — crash-safe without a
        separate counter file."""
        highest = 0
        for entry in self.jobs_dir.iterdir():
            name = entry.name
            if entry.is_dir() and name.startswith("job-"):
                try:
                    highest = max(highest, int(name[4:]))
                except ValueError:
                    continue
        return highest + 1

    def job_dir(self, job_id: str) -> Path:
        return self.jobs_dir / job_id

    def work_dir(self, job_id: str) -> Path:
        """The tuning run's working directory (checkpoint, trace, ...)."""
        return self.job_dir(job_id) / "work"

    # ------------------------------------------------------------------
    def create(
        self,
        spec_doc: dict,
        fingerprint: str,
        state: JobState = JobState.SUBMITTED,
        cache_hit: bool = False,
        cache_mode: Optional[str] = None,
    ) -> JobRecord:
        with self._lock:
            job_id = f"job-{self._next_id:06d}"
            self._next_id += 1
            record = JobRecord(
                job_id=job_id,
                spec_doc=spec_doc,
                fingerprint=fingerprint,
                state=state,
                cache_hit=cache_hit,
                cache_mode=cache_mode
                or ("exact" if cache_hit else "none"),
            )
            self.job_dir(job_id).mkdir(parents=True)
            self._write(record)
        return record

    def _write(self, record: JobRecord) -> None:
        dump_json(record.to_doc(), self.job_dir(record.job_id) / JOB_FILENAME)

    def update(self, record: JobRecord) -> JobRecord:
        with self._lock:
            self._write(record)
        return record

    # ------------------------------------------------------------------
    def get(self, job_id: str) -> Optional[JobRecord]:
        path = self.job_dir(job_id) / JOB_FILENAME
        if not path.exists():
            return None
        return JobRecord.from_doc(load_json(path))

    def list_ids(self) -> List[str]:
        return sorted(
            entry.name
            for entry in self.jobs_dir.iterdir()
            if entry.is_dir() and (entry / JOB_FILENAME).exists()
        )

    def list_records(self) -> List[JobRecord]:
        records = []
        for job_id in self.list_ids():
            record = self.get(job_id)
            if record is not None:
                records.append(record)
        return records

    # ------------------------------------------------------------------
    def claim_next(self) -> Optional[JobRecord]:
        """Atomically claim the oldest ``submitted`` job (FIFO by job
        number) and mark it ``running``.

        Reads job files from the claim floor up only, and raises the
        floor past every job it reads that is not ``submitted``."""
        with self._lock:
            while self._claim_floor < self._next_id:
                job_id = f"job-{self._claim_floor:06d}"
                path = self.job_dir(job_id) / JOB_FILENAME
                if path.exists():
                    record = JobRecord.from_doc(load_json(path))
                    if record.state is JobState.SUBMITTED:
                        claimed = record.with_(
                            state=JobState.RUNNING,
                            attempts=record.attempts + 1,
                        )
                        self._write(claimed)
                        self._claim_floor += 1
                        return claimed
                self._claim_floor += 1
        return None

    def recover_running(self) -> List[JobRecord]:
        """Jobs the previous process died while executing.  Called once
        at startup (before the worker starts) — each is re-queued as
        ``submitted`` so the worker re-claims it and resumes from its
        on-disk checkpoint."""
        recovered = []
        with self._lock:
            for job_id in sorted(
                entry.name
                for entry in self.jobs_dir.iterdir()
                if entry.is_dir()
            ):
                path = self.job_dir(job_id) / JOB_FILENAME
                if not path.exists():
                    continue
                record = JobRecord.from_doc(load_json(path))
                if record.state is JobState.RUNNING:
                    requeued = record.with_(state=JobState.SUBMITTED)
                    self._write(requeued)
                    recovered.append(requeued)
            self._claim_floor = 1
        return recovered

    # ------------------------------------------------------------------
    def counts(self) -> Dict[str, int]:
        """Job-state histogram (for ``GET /metrics``)."""
        totals = {state.value: 0 for state in JobState}
        for record in self.list_records():
            totals[record.state.value] += 1
        return totals
