"""The job store: atomic persistence, FIFO claiming, crash recovery."""

from __future__ import annotations

import repro.service.store as store_module
from repro.service.store import JOB_FILENAME, JobRecord, JobState, JobStore

SPEC = {"app": "stencil"}


class TestRecords:
    def test_create_assigns_sequential_ids(self, tmp_path):
        store = JobStore(tmp_path)
        ids = [store.create(SPEC, f"fp{i}").job_id for i in range(3)]
        assert ids == ["job-000001", "job-000002", "job-000003"]

    def test_roundtrip(self, tmp_path):
        store = JobStore(tmp_path)
        record = store.create(SPEC, "fp", cache_hit=True)
        loaded = store.get(record.job_id)
        assert loaded == record
        assert loaded.cache_hit

    def test_get_unknown_returns_none(self, tmp_path):
        assert JobStore(tmp_path).get("job-999999") is None

    def test_update_persists(self, tmp_path):
        store = JobStore(tmp_path)
        record = store.create(SPEC, "fp")
        store.update(record.with_(state=JobState.FAILED, error="boom"))
        loaded = store.get(record.job_id)
        assert loaded.state is JobState.FAILED
        assert loaded.error == "boom"

    def test_numbering_survives_restart(self, tmp_path):
        JobStore(tmp_path).create(SPEC, "fp")
        record = JobStore(tmp_path).create(SPEC, "fp2")
        assert record.job_id == "job-000002"

    def test_doc_format_guard(self, tmp_path):
        import pytest

        with pytest.raises(ValueError, match="job record format"):
            JobRecord.from_doc({"format": "nope"})


class TestClaiming:
    def test_claim_is_fifo(self, tmp_path):
        store = JobStore(tmp_path)
        first = store.create(SPEC, "a")
        store.create(SPEC, "b")
        claimed = store.claim_next()
        assert claimed.job_id == first.job_id
        assert claimed.state is JobState.RUNNING
        assert claimed.attempts == 1

    def test_claim_skips_terminal_jobs(self, tmp_path):
        store = JobStore(tmp_path)
        done = store.create(SPEC, "a", state=JobState.DONE)
        queued = store.create(SPEC, "b")
        assert store.claim_next().job_id == queued.job_id
        assert store.get(done.job_id).state is JobState.DONE

    def test_claim_empty_returns_none(self, tmp_path):
        assert JobStore(tmp_path).claim_next() is None

    def test_idle_claims_read_no_settled_job_files(self, tmp_path, monkeypatch):
        """Past the first poll, a claim reads only jobs created since:
        the idle poll costs O(1) file reads however many jobs are done."""
        store = JobStore(tmp_path)
        for i in range(40):
            store.create(SPEC, f"done{i}", state=JobState.DONE)
        reads = []
        real_load = store_module.load_json

        def spy(path):
            reads.append(path)
            return real_load(path)

        monkeypatch.setattr(store_module, "load_json", spy)
        assert store.claim_next() is None
        assert len(reads) == 40
        reads.clear()
        assert store.claim_next() is None
        assert reads == []
        queued = store.create(SPEC, "b")
        assert store.claim_next().job_id == queued.job_id
        assert len(reads) == 1
        reads.clear()
        assert store.claim_next() is None
        assert reads == []

    def test_recovery_lowers_the_claim_floor(self, tmp_path):
        store = JobStore(tmp_path)
        first = store.create(SPEC, "a")
        second = store.create(SPEC, "b")
        assert store.claim_next().job_id == first.job_id
        assert store.claim_next().job_id == second.job_id
        assert store.claim_next() is None
        recovered = store.recover_running()
        assert [r.job_id for r in recovered] == [first.job_id, second.job_id]
        assert store.claim_next().job_id == first.job_id
        assert store.claim_next().job_id == second.job_id


class TestRecovery:
    def test_recover_requeues_running_jobs(self, tmp_path):
        store = JobStore(tmp_path)
        record = store.create(SPEC, "a")
        store.claim_next()

        fresh = JobStore(tmp_path)  # simulated process restart
        recovered = fresh.recover_running()
        assert [r.job_id for r in recovered] == [record.job_id]
        assert fresh.get(record.job_id).state is JobState.SUBMITTED
        # The attempt counter survives, so the resumed claim counts up.
        assert fresh.claim_next().attempts == 2

    def test_recover_ignores_settled_jobs(self, tmp_path):
        store = JobStore(tmp_path)
        store.create(SPEC, "a", state=JobState.DONE)
        store.create(SPEC, "b")
        assert JobStore(tmp_path).recover_running() == []

    def test_counts(self, tmp_path):
        store = JobStore(tmp_path)
        store.create(SPEC, "a", state=JobState.DONE)
        store.create(SPEC, "b")
        store.create(SPEC, "c")
        store.claim_next()
        assert store.counts() == {
            "submitted": 1,
            "running": 1,
            "done": 1,
            "failed": 0,
        }

    def test_job_json_always_parseable(self, tmp_path):
        """The atomic write contract: job.json is valid JSON after any
        sequence of updates."""
        import json

        store = JobStore(tmp_path)
        record = store.create(SPEC, "a")
        for state in (JobState.RUNNING, JobState.DONE):
            record = store.update(record.with_(state=state))
            path = store.job_dir(record.job_id) / JOB_FILENAME
            json.loads(path.read_text())
