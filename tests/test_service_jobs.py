"""Unit tests for the service job model and bounded priority queue."""

import pytest

from repro.errors import ParameterError
from repro.service.jobs import Job, JobQueue, JobSpec


def _spec(**over):
    doc = {"dataset": "ATM", "field": "CLDHGH", "target": 60.0}
    doc.update(over)
    kind = doc.pop("kind", "compress")
    return JobSpec.from_payload(kind, doc)


class TestJobSpec:
    def test_compress_roundtrip(self):
        spec = _spec(codec="sz", priority=2, deadline_s=1.5)
        assert spec.kind == "compress"
        assert spec.mode == "psnr"
        assert spec.priority == 2
        assert spec.deadline_s == pytest.approx(1.5)
        d = spec.as_dict()
        assert d["dataset"] == "ATM" and d["target"] == 60.0

    def test_unknown_kind_rejected(self):
        with pytest.raises(ParameterError):
            JobSpec.from_payload("transmogrify", {"dataset": "ATM"})

    def test_missing_dataset_rejected(self):
        with pytest.raises(ParameterError):
            JobSpec.from_payload("compress", {"field": "x", "target": 60})

    def test_compress_needs_field_and_target(self):
        with pytest.raises(ParameterError):
            _spec(field="")
        with pytest.raises(ParameterError):
            _spec(target=0)

    def test_bad_mode_rejected(self):
        with pytest.raises(ParameterError):
            _spec(mode="vibes")

    def test_sweep_needs_targets(self):
        with pytest.raises(ParameterError):
            JobSpec.from_payload("sweep", {"dataset": "ATM"})
        spec = JobSpec.from_payload(
            "sweep",
            {"dataset": "ATM", "targets": [40, 60], "fields": ["CLDHGH"]},
        )
        assert spec.targets == (40.0, 60.0)

    def test_negative_deadline_and_priority_rejected(self):
        with pytest.raises(ParameterError):
            _spec(deadline_s=-1)
        with pytest.raises(ParameterError):
            _spec(priority=-1)

    def test_non_object_body_rejected(self):
        with pytest.raises(ParameterError):
            JobSpec.from_payload("compress", ["not", "a", "dict"])


class TestJob:
    def test_deadline_accounting(self):
        job = Job("j1", _spec(deadline_s=30.0))
        assert not job.expired()
        assert 0 < job.remaining() <= 30.0
        no_deadline = Job("j2", _spec())
        assert no_deadline.remaining() is None
        assert not no_deadline.expired()

    def test_status_document(self):
        job = Job("j1", _spec())
        doc = job.as_dict()
        assert doc["id"] == "j1"
        assert doc["state"] == "queued"
        assert doc["has_blob"] is False
        job.finish("done")
        assert job.terminal


class TestJobQueue:
    def test_priority_then_fifo_order(self):
        q = JobQueue(limit=10)
        lo = Job("lo", _spec(priority=9))
        hi = Job("hi", _spec(priority=1))
        mid1 = Job("mid1", _spec(priority=5))
        mid2 = Job("mid2", _spec(priority=5))
        for j in (lo, mid1, hi, mid2):
            assert q.offer(j)
        assert [q.pop().id for _ in range(4)] == ["hi", "mid1", "mid2", "lo"]
        assert q.pop() is None

    def test_bounded_admission(self):
        q = JobQueue(limit=2)
        assert q.offer(Job("a", _spec()))
        assert q.offer(Job("b", _spec()))
        assert q.full
        assert not q.offer(Job("c", _spec()))
        assert len(q) == 2

    def test_lazy_cancellation_tombstones(self):
        q = JobQueue(limit=4)
        a, b = Job("a", _spec(priority=1)), Job("b", _spec(priority=2))
        q.offer(a)
        q.offer(b)
        a.finish("cancelled")
        q.cancel_queued(a)
        assert len(q) == 1          # depth excludes the tombstone
        assert not q.full
        assert q.pop().id == "b"    # tombstone skipped at pop time
        assert q.pop() is None

    def test_bad_limit_rejected(self):
        with pytest.raises(ParameterError):
            JobQueue(limit=0)
