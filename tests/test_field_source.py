"""The per-process field source and the sweeps and jobs that use it.

:func:`repro.datasets.load_field` must hand out exactly the bytes
``Dataset.field`` generates, read-only, and generate each field once
per process while it stays cached.  Sweeps (serial, own pool, a
long-lived process or thread executor, the retry scheduler) and
service jobs load every named field through it; their rows and blobs
must not change.  ``DIGESTS`` pins SHA-256s of serial-sweep rows and
served blobs made before the field source existed, re-recorded when
high-rate Huffman payloads began to be deflated with zlib's run-length
strategy (only rows' ``compression_ratio`` and ``bit_rate`` moved).
"""

import hashlib
import json
import multiprocessing
import sys
import threading

import numpy as np
import pytest

import repro.datasets.source as source
from repro.core.codecs import ERROR_BOUNDED_CODECS
from repro.core.fixed_psnr import FixedPSNRCompressor
from repro.datasets import clear_field_cache, get_dataset, load_field
from repro.datasets.registry import Dataset
from repro.parallel.executor import Executor, sweep_dataset
from repro.service.tasks import run_compress_job
from repro.telemetry.registry import metrics

SWEEPS = {
    # At least as many fields as workers: one worker per field.
    "ATM": dict(fields=["CLDHGH", "FLDS", "PRECT", "TS", "U10"],
                targets=[40.0, 80.0]),
    # Fewer fields than workers at 4: the targets spread.
    "NYX": dict(fields=["temperature", "velocity_x"],
                targets=[40.0, 60.0, 80.0]),
    "Hurricane": dict(fields=["TC", "U"], targets=[60.0]),
}

JOBS = [
    {"dataset": "ATM", "field": "CLDHGH", "mode": "psnr", "target": 40.0},
    {"dataset": "ATM", "field": "FLDS", "mode": "psnr", "target": 80.0},
    {"dataset": "NYX", "field": "temperature", "mode": "psnr", "target": 60.0},
    {"dataset": "ATM", "field": "TS", "mode": "ratio", "target": 10.0},
]

#: SHA-256 of the serial sweep's rows per data set, and of each JOBS
#: blob, as computed before the field source existed (re-recorded for
#: the run-length payload deflate, which changed no achieved PSNR).
DIGESTS = {
    "ATM": "230f7605f72a72f571a2e6d852f6e601cb3289ff7f1044b1cfab81033b030423",
    "NYX": "c85bc2c7e3aed0e43d25693a60f090bc6fb99c7ba18e75d61f448376e9004be9",
    "Hurricane": (
        "471d1158e115b97379d693b9d2023746ee08fb1c7da7e2d9851ce239fb3f2d76"
    ),
    "job0": "60de6d2556825fc9ffb65a3cebb3e0d93c933ff57b7602515ce42b7b787d062e",
    "job1": "ef343526a59d1725b2ad50fe66697bb1b00e100b5fe8a78fa8e568d2e713dbd1",
    "job2": "e9bae0f010cf87b2bfa35b032decfe58d22a4bc9586d36b5d24a102d0f93f660",
    "job3": "c0e5017e937a4b38ce89414d7a89ff4e1dd6c2d59f26e3862180f48f86847091",
}


def _rows_digest(rows) -> str:
    doc = json.dumps([r.as_dict() for r in rows], sort_keys=True)
    return hashlib.sha256(doc.encode()).hexdigest()


def _counter(outcome: str) -> float:
    m = metrics().get(f"datasets.field_cache_{outcome}_total")
    return 0 if m is None else m.value


@pytest.fixture(autouse=True)
def _empty_source():
    clear_field_cache()
    yield
    clear_field_cache()


@pytest.fixture
def miss_tally(monkeypatch):
    """Misses counted across this process and every worker forked
    after the fixture runs (a forked worker inherits the patched hook;
    its own registry never reaches the parent)."""
    if multiprocessing.get_start_method(allow_none=False) != "fork":
        pytest.skip("counting worker misses needs fork-started pools")
    tally = multiprocessing.Value("i", 0)
    count = source._count

    def counting(outcome):
        count(outcome)
        if outcome == "misses":
            with tally.get_lock():
                tally.value += 1

    monkeypatch.setattr(source, "_count", counting)
    return tally


# ---------------------------------------------------------------------------
# the source itself
# ---------------------------------------------------------------------------


class TestLoadField:
    @pytest.mark.parametrize("dataset", sorted(SWEEPS))
    def test_bytes_equal_generated_field(self, dataset):
        for name in SWEEPS[dataset]["fields"]:
            want = get_dataset(dataset).field(name)
            got = load_field(dataset, name)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_scale_is_part_of_the_key(self):
        small = load_field("ATM", "TS", scale=0.05)
        assert small.tobytes() == get_dataset("ATM", 0.05).field("TS").tobytes()
        assert load_field("ATM", "TS").shape == get_dataset("ATM").shape

    def test_read_only_and_reused(self):
        a = load_field("ATM", "CLDHGH")
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0, 0] = 1.0
        assert load_field("ATM", "CLDHGH") is a

    def test_generator_stays_uncached_and_writable(self):
        load_field("ATM", "CLDHGH")
        direct = get_dataset("ATM").field("CLDHGH")
        assert direct.flags.writeable
        assert direct is not load_field("ATM", "CLDHGH")

    def test_counts_hits_and_misses(self, monkeypatch):
        calls = []
        generate = Dataset.field
        monkeypatch.setattr(
            Dataset, "field",
            lambda self, name: calls.append(name) or generate(self, name),
        )
        hits0, misses0 = _counter("hits"), _counter("misses")
        for _ in range(3):
            load_field("ATM", "PSL")
        assert calls == ["PSL"]  # a miss is a Dataset.field call
        assert _counter("misses") - misses0 == 1
        assert _counter("hits") - hits0 == 2
        assert not metrics().get("datasets.field_cache_hits_total").deterministic

    def test_entry_bound_evicts_least_recent(self):
        names = get_dataset("ATM").field_names[: source.MAX_ENTRIES + 2]
        for name in names:
            load_field("ATM", name, scale=0.05)
        load_field("ATM", names[2], scale=0.05)  # refresh one old entry
        misses0 = _counter("misses")
        load_field("ATM", names[2], scale=0.05)
        load_field("ATM", names[-1], scale=0.05)
        assert _counter("misses") == misses0
        load_field("ATM", names[0], scale=0.05)  # evicted first
        assert _counter("misses") == misses0 + 1

    def test_byte_bound(self, monkeypatch):
        monkeypatch.setattr(source, "MAX_BYTES", 300_000)  # one ATM field
        first = load_field("ATM", "TS")
        assert load_field("ATM", "TS") is first
        load_field("ATM", "PSL")  # evicts TS to stay under the bound
        misses0 = _counter("misses")
        load_field("ATM", "TS")
        assert _counter("misses") == misses0 + 1
        big = load_field("NYX", "temperature")  # over the bound: uncached
        assert not big.flags.writeable
        assert load_field("NYX", "temperature") is not big

    def test_concurrent_loads_generate_once(self, monkeypatch):
        """Eight threads (more than cores), a tiny switch interval, and
        three fields: each field is generated once, every load is
        counted once, and every thread gets the cached array."""
        calls = []
        generate = Dataset.field

        def counting(self, name):
            calls.append(name)
            return generate(self, name)

        monkeypatch.setattr(Dataset, "field", counting)
        names = ["velocity_x", "velocity_y", "velocity_z"]
        gate = threading.Barrier(8)
        out = {}

        def worker(k):
            gate.wait()
            out[k] = [load_field("NYX", n) for n in names * 5]

        hits0, misses0 = _counter("hits"), _counter("misses")
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=worker, args=(k,)) for k in range(8)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(switch)
        assert not any(t.is_alive() for t in threads)
        assert sorted(calls) == names
        assert _counter("misses") - misses0 == 3
        assert _counter("hits") - hits0 == 8 * 15 - 3
        first = {n: load_field("NYX", n) for n in names}
        assert all(
            a is first[n] for got in out.values()
            for a, n in zip(got, names * 5)
        )

    def test_unknown_names_raise_like_the_registry(self):
        from repro.errors import ParameterError

        with pytest.raises(ParameterError):
            load_field("NOPE", "TS")
        with pytest.raises(Exception) as want:
            get_dataset("ATM").field("NOPE")
        with pytest.raises(want.type):
            load_field("ATM", "NOPE")
        assert not source._cache.loading


# ---------------------------------------------------------------------------
# sweeps: same rows on every path, each field generated once
# ---------------------------------------------------------------------------


class TestSweepRows:
    @pytest.mark.parametrize("dataset", sorted(SWEEPS))
    def test_serial_rows_match_parent(self, dataset):
        rows = sweep_dataset(dataset, **SWEEPS[dataset])
        assert [(r.target_psnr, r.field) for r in rows] == [
            (t, f) for t in SWEEPS[dataset]["targets"]
            for f in SWEEPS[dataset]["fields"]
        ]
        assert _rows_digest(rows) == DIGESTS[dataset]

    @pytest.mark.parametrize("workers", [1, 2, 4])
    @pytest.mark.parametrize("dataset", sorted(SWEEPS))
    def test_pool_rows_match_parent(self, dataset, workers):
        rows = sweep_dataset(dataset, n_workers=workers, **SWEEPS[dataset])
        assert _rows_digest(rows) == DIGESTS[dataset]

    @pytest.mark.parametrize("kind", ["process", "thread"])
    @pytest.mark.parametrize("dataset", sorted(SWEEPS))
    def test_executor_rows_match_parent(self, dataset, kind):
        with Executor(n_workers=2, kind=kind) as ex:
            first = sweep_dataset(dataset, executor=ex, **SWEEPS[dataset])
            again = sweep_dataset(dataset, executor=ex, **SWEEPS[dataset])
        assert _rows_digest(first) == DIGESTS[dataset]
        assert _rows_digest(again) == DIGESTS[dataset]

    @pytest.mark.parametrize("workers", [0, 2])
    @pytest.mark.parametrize("dataset", sorted(SWEEPS))
    def test_retry_rows_match_parent(self, dataset, workers):
        from repro.resilience.retry import RetryPolicy

        rows = sweep_dataset(
            dataset, n_workers=workers, retry=RetryPolicy(max_retries=1),
            **SWEEPS[dataset],
        )
        assert _rows_digest(rows) == DIGESTS[dataset]

    def test_transform_codec_pool_matches_serial(self):
        kw = dict(targets=[60.0], fields=["CLDHGH", "FLDS"], codec="transform")
        serial = sweep_dataset("ATM", **kw)
        pooled = sweep_dataset("ATM", n_workers=2, **kw)
        assert [r.as_dict() for r in serial] == [r.as_dict() for r in pooled]

    def test_faulted_retry_matches_between_serial_and_pool(self):
        from repro.resilience.inject import WorkerFault
        from repro.resilience.retry import RetryPolicy

        kw = dict(
            retry=RetryPolicy(max_retries=1, backoff_base=0.01, seed=0),
            fault=WorkerFault("exception", fields=("FLDS",), fail_attempts=1),
            **SWEEPS["ATM"],
        )
        serial = sweep_dataset("ATM", **kw)
        pooled = sweep_dataset("ATM", n_workers=2, **kw)
        assert [r.as_dict() for r in serial] == [r.as_dict() for r in pooled]
        assert {r.attempts for r in serial if r.field == "FLDS"} == {2}


class TestGenerationCount:
    """A full ATM sweep (79 fields x 3 targets) generates 79 fields,
    not one per task."""

    KW = dict(targets=[40.0, 60.0, 80.0], scale=0.05)

    def test_serial_sweep(self):
        hits0, misses0 = _counter("hits"), _counter("misses")
        rows = sweep_dataset("ATM", **self.KW)
        assert len(rows) == 237
        assert _counter("misses") - misses0 == 79
        assert _counter("hits") - hits0 == 158

    def test_two_worker_sweep(self, miss_tally):
        rows = sweep_dataset("ATM", n_workers=2, **self.KW)
        assert len(rows) == 237
        assert miss_tally.value == 79

    def test_thread_executor_sweep(self):
        misses0 = _counter("misses")
        with Executor(n_workers=2, kind="thread") as ex:
            sweep_dataset("ATM", executor=ex, **self.KW)
        assert _counter("misses") - misses0 == 79

    def test_few_fields_spread_over_workers(self, miss_tally):
        targets = [30.0, 40.0, 50.0, 60.0, 70.0, 80.0, 90.0, 100.0]
        rows = sweep_dataset(
            "NYX", n_workers=4, fields=["temperature"], targets=targets
        )
        assert len(rows) == 8
        # Eight tasks spread over four workers, each of which generates
        # the field once.
        assert 1 <= miss_tally.value <= 4


# ---------------------------------------------------------------------------
# served jobs and read-only inputs
# ---------------------------------------------------------------------------


class TestJobs:
    @pytest.mark.parametrize("index", range(len(JOBS)))
    def test_blob_matches_parent_cold_and_warm(self, index):
        spec = JOBS[index]
        blobs = [run_compress_job(dict(spec))["blob"] for _ in range(2)]
        assert blobs[0] == blobs[1]
        assert hashlib.sha256(blobs[0]).hexdigest() == DIGESTS[f"job{index}"]

    def test_warm_job_is_a_hit(self):
        spec = dict(JOBS[0])
        run_compress_job(dict(spec))
        hits0, misses0 = _counter("hits"), _counter("misses")
        run_compress_job(dict(spec))
        assert (_counter("hits") - hits0, _counter("misses") - misses0) == (1, 0)

    @pytest.mark.parametrize("kind", ["thread", "process"])
    def test_served_blobs_match_parent(self, kind):
        from repro.service.testing import ServiceThread

        with ServiceThread(n_workers=2, kind=kind, no_ledger=True) as st:
            client = st.client()
            for index, spec in enumerate(JOBS * 2):  # cold, then warm
                job = client.submit_compress(
                    spec["dataset"], spec["field"], mode=spec["mode"],
                    target=spec["target"],
                )
                assert client.wait(job)["state"] == "done"
                digest = hashlib.sha256(client.fetch_blob(job)).hexdigest()
                assert digest == DIGESTS[f"job{index % len(JOBS)}"]


def _read_only(x):
    x = np.array(x)
    x.flags.writeable = False
    return x


class TestReadOnlyInput:
    """A read-only field compresses to the bytes of a writable copy."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("codec", ERROR_BOUNDED_CODECS)
    def test_error_bounded_codecs(self, codec, dtype):
        data = get_dataset("ATM").field("TS").astype(dtype)
        comp = FixedPSNRCompressor(60.0, codec=codec)
        assert comp.compress(_read_only(data)) == comp.compress(data.copy())

    def test_histogram_refinement(self):
        data = get_dataset("ATM").field("PRECL")
        comp = FixedPSNRCompressor(30.0, refine="histogram")
        assert comp.compress(_read_only(data)) == comp.compress(data.copy())

    @pytest.mark.parametrize(
        "options",
        [dict(mode="pw_rel"), dict(mode="abs", fill_value=-9999.0)],
        ids=["pw_rel", "fill_value"],
    )
    def test_sz_modes(self, options):
        from repro.sz.compressor import SZCompressor

        data = get_dataset("ATM").field("TS").astype(np.float64)
        if "fill_value" in options:
            data[::7, ::5] = -9999.0
        comp = SZCompressor(1e-3, **options)
        assert comp.compress(_read_only(data)) == comp.compress(data.copy())

    def test_autotune(self):
        from repro.autotune import autotune

        data = get_dataset("ATM").field("TS")
        a = autotune(_read_only(data), "ratio", 10.0, max_trials=8)
        b = autotune(data.copy(), "ratio", 10.0, max_trials=8)
        assert a.blob == b.blob and a.eb_rel == b.eb_rel
