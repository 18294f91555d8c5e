"""One blob-cache record for every entry point.

``fpzc compress --psnr --cache``, sweep tasks, served compress and
sweep jobs, the service's admission check and the cluster router's
route key all go through :mod:`repro.cache.record`.  These tests pin
that an entry one path writes is a hit for the others, that entries
written with the older ``fpzc compress`` metadata (no ``bit_rate`` or
``eb_rel``) are hits, and that every path builds the same key.
"""

from pathlib import Path

import numpy as np
import pytest

from repro.cache import (
    CacheStore,
    blob_key,
    blob_meta,
    compress_psnr,
    data_digest,
    psnr_key,
    read_meta,
)
from repro.cli.main import main
from repro.core.fixed_psnr import FixedPSNRCompressor
from repro.datasets.registry import get_dataset
from repro.metrics.distortion import psnr
from repro.parallel.executor import run_field_task
from repro.service.tasks import run_compress_job, run_sweep_job

DATASET, FIELD, TARGET = "ATM", "CLDHGH", 60.0


@pytest.fixture(scope="module")
def field():
    return get_dataset(DATASET).field(FIELD)


@pytest.fixture
def field_npy(tmp_path, capsys):
    path = tmp_path / "field.npy"
    assert main(["gen", DATASET, FIELD, "-o", str(path)]) == 0
    capsys.readouterr()
    return str(path)


def _compress(field_npy, cache, out, *extra):
    return main([
        "compress", field_npy, "-o", str(out), "--psnr", str(TARGET),
        "--cache", "--cache-dir", str(cache), "--no-ledger", *extra,
    ])


def _sweep(cache, *extra):
    return main([
        "sweep", DATASET, "--fields", FIELD, "--targets", str(TARGET),
        "--cache", "--cache-dir", str(cache), "--no-ledger", *extra,
    ])


def _served_sweep(cache):
    return run_sweep_job({
        "dataset": DATASET, "fields": [FIELD], "targets": [TARGET],
        "cache": {"dir": str(cache)},
    })


def _served_compress(cache):
    return run_compress_job({
        "dataset": DATASET, "field": FIELD, "mode": "psnr",
        "target": TARGET, "cache": {"dir": str(cache)},
    })


def _only_key(root) -> str:
    keys = [key for key, _ in CacheStore(root=str(root)).iter_meta()]
    assert len(keys) == 1, keys
    return keys[0]


class TestSharedEntries:
    def test_cli_compress_entry_hits_sweeps(self, tmp_path, field_npy, capsys):
        cache = tmp_path / "cache"
        assert _compress(field_npy, cache, tmp_path / "f.fpz") == 0
        assert "cache: miss, stored" in capsys.readouterr().err
        assert _sweep(cache) == 0
        assert "cache: 1 hit(s) / 0 miss(es)" in capsys.readouterr().err
        # The second sweep hits too: the first did not leave a miss.
        assert _sweep(cache) == 0
        assert "cache: 1 hit(s) / 0 miss(es)" in capsys.readouterr().err
        rows = _served_sweep(cache)["results"]
        assert [r["cache_hit"] for r in rows] == [True]
        assert _served_compress(cache).get("cached") is True

    def test_sweep_entry_hits_cli_and_served_jobs(
        self, tmp_path, field_npy, capsys
    ):
        cache = tmp_path / "cache"
        assert _sweep(cache) == 0
        assert "cache: 0 hit(s) / 1 miss(es)" in capsys.readouterr().err
        assert _compress(field_npy, cache, tmp_path / "f.fpz") == 0
        captured = capsys.readouterr()
        assert "cache: hit" in captured.err
        assert f"(target {TARGET:g}, cached)" in captured.out
        assert _served_compress(cache).get("cached") is True
        rows = _served_sweep(cache)["results"]
        assert [r["cache_hit"] for r in rows] == [True]

    def test_hit_rows_equal_fresh_rows(self, tmp_path, field):
        store = CacheStore(root=str(tmp_path / "cache"))
        fresh = run_field_task(DATASET, FIELD, TARGET)
        cold = run_field_task(DATASET, FIELD, TARGET, cache=store)
        warm = run_field_task(DATASET, FIELD, TARGET, cache=store)
        assert (cold.cache_hit, warm.cache_hit) == (False, True)
        assert cold == fresh and warm == fresh
        assert warm.eb_rel == fresh.eb_rel
        assert warm.bit_rate == fresh.bit_rate

    def test_older_cli_metadata_is_a_hit(self, tmp_path, field):
        """An entry with the metadata ``fpzc compress`` wrote before the
        record had one owner: no ``bit_rate``, no ``eb_rel``."""
        store = CacheStore(root=str(tmp_path / "cache"))
        blob = FixedPSNRCompressor(TARGET).compress(field)
        achieved = float(psnr(field, FixedPSNRCompressor.decompress(blob)))
        key = blob_key(
            data_digest(field), codec="sz", mode="psnr", target=TARGET
        )
        store.put(key, blob, {
            "kind": "blob", "dataset": "field.npy", "codec": "sz",
            "mode": "psnr", "target": TARGET,
            "metrics": {
                "achieved_psnr": achieved,
                "achieved": achieved,
                "ratio": field.nbytes / len(blob),
                "raw_bytes": int(field.nbytes),
                "compressed_bytes": len(blob),
            },
        })
        warm = run_field_task(DATASET, FIELD, TARGET, cache=store)
        assert warm.cache_hit
        assert warm == run_field_task(DATASET, FIELD, TARGET)
        job = _served_compress(store.root)
        fresh_job = run_compress_job({
            "dataset": DATASET, "field": FIELD, "mode": "psnr",
            "target": TARGET,
        })
        assert job["cached"] is True and "cached" not in fresh_job
        for name in ("blob", "eb_rel", "achieved_psnr", "ratio"):
            assert job[name] == fresh_job[name], name

    def test_entry_without_achieved_psnr_is_recompressed(
        self, tmp_path, field
    ):
        store = CacheStore(root=str(tmp_path / "cache"))
        key = psnr_key(data_digest(field), TARGET)
        blob = FixedPSNRCompressor(TARGET).compress(field)
        store.put(key, blob, {"kind": "blob", "mode": "psnr"})
        rec = compress_psnr(field, TARGET, store=store)
        assert not rec.hit and rec.blob == blob
        # The rejected entry was replaced, so the next call hits it.
        again = compress_psnr(field, TARGET, store=store)
        assert again.hit and again.blob == blob
        assert again.achieved_psnr == rec.achieved_psnr
        meta = store.get(key).meta
        assert meta["metrics"]["achieved_psnr"] == rec.achieved_psnr


    def test_entry_of_the_previous_encoder_misses(
        self, tmp_path, field, monkeypatch
    ):
        """An entry written under cache schema 1 holds a blob whose
        Huffman payload was deflated at level 6, as every payload was
        before the run-length rule.  Its ratio and bit rate differ from
        a fresh compress, so it is not replayed: the fresh blob is
        stored and hit from then on."""
        import repro.cache.store as store_module
        import repro.encoding.codes as codes

        store = CacheStore(root=str(tmp_path / "cache"))
        with monkeypatch.context() as m:
            m.setattr(store_module, "CACHE_SCHEMA_VERSION", 1)
            m.setattr(codes, "RLE_BITS_PER_SYMBOL", float("inf"))
            old = run_field_task(DATASET, FIELD, TARGET, cache=store)
        fresh = run_field_task(DATASET, FIELD, TARGET)
        assert old != fresh and old.bit_rate != fresh.bit_rate
        cold = run_field_task(DATASET, FIELD, TARGET, cache=store)
        warm = run_field_task(DATASET, FIELD, TARGET, cache=store)
        assert (cold.cache_hit, warm.cache_hit) == (False, True)
        assert cold == fresh and warm == fresh
        assert len(list(store.iter_meta())) == 1


class TestOneKey:
    def test_every_path_builds_the_same_key(self, tmp_path, field_npy, capsys):
        from repro.cluster.membership import Membership
        from repro.cluster.ring import HashRing
        from repro.cluster.router import ClusterRouter
        from repro.service.jobs import JobSpec
        from repro.service.testing import ServiceThread

        expected = psnr_key(data_digest(np.load(field_npy)), TARGET)
        assert _compress(field_npy, tmp_path / "c1", tmp_path / "f.fpz") == 0
        run_field_task(
            DATASET, FIELD, TARGET,
            cache=CacheStore(root=str(tmp_path / "c2")),
        )
        _served_compress(tmp_path / "c3")
        capsys.readouterr()
        keys = [_only_key(tmp_path / c) for c in ("c1", "c2", "c3")]
        payload = {
            "dataset": DATASET, "field": FIELD, "mode": "psnr",
            "target": TARGET, "codec": "sz",
        }
        with ServiceThread(
            no_ledger=True, cache_dir=str(tmp_path / "c4")
        ) as st:
            keys.append(
                st.service._cache_key(JobSpec.from_payload("compress", payload))
            )
        router = ClusterRouter(
            HashRing(("http://n1:1",)),
            Membership(("http://n1:1",), probe=lambda url: True),
        )
        keys.append(router.route_key("compress", payload))
        assert keys == [expected] * 5

    def test_keys_are_the_ones_stores_already_hold(self, tmp_path, capsys):
        """Keys recorded from an earlier build, whose keys named an
        entropy option: a change to what a key hashes would only show as
        misses in users' stores."""
        golden = Path(__file__).parent / "golden" / "field.npy"
        assert psnr_key(data_digest(np.load(golden)), 60.0) == (
            "c779c0537936a2ee04ed14bcd9dd5f3783b60967b805d38227f277252c5e3271"
        )
        assert main([
            "compress", str(golden), "-o", str(tmp_path / "f.fpz"),
            "--abs", "1e-3", "--cache", "--cache-dir", str(tmp_path / "c"),
            "--no-ledger",
        ]) == 0
        capsys.readouterr()
        assert _only_key(tmp_path / "c") == (
            "9f48f0d810e391ecd117d9c6bad37e4773a450332899cfd42778d216114589a8"
        )


class TestFieldDigest:
    def test_admissions_and_route_key_generate_a_field_once(
        self, tmp_path, monkeypatch, field
    ):
        """Two admission-time hits and a route key for one registry
        field generate it once in this process, under the key
        compress_psnr stored the field's blob at."""
        from repro.cache.record import field_digest
        from repro.cluster.membership import Membership
        from repro.cluster.ring import HashRing
        from repro.cluster.router import ClusterRouter
        from repro.datasets.registry import Dataset
        from repro.service.testing import ServiceThread

        rec = compress_psnr(
            field, TARGET, store=CacheStore(root=str(tmp_path / "c"))
        )
        calls = []
        generate = Dataset.field

        def counted(self, name):
            calls.append(name)
            return generate(self, name)

        monkeypatch.setattr(Dataset, "field", counted)
        field_digest.cache_clear()
        payload = {
            "dataset": DATASET, "field": FIELD, "mode": "psnr",
            "target": TARGET, "codec": "sz",
        }
        with ServiceThread(
            no_ledger=True, cache_dir=str(tmp_path / "c")
        ) as st:
            client = st.client()
            docs = [client.submit_doc("compress", payload) for _ in range(2)]
        assert [doc.get("cached") for doc in docs] == [True, True]
        router = ClusterRouter(
            HashRing(("http://n1:1",)),
            Membership(("http://n1:1",), probe=lambda url: True),
        )
        assert router.route_key("compress", payload) == rec.key
        assert calls == [FIELD]

    def test_memo_is_bounded(self):
        from repro.cache.record import FIELD_DIGESTS, field_digest

        field_digest.cache_clear()
        for i in range(FIELD_DIGESTS + 8):
            assert field_digest(f"NO-SUCH-DATASET-{i}", FIELD, None) is None
            assert field_digest.cache_info().currsize <= FIELD_DIGESTS
        assert field_digest.cache_info().currsize == FIELD_DIGESTS


class TestMetadata:
    def test_written_document_reads_back(self, field):
        blob = FixedPSNRCompressor(TARGET).compress(field)
        meta = blob_meta(
            field, blob, codec="sz", mode="psnr", target=TARGET,
            achieved_psnr=61.5, eb_rel=1e-3,
        )
        assert meta["metrics"]["bit_rate"] == 8.0 * len(blob) / field.size
        assert read_meta(meta) == {
            "achieved_psnr": 61.5,
            "achieved": 61.5,
            "ratio": field.nbytes / len(blob),
        }

    def test_unreadable_fields_read_as_none(self):
        assert read_meta({"metrics": {"achieved_psnr": "x"}}) == {
            "achieved_psnr": None, "achieved": None, "ratio": None,
        }
        assert read_meta({"metrics": None})["achieved_psnr"] is None
