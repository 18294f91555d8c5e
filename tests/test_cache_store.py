"""Unit tests for the content-addressed compression cache
(repro.cache): key schema, on-disk round trips, write-once semantics,
corruption self-healing, LRU eviction and format-version invalidation.
"""

import numpy as np
import pytest

from repro.cache import (
    CACHE_SCHEMA_VERSION,
    CacheStore,
    blob_key,
    cache_path,
    data_digest,
    trial_key,
)

DIGEST = "d" * 64


def _store(tmp_path, **kw) -> CacheStore:
    return CacheStore(root=str(tmp_path / "cache"), **kw)


class TestDataDigest:
    def test_deterministic(self, smooth2d):
        assert data_digest(smooth2d) == data_digest(smooth2d)

    def test_sensitive_to_content_dtype_shape(self):
        a = np.zeros((4, 4), dtype=np.float64)
        b = np.array(a)
        b.flat[0] = 1e-12
        assert data_digest(a) != data_digest(b)
        assert data_digest(a) != data_digest(a.astype(np.float32))
        assert data_digest(a) != data_digest(a.reshape(2, 8))

    def test_non_contiguous_view_matches_copy(self, smooth2d):
        view = np.asarray(smooth2d)[::2, ::2]
        assert data_digest(view) == data_digest(np.ascontiguousarray(view))


class TestKeySchema:
    def test_key_discriminates_every_axis(self):
        base = blob_key(DIGEST, codec="sz", mode="psnr", target=60.0)
        assert blob_key("e" * 64, codec="sz", mode="psnr", target=60.0) != base
        assert blob_key(DIGEST, codec="transform", mode="psnr", target=60.0) != base
        assert blob_key(DIGEST, codec="sz", mode="nrmse", target=60.0) != base
        assert blob_key(DIGEST, codec="sz", mode="psnr", target=61.0) != base
        assert blob_key(DIGEST, codec="sz", mode="psnr", bound=60.0) != base
        assert (
            blob_key(DIGEST, codec="sz", mode="psnr", target=60.0, refine="histogram")
            != base
        )

    def test_none_options_drop_out(self):
        bare = blob_key(DIGEST, codec="sz", mode="psnr", target=60.0)
        assert (
            blob_key(DIGEST, codec="sz", mode="psnr", target=60.0, chunks=None)
            == bare
        )
        assert (
            blob_key(DIGEST, codec="sz", mode="psnr", target=60.0, chunks=8)
            != bare
        )

    def test_targets_enter_exactly(self):
        # float.hex keying: 0.1 + 0.2 != 0.3 must be two distinct keys.
        eps = 0.1 + 0.2
        assert blob_key(DIGEST, codec="sz", mode="psnr", target=eps) != blob_key(
            DIGEST, codec="sz", mode="psnr", target=0.3
        )

    def test_trial_key_discriminates(self):
        base = trial_key(DIGEST, codec="sz", objective="ratio", eb_rel=1e-3)
        assert trial_key(DIGEST, codec="sz", objective="ratio", eb_rel=2e-3) != base
        assert trial_key(DIGEST, codec="sz", objective="bitrate", eb_rel=1e-3) != base
        assert base != blob_key(DIGEST, codec="sz", mode="ratio", target=1e-3)

    def test_format_version_bump_changes_keys(self, monkeypatch):
        from repro.io import container

        before_blob = blob_key(DIGEST, codec="sz", mode="psnr", target=60.0)
        before_trial = trial_key(DIGEST, codec="sz", objective="ratio", eb_rel=1e-3)
        monkeypatch.setattr(container, "VERSION", container.VERSION + 1)
        assert blob_key(DIGEST, codec="sz", mode="psnr", target=60.0) != before_blob
        assert (
            trial_key(DIGEST, codec="sz", objective="ratio", eb_rel=1e-3)
            != before_trial
        )


class TestRoundTrip:
    def test_put_get(self, tmp_path):
        store = _store(tmp_path)
        key = blob_key(DIGEST, codec="sz", mode="psnr", target=60.0)
        payload = b"\x00\x01compressed bytes\xff" * 7
        assert store.get(key) is None
        assert store.put(key, payload, {"kind": "blob", "target": 60.0})
        entry = store.get(key)
        assert entry is not None
        assert entry.key == key
        assert entry.payload == payload
        assert entry.meta["kind"] == "blob"
        assert entry.meta["target"] == 60.0
        assert entry.meta["payload_len"] == len(payload)

    def test_write_once(self, tmp_path):
        store = _store(tmp_path)
        key = "ab" + "0" * 62
        assert store.put(key, b"first", {"kind": "blob"})
        assert not store.put(key, b"first", {"kind": "blob"})
        assert store.get(key).payload == b"first"

    def test_sharded_layout(self, tmp_path):
        store = _store(tmp_path)
        key = "cafe" + "0" * 60
        store.put(key, b"x", {})
        path = store.path_for(key)
        assert path.exists()
        assert path.parent.name == "ca"
        assert path.name == key + ".fpze"

    def test_len_and_total_bytes(self, tmp_path):
        store = _store(tmp_path)
        assert len(store) == 0 and store.total_bytes() == 0
        store.put("aa" + "0" * 62, b"x" * 100, {})
        store.put("bb" + "0" * 62, b"y" * 100, {})
        assert len(store) == 2
        assert store.total_bytes() >= 200

    def test_iter_meta(self, tmp_path):
        store = _store(tmp_path)
        store.put("aa" + "0" * 62, b"x", {"kind": "blob", "tag": 1})
        store.put("bb" + "0" * 62, b"y", {"kind": "trial", "tag": 2})
        seen = dict(store.iter_meta())
        assert set(seen) == {"aa" + "0" * 62, "bb" + "0" * 62}
        assert {m["kind"] for m in seen.values()} == {"blob", "trial"}

    def test_clear(self, tmp_path):
        store = _store(tmp_path)
        store.put("aa" + "0" * 62, b"x", {})
        store.put("bb" + "0" * 62, b"y", {})
        assert store.clear() == 2
        assert len(store) == 0


class TestSelfHeal:
    def _put_one(self, tmp_path):
        store = _store(tmp_path)
        key = "ee" + "0" * 62
        store.put(key, b"precious payload bytes", {"kind": "blob"})
        return store, key, store.path_for(key)

    def test_flipped_payload_byte_is_a_deleted_miss(self, tmp_path):
        store, key, path = self._put_one(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0xFF
        path.write_bytes(bytes(raw))
        assert store.get(key) is None
        assert not path.exists()  # self-healed, next put repopulates
        assert store.put(key, b"precious payload bytes", {"kind": "blob"})

    def test_truncated_entry_is_a_deleted_miss(self, tmp_path):
        store, key, path = self._put_one(tmp_path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 5])
        assert store.get(key) is None
        assert not path.exists()

    def test_bad_magic_is_a_deleted_miss(self, tmp_path):
        store, key, path = self._put_one(tmp_path)
        raw = path.read_bytes()
        path.write_bytes(b"XXXX" + raw[4:])
        assert store.get(key) is None
        assert not path.exists()


class TestEviction:
    def _aged_entries(self, store, sizes):
        """Put entries k0..kN with controlled ascending mtimes; returns
        their keys (k0 oldest)."""
        import os

        keys = []
        for i, size in enumerate(sizes):
            key = f"{i:02x}" + f"{i:062x}"
            store.put(key, bytes(size), {"kind": "blob"})
            os.utime(store.path_for(key), (1000.0 + i, 1000.0 + i))
            keys.append(key)
        return keys

    def test_lru_evicts_oldest_first(self, tmp_path):
        store = _store(tmp_path)
        keys = self._aged_entries(store, [4096, 4096, 4096])
        per_entry = store.total_bytes() // 3
        assert store.evict(max_bytes=2 * per_entry + 64) == 1
        assert store.get(keys[0], touch=False) is None
        assert store.get(keys[1], touch=False) is not None
        assert store.get(keys[2], touch=False) is not None

    def test_hit_touch_protects_hot_keys(self, tmp_path):
        store = _store(tmp_path)
        keys = self._aged_entries(store, [4096, 4096])
        per_entry = store.total_bytes() // 2
        # A hit on the older entry bumps its mtime past the younger's.
        assert store.get(keys[0]) is not None
        assert store.evict(max_bytes=per_entry + 64) == 1
        assert store.get(keys[0], touch=False) is not None
        assert store.get(keys[1], touch=False) is None

    def test_put_with_bound_evicts_inline(self, tmp_path):
        store = _store(tmp_path, max_bytes=6000)
        keys = self._aged_entries(store, [4096])
        store.put("ff" + "0" * 62, bytes(4096), {"kind": "blob"})
        assert store.get(keys[0], touch=False) is None
        assert store.total_bytes() <= 6000

    def test_unbounded_store_never_evicts(self, tmp_path):
        store = _store(tmp_path)
        self._aged_entries(store, [4096, 4096])
        assert store.evict() == 0
        assert len(store) == 2

    def test_stray_tmp_files_swept(self, tmp_path):
        store = _store(tmp_path, max_bytes=1 << 20)
        key = "aa" + "0" * 62
        store.put(key, b"x", {})
        stray = store.path_for(key).with_name("deadbeef.fpze.tmp999")
        stray.write_bytes(b"crashed writer leftovers")
        store.evict()
        assert not stray.exists()
        assert store.get(key, touch=False) is not None


class TestFormatVersionInvalidation:
    def test_bump_orphans_prior_entries_by_key_miss(self, tmp_path, monkeypatch):
        from repro.io import container

        store = _store(tmp_path)
        old_key = blob_key(DIGEST, codec="sz", mode="psnr", target=60.0)
        store.put(old_key, b"old-format blob", {"kind": "blob"})
        monkeypatch.setattr(container, "VERSION", container.VERSION + 1)
        new_key = blob_key(DIGEST, codec="sz", mode="psnr", target=60.0)
        assert new_key != old_key
        assert store.get(new_key) is None  # never replays the stale blob
        # The orphan is still on disk until LRU pressure removes it.
        assert store.get(old_key, touch=False) is not None


class TestDifferentialCachedVsFresh:
    @pytest.mark.parametrize("codec", ["sz", "transform"])
    def test_cached_blob_bit_identical_to_fresh(self, tmp_path, smooth2d, codec):
        from repro.core.fixed_psnr import FixedPSNRCompressor

        data = np.asarray(smooth2d, dtype=np.float32)
        comp = FixedPSNRCompressor(60.0, codec=codec)
        blob = comp.compress(data)
        store = _store(tmp_path)
        key = blob_key(data_digest(data), codec=codec, mode="psnr", target=60.0)
        store.put(key, blob, {"kind": "blob", "codec": codec})
        cached = store.get(key).payload
        assert cached == blob
        assert cached == FixedPSNRCompressor(60.0, codec=codec).compress(data)
        np.testing.assert_array_equal(
            FixedPSNRCompressor.decompress(cached),
            FixedPSNRCompressor.decompress(blob),
        )


class TestCachePathResolution:
    def test_override_wins(self, monkeypatch):
        monkeypatch.setenv("FPZC_CACHE", "/env/cache")
        assert str(cache_path("/explicit")) == "/explicit"

    def test_env_beats_default(self, monkeypatch):
        monkeypatch.setenv("FPZC_CACHE", "/env/cache")
        assert str(cache_path()) == "/env/cache"

    def test_default_is_dot_fpzc(self, monkeypatch):
        monkeypatch.delenv("FPZC_CACHE", raising=False)
        assert cache_path().parts[-2:] == (".fpzc", "cache")

    def test_negative_bound_rejected(self, tmp_path):
        from repro.errors import ParameterError

        with pytest.raises(ParameterError):
            CacheStore(root=str(tmp_path), max_bytes=-1)

    def test_schema_version_is_two(self):
        assert CACHE_SCHEMA_VERSION == 2
