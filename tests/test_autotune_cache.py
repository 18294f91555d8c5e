"""Unit tests for trial memoization and ledger warm starts
(repro.autotune.cache)."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.autotune.cache import TrialCache, warm_start
from repro.autotune.objective import Trial, get_objective
from repro.cache.store import data_digest


def make_trial(eb, value):
    return Trial(
        eb_rel=float(eb),
        value=float(value),
        ratio=float(value),
        bit_rate=1.0,
        psnr=60.0,
        nrmse=1e-4,
        max_abs_error=0.1,
        raw_bytes=100,
        compressed_bytes=10,
    )


class TestFingerprint:
    """Trials are keyed by the package's one array fingerprint,
    :func:`repro.cache.store.data_digest`."""

    def test_deterministic(self, smooth2d):
        assert data_digest(smooth2d) == data_digest(smooth2d)

    def test_sensitive_to_content(self, smooth2d):
        other = np.array(smooth2d)
        other.flat[0] += 1e-9
        assert data_digest(smooth2d) != data_digest(other)

    def test_sensitive_to_dtype_and_shape(self):
        a = np.zeros((4, 4), dtype=np.float64)
        assert data_digest(a) != data_digest(a.astype(np.float32))
        assert data_digest(a) != data_digest(a.reshape(2, 8))

    def test_non_contiguous_view_matches_copy(self, smooth2d):
        view = np.asarray(smooth2d)[::2, ::2]
        assert data_digest(view) == data_digest(np.ascontiguousarray(view))


class TestTrialCache:
    def test_miss_then_hit(self):
        cache = TrialCache()
        assert cache.get("fp", "sz", "ratio", 1e-3) is None
        cache.put("fp", "sz", "ratio", make_trial(1e-3, 10.0))
        hit = cache.get("fp", "sz", "ratio", 1e-3)
        assert hit is not None and hit.cached
        assert cache.hits == 1 and cache.misses == 1
        assert cache.hit_ratio == pytest.approx(0.5)

    def test_key_discriminates_every_axis(self):
        cache = TrialCache()
        cache.put("fp", "sz", "ratio", make_trial(1e-3, 10.0))
        assert cache.get("other", "sz", "ratio", 1e-3) is None
        assert cache.get("fp", "transform", "ratio", 1e-3) is None
        assert cache.get("fp", "sz", "bitrate", 1e-3) is None
        assert cache.get("fp", "sz", "ratio", 1.0000001e-3) is None

    def test_exact_bound_matching_uses_float_hex(self):
        cache = TrialCache()
        eb = 0.1 + 0.2  # 0.30000000000000004
        cache.put("fp", "sz", "ratio", make_trial(eb, 10.0))
        assert cache.get("fp", "sz", "ratio", 0.3) is None
        assert cache.get("fp", "sz", "ratio", eb) is not None

    def test_wrap_memoizes(self):
        cache = TrialCache()
        calls = []

        def evaluate(eb):
            calls.append(eb)
            return make_trial(eb, 10.0)

        wrapped = cache.wrap(evaluate, "fp", "sz", "ratio")
        first = wrapped(1e-3)
        second = wrapped(1e-3)
        assert len(calls) == 1
        assert not first.cached and second.cached
        # Outcomes identical apart from the cached flag.
        assert second.replace(cached=False) == first


class TestFormatVersionInKey:
    """A trial's measurements describe blobs in one container format;
    a format bump must orphan them (regression: the fingerprint key
    once omitted the version, replaying stale sizes after a bump)."""

    def test_memory_level_misses_after_bump(self, monkeypatch):
        from repro.io import container

        cache = TrialCache()
        cache.put("fp", "sz", "ratio", make_trial(1e-3, 10.0))
        assert cache.get("fp", "sz", "ratio", 1e-3) is not None
        monkeypatch.setattr(container, "VERSION", container.VERSION + 1)
        assert cache.get("fp", "sz", "ratio", 1e-3) is None

    def test_store_level_misses_after_bump(self, tmp_path, monkeypatch):
        from repro.cache import CacheStore
        from repro.io import container

        store = CacheStore(root=str(tmp_path / "cache"))
        cache = TrialCache(store=store)
        cache.put("fp", "sz", "ratio", make_trial(1e-3, 10.0))
        # A fresh TrialCache (new process) hits through the store ...
        rerun = TrialCache(store=store)
        assert rerun.get("fp", "sz", "ratio", 1e-3) is not None
        assert rerun.store_hits == 1
        # ... but not across a format bump.
        monkeypatch.setattr(container, "VERSION", container.VERSION + 1)
        bumped = TrialCache(store=store)
        assert bumped.get("fp", "sz", "ratio", 1e-3) is None
        assert bumped.store_hits == 0


class TestWarmStart:
    def _autotune_entry(self, eb, achieved, objective="ratio", codec="sz"):
        return SimpleNamespace(
            kind="autotune",
            codec=codec,
            achieved=achieved,
            extra={"objective": objective, "eb_rel": eb},
        )

    def test_prior_autotune_runs_interpolate(self):
        obj = get_objective("ratio", 20.0)
        entries = [
            self._autotune_entry(1e-4, 5.0),
            self._autotune_entry(1e-2, 50.0),
        ]
        guess = warm_start(obj, entries)
        # Log-log interpolation of a power law through (1e-4, 5) and
        # (1e-2, 50): value 20 lands at 10^(-4 + 2*log10(4)).
        assert guess == pytest.approx(10 ** (-4 + 2 * np.log10(4.0)), rel=1e-6)

    def test_single_prior_run_reused_directly(self):
        obj = get_objective("ratio", 10.0)
        guess = warm_start(obj, [self._autotune_entry(2e-3, 9.8)])
        assert guess == pytest.approx(2e-3)

    def test_objective_and_codec_must_match(self):
        obj = get_objective("ratio", 10.0)
        assert warm_start(obj, [
            self._autotune_entry(1e-3, 10.0, objective="bitrate"),
        ]) is None
        assert warm_start(obj, [
            self._autotune_entry(1e-3, 10.0, codec="transform"),
        ]) is None

    def test_sibling_compress_records_via_eq8(self):
        from repro.core.fixed_psnr import psnr_to_relative_bound

        obj = get_objective("ratio", 10.0)
        sibling = SimpleNamespace(
            kind="compress", codec="sz", dataset="ATM",
            achieved_psnr=64.0, ratio=10.0,
        )
        guess = warm_start(obj, [sibling])
        assert guess == pytest.approx(psnr_to_relative_bound(64.0))

    def test_siblings_ignored_for_quality_objectives(self):
        obj = get_objective("nrmse", 1e-4)
        sibling = SimpleNamespace(
            kind="compress", codec="sz", dataset="ATM",
            achieved_psnr=64.0, ratio=10.0,
        )
        assert warm_start(obj, [sibling]) is None

    def test_dataset_filter_applies_to_siblings(self):
        obj = get_objective("ratio", 10.0)
        sibling = SimpleNamespace(
            kind="compress", codec="sz", dataset="NYX",
            achieved_psnr=64.0, ratio=10.0,
        )
        assert warm_start(obj, [sibling], dataset="ATM") is None
        assert warm_start(obj, [sibling], dataset="NYX") is not None

    def test_empty_or_useless_ledger_returns_none(self):
        obj = get_objective("ratio", 10.0)
        assert warm_start(obj, []) is None
        junk = SimpleNamespace(
            kind="compress", codec="sz", dataset="",
            achieved_psnr=None, ratio=None,
        )
        assert warm_start(obj, [junk]) is None
