"""Property-based round-trip tests across codecs, shapes and bounds.

Two invariants of the paper hold for *every* input, not just the fixed
test arrays, so they are checked over randomized inputs:

* **error bound** (Theorem 1): each reconstructed point is within
  ``eb_abs`` of the original (plus float slack);
* **PSNR floor** (Eq. 6 + |err| <= eb): uniform quantization with bin
  ``delta = 2*eb`` yields ``MSE <= eb**2``, i.e. measured PSNR is at
  least the Eq. 6 estimate minus ``10*log10(3)`` (~4.77 dB, the
  worst-case-vs-uniform-error gap).

When the ``hypothesis`` package is available the inputs are drawn by
its search strategies; otherwise a seeded parameter sweep covers the
same space deterministically.
"""

import numpy as np
import pytest

from repro.core.fixed_psnr import estimate_psnr_from_bound
from repro.metrics.distortion import max_abs_error, psnr
from repro.parallel.chunking import compress_chunked, decompress_chunked
from repro.sz.compressor import SZCompressor, decompress
from repro.transform.compressor import TransformCompressor

try:
    from hypothesis import HealthCheck, given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - environment without hypothesis
    HAVE_HYPOTHESIS = False

#: Worst-case-vs-uniform gap: Eq. 6 assumes uniform quantization error
#: (MSE = delta**2/12); the guaranteed bound is only MSE <= eb**2 =
#: delta**2/4.  The measured PSNR may undercut the estimate by at most
#: 10*log10(3).
PSNR_FLOOR_SLACK_DB = 10.0 * np.log10(3.0)

#: Relative slack for float arithmetic in the bound check.
BOUND_SLACK = 1e-5


def make_field(seed: int, shape, dtype, smooth: bool) -> np.ndarray:
    rng = np.random.default_rng(seed)
    x = rng.normal(size=shape)
    if smooth:
        for axis in range(x.ndim):
            x = np.cumsum(x, axis=axis)
    return x.astype(dtype)


def check_sz_roundtrip(data: np.ndarray, eb: float, mode: str):
    comp = SZCompressor(error_bound=eb, mode=mode)
    eb_abs = comp.resolve_error_bound(data)
    blob = comp.compress(data)
    recon = decompress(blob)
    assert recon.shape == data.shape
    assert recon.dtype == data.dtype
    x = data.astype(np.float64)
    err = max_abs_error(x, recon.astype(np.float64))
    # The final cast back to the storage dtype rounds by up to one ulp
    # at the data's magnitude (visible for float32 at tight bounds).
    ulp = np.finfo(data.dtype).eps * float(np.abs(x).max())
    assert err <= eb_abs * (1 + BOUND_SLACK) + ulp + 1e-12
    vr = float(x.max() - x.min())
    if vr > 0 and eb_abs < vr:
        estimate = estimate_psnr_from_bound(eb_abs=eb_abs, value_range=vr)
        measured = psnr(data, recon)
        assert measured >= estimate - PSNR_FLOOR_SLACK_DB - 1e-6


# -- hypothesis-driven variants ----------------------------------------

if HAVE_HYPOTHESIS:
    shapes = st.sampled_from(
        [(40,), (130,), (7, 9), (16, 16), (3, 5, 7), (4, 4, 4)]
    )
    dtypes = st.sampled_from([np.float32, np.float64])
    bounds = st.sampled_from([1e-1, 1e-2, 1e-3, 1e-4])
    seeds = st.integers(min_value=0, max_value=2**32 - 1)

    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=seeds,
        shape=shapes,
        dtype=dtypes,
        eb=bounds,
        mode=st.sampled_from(["abs", "rel"]),
        smooth=st.booleans(),
    )
    def test_sz_roundtrip_hypothesis(seed, shape, dtype, eb, mode, smooth):
        data = make_field(seed, shape, dtype, smooth)
        check_sz_roundtrip(data, eb, mode)

    @settings(max_examples=15, deadline=None)
    @given(
        seed=seeds,
        shape=st.sampled_from([(30, 12), (64,), (9, 9, 9)]),
        eb=st.sampled_from([1e-2, 1e-3]),
        n_chunks=st.integers(min_value=1, max_value=5),
    )
    def test_chunked_roundtrip_hypothesis(seed, shape, eb, n_chunks):
        data = make_field(seed, shape, np.float32, smooth=True)
        blob = compress_chunked(data, eb, mode="abs", n_chunks=n_chunks)
        recon = decompress_chunked(blob)
        assert recon.shape == data.shape
        err = max_abs_error(
            data.astype(np.float64), recon.astype(np.float64)
        )
        ulp = np.finfo(data.dtype).eps * float(np.abs(data).max())
        assert err <= eb * (1 + BOUND_SLACK) + ulp + 1e-12
        # chunked must agree with the plain decoder entry point too
        assert np.array_equal(recon, decompress(blob))

    @settings(max_examples=15, deadline=None)
    @given(
        seed=seeds,
        shape=st.sampled_from([(32, 32), (64,), (8, 8, 8)]),
        eb_rel=st.sampled_from([1e-3, 1e-4]),
        block_size=st.sampled_from([4, 8]),
    )
    def test_transform_psnr_floor_hypothesis(seed, shape, eb_rel, block_size):
        data = make_field(seed, shape, np.float32, smooth=True)
        vr = float(data.max() - data.min())
        if vr == 0.0:
            return
        comp = TransformCompressor(
            error_bound=eb_rel, mode="rel", block_size=block_size
        )
        recon = decompress(comp.compress(data))
        # l-infinity: an orthonormal m^d transform can concentrate the
        # coefficient error, so only eb * m**(d/2) is guaranteed.
        eb_abs = eb_rel * vr
        worst = eb_abs * block_size ** (data.ndim / 2.0)
        err = max_abs_error(data.astype(np.float64), recon.astype(np.float64))
        ulp = np.finfo(data.dtype).eps * float(np.abs(data).max())
        assert err <= worst * (1 + BOUND_SLACK) + ulp + 1e-12
        # l2: Theorem 2 preserves MSE, so the Eq. 6 floor applies as-is.
        estimate = estimate_psnr_from_bound(eb_abs=eb_abs, value_range=vr)
        assert psnr(data, recon) >= estimate - PSNR_FLOOR_SLACK_DB - 1e-6


# -- seeded-sweep fallbacks (always runnable) ---------------------------


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("shape", [(100,), (12, 17), (5, 6, 7)])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("eb", [1e-2, 1e-4])
def test_sz_roundtrip_sweep(seed, shape, dtype, eb):
    data = make_field(seed, shape, dtype, smooth=(seed % 2 == 0))
    check_sz_roundtrip(data, eb, mode="abs")


def test_pw_rel_roundtrip_sweep():
    rng = np.random.default_rng(5)
    data = np.exp(rng.normal(size=(30, 30))).astype(np.float32)
    eb = 1e-2
    recon = decompress(
        SZCompressor(error_bound=eb, mode="pw_rel").compress(data)
    ).astype(np.float64)
    x = data.astype(np.float64)
    rel = np.abs(recon - x) / np.abs(x)
    assert rel.max() <= eb * (1 + 1e-4) + 1e-9


@pytest.mark.parametrize("n_chunks", [1, 3])
def test_chunked_matches_bound_sweep(n_chunks):
    data = make_field(8, (24, 10), np.float32, smooth=True)
    blob = compress_chunked(data, 1e-3, mode="abs", n_chunks=n_chunks)
    err = max_abs_error(
        data.astype(np.float64),
        decompress_chunked(blob).astype(np.float64),
    )
    ulp = np.finfo(data.dtype).eps * float(np.abs(data).max())
    assert err <= 1e-3 * (1 + BOUND_SLACK) + ulp + 1e-12
