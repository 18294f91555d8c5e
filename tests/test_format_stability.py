"""Format stability: containers written by earlier builds must keep
decoding.

``tests/golden/`` holds one container per codec/mode, produced at
format version 1, together with the original field.  If any of these
tests fails after a change, the on-disk format broke -- either fix the
regression or bump the container VERSION and keep a legacy reader.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from repro.metrics.distortion import max_abs_error, psnr
from repro.sz.compressor import decompress

GOLDEN = Path(__file__).parent / "golden"


def _load_regen():
    """``scripts/regen_golden.py``, which holds each fixture's settings."""
    path = Path(__file__).parent.parent / "scripts" / "regen_golden.py"
    spec = importlib.util.spec_from_file_location("regen_golden", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


REGEN = _load_regen()


@pytest.fixture(scope="module")
def original():
    return np.load(GOLDEN / "field.npy")


def _blob(name: str) -> bytes:
    return (GOLDEN / f"{name}.fpz").read_bytes()


class TestGoldenContainers:
    def test_fixtures_exist(self):
        names = {p.stem for p in GOLDEN.glob("*.fpz")}
        assert names == set(REGEN.FIXTURES)

    def test_sz_abs(self, original):
        recon = decompress(_blob("sz_abs"))
        assert recon.shape == original.shape
        assert max_abs_error(
            original.astype(np.float64), recon.astype(np.float64)
        ) <= 1e-3 * (1 + 1e-5) + 1e-6

    def test_sz_rel_rans(self, original):
        recon = decompress(_blob("sz_rel_rans"))
        vr = float(original.max() - original.min())
        assert max_abs_error(
            original.astype(np.float64), recon.astype(np.float64)
        ) <= 1e-4 * vr * (1 + 1e-5) + 1e-6

    def test_sz_pw_rel(self, original):
        recon = decompress(_blob("sz_pw_rel")).astype(np.float64)
        x = original.astype(np.float64)
        nz = x != 0
        rel = np.abs(recon[nz] - x[nz]) / np.abs(x[nz])
        assert rel.max() <= 1e-2 * (1 + 1e-4) + 1e-6

    @pytest.mark.parametrize(
        "name", ["regression", "hybrid", "chunked", "legacy", "interp"]
    )
    def test_bounded_codecs(self, original, name):
        recon = decompress(_blob(name))
        assert max_abs_error(
            original.astype(np.float64), recon.astype(np.float64)
        ) <= 1e-3 * (1 + 1e-5) + 1e-6

    def test_transform(self, original):
        assert psnr(original, decompress(_blob("transform"))) > 70.0

    def test_embedded(self, original):
        assert psnr(original, decompress(_blob("embedded"))) > 55.0

    @pytest.mark.parametrize("name", sorted(REGEN.FIXTURES))
    def test_bitwise_reproducibility(self, original, name):
        """Today's encoder still produces byte-identical output for the
        golden settings (catches accidental nondeterminism and any
        change to the bytes a codec writes)."""
        assert REGEN.FIXTURES[name](original) == _blob(name)
