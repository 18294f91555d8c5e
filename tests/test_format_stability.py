"""Format stability: containers written by earlier builds must keep
decoding.

``tests/golden/`` holds one container per codec/mode, produced at
format version 1, together with the original field.  If any of these
tests fails after a change, the on-disk format broke -- either fix the
regression or bump the container VERSION and keep a legacy reader.

``tests/golden/zlib6/`` keeps the fixtures whose bytes an earlier
encoder wrote differently: the ones written before high-rate Huffman
payloads were deflated with zlib's run-length strategy, when every
stream was deflated at level 6.  They are decode-only.

``tests/golden/rans/`` keeps sz containers written with the rANS
entropy coder, which nothing writes any more: the golden field's
(``sz_rel_rans``), the digest table's four ``sz-*-rans*`` cases, and an
8-lane and a 256-lane payload (64x64 at rel 1e-4 and 256x512 at rel
1e-2, fields from the digest table's ``_smooth``).  They are
decode-only too.
"""

import hashlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from repro.io.container import Container
from repro.metrics.distortion import max_abs_error, psnr
from repro.sz.compressor import decompress

GOLDEN = Path(__file__).parent / "golden"
LEGACY = GOLDEN / "zlib6"
RANS = GOLDEN / "rans"

#: SHA-256 of each legacy fixture's decoded array (dtype, shape and
#: bytes), as the build that wrote the fixture decoded it.
LEGACY_DECODED = {
    "chunked": "3a0714548399fb4a636aa2a042e5b57eacd3b4a5a59c91107826ee243838c038",
    "hybrid": "07ca630be5e1aed300c11c75d8a8beb8899797a9f6314c51430c13adbc910299",
    "interp": "75f710ab54c33d75a1d04e06253a87341131ed73661c0983d03eba06467a9153",
    "legacy": "07ca630be5e1aed300c11c75d8a8beb8899797a9f6314c51430c13adbc910299",
    "regression": "2e46cb8aa3c34772ce7f6b6902b1845683f7bee773602518d1db3714fac41504",
    "sz_abs": "07ca630be5e1aed300c11c75d8a8beb8899797a9f6314c51430c13adbc910299",
    "sz_pw_rel": "39c3d3958f490befc57d924d046233a17ac86771c355df66f2c814f290a7670e",
    "transform": "00b2771a5db1bd054d71e6bb710c21c5e970e4e4c79371b30be5863b6b547f06",
}

#: SHA-256 of each rANS fixture's decoded array, as the build that
#: wrote the fixture decoded it.
RANS_DECODED = {
    "sz-f32-rans": "902a23f1d54f9630821813ea217ce012d1189ad84b20f1e03451d291962993f0",
    "sz-f32-rans-r3": "ed3a831b26a34bf6baf2e5f497ad6818097753a6621652b03349f13487ea1e1a",
    "sz-f64-rans": "89da049692f31fbc8c581ef2798f2bec9b7e264382561a3e7066a965249b380d",
    "sz-f64-rans-r3": "fffd53f8f28dc4be3ca2802c57a75402c693199c273ceb58cafbf4725ac19ad9",
    "sz_rel_lanes256": "0071bec671d1ababab3340a39d9c3d73404a7f9aa8fc18322bfcff4d57c34160",
    "sz_rel_lanes8": "1217b3927543367e64218c2983c56b64032fcd66ba796c0ed69b5a833fe08cfe",
    "sz_rel_rans": "65a3e1c8f27ad6b73ede02a86d5d6ecbccb01b8af94a501d317d8bd9adcfd14e",
}


def _array_digest(arr: np.ndarray) -> str:
    return hashlib.sha256(
        f"{arr.dtype}{arr.shape}".encode() + np.ascontiguousarray(arr).tobytes()
    ).hexdigest()


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
        recon = decompress((RANS / "sz_rel_rans.fpz").read_bytes())
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


class TestLegacyContainers:
    def test_legacy_fixtures_exist(self):
        assert {p.stem for p in LEGACY.glob("*.fpz")} == set(LEGACY_DECODED)

    @pytest.mark.parametrize("name", sorted(LEGACY_DECODED))
    def test_decodes_as_before_and_as_today(self, name):
        """A fixture written at zlib level 6 throughout decodes to the
        array it decoded to when it was written, which is also what
        today's fixture of the same settings decodes to."""
        blob = (LEGACY / f"{name}.fpz").read_bytes()
        assert blob != _blob(name)
        recon = decompress(blob)
        assert _array_digest(recon) == LEGACY_DECODED[name]
        today = decompress(_blob(name))
        assert today.dtype == recon.dtype
        assert np.array_equal(today, recon)


class TestRansContainers:
    def test_rans_fixtures_exist(self):
        assert {p.stem for p in RANS.glob("*.fpz")} == set(RANS_DECODED)

    @pytest.mark.parametrize("name", sorted(RANS_DECODED))
    def test_decodes_as_before(self, name):
        """A container written with rANS (entropy id 1) decodes to the
        array it decoded to when it was written."""
        blob = (RANS / f"{name}.fpz").read_bytes()
        assert Container.from_bytes(blob).meta["entropy"] == 1
        assert _array_digest(decompress(blob)) == RANS_DECODED[name]
