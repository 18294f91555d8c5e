"""Byte pins for what the golden fixtures miss.

The nine fixtures in ``tests/golden/`` pin one setting per codec.  This
table pins many more -- every quantization codec at both dtypes, at the
default escape radius and at radius 3 (so escapes are present), on a
smooth and on a constant field, plus pointwise-relative bounds, fill
values, a 3-D field per codec and temporal series with order-2
prediction and keyframes.  Each case's container and decoded array are
hashed with SHA-256 and compared with a table recorded from an earlier
build: a mismatch means the bytes a codec writes, or what it decodes
them to, changed.  The ``*-rans`` cases are containers that earlier
builds wrote with the rANS coder, which nothing writes any more: they
are read from ``tests/golden/rans/``, so their container digest pins
the file and their array digest the reader.

Print the table for the current build with::

    PYTHONPATH=src python tests/test_codec_digests.py
"""

import hashlib
from functools import partial
from pathlib import Path
from typing import Callable, Dict, List, Tuple

import numpy as np
import pytest

from repro.parallel.chunking import compress_chunked
from repro.sz.compressor import SZCompressor, decompress
from repro.sz.hybrid import HybridCompressor
from repro.sz.interp import InterpolationCompressor
from repro.sz.legacy import Sz11Compressor
from repro.sz.regression import RegressionCompressor
from repro.sz.temporal import compress_series, decompress_series
from repro.transform.compressor import TransformCompressor
from repro.transform.embedded import EmbeddedTransformCompressor

#: A case builds its input and returns ``(blobs, decoded arrays)``.
Case = Callable[[], Tuple[List[bytes], List[np.ndarray]]]

RANS = Path(__file__).parent / "golden" / "rans"


def _smooth(dtype, shape=(19, 26), seed=20181016) -> np.ndarray:
    """Seeded smooth field in [1, 2] (pointwise-relative safe)."""
    x = np.random.default_rng(seed).normal(size=shape)
    for axis in range(x.ndim):
        x = np.cumsum(x, axis=axis)
    x = 1.0 + (x - x.min()) / (x.max() - x.min())
    return x.astype(dtype)


def _constant(dtype) -> np.ndarray:
    return np.full((7, 11), 2.5, dtype=dtype)


def _with_fill(field, value) -> np.ndarray:
    """``field()`` with every fifth point replaced by ``value``."""
    x = field().copy()
    x.flat[::5] = value
    return x


def _noise(dtype) -> np.ndarray:
    """White noise whose Lorenzo codes outgrew the 2**14-symbol model of
    the rANS coder, so that asking for rANS wrote Huffman."""
    return np.random.default_rng(11).uniform(size=(160, 160)).astype(dtype)


def _drift(field, n: int) -> List[np.ndarray]:
    """``n`` slowly trending snapshots of ``field()``, same dtype."""
    base = field()
    ramp = np.linspace(0.0, 1.0, base.size).reshape(base.shape)
    return [(base + 0.003 * t * (1.0 + ramp)).astype(base.dtype) for t in range(n)]


def _single(make, data) -> Case:
    def run():
        blob = make().compress(data())
        return [blob], [decompress(blob)]

    return run


def _frozen(name: str) -> Case:
    """The container an earlier build wrote for case ``name``."""

    def run():
        blob = (RANS / f"{name}.fpz").read_bytes()
        return [blob], [decompress(blob)]

    return run


def _series(frames, **options) -> Case:
    def run():
        blobs = compress_series(frames(), **options)
        return blobs, list(decompress_series(blobs))

    return run


#: Every codec at the bounds its golden fixture uses.
_GRID = {
    "sz": (SZCompressor, dict(error_bound=1e-3, mode="abs")),
    "transform": (TransformCompressor, dict(error_bound=1e-4, mode="rel")),
    "regression": (RegressionCompressor, dict(error_bound=1e-3, mode="abs")),
    "hybrid": (HybridCompressor, dict(error_bound=1e-3, mode="abs")),
    "interp": (InterpolationCompressor, dict(error_bound=1e-3, mode="abs")),
    "legacy": (Sz11Compressor, dict(error_bound=1e-3, mode="abs")),
}

#: sz options the grid does not reach.
_SZ_OPTIONS = {
    "pw_rel": dict(error_bound=1e-2, mode="pw_rel"),
    "pw_rel-r3": dict(error_bound=1e-4, mode="pw_rel", quantization_radius=3),
    "lorenzo1d": dict(error_bound=1e-3, predictor="lorenzo1d"),
    "nolossless": dict(error_bound=1e-3, lossless="none"),
    "level1": dict(error_bound=1e-3, lossless_level=1),
}


def _cases() -> Dict[str, Case]:
    cases: Dict[str, Case] = {}
    for dname, dtype in (("f32", np.float32), ("f64", np.float64)):
        smooth = partial(_smooth, dtype)
        fields = {"smooth": smooth, "constant": partial(_constant, dtype)}
        for radius in (32767, 3):
            for fname, data in fields.items():
                for codec, (cls, options) in _GRID.items():
                    cases[f"{codec}-{dname}-r{radius}-{fname}"] = _single(
                        partial(cls, quantization_radius=radius, **options), data
                    )
                cases[f"temporal-{dname}-r{radius}-{fname}"] = _series(
                    partial(_drift, data, 3),
                    error_bound=1e-3,
                    quantization_radius=radius,
                )
        cube = partial(_smooth, dtype, shape=(6, 7, 9), seed=7)
        for codec, (cls, options) in _GRID.items():
            cases[f"{codec}-{dname}-3d"] = _single(partial(cls, **options), cube)

        for oname, options in _SZ_OPTIONS.items():
            cases[f"sz-{dname}-{oname}"] = _single(
                partial(SZCompressor, **options), smooth
            )
        # rel 1e-4, and abs 1e-3 at radius 3 (with escapes), on ``smooth``
        for oname in ("rans", "rans-r3"):
            cases[f"sz-{dname}-{oname}"] = _frozen(f"sz-{dname}-{oname}")
        cases[f"sz-{dname}-pw_rel-constant"] = _single(
            partial(SZCompressor, 1e-2, mode="pw_rel"), fields["constant"]
        )
        for fill_name, fill in (("fill", -9999.0), ("nanfill", np.nan)):
            for fname, data in fields.items():
                suffix = "" if fname == "smooth" else "-constant"
                cases[f"sz-{dname}-{fill_name}{suffix}"] = _single(
                    partial(SZCompressor, 1e-3, fill_value=fill),
                    partial(_with_fill, data, fill),
                )
        # the bytes rANS's fallback to Huffman wrote on a wide alphabet
        cases[f"sz-{dname}-rans-fallback"] = _single(
            partial(SZCompressor, 3e-5, mode="abs"), partial(_noise, dtype)
        )
        cases[f"temporal-{dname}-order2-keyframes"] = _series(
            partial(_drift, smooth, 7),
            error_bound=1e-3,
            temporal_order=2,
            keyframe_interval=3,
        )
        cases[f"temporal-{dname}-psnr-keyframes"] = _series(
            partial(_drift, smooth, 5), target_psnr=60.0, keyframe_interval=2
        )
        for ename, options in (
            ("rate", dict(mode="fixed_rate", rate=4.0)),
            ("psnr", dict(mode="fixed_psnr", rate=60.0)),
        ):
            for fname, data in fields.items():
                cases[f"embedded-{dname}-{ename}-{fname}"] = _single(
                    partial(EmbeddedTransformCompressor, **options), data
                )
        cases[f"chunked-{dname}"] = _single(_Chunked, smooth)
    return cases


class _Chunked:
    """Adapter so the chunked path fits :func:`_single`."""

    def compress(self, data) -> bytes:
        return compress_chunked(data, 1e-3, mode="abs", n_chunks=3)


def _digests(case: Case) -> Tuple[str, str]:
    blobs, arrays = case()
    blob_hash = hashlib.sha256()
    for blob in blobs:
        blob_hash.update(blob)
    array_hash = hashlib.sha256()
    for arr in arrays:
        array_hash.update(f"{arr.dtype}{arr.shape}".encode())
        array_hash.update(np.ascontiguousarray(arr).tobytes())
    return blob_hash.hexdigest(), array_hash.hexdigest()


#: (container SHA-256, decoded-array SHA-256) per case.
DIGESTS: Dict[str, Tuple[str, str]] = {
    "chunked-f32": (
        "8fd49b6da08b6ce3834d273fd2999c14cbc03019af53f941e798da6d98181e95",
        "79f5c0e6c2c5e6a49941395b71247fb4c456d1e710df3bf8bd7d8f4cd2627310",
    ),
    "chunked-f64": (
        "375b18a7c21bd75319473c56e23afb214c3317803eec8c48451adc147767a180",
        "b0e551233971b82724ddf56b1a151328ea7ca0e1e8e8b55c46d3135209b7533a",
    ),
    "embedded-f32-psnr-constant": (
        "987de1fedf68ea5245f2b5effa2aafede6e11f78584d1144c53de6f802b1ff11",
        "442225f1879a6ad94db0797b3aa3b6edfedf2fc77a0d348bae5fb731aaa62a69",
    ),
    "embedded-f32-psnr-smooth": (
        "d00034dc206fbbd3cf6cddb3ed98f2b1c41e09ad7964920511640b1f9d994c84",
        "00679299bebb29d33de266d5d362ab1c53be1d453e2dabdb2dbfce994d4716df",
    ),
    "embedded-f32-rate-constant": (
        "0b92290bcf8b2c448cdece4e894bc472b60471898c84af7658ecc9f01e9e330e",
        "442225f1879a6ad94db0797b3aa3b6edfedf2fc77a0d348bae5fb731aaa62a69",
    ),
    "embedded-f32-rate-smooth": (
        "5b0f8a173a4143928377e2127f1a4630098ef8e7a3c0466b0318ef0058543358",
        "67e637b9a2969cf29169dccee30bde527a8209616ff355ecbd57ff4f8fec86ab",
    ),
    "embedded-f64-psnr-constant": (
        "c4a34ee44770f4c5824890e76a61a2bb3007c298618f262bf76339ccfd92d8e6",
        "ed7192c250c194b53dcc2f5d40c99af0c7f552a3cd4558e30d05319dd8c36c59",
    ),
    "embedded-f64-psnr-smooth": (
        "28eb187965633478030a81a72e9b00e2fced6642bd1c58128a761b2937f808e6",
        "de80786568fac9b662ba99c9389544ac381b90b31873d02619da87508f48a336",
    ),
    "embedded-f64-rate-constant": (
        "ab08da13172849829cebbd3595ec5de9b6cd9e6f0241098a8851a122511c1aab",
        "ed7192c250c194b53dcc2f5d40c99af0c7f552a3cd4558e30d05319dd8c36c59",
    ),
    "embedded-f64-rate-smooth": (
        "cb94ef9b6e445c441d29327ad79695ba6b3cc246d43376e6361ede94cc9c2fe7",
        "1567bb5e2f67284ce3fea6814e3d67269d4d245005b9dd0a01687e615131c810",
    ),
    "hybrid-f32-3d": (
        "9303074f8c3d659fa42f500ee6481e0d24d6403102f36f7bc91c216b2fbca716",
        "15b9dbb5e866d4f8ca7e2703b2a12fdcb78e98bbbe2a72cdbe065b33c3572497",
    ),
    "hybrid-f32-r3-constant": (
        "1fff2795b9eec4424e36e20509a1e939423d0cd7c074b6d14374ef2f607564fc",
        "442225f1879a6ad94db0797b3aa3b6edfedf2fc77a0d348bae5fb731aaa62a69",
    ),
    "hybrid-f32-r3-smooth": (
        "1428087bfa540d4dec10bd2a0b2eceff11000b915cc8e4f4211d17f9a68f3b76",
        "ed3a831b26a34bf6baf2e5f497ad6818097753a6621652b03349f13487ea1e1a",
    ),
    "hybrid-f32-r32767-constant": (
        "f3e389a8bd14953d14e0368eb08f80b6fb19d0b1235e8cb0d0c7daa02ce13d99",
        "442225f1879a6ad94db0797b3aa3b6edfedf2fc77a0d348bae5fb731aaa62a69",
    ),
    "hybrid-f32-r32767-smooth": (
        "a383fc4ad2b04c5c165bc9e6e5bcd3f78c0b682cce0fe0cfd65f592bb17b4845",
        "ed3a831b26a34bf6baf2e5f497ad6818097753a6621652b03349f13487ea1e1a",
    ),
    "hybrid-f64-3d": (
        "2e5342dfbffc617f3cdf3e1bf7c36e34eafa9959eb21560b3e427ee934036edf",
        "600f49ff3b39c06a0391b61382bbb85a3b7a440f0a80f548b76c897e9494338a",
    ),
    "hybrid-f64-r3-constant": (
        "288885681f4e56230143258d0ba2fbda927c47f6fb97a70dd5dfc476beb3064d",
        "ed7192c250c194b53dcc2f5d40c99af0c7f552a3cd4558e30d05319dd8c36c59",
    ),
    "hybrid-f64-r3-smooth": (
        "bc4c3d0cf8ab744a3aad01544e3bad0f1131387c2a0f261af4bcdf121ea8bcea",
        "fffd53f8f28dc4be3ca2802c57a75402c693199c273ceb58cafbf4725ac19ad9",
    ),
    "hybrid-f64-r32767-constant": (
        "d76c59990bff00065e645869ee09db41c586d2c0867c4335e6165b4aaba56597",
        "ed7192c250c194b53dcc2f5d40c99af0c7f552a3cd4558e30d05319dd8c36c59",
    ),
    "hybrid-f64-r32767-smooth": (
        "13b647f1e83568978b6f2c0f09cf6a35bdb5450dc795ece61906e596028cfc96",
        "fffd53f8f28dc4be3ca2802c57a75402c693199c273ceb58cafbf4725ac19ad9",
    ),
    "interp-f32-3d": (
        "dd3633611d0bf00b5afe4582e8e88ca2039d20a8beb1210662f8356c17188e66",
        "1815a116710fb057a1f03a6bbca0bb9b7f40fc27c7d2f96ddbd86e43ab4ad4b4",
    ),
    "interp-f32-r3-constant": (
        "e7668fcd0be45d65ad79dc71369f0eaccde647a45b0e43a8c9fa0cb59f2871cf",
        "442225f1879a6ad94db0797b3aa3b6edfedf2fc77a0d348bae5fb731aaa62a69",
    ),
    "interp-f32-r3-smooth": (
        "3871f01de0ea914fbf661b733ac11d7bf56ad648899f1aeca31aa48e379b222f",
        "6be7f1d0c5957f30ba88e624d6efd444c18e808bf54b7551c5f1682871bbd5b5",
    ),
    "interp-f32-r32767-constant": (
        "1f2f196d43137897d86279cd0d1ba664a08378cca9a3639a53ddc4d2c6b94540",
        "442225f1879a6ad94db0797b3aa3b6edfedf2fc77a0d348bae5fb731aaa62a69",
    ),
    "interp-f32-r32767-smooth": (
        "6435fe10d2bd06cbc5d03c033c09a3c3a02a938851c6b846009a706838f5cdb3",
        "6be7f1d0c5957f30ba88e624d6efd444c18e808bf54b7551c5f1682871bbd5b5",
    ),
    "interp-f64-3d": (
        "8659807ec2c52b476232a3264660e283c00ead082ef688514ba1ec3e5f310986",
        "d4445df862138439280b191a4a9e490354e8bdc60083c329cd313bcb903906d5",
    ),
    "interp-f64-r3-constant": (
        "2adb790c211c376dd85973bba8646d034eb98e809b15df127c8ab9a75c902510",
        "ed7192c250c194b53dcc2f5d40c99af0c7f552a3cd4558e30d05319dd8c36c59",
    ),
    "interp-f64-r3-smooth": (
        "21349f72679be5668941bead00a3ec816d5c09b75dc39aa98e354117b98a7a33",
        "598c1d4e27b234ed6a0d117de2dd4925ff835a7676237a64580b1d7b69144d4e",
    ),
    "interp-f64-r32767-constant": (
        "ee9b42755bb2620f9305afdb8f7cc27c1ae98d48214854e7b224b13aad2af9aa",
        "ed7192c250c194b53dcc2f5d40c99af0c7f552a3cd4558e30d05319dd8c36c59",
    ),
    "interp-f64-r32767-smooth": (
        "d9c5801b6d4cc5938f3beed7c1d55e5c708e54eaf42729785c6965e7ae6428c4",
        "598c1d4e27b234ed6a0d117de2dd4925ff835a7676237a64580b1d7b69144d4e",
    ),
    "legacy-f32-3d": (
        "97f3c4034a5e6211aa0d61d3f09e500e67673822080d1dc1045309413f9da678",
        "15b9dbb5e866d4f8ca7e2703b2a12fdcb78e98bbbe2a72cdbe065b33c3572497",
    ),
    "legacy-f32-r3-constant": (
        "c5ac5771aef09184a48ca62874ab9e639ab32cfe363e78c784fe60a31f978d85",
        "442225f1879a6ad94db0797b3aa3b6edfedf2fc77a0d348bae5fb731aaa62a69",
    ),
    "legacy-f32-r3-smooth": (
        "1178ec50318b81453082b32b2f598b9d59f176186bf3692ff90ceaf33a50c191",
        "ed3a831b26a34bf6baf2e5f497ad6818097753a6621652b03349f13487ea1e1a",
    ),
    "legacy-f32-r32767-constant": (
        "f0227de34d7a00922eaf3ffab2835c3cf72d147d56540bf55e22f30852e8f1cc",
        "442225f1879a6ad94db0797b3aa3b6edfedf2fc77a0d348bae5fb731aaa62a69",
    ),
    "legacy-f32-r32767-smooth": (
        "56938f35faad8d1e164d1b311197a7760a04be05e91cf7c37010b589da7fe35a",
        "ed3a831b26a34bf6baf2e5f497ad6818097753a6621652b03349f13487ea1e1a",
    ),
    "legacy-f64-3d": (
        "89a7796eb455c8a9a0c8058aac5d8f29a631ef87a3d80935eca0ff881b8a3af9",
        "600f49ff3b39c06a0391b61382bbb85a3b7a440f0a80f548b76c897e9494338a",
    ),
    "legacy-f64-r3-constant": (
        "a3246e0824b7a19e7006d5c4a3abaa533933277e019a2495204500227c11ce30",
        "ed7192c250c194b53dcc2f5d40c99af0c7f552a3cd4558e30d05319dd8c36c59",
    ),
    "legacy-f64-r3-smooth": (
        "d14feba0b014cb7253864f3dc69b16a96a053cf069d23e1530e8f61960eb4d81",
        "fffd53f8f28dc4be3ca2802c57a75402c693199c273ceb58cafbf4725ac19ad9",
    ),
    "legacy-f64-r32767-constant": (
        "3b3ee241d293dc7890d66d73f2fe18145d57fb6bcd7efb3c9d29ff4f2d75d13c",
        "ed7192c250c194b53dcc2f5d40c99af0c7f552a3cd4558e30d05319dd8c36c59",
    ),
    "legacy-f64-r32767-smooth": (
        "087727e60969f0b805e563a94a468f46b2b7704597b7454f7e1621591a953273",
        "fffd53f8f28dc4be3ca2802c57a75402c693199c273ceb58cafbf4725ac19ad9",
    ),
    "regression-f32-3d": (
        "2e82e607e34aca3a8d88716799fab13ee9e77d252d24ec39b3d403e9a7ba1185",
        "3fb57fc402ec20065d60b35087c1566c7f2d4cc64c896bc924bb3d1a3ea1af00",
    ),
    "regression-f32-r3-constant": (
        "720ca6c1e64dc0adb2309e56cd2e8e3268a5f28301f9104c4de851a05d18d2ce",
        "442225f1879a6ad94db0797b3aa3b6edfedf2fc77a0d348bae5fb731aaa62a69",
    ),
    "regression-f32-r3-smooth": (
        "9e60f9e1ee9d9fc182b1b02c5fce3e1b6e6979d69bef29d8645c7ad8dcf0e1be",
        "4c1181c404d3af7675035450c10669e4f7f7e80061f42b2473a8515f72c442bf",
    ),
    "regression-f32-r32767-constant": (
        "a52aff1f02f44b31a1d254b1618b1ea1de401735e92b67ba72c0281436554f33",
        "442225f1879a6ad94db0797b3aa3b6edfedf2fc77a0d348bae5fb731aaa62a69",
    ),
    "regression-f32-r32767-smooth": (
        "fac89af08e20335c1d9c5bd1fee91c9d239cf0d8d5e0ec8164b0b732185c1d08",
        "4c1181c404d3af7675035450c10669e4f7f7e80061f42b2473a8515f72c442bf",
    ),
    "regression-f64-3d": (
        "b1a73505f93805ec045515a76ee7e2e25c0a789671bfe7e84c875c2c0c5879bf",
        "37b6e188ce58e015dbd043b9a69df45383f7b745d012cb734720a4cb99aae53d",
    ),
    "regression-f64-r3-constant": (
        "83ee905c825854c2811a6326b2f3c4fbb81002892d371712a312f66b292822f5",
        "ed7192c250c194b53dcc2f5d40c99af0c7f552a3cd4558e30d05319dd8c36c59",
    ),
    "regression-f64-r3-smooth": (
        "d01c90685de6d31b463e1e4f44257b390a55ff712f50cbbe230dca6ed4d43a24",
        "8f8eda8588d5d0f8b0eaf72770c73e518a0c26420ae2e72b6726bab840c04dcc",
    ),
    "regression-f64-r32767-constant": (
        "82534c198b9138995aebffb6545198ab2906de341c5a0de9469a4ee77abdc112",
        "ed7192c250c194b53dcc2f5d40c99af0c7f552a3cd4558e30d05319dd8c36c59",
    ),
    "regression-f64-r32767-smooth": (
        "cd09a60c547308d1a77c97f37d5f420f640d9864496fb1b817c5a9821321e4dd",
        "8f8eda8588d5d0f8b0eaf72770c73e518a0c26420ae2e72b6726bab840c04dcc",
    ),
    "sz-f32-3d": (
        "5c576c170de7d53927440104e5f10dfacdb543178d0b35c6b69a91aa0595a89c",
        "15b9dbb5e866d4f8ca7e2703b2a12fdcb78e98bbbe2a72cdbe065b33c3572497",
    ),
    "sz-f32-fill": (
        "cd41c2e984e35b282c69066094b49a05394406de77b3ea571d358c484f4e8150",
        "91d07e599faafe5927d67c4f4c102543f1274169d8685d28e283c1bec34da089",
    ),
    "sz-f32-fill-constant": (
        "99b08ab6a744d43e3ff0e51248f07b6952eefc4258a70a07c1aa39f4e86b604b",
        "fdd4c574c59b12adc92f3d0399cd91467b8f95ae5a4740f0ff0bae5db1ac35c7",
    ),
    "sz-f32-level1": (
        "82f2d2a8dbdb263b90afc41451e5395455eb0ed9868ad3923cfcddb64aecc702",
        "ed3a831b26a34bf6baf2e5f497ad6818097753a6621652b03349f13487ea1e1a",
    ),
    "sz-f32-lorenzo1d": (
        "4749816f7edf5981724d3a779675b5e5bc0269b861e05ed6806de2cbd1456276",
        "ed3a831b26a34bf6baf2e5f497ad6818097753a6621652b03349f13487ea1e1a",
    ),
    "sz-f32-nanfill": (
        "28dce5cf48c4bae3c19928d9264127b70de554c122ce1357d98920d3ac564d84",
        "d17dd6feb9abfc71c4793d6655abe72f4e557e39259b281ade696c64411dabcf",
    ),
    "sz-f32-nanfill-constant": (
        "a188070d595058add07a19050c66a75c5fbff818ab80ae9dbaddcaef7b0c543d",
        "fcb4dba4d3f7584c365dc170a1e06dee03966500bf758ed7a91ca2ae5830edf6",
    ),
    "sz-f32-nolossless": (
        "38ada1c3e1ad99d43a87fe79eeab80d1f6bece082218297865e9c5aa9232185a",
        "ed3a831b26a34bf6baf2e5f497ad6818097753a6621652b03349f13487ea1e1a",
    ),
    "sz-f32-pw_rel": (
        "def46dfcbc644450a084e10216b2fe04a3e4c50601b6fc0d47007c3e809f35a7",
        "b225b3f839de54860ec120b4a5bbdd8267842d3e829ee794d72b1329eb0363ff",
    ),
    "sz-f32-pw_rel-constant": (
        "5199981b3f3ee996e6fe04f37d23e91529e955e4e0b2872f486ebf38ddbe1eb0",
        "442225f1879a6ad94db0797b3aa3b6edfedf2fc77a0d348bae5fb731aaa62a69",
    ),
    "sz-f32-pw_rel-r3": (
        "bd4eae764c83b283b336bbacd6eba3191e33c11aab25bd3316392d992ec94161",
        "744707388a950f00d64996c2c8e8fcb4eb94861f98a3ba5283fc2ddbcb21520d",
    ),
    "sz-f32-r3-constant": (
        "12f668504fa373d53b0a163ff25be5f99bf6f7f12cb5d265faccfe35d5640154",
        "442225f1879a6ad94db0797b3aa3b6edfedf2fc77a0d348bae5fb731aaa62a69",
    ),
    "sz-f32-r3-smooth": (
        "6523e074f89cef4cfb16fda2c1950c452e8938959ffa25cc447ad51adc6da037",
        "ed3a831b26a34bf6baf2e5f497ad6818097753a6621652b03349f13487ea1e1a",
    ),
    "sz-f32-r32767-constant": (
        "ba3c68fd6f826fd634153ccf7dab38b1733273cb31b55689bb0758f3a741ad4c",
        "442225f1879a6ad94db0797b3aa3b6edfedf2fc77a0d348bae5fb731aaa62a69",
    ),
    "sz-f32-r32767-smooth": (
        "45e729119b9b71b453b4b33270564c035ba916d6f47dc786a5eb7b882d72f504",
        "ed3a831b26a34bf6baf2e5f497ad6818097753a6621652b03349f13487ea1e1a",
    ),
    "sz-f32-rans": (
        "83b23193446e44031320e5f7e54f8bb81ec3c5e8e288489337ac640dbc54d0b5",
        "902a23f1d54f9630821813ea217ce012d1189ad84b20f1e03451d291962993f0",
    ),
    "sz-f32-rans-fallback": (
        "394cace5eb7cae563c27a0fc147b5d758e4e2414540535665731893702cde031",
        "bbcc5d3c3e920a92c17d2d2e037191c184864073d21975ea19899c4851333332",
    ),
    "sz-f32-rans-r3": (
        "8960d6e9e14334e2f3c2f7b30caf6aa118caa54750dd66bfc5ceb3e5e7e7555b",
        "ed3a831b26a34bf6baf2e5f497ad6818097753a6621652b03349f13487ea1e1a",
    ),
    "sz-f64-3d": (
        "aa6ce633c49054065ae9399b4a250bad1c8f37d0cd2f54cdaaed8c20eb8ee124",
        "600f49ff3b39c06a0391b61382bbb85a3b7a440f0a80f548b76c897e9494338a",
    ),
    "sz-f64-fill": (
        "08fa44636e522fa48bc73a7b6515325b16e6d7a7b450d081d354bb0912bed875",
        "5a5a8fe5d04ae6c18f8eb8ad5f58486ba64acc55bf8550feeb9c50ce93823fae",
    ),
    "sz-f64-fill-constant": (
        "e121f2fe6ed5d1fc52bccc0e54786052819403c9e8a66a364e21e954da8707ec",
        "714d76765a702d5dfe07074336d9b83853ea05b355eaa8d8ea482656d1535c47",
    ),
    "sz-f64-level1": (
        "3ee52ecfb7679074c5184defe71fc958824073dd0d1a711c8d7a9909452c6316",
        "fffd53f8f28dc4be3ca2802c57a75402c693199c273ceb58cafbf4725ac19ad9",
    ),
    "sz-f64-lorenzo1d": (
        "43bf97f2f2b8b789a9623b20f451f45063ca00f53c15edabc18658997ab4e0a9",
        "fffd53f8f28dc4be3ca2802c57a75402c693199c273ceb58cafbf4725ac19ad9",
    ),
    "sz-f64-nanfill": (
        "b26f8ab0a8609f10f0c7ab394bd99440c4fa32ac94eb1ecab456e04e5b39d0a8",
        "ab6e28f83c3655b78b8e7b082de862a662d807b6458b1c0ab97c655b5c67157a",
    ),
    "sz-f64-nanfill-constant": (
        "876e9d60bc101a7347d6442fbb5cad2471f548b78fd537c241ae655eb2f35433",
        "6ecd1542cf23dafff290b0370c6ff980440dd42079449977d3c40fc2adef4797",
    ),
    "sz-f64-nolossless": (
        "776e00434af770cbad4fd43addc3e5c937767ee4403508cfd0137e529f7b2b5c",
        "fffd53f8f28dc4be3ca2802c57a75402c693199c273ceb58cafbf4725ac19ad9",
    ),
    "sz-f64-pw_rel": (
        "b8fa81774e5b927987db4fd2e427ee23dd9b331540387c19a2c35f236005ffab",
        "33dd841d0e4e68cb37025670cd8960cc86c6726992005d6449f92f47f8e95196",
    ),
    "sz-f64-pw_rel-constant": (
        "5b31082b9d57c5e024a8d2b9577cdaa5c5b5ab162d38d6d6d52e98f76d79ecbf",
        "ed7192c250c194b53dcc2f5d40c99af0c7f552a3cd4558e30d05319dd8c36c59",
    ),
    "sz-f64-pw_rel-r3": (
        "391cd68a98f2df460358dc211af46f599e211536121ebe5bec4375c306b526c5",
        "4d72cab74d610ef29b3bc81371bc04d1999fd21451a5d30a48d85749dbd1e1b8",
    ),
    "sz-f64-r3-constant": (
        "9e7bbfd7cf073c7360c2824469cd7d3b8621850301ac4d8f7dea0e0b604bd0d4",
        "ed7192c250c194b53dcc2f5d40c99af0c7f552a3cd4558e30d05319dd8c36c59",
    ),
    "sz-f64-r3-smooth": (
        "5ab5214395464b97b8b95f631a86412b2698d1440faee6226b01b5003baa0023",
        "fffd53f8f28dc4be3ca2802c57a75402c693199c273ceb58cafbf4725ac19ad9",
    ),
    "sz-f64-r32767-constant": (
        "fc3e5aa334adce1fab1f995c43b7814ca59f00c2af6efc554b75432e91b103ca",
        "ed7192c250c194b53dcc2f5d40c99af0c7f552a3cd4558e30d05319dd8c36c59",
    ),
    "sz-f64-r32767-smooth": (
        "123629979cdd6ed96befb23b9c2c27e0ffa33dd67529888eb6c182a818f000a4",
        "fffd53f8f28dc4be3ca2802c57a75402c693199c273ceb58cafbf4725ac19ad9",
    ),
    "sz-f64-rans": (
        "23ee4aed4f2856c08462b3a70f96b571dcde710db1a7391698725252eba2f387",
        "89da049692f31fbc8c581ef2798f2bec9b7e264382561a3e7066a965249b380d",
    ),
    "sz-f64-rans-fallback": (
        "15308c0ab1ba6e47ade12e91dbcd0b84d2f004fabac230bfcbbe6af56fc246ac",
        "44ec5d6fced48afdcd79c56a2b06c7bcafa1c70c054661b4609a1f88cc9359ce",
    ),
    "sz-f64-rans-r3": (
        "818095dd30ecbf4a8d33f2e582e127ac7420933c0bedebd9ff7c4e4ca6c63f22",
        "fffd53f8f28dc4be3ca2802c57a75402c693199c273ceb58cafbf4725ac19ad9",
    ),
    "temporal-f32-order2-keyframes": (
        "567ce8b0bbb81162dd445f735282aa77c76edf9b35d3b8dc7f1a77db5215da0f",
        "6ecdff962889f6f5f433e5b97ba4657887b6edea2e2bb3b597cfbd83f4a77ea9",
    ),
    "temporal-f32-psnr-keyframes": (
        "3aaa17668a867a6ad7d69741cb76405764331ddec31534641b48213fa1c685b5",
        "dbdc4699e2f9fa6a67faeaaaa86101f468696d793292c7e4bf26853fd5600a2f",
    ),
    "temporal-f32-r3-constant": (
        "c84872aefd242965871b8a60009daf104a9dab20c64f222998ee465def7f94ff",
        "16cedf49e7aaa20e5c8ed09c3481a2cf289de6df1bdb54b534be460ce9789083",
    ),
    "temporal-f32-r3-smooth": (
        "92a773b37ad871643ba24bdf6a14d00efb808dd7ebabf60dc42d0ac0a89f039b",
        "7e28bf920886dcbd8888c5b5bfd51f202d353dab1bcaac3a78b4947c04bcfb05",
    ),
    "temporal-f32-r32767-constant": (
        "5cd05235579fd2f221ce90d98f353b94de5350d9d14c8cc1f82b993e1939cd4b",
        "16cedf49e7aaa20e5c8ed09c3481a2cf289de6df1bdb54b534be460ce9789083",
    ),
    "temporal-f32-r32767-smooth": (
        "5f193fbd6fdc6208fcee14f0c2433ade1d44838ba3746f675a9b616d42b2f213",
        "7e28bf920886dcbd8888c5b5bfd51f202d353dab1bcaac3a78b4947c04bcfb05",
    ),
    "temporal-f64-order2-keyframes": (
        "c2657a9f887a35ebb4268eec69874d66345f49bcb1917fffe4df4621f066a6c0",
        "9034ecca211202b2849905814cb8d17f020bbe73d6f276b319be4b892d8de585",
    ),
    "temporal-f64-psnr-keyframes": (
        "bb2565d82c7b3e0e8209f9346970bcc824e2070d0e8104dca7d933faffd9635b",
        "66eaef695550fe9e21bec9087cff9430fe47d0c3fc189e72823fbaed65d7d36e",
    ),
    "temporal-f64-r3-constant": (
        "37d51fb295fcf0ce28ac3d41b23c9406c40d823c18387d1061e170572bcaf689",
        "90d234dcd648ba47e449fc66e0927968d8d47c7295d01f30ece81e2e6472a3a4",
    ),
    "temporal-f64-r3-smooth": (
        "0da6e5cacc42a9410366bb2fc2999fb548bce453da63f314889927e559c55a41",
        "9fbbde5093afa03c3179a3480b0fb065b2d2645cd7d80f51c2e326c8a08a63f8",
    ),
    "temporal-f64-r32767-constant": (
        "d436927e97d759103c5c4b3356a44412644ef70ba56d6fa87402ec6855ba0cb8",
        "90d234dcd648ba47e449fc66e0927968d8d47c7295d01f30ece81e2e6472a3a4",
    ),
    "temporal-f64-r32767-smooth": (
        "b41c3c632d8900fcecd85533811f78d2ed09edad7cee0640b7fa8c4a57d0adb2",
        "9fbbde5093afa03c3179a3480b0fb065b2d2645cd7d80f51c2e326c8a08a63f8",
    ),
    "transform-f32-3d": (
        "7a3b393af64c5b68702753b6426dfb6fc34820aee95cb1f6a99f6aa4ca2e9e88",
        "7ca9858bd9c79e8e6cfaf62c973b86310b4bfec78808ffea3c58762928ad7379",
    ),
    "transform-f32-r3-constant": (
        "8e31df2ef66e4c632755799fa4164386fbffb1838028cebe92dd45aa5e7e4541",
        "442225f1879a6ad94db0797b3aa3b6edfedf2fc77a0d348bae5fb731aaa62a69",
    ),
    "transform-f32-r3-smooth": (
        "3d391c5b397093d381f011b13927f26227b5d1687835e44862865c90e6ba5e15",
        "5c6da59a238a6cac44ba2cba860bb49e6a9a8ddf1813b59b72e2c580f0de9df6",
    ),
    "transform-f32-r32767-constant": (
        "d52b0ef3544d2d99215ee531cdc2365fcb3c3e1692070eaa88b650f4a91dd511",
        "442225f1879a6ad94db0797b3aa3b6edfedf2fc77a0d348bae5fb731aaa62a69",
    ),
    "transform-f32-r32767-smooth": (
        "aa144054adfae55fcdc32ac3542c8967f8000947b515ab6840e8b695a95d8a1c",
        "5c6da59a238a6cac44ba2cba860bb49e6a9a8ddf1813b59b72e2c580f0de9df6",
    ),
    "transform-f64-3d": (
        "fcdb68b13a5aae79d85df3a3a574d290948de203411f2f07115980f0b26afc52",
        "281308e4ff4c8d5b62265ed0f7c51e859763bc8700e8fe6eb2d731f091e26cd0",
    ),
    "transform-f64-r3-constant": (
        "09c90b2969a0d70278a5bc1c0edccaa7a04c1f4cab5a7ce23dc9f69d5843d35f",
        "ed7192c250c194b53dcc2f5d40c99af0c7f552a3cd4558e30d05319dd8c36c59",
    ),
    "transform-f64-r3-smooth": (
        "8120b2f33df80cd7d50082059afc4fe3624bcc51c5f52973f7ba096a7d26f7f8",
        "ac9f51ea1038c8cde8db37b59b3f9519446fae941b9e2ca86fe3193a6ce7b372",
    ),
    "transform-f64-r32767-constant": (
        "3398f7052a66f6116694d9c3916e4ba07fbf1c07366f63f155fc98d7f36c3768",
        "ed7192c250c194b53dcc2f5d40c99af0c7f552a3cd4558e30d05319dd8c36c59",
    ),
    "transform-f64-r32767-smooth": (
        "afeba189c79d29c17bbe3827ec2f5a499c003ccccb1d496b9d7ebb82fd98a238",
        "ac9f51ea1038c8cde8db37b59b3f9519446fae941b9e2ca86fe3193a6ce7b372",
    ),
}


def test_every_case_has_a_digest():
    assert sorted(_cases()) == sorted(DIGESTS)


@pytest.mark.parametrize("case", sorted(_cases()))
def test_digest(case):
    assert _digests(_cases()[case]) == DIGESTS[case]


if __name__ == "__main__":
    print("DIGESTS: Dict[str, Tuple[str, str]] = {")
    for name, case in sorted(_cases().items()):
        blob_digest, array_digest = _digests(case)
        print(f'    "{name}": (\n        "{blob_digest}",\n        "{array_digest}",\n    ),')
    print("}")
