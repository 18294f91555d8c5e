"""Trace-content regression: the observability layer's deterministic
output is part of the tested surface.

Checked here, all against the golden field:

* the ``pack`` span's ``bytes.*`` counters sum **exactly** to the
  serialized container size (and agree with
  ``Container.byte_layout()``);
* the stage-name tree for each codec is stable (a rename or a dropped
  stage is a breaking change for trace consumers);
* golden comparisons use ``deterministic_dict()`` only -- timings are
  explicitly excluded and never part of the contract;
* every Huffman codec's decompress records a ``huffman.decode`` span
  with exact, repeatable counters;
* every Huffman codec records the shared entropy stage's span tree:
  ``escape`` and ``entropy`` on compress, ``codes.decode`` on
  decompress.
"""

from pathlib import Path

import numpy as np
import pytest

from repro.core.fixed_psnr import FixedPSNRCompressor
from repro.io.container import Container
from repro.observe import Trace, use_trace
from repro.parallel.chunking import compress_chunked
from repro.sz.compressor import SZCompressor
from repro.transform.compressor import TransformCompressor

GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture(scope="module")
def field():
    return np.load(GOLDEN / "field.npy")


def _traced(fn, *args):
    tr = Trace()
    with use_trace(tr):
        blob = fn(*args)
    return tr, blob


def _pack_records(tr):
    return [r for r in tr.records if r.path[-1] == "pack"]


class TestByteAccounting:
    def test_sz_pack_counters_sum_to_container_size(self, field):
        tr, blob = _traced(SZCompressor(1e-3, mode="abs").compress, field)
        (pack,) = _pack_records(tr)
        total = sum(
            v for k, v in pack.counters.items() if k.startswith("bytes.")
        )
        assert total == len(blob)

    def test_sz_pack_counters_match_byte_layout(self, field):
        tr, blob = _traced(SZCompressor(1e-3, mode="abs").compress, field)
        (pack,) = _pack_records(tr)
        layout = Container.from_bytes(blob).byte_layout()
        assert layout["total"] == len(blob)
        assert pack.counters["bytes.framing"] == layout["framing"]
        for name, size in layout["streams"].items():
            assert pack.counters[f"bytes.{name}"] == size

    def test_transform_pack_counters_sum(self, field):
        tr, blob = _traced(
            TransformCompressor(1e-4, mode="rel").compress, field
        )
        (pack,) = _pack_records(tr)
        total = sum(
            v for k, v in pack.counters.items() if k.startswith("bytes.")
        )
        assert total == len(blob)

    def test_chunked_outer_pack_counters_sum(self, field):
        tr, blob = _traced(compress_chunked, field, 1e-3, "abs", 3)
        outer = [
            r
            for r in _pack_records(tr)
            if r.path == ("chunked.compress", "pack")
        ]
        assert len(outer) == 1
        total = sum(
            v
            for k, v in outer[0].counters.items()
            if k.startswith("bytes.")
        )
        assert total == len(blob)

    def test_total_bytes_helper_consistent(self, field):
        tr, blob = _traced(SZCompressor(1e-3, mode="abs").compress, field)
        (pack,) = _pack_records(tr)
        assert tr.total_bytes(path=pack.path) == len(blob)


def _codec_factories():
    """One single-argument ``compress(field) -> bytes`` per codec path
    that serializes a container (the byte-accounting surface)."""
    from repro.sz.hybrid import HybridCompressor
    from repro.sz.interp import InterpolationCompressor
    from repro.sz.legacy import Sz11Compressor
    from repro.sz.regression import RegressionCompressor
    from repro.sz.temporal import TemporalCompressor
    from repro.transform.embedded import EmbeddedTransformCompressor

    return {
        "sz": lambda: SZCompressor(1e-3, mode="abs").compress,
        "transform": lambda: TransformCompressor(1e-4, mode="rel").compress,
        "legacy": lambda: Sz11Compressor(1e-3, mode="abs").compress,
        "temporal": lambda: TemporalCompressor(error_bound=1e-3).push,
        "regression": lambda: RegressionCompressor(1e-3, mode="abs").compress,
        "interp": lambda: InterpolationCompressor(1e-3, mode="abs").compress,
        "hybrid": lambda: HybridCompressor(1e-3, mode="abs").compress,
        "embedded-rate": lambda: EmbeddedTransformCompressor(
            mode="fixed_rate", rate=4.0
        ).compress,
        "embedded-psnr": lambda: EmbeddedTransformCompressor(
            mode="fixed_psnr", rate=60.0
        ).compress,
    }


@pytest.mark.parametrize(
    "codec", sorted(_codec_factories()), ids=sorted(_codec_factories())
)
class TestByteAccountingAllCodecs:
    """Every codec's ``pack`` span must account for every byte of its
    container -- including the constant-field short-circuit paths."""

    def _check(self, compress, data):
        tr, blob = _traced(compress, data)
        packs = _pack_records(tr)
        assert len(packs) == 1, "expected exactly one container pack"
        counters = packs[0].counters
        total = sum(
            v for k, v in counters.items() if k.startswith("bytes.")
        )
        assert total == len(blob)
        layout = Container.from_bytes(blob).byte_layout()
        assert counters["bytes.framing"] == layout["framing"]
        for name, size in layout["streams"].items():
            assert counters[f"bytes.{name}"] == size

    def test_pack_accounts_for_every_byte(self, field, codec):
        self._check(_codec_factories()[codec](), field)

    def test_constant_field_path_accounts_too(self, codec):
        const = np.full((32, 32), 3.25, dtype=np.float32)
        self._check(_codec_factories()[codec](), const)


def _huffman_round_trips():
    """``(compress, decompress)`` for each codec that ends in Huffman."""
    from repro.sz.hybrid import HybridCompressor
    from repro.sz.interp import InterpolationCompressor
    from repro.sz.legacy import Sz11Compressor
    from repro.sz.regression import RegressionCompressor
    from repro.sz.temporal import TemporalCompressor, TemporalDecompressor

    return {
        "sz": (SZCompressor(1e-3, mode="abs").compress, SZCompressor.decompress),
        "transform": (
            TransformCompressor(1e-4, mode="rel").compress,
            TransformCompressor.decompress,
        ),
        "legacy": (
            Sz11Compressor(1e-3, mode="abs").compress,
            Sz11Compressor.decompress,
        ),
        "temporal": (
            TemporalCompressor(error_bound=1e-3).push,
            lambda blob: TemporalDecompressor().push(blob),
        ),
        "regression": (
            RegressionCompressor(1e-3, mode="abs").compress,
            RegressionCompressor.decompress,
        ),
        "interp": (
            InterpolationCompressor(1e-3, mode="abs").compress,
            InterpolationCompressor.decompress,
        ),
        "hybrid": (
            HybridCompressor(1e-3, mode="abs").compress,
            HybridCompressor.decompress,
        ),
    }


@pytest.mark.parametrize("codec", sorted(_huffman_round_trips()))
def test_huffman_decode_span(field, codec):
    """Decompress records ``huffman.decode`` with the stream's sizes,
    the decoder's walk counts and the segments it handed over to the
    all-offsets entry walkers, identical run to run."""
    compress, decompress = _huffman_round_trips()[codec]
    blob = compress(field)
    runs = []
    for _ in range(2):
        tr, _ = _traced(decompress, blob)
        spans = [r for r in tr.records if r.path[-1] == "huffman.decode"]
        assert spans, [r.path for r in tr.records]
        runs.append([(r.path, r.counters) for r in spans])
    assert runs[0] == runs[1]
    for _, counters in runs[0]:
        assert set(counters) == {
            "n_symbols", "total_bits", "segments", "entry_walker_steps",
            "handover_segments",
        }
        assert 1 <= counters["n_symbols"] <= counters["total_bits"]
        assert counters["segments"] >= 1


@pytest.mark.parametrize("codec", sorted(_huffman_round_trips()))
def test_shared_entropy_stage_spans(field, codec):
    """All seven Huffman codecs run one escape/entropy/lossless stage,
    so each records the same span tree under its own span (or its
    caller's, for codecs that open none)."""
    compress, decompress = _huffman_round_trips()[codec]
    tr, blob = _traced(compress, field)
    paths = {r.path for r in tr.records}
    entropy = [p for p in paths if p[-1] == "entropy"]
    assert len(entropy) == 1, sorted(paths)
    entropy = entropy[0]
    assert paths >= {
        entropy[:-1] + ("escape",),
        entropy + ("huffman.build",),
        entropy + ("huffman.encode",),
        entropy + ("lossless",),
    }

    tr, _ = _traced(decompress, blob)
    decode = [r for r in tr.records if r.path[-1] == "codes.decode"]
    assert len(decode) == 1, [r.path for r in tr.records]
    assert decode[0].counters["n_points"] >= field.size
    assert decode[0].gauges["coder_id"] == 0
    assert decode[0].path + ("huffman.decode",) in {r.path for r in tr.records}


class TestStageNameStability:
    def test_sz_stage_tree(self, field):
        tr, _ = _traced(SZCompressor(1e-3, mode="abs").compress, field)
        paths = {"/".join(r.path) for r in tr.records}
        assert paths >= {
            "sz.compress",
            "sz.compress/quantize",
            "sz.compress/escape",
            "sz.compress/entropy",
            "sz.compress/entropy/huffman.build",
            "sz.compress/entropy/huffman.encode",
            "sz.compress/entropy/lossless",
            "sz.compress/pack",
        }

    def test_fixed_psnr_stage_tree(self, field):
        tr, _ = _traced(FixedPSNRCompressor(80.0).compress, field)
        paths = {"/".join(r.path) for r in tr.records}
        assert "fixed_psnr.compress" in paths
        assert "fixed_psnr.compress/derive_bound" in paths
        assert "fixed_psnr.compress/sz.compress" in paths

    def test_transform_stage_tree(self, field):
        tr, _ = _traced(TransformCompressor(1e-4, mode="rel").compress, field)
        paths = {"/".join(r.path) for r in tr.records}
        assert paths >= {
            "transform.compress",
            "transform.compress/dct",
            "transform.compress/quantize",
            "transform.compress/escape",
            "transform.compress/entropy",
            "transform.compress/pack",
        }

    def test_chunked_stage_tree(self, field):
        tr, _ = _traced(compress_chunked, field, 1e-3, "abs", 2)
        paths = {"/".join(r.path) for r in tr.records}
        assert "chunked.compress" in paths
        assert "chunked.compress/slab/sz.compress" in paths
        assert "chunked.compress/pack" in paths


class TestDeterministicContent:
    def test_deterministic_dict_stable_across_runs(self, field):
        t1, _ = _traced(SZCompressor(1e-3, mode="abs").compress, field)
        t2, _ = _traced(SZCompressor(1e-3, mode="abs").compress, field)
        assert t1.deterministic_dict() == t2.deterministic_dict()

    def test_exact_counters_for_golden_settings(self, field):
        tr, blob = _traced(SZCompressor(1e-3, mode="abs").compress, field)
        root = [r for r in tr.records if r.path == ("sz.compress",)][0]
        assert root.counters["n_points"] == field.size
        assert root.counters["raw_bytes"] == field.nbytes
        quant = [r for r in tr.records if r.path[-1] == "quantize"][0]
        assert quant.counters["n_points"] == field.size
        assert quant.gauges["bin_size"] == pytest.approx(2e-3)
        # bitwise-stable golden settings => bitwise-stable byte counters
        assert blob == (GOLDEN / "sz_abs.fpz").read_bytes()

    def test_timing_never_in_deterministic_output(self, field):
        tr, _ = _traced(SZCompressor(1e-3, mode="abs").compress, field)
        import json

        text = json.dumps(tr.deterministic_dict())
        assert "duration" not in text and "timing" not in text
