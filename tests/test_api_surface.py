"""The public API surface: everything advertised must exist and work."""

import importlib

import numpy as np
import pytest

import repro


class TestTopLevelExports:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version_string(self):
        parts = repro.__version__.split(".")
        assert len(parts) == 3
        assert all(p.isdigit() for p in parts)

    def test_docstring_example_runs(self):
        """The quickstart in the package docstring must be true."""
        data = np.cumsum(
            np.random.default_rng(0).normal(size=10000)
        ).reshape(100, 100)
        blob = repro.compress_fixed_psnr(data, target_psnr=80.0)
        recon = repro.decompress(blob)
        assert abs(repro.psnr(data, recon) - 80.0) < 2.0


@pytest.mark.parametrize(
    "module",
    [
        "repro.core",
        "repro.core.psnr_model",
        "repro.core.fixed_psnr",
        "repro.core.modes",
        "repro.core.calibration",
        "repro.core.allocation",
        "repro.sz",
        "repro.sz.compressor",
        "repro.sz.predictors",
        "repro.sz.quantizer",
        "repro.sz.reference",
        "repro.sz.regression",
        "repro.sz.hybrid",
        "repro.sz.legacy",
        "repro.sz.interp",
        "repro.textplot",
        "repro.metrics.spectral",
        "repro.metrics.derived",
        "repro.baselines.decimation",
        "repro.sz.temporal",
        "repro.report",
        "repro.sz.pointwise",
        "repro.transform",
        "repro.transform.dct",
        "repro.transform.blocking",
        "repro.transform.compressor",
        "repro.transform.embedded",
        "repro.encoding",
        "repro.encoding.bitio",
        "repro.encoding.codes",
        "repro.encoding.huffman",
        "repro.encoding.rans",
        "repro.encoding.lossless",
        "repro.datasets",
        "repro.datasets.spectral",
        "repro.datasets.temporal",
        "repro.datasets.registry",
        "repro.datasets.source",
        "repro.baselines",
        "repro.baselines.decimation",
        "repro.baselines.lossless",
        "repro.metrics",
        "repro.metrics.distortion",
        "repro.metrics.ratio",
        "repro.metrics.analysis",
        "repro.io",
        "repro.io.container",
        "repro.io.archive",
        "repro.io.campaign",
        "repro.datasets.statistics",
        "repro.transform.wavelet",
        "repro.parallel",
        "repro.parallel.executor",
        "repro.parallel.chunking",
        "repro.cli",
        "repro.cli.main",
        "repro.core.codecs",
        "repro.autotune",
        "repro.autotune.search",
        "repro.autotune.objective",
        "repro.autotune.cache",
        "repro.autotune.driver",
        "repro.resilience",
        "repro.resilience.inject",
        "repro.resilience.salvage",
        "repro.resilience.retry",
    ],
)
class TestModuleHygiene:
    def test_importable_with_docstring(self, module):
        mod = importlib.import_module(module)
        assert mod.__doc__ and len(mod.__doc__.strip()) > 20, module

    def test_all_exports_resolve(self, module):
        mod = importlib.import_module(module)
        for name in getattr(mod, "__all__", []):
            assert hasattr(mod, name), f"{module}.{name}"


class TestPublicDocstrings:
    def test_every_public_callable_documented(self):
        """Every public function/class in __all__ carries a docstring."""
        missing = []
        for module_name in (
            "repro.core.fixed_psnr",
            "repro.core.psnr_model",
            "repro.sz.compressor",
            "repro.sz.predictors",
            "repro.encoding.huffman",
            "repro.encoding.codes",
            "repro.metrics.distortion",
        ):
            mod = importlib.import_module(module_name)
            for name in mod.__all__:
                obj = getattr(mod, name)
                if callable(obj) and not (obj.__doc__ or "").strip():
                    missing.append(f"{module_name}.{name}")
        assert not missing, missing
