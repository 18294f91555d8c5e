"""Import hygiene: every entry point runs on NumPy and the package alone.

SciPy is imported only inside :func:`repro.metrics.analysis.error_uniformity`
and :func:`repro.metrics.analysis.error_profile`.  ``import repro`` once
reached ``scipy.stats`` at module level, ~1.4 s of a ~1.7 s import in
every fresh process (each CLI call, served-job worker and cluster
member).  These checks run in a fresh interpreter, because the test
process itself has SciPy loaded.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = str(Path(repro.__file__).resolve().parents[1])

WITHOUT_SCIPY = """
import sys
sys.modules["scipy"] = None  # any import of scipy or a submodule fails

import numpy as np

import repro
import repro.cli.main
import repro.cluster.coordinator
import repro.parallel.executor
import repro.service.app
from repro.sz.compressor import compress, decompress

x = np.cumsum(np.random.default_rng(0).normal(size=(32, 32)), axis=0)
y = decompress(compress(x, 1e-3))
assert y.shape == x.shape and np.max(np.abs(x - y)) <= 1e-3

from repro.parallel.executor import run_field_task
from repro.service.tasks import run_compress_job

r = run_field_task("ATM", "CLDHGH", 60.0, scale=0.2)
assert r.compression_ratio > 1.0
job = run_compress_job(
    {"dataset": "ATM", "field": "CLDHGH", "scale": 0.2, "mode": "psnr",
     "target": 60.0}
)
assert job["status"] == "ok", job

from repro.cli.main import main

np.save("f.npy", x.astype(np.float32))
assert main(["compress", "f.npy", "-o", "f.fpz", "--psnr", "60"]) == 0
print("no scipy needed")
"""


def _run(script, cwd):
    return subprocess.run(
        [sys.executable, "-c", script],
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_entry_points_run_without_scipy(tmp_path):
    proc = _run(WITHOUT_SCIPY, tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "no scipy needed" in proc.stdout
    assert (tmp_path / "f.fpz").stat().st_size > 0


def test_import_repro_loads_no_scipy(tmp_path):
    proc = _run(
        "import sys, repro\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
        tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
