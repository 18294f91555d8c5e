"""Process-based parallel execution for field sweeps and large arrays.

The paper's motivating scenario is compressing 79+ fields per snapshot
(CESM) on cluster nodes; this package provides the two parallel
decompositions that workload needs:

* :mod:`repro.parallel.executor` -- embarrassingly parallel *per-field*
  sweeps (one field x one target per task, shipped by name), used by
  the Table II / Figure 2 benchmarks;
* :mod:`repro.parallel.chunking` -- *intra-field* slab decomposition so
  a single huge array compresses in parallel and streams;
* :mod:`repro.parallel.shm` -- how chunked compression and the
  autotune probe fan-out hand user arrays to their tasks: through the
  memory a per-call fork pool inherits, or by pickle.

Every one of them runs on a :class:`~repro.parallel.executor.Executor`,
the only source of worker pools: the caller's, or a per-call one.
"""

from repro.parallel.executor import (
    Executor,
    FieldResult,
    run_field_task,
    sweep_dataset,
)
from repro.parallel.chunking import compress_chunked, decompress_chunked
from repro.parallel.shm import ShmArena

__all__ = [
    "Executor",
    "FieldResult",
    "sweep_dataset",
    "run_field_task",
    "compress_chunked",
    "decompress_chunked",
    "ShmArena",
]
