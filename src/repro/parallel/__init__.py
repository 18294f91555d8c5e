"""Process-based parallel execution for field sweeps and large arrays.

The paper's motivating scenario is compressing 79+ fields per snapshot
(CESM) on cluster nodes; this package provides the two parallel
decompositions that workload needs:

* :mod:`repro.parallel.executor` -- embarrassingly parallel *per-field*
  sweeps (one field x one target per task, shipped by name), used by
  the Table II / Figure 2 benchmarks;
* :mod:`repro.parallel.chunking` -- *intra-field* slab decomposition so
  a single huge array compresses in parallel and streams;
* :mod:`repro.parallel.shm` -- the zero-copy shared-memory data plane
  that chunked compression and the autotune probe fan-out move user
  arrays over (with graceful fallback to the pickle channel).

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
from repro.parallel.shm import (
    ShmArena,
    ShmArrayRef,
    open_payload,
    shm_available,
)

__all__ = [
    "Executor",
    "FieldResult",
    "sweep_dataset",
    "run_field_task",
    "compress_chunked",
    "decompress_chunked",
    "ShmArena",
    "ShmArrayRef",
    "open_payload",
    "shm_available",
]
