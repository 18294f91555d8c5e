"""Synthetic scientific data sets mirroring the paper's Table I.

The paper evaluates on production snapshots (CESM-ATM climate,
Hurricane ISABEL, NYX cosmology) that are not redistributable; these
generators produce deterministic synthetic fields with the same
dimensionality, field counts, names and statistical character (smooth
vs. intermittent, bounded vs. heavy-tailed, vortical vs. layered) --
see DESIGN.md section 2.3 for why this preserves the paper's
behaviour.

Every generator is seeded by the field name, so data sets are
reproducible across processes and sessions.

Code that uses the same named field more than once in a process (sweep
and service workers) loads it through :func:`load_field`, which
generates it once and keeps it in a small per-process cache.
"""

from repro.datasets.registry import (
    Dataset,
    FieldSpec,
    get_dataset,
    DATASETS,
    table1_rows,
)
from repro.datasets.source import clear_field_cache, load_field
from repro.datasets.spectral import gaussian_random_field

__all__ = [
    "Dataset",
    "FieldSpec",
    "get_dataset",
    "DATASETS",
    "table1_rows",
    "load_field",
    "clear_field_cache",
    "gaussian_random_field",
]
