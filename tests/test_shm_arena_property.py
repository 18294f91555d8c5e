"""Property tests for the :class:`repro.parallel.shm.ShmArena` lifecycle.

Hypothesis drives random interleavings of the data plane's segment
operations -- ``share``, a worker's ``publish_bytes`` / ``publish_array``,
the parent's ``take_bytes`` / ``adopt_array`` -- against a trivial
reference model (the set of segments that should be linked) and
asserts after every step that the ``/dev/shm`` listing under the
arena's prefix is exactly that set: **no interleaving can leak a
segment**, and none is reclaimed early.  ``close()`` then leaves
nothing behind.

Misuse (draining a segment twice, use-after-close) must surface as a
*typed* :class:`~repro.errors.TransportError`, never a crash or a leak.
"""

import gc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.parallel.shm as shm
from repro.errors import ErrorCode, TransportError
from repro.parallel.shm import (
    ShmArena,
    ShmArrayRef,
    ShmBytesRef,
    publish_array,
    publish_bytes,
    shm_dir_entries,
    take_bytes,
)

pytestmark = pytest.mark.skipif(
    not shm.shm_available(), reason="POSIX shared memory unavailable"
)

# One payload comfortably above MIN_SHARE_BYTES; contents are
# irrelevant to lifecycle behaviour, so reuse a single buffer.
_PAYLOAD = np.arange(8192, dtype=np.float64).reshape(64, 128)
_BLOB = _PAYLOAD.tobytes()

# An interleaving is a sequence of ops over a small pool of slots.
# "share"/"publish_*" fill a slot; "take"/"adopt" act on whatever the
# slot holds (no-op when empty -- Hypothesis still explores the
# orderings around it).
_OPS = st.lists(
    st.tuples(
        st.sampled_from(
            ["share", "publish_bytes", "publish_array", "take", "adopt"]
        ),
        st.integers(min_value=0, max_value=3),
    ),
    max_size=24,
)


@settings(max_examples=40, deadline=None)
@given(ops=_OPS)
def test_interleavings_never_leak_or_double_free(ops):
    slots = {}
    linked = set()  # names the model says are in /dev/shm
    arena = ShmArena()
    try:
        for op, slot in ops:
            if op == "share":
                ref = arena.share(_PAYLOAD)
                assert isinstance(ref, ShmArrayRef)
                slots[slot] = ref
                linked.add(ref.name)
            elif op == "publish_bytes":
                ref = publish_bytes(arena.prefix, _BLOB)
                assert isinstance(ref, ShmBytesRef)
                slots[slot] = ref
                linked.add(ref.name)
            elif op == "publish_array":
                ref = publish_array(arena.prefix, _PAYLOAD)
                assert isinstance(ref, ShmArrayRef)
                slots[slot] = ref
                linked.add(ref.name)
            elif op == "take" and isinstance(slots.get(slot), ShmBytesRef):
                ref = slots[slot]
                if ref.name in linked:
                    assert take_bytes(ref) == _BLOB
                    linked.discard(ref.name)
                else:
                    with pytest.raises(TransportError) as exc:
                        take_bytes(ref)
                    assert exc.value.code == ErrorCode.SHM_RELEASED
            elif op == "adopt" and isinstance(slots.get(slot), ShmArrayRef):
                # Adopted and shared segments stay linked until close.
                view = arena.adopt_array(slots[slot])
                assert np.array_equal(view, _PAYLOAD)
                del view
            # The invariant holds after *every* step, not just at the end.
            assert set(shm_dir_entries(arena.prefix)) == linked
    finally:
        arena.close()
    assert shm_dir_entries(arena.prefix) == []
    assert not arena.finalizer_alive


@settings(max_examples=20, deadline=None)
@given(n_shared=st.integers(0, 4), n_published=st.integers(0, 3))
def test_close_reclaims_every_segment(n_shared, n_published):
    arena = ShmArena()
    for _ in range(n_shared):
        arena.share(_PAYLOAD)
    for _ in range(n_published):  # published by a worker, never drained
        publish_bytes(arena.prefix, _BLOB)
    assert len(shm_dir_entries(arena.prefix)) == n_shared + n_published
    arena.close()
    assert shm_dir_entries(arena.prefix) == []
    # and nothing stale survives a second close
    arena.close()
    assert shm_dir_entries(arena.prefix) == []


@settings(max_examples=15, deadline=None)
@given(n_live=st.integers(min_value=1, max_value=3))
def test_finalizer_sweeps_garbage_collected_arena(n_live):
    arena = ShmArena()
    prefix = arena.prefix
    for _ in range(n_live):
        arena.share(_PAYLOAD)
    assert len(shm_dir_entries(prefix)) == n_live
    del arena
    gc.collect()
    assert shm_dir_entries(prefix) == []
