"""Memory contract of the one authentication engine.

Warmup may allocate only what the transform needs once per extractor —
the marshalled C-kernel plan (the flattened bias table, ~78 KiB at 9996
features) plus the process-wide SG and detrend caches. Request threads
may allocate only per call: nothing per user or per thread survives an
``authenticate`` call. A per-thread feature-row cache (two rows of 9996
float64 per model, ~0.75 MiB per user per thread) breaks both bounds.
Loading a packed user keeps its record's bytes and small Python
objects, never float64 copies of the stored per-user vectors (another
~1.2 MiB per float32 user).
"""

from __future__ import annotations

import threading
import tracemalloc

import pytest

from repro.config import PAPER_PINS
from repro.core import (
    EnrollmentOptions,
    P2Auth,
    PackedArenaBackend,
    ShardedPackedBackend,
    pack_authenticator,
)
from repro.data import StudyData, ThirdPartyStore
from repro.features import warm_engine

PIN = PAPER_PINS[0]
MIB = 1024 * 1024

#: Paper operating point.
FEATURES = 9996

#: Warmup budget per user: the transform plans and nothing else.
WARMUP_BUDGET = 0.2 * MIB

#: What loading a packed user may keep beyond its record's bytes: the
#: decoded JSON header, the model and authenticator objects.
LOAD_SLACK = 64 * 1024

#: What an idle second request thread may still hold after its call:
#: interpreter bookkeeping, far below one 9996-feature row (78 KiB).
THREAD_RESIDUE_BUDGET = 32 * 1024


@pytest.fixture(scope="module")
def world():
    data = StudyData(n_users=4, seed=21)
    third_party = ThirdPartyStore(data, [1, 2], PIN).sample(12)
    auth = P2Auth(pin=PIN, options=EnrollmentOptions(num_features=FEATURES))
    auth.enroll(data.trials(0, PIN, "one_handed", 8)[:6], third_party)
    probe = data.trials(0, PIN, "one_handed", 8)[6]
    return auth, probe


def _traced_growth(fn) -> int:
    """Bytes still allocated after ``fn()`` returns, under tracemalloc."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


def test_warmup_allocates_only_transform_plans(world):
    auth, probe = world
    warm_engine()  # the shared-library load is process-wide, not per user
    grown = _traced_growth(
        lambda: auth.warmup((probe.recording.n_samples,))
    )
    assert grown <= WARMUP_BUDGET, f"warmup kept {grown / MIB:.3f} MiB"


def test_second_thread_keeps_no_per_user_allocation(world):
    auth, probe = world
    auth.warmup((probe.recording.n_samples,))
    expected = auth.authenticate(probe)
    done = threading.Event()
    release = threading.Event()
    results = []

    def request_thread():
        results.append(auth.authenticate(probe))
        done.set()
        release.wait(timeout=60)  # stay alive while the main thread measures

    def authenticate_from_live_thread():
        thread = threading.Thread(target=request_thread)
        thread.start()
        assert done.wait(timeout=60)
        results.append(thread)

    try:
        grown = _traced_growth(authenticate_from_live_thread)
    finally:
        release.set()
    thread = results.pop()
    thread.join(timeout=60)
    assert results == [expected]
    assert grown <= THREAD_RESIDUE_BUDGET, (
        f"a live request thread kept {grown / 1024:.1f} KiB"
    )


@pytest.mark.parametrize(
    "backend_cls", [ShardedPackedBackend, PackedArenaBackend], ids=["sharded", "arena"]
)
def test_packed_load_keeps_no_float64_copies(world, backend_cls, tmp_path):
    auth, _probe = world
    backend = backend_cls(tmp_path, dtype="float32")
    backend.store("first", auth)
    backend.store("second", auth)
    backend.load("first")  # decodes the shared extractors into the pool
    record = pack_authenticator(auth, "float32").record_nbytes
    loaded = []
    grown = _traced_growth(lambda: loaded.append(backend.load("second")))
    assert grown <= record + LOAD_SLACK, (
        f"loading a {record / MIB:.2f} MiB record kept {grown / MIB:.2f} MiB"
    )
