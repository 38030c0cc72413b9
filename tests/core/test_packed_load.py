"""What a registry miss on a packed backend pays for.

A packed backend resolves every user's extractors from one shared pool,
so a miss should pay only for the user's own bytes:

- an extractor is warmed (one throwaway transform) once per instance,
  so a second user sharing the first user's extractors loads and warms
  with no transform at all;
- the per-user scaler and ridge vectors stay zero-copy views in the
  stored dtype, and score bit-identically to float64 copies of the same
  stored values — on the single-probe path and on the stacked
  cross-user path of ``ModelRegistry.authenticate_many``.

The memory side of the view contract (no float64 copies on load) is
pinned at the paper's 9996 features in ``test_engine_memory.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    EnrollmentOptions,
    ModelRegistry,
    P2Auth,
    PackedArenaBackend,
    ShardedPackedBackend,
)
from repro.data import ThirdPartyStore
from repro.features import MiniRocket, _ckernel, warm_engine

PIN = "1628"
FEATURES = 840

PACKED_BACKENDS = {
    "sharded": ShardedPackedBackend,
    "arena": PackedArenaBackend,
}


def _enrolled(study_data, user_id):
    enroll = study_data.trials(user_id, PIN, "one_handed", 5)
    store = ThirdPartyStore(
        study_data, [u for u in range(5) if u != user_id], PIN
    )
    auth = P2Auth(pin=PIN, options=EnrollmentOptions(num_features=FEATURES))
    auth.enroll(enroll, store.sample(15))
    return auth


@pytest.fixture(scope="module")
def alice(study_data):
    return _enrolled(study_data, 0)


@pytest.fixture(scope="module")
def bob(study_data):
    return _enrolled(study_data, 1)


@pytest.fixture(scope="module")
def battery(study_data):
    """Legit, two-handed, emulating-attack and wrong-PIN probes."""
    legit = study_data.trials(0, PIN, "one_handed", 7)[5:7]
    two_handed = study_data.trials(0, PIN, "double3", 1)
    attack = study_data.emulating_trials(4, 0, PIN, 1)
    probes = [(t, None) for t in legit + two_handed + attack]
    probes.append((legit[0], "0000"))
    return probes


@pytest.fixture
def transform_calls(monkeypatch):
    """Calls of the compiled transform, the work a warm-up pays for."""
    if warm_engine() != "c":
        pytest.skip("counts compiled-kernel transforms")
    calls = []
    real = _ckernel.transform_prepared

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(_ckernel, "transform_prepared", counting)
    return calls


def _models(auth):
    models = auth.models
    return [
        m
        for m in (models.full_model, models.fused_model, *models.key_models.values())
        if m is not None
    ]


def _widen(auth):
    """Replace every per-user vector by a float64 copy of itself."""
    for model in _models(auth):
        scaler, clf = model._scaler, model._classifier
        scaler._mean = np.array(scaler._mean, dtype=np.float64)
        scaler._scale = np.array(scaler._scale, dtype=np.float64)
        clf.coef_ = np.array(clf.coef_, dtype=np.float64)
    return auth


class TestWarmOnce:
    def test_user_sharing_warm_extractors_warms_without_transforms(
        self, alice, transform_calls, tmp_path
    ):
        backend = ShardedPackedBackend(tmp_path)
        backend.store("alice", alice)
        backend.store("alias", alice)
        registry = ModelRegistry(backend=backend)

        first = registry.get("alice")
        extractors = {id(m._rocket) for m in _models(first)}
        assert len(transform_calls) == len(extractors)

        transform_calls.clear()
        second = registry.get("alias")
        assert second is not first
        assert {id(m._rocket) for m in _models(second)} == extractors
        assert transform_calls == []

    def test_refit_and_rebuilt_extractors_warm_again(self, transform_calls):
        x = np.random.default_rng(3).standard_normal((6, 4, 150))
        rocket = MiniRocket(num_features=FEATURES).fit(x)
        rocket.warm().warm()
        assert len(transform_calls) == 1
        rocket.fit(x[::-1])
        rocket.warm()
        assert len(transform_calls) == 2
        MiniRocket.from_state(*rocket.get_state()).warm()
        assert len(transform_calls) == 3

    def test_failed_warm_stays_cold(self, transform_calls, monkeypatch):
        x = np.random.default_rng(4).standard_normal((6, 4, 150))
        rocket = MiniRocket(num_features=FEATURES).fit(x)
        counting = _ckernel.transform_prepared

        def failing(*args, **kwargs):
            raise MemoryError("simulated")

        monkeypatch.setattr(_ckernel, "transform_prepared", failing)
        with pytest.raises(MemoryError):
            rocket.warm()
        monkeypatch.setattr(_ckernel, "transform_prepared", counting)
        rocket.warm()
        assert len(transform_calls) == 1


@pytest.mark.parametrize("kind", sorted(PACKED_BACKENDS))
class TestFloat32Views:
    def test_loaded_vectors_are_float32_views(self, kind, alice, tmp_path):
        backend = PACKED_BACKENDS[kind](tmp_path, dtype="float32")
        backend.store("alice", alice)
        for model in _models(backend.load("alice")):
            for vector in (
                model._scaler._mean,
                model._scaler._scale,
                model._classifier.coef_,
            ):
                assert vector.dtype == np.float32
                assert not vector.flags.owndata

    def test_authenticate_matches_widened_copy(
        self, kind, alice, battery, tmp_path
    ):
        backend = PACKED_BACKENDS[kind](tmp_path, dtype="float32")
        backend.store("alice", alice)
        views = backend.load("alice")
        wide = _widen(backend.load("alice"))
        for trial, pin in battery:
            got = views.authenticate(trial, claimed_pin=pin)
            assert got == wide.authenticate(trial, claimed_pin=pin)

    def test_stacked_batch_matches_widened_copies(
        self, kind, alice, bob, battery, tmp_path, monkeypatch
    ):
        backend = PACKED_BACKENDS[kind](tmp_path, dtype="float32")
        backend.store("alice", alice)
        backend.store("bob", bob)
        views = ModelRegistry(backend=backend)
        wide = ModelRegistry()
        for user in ("alice", "bob"):
            wide.add(user, _widen(backend.load(user)))

        trials = [t for t, _ in battery for _user in (0, 1)]
        pins = [p for _, p in battery for _user in (0, 1)]
        users = ["alice", "bob"] * len(battery)
        stacked = []
        real = _ckernel.transform_prepared_multi

        def spy(plans, x):
            stacked.append(len(plans))
            return real(plans, x)

        monkeypatch.setattr(_ckernel, "transform_prepared_multi", spy)
        got = views.authenticate_many(users, trials, pins)
        assert got == wide.authenticate_many(users, trials, pins)
        if warm_engine() == "c":
            assert stacked and max(stacked) > 1
