"""Fixtures for the service-layer tests.

Enrollment is the expensive part, so the two-user registry is
session-scoped and read-only; every test gets its own (cheap)
:class:`AuthService` over it. Tests that mutate the registry —
wire-enrollment happy paths — build a fresh one.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.core import EnrollmentOptions, ModelRegistry
from repro.data import ThirdPartyStore
from repro.service import AuthService


@pytest.fixture(autouse=True)
def no_unhandled_loop_exceptions(monkeypatch):
    """Fail a test whose event loops reported an unhandled exception.

    asyncio only *logs* an exception that escapes a connection handler
    task (or a task whose exception nobody retrieved). The handler
    installed here — on every loop the test creates, through the
    default-handler hook each loop falls back to — records the report,
    and teardown fails the test on any.
    """
    reported = []
    default = asyncio.BaseEventLoop.default_exception_handler

    def record(loop, context):
        reported.append(context)
        default(loop, context)

    monkeypatch.setattr(asyncio.BaseEventLoop, "default_exception_handler", record)
    yield
    assert not reported, [
        f"{c.get('message')}: {c.get('exception')!r}" for c in reported
    ]


#: PIN every pre-enrolled service user types.
PIN = "1628"

#: Small feature budget keeping model fits fast.
FEATURES = 840


@pytest.fixture(scope="session")
def third_party(study_data):
    """Negative corpus shared by every enrollment in these tests."""
    store = ThirdPartyStore(study_data, [2, 3, 4, 5], PIN)
    return store.sample(24)


@pytest.fixture(scope="session")
def service_registry(study_data, third_party):
    """A registry with users ``u0``/``u1`` enrolled (study users 0/1)."""
    registry = ModelRegistry(
        options=EnrollmentOptions(num_features=FEATURES)
    )
    for uid, idx in (("u0", 0), ("u1", 1)):
        registry.enroll(
            uid,
            PIN,
            study_data.trials(idx, PIN, "one_handed", 7),
            third_party,
        )
    return registry


@pytest.fixture(scope="session")
def probes(study_data):
    """Held-out probes beyond the 7 enrollment trials.

    ``legit``: user 0 typing their own PIN (target ``u0``).
    ``impostor``: user 1 typing user 0's PIN (also target ``u0``).
    """
    return {
        "legit": study_data.trials(0, PIN, "one_handed", 11)[7:],
        "impostor": study_data.trials(1, PIN, "one_handed", 11)[7:],
    }


@pytest.fixture()
def service(service_registry):
    """A fresh unlimited-retry service over the shared registry."""
    svc = AuthService(service_registry, retry=None, max_workers=4)
    svc.adopt_user("u0", PIN)
    svc.adopt_user("u1", PIN)
    yield svc
    svc.close()
