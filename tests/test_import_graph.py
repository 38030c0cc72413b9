"""The serving process never loads ``scipy.signal`` or ``scipy.stats``.

Importing ``scipy.signal`` costs about a second of start-up on every
server restart and pre-forked worker, and drags in ``scipy.stats``,
``scipy.interpolate`` and ``scipy.optimize``. Nothing a server runs
needs them: the SG arithmetic lives in ``repro.signal.filters`` on top
of ``scipy.linalg``, and only the rate sweeps and the manual-feature
baseline import the heavy modules, when called.

The check runs in a fresh interpreter, because the test process itself
has long since imported everything. It imports the serving modules,
enrolls a small user, and authenticates a one-handed and a ``double3``
probe over the wire codec, so a deferred import that the first request
would trigger also fails it.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

#: Modules the serving process must not import.
FORBIDDEN = ("scipy.signal", "scipy.stats")

_SCRIPT = """
import asyncio, json, sys

import repro.core, repro.features, repro.service, repro.service.http
from repro.core import EnrollmentOptions, ModelRegistry
from repro.data import StudyData, ThirdPartyStore
from repro.service import AuthService, encode_trial, pin_proof
from repro.service.protocol import AuthRequest, make_nonce

PIN = "1628"
study = StudyData(n_users=4, seed=5)
registry = ModelRegistry(options=EnrollmentOptions(num_features=840))
registry.enroll(
    "u0",
    PIN,
    study.trials(0, PIN, "one_handed", 7),
    ThirdPartyStore(study, [1, 2, 3], PIN).sample(12),
)
svc = AuthService(registry)
svc.adopt_user("u0", PIN)
outcomes = {}
try:
    for condition, probe in (
        ("one_handed", study.trials(0, PIN, "one_handed", 8)[7]),
        ("double3", study.trials(0, PIN, "double3", 1)[0]),
    ):
        nonce = make_nonce()
        request = AuthRequest(
            user_id="u0",
            nonce=nonce,
            proof=pin_proof(PIN, "u0", nonce),
            trial=encode_trial(probe),
        )
        response = asyncio.run(svc.authenticate(request))
        outcomes[condition] = [response.input_case, len(response.scores)]
finally:
    svc.close()
print(json.dumps({
    "outcomes": outcomes,
    "loaded": sorted(m for m in sys.modules if m.startswith("scipy.")),
}))
"""


def test_serving_path_never_imports_scipy_signal_or_stats():
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    # Both probes ran the whole engine down to the classifier scores.
    outcomes = report["outcomes"]
    assert set(outcomes) == {"one_handed", "double3"}
    assert all(case and n_scores for case, n_scores in outcomes.values()), outcomes
    loaded = report["loaded"]
    leaked = [
        m for m in loaded if any(m == f or m.startswith(f + ".") for f in FORBIDDEN)
    ]
    assert leaked == []
    assert "scipy.linalg" in loaded and "scipy.ndimage" in loaded
