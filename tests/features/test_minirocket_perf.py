"""Tier-1-safe performance smoke test for the MiniRocket engines.

Uses the reference-loop budget recorded in ``BENCH_minirocket.json``
(committed by ``scripts/bench_transform.py``) as a machine-independent
yardstick: the production transform path must finish the same smoke
case well inside that budget, re-measured locally, so a regression that
reintroduces per-kernel Python looping fails loudly while slow CI
machines do not. Skips when the benchmark file is missing.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np
import pytest

from repro.features.minirocket import MiniRocket
from tests.oracles import transform_reference

_BENCH = Path(__file__).resolve().parents[2] / "BENCH_minirocket.json"


@pytest.mark.skipif(not _BENCH.exists(), reason="BENCH_minirocket.json missing")
def test_default_transform_beats_reference_budget():
    report = json.loads(_BENCH.read_text())
    case = next(c for c in report["cases"] if c["case"] == "smoke-1ch")

    rng = np.random.default_rng(42)
    x = rng.normal(size=(case["n_instances"], case["n_channels"], case["length"]))

    rocket = MiniRocket(num_features=840, seed=0).fit(x)
    rocket.transform(x)  # warm up (possible one-time C compile)

    # Budget: the *local* reference loop, so slow machines self-scale.
    start = time.perf_counter()
    transform_reference(rocket, x)
    reference_s = time.perf_counter() - start

    start = time.perf_counter()
    rocket.transform(x)
    default_s = time.perf_counter() - start

    # The recorded run showed the default path 5x+ faster than the
    # loop; 3x of the reference budget leaves huge headroom for timer
    # noise while still catching a fallback to per-kernel looping.
    assert default_s <= 3.0 * max(reference_s, case["transform"]["reference"]["best_s"])
