"""Perf-regression smoke test for the authenticate hot path.

Runs the same harness as ``scripts/bench_authenticate.py`` under
pytest-benchmark: warm single-probe latency of ``P2Auth.authenticate``
against the same stage chain on the test-oracle preprocessing kernels
(interleaved per iteration), batch vs loop, and the cross-user registry
batch. The asserted floors are deliberately below the measured numbers
(the engine ~1.7x the oracle path and well under 10 ms p50 in full mode
on an idle core) so the test flags genuine regressions, not CI noise —
and the parity flags must hold exactly at any scale.
"""

from __future__ import annotations

import importlib.util
import os
from pathlib import Path

from .conftest import run_once

_SCRIPT = (
    Path(__file__).resolve().parent.parent / "scripts" / "bench_authenticate.py"
)
_spec = importlib.util.spec_from_file_location("bench_authenticate", _SCRIPT)
bench_authenticate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_authenticate)


def _is_smoke() -> bool:
    return os.environ.get("REPRO_BENCH_SCALE", "default").lower() == "smoke"


def _params():
    if _is_smoke():
        return dict(num_features=840, single_repeats=30, stage_repeats=10,
                    batch_repeats=2, sizes=(1, 4, 16))
    return dict(num_features=9996, single_repeats=60, stage_repeats=20,
                batch_repeats=2, sizes=(1, 4, 16, 64))


def test_authenticate_hot_path(benchmark, report):
    result = run_once(benchmark, bench_authenticate.run, **_params())

    single = result["single"]
    report(
        "authenticate — "
        f"engine p50 {single['engine']['p50_ms']:.2f} ms | "
        f"oracle p50 {single['oracle']['p50_ms']:.2f} ms | "
        f"speedup {single['speedup_vs_oracle']:.2f}x | "
        f"warmup {result['cold']['warmup_ms']:.1f} ms | "
        f"registry batch {result['registry']['speedup_batch']:.2f}x"
    )

    # Exactness is non-negotiable at any scale: every optimized path
    # must return the same decisions as the oracle-kernel reference.
    assert single["parity_ok"]
    assert result["cold"]["parity_ok"]
    assert all(s["parity_ok"] for s in result["batch"]["sizes"].values())
    assert result["registry"]["parity_ok"]

    # Latency floors, kept loose against shared-runner noise; the
    # committed full-mode BENCH_authenticate.json holds the real
    # numbers.
    assert single["speedup_vs_oracle"] >= 1.2
    assert single["engine"]["p50_ms"] <= 25.0

    # The six stages must all be accounted for in the profile budget.
    assert set(result["stages"]["median_ms"]) == {
        "repair", "preprocess", "segment", "featurize", "classify", "decide",
    }
