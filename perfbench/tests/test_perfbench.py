"""The benchmark's own tests.

Run from the repository root::

    python3 -m pytest perfbench/tests -q

They build tiny fixtures (few users, 840 features) so the whole file
runs in about a minute; the smoke runs start real server processes.
"""

from __future__ import annotations

import asyncio
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from repro.core import ModelRegistry, ShardedPackedBackend  # noqa: E402

from perfbench.fixture import build_fixture, expected_of, response_matches  # noqa: E402
from perfbench.harness import Outcome, _p95_by_round, proc_cpu_s  # noqa: E402
from perfbench import loadgen  # noqa: E402
from perfbench.loadgen import Connection, Op, arrivals, auth_parts, plan_picks  # noqa: E402
from perfbench.tracing import Span, covered, layer_metrics, self_times  # noqa: E402
from perfbench.workloads import MIX, PIN, WORKLOADS, WRONG_PIN  # noqa: E402

SMALL = ["--users", "12", "--templates", "2", "--features", "840"]


@pytest.fixture(scope="module")
def small_fixture(tmp_path_factory):
    return build_fixture(
        5, tmp_path_factory.mktemp("fx"), n_users=8, n_templates=2, features=840
    )


def _probes(seed):
    """The probe trials behind a fixture, rebuilt from the same seed."""
    from perfbench.fixture import KINDS, _template

    out = {}
    for index in range(2):
        _, drawn = _template(seed, index, 840)
        for kind in KINDS:
            for j, trial in enumerate(drawn[kind]):
                out[(index, kind, j)] = trial
    return out


def test_oracle_equals_direct_calls(small_fixture):
    fx = small_fixture
    registry = ModelRegistry(backend=ShardedPackedBackend(fx.backend_dir))
    probes = _probes(fx.seed)
    assert len(fx.oracle) == 2 * len(probes)
    for (template, kind, j, pin_ok), expected in fx.oracle.items():
        # Another user stamped from the same template decides the same.
        uid = fx.user_ids[template + fx.n_templates]
        decision = registry.authenticate(
            uid, probes[(template, kind, j)], claimed_pin=PIN if pin_ok else WRONG_PIN
        )
        assert expected_of(decision) == expected
        if not pin_ok:
            assert expected[0] is False and expected[2] is False
    # Both decisions occur, so the check is not vacuous.
    assert {e[0] for e in fx.oracle.values()} == {True, False}


def test_response_matching_is_bit_exact(small_fixture):
    expected = next(e for e in small_fixture.oracle.values() if e[4])
    wire = json.loads(
        json.dumps(
            {
                "accepted": expected[0],
                "reason": expected[1],
                "pin_ok": expected[2],
                "input_case": expected[3],
                "scores": list(expected[4]),
            }
        )
    )
    assert response_matches(expected, wire)
    wire["scores"] = [np.nextafter(wire["scores"][0], 9.0)] + wire["scores"][1:]
    assert not response_matches(expected, wire)


def test_plan_is_a_function_of_the_seed():
    def plan(seed):
        rng = np.random.default_rng([seed, 1])
        return plan_picks(rng, 400, "zipf", 1000, 4, 4), arrivals(400, 4.0)

    picks_a, dues_a = plan(3)
    picks_b, dues_b = plan(3)
    assert picks_a == picks_b
    assert np.array_equal(dues_a, dues_b)
    assert np.allclose(np.diff(dues_a), 0.01)  # constant offered rate
    assert plan(4)[0] != picks_a
    # Exact mix weights (2:2:2:1), not sampled ones.
    total = sum(weight for _, _, weight in MIX)
    counts = [
        sum(p.kind == kind and p.pin_ok == pin_ok for p in picks_a)
        for kind, pin_ok, _ in MIX
    ]
    assert counts == [115, 114, 114, 57]
    assert all(abs(c - 400 * w / total) < 1 for c, (_, _, w) in zip(counts, MIX))
    # Bodies differ only in the nonce (and the proof derived from it).
    trial = b'{"x":1}'
    body = b"".join(auth_parts("u0000001", "ab" * 16, True, trial))
    assert body == b"".join(auth_parts("u0000001", "ab" * 16, True, trial))
    assert json.loads(body)["trial"] == {"x": 1}


def test_round_p95s():
    out = Outcome(oracle={})
    out.open_auth_round = [r for r in range(3) for _ in range(100)]
    out.open_auth_ms = [1.0] * 100 + [50.0] * 100 + [1.0] * 100
    assert _p95_by_round(out) == [1.0, 50.0, 1.0]


def test_server_cpu_time_is_counted():
    import os
    import time

    start = proc_cpu_s(os.getpid())
    deadline = time.process_time() + 0.2
    while time.process_time() < deadline:
        pass
    assert 0.1 < proc_cpu_s(os.getpid()) - start < 5.0


def test_stalled_server_fails_fast(monkeypatch):
    monkeypatch.setattr(loadgen, "REQUEST_TIMEOUT_S", 0.2)

    async def scenario():
        async def silent(reader, writer):  # reads, never replies
            await reader.read()
            writer.close()

        server = await asyncio.start_server(silent, "127.0.0.1", 0)
        conn = Connection("127.0.0.1", server.sockets[0].getsockname()[1])
        op = Op("/v1/auth", (b"{}",), "r")
        try:
            first = await conn.call(op)
            start = loadgen.clock()
            second = await conn.call(op)
            return first, second, loadgen.clock() - start
        finally:
            await conn.close()
            server.close()
            await server.wait_closed()

    first, second, elapsed = asyncio.run(scenario())
    assert first[0] == 0 and "TimeoutError" in first[2]
    assert second[0] == 0 and "TimeoutError" in second[2]
    assert elapsed < 0.1  # a stalled connection is not waited on again


def _span(sid, parent, t0, t1, rid="r", name="x"):
    return Span(rid, sid, parent, name, t0, t1)


def test_self_time_arithmetic():
    spans = [
        _span(1, None, 0, 100),
        _span(2, 1, 10, 40),
        _span(3, 1, 30, 60),  # overlaps span 2: the union counts once
        _span(4, 2, 15, 20),
        _span(5, 1, 90, 130),  # runs past its parent: clipped
    ]
    own = self_times(spans)
    assert own == {1: 100 - 50 - 10, 2: 30 - 5, 3: 30, 4: 5, 5: 40}
    assert covered([(0, 5), (3, 8), (10, 12)], 0, 100) == 10
    assert covered([], 0, 10) == 0


def test_layer_metrics_on_a_synthetic_request():
    ms = 1_000_000
    spans = [
        Span("r1", 1, None, "service.protocol.parse", 0, 1 * ms),
        Span("r1", 2, None, "service.core.authenticate", 1 * ms, 9 * ms),
        Span("r1", 3, 2, "service.core.pool_wait", 2 * ms, 3 * ms),
        Span("r1", 4, 2, "core.session.submit_entry", 3 * ms, 8 * ms),
        Span("r1", 5, 4, "core.authenticator.authenticate", 3 * ms, 7 * ms),
        Span("r1", 6, None, "service.protocol.to_wire", 9 * ms, 10 * ms),
        Span("warm", 7, None, "service.protocol.parse", 0, 50 * ms),
    ]
    out = layer_metrics(spans, {"r1": 12.0}, ["r1"])
    assert out["service.protocol.parse_p50_ms"] == 1.0  # warm-up span left out
    assert out["service.core.authenticate_p50_ms"] == 8.0
    assert out["service.core.self_p50_ms"] == 8.0 - 1.0 - 5.0
    assert out["core.session.self_p50_ms"] == 1.0
    assert out["service.http.self_p50_ms"] == 12.0 - 10.0
    assert out["trace.coverage_ratio"] == pytest.approx(1.0)
    assert out["core.backends.load_p50_ms"] == 0.0  # layer did not run


def _run(args, cwd=ROOT, timeout=300):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def _declared(kind):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run(workload):
    proc = _run(
        ["--workload", workload, "--seed", "3", "--seconds", "2", *SMALL]
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    report = json.loads(lines[-2])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert report["error_ratio"] == 0.0
    units = {k: v["unit"] for k, v in result["metrics"].items()}
    assert units == _declared("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_smoke_run():
    # More users than the churn registry holds, so loads happen.
    shape = ["--users", "120", "--templates", "2", "--features", "840"]
    proc = _run(
        ["--workload", "auth-churn", "--seed", "3", "--seconds", "3", "--trace", "1", *shape]
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _declared("per_layer")
    # Every layer on the churn request path and the write path ran.
    for name in (
        "service.protocol.parse_p50_ms",
        "service.core.authenticate_p50_ms",
        "service.http.self_p50_ms",
        "core.registry.get_p50_ms",
        "core.backends.load_p50_ms",
        "core.authenticator.warmup_p50_ms",
        "core.stages.preprocess_p50_ms",
        "core.stages.featurize_p50_ms",
        "core.registry.enroll_p50_ms",
        "core.backends.store_p50_ms",
        "features.minirocket.fit_p50_ms",
        "core.registry.misses",
        "trace.coverage_ratio",
    ):
        assert metrics[name] > 0, name
    assert 0 < metrics["core.registry.hit_ratio"] < 0.5


def test_fails_without_the_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in (ROOT / "perfbench").glob("*.py"):
        shutil.copy(path, tmp_path / "perfbench")
    proc = _run(
        ["--workload", "auth-warm", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
