#!/usr/bin/env python3
"""Benchmark the authenticate hot path and write BENCH_authenticate.json.

Five sections, all on paper-shaped probes (4 PPG channels, ~5 s at
100 Hz):

- ``single`` — one warm probe through the engine
  (``P2Auth.authenticate``) and through the same stage chain with the
  test-oracle preprocessing kernels (``tests.oracles
  .authenticate_reference``: sort-based median, stock-scipy SG
  calibration, ``cho_solve_banded`` detrend), interleaved within every
  iteration so CPU-frequency drift cancels instead of biasing one side;
  p50/p95/p99 per path and the decision-equality flag.
- ``cold`` — the price of the first call: a cold start (empty SG /
  detrend / kernel-plan caches, fresh warmup flags) versus calling
  :meth:`P2Auth.warmup` first and then authenticating.
- ``stages`` — the per-stage wall-time budget from ``profile=True``
  (median over the run), the observability face of the same numbers.
- ``batch`` — ``P2Auth.authenticate_many`` versus an authenticate()
  loop at batch sizes 1/4/16/64, with the batch==loop parity flag.
- ``registry`` — cross-user batching: ``ModelRegistry
  .authenticate_many`` over mixed probes of three enrolled users
  versus a get()+authenticate() loop (one C-kernel transform call for
  the whole batch versus one per probe).

The headline numbers are ``single.speedup_vs_oracle`` (oracle p50 over
engine p50) and ``single.engine.p50_ms``; the perf-smoke test
(``benchmarks/test_authenticate_latency.py``) floors them at >= 1.2x and
<= 25 ms.

Usage::

    python scripts/bench_authenticate.py                  # full, writes JSON
    python scripts/bench_authenticate.py --smoke          # quick, no JSON
    python scripts/bench_authenticate.py --out custom.json
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import sys
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT))  # the test oracles live in tests/

from repro.config import PAPER_PINS  # noqa: E402
from repro.core import (  # noqa: E402
    EnrollmentOptions,
    ModelRegistry,
    P2Auth,
)
from repro.data import StudyData, ThirdPartyStore  # noqa: E402
from repro.features import c_kernel_available  # noqa: E402
from repro.signal.detrend import clear_detrend_cache  # noqa: E402
from repro.signal.filters import clear_savgol_cache  # noqa: E402
from tests.oracles import authenticate_reference  # noqa: E402

PIN = PAPER_PINS[0]


def _percentiles(times_s):
    times_ms = np.asarray(times_s) * 1e3
    return {
        "p50_ms": float(np.percentile(times_ms, 50)),
        "p95_ms": float(np.percentile(times_ms, 95)),
        "p99_ms": float(np.percentile(times_ms, 99)),
        "mean_ms": float(np.mean(times_ms)),
    }


def _same_decision(a, b) -> bool:
    """Field-exact equality, ignoring the observability-only timings."""
    fields = ("accepted", "reason", "input_case", "pin_ok", "scores",
              "keys_checked", "passes", "degradation")
    return all(getattr(a, f) == getattr(b, f) for f in fields)


def build_world(num_features: int):
    """One enrolled authenticator plus labelled probe pools."""
    data = StudyData(n_users=5, seed=21)
    third_party = ThirdPartyStore(data, [1, 2], PIN).sample(20)
    enroll_trials = data.trials(0, PIN, "one_handed", 8)[:6]
    auth = P2Auth(pin=PIN, options=EnrollmentOptions(num_features=num_features))
    auth.enroll(enroll_trials, third_party)
    probes = (
        data.trials(0, PIN, "one_handed", 16)[6:]
        + data.emulating_trials(4, 0, PIN, 3)
        + data.trials(0, PIN, "double3", 3)
    )
    return data, third_party, auth, probes


def _reset_cold(auth) -> None:
    """Return the process to a just-started state for this authenticator.

    Clears every cache :meth:`P2Auth.warmup` would prime — SG
    coefficients, detrend factorizations, the marshalled kernel plans —
    and discards the engine so its warmup flags are rebuilt. (The compiled .so itself stays on disk: a real
    service restart reuses it too, so evicting it would overstate the
    cold cost.)
    """
    clear_detrend_cache()
    clear_savgol_cache()
    models = auth.models
    for model in [models.full_model, models.fused_model, *models.key_models.values()]:
        rocket = getattr(model, "_rocket", None)
        if rocket is not None:
            rocket._plan = None
    auth._stage_pipeline = None


def bench_single(auth, probe, repeats: int):
    """Warm engine vs oracle-kernel preprocessing, interleaved."""
    auth.warmup([probe.recording.n_samples])
    engine_ref = auth.authenticate(probe)
    oracle_ref = authenticate_reference(auth, probe)

    def oracle(trial):
        return authenticate_reference(auth, trial)

    paths = (("engine", auth.authenticate), ("oracle", oracle))
    times = {"engine": [], "oracle": []}
    for i in range(repeats):
        # Alternate which path goes first so a frequency ramp mid-run
        # penalises both paths equally.
        for name, fn in paths if i % 2 == 0 else paths[::-1]:
            start = time.perf_counter()
            fn(probe)
            times[name].append(time.perf_counter() - start)

    engine = _percentiles(times["engine"])
    oracle_stats = _percentiles(times["oracle"])
    return {
        "repeats": repeats,
        "signal_length": probe.recording.n_samples,
        "engine": engine,
        "oracle": oracle_stats,
        "speedup_vs_oracle": oracle_stats["p50_ms"] / engine["p50_ms"],
        "parity_ok": _same_decision(engine_ref, oracle_ref),
    }


def bench_cold(auth, probe):
    """First-call latency: cold start vs warmup()-then-authenticate."""
    n = probe.recording.n_samples

    _reset_cold(auth)
    start = time.perf_counter()
    cold_decision = auth.authenticate(probe)
    cold_first_ms = (time.perf_counter() - start) * 1e3

    _reset_cold(auth)
    start = time.perf_counter()
    auth.warmup([n])
    warmup_ms = (time.perf_counter() - start) * 1e3
    start = time.perf_counter()
    warm_decision = auth.authenticate(probe)
    warm_first_ms = (time.perf_counter() - start) * 1e3

    return {
        "cold_first_call_ms": cold_first_ms,
        "warmup_ms": warmup_ms,
        "first_call_after_warmup_ms": warm_first_ms,
        "parity_ok": _same_decision(cold_decision, warm_decision),
    }


def bench_stages(auth, probe, repeats: int):
    """Median per-stage budget of the staged engine (profile=True)."""
    auth.warmup([probe.recording.n_samples])
    per_stage = {}
    for _ in range(repeats):
        decision = auth.authenticate(probe, profile=True)
        for name, seconds in decision.stage_timings:
            per_stage.setdefault(name, []).append(seconds * 1e3)
    return {
        "repeats": repeats,
        "median_ms": {name: float(np.median(v)) for name, v in per_stage.items()},
    }


def bench_batches(auth, probes, sizes, repeats: int):
    """authenticate_many vs an authenticate() loop per batch size."""
    auth.warmup([t.recording.n_samples for t in probes])
    out = {}
    for size in sizes:
        batch = [probes[i % len(probes)] for i in range(size)]

        batch_times, loop_times = [], []
        batch_decisions = loop_decisions = None
        for i in range(repeats):
            runs = (("batch", lambda: auth.authenticate_many(batch)),
                    ("loop", lambda: [auth.authenticate(t) for t in batch]))
            if i % 2:
                runs = runs[::-1]
            for name, fn in runs:
                start = time.perf_counter()
                result = fn()
                elapsed = time.perf_counter() - start
                if name == "batch":
                    batch_times.append(elapsed)
                    batch_decisions = result
                else:
                    loop_times.append(elapsed)
                    loop_decisions = result

        best_batch = min(batch_times)
        best_loop = min(loop_times)
        out[str(size)] = {
            "batch_per_probe_ms": best_batch / size * 1e3,
            "loop_per_probe_ms": best_loop / size * 1e3,
            "speedup_batch": best_loop / best_batch,
            "parity_ok": all(
                _same_decision(a, b)
                for a, b in zip(batch_decisions, loop_decisions)
            ),
        }
    return {"repeats": repeats, "sizes": out}


def bench_registry(num_features: int, repeats: int):
    """Cross-user batch vs loop through a warm ModelRegistry."""
    data = StudyData(n_users=5, seed=33)
    registry = ModelRegistry()
    users = ["alice", "bob", "carol"]
    for uid, name in enumerate(users):
        third_party = ThirdPartyStore(
            data, [u for u in range(3) if u != uid], PIN
        ).sample(12)
        auth = P2Auth(
            pin=PIN, options=EnrollmentOptions(num_features=num_features)
        )
        auth.enroll(data.trials(uid, PIN, "one_handed", 8)[:6], third_party)
        registry.add(name, auth)

    user_ids, trials = [], []
    for uid, name in enumerate(users):
        own = data.trials(uid, PIN, "one_handed", 10)[6:8]
        user_ids += [name, name]
        trials += own
    user_ids.append("alice")
    trials.append(data.emulating_trials(4, 0, PIN, 1)[0])

    for name in users:
        registry.get(name).warmup([t.recording.n_samples for t in trials])

    batch_times, loop_times = [], []
    batch_decisions = loop_decisions = None
    for i in range(repeats):
        runs = (
            ("batch", lambda: registry.authenticate_many(user_ids, trials)),
            ("loop", lambda: [
                registry.get(u).authenticate(t)
                for u, t in zip(user_ids, trials)
            ]),
        )
        if i % 2:
            runs = runs[::-1]
        for name, fn in runs:
            start = time.perf_counter()
            result = fn()
            elapsed = time.perf_counter() - start
            if name == "batch":
                batch_times.append(elapsed)
                batch_decisions = result
            else:
                loop_times.append(elapsed)
                loop_decisions = result

    return {
        "n_users": len(users),
        "n_probes": len(trials),
        "repeats": repeats,
        "batch_ms": min(batch_times) * 1e3,
        "loop_ms": min(loop_times) * 1e3,
        "speedup_batch": min(loop_times) / min(batch_times),
        "parity_ok": all(
            _same_decision(a, b)
            for a, b in zip(batch_decisions, loop_decisions)
        ),
    }


def run(num_features: int, single_repeats: int, stage_repeats: int,
        batch_repeats: int, sizes):
    """The full harness; shared by the script and the perf-smoke test."""
    _, _, auth, probes = build_world(num_features)
    probe = probes[0]
    return {
        "num_features": num_features,
        "c_kernel": c_kernel_available(),
        "cold": bench_cold(auth, probe),
        "single": bench_single(auth, probe, single_repeats),
        "stages": bench_stages(auth, probe, stage_repeats),
        "batch": bench_batches(auth, probes, sizes, batch_repeats),
        "registry": bench_registry(num_features, batch_repeats),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="smaller feature budget and fewer repeats; no JSON unless "
        "--out is given",
    )
    parser.add_argument(
        "--out",
        default=None,
        help="output path (default: BENCH_authenticate.json at the repo "
        "root in full mode, nothing in --smoke mode)",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        params = dict(num_features=840, single_repeats=30, stage_repeats=10,
                      batch_repeats=2, sizes=(1, 4, 16))
    else:
        params = dict(num_features=9996, single_repeats=200, stage_repeats=50,
                      batch_repeats=3, sizes=(1, 4, 16, 64))

    report = {
        "benchmark": "authenticate-hot-path",
        "mode": "smoke" if args.smoke else "full",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        **run(**params),
    }

    single = report["single"]
    print(
        "[single] engine p50 "
        f"{single['engine']['p50_ms']:.2f} ms | oracle p50 "
        f"{single['oracle']['p50_ms']:.2f} ms | speedup "
        f"{single['speedup_vs_oracle']:.2f}x | parity={single['parity_ok']}",
        file=sys.stderr,
    )
    cold = report["cold"]
    print(
        "[cold] first call "
        f"{cold['cold_first_call_ms']:.1f} ms | warmup "
        f"{cold['warmup_ms']:.1f} ms | first call after warmup "
        f"{cold['first_call_after_warmup_ms']:.2f} ms",
        file=sys.stderr,
    )
    reg = report["registry"]
    print(
        f"[registry] batch {reg['batch_ms']:.1f} ms | loop "
        f"{reg['loop_ms']:.1f} ms over {reg['n_probes']} probes | "
        f"parity={reg['parity_ok']}",
        file=sys.stderr,
    )
    report["peak_rss_mib"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    )

    out = args.out
    if out is None and not args.smoke:
        out = str(REPO_ROOT / "BENCH_authenticate.json")
    if out:
        with open(out, "w") as handle:
            json.dump(report, handle, indent=2)
            handle.write("\n")
        print(f"wrote {out}", file=sys.stderr)
    else:
        json.dump(report, sys.stdout, indent=2)
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
