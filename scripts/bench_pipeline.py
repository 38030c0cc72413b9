#!/usr/bin/env python3
"""Benchmark the preprocessing layer and write BENCH_pipeline.json.

Two sections:

- ``preprocess`` — one PIN-entry trial at the paper's shape (4 PPG
  channels, ~5 s at 100 Hz), timed through three paths:

  - ``reference`` — the pre-optimization path, kept as the test oracle
    ``tests.oracles.preprocess_trial_reference``: per-channel median
    filtering and a generic sparse-LU detrend solve per channel;
  - ``banded`` — ``preprocess_trial``: vectorized median filter, one
    per-trial Savitzky-Golay pass, and the cached banded-Cholesky
    multi-RHS detrend;
  - ``batched`` — ``preprocess_trials`` over the whole trial list, so
    same-shape trials share a single stacked detrend solve.

- ``evaluate_user`` — one SMOKE-scale victim evaluation, timed with
  negative sharing off (``unshared``), then through a cold feature
  cache (``cold_cache``), then again with the cache warm
  (``warm_cache``) — the steady state of a sweep where many victims or
  repeats reuse the same third-party store.

The headline numbers are ``preprocess.speedup_batched`` (reference
per-trial time over batched per-trial time) and
``evaluate_user.speedup_warm`` (unshared time over warm-cache time).

Usage::

    python scripts/bench_pipeline.py                  # full, writes JSON
    python scripts/bench_pipeline.py --smoke          # quick, no JSON
    python scripts/bench_pipeline.py --out custom.json
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT))  # the test oracles live in tests/

from repro.config import PipelineConfig  # noqa: E402
from repro.core.pipeline import (  # noqa: E402
    preprocess_trial,
    preprocess_trials,
)
from repro.data import StudyData  # noqa: E402
from repro.eval.experiments import SMOKE, _task_params  # noqa: E402
from repro.eval.featurecache import (  # noqa: E402
    cache_stats,
    clear_default_cache,
)
from repro.eval.protocol import evaluate_user  # noqa: E402
from repro.signal.detrend import clear_detrend_cache  # noqa: E402
from tests.oracles import preprocess_trial_reference  # noqa: E402


def _time_call(fn, repeats: int):
    """Best/mean wall time over ``repeats`` untraced runs, plus the
    tracemalloc peak of one extra traced run.

    Unlike ``bench_transform``'s combined loop, timing and tracing are
    separate passes here: tracemalloc's per-allocation hook costs far
    more than the banded solves being measured, so tracing the timed
    runs would understate the speedup several-fold.
    """
    times = []
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - start)
    tracemalloc.start()
    fn()
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return result, {
        "best_s": min(times),
        "mean_s": float(np.mean(times)),
        "peak_traced_mib": peak / 2**20,
    }


def bench_preprocess(n_trials: int, repeats: int):
    """Time the three preprocessing paths over paper-shaped trials."""
    data = StudyData(n_users=4, seed=17)
    trials = []
    for uid in range(4):
        trials.extend(data.trials(uid, "1628", "one_handed", n_trials // 4))
    config = PipelineConfig()
    shapes = sorted({t.recording.samples.shape for t in trials})

    def run_reference():
        return [preprocess_trial_reference(t, config) for t in trials]

    def run_banded():
        clear_detrend_cache()
        return [preprocess_trial(t, config) for t in trials]

    def run_batched():
        clear_detrend_cache()
        return preprocess_trials(trials, config)

    _, ref = _time_call(run_reference, repeats)
    _, banded = _time_call(run_banded, repeats)
    _, batched = _time_call(run_batched, repeats)

    per_trial = {
        "reference_ms": ref["best_s"] / len(trials) * 1e3,
        "banded_ms": banded["best_s"] / len(trials) * 1e3,
        "batched_ms": batched["best_s"] / len(trials) * 1e3,
    }
    return {
        "n_trials": len(trials),
        "n_channels": shapes[0][0],
        "trial_lengths": [int(s[1]) for s in shapes],
        "fs": config.fs,
        "repeats": repeats,
        "paths": {"reference": ref, "banded": banded, "batched": batched},
        "per_trial_ms": per_trial,
        "speedup_banded": ref["best_s"] / banded["best_s"],
        "speedup_batched": ref["best_s"] / batched["best_s"],
    }


def bench_evaluate(repeats: int):
    """Time one SMOKE victim evaluation: unshared vs cold vs warm cache."""
    scale = SMOKE
    data = StudyData(n_users=scale.n_users, seed=scale.seed)
    params = _task_params(scale)
    victim = scale.victim_ids[0]

    def run(share):
        return evaluate_user(data, victim, share_negatives=share, **params)

    clear_default_cache()
    _, unshared = _time_call(lambda: run(False), repeats)

    clear_default_cache()
    cold_result, cold = _time_call(lambda: run(True), 1)
    warm_result, warm = _time_call(lambda: run(True), repeats)
    stats = cache_stats()

    return {
        "scale": "SMOKE",
        "victim": victim,
        "repeats": repeats,
        "paths": {"unshared": unshared, "cold_cache": cold, "warm_cache": warm},
        # A cache hit must change nothing: warm rows == cold rows.
        "results_match": warm_result == cold_result,
        "speedup_warm": unshared["best_s"] / warm["best_s"],
        "cache": {
            "trial_hits": stats.trial_hits,
            "trial_misses": stats.trial_misses,
            "bank_hits": stats.bank_hits,
            "bank_misses": stats.bank_misses,
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="fewer trials and repeats; no JSON unless --out is given",
    )
    parser.add_argument(
        "--out",
        default=None,
        help="output path (default: BENCH_pipeline.json at the repo root "
        "in full mode, nothing in --smoke mode)",
    )
    args = parser.parse_args(argv)

    n_trials, pre_repeats, eval_repeats = (8, 2, 1) if args.smoke else (16, 5, 3)
    report = {
        "benchmark": "pipeline-preprocess",
        "mode": "smoke" if args.smoke else "full",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "preprocess": bench_preprocess(n_trials, pre_repeats),
        "evaluate_user": bench_evaluate(eval_repeats),
    }

    pre = report["preprocess"]
    print(
        "[preprocess] per trial: "
        f"reference {pre['per_trial_ms']['reference_ms']:.2f} ms | "
        f"banded {pre['per_trial_ms']['banded_ms']:.2f} ms | "
        f"batched {pre['per_trial_ms']['batched_ms']:.2f} ms | "
        f"speedup {pre['speedup_batched']:.1f}x",
        file=sys.stderr,
    )
    ev = report["evaluate_user"]
    print(
        "[evaluate_user] "
        f"unshared {ev['paths']['unshared']['best_s']:.3f} s | "
        f"cold {ev['paths']['cold_cache']['best_s']:.3f} s | "
        f"warm {ev['paths']['warm_cache']['best_s']:.3f} s | "
        f"speedup {ev['speedup_warm']:.1f}x | "
        f"results_match={ev['results_match']}",
        file=sys.stderr,
    )
    report["peak_rss_mib"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    )

    out = args.out
    if out is None and not args.smoke:
        out = str(REPO_ROOT / "BENCH_pipeline.json")
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
