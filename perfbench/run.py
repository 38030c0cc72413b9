#!/usr/bin/env python3
"""The repository benchmark: the auth service over real HTTP.

Usage::

    python3 perfbench/run.py --workload auth-warm --seed 1 --seconds 20 --trace 0

One run builds the seeded fixture (population, probe mix, oracle),
starts the service in its own process (``perfbench/server.py``),
drives it from this process over at most ``nproc`` keep-alive
connections, checks every response against the oracle, and prints as
its last stdout line one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. The line before it is the
full report: environment stamp, sample counts, offered against
achieved rate, generator lateness and run validity, registry counters
and ``error_ratio``.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs the
open loop twice — untraced, then on a server with spans recorded
around each layer's public functions — and reports the per-layer
metrics plus the tracing overhead and blocking-path coverage. The
exit code is nonzero when any operation failed or mismatched the
oracle, and when the checkout has no ``src/repro`` to measure. See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import signal
import sys
from pathlib import Path
from typing import Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _import_checkout() -> None:
    """Put this checkout's ``src/`` first on the path, or fail."""
    sys.path[:0] = [str(SRC), str(ROOT)]
    try:
        import repro
    except ImportError as err:
        raise SystemExit(f"perfbench: cannot import repro from {SRC}: {err}")
    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise SystemExit(f"perfbench: repro resolved outside {SRC}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Population shape; the defaults are the benchmark, smaller values
    # exist for the benchmark's own tests.
    parser.add_argument("--users", type=int, default=None)
    parser.add_argument("--templates", type=int, default=None)
    parser.add_argument("--features", type=int, default=None)
    args = parser.parse_args(argv)

    _import_checkout()
    from perfbench.harness import run_benchmark
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    # A terminated run still stops its servers and removes its files.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    return run_benchmark(args)


if __name__ == "__main__":
    sys.exit(main())
