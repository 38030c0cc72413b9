"""Server launcher: the auth service in its own process.

Uses only the public API: opens the fixture's
``ShardedPackedBackend``, builds a ``ModelRegistry`` and an
``AuthService(retry=None, ...)``, adopts every stored user, optionally
warms the whole population, then serves with
``repro.service.http.serve`` on an ephemeral port. ``retry=None`` turns
the retry/lockout ladder off: whether it fires depends on wall-clock
spacing between requests, which would make decisions depend on timing.

Protocol with the benchmark process: one line ``READY <port>`` on
stdout once listening; SIGTERM stops the server, which then writes its
report (peak RSS, engine stamp and, with ``--trace 1``, every recorded
span) to ``--report``. The server also exits when its parent dies.

Started by :mod:`perfbench.harness`; by hand::

    python3 perfbench/server.py --store DIR --corpus FILE --report OUT
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import resource
import signal
import sys
from pathlib import Path
from typing import List, Optional

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from repro.core import EnrollmentOptions, ModelRegistry, ShardedPackedBackend  # noqa: E402
from repro.features import c_kernel_available  # noqa: E402
from repro.service import AuthService, decode_trial  # noqa: E402
from repro.service.http import serve  # noqa: E402

from perfbench.tracing import Tracer  # noqa: E402
from perfbench.workloads import PIN  # noqa: E402


def build_service(args: argparse.Namespace) -> AuthService:
    backend = ShardedPackedBackend(args.store)
    registry = ModelRegistry(
        capacity=args.capacity or None,
        backend=backend,
        options=EnrollmentOptions(num_features=args.features),
    )
    corpus = json.loads(Path(args.corpus).read_text())
    service = AuthService(
        registry,
        third_party_trials=[decode_trial(t, corpus["pin"]) for t in corpus["trials"]],
        retry=None,
        session_capacity=args.sessions,
    )
    for uid in registry.list_users():
        service.adopt_user(uid, PIN)
    return service


async def main_async(args: argparse.Namespace, service: AuthService) -> Optional[Tracer]:
    if args.warm:
        await service.warm(service.list_users())
    tracer: Optional[Tracer] = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    loop = asyncio.get_running_loop()
    stop = asyncio.Event()
    loop.add_signal_handler(signal.SIGTERM, stop.set)
    ready = asyncio.Event()
    server = asyncio.create_task(serve(service, "127.0.0.1", 0, ready=ready))
    waiter = asyncio.create_task(ready.wait())
    await asyncio.wait({server, waiter}, return_when=asyncio.FIRST_COMPLETED)
    if not ready.is_set():
        waiter.cancel()
        await server  # raises the bind error
    port = ready.address[1]  # type: ignore[attr-defined]
    print(f"READY {port}", flush=True)
    parent = os.getppid()
    while not stop.is_set() and os.getppid() == parent:
        try:
            await asyncio.wait_for(stop.wait(), 1.0)
        except asyncio.TimeoutError:
            pass
    server.cancel()
    try:
        await server
    except asyncio.CancelledError:
        pass
    return tracer


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--store", required=True, help="sharded packed store")
    parser.add_argument("--corpus", required=True, help="third-party corpus JSON")
    parser.add_argument("--report", help="where to write the exit report")
    parser.add_argument("--capacity", type=int, default=0, help="registry LRU bound (0 = none)")
    parser.add_argument("--sessions", type=int, default=1024, help="live-session bound")
    parser.add_argument("--features", type=int, required=True, help="features per enrolled model")
    parser.add_argument("--warm", type=int, default=0, help="1 = preload every user")
    parser.add_argument("--trace", type=int, default=0, help="1 = record spans")
    args = parser.parse_args(argv)

    service = build_service(args)
    try:
        tracer = asyncio.run(main_async(args, service))
    finally:
        service.close()
    if args.report:
        report = {
            "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "c_kernel_available": c_kernel_available(),
            "spans": [] if tracer is None else [list(s) for s in tracer.spans],
        }
        Path(args.report).write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
