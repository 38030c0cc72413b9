"""Span recording around the service's public functions, and the
arithmetic that turns spans into per-layer metrics.

:class:`Tracer` runs inside the server process (installed by
:mod:`perfbench.server` for a traced run only). It wraps the public
functions of each layer, records one span per call — request id,
span id, parent span id, layer name, start and end in
``perf_counter_ns`` — and keeps spans in memory until the server
exits. No span is recorded inside the program itself, and the engine
is never run with ``profile=True``.

The request id is the request's nonce, set when the request body is
parsed, so the client can join its own wire timings to the server's
spans. Parents follow ``contextvars``; the ``ThreadPoolExecutor.submit``
wrap carries the submitting context into the pool thread, so engine
spans hang under the service call that offloaded them.
"""

from __future__ import annotations

import asyncio
import contextvars
import functools
import itertools
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

_RID: contextvars.ContextVar[Optional[str]] = contextvars.ContextVar(
    "perfbench_rid", default=None
)
_PARENT: contextvars.ContextVar[Optional[int]] = contextvars.ContextVar(
    "perfbench_parent", default=None
)

#: Stage classes of ``repro.core.stages`` and the stage names their
#: spans carry: metric names follow the stage, not the class.
STAGES = (
    ("RepairStage", "repair"),
    ("PreprocessStage", "preprocess"),
    ("SegmentStage", "segment"),
    ("FeaturizeStage", "featurize"),
    ("ClassifyStage", "classify"),
    ("DecideStage", "decide"),
)


class Span(NamedTuple):
    rid: Optional[str]
    sid: int
    parent: Optional[int]
    name: str
    t0: int
    t1: int


class Tracer:
    """In-memory span recorder with wrappers for each layer."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)

    def _record(self, sid: int, parent: Optional[int], name: str, t0: int) -> None:
        # list.append is atomic under the GIL; pool threads record too.
        self.spans.append(Span(_RID.get(), sid, parent, name, t0, time.perf_counter_ns()))

    def wrap(self, fn: Callable[..., Any], name: str) -> Callable[..., Any]:
        """A sync wrapper recording one span per call of ``fn``."""

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            sid = next(self._ids)
            parent = _PARENT.get()
            token = _PARENT.set(sid)
            t0 = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                _PARENT.reset(token)
                self._record(sid, parent, name, t0)

        return traced

    def wrap_async(self, fn: Callable[..., Any], name: str) -> Callable[..., Any]:
        """An async wrapper recording one span per awaited call."""

        @functools.wraps(fn)
        async def traced(*args: Any, **kwargs: Any) -> Any:
            sid = next(self._ids)
            parent = _PARENT.get()
            token = _PARENT.set(sid)
            t0 = time.perf_counter_ns()
            try:
                return await fn(*args, **kwargs)
            finally:
                _PARENT.reset(token)
                self._record(sid, parent, name, t0)

        return traced

    def wrap_parse(self, cls: Any, name: str) -> None:
        """Wrap ``cls.parse`` and make the parsed nonce the request id
        of every later span in the request's task."""
        parse = cls.parse

        def traced(_cls: Any, payload: Any) -> Any:
            t0 = time.perf_counter_ns()
            request = parse(payload)
            _RID.set(request.nonce)
            self._record(next(self._ids), None, name, t0)
            return request

        cls.parse = classmethod(traced)

    def wrap_submit(self) -> None:
        """Wrap ``ThreadPoolExecutor.submit``: record submit-to-start
        as ``service.core.pool_wait`` and carry the caller's context."""
        submit = ThreadPoolExecutor.submit

        def traced(pool: Any, fn: Callable[..., Any], /, *args: Any, **kwargs: Any) -> Any:
            t0 = time.perf_counter_ns()
            ctx = contextvars.copy_context()
            parent = ctx.get(_PARENT)

            def run() -> Any:
                ctx.run(self._record, next(self._ids), parent, "service.core.pool_wait", t0)
                return ctx.run(fn, *args, **kwargs)

            return submit(pool, run)

        ThreadPoolExecutor.submit = traced  # type: ignore[method-assign]

    def wrap_lock(self) -> None:
        """Wrap ``asyncio.Lock.acquire`` as ``service.core.lock_wait``."""
        acquire = asyncio.Lock.acquire

        async def traced(lock: asyncio.Lock) -> bool:
            t0 = time.perf_counter_ns()
            try:
                return await acquire(lock)
            finally:
                self._record(next(self._ids), _PARENT.get(), "service.core.lock_wait", t0)

        asyncio.Lock.acquire = traced  # type: ignore[method-assign]

    def install(self) -> None:
        """Wrap every traced public function of the service's layers."""
        from repro.core import (
            ModelRegistry,
            P2Auth,
            SessionManager,
            ShardedPackedBackend,
            stages,
        )
        from repro.features import MiniRocket
        from repro.service import AuthService, core as service_core
        from repro.service.protocol import (
            AuthRequest,
            AuthResponse,
            EnrollCompleteRequest,
        )

        self.wrap_parse(AuthRequest, "service.protocol.parse")
        self.wrap_parse(EnrollCompleteRequest, "service.protocol.parse_enroll")
        AuthResponse.to_wire = self.wrap(AuthResponse.to_wire, "service.protocol.to_wire")
        # core.py calls these through its own module globals.
        service_core.decode_trial = self.wrap(
            service_core.decode_trial, "service.protocol.decode_trial"
        )
        service_core.verify_proof = self.wrap(
            service_core.verify_proof, "service.protocol.verify_proof"
        )
        AuthService.authenticate = self.wrap_async(
            AuthService.authenticate, "service.core.authenticate"
        )
        AuthService.enroll_complete = self.wrap_async(
            AuthService.enroll_complete, "service.core.enroll_complete"
        )
        self.wrap_submit()
        self.wrap_lock()
        SessionManager.submit_entry = self.wrap(
            SessionManager.submit_entry, "core.session.submit_entry"
        )
        ModelRegistry.get = self.wrap(ModelRegistry.get, "core.registry.get")
        ModelRegistry.enroll = self.wrap(ModelRegistry.enroll, "core.registry.enroll")
        ShardedPackedBackend.load = self.wrap(
            ShardedPackedBackend.load, "core.backends.load"
        )
        ShardedPackedBackend.store = self.wrap(
            ShardedPackedBackend.store, "core.backends.store"
        )
        P2Auth.warmup = self.wrap(P2Auth.warmup, "core.authenticator.warmup")
        P2Auth.authenticate = self.wrap(
            P2Auth.authenticate, "core.authenticator.authenticate"
        )
        for cls_name, stage in STAGES:
            cls = getattr(stages, cls_name)
            cls.run = self.wrap(cls.run, f"core.stages.{stage}")
        MiniRocket.fit = self.wrap(MiniRocket.fit, "features.minirocket.fit")
        MiniRocket.transform = self.wrap(
            MiniRocket.transform, "features.minirocket.transform"
        )


# --- analysis --------------------------------------------------------------


def covered(intervals: Iterable[Tuple[int, int]], lo: int, hi: int) -> int:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0
    end = lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, int]:
    """Self time per span id: its duration minus the part of it that
    its child spans cover."""
    children: Dict[int, List[Tuple[int, int]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.t0, s.t1))
    return {
        s.sid: (s.t1 - s.t0) - covered(children.get(s.sid, ()), s.t0, s.t1)
        for s in spans
    }


def p50(values: Sequence[float]) -> float:
    return float(np.percentile(values, 50)) if len(values) else 0.0


def p99(values: Sequence[float]) -> float:
    return float(np.percentile(values, 99)) if len(values) else 0.0


#: Per-layer latency metrics: metric name -> (span name, percentile).
DURATIONS = {
    "service.protocol.parse_p50_ms": ("service.protocol.parse", p50),
    "service.protocol.decode_trial_p50_ms": ("service.protocol.decode_trial", p50),
    "service.protocol.verify_proof_p50_ms": ("service.protocol.verify_proof", p50),
    "service.protocol.to_wire_p50_ms": ("service.protocol.to_wire", p50),
    "service.core.authenticate_p50_ms": ("service.core.authenticate", p50),
    "service.core.pool_wait_p50_ms": ("service.core.pool_wait", p50),
    "service.core.pool_wait_p99_ms": ("service.core.pool_wait", p99),
    "service.core.lock_wait_p99_ms": ("service.core.lock_wait", p99),
    "core.registry.get_p50_ms": ("core.registry.get", p50),
    "core.backends.load_p50_ms": ("core.backends.load", p50),
    "core.authenticator.warmup_p50_ms": ("core.authenticator.warmup", p50),
    "core.authenticator.authenticate_p50_ms": ("core.authenticator.authenticate", p50),
    **{
        f"core.stages.{stage}_p50_ms": (f"core.stages.{stage}", p50)
        for _, stage in STAGES
    },
    "core.registry.enroll_p50_ms": ("core.registry.enroll", p50),
    "core.backends.store_p50_ms": ("core.backends.store", p50),
    "features.minirocket.fit_p50_ms": ("features.minirocket.fit", p50),
    "features.minirocket.transform_p50_ms": ("features.minirocket.transform", p50),
}
#: Self-time metrics: metric name -> span name.
SELF_TIMES = {
    "service.core.self_p50_ms": "service.core.authenticate",
    "core.session.self_p50_ms": "core.session.submit_entry",
}
#: Call-count metrics: metric name -> span name.
CALLS = {
    "features.minirocket.fit_calls": "features.minirocket.fit",
    "features.minirocket.transform_calls": "features.minirocket.transform",
}
#: The spans one ``/v1/auth`` request's server-side time is made of.
AUTH_ROOTS = (
    "service.protocol.parse",
    "service.core.authenticate",
    "service.protocol.to_wire",
)


def layer_metrics(
    spans: Sequence[Span],
    wire_ms: Dict[str, float],
    measured: Iterable[str],
) -> Dict[str, float]:
    """Per-layer metrics over the spans of the ``measured`` request ids.

    Args:
        spans: every span the server recorded.
        wire_ms: client-seen wire time (send to reply) per auth request
            id; ``service.http.self_p50_ms`` is this minus the request's
            server-side time (parse + authenticate + to_wire).
        measured: request ids of the timed requests (auth and
            enrollment); warm-up and untimed requests are left out.

    Also returns ``trace.coverage_ratio``: the sum over layers of each
    layer's median self time per auth request (0 where the layer did
    not run), over the median server-side time per auth request.
    """
    keep = set(measured)
    mine = [s for s in spans if s.rid in keep]
    own = self_times(mine)
    by_name: Dict[str, List[Span]] = defaultdict(list)
    for s in mine:
        by_name[s.name].append(s)

    out: Dict[str, float] = {}
    for metric, (name, stat) in DURATIONS.items():
        out[metric] = stat([(s.t1 - s.t0) / 1e6 for s in by_name.get(name, ())])
    for metric, name in SELF_TIMES.items():
        out[metric] = p50([own[s.sid] / 1e6 for s in by_name.get(name, ())])
    for metric, name in CALLS.items():
        out[metric] = float(len(by_name.get(name, ())))

    server_ms: Dict[str, float] = defaultdict(float)
    self_by_rid: Dict[str, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for s in mine:
        if s.rid not in wire_ms:
            continue
        if s.name in AUTH_ROOTS:
            server_ms[s.rid] += (s.t1 - s.t0) / 1e6
        self_by_rid[s.rid][s.name] += own[s.sid] / 1e6
    rids = [r for r in wire_ms if r in server_ms]
    out["service.http.self_p50_ms"] = p50([wire_ms[r] - server_ms[r] for r in rids])
    layers = {name for per in self_by_rid.values() for name in per}
    blocking = sum(
        p50([self_by_rid[r].get(name, 0.0) for r in rids]) for name in layers
    )
    total = p50([server_ms[r] for r in rids])
    out["trace.coverage_ratio"] = blocking / total if total > 0 else 0.0
    return out
