"""Request plans and the HTTP load generator.

The generator is one process, one thread and at most
:data:`~perfbench.workloads.CONNECTIONS` keep-alive connections. Every
request body (nonce, HMAC proof, base64 trial) is built before a phase's
clock starts; during the phase the generator only writes pre-built
bytes and reads raw responses. Responses are parsed and checked against
the oracle after the phase.

- :func:`run_open` is the open loop: each request has a due time and is
  timed from it, so a stall also counts against the requests it delays.
  A request waits for a free connection when every connection is busy.
- :func:`run_closed` is the closed loop: each connection sends its next
  request as soon as the previous reply arrives.
"""

from __future__ import annotations

import asyncio
import contextlib
import gc
import time
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.service import pin_proof
from repro.service.protocol import make_nonce

from perfbench.fixture import OracleKey
from perfbench.workloads import MIX, PIN, WRONG_PIN, ZIPF_A

clock = time.perf_counter

#: Bound on one request and its reply. A healthy auth takes milliseconds
#: and an enrollment about a second; past this the server is stalled.
REQUEST_TIMEOUT_S = 20.0


@dataclass(frozen=True)
class Pick:
    """One planned auth request before its nonce is drawn."""

    user: int
    template: int
    kind: str
    probe: int
    pin_ok: bool

    @property
    def oracle_key(self) -> OracleKey:
        return (self.template, self.kind, self.probe, self.pin_ok)


@dataclass
class Op:
    """One wire request, body pre-built.

    ``rid`` is the request's nonce: the server-side trace keys its spans
    by it. ``key`` is the oracle row of an auth request (``None`` for an
    enrollment).
    """

    path: str
    parts: Tuple[bytes, ...]
    rid: str
    key: Optional[OracleKey] = None
    due: float = 0.0


@dataclass
class Result:
    """What one request saw; times are :data:`clock` seconds."""

    status: int
    payload: bytes
    error: Optional[str]
    due: float
    ready: float
    sent: float
    done: float


def plan_picks(
    rng: np.random.Generator,
    n: int,
    picks: str,
    n_users: int,
    n_templates: int,
    probes_per_kind: int,
) -> List[Pick]:
    """``n`` auth requests: users by ``picks``, probe kinds in the exact
    weights of :data:`~perfbench.workloads.MIX`, in seeded order."""
    if picks == "zipf":
        users = (rng.zipf(ZIPF_A, n) - 1) % n_users
    elif picks == "uniform":
        users = rng.integers(0, n_users, n)
    else:
        raise ValueError(f"unknown picks {picks!r}")
    total = sum(weight for _, _, weight in MIX)
    counts = [n * weight // total for _, _, weight in MIX]
    counts[0] += n - sum(counts)
    mix = [i for i, c in enumerate(counts) for _ in range(c)]
    order = rng.permutation(n)
    probes = rng.integers(0, probes_per_kind, n)
    out = []
    for i in range(n):
        kind, pin_ok, _ = MIX[mix[order[i]]]
        user = int(users[i])
        out.append(
            Pick(user, user % n_templates, kind, int(probes[i]), pin_ok)
        )
    return out


def arrivals(n: int, seconds: float) -> np.ndarray:
    """Due times of ``n`` requests at a constant rate over ``seconds``.

    Evenly spaced, as a constant-throughput load generator sends: the
    offered load has no bursts of its own, so the latency tail is the
    server's.
    """
    return np.arange(n) * (seconds / n)


def auth_parts(
    user_id: str, nonce: str, pin_ok: bool, trial: bytes
) -> Tuple[bytes, ...]:
    """A ``/v1/auth`` body as pieces; the trial bytes are shared."""
    proof = pin_proof(PIN if pin_ok else WRONG_PIN, user_id, nonce)
    head = (
        f'{{"user_id":"{user_id}","nonce":"{nonce}","proof":"{proof}",'
        '"trial":'
    ).encode("ascii")
    return (head, trial, b"}")


def enroll_parts(
    user_id: str, nonce: str, pin: str, trials: Sequence[bytes]
) -> Tuple[bytes, ...]:
    """A ``/v1/enroll/complete`` body as pieces."""
    proof = pin_proof(pin, user_id, nonce)
    head = (
        f'{{"user_id":"{user_id}","nonce":"{nonce}","proof":"{proof}",'
        '"trials":['
    ).encode("ascii")
    return (head, b",".join(trials), b"]}")


def auth_ops(
    picks: Iterable[Pick],
    user_ids: Sequence[str],
    wire: dict,
    dues: Optional[Sequence[float]] = None,
) -> List[Op]:
    """Bodies for planned picks, each with a fresh nonce."""
    ops = []
    for i, pick in enumerate(picks):
        uid = user_ids[pick.user]
        nonce = make_nonce()
        ops.append(
            Op(
                path="/v1/auth",
                parts=auth_parts(
                    uid,
                    nonce,
                    pick.pin_ok,
                    wire[(pick.template, pick.kind, pick.probe)],
                ),
                rid=nonce,
                key=pick.oracle_key,
                due=0.0 if dues is None else float(dues[i]),
            )
        )
    return ops


class Connection:
    """One keep-alive HTTP/1.1 client connection.

    A request that gets no reply within :data:`REQUEST_TIMEOUT_S` marks
    the connection stalled: every later request on it fails at once, so
    a stalled server ends the run with failed operations instead of
    hanging it.
    """

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self.stalled = False
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None

    async def open(self) -> None:
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port
        )

    async def close(self) -> None:
        writer, self._writer = self._writer, None
        if writer is not None:
            writer.close()
            try:
                await writer.wait_closed()
            except OSError:
                pass

    async def request(
        self, method: str, path: str, parts: Sequence[bytes] = ()
    ) -> Tuple[int, bytes]:
        """Send one request, return (status, raw body); raises
        :class:`TimeoutError` when the server does not reply in time."""
        if self.stalled:
            raise TimeoutError("an earlier request on this connection timed out")
        try:
            return await asyncio.wait_for(
                self._exchange(method, path, parts), REQUEST_TIMEOUT_S
            )
        except asyncio.TimeoutError:
            self.stalled = True
            writer, self._writer = self._writer, None
            if writer is not None:
                writer.transport.abort()  # no flush to a stalled peer
            raise TimeoutError(f"no reply within {REQUEST_TIMEOUT_S} s") from None

    async def _exchange(
        self, method: str, path: str, parts: Sequence[bytes]
    ) -> Tuple[int, bytes]:
        if self._writer is None:
            await self.open()
        reader, writer = self._reader, self._writer
        assert reader is not None and writer is not None
        length = sum(len(p) for p in parts)
        head = (
            f"{method} {path} HTTP/1.1\r\nhost: perfbench\r\n"
            f"content-length: {length}\r\n\r\n"
        ).encode("ascii")
        writer.writelines((head, *parts))
        await writer.drain()
        status_line = await reader.readline()
        if not status_line:
            raise ConnectionError("server closed the connection")
        status = int(status_line.split()[1])
        content_length = 0
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                content_length = int(value)
        return status, await reader.readexactly(content_length)

    async def call(self, op: Op) -> Tuple[int, bytes, Optional[str]]:
        """:meth:`request` for ``op``; a transport failure or timeout is
        returned. After a transport failure the connection is reopened
        on the next call; after a timeout it stays stalled."""
        try:
            status, payload = await self.request("POST", op.path, op.parts)
            return status, payload, None
        except (OSError, asyncio.IncompleteReadError, ValueError, IndexError) as err:
            await self.close()
            return 0, b"", f"{type(err).__name__}: {err}"


@contextlib.contextmanager
def no_gc() -> Iterator[None]:
    """Keep the generator's own garbage collector out of a timed phase:
    a collection pause would delay sends and count as server latency."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


async def run_open(conns: Sequence[Connection], ops: Sequence[Op]) -> List[Result]:
    """Send ``ops`` at their due times (seconds after the start)."""
    results: List[Optional[Result]] = [None] * len(ops)
    order: Iterator[int] = iter(range(len(ops)))
    start = clock()

    async def worker(conn: Connection) -> None:
        ready = clock()
        for i in order:
            op = ops[i]
            due = start + op.due
            wait = due - clock()
            if wait > 0:
                await asyncio.sleep(wait)
            sent = clock()
            status, payload, error = await conn.call(op)
            done = clock()
            results[i] = Result(
                status, payload, error, due, max(due, ready), sent, done
            )
            ready = done

    await asyncio.gather(*(worker(c) for c in conns))
    return [r for r in results if r is not None]


async def run_closed(
    conns: Sequence[Connection], ops: Sequence[Op], seconds: float
) -> Tuple[List[Result], List[int], float]:
    """Back-to-back requests on every connection for ``seconds``.

    Returns the results, the indices of ``ops`` they belong to, and the
    elapsed time from start to the last reply.
    """
    results: List[Result] = []
    sent_ops: List[int] = []
    order: Iterator[int] = iter(range(len(ops)))
    start = clock()
    end = start + seconds

    async def worker(conn: Connection) -> None:
        for i in order:
            sent = clock()
            if sent >= end:
                return
            status, payload, error = await conn.call(ops[i])
            results.append(
                Result(status, payload, error, sent, sent, sent, clock())
            )
            sent_ops.append(i)

    await asyncio.gather(*(worker(c) for c in conns))
    last = max((r.done for r in results), default=clock())
    return results, sent_ops, last - start


async def run_serial(conn: Connection, ops: Sequence[Op]) -> List[Result]:
    """One request at a time on one connection."""
    results = []
    for op in ops:
        sent = clock()
        status, payload, error = await conn.call(op)
        results.append(Result(status, payload, error, sent, sent, sent, clock()))
    return results
