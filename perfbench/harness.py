"""One benchmark run: fixture, server processes, traffic phases, report.

:func:`run_benchmark` is what ``perfbench/run.py`` calls once it has put
the checkout's ``src/`` on the path.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import platform
import select
import shutil
import signal
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import EnrollmentError
from repro.features import c_kernel_available

from perfbench.fixture import (
    Fixture,
    build_fixture,
    enrollment_trials,
    response_matches,
    typists,
    wire_bytes,
)
from perfbench.loadgen import (
    Connection,
    Op,
    Pick,
    Result,
    arrivals,
    auth_ops,
    clock,
    enroll_parts,
    no_gc,
    plan_picks,
    run_closed,
    run_open,
    run_serial,
)
from perfbench.tracing import Span, layer_metrics
from perfbench.workloads import (
    CONNECTIONS,
    ENROLL_TRIALS,
    ENROLLS,
    FEATURES,
    N_TEMPLATES,
    N_USERS,
    PROBES_PER_KIND,
    ROUNDS,
    SETUPS,
    WORKLOADS,
    Workload,
)

ROOT = Path(__file__).resolve().parent.parent
SERVER = Path(__file__).resolve().with_name("server.py")

#: Generator lateness (send time past the moment a request was both due
#: and had a free connection) above which a run is marked invalid: the
#: load generator, not the server, fell behind.
LATE_LIMIT_MS = 5.0
#: Bound on waiting for a server to listen or to exit.
SERVER_TIMEOUT_S = 60.0

#: Metric name -> value, unit.
Metrics = Dict[str, Tuple[float, str]]


@dataclass
class Knobs:
    """Population shape (reduced by the tests)."""

    users: int
    templates: int
    features: int


def proc_cpu_s(pid: int) -> float:
    """User plus system CPU seconds of process ``pid``, all threads.

    Time the hypervisor stole from the machine is not charged to the
    process (paravirtual steal accounting), so a count of server CPU
    time moves far less with other tenants of the host than wall time.
    """
    fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def _kill(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()


@dataclass
class ServerProc:
    """One server process (``perfbench/server.py``)."""

    proc: subprocess.Popen
    port: int
    setup_s: float
    report_path: Optional[Path]

    @classmethod
    def start(
        cls,
        fx: Fixture,
        workload: Workload,
        knobs: Knobs,
        report_path: Optional[Path] = None,
        trace: bool = False,
    ) -> "ServerProc":
        """Start a server and wait until it listens; ``setup_s`` is the
        time from process start to its ``READY`` line."""
        argv = [
            sys.executable,
            str(SERVER),
            "--store", str(fx.backend_dir),
            "--corpus", str(fx.corpus_path),
            "--capacity", str(workload.registry_capacity or 0),
            "--sessions", str(workload.session_capacity),
            "--features", str(knobs.features),
            "--warm", str(int(workload.warm)),
            "--trace", str(int(trace)),
        ]
        if report_path is not None:
            argv += ["--report", str(report_path)]
        t0 = clock()
        proc = subprocess.Popen(
            argv, cwd=ROOT, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE
        )
        assert proc.stdout is not None
        readable, _, _ = select.select([proc.stdout], [], [], SERVER_TIMEOUT_S)
        line = proc.stdout.readline() if readable else b""
        setup_s = clock() - t0
        if not line.startswith(b"READY "):
            _kill(proc)
            proc.stdout.close()
            raise RuntimeError(f"server did not start (got {line!r})")
        return cls(proc, int(line.split()[1]), setup_s, report_path)

    def stop(self) -> Dict[str, Any]:
        """SIGTERM the server, wait for it, return its report."""
        self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=SERVER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            _kill(self.proc)
            raise RuntimeError("server did not stop on SIGTERM")
        finally:
            assert self.proc.stdout is not None
            self.proc.stdout.close()
        if code != 0:
            raise RuntimeError(f"server exited with code {code}")
        if self.report_path is None:
            return {}
        return json.loads(self.report_path.read_text())


def cpu_ticks() -> Optional[Tuple[int, int]]:
    """(steal, total) CPU ticks of the machine from ``/proc/stat``, or
    ``None`` where it does not exist. Steal is time the hypervisor gave
    this machine's CPUs to someone else; a high share slows every
    wall-clock metric of the run."""
    try:
        fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:]
    except OSError:
        return None
    ticks = [int(f) for f in fields]
    return (ticks[7] if len(ticks) > 7 else 0), sum(ticks)


@dataclass
class Outcome:
    """Checked results of one server instance's traffic."""

    oracle: Dict[Any, Any]
    open_auth_ms: List[float] = field(default_factory=list)
    open_auth_round: List[int] = field(default_factory=list)
    open_wire_ms: Dict[str, float] = field(default_factory=dict)
    late_ms: List[float] = field(default_factory=list)
    enroll_ms: List[float] = field(default_factory=list)
    measured_rids: List[str] = field(default_factory=list)
    round_rps: List[float] = field(default_factory=list)
    closed_ok: int = 0
    open_s: float = 0.0
    open_cpu_s: float = 0.0
    planned_s: float = 0.0
    offered: int = 0
    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    stats_before: Dict[str, Any] = field(default_factory=dict)
    stats_after: Dict[str, Any] = field(default_factory=dict)

    def check(self, op: Op, result: Result, enrollee: Optional[str]) -> bool:
        """Count one operation; True when it succeeded and matched.

        ``enrollee`` is the user id of an enrollment, ``None`` for an
        auth request (checked against the oracle row ``op.key``).
        """
        self.attempted += 1
        ok = result.error is None and result.status == 200
        if ok:
            body = json.loads(result.payload)
            if enrollee is None:
                ok = response_matches(self.oracle[op.key], body)
            else:
                ok = body == {
                    "user_id": enrollee,
                    "enrolled": True,
                    "n_trials": ENROLL_TRIALS,
                }
        if not ok:
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append(
                    f"{op.path} {result.status} {result.error or ''} "
                    f"{result.payload[:200]!r}"
                )
        return ok

    def absorb(self, other: "Outcome") -> None:
        """Count another instance's operations as this run's too."""
        self.attempted += other.attempted
        self.failed += other.failed
        self.failures += other.failures


async def _json(
    conn: Connection, method: str, path: str, body: Optional[dict] = None
) -> Any:
    parts = () if body is None else (json.dumps(body).encode("utf-8"),)
    status, payload = await conn.request(method, path, parts)
    if status != 200:
        raise RuntimeError(f"{method} {path} -> {status}: {payload[:200]!r}")
    return json.loads(payload)


async def _prepare_enrolls(
    conn: Connection, people: Iterator[Tuple[Any, int]], uids: Sequence[str]
) -> List[Tuple[Op, str]]:
    """Open one enrollment window per id and build its complete body;
    untimed (the server-drawn PINs are only known now).

    Some drawn PINs are hard to type cleanly for some simulated people;
    as ``repro serve`` re-prompts, another person types it, and after
    a few misses the window is reopened with a fresh PIN.
    """
    ops = []
    for uid in uids:
        for _ in range(8):
            window = await _json(conn, "POST", "/v1/enroll/begin", {"user_id": uid})
            trials = None
            for _ in range(4):
                try:
                    trials = enrollment_trials(*next(people), window["pin"])
                    break
                except EnrollmentError:
                    continue
            if trials is not None:
                break
        else:
            raise RuntimeError(f"no enrollment trials for {uid}")
        parts = enroll_parts(
            uid, window["nonce"], window["pin"], [wire_bytes(t) for t in trials]
        )
        ops.append((Op("/v1/enroll/complete", parts, window["nonce"]), uid))
    return ops


async def drive(
    server: ServerProc,
    fx: Fixture,
    workload: Workload,
    seed: int,
    seconds: float,
    tag: str,
    closed: bool,
) -> Outcome:
    """One server instance's traffic: warm-up, :data:`ROUNDS` rounds of
    an open-loop segment followed (when ``closed``) by a closed-loop
    segment, then the enrollments. ``tag`` keeps enrollee ids of
    instances apart.

    Rounds spread both loops over the whole run, so a few seconds of
    contention from other tenants of the host move one round of each
    rather than all of one loop.
    """
    out = Outcome(oracle=fx.oracle)
    n_conn = max(1, min(CONNECTIONS, os.cpu_count() or 1))
    conns = [Connection("127.0.0.1", server.port) for _ in range(n_conn)]
    n_users = len(fx.user_ids)
    rng = np.random.default_rng([seed, 1])
    open_s = seconds * workload.open_share / ROUNDS
    closed_s = seconds * (1.0 - workload.open_share) / ROUNDS
    n_open = max(1, int(round(workload.open_rate * open_s)))
    # Enough closed-loop requests for 1000 auth/s, far above capacity.
    n_closed = int(1000 * closed_s) + 20

    def plan(n: int, dues: Optional[np.ndarray] = None) -> List[Op]:
        picks = plan_picks(
            rng, n, workload.picks, n_users, fx.n_templates, PROBES_PER_KIND
        )
        return auth_ops(picks, fx.user_ids, fx.wire, dues)

    open_rounds = [plan(n_open, arrivals(n_open, open_s)) for _ in range(ROUNDS)]
    closed_rounds = [plan(n_closed) for _ in range(ROUNDS if closed else 0)]
    try:
        # Warm-up: every probe once, so lazily filled caches (detrend
        # factorizations per signal length, first sessions) are full
        # before the clock starts. Checked, not timed.
        warm = [Pick(t, t, kind, j, True) for (t, kind, j) in sorted(fx.wire)]
        warm_ops = auth_ops(warm, fx.user_ids, fx.wire)
        for op, res in zip(warm_ops, await run_serial(conns[0], warm_ops)):
            out.check(op, res, None)

        enrolls = await _prepare_enrolls(
            conns[0], typists(seed, tag), [f"e{tag}{k:04d}" for k in range(ENROLLS)]
        )

        out.stats_before = await _json(conns[0], "GET", "/v1/admin/stats")
        open_results: List[List[Result]] = []
        closed_results: List[Tuple[List[Result], List[int], float]] = []
        with no_gc():
            for r in range(ROUNDS):
                cpu0 = proc_cpu_s(server.proc.pid)
                open_results.append(await run_open(conns, open_rounds[r]))
                out.open_cpu_s += proc_cpu_s(server.proc.pid) - cpu0
                if closed:
                    closed_results.append(
                        await run_closed(conns, closed_rounds[r], closed_s)
                    )
        out.stats_after = await _json(conns[0], "GET", "/v1/admin/stats")

        for r, (ops, results) in enumerate(zip(open_rounds, open_results)):
            out.offered += len(ops)
            out.planned_s += open_s
            out.open_s += max(x.done for x in results) - min(x.due for x in results)
            for op, res in zip(ops, results):
                out.measured_rids.append(op.rid)
                if out.check(op, res, None):
                    out.open_auth_ms.append((res.done - res.due) * 1e3)
                    out.open_auth_round.append(r)
                    out.open_wire_ms[op.rid] = (res.done - res.sent) * 1e3
                    out.late_ms.append((res.sent - res.ready) * 1e3)
        for ops, (results, idx, elapsed) in zip(closed_rounds, closed_results):
            ok = sum(out.check(ops[i], res, None) for i, res in zip(idx, results))
            out.closed_ok += ok
            out.round_rps.append(ok / elapsed if elapsed else 0.0)

        enroll_ops = [op for op, _ in enrolls]
        for (op, uid), res in zip(enrolls, await run_serial(conns[0], enroll_ops)):
            out.measured_rids.append(op.rid)
            if out.check(op, res, uid):
                out.enroll_ms.append((res.done - res.sent) * 1e3)
    finally:
        for conn in conns:
            await conn.close()
    return out


def _pct(values: Sequence[float], q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else float("nan")


def _p95_by_round(out: Outcome) -> List[float]:
    latency = np.asarray(out.open_auth_ms)
    at = np.asarray(out.open_auth_round)
    return [_pct(latency[at == r], 95) for r in range(ROUNDS) if np.any(at == r)]


def _registry_delta(out: Outcome) -> Dict[str, int]:
    before = out.stats_before["registry"]["stats"]
    after = out.stats_after["registry"]["stats"]
    return {k: int(after[k]) - int(before[k]) for k in ("hits", "misses", "evictions")}


def _validity(out: Outcome) -> Dict[str, Any]:
    late_p99 = _pct(out.late_ms, 99)
    return {
        "offered_rps": out.offered / out.planned_s if out.planned_s else 0.0,
        "achieved_rps": len(out.open_auth_ms) / out.open_s if out.open_s else 0.0,
        "generator_late_p99_ms": late_p99,
        "valid": bool(late_p99 <= LATE_LIMIT_MS),
    }


def measure(
    fx: Fixture, workload: Workload, knobs: Knobs, seed: int, seconds: float, work: Path
) -> Tuple[Metrics, Dict[str, Any], Outcome]:
    """The untraced run: setups, then traffic on the last instance."""
    setups = []
    for _ in range(SETUPS - 1):
        srv = ServerProc.start(fx, workload, knobs)
        setups.append(srv.setup_s)
        srv.stop()
    srv = ServerProc.start(fx, workload, knobs, work / "report-a.json")
    setups.append(srv.setup_s)
    try:
        out = asyncio.run(drive(srv, fx, workload, seed, seconds, "a", closed=True))
    finally:
        report = srv.stop()
    metrics = {
        "auth_cpu_ms": (out.open_cpu_s * 1e3 / max(1, len(out.open_auth_ms)), "ms"),
        "setup_s": (_pct(setups, 50), "s"),
        "peak_rss_mib": (report["peak_rss_kib"] / 1024.0, "MiB"),
    }
    n_open, n_closed, n_enroll = len(out.open_auth_ms), out.closed_ok, len(out.enroll_ms)
    details = {
        # Wall-clock figures, reported with their sample counts but not
        # BENCHMARK.json metrics: contention from other tenants of the
        # host moves them by more than the largest bound (see README).
        "reported": {
            "auth_p50_ms": [_pct(out.open_auth_ms, 50), "ms", n_open],
            "auth_p95_ms": [_pct(out.open_auth_ms, 95), "ms", n_open],
            "auth_p99_ms": [_pct(out.open_auth_ms, 99), "ms", n_open],
            "auth_rps": [_pct(out.round_rps, 50), "1/s", n_closed],
            "enroll_p50_ms": [_pct(out.enroll_ms, 50), "ms", n_enroll],
        },
        "samples": {
            "auth_open": n_open,
            "auth_closed": n_closed,
            "enroll": n_enroll,
            "setups": len(setups),
        },
        "auth_open_tail_ms": {
            f"p{q}": _pct(out.open_auth_ms, q) for q in (90, 99.9, 100)
        },
        "auth_p95_by_round_ms": _p95_by_round(out),
        "auth_rps_by_round": out.round_rps,
        "setup_runs_s": setups,
        "registry_delta": _registry_delta(out),
        "server_c_kernel_available": report["c_kernel_available"],
        **_validity(out),
    }
    return metrics, details, out


def _unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def traced(
    fx: Fixture, workload: Workload, knobs: Knobs, seed: int, seconds: float, work: Path
) -> Tuple[Metrics, Dict[str, Any], Outcome]:
    """The traced run: the same plan on an untraced, then a traced server."""
    srv = ServerProc.start(fx, workload, knobs, work / "report-a.json")
    try:
        base = asyncio.run(drive(srv, fx, workload, seed, seconds, "a", closed=False))
    finally:
        srv.stop()
    srv = ServerProc.start(fx, workload, knobs, work / "report-b.json", trace=True)
    try:
        out = asyncio.run(drive(srv, fx, workload, seed, seconds, "b", closed=False))
    finally:
        report = srv.stop()
    out.absorb(base)
    spans = [Span(*s) for s in report["spans"]]
    layers = layer_metrics(spans, out.open_wire_ms, out.measured_rids)
    delta = _registry_delta(out)
    gets = delta["hits"] + delta["misses"]
    layers["core.registry.hit_ratio"] = delta["hits"] / gets if gets else 0.0
    layers["core.registry.misses"] = float(delta["misses"])
    layers["core.registry.evictions"] = float(delta["evictions"])
    untraced_p50 = _pct(base.open_auth_ms, 50)
    traced_p50 = _pct(out.open_auth_ms, 50)
    layers["trace.overhead_ms"] = traced_p50 - untraced_p50
    details = {
        "untraced_auth_p50_ms": untraced_p50,
        "traced_auth_p50_ms": traced_p50,
        "spans": len(spans),
        "registry_delta": delta,
        "server_c_kernel_available": report["c_kernel_available"],
        **_validity(out),
    }
    return {k: (v, _unit(k)) for k, v in layers.items()}, details, out


def run_benchmark(args: argparse.Namespace) -> int:
    """Run one ``--workload``; print the report line, a stderr summary
    and the result line. Returns the exit code."""
    workload = WORKLOADS[args.workload]
    knobs = Knobs(
        users=args.users or N_USERS,
        templates=args.templates or N_TEMPLATES,
        features=args.features or FEATURES,
    )
    work_root = ROOT / ".perfbench_work"
    work = work_root / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    ticks_before = cpu_ticks()
    try:
        fx = build_fixture(
            args.seed,
            work,
            n_users=knobs.users,
            n_templates=knobs.templates,
            features=knobs.features,
        )
        run = traced if args.trace else measure
        metrics, details, out = run(fx, workload, knobs, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:  # another run's directory is still there
            pass
    ticks_after = cpu_ticks()

    steal = None
    if ticks_before and ticks_after:
        steal = (ticks_after[0] - ticks_before[0]) / max(1, ticks_after[1] - ticks_before[1])
    error_ratio = out.failed / out.attempted if out.attempted else 1.0
    report = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "population": {
            "users": knobs.users,
            "templates": knobs.templates,
            "features": knobs.features,
        },
        "env": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "nproc": os.cpu_count(),
            "c_kernel_available": c_kernel_available(),
            "REPRO_MINIROCKET_ENGINE": os.environ.get("REPRO_MINIROCKET_ENGINE", "auto"),
            "cpu_steal_share": steal,
        },
        "error_ratio": error_ratio,
        "failures": out.failures,
        **details,
    }
    print(json.dumps(report))
    for name, (value, unit) in metrics.items():
        print(f"{workload.name:>10} {name:<40} {value:12.4f} {unit}", file=sys.stderr)
    for name, (value, unit, count) in details.get("reported", {}).items():
        print(
            f"{workload.name:>10} {name:<40} {value:12.4f} {unit} "
            f"(of {count} samples; reported only)",
            file=sys.stderr,
        )
    print(
        f"{workload.name:>10} {'error_ratio':<40} {error_ratio:12.4f} "
        f"({out.failed}/{out.attempted} operations)",
        file=sys.stderr,
    )
    if not details["valid"]:
        print("perfbench: run INVALID: the load generator fell behind", file=sys.stderr)
    correct = out.failed == 0
    result = {
        "correct": correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1
