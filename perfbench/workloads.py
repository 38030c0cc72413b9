"""Workload definitions and the constants of the benchmark population.

Every workload serves the same seeded population (4 enrolled templates
replicated to 1000 users at the paper's 9996 MiniRocket features,
float32 in a sharded packed store) with the same probe mix. They differ
in what the service keeps in memory, how users are picked and the
offered rate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

#: Population shape (the paper operating point: 4 channels at 100 Hz,
#: ~10k MiniRocket features per model).
N_USERS = 1000
N_TEMPLATES = 4
FEATURES = 9996
#: PIN every population user enrolled with; wrong-PIN probes prove
#: knowledge of :data:`WRONG_PIN` instead.
PIN = "1628"
WRONG_PIN = "1629"
#: Zipf exponent of the skewed user picks (web-like popularity).
ZIPF_A = 1.2

#: Probe mix, as (probe kind, PIN proof correct, weight). The weights
#: are those of the repository's standard probe battery
#: (``build_world`` in ``scripts/bench_registry.py``): two genuine
#: one-handed probes, two ``double3``, two emulating attacks and one
#: wrong PIN. Wrong-PIN requests carry a genuine trial; they exit on the
#: PIN check before any engine stage runs.
MIX: Tuple[Tuple[str, bool, int], ...] = (
    ("genuine", True, 2),
    ("double3", True, 2),
    ("attack", True, 2),
    ("genuine", False, 1),
)
#: Probes per (template, kind) in the pool requests draw from.
PROBES_PER_KIND = 12

#: Trials per wire enrollment, as ``repro serve`` asks of its users.
ENROLL_TRIALS = 9
#: Wire enrollments per run, sent one at a time on an otherwise idle
#: server after the timed rounds.
ENROLLS = 3
#: Server starts per run; ``setup_s`` is their median.
SETUPS = 5
#: Rounds of the timed traffic; each is an open-loop segment followed
#: by a closed-loop segment.
ROUNDS = 8

#: Keep-alive connections of the load generator (capped at nproc).
CONNECTIONS = 2


@dataclass(frozen=True)
class Workload:
    """One traffic mix against one service configuration.

    Attributes:
        name: the ``--workload`` name.
        why: one line on what the workload exercises.
        picks: ``"zipf"`` (skewed, :data:`ZIPF_A`) or ``"uniform"``.
        warm: preload the whole population with ``AuthService.warm``
            before listening (counted in ``setup_s``).
        registry_capacity: ``ModelRegistry`` LRU bound (``None`` =
            unbounded).
        session_capacity: ``AuthService`` live-session bound.
        open_rate: offered auth requests per second in the open loop.
        open_share: share of each round (and so of ``--seconds``) spent
            in the open loop; the closed loop gets the rest.
    """

    name: str
    why: str
    picks: str
    warm: bool
    registry_capacity: Optional[int]
    session_capacity: int
    open_rate: float
    open_share: float


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="auth-warm",
            why="whole population preloaded, Zipf picks: the steady-state "
            "request path, engine stages dominate and the registry only hits",
            picks="zipf",
            warm=True,
            registry_capacity=2 * N_USERS,
            session_capacity=2 * N_USERS,
            open_rate=80.0,
            open_share=0.55,
        ),
        Workload(
            name="auth-churn",
            why="registry and sessions far below the population, uniform "
            "picks: most requests load and warm a model from the store",
            picks="uniform",
            warm=False,
            registry_capacity=48,
            session_capacity=48,
            open_rate=55.0,
            open_share=0.65,
        ),
    )
}
