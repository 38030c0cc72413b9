"""Seeded fixture: population, probe mix, oracle and enrollment material.

Everything here is a pure function of ``--seed`` (plus the population
shape): the same seed gives the same templates, probes, oracle table
and enrollment trials. The server process reads only what
:func:`build_fixture` writes to disk — the packed store and the
third-party corpus — so each run starts from the same fixture state.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.config import PipelineConfig
from repro.core import (
    AuthDecision,
    EnrollmentOptions,
    ModelRegistry,
    P2Auth,
    ShardedPackedBackend,
    check_enrollment_quality,
    pack_authenticator,
)
from repro.data import StudyData
from repro.errors import EnrollmentError
from repro.eval import materialize_population
from repro.service import encode_trial
from repro.types import PinEntryTrial

from perfbench.workloads import (
    ENROLL_TRIALS,
    FEATURES,
    N_TEMPLATES,
    N_USERS,
    PIN,
    PROBES_PER_KIND,
    WRONG_PIN,
)

#: Probe kinds in the pool; see :data:`perfbench.workloads.MIX`.
KINDS = ("genuine", "double3", "attack")

#: (template, kind, probe index) — one wire trial of the probe pool.
ProbeKey = Tuple[int, str, int]
#: (template, kind, probe index, PIN proof correct) — one oracle row.
OracleKey = Tuple[int, str, int, bool]
#: What a response must carry: accepted, reason, pin_ok, input_case,
#: scores (bit-exact).
Expected = Tuple[bool, str, Optional[bool], Optional[str], Tuple[float, ...]]

#: Simulated cohort behind one template: the first person with enough
#: gate-passing trials enrolls, the next ones donate negatives, and the
#: next is the emulating attacker.
_COHORT = 12
_DONORS = 4
_ENROLL_LEGIT = 7
_NEG_PER_DONOR = 6
#: Candidates scanned for gate-passing trials before giving up.
_CANDIDATES = 36


def sub_seed(seed: int, *parts: object) -> int:
    """A 63-bit seed derived from ``seed`` and a tag path."""
    text = repr((int(seed),) + parts).encode("utf-8")
    return int.from_bytes(hashlib.blake2b(text, digest_size=8).digest(), "big") >> 1


def gate_passing(
    study: StudyData, user: int, pin: str, n: int
) -> List[PinEntryTrial]:
    """The first ``n`` one-handed trials of ``user`` that pass the
    enrollment quality gate on their own (the client-side pre-filter
    ``repro serve`` applies)."""
    config = PipelineConfig()
    options = EnrollmentOptions()
    picked: List[PinEntryTrial] = []
    for count in range(1, _CANDIDATES + 1):
        trial = study.trials(user, pin, "one_handed", count)[-1]
        try:
            check_enrollment_quality([trial], config, options)
        except EnrollmentError:
            continue
        picked.append(trial)
        if len(picked) == n:
            return picked
    raise EnrollmentError(
        f"only {len(picked)}/{n} of {_CANDIDATES} trials of user {user} "
        "passed the enrollment quality gate"
    )


def wire_bytes(trial: PinEntryTrial) -> bytes:
    """A trial in its wire JSON encoding."""
    return json.dumps(encode_trial(trial), separators=(",", ":")).encode("ascii")


@dataclass
class Fixture:
    """The on-disk population plus everything the client needs.

    Attributes:
        seed: the fixture seed.
        backend_dir: the sharded packed store the server opens.
        corpus_path: the server-side third-party corpus (wire trials).
        user_ids: population ids; user ``i`` holds template
            ``i % n_templates``.
        n_templates: distinct templates in the population.
        wire: probe pool in wire encoding.
        oracle: expected decision per :data:`OracleKey`.
    """

    seed: int
    backend_dir: Path
    corpus_path: Path
    user_ids: List[str]
    n_templates: int
    wire: Dict[ProbeKey, bytes]
    oracle: Dict[OracleKey, Expected]


def _able(
    study: StudyData, people: Iterator[int], pin: str, n: int
) -> Tuple[int, List[PinEntryTrial]]:
    """The next person of ``people`` with ``n`` gate-passing trials
    (some simulated people type too weakly for the gate)."""
    for user in people:
        try:
            return user, gate_passing(study, user, pin, n)
        except EnrollmentError:
            continue
    raise EnrollmentError("no simulated person left with enough clean trials")


def _template(
    seed: int, index: int, features: int
) -> Tuple[P2Auth, Dict[str, List[PinEntryTrial]]]:
    """Enroll one simulated user at ``features`` and draw their probes."""
    study = StudyData(n_users=_COHORT, seed=sub_seed(seed, "template", index))
    people = iter(range(_COHORT))
    owner, legit = _able(study, people, PIN, _ENROLL_LEGIT)
    negatives = [
        t for _ in range(_DONORS) for t in _able(study, people, PIN, _NEG_PER_DONOR)[1]
    ]
    attacker = next(people)
    auth = P2Auth(
        pin=PIN,
        options=EnrollmentOptions(num_features=features),
        salt=hashlib.blake2b(
            repr((seed, "salt", index)).encode("utf-8"), digest_size=16
        ).digest(),
    )
    auth.enroll(legit, negatives)
    # Genuine probes come after every candidate the enrollment scanned,
    # so no probe is also an enrollment trial.
    ones = study.trials(owner, PIN, "one_handed", _CANDIDATES + PROBES_PER_KIND)
    probes = {
        "genuine": ones[_CANDIDATES:],
        "double3": study.trials(owner, PIN, "double3", PROBES_PER_KIND),
        "attack": study.emulating_trials(attacker, owner, PIN, PROBES_PER_KIND),
    }
    return auth, probes


def expected_of(decision: AuthDecision) -> Expected:
    """The oracle row of an engine decision."""
    case = decision.input_case
    return (
        bool(decision.accepted),
        decision.reason,
        decision.pin_ok,
        None if case is None else case.value,
        tuple(float(s) for s in decision.scores),
    )


def response_matches(expected: Expected, payload: Dict[str, object]) -> bool:
    """Whether a wire ``/v1/auth`` response carries the oracle decision.

    Scores compare bit for bit: JSON floats round-trip exactly.
    """
    scores = payload.get("scores")
    return (
        payload.get("accepted") == expected[0]
        and payload.get("reason") == expected[1]
        and payload.get("pin_ok") == expected[2]
        and payload.get("input_case") == expected[3]
        and isinstance(scores, list)
        and tuple(scores) == expected[4]
    )


def build_oracle(
    registry: ModelRegistry,
    user_ids: Sequence[str],
    probes: Dict[ProbeKey, PinEntryTrial],
) -> Dict[OracleKey, Expected]:
    """Expected decisions from direct ``ModelRegistry.authenticate``."""
    oracle: Dict[OracleKey, Expected] = {}
    for (template, kind, index), trial in probes.items():
        uid = user_ids[template]
        for pin_ok in (True, False):
            decision = registry.authenticate(
                uid, trial, claimed_pin=PIN if pin_ok else WRONG_PIN
            )
            oracle[(template, kind, index, pin_ok)] = expected_of(decision)
    return oracle


def build_fixture(
    seed: int,
    workdir: Path,
    *,
    n_users: int = N_USERS,
    n_templates: int = N_TEMPLATES,
    features: int = FEATURES,
) -> Fixture:
    """Build the population under ``workdir`` and compute the oracle."""
    templates = []
    probes: Dict[ProbeKey, PinEntryTrial] = {}
    for index in range(n_templates):
        auth, drawn = _template(seed, index, features)
        templates.append(pack_authenticator(auth, dtype="float32"))
        for kind in KINDS:
            for j, trial in enumerate(drawn[kind]):
                probes[(index, kind, j)] = trial
    backend_dir = workdir / "store"
    backend = ShardedPackedBackend(backend_dir, dtype="float32")
    user_ids = materialize_population(backend, n_users, templates)
    # The oracle reads the packed records back, exactly as the server
    # will: decisions are those of the float32 templates.
    oracle = build_oracle(ModelRegistry(backend=backend), user_ids, probes)

    # Server-side negatives for wire enrollments: two donors who never
    # enroll, as in ``repro serve``.
    donors = StudyData(n_users=_COHORT, seed=sub_seed(seed, "donors"))
    people = iter(range(_COHORT))
    corpus = [
        encode_trial(t) for _ in range(2) for t in _able(donors, people, PIN, 9)[1]
    ]
    corpus_path = workdir / "corpus.json"
    corpus_path.write_text(json.dumps({"pin": PIN, "trials": corpus}))

    return Fixture(
        seed=seed,
        backend_dir=backend_dir,
        corpus_path=corpus_path,
        user_ids=user_ids,
        n_templates=n_templates,
        wire={key: wire_bytes(trial) for key, trial in probes.items()},
        oracle=oracle,
    )


def typists(seed: int, tag: str) -> Iterator[Tuple[StudyData, int]]:
    """Endless distinct simulated people who enroll over the wire.

    ``tag`` keeps the people of separate server instances in one run
    apart.
    """
    per_study = 8
    for k in itertools.count():
        study = StudyData(n_users=per_study, seed=sub_seed(seed, "typists", tag, k))
        for user in range(per_study):
            yield study, user


def enrollment_trials(
    study: StudyData, user: int, pin: str
) -> List[PinEntryTrial]:
    """The :data:`ENROLL_TRIALS` gate-passing trials an enrollee types
    for the server-drawn ``pin``."""
    return gate_passing(study, user, pin, ENROLL_TRIALS)
