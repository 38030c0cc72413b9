"""Parity contract of the staged authentication engine.

The layered refactor (``repro.core.stages`` / ``registry`` / the split
enrollment package) is only allowed to *reorganize* the code — not to
change a single bit of its behavior. This suite pins that contract:

- an inline copy of the pre-refactor monolithic authentication body is
  compared field-for-field (``rtol=0``/``atol=0``) against the staged
  path on legitimate, attacker, privacy-boost, two-handed, and
  wrong-PIN probes;
- ``P2Auth.authenticate_many`` must equal a Python loop over
  ``authenticate``;
- a registry-enrolled user must score identically to a directly
  constructed ``P2Auth``;
- a table-driven experiment sweep row must equal the hand-rolled
  pre-refactor row construction;
- regenerated robustness grid rows must match the committed
  ``ROBUSTNESS.json``;
- ``authenticate`` (fast kernels) must equal the same stage chain run on
  the oracle kernels of ``tests/oracles.py``, and ``warmup`` must stay
  idempotent and invisible in results.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.config import PAPER_PINS
from repro.core import (
    AuthDecision,
    EnrollmentOptions,
    ModelRegistry,
    P2Auth,
    identify_input_case,
    preprocess_trial,
)
from repro.core.enrollment import (
    extract_full_waveform,
    extract_fused_waveform,
    extract_segments,
)
from repro.data import StudyData, ThirdPartyStore
from repro.errors import AuthenticationError
from repro.types import InputCase
from tests.oracles import authenticate_reference

REPO_ROOT = Path(__file__).resolve().parents[1]
PIN = PAPER_PINS[0]
FEATURES = 840


# ---------------------------------------------------------------------------
# The pre-refactor reference implementation, copied verbatim from the
# monolithic repro.core.authentication as of the commit before the
# staged engine landed. Do not "improve" it — it is the parity oracle.
# ---------------------------------------------------------------------------


def _reference_integrate(passes):
    n = len(passes)
    hits = sum(passes)
    if n <= 1:
        return False
    if n == 2:
        return hits == 2
    if n == 3:
        return hits >= 2
    return hits >= n - 1


def _reference_check_keystrokes(models, preprocessed):
    keys = []
    scores = []
    passes = []
    for segment in extract_segments(preprocessed, models.config):
        keys.append(segment.key)
        model = models.key_models.get(segment.key)
        if model is None:
            scores.append(float("-inf"))
            passes.append(False)
            continue
        score = float(model.decision_function(segment.samples)[0])
        scores.append(score)
        passes.append(score > 0.0)
    return tuple(keys), tuple(scores), tuple(passes)


def _reference_authenticate(models, preprocessed, pin_ok, no_pin_mode=False):
    if not no_pin_mode:
        if pin_ok is None:
            raise AuthenticationError("pin_ok is required outside NO-PIN mode")
        if not pin_ok:
            return AuthDecision(
                accepted=False, reason="PIN verification failed", pin_ok=False
            )

    case = identify_input_case(preprocessed)
    if case is InputCase.REJECT:
        return AuthDecision(
            accepted=False,
            reason=(
                f"only {preprocessed.detected_count} keystroke(s) detected; "
                "at least two are required"
            ),
            input_case=case,
            pin_ok=pin_ok,
        )

    if no_pin_mode or case is not InputCase.ONE_HANDED:
        keys, scores, passes = _reference_check_keystrokes(models, preprocessed)
        accepted = _reference_integrate(passes)
        return AuthDecision(
            accepted=accepted,
            reason=(
                f"{sum(passes)}/{len(passes)} keystroke waveforms legal "
                f"({case.value})"
            ),
            input_case=case,
            pin_ok=pin_ok,
            scores=scores,
            keys_checked=keys,
            passes=passes,
        )

    options = models.options
    if options.privacy_boost:
        if models.fused_model is None:
            raise AuthenticationError("privacy boost enabled but no fused model")
        waveform = extract_fused_waveform(preprocessed, models.config)
        score = float(models.fused_model.decision_function(waveform)[0])
        label = "fused waveform"
    else:
        if models.full_model is None:
            raise AuthenticationError("no full-waveform model enrolled")
        waveform = extract_full_waveform(
            preprocessed, options.full_window, options.full_margin
        )
        score = float(models.full_model.decision_function(waveform)[0])
        label = "full waveform"

    accepted = score > 0.0
    return AuthDecision(
        accepted=accepted,
        reason=f"{label} score {score:+.3f} ({'legal' if accepted else 'illegal'})",
        input_case=case,
        pin_ok=pin_ok,
        scores=(score,),
    )


def assert_decisions_identical(staged: AuthDecision, reference: AuthDecision):
    """Field-for-field equality; scores at rtol=0/atol=0."""
    assert staged.accepted == reference.accepted
    assert staged.reason == reference.reason
    assert staged.input_case == reference.input_case
    assert staged.pin_ok == reference.pin_ok
    assert staged.keys_checked == reference.keys_checked
    assert staged.passes == reference.passes
    assert staged.degradation == reference.degradation
    assert len(staged.scores) == len(reference.scores)
    np.testing.assert_allclose(
        np.asarray(staged.scores),
        np.asarray(reference.scores),
        rtol=0,
        atol=0,
    )


# ---------------------------------------------------------------------------
# Fixtures: one small population, two enrolled authenticators
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def data():
    return StudyData(n_users=5, seed=3)


@pytest.fixture(scope="module")
def third_party(data):
    return ThirdPartyStore(data, [1, 2], PIN).sample(20)


@pytest.fixture(scope="module")
def enroll_trials(data):
    return data.trials(0, PIN, "one_handed", 8)[:6]


@pytest.fixture(scope="module")
def auth(enroll_trials, third_party):
    a = P2Auth(pin=PIN, options=EnrollmentOptions(num_features=FEATURES))
    a.enroll(enroll_trials, third_party)
    return a


@pytest.fixture(scope="module")
def boost_auth(enroll_trials, third_party):
    a = P2Auth(
        pin=PIN,
        options=EnrollmentOptions(num_features=FEATURES, privacy_boost=True),
    )
    a.enroll(enroll_trials, third_party)
    return a


@pytest.fixture(scope="module")
def probes(data):
    legit = data.trials(0, PIN, "one_handed", 8)[6:]
    two_handed = data.trials(0, PIN, "double3", 2)
    attacks = data.emulating_trials(4, 0, PIN, 2)
    return {"legit": legit, "two_handed": two_handed, "attack": attacks}


# ---------------------------------------------------------------------------
# 1. Staged engine vs the monolithic reference
# ---------------------------------------------------------------------------


class TestStagedVsReference:
    @pytest.mark.parametrize("kind", ["legit", "two_handed", "attack"])
    def test_full_model_routes(self, auth, probes, kind):
        for trial in probes[kind]:
            pre = preprocess_trial(trial, auth.config)
            reference = _reference_authenticate(auth.models, pre, True)
            staged = auth.authenticate(trial)
            assert_decisions_identical(staged, reference)

    @pytest.mark.parametrize("kind", ["legit", "attack"])
    def test_privacy_boost_route(self, boost_auth, probes, kind):
        for trial in probes[kind]:
            pre = preprocess_trial(trial, boost_auth.config)
            reference = _reference_authenticate(boost_auth.models, pre, True)
            staged = boost_auth.authenticate(trial)
            assert_decisions_identical(staged, reference)

    def test_wrong_pin_short_circuits(self, auth, probes):
        trial = probes["legit"][0]
        pre = preprocess_trial(trial, auth.config)
        reference = _reference_authenticate(auth.models, pre, False)
        staged = auth.authenticate(trial, claimed_pin="0000")
        assert_decisions_identical(staged, reference)
        assert staged.reason == "PIN verification failed"

    def test_exception_parity_without_fused_model(self, auth, probes):
        # A one-handed probe with the boost flag but no fused model must
        # raise exactly as the monolith did, before any waveform work.
        from dataclasses import replace

        trial = probes["legit"][0]
        pre = preprocess_trial(trial, auth.config)
        boosted = replace(
            auth.models,
            options=replace(auth.models.options, privacy_boost=True),
            fused_model=None,
        )
        with pytest.raises(AuthenticationError, match="no fused model"):
            _reference_authenticate(boosted, pre, True)
        from repro.core import AuthPipeline, Preprocessed

        with pytest.raises(AuthenticationError, match="no fused model"):
            AuthPipeline(boosted).run_preprocessed(
                [Preprocessed(trial=pre, pin_ok=True)]
            )


# ---------------------------------------------------------------------------
# 2. Batch path == loop
# ---------------------------------------------------------------------------


class TestBatchParity:
    def test_authenticate_many_equals_loop(self, auth, probes):
        trials = probes["legit"] + probes["attack"] + probes["two_handed"]
        batched = auth.authenticate_many(trials)
        looped = [auth.authenticate(t) for t in trials]
        assert len(batched) == len(looped)
        for b, l in zip(batched, looped):
            assert_decisions_identical(b, l)

    def test_authenticate_many_mixed_pins(self, auth, probes):
        trials = [probes["legit"][0], probes["legit"][1]]
        pins = [PIN, "0000"]
        batched = auth.authenticate_many(trials, claimed_pins=pins)
        looped = [
            auth.authenticate(t, claimed_pin=p) for t, p in zip(trials, pins)
        ]
        for b, l in zip(batched, looped):
            assert_decisions_identical(b, l)


# ---------------------------------------------------------------------------
# 3. Registry façade vs direct construction
# ---------------------------------------------------------------------------


class TestRegistryParity:
    def test_registry_enrollment_scores_identically(
        self, data, auth, enroll_trials, third_party, probes
    ):
        registry = ModelRegistry(
            options=EnrollmentOptions(num_features=FEATURES)
        )
        registry.enroll("alice", PIN, enroll_trials, third_party)
        for trial in probes["legit"] + probes["attack"]:
            via_registry = registry.authenticate("alice", trial)
            direct = auth.authenticate(trial)
            assert_decisions_identical(via_registry, direct)


# ---------------------------------------------------------------------------
# 4. Table-driven experiment runner vs hand-rolled sweep row
# ---------------------------------------------------------------------------


class TestExperimentRowParity:
    def test_generic_runner_matches_hand_rolled_row(self):
        from functools import partial

        from repro.eval.experiments import (
            ExperimentScale,
            ExperimentSpec,
            run_experiment,
        )
        from repro.eval.experiments import _fig14_tabulate
        from repro.eval.protocol import evaluate_user

        scale = ExperimentScale(
            n_users=5,
            n_victims=2,
            n_attackers=2,
            enroll_n=5,
            test_n=3,
            third_party_n=12,
            ra_per_attacker=2,
            ea_per_attacker=2,
            num_features=FEATURES,
            seed=2,
        )
        size = 12
        spec = ExperimentSpec(
            experiment="fig14",
            title="parity probe",
            headers=("store size", "accuracy", "trr"),
            description="single fig14 sweep row for the parity suite.",
            cases=lambda s: [(size, dict(third_party_n=size))],
            tabulate=_fig14_tabulate,
        )
        result = run_experiment(spec, scale)

        # Hand-rolled, pre-refactor style: serial evaluate_user calls
        # and explicit mean arithmetic.
        study = StudyData(n_users=scale.n_users, seed=scale.seed)
        evaluate = partial(
            evaluate_user,
            study,
            pin=PIN,
            attacker_ids=scale.attacker_ids,
            enroll_n=scale.enroll_n,
            test_n=scale.test_n,
            third_party_n=size,
            ra_per_attacker=scale.ra_per_attacker,
            ea_per_attacker=scale.ea_per_attacker,
            num_features=scale.num_features,
        )
        results = [evaluate(victim_id=victim) for victim in scale.victim_ids]
        acc = float(np.mean([r.accuracy for r in results]))
        trr = float(
            np.mean(
                [
                    float(np.mean([r.trr_random, r.trr_emulating]))
                    for r in results
                ]
            )
        )
        assert result.rows == ((size, acc, trr),)
        assert result.summary == {f"acc_{size}": acc, f"trr_{size}": trr}


# ---------------------------------------------------------------------------
# 5. Robustness grid rows vs the committed ROBUSTNESS.json
# ---------------------------------------------------------------------------


class TestRobustnessParity:
    def test_channel_dropout_rows_match_committed_report(self):
        from repro.eval.robustness import build_report, run_robustness_sweep

        committed = json.loads(
            (REPO_ROOT / "ROBUSTNESS.json").read_text()
        )
        expected = [
            row
            for row in committed["grid"]
            if row["fault"] == "channel_dropout"
        ]
        assert expected, "committed report lost its channel_dropout rows"

        study = StudyData(n_users=6, seed=5)
        cells = run_robustness_sweep(
            study,
            faults=["channel_dropout"],
            intensities=(0.0, 0.25, 0.5, 1.0),
            victim_ids=(0, 1),
            attacker_ids=(4, 5),
            enroll_n=9,
            test_n=6,
            third_party_n=60,
            ra_per_attacker=3,
            ea_per_attacker=3,
            num_features=2520,
            seed=0,
        )
        report = build_report(cells, seed=0, label="default")
        assert report["grid"] == expected


# ---------------------------------------------------------------------------
# 6. Fast kernels inside the engine vs oracle-kernel preprocessing
# ---------------------------------------------------------------------------


class TestFusedParity:
    """``authenticate`` must never differ from the oracle-kernel engine.

    The engine's preprocessing runs the fused kernels (selection-network
    median, cached Savitzky-Golay FIR calibration, direct ``pbtrs``
    detrend solve). ``tests.oracles.authenticate_reference`` runs the
    same stage chain with the slow reference kernels in their place;
    these tests compare the two field-for-field at rtol=0/atol=0.
    """

    @pytest.mark.parametrize("kind", ["legit", "two_handed", "attack"])
    def test_all_probe_kinds(self, auth, probes, kind):
        for trial in probes[kind]:
            assert_decisions_identical(
                auth.authenticate(trial), authenticate_reference(auth, trial)
            )

    @pytest.mark.parametrize("kind", ["legit", "attack"])
    def test_privacy_boost_route(self, boost_auth, probes, kind):
        for trial in probes[kind]:
            assert_decisions_identical(
                boost_auth.authenticate(trial),
                authenticate_reference(boost_auth, trial),
            )

    def test_wrong_pin_short_circuits(self, auth, probes):
        trial = probes["legit"][0]
        fast = auth.authenticate(trial, claimed_pin="0000")
        assert_decisions_identical(
            fast, authenticate_reference(auth, trial, claimed_pin="0000")
        )
        assert fast.reason == "PIN verification failed"

    def test_scratch_reuse_does_not_drift(self, auth, probes):
        # Repeated calls share process-wide caches (factorizations, SG
        # coefficients, kernel plans); a cache entry mutated by a call
        # would show up as a changed score on a later one.
        reference = [authenticate_reference(auth, t) for t in probes["legit"]]
        for _ in range(3):
            for trial, expected in zip(probes["legit"], reference):
                assert_decisions_identical(auth.authenticate(trial), expected)

    def test_post_degradation_repaired_probe(self, data, third_party):
        import dataclasses

        from repro.core import DegradationPolicy

        enroll = data.trials(0, PIN, "one_handed", 8)[:6]
        a = P2Auth(
            pin=PIN,
            options=EnrollmentOptions(num_features=FEATURES),
            policy=DegradationPolicy(),
        )
        a.enroll(enroll, third_party)
        probe = data.trials(0, PIN, "one_handed", 8)[6]
        samples = probe.recording.samples.copy()
        samples[0, 40:50] = np.nan  # 0.1 s gap: inside the repair budget
        damaged = dataclasses.replace(
            probe, recording=probe.recording.with_samples(samples)
        )
        decision = a.authenticate(damaged)
        assert decision.degradation, "the repair ladder never ran"
        assert_decisions_identical(decision, authenticate_reference(a, damaged))


class TestWarmup:
    def test_idempotent_and_results_invisible(
        self, enroll_trials, third_party, probes
    ):
        warmed = P2Auth(
            pin=PIN, options=EnrollmentOptions(num_features=FEATURES)
        )
        warmed.enroll(enroll_trials, third_party)
        n = probes["legit"][0].recording.n_samples
        assert warmed.warmup((n,)) is True
        assert warmed.warmup((n,)) is False  # idempotence contract
        assert warmed.warmup((n + 1,)) is True  # a new length is new work
        cold = P2Auth(
            pin=PIN, options=EnrollmentOptions(num_features=FEATURES)
        )
        cold.enroll(enroll_trials, third_party)
        for trial in probes["legit"] + probes["attack"]:
            assert_decisions_identical(
                warmed.authenticate(trial),
                cold.authenticate(trial),
            )

    def test_warmup_before_enrollment_is_safe(self):
        assert P2Auth(pin=PIN).warmup() is False


# ---------------------------------------------------------------------------
# 7. Cross-user registry batch == per-user loop
# ---------------------------------------------------------------------------


class TestCrossUserBatchParity:
    @pytest.fixture(scope="class")
    def registry(self, data):
        from repro.data import ThirdPartyStore

        registry = ModelRegistry(
            options=EnrollmentOptions(num_features=FEATURES)
        )
        for user in (0, 1, 2):
            store = ThirdPartyStore(
                data, [u for u in range(5) if u != user], PIN
            )
            registry.enroll(
                f"user{user}",
                PIN,
                data.trials(user, PIN, "one_handed", 6),
                store.sample(12),
            )
        return registry

    def test_batch_equals_loop_across_users(self, registry, data):
        ids, trials, pins = [], [], []
        for user in (0, 1, 2):  # each user's own probe
            ids.append(f"user{user}")
            trials.append(data.trials(user, PIN, "one_handed", 7)[6])
            pins.append(None)
        # a cross-user attack, a wrong PIN, and a two-handed probe
        ids.append("user0")
        trials.append(data.emulating_trials(4, 0, PIN, 1)[0])
        pins.append(None)
        ids.append("user1")
        trials.append(data.trials(1, PIN, "one_handed", 8)[7])
        pins.append("0000")
        ids.append("user2")
        trials.append(data.trials(2, PIN, "double3", 1)[0])
        pins.append(None)

        batched = registry.authenticate_many(ids, trials, pins)
        looped = [
            registry.authenticate(u, t, claimed_pin=p)
            for u, t, p in zip(ids, trials, pins)
        ]
        assert len(batched) == len(looped)
        for b, l in zip(batched, looped):
            assert_decisions_identical(b, l)

    def test_length_mismatches_rejected(self, registry, data):
        from repro.errors import ConfigurationError, EnrollmentError

        probe = data.trials(0, PIN, "one_handed", 1)[0]
        with pytest.raises(ConfigurationError, match="user ids"):
            registry.authenticate_many(["user0", "user1"], [probe])
        with pytest.raises(EnrollmentError, match="PINs"):
            registry.authenticate_many(
                ["user0"], [probe], claimed_pins=[PIN, PIN]
            )
