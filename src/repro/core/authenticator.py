"""The P2Auth facade: the public API of the reproduction.

:class:`P2Auth` ties the whole Fig. 4 workflow together — PIN storage
and verification, the preprocessing pipeline, enrollment, and
authentication with results integration. A typical session::

    auth = P2Auth(pin="1628")
    auth.enroll(my_trials, third_party_trials)
    decision = auth.authenticate(probe_trial)

Since the stage refactor, P2Auth holds no pipeline logic of its own: it
verifies the PIN and hands the probe to a cached
:class:`~repro.core.stages.AuthPipeline` — the same stage objects that
drive the session manager, the streaming front-end, and the evaluation
harness.
"""

from __future__ import annotations

import threading
from typing import List, Optional, Sequence

from ..config import PipelineConfig
from ..errors import EnrollmentError
from ..features import warm_engine
from ..types import PinEntryTrial
from .degradation import DegradationPolicy
from .enrollment import (
    EnrolledModels,
    EnrollmentOptions,
    NegativeBank,
    enroll_models,
)
from .pin import PinVerifier
from .stages import AuthDecision, AuthPipeline


class P2Auth:
    """Two-factor authenticator: PIN + keystroke-induced PPG.

    Args:
        pin: the user's PIN, or ``None`` for the NO-PIN mode in which
            the keystroke pattern alone authenticates (Section
            IV-B.2.6).
        pipeline_config: signal-processing constants (paper defaults).
        options: enrollment options (privacy boost, feature method...).
        salt: fixed PIN-hash salt for deterministic tests.
        policy: graceful-degradation policy applied to every probe
            trial before preprocessing (gap repair, channel fallback,
            quality gate — see :mod:`repro.core.degradation`).
            ``None`` disables the ladder: trials are scored as-is, the
            pre-policy behaviour.
    """

    def __init__(
        self,
        pin: Optional[str] = None,
        pipeline_config: Optional[PipelineConfig] = None,
        options: Optional[EnrollmentOptions] = None,
        salt: Optional[bytes] = None,
        policy: Optional[DegradationPolicy] = None,
    ) -> None:
        self._pin = PinVerifier(pin, salt=salt)
        self._config = (
            pipeline_config if pipeline_config is not None else PipelineConfig()
        )
        self._options = options if options is not None else EnrollmentOptions()
        self._policy = policy
        # Lazy engine builds are double-checked against this lock; the
        # unlocked fast-path reads in `pipeline` are the
        # deliberate (suppressed) half of that pattern.
        self._engine_lock = threading.Lock()
        self._models: Optional[EnrolledModels] = None  # guarded-by: _engine_lock
        self._stage_pipeline: Optional[AuthPipeline] = None  # guarded-by: _engine_lock
        # Move the one-off C-kernel compile/load off the request path:
        # constructing an authenticator is the natural "service starting"
        # moment, authenticate() is not.
        warm_engine()

    @property
    def no_pin_mode(self) -> bool:
        """Whether this authenticator runs without a fixed PIN."""
        return not self._pin.has_pin

    @property
    def enrolled(self) -> bool:
        """Whether :meth:`enroll` has completed."""
        # reprolint: disable-next=RL010 -- lone reference read; enroll publishes atomically
        return self._models is not None

    @property
    def models(self) -> EnrolledModels:
        """The trained models (raises before enrollment)."""
        # reprolint: disable-next=RL010 -- lone reference read; enroll publishes atomically
        models = self._models
        if models is None:
            raise EnrollmentError("no user is enrolled")
        return models

    @property
    def config(self) -> PipelineConfig:
        """The pipeline configuration in effect."""
        return self._config

    @property
    def options(self) -> EnrollmentOptions:
        """The enrollment options in effect."""
        return self._options

    @property
    def policy(self) -> Optional[DegradationPolicy]:
        """The degradation policy in effect (``None`` = disabled)."""
        return self._policy

    @property
    def pipeline(self) -> AuthPipeline:
        """The staged engine this authenticator runs (raises before
        enrollment). Rebuilt automatically when the models change
        (re-enrollment, archive load)."""
        # Double-checked lazy build: the unlocked read is safe because
        # assignment publishes a fully constructed pipeline atomically.
        # reprolint: disable-next=RL010 -- deliberate unlocked fast path
        models = self._models
        if models is None:
            raise EnrollmentError("enroll a user before authenticating")
        # reprolint: disable-next=RL010 -- deliberate unlocked fast path
        pipeline = self._stage_pipeline
        if pipeline is not None and pipeline.models is models:
            return pipeline
        with self._engine_lock:
            models = self._models
            if models is None:  # pragma: no cover - raced with un-enroll
                raise EnrollmentError("enroll a user before authenticating")
            if (
                self._stage_pipeline is None
                or self._stage_pipeline.models is not models
            ):
                self._stage_pipeline = AuthPipeline(
                    models,
                    config=self._config,
                    policy=self._policy,
                    no_pin_mode=self.no_pin_mode,
                )
            return self._stage_pipeline

    def warmup(self, signal_lengths: Sequence[int] = ()) -> bool:
        """Pay one-off costs now so the first authenticate call doesn't.

        Delegates to :meth:`AuthPipeline.warmup` once a user is
        enrolled (C-kernel plans, SG coefficients, optional detrend
        factorizations for the given signal lengths); before enrollment
        only the feature engine is warmed. Idempotent: a second call
        with the same arguments does no work and returns False.
        """
        # reprolint: disable-next=RL010 -- lone reference read; enroll publishes atomically
        if self._models is None:
            warm_engine()
            return False
        return self.pipeline.warmup(signal_lengths)

    def enroll(
        self,
        legit_trials: Sequence[PinEntryTrial],
        third_party_trials: Sequence[PinEntryTrial],
        shared_negatives: Optional[NegativeBank] = None,
    ) -> "P2Auth":
        """Enroll a user from their trials plus the third-party store.

        Args:
            legit_trials: the enrolling user's PIN entries.
            third_party_trials: negative samples from other people
                stored on the device (paper default: 100). Ignored when
                ``shared_negatives`` is given.
            shared_negatives: a pre-built
                :class:`~repro.core.enrollment.NegativeBank`; skips the
                store-side preprocessing and feature extraction.
        """
        models = enroll_models(
            legit_trials,
            third_party_trials,
            self._config,
            self._options,
            shared_negatives=shared_negatives,
        )
        with self._engine_lock:
            self._models = models
            self._stage_pipeline = None
        return self

    def _pin_verdict(
        self, trial: PinEntryTrial, claimed_pin: Optional[str]
    ) -> Optional[bool]:
        if self.no_pin_mode:
            return None
        entered = claimed_pin if claimed_pin is not None else trial.pin
        return self._pin.verify(entered)

    def authenticate(
        self,
        trial: PinEntryTrial,
        claimed_pin: Optional[str] = None,
        profile: bool = False,
    ) -> AuthDecision:
        """Authenticate one PIN-entry trial.

        Args:
            trial: the probe trial.
            claimed_pin: the PIN the typist entered; defaults to the
                digits recorded in the trial.
            profile: attach per-stage wall times to the decision
                (``AuthDecision.stage_timings``); observability only,
                the decision itself is unchanged.

        Returns:
            The authentication decision.

        Raises:
            QualityError: when a degradation policy is set and the
                trial is too damaged to score (gap beyond the repair
                budget, too few usable channels, failed quality gate).
        """
        return self.pipeline.run(
            [trial], [self._pin_verdict(trial, claimed_pin)], profile=profile
        )[0]

    def authenticate_many(
        self,
        trials: Sequence[PinEntryTrial],
        claimed_pins: Optional[Sequence[Optional[str]]] = None,
        profile: bool = False,
    ) -> List[AuthDecision]:
        """Authenticate a batch of probe trials in one pipeline pass.

        Decision-for-decision identical to calling :meth:`authenticate`
        in a loop, but the preprocessing runs batched (shared-shape
        trials detrend as one banded solve).

        Args:
            trials: the probe trials.
            claimed_pins: entered PINs, aligned with ``trials``; each
                ``None`` entry defaults to that trial's recorded digits.
            profile: attach per-stage wall times to every decision of
                the batch (shared timings; observability only).
        """
        if claimed_pins is None:
            claimed_pins = [None] * len(trials)
        if len(claimed_pins) != len(trials):
            raise EnrollmentError(
                f"got {len(trials)} trials but {len(claimed_pins)} PINs"
            )
        verdicts = [
            self._pin_verdict(trial, pin)
            for trial, pin in zip(trials, claimed_pins)
        ]
        return self.pipeline.run(trials, verdicts, profile=profile)
