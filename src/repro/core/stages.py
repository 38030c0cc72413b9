"""The staged authentication engine: one execution path for everything.

The Fig. 4 authentication sequence, decomposed into typed stages with
explicit artifacts::

    Recording → Repaired → Preprocessed → Segments → Features → Scores
              → AuthDecision

Every stage is a small object satisfying the :class:`Stage` protocol
(``run(items) -> outputs``); batch-first signatures keep the vectorized
preprocessing (:func:`~repro.core.pipeline.preprocess_trials`) and the
multi-RHS classifier paths hot. :class:`AuthPipeline` composes the six
stages and is the *only* implementation of the sequence — the
:class:`~repro.core.authenticator.P2Auth` façade, the session manager,
the streaming front-end, and the evaluation harness all run through it,
so the pipeline cannot drift between entry points.

Each stage wraps the pre-existing functions (``apply_policy``,
``preprocess_trials``, segmentation/fusion, ``WaveformModel._featurize``,
score integration) without reimplementing them, which is what keeps the
staged path bit-identical to the historical monolithic one (asserted by
``tests/test_stage_parity.py``). The fast kernels live *inside* those
functions — the selection-network median, the cached Savitzky-Golay FIR
calibration, the direct ``pbtrs`` detrend solve, and the pre-marshalled
MiniRocket C-kernel plan — so a single probe and a batch take the same
path; :meth:`AuthPipeline.warmup` moves their one-off costs out of the
request.
"""

from __future__ import annotations

from typing import (
    List,
    Optional,
    Protocol,
    Sequence,
    Set,
    Tuple,
    TypeVar,
    runtime_checkable,
)

import numpy as np

from ..concurrency import checked_rlock
from ..config import PipelineConfig
from ..errors import AuthenticationError, NotFittedError
from ..features import warm_engine
from ..signal.detrend import warm_detrend_factor
from ..signal.filters import warm_savgol
from ..types import InputCase, PinEntryTrial
from .artifacts import (
    AuthDecision,
    FeatureBlock,
    Features,
    Preprocessed,
    Recording,
    Repaired,
    Scores,
    Segments,
    _integrate,
)
from .degradation import DegradationPolicy, apply_policy
from .input_case import identify_input_case
from .models import (
    EnrolledModels,
    WaveformModel,
    extract_full_waveform,
    extract_fused_waveform,
    extract_segments,
)
from .pipeline import PreprocessedTrial, preprocess_trials

In = TypeVar("In", contravariant=True)
Out = TypeVar("Out", covariant=True)


@runtime_checkable
class Stage(Protocol[In, Out]):
    """One step of the authentication pipeline.

    A stage maps a batch of input artifacts to a batch of output
    artifacts, one output per input, in order. Batch signatures are
    deliberate: stages that can vectorize across trials (preprocessing,
    classification) do, and per-item stages just loop.
    """

    name: str

    def run(self, items: Sequence[In]) -> List[Out]:
        """Transform a batch of artifacts."""
        ...


# ---------------------------------------------------------------------------
# Stages
# ---------------------------------------------------------------------------


class RepairStage:
    """``Recording → Repaired``: the graceful-degradation ladder."""

    name = "repair"

    def __init__(
        self, config: PipelineConfig, policy: Optional[DegradationPolicy]
    ) -> None:
        self._config = config
        self._policy = policy

    def run(self, items: Sequence[Recording]) -> List[Repaired]:
        if self._policy is None:
            return [
                Repaired(trial=r.trial, pin_ok=r.pin_ok) for r in items
            ]
        out = []
        for r in items:
            trial, events = apply_policy(r.trial, self._config, self._policy)
            out.append(
                Repaired(trial=trial, pin_ok=r.pin_ok, degradation=events)
            )
        return out


class PreprocessStage:
    """``Repaired → Preprocessed``: batched Section IV-A pipeline."""

    name = "preprocess"

    def __init__(self, config: PipelineConfig) -> None:
        self._config = config

    def run(self, items: Sequence[Repaired]) -> List[Preprocessed]:
        preprocessed = preprocess_trials(
            [r.trial for r in items], self._config
        )
        return [
            Preprocessed(
                trial=p, pin_ok=r.pin_ok, degradation=r.degradation
            )
            for r, p in zip(items, preprocessed)
        ]


class SegmentStage:
    """``Preprocessed → Segments``: input-case routing + waveform cuts.

    The model-presence checks run here, before any waveform is
    extracted, preserving the historical exception order: a one-handed
    probe against a user with no full (or fused) model raises without
    touching the signal.
    """

    name = "segment"

    def __init__(self, models: EnrolledModels, no_pin_mode: bool) -> None:
        self._models = models
        self._no_pin_mode = no_pin_mode

    def run(self, items: Sequence[Preprocessed]) -> List[Segments]:
        return [self._route(item) for item in items]

    def _route(self, item: Preprocessed) -> Segments:
        models = self._models
        case = identify_input_case(item.trial)
        if case is InputCase.REJECT:
            return Segments(
                case=case,
                route="reject",
                detected=item.trial.detected_count,
                pin_ok=item.pin_ok,
                degradation=item.degradation,
            )
        if self._no_pin_mode or case is not InputCase.ONE_HANDED:
            return Segments(
                case=case,
                route="keystrokes",
                detected=item.trial.detected_count,
                segments=tuple(extract_segments(item.trial, models.config)),
                pin_ok=item.pin_ok,
                degradation=item.degradation,
            )
        options = models.options
        if options.privacy_boost:
            if models.fused_model is None:
                raise AuthenticationError(
                    "privacy boost enabled but no fused model"
                )
            waveform = extract_fused_waveform(item.trial, models.config)
            route, label = "fused", "fused waveform"
        else:
            if models.full_model is None:
                raise AuthenticationError("no full-waveform model enrolled")
            waveform = extract_full_waveform(
                item.trial, options.full_window, options.full_margin
            )
            route, label = "full", "full waveform"
        return Segments(
            case=case,
            route=route,
            detected=item.trial.detected_count,
            waveform=waveform,
            label=label,
            pin_ok=item.pin_ok,
            degradation=item.degradation,
        )


def _featurize_one(model: WaveformModel, x: np.ndarray) -> np.ndarray:
    """The pre-classifier half of ``WaveformModel.decision_function``."""
    if not model._fitted:
        raise NotFittedError("WaveformModel.fit has not been called")
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 2:
        x = x[np.newaxis]
    return model._featurize(x, fit=False)


class FeaturizeStage:
    """``Segments → Features``: run each model's feature extractor."""

    name = "featurize"

    def __init__(self, models: EnrolledModels) -> None:
        self._models = models

    def run(self, items: Sequence[Segments]) -> List[Features]:
        return [self._featurize(item) for item in items]

    def _featurize(self, item: Segments) -> Features:
        models = self._models
        blocks: List[FeatureBlock] = []
        if item.route == "keystrokes":
            for segment in item.segments:
                model = models.key_models.get(segment.key)
                if model is None:
                    blocks.append(FeatureBlock(segment.key, None, None))
                    continue
                blocks.append(
                    FeatureBlock(
                        segment.key,
                        model,
                        _featurize_one(model, segment.samples),
                    )
                )
        elif item.route in ("full", "fused"):
            model = (
                models.fused_model
                if item.route == "fused"
                else models.full_model
            )
            assert model is not None and item.waveform is not None
            blocks.append(
                FeatureBlock(None, model, _featurize_one(model, item.waveform))
            )
        return Features(
            case=item.case,
            route=item.route,
            detected=item.detected,
            blocks=tuple(blocks),
            label=item.label,
            pin_ok=item.pin_ok,
            degradation=item.degradation,
        )


class ClassifyStage:
    """``Features → Scores``: classifier calls + per-block verdicts."""

    name = "classify"

    def run(self, items: Sequence[Features]) -> List[Scores]:
        return [self._score(item) for item in items]

    @staticmethod
    def _score(item: Features) -> Scores:
        keys: List[str] = []
        scores: List[float] = []
        passes: List[bool] = []
        for block in item.blocks:
            if block.key is not None:
                keys.append(block.key)
            if block.model is None or block.features is None:
                # A keystroke on a key never enrolled cannot be
                # verified — it counts as a failed check, never as a
                # free pass.
                scores.append(float("-inf"))
                passes.append(False)
                continue
            score = float(
                np.asarray(
                    block.model._classifier.decision_function(block.features)
                )[0]
            )
            scores.append(score)
            passes.append(score > 0.0)
        return Scores(
            case=item.case,
            route=item.route,
            detected=item.detected,
            keys=tuple(keys),
            scores=tuple(scores),
            passes=tuple(passes),
            label=item.label,
            pin_ok=item.pin_ok,
            degradation=item.degradation,
        )


class DecideStage:
    """``Scores → AuthDecision``: results integration (Section IV-B.3)."""

    name = "decide"

    def run(self, items: Sequence[Scores]) -> List[AuthDecision]:
        return [self._decide(item) for item in items]

    @staticmethod
    def _decide(item: Scores) -> AuthDecision:
        if item.route == "reject":
            return AuthDecision(
                accepted=False,
                reason=(
                    f"only {item.detected} keystroke(s) detected; "
                    "at least two are required"
                ),
                input_case=item.case,
                pin_ok=item.pin_ok,
                degradation=item.degradation,
            )
        if item.route == "keystrokes":
            accepted = _integrate(item.passes)
            return AuthDecision(
                accepted=accepted,
                reason=(
                    f"{sum(item.passes)}/{len(item.passes)} keystroke "
                    f"waveforms legal ({item.case.value})"
                ),
                input_case=item.case,
                pin_ok=item.pin_ok,
                scores=item.scores,
                keys_checked=item.keys,
                passes=item.passes,
                degradation=item.degradation,
            )
        score = item.scores[0]
        accepted = score > 0.0
        return AuthDecision(
            accepted=accepted,
            reason=(
                f"{item.label} score {score:+.3f} "
                f"({'legal' if accepted else 'illegal'})"
            ),
            input_case=item.case,
            pin_ok=item.pin_ok,
            scores=(score,),
            degradation=item.degradation,
        )


# ---------------------------------------------------------------------------
# The composed pipeline
# ---------------------------------------------------------------------------


class AuthPipeline:
    """The six stages composed into the one authentication path.

    Args:
        models: the enrolled user's models.
        config: pipeline constants for repair + preprocessing; defaults
            to ``models.config`` (they differ only if an authenticator
            was constructed with a different config than it enrolled
            with, in which case the façade's config wins — the
            historical behaviour).
        policy: graceful-degradation policy (``None`` disables it).
        no_pin_mode: authenticate by keystroke pattern alone.

    Thread-safe: stages allocate per call and share only read-only
    model state, so concurrent ``run`` calls on one instance are
    decision-identical to serial runs (pinned by
    ``tests/concurrency/test_race_stress.py``). The warmup flags are
    the only mutable state and sit behind an internal lock.
    """

    def __init__(
        self,
        models: EnrolledModels,
        config: Optional[PipelineConfig] = None,
        policy: Optional[DegradationPolicy] = None,
        no_pin_mode: bool = False,
    ) -> None:
        self.models = models
        self.config = config if config is not None else models.config
        self.policy = policy
        self.no_pin_mode = no_pin_mode
        self._warm_lock = checked_rlock("AuthPipeline._warm_lock")
        self._warmed = False  # guarded-by: _warm_lock
        self._warmed_lengths: Set[int] = set()  # guarded-by: _warm_lock
        self.repair = RepairStage(self.config, policy)
        self.preprocess = PreprocessStage(self.config)
        self.segment = SegmentStage(models, no_pin_mode)
        self.featurize = FeaturizeStage(models)
        self.classify = ClassifyStage()
        self.decide = DecideStage()

    def warmup(self, signal_lengths: Sequence[int] = ()) -> bool:
        """Pay every one-off cost ahead of the first ``run`` call.

        Compiles/loads the MiniRocket C kernel, warms each enrolled
        extractor (:meth:`MiniRocket.warm` marshals its transform plan
        with one throwaway transform, once per extractor instance, so
        extractors shared with an already-warm user cost nothing),
        primes the Savitzky-Golay coefficient cache, and — for each
        length in ``signal_lengths`` — the banded-Cholesky detrend
        factorization. Nothing per-thread or per-request is allocated.
        Results are unaffected: a warmed and an unwarmed pipeline return
        bit-identical decisions.

        Args:
            signal_lengths: expected probe lengths whose detrend
                factorizations should be primed (the factor cache keys
                on length, which is unknown until a probe arrives).

        Returns:
            True when any cold work was done; False when everything was
            already warm (the idempotence contract — a second call with
            the same arguments is a no-op). A *concurrent* caller may
            see False while another thread's warm work is still in
            flight; results are unaffected either way, and the registry
            publishes instances only after their warmup returned.
        """
        # Claim outstanding work under the lock, run it outside: the
        # underlying warms are idempotent process-wide caches, so a
        # racing claimer doing duplicate cache fills would be benign —
        # but holding the lock across a kernel compile (RL012) would
        # stall every concurrent warmup behind one slow build.
        with self._warm_lock:
            need_engine = not self._warmed
            self._warmed = True
            new_lengths: List[int] = []
            for length in signal_lengths:
                length = int(length)
                if length not in self._warmed_lengths:
                    self._warmed_lengths.add(length)
                    new_lengths.append(length)
        if need_engine:
            warm_engine()
            warm_savgol(self.config.sg_window, self.config.sg_polyorder)
            models = self.models
            for model in (
                models.full_model,
                models.fused_model,
                *models.key_models.values(),
            ):
                rocket = getattr(model, "_rocket", None)
                if rocket is not None and rocket._fitted:
                    rocket.warm()
        for length in new_lengths:
            warm_detrend_factor(length, self.config.detrend_lambda)
        return need_engine or bool(new_lengths)

    @property
    def stages(self) -> Tuple[Stage, ...]:
        """The stage chain, in execution order."""
        return (
            self.repair,
            self.preprocess,
            self.segment,
            self.featurize,
            self.classify,
            self.decide,
        )

    @staticmethod
    def _execute(
        items: Sequence, stages: Tuple[Stage, ...], profile: bool
    ) -> List[AuthDecision]:
        """Run a stage chain; optionally attach per-stage wall times.

        Profiling wraps each stage's batch call in ``profile_call`` and
        never touches the artifacts themselves, so the numeric path is
        identical with and without it — only the observability field
        ``AuthDecision.stage_timings`` differs.
        """
        if not profile:
            for stage in stages:
                items = stage.run(items)
            return list(items)
        from dataclasses import replace

        from ..eval.profiling import profile_call

        timings: List[Tuple[str, float]] = []
        for stage in stages:
            run = profile_call(lambda s=stage, batch=items: s.run(batch))
            items = run.result
            timings.append((stage.name, run.seconds))
        frozen = tuple(timings)
        return [replace(d, stage_timings=frozen) for d in items]

    def run(
        self,
        trials: Sequence[PinEntryTrial],
        pin_oks: Optional[Sequence[Optional[bool]]] = None,
        profile: bool = False,
    ) -> List[AuthDecision]:
        """Authenticate a batch of raw probe trials.

        Wrong-PIN probes short-circuit before any signal processing —
        they never reach the repair ladder, so a damaged recording with
        a wrong PIN is rejected for the PIN, not refused for quality.

        Args:
            trials: the probe trials.
            pin_oks: per-trial PIN verdicts (``None`` entries only in
                NO-PIN mode).
            profile: attach per-stage wall times to the decisions (see
                :meth:`_execute`); short-circuited wrong-PIN decisions
                carry no timings because no stage ran for them.
        """
        if pin_oks is None:
            pin_oks = [None] * len(trials)
        if len(pin_oks) != len(trials):
            raise AuthenticationError(
                f"got {len(trials)} trials but {len(pin_oks)} PIN verdicts"
            )
        results: List[Optional[AuthDecision]] = [None] * len(trials)
        live: List[Recording] = []
        live_at: List[int] = []
        for i, (trial, pin_ok) in enumerate(zip(trials, pin_oks)):
            if not self.no_pin_mode:
                if pin_ok is None:
                    raise AuthenticationError(
                        "pin_ok is required outside NO-PIN mode"
                    )
                if not pin_ok:
                    results[i] = AuthDecision(
                        accepted=False,
                        reason="PIN verification failed",
                        pin_ok=False,
                    )
                    continue
            live.append(Recording(trial=trial, pin_ok=pin_ok))
            live_at.append(i)
        if live:
            decisions = self._execute(live, self.stages, profile)
            for i, decision in zip(live_at, decisions):
                results[i] = decision
        return [r for r in results if r is not None]

    def run_preprocessed(
        self, items: Sequence[Preprocessed], profile: bool = False
    ) -> List[AuthDecision]:
        """Authenticate already-preprocessed probes (eval hot path)."""
        results: List[Optional[AuthDecision]] = [None] * len(items)
        live: List[Preprocessed] = []
        live_at: List[int] = []
        for i, item in enumerate(items):
            if not self.no_pin_mode:
                if item.pin_ok is None:
                    raise AuthenticationError(
                        "pin_ok is required outside NO-PIN mode"
                    )
                if not item.pin_ok:
                    results[i] = AuthDecision(
                        accepted=False,
                        reason="PIN verification failed",
                        pin_ok=False,
                    )
                    continue
            live.append(item)
            live_at.append(i)
        if live:
            stages = (self.segment, self.featurize, self.classify, self.decide)
            decisions = self._execute(live, stages, profile)
            for i, decision in zip(live_at, decisions):
                results[i] = decision
        return [r for r in results if r is not None]
