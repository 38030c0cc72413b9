"""P2Auth core: the paper's primary contribution.

The workflow of Fig. 4, end to end: preprocessing (`pipeline`), input
case identification (`input_case`), privacy-boost waveform fusion
(`fusion`), PIN verification (`pin`), enrollment (`enrollment`, a
façade over the `models` / `negatives` / `enroll` split),
authentication through the staged engine (`stages`), the
:class:`P2Auth` facade (`authenticator`), the multi-user
:class:`ModelRegistry` (`registry`), and the attack models (`attacks`).
"""

from .attacks import EmulatingAttacker, RandomAttacker
from .authentication import AuthDecision
from .authenticator import P2Auth
from .backends import PackedArenaBackend, ShardedPackedBackend
from .degradation import DegradationEvent, DegradationPolicy, apply_policy
from .packing import (
    PackedAuthenticator,
    pack_authenticator,
    unpack_authenticator,
)
from .persistence import (
    load_authenticator,
    load_session,
    save_authenticator,
)
from .registry import (
    ModelRegistry,
    NpzDirectoryBackend,
    RegistryBackend,
    backend_exists,
)
from .session import (
    LockoutStatus,
    RetryPolicy,
    SessionEvent,
    SessionManager,
    SessionState,
)
from .stages import (
    AuthPipeline,
    ClassifyStage,
    DecideStage,
    FeatureBlock,
    Features,
    FeaturizeStage,
    Preprocessed,
    PreprocessStage,
    Recording,
    Repaired,
    RepairStage,
    Scores,
    SegmentStage,
    Segments,
    Stage,
)
from .streaming import (
    DetectedKeystroke,
    StreamingAuthenticator,
    StreamingKeystrokeDetector,
)
from .wear import WearStatus, detect_wear
from .enrollment import (
    EnrolledModels,
    EnrollmentOptions,
    NegativeBank,
    SharedNegativeSet,
    WaveformModel,
    build_negative_bank,
    check_enrollment_quality,
    enroll_models,
    extract_full_waveform,
    extract_fused_waveform,
    extract_segments,
)
from .fusion import fuse_waveforms
from .input_case import identify_input_case
from .pin import PinVerifier
from .pipeline import PreprocessedTrial, preprocess_trial, preprocess_trials

__all__ = [
    "AuthDecision",
    "AuthPipeline",
    "ClassifyStage",
    "DecideStage",
    "DegradationEvent",
    "DegradationPolicy",
    "DetectedKeystroke",
    "EmulatingAttacker",
    "EnrolledModels",
    "EnrollmentOptions",
    "FeatureBlock",
    "Features",
    "FeaturizeStage",
    "ModelRegistry",
    "NegativeBank",
    "NpzDirectoryBackend",
    "P2Auth",
    "PackedArenaBackend",
    "PackedAuthenticator",
    "ShardedPackedBackend",
    "Preprocessed",
    "PreprocessStage",
    "Recording",
    "RegistryBackend",
    "Repaired",
    "RepairStage",
    "LockoutStatus",
    "RetryPolicy",
    "Scores",
    "SegmentStage",
    "Segments",
    "SharedNegativeSet",
    "Stage",
    "PinVerifier",
    "PreprocessedTrial",
    "RandomAttacker",
    "SessionEvent",
    "SessionManager",
    "SessionState",
    "StreamingAuthenticator",
    "StreamingKeystrokeDetector",
    "WaveformModel",
    "WearStatus",
    "apply_policy",
    "backend_exists",
    "build_negative_bank",
    "check_enrollment_quality",
    "detect_wear",
    "enroll_models",
    "load_authenticator",
    "load_session",
    "pack_authenticator",
    "unpack_authenticator",
    "extract_full_waveform",
    "extract_fused_waveform",
    "extract_segments",
    "fuse_waveforms",
    "identify_input_case",
    "preprocess_trial",
    "preprocess_trials",
    "save_authenticator",
]
