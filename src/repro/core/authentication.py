"""Authentication phase: PIN check, model selection, results integration.

Implements the right-hand side of Fig. 4. After PIN verification (done
by the :class:`~repro.core.authenticator.P2Auth` facade), the input
case decides which model runs:

- **one-handed** — the full-waveform model (or the fused-waveform
  model when the privacy boost is enabled);
- **two-handed, 3 keystrokes detected** — per-key single-waveform
  models; legitimate if at least 2 of 3 pass;
- **two-handed, 2 keystrokes detected** — both must pass;
- **fewer than 2 detected** — rejected outright (Section IV-B.2.6);
- **NO-PIN mode** — per-key models on all detected keystrokes with
  the same 2-of-3 style integration, no PIN check.

The actual sequence lives in the staged engine
(:mod:`repro.core.stages`); this module keeps the historical import
surface — :class:`AuthDecision` and :func:`_integrate` — so existing
imports are untouched. Authenticate a preprocessed trial with
``AuthPipeline(models, no_pin_mode=...).run_preprocessed(...)``.
"""

from __future__ import annotations

from .stages import AuthDecision, _integrate

__all__ = ["AuthDecision", "_integrate"]
