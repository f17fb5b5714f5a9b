"""Angle-sensitivity figures of merit for the intensity-ratio protocol."""

from __future__ import annotations

import math
import numbers

_TWO_SQRT2 = 2.0 * math.sqrt(2.0)


def eta(phi: float, sigma_rel: float, n: int = 1, t: float = 1.0) -> float:
    """Angle sensitivity sin(2*phi)/(2*sqrt(2)) * sigma_rel * sqrt(n*t), rad/sqrt(Hz),
    at phi (rad), relative intensity error sigma_rel, n repetitions and time t (s).

    Reported verbatim from the formula; its vanishing at phi = 0 and phi =
    pi/2 is a linearization artifact.
    """
    if not math.isfinite(phi):
        raise ValueError("phi must be finite")
    if not 0.0 < sigma_rel < math.inf:  # NaN fails
        raise ValueError("sigma_rel must be finite and positive")
    if isinstance(n, bool) or not (isinstance(n, numbers.Integral) and n >= 1):
        raise ValueError("repetition count must be an integer >= 1")
    if not 0.0 < t < math.inf:
        raise ValueError("sensing time must be finite and positive")
    return math.sin(2.0 * phi) / _TWO_SQRT2 * sigma_rel * math.sqrt(n * t)


def eta_max(sigma_rel: float, n: int = 1, t: float = 1.0) -> float:
    """Best-case sensitivity, sin(2*phi) = 1."""
    return eta(math.pi / 4.0, sigma_rel, n, t)


def shot_noise_sigma_rel(rate_kcps: float, contrast: float, t_s: float) -> float:
    """Shot-noise model sigma_I/I = 1 / (contrast * sqrt(rate * 1000 * t))."""
    if not 0.0 < rate_kcps < math.inf:  # NaN fails
        raise ValueError("count rate must be finite and positive")
    if not 0.0 < contrast <= 1.0:
        raise ValueError("contrast must lie in (0, 1]")
    if not 0.0 < t_s < math.inf:
        raise ValueError("integration time must be finite and positive")
    return 1.0 / (contrast * math.sqrt(rate_kcps * 1000.0 * t_s))
