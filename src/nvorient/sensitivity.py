"""Angle-sensitivity figures of merit for the intensity-ratio protocol."""

from __future__ import annotations

import math
import numbers

_TWO_SQRT2 = 2.0 * math.sqrt(2.0)


def eta(phi: float, sigma_rel: float, n: int = 1, t: float = 1.0) -> float:
    """Angle sensitivity sin(2*phi)/(2*sqrt(2)) * sigma_rel * sqrt(n*t), rad/sqrt(Hz),
    at phi (rad), relative intensity error sigma_rel, n repetitions and time t (s).

    Reported verbatim from the formula; its vanishing at phi = 0 and phi =
    pi/2 is a linearization artifact.  Raises ValueError for an unusable
    input, and unless the figure at sin(2*phi) = 1, which bounds the others
    since rounding is monotone, is finite and positive.
    """
    if not math.isfinite(phi):
        raise ValueError("phi must be finite")
    if not 0.0 < sigma_rel < math.inf:  # NaN fails
        raise ValueError("sigma_rel must be finite and positive")
    if isinstance(n, bool) or not (isinstance(n, numbers.Integral) and n >= 1):
        raise ValueError("repetition count must be an integer >= 1")
    if not 0.0 < t < math.inf:
        raise ValueError("sensing time must be finite and positive")
    try:
        root = math.sqrt(n * t)
    except OverflowError:  # an integer n too large for a float
        root = math.inf
    if not 0.0 < 1.0 / _TWO_SQRT2 * sigma_rel * root < math.inf:
        raise ValueError("sigma_rel * sqrt(n * t) lies outside the float range")
    return math.sin(2.0 * phi) / _TWO_SQRT2 * sigma_rel * root


def eta_max(sigma_rel: float, n: int = 1, t: float = 1.0) -> float:
    """Best-case sensitivity, sin(2*phi) = 1."""
    return eta(math.pi / 4.0, sigma_rel, n, t)


def shot_noise_sigma_rel(rate_kcps: float, contrast: float, t_s: float) -> float:
    """Shot-noise model sigma_I/I = 1 / (contrast * sqrt(rate * 1000 * t)); raises
    ValueError for an unusable input, and unless the figure is finite and positive."""
    if not 0.0 < rate_kcps < math.inf:  # NaN fails
        raise ValueError("count rate must be finite and positive")
    if not 0.0 < contrast <= 1.0:
        raise ValueError("contrast must lie in (0, 1]")
    if not 0.0 < t_s < math.inf:
        raise ValueError("integration time must be finite and positive")
    denominator = contrast * math.sqrt(rate_kcps * 1000.0 * t_s)
    sigma_rel = 1.0 / denominator if denominator > 0.0 else math.inf
    if not 0.0 < sigma_rel < math.inf:
        raise ValueError("rate, contrast and time give a sigma_rel outside the float range")
    return sigma_rel
