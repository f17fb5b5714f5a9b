"""Angle-sensitivity figures of merit for the intensity-ratio protocol."""

from __future__ import annotations

import math
from typing import NamedTuple

_TWO_SQRT2 = 2.0 * math.sqrt(2.0)


class SensitivityInput(NamedTuple("SensitivityInput", [("phi", float), ("sigma_rel", float),
                                                       ("n", int), ("t", float)])):
    """Operating point: phi (rad), relative intensity error, repetitions, time (s)."""

    __slots__ = ()

    def __new__(cls, phi: float, sigma_rel: float, n: int = 1, t: float = 1.0):
        if not sigma_rel > 0:
            raise ValueError("sigma_rel must be positive")
        if n < 1:
            raise ValueError("repetition count must be at least 1")
        if not t > 0:
            raise ValueError("sensing time must be positive")
        return super().__new__(cls, phi, sigma_rel, n, t)


def eta(inp: SensitivityInput) -> float:
    """Angle sensitivity sin(2*phi)/(2*sqrt(2)) * sigma_rel * sqrt(n*t), rad/sqrt(Hz).

    Reported verbatim from the formula; its vanishing at phi = 0 and phi =
    pi/2 is a linearization artifact.
    """
    return math.sin(2.0 * inp.phi) / _TWO_SQRT2 * inp.sigma_rel * math.sqrt(inp.n * inp.t)


def eta_max(sigma_rel: float, n: int = 1, t: float = 1.0) -> float:
    """Best-case sensitivity, sin(2*phi) = 1."""
    return eta(SensitivityInput(phi=math.pi / 4.0, sigma_rel=sigma_rel, n=n, t=t))


def shot_noise_sigma_rel(rate_kcps: float, contrast: float, t_s: float) -> float:
    """Shot-noise model sigma_I/I = 1 / (contrast * sqrt(rate * 1000 * t))."""
    if not rate_kcps > 0:
        raise ValueError("count rate must be positive")
    if not 0.0 < contrast <= 1.0:
        raise ValueError("contrast must lie in (0, 1]")
    if not t_s > 0:
        raise ValueError("integration time must be positive")
    return 1.0 / (contrast * math.sqrt(rate_kcps * 1000.0 * t_s))
