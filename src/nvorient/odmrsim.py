"""Forward synthesis of CW-ODMR spectra and transverse-field angle sweeps.

Spectra are normalized fluorescence on a unit baseline; dips are Lorentzian
with contrasts set by the microwave coupling of each allowed transition.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import spinmodel
from .geometry import TransverseBasis, unit
from .spinmodel import MwFieldNV, SpinConstants, StaticFieldNV


class LineshapeParams(NamedTuple("LineshapeParams", [
        ("fwhm_mhz", float), ("contrast_ref", float), ("omega_ref_mhz", float),
        ("model", str)])):
    """Dip shape and contrast scaling.

    `model` is "linear" (contrast proportional to Rabi amplitude squared) or
    "saturating" (contrast rolls off once the Rabi amplitude passes
    `omega_ref_mhz`).  The defaults are stated assumptions, not measured
    values: fwhm 8 MHz keeps the two 10.2 mT dips (28 MHz apart) resolved.
    """

    __slots__ = ()

    def __new__(cls, fwhm_mhz: float = 8.0, contrast_ref: float = 0.02,
                omega_ref_mhz: float = 1.0, model: str = "linear"):
        if not 0.0 < fwhm_mhz < math.inf:  # NaN fails
            raise ValueError("fwhm must be finite and positive")
        if not 0.0 < contrast_ref <= 1.0:
            raise ValueError("contrast_ref must lie in (0, 1]")
        if not 0.0 < omega_ref_mhz < math.inf:
            raise ValueError("omega_ref must be finite and positive")
        if model not in ("linear", "saturating"):
            raise ValueError(f"unknown intensity model {model!r}")
        return super().__new__(cls, fwhm_mhz, contrast_ref, omega_ref_mhz, model)

    def contrast(self, omega_mhz):
        """Dip contrast of a Rabi amplitude (MHz); elementwise on arrays."""
        x = (omega_mhz / self.omega_ref_mhz) ** 2
        if self.model == "linear":
            return self.contrast_ref * x
        return self.contrast_ref * x / (x + 1.0)


def _is_count(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool) and v >= 0


class NoiseConfig(NamedTuple("NoiseConfig", [("rate_kcps", float), ("dwell_s", float),
                                             ("seed", int), ("key", tuple[int, ...])])):
    """Photon statistics: count rate, dwell per point, and the seed and spawn
    key of the Poisson draws.  The key names the whole stream: a run that
    draws several sweeps from one record appends each one's slot to it.  A
    noisy sweep carries the record it was drawn with, so its `draw` on the
    clean signals re-draws its data."""

    __slots__ = ()

    def __new__(cls, rate_kcps: float, dwell_s: float, seed: int, key: tuple[int, ...] = ()):
        if not rate_kcps > 0 or not dwell_s > 0:
            raise ValueError("count rate and dwell time must be positive")
        mean = rate_kcps * 1000.0 * dwell_s
        # numpy's Poisson sampler refuses means above about 9.2e18
        if not mean <= 1e18:
            raise ValueError("count rate and dwell time must be finite, with at most 1e18 "
                             "mean counts per point")
        if mean == 0.0:  # both are positive, so only underflow gives 0
            raise ValueError("count rate times dwell time underflows to 0 mean counts per point")
        if not _is_count(seed):
            raise ValueError("seed must be an integer >= 0")
        if not (isinstance(key, tuple) and all(map(_is_count, key))):
            raise ValueError("key must be a tuple of integers >= 0")
        return super().__new__(cls, rate_kcps, dwell_s, seed, key)

    @property
    def mean_counts(self) -> float:
        return self.rate_kcps * 1000.0 * self.dwell_s

    def point_sigma(self, signal: np.ndarray) -> np.ndarray:
        """Shot-noise sigma of each point of a normalized signal."""
        return np.sqrt(np.maximum(signal, 1e-12) / self.mean_counts)

    def draw(self, signal: np.ndarray) -> np.ndarray:
        """Poisson photon noise on a normalized signal, in one call: k / n with
        k ~ Poisson(signal * n), n = `mean_counts`, from the PCG64 generator of
        SeedSequence(seed, spawn_key=key).  Equal seeds and keys give
        bitwise-identical draws; distinct keys never share a stream."""
        n = self.mean_counts
        rng = np.random.default_rng(np.random.SeedSequence(self.seed, spawn_key=self.key))
        return rng.poisson(signal * n) / n


def _check_grid(frequencies) -> np.ndarray:
    f = np.asarray(frequencies, dtype=float)
    if f.ndim != 1 or f.size == 0:
        raise ValueError("frequency grid must be a nonempty 1-D array")
    # written so that NaN fails: it compares False
    if not ((f[1:] > f[:-1]).all() and math.isfinite(f[0]) and math.isfinite(f[-1])):
        raise ValueError("frequency grid must be finite and strictly ascending")
    return f


def _grid_size(start: float, stop: float, step: float) -> int:
    """Points of `default_grid`: floor((stop - start) / step) + 1, with 1e-9 of
    a step to spare, so a whole number of steps ends on stop and none passes it.
    Raises ValueError unless step is finite and > 0 and stop finite and >= start."""
    if not 0.0 < step < math.inf:
        raise ValueError("grid step must be finite and positive")
    steps = (stop - start) / step
    # written so that NaN fails: it compares False
    if not 0.0 <= steps < math.inf:
        raise ValueError("grid start and stop must be finite, with stop >= start")
    return math.floor(steps + 1e-9) + 1


def default_grid(start_mhz: float, stop_mhz: float, step_mhz: float) -> np.ndarray:
    """start_mhz, start_mhz + step_mhz, ... up to stop_mhz (see `_grid_size`)."""
    n = _grid_size(start_mhz, stop_mhz, step_mhz)
    return start_mhz + step_mhz * np.arange(n, dtype=float)


def lorentzian(f: np.ndarray, center_mhz: float, fwhm_mhz: float) -> np.ndarray:
    """Unit-peak Lorentzian."""
    h = 0.5 * fwhm_mhz
    return h * h / ((f - center_mhz) ** 2 + h * h)


def _synthesize(consts: SpinConstants, b_mt: float, theta: float, mw_nv, amplitude_mt: float,
                shape: LineshapeParams, grid: np.ndarray,
                psis: np.ndarray) -> tuple[spinmodel.EigenSystem, np.ndarray]:
    """The eigensystem at (theta, azimuth 0) and signals (n_psi, n_f), row i
    the spectrum at static azimuth psis[i]: H(psi) = U H(0) U^dagger with
    U = exp(-i psi Sz), so row i sees the NV-frame unit microwave `mw_nv`
    rotated by -psis[i] about the NV axis.  Dips sit at the two
    |0>-connected transitions; the caller checks the grid."""
    eig = spinmodel.eigensystem(spinmodel.ground_hamiltonian(
        consts, StaticFieldNV(b_mt, theta, 0.0)))
    x, y, z = mw_nv
    c, s = np.cos(psis), np.sin(psis)
    directions = np.column_stack([c * x + s * y, c * y - s * x, np.full(psis.shape, z)])
    omegas = (consts.gamma_e * amplitude_mt
              * np.abs(directions @ spinmodel.zero_transition_elements(eig)))
    contrasts = shape.contrast(omegas)
    absorb = (contrasts[:, :1] * lorentzian(grid, eig.f_0m, shape.fwhm_mhz)
              + contrasts[:, 1:] * lorentzian(grid, eig.f_0p, shape.fwhm_mhz))
    peak = float(np.max(absorb, initial=0.0))
    if peak > 1.0:
        raise ValueError(f"summed dip contrast reaches {peak:.3f} > 1; signal would go negative")
    return eig, 1.0 - absorb


def simulate_spectrum(consts: SpinConstants, static: StaticFieldNV, mw: MwFieldNV,
                      shape: LineshapeParams, grid: np.ndarray) -> np.ndarray:
    """Noiseless two-dip CW-ODMR signal on a unit baseline at each point of
    `grid`, which is checked first: the psi = phi row of the synthesis at
    the static field's theta.  A noisy spectrum is `noise.draw(signal)`."""
    grid = _check_grid(grid)
    _, signals = _synthesize(consts, static.b_mt, static.theta, mw.direction(),
                             mw.amplitude_mt, shape, grid, np.array([static.phi]))
    return signals[0]


class SweepSeries(NamedTuple("SweepSeries", [
        ("psis", np.ndarray), ("frequencies", np.ndarray), ("signals", np.ndarray),
        ("centers_mhz", tuple[float, float]), ("counts_meta", NoiseConfig | None)])):
    """Spectra recorded while rotating the static field in the transverse plane.

    Row i of `signals` (n_psi, n_f) is the spectrum at `psis[i]` on the one
    `frequencies` grid; `centers_mhz` is (f_0m, f_0p), the same at every psi.
    Noisy sweeps carry their photon statistics.
    """

    __slots__ = ()

    def __new__(cls, psis: np.ndarray, frequencies: np.ndarray, signals: np.ndarray,
                centers_mhz: tuple[float, float], counts_meta: NoiseConfig | None = None):
        psis = np.asarray(psis, dtype=float)
        frequencies = _check_grid(frequencies)
        signals = np.asarray(signals, dtype=float)
        if psis.ndim != 1 or signals.shape != (psis.size, frequencies.size):
            raise ValueError("sweep signals must have one row per psi and one column "
                             "per grid frequency")
        return super().__new__(cls, psis, frequencies, signals, centers_mhz, counts_meta)

    def point_sigmas(self) -> np.ndarray | None:
        """Per-point shot-noise sigmas shaped like `signals`, if known."""
        return None if self.counts_meta is None else self.counts_meta.point_sigma(self.signals)


def simulate_phi_sweep(
    consts: SpinConstants,
    basis: TransverseBasis,
    b_static_mt: float,
    mw_lab: np.ndarray,
    mw_amplitude_mt: float,
    shape: LineshapeParams,
    grid: np.ndarray,
    psis: np.ndarray,
) -> SweepSeries:
    """Sweep the static field direction over psi with theta = pi/2 throughout.

    The synthesis at theta = pi/2, with the microwave's components along
    e1, e2 and nv_z of `basis`.  At theta = pi/2 the dip centers do not
    depend on psi, so one pair (f_0m, f_0p) serves the sweep.
    """
    psis = np.asarray(psis, dtype=float)
    if psis.size == 0:
        raise ValueError("psi list is empty")
    if not b_static_mt > 0:
        raise ValueError("static field must be positive for a sweep")
    m = unit(mw_lab)
    if not 0.0 <= mw_amplitude_mt < math.inf:  # NaN fails
        raise ValueError("microwave amplitude must be finite and nonnegative")
    grid = np.asarray(grid, dtype=float)
    eig, signals = _synthesize(consts, b_static_mt, math.pi / 2.0,
                               (m @ basis.e1, m @ basis.e2, m @ basis.nv_z),
                               mw_amplitude_mt, shape, grid, psis)
    return SweepSeries(psis=psis, frequencies=grid, signals=signals,
                       centers_mhz=(eig.f_0m, eig.f_0p))


def noisy_copy_with_subseed(sweep: SweepSeries, noise: NoiseConfig) -> SweepSeries:
    """Shot noise on a whole sweep: one draw of `noise` on its (n_psi, n_f)
    signals, recorded as `noise`, which re-draws the copy's signals.

    The copy shares the sweep's psis and grid, which the sweep has checked,
    so nothing is checked again: `_replace` runs no checks.
    """
    return sweep._replace(signals=noise.draw(sweep.signals), counts_meta=noise)
