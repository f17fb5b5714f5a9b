"""Forward synthesis of CW-ODMR spectra and transverse-field angle sweeps.

Spectra are normalized fluorescence on a unit baseline; dips are Lorentzian
with contrasts set by the microwave coupling of each allowed transition.
"""

from __future__ import annotations

import csv
import math
from typing import NamedTuple

import numpy as np

from . import spinmodel
from .errors import ContrastOverflowError
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
        if not fwhm_mhz > 0:
            raise ValueError("fwhm must be positive")
        if not 0.0 < contrast_ref <= 1.0:
            raise ValueError("contrast_ref must lie in (0, 1]")
        if not omega_ref_mhz > 0:
            raise ValueError("omega_ref must be positive")
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
    key of the Poisson draws.  A noisy spectrum or sweep carries the record
    it was drawn with, so its `draw` on the clean signal re-draws its data."""

    __slots__ = ()

    def __new__(cls, rate_kcps: float, dwell_s: float, seed: int, key: tuple[int, ...] = ()):
        if not rate_kcps > 0 or not dwell_s > 0:
            raise ValueError("count rate and dwell time must be positive")
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

    def draw(self, signal: np.ndarray, *key: int) -> np.ndarray:
        """Poisson photon noise on a normalized signal, in one call: k / n with
        k ~ Poisson(signal * n), n = `mean_counts`, from the PCG64 generator of
        SeedSequence(seed, spawn_key=self.key + key).  Equal seeds and keys
        give bitwise-identical draws; distinct keys never share a stream."""
        n = self.mean_counts
        rng = np.random.default_rng(np.random.SeedSequence(self.seed, spawn_key=self.key + key))
        return rng.poisson(signal * n) / n


def _check_grid(frequencies) -> np.ndarray:
    f = np.asarray(frequencies, dtype=float)
    if f.ndim != 1 or f.size == 0:
        raise ValueError("frequency grid must be a nonempty 1-D array")
    # written so that NaN fails: it compares False
    if not ((f[1:] > f[:-1]).all() and math.isfinite(f[0]) and math.isfinite(f[-1])):
        raise ValueError("frequency grid must be finite and strictly ascending")
    return f


class OdmrSpectrum(NamedTuple("OdmrSpectrum", [
        ("frequencies", np.ndarray), ("signal", np.ndarray),
        ("counts_meta", NoiseConfig | None)])):
    """Frequency grid (MHz, strictly ascending) and normalized fluorescence."""

    __slots__ = ()

    def __new__(cls, frequencies: np.ndarray, signal: np.ndarray,
                counts_meta: NoiseConfig | None = None):
        frequencies = _check_grid(frequencies)
        signal = np.asarray(signal, dtype=float)
        if frequencies.shape != signal.shape:
            raise ValueError("grid and signal lengths differ")
        return super().__new__(cls, frequencies, signal, counts_meta)

    def point_sigma(self) -> np.ndarray | None:
        """Per-point shot-noise sigma of the normalized signal, if known."""
        return None if self.counts_meta is None else self.counts_meta.point_sigma(self.signal)


def default_grid(start_mhz: float = 2850.0, stop_mhz: float = 2950.0,
                 step_mhz: float = 0.5) -> np.ndarray:
    n = int(round((stop_mhz - start_mhz) / step_mhz))
    return start_mhz + step_mhz * np.arange(n + 1)


def lorentzian(f: np.ndarray, center_mhz: float, fwhm_mhz: float) -> np.ndarray:
    """Unit-peak Lorentzian."""
    h = 0.5 * fwhm_mhz
    return h * h / ((f - center_mhz) ** 2 + h * h)


def simulate_spectrum(
    consts: SpinConstants,
    static: StaticFieldNV,
    mw: MwFieldNV,
    shape: LineshapeParams,
    grid: np.ndarray,
) -> OdmrSpectrum:
    """Noiseless two-dip CW-ODMR spectrum on a unit baseline."""
    grid = np.asarray(grid, dtype=float)
    eig = spinmodel.eigensystem(spinmodel.ground_hamiltonian(consts, static))
    signals = _dip_signals(eig, consts, mw.amplitude_mt, mw.direction()[None], shape, grid)
    return OdmrSpectrum(frequencies=grid, signal=signals[0])


def _dip_signals(eig: spinmodel.EigenSystem, consts: SpinConstants, amplitude_mt: float,
                 directions: np.ndarray, shape: LineshapeParams,
                 grid: np.ndarray) -> np.ndarray:
    """Signals (n, n_f), one per microwave direction (rows of `directions`,
    unit vectors in the NV frame): dips at the two |0>-connected transitions
    of `eig`, depths set by each direction's coupling.  The grid is checked
    by the spectrum or sweep that receives the signals."""
    omegas = (consts.gamma_e * amplitude_mt
              * np.abs(directions @ spinmodel.zero_transition_elements(eig)))
    contrasts = shape.contrast(omegas)
    absorb = (contrasts[:, :1] * lorentzian(grid, eig.f_0m, shape.fwhm_mhz)
              + contrasts[:, 1:] * lorentzian(grid, eig.f_0p, shape.fwhm_mhz))
    peak = float(np.max(absorb, initial=0.0))
    if peak > 1.0:
        raise ContrastOverflowError(
            f"summed dip contrast reaches {peak:.3f} > 1; signal would go negative"
        )
    return 1.0 - absorb


def mw_field_in_nv_frame(basis: TransverseBasis, mw_lab: np.ndarray,
                         amplitude_mt: float) -> MwFieldNV:
    """Express a lab-frame microwave direction in NV-frame angles."""
    m = unit(mw_lab)
    mz = max(-1.0, min(1.0, float(m @ basis.nv_z)))
    zeta = math.acos(mz)
    az = math.atan2(float(m @ basis.e2), float(m @ basis.e1))
    return MwFieldNV(amplitude_mt=amplitude_mt, zeta=zeta, transverse_azimuth=az)


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

    H(psi) = U H(0) U^dagger with U = exp(-i psi Sz), so one eigensolve at
    psi = 0 serves the sweep, seen by the microwave rotated by -psi.  At
    theta = pi/2 the dip centers do not depend on psi either, so the sweep is
    two Lorentzians weighted by an (n_psi, 2) array of contrasts.
    """
    psis = np.asarray(psis, dtype=float)
    if psis.size == 0:
        raise ValueError("psi list is empty")
    if not b_static_mt > 0:
        raise ValueError("static field must be positive for a sweep")
    grid = np.asarray(grid, dtype=float)
    mw = mw_field_in_nv_frame(basis, mw_lab, mw_amplitude_mt)
    eig = spinmodel.eigensystem(spinmodel.ground_hamiltonian(
        consts, StaticFieldNV(b_static_mt, math.pi / 2.0, 0.0)))
    azimuths = mw.transverse_azimuth - psis
    sin_zeta = math.sin(mw.zeta)
    directions = np.column_stack([sin_zeta * np.cos(azimuths), sin_zeta * np.sin(azimuths),
                                  np.full(psis.shape, math.cos(mw.zeta))])
    signals = _dip_signals(eig, consts, mw.amplitude_mt, directions, shape, grid)
    return SweepSeries(psis=psis, frequencies=grid, signals=signals,
                       centers_mhz=(eig.f_0m, eig.f_0p))


def add_shot_noise(spec: OdmrSpectrum, noise: NoiseConfig) -> OdmrSpectrum:
    """A copy of `spec` with Poisson photon noise drawn by `noise`
    (`NoiseConfig.draw` with no spawn key)."""
    return OdmrSpectrum(frequencies=spec.frequencies.copy(), signal=noise.draw(spec.signal),
                        counts_meta=noise)


def spectrum_to_csv(spec: OdmrSpectrum, path) -> None:
    """Two-column CSV: frequency_mhz, signal."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["frequency_mhz", "signal"])
        for f, s in zip(spec.frequencies, spec.signal):
            w.writerow([f"{f:.10g}", f"{s:.12g}"])


def spectrum_from_csv(path) -> OdmrSpectrum:
    """Read a CSV written by `spectrum_to_csv`; a malformed row raises
    ValueError naming the file and the row's 1-based line."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        rows = [(reader.line_num, row) for row in reader]
    if not rows or rows[0][1] != ["frequency_mhz", "signal"]:
        raise ValueError(f"{path}: not a spectrum CSV")
    if len(rows) < 2:
        raise ValueError(f"{path}: spectrum CSV has no data rows")
    points = []
    for line, row in rows[1:]:
        if len(row) != 2:
            raise ValueError(f"{path}: line {line}: expected 2 columns, got {len(row)}")
        try:
            points.append((float(row[0]), float(row[1])))
        except ValueError as exc:
            raise ValueError(f"{path}: line {line}: {exc}") from None
    data = np.array(points)
    return OdmrSpectrum(frequencies=data[:, 0], signal=data[:, 1])


def spectrum_to_json_dict(spec: OdmrSpectrum, shape: LineshapeParams | None = None) -> dict:
    """JSON envelope carrying grid, signal, lineshape params, and noise meta."""
    env = {
        "frequencies_mhz": spec.frequencies.tolist(),
        "signal": spec.signal.tolist(),
    }
    if shape is not None:
        env["lineshape"] = shape._asdict()
    if spec.counts_meta is not None:
        env["counts"] = spec.counts_meta._asdict()
    return env


def noisy_copy_with_subseed(sweep: SweepSeries, noise: NoiseConfig, *key: int) -> SweepSeries:
    """Shot noise on a whole sweep: one draw of `noise` on its (n_psi, n_f)
    signals with spawn key `key` after the record's own, recorded as that
    record with the key appended, which re-draws the copy's signals.

    Spawn keys keep results independent of execution order; distinct keys,
    () for a planar sweep and (slot,) for a 3-D run's, never share a stream.
    The copy shares the sweep's psis and grid, which the sweep has checked,
    and records the checked `noise` with its key extended, so nothing is
    checked again: `_replace` runs no checks.
    """
    return sweep._replace(signals=noise.draw(sweep.signals, *key),
                          counts_meta=noise._replace(key=noise.key + key))
