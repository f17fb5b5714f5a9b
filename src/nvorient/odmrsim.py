"""Forward synthesis of CW-ODMR spectra and transverse-field angle sweeps.

Spectra are normalized fluorescence on a unit baseline; dips are Lorentzian
with contrasts set by the microwave coupling of each allowed transition.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from . import spinmodel
from .errors import ContrastOverflowError
from .geometry import TransverseBasis, unit
from .spinmodel import MwFieldNV, SpinConstants, StaticFieldNV


@dataclass(frozen=True)
class LineshapeParams:
    """Dip shape and contrast scaling.

    `model` is "linear" (contrast proportional to Rabi amplitude squared) or
    "saturating" (contrast rolls off once the Rabi amplitude passes
    `omega_ref_mhz`).  The defaults are stated assumptions, not measured
    values: fwhm 8 MHz keeps the two 10.2 mT dips (28 MHz apart) resolved.
    """

    fwhm_mhz: float = 8.0
    contrast_ref: float = 0.02
    omega_ref_mhz: float = 1.0
    model: str = "linear"

    def __post_init__(self):
        if not self.fwhm_mhz > 0:
            raise ValueError("fwhm must be positive")
        if not 0.0 < self.contrast_ref <= 1.0:
            raise ValueError("contrast_ref must lie in (0, 1]")
        if not self.omega_ref_mhz > 0:
            raise ValueError("omega_ref must be positive")
        if self.model not in ("linear", "saturating"):
            raise ValueError(f"unknown intensity model {self.model!r}")

    def contrast(self, omega_mhz):
        """Dip contrast of a Rabi amplitude (MHz); elementwise on arrays."""
        x = (omega_mhz / self.omega_ref_mhz) ** 2
        if self.model == "linear":
            return self.contrast_ref * x
        return self.contrast_ref * x / (x + 1.0)


@dataclass(frozen=True)
class CountsMeta:
    """Photon statistics attached to a noisy spectrum or sweep."""

    rate_kcps: float
    dwell_s: float
    seed: object

    def __post_init__(self):
        if not self.rate_kcps > 0 or not self.dwell_s > 0:
            raise ValueError("count rate and dwell time must be positive")

    @property
    def mean_counts(self) -> float:
        return self.rate_kcps * 1000.0 * self.dwell_s

    def point_sigma(self, signal: np.ndarray) -> np.ndarray:
        """Shot-noise sigma of each point of a normalized signal."""
        return np.sqrt(np.maximum(signal, 1e-12) / self.mean_counts)


def _check_grid(frequencies) -> np.ndarray:
    f = np.asarray(frequencies, dtype=float)
    if f.ndim != 1 or f.size == 0:
        raise ValueError("frequency grid must be a nonempty 1-D array")
    # written so that NaN fails: it compares False
    if not ((f[1:] > f[:-1]).all() and math.isfinite(f[0]) and math.isfinite(f[-1])):
        raise ValueError("frequency grid must be finite and strictly ascending")
    return f


@dataclass
class OdmrSpectrum:
    """Frequency grid (MHz, strictly ascending) and normalized fluorescence."""

    frequencies: np.ndarray
    signal: np.ndarray
    counts_meta: CountsMeta | None = None

    def __post_init__(self):
        self.frequencies = _check_grid(self.frequencies)
        self.signal = np.asarray(self.signal, dtype=float)
        if self.frequencies.shape != self.signal.shape:
            raise ValueError("grid and signal lengths differ")

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


@dataclass
class SweepSeries:
    """Spectra recorded while rotating the static field in the transverse plane.

    Row i of `signals` (n_psi, n_f) is the spectrum at `psis[i]` on the one
    `frequencies` grid.  Noisy sweeps carry their photon statistics.
    """

    psis: np.ndarray
    frequencies: np.ndarray
    signals: np.ndarray
    centers_mhz: tuple[float, float]  # (f_0m, f_0p), the same at every psi
    counts_meta: CountsMeta | None = None

    def __post_init__(self):
        self.psis = np.asarray(self.psis, dtype=float)
        self.frequencies = _check_grid(self.frequencies)
        self.signals = np.asarray(self.signals, dtype=float)
        if self.psis.ndim != 1 or self.signals.shape != (self.psis.size, self.frequencies.size):
            raise ValueError("sweep signals must have one row per psi and one column "
                             "per grid frequency")

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


def add_shot_noise(spec: OdmrSpectrum, rate_kcps: float, dwell_s: float,
                   seed) -> OdmrSpectrum:
    """Poisson photon noise from the seeded PCG64 generator.

    Each point becomes k / (rate*1000*dwell) with k ~ Poisson(signal * that
    mean).  `seed` may be an int or a numpy SeedSequence; equal seeds give
    bitwise-identical output.
    """
    meta = CountsMeta(rate_kcps=rate_kcps, dwell_s=dwell_s,
                      seed=seed if isinstance(seed, int) else repr(seed))
    n_mean = meta.mean_counts
    counts = np.random.default_rng(seed).poisson(spec.signal * n_mean)
    return OdmrSpectrum(frequencies=spec.frequencies.copy(),
                        signal=counts / n_mean, counts_meta=meta)


def spectrum_to_csv(spec: OdmrSpectrum, path) -> None:
    """Two-column CSV: frequency_mhz, signal."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["frequency_mhz", "signal"])
        for f, s in zip(spec.frequencies, spec.signal):
            w.writerow([f"{f:.10g}", f"{s:.12g}"])


def spectrum_from_csv(path) -> OdmrSpectrum:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != ["frequency_mhz", "signal"]:
        raise ValueError(f"{path}: not a spectrum CSV")
    if len(rows) < 2:
        raise ValueError(f"{path}: spectrum CSV has no data rows")
    data = np.array([[float(a), float(b)] for a, b in rows[1:]])
    return OdmrSpectrum(frequencies=data[:, 0], signal=data[:, 1])


def spectrum_to_json_dict(spec: OdmrSpectrum, shape: LineshapeParams | None = None) -> dict:
    """JSON envelope carrying grid, signal, lineshape params, and noise meta."""
    env = {
        "frequencies_mhz": spec.frequencies.tolist(),
        "signal": spec.signal.tolist(),
    }
    if shape is not None:
        env["lineshape"] = {
            "fwhm_mhz": shape.fwhm_mhz,
            "contrast_ref": shape.contrast_ref,
            "omega_ref_mhz": shape.omega_ref_mhz,
            "model": shape.model,
        }
    if spec.counts_meta is not None:
        env["counts"] = {
            "rate_kcps": spec.counts_meta.rate_kcps,
            "dwell_s": spec.counts_meta.dwell_s,
            "seed": spec.counts_meta.seed,
        }
    return env


def noisy_copy_with_subseed(sweep: SweepSeries, rate_kcps: float, dwell_s: float,
                            seed: int, *key: int) -> SweepSeries:
    """Shot noise on a whole sweep: one `poisson` call on its (n_psi, n_f)
    expected counts, from the generator of SeedSequence(seed, spawn_key=key).

    Row 0 is `add_shot_noise` of the noiseless row 0 with that SeedSequence.
    Spawn keys keep results independent of execution order; distinct keys,
    () for a planar sweep and (slot,) for a 3-D run's, never share a stream.
    """
    meta = CountsMeta(rate_kcps=rate_kcps, dwell_s=dwell_s, seed=(seed, *key))
    n_mean = meta.mean_counts
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))
    counts = rng.poisson(sweep.signals * n_mean)
    return SweepSeries(psis=sweep.psis, frequencies=sweep.frequencies,
                       signals=counts / n_mean, centers_mhz=sweep.centers_mhz,
                       counts_meta=meta)
