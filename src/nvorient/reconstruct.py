"""Inverse problem: sweep minima -> NV_Y axes -> microwave field orientation.

All reconstructed directions are axes (lines): a linearly polarized
microwave field along +m and -m is indistinguishable, so every result
carries an explicit sign ambiguity.

The inversion works on one 3-vector at a time, so it computes cross
products, norms and angles on 3-tuples of Python floats, where numpy's
fixed cost per call would outweigh the arithmetic; result objects still
carry numpy-array axes.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import fitkit, geometry, odmrsim
from .errors import NearParallelAxesError, PlanarModelError
from .fitkit import Cos2Fit
from .geometry import TransverseBasis, WireScene, unit
from .odmrsim import LineshapeParams
from .spinmodel import SpinConstants

NV1_AXIS_INDEX = 3  # (1/sqrt(3))[-1,-1,1]
NV2_AXIS_INDEX = 1  # (1/sqrt(3))[1,-1,-1]


@dataclass(frozen=True)
class NvYEstimate:
    """Sign-ambiguous unit axis perpendicular to the NV axis and the MW field."""

    axis: np.ndarray
    sigma_angle: float


@dataclass(frozen=True)
class MwAxisEstimate:
    axis: np.ndarray
    sign_ambiguous: bool = True
    angular_error_deg: float | None = None


def _floats3(v) -> tuple[float, float, float]:
    x, y, z = np.asarray(v, dtype=float).tolist()
    return x, y, z


def _cross(u, v) -> tuple[float, float, float]:
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])


def _unit3(v) -> tuple[float, float, float]:
    n = math.hypot(*v)
    if n < 1e-300:
        raise ValueError("cannot normalize a zero vector")
    return v[0] / n, v[1] / n, v[2] / n


def extract_nv_y(basis: TransverseBasis, cos2fit: Cos2Fit) -> NvYEstimate:
    """Depth-minimum direction of the L0<->Lp dip: sweep angle psi0 + pi/2."""
    psi = cos2fit.psi0 + math.pi / 2.0
    c, s = math.cos(psi), math.sin(psi)
    e1, e2 = _floats3(basis.e1), _floats3(basis.e2)
    axis = np.array([c * e1[0] + s * e2[0], c * e1[1] + s * e2[1], c * e1[2] + s * e2[2]])
    return NvYEstimate(axis=axis, sigma_angle=cos2fit.sigma_psi0)


def mw_axis_from_two(y1: NvYEstimate, y2: NvYEstimate,
                     truth_axis: np.ndarray | None = None) -> MwAxisEstimate:
    """Normalized cross product of the two NV_Y axes; with `truth_axis`, the
    line angle to it, atan2(|axis x truth|, |axis . truth|) in degrees."""
    c = _cross(_floats3(y1.axis), _floats3(y2.axis))
    n = math.hypot(*c)
    if n <= 1e-3:
        raise NearParallelAxesError(
            f"NV_Y axes nearly parallel (|cross| = {n:.2e}); direction unresolvable"
        )
    axis = (c[0] / n, c[1] / n, c[2] / n)
    err = None
    if truth_axis is not None:
        t = _unit3(_floats3(truth_axis))
        err = math.degrees(math.atan2(math.hypot(*_cross(axis, t)),
                                      abs(axis[0] * t[0] + axis[1] * t[1] + axis[2] * t[2])))
    return MwAxisEstimate(axis=np.array(axis), angular_error_deg=err)


@dataclass(frozen=True)
class PlanarAlphaResult:
    alpha_deg: float
    partner_deg: float
    residual_deg: float

    def nearest_to(self, hint_deg: float) -> float:
        """Ambiguity member nearest a reference angle (circular distance)."""
        d0 = _circ_dist(self.alpha_deg, hint_deg)
        d1 = _circ_dist(self.partner_deg, hint_deg)
        return self.alpha_deg if d0 <= d1 else self.partner_deg


def _circ_dist(a_deg: float, b_deg: float) -> float:
    d = abs(a_deg - b_deg) % 360.0
    return min(d, 360.0 - d)


def _planar_residual_deg(u, nv_z, alpha_deg: float) -> float:
    """Line angle between the unit axis u and nv_z x m(alpha), on 3-tuples;
    chord-based, stable to ~1e-8 deg."""
    a = math.radians(alpha_deg)
    v = _cross(nv_z, (math.sin(a), 0.0, math.cos(a)))
    n = math.hypot(*v)
    if n < 1e-12:
        return 90.0
    if u[0] * v[0] + u[1] * v[1] + u[2] * v[2] < 0.0:
        n = -n
    chord = math.hypot(u[0] - v[0] / n, u[1] - v[1] / n, u[2] - v[2] / n)
    return math.degrees(2.0 * math.asin(min(1.0, 0.5 * chord)))


def planar_alpha(u: np.ndarray, nv_z: np.ndarray) -> PlanarAlphaResult:
    """Invert the perpendicular-axis measurement for an in-plane MW field.

    The field m(alpha) = (sin a, 0, cos a) is perpendicular to both the
    measured axis u (parallel to nv_z x m) and to Y_L, so m is parallel to
    u x Y_L = (-u_z, 0, u_x) and alpha = atan2(-u_z, u_x) for any NV axis.
    The residual (line angle between u and nv_z x m(alpha)) tests that u is
    consistent with an in-plane field at all.  alpha is reported in [0, 180),
    so the sign of u does not matter, with its pi-degenerate partner alongside.
    Both vectors are handled as 3-tuples of Python floats.
    """
    u = _unit3(_floats3(u))
    nv_z = _unit3(_floats3(nv_z))
    alpha = math.degrees(math.atan2(-u[2], u[0])) % 180.0
    resid = _planar_residual_deg(u, nv_z, alpha)
    if resid > 1.0:
        raise PlanarModelError(
            f"axis inconsistent with an in-plane microwave field (residual {resid:.3f} deg)"
        )
    return PlanarAlphaResult(alpha_deg=alpha, partner_deg=(alpha + 180.0) % 360.0,
                             residual_deg=resid)


def closed_form_alpha_check(u: np.ndarray) -> float:
    """Closed-form planar inversion for the NV axis (1/sqrt(3))[-1,-1,1].

    With u = +-(-cos a, cos a + sin a, sin a)/sqrt(2 + sin 2a) the identity
    sin 2a = (2*u_y^2 - 1)/(u_x^2 + u_z^2) holds exactly; the quadrant of 2a
    follows from sign(u_x^2 - u_z^2) (prop. to cos 2a) and the half-turn from
    the signs of u_z (prop. to sin a) and -u_x (prop. to cos a).  Serves as
    an independent oracle for planar_alpha.
    """
    ux, uy, uz = unit(u)
    denom = ux * ux + uz * uz
    if denom < 1e-12:
        raise ValueError("axis has no in-plane component; alpha undefined")
    ratio = (2.0 * uy * uy - 1.0) / denom
    if abs(ratio) > 1.0 + 1e-9:
        raise ValueError(f"arcsin argument {ratio:.6f} outside [-1, 1]")
    ratio = max(-1.0, min(1.0, ratio))
    cos2a = math.copysign(math.sqrt(max(0.0, 1.0 - ratio * ratio)), ux * ux - uz * uz)
    # ratio plays sin(2a); cos2a carries the sign of cos(2a)
    alpha = math.degrees(math.atan2(ratio, cos2a)) / 2.0 % 180.0
    # resolve the half-turn from whichever component is better conditioned
    if abs(uz) >= abs(ux):
        flip = math.sin(math.radians(alpha)) * uz < 0.0
    else:
        flip = math.cos(math.radians(alpha)) * (-ux) < 0.0
    if flip:
        alpha += 180.0
    return alpha % 360.0


@dataclass(frozen=True)
class NoiseConfig:
    rate_kcps: float
    dwell_s: float
    seed: int


@dataclass
class ChainConfig:
    """Simulation and fitting choices for the end-to-end planar pipeline."""

    constants: SpinConstants = field(default_factory=SpinConstants)
    b_static_mt: float = 10.2
    shape: LineshapeParams = field(default_factory=LineshapeParams)
    grid: np.ndarray = field(default_factory=odmrsim.default_grid)
    # np.linspace(0, pi, 12, endpoint=False), bit for bit, at a third of its cost
    psis: np.ndarray = field(default_factory=lambda: np.arange(12) * (math.pi / 12))
    noise: NoiseConfig | None = None


@dataclass
class PlanarRunResult:
    alpha_est_deg: float
    alpha_partner_deg: float
    alpha_theory_deg: float
    error_deg: float
    nv_y: NvYEstimate
    cos2: Cos2Fit


def sweep_lp_depths(*sweeps: odmrsim.SweepSeries):
    """L0<->Lp dip depths of every spectrum of the given sweeps and, for noisy
    sweeps, their sigmas, from one batched fit at the sweeps' dip centers
    with one linewidth for all of them.

    Returns one (depths, sigmas) pair per sweep, sigmas None when noiseless.
    At theta = pi/2 the transition frequencies depend neither on the sweep
    angle nor on the NV orientation, so the centers of each sweep's psi = 0
    eigensolve hold for every spectrum; sweeps fitted together must share
    them, their grid and their linewidth.  Raises DegenerateFitError when
    the shared linewidth cannot be fitted (see `fitkit.fit_pinned_dips`).
    """
    first = sweeps[0]
    for s in sweeps[1:]:
        if not np.array_equal(s.frequencies, first.frequencies):
            raise ValueError("sweeps fitted together must share one frequency grid")
        if s.centers_mhz != first.centers_mhz:
            raise ValueError("sweeps fitted together must share their dip centers")
    noisy = [s.counts_meta is not None for s in sweeps]
    if any(noisy) and not all(noisy):
        raise ValueError("sweeps fitted together must be all noisy or all noiseless")
    sigmas = np.concatenate([s.point_sigmas() for s in sweeps]) if all(noisy) else None
    fit = fitkit.fit_pinned_dips(first.frequencies, np.concatenate([s.signals for s in sweeps]),
                                 sigmas, first.centers_mhz)
    # column 1 is the dip at f_0p, the L0<->Lp transition; each sweep owns rows a:b
    rows = itertools.pairwise(itertools.accumulate((s.psis.size for s in sweeps), initial=0))
    return [(fit.depths[a:b, 1], None if sigmas is None else fit.depth_sigmas[a:b, 1])
            for a, b in rows]


# Noise studies rerun one scene with new seeds only; the few most recent
# noiseless sweeps are kept so that they pay for geometry and synthesis once.
_SWEEP_MEMO_SIZE = 16


def _array_key(values) -> tuple[tuple[int, ...], bytes]:
    """Value key of a float array: its shape and its float64 bytes."""
    a = np.asarray(values, dtype=float)
    return a.shape, a.tobytes()


@functools.lru_cache(maxsize=_SWEEP_MEMO_SIZE)
def _noiseless_sweep(scene: WireScene, nv_index: int, constants: SpinConstants,
                     b_static_mt: float, shape: LineshapeParams,
                     grid_key: tuple[tuple[int, ...], bytes],
                     psis_key: tuple[tuple[int, ...], bytes]
                     ) -> tuple[TransverseBasis, odmrsim.SweepSeries]:
    """Transverse basis and noiseless sweep of one NV orientation in a scene,
    memoized by value; every array of the result is read-only."""
    # rebuilt from the key, so the cached sweep shares no memory with the caller's arrays
    grid = np.frombuffer(grid_key[1]).reshape(grid_key[0])
    psis = np.frombuffer(psis_key[1]).reshape(psis_key[0])
    basis = geometry.transverse_basis(geometry.crystallographic_axes()[nv_index])
    sweep = odmrsim.simulate_phi_sweep(constants, basis, b_static_mt,
                                       geometry.mw_direction(scene),
                                       geometry.wire_field_magnitude(scene), shape, grid, psis)
    for a in (basis.e1, basis.e2, basis.nv_z, sweep.psis, sweep.frequencies, sweep.signals):
        a.setflags(write=False)
    return basis, sweep


def _measure_nv_y(scene: WireScene, nv_indices: tuple[int, ...], cfg: ChainConfig,
                  noise_keys: tuple[tuple[int, ...], ...]) -> list[tuple[NvYEstimate, Cos2Fit]]:
    """simulate_phi_sweep -> shot noise -> sweep_lp_depths -> fit_cos2 -> extract_nv_y
    for each NV orientation, with the sweeps of all of them in one dip fit.

    The noiseless sweeps come from a memo of at most `_SWEEP_MEMO_SIZE`
    entries, keyed by the scene, the NV index and the chain's constants,
    static field, lineshape, grid and psis (arrays by shape and bytes); a
    repeat of a scene returns the read-only sweep of its first run, bit for
    bit what a new synthesis would give.  The sweep of nv_indices[k] draws
    its noise in one call from spawn key noise_keys[k].
    """
    grid, psis = _array_key(cfg.grid), _array_key(cfg.psis)
    bases, sweeps = [], []
    for nv_index, key in zip(nv_indices, noise_keys):
        basis, sweep = _noiseless_sweep(scene, nv_index, cfg.constants, cfg.b_static_mt,
                                        cfg.shape, grid, psis)
        if cfg.noise is not None:
            sweep = odmrsim.noisy_copy_with_subseed(sweep, cfg.noise.rate_kcps,
                                                    cfg.noise.dwell_s, cfg.noise.seed, *key)
        bases.append(basis)
        sweeps.append(sweep)
    out = []
    for basis, sweep, (depths, sigmas) in zip(bases, sweeps, sweep_lp_depths(*sweeps)):
        cos2 = fitkit.fit_cos2(sweep.psis, depths, sigmas)
        out.append((extract_nv_y(basis, cos2), cos2))
    return out


def end_to_end_planar(scene: WireScene, nv_index: int,
                      cfg: ChainConfig | None = None) -> PlanarRunResult:
    """simulate_phi_sweep -> sweep_lp_depths -> fit_cos2 -> extract_nv_y -> planar_alpha.

    Truth comes from the wire tangent at the scene position; the reported
    error is the distance to the nearer member of the ambiguity pair.
    """
    cfg = cfg if cfg is not None else ChainConfig()
    [(nv_y, cos2)] = _measure_nv_y(scene, (nv_index,), cfg, ((),))
    pa = planar_alpha(nv_y.axis, geometry.crystallographic_axes()[nv_index])
    m = geometry.mw_direction(scene)
    truth = math.degrees(math.atan2(m[0], m[2])) % 360.0
    alpha_est = pa.nearest_to(truth)
    return PlanarRunResult(
        alpha_est_deg=alpha_est,
        alpha_partner_deg=(alpha_est + 180.0) % 360.0,
        alpha_theory_deg=truth,
        error_deg=_circ_dist(alpha_est, truth),
        nv_y=nv_y,
        cos2=cos2,
    )


def end_to_end_3d(scene: WireScene, nv_indices: tuple[int, int],
                  cfg: ChainConfig | None = None) -> MwAxisEstimate:
    """Two-orientation reconstruction of the full 3-D microwave axis.

    The sweep of slot k draws its noise from spawn key (k,).
    """
    i1, i2 = nv_indices
    if i1 == i2:
        raise NearParallelAxesError("the two NV orientations must differ")
    cfg = cfg if cfg is not None else ChainConfig()
    (y1, _), (y2, _) = _measure_nv_y(scene, (i1, i2), cfg, ((0,), (1,)))
    return mw_axis_from_two(y1, y2, truth_axis=geometry.mw_direction(scene))
