"""Inverse problem: sweep minima -> NV_Y axes -> microwave field orientation.

All reconstructed directions are axes (lines): a linearly polarized
microwave field along +m and -m is indistinguishable, so the sign of every
reconstructed axis is arbitrary.

The inversion works on one 3-vector at a time, on 3-tuples of Python
floats, with the helpers and angle formulas of `geometry`; result objects
still carry numpy-array axes.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
from typing import NamedTuple

import numpy as np

from . import fitkit, geometry, odmrsim
from .errors import NearParallelAxesError
from .fitkit import Cos2Fit
from .geometry import TransverseBasis, WireScene, _cross, _floats3, _unit3, unit
from .odmrsim import LineshapeParams, NoiseConfig
from .spinmodel import SpinConstants

NV1_AXIS_INDEX = 3  # (1/sqrt(3))[-1,-1,1]


class NvYEstimate(NamedTuple):
    """Sign-ambiguous unit axis perpendicular to the NV axis and the MW field."""

    axis: np.ndarray
    sigma_angle: float


class MwAxisEstimate(NamedTuple):
    """Unit microwave axis, of arbitrary sign, and, with a truth axis, the
    line angle to it in degrees."""

    axis: np.ndarray
    angular_error_deg: float | None = None


def extract_nv_y(basis: TransverseBasis, cos2fit: Cos2Fit) -> NvYEstimate:
    """Depth-minimum direction of the L0<->Lp dip: sweep angle psi0 + pi/2."""
    axis = geometry.sweep_direction(basis, cos2fit.psi0 + math.pi / 2.0)
    return NvYEstimate(axis=axis, sigma_angle=cos2fit.sigma_psi0)


def mw_axis_from_two(y1, y2, truth_axis: np.ndarray | None = None) -> MwAxisEstimate:
    """Normalized cross product of two NV_Y axes, the one line perpendicular
    to both; with `truth_axis`, the line angle to it in degrees.  The axes
    are lines, 3-vectors of any length, normalized first as in `planar_alpha`.
    Raises NearParallelAxesError when the sine of the angle between them,
    |u1 x u2| of the unit axes u1 and u2, is at most 1e-3."""
    c = _cross(_unit3(_floats3(y1)), _unit3(_floats3(y2)))
    n = math.hypot(*c)
    if n <= 1e-3:
        raise NearParallelAxesError(
            f"NV_Y axes nearly parallel (|cross| = {n:.2e}); direction unresolvable"
        )
    axis = (c[0] / n, c[1] / n, c[2] / n)
    err = None if truth_axis is None else geometry.line_angle_between(axis, truth_axis)
    return MwAxisEstimate(axis=np.array(axis), angular_error_deg=err)


def _circ_dist(a_deg: float, b_deg: float) -> float:
    d = abs(a_deg - b_deg) % 360.0
    return min(d, 360.0 - d)


def planar_alpha(u) -> float:
    """In-plane angle alpha, in [0, 180), of a microwave field perpendicular
    to the measured NV_Y axis u.

    The same constraint as `mw_axis_from_two`, with the wire axis Y_L as the
    second axis: a wire's field has no component along the wire, so m is
    parallel to u x Y_L.  alpha is `geometry.alpha_deg` of that axis, taken
    mod 180 because the sign of u is arbitrary; alpha + 180 is its partner.
    u is normalized first, as a 3-tuple of Python floats.  A measured u lies
    across an NV axis, and every <111> axis has |y| = 1/sqrt(3), so
    |u x Y_L| >= 1/sqrt(3): the axis is never near zero.
    """
    return geometry.alpha_deg(_cross(_unit3(_floats3(u)), (0.0, 1.0, 0.0))) % 180.0


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


class ChainConfig(NamedTuple):
    """Simulation and fitting choices for the end-to-end chains: values only,
    so a config is hashable and the sweep memo keys on it.  `grid_mhz` is the
    (start, stop, step) of `odmrsim.default_grid`, and `psi_count` the number
    of sweep angles, evenly spaced over [0, pi)."""

    constants: SpinConstants = SpinConstants()
    b_static_mt: float = 10.2
    shape: LineshapeParams = LineshapeParams()
    grid_mhz: tuple[float, float, float] = (2850.0, 2950.0, 0.5)
    psi_count: int = 12
    noise: NoiseConfig | None = None


class PlanarRunResult(NamedTuple):
    alpha_est_deg: float
    alpha_partner_deg: float
    alpha_theory_deg: float
    error_deg: float
    nv_y: NvYEstimate
    cos2: Cos2Fit


def sweep_lp_depths(*sweeps: odmrsim.SweepSeries, plan: fitkit.FitPlan | None = None):
    """L0<->Lp dip depths of every spectrum of the given sweeps and, for noisy
    sweeps, their sigmas, from one batched fit at the sweeps' dip centers
    with one linewidth for all of them.

    Returns one (depths, sigmas) pair per sweep, sigmas None when noiseless.
    At theta = pi/2 the transition frequencies depend neither on the sweep
    angle nor on the NV orientation, so the centers of each sweep's psi = 0
    eigensolve hold for every spectrum; sweeps fitted together must share
    them, their grid and their linewidth; `plan` is their `fitkit.FitPlan`,
    built here when not given.  Raises DegenerateFitError when the shared
    linewidth cannot be fitted (see `fitkit.fit_pinned_dips`).
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
    if plan is None:
        plan = fitkit.FitPlan(first.frequencies, first.centers_mhz)
    fit = fitkit.fit_pinned_dips(plan, np.concatenate([s.signals for s in sweeps]), sigmas)
    # column 1 is the dip at f_0p, the L0<->Lp transition; each sweep owns rows a:b
    rows = itertools.pairwise(itertools.accumulate((s.psis.size for s in sweeps), initial=0))
    return [(fit.depths[a:b, 1], None if sigmas is None else fit.depth_sigmas[a:b, 1])
            for a, b in rows]


# Noise studies rerun one scene with new seeds only; the few most recent
# noiseless sweeps are kept so that they pay for geometry, synthesis and the
# dip fit's plan once.
_SWEEP_MEMO_SIZE = 16


class _SceneSweep(NamedTuple):
    """A memo entry: basis, noiseless sweep and the `fitkit.FitPlan` of the
    sweep's grid and dip centers."""

    basis: TransverseBasis
    sweep: odmrsim.SweepSeries
    plan: fitkit.FitPlan


@functools.lru_cache(maxsize=_SWEEP_MEMO_SIZE)
def _noiseless_sweep(scene: WireScene, nv_index: int, cfg: ChainConfig) -> _SceneSweep:
    """Transverse basis, noiseless sweep and dip-fit plan of one NV orientation
    in a scene under `cfg` without noise, memoized by value; every array of the
    result is read-only.  A grid or psi count that the synthesis or the plan
    rejects (a grid without both dips) raises its ValueError, uncached."""
    basis = geometry.transverse_basis(geometry.crystallographic_axes()[nv_index])
    sweep = odmrsim.simulate_phi_sweep(
        cfg.constants, basis, cfg.b_static_mt, geometry.mw_direction(scene),
        geometry.wire_field_magnitude(scene), cfg.shape, odmrsim.default_grid(*cfg.grid_mhz),
        np.linspace(0.0, math.pi, cfg.psi_count, endpoint=False))
    for a in (basis.e1, basis.e2, basis.nv_z, sweep.psis, sweep.frequencies, sweep.signals):
        a.setflags(write=False)
    return _SceneSweep(basis, sweep, fitkit.FitPlan(sweep.frequencies, sweep.centers_mhz))


def _measure_nv_y(scene: WireScene, nv_indices: tuple[int, ...],
                  cfg: ChainConfig) -> list[tuple[NvYEstimate, Cos2Fit]]:
    """simulate_phi_sweep -> shot noise -> sweep_lp_depths -> fit_cos2 -> extract_nv_y
    for each NV orientation, with the sweeps of all of them in one dip fit.

    The noiseless sweeps come from a memo of at most `_SWEEP_MEMO_SIZE`
    entries, keyed by the scene, the NV index and the chain config without
    its noise; a repeat of a scene returns the read-only sweep of its first
    run, bit for bit what a new synthesis would give.  The sweeps of a run
    share grid and dip centers, so all are fitted with the first entry's
    plan.  Each sweep draws its noise in one call: a lone sweep from the
    chain's noise record, the sweep of nv_indices[k] of several from that
    record with k appended to its key.  Raises ValueError for an NV index
    that is not an integer in 0..3, before the memo, where True would alias 1.
    """
    for i in nv_indices:
        if isinstance(i, bool) or not (isinstance(i, numbers.Integral) and 0 <= i < 4):
            raise ValueError(f"NV index {i!r} is not an integer in 0..3")
    clean = cfg._replace(noise=None)
    entries = [_noiseless_sweep(scene, nv_index, clean) for nv_index in nv_indices]
    sweeps = [e.sweep for e in entries]
    if cfg.noise is not None:
        noise, several = cfg.noise, len(sweeps) > 1
        sweeps = [odmrsim.noisy_copy_with_subseed(
                      s, noise._replace(key=noise.key + (k,)) if several else noise)
                  for k, s in enumerate(sweeps)]
    fits = sweep_lp_depths(*sweeps, plan=entries[0].plan)
    out = []
    for e, sweep, (depths, sigmas) in zip(entries, sweeps, fits):
        cos2 = fitkit.fit_cos2(sweep.psis, depths, sigmas)
        out.append((extract_nv_y(e.basis, cos2), cos2))
    return out


def end_to_end_planar(scene: WireScene, nv_index: int,
                      cfg: ChainConfig = ChainConfig()) -> PlanarRunResult:
    """simulate_phi_sweep -> sweep_lp_depths -> fit_cos2 -> extract_nv_y -> planar_alpha.

    Truth comes from the wire tangent at the scene position; the reported
    error is the distance to the nearer member of the ambiguity pair.
    """
    [(nv_y, cos2)] = _measure_nv_y(scene, (nv_index,), cfg)
    alpha = planar_alpha(nv_y.axis)
    partner = (alpha + 180.0) % 360.0
    truth = geometry.alpha_deg(geometry.mw_direction(scene))
    alpha_est = alpha if _circ_dist(alpha, truth) <= _circ_dist(partner, truth) else partner
    return PlanarRunResult(
        alpha_est_deg=alpha_est,
        alpha_partner_deg=(alpha_est + 180.0) % 360.0,
        alpha_theory_deg=truth,
        error_deg=_circ_dist(alpha_est, truth),
        nv_y=nv_y,
        cos2=cos2,
    )


def end_to_end_3d(scene: WireScene, nv_indices: tuple[int, int],
                  cfg: ChainConfig = ChainConfig()) -> MwAxisEstimate:
    """Two-orientation reconstruction of the full 3-D microwave axis.

    The sweep of slot k draws its noise with k appended to the noise record's key.
    """
    i1, i2 = nv_indices
    if i1 == i2:
        raise NearParallelAxesError("the two NV orientations must differ")
    (y1, _), (y2, _) = _measure_nv_y(scene, (i1, i2), cfg)
    return mw_axis_from_two(y1.axis, y2.axis, truth_axis=geometry.mw_direction(scene))
