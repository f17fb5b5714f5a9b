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


def _perpendicular(y1, y2) -> tuple[tuple[float, float, float], float]:
    """Cross product c of the unit axes of y1 and y2, 3-vectors of any
    length, and its length |c|, the sine of the angle between them.  Raises
    NearParallelAxesError when that sine is at most 1e-3: no line is then
    perpendicular to both."""
    c = _cross(_unit3(_floats3(y1)), _unit3(_floats3(y2)))
    n = math.hypot(*c)
    if n <= 1e-3:
        raise NearParallelAxesError(
            f"axes nearly parallel (|cross| = {n:.2e}); direction unresolvable")
    return c, n


def mw_axis_from_two(y1, y2, truth_axis: np.ndarray | None = None) -> MwAxisEstimate:
    """Normalized cross product of two NV_Y axes, the one line perpendicular
    to both; with `truth_axis`, the line angle to it in degrees.  The axes
    are lines, 3-vectors of any length, normalized first as in `planar_alpha`.
    Raises NearParallelAxesError when the sine of the angle between them,
    |u1 x u2| of the unit axes u1 and u2, is at most 1e-3."""
    c, n = _perpendicular(y1, y2)
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
    u is normalized first, and an axis within a sine of 1e-3 of Y_L fixes
    no angle: it raises NearParallelAxesError, as `mw_axis_from_two` does.
    A measured u lies across an NV axis, and every <111> axis has
    |y| = 1/sqrt(3), so |u x Y_L| >= 1/sqrt(3): a chain never meets that.
    """
    return geometry.alpha_deg(_perpendicular(u, (0.0, 1.0, 0.0))[0]) % 180.0


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


def sweep_lp_depths(plan: fitkit.FitPlan, *sweeps: odmrsim.SweepSeries):
    """L0<->Lp dip depths of every spectrum of the given sweeps and, for noisy
    sweeps, their sigmas, from one batched fit with `plan`, their
    `fitkit.FitPlan`, at the sweeps' dip centers with one linewidth for all
    of them.

    Returns one (depths, sigmas) pair per sweep, sigmas None when noiseless.
    At theta = pi/2 the transition frequencies depend neither on the sweep
    angle nor on the NV orientation, so the centers of each sweep's psi = 0
    eigensolve hold for every spectrum; sweeps fitted together share them,
    their grid and their linewidth.  The plan is the batch's one reference:
    a sweep off `plan.f` (tested by identity first, since a memo sweep holds
    that array) or without `plan.centers` raises ValueError naming it.
    Raises DegenerateFitError when the shared linewidth cannot be fitted.
    """
    for k, s in enumerate(sweeps):
        if not (s.frequencies is plan.f or np.array_equal(s.frequencies, plan.f)):
            raise ValueError(f"sweep {k} does not share one frequency grid with the fit plan")
        if list(s.centers_mhz) != plan.centers.tolist():
            raise ValueError(f"sweep {k} does not share its dip centers with the fit plan")
    noisy = [s.counts_meta is not None for s in sweeps]
    if any(noisy) and not all(noisy):
        raise ValueError("sweeps fitted together must be all noisy or all noiseless")
    sigmas = np.concatenate([s.point_sigmas() for s in sweeps]) if all(noisy) else None
    fit = fitkit.fit_pinned_dips(plan, np.concatenate([s.signals for s in sweeps]), sigmas)
    # column 1 is the dip at f_0p, the L0<->Lp transition; each sweep owns rows a:b
    rows = itertools.pairwise(itertools.accumulate((s.psis.size for s in sweeps), initial=0))
    return [(fit.depths[a:b, 1], None if sigmas is None else fit.depth_sigmas[a:b, 1])
            for a, b in rows]


# Noise studies rerun one scene with new seeds only; the noiseless sweeps of
# the few most recent reconstructions are kept so that they pay for geometry,
# synthesis and the dip fit's plan once.
_SWEEP_MEMO_SIZE = 16


@functools.lru_cache(maxsize=_SWEEP_MEMO_SIZE)
def _noiseless_sweeps(scene: WireScene, nv_indices: tuple[int, ...], cfg: ChainConfig):
    """(bases, sweeps, plan) of one reconstruction of a scene under `cfg`
    without noise, memoized by value: the transverse basis and noiseless
    sweep of each NV orientation of `nv_indices`, all sweeps on one grid
    array and one psi array, and the one dip-fit plan built on that grid;
    every array is read-only.  At theta = pi/2 the dip centers depend on no
    orientation, so the first sweep's centers serve the plan, and `sweep_lp_depths`
    checks every sweep against it.  A grid or psi count that the synthesis
    or the plan rejects (a grid without both dips) raises its ValueError,
    uncached."""
    grid = odmrsim.default_grid(*cfg.grid_mhz)
    psis = np.linspace(0.0, math.pi, cfg.psi_count, endpoint=False)
    bases = tuple(geometry.transverse_basis(geometry.crystallographic_axes()[i])
                  for i in nv_indices)
    sweeps = tuple(odmrsim.simulate_phi_sweep(
        cfg.constants, basis, cfg.b_static_mt, geometry.mw_direction(scene),
        geometry.wire_field_magnitude(scene), cfg.shape, grid, psis) for basis in bases)
    for a in (grid, psis, *(s.signals for s in sweeps), *itertools.chain(*bases)):
        a.setflags(write=False)
    return bases, sweeps, fitkit.FitPlan(grid, sweeps[0].centers_mhz)


def _integer(v) -> bool:
    """An int or numpy integer, and not a bool."""
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def _measure_nv_y(scene: WireScene, nv_indices: tuple[int, ...],
                  cfg: ChainConfig) -> list[tuple[NvYEstimate, Cos2Fit]]:
    """simulate_phi_sweep -> shot noise -> sweep_lp_depths -> fit_cos2 -> extract_nv_y
    for each NV orientation, with the sweeps of all of them in one dip fit.

    The noiseless sweeps come from a memo of at most `_SWEEP_MEMO_SIZE`
    reconstructions, keyed by the scene, the NV indices and the chain config
    without its noise; a repeat returns the read-only sweeps and plan of its
    first run, bit for bit what a new synthesis would give.  Each sweep draws
    its noise in one call: a lone sweep from the chain's noise record, the
    sweep of nv_indices[k] of several from that record with k appended to
    its key.  Raises ValueError before the memo, where True would alias 1
    and a list would not hash: for an NV index that is not an integer in
    0..3, then for indices that are not distinct, a `psi_count` that is not
    an integer, or a `grid_mhz` that is not a tuple of three numbers.
    """
    for i in nv_indices:
        if not (_integer(i) and 0 <= i < 4):
            raise ValueError(f"NV index {i!r} is not an integer in 0..3")
    if len(set(nv_indices)) < len(nv_indices):
        raise ValueError("the two NV orientations must differ")
    if not _integer(cfg.psi_count):
        raise ValueError(f"psi_count {cfg.psi_count!r} is not an integer")
    grid = cfg.grid_mhz
    if not (isinstance(grid, tuple) and len(grid) == 3
            and all(isinstance(v, numbers.Real) and not isinstance(v, bool) for v in grid)):
        raise ValueError(f"grid_mhz {grid!r} is not a (start, stop, step) tuple of numbers")
    bases, sweeps, plan = _noiseless_sweeps(scene, nv_indices, cfg._replace(noise=None))
    if cfg.noise is not None:
        noise, several = cfg.noise, len(sweeps) > 1
        sweeps = [odmrsim.noisy_copy_with_subseed(
                      s, noise._replace(key=noise.key + (k,)) if several else noise)
                  for k, s in enumerate(sweeps)]
    out = []
    for basis, sweep, (depths, sigmas) in zip(bases, sweeps, sweep_lp_depths(plan, *sweeps)):
        cos2 = fitkit.fit_cos2(sweep.psis, depths, sigmas)
        out.append((extract_nv_y(basis, cos2), cos2))
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

    The sweep of slot k draws its noise with k appended to the noise record's
    key.  Raises ValueError, naming the count, unless two NV indices are given.
    """
    if len(nv_indices) != 2:
        raise ValueError(f"end_to_end_3d takes two NV indices, not {len(nv_indices)}")
    (y1, _), (y2, _) = _measure_nv_y(scene, tuple(nv_indices), cfg)
    return mw_axis_from_two(y1.axis, y2.axis, truth_axis=geometry.mw_direction(scene))
