"""The two models the pipeline needs: multi-Lorentzian dip extraction and the
a*cos^2(psi-psi0)+b intensity law (by linear least squares, in closed form).

Dips at pinned centers are fitted a reconstruction at a time (one sweep, or
both sweeps of a 3-D run) by variable projection: the model is linear in
each spectrum's baseline and depths, and every spectrum shares one
linewidth, so only one scalar is searched (Golub & Pereyra, SIAM J. Numer.
Anal. 10, 413 (1973)), by Newton steps on t = log(fwhm).  The Lorentzian's
t-derivatives are polynomials in the Lorentzian itself, dL/dt = 2L(1-L) and
d2L/dt2 = 2(1-2L) dL/dt, so the projected chi-square's exact curvature (a
Schur complement of the full Hessian) costs one more row of products.  A
sweep converges in under three projections: the last Newton step moves the
fit along dc/dt = -G^-1 w in closed form, unprojected.  The depth covariance
comes from the normal matrix of the last projected state, computed once.
Dips with free centers are fitted by damped Gauss-Newton (Levenberg-Marquardt).

The cos^2 law is a linear fit of three terms to a dozen depths, solved by a
thin QR (modified Gram-Schmidt) on Python floats: at that size numpy's fixed
cost per call is larger than the arithmetic.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from operator import mul

import numpy as np

from .errors import DegenerateFitError, SingularNormalEquationsError
from .odmrsim import OdmrSpectrum, _check_grid


@dataclass
class FitResult:
    params: np.ndarray
    covariance: np.ndarray | None
    residual_norm: float
    converged: bool
    iterations: int

    @property
    def sigmas(self) -> np.ndarray | None:
        if self.covariance is None:
            return None
        return np.sqrt(np.maximum(np.diag(self.covariance), 0.0))


def nls_fit(
    residuals,
    x0,
    jacobian,
    max_iter: int = 100,
    tol: float = 1e-10,
    scale_covariance: bool = True,
) -> FitResult:
    """Levenberg-Marquardt minimization of sum(residuals(x)^2), with
    `jacobian(x)` the Jacobian of the residuals.

    The damping factor starts at 1e-3; it is multiplied by 10 on a rejected
    step and divided by 10 on an accepted one.  Convergence is declared when
    the relative reduction of the residual norm falls below `tol`.  When
    `scale_covariance` is set, the covariance is (J^T J)^-1 times the reduced
    chi-square; leave it unset when the residuals are already sigma-weighted.
    """
    x = np.asarray(x0, dtype=float).copy()
    if not np.all(np.isfinite(x)):
        raise ValueError("initial parameters must be finite")
    r = np.asarray(residuals(x), dtype=float)
    if r.size < x.size:
        raise ValueError("fewer data points than parameters")
    cost = float(r @ r)
    lam = 1e-3
    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        jac = np.asarray(jacobian(x), dtype=float)
        g = jac.T @ r
        jtj = jac.T @ jac
        accepted = False
        for _ in range(25):
            try:
                step = np.linalg.solve(jtj + lam * np.diag(np.maximum(np.diag(jtj), 1e-30)), -g)
            except np.linalg.LinAlgError as exc:
                raise SingularNormalEquationsError(str(exc)) from exc
            if not np.all(np.isfinite(step)):
                raise SingularNormalEquationsError("non-finite LM step")
            x_try = x + step
            r_try = np.asarray(residuals(x_try), dtype=float)
            cost_try = float(r_try @ r_try)
            if np.isfinite(cost_try) and cost_try <= cost:
                accepted = True
                break
            lam *= 10.0
        if not accepted:
            break
        rel_drop = (cost - cost_try) / max(cost, 1e-300)
        x, r, cost = x_try, r_try, cost_try
        lam = max(lam / 10.0, 1e-12)
        if rel_drop < tol:
            converged = True
            break
    try:
        jac = np.asarray(jacobian(x), dtype=float)
        jtj = jac.T @ jac
        cov = np.linalg.inv(jtj)
        if scale_covariance:
            dof = max(r.size - x.size, 1)
            cov = cov * (cost / dof)
        cov = 0.5 * (cov + cov.T)
    except np.linalg.LinAlgError:
        cov = None
    return FitResult(params=x, covariance=cov, residual_norm=math.sqrt(cost),
                     converged=converged, iterations=it)


# ---------------------------------------------------------------------------
# Multi-Lorentzian dip model
# ---------------------------------------------------------------------------

@dataclass
class DipEstimate:
    """Fitted Lorentzian dip: center/fwhm in MHz, depth on the unit baseline."""

    center_mhz: float
    fwhm_mhz: float
    depth: float
    depth_sigma: float


def _dip_model(params: np.ndarray, f: np.ndarray, centers) -> np.ndarray:
    # params: [baseline, fwhm, d1..dn], plus c1..cn when fitted; `centers` are those in use
    base, fwhm = params[0], params[1]
    h2 = (0.5 * fwhm) ** 2
    y = np.full_like(f, base)
    for k in range(len(centers)):
        y -= params[2 + k] * h2 / ((f - centers[k]) ** 2 + h2)
    return y


def _dip_jacobian(params: np.ndarray, f: np.ndarray, centers) -> np.ndarray:
    n = len(centers)
    h = 0.5 * params[1]
    jac = np.zeros((f.size, params.size))
    jac[:, 0] = 1.0
    for k in range(n):
        d = params[2 + k]
        delta = f - centers[k]
        den = delta ** 2 + h * h
        # d(model)/d(fwhm) = -d * h * delta^2 / den^2, accumulated over dips
        jac[:, 1] += -d * h * delta ** 2 / den ** 2
        jac[:, 2 + k] = -h * h / den
        if params.size > 2 + n:  # center columns, when params carries them
            jac[:, 2 + n + k] = -d * 2.0 * h * h * delta / den ** 2
    return jac


INIT_FWHM_MHZ = 8.0
MAX_DIP_ITER = 200
# pinned-center search: a Newton step of at most STEP_TOL * fwhm is the last,
# taken in closed form; Newton converges quadratically, so it leaves
# O(STEP_TOL^2).  A chi-square rise below RISE_SLACK (relative) is round-off;
# without that slack the search backtracks forever near the optimum.
# MAX_HALVINGS halvings take any step below STEP_TOL * fwhm.
STEP_TOL = 1e-5
RISE_SLACK = 1e-13
MAX_HALVINGS = 40
# the largest Newton step in t = log(fwhm): a factor e^0.5 = 1.65 either way
MAX_LOG_STEP = 0.5


@dataclass
class PinnedDipFit:
    """Results of `fit_pinned_dips`: per-spectrum depths, with the batch as
    the leading axis, and the one fwhm the batch shares.

    `depths` and `depth_sigmas` have one column per pinned center, in the
    order the centers were given; `depth_sigmas` is None for unweighted fits.
    """

    depths: np.ndarray
    depth_sigmas: np.ndarray | None
    fwhm: float


def fwhm_bracket(f: np.ndarray) -> tuple[float, float]:
    """The open interval (grid step, half the grid span) in which a pinned fit
    searches the fwhm; narrower or wider dips are not resolved by the grid."""
    return float((f[1:] - f[:-1]).min()), 0.5 * float(f[-1] - f[0])


def _check_centers(f: np.ndarray, centers: np.ndarray) -> None:
    if not all(f[0] <= c <= f[-1] for c in centers.tolist()):
        raise ValueError("initial dip centers must lie inside the frequency grid")


class _Workspace:
    """The arrays of one pinned fit, allocated once and refilled in place by
    every `_project`, so that the search allocates no (batch, n_f) array:
    per spectrum, from the weights wt = 1/sigma, w = wt, w2 = wt^2, yw = wt*y
    and w2y = wt^2*y.  The fwhm is shared, so the Lorentzians depend on
    frequency alone: `phi` is one (3n+1, n_f) block [1, L_k, dl_k, d2l_k],
    with L_k the unit-peak Lorentzians at the trial fwhm, t = log(fwhm),
    dl_k = L_k(1-L_k) = (dL_k/dt)/2 and d2l_k = (1-2L_k) dl_k = (d2L_k/dt2)/4,
    and `prod` holds the pairwise products of its first n+1 rows."""

    def __init__(self, f, y, wt, centers):
        self.n = n = centers.size
        self.yw = y * wt
        self.w, self.w2, self.w2y = wt, wt * wt, self.yw * wt
        self.phi = np.empty((3 * n + 1, f.size))
        self.phi[0] = 1.0
        self.prod = np.empty((n + 1, n + 1, f.size))
        self.delta2 = (f - centers[:, None]) ** 2
        self.r, self.rw, self.jw = np.empty((3, *y.shape))


def _project(ws, fwhm):
    """Variable projection at the shared fwhm: each spectrum's exact weighted
    linear fit c of [baseline, -depths], whose weighted columns are
    a = wt*phi[:n+1], and, at those fits, the batch sums of chi2, of r.jw
    (half its t-derivative) and of half its t-curvature (see
    `fit_pinned_dips`); then each spectrum's G^-1, u = G^-1 a.jw and
    G^-1 w = -dc/dt, and the batch sum of the Kaufman curvature
    jw.jw - (a.jw).u.  With s = 2c[1:], jw = wt*(s.dl).  The normal matrix
    over every spectrum's [baseline, -depths] and the shared t is
    block-diagonal in the G's, bordered by the a.jw's, so by blockwise
    inversion the depth variances are diag(G^-1) + u^2 / (summed Kaufman
    curvature).  The residual is formed point by point: chi2 from moments
    would lose digits to cancellation.  Returns [c, chi2, r.jw, curvature,
    G^-1, u, Kaufman curvature, G^-1 w], the batch sums as floats."""
    n, phi, w, r = ws.n, ws.phi, ws.w, ws.r
    m = n + 1
    h2 = (0.5 * fwhm) ** 2
    lor, dl = phi[1:m], phi[m:m + n]
    np.divide(h2, ws.delta2 + h2, out=lor)
    np.multiply(lor, 1.0 - lor, out=dl)
    np.multiply(dl, 1.0 - 2.0 * lor, out=phi[m + n:])
    np.multiply(phi[:m, None], phi[None, :m], out=ws.prod)
    try:
        ginv = np.linalg.inv((ws.w2 @ ws.prod.reshape(m * m, -1).T).reshape(-1, m, m))
    except np.linalg.LinAlgError as exc:
        raise SingularNormalEquationsError(str(exc)) from exc
    coef = (ginv @ (ws.w2y @ phi[:m].T)[:, :, None])[:, :, 0]
    np.matmul(coef, phi[:m], out=r)
    r *= w
    r -= ws.yw
    # r.dl_k and r.d2l_k; r is orthogonal to a, so r.jw is half the exact gradient
    rd = phi[m:] @ np.multiply(w, r, out=ws.rw).T
    s = 2.0 * coef[:, 1:]
    jw = np.matmul(s, dl, out=ws.jw)
    jw *= w
    jj = float(np.vdot(jw, jw))
    jw *= w                                 # now wt*jw, whose sums with phi[:m] are a.jw
    aw = np.empty((s.shape[0], m, 2))       # columns a.jw and w (see `fit_pinned_dips`)
    aw[:, :, 0] = aw[:, :, 1] = jw @ phi[:m].T
    aw[:, 1:, 1] += 2.0 * rd[:n].T
    gw = ginv @ aw
    # the quadratic forms (a.jw).G^-1(a.jw) and w.G^-1 w, summed over the batch
    kaufman = jj - float(np.vdot(aw[:, :, 0], gw[:, :, 0]))
    exact = jj + 2.0 * float(np.vdot(s.T, rd[n:])) - float(np.vdot(aw[:, :, 1], gw[:, :, 1]))
    return [coef, float(np.vdot(r, r)), float(np.vdot(s.T, rd[:n])),
            exact if exact > 0.0 else kaufman, ginv, gw[:, :, 0], kaufman, gw[:, :, 1]]


def fit_pinned_dips(f, signals, sigmas, centers) -> PinnedDipFit:
    """Fit Lorentzian dips at pinned centers to a batch of spectra on one
    frequency grid: a baseline and depths per spectrum, and one fwhm shared
    by the whole batch.

    The shared fwhm is the model, not a shortcut: the simulator gives every
    spectrum of a sweep, and both sweeps of a 3-D run, one linewidth, and a
    linewidth fitted per spectrum biases the depths by O(1/N) at N counts
    per point (Box, JRSS B 33, 171 (1971)).  A common fwhm error scales
    every depth of a sweep together, so it leaves the cos^2 law's psi0
    unchanged to first order, and `fit_cos2` may treat the depths as
    independent.  In a real CW experiment power broadening makes the
    linewidth grow with the Rabi frequency, and so with psi (Dreau et al.,
    PRB 84, 195204 (2011)); batch only spectra whose linewidth is shared.

    `signals` and `sigmas` have shape (batch, n_f); `sigmas=None` fits
    unweighted and returns no depth sigmas.  The model is linear in baselines
    and depths, so each trial fwhm is scored by their exact weighted fit
    (variable projection, Golub & Pereyra, SIAM J. Numer. Anal. 10, 413
    (1973)) and only the scalar t = log(fwhm) is searched, by Newton steps.
    With h = fwhm/2 and L = h^2/(delta^2 + h^2), dL/dt = 2L(1-L) and
    d2L/dt2 = 2(1-2L) dL/dt.  So, with r the weighted residual, a the
    weighted columns of [baseline, -depths], G = a.a and jw = dr/dt, each
    spectrum's projected chi-square has the exact derivative 2 r.jw and the
    exact second derivative 2(jw.jw + r.d2r/dt2 - w.G^-1 w), the Schur
    complement of G in the Hessian of its full chi-square over
    [baseline, -depths, t], where w = a.jw + [0, r.d2r/d(-depths)dt].  The
    search sums these over the batch; where the summed curvature is not
    positive, the summed Gauss-Newton value 2(jw.jw - (a.jw).G^-1(a.jw))
    (Kaufman, BIT 15, 49 (1975)) serves.  Each step is clamped to
    |dt| <= MAX_LOG_STEP and to the bracket, and halved while the summed
    chi-square rises.  A step of at most STEP_TOL * fwhm is the last, and it
    is not projected: differentiating G c = a.yw gives dc/dt = -G^-1 w, along
    which c moves with an error of O(dt^2).  The search also stops, keeping
    its previous state, when the chi-square still rises after MAX_HALVINGS
    halvings.  Depth sigmas are computed once, from the last projected state
    (see `_project`); depth variances do not depend on how the fwhm is
    parametrized.

    The fwhm is searched within `fwhm_bracket(f)`, [grid step, half the grid
    span].  Raises ValueError unless `f` is a nonempty, finite and strictly
    ascending 1-D grid, and DegenerateFitError when the shared fwhm ends on that
    bracket (the dips would run wider or narrower than the grid can show) or
    the search has not stopped after MAX_DIP_ITER steps.
    """
    f = _check_grid(f)
    y = np.atleast_2d(np.asarray(signals, dtype=float))
    centers = np.asarray(centers, dtype=float)
    _check_centers(f, centers)
    if y.shape[1] != f.size:
        raise ValueError("signals do not match the frequency grid")
    if not np.isfinite(y).all():
        raise ValueError("signals must be finite")
    if f.size < centers.size + 2:
        raise ValueError("fewer data points than parameters")
    if sigmas is None:
        wt = np.ones_like(y)
    else:
        sig = np.atleast_2d(np.asarray(sigmas, dtype=float))
        if sig.shape != y.shape or not 0.0 < sig.min() <= sig.max() < math.inf:  # NaN fails
            raise ValueError("sigmas must be positive, finite and shaped like the signals")
        wt = 1.0 / sig
    ws = _Workspace(f, y, wt, centers)
    lo, hi = fwhm_bracket(f)

    fwhm = min(max(INIT_FWHM_MHZ, lo), hi)
    with np.errstate(divide="ignore", invalid="ignore"):
        state = _project(ws, fwhm)
        for _ in range(MAX_DIP_ITER):
            chi2, grad, curv = state[1:4]
            dt = min(max(-grad / curv, -MAX_LOG_STEP), MAX_LOG_STEP) if curv > 0.0 else 0.0
            step = min(max(fwhm + fwhm * math.expm1(dt), lo), hi) - fwhm
            if abs(step) <= STEP_TOL * fwhm:  # the last step, in closed form
                state[0] = state[0] - state[7] * math.log1p(step / fwhm)
                fwhm += step
                break
            bound = chi2 * (1.0 + RISE_SLACK)
            trial = _project(ws, fwhm + step)
            for _ in range(MAX_HALVINGS):
                if not trial[1] > bound:
                    break
                step *= 0.5
                trial = _project(ws, fwhm + step)
            if trial[1] > bound:
                break  # the halvings ran out: keep the previous state and stop
            fwhm += step
            state = trial
        else:
            raise DegenerateFitError(f"pinned dip fit did not converge in {MAX_DIP_ITER} steps")
        if not lo < fwhm < hi:
            raise DegenerateFitError(
                f"dip fwhm ran to the bound of [{lo:g}, {hi:g}] MHz set by the grid")
        coef, ginv, u, kaufman = state[0], *state[4:7]
        depth_sigmas = None
        if sigmas is not None:
            m = ws.n + 1  # diag(G^-1)[1:] is entries m+1, 2(m+1), ... of each flat G^-1
            var = ginv.reshape(-1, m * m)[:, m + 1::m + 1] + u[:, 1:] ** 2 / kaufman
            depth_sigmas = np.sqrt(np.maximum(var, 0.0))
    return PinnedDipFit(depths=-coef[:, 1:], depth_sigmas=depth_sigmas, fwhm=fwhm)


def fit_dips(spec: OdmrSpectrum, init_centers_mhz) -> list[DipEstimate]:
    """Fit n Lorentzian dips (shared fwhm, free baseline and centers) to a
    spectrum by Levenberg-Marquardt, started at the supplied centers.

    Uses the spectrum's shot-noise sigmas as weights when present.  Raises
    DegenerateFitError when a fitted center leaves the frequency grid, when
    two dips within one linewidth have depths of opposite sign (a degenerate
    pair that can cancel to almost any shape), or when the fit does not
    converge, rather than return the last step's parameters.  Returns estimates
    ordered by center; warns when fitted dips overlap within one linewidth.
    Dips at known centers are fitted by `fit_pinned_dips`.
    """
    init = np.array([float(c) for c in init_centers_mhz])
    f, y = spec.frequencies, spec.signal
    _check_centers(f, init)
    if not np.all(np.isfinite(y)):
        raise ValueError("spectrum signal must be finite")
    n = init.size
    ys = np.sort(y)
    base = 0.5 * float(ys[(y.size - 1) // 2] + ys[y.size // 2])  # the median
    depths = [max(base - float(np.interp(c, f, y)), 1e-4) for c in init]
    x0 = np.array([base, INIT_FWHM_MHZ, *depths, *init])

    sigma = spec.point_sigma()
    s = np.ones_like(y) if sigma is None else sigma
    fit = nls_fit(lambda p: (_dip_model(p, f, p[2 + n:]) - y) / s, x0,
                  jacobian=lambda p: _dip_jacobian(p, f, p[2 + n:]) / s[:, None],
                  max_iter=MAX_DIP_ITER, tol=1e-12, scale_covariance=sigma is None)
    p = fit.params
    centers = p[2 + n:]
    if not np.all((centers >= f[0]) & (centers <= f[-1])):
        raise DegenerateFitError(
            f"fitted dip center left the frequency grid [{f[0]:g}, {f[-1]:g}] MHz")
    sig = fit.sigmas if fit.sigmas is not None else np.full(p.size, np.nan)
    dips = sorted((DipEstimate(center_mhz=float(c), fwhm_mhz=float(abs(p[1])),
                               depth=float(p[2 + k]), depth_sigma=float(sig[2 + k]))
                   for k, c in enumerate(centers)), key=lambda d: d.center_mhz)
    close = [(a, b) for a, b in zip(dips, dips[1:])
             if abs(b.center_mhz - a.center_mhz) < a.fwhm_mhz]
    for a, b in close:
        if a.depth * b.depth < 0.0:
            raise DegenerateFitError(
                f"fitted dips at {a.center_mhz:.3f} and {b.center_mhz:.3f} MHz overlap "
                "with depths of opposite sign")
    if not fit.converged:
        raise DegenerateFitError(f"dip fit did not converge in {fit.iterations} steps")
    for _ in close:
        warnings.warn("fitted dips overlap within one linewidth", stacklevel=2)
    return dips


# ---------------------------------------------------------------------------
# a*cos^2(psi - psi0) + b intensity law
# ---------------------------------------------------------------------------

# Depths are fractions of a unit fluorescence baseline, which float64 resolves
# only to machine epsilon.  A modulation amplitude below that is rounding, not
# signal: without microwaves the noiseless depths are ~1e-17 and the fitted
# amplitude and its unweighted sigma are both below 1e-32, so a > 3*sigma_a
# alone can pass on rounding.
AMPLITUDE_FLOOR = float(np.finfo(float).eps)


@dataclass
class Cos2Fit:
    a: float
    b: float
    psi0: float
    sigma_psi0: float
    sigma_a: float


def fit_cos2(psis, depths, depth_sigmas=None) -> Cos2Fit:
    """Weighted fit of a*cos^2(psi-psi0)+b with psi0 reported in [0, pi).

    The model equals c0 + c1*cos(2 psi) + c2*sin(2 psi), so weighted linear
    least squares gives the exact minimum: psi0 = atan2(c2, c1)/2, a = 2|c|,
    b = c0 - |c|.  The weighted n x 3 design is factored by a thin QR from
    modified Gram-Schmidt, with the data as a fourth column so that Q^T y
    and the residual come out of the same sweeps (Bjorck, BIT 7, 1 (1967));
    the normal equations would square the condition number.  R gives the
    coefficients, the covariance R^-1 R^-T and the rank test.
    Uncertainties follow from that covariance by the delta method, scaled
    by the reduced chi-square when unweighted.  The problem has three
    unknowns and a dozen rows, so it runs on Python floats: numpy's fixed
    cost per call is larger than the arithmetic here.

    Raises ValueError on fewer than 4 distinct psi, a psi span of at most
    pi/2, or a sigma that is not positive and finite; DegenerateFitError
    when the psi values fix fewer than three model terms (|R_kk| at most
    eps*max(n, 3)*max_j |R_jj|), or when the amplitude is not significant
    (a <= 3*sigma_a) or below AMPLITUDE_FLOOR.
    """
    psis = np.asarray(psis, dtype=float).ravel().tolist()
    depths = np.asarray(depths, dtype=float).ravel().tolist()
    n = len(psis)
    if len(depths) != n:
        raise ValueError("psis and depths differ in length")
    if not all(map(math.isfinite, psis + depths)):
        raise ValueError("psis and depths must be finite")
    # distinct after rounding to 12 decimals (round half to even, as np.round)
    if n < 4 or len({round(p * 1e12) for p in psis}) < 4:
        raise ValueError("need at least 4 distinct psi values")
    if max(psis) - min(psis) <= math.pi / 2.0:
        raise ValueError("psi values must span more than pi/2")
    if depth_sigmas is None:
        w = [1.0] * n
    else:
        sig = np.asarray(depth_sigmas, dtype=float).ravel().tolist()
        if len(sig) != n or not all(0.0 < s < math.inf for s in sig):
            raise ValueError("depth sigmas must be positive and finite, one per psi")
        w = [1.0 / s for s in sig]

    # modified Gram-Schmidt on the columns w, w cos(2 psi), w sin(2 psi) and
    # the weighted data, without normalizing: R = diag(|v_k|) T with T unit
    # upper triangular, t[k, j] = T_kj, and column 3 ends as the residual
    two = [2.0 * p for p in psis]
    cols = [w, list(map(mul, w, map(math.cos, two))), list(map(mul, w, map(math.sin, two))),
            list(map(mul, w, depths))]
    vv, t = [], {}
    for k in range(3):
        v = cols[k]
        vv.append(sum(map(mul, v, v)))
        if vv[k] == 0.0:
            raise DegenerateFitError("psi values determine fewer than three model terms")
        for j in range(k + 1, 4):
            t[k, j] = tkj = sum(map(mul, v, cols[j])) / vv[k]
            cols[j] = [y - tkj * x for x, y in zip(v, cols[j])]
    if math.sqrt(min(vv)) <= math.ulp(1.0) * max(n, 3) * math.sqrt(max(vv)):
        raise DegenerateFitError("psi values determine fewer than three model terms")
    c2 = t[2, 3]
    c1 = t[1, 3] - t[1, 2] * c2
    c0 = t[0, 3] - t[0, 1] * c1 - t[0, 2] * c2
    # (c1, c2) has covariance B B^T, with B the lower-right block of R^-1
    # times the rms residual when unweighted; so each delta-method quadratic
    # form x^T B B^T x is the sum of squares |B^T x|^2
    rms = 1.0 if depth_sigmas is not None else math.sqrt(sum(map(mul, cols[3], cols[3])) / (n - 3))
    b11, b22 = rms / math.sqrt(vv[1]), rms / math.sqrt(vv[2])
    b12 = -t[1, 2] * b22
    half = math.hypot(c1, c2)
    a = 2.0 * half
    if not a > AMPLITUDE_FLOOR:
        raise DegenerateFitError(
            f"modulation amplitude {a:.3g} below the float64 resolution of the baseline")
    # delta method: d|c|/dc = c/|c| and d(psi0)/dc = (-c2, c1)/(2|c|^2)
    sigma_a = 2.0 * math.hypot(b11 * c1, b12 * c1 + b22 * c2) / half
    if not a > 3.0 * sigma_a:
        raise DegenerateFitError(
            f"modulation amplitude {a:.3g} not significant (sigma {sigma_a:.3g})"
        )
    sigma_psi0 = 0.5 * math.hypot(b11 * c2, b22 * c1 - b12 * c2) / (half * half)
    return Cos2Fit(a=a, b=c0 - half, psi0=0.5 * math.atan2(c2, c1) % math.pi,
                   sigma_psi0=sigma_psi0, sigma_a=sigma_a)
