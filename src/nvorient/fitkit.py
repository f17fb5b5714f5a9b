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
What depends on the grid and centers alone is a `FitPlan`, built and
checked once per scene (a noise study refits one scene many times).
Dips with free centers are fitted by the same projection, with
Gauss-Newton steps on t and the centers, from a plan, an input check
(`_weights`), a grid test (`_off_grid`) and a step control (`_search`) that
both fits share.

The cos^2 law is a linear fit of three terms to a dozen depths, solved by a
thin QR (modified Gram-Schmidt) on Python floats: at that size numpy's fixed
cost per call is larger than the arithmetic.
"""

from __future__ import annotations

import functools
import math
import warnings
from operator import mul
from typing import NamedTuple

import numpy as np

from . import odmrsim
from .errors import DegenerateFitError


# ---------------------------------------------------------------------------
# Multi-Lorentzian dip model
# ---------------------------------------------------------------------------

class DipEstimate(NamedTuple):
    """Fitted Lorentzian dip: center/fwhm in MHz, depth on the unit baseline."""

    center_mhz: float
    fwhm_mhz: float
    depth: float
    depth_sigma: float


INIT_FWHM_MHZ = 8.0
MAX_DIP_ITER = 200
# both dip searches (`_search`): a step of at most STEP_TOL * fwhm is the
# last; the pinned fit's Newton converges quadratically, so it leaves
# O(STEP_TOL^2).  A chi-square rise below RISE_SLACK (relative) is round-off;
# without that slack the search backtracks forever near the optimum.
# MAX_HALVINGS halvings take any step below STEP_TOL * fwhm.
STEP_TOL = 1e-5
RISE_SLACK = 1e-13
MAX_HALVINGS = 40
# the largest Newton step in t = log(fwhm): a factor e^0.5 = 1.65 either way
MAX_LOG_STEP = 0.5
# a fitted dip depth or cos^2 amplitude must exceed this many of its sigmas
SIGNIFICANT_SIGMAS = 3.0
# Depths are fractions of a unit fluorescence baseline, which float64 resolves
# only to machine epsilon: a depth or cos^2 amplitude below that is rounding.
# Without microwaves the noiseless depths are ~1e-17, and the cos^2 amplitude
# and its unweighted sigma are both below 1e-32, so a > 3*sigma_a alone can
# pass on rounding.
AMPLITUDE_FLOOR = float(np.finfo(float).eps)


class PinnedDipFit(NamedTuple):
    """Results of `fit_pinned_dips`: per-spectrum depths, with the batch as
    the leading axis, and the one fwhm the batch shares.

    `depths` and `depth_sigmas` have one column per pinned center, in the
    order the centers were given; `depth_sigmas` is None for unweighted fits.
    """

    depths: np.ndarray
    depth_sigmas: np.ndarray | None
    fwhm: float


def _fill_block(phi, prod, delta2, fwhm) -> None:
    """Refill phi's Lorentzian rows [L, dl, d2l] and prod at `fwhm` from
    delta2 (see `_Workspace`)."""
    m = prod.shape[0]
    h2 = (0.5 * fwhm) ** 2
    lor, dl = phi[1:m], phi[m:2 * m - 1]
    np.divide(h2, delta2 + h2, out=lor)
    np.multiply(lor, 1.0 - lor, out=dl)
    np.multiply(dl, 1.0 - 2.0 * lor, out=phi[2 * m - 1:])
    np.multiply(phi[:m, None], phi[None, :m], out=prod)


def _off_grid(f, centers) -> str | None:
    """None when every center lies on the grid [f[0], f[-1]] (NaN does not),
    else the grid named "[a, b] MHz", its ends in the fewest significant
    digits, from 6, that tell them apart (17 tell any two floats apart;
    equal ends print in 6)."""
    a, b = f[0], f[-1]
    if all(a <= c <= b for c in centers):
        return None
    d = next((d for d in range(6, 18) if f"{a:.{d}g}" != f"{b:.{d}g}"), 6)
    return f"[{a:.{d}g}, {b:.{d}g}] MHz"


def _weights(plan, signals, sigmas):
    """The signals as a (batch, n_f) array and their weights 1/sigma, or
    ones when `sigmas` is None.  Raises ValueError unless the signals are
    finite and on the plan's grid and the sigmas positive, finite and
    shaped like them."""
    y = np.atleast_2d(np.asarray(signals, dtype=float))
    if y.shape[1] != plan.f.size:
        raise ValueError("signals do not match the frequency grid")
    if not np.isfinite(y).all():
        raise ValueError("signals must be finite")
    if sigmas is None:
        return y, np.ones_like(y)
    sig = np.atleast_2d(np.asarray(sigmas, dtype=float))
    if sig.shape != y.shape or not 0.0 < sig.min() <= sig.max() < math.inf:  # NaN fails
        raise ValueError("sigmas must be positive, finite and shaped like the signals")
    return y, 1.0 / sig


def _inv(a):
    """np.linalg.inv, a singular `a` refused as an unusable dip fit."""
    try:
        return np.linalg.inv(a)
    except np.linalg.LinAlgError:
        raise DegenerateFitError("the dip fit's normal equations are singular") from None


class FitPlan:
    """Where both dip fits start on grid `f` at `centers`: both, checked,
    the bracket (lo, hi) = (grid step, half the grid span) in which the fits
    search the fwhm, since the grid resolves no narrower or wider dip, and
    the start `fwhm`, INIT_FWHM_MHZ clamped to it.  Raises ValueError,
    naming the centers, unless `f` is a nonempty, finite, strictly ascending
    1-D grid and `centers` a 1-D array of frequencies inside it, no two
    closer than the grid step, with at least n + 2 points for n centers."""

    def __init__(self, f, centers):
        self.f = f = odmrsim._check_grid(f)
        self.centers = centers = np.asarray(centers, dtype=float)
        if centers.ndim != 1:
            raise ValueError("dip centers must be a 1-D array of frequencies")
        listed = centers.tolist()
        named = f"dip centers {', '.join(f'{c:.3f}' for c in listed)} MHz"
        if off := _off_grid(f, listed):
            raise ValueError(f"{named} must lie inside the frequency grid {off}")
        self.n = centers.size
        if f.size < self.n + 2:
            raise ValueError("fewer data points than parameters")
        self.lo, self.hi = float((f[1:] - f[:-1]).min()), 0.5 * float(f[-1] - f[0])
        listed.sort()
        if any(b - a < self.lo for a, b in zip(listed, listed[1:])):
            raise ValueError(f"{named} must differ by at least the grid step {self.lo:g} MHz")
        self.fwhm = min(max(INIT_FWHM_MHZ, self.lo), self.hi)

    @functools.cached_property
    def block(self):
        """The pinned fit's (delta2, phi, prod): delta2 = (f - centers)^2,
        and the block phi and its products prod at the start fwhm (see
        `_Workspace`), read-only; built when a pinned fit first reads it,
        then kept."""
        delta2 = (self.f - self.centers[:, None]) ** 2
        phi = np.ones((3 * self.n + 1, self.f.size))
        prod = np.empty((self.n + 1, self.n + 1, self.f.size))
        _fill_block(phi, prod, delta2, self.fwhm)
        for a in (delta2, phi, prod):
            a.setflags(write=False)
        return delta2, phi, prod


class _Workspace:
    """The arrays of one pinned fit, allocated once and refilled in place by
    every `_project`, so that the search allocates no (batch, n_f) array:
    per spectrum, from the weights wt = 1/sigma, w = wt, w2 = wt^2, yw = wt*y
    and w2y = wt^2*y.  The fwhm is shared, so the Lorentzians depend on
    frequency alone: `phi` is one (3n+1, n_f) block [1, L_k, dl_k, d2l_k],
    with L_k the unit-peak Lorentzians at the block's fwhm, t = log(fwhm),
    dl_k = L_k(1-L_k) = (dL_k/dt)/2 and d2l_k = (1-2L_k) dl_k = (d2L_k/dt2)/4,
    and `prod` holds the pairwise products of its first n+1 rows.  Both
    start as copies of the plan's `block`; `fwhm` is the one they hold.
    `a`, `dl`, `dd` (= phi[n+1:]) and `prods` (prod as (n_f, (n+1)^2)) are
    views."""

    def __init__(self, plan, y, wt):
        n, m = plan.n, plan.n + 1
        self.delta2, phi, prod = plan.block
        self.n, self.fwhm, self.phi, self.prod = n, plan.fwhm, phi.copy(), prod.copy()
        self.a, self.dl, self.dd = self.phi[:m], self.phi[m:m + n], self.phi[m:]
        self.prods = self.prod.reshape(m * m, -1).T
        self.yw = y * wt
        self.w, self.w2, self.w2y = wt, wt * wt, self.yw * wt
        self.r, self.rw, self.jw = np.empty((3, *y.shape))
        self.aw = np.empty((y.shape[0], m, 2))


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
    would lose digits to cancellation.  Returns [chi2, r.jw, curvature, c,
    G^-1, u, Kaufman curvature, G^-1 w], the batch sums as floats.  The
    block is refilled only at a fwhm other than the one it holds."""
    if fwhm != ws.fwhm:
        _fill_block(ws.phi, ws.prod, ws.delta2, fwhm)
        ws.fwhm = fwhm
    n, w, r = ws.n, ws.w, ws.r
    m = n + 1
    ginv = _inv((ws.w2 @ ws.prods).reshape(-1, m, m))
    coef = (ginv @ (ws.w2y @ ws.a.T)[:, :, None])[:, :, 0]
    np.matmul(coef, ws.a, out=r)
    r *= w
    r -= ws.yw
    # r.dl_k and r.d2l_k; r is orthogonal to a, so r.jw is half the exact gradient
    rd = ws.dd @ np.multiply(w, r, out=ws.rw).T
    s = 2.0 * coef[:, 1:]
    jw = np.matmul(s, ws.dl, out=ws.jw)
    jw *= w
    jj = float(np.vdot(jw, jw))
    jw *= w                                 # now wt*jw, whose sums with phi[:m] are a.jw
    aw = ws.aw                              # columns a.jw and w (see `fit_pinned_dips`)
    aw[:, :, 0] = aw[:, :, 1] = jw @ ws.a.T
    aw[:, 1:, 1] += 2.0 * rd[:n].T
    gw = ginv @ aw
    # the quadratic forms (a.jw).G^-1(a.jw) and w.G^-1 w, summed over the batch
    kaufman = jj - float(np.vdot(aw[:, :, 0], gw[:, :, 0]))
    exact = jj + 2.0 * float(np.vdot(s.T, rd[n:])) - float(np.vdot(aw[:, :, 1], gw[:, :, 1]))
    return [float(np.vdot(r, r)), float(np.vdot(s.T, rd[:n])), exact if exact > 0.0 else kaufman,
            coef, ginv, gw[:, :, 0], kaufman, gw[:, :, 1]]


def _search(project, propose, x):
    """The step control of both dip fits, from x, the fwhm or an array that
    starts with it: `project(x)` gives a state that starts with the
    chi-square, `propose(state, x)` a step and, if it is the last (at most
    STEP_TOL * fwhm), the state it ends in, else None.  A step is halved
    while the chi-square rises by more than RISE_SLACK; after MAX_HALVINGS
    halvings the search stops at its previous state.  Returns the last x
    and state; raises DegenerateFitError when the search has not stopped
    after MAX_DIP_ITER steps."""
    state = project(x)
    for _ in range(MAX_DIP_ITER):
        step, last = propose(state, x)
        if last is not None:
            return x + step, last
        bound = state[0] * (1.0 + RISE_SLACK)
        trial = project(x + step)
        for _ in range(MAX_HALVINGS):
            if not trial[0] > bound:
                break
            step = step * 0.5
            trial = project(x + step)
        if trial[0] > bound:
            return x, state  # the halvings ran out: keep the previous state
        x, state = x + step, trial
    raise DegenerateFitError(f"dip fit did not converge in {MAX_DIP_ITER} steps")


def _check_fwhm(plan, fwhm):
    """Refuse a fwhm on the plan's bracket, which the grid cannot resolve."""
    if not plan.lo < fwhm < plan.hi:
        raise DegenerateFitError(
            f"dip fwhm ran to the bound of [{plan.lo:g}, {plan.hi:g}] MHz set by the grid")


def fit_pinned_dips(plan: FitPlan, signals, sigmas) -> PinnedDipFit:
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
    |dt| <= MAX_LOG_STEP and to the bracket, and controlled by `_search`;
    the last is not projected: differentiating G c = a.yw gives
    dc/dt = -G^-1 w, along which c moves with an error of O(dt^2).  Depth
    sigmas are computed once, from the last projected state (see
    `_project`); depth variances do not depend on how the fwhm is
    parametrized.

    The fit runs from `plan`, the `FitPlan` of the grid and the centers, and
    searches the fwhm within its bracket, (grid step, half the grid span).
    Raises ValueError on signals or sigmas that `_weights` refuses, and
    DegenerateFitError when a normal matrix is singular, when the shared
    fwhm ends on that bracket, when the search has not stopped after
    MAX_DIP_ITER steps, or when no |depth| exceeds AMPLITUDE_FLOOR or the
    final summed Kaufman curvature is not positive: then nothing in the data
    fixes the fwhm, and the depth sigmas would divide by it.
    """
    ws = _Workspace(plan, *_weights(plan, signals, sigmas))

    def newton(state, fwhm):
        grad, curv = state[1:3]
        dt = min(max(-grad / curv, -MAX_LOG_STEP), MAX_LOG_STEP) if curv > 0.0 else 0.0
        step = min(max(fwhm + fwhm * math.expm1(dt), plan.lo), plan.hi) - fwhm
        if abs(step) > STEP_TOL * fwhm:
            return step, None
        state[3] = state[3] - state[7] * math.log1p(step / fwhm)  # the last step, closed form
        return step, state

    with np.errstate(divide="ignore", invalid="ignore"):
        fwhm, state = _search(functools.partial(_project, ws), newton, plan.fwhm)
        _check_fwhm(plan, fwhm)
        coef, ginv, u, kaufman = state[3:7]
        if not (kaufman > 0.0 and np.abs(coef[:, 1:]).max() > AMPLITUDE_FLOOR):
            raise DegenerateFitError("the data do not fix the dip fwhm (zero chi-square "
                                     "curvature in the linewidth)")
        depth_sigmas = None
        if sigmas is not None:
            m = ws.n + 1  # diag(G^-1)[1:] is entries m+1, 2(m+1), ... of each flat G^-1
            var = ginv.reshape(-1, m * m)[:, m + 1::m + 1] + u[:, 1:] ** 2 / kaufman
            depth_sigmas = np.sqrt(np.maximum(var, 0.0))
    return PinnedDipFit(depths=-coef[:, 1:], depth_sigmas=depth_sigmas, fwhm=fwhm)


def _free_project(f, yw, wt, x):
    """Variable projection for free centers at x = [fwhm, centers]: returns
    [chi2, c, step, Jacobian] of the exact weighted linear fit c of
    [baseline, -depths], whose weighted columns are a = wt*[1, L_k]; step is
    the Gauss-Newton step in [t = log(fwhm), centers] from Kaufman's Jacobian
    (I - QQ^T) d, Q an orthonormal basis of a, and the Jacobian is [a, d].
    With h = fwhm/2 and delta = f - c_k, d = dr/d(t, c) has the columns
    wt*sum_k 2 c_k L_k(1-L_k) and wt*2 c_k L_k^2 delta/h^2."""
    h2 = (0.5 * x[0]) ** 2
    delta = f - x[1:, None]
    lor = h2 / (delta * delta + h2)
    a = np.vstack([np.ones_like(f), lor]).T * wt[:, None]
    q, rr = np.linalg.qr(a)
    coef = np.linalg.solve(rr, q.T @ yw)
    r = a @ coef - yw
    s = 2.0 * coef[1:, None] * lor
    d = np.vstack([(s * (1.0 - lor)).sum(axis=0), s * lor * delta / h2]).T * wt[:, None]
    step = np.linalg.lstsq(d - q @ (q.T @ d), -r, rcond=None)[0]
    return [float(r @ r), coef, step, np.hstack([a, d])]


def fit_dips(plan: FitPlan, signal, sigma) -> list[DipEstimate]:
    """Fit n Lorentzian dips (shared fwhm, free baseline, depths and centers)
    to one spectrum, from `plan`, the `FitPlan` of its grid and the start
    centers, weighted by `sigma` unless it is None, as `fit_pinned_dips`
    fits a batch.  Baseline and depths are projected out (O'Leary & Rust,
    Comput. Optim. Appl. 54, 579 (2013)); the Gauss-Newton steps
    (`_free_project`) are scaled to |dt| <= MAX_LOG_STEP, clamped to the
    bracket and controlled by `_search`, the last projected.  Depth sigmas
    come from the full Jacobian's normal matrix, scaled by the reduced
    chi-square when unweighted.  Raises ValueError on data `_weights`
    refuses, a signal of more than one row, or a plan without centers or
    with fewer points than parameters, and DegenerateFitError when a center
    ends off the grid, the fwhm on its bracket, the normal matrix is
    singular, a depth is not above SIGNIFICANT_SIGMAS sigmas, or the search
    has not stopped after MAX_DIP_ITER steps.  Returns dips ordered by
    center; warns when two overlap.
    """
    y, wt = _weights(plan, signal, sigma)
    if len(y) != 1:
        raise ValueError(f"fit_dips fits one spectrum, not a signal of {len(y)} rows")
    f, y, wt = plan.f, y[0], wt[0]
    if plan.n == 0 or f.size < 2 * plan.n + 2:
        raise ValueError("need a dip center, and no fewer data points than parameters")
    project = functools.partial(_free_project, f, y * wt, wt)

    def gauss_newton(state, x):
        step = state[2] * (MAX_LOG_STEP / max(abs(state[2][0]), MAX_LOG_STEP))
        step[0] = min(max(x[0] * math.exp(step[0]), plan.lo), plan.hi) - x[0]
        if np.abs(step).max() > STEP_TOL * x[0]:
            return step, None
        return step, project(x + step)  # the last step, projected

    x, state = _search(project, gauss_newton, np.array([plan.fwhm, *plan.centers]))
    fwhm, centers = float(x[0]), x[1:].tolist()
    if off := _off_grid(f, centers):
        raise DegenerateFitError(f"fitted dip center left the frequency grid {off}")
    _check_fwhm(plan, fwhm)
    chi2, coef, _, jac = state
    rinv = _inv(np.linalg.qr(jac, mode="r"))
    var = (rinv[1:plan.n + 1] ** 2).sum(axis=1)
    if sigma is None:
        var *= chi2 / max(y.size - jac.shape[1], 1)
    dips = sorted((DipEstimate(c, fwhm, float(-coef[1 + k]), float(math.sqrt(var[k])))
                   for k, c in enumerate(centers)), key=lambda d: d.center_mhz)
    for d in dips:
        if not d.depth > SIGNIFICANT_SIGMAS * d.depth_sigma:
            raise DegenerateFitError(f"dip at {d.center_mhz:.3f} MHz not significant: "
                                     f"depth {d.depth:.3g}, sigma {d.depth_sigma:.3g}")
    for a, b in zip(dips, dips[1:]):
        if b.center_mhz - a.center_mhz < fwhm:
            warnings.warn("fitted dips overlap within one linewidth", stacklevel=2)
    return dips


# ---------------------------------------------------------------------------
# a*cos^2(psi - psi0) + b intensity law
# ---------------------------------------------------------------------------

class Cos2Fit(NamedTuple):
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
    (a <= SIGNIFICANT_SIGMAS * sigma_a) or below AMPLITUDE_FLOOR.
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
    if not a > SIGNIFICANT_SIGMAS * sigma_a:
        raise DegenerateFitError(
            f"modulation amplitude {a:.3g} not significant (sigma {sigma_a:.3g})"
        )
    sigma_psi0 = 0.5 * math.hypot(b11 * c2, b22 * c1 - b12 * c2) / (half * half)
    return Cos2Fit(a=a, b=c0 - half, psi0=0.5 * math.atan2(c2, c1) % math.pi,
                   sigma_psi0=sigma_psi0, sigma_a=sigma_a)
