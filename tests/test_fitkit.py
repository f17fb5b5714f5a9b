import functools
import math
import re
import warnings
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from nvorient import fitkit, geometry, odmrsim, reconstruct, spinmodel
from nvorient.errors import DegenerateFitError
from test_spinmodel import rabi_amplitudes

# ---------------------------------------------------------------------------
# The oracle: a general Levenberg-Marquardt, and the multi-Lorentzian dip
# model and its Jacobian over [baseline, fwhm, depths] and, when fitted,
# the centers.  The library fits dips by variable projection; these check it.
# ---------------------------------------------------------------------------


class FitResult(NamedTuple):
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
            # a singular system raises numpy's LinAlgError
            step = np.linalg.solve(jtj + lam * np.diag(np.maximum(np.diag(jtj), 1e-30)), -g)
            if not np.all(np.isfinite(step)):
                raise np.linalg.LinAlgError("non-finite LM step")
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



def _dip_model(params: np.ndarray, f: np.ndarray, centers) -> np.ndarray:
    # params: [baseline, fwhm, d1..dn], plus c1..cn when fitted, or a stack of
    # such rows; `centers` are those in use, shared by the rows
    n = len(centers)
    h2 = (0.5 * params[..., 1, None, None]) ** 2
    lor = h2 / ((f - np.asarray(centers)[:, None]) ** 2 + h2)
    return params[..., 0, None] - (params[..., 2:2 + n, None] * lor).sum(axis=-2)


def _dip_jacobian(params: np.ndarray, f: np.ndarray, centers) -> np.ndarray:
    # columns [baseline, fwhm, depths] and, when params carries them, centers
    n = len(centers)
    h = 0.5 * params[..., 1, None, None]
    d = params[..., 2:2 + n, None]
    delta = f - np.asarray(centers)[:, None]
    den = delta ** 2 + h * h
    # d(model)/d(fwhm) = -d * h * delta^2 / den^2, summed over dips
    cols = [np.ones_like(den[..., :1, :]),
            (-d * h * delta ** 2 / den ** 2).sum(axis=-2, keepdims=True), -h * h / den]
    if params.shape[-1] > 2 + n:
        cols.append(-d * 2.0 * h * h * delta / den ** 2)
    return np.swapaxes(np.concatenate(cols, axis=-2), -1, -2)


C = spinmodel.SpinConstants()
GRID_MHZ = reconstruct.ChainConfig().grid_mhz
STATIC = spinmodel.StaticFieldNV(10.2, math.pi / 2.0, 0.0)
MW = spinmodel.MwFieldNV(0.0357, math.pi / 2.0, math.pi / 4.0)


GRID = odmrsim.default_grid(*GRID_MHZ)


def two_dip_spectrum(shape=None):
    """The noiseless two-dip signal on `GRID`."""
    shape = shape if shape is not None else odmrsim.LineshapeParams()
    return odmrsim.simulate_spectrum(C, STATIC, MW, shape, GRID)


def fit_free(f, signal, sigma=None, centers=(2898.0, 2926.0)):
    """`fitkit.fit_dips` from the `FitPlan` of grid `f` and start `centers`."""
    return fitkit.fit_dips(fitkit.FitPlan(f, centers), signal, sigma)


def rabi_0m_0p():
    """Rabi amplitudes of the L0-Lm and L0-Lp dips of `two_dip_spectrum`."""
    eig = spinmodel.eigensystem(spinmodel.ground_hamiltonian(C, STATIC))
    om = rabi_amplitudes(eig, C, MW)
    return om.omega_0m, om.omega_0p


def numeric_jacobian(residuals, x: np.ndarray, rel_step: float = 1e-6) -> np.ndarray:
    """Central-difference Jacobian with per-parameter relative steps: the
    oracle for the analytic dip Jacobian and the Jacobian of `nls_fit` cases
    that have no closed form at hand."""
    x = np.asarray(x, dtype=float)
    r0 = np.asarray(residuals(x))
    jac = np.empty((r0.size, x.size))
    for j in range(x.size):
        h = rel_step * max(abs(x[j]), 1.0)
        xp, xm = x.copy(), x.copy()
        xp[j] += h
        xm[j] -= h
        jac[:, j] = (np.asarray(residuals(xp)) - np.asarray(residuals(xm))) / (2.0 * h)
    return jac


def nls_numeric(residuals, x0, **kwargs):
    """`nls_fit` with the finite-difference Jacobian."""
    return nls_fit(residuals, x0, lambda p: numeric_jacobian(residuals, p), **kwargs)


class TestNumericJacobian:
    def test_matches_analytic_on_polynomial(self):
        t = np.linspace(-2.0, 2.0, 30)

        def res(p):
            return p[0] * t ** 2 + p[1] * t + p[2]

        x = np.array([1.3, -0.7, 0.2])
        jac = numeric_jacobian(res, x)
        expected = np.column_stack([t ** 2, t, np.ones_like(t)])
        assert np.max(np.abs(jac - expected)) < 1e-7


class TestNlsFit:
    def test_recovers_exponential(self):
        t = np.linspace(0.0, 5.0, 60)
        truth = np.array([2.0, 0.7])
        y = truth[0] * np.exp(-truth[1] * t)
        fit = nls_numeric(lambda p: p[0] * np.exp(-p[1] * t) - y, np.array([1.0, 1.0]))
        assert fit.converged
        assert np.allclose(fit.params, truth, atol=1e-8)
        assert fit.residual_norm < 1e-8

    def test_failed_fit_reports_not_converged(self):
        # a model that cannot reduce its residual: gradient is identically zero
        y = np.linspace(0.0, 1.0, 10)
        fit = nls_numeric(lambda p: y - 0.5, np.array([1.0]), max_iter=5)
        assert not math.isnan(fit.residual_norm)
        assert isinstance(fit.converged, bool)

    def test_covariance_calibration_linear(self):
        # fitted sigmas on a linear model vs the empirical scatter of the
        # estimator across seeds
        t = np.linspace(0.0, 1.0, 40)
        truth = np.array([1.5, -0.3])
        noise = 0.05
        slopes, sigmas = [], []
        for seed in range(200):
            rng = np.random.default_rng(seed)
            y = truth[0] * t + truth[1] + noise * rng.standard_normal(t.size)
            fit = nls_numeric(lambda p: p[0] * t + p[1] - y, np.array([0.0, 0.0]))
            slopes.append(fit.params[0])
            sigmas.append(fit.sigmas[0])
        assert abs(np.mean(slopes) - truth[0]) < 0.02
        assert 0.8 < np.mean(sigmas) / np.std(slopes) < 1.2

    def test_input_validation(self):
        with pytest.raises(ValueError):
            nls_numeric(lambda p: np.zeros(1), np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            nls_numeric(lambda p: np.zeros(3), np.array([np.nan]))


class TestFitDips:
    def test_noiseless_recovery(self):
        signal = two_dip_spectrum()
        eig = spinmodel.eigensystem(spinmodel.ground_hamiltonian(C, STATIC))
        dips = fit_free(GRID, signal)
        assert len(dips) == 2
        assert abs(dips[0].center_mhz - eig.f_0m) < 0.01
        assert abs(dips[1].center_mhz - eig.f_0p) < 0.01
        assert abs(dips[0].fwhm_mhz - 8.0) < 0.05
        assert abs(dips[1].fwhm_mhz - 8.0) < 0.05
        for d in dips:
            assert 0.0 < d.depth < 0.05

    def test_depth_matches_contrast_law(self, shape):
        dips = fit_free(GRID, two_dip_spectrum())
        for d, omega in zip(dips, rabi_0m_0p()):
            assert abs(d.depth - shape.contrast(omega)) < 1e-4

    def test_noisy_recovery_within_uncertainty(self):
        noise = odmrsim.NoiseConfig(200.0, 1.0, 3)
        signal = noise.draw(two_dip_spectrum())
        dips = fit_free(GRID, signal, noise.point_sigma(signal))
        shape = odmrsim.LineshapeParams()
        for d, omega in zip(dips, rabi_0m_0p()):
            truth = shape.contrast(omega)
            assert d.depth_sigma > 0.0
            assert abs(d.depth - truth) < 5.0 * d.depth_sigma

    def test_fixed_centers_layout(self):
        # pinned depths come in the order the centers are given
        signal = two_dip_spectrum()
        eig = spinmodel.eigensystem(spinmodel.ground_hamiltonian(C, STATIC))
        fit = fitkit.fit_pinned_dips(fitkit.FitPlan(GRID, [eig.f_0m, eig.f_0p]),
                                     signal[None], None)
        swapped = fitkit.fit_pinned_dips(fitkit.FitPlan(GRID, [eig.f_0p, eig.f_0m]),
                                         signal[None], None)
        assert np.max(np.abs(swapped.depths[0] - fit.depths[0, ::-1])) < 1e-12
        free = fit_free(GRID, signal)
        assert abs(fit.depths[0, 0] - free[0].depth) < 1e-4
        assert abs(fit.depths[0, 1] - free[1].depth) < 1e-4

    def test_center_outside_grid_rejected(self):
        with pytest.raises(ValueError):
            fit_free(GRID, two_dip_spectrum(), centers=[2700.0, 2926.0])

    def test_runaway_center_fails(self, shape, grid):
        # at this MW azimuth the L0-Lm dip vanishes; under noise a free fit
        # sent its center far off the grid while reporting convergence, and
        # now the dip the free fit finds there is refused as noise
        mw = spinmodel.MwFieldNV(0.126, math.pi / 2.0, 0.0)
        noise = odmrsim.NoiseConfig(200.0, 0.008, 0)
        signal = noise.draw(odmrsim.simulate_spectrum(C, STATIC, mw, shape, grid))
        sigma = noise.point_sigma(signal)
        with pytest.raises(DegenerateFitError, match="not significant"):
            fit_free(grid, signal, sigma)
        # the same spectrum fits at the known centers
        eig = spinmodel.eigensystem(spinmodel.ground_hamiltonian(C, STATIC))
        pinned = fitkit.fit_pinned_dips(fitkit.FitPlan(grid, [eig.f_0m, eig.f_0p]),
                                        signal[None], sigma[None])
        assert np.all(np.isfinite(pinned.depths)) and np.all(pinned.depth_sigmas > 0.0)

    def test_opposite_sign_overlap_fails(self, shape, grid):
        # a noisy sweep spectrum whose free fit put two dips 0.4 MHz apart
        # with depths +0.74 and -0.65 (sigma 251) that cancel to the real dip;
        # a negative depth is never significant, so such a pair is refused
        basis = geometry.transverse_basis(geometry.crystallographic_axes()[3])
        scene = geometry.WireScene(61.0, 18.0, 40.0)
        psis = np.linspace(0.0, math.pi, 12, endpoint=False)
        _, clean = odmrsim.simulate_phi_sweep(C, basis, 10.2, geometry.mw_direction(scene),
                                              geometry.wire_field_magnitude(scene), shape, grid,
                                              psis)
        y, sigma = noisy_sweep(clean, odmrsim.NoiseConfig(200.0, 0.008, 16))
        with pytest.raises(DegenerateFitError, match="not significant"):
            fit_free(grid, y[11], sigma[11])

    def test_unconverged_fit_fails(self):
        # at 1,600 counts per point the Gauss-Newton steps on this sweep
        # spectrum swing in a two-cycle of the fwhm between 8.8547 and 8.8549
        # MHz, and the search stops at MAX_DIP_ITER steps, in a state whose
        # centers lie on the grid and whose dips are significant
        f, _, _, clean = noisy_sweeps(0, 0.008)
        y, sigma = noisy_sweep(clean, odmrsim.NoiseConfig(200.0, 0.008, 21))
        with pytest.raises(DegenerateFitError, match="^dip fit did not converge in 200 steps$"):
            fit_free(f, y[1], sigma[1])

    def test_capped_fit_names_the_data_cause(self):
        # at 400 counts per point the steps on this sweep spectrum swing in a
        # two-cycle of the fwhm between 7.3722 and 7.3727 MHz until
        # MAX_DIP_ITER; the cause is the search that did not stop, not what
        # its unfinished state shows (there a dip is not significant, a
        # cause the optimum need not share), so the data checks do not run
        f, _, _, clean = noisy_sweeps(0, 0.002)
        y, sigma = noisy_sweep(clean, odmrsim.NoiseConfig(200.0, 0.002, 3))
        with pytest.raises(DegenerateFitError, match="^dip fit did not converge in 200 steps$"):
            fit_free(f, y[2], sigma[2])

    def test_center_count_checked(self, grid):
        # no centers, or more parameters (2n + 2) than data points
        signal = two_dip_spectrum()
        for centers, f in (([], grid), ([2850.5, 2851.5], grid[:5])):
            with pytest.raises(ValueError, match="need a dip center, and no fewer data points"):
                fit_free(f, signal[:f.size], centers=centers)

    def test_signal_shape_checked(self, grid):
        # one spectrum on the plan's grid: a batch is the pinned fit's input,
        # and the free fit refuses it by name rather than fail to unpack it
        signal = two_dip_spectrum()
        fit_free(grid, signal[None])
        with pytest.raises(ValueError, match="^signals do not match the frequency grid$"):
            fit_free(grid, signal[:-1])
        with pytest.raises(ValueError, match="^fit_dips fits one spectrum, not a signal of "
                                             "2 rows$"):
            fit_free(grid, np.stack([signal, signal]))

    def test_nonfinite_signal_rejected(self, grid):
        # the pinned fit's check and message, weighted or not
        sig = np.ones_like(grid)
        sig[10] = np.nan
        for sigma in (None, odmrsim.NoiseConfig(200.0, 0.008, 0).point_sigma(sig)):
            with pytest.raises(ValueError, match="^signals must be finite$"):
                fit_free(grid, sig, sigma, centers=[2898.0])

    def test_center_left_the_grid(self):
        # a noisy sweep spectrum (1,600 counts per point) whose free fit runs
        # a center off the default grid
        f, _, _, clean = noisy_sweeps(0, 0.008)
        y, sigma = noisy_sweep(clean, odmrsim.NoiseConfig(200.0, 0.008, 0))
        with pytest.raises(DegenerateFitError, match=r"^fitted dip center left the frequency "
                                                     r"grid \[2850, 2950\] MHz$"):
            fit_free(f, y[10], sigma[10])

    def test_center_left_a_fine_grid(self):
        # a noiseless dip just past the end of a fine grid: the message names
        # the grid's ends in enough digits to tell them apart, as `FitPlan`'s
        # does (6 read [2897.9, 2897.9])
        f = odmrsim.default_grid(2897.9, 2897.902, 1e-6)
        signal = 1.0 - 0.02 * odmrsim.lorentzian(f, 2897.9025, 5e-4)
        with pytest.raises(DegenerateFitError, match=r"^fitted dip center left the frequency "
                                                     r"grid \[2897\.9, 2897\.902\] MHz$"):
            fit_free(f, signal, centers=[2897.9015])

    def test_overlapping_dips_warn(self, grid):
        sig = (1.0
               - 0.02 * odmrsim.lorentzian(grid, 2899.0, 8.0)
               - 0.02 * odmrsim.lorentzian(grid, 2902.0, 8.0))
        with pytest.warns(UserWarning):
            fit_free(grid, sig, centers=[2899.0, 2902.0])

    def test_noiseless_fwhm(self, shape):
        # the free fit ends on the simulated linewidth of a noiseless spectrum
        for dip in fit_free(GRID, two_dip_spectrum()):
            assert abs(dip.fwhm_mhz - shape.fwhm_mhz) < 1e-9

    @pytest.mark.parametrize("sigmas, found", [(4.0, True), (2.0, False)])
    def test_injected_dip_significance(self, grid, sigmas, found):
        # a weak dip next to a strong one in a noiseless spectrum weighted by
        # the shot noise of 1,600 counts per point, its depth a given number
        # of the sigma the fit reports for a depth of 0.05 there (the sigma
        # moves by a few percent with the depth): found at 4, refused at 2
        noise = odmrsim.NoiseConfig(200.0, 0.008, 0)

        def spectrum(depth):
            sig = (1.0 - depth * odmrsim.lorentzian(grid, 2898.3, 8.0)
                   - 0.05 * odmrsim.lorentzian(grid, 2926.4, 8.0))
            return sig, noise.point_sigma(sig)

        sigma = fit_free(grid, *spectrum(0.05))[0].depth_sigma
        spec = spectrum(sigmas * sigma)
        if found:
            weak = fit_free(grid, *spec)[0]
            assert abs(weak.center_mhz - 2898.3) < 1e-6
            assert abs(weak.depth - sigmas * sigma) < 1e-9
            assert weak.depth > 3.0 * weak.depth_sigma
        else:
            with pytest.raises(DegenerateFitError, match="dip at 2898.300 MHz not significant"):
                fit_free(grid, *spec)

    def test_returned_dips_are_significant(self):
        fits = [dips for _, dips, _ in free_fits() if dips is not None]
        assert len(fits) >= 20
        assert all(d.depth > 3.0 * d.depth_sigma for dips in fits for d in dips)

    def test_returned_fit_is_a_minimum(self):
        # LM started at each returned fit and run to a relative drop of
        # 1e-15 finds no lower chi-square beyond round-off
        for spec, dips, _ in free_fits():
            if dips is None:
                continue
            chi2, base = free_chi2(spec, dips)
            x0 = np.array([base, dips[0].fwhm_mhz, *(d.depth for d in dips),
                           *(d.center_mhz for d in dips)])
            ref = lm_free(spec, x0, tol=1e-15, max_iter=2000)
            assert ref.residual_norm ** 2 > chi2 * (1.0 - 1e-9)

    def test_never_worse_than_lm(self):
        # where LM from the start the library used before variable projection
        # also returns a fit, the free fit's chi-square is not higher
        both = 0
        for spec, dips, lm in free_fits():
            if dips is not None and lm is not None:
                both += 1
                assert free_chi2(spec, dips)[0] <= lm.residual_norm ** 2 * (1.0 + 1e-9)
        assert both >= 20


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def noisy_sweep(clean, noise):
    """(signals, sigmas), both (n_psi, n_f), of one noisy copy of the lone
    sweep `clean` drawn with `noise`."""
    noisy, sigmas = odmrsim.noisy_copy_with_subseed(clean[None], noise)
    return noisy[0], sigmas[0]


def noisy_sweeps(n_sweeps, dwell_s, nv_index=3, first_seed=0):
    """Signals and sigmas (12, n_f) of seeded noisy sweeps at (61, 18) um,
    the sweep's grid and dip centers, and its noiseless signals; sweep i
    has subseed first_seed + i."""
    basis = geometry.transverse_basis(geometry.crystallographic_axes()[nv_index])
    scene = geometry.WireScene(61.0, 18.0, 40.0)
    grid = odmrsim.default_grid(*GRID_MHZ)
    centers, clean = odmrsim.simulate_phi_sweep(
        C, basis, 10.2, geometry.mw_direction(scene), geometry.wire_field_magnitude(scene),
        odmrsim.LineshapeParams(), grid, np.linspace(0.0, math.pi, 12, endpoint=False))
    runs = [noisy_sweep(clean, odmrsim.NoiseConfig(200.0, dwell_s, seed))
            for seed in range(first_seed, first_seed + n_sweeps)]
    return grid, np.array(centers), runs, clean


def lm_free(spec, x0, **kwargs):
    """Reference: Levenberg-Marquardt on the free-center dip model, with
    parameters [baseline, fwhm, depths, centers], on a spectrum (f, y,
    sigma), weighted by its shot-noise sigma unless that is None."""
    (f, y, sigma), n = spec, (len(x0) - 2) // 2
    s = np.ones_like(y) if sigma is None else sigma
    return nls_fit(lambda p: (_dip_model(p, f, p[2 + n:]) - y) / s, x0,
                   lambda p: _dip_jacobian(p, f, p[2 + n:]) / s[:, None],
                   scale_covariance=sigma is None, **kwargs)


def lm_free_dips(spec, init_centers):
    """Reference: the Levenberg-Marquardt free-center fit the library ran
    before variable projection, from the same start (the median baseline,
    depths read off the spectrum at the initial centers, fwhm INIT_FWHM_MHZ)
    and with the same stop, 200 steps or a relative drop of 1e-12.  Its
    result, or None where that fit raised: when it did not converge, a
    center left the grid, or two dips within a linewidth had depths of
    opposite sign."""
    f, y, _ = spec
    base = float(np.median(y))
    depths = [max(base - float(np.interp(c, f, y)), 1e-4) for c in init_centers]
    fit = lm_free(spec, np.array([base, fitkit.INIT_FWHM_MHZ, *depths, *init_centers]),
                  max_iter=fitkit.MAX_DIP_ITER, tol=1e-12)
    n = len(init_centers)
    centers, depths = fit.params[2 + n:], fit.params[2:2 + n]
    order = np.argsort(centers)
    opposite = any(abs(centers[j] - centers[i]) < abs(fit.params[1])
                   and depths[i] * depths[j] < 0.0 for i, j in zip(order, order[1:]))
    inside = np.all((centers >= f[0]) & (centers <= f[-1]))
    return fit if fit.converged and inside and not opposite else None


def free_chi2(spec, dips):
    """Chi-square and baseline of the weighted linear fit of baseline and
    depths at the fitted fwhm and centers of `dips`."""
    f, y, sigma = spec
    w = np.ones_like(f) if sigma is None else 1.0 / sigma
    design = np.column_stack([np.ones_like(f)] + [
        -odmrsim.lorentzian(f, d.center_mhz, d.fwhm_mhz) for d in dips]) * w[:, None]
    coef = np.linalg.lstsq(design, y * w, rcond=None)[0]
    r = design @ coef - y * w
    return float(r @ r), float(coef[0])


@functools.cache
def free_fits():
    """(spectrum (f, y, sigma), free fit or None, `lm_free_dips` or None) for every
    spectrum of 10 noisy sweeps of NV 3 at (61, 18) um at 1,600 and at 400
    counts per point, both fits started at 2898 and 2926 MHz."""
    out = []
    for dwell_s in (0.008, 0.002):
        f, _, runs, _ = noisy_sweeps(10, dwell_s)
        for signals, sigmas in runs:
            for y, sigma in zip(signals, sigmas):
                spec = (f, y, sigma)
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    try:
                        dips = fit_free(*spec)
                    except DegenerateFitError:
                        dips = None
                out.append((spec, dips, lm_free_dips(spec, [2898.0, 2926.0])))
    return out


def lm_pinned(f, y, sigma, centers):
    """Reference: Levenberg-Marquardt on the model of `fit_pinned_dips`, a
    baseline and depths per spectrum and one shared fwhm, with parameters
    [baseline_1..baseline_R, fwhm, depths_1..depths_R], started where the
    pinned fit starts.  At 400 counts per point LM crawls: fitting one
    spectrum at a time and stopped at 200 steps or a relative drop of 1e-12,
    it ended short of the optimum on 5 of 600 spectra (depths 5e-5 away), so
    it runs to 1e-15."""
    rows, n = y.shape[0], len(centers)
    base = np.median(y, axis=1)
    x0 = np.concatenate([base, [fitkit.INIT_FWHM_MHZ],
                         [max(b - float(np.interp(c, f, yk)), 1e-4)
                          for b, yk in zip(base, y) for c in centers]])
    w = np.ones_like(y) if sigma is None else 1.0 / sigma
    # the columns of spectrum k's [baseline, fwhm, depths] in the parameters
    index = [[k, rows, *range(rows + 1 + n * k, rows + 1 + n * (k + 1))] for k in range(rows)]

    rows_ix, cols_ix = np.arange(rows)[:, None], np.array(index)

    def residuals(p):
        return ((_dip_model(p[cols_ix], f, centers) - y) * w).ravel()

    def jacobian(p):
        jac = np.zeros((rows, f.size, p.size))
        block = _dip_jacobian(p[cols_ix], f, centers) * w[:, :, None]
        jac[rows_ix, :, cols_ix] = np.swapaxes(block, 1, 2)
        return jac.reshape(y.size, p.size)

    fit = nls_fit(residuals, x0, jacobian, max_iter=2000, tol=1e-15,
                         scale_covariance=sigma is None)
    return fit, index


def linear_fit_at(f, y, sigma, centers, fwhm):
    """Reference: depths and chi-square of the weighted linear least-squares
    fit of baseline and depths at a given fwhm."""
    w = np.ones_like(y) if sigma is None else 1.0 / sigma
    design = np.column_stack([np.ones_like(f)]
                             + [-odmrsim.lorentzian(f, c, fwhm) for c in centers]) * w[:, None]
    coef = np.linalg.lstsq(design, y * w, rcond=None)[0]
    r = design @ coef - y * w
    return coef[1:], float(r @ r)


def summed_chi2(f, centers, fwhms):
    """Reference for two pinned dips: a function of (signals, sigmas) that
    gives, at each of the given fwhms, the chi-square of the weighted linear
    fits of baseline and depths summed over the spectra.  The baseline is
    eliminated by weighted centering and the depths' 2x2 normal equations
    are solved in closed form, for every (fwhm, spectrum) pair at once."""
    l1, l2 = (odmrsim.lorentzian(f, c, fwhms[:, None]) for c in centers)
    lor = np.concatenate([l1, l2])
    products = np.concatenate([l1 * l1, l1 * l2, l2 * l2])

    def chi2(y, sigma):
        w2 = sigma ** -2.0
        sw, swy = w2.sum(axis=1), (w2 * y).sum(axis=1)
        m1, m2 = (lor @ w2.T).reshape(2, fwhms.size, -1)
        t1, t2 = (lor @ (w2 * y).T).reshape(2, fwhms.size, -1) - np.array([m1, m2]) * swy / sw
        s11, s12, s22 = ((products @ w2.T).reshape(3, fwhms.size, -1)
                         - np.array([m1 * m1, m1 * m2, m2 * m2]) / sw)
        explained = (s22 * t1 * t1 - 2.0 * s12 * t1 * t2 + s11 * t2 * t2) / (s11 * s22 - s12 * s12)
        return float(np.sum(w2 * y * y) - np.sum(swy * swy / sw)) - explained.sum(axis=1)

    return chi2


class TestFitPinnedDips:
    # 1,600 and 400 counts per point (200 kcps x 8 and 2 ms)
    @pytest.mark.parametrize("weighted, dwell_s", [(True, 0.008), (False, 0.008), (True, 0.002)],
                             ids=["weighted", "unweighted", "weighted-400-counts"])
    def test_matches_lm(self, weighted, dwell_s):
        # same optimum as LM on the shared-fwhm model from the same start,
        # never a worse chi-square
        f, centers, runs, _ = noisy_sweeps(50, dwell_s)
        plan = fitkit.FitPlan(f, centers)
        for y, sig in runs:
            s = sig if weighted else None
            fit = fitkit.fit_pinned_dips(plan, y, s)
            assert (fit.depth_sigmas is None) == (not weighted)
            ref, index = lm_pinned(f, y, s, centers)
            assert abs(fit.fwhm - ref.params[y.shape[0]]) < 1e-6 * fit.fwhm
            chi2 = 0.0
            for k, ix in enumerate(index):
                depths, chi2_k = linear_fit_at(f, y[k], None if s is None else s[k], centers,
                                               fit.fwhm)
                chi2 += chi2_k
                assert np.max(np.abs(fit.depths[k] - depths)) < 1e-12
                assert np.max(np.abs(fit.depths[k] - ref.params[ix[2:]])) < 1e-6
                if weighted:
                    assert np.max(np.abs(fit.depth_sigmas[k] / ref.sigmas[ix[2:]] - 1.0)) < 1e-4
            assert chi2 <= ref.residual_norm ** 2 * (1.0 + 1e-12)

    def test_batch_independence(self):
        # the order of the spectra changes nothing, and a one-row batch is
        # the fit of that spectrum alone, passed as a 1-D array
        # (1,600 and 400 counts per point)
        f, centers, runs, _ = noisy_sweeps(3, 0.008)
        runs += noisy_sweeps(3, 0.002)[2]
        perm = np.roll(np.arange(12)[::-1], 5)
        plan = fitkit.FitPlan(f, centers)
        for y, sig in runs:
            batch = fitkit.fit_pinned_dips(plan, y, sig)
            shuffled = fitkit.fit_pinned_dips(plan, y[perm], sig[perm])
            assert abs(shuffled.fwhm - batch.fwhm) < 1e-12
            assert np.max(np.abs(shuffled.depths - batch.depths[perm])) < 1e-12
            assert np.max(np.abs(shuffled.depth_sigmas - batch.depth_sigmas[perm])) < 1e-12
            for k in range(y.shape[0]):
                one = fitkit.fit_pinned_dips(plan, y[k:k + 1], sig[k:k + 1])
                single = fitkit.fit_pinned_dips(plan, y[k], sig[k])
                assert abs(one.fwhm - single.fwhm) < 1e-12
                assert np.max(np.abs(one.depths - single.depths)) < 1e-12
                assert np.max(np.abs(one.depth_sigmas - single.depth_sigmas)) < 1e-12

    def test_noiseless_recovers_simulated_lineshape(self, shape):
        f, centers, _, clean = noisy_sweeps(0, 0.008)
        fit = fitkit.fit_pinned_dips(fitkit.FitPlan(f, centers), clean, None)
        assert abs(fit.fwhm - shape.fwhm_mhz) < 1e-9
        for s in clean:
            assert linear_fit_at(f, s, None, centers, fit.fwhm)[1] < 1e-20

    def test_linewidth_bound_at_low_counts(self):
        # 100 counts per point: LM let 9% of these fits run to fwhm up to 2e16
        # MHz; a pinned fit of one spectrum must either stay in [grid step,
        # half span] or raise, and no sweep's shared fwhm runs to the bracket
        f, centers, runs, _ = noisy_sweeps(40, 0.0005)
        lo, hi = 0.5, 50.0  # the default grid's step and half span
        plan = fitkit.FitPlan(f, centers)
        assert (plan.lo, plan.hi) == (lo, hi)
        raised, fwhms = 0, []
        for y, sig in runs:
            for k in range(y.shape[0]):
                try:
                    fit = fitkit.fit_pinned_dips(plan, y[k:k + 1], sig[k:k + 1])
                except DegenerateFitError:
                    raised += 1
                    continue
                fwhms.append(fit.fwhm)
        assert lo < min(fwhms) and max(fwhms) < hi
        assert raised > 0
        for y, sig in runs:
            assert lo < fitkit.fit_pinned_dips(plan, y, sig).fwhm < hi

    def test_shared_fwhm_is_global_minimum(self):
        # 100 counts per point: the search must not stop in a local minimum;
        # the oracle is the summed chi-square on a dense log grid over the bracket
        f, centers, runs, _ = noisy_sweeps(200, 0.0005)
        plan = fitkit.FitPlan(f, centers)
        grid = np.geomspace(plan.lo, plan.hi, 600)
        on_grid = summed_chi2(f, centers, grid)
        for y, sig in runs:
            fit = fitkit.fit_pinned_dips(plan, y, sig)
            at_fit = summed_chi2(f, centers, np.array([fit.fwhm]))(y, sig)[0]
            assert at_fit <= np.min(on_grid(y, sig)) * (1.0 + 1e-9)

    def test_depth_bias_at_400_counts(self):
        # a linewidth fitted per spectrum biased the deepest depths by
        # +1.4..+6.2% at 400 counts per point; the shared one stays within 2%
        f, centers, runs, clean = noisy_sweeps(1000, 0.002, first_seed=10_000)
        plan = fitkit.FitPlan(f, centers)
        truth = fitkit.fit_pinned_dips(plan, clean, None).depths[:, 1]
        deepest = np.argsort(truth)[-6:]
        depths = np.array([fitkit.fit_pinned_dips(plan, y, sig).depths[deepest, 1]
                           for y, sig in runs])
        assert np.max(np.abs(depths.mean(axis=0) / truth[deepest] - 1.0)) < 0.02

    def test_projection_derivatives(self):
        # oracle for `_project` at 1,600 counts per point, away from and near
        # the optimum: the summed gradient r.jw and exact curvature are half
        # the first and second derivatives of the summed chi-square in
        # t = log(fwhm), and -G^-1 w, with which the last Newton step moves
        # the fit in closed form, is dc/dt; both checked against central
        # differences (the Kaufman value differs from the curvature by ~10%)
        f, centers, runs, _ = noisy_sweeps(2, 0.008)
        h = 1e-3
        for y, sig in runs:
            ws = fitkit._Workspace(fitkit.FitPlan(f, centers), y, 1.0 / sig)
            for fwhm in (5.0, 8.0, 12.0):
                state = fitkit._project(ws, fwhm)
                chi2, grad, curv = state[:3]
                fwhms = fwhm * np.exp([-h, 0.0, h])
                down, mid, up = summed_chi2(f, centers, fwhms)(y, sig)
                assert abs(chi2 / mid - 1.0) < 1e-12
                assert abs(grad - (up - down) / (4.0 * h)) < 1e-5 * curv
                assert abs(curv / ((up - 2.0 * mid + down) / (2.0 * h * h)) - 1.0) < 1e-5
                # the fit's columns are [baseline, -depths], so d(depths)/dt = G^-1 w
                depths = [np.array([linear_fit_at(f, y[k], sig[k], centers, fw)[0]
                                    for k in range(y.shape[0])]) for fw in fwhms]
                ddepths_dt = (depths[2] - depths[0]) / (2.0 * h)
                gw = state[7][:, 1:]
                assert np.max(np.abs(ddepths_dt - gw)) < 1e-5 * np.max(np.abs(gw))

    def test_projections_per_fit(self, monkeypatch):
        # Newton on one shared log(fwhm) with exact curvature, its last step
        # taken in closed form: about 2.8 projections per 12-spectrum sweep
        # at 1,600 counts per point (projecting that step too took 3.6, a
        # linewidth per spectrum 4.8, the secant search on the raw fwhm 7.6)
        f, centers, runs, _ = noisy_sweeps(50, 0.008)
        project, calls = fitkit._project, []

        def counted(*args):
            calls[-1] += 1
            return project(*args)

        monkeypatch.setattr(fitkit, "_project", counted)
        for y, sig in runs:
            calls.append(0)
            fitkit.fit_pinned_dips(fitkit.FitPlan(f, centers), y, sig)
        assert max(calls) <= 4
        assert np.mean(calls) <= 3.0

    def test_prebuilt_plan_changes_nothing(self, monkeypatch):
        # one plan serves every fit on its grid and centers, bit for bit what
        # a fit that builds its own plan gives, and no fit changes it; a
        # fresh plan holds no pinned block (a free fit reads none) until a
        # pinned fit reads it, and then keeps the one it built
        with monkeypatch.context() as patched:
            patched.delattr(fitkit.FitPlan, "block")
            fit_free(GRID, two_dip_spectrum())
        f, centers, runs, clean = noisy_sweeps(4, 0.008)
        runs += noisy_sweeps(4, 0.002)[2]
        (y0, s0), (y1, s1) = runs[:2]
        stacked = np.concatenate([y0, y1[:7]]), np.concatenate([s0, s1[:7]])
        runs += [(clean, None), stacked]
        plan = fitkit.FitPlan(f, centers)
        assert "block" not in vars(plan)
        fitkit.fit_pinned_dips(plan, *runs[0])
        block = vars(plan)["block"]
        built = [a.copy() for a in block]
        for y, sig in runs:
            own = fitkit.fit_pinned_dips(fitkit.FitPlan(f, centers), y, sig)
            shared = fitkit.fit_pinned_dips(plan, y, sig)
            assert own.fwhm == shared.fwhm
            assert same_bits(own.depths, shared.depths)
            assert (sig is None and shared.depth_sigmas is None
                    or same_bits(own.depth_sigmas, shared.depth_sigmas))
        assert plan.block is block
        for a, b in zip(block, built):
            assert same_bits(a, b)
            with pytest.raises(ValueError, match="read-only"):
                a[0, 0] = 0.0

    def test_block_follows_requested_fwhm(self):
        # the plan's block holds its start fwhm of 8 MHz; one workspace
        # projected at 8 -> 9 -> 8 MHz gives, bit for bit, what a new one
        # gives at each fwhm, and the chi-square of the linear fits there: a
        # block is reused only at the fwhm it holds, never left stale
        f, centers, runs, _ = noisy_sweeps(1, 0.008)
        y, sig = runs[0]
        plan = fitkit.FitPlan(f, centers)
        assert plan.fwhm == fitkit.INIT_FWHM_MHZ == 8.0
        ws = fitkit._Workspace(plan, y, 1.0 / sig)
        for fwhm in (8.0, 9.0, 8.0):
            again = fitkit._project(ws, fwhm)
            fresh = fitkit._project(fitkit._Workspace(plan, y, 1.0 / sig), fwhm)
            assert all(same_bits(a, b) for a, b in zip(again, fresh))
            chi2 = sum(linear_fit_at(f, y[k], sig[k], centers, fwhm)[1] for k in range(y.shape[0]))
            assert abs(again[0] / chi2 - 1.0) < 1e-12

    @pytest.mark.parametrize("weighted", [True, False], ids=["weighted", "unweighted"])
    def test_all_zero_batch_raises(self, weighted):
        # every signal 0 (as a draw at 1e-15 counts per point gives): no dip
        # has depth, so the chi-square has no curvature in the fwhm, and the
        # depth sigmas would divide by it
        f, centers, runs, _ = noisy_sweeps(1, 0.008)
        sig = runs[0][1] if weighted else None
        with pytest.raises(DegenerateFitError, match="do not fix the dip fwhm"):
            fitkit.fit_pinned_dips(fitkit.FitPlan(f, centers), np.zeros_like(runs[0][0]), sig)

    @pytest.mark.parametrize("weighted", [True, False], ids=["weighted", "unweighted"])
    def test_flat_batch_raises(self, weighted):
        # no dip at all: the fitted depths are rounding (|depth| <= 9.5e-17),
        # on which the search once settled at a fwhm of 6.94 MHz; only a
        # |depth| above AMPLITUDE_FLOOR fixes the fwhm
        f = odmrsim.default_grid(*GRID_MHZ)
        y = np.ones((12, f.size))
        with pytest.raises(DegenerateFitError, match="do not fix the dip fwhm"):
            fitkit.fit_pinned_dips(fitkit.FitPlan(f, [2898.0, 2926.0]), y,
                                   np.full_like(y, 0.025) if weighted else None)

    def test_input_validation(self):
        f, centers, runs, _ = noisy_sweeps(1, 0.008)
        y, sig = runs[0]
        plan = fitkit.FitPlan(f, centers)
        with pytest.raises(ValueError, match="^signals do not match the frequency grid$"):
            fitkit.fit_pinned_dips(plan, y[:, :-1], None)
        for bad_sigma in (0.0, -1e-3, np.nan, np.inf):
            bad = sig.copy()
            bad[5, 7] = bad_sigma
            with pytest.raises(ValueError, match="sigmas must be positive, finite"):
                fitkit.fit_pinned_dips(plan, y, bad)
        with pytest.raises(ValueError):
            fitkit.fit_pinned_dips(plan, y, np.zeros_like(sig))
        with pytest.raises(ValueError):
            fitkit.FitPlan(f, [2700.0, centers[1]])
        # one bad point would stall the linewidth every spectrum shares
        bad = y.copy()
        bad[3, 10] = np.nan
        with pytest.raises(ValueError, match="^signals must be finite$"):
            fitkit.fit_pinned_dips(plan, bad, sig)
        # a scalar and a 2-D array of centers used to raise a TypeError and
        # numpy's ambiguous-truth-value error
        for bad_centers in (2900.0, [[2900.0, 2910.0]]):
            with pytest.raises(ValueError, match="dip centers must be a 1-D array"):
                fitkit.FitPlan(f, bad_centers)

    @pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
    def test_more_than_two_dimensions_rejected(self, weighted):
        # a (1, n_f, 3) signal passed the grid check on its second axis, and
        # both fits failed in numpy's matmul or solve; a stack of sweeps is
        # reshaped to rows by `reconstruct.sweep_lp_depths`, not here
        f, centers, _, _ = noisy_sweeps(0, 0.008)
        plan = fitkit.FitPlan(f, centers)
        for y in (np.ones((1, f.size, 3)), np.ones((2, 1, f.size))):
            sigma = np.full(y.shape, 0.01) if weighted else None
            with pytest.raises(ValueError, match="^signals do not match the frequency grid$"):
                fitkit.fit_pinned_dips(plan, y, sigma)
            with pytest.raises(ValueError, match="^signals do not match the frequency grid$"):
                fitkit.fit_dips(plan, y, sigma)

    def test_singular_normal_equations_raise(self):
        # sigmas of 1e200 are valid, but their squared weights underflow to 0,
        # so every spectrum's normal matrix is 0; numpy's "Singular matrix"
        # once escaped as its own error class
        f, centers, runs, _ = noisy_sweeps(1, 0.008)
        y = runs[0][0]
        with pytest.raises(DegenerateFitError, match="^the dip fit's normal equations are "
                                                     "singular$"):
            fitkit.fit_pinned_dips(fitkit.FitPlan(f, centers), y, np.full_like(y, 1e200))

    # each grid used to be fitted, or to fail with some other error: a repeated
    # point made the fwhm bracket start at 0, a descending grid put the centers
    # "outside" it, a NaN ran the fwhm to a NaN bound, and a 2-D grid broke a
    # broadcast
    @pytest.mark.parametrize("bad, match", [
        (lambda f: np.concatenate([f[:100], f[99:200]]), "strictly ascending"),
        (lambda f: f[::-1], "strictly ascending"),
        (lambda f: np.where(np.arange(f.size) == 50, np.nan, f), "strictly ascending"),
        (lambda f: f[None], "1-D array"),
    ], ids=["duplicate", "descending", "nan", "2-D"])
    def test_bad_grid_rejected(self, bad, match):
        f, centers, runs, _ = noisy_sweeps(1, 0.008)
        y, sig = runs[0]
        with pytest.raises(ValueError, match=match):
            fitkit.fit_pinned_dips(fitkit.FitPlan(bad(f), centers), y, sig)

    def test_grid_shorter_than_the_parameters_rejected(self):
        # two centers, a baseline and a linewidth are four parameters on three points
        with pytest.raises(ValueError, match="^fewer data points than parameters$"):
            fitkit.FitPlan(np.array([2850.0, 2850.5, 2851.0]), [2850.0, 2851.0])

    def test_center_check_bounds(self):
        # centers exactly on the grid's ends are inside it; NaN is not; the
        # message names the centers and the grid's ends, in the fewest
        # significant digits, from 6, that tell them apart (the fine grid's
        # read [2897.9, 2897.9]); centers closer than the grid step, whose
        # Lorentzian columns the grid cannot tell apart, are refused by name,
        # in any order
        f = odmrsim.default_grid(*GRID_MHZ)
        fitkit.FitPlan(f, [f[0], f[-1]])
        fitkit.FitPlan(f, [2898.5, 2926.0, 2898.0])
        below, above = np.nextafter(f[0], -np.inf), np.nextafter(f[-1], np.inf)
        for centers in ([np.nan, 2900.0], [2900.0, np.nan], [below, 2900.0], [2900.0, above]):
            with pytest.raises(ValueError, match="inside the frequency grid"):
                fitkit.FitPlan(f, centers)
        for grid, centers, named, ends in (
                (f, [2700.0, 2926.0], "2700.000, 2926.000", "2850, 2950"),
                (odmrsim.default_grid(2897.9, 2897.902, 1e-7), [2898.0], "2898.000",
                 "2897.9, 2897.902"),
                (np.array([1.0, np.nextafter(1.0, 2.0)]), [2898.0], "2898.000",
                 "1, 1.0000000000000002"),
                (np.array([2850.0]), [2898.0], "2898.000", "2850, 2850")):
            with pytest.raises(ValueError, match=rf"^dip centers {named} MHz must lie inside the "
                                                 rf"frequency grid \[{re.escape(ends)}\] MHz$"):
                fitkit.FitPlan(grid, centers)
        for centers, named in (([2898.0, 2898.0], "2898.000, 2898.000"),
                               ([2898.4, 2926.0, 2898.0], "2898.400, 2926.000, 2898.000")):
            with pytest.raises(ValueError, match=rf"^dip centers {named} MHz must differ by at "
                                                 r"least the grid step 0\.5 MHz$"):
                fitkit.FitPlan(f, centers)

    def test_fwhm_bracket_on_nonuniform_grid(self):
        # (the smallest step, half the span), wherever the smallest step lies
        f = np.array([2850.0, 2851.0, 2851.25, 2853.0, 2860.0])
        plan = fitkit.FitPlan(f, [2855.0])
        lo, hi = plan.lo, plan.hi
        assert (lo, hi) == (0.25, 5.0)
        assert type(lo) is float and type(hi) is float


@pytest.mark.parametrize("fit", ["pinned", "free"])
@pytest.mark.parametrize("fwhm, cap, match", [
    (6.0, 2, "^dip fit did not converge in 2 steps$"),
    (150.0, None, r"^dip fwhm ran to the bound of \[0.5, 50\] MHz set by the grid$"),
], ids=["iteration-cap", "wide-dips"])
def test_search_refusals(monkeypatch, fit, fwhm, cap, match):
    # both dip fits run one step control and share its refusals: a search
    # still stepping after MAX_DIP_ITER steps (here 2: from the 8 MHz start
    # a 6 MHz dip takes more), and a fwhm that ends on the bracket, as for
    # dips wider than half the grid span; without the cap both fits converge
    signal = two_dip_spectrum(odmrsim.LineshapeParams(fwhm_mhz=fwhm))
    eig = spinmodel.eigensystem(spinmodel.ground_hamiltonian(C, STATIC))

    def run():
        if fit == "pinned":
            plan = fitkit.FitPlan(GRID, [eig.f_0m, eig.f_0p])
            return fitkit.fit_pinned_dips(plan, signal, None).fwhm
        return fit_free(GRID, signal)[0].fwhm_mhz

    if cap is not None:
        with monkeypatch.context() as patched:
            patched.setattr(fitkit, "MAX_DIP_ITER", cap)
            with pytest.raises(DegenerateFitError, match=match):
                run()
        assert abs(run() - fwhm) < 1e-9
    else:
        with pytest.raises(DegenerateFitError, match=match):
            run()


class TestDipJacobian:
    # layouts: [baseline, fwhm, d1, d2] with pinned centers, and the same
    # followed by the fitted centers c1, c2
    @pytest.mark.parametrize("x", [[1.0, 8.0, 0.01, 0.02],
                                   [1.0, 8.0, 0.01, 0.02, 2898.2, 2926.4]],
                             ids=["pinned", "free"])
    def test_matches_numeric(self, x):
        signal, f = two_dip_spectrum(), GRID
        x = np.array(x)
        centers_of = (lambda p: p[4:]) if x.size > 4 else (lambda p: np.array([2897.5, 2927.0]))
        jac_num = numeric_jacobian(
            lambda p: _dip_model(p, f, centers_of(p)) - signal, x)
        jac_ana = _dip_jacobian(x, f, centers_of(x))
        assert jac_ana.shape == (f.size, x.size)
        assert float(np.max(np.abs(jac_num - jac_ana))) < 1e-6
        # a stack of rows on the same centers, as `lm_pinned` passes, gives
        # each row's model and Jacobian
        other = x.copy()
        other[:4] = [0.9, 6.0, 0.03, 0.005]
        stack = np.array([x, other])
        for got, one in ((_dip_model(stack, f, centers_of(x)), _dip_model),
                         (_dip_jacobian(stack, f, centers_of(x)), _dip_jacobian)):
            assert all(np.array_equal(g, one(row, f, centers_of(x))) for g, row in zip(got, stack))


class TestFitCos2:
    PSIS = np.linspace(0.0, math.pi, 12, endpoint=False)

    def model(self, a, b, psi0):
        return a * np.cos(self.PSIS - psi0) ** 2 + b

    def test_exact_recovery(self):
        fit = fitkit.fit_cos2(self.PSIS, self.model(0.8, 0.1, 1.2))
        assert abs(fit.a - 0.8) < 1e-9
        assert abs(fit.b - 0.1) < 1e-9
        assert abs(fit.psi0 - 1.2) < 1e-9

    def test_psi0_reported_in_half_turn(self):
        for psi0 in (0.05, 1.0, 2.0, 3.1):
            fit = fitkit.fit_cos2(self.PSIS, self.model(1.0, 0.0, psi0))
            assert 0.0 <= fit.psi0 < math.pi
            d = abs(fit.psi0 - (psi0 % math.pi))
            assert min(d, math.pi - d) < 1e-8

    def test_shift_equivariance(self):
        base = fitkit.fit_cos2(self.PSIS, self.model(0.6, 0.2, 0.4))
        shift = 0.7
        shifted = fitkit.fit_cos2(self.PSIS + shift, 0.6 * np.cos(self.PSIS - 0.4) ** 2 + 0.2)
        d = abs(shifted.psi0 - (base.psi0 + shift) % math.pi)
        assert min(d, math.pi - d) < 1e-8

    def test_weighted_noisy_recovery(self):
        rng = np.random.default_rng(31)
        sigma = 0.02
        errs, sig_psi0 = [], []
        for _ in range(100):
            y = self.model(0.5, 0.05, 0.9) + sigma * rng.standard_normal(self.PSIS.size)
            fit = fitkit.fit_cos2(self.PSIS, y, np.full(self.PSIS.size, sigma))
            # signed deviation folded into (-pi/2, pi/2]
            errs.append((fit.psi0 - 0.9 + math.pi / 2.0) % math.pi - math.pi / 2.0)
            sig_psi0.append(fit.sigma_psi0)
        # reported uncertainty is calibrated against the observed scatter
        assert 0.7 < np.mean(sig_psi0) / np.std(errs) < 1.4

    def test_flat_data_degenerate(self):
        with pytest.raises(DegenerateFitError):
            fitkit.fit_cos2(self.PSIS, np.full(self.PSIS.size, 0.3),
                            np.full(self.PSIS.size, 0.01))

    def test_zero_depths_degenerate(self):
        # no microwave signal: the noiseless unweighted fit has a = sigma_a = 0
        with pytest.raises(DegenerateFitError):
            fitkit.fit_cos2(self.PSIS, np.zeros(self.PSIS.size))

    def test_aliased_psis_degenerate(self):
        # psi and psi + pi give the same cos^2: these angles fix only two of three terms
        psis = [0.0, math.pi / 2.0, math.pi, 1.5 * math.pi]
        with pytest.raises(DegenerateFitError):
            fitkit.fit_cos2(psis, [1.0, 0.2, 1.0, 0.2])

    @pytest.mark.parametrize("weighted", [False, True])
    def test_matches_lm_refinement(self, weighted):
        # reference: Levenberg-Marquardt on a*cos^2(psi-psi0)+b, started at
        # the closed form; it may only move by its stopping tolerance
        rng = np.random.default_rng(8 + weighted)
        for _ in range(40):
            a, b, psi0 = rng.uniform(0.005, 0.02), rng.uniform(0.0, 0.01), rng.uniform(0.0, math.pi)
            sig = rng.uniform(5e-4, 2e-3, self.PSIS.size)
            y = a * np.cos(self.PSIS - psi0) ** 2 + b + sig * rng.standard_normal(self.PSIS.size)
            w = 1.0 / sig if weighted else np.ones_like(sig)
            fit = fitkit.fit_cos2(self.PSIS, y, sig if weighted else None)

            def res(p):
                return (p[0] * np.cos(self.PSIS - p[2]) ** 2 + p[1] - y) * w

            def jac(p):
                d = self.PSIS - p[2]
                return np.column_stack([np.cos(d) ** 2, np.ones_like(d),
                                        p[0] * np.sin(2.0 * d)]) * w[:, None]

            ref = nls_fit(res, np.array([fit.a, fit.b, fit.psi0]), jacobian=jac,
                                 tol=1e-14, scale_covariance=not weighted)
            assert ref.converged
            assert abs(fit.a - ref.params[0]) <= 1e-7 * abs(ref.params[0])
            assert abs(fit.b - ref.params[1]) <= 1e-7 * abs(ref.params[0])
            assert abs(fit.psi0 - ref.params[2]) <= 1e-7
            assert abs(fit.sigma_a - ref.sigmas[0]) <= 1e-7 * ref.sigmas[0]
            assert abs(fit.sigma_psi0 - ref.sigmas[2]) <= 1e-7 * ref.sigmas[2]

    def test_psis_a_half_turn_apart_rejected(self):
        # cos 2 psi is exactly 1 at every multiple of pi, so Gram-Schmidt
        # leaves the cos column at exactly zero norm inside its loop
        with pytest.raises(DegenerateFitError,
                           match="^psi values determine fewer than three model terms$"):
            fitkit.fit_cos2([0.0, math.pi, 2.0 * math.pi, 3.0 * math.pi], [0.1, 0.2, 0.3, 0.4])

    @pytest.mark.parametrize("sigma", [-0.01, 0.0, -np.inf, np.nan])
    def test_nonpositive_sigmas_rejected(self, sigma):
        # a negative sigma has a finite inverse and a zero one divides by zero;
        # both are refused before any arithmetic, without a warning
        depths = self.model(0.01, 0.002, 0.7)
        sigmas = np.full(self.PSIS.size, 0.001)
        for sig in (np.full(self.PSIS.size, sigma), np.where(self.PSIS > 1.0, sigma, sigmas)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match="positive and finite"):
                    fitkit.fit_cos2(self.PSIS, depths, sig)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            fitkit.fit_cos2([0.0, 0.1, 0.2], [1.0, 1.0, 1.0])
        with pytest.raises(ValueError):
            fitkit.fit_cos2([0.0, 0.3, 0.6, 1.0], [1.0, 0.9, 0.8, 0.7])  # span <= pi/2
        with pytest.raises(ValueError):
            fitkit.fit_cos2([0.0, 0.0, 1.0, 2.0], [1.0, 1.0, 0.5, 0.2])
        depths = self.model(0.01, 0.002, 0.7)
        with pytest.raises(ValueError, match="differ in length"):
            fitkit.fit_cos2(self.PSIS, depths[:-1])
        with pytest.raises(ValueError, match="finite"):
            fitkit.fit_cos2(self.PSIS, np.where(self.PSIS > 1.0, np.nan, depths))


@settings(max_examples=80, deadline=None)
@given(a=st.floats(0.2, 2.0), b=st.floats(0.0, 1.0),
       psi0=st.floats(0.0, math.pi, exclude_max=True))
def test_cos2_noiseless_property(a, b, psi0):
    psis = np.linspace(0.0, math.pi, 10, endpoint=False)
    fit = fitkit.fit_cos2(psis, a * np.cos(psis - psi0) ** 2 + b)
    d = abs(fit.psi0 - psi0)
    assert min(d, math.pi - d) < 1e-6
    assert abs(fit.a - a) < 1e-6


def cos2_reference(psis, depths, sigmas):
    """Reference: the cos^2 fit by np.linalg.lstsq, its covariance from the
    SVD of the weighted design and the delta method, on numpy arrays.  The
    delta-method variances are taken as sums of squares, which keeps their
    relative precision where the covariance is far from isotropic."""
    w = np.ones_like(depths) if sigmas is None else 1.0 / sigmas
    design = np.column_stack([np.ones_like(psis), np.cos(2.0 * psis),
                              np.sin(2.0 * psis)]) * w[:, None]
    coef, _, rank, _ = np.linalg.lstsq(design, depths * w, rcond=None)
    if rank < 3:
        raise DegenerateFitError("rank")
    # the covariance V S^-2 V^T, so a quadratic form x^T cov x is |S^-1 V^T x|^2
    _, sv, vt = np.linalg.svd(design, full_matrices=False)
    rms = 1.0
    if sigmas is None:
        r = design @ coef - depths * w
        rms = math.sqrt(float(r @ r) / (psis.size - 3))
    c = coef[1:]
    half = float(np.linalg.norm(c))
    a = 2.0 * half
    sigma_a = 2.0 * rms * float(np.linalg.norm((vt[:, 1:] @ c) / sv)) / half
    if not (a > fitkit.AMPLITUDE_FLOOR and a > 3.0 * sigma_a):
        raise DegenerateFitError("amplitude")
    c_perp = np.array([-c[1], c[0]])
    sigma_psi0 = 0.5 * rms * float(np.linalg.norm((vt[:, 1:] @ c_perp) / sv)) / half ** 2
    return fitkit.Cos2Fit(a=a, b=float(coef[0]) - half,
                          psi0=0.5 * math.atan2(c[1], c[0]) % math.pi,
                          sigma_psi0=sigma_psi0, sigma_a=sigma_a)


@st.composite
def cos2_cases(draw):
    """psi sets of 4 to 60 angles, at least 4 distinct and spanning more than
    pi/2, evenly spaced over a half turn (as the CLI makes them) or drawn at
    random; noisy depths and positive sigmas; weighted or unweighted."""
    n = draw(st.integers(4, 60))
    if draw(st.booleans()):
        psis = np.linspace(0.0, math.pi, n, endpoint=False)
    else:
        psis = np.array(draw(st.lists(st.floats(0.0, 2.0 * math.pi), min_size=n, max_size=n)))
    assume(np.unique(np.round(psis, 12)).size >= 4 and np.ptp(psis) > math.pi / 2.0)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    a, b, psi0 = rng.uniform(0.0, 0.02), rng.uniform(0.0, 0.01), rng.uniform(0.0, math.pi)
    sigmas = rng.uniform(5e-4, 2e-3, n)
    depths = a * np.cos(psis - psi0) ** 2 + b + sigmas * rng.standard_normal(n)
    return psis, depths, sigmas if draw(st.booleans()) else None


@settings(max_examples=300, deadline=None)
@given(case=cos2_cases())
@example(case=(np.linspace(0.0, math.pi, 4, endpoint=False), np.array([0.012, 0.007, 0.002, 0.006]),
               np.array([1e-3, 1.5e-3, 8e-4, 1e-3])))
@example(case=(np.linspace(0.0, math.pi, 4, endpoint=False), np.array([0.012, 0.007, 0.002, 0.006]),
               None))
def test_cos2_matches_lstsq_reference(case):
    # the QR on Python floats against lstsq on numpy arrays; the design's
    # condition number is kept below 1e5, where both resolve 1e-9 with room
    psis, depths, sigmas = case
    w = np.ones_like(depths) if sigmas is None else 1.0 / sigmas
    design = np.column_stack([np.ones_like(psis), np.cos(2.0 * psis), np.sin(2.0 * psis)])
    assume(np.linalg.cond(design * w[:, None]) < 1e5)
    try:
        ref = cos2_reference(psis, depths, sigmas)
    except DegenerateFitError:
        with pytest.raises(DegenerateFitError):
            fitkit.fit_cos2(psis, depths, sigmas)
        return
    fit = fitkit.fit_cos2(psis, depths, sigmas)
    assert abs(fit.a - ref.a) <= 1e-9 * ref.a
    assert abs(fit.b - ref.b) <= 1e-9 * max(abs(ref.b), ref.a)
    assert abs(fit.sigma_a - ref.sigma_a) <= 1e-9 * ref.sigma_a
    assert abs(fit.sigma_psi0 - ref.sigma_psi0) <= 1e-9 * ref.sigma_psi0
    d = abs(fit.psi0 - ref.psi0)
    assert min(d, math.pi - d) <= 1e-9
