import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from nvorient import fitkit, geometry, odmrsim, spinmodel
from nvorient.errors import DegenerateFitError
from test_spinmodel import rabi_amplitudes

C = spinmodel.SpinConstants()
STATIC = spinmodel.StaticFieldNV(10.2, math.pi / 2.0, 0.0)
MW = spinmodel.MwFieldNV(0.0357, math.pi / 2.0, math.pi / 4.0)


def two_dip_spectrum(shape=None, grid=None):
    shape = shape if shape is not None else odmrsim.LineshapeParams()
    grid = grid if grid is not None else odmrsim.default_grid()
    return odmrsim.simulate_spectrum(C, STATIC, MW, shape, grid)


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
    """`fitkit.nls_fit` with the finite-difference Jacobian."""
    return fitkit.nls_fit(residuals, x0, lambda p: numeric_jacobian(residuals, p), **kwargs)


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
        spec = two_dip_spectrum()
        eig = spinmodel.eigensystem(spinmodel.ground_hamiltonian(C, STATIC))
        dips = fitkit.fit_dips(spec, [2898.0, 2926.0])
        assert len(dips) == 2
        assert abs(dips[0].center_mhz - eig.f_0m) < 0.01
        assert abs(dips[1].center_mhz - eig.f_0p) < 0.01
        assert abs(dips[0].fwhm_mhz - 8.0) < 0.05
        assert abs(dips[1].fwhm_mhz - 8.0) < 0.05
        for d in dips:
            assert 0.0 < d.depth < 0.05

    def test_depth_matches_contrast_law(self, shape):
        spec = two_dip_spectrum()
        dips = fitkit.fit_dips(spec, [2898.0, 2926.0])
        for d, omega in zip(dips, rabi_0m_0p()):
            assert abs(d.depth - shape.contrast(omega)) < 1e-4

    def test_noisy_recovery_within_uncertainty(self):
        spec = odmrsim.add_shot_noise(two_dip_spectrum(), 200.0, 1.0, seed=3)
        dips = fitkit.fit_dips(spec, [2898.0, 2926.0])
        shape = odmrsim.LineshapeParams()
        for d, omega in zip(dips, rabi_0m_0p()):
            truth = shape.contrast(omega)
            assert d.depth_sigma > 0.0
            assert abs(d.depth - truth) < 5.0 * d.depth_sigma

    def test_fixed_centers_layout(self):
        # pinned depths come in the order the centers are given
        spec = two_dip_spectrum()
        eig = spinmodel.eigensystem(spinmodel.ground_hamiltonian(C, STATIC))
        fit = fitkit.fit_pinned_dips(spec.frequencies, spec.signal[None], None,
                                     [eig.f_0m, eig.f_0p])
        swapped = fitkit.fit_pinned_dips(spec.frequencies, spec.signal[None], None,
                                         [eig.f_0p, eig.f_0m])
        assert np.max(np.abs(swapped.depths[0] - fit.depths[0, ::-1])) < 1e-12
        free = fitkit.fit_dips(spec, [2898.0, 2926.0])
        assert abs(fit.depths[0, 0] - free[0].depth) < 1e-4
        assert abs(fit.depths[0, 1] - free[1].depth) < 1e-4

    def test_center_outside_grid_rejected(self):
        spec = two_dip_spectrum()
        with pytest.raises(ValueError):
            fitkit.fit_dips(spec, [2700.0, 2926.0])

    def test_runaway_center_fails(self, shape, grid):
        # at this MW azimuth the L0-Lm dip vanishes, and under noise its free
        # center runs far off the grid while the fit reports convergence
        mw = spinmodel.MwFieldNV(0.126, math.pi / 2.0, 0.0)
        clean = odmrsim.simulate_spectrum(C, STATIC, mw, shape, grid)
        spec = odmrsim.add_shot_noise(clean, 200.0, 0.008, seed=0)
        with pytest.raises(DegenerateFitError, match="left the frequency grid"):
            fitkit.fit_dips(spec, [2898.0, 2926.0])
        # the same spectrum fits at the known centers
        eig = spinmodel.eigensystem(spinmodel.ground_hamiltonian(C, STATIC))
        pinned = fitkit.fit_pinned_dips(grid, spec.signal[None], spec.point_sigma()[None],
                                        [eig.f_0m, eig.f_0p])
        assert np.all(np.isfinite(pinned.depths)) and np.all(pinned.depth_sigmas > 0.0)

    def test_opposite_sign_overlap_fails(self, shape, grid):
        # a noisy sweep spectrum whose free fit puts two dips 0.4 MHz apart
        # with depths +0.74 and -0.65 (sigma 251) that cancel to the real dip
        basis = geometry.transverse_basis(geometry.crystallographic_axes()[3])
        scene = geometry.WireScene(61.0, 18.0, 40.0)
        psis = np.linspace(0.0, math.pi, 12, endpoint=False)
        sweep = odmrsim.simulate_phi_sweep(C, basis, 10.2, geometry.mw_direction(scene),
                                           geometry.wire_field_magnitude(scene), shape, grid,
                                           psis)
        noisy = odmrsim.noisy_copy_with_subseed(sweep, 200.0, 0.008, 16)
        spec = odmrsim.OdmrSpectrum(noisy.frequencies, noisy.signals[11], noisy.counts_meta)
        with pytest.raises(DegenerateFitError, match="opposite sign"):
            fitkit.fit_dips(spec, [2898.0, 2926.0])

    def test_unconverged_fit_fails(self):
        # at 400 counts per point LM crawls on this sweep spectrum: it stops
        # at MAX_DIP_ITER steps with a depth 3.8e-5 and the fwhm 0.011 MHz from
        # where LM run to a relative drop of 1e-15 ends, after about 1,000 steps
        _, _, _, sweep = noisy_sweeps(0, 0.002)
        noisy = odmrsim.noisy_copy_with_subseed(sweep, 200.0, 0.002, 3)
        spec = odmrsim.OdmrSpectrum(noisy.frequencies, noisy.signals[2], noisy.counts_meta)
        with pytest.raises(DegenerateFitError, match="did not converge"):
            fitkit.fit_dips(spec, [2898.0, 2926.0])

    def test_nonfinite_signal_rejected(self, grid):
        sig = np.ones_like(grid)
        sig[10] = np.nan
        with pytest.raises(ValueError, match="finite"):
            fitkit.fit_dips(odmrsim.OdmrSpectrum(grid, sig), [2898.0])

    def test_overlapping_dips_warn(self, grid):
        shape = odmrsim.LineshapeParams()
        sig = (1.0
               - 0.02 * odmrsim.lorentzian(grid, 2899.0, 8.0)
               - 0.02 * odmrsim.lorentzian(grid, 2902.0, 8.0))
        spec = odmrsim.OdmrSpectrum(grid, sig)
        with pytest.warns(UserWarning):
            fitkit.fit_dips(spec, [2899.0, 2902.0])


def noisy_sweeps(n_sweeps, dwell_s, nv_index=3, first_seed=0):
    """Signals and sigmas (12, n_f) of seeded noisy sweeps at (61, 18) um, and
    the sweep's grid and dip centers; sweep i has subseed first_seed + i."""
    basis = geometry.transverse_basis(geometry.crystallographic_axes()[nv_index])
    scene = geometry.WireScene(61.0, 18.0, 40.0)
    sweep = odmrsim.simulate_phi_sweep(C, basis, 10.2, geometry.mw_direction(scene),
                                       geometry.wire_field_magnitude(scene),
                                       odmrsim.LineshapeParams(), odmrsim.default_grid(),
                                       np.linspace(0.0, math.pi, 12, endpoint=False))
    runs = []
    for seed in range(first_seed, first_seed + n_sweeps):
        noisy = odmrsim.noisy_copy_with_subseed(sweep, 200.0, dwell_s, seed)
        runs.append((noisy.signals, noisy.point_sigmas()))
    return sweep.frequencies, np.array(sweep.centers_mhz), runs, sweep


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

    def residuals(p):
        return np.concatenate([(fitkit._dip_model(p[ix], f, centers) - y[k]) * w[k]
                               for k, ix in enumerate(index)])

    def jacobian(p):
        jac = np.zeros((y.size, p.size))
        for k, ix in enumerate(index):
            jac[k * f.size:(k + 1) * f.size, ix] = (fitkit._dip_jacobian(p[ix], f, centers)
                                                    * w[k][:, None])
        return jac

    fit = fitkit.nls_fit(residuals, x0, jacobian, max_iter=2000, tol=1e-15,
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
        for y, sig in runs:
            s = sig if weighted else None
            fit = fitkit.fit_pinned_dips(f, y, s, centers)
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
        for y, sig in runs:
            batch = fitkit.fit_pinned_dips(f, y, sig, centers)
            shuffled = fitkit.fit_pinned_dips(f, y[perm], sig[perm], centers)
            assert abs(shuffled.fwhm - batch.fwhm) < 1e-12
            assert np.max(np.abs(shuffled.depths - batch.depths[perm])) < 1e-12
            assert np.max(np.abs(shuffled.depth_sigmas - batch.depth_sigmas[perm])) < 1e-12
            for k in range(y.shape[0]):
                one = fitkit.fit_pinned_dips(f, y[k:k + 1], sig[k:k + 1], centers)
                single = fitkit.fit_pinned_dips(f, y[k], sig[k], centers)
                assert abs(one.fwhm - single.fwhm) < 1e-12
                assert np.max(np.abs(one.depths - single.depths)) < 1e-12
                assert np.max(np.abs(one.depth_sigmas - single.depth_sigmas)) < 1e-12

    def test_noiseless_recovers_simulated_lineshape(self, shape):
        f, centers, _, sweep = noisy_sweeps(0, 0.008)
        fit = fitkit.fit_pinned_dips(f, sweep.signals, None, centers)
        assert abs(fit.fwhm - shape.fwhm_mhz) < 1e-9
        for s in sweep.signals:
            assert linear_fit_at(f, s, None, centers, fit.fwhm)[1] < 1e-20

    def test_linewidth_bound_at_low_counts(self):
        # 100 counts per point: LM let 9% of these fits run to fwhm up to 2e16
        # MHz; a pinned fit of one spectrum must either stay in [grid step,
        # half span] or raise, and no sweep's shared fwhm runs to the bracket
        f, centers, runs, _ = noisy_sweeps(40, 0.0005)
        lo, hi = 0.5, 50.0  # the default grid's step and half span
        assert fitkit.fwhm_bracket(f) == (lo, hi)
        raised, fwhms = 0, []
        for y, sig in runs:
            for k in range(y.shape[0]):
                try:
                    fit = fitkit.fit_pinned_dips(f, y[k:k + 1], sig[k:k + 1], centers)
                except DegenerateFitError:
                    raised += 1
                    continue
                fwhms.append(fit.fwhm)
        assert lo < min(fwhms) and max(fwhms) < hi
        assert raised > 0
        for y, sig in runs:
            assert lo < fitkit.fit_pinned_dips(f, y, sig, centers).fwhm < hi

    def test_shared_fwhm_is_global_minimum(self):
        # 100 counts per point: the search must not stop in a local minimum;
        # the oracle is the summed chi-square on a dense log grid over the bracket
        f, centers, runs, _ = noisy_sweeps(200, 0.0005)
        grid = np.geomspace(*fitkit.fwhm_bracket(f), 600)
        on_grid = summed_chi2(f, centers, grid)
        for y, sig in runs:
            fit = fitkit.fit_pinned_dips(f, y, sig, centers)
            at_fit = summed_chi2(f, centers, np.array([fit.fwhm]))(y, sig)[0]
            assert at_fit <= np.min(on_grid(y, sig)) * (1.0 + 1e-9)

    def test_depth_bias_at_400_counts(self):
        # a linewidth fitted per spectrum biased the deepest depths by
        # +1.4..+6.2% at 400 counts per point; the shared one stays within 2%
        f, centers, runs, sweep = noisy_sweeps(1000, 0.002, first_seed=10_000)
        truth = fitkit.fit_pinned_dips(f, sweep.signals, None, centers).depths[:, 1]
        deepest = np.argsort(truth)[-6:]
        depths = np.array([fitkit.fit_pinned_dips(f, y, sig, centers).depths[deepest, 1]
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
            ws = fitkit._Workspace(f, y, 1.0 / sig, centers)
            for fwhm in (5.0, 8.0, 12.0):
                state = fitkit._project(ws, fwhm)
                chi2, grad, curv = state[1:4]
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
            fitkit.fit_pinned_dips(f, y, sig, centers)
        assert max(calls) <= 4
        assert np.mean(calls) <= 3.0

    def test_unconverged_fit_raises(self, monkeypatch):
        f, centers, runs, _ = noisy_sweeps(1, 0.008)
        y, sig = runs[0]
        monkeypatch.setattr(fitkit, "MAX_DIP_ITER", 2)
        with pytest.raises(DegenerateFitError, match="did not converge"):
            fitkit.fit_pinned_dips(f, y, sig, centers)

    def test_input_validation(self):
        f, centers, runs, _ = noisy_sweeps(1, 0.008)
        y, sig = runs[0]
        with pytest.raises(ValueError):
            fitkit.fit_pinned_dips(f, y[:, :-1], None, centers)
        for bad_sigma in (0.0, -1e-3, np.nan, np.inf):
            bad = sig.copy()
            bad[5, 7] = bad_sigma
            with pytest.raises(ValueError, match="sigmas must be positive, finite"):
                fitkit.fit_pinned_dips(f, y, bad, centers)
        with pytest.raises(ValueError):
            fitkit.fit_pinned_dips(f, y, np.zeros_like(sig), centers)
        with pytest.raises(ValueError):
            fitkit.fit_pinned_dips(f, y, sig, [2700.0, centers[1]])
        # one bad point would stall the linewidth every spectrum shares
        bad = y.copy()
        bad[3, 10] = np.nan
        with pytest.raises(ValueError, match="finite"):
            fitkit.fit_pinned_dips(f, bad, sig, centers)

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
            fitkit.fit_pinned_dips(bad(f), y, sig, centers)

    def test_center_check_bounds(self):
        # centers exactly on the grid's ends are inside it; NaN is not
        f = odmrsim.default_grid()
        fitkit._check_centers(f, np.array([f[0], f[-1]]))
        below, above = np.nextafter(f[0], -np.inf), np.nextafter(f[-1], np.inf)
        for centers in ([np.nan, 2900.0], [2900.0, np.nan], [below, 2900.0], [2900.0, above]):
            with pytest.raises(ValueError, match="inside the frequency grid"):
                fitkit._check_centers(f, np.array(centers))

    def test_fwhm_bracket_on_nonuniform_grid(self):
        # (the smallest step, half the span), wherever the smallest step lies
        f = np.array([2850.0, 2851.0, 2851.25, 2853.0, 2860.0])
        lo, hi = fitkit.fwhm_bracket(f)
        assert (lo, hi) == (0.25, 5.0)
        assert type(lo) is float and type(hi) is float


class TestDipJacobian:
    # layouts: [baseline, fwhm, d1, d2] with pinned centers, and the same
    # followed by the fitted centers c1, c2
    @pytest.mark.parametrize("x", [[1.0, 8.0, 0.01, 0.02],
                                   [1.0, 8.0, 0.01, 0.02, 2898.2, 2926.4]],
                             ids=["pinned", "free"])
    def test_matches_numeric(self, x):
        spec = two_dip_spectrum()
        f = spec.frequencies
        x = np.array(x)
        centers_of = (lambda p: p[4:]) if x.size > 4 else (lambda p: np.array([2897.5, 2927.0]))
        jac_num = numeric_jacobian(
            lambda p: fitkit._dip_model(p, f, centers_of(p)) - spec.signal, x)
        jac_ana = fitkit._dip_jacobian(x, f, centers_of(x))
        assert jac_ana.shape == (f.size, x.size)
        assert float(np.max(np.abs(jac_num - jac_ana))) < 1e-6


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

            ref = fitkit.nls_fit(res, np.array([fit.a, fit.b, fit.psi0]), jacobian=jac,
                                 tol=1e-14, scale_covariance=not weighted)
            assert ref.converged
            assert abs(fit.a - ref.params[0]) <= 1e-7 * abs(ref.params[0])
            assert abs(fit.b - ref.params[1]) <= 1e-7 * abs(ref.params[0])
            assert abs(fit.psi0 - ref.params[2]) <= 1e-7
            assert abs(fit.sigma_a - ref.sigmas[0]) <= 1e-7 * ref.sigmas[0]
            assert abs(fit.sigma_psi0 - ref.sigmas[2]) <= 1e-7 * ref.sigmas[2]

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
