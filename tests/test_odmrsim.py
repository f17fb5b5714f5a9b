import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nvorient import geometry, odmrsim, reconstruct, spinmodel
from test_spinmodel import rabi_amplitudes

C = spinmodel.SpinConstants()
GRID_MHZ = reconstruct.ChainConfig().grid_mhz
STATIC = spinmodel.StaticFieldNV(10.2, math.pi / 2.0, 0.0)
MW = spinmodel.MwFieldNV(0.0357, math.pi / 2.0, math.pi / 4.0)
# the fixed prefixes of the two ValueErrors a spectrum can raise on usable inputs
LABELS_UNDEFINED, CONTRAST_OVERFLOW = "maximal |0> weight is ", "summed dip contrast "


def reference_signal(consts, static, mw, shape, grid):
    """The direct model: an eigensolve of the Hamiltonian at the static
    field's own (theta, phi) and the coupling of the unrotated
    `mw.direction()`, where the synthesis solves at azimuth 0 and rotates
    the microwave instead."""
    eig = spinmodel.eigensystem(spinmodel.ground_hamiltonian(consts, static))
    omegas = (consts.gamma_e * mw.amplitude_mt
              * np.abs(mw.direction()[None] @ spinmodel.zero_transition_elements(eig)))
    contrasts = shape.contrast(omegas)
    absorb = (contrasts[:, :1] * odmrsim.lorentzian(grid, eig.f_0m, shape.fwhm_mhz)
              + contrasts[:, 1:] * odmrsim.lorentzian(grid, eig.f_0p, shape.fwhm_mhz))
    if float(np.max(absorb, initial=0.0)) > 1.0:
        raise ValueError("summed dip contrast exceeds 1")
    return 1.0 - absorb[0]


def nv_frame_mw(basis, mw_lab, amplitude_mt):
    """The lab microwave as NV-frame angles, by acos and atan2 of its
    components along the basis."""
    m = geometry.unit(mw_lab)
    zeta = math.acos(max(-1.0, min(1.0, float(m @ basis.nv_z))))
    azimuth = math.atan2(float(m @ basis.e2), float(m @ basis.e1))
    return spinmodel.MwFieldNV(amplitude_mt, zeta, azimuth)


class TestLineshapeParams:
    def test_linear_contrast_scaling(self):
        shape = odmrsim.LineshapeParams()
        assert abs(shape.contrast(1.0) - 0.02) < 1e-15
        assert abs(shape.contrast(2.0) - 0.08) < 1e-15
        assert shape.contrast(0.0) == 0.0

    def test_saturating_contrast(self):
        shape = odmrsim.LineshapeParams(model="saturating")
        assert abs(shape.contrast(1.0) - 0.01) < 1e-15
        # monotone and bounded by contrast_ref
        last = 0.0
        for om in np.linspace(0.0, 50.0, 100):
            c = shape.contrast(om)
            assert c >= last - 1e-15
            assert c <= shape.contrast_ref
            last = c

    def test_validation(self):
        with pytest.raises(ValueError):
            odmrsim.LineshapeParams(fwhm_mhz=0.0)
        with pytest.raises(ValueError):
            odmrsim.LineshapeParams(contrast_ref=1.5)
        with pytest.raises(ValueError):
            odmrsim.LineshapeParams(model="quadratic")


class TestGridAndLorentzian:
    def test_default_grid(self, grid):
        assert grid[0] == 2850.0
        assert grid[-1] == 2950.0
        assert grid.size == 201
        assert np.allclose(np.diff(grid), 0.5)
        # a range that is not a whole number of steps stops short of its
        # end; one that is, even by float rounding (0.3 / 0.1 < 3), ends on it
        for (start, stop, step), size in [((2850.0, 2851.0, 0.6), 2), ((40.0, 41.0, 0.6), 2),
                                          ((0.0, 19999.6, 1.0), 20000), ((0.0, 0.3, 0.1), 4),
                                          ((2850.0, 2850.0, 0.5), 1), ((2850, 2950, 1), 101)]:
            g = odmrsim.default_grid(start, stop, step)
            assert g.size == size and g.dtype == float and g[-1] <= stop + 1e-12
            assert g.tobytes() == (float(start) + float(step) * np.arange(size)).tobytes()
        for start, stop, step in [(2850.0, 2950.0, 0.0), (2850.0, 2950.0, -0.5),
                                  (2850.0, 2950.0, math.inf), (2850.0, 2950.0, math.nan),
                                  (2950.0, 2850.0, 0.5), (2850.0, math.inf, 0.5),
                                  (math.nan, 2950.0, 0.5)]:
            with pytest.raises(ValueError, match="^grid "):
                odmrsim.default_grid(start, stop, step)

    def test_lorentzian_peak_and_halfwidth(self):
        f = np.array([2900.0, 2904.0, 2896.0])
        vals = odmrsim.lorentzian(f, 2900.0, 8.0)
        assert abs(vals[0] - 1.0) < 1e-15
        assert abs(vals[1] - 0.5) < 1e-15
        assert abs(vals[2] - 0.5) < 1e-15


class TestSimulateSpectrum:
    def test_two_dips_on_unit_baseline(self, shape, grid):
        signal = odmrsim.simulate_spectrum(C, STATIC, MW, shape, grid)
        assert grid.shape == signal.shape
        assert np.all(signal <= 1.0 + 1e-12)
        assert np.all(signal > 0.0)
        # far from resonance the baseline is recovered to within the tails
        assert signal[0] > 0.995
        assert signal[-1] > 0.995
        # dip minima near the two transition frequencies
        eig = spinmodel.eigensystem(spinmodel.ground_hamiltonian(C, STATIC))
        for f0 in (eig.f_0m, eig.f_0p):
            sel = np.abs(grid - f0) < 1.0
            assert np.min(signal[sel]) < 0.999

    def test_contrast_overflow_raises(self, grid):
        shape = odmrsim.LineshapeParams(contrast_ref=1.0)
        big_mw = spinmodel.MwFieldNV(1.0, math.pi / 2.0, math.pi / 4.0)
        with pytest.raises(ValueError, match=r"^summed dip contrast reaches \d+\.\d{3} > 1; "
                                             "signal would go negative$"):
            odmrsim.simulate_spectrum(C, STATIC, big_mw, shape, grid)

    def test_deterministic(self, shape, grid):
        a = odmrsim.simulate_spectrum(C, STATIC, MW, shape, grid)
        b = odmrsim.simulate_spectrum(C, STATIC, MW, shape, grid)
        assert np.array_equal(a, b)


def _outcome(fn):
    """fn's result, or the prefix of the labeling or contrast refusal it raised."""
    try:
        return fn()
    except ValueError as exc:
        for prefix in (LABELS_UNDEFINED, CONTRAST_OVERFLOW):
            if str(exc).startswith(prefix):
                return prefix
        raise


class TestSpectrumOracle:
    # a spectrum is the psi = phi row of the one-eigensolve synthesis; the
    # reference solves the Hamiltonian at (theta, phi) itself
    DRAWS = 500

    @pytest.mark.parametrize("model", ["linear", "saturating"])
    def test_random_spectra_match_reference(self, grid, model):
        shape = odmrsim.LineshapeParams(model=model)
        rng = np.random.default_rng(1)
        lo, hi = (0.0, 0.0, 0.0, 0.0, 0.0), (120.0, math.pi, 2 * math.pi, math.pi, 2 * math.pi)
        draws = [rng.uniform(lo, hi) for _ in range(self.DRAWS)]
        # three near zero field, where |+1> and |-1> are (nearly) degenerate,
        # and one where no level keeps half its |0> weight
        draws += [(b, *rng.uniform(lo[1:], hi[1:])) for b in (0.0, 1e-9, 1e-3)]
        draws.append((113.0, 0.35, *rng.uniform(lo[2:], hi[2:])))
        raised = set()
        for b, theta, phi, zeta, azimuth in draws:
            mw = spinmodel.MwFieldNV(10 ** rng.uniform(-3.0, 0.0), zeta, azimuth)
            for static in (spinmodel.StaticFieldNV(b, theta, phi),
                           spinmodel.StaticFieldNV(b, theta, 0.0)):
                ref = _outcome(lambda: reference_signal(C, static, mw, shape, grid))
                got = _outcome(lambda: odmrsim.simulate_spectrum(C, static, mw, shape, grid))
                if isinstance(ref, str):
                    raised.add(ref)
                    assert got is ref
                elif static.phi == 0.0:
                    assert np.array_equal(got, ref)
                else:
                    assert np.max(np.abs(got - ref)) <= 1e-8 * np.max(1.0 - ref)
        # the sample reaches both errors: overflow needs the linear model
        assert raised == ({LABELS_UNDEFINED, CONTRAST_OVERFLOW} if model == "linear"
                          else {LABELS_UNDEFINED})


class TestPhiSweep:
    def test_sweep_shapes_and_modulation(self, shape, grid, nv1_basis):
        psis = np.linspace(0.0, math.pi, 12, endpoint=False)
        mw_lab = geometry.wire_tangent(61.0, 18.0)
        _, signals = odmrsim.simulate_phi_sweep(C, nv1_basis, 10.2, mw_lab, 0.05,
                                                shape, grid, psis)
        assert signals.shape == (12, grid.size)
        eig = spinmodel.eigensystem(spinmodel.ground_hamiltonian(C, STATIC))
        k = int(np.argmin(np.abs(grid - eig.f_0p)))
        depths = [1.0 - s[k] for s in signals]
        # the L0<->Lp dip depth follows cos^2 and nearly vanishes at the minimum
        assert max(depths) > 5.0 * min(depths)

    @pytest.mark.parametrize("model", ["linear", "saturating"])
    @pytest.mark.parametrize("axis_index", range(4))
    def test_matches_per_psi_spectrum(self, grid, axis_index, model):
        # one eigensolve with the microwave rotated by -psi must reproduce the
        # spectrum of the Hamiltonian rotated by +psi, psi outside [0, 2*pi) too
        basis = geometry.transverse_basis(geometry.crystallographic_axes()[axis_index])
        shape = odmrsim.LineshapeParams(model=model)
        mw_lab = geometry.wire_tangent(61.0, 18.0)
        psis = np.array([-7.0, -math.pi, -0.3, 0.0, 1.1, math.pi, 2 * math.pi, 9.5, 20.0])
        _, signals = odmrsim.simulate_phi_sweep(C, basis, 10.2, mw_lab, 0.05, shape, grid, psis)
        mw = nv_frame_mw(basis, mw_lab, 0.05)
        for psi, signal in zip(psis, signals):
            static = spinmodel.StaticFieldNV(10.2, math.pi / 2.0, psi % (2 * math.pi))
            ref = reference_signal(C, static, mw, shape, grid)
            assert np.max(np.abs(signal - ref)) < 1e-12

    @pytest.mark.parametrize("model", ["linear", "saturating"])
    def test_contrasts_match_rabi_amplitudes(self, grid, nv1_basis, model):
        # reference: the spectrum of each psi built on its own from
        # rabi_amplitudes with the microwave rotated by -psi
        shape = odmrsim.LineshapeParams(model=model)
        mw_lab = geometry.wire_tangent(61.0, 18.0)
        psis = np.array([-2.0, 0.0, 0.5, 1.7, 3.0, 8.0])
        _, signals = odmrsim.simulate_phi_sweep(C, nv1_basis, 10.2, mw_lab, 0.05, shape, grid,
                                                psis)
        mw = nv_frame_mw(nv1_basis, mw_lab, 0.05)
        eig = spinmodel.eigensystem(spinmodel.ground_hamiltonian(C, STATIC))
        for psi, signal in zip(psis, signals):
            om = rabi_amplitudes(eig, C, spinmodel.MwFieldNV(
                mw.amplitude_mt, mw.zeta, mw.transverse_azimuth - psi))
            dips = [shape.contrast(omega) * odmrsim.lorentzian(grid, center, shape.fwhm_mhz)
                    for omega, center in ((om.omega_0m, eig.f_0m), (om.omega_0p, eig.f_0p))]
            ref = 1.0 - dips[0] - dips[1]
            assert np.max(np.abs(signal - ref)) < 1e-15

    def test_centers_hold_at_every_psi(self, shape, grid, nv1_basis):
        # at theta = pi/2 the transition frequencies do not depend on psi, so
        # the centers of the sweep's one eigensolve serve every spectrum
        psis = np.array([0.0, 0.4, 1.3, 2.9])
        centers, _ = odmrsim.simulate_phi_sweep(C, nv1_basis, 10.2, [1, 0, 0], 0.05,
                                                shape, grid, psis)
        for psi in psis:
            static = spinmodel.StaticFieldNV(10.2, math.pi / 2.0, psi)
            eig = spinmodel.eigensystem(spinmodel.ground_hamiltonian(C, static))
            assert np.allclose(centers, (eig.f_0m, eig.f_0p), rtol=0, atol=1e-9)

    def test_empty_psis_rejected(self, shape, grid, nv1_basis):
        with pytest.raises(ValueError, match="^psi values must be a nonempty 1-D array of "
                                             "finite angles$"):
            odmrsim.simulate_phi_sweep(C, nv1_basis, 10.2, [1, 0, 0], 0.05,
                                       shape, grid, np.array([]))

    @pytest.mark.parametrize("psis", [
        [[0.0, 1.0], [2.0, 3.0]], [0.0, math.nan, 1.0, 2.0], [0.0, math.inf], [-math.inf],
        0.5,
    ], ids=["2-D", "nan", "inf", "-inf", "scalar"])
    def test_bad_psis_rejected(self, shape, grid, nv1_basis, psis, monkeypatch):
        # refused before the synthesis: a 2-D psi array failed in numpy's
        # matmul, a NaN made a sweep of NaN signals, and inf warned in cos
        def no_synthesis(*args):
            raise AssertionError("the sweep was synthesized")

        monkeypatch.setattr(odmrsim, "_synthesize", no_synthesis)
        with pytest.raises(ValueError, match="^psi values must be a nonempty 1-D array of "
                                             "finite angles$"):
            odmrsim.simulate_phi_sweep(C, nv1_basis, 10.2, [1, 0, 0], 0.05,
                                       shape, grid, np.array(psis))

    def test_grid_checked_first(self, shape, nv1_basis):
        # by the check `simulate_spectrum` and the fit plan run, before the psis
        for grid, message in (([2850.0, 2850.0, 2900.0], "finite and strictly ascending"),
                              ([[2850.0, 2950.0]], "a nonempty 1-D array")):
            with pytest.raises(ValueError, match=f"^frequency grid must be {message}$"):
                odmrsim.simulate_phi_sweep(C, nv1_basis, 10.2, [1, 0, 0], 0.05,
                                           shape, np.array(grid), np.array([math.nan]))

    def test_zero_static_field_rejected(self, shape, grid, nv1_basis):
        with pytest.raises(ValueError, match="^static field must be positive for a sweep$"):
            odmrsim.simulate_phi_sweep(C, nv1_basis, 0.0, [1, 0, 0], 0.05,
                                       shape, grid, np.array([0.0]))

    @pytest.mark.parametrize("amplitude_mt", [-1.0, math.nan, math.inf])
    def test_bad_amplitude_rejected(self, shape, grid, nv1_basis, amplitude_mt):
        # as MwFieldNV refuses it; NaN once passed and made a sweep of NaNs
        with pytest.raises(ValueError,
                           match="^microwave amplitude must be finite and nonnegative$"):
            odmrsim.simulate_phi_sweep(C, nv1_basis, 10.2, [1, 0, 0], amplitude_mt,
                                       shape, grid, np.array([0.0]))


class TestShotNoise:
    def test_seed_reproducibility(self, shape, grid):
        signal = odmrsim.simulate_spectrum(C, STATIC, MW, shape, grid)
        a = odmrsim.NoiseConfig(150.0, 1.0, 42).draw(signal)
        b = odmrsim.NoiseConfig(150.0, 1.0, 42).draw(signal)
        c = odmrsim.NoiseConfig(150.0, 1.0, 43).draw(signal)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_mean_and_sigma(self, shape, grid):
        signal = odmrsim.simulate_spectrum(C, STATIC, MW, shape, grid)
        rate, dwell = 150.0, 1.0
        draws = np.stack([odmrsim.NoiseConfig(rate, dwell, s).draw(signal) for s in range(300)])
        sigma_pred = np.sqrt(signal / (rate * 1000.0 * dwell))
        assert np.max(np.abs(draws.mean(axis=0) - signal)) < 5.0 * sigma_pred.max() / math.sqrt(300)
        ratio = draws.std(axis=0) / sigma_pred
        assert 0.85 < np.median(ratio) < 1.15

    def test_point_sigma_matches_meta(self, shape, grid):
        noise = odmrsim.NoiseConfig(100.0, 2.0, 1)
        noisy = noise.draw(odmrsim.simulate_spectrum(C, STATIC, MW, shape, grid))
        sig = noise.point_sigma(noisy)
        assert sig is not None
        assert np.allclose(sig, np.sqrt(np.maximum(noisy, 1e-12) / 200000.0))

    def test_subseed_schedule_independence(self, shape, grid, nv1_basis):
        # a noisy spectrum and a noisy lone sweep are each one Poisson draw on
        # their expected counts from the generator of
        # SeedSequence(seed, spawn_key=key) of the record they are drawn with;
        # equal records give equal draws, and the sigmas are those of the
        # noisy points
        psis = np.linspace(0.0, math.pi, 5, endpoint=False)
        _, clean = odmrsim.simulate_phi_sweep(C, nv1_basis, 10.2, [1, 0, 0], 0.05,
                                              shape, grid, psis)
        signal = odmrsim.simulate_spectrum(C, STATIC, MW, shape, grid)
        noise, counts = odmrsim.NoiseConfig(100.0, 1.0, 7), 100000.0

        def reference(signal, *key):
            rng = np.random.default_rng(np.random.SeedSequence(7, spawn_key=key))
            return rng.poisson(signal * counts) / counts

        assert np.array_equal(noise.draw(signal), reference(signal))
        keys = [(), (0,), (1,)]
        noisy = [odmrsim.noisy_copy_with_subseed(clean[None], noise._replace(key=key))
                 for key in keys]
        backwards = [odmrsim.noisy_copy_with_subseed(clean[None], noise._replace(key=key))
                     for key in reversed(keys)]
        for (signals, sigmas), (again, _), key in zip(noisy, reversed(backwards), keys):
            assert signals.shape == sigmas.shape == (1, *clean.shape)
            assert np.array_equal(signals[0], reference(clean, *key))
            assert np.array_equal(signals, again)
            assert np.array_equal(sigmas, np.sqrt(np.maximum(signals, 1e-12) / counts))
        # planar () and 3-D slots (0,), (1,) never share a stream, and
        # identical rows of one sweep get different noise
        same = np.tile(clean[0], (1, 5, 1))
        rows = np.concatenate([
            odmrsim.noisy_copy_with_subseed(same, noise._replace(key=key))[0][0]
            for key in keys])
        for a, b in itertools.combinations(rows, 2):
            assert not np.array_equal(a, b)

    def test_slot_key_rule(self, shape, grid):
        # sweep j of a stack of several is drawn with j appended to the
        # record's key, a lone sweep with the record itself, each in one
        # draw and in slot order, so a stack's noise is that of its sweeps
        # drawn one by one; equal sweeps in two slots get different noise
        psis = np.linspace(0.0, math.pi, 4, endpoint=False)
        clean = np.stack([odmrsim.simulate_phi_sweep(
            C, geometry.transverse_basis(geometry.crystallographic_axes()[i]), 10.2,
            [0.3, 0.5, 0.8], 0.05, shape, grid, psis)[1] for i in (3, 1, 3)])
        for noise in (odmrsim.NoiseConfig(100.0, 1.0, 7),
                      odmrsim.NoiseConfig(100.0, 1.0, 7, (5,))):
            for k in (1, 2, 3):
                signals, sigmas = odmrsim.noisy_copy_with_subseed(clean[:k], noise)
                keys = [noise.key] if k == 1 else [noise.key + (j,) for j in range(k)]
                for j, key in enumerate(keys):
                    assert np.array_equal(signals[j], noise._replace(key=key).draw(clean[j]))
                    assert np.array_equal(sigmas[j], noise.point_sigma(signals[j]))
                if k == 3:
                    assert not np.array_equal(signals[0], signals[2])
        with pytest.raises(ValueError, match=r"^signals must be a \(k, n_psi, n_f\) stack of "
                                             r"sweeps$"):
            odmrsim.noisy_copy_with_subseed(clean[0], odmrsim.NoiseConfig(100.0, 1.0, 7))

    def test_sweep_noise_statistics(self, shape, grid, nv1_basis):
        # 400 noisy copies of one sweep at 1,600 counts per point: unbiased,
        # Poisson variance, and no noise shared between psi rows
        psis = np.linspace(0.0, math.pi, 12, endpoint=False)
        _, clean = odmrsim.simulate_phi_sweep(C, nv1_basis, 10.2, [1, 0, 0], 0.05,
                                              shape, grid, psis)
        n_copies, counts = 400, 1600.0
        draws = np.stack([odmrsim.noisy_copy_with_subseed(
            clean[None], odmrsim.NoiseConfig(200.0, 0.008, s))[0][0] for s in range(n_copies)])
        var_pred = clean / counts
        # 5 sigma per point: over 2,412 points a correct stream passes 4 sigma
        # only about six times in seven
        assert np.all(np.abs(draws.mean(axis=0) - clean)
                      < 5.0 * np.sqrt(var_pred / n_copies))
        assert 0.9 <= np.mean(draws.var(axis=0, ddof=1) / var_pred) <= 1.1
        # standardized residuals of each psi row, over copies and frequencies
        z = ((draws - clean) / np.sqrt(var_pred)).transpose(1, 0, 2).reshape(psis.size, -1)
        corr = np.corrcoef(z)
        assert np.max(np.abs(corr[~np.eye(psis.size, dtype=bool)])) < 0.2

    def test_invalid_noise_params(self, shape, grid):
        signal = odmrsim.simulate_spectrum(C, STATIC, MW, shape, grid)
        with pytest.raises(ValueError):
            odmrsim.NoiseConfig(0.0, 1.0, 0).draw(signal)
        with pytest.raises(ValueError):
            odmrsim.NoiseConfig(100.0, -1.0, 0).draw(signal)


class TestSpectrumValidation:
    # a spectrum's grid is checked before the synthesis, by the check the fit
    # plan runs on the grid it is given
    def test_bad_grid_rejected(self, shape):
        for grid, message in (([1.0, 1.0, 2.0], "finite and strictly ascending"),
                              ([], "a nonempty 1-D array"),
                              ([[2850.0, 2950.0]], "a nonempty 1-D array")):
            with pytest.raises(ValueError, match=f"^frequency grid must be {message}$"):
                odmrsim.simulate_spectrum(C, STATIC, MW, shape, np.array(grid))

    # NaN compares False, so a grid check written as "any step <= 0" passes it
    @pytest.mark.parametrize("grid", [[1.0, np.nan, 3.0], [np.nan], [np.nan, 2.0],
                                      [1.0, 2.0, np.inf], [-np.inf, 1.0], [np.inf]])
    def test_nonfinite_grid_rejected(self, shape, grid):
        with pytest.raises(ValueError, match="finite"):
            odmrsim.simulate_spectrum(C, STATIC, MW, shape, np.array(grid))


@settings(max_examples=60, deadline=None)
@given(zeta=st.floats(0.0, math.pi), delta=st.floats(0.0, 2 * math.pi),
       amp=st.floats(0.001, 0.05))
def test_simulated_signal_stays_in_unit_interval(zeta, delta, amp):
    shape = odmrsim.LineshapeParams()
    grid = odmrsim.default_grid(*GRID_MHZ)
    mw = spinmodel.MwFieldNV(amp, zeta, delta)
    signal = odmrsim.simulate_spectrum(C, STATIC, mw, shape, grid)
    assert np.all(signal <= 1.0 + 1e-12)
    assert np.all(signal >= 0.0)
