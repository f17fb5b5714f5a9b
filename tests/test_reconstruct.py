import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nvorient import fitkit, geometry, odmrsim, reconstruct, spinmodel
from nvorient.errors import DegenerateFitError, NearParallelAxesError, PlanarModelError

AXES = geometry.crystallographic_axes()
NV1 = AXES[reconstruct.NV1_AXIS_INDEX]
NV2 = geometry.crystallographic_axes()[reconstruct.NV2_AXIS_INDEX]
SCENE = geometry.WireScene(61.0, 18.0, 40.0)


def planar_mw(alpha_deg):
    a = math.radians(alpha_deg)
    return np.array([math.sin(a), 0.0, math.cos(a)])


def fake_cos2(psi0, sigma=1e-4):
    return fitkit.Cos2Fit(a=1.0, b=0.0, psi0=psi0, sigma_psi0=sigma, sigma_a=1e-4)


def pair_sweeps(psis, b_static_mt=10.2, grid=None):
    """Noiseless sweeps of the NV1 and NV2 orientations at SCENE, as the 3-D chain makes them."""
    return [odmrsim.simulate_phi_sweep(spinmodel.SpinConstants(),
                                       geometry.transverse_basis(AXES[nv]), b_static_mt,
                                       geometry.mw_direction(SCENE),
                                       geometry.wire_field_magnitude(SCENE),
                                       odmrsim.LineshapeParams(),
                                       odmrsim.default_grid() if grid is None else grid, psis)
            for nv in (reconstruct.NV1_AXIS_INDEX, reconstruct.NV2_AXIS_INDEX)]


class TestExtractNvY:
    def test_axis_is_quarter_turn_from_minimum(self, nv1_basis):
        for psi0 in (0.0, 0.7, 2.5):
            est = reconstruct.extract_nv_y(nv1_basis, fake_cos2(psi0))
            expected = geometry.sweep_direction(nv1_basis, psi0 + math.pi / 2.0)
            assert np.allclose(est.axis, expected, atol=1e-12)
            assert abs(est.axis @ nv1_basis.nv_z) < 1e-12


class TestMwAxisFromTwo:
    def test_cross_product_direction(self):
        y1 = reconstruct.NvYEstimate(np.array([1.0, 0.0, 0.0]), 0.01)
        y2 = reconstruct.NvYEstimate(np.array([0.0, 1.0, 0.0]), 0.01)
        est = reconstruct.mw_axis_from_two(y1, y2)
        assert np.allclose(est.axis, [0.0, 0.0, 1.0])
        assert est.sign_ambiguous

    def test_truth_axis_sign_insensitive(self):
        y1 = reconstruct.NvYEstimate(np.array([1.0, 0.0, 0.0]), 0.01)
        y2 = reconstruct.NvYEstimate(np.array([0.0, 1.0, 0.0]), 0.01)
        up = reconstruct.mw_axis_from_two(y1, y2, truth_axis=np.array([0.0, 0.0, 1.0]))
        down = reconstruct.mw_axis_from_two(y1, y2, truth_axis=np.array([0.0, 0.0, -1.0]))
        assert abs(up.angular_error_deg) < 1e-9
        assert abs(down.angular_error_deg) < 1e-9

    def test_near_parallel_rejected(self):
        y1 = reconstruct.NvYEstimate(np.array([1.0, 0.0, 0.0]), 0.01)
        y2 = reconstruct.NvYEstimate(np.array([1.0, 1e-5, 0.0]) / math.hypot(1.0, 1e-5), 0.01)
        with pytest.raises(NearParallelAxesError):
            reconstruct.mw_axis_from_two(y1, y2)


def random_axes(rng, count):
    v = rng.standard_normal((count, 3))
    return v / np.linalg.norm(v, axis=1)[:, None]


class TestFloatOracles:
    # the inversion runs on 3-tuples of Python floats; these are the numpy
    # formulas it replaced
    def test_mw_axis_matches_numpy_cross(self):
        rng = np.random.default_rng(5)
        y1s, y2s, truths = random_axes(rng, 500), random_axes(rng, 500), random_axes(rng, 500)
        for y1, y2, truth in zip(y1s, y2s, truths):
            c = np.cross(y1, y2)
            est = reconstruct.mw_axis_from_two(reconstruct.NvYEstimate(y1, 0.0),
                                               reconstruct.NvYEstimate(y2, 0.0), truth_axis=truth)
            assert isinstance(est.axis, np.ndarray)
            assert np.max(np.abs(est.axis - c / np.linalg.norm(c))) < 1e-12
            axis = c / np.linalg.norm(c)
            ref = math.degrees(math.atan2(np.linalg.norm(np.cross(axis, truth)),
                                          abs(float(axis @ truth))))
            assert abs(est.angular_error_deg - ref) < 1e-12
            assert abs(est.angular_error_deg - geometry.line_angle_between(axis, truth)) < 1e-6

    def test_planar_residual_matches_numpy(self):
        rng = np.random.default_rng(6)
        for u, nv_z, alpha in zip(random_axes(rng, 500), random_axes(rng, 500),
                                  rng.uniform(0.0, 360.0, 500)):
            v = np.cross(nv_z, planar_mw(alpha))
            w = v / np.linalg.norm(v)
            if float(u @ w) < 0.0:
                w = -w
            ref = math.degrees(2.0 * math.asin(min(1.0, 0.5 * np.linalg.norm(u - w))))
            got = reconstruct._planar_residual_deg(tuple(u), tuple(nv_z), float(alpha))
            assert abs(got - ref) < 1e-12
        # an in-plane field along the NV axis leaves no perpendicular axis
        assert reconstruct._planar_residual_deg((1.0, 0.0, 0.0), (0.0, 0.0, 1.0), 0.0) == 90.0


class TestPlanarAlpha:
    def test_forward_inverse_consistency(self):
        # the measured axis for an in-plane field is nv_z x m(alpha); the
        # inversion must return alpha or its half-turn partner, for every axis
        for nv_z, alpha in itertools.product(AXES, np.arange(0.0, 360.0, 7.3)):
            u = geometry.unit(np.cross(nv_z, planar_mw(alpha)))
            res = reconstruct.planar_alpha(u, nv_z)
            d = min(reconstruct._circ_dist(res.alpha_deg, alpha),
                    reconstruct._circ_dist(res.partner_deg, alpha))
            assert d < 1e-6
            assert res.residual_deg < 1e-6
            assert abs(res.partner_deg - (res.alpha_deg + 180.0) % 360.0) < 1e-12

    def test_matches_closed_form_oracle(self):
        for alpha in np.arange(0.0, 360.0, 3.7):
            u = geometry.unit(np.cross(NV1, planar_mw(alpha)))
            grid_alpha = reconstruct.planar_alpha(u, NV1).nearest_to(alpha)
            oracle = reconstruct.closed_form_alpha_check(u)
            d = min(reconstruct._circ_dist(grid_alpha, oracle),
                    reconstruct._circ_dist(grid_alpha, (oracle + 180.0) % 360.0))
            assert d < 1e-6

    def test_sign_flip_invariance(self):
        u = geometry.unit(np.cross(NV1, planar_mw(123.0)))
        a = reconstruct.planar_alpha(u, NV1)
        b = reconstruct.planar_alpha(-u, NV1)
        assert reconstruct._circ_dist(a.alpha_deg, b.alpha_deg) < 1e-6 or \
            reconstruct._circ_dist(a.alpha_deg, b.partner_deg) < 1e-6

    def test_inconsistent_axis_rejected(self):
        for nv_z in AXES:
            with pytest.raises(PlanarModelError):
                reconstruct.planar_alpha(nv_z, nv_z)

    def test_nearest_to(self):
        res = reconstruct.PlanarAlphaResult(10.0, 190.0, 0.0)
        assert res.nearest_to(350.0) == 10.0
        assert res.nearest_to(200.0) == 190.0


class TestClosedForm:
    def test_recovers_alpha_exactly(self):
        for alpha in np.arange(0.0, 360.0, 1.7):
            u = geometry.unit(np.cross(NV1, planar_mw(alpha)))
            got = reconstruct.closed_form_alpha_check(u)
            d = min(reconstruct._circ_dist(got, alpha),
                    reconstruct._circ_dist(got, (alpha + 180.0) % 360.0))
            assert d < 1e-9

    def test_out_of_plane_axis_rejected(self):
        with pytest.raises(ValueError):
            reconstruct.closed_form_alpha_check(np.array([0.0, 1.0, 0.0]))


class TestSweepChain:
    def test_depth_modulation_phase(self, consts, shape, grid, nv1_basis):
        m = geometry.mw_direction(SCENE)
        psis = np.linspace(0.0, math.pi, 12, endpoint=False)
        sweep = odmrsim.simulate_phi_sweep(consts, nv1_basis, 10.2, m, 0.05,
                                           shape, grid, psis)
        [(depths, sigmas)] = reconstruct.sweep_lp_depths(sweep)
        assert sigmas is None
        cos2 = fitkit.fit_cos2(psis, depths)
        # depth peaks when the static field is parallel to the in-plane
        # projection of the microwave field
        expected = math.atan2(float(m @ nv1_basis.e2), float(m @ nv1_basis.e1)) % math.pi
        d = abs(cos2.psi0 - expected)
        assert min(d, math.pi - d) < 1e-6

    def test_depths_without_eigensolve(self, consts, shape, grid, nv1_basis, monkeypatch):
        # the dip centers travel with the sweep; fitting it solves no Hamiltonian
        psis = np.linspace(0.0, math.pi, 12, endpoint=False)
        sweep = odmrsim.simulate_phi_sweep(consts, nv1_basis, 10.2, geometry.mw_direction(SCENE),
                                           0.05, shape, grid, psis)

        def no_eigensolve(*args):
            raise AssertionError("sweep_lp_depths solved a Hamiltonian")

        monkeypatch.setattr(spinmodel, "eigensystem", no_eigensolve)
        [(depths, sigmas)] = reconstruct.sweep_lp_depths(sweep)
        assert depths.shape == (12,) and sigmas is None

    def test_sweep_shape_invariant(self):
        # signals are one (n_psi, n_f) array, and a fit of several sweeps
        # needs sigmas for every row, one grid and one pair of centers
        psis = np.linspace(0.0, math.pi, 12, endpoint=False)
        sweep, other = pair_sweeps(psis)
        for bad in (sweep.signals.T, sweep.signals[0], sweep.signals[1:], sweep.signals[:, 1:],
                    sweep.signals[None]):
            with pytest.raises(ValueError, match="one row per psi"):
                odmrsim.SweepSeries(psis, sweep.frequencies, bad, sweep.centers_mhz)
        noisy = odmrsim.noisy_copy_with_subseed(other, 200.0, 0.008, 1)
        with pytest.raises(ValueError, match="all noisy or all noiseless"):
            reconstruct.sweep_lp_depths(sweep, noisy)
        shifted = pair_sweeps(psis, grid=odmrsim.default_grid(2850.5, 2950.5))[0]
        with pytest.raises(ValueError, match="one frequency grid"):
            reconstruct.sweep_lp_depths(sweep, shifted)
        weaker = pair_sweeps(psis, b_static_mt=9.0)[0]
        with pytest.raises(ValueError, match="dip centers"):
            reconstruct.sweep_lp_depths(sweep, weaker)

    def test_stacked_fit_matches_single_sweeps(self):
        # the 3-D chain fits its sweeps in one batch with one linewidth: the
        # pinned fit of their concatenated rows, split by sweep, whatever
        # each sweep's psi count; seed None fits the noiseless sweeps
        for counts in ((12, 12), (12, 7), (12, 7, 9)):
            clean = [odmrsim.simulate_phi_sweep(spinmodel.SpinConstants(),
                                                geometry.transverse_basis(AXES[nv]), 10.2,
                                                geometry.mw_direction(SCENE),
                                                geometry.wire_field_magnitude(SCENE),
                                                odmrsim.LineshapeParams(), odmrsim.default_grid(),
                                                np.linspace(0.0, math.pi, n, endpoint=False))
                     for nv, n in zip((3, 1, 0), counts)]
            for seed in (*range(5), None):
                sweeps = clean if seed is None else [
                    odmrsim.noisy_copy_with_subseed(s, 200.0, 0.008, seed, slot)
                    for slot, s in enumerate(clean)]
                stacked = reconstruct.sweep_lp_depths(*sweeps)
                assert len(stacked) == len(counts)
                fit = fitkit.fit_pinned_dips(
                    sweeps[0].frequencies, np.concatenate([s.signals for s in sweeps]),
                    None if seed is None else np.concatenate([s.point_sigmas() for s in sweeps]),
                    sweeps[0].centers_mhz)
                start = 0
                for n, (depths, sigmas) in zip(counts, stacked):
                    assert np.array_equal(depths, fit.depths[start:start + n, 1])
                    if seed is None:
                        assert sigmas is None
                    else:
                        assert np.array_equal(sigmas, fit.depth_sigmas[start:start + n, 1])
                    start += n

    def test_default_psis_equal_linspace(self):
        # the default sweep angles are built without np.linspace, bit for bit equal to it
        psis = reconstruct.ChainConfig().psis
        ref = np.linspace(0.0, math.pi, 12, endpoint=False)
        assert psis.dtype == ref.dtype and psis.shape == ref.shape
        assert psis.tobytes() == ref.tobytes()

    def test_one_dip_fit_per_reconstruction(self, monkeypatch):
        # one eigensolve per new noiseless sweep, none for a memoized one, and
        # every sweep of a result in one dip fit
        calls = {"eigensystem": 0, "fit_pinned_dips": 0}

        def counted(module, name):
            real = getattr(module, name)

            def call(*args):
                calls[name] += 1
                return real(*args)

            monkeypatch.setattr(module, name, call)

        counted(spinmodel, "eigensystem")
        counted(fitkit, "fit_pinned_dips")
        cfg = reconstruct.ChainConfig(
            noise=reconstruct.NoiseConfig(rate_kcps=200.0, dwell_s=0.008, seed=2))
        reconstruct.end_to_end_planar(SCENE, reconstruct.NV1_AXIS_INDEX, cfg)
        assert calls == {"eigensystem": 1, "fit_pinned_dips": 1}
        reconstruct.end_to_end_planar(SCENE, reconstruct.NV1_AXIS_INDEX, cfg)
        assert calls == {"eigensystem": 1, "fit_pinned_dips": 2}
        reconstruct.end_to_end_3d(SCENE, (reconstruct.NV1_AXIS_INDEX,
                                          reconstruct.NV2_AXIS_INDEX), cfg)
        assert calls == {"eigensystem": 2, "fit_pinned_dips": 3}

    def test_degenerate_shared_linewidth_raises(self):
        # the shared fwhm of the 3-D pair runs to its bracket, and the error
        # names no sweep or spectrum: for dips wider than half the grid
        # span, and for noisy spectra with no dips (no wire current; at 200
        # counts per point, seed 1 is one such run)
        def noise(seed):
            return reconstruct.NoiseConfig(rate_kcps=200.0, dwell_s=0.001, seed=seed)

        wide = reconstruct.ChainConfig(shape=odmrsim.LineshapeParams(fwhm_mhz=150.0),
                                       noise=noise(0))
        no_current = geometry.WireScene(61.0, 18.0, 0.0)
        for scene, cfg in ((SCENE, wide), (no_current, reconstruct.ChainConfig(noise=noise(1)))):
            with pytest.raises(DegenerateFitError, match="^dip fwhm ran to the bound"):
                reconstruct.end_to_end_3d(scene, (reconstruct.NV1_AXIS_INDEX,
                                                  reconstruct.NV2_AXIS_INDEX), cfg)

    def test_no_current_reports_no_axis(self):
        # with no wire current a noisy 3-D run fails in the dip fit or the
        # cos^2 fit, whichever seed draws its noise
        no_current = geometry.WireScene(61.0, 18.0, 0.0)
        for seed in range(20):
            cfg = reconstruct.ChainConfig(
                noise=reconstruct.NoiseConfig(rate_kcps=200.0, dwell_s=0.001, seed=seed))
            with pytest.raises(DegenerateFitError):
                reconstruct.end_to_end_3d(no_current, (reconstruct.NV1_AXIS_INDEX,
                                                       reconstruct.NV2_AXIS_INDEX), cfg)

    def test_end_to_end_planar_noiseless(self):
        run = reconstruct.end_to_end_planar(SCENE, reconstruct.NV1_AXIS_INDEX)
        assert run.error_deg < 1e-4
        expected = geometry.alpha_of_position(61.0, 18.0)
        assert abs(run.alpha_theory_deg - expected) < 1e-9

    def test_end_to_end_planar_noisy_single_seed(self):
        cfg = reconstruct.ChainConfig(
            noise=reconstruct.NoiseConfig(rate_kcps=200.0, dwell_s=1.5, seed=11))
        run = reconstruct.end_to_end_planar(SCENE, reconstruct.NV1_AXIS_INDEX, cfg)
        assert run.error_deg < 5.0
        assert run.cos2.sigma_psi0 > 0.0

    def test_noisy_run_deterministic(self):
        cfg = reconstruct.ChainConfig(
            noise=reconstruct.NoiseConfig(rate_kcps=200.0, dwell_s=1.5, seed=4))
        a = reconstruct.end_to_end_planar(SCENE, reconstruct.NV1_AXIS_INDEX, cfg)
        b = reconstruct.end_to_end_planar(SCENE, reconstruct.NV1_AXIS_INDEX, cfg)
        assert a.alpha_est_deg == b.alpha_est_deg
        assert a.cos2.psi0 == b.cos2.psi0

    def test_end_to_end_3d_noiseless(self):
        est = reconstruct.end_to_end_3d(
            SCENE, (reconstruct.NV1_AXIS_INDEX, reconstruct.NV2_AXIS_INDEX))
        assert est.angular_error_deg < 1e-3
        truth = geometry.mw_direction(SCENE)
        assert geometry.line_angle_between(est.axis, truth) < 1e-3

    def test_noise_keys_distinct_per_slot(self, monkeypatch):
        # 3-D slot k's noisy sweep is one Poisson draw from the generator of
        # SeedSequence(seed, spawn_key=(k,)) and planar's from spawn_key=(),
        # so no two sweeps share a stream, whatever order the runs come in
        fitted = []
        real = reconstruct.sweep_lp_depths

        def record(*sweeps):
            fitted.append(sweeps)
            return real(*sweeps)

        monkeypatch.setattr(reconstruct, "sweep_lp_depths", record)
        psis = np.linspace(0.0, math.pi, 5, endpoint=False)
        cfg = reconstruct.ChainConfig(
            psis=psis, noise=reconstruct.NoiseConfig(rate_kcps=200.0, dwell_s=1.5, seed=4))

        def run_3d():
            reconstruct.end_to_end_3d(SCENE, (reconstruct.NV1_AXIS_INDEX,
                                              reconstruct.NV2_AXIS_INDEX), cfg)

        def run_planar():
            reconstruct.end_to_end_planar(SCENE, reconstruct.NV1_AXIS_INDEX, cfg)

        run_3d()
        run_planar()
        run_planar()
        run_3d()
        three_d, planar = fitted[:2]
        for later, first in zip(fitted[2:], (planar, three_d)):
            assert all(np.array_equal(a.signals, b.signals) for a, b in zip(later, first))
        clean = pair_sweeps(psis)
        counts = 200.0 * 1000.0 * 1.5
        runs = [(three_d, clean, [(0,), (1,)]), (planar, clean[:1], [()])]
        for noisy_sweeps, clean_sweeps, keys in runs:
            assert len(noisy_sweeps) == len(keys)
            for noisy, sweep, key in zip(noisy_sweeps, clean_sweeps, keys):
                rng = np.random.default_rng(np.random.SeedSequence(4, spawn_key=key))
                assert np.array_equal(noisy.signals, rng.poisson(sweep.signals * counts) / counts)
        # slot 0 and planar share the NV1 sweep but not its noise
        assert not np.array_equal(three_d[0].signals, planar[0].signals)

    def test_end_to_end_3d_same_orientation_rejected(self):
        with pytest.raises(NearParallelAxesError):
            reconstruct.end_to_end_3d(SCENE, (3, 3))


def memo_sweep(scene, nv_index, cfg):
    """The memo's (basis, noiseless sweep) for one NV orientation under cfg."""
    return reconstruct._noiseless_sweep(scene, nv_index, cfg.constants, cfg.b_static_mt,
                                        cfg.shape, reconstruct._array_key(cfg.grid),
                                        reconstruct._array_key(cfg.psis))


def assert_bit_identical(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestSweepMemo:
    @settings(max_examples=60, deadline=None)
    @given(x=st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-80.0, 80.0)),
           z=st.floats(30.0, 80.0), current=st.sampled_from([20.0, -20.0, 12.5]),
           nv_index=st.integers(0, 3), n_psi=st.integers(1, 24),
           start=st.floats(2840.0, 2870.0), n_f=st.integers(2, 300),
           step=st.sampled_from([0.25, 0.5, 1.0]))
    @example(x=0.0, z=40.0, current=20.0, nv_index=3, n_psi=12, start=2850.0, n_f=201, step=0.5)
    @example(x=-0.0, z=40.0, current=-20.0, nv_index=1, n_psi=5, start=2850.0, n_f=201, step=0.5)
    def test_hit_equals_miss(self, x, z, current, nv_index, n_psi, start, n_f, step):
        # a hit returns what a direct synthesis of the same scene gives, bit
        # for bit; x = 0.0 and x = -0.0 make equal keys, so one hits the other
        cfg = reconstruct.ChainConfig(grid=start + step * np.arange(n_f),
                                      psis=np.linspace(0.0, math.pi, n_psi, endpoint=False))
        scene = geometry.WireScene(x, z, current)
        twin = geometry.WireScene(-x if x == 0.0 else x, z, current)
        for s in (scene, twin):
            basis, sweep = memo_sweep(s, nv_index, cfg)
            ref_basis = geometry.transverse_basis(geometry.crystallographic_axes()[nv_index])
            ref = odmrsim.simulate_phi_sweep(cfg.constants, ref_basis, cfg.b_static_mt,
                                             geometry.mw_direction(s),
                                             geometry.wire_field_magnitude(s), cfg.shape,
                                             cfg.grid, cfg.psis)
            for name in ("e1", "e2", "nv_z"):
                assert_bit_identical(getattr(basis, name), getattr(ref_basis, name))
            for name in ("psis", "frequencies", "signals"):
                assert_bit_identical(getattr(sweep, name), getattr(ref, name))
            assert sweep.centers_mhz == ref.centers_mhz and sweep.counts_meta is None
        assert reconstruct._noiseless_sweep.cache_info().hits >= 1

    def test_cached_arrays_read_only(self):
        cfg = reconstruct.ChainConfig()
        basis, sweep = memo_sweep(SCENE, reconstruct.NV1_AXIS_INDEX, cfg)
        for a in (basis.e1, basis.e2, basis.nv_z, sweep.psis, sweep.frequencies, sweep.signals):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0.0
        # the chain config's own arrays stay writable and are not the cached ones
        assert cfg.grid.flags.writeable and cfg.psis.flags.writeable
        assert not np.shares_memory(cfg.grid, sweep.frequencies)
        assert not np.shares_memory(cfg.psis, sweep.psis)
        cfg.grid[0] = 0.0
        assert memo_sweep(SCENE, reconstruct.NV1_AXIS_INDEX,
                          reconstruct.ChainConfig())[1] is sweep

    @pytest.mark.parametrize("field_name, value", [
        ("grid", odmrsim.default_grid()[:, None]),
        ("psis", np.linspace(0.0, math.pi, 12, endpoint=False)[:, None]),
        ("psis", np.array([])),
    ])
    def test_malformed_input_raises_every_time(self, field_name, value):
        # the key carries the array shape, so a column array never hits the
        # 1-D array of the same bytes, and a failed synthesis is not cached:
        # every call raises what a direct synthesis raises
        good = reconstruct.ChainConfig()
        reconstruct.end_to_end_planar(SCENE, reconstruct.NV1_AXIS_INDEX, good)
        cfg = reconstruct.ChainConfig(**{field_name: value})
        with pytest.raises(ValueError) as direct:
            odmrsim.simulate_phi_sweep(cfg.constants, geometry.transverse_basis(NV1),
                                       cfg.b_static_mt, geometry.mw_direction(SCENE),
                                       geometry.wire_field_magnitude(SCENE), cfg.shape,
                                       cfg.grid, cfg.psis)
        for _ in range(2):
            with pytest.raises(ValueError) as chained:
                reconstruct.end_to_end_planar(SCENE, reconstruct.NV1_AXIS_INDEX, cfg)
            assert str(chained.value) == str(direct.value)
        assert reconstruct._noiseless_sweep.cache_info().currsize == 1

    def test_memo_stays_bounded(self):
        size = reconstruct._SWEEP_MEMO_SIZE
        cfg = reconstruct.ChainConfig()
        for k in range(size + 5):
            memo_sweep(geometry.WireScene(61.0 + k, 18.0, 40.0), reconstruct.NV1_AXIS_INDEX, cfg)
        info = reconstruct._noiseless_sweep.cache_info()
        assert info.maxsize == size
        assert info.currsize == size
        assert info.misses == size + 5
