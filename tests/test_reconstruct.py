import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nvorient import fitkit, geometry, odmrsim, reconstruct, spinmodel
from nvorient.errors import DegenerateFitError, NearParallelAxesError

NV2_AXIS_INDEX = 1  # (1/sqrt(3))[1,-1,-1]
AXES = geometry.crystallographic_axes()
NV1 = AXES[reconstruct.NV1_AXIS_INDEX]
NV2 = AXES[NV2_AXIS_INDEX]
SCENE = geometry.WireScene(61.0, 18.0, 40.0)
GRID_MHZ = reconstruct.ChainConfig().grid_mhz


def planar_mw(alpha_deg):
    a = math.radians(alpha_deg)
    return np.array([math.sin(a), 0.0, math.cos(a)])


def own_plan(sweep):
    """The `FitPlan` of a sweep's grid and dip centers."""
    return fitkit.FitPlan(sweep.frequencies, sweep.centers_mhz)


def fake_cos2(psi0, sigma=1e-4):
    return fitkit.Cos2Fit(a=1.0, b=0.0, psi0=psi0, sigma_psi0=sigma, sigma_a=1e-4)


def pair_sweeps(psis, b_static_mt=10.2, grid=None):
    """Noiseless sweeps of the NV1 and NV2 orientations at SCENE, as the 3-D chain makes them."""
    return [odmrsim.simulate_phi_sweep(spinmodel.SpinConstants(),
                                       geometry.transverse_basis(AXES[nv]), b_static_mt,
                                       geometry.mw_direction(SCENE),
                                       geometry.wire_field_magnitude(SCENE),
                                       odmrsim.LineshapeParams(),
                                       odmrsim.default_grid(*GRID_MHZ) if grid is None else grid,
                                       psis)
            for nv in (reconstruct.NV1_AXIS_INDEX, NV2_AXIS_INDEX)]


class TestExtractNvY:
    def test_axis_is_quarter_turn_from_minimum(self, nv1_basis):
        for psi0 in (0.0, 0.7, 2.5):
            est = reconstruct.extract_nv_y(nv1_basis, fake_cos2(psi0))
            expected = geometry.sweep_direction(nv1_basis, psi0 + math.pi / 2.0)
            assert np.allclose(est.axis, expected, atol=1e-12)
            assert abs(est.axis @ nv1_basis.nv_z) < 1e-12


class TestMwAxisFromTwo:
    def test_cross_product_direction(self):
        est = reconstruct.mw_axis_from_two(np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]))
        assert np.allclose(est.axis, [0.0, 0.0, 1.0])

    def test_truth_axis_sign_insensitive(self):
        y1, y2 = np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])
        up = reconstruct.mw_axis_from_two(y1, y2, truth_axis=np.array([0.0, 0.0, 1.0]))
        down = reconstruct.mw_axis_from_two(y1, y2, truth_axis=np.array([0.0, 0.0, -1.0]))
        assert abs(up.angular_error_deg) < 1e-9
        assert abs(down.angular_error_deg) < 1e-9

    def test_near_parallel_rejected(self):
        y1 = np.array([1.0, 0.0, 0.0])
        y2 = np.array([1.0, 1e-5, 0.0]) / math.hypot(1.0, 1e-5)
        with pytest.raises(NearParallelAxesError):
            reconstruct.mw_axis_from_two(y1, y2)

    def test_cut_is_on_the_angle_not_the_length(self):
        # short perpendicular axes resolve the line; long axes 0.03 deg apart do not
        est = reconstruct.mw_axis_from_two([0.01, 0.0, 0.0], [0.0, 0.01, 0.0])
        assert np.array_equal(est.axis, [0.0, 0.0, 1.0])
        a = math.radians(0.03)
        y1, y2 = np.array([1.0, 0.0, 0.0]), np.array([math.cos(a), math.sin(a), 0.0])
        for length in (1.0, 100.0):
            with pytest.raises(NearParallelAxesError):
                reconstruct.mw_axis_from_two(length * y1, length * y2)

    @pytest.mark.parametrize("length", [1e-200, 1e200])
    def test_axes_of_any_length(self, length):
        # the cross product of the raw axes once under- or overflowed, and
        # both pairs were refused as nearly parallel
        est = reconstruct.mw_axis_from_two([length, 0.0, 0.0], [0.0, length, 0.0])
        assert np.array_equal(est.axis, [0.0, 0.0, 1.0])

    @pytest.mark.parametrize("scale", [1e-150, 1.0, 1e150])
    def test_cut_is_on_the_sine_at_every_scale(self, scale):
        y1 = [scale, 0.0, 0.0]
        for sine, resolved in ((2e-3, True), (5e-4, False)):
            y2 = [scale * math.sqrt(1.0 - sine * sine), scale * sine, 0.0]
            if resolved:
                assert np.array_equal(reconstruct.mw_axis_from_two(y1, y2).axis,
                                      [0.0, 0.0, 1.0])
            else:
                with pytest.raises(NearParallelAxesError, match="nearly parallel"):
                    reconstruct.mw_axis_from_two(y1, y2)


def random_axes(rng, count):
    v = rng.standard_normal((count, 3))
    return v / np.linalg.norm(v, axis=1)[:, None]


class TestFloatOracles:
    # the inversion runs on 3-tuples of Python floats; this is the numpy
    # formula it replaced
    def test_mw_axis_matches_numpy_cross(self):
        rng = np.random.default_rng(5)
        y1s, y2s, truths = random_axes(rng, 500), random_axes(rng, 500), random_axes(rng, 500)
        for y1, y2, truth in zip(y1s, y2s, truths):
            c = np.cross(y1, y2)
            est = reconstruct.mw_axis_from_two(y1, y2, truth_axis=truth)
            assert isinstance(est.axis, np.ndarray)
            assert np.max(np.abs(est.axis - c / np.linalg.norm(c))) < 1e-12
            axis = c / np.linalg.norm(c)
            ref = math.degrees(math.atan2(np.linalg.norm(np.cross(axis, truth)),
                                          abs(float(axis @ truth))))
            assert abs(est.angular_error_deg - ref) < 1e-12
            assert abs(est.angular_error_deg - geometry.line_angle_between(axis, truth)) < 1e-6


class TestPlanarAlpha:
    def test_forward_inverse_consistency(self):
        # the measured axis for an in-plane field is nv_z x m(alpha); the
        # inversion must return alpha or its half-turn partner, for every axis
        for nv_z, alpha in itertools.product(AXES, np.arange(0.0, 360.0, 7.3)):
            u = geometry.unit(np.cross(nv_z, planar_mw(alpha)))
            res = reconstruct.planar_alpha(u)
            assert 0.0 <= res < 180.0
            d = min(reconstruct._circ_dist(res, alpha), reconstruct._circ_dist(res + 180.0, alpha))
            assert d < 1e-6

    def test_matches_closed_form_oracle(self):
        for alpha in np.arange(0.0, 360.0, 3.7):
            u = geometry.unit(np.cross(NV1, planar_mw(alpha)))
            res = reconstruct.planar_alpha(u)
            oracle = reconstruct.closed_form_alpha_check(u)
            d = min(reconstruct._circ_dist(res, oracle),
                    reconstruct._circ_dist(res, (oracle + 180.0) % 360.0))
            assert d < 1e-6

    def test_sign_flip_invariance(self):
        u = geometry.unit(np.cross(NV1, planar_mw(123.0)))
        assert reconstruct._circ_dist(reconstruct.planar_alpha(u),
                                      reconstruct.planar_alpha(-u)) < 1e-6

    def test_axis_along_the_wire_rejected(self):
        # an axis within a sine of 1e-3 of the wire axis Y_L fixes no angle
        # (the cut of `mw_axis_from_two`); (0, 1, 0) returned 0.0
        for u in ((0.0, 1.0, 0.0), (0.0, -3.0, 0.0), (5e-4, 1.0, 0.0), (0.0, 1.0, -5e-4)):
            with pytest.raises(NearParallelAxesError, match="^axes nearly parallel"):
                reconstruct.planar_alpha(u)
        assert reconstruct.planar_alpha((2e-3, 1.0, 0.0)) == 0.0
        assert reconstruct.planar_alpha((0.0, 1.0, 2e-3)) == 90.0


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

    def test_arcsin_argument_outside_unit_interval_rejected(self):
        # no in-plane field makes this NV_Y: the identity's ratio is far outside [-1, 1]
        with pytest.raises(ValueError, match=r"^arcsin argument 48\.005000 outside \[-1, 1\]$"):
            reconstruct.closed_form_alpha_check(np.array([0.1, 0.99, 0.1]))


class TestSweepChain:
    def test_depth_modulation_phase(self, consts, shape, grid, nv1_basis):
        m = geometry.mw_direction(SCENE)
        psis = np.linspace(0.0, math.pi, 12, endpoint=False)
        sweep = odmrsim.simulate_phi_sweep(consts, nv1_basis, 10.2, m, 0.05,
                                           shape, grid, psis)
        [(depths, sigmas)] = reconstruct.sweep_lp_depths(own_plan(sweep), sweep)
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
        [(depths, sigmas)] = reconstruct.sweep_lp_depths(own_plan(sweep), sweep)
        assert depths.shape == (12,) and sigmas is None

    def test_sweep_shape_invariant(self):
        # signals are one (n_psi, n_f) array, and a fit of several sweeps
        # needs sigmas for every row, one grid and one pair of centers
        psis = np.linspace(0.0, math.pi, 12, endpoint=False)
        sweep, other = pair_sweeps(psis)
        plan = own_plan(sweep)
        for bad in (sweep.signals.T, sweep.signals[0], sweep.signals[1:], sweep.signals[:, 1:],
                    sweep.signals[None]):
            with pytest.raises(ValueError, match="one row per psi"):
                odmrsim.SweepSeries(psis, sweep.frequencies, bad, sweep.centers_mhz)
        noisy = odmrsim.noisy_copy_with_subseed(other, odmrsim.NoiseConfig(200.0, 0.008, 1))
        with pytest.raises(ValueError, match="all noisy or all noiseless"):
            reconstruct.sweep_lp_depths(plan, sweep, noisy)
        # with the first sweep's plan, the message names the sweep that
        # differs from it
        shifted = pair_sweeps(psis, grid=odmrsim.default_grid(2850.5, 2950.5, 0.5))[0]
        with pytest.raises(ValueError, match="^sweep 2 does not share one frequency grid with "
                                             "the fit plan$"):
            reconstruct.sweep_lp_depths(plan, sweep, other, shifted)
        weaker = pair_sweeps(psis, b_static_mt=9.0)[0]
        with pytest.raises(ValueError, match="^sweep 1 does not share its dip centers with the "
                                             "fit plan$"):
            reconstruct.sweep_lp_depths(plan, sweep, weaker)

    def test_plan_is_the_batch_reference(self):
        # a plan 3 MHz off the sweep's dip centers, or on another grid, is
        # refused: it was fitted, and gave depths 0.0014, 0.0168, ... where the
        # sweep's own plan gives 0.0062, 0.0261, ...; an equal plan, on the
        # sweep's grid or on a copy of it, gives the same depths bit for bit
        psis = np.linspace(0.0, math.pi, 12, endpoint=False)
        sweep, other = pair_sweeps(psis)
        centers = np.array(sweep.centers_mhz)
        for plan, named in ((fitkit.FitPlan(sweep.frequencies, centers + 3.0), "its dip centers"),
                            (fitkit.FitPlan(sweep.frequencies + 0.5, centers), "one frequency grid")):
            for sweeps in ((sweep,), (sweep, other)):
                with pytest.raises(ValueError, match=rf"^sweep 0 does not share {named} with "
                                                     r"the fit plan$"):
                    reconstruct.sweep_lp_depths(plan, *sweeps)
        [(own, _)] = reconstruct.sweep_lp_depths(own_plan(sweep), sweep)
        [(copied, _)] = reconstruct.sweep_lp_depths(
            fitkit.FitPlan(sweep.frequencies.copy(), sweep.centers_mhz), sweep)
        assert own.tobytes() == copied.tobytes()

    def test_stacked_fit_matches_single_sweeps(self):
        # the 3-D chain fits its sweeps in one batch with one linewidth: the
        # pinned fit of their concatenated rows, split by sweep, whatever
        # each sweep's psi count; seed None fits the noiseless sweeps
        for counts in ((12, 12), (12, 7), (12, 7, 9)):
            clean = [odmrsim.simulate_phi_sweep(spinmodel.SpinConstants(),
                                                geometry.transverse_basis(AXES[nv]), 10.2,
                                                geometry.mw_direction(SCENE),
                                                geometry.wire_field_magnitude(SCENE),
                                                odmrsim.LineshapeParams(),
                                                odmrsim.default_grid(*GRID_MHZ),
                                                np.linspace(0.0, math.pi, n, endpoint=False))
                     for nv, n in zip((3, 1, 0), counts)]
            for seed in (*range(5), None):
                sweeps = clean if seed is None else [
                    odmrsim.noisy_copy_with_subseed(
                        s, odmrsim.NoiseConfig(200.0, 0.008, seed, (slot,)))
                    for slot, s in enumerate(clean)]
                plan = own_plan(sweeps[0])
                stacked = reconstruct.sweep_lp_depths(plan, *sweeps)
                assert len(stacked) == len(counts)
                fit = fitkit.fit_pinned_dips(
                    plan, np.concatenate([s.signals for s in sweeps]),
                    None if seed is None else np.concatenate([s.point_sigmas() for s in sweeps]))
                start = 0
                for n, (depths, sigmas) in zip(counts, stacked):
                    assert np.array_equal(depths, fit.depths[start:start + n, 1])
                    if seed is None:
                        assert sigmas is None
                    else:
                        assert np.array_equal(sigmas, fit.depth_sigmas[start:start + n, 1])
                    start += n

    def test_one_dip_fit_per_reconstruction(self, monkeypatch):
        # one eigensolve per new noiseless sweep, none for a memoized
        # reconstruction, and every sweep of a result in one dip fit; the
        # planar and 3-D chains do not share an entry
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
                                          NV2_AXIS_INDEX), cfg)
        assert calls == {"eigensystem": 3, "fit_pinned_dips": 3}

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
                                                  NV2_AXIS_INDEX), cfg)

    def test_no_current_reports_no_axis(self):
        # with no wire current a noisy 3-D run fails in the dip fit or the
        # cos^2 fit, whichever seed draws its noise
        no_current = geometry.WireScene(61.0, 18.0, 0.0)
        for seed in range(20):
            cfg = reconstruct.ChainConfig(
                noise=reconstruct.NoiseConfig(rate_kcps=200.0, dwell_s=0.001, seed=seed))
            with pytest.raises(DegenerateFitError):
                reconstruct.end_to_end_3d(no_current, (reconstruct.NV1_AXIS_INDEX,
                                                       NV2_AXIS_INDEX), cfg)

    def test_end_to_end_planar_noiseless(self):
        run = reconstruct.end_to_end_planar(SCENE, reconstruct.NV1_AXIS_INDEX)
        assert run.error_deg < 1e-4
        expected = geometry.alpha_deg(geometry.wire_tangent(61.0, 18.0))
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
            SCENE, (reconstruct.NV1_AXIS_INDEX, NV2_AXIS_INDEX))
        assert est.angular_error_deg < 1e-3
        truth = geometry.mw_direction(SCENE)
        assert geometry.line_angle_between(est.axis, truth) < 1e-3

    def test_noise_keys_distinct_per_slot(self, monkeypatch):
        # 3-D slot k's noisy sweep is one Poisson draw from the generator of
        # SeedSequence(seed, spawn_key=(k,)) and planar's from spawn_key=(),
        # so no two sweeps share a stream, whatever order the runs come in
        fitted = []
        real = reconstruct.sweep_lp_depths

        def record(plan, *sweeps):
            fitted.append(sweeps)
            return real(plan, *sweeps)

        monkeypatch.setattr(reconstruct, "sweep_lp_depths", record)
        psis = np.linspace(0.0, math.pi, 5, endpoint=False)
        cfg = reconstruct.ChainConfig(
            psi_count=5, noise=reconstruct.NoiseConfig(rate_kcps=200.0, dwell_s=1.5, seed=4))

        def run_3d():
            reconstruct.end_to_end_3d(SCENE, (reconstruct.NV1_AXIS_INDEX,
                                              NV2_AXIS_INDEX), cfg)

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
        for pair in ((3, 3), (np.int64(1), 1)):
            with pytest.raises(ValueError, match="^the two NV orientations must differ$"):
                reconstruct.end_to_end_3d(SCENE, pair)
        # the indices are checked first: True is no NV index, though it equals 1
        with pytest.raises(ValueError, match="^NV index True is not an integer in 0..3$"):
            reconstruct.end_to_end_3d(SCENE, (True, 1))

    @pytest.mark.parametrize("bad", [-1, -3, 4, True, 3.0, "3"],
                             ids=["-1", "-3", "4", "True", "3.0", "str"])
    def test_nv_index_outside_0_to_3_rejected(self, bad):
        # -1 and -3 once aliased NV 3 and NV 1, so (3, -1) returned NV 3's own
        # axis; True aliased NV 1, and 4 raised IndexError
        message = f"^NV index {re.escape(repr(bad))} is not an integer in 0..3$"
        cfg = reconstruct.ChainConfig(noise=odmrsim.NoiseConfig(200.0, 0.008, 1))
        with pytest.raises(ValueError, match=message):
            reconstruct.end_to_end_planar(SCENE, bad, cfg)
        for pair in ((2, bad), (bad, 2)):
            with pytest.raises(ValueError, match=message):
                reconstruct.end_to_end_3d(SCENE, pair, cfg)

    def test_numpy_integer_nv_index_accepted(self):
        assert (reconstruct.end_to_end_planar(SCENE, np.int64(3)).alpha_est_deg
                == reconstruct.end_to_end_planar(SCENE, 3).alpha_est_deg)

    @pytest.mark.parametrize("field, bad, message", [
        ("psi_count", 2.5, "psi_count 2.5 is not an integer"),
        ("psi_count", True, "psi_count True is not an integer"),
        ("grid_mhz", [2850.0, 2950.0, 0.5],
         "grid_mhz [2850.0, 2950.0, 0.5] is not a (start, stop, step) tuple of numbers"),
        ("grid_mhz", (2850.0, 2950.0),
         "grid_mhz (2850.0, 2950.0) is not a (start, stop, step) tuple of numbers"),
        ("grid_mhz", (2850.0, 2950.0, "0.5"),
         "grid_mhz (2850.0, 2950.0, '0.5') is not a (start, stop, step) tuple of numbers"),
    ], ids=["psi_count=2.5", "psi_count=True", "grid_mhz-list", "grid_mhz-pair",
            "grid_mhz-str"])
    def test_chain_config_types_checked(self, field, bad, message):
        # 2.5 and the list once raised TypeError ("'float' object cannot be
        # interpreted as an integer", "unhashable type: 'list'"), in the memo
        cfg = reconstruct.ChainConfig(**{field: bad})
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            reconstruct.end_to_end_planar(SCENE, 3, cfg)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            reconstruct.end_to_end_3d(SCENE, (3, 1), cfg)
        assert reconstruct._noiseless_sweeps.cache_info().currsize == 0

    def test_numpy_chain_config_values_accepted(self):
        cfg = reconstruct.ChainConfig(psi_count=np.int64(12),
                                      grid_mhz=tuple(np.array([2850.0, 2950.0, 0.5])))
        assert (reconstruct.end_to_end_planar(SCENE, 3, cfg).cos2
                == reconstruct.end_to_end_planar(SCENE, 3).cos2)

    @pytest.mark.parametrize("nv_indices", [(3, 1, 0), (3,), ()], ids=["three", "one", "none"])
    def test_end_to_end_3d_needs_two_indices(self, nv_indices):
        # these once raised "too many / not enough values to unpack"
        with pytest.raises(ValueError, match=f"^end_to_end_3d takes two NV indices, not "
                                             f"{len(nv_indices)}$"):
            reconstruct.end_to_end_3d(SCENE, nv_indices)


def memo_entry(scene, nv_indices, cfg):
    """The memo's (bases, sweeps, plan) for one reconstruction under cfg."""
    return reconstruct._noiseless_sweeps(scene, nv_indices, cfg._replace(noise=None))


def direct_sweep(scene, nv_index, cfg):
    """A new synthesis of what the memo holds for one NV orientation under
    cfg: the sweep on cfg's grid and psi count."""
    return odmrsim.simulate_phi_sweep(
        cfg.constants, geometry.transverse_basis(AXES[nv_index]), cfg.b_static_mt,
        geometry.mw_direction(scene), geometry.wire_field_magnitude(scene), cfg.shape,
        odmrsim.default_grid(*cfg.grid_mhz),
        np.linspace(0.0, math.pi, cfg.psi_count, endpoint=False))


def memo_sweep(scene, nv_index, cfg):
    """The memo's (basis, noiseless sweep) for a planar reconstruction under cfg."""
    [basis], [sweep], _ = memo_entry(scene, (nv_index,), cfg)
    return basis, sweep


def assert_bit_identical(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


# (start, n_f, step) of a memo test's grid, whose stop is start + (n_f - 1)
# step.  Most grids of the first branch
# end below the 2926.4 MHz dip, and the plan rejects them; every grid of the
# second ends at or above `end` >= 2927 MHz, so it holds both dips.
GRID_STEPS = st.sampled_from([0.25, 0.5, 1.0])
MEMO_GRIDS = st.one_of(
    st.tuples(st.floats(2840.0, 2870.0), st.integers(2, 300), GRID_STEPS),
    st.builds(lambda start, step, end: (start, math.ceil((end - start) / step) + 1, step),
              st.floats(2840.0, 2870.0), GRID_STEPS, st.floats(2927.0, 2960.0)))


# the NV indices of a planar or a 3-D reconstruction
MEMO_INDICES = st.lists(st.integers(0, 3), min_size=1, max_size=2, unique=True).map(tuple)


class TestSweepMemo:
    @settings(max_examples=60, deadline=None)
    @given(x=st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-80.0, 80.0)),
           z=st.floats(30.0, 80.0), current=st.sampled_from([20.0, -20.0, 12.5]),
           nv_indices=MEMO_INDICES, n_psi=st.integers(1, 24), grid=MEMO_GRIDS)
    @example(x=0.0, z=40.0, current=20.0, nv_indices=(3,), n_psi=12, grid=(2850.0, 201, 0.5))
    @example(x=-0.0, z=40.0, current=-20.0, nv_indices=(1,), n_psi=5, grid=(2850.0, 201, 0.5))
    @example(x=61.0, z=40.0, current=20.0, nv_indices=(3,), n_psi=3, grid=(2850.0, 20, 0.5))
    @example(x=61.0, z=18.0, current=40.0, nv_indices=(3, 1), n_psi=12, grid=(2850.0, 201, 0.5))
    def test_hit_equals_miss(self, x, z, current, nv_indices, n_psi, grid):
        # a hit returns what direct syntheses of the same scene give, one per
        # NV orientation, and the plan built on the first one's grid and dip
        # centers, bit for bit; every sweep holds the plan's grid and one psi
        # array; x = 0.0 and x = -0.0 make equal keys, so one hits the other
        start, n_f, step = grid
        cfg = reconstruct.ChainConfig(grid_mhz=(start, start + (n_f - 1) * step, step),
                                      psi_count=n_psi)
        scene = geometry.WireScene(x, z, current)
        twin = geometry.WireScene(-x if x == 0.0 else x, z, current)
        ref_bases = [geometry.transverse_basis(AXES[i]) for i in nv_indices]
        refs = [[direct_sweep(s, i, cfg) for i in nv_indices] for s in (scene, twin)]
        assert refs[0][0].frequencies.size == n_f and refs[0][0].psis.size == n_psi
        try:
            ref_plan = own_plan(refs[0][0])
        except ValueError as exc:
            # a grid that cannot hold both dips: both calls raise the plan's
            # error, and nothing is cached
            cached = reconstruct._noiseless_sweeps.cache_info().currsize
            for s in (scene, twin):
                with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
                    memo_entry(s, nv_indices, cfg)
            assert reconstruct._noiseless_sweeps.cache_info().currsize == cached
            return
        for s, s_refs in zip((scene, twin), refs):
            bases, sweeps, plan = memo_entry(s, nv_indices, cfg)
            assert len(bases) == len(sweeps) == len(nv_indices)
            for basis, ref_basis in zip(bases, ref_bases):
                for name in ("e1", "e2", "nv_z"):
                    assert_bit_identical(getattr(basis, name), getattr(ref_basis, name))
            for sweep, ref in zip(sweeps, s_refs):
                for name in ("psis", "frequencies", "signals"):
                    assert_bit_identical(getattr(sweep, name), getattr(ref, name))
                assert sweep.centers_mhz == ref.centers_mhz and sweep.counts_meta is None
                assert sweep.frequencies is plan.f and sweep.psis is sweeps[0].psis
            assert (plan.lo, plan.hi) == (ref_plan.lo, ref_plan.hi)
            assert_bit_identical(plan.centers, ref_plan.centers)
            for a, b in zip(plan.block, ref_plan.block):
                assert_bit_identical(a, b)
        assert reconstruct._noiseless_sweeps.cache_info().hits >= 1

    def test_cached_arrays_read_only(self):
        cfg = reconstruct.ChainConfig()
        for nv_indices in ((reconstruct.NV1_AXIS_INDEX,), (reconstruct.NV1_AXIS_INDEX,
                                                           NV2_AXIS_INDEX)):
            bases, sweeps, _ = memo_entry(SCENE, nv_indices, cfg)
            for basis, sweep in zip(bases, sweeps):
                for a in (basis.e1, basis.e2, basis.nv_z, sweep.psis, sweep.frequencies,
                          sweep.signals):
                    with pytest.raises(ValueError, match="read-only"):
                        a[0] = 0.0
            assert memo_entry(SCENE, nv_indices, reconstruct.ChainConfig())[1] is sweeps

    @pytest.mark.parametrize("field_name, value", [
        ("grid_mhz", (2850.0, 2900.0, 0.5)),
        ("psi_count", -1),
        ("psi_count", 0),
        ("grid_mhz", (2950.0, 2850.0, 0.5)),
    ], ids=["grid-without-dips", "psi-count-negative", "psi-count-zero",
            "grid-stop-below-start"])
    def test_malformed_input_raises_every_time(self, field_name, value):
        # a failed synthesis or plan is not cached: every call raises what
        # a direct synthesis and plan raise (the first grid ends below the
        # 2926.4 MHz dip)
        good = reconstruct.ChainConfig()
        reconstruct.end_to_end_planar(SCENE, reconstruct.NV1_AXIS_INDEX, good)
        cfg = reconstruct.ChainConfig(**{field_name: value})
        with pytest.raises(ValueError) as direct:
            sweep = direct_sweep(SCENE, reconstruct.NV1_AXIS_INDEX, cfg)
            fitkit.FitPlan(sweep.frequencies, sweep.centers_mhz)
        for _ in range(2):
            with pytest.raises(ValueError) as chained:
                reconstruct.end_to_end_planar(SCENE, reconstruct.NV1_AXIS_INDEX, cfg)
            assert str(chained.value) == str(direct.value)
        assert reconstruct._noiseless_sweeps.cache_info().currsize == 1

    def test_config_is_the_key(self):
        # a config holds only values, so it hashes, and equal configs share
        # one entry whatever their number types or noise
        assert hash(reconstruct.ChainConfig()) == hash(reconstruct.ChainConfig())
        noise = reconstruct.NoiseConfig(rate_kcps=200.0, dwell_s=0.008, seed=1)
        for cfg in (reconstruct.ChainConfig(),
                    reconstruct.ChainConfig(grid_mhz=(2850, 2950, 0.5)),
                    reconstruct.ChainConfig(grid_mhz=(2850, 2950, 0.5), noise=noise)):
            reconstruct.end_to_end_planar(SCENE, reconstruct.NV1_AXIS_INDEX, cfg)
        info = reconstruct._noiseless_sweeps.cache_info()
        assert (info.currsize, info.misses, info.hits) == (1, 1, 2)
        _, sweep = memo_sweep(SCENE, reconstruct.NV1_AXIS_INDEX, reconstruct.ChainConfig())
        assert_bit_identical(sweep.frequencies, odmrsim.default_grid(*GRID_MHZ))
        assert_bit_identical(sweep.psis, np.linspace(0.0, math.pi, 12, endpoint=False))

    def test_warm_memo_equals_cold(self):
        # noisy planar and 3-D results from memoized reconstructions, whose
        # entries carry the dip fit's plan, equal those of a cleared memo,
        # bit for bit
        pair = (reconstruct.NV1_AXIS_INDEX, NV2_AXIS_INDEX)

        def results(seed, cold):
            cfg = reconstruct.ChainConfig(
                noise=reconstruct.NoiseConfig(rate_kcps=200.0, dwell_s=0.008, seed=seed))
            if cold:
                reconstruct._noiseless_sweeps.cache_clear()
            planar = reconstruct.end_to_end_planar(SCENE, reconstruct.NV1_AXIS_INDEX, cfg)
            if cold:
                reconstruct._noiseless_sweeps.cache_clear()
            axis = reconstruct.end_to_end_3d(SCENE, pair, cfg)
            return ((planar.alpha_est_deg, planar.error_deg, planar.cos2, planar.nv_y.sigma_angle,
                     axis.angular_error_deg),
                    (planar.nv_y.axis, axis.axis))

        results(0, cold=True)
        # each entry was built with the plan of its sweeps' one grid and centers
        for nv_indices in ((reconstruct.NV1_AXIS_INDEX,), pair):
            _, sweeps, plan = memo_entry(SCENE, nv_indices, reconstruct.ChainConfig())
            for sweep in sweeps:
                assert plan.f is sweep.frequencies
                assert tuple(plan.centers.tolist()) == sweep.centers_mhz
        warm = [results(seed, cold=False) for seed in range(1, 6)]
        for seed, (values, axes) in zip(range(1, 6), warm):
            cold_values, cold_axes = results(seed, cold=True)
            assert cold_values == values
            for a, b in zip(cold_axes, axes):
                assert_bit_identical(a, b)

    def test_grid_checked_only_on_memo_misses(self, monkeypatch):
        # the memoized sweep's grid was checked when it was synthesized and
        # its plan's when the plan was built; a noisy copy and a fit on a
        # memo hit check it no more (it was checked 2-3 times per result);
        # the planar and 3-D chains miss once each
        checks = []
        real = odmrsim._check_grid

        def counted(frequencies):
            checks.append(1)
            return real(frequencies)

        monkeypatch.setattr(odmrsim, "_check_grid", counted)
        info = reconstruct._noiseless_sweeps.cache_info
        for run in (lambda cfg: reconstruct.end_to_end_planar(SCENE, reconstruct.NV1_AXIS_INDEX,
                                                              cfg),
                    lambda cfg: reconstruct.end_to_end_3d(SCENE, (reconstruct.NV1_AXIS_INDEX,
                                                                  NV2_AXIS_INDEX), cfg)):
            for seed in range(50):
                misses, before = info().misses, len(checks)
                run(reconstruct.ChainConfig(
                    noise=reconstruct.NoiseConfig(rate_kcps=200.0, dwell_s=0.008, seed=seed)))
                if info().misses == misses:
                    assert len(checks) == before
        assert info().misses == 2 and info().hits == 49 + 49 and checks

    def test_memo_hit_compares_no_grid(self, monkeypatch):
        # every sweep of a memo entry holds its plan's grid and one psi array,
        # so a noisy 3-D result on a memo hit checks its sweeps against the
        # plan by identity and compares no grid (the second sweep's grid was
        # compared with np.array_equal on every result)
        pair = (reconstruct.NV1_AXIS_INDEX, NV2_AXIS_INDEX)

        def cfg(seed):
            return reconstruct.ChainConfig(
                noise=reconstruct.NoiseConfig(rate_kcps=200.0, dwell_s=0.008, seed=seed))

        reconstruct.end_to_end_3d(SCENE, pair, cfg(0))
        fitted, compared = [], []
        real_fit, real_equal = reconstruct.sweep_lp_depths, np.array_equal

        def record(*args, **kwargs):
            fitted.append(args)
            return real_fit(*args, **kwargs)

        def counted(*args, **kwargs):
            compared.append(args)
            return real_equal(*args, **kwargs)

        monkeypatch.setattr(reconstruct, "sweep_lp_depths", record)
        monkeypatch.setattr(np, "array_equal", counted)
        reconstruct.end_to_end_3d(SCENE, pair, cfg(1))
        assert len(compared) == 0
        assert reconstruct._noiseless_sweeps.cache_info().hits == 1
        [(plan, *sweeps)] = fitted
        assert len(sweeps) == 2 and all(s.counts_meta is not None for s in sweeps)
        for s in sweeps:
            assert s.frequencies is plan.f and s.psis is sweeps[0].psis

    def test_memo_stays_bounded(self):
        size = reconstruct._SWEEP_MEMO_SIZE
        cfg = reconstruct.ChainConfig()
        for k in range(size + 5):
            memo_sweep(geometry.WireScene(61.0 + k, 18.0, 40.0), reconstruct.NV1_AXIS_INDEX, cfg)
        info = reconstruct._noiseless_sweeps.cache_info()
        assert info.maxsize == size
        assert info.currsize == size
        assert info.misses == size + 5


class TestNoiseRecord:
    def test_every_noisy_sweep_redraws_from_its_record(self, monkeypatch):
        # each noisy sweep of a planar and a 3-D run carries the record it was
        # drawn with: that record's draw on the clean signals gives its
        # signals bit for bit, and the record rebuilds through its own checks;
        # a chain record with a key of its own passes it on as the prefix
        copy, made = odmrsim.noisy_copy_with_subseed, []

        def recording(sweep, noise):
            noisy = copy(sweep, noise)
            made.append((sweep, noisy))
            return noisy

        monkeypatch.setattr(odmrsim, "noisy_copy_with_subseed", recording)
        for x, current in ((61.0, 40.0), (40.0, -40.0)):
            scene = geometry.WireScene(x, 18.0, current)
            for noise in (reconstruct.NoiseConfig(200.0, 0.008, 7),
                          reconstruct.NoiseConfig(200.0, 0.002, 7, (5,))):
                cfg = reconstruct.ChainConfig(noise=noise)
                reconstruct.end_to_end_planar(scene, 3, cfg)
                reconstruct.end_to_end_3d(scene, (3, 1), cfg)
        assert len(made) == 12
        assert {noisy.counts_meta.key for _, noisy in made} == {(), (0,), (1,),
                                                                (5,), (5, 0), (5, 1)}
        for clean, noisy in made:
            meta = noisy.counts_meta
            assert_bit_identical(meta.draw(clean.signals), noisy.signals)
            assert odmrsim.NoiseConfig(*meta) == meta
            assert meta.seed == 7


class TestCalibration:
    """The reported uncertainties of the pinned chain against the scatter
    they describe: 200 seeds of NV 3 at (61, 18) um, 40 mA, 1,600 counts per
    point (200 kcps x 8 ms)."""

    SEEDS = range(200)

    def test_psi0_pulls(self):
        # (psi0 - truth) / sigma_psi0, with truth the noiseless fit's psi0
        truth = reconstruct.end_to_end_planar(SCENE, 3).cos2.psi0
        pulls = []
        for seed in self.SEEDS:
            cfg = reconstruct.ChainConfig(noise=reconstruct.NoiseConfig(200.0, 0.008, seed))
            cos2 = reconstruct.end_to_end_planar(SCENE, 3, cfg).cos2
            d = (cos2.psi0 - truth + math.pi / 2.0) % math.pi - math.pi / 2.0
            pulls.append(d / cos2.sigma_psi0)
        assert abs(np.mean(pulls)) < 0.2
        assert 0.85 <= np.std(pulls) <= 1.15

    def test_pinned_fit_reduced_chi2(self):
        # chi-square of each sweep's linear fits at the fitted shared fwhm,
        # over its 12 n_f - (3 x 12 + 1) degrees of freedom
        from test_fitkit import linear_fit_at, noisy_sweeps

        f, centers, runs, _ = noisy_sweeps(len(self.SEEDS), 0.008)
        reduced = []
        for y, sig in runs:
            fwhm = fitkit.fit_pinned_dips(fitkit.FitPlan(f, centers), y, sig).fwhm
            chi2 = sum(linear_fit_at(f, y[k], sig[k], centers, fwhm)[1] for k in range(y.shape[0]))
            reduced.append(chi2 / (y.size - 3 * y.shape[0] - 1))
        assert abs(np.mean(reduced) - 1.0) < 0.02
