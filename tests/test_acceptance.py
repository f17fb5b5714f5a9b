"""Release acceptance suite: one criterion per test, one summary line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS/FAIL line of
every criterion as it completes.
"""

import math

import numpy as np

from nvorient import fitkit, geometry, odmrsim, reconstruct, sensitivity, spinmodel
from test_fitkit import numeric_jacobian
from test_spinmodel import KET_MINUS, KET_PLUS

C = spinmodel.SpinConstants()
GRID_MHZ = reconstruct.ChainConfig().grid_mhz

TABLE1 = [
    (47.7, 16.5, 160.9), (47.0, 18.5, 158.5), (46.3, 20.0, 156.6),
    (45.5, 22.0, 154.2), (44.0, 25.0, 150.4), (43.0, 26.6, 148.3),
    (38.6, 32.5, 139.9), (36.9, 34.5, 136.8), (38.5, 26.7, 145.3),
]


def _report(num: int, title: str, ok: bool, detail: str) -> None:
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} - {title}: {detail}")


def test_criterion_1_transition_frequencies():
    eig = spinmodel.eigensystem(spinmodel.ground_hamiltonian(
        C, spinmodel.StaticFieldNV(10.2, math.pi / 2.0, 0.0)))
    ok = abs(eig.f_0m - 2898.0) <= 1.5 and abs(eig.f_0p - 2926.0) <= 1.5
    _report(1, "transition frequencies at 10.2 mT transverse bias", ok,
            f"f_0m = {eig.f_0m:.2f} MHz, f_0p = {eig.f_0p:.2f} MHz (targets 2898/2926 +-1.5)")
    assert ok


# Table 1 prints positions to 0.1 um and alpha to 0.1 deg; a printed alpha
# agrees with the formula when it is within half of its last printed unit.
TABLE1_POS_UNIT_UM = 0.1
TABLE1_ALPHA_UNIT_DEG = 0.1
TABLE1_ALPHA_TOL_DEG = 0.05

# Row 8 (x=36.9, z=34.5) is the one row the formula cannot meet at its printed
# position: 136.925 deg against the printed 136.8 deg.  The other eight rows,
# row 7 at nearly the same angle among them, agree within 0.045 deg, and the
# rounding of the printed position reaches 136.8 deg from only ~0.2% of the
# rounding box.  Changing any one of its three numbers by one unit in the last
# printed digit (x=36.8, z=34.6 or alpha=136.9) makes it agree within 0.05 deg,
# so the row is read as a one-digit misprint and checked at that level.
TABLE1_MISPRINT_ROWS = (7,)


def _one_digit_variants(x: float, z: float, printed: float):
    """The row as printed, and with one of its numbers moved by one printed unit."""
    yield x, z, printed
    for s in (-1, 1):
        yield x + s * TABLE1_POS_UNIT_UM, z, printed
        yield x, z + s * TABLE1_POS_UNIT_UM, printed
        yield x, z, printed + s * TABLE1_ALPHA_UNIT_DEG


def _agrees(alpha_fn, x: float, z: float, printed: float) -> bool:
    return abs(alpha_fn(x, z) - printed) <= TABLE1_ALPHA_TOL_DEG


def _table1_agrees(alpha_fn, table=TABLE1) -> bool:
    """Every row agrees at its printed position; a misprint row up to one digit."""
    return all(
        any(_agrees(alpha_fn, *v) for v in _one_digit_variants(x, z, ref))
        if i in TABLE1_MISPRINT_ROWS else _agrees(alpha_fn, x, z, ref)
        for i, (x, z, ref) in enumerate(table))


def test_criterion_2_reference_table_theory_column():
    def alpha(x_um: float, z_um: float) -> float:
        return geometry.alpha_deg(geometry.wire_tangent(x_um, z_um))

    ok = _table1_agrees(alpha)
    strict = [abs(alpha(x, z) - ref) for i, (x, z, ref) in enumerate(TABLE1)
              if i not in TABLE1_MISPRINT_ROWS]
    (m,) = TABLE1_MISPRINT_ROWS
    x8, z8, ref8 = TABLE1[m]
    fixes = [v for v in _one_digit_variants(x8, z8, ref8) if _agrees(alpha, *v)]
    _report(2, "alpha theory column, nine positions", ok,
            f"eight rows: worst deviation {max(strict):.3f} deg (tolerance "
            f"{TABLE1_ALPHA_TOL_DEG}); row 8 (x={x8}, z={z8}): deviation "
            f"{abs(alpha(x8, z8) - ref8):.3f} deg, agrees as "
            + ", ".join(f"({x:.1f}, {z:.1f}, {a:.1f})" for x, z, a in fixes))
    assert ok
    # The misprint allowance is needed: row 8 as printed does not agree.
    assert not _agrees(alpha, x8, z8, ref8)

    # Negative controls: the same check rejects a formula biased by 0.02 or
    # 0.06 deg, a column shifted by 0.3 deg, row 8 printed as 136.7 deg, and
    # the transposed angle convention atan2(x, z).
    for bias in (-0.06, -0.02, 0.02, 0.06):
        assert not _table1_agrees(lambda x, z, b=bias: alpha(x, z) + b)
    for shift in (-0.3, 0.3):
        assert not _table1_agrees(alpha, [(x, z, ref + shift) for x, z, ref in TABLE1])
    assert not _table1_agrees(alpha, TABLE1[:m] + [(x8, z8, 136.7)] + TABLE1[m + 1:])

    def transposed(x_um: float, z_um: float) -> float:
        return math.degrees(math.atan2(x_um, z_um)) % 360.0

    assert not _table1_agrees(transposed)


def test_criterion_3_cross_product_example():
    y1 = np.array([-0.86, 0.42, -0.29])
    y2 = np.array([0.85, 0.46, 0.25])
    axis = geometry.unit(np.cross(y1, y2))
    ref = np.array([0.302, -0.040, -0.953])
    comp_ok = bool(np.all(np.abs(axis - ref) <= 0.01))
    angle = geometry.line_angle_between(axis, geometry.wire_tangent(61.0, 18.0))
    band_ok = 1.5 <= angle <= 3.5
    ok = comp_ok and band_ok
    _report(3, "two-orientation cross-product example", ok,
            f"axis = [{axis[0]:.3f}, {axis[1]:.3f}, {axis[2]:.3f}], "
            f"angle to wire model = {angle:.2f} deg (band [1.5, 3.5])")
    assert ok


def test_criterion_4_noiseless_planar_round_trip():
    errs = []
    for x, z, _ in TABLE1:
        run = reconstruct.end_to_end_planar(geometry.WireScene(x, z, 40.0),
                                            reconstruct.NV1_AXIS_INDEX)
        errs.append(run.error_deg)
    ok = max(errs) <= 0.1
    _report(4, "noiseless simulate-fit-reconstruct round trip", ok,
            f"max alpha error over nine positions = {max(errs):.2e} deg (tolerance 0.1)")
    assert ok


def test_criterion_5_noisy_end_to_end_statistics():
    scene = geometry.WireScene(61.0, 18.0, 40.0)
    rate, dwell = 200.0, 0.008
    # noise-level check: fitted relative intensity error of the deepest dip,
    # median over ten noise realizations
    basis = geometry.transverse_basis(
        geometry.crystallographic_axes()[reconstruct.NV1_AXIS_INDEX])
    psis = np.linspace(0.0, math.pi, 12, endpoint=False)
    sweep = odmrsim.simulate_phi_sweep(C, basis, 10.2, geometry.mw_direction(scene),
                                       geometry.wire_field_magnitude(scene),
                                       odmrsim.LineshapeParams(), odmrsim.default_grid(*GRID_MHZ),
                                       psis)
    plan = fitkit.FitPlan(sweep.frequencies, sweep.centers_mhz)
    rels = []
    for seed in range(10):
        noisy = odmrsim.noisy_copy_with_subseed(sweep, odmrsim.NoiseConfig(rate, dwell, seed))
        [(depths, sigmas)] = reconstruct.sweep_lp_depths(plan, noisy)
        k = int(np.argmax(depths))
        rels.append(float(sigmas[k] / depths[k]))
    rel = float(np.median(rels))

    errs = []
    for seed in range(100):
        cfg = reconstruct.ChainConfig(
            noise=reconstruct.NoiseConfig(rate_kcps=rate, dwell_s=dwell, seed=seed))
        run = reconstruct.end_to_end_planar(scene, reconstruct.NV1_AXIS_INDEX, cfg)
        errs.append(run.error_deg)
    median = float(np.median(errs))
    within = int(np.sum(np.array(errs) <= 5.0))
    ok = median <= 3.0 and within >= 80 and 0.05 <= rel <= 0.12
    _report(5, "noisy end-to-end over 100 seeds", ok,
            f"median error {median:.2f} deg (<= 3), {within}/100 within 5 deg (>= 80), "
            f"fitted sigma_I/I {rel:.3f} (target ~0.08)")
    assert ok


def test_criterion_6_sensitivity_figures():
    eta = sensitivity.eta(math.pi / 4.0, 0.08)
    sig = sensitivity.shot_noise_sigma_rel(200.0, 0.30, 1.0)
    eta_best = sensitivity.eta_max(sig)
    ok = abs(eta - 28.3e-3) <= 0.1e-3 and abs(eta_best - 2.64e-3) <= 0.05e-3
    _report(6, "angle sensitivity figures", ok,
            f"eta(pi/4, 0.08) = {eta * 1e3:.2f} mrad/sqrt(Hz) (28.3 +-0.1), "
            f"eta_max = {eta_best * 1e3:.2f} mrad/sqrt(Hz) (2.64 +-0.05)")
    assert ok


def test_criterion_7_planar_inversion_oracle_equivalence():
    nv_z = geometry.crystallographic_axes()[reconstruct.NV1_AXIS_INDEX]
    worst_pair = 0.0
    worst_inv = 0.0
    for alpha in np.arange(0.0, 360.0, 0.1):
        a = math.radians(alpha)
        u = geometry.unit(np.cross(nv_z, [math.sin(a), 0.0, math.cos(a)]))
        res = reconstruct.planar_alpha(u)
        oracle = reconstruct.closed_form_alpha_check(u)
        d_pair = min(reconstruct._circ_dist(res, oracle),
                     reconstruct._circ_dist(res, (oracle + 180.0) % 360.0))
        d_inv = min(reconstruct._circ_dist(res, alpha),
                    reconstruct._circ_dist(res + 180.0, alpha))
        worst_pair = max(worst_pair, d_pair)
        worst_inv = max(worst_inv, d_inv)
    ok = worst_pair <= 1e-6 and worst_inv <= 1e-6
    _report(7, "grid inversion vs closed-form oracle, 3600 angles", ok,
            f"max disagreement {worst_pair:.2e} deg, max forward-inverse error "
            f"{worst_inv:.2e} deg (tolerance 1e-6)")
    assert ok


def test_criterion_8_property_suite():
    checks = {}
    rng = np.random.default_rng(2024)

    # Hamiltonian Hermiticity and fixed trace
    herm, trace = 0.0, 0.0
    for _ in range(100):
        h = spinmodel.ground_hamiltonian(C, spinmodel.StaticFieldNV(
            rng.uniform(0, 50), rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi)))
        herm = max(herm, float(np.max(np.abs(h - h.conj().T))))
        trace = max(trace, abs(float(np.trace(h).real) - 2 * C.d_mhz))
    checks["hermiticity/trace"] = herm < 1e-9 and trace < 1e-9

    # eigenvector orthonormality and hybridized-state overlap (the analytic
    # |+-> combinations are stated in the field-aligned frame, phi = 0)
    ortho, overlap = 0.0, 1.0
    for b in np.linspace(0.5, 10.2, 30):
        eig = spinmodel.eigensystem(spinmodel.ground_hamiltonian(
            C, spinmodel.StaticFieldNV(b, math.pi / 2.0, 0.0)))
        v = np.column_stack(eig.states)
        ortho = max(ortho, float(np.max(np.abs(v.conj().T @ v - np.eye(3)))))
        overlap = min(overlap,
                      abs(np.vdot(KET_MINUS, eig.states[1])),
                      abs(np.vdot(KET_PLUS, eig.states[2])))
    checks["orthonormality"] = ortho < 1e-10
    checks["state overlap >= 0.995"] = overlap >= 0.995

    # cos^2 modulation of the sweep depths, noiseless R^2
    basis = geometry.transverse_basis(
        geometry.crystallographic_axes()[reconstruct.NV1_AXIS_INDEX])
    scene = geometry.WireScene(61.0, 18.0, 40.0)
    psis = np.linspace(0.0, math.pi, 12, endpoint=False)
    sweep = odmrsim.simulate_phi_sweep(C, basis, 10.2, geometry.mw_direction(scene),
                                       geometry.wire_field_magnitude(scene),
                                       odmrsim.LineshapeParams(), odmrsim.default_grid(*GRID_MHZ),
                                       psis)
    [(depths, _)] = reconstruct.sweep_lp_depths(
        fitkit.FitPlan(sweep.frequencies, sweep.centers_mhz), sweep)
    fit = fitkit.fit_cos2(psis, depths)
    model = fit.a * np.cos(psis - fit.psi0) ** 2 + fit.b
    ss_res = float(np.sum((depths - model) ** 2))
    ss_tot = float(np.sum((depths - depths.mean()) ** 2))
    checks["cos^2 law R^2 > 0.999"] = 1.0 - ss_res / ss_tot > 0.999

    # analytic Jacobian of the free-center dip fit vs finite differences: the
    # columns over [baseline, -depths, t = log(fwhm), centers] that
    # `fitkit._free_project` returns at its unweighted linear fit, off the optimum
    f, y = sweep.frequencies, sweep.signals[0]
    _, coef, _, jac_ana = fitkit._free_project(f, y, np.ones_like(f),
                                               np.array([7.0, 2898.9, 2925.7]))
    x = np.concatenate([coef, [math.log(7.0), 2898.9, 2925.7]])
    res_fn = lambda p: p[0] + sum(p[1 + k] * odmrsim.lorentzian(f, p[4 + k], math.exp(p[3]))
                                  for k in range(2)) - y
    jac_num = numeric_jacobian(res_fn, x)
    checks["jacobian vs finite diff"] = float(np.max(np.abs(jac_num - jac_ana))) < 1e-6

    # sweep direction period-pi sign identity
    period = max(
        float(np.max(np.abs(geometry.sweep_direction(basis, psi + math.pi)
                            + geometry.sweep_direction(basis, psi))))
        for psi in np.linspace(0.0, math.pi, 20)
    )
    checks["sweep period pi"] = period < 1e-12

    # cross product perpendicular to both inputs
    perp = 0.0
    for _ in range(100):
        u, v = rng.normal(size=3), rng.normal(size=3)
        c = np.cross(u, v)
        if np.linalg.norm(c) < 1e-9:
            continue
        c = c / np.linalg.norm(c)
        perp = max(perp, abs(c @ u) / np.linalg.norm(u), abs(c @ v) / np.linalg.norm(v))
    checks["cross perpendicularity"] = perp < 1e-12

    # seeded shot noise is reproducible
    clean = sweep.signals[0]
    a = odmrsim.NoiseConfig(100.0, 1.0, 5).draw(clean)
    b = odmrsim.NoiseConfig(100.0, 1.0, 5).draw(clean)
    checks["seeded noise reproducible"] = bool(np.array_equal(a, b))

    ok = all(checks.values())
    failed = [k for k, v in checks.items() if not v]
    _report(8, "property suite", ok,
            "all properties hold" if ok else f"failed: {failed}")
    assert ok
