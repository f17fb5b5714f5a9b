import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nvorient import geometry as geo
from nvorient.errors import DegeneratePositionError

nonzero_xz = st.tuples(
    st.floats(-500.0, 500.0), st.floats(-500.0, 500.0)
).filter(lambda p: math.hypot(*p) > 13.0)


class TestCrystallographicAxes:
    def test_unit_norm_and_tetrahedral_angles(self):
        axes = geo.crystallographic_axes()
        assert len(axes) == 4
        for a in axes:
            assert abs(np.linalg.norm(a) - 1.0) < 1e-15
        for i in range(4):
            for j in range(i + 1, 4):
                assert abs(axes[i] @ axes[j] + 1.0 / 3.0) < 1e-15

    def test_fixed_order(self):
        axes = geo.crystallographic_axes()
        assert np.allclose(axes[3] * math.sqrt(3.0), [-1.0, -1.0, 1.0])
        assert np.allclose(axes[1] * math.sqrt(3.0), [1.0, -1.0, -1.0])

    def test_built_once_and_read_only(self):
        # every call returns the same arrays, so none of them may be written
        signs = [[1.0, 1.0, 1.0], [1.0, -1.0, -1.0], [-1.0, 1.0, -1.0], [-1.0, -1.0, 1.0]]
        for axis, s in zip(geo.crystallographic_axes(), signs):
            assert axis.tobytes() == (np.array(s) / math.sqrt(3.0)).tobytes()
            with pytest.raises(ValueError, match="read-only"):
                axis[0] = 0.0
            with pytest.raises(ValueError, match="read-only"):
                axis *= 2.0
            with pytest.raises(ValueError):
                axis.setflags(write=True)
        assert geo.crystallographic_axes()[0][0] == 1.0 / math.sqrt(3.0)


class TestWireField:
    def test_tangent_above_wire(self):
        # directly above the wire (x=0, z>0) the tangent points along +X_L
        assert np.allclose(geo.wire_tangent(0.0, 30.0), [1.0, 0.0, 0.0])
        assert np.allclose(geo.wire_tangent(30.0, 0.0), [0.0, 0.0, -1.0])

    def test_tangent_perpendicular_to_radius(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            x, z = rng.uniform(-100, 100, 2)
            if math.hypot(x, z) < 1e-6:
                continue
            t = geo.wire_tangent(x, z)
            assert abs(t @ np.array([x, 0.0, z])) < 1e-9 * math.hypot(x, z)
            assert abs(np.linalg.norm(t) - 1.0) < 1e-12

    def test_center_degenerate(self):
        with pytest.raises(DegeneratePositionError):
            geo.wire_tangent(0.0, 0.0)
        with pytest.raises(DegeneratePositionError):
            geo.WireScene(0.0, 0.0, 40.0)

    def test_inside_wire_rejected(self):
        with pytest.raises(ValueError):
            geo.WireScene(5.0, 5.0, 40.0)

    def test_current_sign_flips_direction(self):
        pos = geo.mw_direction(geo.WireScene(61.0, 18.0, 40.0))
        neg = geo.mw_direction(geo.WireScene(61.0, 18.0, -40.0))
        assert np.allclose(pos, -neg)

    def test_field_magnitude(self):
        # mu0 * I / (2 pi r) with I = 40 mA at r = 50 um -> 0.16 mT
        scene = geo.WireScene(30.0, 40.0, 40.0)
        assert abs(geo.wire_field_magnitude(scene) - 0.16) < 1e-12
        double = geo.WireScene(30.0, 40.0, 80.0)
        assert abs(geo.wire_field_magnitude(double) - 0.32) < 1e-12

    def test_alpha_examples(self):
        assert abs(geo.alpha_of_position(0.0, 30.0) - 90.0) < 1e-9
        assert abs(geo.alpha_of_position(30.0, 0.0) - 180.0) < 1e-9
        # atan2(18, -61) = 163.55 deg at the (61, 18) reference position
        assert abs(geo.alpha_of_position(61.0, 18.0) - 163.554) < 1e-2

    @settings(max_examples=100, deadline=None)
    @given(p=nonzero_xz, s=st.floats(0.1, 10.0))
    def test_alpha_scale_invariant(self, p, s):
        x, z = p
        assert abs(geo.alpha_of_position(x, z) - geo.alpha_of_position(s * x, s * z)) < 1e-9


class TestTransverseBasis:
    def test_reference_orientation(self, nv1_basis):
        # nv_z = (1/sqrt 3)[-1,-1,1]: projection of X_L then the closing cross
        assert np.allclose(nv1_basis.e1,
                           [math.sqrt(2.0 / 3.0), -1.0 / math.sqrt(6.0), 1.0 / math.sqrt(6.0)],
                           atol=1e-12)
        assert np.allclose(nv1_basis.e2, [0.0, 1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0)],
                           atol=1e-12)

    def test_orthonormal_right_handed_all_axes(self):
        for nv_z in geo.crystallographic_axes():
            b = geo.transverse_basis(nv_z)
            for u, v in ((b.e1, b.e2), (b.e1, b.nv_z), (b.e2, b.nv_z)):
                assert abs(u @ v) < 1e-12
            assert abs(np.linalg.norm(b.e1) - 1.0) < 1e-12
            assert abs(np.linalg.norm(b.e2) - 1.0) < 1e-12
            assert np.allclose(np.cross(b.e1, b.e2), nv_z, atol=1e-12)

    def test_x_aligned_fallback(self):
        b = geo.transverse_basis(np.array([1.0, 0.0, 0.0]))
        assert np.allclose(b.e1, [0.0, 1.0, 0.0], atol=1e-12)
        assert np.allclose(b.e2, [0.0, 0.0, 1.0], atol=1e-12)

    def test_sweep_direction_period_and_plane(self, nv1_basis):
        for psi in np.linspace(0.0, 2 * math.pi, 17):
            d = geo.sweep_direction(nv1_basis, psi)
            assert abs(np.linalg.norm(d) - 1.0) < 1e-12
            assert abs(d @ nv1_basis.nv_z) < 1e-12
            assert np.allclose(d, -geo.sweep_direction(nv1_basis, psi + math.pi), atol=1e-12)
        assert np.allclose(geo.sweep_direction(nv1_basis, 0.0), nv1_basis.e1)
        assert np.allclose(geo.sweep_direction(nv1_basis, math.pi / 2.0), nv1_basis.e2)


class TestAngles:
    def test_examples(self):
        assert abs(geo.angle_between([1, 0, 0], [0, 1, 0]) - 90.0) < 1e-12
        assert abs(geo.angle_between([1, 0, 0], [-1, 0, 0]) - 180.0) < 1e-12
        assert abs(geo.line_angle_between([1, 0, 0], [-1, 0, 0])) < 1e-12

    def test_symmetry_and_bounds(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            u, v = rng.normal(size=3), rng.normal(size=3)
            a = geo.angle_between(u, v)
            assert abs(a - geo.angle_between(v, u)) < 1e-10
            assert 0.0 <= a <= 180.0
            la = geo.line_angle_between(u, v)
            assert 0.0 <= la <= 90.0
            assert abs(la - geo.line_angle_between(-u, v)) < 1e-9

    def test_small_angles_resolved(self):
        # acos of the dot product reads 0 below about 1e-6 deg
        eps = 1e-9
        u, v = [1.0, 0.0, 0.0], [math.cos(eps), math.sin(eps), 0.0]
        expected = math.degrees(eps)  # 5.73e-8 deg
        for angle in (geo.angle_between(u, v), geo.line_angle_between(u, v),
                      geo.line_angle_between(u, [-c for c in v])):
            assert abs(angle - expected) <= 1e-12 * expected

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            geo.angle_between([0, 0, 0], [1, 0, 0])
        with pytest.raises(ValueError):
            geo.unit(np.zeros(3))
