import math
import re
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nvorient import spinmodel as sm

C = sm.SpinConstants()

# the hybridized transverse-field states, basis {|+1>, |0>, |-1>}
KET_MINUS = np.array([-1.0, 0.0, 1.0], dtype=complex) / math.sqrt(2.0)  # (|-1> - |+1>)/sqrt(2)
KET_PLUS = np.array([1.0, 0.0, 1.0], dtype=complex) / math.sqrt(2.0)    # (|-1> + |+1>)/sqrt(2)


@dataclass(frozen=True)
class RabiAmplitudes:
    """Coupling strengths gamma_e*B_mw*|<i|n.S|j>| for the three level pairs, MHz."""

    omega_0m: float
    omega_0p: float
    omega_mp: float


def rabi_amplitudes(eig: sm.EigenSystem, consts: sm.SpinConstants,
                    mw: sm.MwFieldNV) -> RabiAmplitudes:
    """Microwave coupling amplitudes of one direction, no rotating-wave 1/2
    factor: the per-direction reference for `sm.zero_transition_elements`."""
    n = mw.direction()
    op = n[0] * sm.SX + n[1] * sm.SY + n[2] * sm.SZ
    v0, vm, vp = eig.states
    pref = consts.gamma_e * mw.amplitude_mt
    return RabiAmplitudes(
        omega_0m=pref * abs(np.vdot(vm, op @ v0)),
        omega_0p=pref * abs(np.vdot(vp, op @ v0)),
        omega_mp=pref * abs(np.vdot(vp, op @ vm)),
    )


def transverse_eig(b_mt, phi=0.0):
    field = sm.StaticFieldNV(b_mt, math.pi / 2.0, phi)
    return sm.eigensystem(sm.ground_hamiltonian(C, field))


class TestGroundHamiltonian:
    def test_zero_field_is_diagonal(self):
        h = sm.ground_hamiltonian(C, sm.StaticFieldNV(0.0, 0.0, 0.0))
        assert np.allclose(h, np.diag([2870.0, 0.0, 2870.0]), atol=1e-12)

    def test_trace_is_twice_d(self):
        h = sm.ground_hamiltonian(C, sm.StaticFieldNV(33.0, 1.1, 2.2))
        assert abs(np.trace(h).real - 5740.0) < 1e-9

    def test_transverse_coupling_elements(self):
        # direct evaluation of the Sx matrix elements at theta=pi/2, phi=0
        h = sm.ground_hamiltonian(C, sm.StaticFieldNV(10.2, math.pi / 2.0, 0.0))
        expected = C.gamma_e * 10.2 / math.sqrt(2.0)
        assert abs(h[0, 1] - expected) < 1e-12
        assert abs(h[1, 2] - expected) < 1e-12
        assert np.allclose(np.diag(h).real, [2870.0, 0.0, 2870.0], atol=1e-12)

    def test_hermiticity_and_trace_random(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            field = sm.StaticFieldNV(rng.uniform(0, 50), rng.uniform(0, math.pi),
                                     rng.uniform(0, 2 * math.pi))
            h = sm.ground_hamiltonian(C, field)
            assert np.max(np.abs(h - h.conj().T)) < 1e-9
            assert abs(np.trace(h).real - 2 * C.d_mhz) < 1e-9

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            sm.StaticFieldNV(-1.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            sm.StaticFieldNV(1.0, 4.0, 0.0)
        with pytest.raises(ValueError):
            sm.SpinConstants(d_mhz=-1.0)

    def test_overflowing_zeeman_term_refused(self):
        # gamma_e * 1e307 mT overflows to inf, which filled the matrix with
        # NaN and failed in LAPACK as "Eigenvalues did not converge"
        message = "Zeeman term gamma_e*B is not finite: 28.02495 MHz/mT times 1e+307 mT"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            sm.ground_hamiltonian(C, sm.StaticFieldNV(1e307, math.pi / 2.0, 0.0))


class TestEigensystem:
    def test_zero_field_degeneracy(self):
        eig = sm.eigensystem(sm.ground_hamiltonian(C, sm.StaticFieldNV(0.0, 0.0, 0.0)))
        assert np.allclose(sorted(eig.energies), [0.0, 2870.0, 2870.0], atol=1e-9)
        assert abs(eig.f_0m - 2870.0) < 1e-9
        assert abs(eig.f_0p - 2870.0) < 1e-9

    def test_axial_field_analytic(self):
        eig = sm.eigensystem(sm.ground_hamiltonian(C, sm.StaticFieldNV(10.2, 0.0, 0.0)))
        gb = C.gamma_e * 10.2
        assert abs(eig.f_0m - (2870.0 - gb)) < 1e-8
        assert abs(eig.f_0p - (2870.0 + gb)) < 1e-8

    def test_transverse_bias_frequencies(self, transverse_10mt):
        assert abs(transverse_10mt.f_0m - 2898.0) < 1.0
        assert abs(transverse_10mt.f_0p - 2926.0) < 1.0

    def test_orthonormality_and_trace_random(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            field = sm.StaticFieldNV(rng.uniform(0, 50), rng.uniform(0, math.pi),
                                     rng.uniform(0, 2 * math.pi))
            eig = sm.eigensystem(sm.ground_hamiltonian(C, field))
            v = np.column_stack(eig.states)
            assert np.max(np.abs(v.conj().T @ v - np.eye(3))) < 1e-10
            assert abs(sum(eig.energies) - 2 * C.d_mhz) < 1e-8
            assert eig.energies[1] <= eig.energies[2]

    def test_analytic_eigenstate_overlap(self):
        # amplitude overlap with the hybridized |-+> states; see notes on the
        # exact mixing angle at 10.2 mT
        rng = np.random.default_rng(3)
        for b in np.concatenate([[10.2], rng.uniform(0.5, 10.2, 40)]):
            eig = transverse_eig(b)
            assert abs(np.vdot(KET_MINUS, eig.states[1])) >= 0.995
            assert abs(np.vdot(KET_PLUS, eig.states[2])) >= 0.995

    def test_frequency_floor_transverse(self):
        for b in np.linspace(0.0, 10.2, 40):
            eig = transverse_eig(b)
            assert eig.f_0m >= 2870.0 - 1e-8
            assert eig.f_0p >= 2870.0 - 1e-8

    def test_labeling_error(self):
        with pytest.raises(ValueError, match=r"^maximal \|0> weight is 0\.\d{3} <= 0\.5; "
                                             "labels undefined$"):
            sm.eigensystem(np.ones((3, 3), dtype=complex))

    def test_matrix_not_3x3_rejected(self):
        with pytest.raises(ValueError, match="^Hamiltonian must be 3x3$"):
            sm.eigensystem(np.eye(2))

    def test_non_hermitian_rejected(self):
        h = np.zeros((3, 3), dtype=complex)
        h[0, 1] = 1.0
        with pytest.raises(ValueError):
            sm.eigensystem(h)

    @pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
    def test_matrix_not_finite_rejected(self, value):
        # a NaN passed the Hermitian check and failed in LAPACK as
        # "Eigenvalues did not converge"
        h = np.diag([1.0, 0.0, 1.0]).astype(complex)
        h[0, 0] = value
        with pytest.raises(ValueError, match="^Hamiltonian must be finite$"):
            sm.eigensystem(h)


class TestRabiAmplitudes:
    B_MW = 0.0357

    def test_mw_along_static_field(self, transverse_10mt):
        om = rabi_amplitudes(transverse_10mt, C,
                             sm.MwFieldNV(self.B_MW, math.pi / 2.0, 0.0))
        assert om.omega_0m / om.omega_0p < 0.05

    def test_mw_perpendicular_to_static_field(self, transverse_10mt):
        om = rabi_amplitudes(transverse_10mt, C,
                             sm.MwFieldNV(self.B_MW, math.pi / 2.0, math.pi / 2.0))
        assert om.omega_0p / om.omega_0m < 0.05

    def test_axial_mw_couples_only_m_to_p(self, transverse_10mt):
        om = rabi_amplitudes(transverse_10mt, C, sm.MwFieldNV(self.B_MW, 0.0))
        scale = C.gamma_e * self.B_MW
        assert om.omega_0p < 1e-10 * scale
        # small 0<->m leakage scales with the |0>/|+> mixing (~gamma*B/D)
        assert om.omega_0m < 0.15 * scale
        assert om.omega_mp > 0.9 * scale

    def test_rotational_covariance(self):
        for shift in (0.4, 1.7, 3.0):
            e1 = transverse_eig(10.2, 0.9)
            e2 = transverse_eig(10.2, (0.9 + shift) % (2 * math.pi))
            o1 = rabi_amplitudes(e1, C, sm.MwFieldNV(self.B_MW, 1.0, 0.9 + 0.3))
            o2 = rabi_amplitudes(e2, C, sm.MwFieldNV(self.B_MW, 1.0, 0.9 + shift + 0.3))
            assert abs(o1.omega_0m - o2.omega_0m) < 1e-10
            assert abs(o1.omega_0p - o2.omega_0p) < 1e-10
            assert abs(o1.omega_mp - o2.omega_mp) < 1e-10

    @pytest.mark.parametrize("b_mt", [2.0, 10.2])
    def test_cosine_law_of_relative_azimuth(self, b_mt):
        eig = transverse_eig(b_mt)
        ref = rabi_amplitudes(eig, C, sm.MwFieldNV(self.B_MW, math.pi / 2.0, 0.0))
        for delta in np.linspace(0.0, 2 * math.pi, 36, endpoint=False):
            om = rabi_amplitudes(eig, C, sm.MwFieldNV(self.B_MW, math.pi / 2.0, delta))
            assert abs(om.omega_0p / ref.omega_0p - abs(math.cos(delta))) < 1e-3

    def test_equal_intensity_at_pi_over_4(self, transverse_10mt):
        om = rabi_amplitudes(transverse_10mt, C,
                             sm.MwFieldNV(self.B_MW, math.pi / 2.0, math.pi / 4.0))
        om_m, om_p = om.omega_0m, om.omega_0p
        assert abs(om_m - om_p) / om_p < 0.05


@settings(max_examples=150, deadline=None)
@given(b=st.floats(0.0, 50.0), theta=st.floats(0.0, math.pi),
       phi=st.floats(0.0, 2 * math.pi, exclude_max=True))
def test_eigensystem_reconstructs_hamiltonian(b, theta, phi):
    h = sm.ground_hamiltonian(C, sm.StaticFieldNV(b, theta, phi))
    eig = sm.eigensystem(h)
    v = np.column_stack(eig.states)
    rebuilt = v @ np.diag(eig.energies) @ v.conj().T
    assert np.max(np.abs(rebuilt - h)) < 1e-8
