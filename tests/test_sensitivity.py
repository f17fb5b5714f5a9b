import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nvorient import sensitivity as sens


class TestEta:
    def test_reference_point(self):
        # phi = pi/4, sigma_rel = 0.08, single shot, 1 s
        val = sens.eta(sens.SensitivityInput(phi=math.pi / 4.0, sigma_rel=0.08))
        assert abs(val - 0.08 / (2.0 * math.sqrt(2.0))) < 1e-15
        assert abs(val - 28.3e-3) < 0.1e-3

    def test_eta_max_equals_quarter_pi_point(self):
        assert sens.eta_max(0.08) == sens.eta(
            sens.SensitivityInput(phi=math.pi / 4.0, sigma_rel=0.08))

    def test_best_case_from_shot_noise(self):
        # 200 kcps at 30% contrast integrated for 1 s
        sig = sens.shot_noise_sigma_rel(200.0, 0.30, 1.0)
        val = sens.eta_max(sig)
        assert abs(val - 2.64e-3) < 0.01e-3

    def test_phi_dependence(self):
        sig = 0.05
        etas = [sens.eta(sens.SensitivityInput(phi=p, sigma_rel=sig))
                for p in np.linspace(0.01, math.pi / 2.0 - 0.01, 50)]
        # maximized at phi = pi/4, symmetric falloff toward the endpoints
        assert max(etas) <= sens.eta_max(sig) + 1e-15
        assert etas[0] < max(etas)
        assert etas[-1] < max(etas)

    def test_averaging_scaling(self):
        base = sens.eta(sens.SensitivityInput(phi=0.6, sigma_rel=0.05))
        n4 = sens.eta(sens.SensitivityInput(phi=0.6, sigma_rel=0.05, n=4))
        t9 = sens.eta(sens.SensitivityInput(phi=0.6, sigma_rel=0.05, t=9.0))
        assert abs(n4 - 2.0 * base) < 1e-15
        assert abs(t9 - 3.0 * base) < 1e-15

    def test_input_validation(self):
        with pytest.raises(ValueError):
            sens.SensitivityInput(phi=0.3, sigma_rel=0.0)
        with pytest.raises(ValueError):
            sens.SensitivityInput(phi=0.3, sigma_rel=0.1, n=0)
        with pytest.raises(ValueError):
            sens.SensitivityInput(phi=0.3, sigma_rel=0.1, t=-1.0)


class TestShotNoise:
    def test_scaling_laws(self):
        base = sens.shot_noise_sigma_rel(100.0, 0.2, 1.0)
        assert abs(sens.shot_noise_sigma_rel(400.0, 0.2, 1.0) - base / 2.0) < 1e-15
        assert abs(sens.shot_noise_sigma_rel(100.0, 0.4, 1.0) - base / 2.0) < 1e-15
        assert abs(sens.shot_noise_sigma_rel(100.0, 0.2, 4.0) - base / 2.0) < 1e-15

    def test_validation(self):
        with pytest.raises(ValueError):
            sens.shot_noise_sigma_rel(0.0, 0.2, 1.0)
        with pytest.raises(ValueError):
            sens.shot_noise_sigma_rel(100.0, 1.5, 1.0)
        with pytest.raises(ValueError):
            sens.shot_noise_sigma_rel(100.0, 0.2, 0.0)


@settings(max_examples=100, deadline=None)
@given(phi=st.floats(0.0, math.pi / 2.0 - 1e-6),
       rel=st.floats(1e-4, 0.5), n=st.integers(1, 100))
def test_eta_nonnegative_and_bounded(phi, rel, n):
    val = sens.eta(sens.SensitivityInput(phi=phi, sigma_rel=rel, n=n))
    assert val >= 0.0
    assert val <= sens.eta_max(rel, n=n) + 1e-12
