import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nvorient import sensitivity as sens


ETA_VALID = {"phi": 0.3, "sigma_rel": 0.01, "n": 1, "t": 1.0}
SIGMA_REL = "sigma_rel must be finite and positive"
REPETITIONS = "repetition count must be an integer >= 1"
SENSING_TIME = "sensing time must be finite and positive"
ETA_RANGE = "sigma_rel * sqrt(n * t) lies outside the float range"
SIGMA_REL_RANGE = "rate, contrast and time give a sigma_rel outside the float range"


class TestEta:
    def test_reference_point(self):
        # phi = pi/4, sigma_rel = 0.08, single shot, 1 s
        val = sens.eta(math.pi / 4.0, 0.08)
        assert abs(val - 0.08 / (2.0 * math.sqrt(2.0))) < 1e-15
        assert abs(val - 28.3e-3) < 0.1e-3

    def test_eta_max_equals_quarter_pi_point(self):
        assert sens.eta_max(0.08) == sens.eta(math.pi / 4.0, 0.08)

    def test_best_case_from_shot_noise(self):
        # 200 kcps at 30% contrast integrated for 1 s
        sig = sens.shot_noise_sigma_rel(200.0, 0.30, 1.0)
        val = sens.eta_max(sig)
        assert abs(val - 2.64e-3) < 0.01e-3

    def test_phi_dependence(self):
        sig = 0.05
        etas = [sens.eta(p, sig) for p in np.linspace(0.01, math.pi / 2.0 - 0.01, 50)]
        # maximized at phi = pi/4, symmetric falloff toward the endpoints
        assert max(etas) <= sens.eta_max(sig) + 1e-15
        assert etas[0] < max(etas)
        assert etas[-1] < max(etas)

    def test_averaging_scaling(self):
        base = sens.eta(0.6, 0.05)
        n4 = sens.eta(0.6, 0.05, n=4)
        t9 = sens.eta(0.6, 0.05, t=9.0)
        assert abs(n4 - 2.0 * base) < 1e-15
        assert abs(t9 - 3.0 * base) < 1e-15

    def test_input_validation(self):
        # eta takes the same inputs by position or by keyword alike
        assert sens.eta(*ETA_VALID.values()) == sens.eta(**ETA_VALID) > 0.0
        assert sens.eta(0.3, 0.01, np.int64(4)) == sens.eta(0.3, 0.01, 4)

    @pytest.mark.parametrize("bad, message", [
        pytest.param({"sigma_rel": 0.0}, SIGMA_REL, id="sigma_rel-22"),
        pytest.param({"sigma_rel": math.nan}, SIGMA_REL, id="sigma_rel=nan"),
        pytest.param({"n": 0}, REPETITIONS, id="n-23"),
        pytest.param({"t": 0.0}, SENSING_TIME, id="t-24"),
        pytest.param({"t": -1.0}, SENSING_TIME, id="t=-1"),
        # each once returned nan or inf, or was accepted as a repetition count
        pytest.param({"sigma_rel": math.inf}, SIGMA_REL, id="sigma_rel=inf"),
        pytest.param({"t": math.inf}, SENSING_TIME, id="t=inf"),
        pytest.param({"n": 2.5}, REPETITIONS, id="n=2.5"),
        pytest.param({"n": True}, REPETITIONS, id="n=True"),
    ])
    def test_bad_value_raises_by_position_and_keyword(self, bad, message):
        # eta checks its own inputs: the same exception and message whether a
        # bad value is passed by position or by keyword, and through eta_max
        args = dict(ETA_VALID, **bad)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            sens.eta(*args.values())
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            sens.eta(**args)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            sens.eta_max(**{k: v for k, v in args.items() if k != "phi"})

    @pytest.mark.parametrize("args", [
        (0.3, 0.1, 10 ** 300, 1e10), (0.3, 0.1, 10 ** 400, 1.0), (0.3, 1e300, 1, 1e300),
        (0.0, 0.1, 10 ** 300, 1e10), (0.3, 1e-300, 1, 1e-300),
    ], ids=["n-times-t", "n-beyond-float", "sigma-times-root", "phi-zero", "underflow"])
    def test_figure_outside_float_range_rejected(self, args):
        # the first and third once returned inf, the second raised
        # OverflowError and the fourth returned nan; an underflow read 0.0
        for fn, fn_args in ((sens.eta, args), (sens.eta_max, args[1:])):
            with pytest.raises(ValueError, match=f"^{re.escape(ETA_RANGE)}$"):
                fn(*fn_args)

    @pytest.mark.parametrize("phi", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    def test_phi_not_finite_rejected(self, phi):
        # nan once returned nan, and inf raised "math domain error"
        with pytest.raises(ValueError, match="^phi must be finite$"):
            sens.eta(phi, 0.1)


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

    @pytest.mark.parametrize("args, message", [
        ((math.inf, 0.3, 1.0), "count rate must be finite and positive"),
        ((math.nan, 0.3, 1.0), "count rate must be finite and positive"),
        ((200.0, 0.3, math.inf), "integration time must be finite and positive"),
        ((200.0, 0.3, math.nan), "integration time must be finite and positive"),
    ], ids=["rate=inf", "rate=nan", "time=inf", "time=nan"])
    def test_not_finite_rejected(self, args, message):
        # inf once returned sigma_rel 0.0, a noise-free figure
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            sens.shot_noise_sigma_rel(*args)

    @pytest.mark.parametrize("args", [(1e-300, 1e-300, 1e-300), (1e300, 1.0, 1e300),
                                      (1e-300, 1e-170, 1e-5)],
                             ids=["counts-underflow", "counts-overflow", "figure-overflow"])
    def test_figure_outside_float_range_rejected(self, args):
        # finite inputs once raised ZeroDivisionError or returned 0.0 or inf
        with pytest.raises(ValueError, match=f"^{re.escape(SIGMA_REL_RANGE)}$"):
            sens.shot_noise_sigma_rel(*args)


@settings(max_examples=100, deadline=None)
@given(phi=st.floats(0.0, math.pi / 2.0 - 1e-6),
       rel=st.floats(1e-4, 0.5), n=st.integers(1, 100))
def test_eta_nonnegative_and_bounded(phi, rel, n):
    val = sens.eta(phi, rel, n)
    assert val >= 0.0
    assert val <= sens.eta_max(rel, n=n) + 1e-12
