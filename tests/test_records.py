"""The contracts of the library's record types.

Every record is an immutable named tuple.  A record that checks or coerces
its fields does so in `__new__`, so a bad value raises the same exception
whether it is passed by position or by keyword.  `_replace` (and `_make`)
build the tuple directly and run no checks: `src/` uses `_replace` only on
fields that are already checked, and to append a slot to a noise record's
spawn key.
"""

import math
import re

import numpy as np
import pytest

from nvorient import fitkit, geometry, odmrsim, reconstruct, sensitivity, spinmodel

# (record type, valid fields by name)
VALID = [
    (spinmodel.SpinConstants, {"d_mhz": 2870.0, "gamma_e": 28.02495}),
    (spinmodel.StaticFieldNV, {"b_mt": 10.2, "theta": math.pi / 2, "phi": 0.0}),
    (spinmodel.MwFieldNV, {"amplitude_mt": 0.0357, "zeta": 1.0, "transverse_azimuth": 0.5}),
    (geometry.WireScene, {"sensor_x_um": 61.0, "sensor_z_um": 18.0, "current_ma": 40.0,
                          "wire_diameter_um": 25.0}),
    (odmrsim.LineshapeParams, {"fwhm_mhz": 8.0, "contrast_ref": 0.02, "omega_ref_mhz": 1.0,
                               "model": "linear"}),
    (odmrsim.NoiseConfig, {"rate_kcps": 200.0, "dwell_s": 0.008, "seed": 1, "key": (2,)}),
]
VALID_FIELDS = {cls: fields for cls, fields in VALID}

NOISE_BOUND = "count rate and dwell time must be finite, with at most 1e18 mean counts per point"
FIELD_BOUND = "field magnitude must be finite and nonnegative"
AMPLITUDE_BOUND = "microwave amplitude must be finite and nonnegative"
SPLITTING_BOUND = "zero-field splitting must be finite and positive"
GYRO_BOUND = "gyromagnetic ratio must be finite and positive"
SCENE_BOUND = "sensor position and current must be finite"

# (test id, record type, fields that replace valid ones, exception, its
# message).  Each case names its own id, so a case added anywhere renames no
# other; the numbered ids keep the list positions they were first given.
BAD = [
    ("SpinConstants-d_mhz-0", spinmodel.SpinConstants, {"d_mhz": 0.0}, ValueError,
     SPLITTING_BOUND),
    ("SpinConstants-d_mhz-1", spinmodel.SpinConstants, {"d_mhz": math.nan}, ValueError,
     SPLITTING_BOUND),
    # inf once passed, and failed in the eigensolve as LinAlgError
    ("SpinConstants-d_mhz=inf", spinmodel.SpinConstants, {"d_mhz": math.inf}, ValueError,
     SPLITTING_BOUND),
    ("SpinConstants-gamma_e-2", spinmodel.SpinConstants, {"gamma_e": -1.0}, ValueError,
     GYRO_BOUND),
    ("SpinConstants-gamma_e=inf", spinmodel.SpinConstants, {"gamma_e": math.inf}, ValueError,
     GYRO_BOUND),
    ("StaticFieldNV-b_mt-3", spinmodel.StaticFieldNV, {"b_mt": -0.1}, ValueError, FIELD_BOUND),
    # NaN and inf once passed, and reached LAPACK as a Hamiltonian of NaNs
    ("StaticFieldNV-b_mt=nan", spinmodel.StaticFieldNV, {"b_mt": math.nan}, ValueError,
     FIELD_BOUND),
    ("StaticFieldNV-b_mt=inf", spinmodel.StaticFieldNV, {"b_mt": math.inf}, ValueError,
     FIELD_BOUND),
    ("StaticFieldNV-theta-4", spinmodel.StaticFieldNV, {"theta": 3.2}, ValueError,
     "theta must lie in [0, pi]"),
    ("StaticFieldNV-phi-5", spinmodel.StaticFieldNV, {"phi": 2 * math.pi}, ValueError,
     "phi must lie in [0, 2*pi)"),
    ("MwFieldNV-amplitude_mt-6", spinmodel.MwFieldNV, {"amplitude_mt": -1.0}, ValueError,
     AMPLITUDE_BOUND),
    ("MwFieldNV-amplitude_mt=nan", spinmodel.MwFieldNV, {"amplitude_mt": math.nan}, ValueError,
     AMPLITUDE_BOUND),
    ("MwFieldNV-amplitude_mt=inf", spinmodel.MwFieldNV, {"amplitude_mt": math.inf}, ValueError,
     AMPLITUDE_BOUND),
    ("MwFieldNV-zeta-7", spinmodel.MwFieldNV, {"zeta": -0.1}, ValueError,
     "zeta must lie in [0, pi]"),
    ("WireScene-sensor_x_um-sensor_z_um-8", geometry.WireScene,
     {"sensor_x_um": 0.0, "sensor_z_um": 0.0}, ValueError,
     "sensor placed at the wire center"),
    ("WireScene-sensor_x_um-sensor_z_um-9", geometry.WireScene,
     {"sensor_x_um": 5.0, "sensor_z_um": 5.0}, ValueError,
     "sensor radius must exceed the wire radius"),
    # each once passed, and failed later by naming the microwave amplitude or
    # with a divide warning
    ("WireScene-sensor_x_um=nan", geometry.WireScene, {"sensor_x_um": math.nan}, ValueError,
     SCENE_BOUND),
    ("WireScene-sensor_x_um=inf", geometry.WireScene, {"sensor_x_um": math.inf}, ValueError,
     SCENE_BOUND),
    ("WireScene-sensor_z_um=-inf", geometry.WireScene, {"sensor_z_um": -math.inf},
     ValueError, SCENE_BOUND),
    ("WireScene-current_ma=nan", geometry.WireScene, {"current_ma": math.nan}, ValueError,
     SCENE_BOUND),
    ("WireScene-current_ma=inf", geometry.WireScene, {"current_ma": math.inf}, ValueError,
     SCENE_BOUND),
    # each once switched the inside-the-wire check off
    ("WireScene-wire_diameter_um-36", geometry.WireScene, {"wire_diameter_um": -5.0},
     ValueError, "wire diameter must be finite and nonnegative"),
    ("WireScene-sensor_x_um-sensor_z_um-wire_diameter_um-37", geometry.WireScene,
     {"sensor_x_um": 1.0, "sensor_z_um": 0.0, "wire_diameter_um": math.nan},
     ValueError, "wire diameter must be finite and nonnegative"),
    ("LineshapeParams-fwhm_mhz-10", odmrsim.LineshapeParams, {"fwhm_mhz": 0.0}, ValueError,
     "fwhm must be finite and positive"),
    # once accepted: a divide warning in the synthesis
    ("LineshapeParams-fwhm_mhz=inf", odmrsim.LineshapeParams, {"fwhm_mhz": math.inf},
     ValueError, "fwhm must be finite and positive"),
    ("LineshapeParams-contrast_ref-11", odmrsim.LineshapeParams, {"contrast_ref": 1.5},
     ValueError, "contrast_ref must lie in (0, 1]"),
    ("LineshapeParams-omega_ref_mhz-12", odmrsim.LineshapeParams, {"omega_ref_mhz": -1.0},
     ValueError, "omega_ref must be finite and positive"),
    # once accepted: zero contrast, refused later as a modulation below resolution
    ("LineshapeParams-omega_ref_mhz=inf", odmrsim.LineshapeParams, {"omega_ref_mhz": math.inf},
     ValueError, "omega_ref must be finite and positive"),
    ("LineshapeParams-model-13", odmrsim.LineshapeParams, {"model": "cubic"}, ValueError,
     "unknown intensity model 'cubic'"),
    ("NoiseConfig-rate_kcps-14", odmrsim.NoiseConfig, {"rate_kcps": 0.0}, ValueError,
     "count rate and dwell time must be positive"),
    ("NoiseConfig-dwell_s-15", odmrsim.NoiseConfig, {"dwell_s": -1.0}, ValueError,
     "count rate and dwell time must be positive"),
    ("NoiseConfig-rate_kcps-33", odmrsim.NoiseConfig, {"rate_kcps": math.inf}, ValueError,
     NOISE_BOUND),
    ("NoiseConfig-dwell_s-34", odmrsim.NoiseConfig, {"dwell_s": math.inf}, ValueError,
     NOISE_BOUND),
    # 1e21 mean counts: numpy's Poisson sampler refuses means above about 9.2e18
    ("NoiseConfig-rate_kcps-dwell_s-35", odmrsim.NoiseConfig,
     {"rate_kcps": 1e12, "dwell_s": 1e6}, ValueError, NOISE_BOUND),
    # both positive, but their product underflows: the draw divided 0 by 0
    ("NoiseConfig-rate_kcps-dwell_s=underflow", odmrsim.NoiseConfig,
     {"rate_kcps": 1e-300, "dwell_s": 1e-300}, ValueError,
     "count rate times dwell time underflows to 0 mean counts per point"),
    ("NoiseConfig-seed-25", odmrsim.NoiseConfig, {"seed": 1.5}, ValueError,
     "seed must be an integer >= 0"),
    ("NoiseConfig-seed-26", odmrsim.NoiseConfig, {"seed": -1}, ValueError,
     "seed must be an integer >= 0"),
    ("NoiseConfig-seed-27", odmrsim.NoiseConfig, {"seed": True}, ValueError,
     "seed must be an integer >= 0"),
    ("NoiseConfig-key-28", odmrsim.NoiseConfig, {"key": (1.5,)}, ValueError,
     "key must be a tuple of integers >= 0"),
    ("NoiseConfig-key-29", odmrsim.NoiseConfig, {"key": (0, -1)}, ValueError,
     "key must be a tuple of integers >= 0"),
    ("NoiseConfig-key-30", odmrsim.NoiseConfig, {"key": (True,)}, ValueError,
     "key must be a tuple of integers >= 0"),
    ("NoiseConfig-key-31", odmrsim.NoiseConfig, {"key": [0]}, ValueError,
     "key must be a tuple of integers >= 0"),
    ("NoiseConfig-key-32", odmrsim.NoiseConfig, {"key": 0}, ValueError,
     "key must be a tuple of integers >= 0"),
]
BAD_PARAMS = [pytest.param(*case, id=case_id) for case_id, *case in BAD]


def valid(cls):
    return cls(**VALID_FIELDS[cls])


def plain(cls):
    """A record that checks nothing, with a placeholder in every field."""
    return cls(*range(len(cls._fields)))


def instances():
    """One instance of every record type of the library."""
    return [valid(cls) for cls, _ in VALID] + [plain(cls) for cls in (
        spinmodel.EigenSystem, geometry.TransverseBasis, fitkit.DipEstimate,
        fitkit.PinnedDipFit, fitkit.Cos2Fit, reconstruct.NvYEstimate,
        reconstruct.MwAxisEstimate, reconstruct.PlanarRunResult)] + [reconstruct.ChainConfig()]


def carried_noise():
    """The noise record sweep 3 of a fan-out is drawn with: built by
    `_replace`, with the slot of its draw appended to the key."""
    noise = valid(odmrsim.NoiseConfig)
    slot = noise._replace(key=noise.key + (3,))
    assert slot == noise._replace(key=(2, 3))
    return slot


RECORDS = ([pytest.param(r, id=type(r).__name__) for r in instances()]
           + [pytest.param(carried_noise(), id="CountsMeta")])


def test_every_record_type_is_covered():
    defined = {obj for mod in (spinmodel, geometry, odmrsim, fitkit, sensitivity, reconstruct)
               for obj in vars(mod).values()
               if isinstance(obj, type) and issubclass(obj, tuple) and hasattr(obj, "_fields")
               and obj.__module__.startswith("nvorient.")}
    assert {type(r) for r in instances()} == defined


@pytest.mark.parametrize("cls, bad, exc, message", BAD_PARAMS)
def test_bad_value_raises_by_position_and_keyword(cls, bad, exc, message):
    fields = dict(VALID_FIELDS[cls], **bad)
    with pytest.raises(exc, match=f"^{re.escape(message)}$"):
        cls(*(fields[name] for name in cls._fields))
    with pytest.raises(exc, match=f"^{re.escape(message)}$"):
        cls(**fields)


@pytest.mark.parametrize("cls", [cls for cls, _ in VALID], ids=lambda cls: cls.__name__)
def test_valid_fields_by_position_and_keyword(cls):
    fields = VALID_FIELDS[cls]
    by_position = cls(*(fields[name] for name in cls._fields))
    by_keyword = cls(**fields)
    assert by_position._fields == by_keyword._fields == tuple(fields)
    for a, b in zip(by_position, by_keyword):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("cls, bad, exc, message", BAD_PARAMS)
def test_replace_runs_no_checks(cls, bad, exc, message):
    # the bad value goes in unchecked: `_replace` is for fields already checked
    replaced = valid(cls)._replace(**bad)
    for name, value in bad.items():
        assert getattr(replaced, name) is value


@pytest.mark.parametrize("record", RECORDS)
def test_attributes_cannot_be_assigned(record):
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, 0.0)
    with pytest.raises(AttributeError):
        record.extra = 0.0


@pytest.mark.parametrize("record", RECORDS)
def test_repr_names_the_fields(record):
    text = repr(record)
    assert text.startswith(f"{type(record).__name__}(")
    assert all(f"{name}=" in text for name in record._fields)


def test_one_noise_record():
    # the chain's noise config is the record noisy sweeps are drawn with,
    # so a bad one fails when it is built, not at the first noisy copy
    assert reconstruct.NoiseConfig is odmrsim.NoiseConfig
    with pytest.raises(ValueError, match="^count rate and dwell time must be positive$"):
        reconstruct.ChainConfig(
            noise=reconstruct.NoiseConfig(rate_kcps=0.0, dwell_s=0.008, seed=1))
