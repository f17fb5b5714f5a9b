"""Exception types shared across the package."""


class NvOrientError(Exception):
    """Base class for all package-specific errors."""


class LabelingError(NvOrientError):
    """No eigenvector has majority overlap with |0>; level labels undefined."""


class DegeneratePositionError(NvOrientError):
    """Sensor position coincides with the wire center."""


class ContrastOverflowError(NvOrientError):
    """Summed dip contrasts would drive the normalized signal negative."""


class SingularNormalEquationsError(NvOrientError):
    """Normal equations of the least-squares step are singular."""


class DegenerateFitError(NvOrientError):
    """Fit result unusable: modulation amplitude or a free dip's depth not
    above three sigmas; a fitted dip center outside the frequency grid; or a
    dip fit that does not converge or whose linewidth ends on its bracket
    [grid step, half the grid span]."""


class NearParallelAxesError(NvOrientError):
    """The two NV_Y estimates are (anti)parallel; cross product unusable."""


class PlanarModelError(NvOrientError):
    """Measured axis is inconsistent with an in-plane microwave field."""


class ConfigError(NvOrientError):
    """Scenario configuration failed validation."""
