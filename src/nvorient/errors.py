"""Exception types shared across the package.  The library's input checks
raise ValueError, and its unusable fits DegenerateFitError."""


class NvOrientError(Exception):
    """Base class for all package-specific errors."""


class LabelingError(NvOrientError):
    """No eigenvector has majority overlap with |0>; level labels undefined."""


class ContrastOverflowError(NvOrientError):
    """Summed dip contrasts would drive the normalized signal negative."""


class DegenerateFitError(NvOrientError):
    """Fit result unusable: modulation amplitude or a free dip's depth not
    above three sigmas; a fitted dip center outside the frequency grid; a
    dip fit that does not converge, whose normal equations are singular or
    whose linewidth ends on its bracket [grid step, half the grid span]; or
    a pinned dip fit whose data do not fix the linewidth (zero chi-square
    curvature in it, as when every signal is 0)."""


class NearParallelAxesError(NvOrientError):
    """The two NV_Y estimates are (anti)parallel; cross product unusable."""


class ConfigError(NvOrientError):
    """Scenario configuration failed validation."""
