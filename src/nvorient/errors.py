"""Exception types shared across the package.  The library's input checks
raise ValueError, its unusable fits DegenerateFitError and its axes that fix
no direction NearParallelAxesError."""


class NvOrientError(Exception):
    """Base class for all package-specific errors."""


class DegenerateFitError(NvOrientError):
    """Fit result unusable: modulation amplitude or a free dip's depth not
    above three sigmas; a fitted dip center outside the frequency grid; a
    dip fit that does not converge, whose normal equations are singular or
    whose linewidth ends on its bracket [grid step, half the grid span]; or
    a pinned dip fit whose data do not fix the linewidth (zero chi-square
    curvature in it, as when every signal is 0)."""


class NearParallelAxesError(NvOrientError):
    """Two axes fix no direction: the sine of the angle between them is at
    most 1e-3, for the two NV_Y estimates of `mw_axis_from_two` or for an
    axis and the wire axis Y_L in `planar_alpha`."""


class ConfigError(NvOrientError):
    """Scenario configuration failed validation."""
