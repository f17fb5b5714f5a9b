"""Lab-frame geometry: NV crystal axes, wire antenna field, sweep bases.

The lab frame follows the experiment layout: Z_L normal to the diamond
surface, Y_L along the wire, X_L completing the right-handed triad.  Lengths
are in micrometers, currents in mA, angles in degrees at the interfaces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegeneratePositionError

X_L = np.array([1.0, 0.0, 0.0])
Y_L = np.array([0.0, 1.0, 0.0])
Z_L = np.array([0.0, 0.0, 1.0])

_SQRT3 = math.sqrt(3.0)


def unit(v: np.ndarray) -> np.ndarray:
    """Normalize to unit length; raises on (near-)zero input."""
    v = np.asarray(v, dtype=float)
    n = np.linalg.norm(v)
    if n < 1e-300:
        raise ValueError("cannot normalize a zero vector")
    return v / n


_AXES = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]) / _SQRT3
_AXES.setflags(write=False)
_NV_AXES = tuple(_AXES)


def crystallographic_axes() -> tuple[np.ndarray, ...]:
    """The four <111> NV axis directions, unit norm, fixed order, read-only."""
    return _NV_AXES


@dataclass(frozen=True)
class WireScene:
    """Sensor position relative to the wire center and the drive current.

    Positive current flows along +Y_L.  `wire_diameter_um` is documentation
    only; the field model treats the wire as a line current.
    """

    sensor_x_um: float
    sensor_z_um: float
    current_ma: float
    wire_diameter_um: float = 25.0

    def __post_init__(self):
        r = math.hypot(self.sensor_x_um, self.sensor_z_um)
        if r == 0.0:
            raise DegeneratePositionError("sensor placed at the wire center")
        if r <= self.wire_diameter_um / 2.0:
            raise ValueError("sensor radius must exceed the wire radius")

    @property
    def radius_um(self) -> float:
        return math.hypot(self.sensor_x_um, self.sensor_z_um)


def wire_tangent(x_um: float, z_um: float) -> np.ndarray:
    """Unit tangent of the circular field line at (x, 0, z), positive current."""
    r = math.hypot(x_um, z_um)
    if r == 0.0:
        raise DegeneratePositionError("field direction undefined at the wire center")
    return np.array([z_um, 0.0, -x_um]) / r


def mw_direction(scene: WireScene) -> np.ndarray:
    """Microwave field direction at the sensor, honoring the current sign."""
    t = wire_tangent(scene.sensor_x_um, scene.sensor_z_um)
    return t if scene.current_ma >= 0 else -t


def wire_field_magnitude(scene: WireScene) -> float:
    """Line-current field strength mu0*I/(2*pi*r) in mT (I in mA, r in um)."""
    return 0.2 * abs(scene.current_ma) / scene.radius_um


def alpha_of_position(x_um: float, z_um: float) -> float:
    """Angle (deg, in [0, 360)) between Z_L and the tangent field at (x, z)."""
    m = wire_tangent(x_um, z_um)
    return math.degrees(math.atan2(m[0], m[2])) % 360.0


@dataclass(frozen=True)
class TransverseBasis:
    """Right-handed orthonormal pair spanning the plane perpendicular to nv_z."""

    e1: np.ndarray
    e2: np.ndarray
    nv_z: np.ndarray


def transverse_basis(nv_z: np.ndarray) -> TransverseBasis:
    """Deterministic basis of the NV transverse plane.

    e1 is the normalized projection of X_L (falling back to Y_L when nv_z is
    within 1e-6 of +-X_L); e2 = nv_z x e1 closes a right-handed triad.
    """
    nv_z = np.asarray(nv_z, dtype=float)
    proj = X_L - (X_L @ nv_z) * nv_z
    if np.linalg.norm(proj) < 1e-6:
        proj = Y_L - (Y_L @ nv_z) * nv_z
    e1 = unit(proj)
    e2 = np.cross(nv_z, e1)
    return TransverseBasis(e1=e1, e2=e2, nv_z=nv_z)


def sweep_direction(basis: TransverseBasis, psi: float) -> np.ndarray:
    """In-plane unit direction at sweep angle psi (rad) from e1 toward e2."""
    return math.cos(psi) * basis.e1 + math.sin(psi) * basis.e2


def angle_between(u: np.ndarray, v: np.ndarray) -> float:
    """Angle between two vectors in degrees, in [0, 180], as
    atan2(|u x v|, u . v), which resolves angles that acos of the dot
    product would round to 0."""
    u, v = unit(u), unit(v)
    return math.degrees(math.atan2(float(np.linalg.norm(np.cross(u, v))), float(u @ v)))


def line_angle_between(u: np.ndarray, v: np.ndarray) -> float:
    """Angle between two undirected axes in degrees, in [0, 90]."""
    v = np.asarray(v, dtype=float)
    return angle_between(u, -v if np.dot(u, v) < 0.0 else v)
