"""Lab-frame geometry: NV crystal axes, wire antenna field, sweep bases.

The lab frame follows the experiment layout: its z axis normal to the
diamond surface, Y_L along the wire, X_L completing the right-handed triad.  Lengths
are in micrometers, currents in mA, angles in degrees at the interfaces.

Functions of one 3-vector at a time read it as a 3-tuple of finite Python
floats (`_floats3`) and normalize it with `_unit3`, where numpy's fixed cost
per call would outweigh the arithmetic.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

_SQRT3 = math.sqrt(3.0)

WIRE_DIAMETER_UM = 25.0  # a scene's wire when none is given, in the library and the config


def _floats3(v) -> tuple[float, float, float]:
    x, y, z = np.asarray(v, dtype=float).tolist()
    if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(z)):
        raise ValueError("vector components must be finite")
    return x, y, z


def _cross(u, v) -> tuple[float, float, float]:
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])


def _unit3(v) -> tuple[float, float, float]:
    # math.hypot neither under- nor overflows where its result does not
    n = math.hypot(*v)
    if not 1e-300 <= n < math.inf:
        raise ValueError("cannot normalize a zero vector or one whose length overflows")
    return v[0] / n, v[1] / n, v[2] / n


def unit(v) -> np.ndarray:
    """Normalize a 3-vector to unit length; raises ValueError on a component
    that is not finite and on a (near-)zero or overflowing length."""
    return np.array(_unit3(_floats3(v)))


_AXES = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]) / _SQRT3
_AXES.setflags(write=False)
_NV_AXES = tuple(_AXES)


def crystallographic_axes() -> tuple[np.ndarray, ...]:
    """The four <111> NV axis directions, unit norm, fixed order, read-only."""
    return _NV_AXES


class WireScene(NamedTuple("WireScene", [("sensor_x_um", float), ("sensor_z_um", float),
                                         ("current_ma", float), ("wire_diameter_um", float)])):
    """Sensor position relative to the wire center and the drive current.

    Position and current are finite; positive current flows along +Y_L.
    `wire_diameter_um`, finite and nonnegative, only keeps the sensor
    outside the wire; the field model treats the wire as a line current.
    """

    __slots__ = ()

    def __new__(cls, sensor_x_um: float, sensor_z_um: float, current_ma: float,
                wire_diameter_um: float = WIRE_DIAMETER_UM):
        r = math.hypot(sensor_x_um, sensor_z_um)
        if not (r < math.inf and math.isfinite(current_ma)):  # NaN fails
            raise ValueError("sensor position and current must be finite")
        if r == 0.0:
            raise ValueError("sensor placed at the wire center")
        if not 0.0 <= wire_diameter_um < math.inf:  # NaN fails
            raise ValueError("wire diameter must be finite and nonnegative")
        if r <= wire_diameter_um / 2.0:
            raise ValueError("sensor radius must exceed the wire radius")
        return super().__new__(cls, sensor_x_um, sensor_z_um, current_ma, wire_diameter_um)

    @property
    def radius_um(self) -> float:
        return math.hypot(self.sensor_x_um, self.sensor_z_um)


def wire_tangent(x_um: float, z_um: float) -> np.ndarray:
    """Unit tangent of the circular field line at (x, 0, z), positive current."""
    r = math.hypot(x_um, z_um)
    if r == 0.0:
        raise ValueError("field direction undefined at the wire center")
    return np.array([z_um, 0.0, -x_um]) / r


def mw_direction(scene: WireScene) -> np.ndarray:
    """Microwave field direction at the sensor, honoring the current sign."""
    t = wire_tangent(scene.sensor_x_um, scene.sensor_z_um)
    return t if scene.current_ma >= 0 else -t


def wire_field_magnitude(scene: WireScene) -> float:
    """Line-current field strength mu0*I/(2*pi*r) in mT (I in mA, r in um)."""
    return 0.2 * abs(scene.current_ma) / scene.radius_um


def alpha_deg(m) -> float:
    """Angle (deg, in [0, 360)) of the in-plane direction m from the lab z
    axis toward X_L."""
    return math.degrees(math.atan2(m[0], m[2])) % 360.0


class TransverseBasis(NamedTuple):
    """Right-handed orthonormal pair spanning the plane perpendicular to nv_z."""

    e1: np.ndarray
    e2: np.ndarray
    nv_z: np.ndarray


def transverse_basis(nv_z) -> TransverseBasis:
    """Deterministic basis of the NV transverse plane, of the unit axis nv_z.

    e1 is the normalized projection of X_L (falling back to Y_L when nv_z is
    within 1e-6 of +-X_L); e2 = nv_z x e1 closes a right-handed triad.
    """
    z = _floats3(nv_z)
    proj = (1.0 - z[0] * z[0], -z[0] * z[1], -z[0] * z[2])
    if math.hypot(*proj) < 1e-6:
        proj = (-z[1] * z[0], 1.0 - z[1] * z[1], -z[1] * z[2])
    e1 = _unit3(proj)
    return TransverseBasis(e1=np.array(e1), e2=np.array(_cross(z, e1)), nv_z=np.array(z))


def sweep_direction(basis: TransverseBasis, psi: float) -> np.ndarray:
    """In-plane unit direction at sweep angle psi (rad) from e1 toward e2."""
    c, s = math.cos(psi), math.sin(psi)
    e1, e2 = _floats3(basis.e1), _floats3(basis.e2)
    return np.array([c * e1[0] + s * e2[0], c * e1[1] + s * e2[1], c * e1[2] + s * e2[2]])


def line_angle_between(u, v) -> float:
    """Angle between two undirected axes in degrees, in [0, 90], as
    atan2(|u x v|, |u . v|) of the unit axes, which resolves angles that acos
    of the dot product would round to 0."""
    u, v = _unit3(_floats3(u)), _unit3(_floats3(v))
    return math.degrees(math.atan2(math.hypot(*_cross(u, v)),
                                   abs(u[0] * v[0] + u[1] * v[1] + u[2] * v[2])))
