"""Ground-state spin physics of a single NV orientation.

Energies are in frequency units (MHz), magnetic fields in mT.  All matrices
use the fixed basis order {|+1>, |0>, |-1>}; the matrix-element conventions
below depend on it.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

_SQRT2 = math.sqrt(2.0)

# Spin-1 angular momentum matrices, basis {|+1>, |0>, |-1>}.
SX = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex) / _SQRT2
SY = np.array([[0, -1j, 0], [1j, 0, -1j], [0, 1j, 0]], dtype=complex) / _SQRT2
SZ = np.diag([1.0, 0.0, -1.0]).astype(complex)


class SpinConstants(NamedTuple("SpinConstants", [("d_mhz", float), ("gamma_e", float)])):
    """Zero-field splitting D (MHz) and electron gyromagnetic ratio (MHz/mT)."""

    __slots__ = ()

    def __new__(cls, d_mhz: float = 2870.0, gamma_e: float = 28.02495):
        if not 0.0 < d_mhz < math.inf:  # NaN fails
            raise ValueError("zero-field splitting must be finite and positive")
        if not 0.0 < gamma_e < math.inf:
            raise ValueError("gyromagnetic ratio must be finite and positive")
        return super().__new__(cls, d_mhz, gamma_e)


class StaticFieldNV(NamedTuple("StaticFieldNV",
                               [("b_mt", float), ("theta", float), ("phi", float)])):
    """Static field in the NV frame: magnitude (mT), polar and azimuthal angle (rad)."""

    __slots__ = ()

    def __new__(cls, b_mt: float, theta: float, phi: float = 0.0):
        if not 0.0 <= b_mt < math.inf:  # NaN fails
            raise ValueError("field magnitude must be finite and nonnegative")
        if not 0.0 <= theta <= math.pi:
            raise ValueError("theta must lie in [0, pi]")
        if not 0.0 <= phi < 2.0 * math.pi:
            raise ValueError("phi must lie in [0, 2*pi)")
        return super().__new__(cls, b_mt, theta, phi)


class MwFieldNV(NamedTuple("MwFieldNV", [("amplitude_mt", float), ("zeta", float),
                                         ("transverse_azimuth", float)])):
    """Microwave field in the NV frame.

    `zeta` is the angle from the NV Z-axis; `transverse_azimuth` locates the
    transverse component in the NV XY plane (the convention where the X-axis
    is defined by the microwave projection corresponds to azimuth 0).
    """

    __slots__ = ()

    def __new__(cls, amplitude_mt: float, zeta: float, transverse_azimuth: float = 0.0):
        if not 0.0 <= amplitude_mt < math.inf:  # NaN fails
            raise ValueError("microwave amplitude must be finite and nonnegative")
        if not 0.0 <= zeta <= math.pi:
            raise ValueError("zeta must lie in [0, pi]")
        return super().__new__(cls, amplitude_mt, zeta, transverse_azimuth)

    def direction(self) -> np.ndarray:
        """Unit direction in the NV frame as (x, y, z)."""
        sz = math.sin(self.zeta)
        return np.array([
            sz * math.cos(self.transverse_azimuth),
            sz * math.sin(self.transverse_azimuth),
            math.cos(self.zeta),
        ])


def ground_hamiltonian(consts: SpinConstants, field: StaticFieldNV) -> np.ndarray:
    """D*Sz^2 + gamma_e*B*(sin(t)cos(p)*Sx + sin(t)sin(p)*Sy + cos(t)*Sz), MHz.

    Raises ValueError when gamma_e*B overflows, which would fill the matrix
    with NaN."""
    gb = consts.gamma_e * field.b_mt
    if not math.isfinite(gb):
        raise ValueError(f"Zeeman term gamma_e*B is not finite: {consts.gamma_e} MHz/mT "
                         f"times {field.b_mt} mT")
    st, ct = math.sin(field.theta), math.cos(field.theta)
    sp, cp = math.sin(field.phi), math.cos(field.phi)
    return consts.d_mhz * (SZ @ SZ) + gb * (st * cp * SX + st * sp * SY + ct * SZ)


class EigenSystem(NamedTuple):
    """Labeled eigensystem: L0 has maximal overlap with |0>, Lm/Lp by energy.

    `energies` and `states` are ordered (L0, Lm, Lp); eigenvector components
    follow the {|+1>, |0>, |-1>} basis.
    """

    energies: tuple[float, float, float]
    states: tuple[np.ndarray, np.ndarray, np.ndarray]

    @property
    def f_0m(self) -> float:
        return self.energies[1] - self.energies[0]

    @property
    def f_0p(self) -> float:
        return self.energies[2] - self.energies[0]


def eigensystem(hamiltonian: np.ndarray) -> EigenSystem:
    """Exact eigen-decomposition with L0/Lm/Lp labeling.  Raises ValueError
    when no eigenvector carries majority |0> weight."""
    h = np.asarray(hamiltonian, dtype=complex)
    if h.shape != (3, 3):
        raise ValueError("Hamiltonian must be 3x3")
    # NaN would pass the Hermitian check below and fail inside LAPACK
    if not np.isfinite(h).all():
        raise ValueError("Hamiltonian must be finite")
    if np.max(np.abs(h - h.conj().T)) > 1e-9:
        raise ValueError("Hamiltonian must be Hermitian")
    vals, vecs = np.linalg.eigh(h)
    weights = np.abs(vecs[1, :]) ** 2
    i0 = int(np.argmax(weights))
    if weights[i0] <= 0.5:
        raise ValueError(f"maximal |0> weight is {weights[i0]:.3f} <= 0.5; labels undefined")
    rest = sorted((i for i in range(3) if i != i0), key=lambda i: vals[i])
    order = (i0, rest[0], rest[1])
    return EigenSystem(
        energies=tuple(float(vals[i]) for i in order),
        states=tuple(vecs[:, i].copy() for i in order),
    )


def zero_transition_elements(eig: EigenSystem) -> np.ndarray:
    """<Lm|S_j|L0> and <Lp|S_j|L0> for j = x, y, z as a (3, 2) array.

    For unit microwave directions n (rows of an (m, 3) array) the L0<->Lm and
    L0<->Lp coupling amplitudes are gamma_e * B_mw * |n @ elements|, with
    no rotating-wave 1/2 factor, for every direction at once.
    """
    v0, vm, vp = eig.states
    s_v0 = np.stack([SX @ v0, SY @ v0, SZ @ v0])
    return s_v0 @ np.stack([vm, vp], axis=1).conj()

