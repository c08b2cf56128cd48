"""Unit system, geometry helpers, and shared result types.

Everything inside the package works in Hartree atomic units:
hbar = e = m_e = k_B = 1 and c = 1/alpha_fs = 137.035999084.
Temperatures are energies (Hartree); lengths are bohr.  Conversions to
laboratory units happen only at the CLI boundary through :func:`convert`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SPEED_OF_LIGHT",
    "HARTREE_EV",
    "HARTREE_JOULE",
    "BOHR_NM",
    "KELVIN_HARTREE",
    "EnergyResult",
    "convert",
    "vec3",
    "separation",
]

# CODATA 2018. c is the inverse fine-structure constant in atomic units.
SPEED_OF_LIGHT = 137.035999084

HARTREE_EV = 27.211386245988
HARTREE_JOULE = 4.3597447222071e-18
BOHR_NM = 0.0529177210903
KELVIN_HARTREE = 1.380649e-23 / HARTREE_JOULE

# unit tag -> (dimension, size of one such unit in the atomic base unit)
_UNIT_TABLE = {
    "hartree": ("energy", 1.0),
    "eV": ("energy", 1.0 / HARTREE_EV),
    "joule": ("energy", 1.0 / HARTREE_JOULE),
    "bohr": ("length", 1.0),
    "nm": ("length", 1.0 / BOHR_NM),
    "kelvin": ("temperature", KELVIN_HARTREE),
    "hartree_temperature": ("temperature", 1.0),
}


def convert(value: float, from_unit: str, to_unit: str) -> float:
    """Convert ``value`` between unit tags of the same dimension.

    Supported tags: hartree, eV, joule (energy); bohr, nm (length);
    kelvin, hartree_temperature (temperature, k_B = 1).

    Raises
    ------
    ValueError
        If a tag is unknown or the two tags measure different dimensions.
    """
    try:
        dim_a, base_a = _UNIT_TABLE[from_unit]
    except KeyError:
        raise ValueError(f"unknown unit tag {from_unit!r}") from None
    try:
        dim_b, base_b = _UNIT_TABLE[to_unit]
    except KeyError:
        raise ValueError(f"unknown unit tag {to_unit!r}") from None
    if dim_a != dim_b:
        raise ValueError(
            f"cannot convert {from_unit!r} ({dim_a}) to {to_unit!r} ({dim_b})"
        )
    return value * (base_a / base_b)


@dataclass(frozen=True)
class EnergyResult:
    """A computed energy with an error estimate and the evaluation count.

    Attributes
    ----------
    value : float
        Energy in Hartree; never NaN.
    error_estimate : float
        Finite, nonnegative estimate of the absolute error.
    evaluations : int
        Number of integrand/summand evaluations spent producing it.
    """

    value: float
    error_estimate: float
    evaluations: int

    def __post_init__(self) -> None:
        if math.isnan(self.value):
            raise ValueError("value must not be NaN")
        if not 0 <= self.error_estimate < math.inf:
            raise ValueError("error_estimate must be finite and >= 0")
        if self.evaluations < 0:
            raise ValueError("evaluations must be >= 0")


def vec3(x: float, y: float, z: float) -> np.ndarray:
    """Build a 3-vector (float ndarray of shape (3,))."""
    return np.array([x, y, z], dtype=float)


def separation(rn: np.ndarray, rm: np.ndarray) -> tuple[float, np.ndarray]:
    """Distance and unit direction from ``rm`` to ``rn``.

    Raises ``ValueError`` on coincident points.
    """
    d = np.asarray(rn, dtype=float) - np.asarray(rm, dtype=float)
    r = math.sqrt(float(d @ d))
    if r == 0.0:
        raise ValueError("coincident points")
    return r, d / r
