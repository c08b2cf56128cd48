"""Unit system, geometry helpers, and shared result types.

Everything inside the package works in Hartree atomic units:
hbar = e = m_e = k_B = 1 and c = 1/alpha_fs = 137.035999084.
Temperatures are energies (Hartree); lengths are bohr.  Conversions to
laboratory units happen only at the CLI boundary through :func:`convert`.

Every energy is a prefactor times an integral or a sum of such terms, so
results combine by one set of rules: :meth:`EnergyResult.scaled` scales
a value and its error by a factor and keeps the count, and
:meth:`EnergyResult.total` sums values and errors by ``math.fsum`` and
adds the counts.  :func:`finite_sum` names a quantity whose sum leaves
the double range, and :func:`unwrap` raises an error that a call
returned in place of a result.
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
    "finite_sum",
    "unwrap",
    "convert",
    "vec3",
    "PairDistanceError",
    "pair_separations",
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
    for tag in (from_unit, to_unit):
        if tag not in _UNIT_TABLE:
            raise ValueError(f"unknown unit tag {tag!r}")
    dim_a, base_a = _UNIT_TABLE[from_unit]
    dim_b, base_b = _UNIT_TABLE[to_unit]
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
        Energy in Hartree; finite.
    error_estimate : float
        Finite, nonnegative estimate of the absolute error.
    evaluations : int
        Number of integrand/summand evaluations spent producing it.
    """

    value: float
    error_estimate: float
    evaluations: int

    def __post_init__(self) -> None:
        if not math.isfinite(self.value):
            raise ValueError("value must be finite")
        if not 0 <= self.error_estimate < math.inf:
            raise ValueError("error_estimate must be finite and >= 0")
        if self.evaluations < 0:
            raise ValueError("evaluations must be >= 0")

    def scaled(self, factor: float) -> EnergyResult:
        """The result times ``factor``: the error scales by |factor|, and
        the count stays."""
        return EnergyResult(self.value * factor,
                            self.error_estimate * abs(factor),
                            self.evaluations)

    @staticmethod
    def total(results) -> EnergyResult:
        """The sum of ``results``: values and errors each summed by
        ``math.fsum``, and their counts added."""
        results = list(results)
        return EnergyResult(math.fsum(r.value for r in results),
                            math.fsum(r.error_estimate for r in results),
                            sum(r.evaluations for r in results))


def finite_sum(terms, name: str) -> float:
    """``math.fsum`` of ``terms``, or OverflowError naming the ``name`` they
    make when the sum, or one of its partial sums, leaves the double
    range."""
    try:
        total = math.fsum(terms)
    except OverflowError:
        total = math.inf
    if math.isinf(total):
        raise OverflowError(f"the {name} overflows a double")
    return total


def unwrap(result: EnergyResult | Exception) -> EnergyResult:
    """``result``, or raise it where it is an error returned as a value."""
    if isinstance(result, Exception):
        raise result
    return result


def vec3(x: float, y: float, z: float) -> np.ndarray:
    """Build a 3-vector (float ndarray of shape (3,))."""
    return np.array([x, y, z], dtype=float)


class PairDistanceError(ValueError):
    """Points ``i`` and ``j`` whose ``distance`` has no normal square."""

    def __init__(self, i: int, j: int, distance: float):
        too = "far apart for a finite" if distance > 1 else "near for an exact"
        super().__init__("coincident points" if distance == 0.0
                         else f"points too {too} distance")
        self.i, self.j, self.distance = i, j, distance


def pair_separations(points) -> tuple[np.ndarray, ...]:
    """Indices i < j, distances and unit directions from point j to point
    i of every pair of ``points`` (N, 3), in row-major order; two points
    give one pair, with the bits it has among any number of points.  Any
    other shape, or a point that is not finite, raises ValueError; the
    first pair whose distance is zero, under 1.5e-154 or overflows raises
    PairDistanceError: the square of such a distance leaves the normal
    double range."""
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != 3:
        raise ValueError(f"points must be an (N, 3) array, not {points.shape}")
    if not np.isfinite(points).all():
        k = int(np.argmin(np.isfinite(points).all(axis=1)))
        raise ValueError(f"point {k} is not a finite 3-vector")
    i, j = np.nonzero(np.tri(len(points), k=-1, dtype=bool).T)  # i < j
    with np.errstate(over="ignore"):
        delta = points[i] - points[j]
        r = np.sqrt((delta[:, None, :] @ delta[:, :, None])[:, 0, 0])
    # a root of a subnormal square, and the direction from it, are inexact
    bad = (r < 1.5e-154) | np.isinf(r)
    if bad.any():
        k = int(np.argmax(bad))
        raise PairDistanceError(int(i[k]), int(j[k]), float(r[k]))
    return i, j, r, delta / r[:, None]
