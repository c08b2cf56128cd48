"""Two-atom dispersion energies from the imaginary-frequency integral.

The retarded interaction of two ground-state atoms at separation r is

    E(r) = -(c / pi r^7) * int_0^inf dx  alpha_a(i c x/r) alpha_b(i c x/r)
                                        * (x^4 + 2x^3 + 5x^2 + 6x + 3) e^{-2x}

after substituting x = xi r / c into the standard inverse-length form.  Its
short-distance limit is the London integral over the bare polarizability
product; its long-distance limit is the r^-7 asymptote with coefficient
23/(4 pi).  All three are exposed separately so the crossover can be probed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import SPEED_OF_LIGHT, EnergyResult, finite_sum, unwrap
from .polarizability import KramersHeisenberg
from .quadrature import QuadratureSpec, integrate_rows, integrate_semi_infinite

__all__ = [
    "PairSpec",
    "PairValidity",
    "vdw_energy",
    "vdw_energies",
    "london_energy",
    "london_closed_form",
    "casimir_polder_asymptote",
    "validity_ratio",
    "validity_check",
    "retarded_pair_polynomial",
]


def retarded_pair_polynomial(x):
    """P(x) = x^4 + 2x^3 + 5x^2 + 6x + 3, of a float or an array: with
    x = xi r / c, ||G(r, i xi)||_F^2 = 2 (exp(-x)/r^3)^2 P(x)."""
    return (((x + 2.0) * x + 5.0) * x * x) + 6.0 * x + 3.0


def _over_power(num, den, r, n):
    """num / (den r**n), of floats or arrays.  Where a float den r**n is
    no finite nonzero double (Python's float ** raises past the range),
    num is divided n times by r, then by den: the quotient is rounded into
    the range (0 or a subnormal), or overflows to an infinity."""
    try:
        scale = den * r**n
    except OverflowError:
        scale = math.inf
    if not isinstance(scale, float) or 0.0 < scale < math.inf:
        return num / scale
    for _ in range(n):
        num /= r
    return num / den


@dataclass(frozen=True)
class PairSpec:
    """Two polarizability models a distance r apart (bohr).

    A separation that is not positive and finite raises ValueError, a
    model without a sum over states TypeError."""

    model_a: KramersHeisenberg
    model_b: KramersHeisenberg
    r: float

    def __post_init__(self) -> None:
        if not 0 < self.r < math.inf:
            raise ValueError("separation must be positive and finite")
        for model in (self.model_a, self.model_b):
            if not isinstance(model, KramersHeisenberg):
                raise TypeError(
                    "pair energies need bound-electron (sum-over-states) models")


@dataclass(frozen=True)
class PairValidity:
    """Point-dipole validity verdict: ok below a :func:`validity_ratio`
    of 1; from 1 on wavefunction overlap corrections are material."""

    ratio: float

    @property
    def ok(self) -> bool:
        return self.ratio < 1.0


def vdw_energy(pair: PairSpec, quad: QuadratureSpec | None = None
               ) -> EnergyResult:
    """Full retarded dispersion energy; negative at every separation.

    The one-row view of :func:`vdw_energies`: it raises that row's
    :class:`~fluctem.quadrature.QuadratureError` or OverflowError."""
    (res,) = vdw_energies(pair.model_a, pair.model_b, [pair.r], quad)
    return unwrap(res)


def vdw_energies(model_a: KramersHeisenberg, model_b: KramersHeisenberg,
                 separations, quad: QuadratureSpec | None = None
                 ) -> list[EnergyResult | Exception]:
    """:func:`vdw_energy` of the models at each separation, or its error.

    The integrals are the rows of one :func:`integrate_rows` call, so a
    scan takes one numpy evaluation per refinement level, not one per
    node, and each row's value, estimate and ``evaluations`` equal those
    of its one-row call bit for bit.  A row whose walk fails returns its
    :class:`~fluctem.quadrature.QuadratureError`, and an energy past the
    double range its OverflowError; neither is raised."""
    r = [PairSpec(model_a, model_b, sep).r for sep in separations]
    c = SPEED_OF_LIGHT
    r_col = np.array(r)[:, None]

    def integrand(x: np.ndarray, rows: np.ndarray) -> np.ndarray:
        xi = c * x / r_col[rows]
        x2 = xi * xi
        y = (model_a.sum_terms(x2) * model_b.sum_terms(x2)
             * retarded_pair_polynomial(x) * np.exp(-2.0 * x))
        # exp(-2x) is 0 from x = 373 on, and P(x) overflows from 1e77
        return np.where(x > 1e3, 0.0, y)

    # integrand mass sits at x ~ min(1, omega_low r/c)
    omega_low = min(t.omega_sg for t in model_a.transitions
                    + model_b.transitions)
    results = integrate_rows(
        integrand, [min(1.0, omega_low * sep / c) for sep in r], quad)
    energies: list[EnergyResult | Exception] = []
    for sep, res in zip(r, results):
        if isinstance(res, EnergyResult):
            pref = _over_power(c, math.pi, sep, 7)
            try:
                finite_sum([pref * max(res.value, res.error_estimate)],
                           "van der Waals energy")
                res = res.scaled(-pref)
            except OverflowError as exc:
                res = exc
        energies.append(res)
    return energies


def london_energy(pair: PairSpec, quad: QuadratureSpec | None = None
                  ) -> EnergyResult:
    """Nonretarded limit: -(3/pi r^6) int_0^inf alpha_a alpha_b d(xi)."""
    a, b, r = pair.model_a, pair.model_b, pair.r

    def integrand(xi: float) -> float:
        return a.alpha_imag(xi) * b.alpha_imag(xi)

    scale = min(t.omega_sg for t in a.transitions + b.transitions)
    res = integrate_semi_infinite(integrand, quad, scale)
    return res.scaled(-_over_power(3.0, math.pi, r, 6))


def london_closed_form(pair: PairSpec) -> float:
    """Sum-over-states form of the nonretarded energy.

    Independent of quadrature: -(2/3 r^6) sum_m sum_n d2_am d2_bn
    / (omega_am + omega_bn).
    """
    total = math.fsum(
        ta.d2 * tb.d2 / (ta.omega_sg + tb.omega_sg)
        for ta in pair.model_a.transitions
        for tb in pair.model_b.transitions)
    return finite_sum([_over_power(-(2.0 / 3.0) * total, 1.0, pair.r, 6)],
                      "London energy")


def casimir_polder_asymptote(alpha_a0: float, alpha_b0: float, r: float
                             ) -> float:
    """Fully retarded long-distance limit -23 c alpha_a0 alpha_b0/(4 pi r^7).

    Raises ValueError for a separation that is not positive and finite,
    and for a static polarizability that is negative or not finite."""
    if not 0 < r < math.inf:
        raise ValueError("separation must be positive and finite")
    if not (0 <= alpha_a0 < math.inf and 0 <= alpha_b0 < math.inf):
        raise ValueError("static polarizabilities must be finite and >= 0")
    return finite_sum([_over_power(-23.0 * SPEED_OF_LIGHT * alpha_a0
                                   * alpha_b0, 4.0 * math.pi, r, 7)],
                      "Casimir-Polder asymptote")


def validity_ratio(alpha_a0, alpha_b0, r):
    """alpha_a0 alpha_b0 / r^6, of floats or elementwise of arrays."""
    return _over_power(alpha_a0 * alpha_b0, 1.0, r, 6)


def validity_check(pair: PairSpec) -> PairValidity:
    """Flag separations where the point-dipole picture breaks down."""
    return PairValidity(validity_ratio(pair.model_a.static_polarizability(),
                                       pair.model_b.static_polarizability(),
                                       pair.r))
