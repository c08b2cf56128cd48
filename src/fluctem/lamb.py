"""Single-atom radiative level shifts.

Three observable combinations are exposed: the cutoff-regulated shift with
the free-electron part subtracted (closed form and an independent
quadrature route), the closed-form difference produced by embedding the
atom in a dilute dielectric, and the thermal-photon correction at finite
temperature.  The raw unsubtracted self-energy is deliberately not public:
it diverges with the cutoff and only the subtracted combinations are physical.

Energies are Hartree; the cutoff default is the electron rest energy c^2.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .core import SPEED_OF_LIGHT, EnergyResult, finite_sum
from .polarizability import KramersHeisenberg
# integrate_pv is unused here but stays bound: perfbench's tracer wraps it
from .quadrature import QuadratureSpec, integrate_interval, integrate_pv

__all__ = [
    "CutoffSpec",
    "DiluteMedium",
    "bethe_shift",
    "bethe_shift_quadrature",
    "dielectric_shift_difference",
    "thermal_shift",
]


@dataclass(frozen=True)
class CutoffSpec:
    """High-frequency cutoff; defaults to the electron rest energy."""

    omega_max: float = SPEED_OF_LIGHT**2

    def __post_init__(self) -> None:
        if not self.omega_max > 0:
            raise ValueError("cutoff frequency must be positive")


@dataclass(frozen=True)
class DiluteMedium:
    """Dilute host medium with n(omega) = 1 + 2 pi N alpha_host(omega).

    Validity requires |n - 1| < 0.1; the bound is checked at zero frequency,
    where the off-resonant response is largest.  A zero density is the
    vacuum.
    """

    number_density: float
    host: KramersHeisenberg

    def __post_init__(self) -> None:
        if not 0 <= self.number_density < math.inf:
            raise ValueError("number density must be finite and nonnegative")
        static = 2.0 * math.pi * self.number_density \
            * self.host.static_polarizability()
        if static >= 0.1:
            raise ValueError(
                f"medium is not dilute: n(0)-1 = {static:.3g} exceeds 0.1")


def _check_cutoff(model: KramersHeisenberg, cutoff: CutoffSpec) -> None:
    if cutoff.omega_max < 100.0 * max(t.omega_sg for t in model.transitions):
        warnings.warn(
            "cutoff is within 100x of the highest transition frequency; "
            "the subtracted shift is cutoff-sensitive here",
            stacklevel=3)


def bethe_shift(model: KramersHeisenberg,
                cutoff: CutoffSpec | None = None) -> float:
    """Cutoff-regulated, free-electron-subtracted radiative shift.

    Closed form -(2/(3 pi c^3)) sum_s omega_s^2 d2_s ln((W + omega_s)/omega_s)
    with W the cutoff frequency.  Linear in each d2 at fixed frequency.
    Where W/omega_s overflows, the log is ln W - ln omega_s
    + log1p(omega_s/W).  Raises :class:`OverflowError` when the shift
    itself exceeds the double range.
    """
    cutoff = cutoff or CutoffSpec()
    _check_cutoff(model, cutoff)
    w = cutoff.omega_max
    total = finite_sum((t.omega_sg**2 * t.d2 * _log_ratio(w, t.omega_sg)
                        for t in model.transitions), "bethe shift")
    return -2.0 / (3.0 * math.pi * SPEED_OF_LIGHT**3) * total


def _log_ratio(w: float, omega: float) -> float:
    """ln((w + omega)/omega) for positive finite w and omega."""
    ratio = w / omega
    if math.isinf(ratio):
        return math.log(w) - math.log(omega) + math.log1p(omega / w)
    return math.log1p(ratio)


def bethe_shift_quadrature(model: KramersHeisenberg,
                           cutoff: CutoffSpec | None = None,
                           quad: QuadratureSpec | None = None) -> EnergyResult:
    """Same shift through numerical integration of sum_s 1/(omega + omega_s).

    Kept as an independent route so the closed form above stays checkable.
    """
    cutoff = cutoff or CutoffSpec()
    _check_cutoff(model, cutoff)
    return EnergyResult.total(
        integrate_interval(lambda w, om=t.omega_sg: 1.0 / (w + om),
                           0.0, cutoff.omega_max, quad
                           ).scaled(t.omega_sg**2 * t.d2)
        for t in model.transitions
    ).scaled(-2.0 / (3.0 * math.pi * SPEED_OF_LIGHT**3))


def dielectric_shift_difference(model: KramersHeisenberg,
                                medium: DiluteMedium) -> EnergyResult:
    """Shift of the subtracted level shift caused by a dilute host medium.

    -(2/(3 pi c^3)) sum_s omega_s^2 d2_s PV int_0^inf (n - 1)/(omega_s + w) dw
    in closed form: for atom transition a and host transition b,
    PV int_0^inf dw / ((a + w)(b^2 - w^2)) = ln(b/a) / (b^2 - a^2), which is
    1/(2a^2) at b = a.  The error estimate bounds the rounding.  Raises
    :class:`OverflowError` when the sum exceeds the double range.
    """
    if medium.number_density == 0.0:
        return EnergyResult(0.0, 0.0, 0)
    terms = []
    for ts in model.transitions:
        for th in medium.host.transitions:
            # symmetric in a and b; ordered, log1p is well conditioned
            lo, hi = sorted((ts.omega_sg, th.omega_sg))
            pv = math.log1p((hi - lo) / lo) / ((hi - lo) * (hi + lo)) \
                if hi > lo else 0.5 / (lo * lo)
            terms.append((ts.omega_sg**2 * ts.d2) * (th.omega_sg * th.d2) * pv)
    # (2/3 pi c^3) * 2 pi N * (2/3): atom prefactor times n-1 coefficient
    pref = -(2.0 / (3.0 * math.pi * SPEED_OF_LIGHT**3)) \
        * 2.0 * math.pi * medium.number_density * (2.0 / 3.0)
    value = pref * finite_sum(terms, "dielectric shift")
    # the terms share one sign; each and the prefactor carry ~10 roundings
    return EnergyResult(value, 16.0 * math.ulp(1.0) * abs(value), 0)


def _tangent_numbers(count: int) -> list[int]:
    """The tangent numbers t_1 .. t_count, exact, at indices 1 .. count
    (Brent and Harvey's integer recurrence)."""
    t = [0, 1] + [0] * (count - 1)
    for k in range(2, count + 1):
        t[k] = (k - 1) * t[k - 1]
    for k in range(2, count + 1):
        for j in range(k, count + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    return t


# |B_2k| / 2k = t_k / (4^k (4^k - 1)) for k = 2 .. 30, each ratio of
# integers rounded once
_BINET = tuple(t / (4**k * (4**k - 1))
               for k, t in enumerate(_tangent_numbers(30)) if k >= 2)
# 1/(2k+1) - 1 + 2k/3 = 4k(k-1) / (3(2k+1)) for k = 2 .. 40: at |v| = 1/4
# the terms fall under 1e-17 of the sum by k = 35
_DELTA = tuple(4 * k * (k - 1) / (6 * k + 3) for k in range(2, 41))
# the rounding of the pieces of R, and of the products that weight them
_ROUNDING = 16.0 * math.ulp(1.0)


def _series(q, coefs):
    """sum_k coefs[k] q^k, stopped at its smallest term or where a term
    falls under 1e-17 of the sum."""
    total, last, power = 0.0, math.inf, 1.0
    for c in coefs:
        term = c * power
        if not 1e-17 * abs(total) < abs(term) < last:
            break
        total, last, power = total + term, abs(term), power * q
    return total


def _bose_pv(a: float, temperature: float) -> tuple[float, float]:
    """PV int_0^inf w^3 dw / ((e^{w/T} - 1)(a^2 - w^2)) = (a^2/2) R(y) with
    y = a/(2 pi T), and the bound of its rounding (see thermal_shift)."""
    # where y underflows to 0, a^2/2 is under 1e-600 of pi^2 T^2/6
    y = max(a / (2.0 * math.pi * temperature), 5e-324)
    if y >= 8.0:
        # (a^2/2) y^-4 = 2 pi^2 (T/y)^2 stays finite where a^2 or y^-4 would
        # not; the smallest term is under 6e-17 of the sum
        value = 2.0 * math.pi**2 * (temperature / y) ** 2 \
            * _series(1.0 / (y * y), _BINET)
        return value, _ROUNDING * value
    z = complex(20.0, y)
    q = -1.0 / (z * z)
    pieces = [q * q * _series(q, _BINET)]
    hot = 0.0
    for n in range(20):
        u = 1.0 / complex(n + 0.5, y)
        v = 0.25 * u * u
        if abs(v) <= 0.25:
            pieces.append(u * v * v * _series(v, _DELTA))
        else:
            # n = 0 and y < sqrt(3)/2: Re delta(iy) but its -1/(12 y^2),
            # which times a^2/2 is -pi^2 T^2/6
            y2 = y * y
            pieces += [0.5 * math.log1p(y2), -math.log(y), -0.5 / (1.0 + y2),
                       -(1.0 - y2) / (12.0 * (1.0 + y2) ** 2)]
            hot = math.pi**2 * temperature**2 / 6.0
    half = 0.5 * a * a
    return half * math.fsum(p.real for p in pieces) - hot, \
        _ROUNDING * (half * math.fsum(map(abs, pieces)) + hot)


def thermal_shift(model: KramersHeisenberg,
                  temperature: float) -> EnergyResult:
    """Finite-temperature correction to the radiative shift, in closed form.

    -(4/(3 pi c^3)) sum_j d2_j omega_j PV int_0^inf
        w^3 / [(exp(w/T) - 1)(omega_j^2 - w^2)] dw,
    where each principal value is (a^2/2) R(y) with a = omega_j,
    y = a/(2 pi T) and R(y) = Re psi(iy) - ln y - 1/(12 y^2): the -w part
    of w^3/(a^2 - w^2) gives -pi^2 T^2/6, the rest is Binet's integral
    continued to z = iy (DLMF 5.9), and R is the real part of
    r(z) = psi(z) - ln z + 1/(2z) + 1/(12 z^2) at z = iy.

    * y >= 8: R(y) = sum_{k>=2} |B_2k| / (2k y^2k) (DLMF 5.11.2), every
      term positive, stopped at its smallest term.
    * y < 8: r(iy) = r(iy + 20) + sum_{n<20} delta(iy + n) by the
      recurrence psi(z + 1) = psi(z) + 1/z (DLMF 5.5.2), with
      delta(w) = r(w) - r(w + 1); r(iy + 20) from the asymptotic series of
      DLMF 5.11.2.  With u = 1/(w + 1/2) and v = u^2/4,
      delta(w) = u sum_{k>=2} (1/(2k+1) - 1 + 2k/3) v^k, used where
      |v| <= 1/4; elsewhere (n = 0, y < sqrt(3)/2) its direct form, whose
      -1/(12 y^2) enters as -(pi^2 T^2/6) / (a^2/2), so that the hot end
      stays finite.  No piece is Re psi(iy) - ln y, which would cancel
      up to 5.6e-10 relative near y = 8 in double precision.

    Positive and growing as T^2 once the thermal energy exceeds every
    transition; negative and of order T^4 in the cold limit.  The error
    estimate bounds the rounding: 16 eps times the summed size of the
    pieces, each weighted as in the sum.  That is under 50 eps of the
    value from y = sqrt(3)/2 up, under 750 eps below it except within 0.1
    of R's zero at y = 0.41638, and grows without bound at that zero,
    where the pieces cancel.  ``evaluations`` is 0.  Raises
    :class:`OverflowError` when the shift leaves the double range.
    """
    if not temperature > 0:
        raise ValueError("temperature must be positive")
    parts = [(t.d2 * t.omega_sg, _bose_pv(t.omega_sg, temperature))
             for t in model.transitions]
    pref = 4.0 / (3.0 * math.pi * SPEED_OF_LIGHT**3)
    value = finite_sum((w * pv for w, (pv, _) in parts), "thermal shift")
    err = finite_sum((w * e for w, (_, e) in parts), "thermal shift")
    return EnergyResult(-pref * value, pref * err, 0)
