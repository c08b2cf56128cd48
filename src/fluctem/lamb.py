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


def thermal_shift(model: KramersHeisenberg, temperature: float,
                  quad: QuadratureSpec | None = None) -> EnergyResult:
    """Finite-temperature correction to the radiative shift.

    -(4/(3 pi c^3)) sum_j d2_j omega_j PV int_0^inf
        w^3 / [(exp(w/T) - 1)(omega_j^2 - w^2)] dw.

    Positive and growing as T^2 once the thermal energy exceeds every
    transition; negative and of order T^4 in the cold limit.  Raises
    ``ValueError`` for a transition over 1e9 T, where the principal value
    no longer resolves the Bose factor.  The error estimate under-covers
    from a transition about 3e6 T up: there the value lies 1.9e-11
    relative off the cold series against an estimate of 1.5e-13, and at
    1e8 T 7.7e-10 off against 5.8e-11.  It holds at 1e5 T and 1e6 T.
    """
    if not temperature > 0:
        raise ValueError("temperature must be positive")
    # the ladder misses the Bose factor's mass far under the pole: from
    # 5.6e9 T on it stops converging
    top = max(t.omega_sg for t in model.transitions)
    if top > 1e9 * temperature:
        raise ValueError(f"temperature {temperature:g} is under 1e-9 of "
                         f"the transition frequency {top:g}")

    def bose_numerator(w: float) -> float:
        # integrate_pv calls it at w > 0 only
        grow = w / temperature
        if grow > 700.0:
            return 0.0
        return w**3 / math.expm1(grow)

    # the Bose factor puts the mass at w ~ T
    return EnergyResult.total(
        integrate_pv(bose_numerator, pole=t.omega_sg, spec=quad,
                     scale=temperature).scaled(t.d2 * t.omega_sg)
        for t in model.transitions
    ).scaled(-4.0 / (3.0 * math.pi * SPEED_OF_LIGHT**3))
