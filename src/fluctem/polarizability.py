"""Ground-state atomic polarizability: the Kramers-Heisenberg sum.

The model sums over the upward transitions of a ground-state atom, and
needs at least one.  Every energy in the package integrates or sums its
value alpha(i xi) on the positive imaginary axis, real, positive and
decreasing, through one summation, :meth:`KramersHeisenberg.sum_terms`,
which takes one xi^2 or an array of them.

Frequencies and dipole strengths are in Hartree atomic units; returned
polarizabilities are volumes in atomic units.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

__all__ = [
    "Transition",
    "KramersHeisenberg",
    "single_resonance",
]


@dataclass(frozen=True)
class Transition:
    """One upward transition: frequency and squared dipole matrix element."""

    omega_sg: float
    d2: float

    def __post_init__(self) -> None:
        if not 0 < self.omega_sg < math.inf:
            raise ValueError("transition frequency must be positive and "
                             "finite for a ground-state atom")
        if not 0 <= self.d2 < math.inf:
            raise ValueError(
                "squared dipole matrix element must be finite and nonnegative")


@dataclass(frozen=True)
class KramersHeisenberg:
    """Sum-over-states polarizability of a ground-state atom.

    The isotropically averaged response is

        alpha(z) = (2/3) sum_s omega_s d2_s / (omega_s^2 - z^2),

    evaluated on z = i*xi, where it is manifestly positive and decreasing.
    ``terms`` holds the (omega_s d2_s, omega_s^2) pair of each transition;
    equality and hashing see ``transitions`` only.
    """

    transitions: tuple[Transition, ...]
    terms: tuple[tuple[float, float], ...] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        transitions = tuple(self.transitions)
        if not transitions:
            raise ValueError("a polarizability model needs a transition")
        object.__setattr__(self, "transitions", transitions)
        terms = tuple((t.omega_sg * t.d2, t.omega_sg * t.omega_sg)
                      for t in transitions)
        if not all(math.isfinite(a) and math.isfinite(b) for a, b in terms):
            raise ValueError("a transition's omega*d2 or omega^2 overflows "
                             "a double")
        object.__setattr__(self, "terms", terms)

    def sum_terms(self, x2):
        """alpha(i xi) at x2 = xi^2, a float or an array, unchecked; plain
        additions in transition order (``sum`` compensates floats from
        Python 3.12 on), so array elements equal float calls bit for bit."""
        strength, omega2 = self.terms[0]
        total = strength / (omega2 + x2)
        for strength, omega2 in self.terms[1:]:
            total = total + strength / (omega2 + x2)
        return (2.0 / 3.0) * total

    def alpha_imag(self, xi: float) -> float:
        """Polarizability on the positive imaginary axis, alpha(i*xi).

        A frequency that is negative or NaN raises ValueError."""
        if not xi >= 0:
            raise ValueError("imaginary-axis frequency must be >= 0")
        return self.sum_terms(xi * xi)

    def static_polarizability(self) -> float:
        return self.alpha_imag(0.0)


def single_resonance(alpha_static: float, omega0: float) -> KramersHeisenberg:
    """One-transition model with prescribed static polarizability.

    The single dipole strength d2 = (3/2) alpha_static omega0 makes
    alpha(0) = alpha_static exactly.
    """
    if alpha_static <= 0:
        raise ValueError("static polarizability must be positive")
    if omega0 <= 0:
        raise ValueError("resonance frequency must be positive")
    return KramersHeisenberg((Transition(omega0, 1.5 * alpha_static * omega0),))
