"""Ground-state atomic polarizability: the Kramers-Heisenberg sum.

The model sums over the upward transitions of a ground-state atom and
exposes one analytic function through three views: the positive imaginary
axis (``alpha_imag``, real and positive), the real axis with an explicit
regulator (``alpha_real``), and the full complex plane off the poles
(``alpha_complex``).  Every energy in the package integrates or sums the
imaginary-axis view; the other two are the independent route that checks
it.

Frequencies and dipole strengths are in Hartree atomic units; returned
polarizabilities are volumes in atomic units.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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

    evaluated as alpha_imag on z = i*xi (manifestly positive and decreasing)
    and as alpha_real on z = omega + i*eta with a caller-supplied regulator.
    """

    transitions: tuple[Transition, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "transitions", tuple(self.transitions))

    def alpha_complex(self, z: complex) -> complex:
        z2 = complex(z) * complex(z)
        return (2.0 / 3.0) * sum(
            (t.omega_sg * t.d2 / (t.omega_sg * t.omega_sg - z2)
             for t in self.transitions),
            start=complex(0.0),
        )

    def alpha_imag(self, xi: float) -> float:
        """Polarizability on the positive imaginary axis, alpha(i*xi)."""
        if xi < 0:
            raise ValueError("imaginary-axis frequency must be >= 0")
        x2 = xi * xi
        return (2.0 / 3.0) * math.fsum(
            t.omega_sg * t.d2 / (t.omega_sg * t.omega_sg + x2)
            for t in self.transitions)

    def alpha_real(self, omega: float, eta: float) -> complex:
        """Polarizability at omega + i*eta; eta > 0 keeps poles regulated."""
        if eta <= 0:
            raise ValueError("regulator eta must be positive")
        return self.alpha_complex(complex(omega, eta))

    def oscillator_strength_sum(self) -> float:
        """Sum of oscillator strengths (2/3) omega d2; counts electrons when
        the transition set saturates the sum rule."""
        return math.fsum((2.0 / 3.0) * t.omega_sg * t.d2
                         for t in self.transitions)

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
