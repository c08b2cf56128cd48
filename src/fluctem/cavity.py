"""Two two-state atoms coupled to a single cavity mode.

Ground-state energy shifts in two independent ways: a closed
perturbative form, valid when the mode frequency dominates both atomic
transitions, and a dense-diagonalization oracle for the full Hamiltonian.
No rotating-wave truncation anywhere; the perturbative denominators
omega/(omega + omega_n) exist only because the counter-rotating terms
are kept.

The Hamiltonian on {g, e}^2 tensor Fock(cutoff) is

    H = sum_n omega_n |e_n><e_n|  +  omega a'a
      + sum_n c_n (sigma_n + sigma_n') (a + a')
      + v (sigma_1 + sigma_1') (sigma_2 + sigma_2')

with c_n = A_n (d_n . polarization) sqrt(omega) and v the electrostatic
dipole-dipole coefficient of the pair.  The uncoupled ground energy is
zero by construction, so the coupled ground eigenvalue is itself the
shift.

The parity (-1)^(photons + excitations) commutes with H: a coupling term
moves one photon and one excitation, the pair term two excitations.  The
uncoupled ground state is even, so the oracle diagonalizes the even sector,
2 (cutoff + 1) states (the Z2 symmetry of the quantum Rabi model), whose
lowest level continues the uncoupled ground; tests check it against the
full space up to ultrastrong coupling.

The oracle writes H(lambda) = H0 + lambda V: V = v (sigma_1 + sigma_1')
(sigma_2 + sigma_2') is the pair term, H0 the other five, and H = H(1).
Each is a sum of read-only even-sector matrices, one per term above:
a'a, |e_1><e_1|, |e_2><e_2|, (sigma_1 + sigma_1')(a + a'),
(sigma_2 + sigma_2')(a + a') and (sigma_1 + sigma_1')(sigma_2 + sigma_2'),
each times its coefficient.  Each photon cutoff builds and solves H0
once, and solves lambda = 1 beside it; the cavity-mediated pair energy
is E(1) - E(0) + v^2/(omega_1 + omega_2).  H0 does not depend on where
the atoms sit, so the systems of a separation scan
(``CavitySystem.on_axis``) share one record per photon cutoff: H0, the
pair operator and the extreme eigenvalues of H0.  A scan builds and
solves H0 once per cutoff for all its points, and each point solves
only H0 + V.  The record lives as long as the scan's systems.  The
operator matrices of the last two cutoffs are also cached across
systems, which covers the cutoffs 12 and 16 that a converging point
uses.  At cutoff 104 the six take 2.1 MB; a system keeps H0 and the
pair operator of every cutoff it walks, and a walk to cutoff 104 peaks
at about 44 MB resident in a fresh Python process.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np

from .core import PairDistanceError, pair_separations
from .green import imag_axis_green, pair_projectors

__all__ = [
    "TwoStateAtom",
    "CavityMode",
    "CavitySystem",
    "PerturbativeShift",
    "PhotonCutoffError",
    "dipole_dipole_energy",
    "perturbative_shift",
    "exact_ground_energy",
    "interaction_extract",
]

# mode frequency must exceed every atomic frequency by this factor before
# the closed perturbative form is trusted
_HIGH_FREQUENCY_RATIO = 10.0

# the photon cutoff grows from the first to the largest in steps of 4; at
# the largest cutoff the even sector is 210 x 210
_FIRST_PHOTON_CUTOFF = 12
_MAX_PHOTON_CUTOFF = 104
_CONVERGENCE_TOL = 1e-10


class PhotonCutoffError(RuntimeError):
    """Ground energy not settled to the tolerance by any photon cutoff."""


@dataclass(frozen=True, eq=False)
class TwoStateAtom:
    """A two-level emitter: transition frequency and transition dipole.

    ``dipole`` is the full vector matrix element between the two states,
    in atomic units; its direction matters for both the mode projection
    and the pair coupling.
    """

    omega: float
    dipole: np.ndarray

    def __post_init__(self) -> None:
        if not 0 < self.omega < math.inf:
            raise ValueError("transition frequency must be positive and finite")
        d = np.asarray(self.dipole, dtype=float)
        if d.shape != (3,) or not np.all(np.isfinite(d)):
            raise ValueError("dipole must be a finite 3-vector")
        d.setflags(write=False)
        object.__setattr__(self, "omega", float(self.omega))
        object.__setattr__(self, "dipole", d)


@dataclass(frozen=True, eq=False)
class CavityMode:
    """A single field mode: frequency, polarization, per-atom amplitude.

    ``amplitudes`` holds the mode function at each atom's position, so a
    zero entry places that atom at a node.  The coupling constant of atom
    n is amplitudes[n] * (dipole_n . polarization) * sqrt(omega).
    """

    omega: float
    polarization: np.ndarray
    amplitudes: tuple[float, ...]

    def __post_init__(self) -> None:
        if not 0 < self.omega < math.inf:
            raise ValueError("mode frequency must be positive and finite")
        e = np.asarray(self.polarization, dtype=float)
        if e.shape != (3,):
            raise ValueError("polarization must be a 3-vector")
        if not abs(math.sqrt(float(e @ e)) - 1.0) <= 1e-12:
            raise ValueError("polarization must be a unit vector")
        e.setflags(write=False)
        amplitudes = tuple(float(a) for a in self.amplitudes)
        if not all(map(math.isfinite, amplitudes)):
            raise ValueError("amplitudes must be finite")
        object.__setattr__(self, "omega", float(self.omega))
        object.__setattr__(self, "polarization", e)
        object.__setattr__(self, "amplitudes", amplitudes)


class CavitySystem:
    """Two atoms, their positions, and the mode they share.

    Positions are 3-vectors in bohr; coincident atoms are rejected.  The
    mode carries one amplitude per atom.  A system keeps its ``atoms``,
    its ``mode``, the atoms' ``separation`` and their dipole-dipole
    ``pair_coefficient`` v (both floats), and, once it has solved them,
    the ground energies E(1) and E(0) of H(lambda) = H0 + lambda V, with
    V the pair term, both from one H0 per photon cutoff; none of these is
    meant to change after the build.  The systems that ``on_axis``
    returns for a separation scan share H0 and its solve per photon
    cutoff, which a system built alone keeps to itself.
    """

    def __init__(self, atoms: Sequence[TwoStateAtom],
                 positions: Sequence[Sequence[float]], mode: CavityMode):
        atoms = _two_atoms(atoms, mode)
        pos = np.asarray(positions, dtype=float)
        if pos.shape != (2, 3) or not np.isfinite(pos).all():
            raise ValueError("positions must be one finite 3-vector per atom")
        _, _, (r,), (rhat,) = pair_separations(pos)
        self._place(atoms, mode, r, dipole_dipole_energy(
            atoms[0].dipole, atoms[1].dipole, rhat, r), {})

    @classmethod
    def on_axis(cls, atoms: Sequence[TwoStateAtom], mode: CavityMode,
                separations: Sequence[float]) -> list[CavitySystem]:
        """The systems with atom 0 at the origin and atom 1 at (0, 0, r),
        one for each r of ``separations`` in order, each bit for bit the
        system that ``__init__`` builds at those positions.  Their pair
        coefficients come from one stacked call, and they share one
        record of the pair-free part of each photon cutoff."""
        atoms = _two_atoms(atoms, mode)
        r = np.asarray(separations, dtype=float)
        # refused as by a build: a separation that is not positive and
        # finite, or whose square is not a normal double; the direction
        # from atom 1 to atom 0 is the one pair_separations gives
        with np.errstate(all="ignore"):
            v = dipole_dipole_energy(atoms[0].dipole, atoms[1].dipole,
                                     (0.0, 0.0, -1.0), r)
            bad = (r < 1.5e-154) | np.isinf(r * r)
        if bad.any():
            raise PairDistanceError(0, 1, float(r[np.argmax(bad)]))
        records: dict = {}
        systems = [cls.__new__(cls) for _ in r]
        for system, r_k, v_k in zip(systems, r, v):
            system._place(atoms, mode, r_k, v_k, records)
        return systems

    def _place(self, atoms, mode, r, v, records: dict) -> None:
        self.atoms, self.mode = atoms, mode
        self.separation, self.pair_coefficient = float(r), float(v)
        # photon cutoff -> _pair_free's record, shared by a scan's systems
        self._records = records

    @property
    def high_frequency(self) -> bool:
        """True when the mode dominates both atomic frequencies 10x over."""
        top = max(atom.omega for atom in self.atoms)
        return self.mode.omega / top > _HIGH_FREQUENCY_RATIO

    def coupling(self, n: int) -> float:
        """Mode coupling constant of atom ``n``."""
        projected = float(self.atoms[n].dipole @ self.mode.polarization)
        return self.mode.amplitudes[n] * projected * math.sqrt(self.mode.omega)

    @cached_property
    def _ground_energies(self) -> tuple[float, float]:
        # the ground energies of H0 + lambda V at lambda = 1 and 0, from
        # one H0 per cutoff, so that the truncation errors cancel in
        # interaction_extract
        def grounds(cutoff: int) -> list[float]:
            h, v = _hamiltonian(self, cutoff)
            w = np.linalg.eigvalsh(h + v)
            _, _, lowest, highest = _pair_free(self, cutoff)
            # a change below the rounding unit at |H|_2 proves nothing
            rounding = math.ulp(max(-w[0], w[-1], -lowest, highest))
            if not rounding < _CONVERGENCE_TOL:
                raise PhotonCutoffError(
                    f"ground energy not resolvable: the cutoff {cutoff} "
                    f"solve rounds at {rounding:.3e}")
            return [float(w[0]), lowest]

        coarse = grounds(_FIRST_PHOTON_CUTOFF)
        for cutoff in range(_FIRST_PHOTON_CUTOFF, _MAX_PHOTON_CUTOFF, 4):
            fine = grounds(cutoff + 4)
            change = max(abs(f - c) for f, c in zip(fine, coarse))
            if change < _CONVERGENCE_TOL:
                return tuple(fine)
            coarse = fine
        raise PhotonCutoffError(
            f"ground energy not converged in photon number: cutoff "
            f"{cutoff} vs {cutoff + 4} differ by {change:.3e}")


def _two_atoms(atoms: Sequence[TwoStateAtom],
               mode: CavityMode) -> tuple[TwoStateAtom, ...]:
    atoms = tuple(atoms)
    if len(atoms) != 2:
        raise ValueError("a cavity system takes exactly two atoms")
    if len(mode.amplitudes) != 2:
        raise ValueError("mode amplitudes must match atom count")
    return atoms


@dataclass(frozen=True)
class PerturbativeShift:
    """Closed-form ground shift split into its three additive pieces."""

    self_1: float
    self_2: float
    interaction: float

    @property
    def total(self) -> float:
        return self.self_1 + self.self_2 + self.interaction


def dipole_dipole_energy(d_a, d_b, rhat, r):
    """Electrostatic coupling -(1/r^3)[da.db - 3(da.rhat)(db.rhat)] =
    d_a . G0 . d_b, with G0 the static Green tensor, of one pair or of a
    stack, whose pairs get the bits of their own calls.  ``rhat`` must be
    a unit vector and ``r`` positive and finite."""
    if not (np.isfinite(r) & (np.asarray(r) > 0)).all():
        raise ValueError("separation must be positive and finite")
    static = imag_axis_green(0.0, r, *pair_projectors(rhat))
    return np.einsum("...a,...ab,...b->...", d_a, static, d_b)


def perturbative_shift(system: CavitySystem) -> PerturbativeShift:
    """Second-order self shifts plus the distance-cubed pair term.

    With the mode couplings g_n and the pair coefficient v of the
    Hamiltonian, self_n = -g_n^2/(omega + omega_n) and the interaction
    g1 g2 v / (2 omega (omega1 + omega2)) carries the quarter weight of
    the charging integral:

        -(A1 A2 / 2 r^3) (d1.e)(d2.e) [d1.d2 - 3(d1.rhat)(d2.rhat)]
            / (omega1 + omega2)

    Requires the high-frequency regime.
    """
    if not system.high_frequency:
        raise ValueError(
            "perturbative formula outside validity: mode frequency must "
            "exceed every atomic frequency 10x over")
    omega = system.mode.omega
    w1, w2 = (atom.omega for atom in system.atoms)
    g1, g2 = system.coupling(0), system.coupling(1)
    interaction = g1 * g2 * system.pair_coefficient / (2.0 * omega * (w1 + w2))
    return PerturbativeShift(-g1**2 / (omega + w1), -g2**2 / (omega + w2),
                             interaction)


# kept: every cutoff a walk visits, 12, 16, ..., 104, so that the points
# of a scan over any key build each one once; the six operators of cutoff
# 104 take 2.1 MB, those of all 24 cutoffs 18.7 MB
@lru_cache(maxsize=(_MAX_PHOTON_CUTOFF - _FIRST_PHOTON_CUTOFF) // 4 + 1)
def _operators(cutoff: int) -> tuple[np.ndarray, ...]:
    """The six terms of H on the even sector, each a read-only matrix:
    a'a, |e_1><e_1|, |e_2><e_2|, (sigma_1 + sigma_1')(a + a'),
    (sigma_2 + sigma_2')(a + a') and (sigma_1 + sigma_1')(sigma_2 + sigma_2').

    States: the even ones of config * (cutoff + 1) + photons, in order,
    atom 0 the more significant bit of config.
    """
    config, photons = np.divmod(np.arange(4 * (cutoff + 1)), cutoff + 1)
    even = (photons + (config >> 1) + (config & 1)) % 2 == 0
    config, photons = config[even], photons[even]
    # the atoms a term flips, and whether it moves one photon or none
    flips = np.bitwise_xor.outer(config, config)
    moves = np.subtract.outer(photons, photons)
    # <k + 1| a' |k> = sqrt(k + 1), the root of the larger photon number
    root = np.where(abs(moves) == 1,
                    np.sqrt(np.maximum.outer(photons, photons)), 0.0)
    operators = (np.diag(photons.astype(float)),
                 np.diag((config >> 1).astype(float)),
                 np.diag((config & 1).astype(float)),
                 np.where(flips == 2, root, 0.0),
                 np.where(flips == 1, root, 0.0),
                 ((flips == 3) & (moves == 0)).astype(float))
    for operator in operators:
        operator.setflags(write=False)
    return operators


def _pair_free(system: CavitySystem, cutoff: int) -> tuple:
    """H0 at ``cutoff``, the pair operator P, and the lowest and highest
    eigenvalue of H0: built and solved once for all the systems that
    share ``system``'s records.  H0 sums the five pair-free terms in the
    order _operators gives them, and is read-only."""
    records = system._records
    if cutoff not in records:
        number, e1, e2, c1, c2, pair = _operators(cutoff)
        w1, w2 = (atom.omega for atom in system.atoms)
        h = (system.mode.omega * number + w1 * e1 + w2 * e2
             + system.coupling(0) * c1 + system.coupling(1) * c2)
        h.setflags(write=False)
        w = np.linalg.eigvalsh(h)
        records[cutoff] = h, pair, float(w[0]), float(w[-1])
    return records[cutoff]


def _hamiltonian(system: CavitySystem,
                 cutoff: int) -> tuple[np.ndarray, np.ndarray]:
    # H0 and V of H(lambda) = H0 + lambda V; zero entries of H0 and
    # H0 + V stay +0.0 whatever the sign of a coefficient, as the mode
    # term's are +0.0 and adding a signed zero to +0.0 gives +0.0
    h, pair, _, _ = _pair_free(system, cutoff)
    return h, system.pair_coefficient * pair


def exact_ground_energy(system: CavitySystem) -> float:
    """Coupled ground eigenvalue from dense diagonalization.

    The basis is the even-parity sector of atomic configurations and photon
    numbers 0..cutoff.  The cutoff grows from 12 in steps of 4 until
    the result moves by less than 1e-10, and the finer result is returned;
    a ``PhotonCutoffError`` reports a result still moving at cutoff 104,
    or a solve whose rounding unit at the norm of H reaches 1e-10.
    Each cutoff builds and solves the pair-free H0 once, for all the
    systems of one ``CavitySystem.on_axis`` scan, and solves H0 + V beside
    it for ``interaction_extract``.  The uncoupled ground energy is zero, so
    the result is the full shift.
    """
    return system._ground_energies[0]


def interaction_extract(system: CavitySystem) -> float:
    """Cavity-mediated pair energy, isolated by differencing.

    With H(lambda) = H0 + lambda V, V the electrostatic pair term, this
    is E(1) - E(0) + v^2/(omega1 + omega2): the full ground shift less the
    pair-free one, both solved from one H0 at the same photon cutoff, and
    less the second-order pure-pair term -v^2/(omega1 + omega2).  What is left
    is the cross channel in which one atom talks to the other through the
    mode and the electrostatic coupling together; in the weak-coupling
    high-frequency regime it falls off as the inverse cube of the
    separation.
    """
    with_pair, without_pair = system._ground_energies
    v = system.pair_coefficient
    second_order = -v * v / (system.atoms[0].omega + system.atoms[1].omega)
    return with_pair - without_pair - second_order
