"""Two-state atoms coupled to a single cavity mode.

Ground-state energy shifts in two independent ways: a closed
perturbative form, valid when the mode frequency dominates every atomic
transition, and a dense-diagonalization oracle for the full Hamiltonian.
No rotating-wave truncation anywhere; the perturbative denominators
omega/(omega + omega_n) exist only because the counter-rotating terms
are kept.

The Hamiltonian on {g, e}^N tensor Fock(cutoff) is

    H = sum_n omega_n |e_n><e_n|  +  omega a'a
      + sum_n c_n (sigma_n + sigma_n') (a + a')
      + sum_{n<m} v_nm (sigma_n + sigma_n') (sigma_m + sigma_m')

with c_n = A_n (d_n . polarization) sqrt(omega) and v_nm the
electrostatic dipole-dipole coefficient for the pair.  The uncoupled
ground energy is zero by construction, so the coupled ground eigenvalue
is itself the shift.

The parity (-1)^(photons + excitations) commutes with H: a coupling term
moves one photon and one excitation, a pair term two excitations.  The
uncoupled ground state is even, so the oracle diagonalizes the even sector,
2^(N-1) (cutoff + 1) states (the Z2 symmetry of the quantum Rabi model),
whose lowest level continues the uncoupled ground; tests check it against
the full space up to ultrastrong coupling.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple, Sequence

import numpy as np

from .core import separation

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

_MAX_ATOMS_EXACT = 4
# the photon cutoff grows from the first to the largest in steps of 4; at
# 4 atoms and the largest cutoff the even sector is 840 x 840
_FIRST_PHOTON_CUTOFF = 12
_MAX_PHOTON_CUTOFF = 104
_CONVERGENCE_TOL = 1e-10


class PhotonCutoffError(RuntimeError):
    """Ground energy not settled to the tolerance by any photon cutoff."""


class TwoStateAtom:
    """A two-level emitter: transition frequency and transition dipole.

    ``dipole`` is the full vector matrix element between the two states,
    in atomic units; its direction matters for both the mode projection
    and the pair coupling.
    """

    def __init__(self, omega: float, dipole: Sequence[float]):
        if not 0 < omega < math.inf:
            raise ValueError("transition frequency must be positive and finite")
        d = np.asarray(dipole, dtype=float)
        if d.shape != (3,) or not np.all(np.isfinite(d)):
            raise ValueError("dipole must be a finite 3-vector")
        d.setflags(write=False)
        self._omega = float(omega)
        self._dipole = d

    @property
    def omega(self) -> float:
        return self._omega

    @property
    def dipole(self) -> np.ndarray:
        return self._dipole


class CavityMode:
    """A single field mode: frequency, polarization, per-atom amplitude.

    ``amplitudes`` holds the mode function at each atom's position, so a
    zero entry places that atom at a node.  The coupling constant of atom
    n is amplitudes[n] * (dipole_n . polarization) * sqrt(omega).
    """

    def __init__(self, omega: float, polarization: Sequence[float],
                 amplitudes: Sequence[float]):
        if not 0 < omega < math.inf:
            raise ValueError("mode frequency must be positive and finite")
        e = np.asarray(polarization, dtype=float)
        if e.shape != (3,):
            raise ValueError("polarization must be a 3-vector")
        if not abs(math.sqrt(float(e @ e)) - 1.0) <= 1e-12:
            raise ValueError("polarization must be a unit vector")
        e.setflags(write=False)
        self._omega = float(omega)
        self._polarization = e
        self._amplitudes = tuple(float(a) for a in amplitudes)
        if not all(map(math.isfinite, self._amplitudes)):
            raise ValueError("amplitudes must be finite")

    @property
    def omega(self) -> float:
        return self._omega

    @property
    def polarization(self) -> np.ndarray:
        return self._polarization

    @property
    def amplitudes(self) -> tuple[float, ...]:
        return self._amplitudes


class CavitySystem:
    """Atoms, their positions, and the mode they share.

    Positions are 3-vectors in bohr; coincident atoms are rejected.  The
    amplitude list of the mode must match the atom count.  A system keeps
    the dipole-dipole coefficient of each pair, and the ground energy of
    each pair setting once it has solved them.
    """

    def __init__(self, atoms: Sequence[TwoStateAtom],
                 positions: Sequence[Sequence[float]], mode: CavityMode):
        atoms = tuple(atoms)
        if not atoms:
            raise ValueError("at least one atom required")
        pos = np.asarray(positions, dtype=float)
        if pos.shape != (len(atoms), 3):
            raise ValueError("positions must be one 3-vector per atom")
        if len(mode.amplitudes) != len(atoms):
            raise ValueError("mode amplitudes must match atom count")
        self._pairs: dict[tuple[int, int], float] = {}
        for i, j in itertools.combinations(range(len(atoms)), 2):
            r, rhat = separation(pos[i], pos[j])
            self._pairs[i, j] = dipole_dipole_energy(
                atoms[i].dipole, atoms[j].dipole, rhat, r)
        self._atoms = atoms
        self._mode = mode

    @property
    def atoms(self) -> tuple[TwoStateAtom, ...]:
        return self._atoms

    @property
    def mode(self) -> CavityMode:
        return self._mode

    @property
    def n_atoms(self) -> int:
        return len(self._atoms)

    @property
    def high_frequency(self) -> bool:
        """True when the mode dominates every atomic frequency 10x over."""
        top = max(atom.omega for atom in self._atoms)
        return self._mode.omega / top > _HIGH_FREQUENCY_RATIO

    def coupling(self, n: int) -> float:
        """Mode coupling constant of atom ``n``."""
        atom = self._atoms[n]
        projected = float(atom.dipole @ self._mode.polarization)
        return self._mode.amplitudes[n] * projected * math.sqrt(self._mode.omega)

    def pair_coefficient(self, n: int, m: int) -> float:
        """Electrostatic dipole-dipole coefficient between atoms n and m."""
        return self._pairs[min(n, m), max(n, m)]

    @cached_property
    def _ground_energies(self) -> dict[bool, float]:
        # the ground energy of each pair setting, keyed by include_pair; a
        # pair also solves without its pair term, at the same cutoff, so
        # that the truncation errors cancel in interaction_extract
        if self.n_atoms > _MAX_ATOMS_EXACT:
            raise ValueError(
                f"exact oracle limited to {_MAX_ATOMS_EXACT} atoms")
        settings = (True, False) if self.n_atoms == 2 else (True,)

        def grounds(cutoff: int) -> list[float]:
            spectra = [np.linalg.eigvalsh(_hamiltonian(self, cutoff, p))
                       for p in settings]
            # a change below the rounding unit at |H|_2 proves nothing
            rounding = math.ulp(max(max(-w[0], w[-1]) for w in spectra))
            if not rounding < _CONVERGENCE_TOL:
                raise PhotonCutoffError(
                    f"ground energy not resolvable: the cutoff {cutoff} "
                    f"solve rounds at {rounding:.3e}")
            return [float(w[0]) for w in spectra]

        coarse = grounds(_FIRST_PHOTON_CUTOFF)
        for cutoff in range(_FIRST_PHOTON_CUTOFF, _MAX_PHOTON_CUTOFF, 4):
            fine = grounds(cutoff + 4)
            change = max(abs(f - c) for f, c in zip(fine, coarse))
            if change < _CONVERGENCE_TOL:
                return dict(zip(settings, fine))
            coarse = fine
        raise PhotonCutoffError(
            f"ground energy not converged in photon number: cutoff "
            f"{cutoff} vs {cutoff + 4} differ by {change:.3e}")


@dataclass(frozen=True)
class PerturbativeShift:
    """Closed-form ground shift split into its three additive pieces."""

    self_1: float
    self_2: float
    interaction: float

    @property
    def total(self) -> float:
        return self.self_1 + self.self_2 + self.interaction


def dipole_dipole_energy(d_a: Sequence[float], d_b: Sequence[float],
                         rhat: Sequence[float], r: float) -> float:
    """Electrostatic coupling -(1/r^3)[da.db - 3(da.rhat)(db.rhat)].

    ``rhat`` must be a unit vector and ``r`` positive.
    """
    if r <= 0:
        raise ValueError("separation must be positive")
    da = np.asarray(d_a, dtype=float)
    db = np.asarray(d_b, dtype=float)
    n = np.asarray(rhat, dtype=float)
    if abs(float(n @ n) - 1.0) > 1e-12:
        raise ValueError("rhat must be a unit vector")
    bracket = float(da @ db) - 3.0 * float(da @ n) * float(db @ n)
    return -bracket / r**3


def perturbative_shift(system: CavitySystem) -> PerturbativeShift:
    """Second-order self shifts plus the distance-cubed pair term.

    With the mode couplings g_n and the pair coefficient v of the
    Hamiltonian, self_n = -g_n^2/(omega + omega_n) and the interaction
    g1 g2 v / (2 omega (omega1 + omega2)) carries the quarter weight of
    the charging integral:

        -(A1 A2 / 2 r^3) (d1.e)(d2.e) [d1.d2 - 3(d1.rhat)(d2.rhat)]
            / (omega1 + omega2)

    Requires two atoms and the high-frequency regime.
    """
    if system.n_atoms != 2:
        raise ValueError("perturbative form is worked out for two atoms")
    if not system.high_frequency:
        raise ValueError(
            "perturbative formula outside validity: mode frequency must "
            "exceed every atomic frequency 10x over")
    omega = system.mode.omega
    w1, w2 = (atom.omega for atom in system.atoms)
    g1, g2 = system.coupling(0), system.coupling(1)
    interaction = g1 * g2 * system.pair_coefficient(0, 1) \
        / (2.0 * omega * (w1 + w2))
    return PerturbativeShift(-g1**2 / (omega + w1), -g2**2 / (omega + w2),
                             interaction)


class _Layout(NamedTuple):
    """Index and value vectors placing each term in a flat dim x dim buffer.

    States: the even ones of s = config * (cutoff + 1) + photons, in order,
    atom 0 the most significant bit of config.  Every array is read-only.
    """

    photons: np.ndarray   # (dim,) photon number of each state
    excited: np.ndarray   # (N, dim) 1.0 where atom n is excited
    coupling: np.ndarray  # (N, M) positions of (sigma_n + sigma_n')(a + a')
    root: np.ndarray      # (M,) sqrt(k + 1) at each of those positions
    pairs: np.ndarray     # (N(N-1)/2, dim) positions of each pair term


@lru_cache(maxsize=8)
def _layout(n_atoms: int, cutoff: int) -> _Layout:
    dim_field = cutoff + 1
    config, photons = np.divmod(np.arange(2**n_atoms * dim_field), dim_field)
    bits = [1 << (n_atoms - 1 - n) for n in range(n_atoms)]
    # even states and their sector positions; every term keeps the parity
    even = (photons + sum((config & bit) != 0 for bit in bits)) % 2 == 0
    place = np.cumsum(even) - 1
    config, photons, dim = config[even], photons[even], int(even.sum())
    # each state that can take one more photon, and its partner with one
    # more photon and atom n flipped; both orders of the pair are stored
    lower = np.flatnonzero(photons < cutoff)
    root = np.sqrt(photons[lower] + 1.0)
    coupling = []
    for bit in bits:
        upper = place[(config[lower] ^ bit) * dim_field + photons[lower] + 1]
        coupling.append(np.concatenate([lower * dim + upper,
                                        upper * dim + lower]))
    pairs = [np.arange(dim) * dim
             + place[(config ^ bits[n] ^ bits[m]) * dim_field + photons]
             for n, m in itertools.combinations(range(n_atoms), 2)]
    layout = _Layout(
        photons=photons.astype(float),
        excited=np.array([(config & bit) != 0 for bit in bits], dtype=float),
        coupling=np.array(coupling),
        root=np.concatenate([root, root]),
        pairs=np.array(pairs, dtype=np.intp).reshape(-1, dim))
    for array in layout:
        array.setflags(write=False)
    return layout


def _hamiltonian(system: CavitySystem, cutoff: int,
                 include_pair: bool) -> np.ndarray:
    # terms sit on disjoint entries apart from the diagonal, which sums
    # the mode and then each atom in turn; adding into zeros keeps zero
    # entries +0.0 whatever the sign of a coefficient
    layout = _layout(system.n_atoms, cutoff)
    dim = layout.photons.size
    diagonal = system.mode.omega * layout.photons
    for atom, excited in zip(system.atoms, layout.excited):
        diagonal = diagonal + atom.omega * excited
    h = np.zeros(dim * dim)
    h[::dim + 1] = diagonal
    for n, index in enumerate(layout.coupling):
        h[index] += system.coupling(n) * layout.root
    if include_pair:
        for index, v in zip(layout.pairs, system._pairs.values()):
            h[index] += v
    return h.reshape(dim, dim)


def exact_ground_energy(system: CavitySystem) -> float:
    """Coupled ground eigenvalue from dense diagonalization.

    The basis is the even-parity sector of atomic configurations and photon
    numbers 0..cutoff.  The cutoff grows from 12 in steps of 4 until
    the result moves by less than 1e-10, and the finer result is returned;
    a ``PhotonCutoffError`` reports a result still moving at cutoff 104,
    or a solve whose rounding unit at the norm of H reaches 1e-10.
    A two-atom system takes one cutoff for both pair settings.  The
    uncoupled ground energy is zero, so the result is the full shift.
    """
    return system._ground_energies[True]


def interaction_extract(system: CavitySystem) -> float:
    """Cavity-mediated pair energy, isolated by differencing.

    Subtracts from the full ground shift both the shift with the
    electrostatic pair coupling removed, at the same photon cutoff, and
    the second-order pure-pair term -v^2/(omega1 + omega2).  What is left
    is the cross channel in which one atom talks to the other through the
    mode and the electrostatic coupling together; in the weak-coupling
    high-frequency regime it falls off as the inverse cube of the
    separation.
    """
    if system.n_atoms != 2:
        raise ValueError("interaction extraction is defined for two atoms")
    grounds = system._ground_energies
    v = system.pair_coefficient(0, 1)
    second_order = -v * v / (system.atoms[0].omega + system.atoms[1].omega)
    return grounds[True] - grounds[False] - second_order
