"""Two-state atoms coupled to a single cavity mode.

Ground-state energy shifts in two independent ways: a closed
perturbative form, valid when the mode frequency dominates every atomic
transition, and a dense-diagonalization oracle for the full Hamiltonian.
No rotating-wave truncation anywhere; the perturbative denominators
omega/(omega + omega_n) exist only because the counter-rotating terms
are kept.

The Hamiltonian on {g, e}^N tensor Fock(n_max) is

    H = sum_n omega_n |e_n><e_n|  +  omega a'a
      + sum_n c_n (sigma_n + sigma_n') (a + a')
      + sum_{n<m} v_nm (sigma_n + sigma_n') (sigma_m + sigma_m')

with c_n = A_n (d_n . polarization) sqrt(omega) and v_nm the
electrostatic dipole-dipole coefficient for the pair.  The uncoupled
ground energy is zero by construction, so the coupled ground eigenvalue
is itself the shift.

The oracle scatters each term into one flat buffer, at positions that
depend only on the atom count and the photon cutoff and are computed
once for each.  A system solves each cutoff and pair setting once, so
the pair energy and the full shift share the solve with the pair on.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np

from .core import separation

__all__ = [
    "TwoStateAtom",
    "CavityMode",
    "CavitySystem",
    "PerturbativeShift",
    "dipole_dipole_energy",
    "perturbative_shift",
    "exact_ground_energy",
    "interaction_extract",
]

# mode frequency must exceed every atomic frequency by this factor before
# the closed perturbative form is trusted
_HIGH_FREQUENCY_RATIO = 10.0

_MAX_ATOMS_EXACT = 4
# the convergence check also solves at cutoff + 4; at 4 atoms and the
# largest cutoff that dense matrix is 1680 x 1680
_MIN_PHOTON_CUTOFF = 4
_MAX_PHOTON_CUTOFF = 100
_DEFAULT_PHOTON_CUTOFF = 12
_CONVERGENCE_TOL = 1e-10


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
        if d.shape != (3,):
            raise ValueError("dipole must be a 3-vector")
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
    the ground energy of each photon cutoff and pair setting it has
    solved.
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
        for i in range(len(atoms)):
            for j in range(i + 1, len(atoms)):
                separation(pos[i], pos[j])
        pos.setflags(write=False)
        self._atoms = atoms
        self._positions = pos
        self._mode = mode
        self._grounds: dict[tuple[int, bool], float] = {}

    @property
    def atoms(self) -> tuple[TwoStateAtom, ...]:
        return self._atoms

    @property
    def positions(self) -> np.ndarray:
        return self._positions

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
        r, rhat = separation(self._positions[n], self._positions[m])
        return dipole_dipole_energy(self._atoms[n].dipole,
                                    self._atoms[m].dipole, rhat, r)


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


def perturbative_shift(system: CavitySystem,
                       force: bool = False) -> PerturbativeShift:
    """Second-order self shifts plus the distance-cubed pair term.

    self_n = -A_n^2 (d_n.e)^2 omega/(omega + omega_n); the interaction
    carries the quarter weight of the charging integral:

        -(A1 A2 / 2 r^3) (d1.e)(d2.e) [d1.d2 - 3(d1.rhat)(d2.rhat)]
            / (omega1 + omega2)

    Requires two atoms and the high-frequency regime; ``force=True``
    overrides the regime check.
    """
    if system.n_atoms != 2:
        raise ValueError("perturbative form is worked out for two atoms")
    if not system.high_frequency and not force:
        raise ValueError(
            "perturbative formula outside validity: mode frequency must "
            "exceed every atomic frequency 10x over (force=True overrides)")
    mode = system.mode
    selves = []
    for atom, amplitude in zip(system.atoms, mode.amplitudes):
        projected = float(atom.dipole @ mode.polarization)
        selves.append(-amplitude**2 * projected**2
                      * mode.omega / (mode.omega + atom.omega))
    a1, a2 = system.atoms
    r, rhat = separation(system.positions[0], system.positions[1])
    p1 = float(a1.dipole @ mode.polarization)
    p2 = float(a2.dipole @ mode.polarization)
    bracket = float(a1.dipole @ a2.dipole) \
        - 3.0 * float(a1.dipole @ rhat) * float(a2.dipole @ rhat)
    interaction = -(mode.amplitudes[0] * mode.amplitudes[1] / (2.0 * r**3)) \
        * p1 * p2 * bracket / (a1.omega + a2.omega)
    return PerturbativeShift(selves[0], selves[1], interaction)


class _Layout(NamedTuple):
    """Index and value vectors placing each term in a flat dim x dim buffer.

    Basis state s = config * (n_max + 1) + photons, atom 0 the most
    significant bit of config.  Every array is read-only.
    """

    photons: np.ndarray   # (dim,) photon number of each state
    excited: np.ndarray   # (N, dim) 1.0 where atom n is excited
    coupling: np.ndarray  # (N, M) positions of (sigma_n + sigma_n')(a + a')
    root: np.ndarray      # (M,) sqrt(k + 1) at each of those positions
    pairs: np.ndarray     # (N(N-1)/2, dim) positions of each pair term


@lru_cache(maxsize=8)
def _layout(n_atoms: int, n_max: int) -> _Layout:
    dim_field = n_max + 1
    dim = 2**n_atoms * dim_field
    config, photons = np.divmod(np.arange(dim), dim_field)
    bits = [1 << (n_atoms - 1 - n) for n in range(n_atoms)]
    # each state that can take one more photon, and its partner with one
    # more photon and atom n flipped; both orders of the pair are stored
    lower = np.flatnonzero(photons < n_max)
    root = np.sqrt(photons[lower] + 1.0)
    coupling = []
    for bit in bits:
        upper = (config[lower] ^ bit) * dim_field + photons[lower] + 1
        coupling.append(np.concatenate([lower * dim + upper,
                                        upper * dim + lower]))
    pairs = [np.arange(dim) * dim
             + (config ^ bits[n] ^ bits[m]) * dim_field + photons
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


def _hamiltonian(system: CavitySystem, n_max: int,
                 include_pair: bool) -> np.ndarray:
    # terms sit on disjoint entries apart from the diagonal, which sums
    # the mode and then each atom in turn; adding into zeros keeps zero
    # entries +0.0 whatever the sign of a coefficient
    layout = _layout(system.n_atoms, n_max)
    dim = layout.photons.size
    diagonal = system.mode.omega * layout.photons
    for atom, excited in zip(system.atoms, layout.excited):
        diagonal = diagonal + atom.omega * excited
    h = np.zeros(dim * dim)
    h[::dim + 1] = diagonal
    for n, index in enumerate(layout.coupling):
        h[index] += system.coupling(n) * layout.root
    if include_pair:
        pairs = itertools.combinations(range(system.n_atoms), 2)
        for (n, m), index in zip(pairs, layout.pairs):
            h[index] += system.pair_coefficient(n, m)
    return h.reshape(dim, dim)


def _ground_energy(system: CavitySystem, n_max: int,
                   include_pair: bool) -> float:
    if system.n_atoms > _MAX_ATOMS_EXACT:
        raise ValueError(
            f"exact oracle limited to {_MAX_ATOMS_EXACT} atoms")
    if n_max < _MIN_PHOTON_CUTOFF:
        raise ValueError(
            f"photon cutoff must be at least {_MIN_PHOTON_CUTOFF}")
    if n_max > _MAX_PHOTON_CUTOFF:
        raise ValueError(
            f"photon cutoff must be at most {_MAX_PHOTON_CUTOFF}")
    key = (n_max, include_pair)
    if key not in system._grounds:
        coarse = float(np.linalg.eigvalsh(
            _hamiltonian(system, n_max, include_pair))[0])
        fine = float(np.linalg.eigvalsh(
            _hamiltonian(system, n_max + 4, include_pair))[0])
        if abs(fine - coarse) >= _CONVERGENCE_TOL:
            raise RuntimeError(
                f"ground energy not converged in photon number: cutoff "
                f"{n_max} vs {n_max + 4} differ by {abs(fine - coarse):.3e}")
        system._grounds[key] = fine
    return system._grounds[key]


def exact_ground_energy(system: CavitySystem,
                        n_max: int = _DEFAULT_PHOTON_CUTOFF) -> float:
    """Coupled ground eigenvalue from dense diagonalization.

    The basis is every atomic configuration tensor photon numbers
    0..n_max; the result must move by less than 1e-10 when the photon
    cutoff grows by 4, otherwise a ``RuntimeError`` reports the
    non-convergence.  The uncoupled ground energy is zero, so the return
    value is the full interaction-induced shift.
    """
    return _ground_energy(system, n_max, include_pair=True)


def interaction_extract(system: CavitySystem,
                        n_max: int = _DEFAULT_PHOTON_CUTOFF) -> float:
    """Cavity-mediated pair energy, isolated by differencing.

    Subtracts from the full ground shift both the shift with the
    electrostatic pair coupling removed and the second-order pure-pair
    term -v^2/(omega1 + omega2).  What is left is the cross channel in
    which one atom talks to the other through the mode and the
    electrostatic coupling together; in the weak-coupling high-frequency
    regime it falls off as the inverse cube of the separation.
    """
    if system.n_atoms != 2:
        raise ValueError("interaction extraction is defined for two atoms")
    full = _ground_energy(system, n_max, include_pair=True)
    no_pair = _ground_energy(system, n_max, include_pair=False)
    v = system.pair_coefficient(0, 1)
    second_order = -v * v / (system.atoms[0].omega + system.atoms[1].omega)
    return full - no_pair - second_order
