"""Cavity-coupled atoms: closed perturbative shift against the dense
diagonalization oracle, node and parity properties, inverse-cube scaling
of the mode-mediated pair term, and the scattered even-parity Hamiltonian
against a Kronecker-product build of the full space."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from fluctem import cavity
from fluctem.cavity import (
    CavityMode,
    CavitySystem,
    PhotonCutoffError,
    TwoStateAtom,
    dipole_dipole_energy,
    exact_ground_energy,
    interaction_extract,
    perturbative_shift,
)
from fluctem.cavity import _hamiltonian, _operators
from fluctem.cli import _execute, run
from fluctem.core import PairDistanceError, pair_separations

CAVITY_SCAN = Path(__file__).resolve().parents[1] / "configs" / "cavity.json"

Z = (0.0, 0.0, 1.0)
X = (1.0, 0.0, 0.0)
Y = (0.0, 1.0, 0.0)


def make_system(omega=20.0, omega_1=0.9, omega_2=1.1, a1=0.03, a2=0.04,
                d1=(0.1, 0.0, 0.0), d2=(0.1, 0.0, 0.0), r=8.0,
                polarization=X):
    # separation along z keeps x-aligned dipoles transverse to rhat
    atoms = (TwoStateAtom(omega_1, d1), TwoStateAtom(omega_2, d2))
    mode = CavityMode(omega, polarization, (a1, a2))
    return CavitySystem(atoms, ((0.0, 0.0, 0.0), (0.0, 0.0, r)), mode)


def third_order_cross(system):
    # all six operator orderings of one mode vertex per atom plus one
    # electrostatic vertex, computed independently of the module
    w = system.mode.omega
    w1, w2 = (atom.omega for atom in system.atoms)
    c1, c2 = system.coupling(0), system.coupling(1)
    v = system.pair_coefficient
    s = w1 + w2
    return 2.0 * c1 * c2 * v * (1.0 / ((w + w1) * (w + w2))
                                + 1.0 / ((w + w1) * s)
                                + 1.0 / ((w + w2) * s))


def test_dipole_dipole_collinear_transverse_orthogonal():
    assert dipole_dipole_energy((0, 0, 0.5), (0, 0, 0.5), Z, 2.0) \
        == pytest.approx(2.0 * 0.25 / 8.0, rel=1e-15)
    assert dipole_dipole_energy((0.5, 0, 0), (0.5, 0, 0), Z, 2.0) \
        == pytest.approx(-0.25 / 8.0, rel=1e-15)
    assert dipole_dipole_energy(X, Y, Z, 3.0) == 0.0


def test_dipole_dipole_validation():
    with pytest.raises(ValueError):
        dipole_dipole_energy(X, X, Z, 0.0)
    with pytest.raises(ValueError, match="unit"):
        dipole_dipole_energy(X, X, (0.0, 0.0, 2.0), 1.0)


def test_dipole_dipole_refuses_non_finite_arguments():
    with pytest.raises(ValueError, match="unit vector"):
        dipole_dipole_energy(X, X, (math.nan, 0.0, 0.0), 1.0)
    for r in (math.nan, math.inf):
        with pytest.raises(ValueError, match="positive and finite"):
            dipole_dipole_energy(X, X, Z, r)


def test_type_validation():
    for omega in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            TwoStateAtom(omega, X)
        with pytest.raises(ValueError):
            CavityMode(omega, X, (0.1,))
    for polarization in ((0.0, 0.0, 0.5), (0.0, 0.0, math.nan)):
        with pytest.raises(ValueError):
            CavityMode(1.0, polarization, (0.1,))
    atom = TwoStateAtom(1.0, X)
    mode_short = CavityMode(20.0, X, (0.1,))
    with pytest.raises(ValueError, match="match atom count"):
        CavitySystem((atom, atom), ((0, 0, 0), (0, 0, 5.0)), mode_short)
    mode = CavityMode(20.0, X, (0.1, 0.1))
    with pytest.raises(ValueError, match="coincident"):
        CavitySystem((atom, atom), ((0, 0, 0), (0, 0, 0)), mode)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="dipole"):
            TwoStateAtom(1.0, (bad, 0.0, 0.0))
        with pytest.raises(ValueError, match="amplitudes"):
            CavityMode(20.0, X, (0.03, bad))


def test_atoms_closer_than_an_exact_distance_are_refused():
    atom = TwoStateAtom(1.0, X)
    mode = CavityMode(20.0, X, (0.1, 0.1))
    with pytest.raises(PairDistanceError, match="too near") as info:
        CavitySystem((atom, atom), ((0, 0, 0), (1e-160, 3e-161, 0)), mode)
    assert (info.value.i, info.value.j) == (0, 1)


def test_non_finite_positions_are_refused():
    atom = TwoStateAtom(1.0, X)
    mode = CavityMode(20.0, X, (0.1, 0.1))
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite 3-vector"):
            CavitySystem((atom, atom), ((0, 0, 0), (0, bad, 5.0)), mode)


def test_pair_coefficients_are_single_pair_views_of_the_static_tensor():
    # dipoles and positions off every axis
    rng = np.random.default_rng(7)
    mode = CavityMode(20.0, X, (0.03, 0.03))
    for _ in range(20):
        dipoles = rng.normal(size=(2, 3))
        positions = rng.normal(size=(2, 3)) * 5.0
        atoms = [TwoStateAtom(1.0, d) for d in dipoles]
        system = CavitySystem(atoms, positions, mode)
        _, _, (r,), (rhat,) = pair_separations(positions)
        assert system.separation == r
        v = system.pair_coefficient
        assert v.hex() == float(
            dipole_dipole_energy(dipoles[0], dipoles[1], rhat, r)).hex()
        bracket = dipoles[0] @ dipoles[1] \
            - 3.0 * (dipoles[0] @ rhat) * (dipoles[1] @ rhat)
        scale = np.linalg.norm(dipoles[0]) * np.linalg.norm(dipoles[1])
        assert abs(v + bracket / r**3) <= 1e-15 * scale / r**3


def test_high_frequency_flag_threshold():
    assert make_system(omega=20.0, omega_2=1.1).high_frequency
    assert not make_system(omega=10.0, omega_2=1.0).high_frequency


def test_perturbative_regime_guard():
    low = make_system(omega=5.0)
    with pytest.raises(ValueError, match="outside validity"):
        perturbative_shift(low)


def test_perturbative_self_terms_closed_form():
    system = make_system()
    shift = perturbative_shift(system)
    w = 20.0
    assert shift.self_1 == pytest.approx(
        -0.03**2 * 0.1**2 * w / (w + 0.9), rel=1e-15)
    assert shift.self_2 == pytest.approx(
        -0.04**2 * 0.1**2 * w / (w + 1.1), rel=1e-15)


def test_perturbative_collinear_example():
    # dipoles and polarization along x, separation along z
    system = make_system(d1=(0.2, 0, 0), d2=(0.3, 0, 0), r=4.0)
    shift = perturbative_shift(system)
    expected = -0.03 * 0.04 * 0.2**2 * 0.3**2 / (2.0 * 4.0**3 * (0.9 + 1.1))
    assert shift.interaction == pytest.approx(expected, rel=1e-15)


def test_perturbative_node_kills_atom_one():
    system = make_system(a1=0.0)
    shift = perturbative_shift(system)
    assert shift.self_1 == 0.0
    assert shift.interaction == 0.0
    assert shift.self_2 < 0


def test_perturbative_even_under_global_dipole_flip():
    base = perturbative_shift(make_system(d1=(0.1, 0.05, 0), d2=(0.1, -0.02, 0)))
    flip = perturbative_shift(make_system(d1=(-0.1, -0.05, 0),
                                          d2=(-0.1, 0.02, 0)))
    assert flip.self_1 == base.self_1
    assert flip.self_2 == base.self_2
    assert flip.interaction == base.interaction


def test_perturbative_interaction_linear_in_amplitude():
    one = perturbative_shift(make_system(a1=0.03)).interaction
    two = perturbative_shift(make_system(a1=0.06)).interaction
    assert two == 2.0 * one


def test_system_takes_two_atoms_and_two_amplitudes():
    atom = TwoStateAtom(1.0, X)
    for n_atoms in (0, 1, 3):
        mode = CavityMode(20.0, X, (0.1,) * n_atoms)
        positions = [(0.0, 0.0, 5.0 * k) for k in range(n_atoms)]
        with pytest.raises(ValueError, match="two atoms"):
            CavitySystem((atom,) * n_atoms, positions, mode)
    for n_amplitudes in (1, 3):
        mode = CavityMode(20.0, X, (0.1,) * n_amplitudes)
        with pytest.raises(ValueError, match="match atom count"):
            CavitySystem((atom, atom), ((0, 0, 0), (0, 0, 5.0)), mode)


def test_perturbative_needs_two_atoms():
    # a three-atom arrangement never reaches perturbative_shift: the
    # system it would need is refused at construction
    atom = TwoStateAtom(1.0, X)
    mode = CavityMode(20.0, X, (0.1, 0.1, 0.1))
    positions = ((0, 0, 0), (0, 0, 5.0), (0, 0, 10.0))
    with pytest.raises(ValueError, match="two atoms"):
        perturbative_shift(CavitySystem((atom, atom, atom), positions, mode))


def test_interaction_extract_needs_two_atoms():
    atom = TwoStateAtom(1.0, (0.05, 0, 0))
    mode = CavityMode(20.0, X, (0.02, 0.02, 0.02))
    positions = ((0, 0, 0), (0, 0, 6.0), (0, 0, 12.0))
    with pytest.raises(ValueError, match="two atoms"):
        interaction_extract(CavitySystem((atom, atom, atom), positions, mode))


def test_exact_zero_coupling_is_exactly_zero():
    system = make_system(a1=0.0, a2=0.0, d1=(0, 0, 0), d2=(0, 0, 0))
    assert exact_ground_energy(system) == 0.0


def test_exact_pure_pair_matches_two_level_block():
    # mode decoupled: ground comes from the {gg, ee} two-by-two block
    system = make_system(a1=0.0, a2=0.0, d1=(0, 0, 0.3), d2=(0, 0, 0.3),
                         r=5.0, omega=1.0)
    v = system.pair_coefficient
    s = 0.9 + 1.1
    exact_block = 0.5 * s - math.sqrt(0.25 * s * s + v * v)
    value = exact_ground_energy(system)
    assert value == pytest.approx(exact_block, rel=1e-8)
    assert value == pytest.approx(-v * v / s, rel=1e-4)


def test_exact_matches_perturbative_total_in_regime():
    system = make_system(r=5.0)
    exact = exact_ground_energy(system)
    total = perturbative_shift(system).total
    assert exact == pytest.approx(total, rel=5e-2)


def test_exact_residual_scales_as_fourth_power_of_coupling():
    # zero pair coefficient isolates the pure mode-coupling residual
    kwargs = dict(d1=(0.5, 0, 0), d2=(0, 0.5, 0), r=6.0,
                  polarization=(1 / math.sqrt(2), 1 / math.sqrt(2), 0))
    coarse = make_system(a1=0.3, a2=0.3, **kwargs)
    fine = make_system(a1=0.15, a2=0.15, **kwargs)
    assert coarse.pair_coefficient == 0.0
    res_coarse = abs(exact_ground_energy(coarse)
                     - perturbative_shift(coarse).total)
    res_fine = abs(exact_ground_energy(fine)
                   - perturbative_shift(fine).total)
    exponent = math.log2(res_coarse / res_fine)
    assert 3.5 < exponent < 4.5


def test_exact_residual_scales_as_fourth_power_of_dipole():
    # halving dipoles scales mode couplings and pair coefficient together
    coarse = make_system(d1=(0.4, 0, 0), d2=(0.4, 0, 0), r=5.0)
    fine = make_system(d1=(0.2, 0, 0), d2=(0.2, 0, 0), r=5.0)
    res_coarse = abs(exact_ground_energy(coarse)
                     - perturbative_shift(coarse).total)
    res_fine = abs(exact_ground_energy(fine)
                   - perturbative_shift(fine).total)
    exponent = math.log2(res_coarse / res_fine)
    assert 3.5 < exponent < 4.5


def full_hamiltonian(system, cutoff):
    # H(1) = H0 + V, as the oracle solves it
    h, v = _hamiltonian(system, cutoff)
    return h + v


def test_exact_monotone_in_photon_cutoff():
    system = make_system(a1=0.3, a2=0.3, d1=(0.5, 0, 0), d2=(0.5, 0, 0),
                         r=5.0)
    grounds = [float(np.linalg.eigvalsh(full_hamiltonian(system, n))[0])
               for n in (4, 6, 8, 10)]
    for lo, hi in zip(grounds, grounds[1:]):
        assert hi <= lo + 1e-12


def test_exact_nonconvergence_raises():
    # couplings 3.6 omega: still moving at the largest cutoff
    system = make_system(a1=160.0, a2=160.0)
    with pytest.raises(RuntimeError, match="not converged") as caught:
        exact_ground_energy(system)
    assert caught.type is PhotonCutoffError
    assert "cutoff 100 vs 104 differ by" in str(caught.value)


@pytest.mark.parametrize("omega", [1e6, 1e150])
def test_exact_refuses_a_solve_that_rounds_above_the_tolerance(omega):
    # past the rounding of the dense solve the ground energies of two
    # cutoffs can agree by chance: at 1e150 two successive cutoffs agree
    # exactly on energies that miss the pair terms
    with pytest.raises(PhotonCutoffError, match="cutoff 12 solve rounds at"):
        exact_ground_energy(make_system(omega=omega))


def test_exact_grows_the_cutoff_past_the_first(tmp_path):
    # amplitude 40 needs photon numbers far past 16, where a fixed cutoff
    # of 12 stopped; the result agrees with a solve at the largest cutoff
    cfg = {"task": "cavity",
           "atoms": [{"omega": 0.9, "dipole": [0.1, 0, 0]},
                     {"omega": 1.1, "dipole": [0.1, 0, 0]}],
           "mode": {"omega": 20.0, "polarization": [1, 0, 0],
                    "amplitudes": [40.0, 40.0]},
           "separation": 10.0}
    path = tmp_path / "cavity.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out.csv"
    assert run(str(path), str(out)) == 0
    header, row = out.read_text().splitlines()[1:]
    exact = float(row.split(",")[header.split(",").index("exact_total")])
    system = make_system(a1=40.0, a2=40.0, r=10.0)
    reference = float(np.linalg.eigvalsh(full_hamiltonian(system, 104))[0])
    assert exact == pytest.approx(reference, rel=1e-12)


def test_exact_cutoff_validation_and_atom_limit():
    # the photon cutoff is not a parameter: the oracle finds its own
    system = make_system()
    with pytest.raises(TypeError):
        exact_ground_energy(system, n_max=12)
    with pytest.raises(TypeError):
        interaction_extract(system, n_max=12)
    # the oracle, like the system, takes two atoms only
    atom = TwoStateAtom(1.0, (0.05, 0, 0))
    mode = CavityMode(20.0, X, tuple([0.02] * 5))
    positions = tuple((0.0, 0.0, 4.0 * k) for k in range(5))
    with pytest.raises(ValueError, match="two atoms"):
        CavitySystem((atom,) * 5, positions, mode)


def test_interaction_extract_zero_pair_coupling_is_exact_zero():
    system = make_system(d1=(0.1, 0, 0), d2=(0, 0.1, 0),
                         polarization=(1 / math.sqrt(2), 1 / math.sqrt(2), 0))
    assert system.pair_coefficient == 0.0
    assert interaction_extract(system) == 0.0


def test_interaction_extract_node_property():
    system = make_system(a1=0.0, d1=(0.1, 0, 0), d2=(0.1, 0, 0), r=20.0)
    scale = abs(exact_ground_energy(system))
    assert abs(interaction_extract(system)) <= 1e-12 * scale


def test_interaction_extract_inverse_cube():
    near = interaction_extract(make_system(r=8.0))
    far = interaction_extract(make_system(r=16.0))
    assert near / far == pytest.approx(8.0, rel=2e-2)


def test_interaction_extract_matches_third_order_formula():
    system = make_system(r=8.0)
    expected = third_order_cross(system)
    assert interaction_extract(system) == pytest.approx(expected, rel=2e-2)


def test_interaction_extract_versus_printed_variants():
    # the closed-form pair term understates the mode-mediated channel by
    # a factor that tends to 8 as the mode frequency grows; the variant
    # that projects the bracket on the polarization instead of the
    # separation direction even gets the sign wrong for this geometry
    system = make_system(r=8.0)
    printed = perturbative_shift(system).interaction
    d1 = system.atoms[0].dipole
    d2 = system.atoms[1].dipole
    e = system.mode.polarization
    bracket_pol = float(d1 @ d2) - 3.0 * float(d1 @ e) * float(d2 @ e)
    variant = -(0.03 * 0.04 / (2.0 * 8.0**3)) * float(d1 @ e) \
        * float(d2 @ e) * bracket_pol / (0.9 + 1.1)
    extracted = interaction_extract(system)
    assert extracted / printed == pytest.approx(8.0, rel=5e-2)
    assert variant * extracted < 0


def test_interaction_extract_takes_both_pair_settings_at_one_cutoff(
        monkeypatch):
    # alone, the full Hamiltonian converges from 16 to 20 photons and the
    # one without the pair term already from 12 to 16
    system = make_system(a1=18.235, a2=18.235, r=0.1)

    def ground(n_max, include_pair):
        h = (full_hamiltonian(system, n_max) if include_pair
             else _hamiltonian(system, n_max)[0])
        return float(np.linalg.eigvalsh(h)[0])

    assert abs(ground(16, True) - ground(12, True)) >= 1e-10
    assert abs(ground(16, False) - ground(12, False)) < 1e-10
    built = []
    hamiltonian = cavity._hamiltonian

    def recording(system, n_max):
        built.append(n_max)
        return hamiltonian(system, n_max)

    monkeypatch.setattr(cavity, "_hamiltonian", recording)
    extracted = interaction_extract(system)
    # one build of H0 and V per cutoff serves both pair settings, and a
    # point that converges at once builds at 12 and 16
    assert built == [12, 16, 20]
    interaction_extract(make_system(r=8.0))
    assert built == [12, 16, 20, 12, 16]
    v = system.pair_coefficient
    second_order = -v * v / (0.9 + 1.1)
    assert extracted == ground(20, True) - ground(20, False) - second_order
    assert exact_ground_energy(system) == ground(20, True)


def phf_difference(system, cutoff, nodes):
    # Pauli-Hellmann-Feynman: E(1) - E(0) = int_0^1 <psi_l|V|psi_l> dl
    # for H(l) = H0 + l V, by Gauss-Legendre on [0, 1]
    h, v = _hamiltonian(system, cutoff)
    x, w = np.polynomial.legendre.leggauss(nodes)
    total = 0.0
    for lam, weight in zip((x + 1.0) / 2.0, w / 2.0):
        psi = np.linalg.eigh(h + lam * v)[1][:, 0]
        total += weight * float(psi @ v @ psi)
    return total


@pytest.mark.parametrize("r, a1", [(2.0, 0.03), (5.0, 0.03), (2.0, 0.0)],
                         ids=["r2", "r5", "r2-node"])
def test_ground_difference_is_the_phf_integral_over_the_pair_term(r, a1):
    # the atoms and mode of configs/cavity.json; each of these converges
    # at cutoff 16.  1e-11 covers the rounding of the difference of two
    # float ground energies: 1.7e-12 relative at r = 5 against a 40-digit
    # solve of the same matrices, where the 4-node PHF is within 2.7e-15
    system = make_system(a1=a1, a2=0.04, r=r)
    with_pair, without_pair = system._ground_energies
    phf = phf_difference(system, 16, nodes=4)
    assert phf == pytest.approx(with_pair - without_pair, rel=1e-11)
    assert phf == pytest.approx(phf_difference(system, 16, nodes=6),
                                rel=1e-13)


def kron_hamiltonian(system, n_max, include_pair):
    # every operator built as a Kronecker product on {g, e}^2 x Fock(n_max)
    dim_field = n_max + 1
    lower = np.zeros((dim_field, dim_field))
    for k in range(n_max):
        lower[k, k + 1] = math.sqrt(k + 1.0)
    quadrature_op = lower + lower.T
    number_op = np.diag(np.arange(dim_field, dtype=float))
    excite = np.diag([0.0, 1.0])
    flip = np.array([[0.0, 1.0], [1.0, 0.0]])
    # atom 0 is the first factor
    atom_ops = [lambda op: np.kron(op, np.eye(2)),
                lambda op: np.kron(np.eye(2), op)]

    h = np.kron(np.eye(4), system.mode.omega * number_op)
    for n, atom_op in enumerate(atom_ops):
        h += np.kron(system.atoms[n].omega * atom_op(excite),
                     np.eye(dim_field))
        h += np.kron(system.coupling(n) * atom_op(flip), quadrature_op)
    if include_pair:
        h += np.kron(system.pair_coefficient * np.kron(flip, flip),
                     np.eye(dim_field))
    return h


def even_states(n_max):
    # basis positions of P = (-1)^(photons + excitations) = +1, in the
    # order of the Kronecker build
    config, photons = np.divmod(np.arange(4 * (n_max + 1)), n_max + 1)
    excitations = np.array([bin(c).count("1") for c in config])
    return np.flatnonzero((photons + excitations) % 2 == 0)


def random_system(seed):
    rng = np.random.default_rng(seed)
    atoms = [TwoStateAtom(float(rng.uniform(0.5, 2.0)),
                          0.2 * rng.standard_normal(3))
             for _ in range(2)]
    polarization = rng.standard_normal(3)
    polarization /= np.linalg.norm(polarization)
    amplitudes = rng.uniform(-0.1, 0.1, 2)
    # a node: the coupling of atom 0 is a signed zero
    amplitudes[0] = 0.0
    mode = CavityMode(float(rng.uniform(5.0, 30.0)), polarization,
                      amplitudes)
    return CavitySystem(atoms, ((0.0, 0.0, 0.0), (0.3, 0.0, 4.0)), mode)


@pytest.mark.parametrize("system", [
    random_system(seed=2),
    # orthogonal transverse dipoles: the pair coefficient is a signed zero
    make_system(d1=(0.1, 0, 0), d2=(0, 0.1, 0)),
], ids=["N2", "zero-pair"])
def test_hamiltonian_equals_kron_build(system):
    for n_max in (4, 12, 16, 28):
        even = even_states(n_max)
        h, v = _hamiltonian(system, n_max)
        for include_pair, built in ((False, h), (True, h + v)):
            reference = kron_hamiltonian(system, n_max, include_pair)
            reference = reference[np.ix_(even, even)]
            assert np.array_equal(built, reference)
            assert np.array_equal(np.signbit(built), np.signbit(reference))


def strong_system(seed):
    # couplings c_n = u (d_n . e) omega with |u| <= 1 and |d_n| ~ 1 reach
    # the ultrastrong boundary c_n ~ omega; the pair coefficient reaches
    # the atomic frequencies; atom 0 sits at a node
    rng = np.random.default_rng(seed)
    atoms = [TwoStateAtom(float(rng.uniform(0.5, 2.0)),
                          rng.standard_normal(3) / math.sqrt(3.0))
             for _ in range(2)]
    polarization = rng.standard_normal(3)
    polarization /= np.linalg.norm(polarization)
    omega = float(rng.uniform(0.5, 5.0))
    amplitudes = rng.uniform(-1.0, 1.0, 2) * math.sqrt(omega)
    amplitudes[0] = 0.0
    positions = ((0.0, 0.0, 0.0), (0.5, 0.3, 1.3))
    return CavitySystem(atoms, positions, CavityMode(omega, polarization,
                                                     amplitudes))


def test_even_sector_ground_equals_full_space_ground():
    for seed in range(10):
        system = strong_system(seed=200 + seed)
        h, v = _hamiltonian(system, 12)
        for include_pair, built in ((False, h), (True, h + v)):
            even = np.linalg.eigvalsh(built)[0]
            full = np.linalg.eigvalsh(kron_hamiltonian(system, 12,
                                                       include_pair))[0]
            assert abs(even - full) <= 1e-13 * max(1.0, abs(full))


def test_layout_arrays_are_read_only():
    operators = _operators(12)
    assert operators is _operators(12)
    for array in operators:
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array.flat[0] = 1


def test_cavity_point_makes_four_eigensolves(monkeypatch, tmp_path):
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counting(a, *args, **kwargs):
        calls.append(a.shape)
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    _execute({
        "task": "cavity",
        "atoms": [{"omega": 0.9, "dipole": [0.1, 0, 0]},
                  {"omega": 1.1, "dipole": [0.1, 0, 0]}],
        "mode": {"omega": 20.0, "polarization": [1, 0, 0],
                 "amplitudes": [0.03, 0.04]},
        "separation": 8.0,
    }, False)
    # cutoff 12 and 16, each with and without the pair coupling, on the
    # even-parity sector: 2 (n_max + 1) states for two atoms
    assert sorted(calls) == [(26, 26), (26, 26), (34, 34), (34, 34)]
    # a separation scan solves the pair-free H0 of each cutoff once, and
    # H0 + V at each of its six points
    calls.clear()
    assert run(str(CAVITY_SCAN), str(tmp_path / "out.csv")) == 0
    assert sorted(calls) == [(26, 26)] * 7 + [(34, 34)] * 7


def test_shared_ground_solve_is_order_independent():
    first = make_system(r=8.0)
    exact_first = exact_ground_energy(first)
    extract_second = interaction_extract(first)
    second = make_system(r=8.0)
    extract_first = interaction_extract(second)
    exact_second = exact_ground_energy(second)
    assert exact_first.hex() == exact_second.hex()
    assert extract_first.hex() == extract_second.hex()
    fine = float(np.linalg.eigvalsh(full_hamiltonian(make_system(r=8.0),
                                                     16))[0])
    assert exact_first.hex() == fine.hex()


def test_on_axis_systems_are_the_builds_at_their_positions():
    rng = np.random.default_rng(11)
    mode = CavityMode(20.0, X, (0.03, -0.0))
    separations = [1.5, 3.0000000000000004, 7.123456789, 123.456, 1e6,
                   *10.0 ** rng.uniform(-40.0, 40.0, 20)]
    for k in range(30):
        dipoles = rng.normal(size=(2, 3)) * 10.0 ** rng.uniform(-3, 3)
        if k % 3 == 0:
            # signed zeros in the dipoles keep their bits too
            dipoles[0, 2], dipoles[1, 1] = 0.0, -0.0
        atoms = [TwoStateAtom(0.9, dipoles[0]), TwoStateAtom(1.1, dipoles[1])]
        systems = CavitySystem.on_axis(atoms, mode, separations)
        assert len(systems) == len(separations)
        for system, r in zip(systems, separations):
            alone = CavitySystem(atoms, ((0, 0, 0), (0, 0, r)), mode)
            assert system.separation.hex() == alone.separation.hex()
            assert (system.pair_coefficient.hex()
                    == alone.pair_coefficient.hex())
            assert system.atoms == alone.atoms and system.mode is mode


def test_on_axis_refuses_what_a_build_refuses():
    atom = TwoStateAtom(1.0, X)
    mode = CavityMode(20.0, X, (0.1, 0.1))
    for bad in ([5.0, 1e-160], [1e160, 5.0]):
        with pytest.raises(PairDistanceError, match="points too"):
            CavitySystem.on_axis((atom, atom), mode, bad)
    for bad in ([5.0, 0.0], [5.0, math.nan], [5.0, math.inf], [-5.0, 5.0]):
        with pytest.raises(ValueError, match="positive and finite"):
            CavitySystem.on_axis((atom, atom), mode, bad)
    with pytest.raises(ValueError, match="two atoms"):
        CavitySystem.on_axis((atom,) * 3, CavityMode(20.0, X, (0.1,) * 3),
                             [5.0])
    with pytest.raises(ValueError, match="match atom count"):
        CavitySystem.on_axis((atom, atom), CavityMode(20.0, X, (0.1,)),
                             [5.0])


def test_on_axis_systems_share_the_pair_free_solves():
    # the systems of a scan build and solve each cutoff's H0 once, and
    # each gets the energies of its own build at those positions
    atoms = (TwoStateAtom(0.9, (0.1, 0, 0)), TwoStateAtom(1.1, (0.1, 0, 0)))
    mode = CavityMode(20.0, X, (0.03, 0.04))
    systems = CavitySystem.on_axis(atoms, mode, [5.0, 8.0, 20.0])
    for system in systems:
        alone = CavitySystem(atoms, ((0, 0, 0), (0, 0, system.separation)),
                             mode)
        for oracle in (exact_ground_energy, interaction_extract):
            assert oracle(system).hex() == oracle(alone).hex()
    h = [_hamiltonian(system, 16)[0] for system in systems]
    assert h[0] is h[1] is h[2]
    assert not h[0].flags.writeable


def test_scan_builds_each_cutoff_operators_once(tmp_path, monkeypatch):
    # amplitudes 40 walk every point from cutoff 12 to 28, past the two
    # cutoffs that the operator cache keeps; the scan's shared record
    # keeps each cutoff's operators, so none is built twice
    walked = set()
    hamiltonian = cavity._hamiltonian

    def recording(system, cutoff):
        walked.add(cutoff)
        return hamiltonian(system, cutoff)

    monkeypatch.setattr(cavity, "_hamiltonian", recording)
    cfg = json.loads(CAVITY_SCAN.read_text())
    cfg["mode"]["amplitudes"] = [40.0, 40.0]
    cfg["sweep"]["values"] = [4.0, 5.0, 6.0, 8.0, 10.0, 12.0, 16.0, 20.0,
                              30.0, 40.0]
    path = tmp_path / "strong.json"
    path.write_text(json.dumps(cfg))
    _operators.cache_clear()
    assert run(str(path), str(tmp_path / "out.csv")) == 0
    assert max(walked) >= 28
    assert _operators.cache_info().misses == len(walked)


def test_scan_over_an_amplitude_builds_each_cutoff_operators_once(tmp_path):
    # each point of a scan over any key but separation builds its own
    # system, and walks 12 -> 28 here: the operator cache keeps every
    # cutoff a walk visits, so the ten points build five cutoffs, not 50
    cfg = json.loads(CAVITY_SCAN.read_text())
    cfg["mode"]["amplitudes"] = [40.0, 40.0]
    cfg["separation"] = 10.0
    cfg["sweep"] = {"parameter": "mode.amplitudes.1",
                    "values": [36.0 + k for k in range(10)]}
    path = tmp_path / "amplitude.json"
    path.write_text(json.dumps(cfg))
    _operators.cache_clear()
    assert run(str(path), str(tmp_path / "out.csv")) == 0
    assert _operators.cache_info().misses == 5
