"""Cavity-coupled atoms: closed perturbative shift against the dense
diagonalization oracle, node and parity properties, inverse-cube scaling
of the mode-mediated pair term, and the scattered Hamiltonian against a
Kronecker-product build."""

import itertools
import math

import numpy as np
import pytest

from fluctem.cavity import (
    CavityMode,
    CavitySystem,
    TwoStateAtom,
    dipole_dipole_energy,
    exact_ground_energy,
    interaction_extract,
    perturbative_shift,
)
from fluctem.cavity import _hamiltonian, _layout
from fluctem.cli import _run_cavity

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
    v = system.pair_coefficient(0, 1)
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


def test_high_frequency_flag_threshold():
    assert make_system(omega=20.0, omega_2=1.1).high_frequency
    assert not make_system(omega=10.0, omega_2=1.0).high_frequency


def test_perturbative_regime_guard_and_force():
    low = make_system(omega=5.0)
    with pytest.raises(ValueError, match="outside validity"):
        perturbative_shift(low)
    forced = perturbative_shift(low, force=True)
    assert forced.self_1 < 0


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


def test_perturbative_needs_two_atoms():
    atom = TwoStateAtom(1.0, X)
    mode = CavityMode(20.0, X, (0.1, 0.1, 0.1))
    positions = ((0, 0, 0), (0, 0, 5.0), (0, 0, 10.0))
    triple = CavitySystem((atom, atom, atom), positions, mode)
    with pytest.raises(ValueError, match="two atoms"):
        perturbative_shift(triple)


def test_exact_zero_coupling_is_exactly_zero():
    system = make_system(a1=0.0, a2=0.0, d1=(0, 0, 0), d2=(0, 0, 0))
    assert exact_ground_energy(system) == 0.0


def test_exact_pure_pair_matches_two_level_block():
    # mode decoupled: ground comes from the {gg, ee} two-by-two block
    system = make_system(a1=0.0, a2=0.0, d1=(0, 0, 0.3), d2=(0, 0, 0.3),
                         r=5.0, omega=1.0)
    v = system.pair_coefficient(0, 1)
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
    assert coarse.pair_coefficient(0, 1) == 0.0
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


def test_exact_monotone_in_photon_cutoff():
    system = make_system(a1=0.3, a2=0.3, d1=(0.5, 0, 0), d2=(0.5, 0, 0),
                         r=5.0)
    grounds = [float(np.linalg.eigvalsh(_hamiltonian(system, n, True))[0])
               for n in (4, 6, 8, 10)]
    for lo, hi in zip(grounds, grounds[1:]):
        assert hi <= lo + 1e-12


def test_exact_nonconvergence_raises():
    system = make_system(omega=1.0, omega_1=0.5, omega_2=0.5,
                         a1=2.0, a2=2.0, d1=(0.5, 0, 0), d2=(0.5, 0, 0),
                         r=50.0)
    with pytest.raises(RuntimeError, match="not converged"):
        exact_ground_energy(system, n_max=4)


def test_exact_cutoff_validation_and_atom_limit():
    system = make_system()
    with pytest.raises(ValueError, match="at least 4"):
        exact_ground_energy(system, n_max=3)
    with pytest.raises(ValueError, match="at most 100"):
        exact_ground_energy(system, n_max=10**9)
    atom = TwoStateAtom(1.0, (0.05, 0, 0))
    mode = CavityMode(20.0, X, tuple([0.02] * 5))
    positions = tuple((0.0, 0.0, 4.0 * k) for k in range(5))
    five = CavitySystem((atom,) * 5, positions, mode)
    with pytest.raises(ValueError, match="limited to 4"):
        exact_ground_energy(five)


def test_exact_accepts_three_atoms():
    atom = TwoStateAtom(1.0, (0.05, 0, 0))
    mode = CavityMode(20.0, X, (0.02, 0.02, 0.02))
    positions = ((0, 0, 0), (0, 0, 6.0), (0, 0, 12.0))
    triple = CavitySystem((atom, atom, atom), positions, mode)
    assert exact_ground_energy(triple) < 0


def test_interaction_extract_zero_pair_coupling_is_exact_zero():
    system = make_system(d1=(0.1, 0, 0), d2=(0, 0.1, 0),
                         polarization=(1 / math.sqrt(2), 1 / math.sqrt(2), 0))
    assert system.pair_coefficient(0, 1) == 0.0
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


def test_interaction_extract_needs_two_atoms():
    atom = TwoStateAtom(1.0, (0.05, 0, 0))
    mode = CavityMode(20.0, X, (0.02, 0.02, 0.02))
    positions = ((0, 0, 0), (0, 0, 6.0), (0, 0, 12.0))
    triple = CavitySystem((atom, atom, atom), positions, mode)
    with pytest.raises(ValueError, match="two atoms"):
        interaction_extract(triple)


def kron_hamiltonian(system, n_max, include_pair):
    # every operator built as a Kronecker product on {g, e}^N x Fock(n_max)
    n_atoms = system.n_atoms
    dim_field = n_max + 1
    lower = np.zeros((dim_field, dim_field))
    for k in range(n_max):
        lower[k, k + 1] = math.sqrt(k + 1.0)
    quadrature_op = lower + lower.T
    number_op = np.diag(np.arange(dim_field, dtype=float))
    excite = np.diag([0.0, 1.0])
    flip = np.array([[0.0, 1.0], [1.0, 0.0]])

    def atom_op(op, n):
        out = np.eye(1)
        for k in range(n_atoms):
            out = np.kron(out, op if k == n else np.eye(2))
        return out

    h = np.kron(np.eye(2**n_atoms), system.mode.omega * number_op)
    for n in range(n_atoms):
        h += np.kron(system.atoms[n].omega * atom_op(excite, n),
                     np.eye(dim_field))
        h += np.kron(system.coupling(n) * atom_op(flip, n), quadrature_op)
    if include_pair:
        for n, m in itertools.combinations(range(n_atoms), 2):
            pair = atom_op(flip, n) @ atom_op(flip, m)
            h += np.kron(system.pair_coefficient(n, m) * pair,
                         np.eye(dim_field))
    return h


def random_system(n_atoms, seed):
    rng = np.random.default_rng(seed)
    atoms = [TwoStateAtom(float(rng.uniform(0.5, 2.0)),
                          0.2 * rng.standard_normal(3))
             for _ in range(n_atoms)]
    polarization = rng.standard_normal(3)
    polarization /= np.linalg.norm(polarization)
    amplitudes = rng.uniform(-0.1, 0.1, n_atoms)
    # a node: the coupling of atom 0 is a signed zero
    amplitudes[0] = 0.0
    mode = CavityMode(float(rng.uniform(5.0, 30.0)), polarization,
                      amplitudes)
    positions = [(0.3 * k, 0.0, 4.0 * k) for k in range(n_atoms)]
    return CavitySystem(atoms, positions, mode)


@pytest.mark.parametrize("system", [
    *(random_system(n_atoms, seed=n_atoms) for n_atoms in (1, 2, 3, 4)),
    # orthogonal transverse dipoles: the pair coefficient is a signed zero
    make_system(d1=(0.1, 0, 0), d2=(0, 0.1, 0)),
], ids=["N1", "N2", "N3", "N4", "zero-pair"])
def test_hamiltonian_equals_kron_build(system):
    for n_max in (4, 12, 16):
        for include_pair in (False, True):
            h = _hamiltonian(system, n_max, include_pair)
            reference = kron_hamiltonian(system, n_max, include_pair)
            assert np.array_equal(h, reference)
            assert np.array_equal(np.signbit(h), np.signbit(reference))


def test_layout_arrays_are_read_only():
    layout = _layout(3, 12)
    assert layout is _layout(3, 12)
    for array in layout:
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array.flat[0] = 1


def test_cavity_point_makes_four_eigensolves(monkeypatch):
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counting(a, *args, **kwargs):
        calls.append(a.shape)
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    _run_cavity({
        "task": "cavity",
        "atoms": [{"omega": 0.9, "dipole": [0.1, 0, 0]},
                  {"omega": 1.1, "dipole": [0.1, 0, 0]}],
        "mode": {"omega": 20.0, "polarization": [1, 0, 0],
                 "amplitudes": [0.03, 0.04]},
        "separation": 8.0,
    })
    # cutoff 12 and 16, each with and without the pair coupling
    assert sorted(calls) == [(52, 52), (52, 52), (68, 68), (68, 68)]


def test_shared_ground_solve_is_order_independent():
    first = make_system(r=8.0)
    exact_first = exact_ground_energy(first)
    extract_second = interaction_extract(first)
    second = make_system(r=8.0)
    extract_first = interaction_extract(second)
    exact_second = exact_ground_energy(second)
    assert exact_first.hex() == exact_second.hex()
    assert extract_first.hex() == extract_second.hex()
    fine = float(np.linalg.eigvalsh(_hamiltonian(make_system(r=8.0), 16,
                                                 True))[0])
    assert exact_first.hex() == fine.hex()
