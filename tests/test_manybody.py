"""Cluster free-energy checks: determinant route against the normal-mode
oracle, pairwise reduction, thermal limits, and the coupling-constant
integral identity."""

import decimal
import itertools
import json
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

import fluctem.manybody as manybody
import fluctem.quadrature as quadrature
from fluctem.cli import run
from fluctem.core import SPEED_OF_LIGHT, EnergyResult, vec3
from fluctem.green import dyadic_green_imag, static_green
from fluctem.manybody import (
    PairDistanceError,
    StrongCouplingError,
    SystemGeometry,
    build_T,
    free_energy_T0,
    free_energy_finiteT,
    normal_mode_energy,
    phf_lambda_integral,
    second_order_energy,
)
from fluctem.pairwise import (PairSpec, validity_check, vdw_energies,
                              vdw_energy)
from fluctem.polarizability import KramersHeisenberg, Transition, single_resonance
from fluctem.quadrature import (
    QuadratureError,
    QuadratureSpec,
    integrate_semi_infinite,
)


def chain_geometry(model, spacing, n):
    return SystemGeometry([(vec3(0.0, 0.0, k * spacing), model)
                           for k in range(n)])


def test_geometry_validation():
    model = single_resonance(1.0, 0.5)
    with pytest.raises(ValueError):
        SystemGeometry([(vec3(0, 0, 0), model), (vec3(0, 0, 0), model)])
    with pytest.raises(ValueError):
        SystemGeometry([((0.0, 0.0), model)])
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="site 1 needs a finite"):
            SystemGeometry([(vec3(0, 0, 0), model), ((0.0, 0.0, bad), model)])
    geom = chain_geometry(model, 2.0, 3)
    assert geom.n_sites == 3
    assert geom.min_separation() == pytest.approx(2.0)


def test_geometry_rejects_an_infinite_pair_distance():
    model = single_resonance(1.0, 0.5)
    with pytest.raises(ValueError, match="too far apart"):
        SystemGeometry([((-1e300, 0, 0), model), ((1e300, 0, 0), model)])


def test_geometry_names_the_refused_pair_and_keeps_its_distances():
    model = single_resonance(1.0, 0.5)
    sites = [((0.0, 0.0, 0.0), model), ((0.0, 0.0, 4.0), model),
             ((0.0, 0.0, 4.0), model)]
    with pytest.raises(PairDistanceError, match="coincident") as info:
        SystemGeometry(sites)
    assert (info.value.i, info.value.j, info.value.distance) == (1, 2, 0.0)
    sites[2] = ((0.0, 3.0, 0.0), model)
    geom = SystemGeometry(sites)
    i, j = geom.pair_indices
    r = geom.pair_distances
    assert (list(i), list(j)) == ([0, 0, 1], [1, 2, 2])
    assert list(r) == [4.0, 3.0, 5.0]
    assert geom.min_separation() == 3.0
    assert not r.flags.writeable


def test_geometry_validity_reports():
    geom = chain_geometry(single_resonance(4.0, 0.5), 1.0, 2)
    ((i, j, verdict),) = geom.validity_reports()
    assert (i, j) == (0, 1)
    assert not verdict.ok
    assert verdict.ratio == pytest.approx(16.0)


def test_validity_reports_take_alpha0_once_per_model(monkeypatch):
    # two models on a 3 x 3 x 3 cube: the ratio of each pair is the
    # pairwise verdict's, bit for bit, from two static polarizabilities
    models = [single_resonance(2.0, 0.6),
              KramersHeisenberg((Transition(0.4, 1.0), Transition(0.9, 0.5)))]
    sites = [((1.1 * a, 1.2 * b, 1.3 * c), models[(a + b + c) % 2])
             for a in range(3) for b in range(3) for c in range(3)]
    geom = SystemGeometry(sites)
    calls = []
    sum_terms = KramersHeisenberg.sum_terms
    monkeypatch.setattr(KramersHeisenberg, "sum_terms",
                        lambda self, x2: calls.append(self) or sum_terms(
                            self, x2))
    reports = geom.validity_reports()
    assert len(calls) == 2
    monkeypatch.undo()
    assert len(reports) == 27 * 26 // 2
    for (i, j, verdict), r in zip(reports, geom.pair_distances):
        single = validity_check(PairSpec(sites[i][1], sites[j][1], float(r)))
        assert verdict == single
        assert verdict.ok == (verdict.ratio < 1.0)
    assert not all(verdict.ok for _, _, verdict in reports)


def test_build_T_single_site_is_zero():
    geom = SystemGeometry([(vec3(0, 0, 0), single_resonance(1.0, 0.5))])
    assert np.array_equal(build_T(geom, 0.0), np.zeros((3, 3)))
    assert np.array_equal(build_T(geom, 0.7), np.zeros((3, 3)))


def test_build_T_static_two_atoms_on_z():
    r = 2.0
    geom = chain_geometry(single_resonance(1.0, 0.5), r, 2)
    t = build_T(geom, 0.0)
    block = t[0:3, 3:6]
    assert np.allclose(block, np.diag([1 / r**3, 1 / r**3, -2 / r**3]),
                       rtol=1e-15)
    assert np.array_equal(t[0:3, 0:3], np.zeros((3, 3)))
    assert np.array_equal(t, t.T)


def test_build_T_symmetric_at_finite_frequency():
    geom = SystemGeometry([
        (vec3(0, 0, 0), single_resonance(1.0, 0.5)),
        (vec3(1.0, -2.0, 0.5), single_resonance(2.0, 0.4)),
        (vec3(-1.5, 0.3, 2.0), single_resonance(0.5, 1.1)),
    ])
    t = build_T(geom, 0.37)
    assert np.array_equal(t, t.T)


def random_sites(n, seed=27, min_distance=1.5):
    """(position, model) of n random sites at least min_distance apart."""
    rng = np.random.default_rng(seed)
    models = (single_resonance(1.0, 0.5), single_resonance(2.0, 0.4),
              KramersHeisenberg((Transition(0.4, 1.2), Transition(1.1, 0.6))))
    while True:
        pts = rng.uniform(-6.0, 6.0, size=(n, 3))
        sites = [(p, models[k % 3]) for k, p in enumerate(pts)]
        if n < 2 or SystemGeometry(sites).min_separation() > min_distance:
            return sites


def random_cluster(n, seed=27, min_distance=1.5):
    return SystemGeometry(random_sites(n, seed, min_distance))


def pair_loop_T(sites, xi):
    """Interaction matrix assembled block by block from the single-pair
    Green functions."""
    n = len(sites)
    t = np.zeros((3 * n, 3 * n))
    for i in range(n):
        for j in range(i + 1, n):
            ri, rj = sites[i][0], sites[j][0]
            g = static_green(ri, rj) if xi == 0.0 \
                else dyadic_green_imag(ri, rj, xi)
            t[3 * i:3 * i + 3, 3 * j:3 * j + 3] = -g
            t[3 * j:3 * j + 3, 3 * i:3 * i + 3] = -g
    return t


def pair_loop_second_order_integrand(sites, xi):
    alphas = [m.alpha_imag(xi) for _, m in sites]
    terms = []
    for i in range(len(sites)):
        for j in range(i + 1, len(sites)):
            ri, rj = sites[i][0], sites[j][0]
            g = static_green(ri, rj) if xi == 0.0 \
                else dyadic_green_imag(ri, rj, xi)
            terms.append(2.0 * alphas[i] * alphas[j] * float(np.sum(g * g)))
    return math.fsum(terms)


@pytest.mark.parametrize("n_atoms", [1, 2, 27])
@pytest.mark.parametrize("xi_kind", ["static", "quasi_static", "0.37", "50"])
def test_build_T_matches_pair_loop(n_atoms, xi_kind):
    sites = random_sites(n_atoms)
    geom = SystemGeometry(sites)
    r = geom.min_separation() if n_atoms > 1 else 1.0
    xi = {"static": 0.0, "quasi_static": 1e-5 * SPEED_OF_LIGHT / r,
          "0.37": 0.37, "50": 50.0}[xi_kind]
    batched = build_T(geom, xi)
    reference = pair_loop_T(sites, xi)
    assert batched.shape == reference.shape == (3 * n_atoms, 3 * n_atoms)
    assert np.array_equal(batched, batched.T)
    assert np.abs(batched - reference).max() \
        <= 1e-13 * np.abs(reference).max(initial=0.0)


def test_second_order_matches_pair_loop_integrand(monkeypatch):
    # the second geometry's lowest transition lies about 1e20 under the
    # other, so the node walk reaches x = xi r/c of about 1e81, where P(x)
    # overflows while exp(-x) is 0
    far_walk = KramersHeisenberg((Transition(1.47e-20, 1e-30),
                                  Transition(0.9, 0.5)))
    for sites in (random_sites(6, seed=5, min_distance=3.0),
                  [(vec3(0, 0, 0), single_resonance(0.5, 0.5)),
                   (vec3(0, 0, 3.0), far_walk)]):
        geom = SystemGeometry(sites)
        seen, integrands = [], []

        def recording(integrand, spec, scale, stack):
            integrands.append(integrand)

            def wrapped(xi):
                values = integrand(xi)
                seen.extend(zip(np.ravel(xi).tolist(),
                                np.ravel(values).tolist()))
                return values
            return integrate_semi_infinite(wrapped, spec, scale, stack)

        monkeypatch.setattr(manybody, "integrate_semi_infinite", recording)
        batched = second_order_energy(geom)
        assert batched.evaluations > 0
        assert manybody._stack(geom.pair_distances.size) > 1
        # stacked calls also evaluate nodes past each direction's cut,
        # which are discarded uncounted: every evaluated node is checked
        assert len(seen) >= batched.evaluations
        (integrand,) = integrands
        for xi, value in seen:
            reference = pair_loop_second_order_integrand(sites, xi)
            assert value == pytest.approx(reference, rel=1e-13, abs=0.0)
            # the stacked value is the one-node stack's, bit for bit
            assert integrand(np.array([xi]))[0] == value


def pinned_cube_sites():
    rng = np.random.default_rng(2024)
    models = (single_resonance(1.5, 0.5),
              KramersHeisenberg((Transition(0.4, 1.2), Transition(1.1, 0.6))))
    corners = itertools.product((0.0, 5.0), repeat=3)
    return [(np.array(c) + rng.uniform(-0.3, 0.3, 3), models[k % 2])
            for k, c in enumerate(corners)]


def pinned_cube():
    return SystemGeometry(pinned_cube_sites())


def test_evaluation_counts_pinned():
    # counts and values of the pair-by-pair Green assembly: batching the
    # pairs makes each node cheaper and must leave the nodes as they were.
    # The thermal sum is cut at its first block end, n = 31, and its tail
    # stops at the sum's tolerance; the direct sum of its first 100 001
    # terms lies 1.8e-16 from its value, well inside its error estimate of
    # 1.7e-13
    geom = pinned_cube()
    t0 = free_energy_T0(geom)
    thermal = free_energy_finiteT(geom, 0.1)
    second = second_order_energy(geom)
    assert (t0.evaluations, thermal.evaluations, second.evaluations) \
        == (101, 84, 101)
    assert t0.value == pytest.approx(-0.0012604643522799504, rel=1e-12)
    assert thermal.value == pytest.approx(-0.0014078704962631392, rel=1e-12)
    assert second.value == pytest.approx(-0.0012696444473952225, rel=1e-12)


def test_integrand_calls_pinned(monkeypatch):
    # the integrand calls behind test_evaluation_counts_pinned's counts:
    # a level's first call takes the nodes inside the previous level's
    # reach and four more, both directions at once where they fit one
    # stack, and no call holds more nodes than its stack
    geom = pinned_cube()
    sizes = []
    for name in ("integrate_semi_infinite", "matsubara_sum"):
        def recording(f, *args, integrate=getattr(manybody, name)):
            return integrate(lambda xi: sizes.append(len(xi)) or f(xi), *args)
        monkeypatch.setattr(manybody, name, recording)
    calls = []
    for energy, stack in (
            (free_energy_T0, manybody._stack(24**2)),
            (lambda geom: free_energy_finiteT(geom, 0.1), quadrature._BLOCK),
            (second_order_energy, manybody._stack(28))):
        sizes.clear()
        energy(geom)
        assert 0 < max(sizes) <= stack
        calls.append(len(sizes))
    assert calls == [5, 5, 5]


def test_alpha_values_follow_site_models():
    geom = random_cluster(7, seed=3)
    for xi in (0.0, 0.2, 3.0):
        assert np.array_equal(geom.alpha_values(xi),
                              [m.alpha_imag(xi) for m in geom.models])


@pytest.mark.parametrize("n_atoms", [1, 2, 27])
def test_build_T_stack_slices_equal_scalar_calls(n_atoms):
    # the frequency kinds of test_build_T_matches_pair_loop, as one stack
    geom = random_cluster(n_atoms)
    r = geom.min_separation() if n_atoms > 1 else 1.0
    xis = np.array([0.0, 1e-5 * SPEED_OF_LIGHT / r, 0.37, 50.0])
    stacked = build_T(geom, xis)
    assert stacked.shape == (len(xis), 3 * n_atoms, 3 * n_atoms)
    for k, xi in enumerate(xis):
        assert np.array_equal(stacked[k], build_T(geom, xi))
        assert np.array_equal(stacked[k], build_T(geom, float(xi)))


def pair_loop_m(sites, xi, nonretarded):
    """M = sqrt(A) T sqrt(A) block by block: each pair's single-pair
    Green tensor, negated, times sqrt(alpha_i) sqrt(alpha_j)."""
    n = len(sites)
    roots = [math.sqrt(model.alpha_imag(xi)) for _, model in sites]
    m = np.zeros((3 * n, 3 * n))
    for i in range(n):
        for j in range(i + 1, n):
            ri, rj = sites[i][0], sites[j][0]
            g = static_green(ri, rj) if nonretarded or xi == 0.0 \
                else dyadic_green_imag(ri, rj, xi)
            block = -g * (roots[i] * roots[j])
            m[3 * i:3 * i + 3, 3 * j:3 * j + 3] = block
            m[3 * j:3 * j + 3, 3 * i:3 * i + 3] = block
    return m


def log_det_matrices(geom, nonretarded, xis, monkeypatch):
    """The M that the log-det integrand hands to the factorisation, for a
    stack of frequencies ``xis``."""
    seen = []
    log_det_1p = manybody._log_det_1p

    def recording(xi, m):
        seen.append(m.copy())
        return log_det_1p(xi, m)

    monkeypatch.setattr(manybody, "_log_det_1p", recording)
    manybody._logdet_function(geom, nonretarded)(np.asarray(xis))
    monkeypatch.setattr(manybody, "_log_det_1p", log_det_1p)
    (m,) = seen
    return m


@pytest.mark.parametrize("nonretarded", [False, True])
def test_log_det_matrices_equal_the_pair_loop_bit_for_bit(nonretarded,
                                                         monkeypatch):
    # two distinct models, so the nonretarded limit takes the general
    # path too; each slice of the stack is also its one-node call's
    sites = pinned_cube_sites()
    geom = SystemGeometry(sites)
    r = geom.min_separation()
    xis = [0.0, 1e-5 * SPEED_OF_LIGHT / r, 0.0731, 0.37, 3.0, 50.0]
    stacked = log_det_matrices(geom, nonretarded, xis, monkeypatch)
    assert stacked.shape == (len(xis), 24, 24)
    for k, xi in enumerate(xis):
        expected = pair_loop_m(sites, xi, nonretarded)
        assert stacked[k].tobytes() == expected.tobytes(), xi
        alone = log_det_matrices(geom, nonretarded, [xi], monkeypatch)
        assert alone[0].tobytes() == expected.tobytes(), xi


@pytest.mark.parametrize("nonretarded", [False, True])
def test_log_det_names_the_first_crossing_xi_of_a_stack(nonretarded,
                                                         monkeypatch):
    # the pinned cube shrunk until a mode of M crosses mu = -1 at low xi:
    # the stacked Cholesky fails, and the eigenvalues name the first xi
    # of the stack at which 1 + M is not positive definite
    sites = [(0.35 * p, model) for p, model in pinned_cube_sites()]
    geom = SystemGeometry(sites)
    xis = [2.0, 1.2, 0.8, 0.4, 0.0]
    lowest = [np.linalg.eigvalsh(pair_loop_m(sites, xi, nonretarded))[0]
              for xi in xis]
    first = next(k for k, mu in enumerate(lowest) if mu <= -1.0)
    assert 0 < first and lowest[first - 1] > -1.0
    failed = []
    cholesky = np.linalg.cholesky

    def recording(m):
        try:
            return cholesky(m)
        except np.linalg.LinAlgError:
            failed.append(m.shape)
            raise

    monkeypatch.setattr(np.linalg, "cholesky", recording)
    g = manybody._logdet_function(geom, nonretarded)
    with pytest.raises(StrongCouplingError,
                       match=re.escape(f"xi={xis[first]!r}:")):
        g(np.array(xis))
    assert failed == [(len(xis), 24, 24)]


def test_build_T_rejects_negative_frequency_in_stack():
    geom = random_cluster(3)
    with pytest.raises(ValueError):
        build_T(geom, np.array([0.1, -0.2]))
    # min passes over a NaN that is not the first entry
    for xi in (math.nan, np.array([0.1, math.nan]), np.array([math.nan, 0.1])):
        with pytest.raises(ValueError, match="frequency"):
            build_T(geom, xi)
        with pytest.raises(ValueError, match="frequency"):
            geom.alpha_values(xi)


@pytest.mark.parametrize("memo", [False, True])
def test_log_det_checks_its_frequencies_once_per_call(monkeypatch, memo):
    # the alphas and the Green blocks share one checked, clamped array,
    # with a memo of the norms or without; a NaN or negative xi still
    # raises
    geom = pinned_cube()
    g = manybody._logdet_function(geom, False, {} if memo else None)
    xis = np.array([0.3, 1e160, 0.0])
    expected = g(xis)
    checks = []
    frequencies = manybody._frequencies
    monkeypatch.setattr(manybody, "_frequencies",
                        lambda xi: checks.append(xi) or frequencies(xi))
    assert np.array_equal(g(xis), expected)
    assert len(checks) == 1
    for bad in (np.array([0.3, math.nan]), np.array([-0.1])):
        with pytest.raises(ValueError, match="frequency"):
            g(bad)


def test_build_T_is_exactly_zero_past_the_frequency_ceiling():
    # (xi/c)^2 overflows past xi ~ 1e154; every block is zero long before
    geom = random_cluster(3)
    huge = np.array([1e150, 1e160, 1e300])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for xi in huge:
            assert not np.any(build_T(geom, xi))
        assert not np.any(build_T(geom, huge))
        assert np.all(np.isfinite(geom.alpha_values(huge)))


def test_alpha_stack_equals_alpha_imag_bitwise():
    three = KramersHeisenberg((Transition(0.3, 1.0), Transition(0.7, 0.5),
                               Transition(1.9, 0.2)))
    eight = KramersHeisenberg(tuple(
        Transition(0.11 * 1.7**k, 0.3 + 0.9 * k) for k in range(8)))
    xis = np.array([0.0, 1e-3, 0.2, 0.37, 3.0, 50.0])
    for geom in (random_cluster(7, seed=3),
                 SystemGeometry([(vec3(0, 0, 0), three),
                                 (vec3(0, 0, 4), single_resonance(1.0, 0.5)),
                                 (vec3(0, 4, 0), eight)])):
        stacked = geom.alpha_values(xis)
        assert stacked.shape == (len(xis), geom.n_sites)
        for k, xi in enumerate(xis.tolist()):
            assert np.array_equal(stacked[k],
                                  [m.alpha_imag(xi) for m in geom.models])


def identical_cube():
    return SystemGeometry([(p, single_resonance(1.5, 0.5))
                           for p, _ in pinned_cube_sites()])


def cube_sites(side, models, rng, spacing=6.0, jitter=0.25):
    """A side x side x side grid, each site moved by up to ``jitter`` on
    each axis, the models taken in turn, as in the benchmark's
    ``clusters`` workload."""
    return [(np.array(c) * spacing + rng.uniform(-jitter, jitter, 3),
             models[k % len(models)])
            for k, c in enumerate(itertools.product(range(side), repeat=3))]


def larger_cube(side, identical):
    models = (single_resonance(2.0, 0.6),) if identical else \
        (single_resonance(2.0, 0.6),
         KramersHeisenberg((Transition(0.4, 1.2), Transition(1.1, 0.6))))
    return SystemGeometry(cube_sites(side, models,
                                     np.random.default_rng([side, 7])))


# N = 27 and 64 sum 81 and 192 modes and 351 and 2016 pairs per node, past
# numpy's 8-lane unrolled and 128-element pairwise blocks
LARGER_CUBES = {
    "cube_27": lambda: larger_cube(3, identical=False),
    "identical_cube_27": lambda: larger_cube(3, identical=True),
    "cube_64": lambda: larger_cube(4, identical=False),
    "identical_cube_64": lambda: larger_cube(4, identical=True),
}


@pytest.mark.parametrize("nonretarded", [False, True])
@pytest.mark.parametrize("make", [pinned_cube, identical_cube,
                                  *LARGER_CUBES.values()],
                         ids=["pinned_cube", "identical_cube", *LARGER_CUBES])
def test_stacked_log_det_equals_single_calls(nonretarded, make):
    geom = make()
    g = manybody._logdet_function(geom, nonretarded)
    xis = np.arange(40) * 0.0731
    stacked = g(xis)
    assert stacked.shape == xis.shape
    for k, xi in enumerate(xis.tolist()):
        assert np.array_equal(stacked[k], g(np.array([xi]))[0])


@pytest.mark.parametrize("side", [3, 4])
def test_stacked_second_order_equals_single_calls(side, monkeypatch):
    geom = larger_cube(side, identical=False)
    integrands = []

    def recording(integrand, spec, scale, stack):
        integrands.append(integrand)
        return integrate_semi_infinite(integrand, spec, scale, stack)

    monkeypatch.setattr(manybody, "integrate_semi_infinite", recording)
    second_order_energy(geom)
    (integrand,) = integrands
    xis = np.arange(40) * 0.0731
    stacked = integrand(xis)
    assert stacked.shape == xis.shape
    for k, xi in enumerate(xis.tolist()):
        assert integrand(np.array([xi]))[0] == stacked[k]


@pytest.mark.parametrize("nonretarded", [False, True])
def test_empty_stacks_give_empty_values(nonretarded):
    # a quadrature stack whose first node rounds to 0 or inf is empty
    for geom in (pinned_cube(), identical_cube()):
        values = manybody._logdet_function(geom, nonretarded)(np.array([]))
        assert values.shape == (0,)


def log1pmx_decimal(mu):
    """log(1 + mu) - mu to 60 digits: the alternating series
    -mu^2/2 + mu^3/3 - ... for |mu| < 0.1, Decimal ln otherwise."""
    ctx = decimal.Context(prec=60)
    d = decimal.Decimal(mu)
    if abs(mu) >= 0.1:
        return ctx.subtract(ctx.ln(ctx.add(1, d)), d)
    total, power = decimal.Decimal(0), d
    for k in range(2, 80):
        power = ctx.multiply(power, d)
        term = ctx.divide(power, k)
        total = ctx.add(total, term if k % 2 else -term)
    return total


def test_log1pmx_against_60_digits():
    mus = np.concatenate([np.linspace(-1.0, 3.0, 2001)[1:],
                          np.linspace(-0.06, 0.06, 601),
                          np.geomspace(1e-150, 1.0, 751),
                          -np.geomspace(1e-150, 1.0, 751)[:-1]])
    worst = 0.0
    for mu, value in zip(mus.tolist(), manybody._log1pmx(mus).tolist()):
        exact = log1pmx_decimal(mu)
        if exact == 0:
            assert value == 0.0
            continue
        ulps = abs(decimal.Decimal(value) - exact) \
            / decimal.Decimal(math.ulp(float(exact)))
        worst = max(worst, float(ulps))
    assert worst <= 128


def interaction_matrix(geom, xi):
    """The symmetrized M = sqrt(A) T sqrt(A) of the retarded log det."""
    s = np.sqrt(geom.alpha_values(xi)).repeat(3)
    return (s[:, None] * s[None, :]) * build_T(geom, xi)


def log_det_40_digits(m):
    """log det(1 + m) of the float matrix m, at 40 digits."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        a = mpmath.matrix(m.tolist())
        for i in range(a.rows):
            a[i, i] += 1
        return mpmath.log(mpmath.det(a))


def zero_block_matrices():
    """Random symmetric matrices with zero 3 x 3 diagonal blocks, their
    lowest eigenvalue set from -1e-8 to -0.95."""
    rng = np.random.default_rng(7)
    for lowest in np.geomspace(1e-8, 0.95, 8).tolist():
        n = 3 * int(rng.integers(2, 9))
        a = rng.normal(size=(n, n))
        a += a.T
        for b in range(0, n, 3):
            a[b:b + 3, b:b + 3] = 0.0
        yield a * (lowest / -np.linalg.eigvalsh(a)[0])


@pytest.mark.parametrize("case", [
    ("pinned cube", 1.0, (0.0, 0.1, 0.5, 2.0, 30.0, 300.0)),
    # positions scaled until min(1 + mu) at xi = 0 is about 0.05
    ("near the boundary", 0.4232, (0.0, 0.05, 0.3)),
    ("zero-block matrices", None, None),
], ids=lambda case: case[0])
def test_cholesky_log_det_against_40_digits_and_eigenvalues(case):
    # the Cholesky sum against the log det of the same float matrix at 40
    # digits, and the eigenvalue sum against both: Cholesky's worst seen
    # is 1.9e-16 relative, the eigenvalue sum's 2.9e-15, at min(1 + mu)
    # of 0.05
    _, scale, xis = case
    eps = np.finfo(float).eps
    if scale is None:
        matrices = [(0.0, m) for m in zero_block_matrices()]
    else:
        geom = SystemGeometry([(scale * p, model)
                               for p, model in pinned_cube_sites()])
        g = manybody._logdet_function(geom, nonretarded=False)
        matrices = [(xi, interaction_matrix(geom, xi)) for xi in xis]
    lowest = []
    for xi, m in matrices:
        mu = np.linalg.eigvalsh(m)
        lowest.append(1.0 + mu.min())
        (value,) = manybody._log_det_1p(np.array([xi]), m[None].copy())
        if scale is not None:
            assert g(np.array([xi]))[0] == value
        exact = log_det_40_digits(m)
        (eigen,) = manybody._log1p_sums(np.array([xi]), mu[None])
        assert abs(value - exact) <= 4 * eps * abs(exact)
        assert abs(eigen - exact) <= 32 * eps * abs(exact)
    if scale == 0.4232:
        assert 0.04 < min(lowest) < 0.06
    if scale is None:
        assert min(lowest) < 0.06 and max(lowest) > 1.0 - 1e-7


def test_log_det_takes_eigenvalues_where_a_pivot_rounds_to_zero(
        monkeypatch):
    # LAPACK can pass a pivot whose recomputed s_i = sum_{k<i} L_ik^2
    # still rounds to 1 or above: 4 of 3000 random zero-block matrices
    # within 4e-16 of mu = -1 did.  A factor whose last row has s = 4
    # stands in for such a stack
    m = interaction_matrix(pinned_cube(), 0.3)[None]
    xi = np.array([0.3])
    (expected,) = manybody._log1p_sums(xi, np.linalg.eigvalsh(m))
    cholesky = np.linalg.cholesky

    def past_one(a):
        low = cholesky(a)
        row = low[..., -1, :-1]
        row *= 2.0 / np.sqrt(np.sum(row * row))
        return low

    monkeypatch.setattr(np.linalg, "cholesky", past_one)
    assert manybody._log_det_1p(xi, m.copy())[0] == expected


def term_by_term_log_det(geom, nonretarded):
    """log det[1 + A T](i xi) one frequency at a time, with per-site
    alpha_imag calls: the term-by-term route the stacked one replaces.
    Past the identical nonretarded case it is sum_i log1p(-s_i) over the
    strictly lower row sums s_i of the squared Cholesky factor of the
    unit-diagonal 1 + M, one matrix per call; each sum is taken over its
    one row of terms."""
    static_t = build_T(geom, 0.0)
    t_eigs = np.linalg.eigvalsh(static_t)

    def g(xi):
        alphas = [m.alpha_imag(xi) for m in geom.models]
        if nonretarded and all(m == geom.models[0] for m in geom.models):
            mu = alphas[0] * t_eigs
            return float(manybody._log1pmx(mu).sum())
        s = np.repeat(np.sqrt(alphas), 3)
        t = static_t if nonretarded else build_T(geom, xi)
        low = np.tril(np.linalg.cholesky(np.eye(len(s))
                                         + (s[:, None] * s[None, :]) * t), -1)
        rows = np.einsum("ij,ij->i", low, low)
        return float(np.log1p(-rows).sum())

    return g


def term_by_term_matsubara(g, temperature, spec, scale):
    """The thermal sum with one g call per term: its cut N and result.

    Terms are taken until a block end n = 31, 63, ... where the third and
    fifth differences of the last terms are small; the sum keeps
    n <= N = n - 2 and the Euler-Maclaurin tail takes the rest."""
    t_step = 2.0 * math.pi * temperature
    values, partial, n = [], 0.0, -1
    while True:
        n += 1
        values.append(g(n * t_step))
        partial += values[n] if n else 0.5 * values[n]
        if n % 32 != 31:
            continue
        gm, g0, g1, g2 = values[n - 3:]
        d2 = (1.0 / 24.0) * (g1 - g0)
        d4 = (17.0 / 5760.0) * (g2 - 3.0 * g1 + 3.0 * g0 - gm)
        f = values[n - 5:]
        d6 = (367.0 / 967680.0) * (f[5] - 5.0 * f[4] + 10.0 * f[3]
                                   - 10.0 * f[2] + 5.0 * f[1] - f[0])
        truncation = abs(d4) + abs(d6)
        if truncation <= spec.rel_tol * max(abs(partial), 1e-300):
            break
    cut = n - 2
    terms = [0.5 * values[0]] + values[1:cut + 1]
    xi_mid = (cut + 0.5) * t_step
    head = temperature * (math.fsum(terms) + d2 - d4)
    head_err = temperature * (truncation + 4.0 * np.finfo(float).eps
                              * math.fsum(abs(t) for t in terms))
    # the tail stops at its own rel_tol, or once its error fits in what
    # rel_tol |head| leaves beside the head's error
    tail = quadrature._integrate(
        quadrature._floats(lambda x: g(xi_mid + x)),
        QuadratureSpec(rel_tol=spec.rel_tol), max(xi_mid, scale),
        2.0 * math.pi * (spec.rel_tol * abs(head) - head_err))
    value = head + tail.value / (2.0 * math.pi)
    err = head_err + tail.error_estimate / (2.0 * math.pi)
    return cut, EnergyResult(value, err, n + 1 + tail.evaluations)


@pytest.mark.parametrize("case", [
    ("pinned cube, T=0.1", pinned_cube, 0.1, False, QuadratureSpec()),
    ("pinned cube, T=0.01", pinned_cube, 0.01, False, QuadratureSpec()),
    ("identical nonretarded, T=1e-3", identical_cube, 1e-3, True,
     QuadratureSpec()),
    # the terms are negligible long before the first block end
    ("pinned cube, T=2", pinned_cube, 2.0, False, QuadratureSpec()),
], ids=lambda case: case[0])
def test_blocked_thermal_sum_matches_term_by_term(case, monkeypatch):
    _, make, temperature, nonretarded, spec = case
    geom = make()
    # the one tail integral starts at xi_(N + 1/2): its scale gives N
    scales = []
    ladder = quadrature._integrate

    def recording(source, tail_spec, scale, *args, **kwargs):
        scales.append(scale)
        return ladder(source, tail_spec, scale, *args, **kwargs)

    monkeypatch.setattr(quadrature, "_integrate", recording)
    blocked = free_energy_finiteT(geom, temperature, spec,
                                  nonretarded=nonretarded)
    tail_scales = list(scales)
    node_scale = manybody._node_scale(geom, nonretarded)
    cut, reference = term_by_term_matsubara(
        term_by_term_log_det(geom, nonretarded), temperature, spec,
        node_scale)
    t_step = 2.0 * math.pi * temperature
    assert tail_scales == [max((cut + 0.5) * t_step, node_scale)]
    assert cut % 32 == 29
    assert blocked.evaluations == reference.evaluations
    assert blocked.value == reference.value
    assert blocked.error_estimate == reference.error_estimate


def test_strong_coupling_raises_at_finite_temperature():
    geom = chain_geometry(single_resonance(8.0, 0.5), 1.0, 2)
    for nonretarded in (False, True):
        with pytest.raises(StrongCouplingError, match="xi=0.0"):
            free_energy_finiteT(geom, 0.05, nonretarded=nonretarded)


def test_free_energy_single_atom_is_zero():
    geom = SystemGeometry([(vec3(0, 0, 0), single_resonance(1.0, 0.5))])
    assert free_energy_T0(geom).value == 0.0
    assert free_energy_finiteT(geom, 0.01).value == 0.0


def test_free_energy_finiteT_rejects_a_nan_temperature():
    one = SystemGeometry([(vec3(0, 0, 0), single_resonance(1.0, 0.5))])
    two = chain_geometry(single_resonance(1.0, 0.5), 3.0, 2)
    for geom in (one, two):
        for temperature in (-1.0, math.nan):
            with pytest.raises(ValueError, match="temperature"):
                free_energy_finiteT(geom, temperature)


def test_second_order_single_atom_is_zero():
    geom = SystemGeometry([(vec3(0, 0, 0), single_resonance(1.0, 0.5))])
    assert second_order_energy(geom).value == 0.0


def test_second_order_equals_pair_energy_for_two_atoms():
    model_a = single_resonance(2.0, 0.5)
    model_b = single_resonance(1.0, 0.9)
    r = 6.0
    geom = SystemGeometry([(vec3(0, 0, 0), model_a),
                           (vec3(0, 0, r), model_b)])
    cluster = second_order_energy(geom)
    pair = vdw_energy(PairSpec(model_a, model_b, r))
    assert cluster.value == pytest.approx(pair.value, rel=1e-8)


FAR_PAIR_MODEL = single_resonance(2.0, 0.6)


def far_pair(r):
    return (SystemGeometry([(vec3(0, 0, 0), FAR_PAIR_MODEL),
                            (vec3(0, 0, r), FAR_PAIR_MODEL)]),
            PairSpec(FAR_PAIR_MODEL, FAR_PAIR_MODEL, r))


@pytest.mark.parametrize("r", [6.0, 1e2, 1e3, 1e4, 1e5])
def test_second_order_equals_pair_energy_at_extreme_separations(r):
    # the integrals shrink as r^-6 to r^-7: a relative stopping rule keeps
    # both routes at full accuracy however small they get
    geom, pair = far_pair(r)
    assert second_order_energy(geom).value \
        == pytest.approx(vdw_energy(pair).value, rel=1e-12, abs=0.0)


def quad_free_energy(integrand, breaks):
    """(1/2pi) int_0^inf integrand(xi) d(xi) by scipy quad, split at the
    ``breaks``.  Returns the value and quad's error estimate."""
    integrate = pytest.importorskip("scipy.integrate")
    edges = [0.0, *sorted(set(breaks)), math.inf]
    pieces = [integrate.quad(integrand, lo, hi, epsabs=0.0, epsrel=1e-13,
                             limit=200)
              for lo, hi in zip(edges[:-1], edges[1:])]
    return (math.fsum(v for v, _ in pieces) / (2.0 * math.pi),
            math.fsum(e for _, e in pieces) / (2.0 * math.pi))


def exact_pair_free_energy(r, nonretarded):
    """(1/2pi) int log det[1 + A T] d(xi) of two identical isotropic atoms:
    log1p(-alpha^2 g_par^2) + 2 log1p(-alpha^2 g_perp^2) over the Green
    eigenvalues along and across the axis, by scipy quad.  Returns the
    value and quad's error estimate."""
    c = SPEED_OF_LIGHT

    def integrand(xi):
        x = 0.0 if nonretarded else xi * r / c
        decay = math.exp(-x) / r**3
        g_par = 2.0 * (1.0 + x) * decay
        g_perp = (x * x + 1.0 + x) * decay
        a2 = FAR_PAIR_MODEL.alpha_imag(xi) ** 2
        return math.log1p(-a2 * g_par**2) + 2.0 * math.log1p(-a2 * g_perp**2)

    # the resonance and, retarded, the decay c/r set the two scales
    omega = FAR_PAIR_MODEL.transitions[0].omega_sg
    return quad_free_energy(integrand,
                            {omega, omega if nonretarded else c / r})


@pytest.mark.parametrize("nonretarded", [False, True])
@pytest.mark.parametrize("r", [1e2, 1e3, 3e3, 1e4, 1e5])
def test_free_energy_error_is_honest_at_extreme_separations(r, nonretarded):
    # the pair energy shrinks as r^-6 to r^-7 and the log det is summed
    # without its vanishing first order, so the value keeps full relative
    # accuracy and the error estimate stays tight and covers the distance
    # to the exact pair determinant
    geom, _ = far_pair(r)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = free_energy_T0(geom, nonretarded=nonretarded)
    exact, ref_tol = exact_pair_free_energy(r, nonretarded)
    assert abs(res.value - exact) <= res.error_estimate + ref_tol
    assert res.error_estimate <= 1e-9 * abs(res.value)


def far_cube(spacing):
    """27 sites of the far-pair model on a 3 x 3 x 3 grid, each moved by
    up to 4 % of the spacing on each axis."""
    return SystemGeometry(cube_sites(3, (FAR_PAIR_MODEL,),
                                     np.random.default_rng(11), spacing,
                                     0.04 * spacing))


def exact_cluster_free_energy(geom):
    """(1/2pi) int sum_k (log1p(mu_k) - mu_k) d(xi) over the eigenvalues
    mu_k of M(i xi), by scipy quad split at the resonance and at c over the
    closest pair; _log1pmx is checked against 60 digits above.  Returns
    the value and quad's error estimate."""
    def integrand(xi):
        mu = np.linalg.eigvalsh(interaction_matrix(geom, xi))
        return math.fsum(manybody._log1pmx(mu).tolist())

    omega = FAR_PAIR_MODEL.transitions[0].omega_sg
    return quad_free_energy(
        integrand, {omega, SPEED_OF_LIGHT / geom.min_separation()})


@pytest.mark.parametrize("spacing", [1e2, 1e3])
def test_free_energy_error_is_honest_on_a_far_27_site_cube(spacing):
    # the Cholesky route with its plain per-node sums against eigenvalues
    # and an adaptive quadrature: the error estimate covers the distance
    geom = far_cube(spacing)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = free_energy_T0(geom)
    exact, ref_tol = exact_cluster_free_energy(geom)
    assert abs(res.value - exact) <= res.error_estimate + ref_tol
    assert res.error_estimate <= 1e-9 * abs(res.value)


def test_second_order_of_the_benchmark_cube_sums_its_pair_energies(
        load_perfbench):
    # the ret-N27 cube of the benchmark's clusters workload at seed 101:
    # its 351 pair terms per node summed as one row, against the pair
    # energies of its 351 distances
    atoms = dict(load_perfbench("workloads").clusters(101))["ret-N27"]["atoms"]
    model = single_resonance(2.0, 0.6)
    assert all((atom["alpha_static"], atom["omega"]) == (2.0, 0.6)
               for atom in atoms)
    geom = SystemGeometry([(np.array(atom["position"]), model)
                           for atom in atoms])
    assert geom.pair_distances.size == 351
    pairs = vdw_energies(model, model, geom.pair_distances)
    total = math.fsum(pair.value for pair in pairs)
    assert second_order_energy(geom).value \
        == pytest.approx(total, rel=1e-12, abs=0.0)


def config_geometry(cfg):
    """The SystemGeometry of a manybody config's single-resonance atoms."""
    return SystemGeometry([
        (np.array(atom["position"]),
         single_resonance(atom["alpha_static"], atom["omega"]))
        for atom in cfg["atoms"]])


def retarded_t0_clusters(load_perfbench):
    """The retarded T = 0 clusters of the benchmark at seeds 101-105, and
    the shipped triangle of configs/manybody.json."""
    clusters = load_perfbench("workloads").clusters
    cases = [(f"{seed}/{name}", config_geometry(cfg))
             for seed in range(101, 106) for name, cfg in clusters(seed)
             if name in ("ret-N8", "ret-N27")]
    shipped = json.loads((Path(__file__).resolve().parents[1] / "configs"
                          / "manybody.json").read_text())
    return cases + [("shipped", config_geometry(shipped))]


# the two routes of the second order's integrand differ per node by at
# most 3.6 eps relative on 400 nodes of each benchmark cube; over the
# positive terms of the integral that bounds the integrals' difference
SECOND_ORDER_ROUNDING = 8.0 * np.finfo(float).eps


def test_joint_free_energy_is_free_energy_T0_alone(load_perfbench):
    # the memo leaves the log det's walk as it is: the same value, error
    # and count, bit for bit; the second order is its own ladder's
    for name, geom in retarded_t0_clusters(load_perfbench):
        free, second = manybody.free_energy_T0_and_second_order(geom)
        alone = free_energy_T0(geom)
        assert free.value.hex() == alone.value.hex(), name
        assert (free.error_estimate, free.evaluations) \
            == (alone.error_estimate, alone.evaluations), name
        assert second == frobenius_alone(geom, None), name


def test_joint_second_order_is_the_pair_sum_to_rounding(load_perfbench):
    # ||M||_F^2 from the log det's own M against the pair polynomial route
    for name, geom in retarded_t0_clusters(load_perfbench):
        _, second = manybody.free_energy_T0_and_second_order(geom)
        pairs = second_order_energy(geom)
        diff = abs(second.value - pairs.value)
        assert diff <= second.error_estimate, name
        assert diff <= SECOND_ORDER_ROUNDING * abs(pairs.value), name
        assert second.evaluations == pairs.evaluations == 100, name


def frobenius_alone(geom, quad):
    """The second order of the joint path, integrated on its own."""
    res = integrate_semi_infinite(
        lambda xi: manybody._frobenius(manybody._m_products(geom, xi)), quad,
        manybody._node_scale(geom, False),
        manybody._stack((3 * geom.n_sites) ** 2))
    return res.scaled(-1.0 / (4.0 * math.pi))


def integrals_run(monkeypatch):
    """The log of the integrals that manybody runs through
    integrate_semi_infinite, in order: ("free" for a log det's integrand,
    else "second", its result or its error's message)."""
    runs, log_dets = [], []
    integrate = manybody.integrate_semi_infinite
    logdet_function = manybody._logdet_function

    def logdet_recording(*args):
        log_dets.append(logdet_function(*args))
        return log_dets[-1]

    def recording(f, *args):
        kind = "free" if f in log_dets else "second"
        try:
            res = integrate(f, *args)
        except QuadratureError as exc:
            runs.append((kind, str(exc)))
            raise
        runs.append((kind, res))
        return res

    monkeypatch.setattr(manybody, "_logdet_function", logdet_recording)
    monkeypatch.setattr(manybody, "integrate_semi_infinite", recording)
    return runs


def message(compute):
    """The message of the QuadratureError that ``compute()`` raises, or
    None if it returns."""
    try:
        compute()
    except QuadratureError as exc:
        return str(exc)
    return None


# at rel_tol 1e-11 these chains take their two integrals to different
# levels: the log det stops first on the 8-atom chain, the second order
# on the 3-atom one
STOP_APART = [(4.0, 3, "second"), (3.0, 8, "free")]


@pytest.mark.parametrize("spacing, n_atoms, first_stops", STOP_APART)
def test_joint_rows_that_stop_apart_give_their_own_results(
        spacing, n_atoms, first_stops, monkeypatch):
    # each integral still gives what it gives alone, and the second order
    # computes ||M||_F^2 outside the log det only past the log det's nodes
    geom = chain_geometry(single_resonance(2.0, 0.5), spacing, n_atoms)
    quad = QuadratureSpec(rel_tol=1e-11)
    norms, log_dets = [], []
    frobenius, log_det_1p = manybody._frobenius, manybody._log_det_1p
    monkeypatch.setattr(manybody, "_frobenius",
                        lambda p: norms.append(len(p)) or frobenius(p))
    monkeypatch.setattr(manybody, "_log_det_1p", lambda xi, m: log_dets.append(
        len(xi)) or log_det_1p(xi, m))
    free, second = manybody.free_energy_T0_and_second_order(geom, quad)
    own = sum(norms) - sum(log_dets)
    assert free == free_energy_T0(geom, quad)
    assert second == frobenius_alone(geom, quad)
    pairs = second_order_energy(geom, quad)
    assert abs(second.value - pairs.value) <= second.error_estimate
    if first_stops == "second":
        assert second.evaluations < free.evaluations and own == 0
    else:
        assert free.evaluations < second.evaluations and own > 0


@pytest.mark.parametrize("spacing, n_atoms, first_stops", STOP_APART)
def test_joint_rows_spend_their_own_budgets(spacing, n_atoms, first_stops,
                                            monkeypatch):
    # a budget between the two counts fails the larger integral alone,
    # with its own ladder's message; a budget that both overspend raises
    # the free energy's error, and the second order never runs
    geom = chain_geometry(single_resonance(2.0, 0.5), spacing, n_atoms)
    free, second = manybody.free_energy_T0_and_second_order(
        geom, QuadratureSpec(rel_tol=1e-11))
    counts = sorted([free.evaluations, second.evaluations])
    for budget in (sum(counts) // 2, 100):
        spec = QuadratureSpec(rel_tol=1e-11, max_evals=budget)
        alone = {"free": message(lambda: free_energy_T0(geom, spec)),
                 "second": message(lambda: frobenius_alone(geom, spec))}
        runs = integrals_run(monkeypatch)
        with pytest.raises(QuadratureError) as excinfo:
            manybody.free_energy_T0_and_second_order(geom, spec)
        monkeypatch.undo()
        if budget > counts[0]:
            larger = "free" if first_stops == "second" else "second"
            assert [kind for kind, m in alone.items() if m] == [larger]
        else:
            assert all(alone.values())
            larger = "free"
        assert runs[-1] == (larger, alone[larger]) == (larger,
                                                       str(excinfo.value))
        assert len(runs) == 1 + (larger == "second")


def test_joint_second_order_takes_each_norm_from_its_node(monkeypatch):
    # a NaN ||M||_F^2 from the log det at one kept node, above the centre
    # and then below it, leaves the free energy as it is and is named at
    # that node by the second order, which takes it from the memo
    geom = chain_geometry(single_resonance(2.0, 0.5), 4.0, 3)
    scale = manybody._node_scale(geom, False)
    walks = []
    for f in (manybody._logdet_function(geom, False),
              lambda xi: manybody._frobenius(manybody._m_products(geom, xi))):
        kept = []
        integrate_semi_infinite(
            lambda x: kept.append(x) or np.asarray(f(np.array([x])))[0],
            scale=scale)
        walks.append(kept)
    both = [x for x in walks[0] if x in set(walks[1])]
    # the third level-0 node of each direction, which both walks keep:
    # near enough the centre that no other node has its M bit for bit
    victims = [[x for x in both if (x > scale) == up][2]
               for up in (True, False)]
    frobenius = manybody._frobenius
    free = free_energy_T0(geom)
    for victim in victims:
        bad = manybody._m_products(geom, np.array([victim]))[0]
        spoiled = []

        def once(products, bad=bad):
            # NaN at the victim the first time only: a second computation
            # of its norm would hide the error
            hit = (products == bad).all(axis=-1) & (not spoiled)
            spoiled.extend(np.flatnonzero(hit))
            return np.where(hit, math.nan, frobenius(products))

        runs = integrals_run(monkeypatch)
        monkeypatch.setattr(manybody, "_frobenius", once)
        with pytest.raises(QuadratureError) as excinfo:
            manybody.free_energy_T0_and_second_order(geom)
        monkeypatch.undo()
        assert str(excinfo.value) == f"integrand is nan at x={victim!r}"
        assert runs[0][1].scaled(1.0 / (2.0 * math.pi)) == free
        assert [kind for kind, _ in runs] == ["free", "second"]


def test_retarded_t0_rows_never_call_the_pair_polynomial(tmp_path,
                                                         monkeypatch):
    # the CLI's retarded T = 0 row takes its second order from the log
    # det's nodes; the other rows keep the pair-polynomial integral
    calls = []
    polynomial = manybody.retarded_pair_polynomial

    def counting(x):
        calls.append(x.size)
        return polynomial(x)

    monkeypatch.setattr(manybody, "retarded_pair_polynomial", counting)
    cfg = pinned_cube_config(0.1, 10**6)
    del cfg["temperature"]
    config, out = tmp_path / "config.json", tmp_path / "out.csv"
    for extra, expect_calls in (({}, False), ({"nonretarded": True}, True),
                                ({"temperature": 0.1}, True)):
        calls.clear()
        config.write_text(json.dumps(dict(cfg, **extra)))
        assert run(str(config), str(out)) == 0
        assert bool(calls) == expect_calls, extra
    # and the row's second order is the pair sum's to rounding
    config.write_text(json.dumps(cfg))
    assert run(str(config), str(out)) == 0
    second = float(out.read_text().splitlines()[2].split(",")[1])
    pairs = second_order_energy(pinned_cube())
    assert abs(second - pairs.value) <= SECOND_ORDER_ROUNDING \
        * abs(pairs.value)


def test_benchmark_thermal_row_tail_stops_at_the_sum_tolerance(
        load_perfbench):
    # ret-N8-T0.1 of the benchmark: the tail stops once its error fits the
    # sum's tolerance, 84 evaluations where its own rel_tol took 198
    for seed in range(101, 106):
        cfg = dict(load_perfbench("workloads").clusters(seed))["ret-N8-T0.1"]
        geom = config_geometry(cfg)
        res = free_energy_finiteT(geom, 0.1)
        direct = direct_matsubara_sum(manybody._logdet_function(geom, False),
                                      0.1)
        assert abs(res.value - direct) <= res.error_estimate, seed
        assert res.error_estimate <= 1e-9 * abs(res.value), seed
        assert res.evaluations <= 90, seed


@pytest.mark.parametrize("r", [1e2, 3e3])
def test_far_pair_thermal_sum_stops_at_its_rounding(r):
    geom, _ = far_pair(r)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = free_energy_finiteT(geom, 1e-3)
    assert res.evaluations <= 2000


def test_second_order_sums_pair_energies_collinear_triple():
    model = single_resonance(1.5, 0.6)
    spacing = 5.0
    geom = chain_geometry(model, spacing, 3)
    cluster = second_order_energy(geom)
    pair = lambda r: vdw_energy(PairSpec(model, model, r)).value
    total = pair(spacing) + pair(spacing) + pair(2 * spacing)
    assert cluster.value == pytest.approx(total, rel=1e-8)


def test_free_energy_matches_pair_energy_at_second_order():
    # full determinant = second order + O(alpha^3)
    model = single_resonance(0.05, 0.5)
    geom = chain_geometry(model, 4.0, 2)
    full = free_energy_T0(geom)
    second = second_order_energy(geom)
    assert full.value == pytest.approx(second.value, rel=5e-4)
    assert abs(full.value - second.value) < abs(second.value) * 1e-3


def test_third_order_scaling_of_determinant_residual():
    # tripling every d2 triples alpha; the residual beyond second order
    # must scale with exponent ~3
    spacing = 4.0

    def residual(scale):
        model = KramersHeisenberg((Transition(0.5, scale * 0.15),))
        geom = SystemGeometry([
            (vec3(0, 0, 0), model),
            (vec3(0, 0, spacing), model),
            (vec3(0, spacing, 0), model),
        ])
        return free_energy_T0(geom).value - second_order_energy(geom).value

    r1, r3 = residual(1.0), residual(3.0)
    exponent = math.log(abs(r3 / r1)) / math.log(3.0)
    assert 2.8 <= exponent <= 3.2


def test_free_energy_invariant_under_rigid_motion():
    model = single_resonance(1.0, 0.5)
    base_positions = [vec3(0, 0, 0), vec3(0, 0, 4.0), vec3(0, 3.0, 2.0)]
    geom = SystemGeometry([(p, model) for p in base_positions])
    reference = free_energy_T0(geom)

    theta = 0.7
    rot = np.array([[math.cos(theta), -math.sin(theta), 0],
                    [math.sin(theta), math.cos(theta), 0],
                    [0, 0, 1.0]])
    tilt = np.array([[1.0, 0, 0],
                     [0, math.cos(0.3), -math.sin(0.3)],
                     [0, math.sin(0.3), math.cos(0.3)]])
    shift = vec3(5.0, -2.0, 1.0)
    moved = SystemGeometry([(tilt @ rot @ p + shift, model)
                            for p in base_positions])
    assert free_energy_T0(moved).value == pytest.approx(reference.value,
                                                        rel=1e-10)


def test_renne_eigenvalues_two_atoms():
    r = 2.0
    geom = chain_geometry(single_resonance(1.0, 0.5), r, 2)
    eigs = np.sort(np.linalg.eigvalsh(build_T(geom, 0.0)))
    expected = np.sort([1 / r**3, 1 / r**3, -1 / r**3, -1 / r**3,
                        2 / r**3, -2 / r**3])
    assert np.allclose(eigs, expected, rtol=1e-12)


def test_normal_mode_small_coupling_matches_london():
    alpha_st, omega0, r = 0.01, 0.5, 3.0
    geom = chain_geometry(single_resonance(alpha_st, omega0), r, 2)
    res = normal_mode_energy(geom)
    london = -0.75 * omega0 * alpha_st**2 / r**6
    assert res.value == pytest.approx(london, rel=1e-3)


def test_normal_mode_zero_coupling_limit():
    # tiny coupling: the cancellation-free mode sum still resolves the
    # quadratic London signal far below machine epsilon times omega0
    alpha_st, omega0, r = 1e-9, 0.5, 10.0
    geom = chain_geometry(single_resonance(alpha_st, omega0), r, 2)
    value = normal_mode_energy(geom).value
    assert value == pytest.approx(-0.75 * omega0 * alpha_st**2 / r**6,
                                  rel=1e-2)


def test_normal_mode_unbounded_hamiltonian():
    geom = chain_geometry(single_resonance(8.0, 0.5), 1.0, 2)
    with pytest.raises(StrongCouplingError, match="unbounded"):
        normal_mode_energy(geom)


def test_normal_mode_requires_identical_single_resonance():
    geom = SystemGeometry([
        (vec3(0, 0, 0), single_resonance(1.0, 0.5)),
        (vec3(0, 0, 3.0), single_resonance(2.0, 0.5)),
    ])
    with pytest.raises(ValueError, match="identical"):
        normal_mode_energy(geom)


@pytest.mark.parametrize("n_atoms", [2, 3, 4])
def test_renne_equivalence_with_determinant_route(n_atoms):
    rng = np.random.default_rng(42 + n_atoms)
    model = single_resonance(0.8, 0.45)
    while True:
        pts = rng.uniform(-4.0, 4.0, size=(n_atoms, 3))
        geom = SystemGeometry([(p, model) for p in pts])
        if geom.min_separation() > 2.1:  # alpha * max(1/r^3) < 0.1
            break
    modes = normal_mode_energy(geom)
    determinant = free_energy_T0(geom, nonretarded=True)
    assert determinant.value == pytest.approx(modes.value, rel=1e-6)


def test_free_energy_strong_coupling_raises(monkeypatch):
    geom = chain_geometry(single_resonance(8.0, 0.5), 1.0, 2)
    with pytest.raises(StrongCouplingError, match="xi=0.5"):
        free_energy_T0(geom, nonretarded=True)
    # retarded, the failed Cholesky stack goes to the eigenvalues
    failed = []
    cholesky = np.linalg.cholesky

    def recording(m):
        try:
            return cholesky(m)
        except np.linalg.LinAlgError:
            failed.append(m.shape)
            raise

    monkeypatch.setattr(np.linalg, "cholesky", recording)
    with pytest.raises(StrongCouplingError, match="xi=0.5"):
        free_energy_T0(geom)
    assert failed


def test_finite_temperature_approaches_T0():
    model = single_resonance(2.0, 0.5)
    geom = chain_geometry(model, 10.0, 2)
    cold = free_energy_finiteT(geom, 1e-6, nonretarded=True)
    reference = free_energy_T0(geom, nonretarded=True)
    assert cold.value == pytest.approx(reference.value, rel=1e-3)


# squared normal-mode frequencies at 40 digits, per static interaction
# matrix and resonance: one 24 x 24 eigensolve takes about half a second
_MODES = {}


def normal_mode_free_energy(geom, temperature):
    """Free energy of the coupled identical oscillators against the
    uncoupled ones, T sum_k ln[sinh(W_k/2T)/sinh(w0/2T)] over the modes
    W_k^2 = w0^2 (1 + alpha_static t_k), at 40 digits: the t_k are the
    eigenvalues of the static interaction matrix, whose trace is then 0
    to those digits, and no logarithm cancels in double precision."""
    mpmath = pytest.importorskip("mpmath")
    manybody._identical_single_resonance(geom)
    (transition,) = geom.models[0].transitions
    static = build_T(geom, 0.0)
    key = (static.tobytes(), transition)
    with mpmath.workdps(40):
        if key not in _MODES:
            omega0 = mpmath.mpf(transition.omega_sg)
            alpha_static = 2 * mpmath.mpf(transition.d2) / (3 * omega0)
            t_eigs, _ = mpmath.eigsy(mpmath.matrix(static.tolist()))
            _MODES[key] = (omega0, [omega0**2 * (1 + alpha_static * t)
                                    for t in t_eigs])
        omega0, squares = _MODES[key]
        t = mpmath.mpf(temperature)
        free = t * mpmath.fsum(
            mpmath.log(mpmath.sinh(mpmath.sqrt(w2) / (2 * t))
                       / mpmath.sinh(omega0 / (2 * t)))
            for w2 in squares)
        return float(free)


@pytest.mark.parametrize("temperature", [1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1,
                                         0.5, 1.0, 2.0, 10.0, 100.0, 1e3,
                                         1e4])
def test_thermal_sum_matches_normal_modes(temperature):
    # the nonretarded Matsubara sum of identical resonances is the
    # thermal free energy of their normal modes, at every temperature
    geom = identical_cube()
    res = free_energy_finiteT(geom, temperature, nonretarded=True)
    exact = normal_mode_free_energy(geom, temperature)
    assert abs(res.value - exact) <= res.error_estimate
    assert res.error_estimate <= (1e-13 if temperature >= 1.0 else 1e-9) \
        * abs(exact)
    assert res.evaluations <= 300


def direct_matsubara_sum(g, temperature):
    """T [g(0)/2 + sum_{n>=1} g(2 pi n T)], summed in blocks of 32 terms
    until a whole block underflows to zero."""
    t_step = 2.0 * math.pi * temperature
    terms, start = [], 0
    while True:
        block = np.asarray(g(np.arange(start, start + 32) * t_step))
        if start and not block.any():
            break
        terms.extend(block.tolist())
        start += 32
    terms[0] *= 0.5
    return temperature * math.fsum(terms)


@pytest.mark.parametrize("temperature", [0.5, 2.0, 10.0])
def test_retarded_thermal_sum_matches_the_direct_sum(temperature):
    # where h = 2 pi T passes the scale of g, the one block-end cut still
    # lands on the sum of every term that does not underflow
    geom = pinned_cube()
    res = free_energy_finiteT(geom, temperature)
    direct = direct_matsubara_sum(manybody._logdet_function(geom, False),
                                  temperature)
    assert abs(res.value - direct) <= res.error_estimate
    assert res.error_estimate <= 1e-13 * abs(direct)


def pinned_cube_config(temperature, max_evals):
    """The CLI config of :func:`pinned_cube` at ``temperature``."""
    models = [{"model": "single_resonance", "alpha_static": 1.5,
               "omega": 0.5},
              {"model": "transitions",
               "transitions": [{"omega": 0.4, "d2": 1.2},
                               {"omega": 1.1, "d2": 0.6}]}]
    atoms = [dict(models[k % 2], position=position.tolist())
             for k, (position, _) in enumerate(pinned_cube_sites())]
    return {"task": "manybody", "atoms": atoms, "temperature": temperature,
            "quadrature": {"max_evals": max_evals}}


def test_thermal_budget_bounds_terms_and_tail(tmp_path, capsys):
    # the pinned cube at T = 1e-3 takes 166 evaluations, its terms and its
    # tail together: every smaller budget is a QuadratureError, in the
    # library and through the CLI, never a ValueError or a config error
    geom = pinned_cube()
    needed = free_energy_finiteT(geom, 1e-3).evaluations
    assert needed == 166
    config = tmp_path / "config.json"
    out = tmp_path / "out.csv"
    for max_evals in range(100, needed + 1):
        spec = QuadratureSpec(max_evals=max_evals)
        config.write_text(json.dumps(pinned_cube_config(1e-3, max_evals)))
        code = run(str(config), str(out))
        err = capsys.readouterr().err
        if max_evals == needed:
            assert free_energy_finiteT(geom, 1e-3, spec).evaluations \
                == needed
            assert (code, err) == (0, "")
            continue
        with pytest.raises(QuadratureError,
                           match=f"budget of {max_evals} evaluations"):
            free_energy_finiteT(geom, 1e-3, spec)
        assert code == 1
        assert err.startswith("error [fluctem.quadrature.QuadratureError]:")
        assert f"budget of {max_evals} evaluations exhausted" in err


def test_criterion_08_pair_in_few_evaluations():
    # the criterion-08 pair at T = 1e-6: the sum stops at a block end and
    # the tail integral, on the pair's node scale, takes the T = 0 limit
    model = single_resonance(2.0, 0.5)
    geom = chain_geometry(model, 10.0, 2)
    res = free_energy_finiteT(geom, 1e-6, nonretarded=True)
    assert res.evaluations <= 1000
    assert abs(res.value - normal_mode_free_energy(geom, 1e-6)) \
        <= res.error_estimate


def test_high_temperature_zero_term_dominates():
    model = single_resonance(2.0, 0.5)
    geom = chain_geometry(model, 10.0, 2)
    temperature = 50.0  # 2 pi T >> omega0
    res = free_energy_finiteT(geom, temperature, nonretarded=True)
    alpha0 = model.alpha_imag(0.0)
    t_eigs = np.linalg.eigvalsh(build_T(geom, 0.0))
    classical = 0.5 * temperature * sum(math.log1p(alpha0 * t)
                                        for t in t_eigs)
    assert res.value == pytest.approx(classical, rel=1e-3)


def test_phf_lambda_integral_scalar_cases():
    assert phf_lambda_integral(0.0) == pytest.approx(0.0, abs=1e-15)
    assert phf_lambda_integral(0.5) == pytest.approx(-0.5 * math.log(0.5),
                                                     abs=1e-8)
    # moment structure: -(1/2)log(1-x) = x/2 + x^2/4 + x^3/6 + ..., i.e.
    # the quadrature reproduces the lambda^2 and lambda^4 moments 1/2, 1/4
    x = 1e-4
    val = phf_lambda_integral(x)
    assert val == pytest.approx(x / 2 + x**2 / 4 + x**3 / 6, rel=1e-10)
    # a scalar is, bit for bit, the 1 x 1 matrix
    for s in (0.0, 0.3, -0.3, 0.5, 0.9, 1e-13):
        assert phf_lambda_integral(s).hex() == \
            phf_lambda_integral([[s]]).hex(), s


def test_phf_lambda_integral_matrix_identity():
    rng = np.random.default_rng(7)
    raw = rng.standard_normal((5, 5))
    sym = 0.5 * (raw + raw.T)
    x = 0.8 * sym / np.max(np.abs(np.linalg.eigvalsh(sym)))
    expected = -0.5 * math.fsum(math.log1p(-e)
                                for e in np.linalg.eigvalsh(x))
    assert phf_lambda_integral(x) == pytest.approx(expected, abs=1e-8)


def test_phf_lambda_integral_radius_validation():
    with pytest.raises(ValueError):
        phf_lambda_integral(1.0)
    with pytest.raises(ValueError):
        phf_lambda_integral(math.nan)
    with pytest.raises(ValueError):
        phf_lambda_integral(np.eye(3) * 1.2)
    with pytest.raises(ValueError):
        phf_lambda_integral(np.ones((2, 3)))
