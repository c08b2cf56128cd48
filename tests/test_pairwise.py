"""Two-atom dispersion energy checks against closed forms and limits."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fluctem.core import SPEED_OF_LIGHT
from fluctem.pairwise import (
    PairSpec,
    casimir_polder_asymptote,
    london_closed_form,
    london_energy,
    validity_check,
    vdw_energies,
    vdw_energy,
)
from fluctem.polarizability import KramersHeisenberg, Transition, single_resonance
from fluctem.quadrature import QuadratureError, QuadratureSpec

C = SPEED_OF_LIGHT


def identical_pair(alpha_static, omega0, r):
    model = single_resonance(alpha_static, omega0)
    return PairSpec(model, model, r)


def test_pair_spec_validation():
    model = single_resonance(1.0, 0.5)
    for r in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="positive and finite"):
            PairSpec(model, model, r)
    with pytest.raises(TypeError):
        PairSpec(model, object(), 1.0)


def test_london_identical_single_resonance_closed_form():
    # -(3 omega0 alpha^2 / 4) / r^6 from the Lorentzian-squared integral
    alpha_st, omega0, r = 4.0, 0.5, 2.0
    pair = identical_pair(alpha_st, omega0, r)
    exact = -3.0 * omega0 * alpha_st**2 / (4.0 * r**6)
    res = london_energy(pair)
    assert res.value == pytest.approx(exact, rel=1e-9)
    assert res.error_estimate >= abs(res.value - exact)
    assert london_closed_form(pair) == pytest.approx(exact, rel=1e-14)


def test_london_one_transition_each():
    a = KramersHeisenberg((Transition(0.4, 1.5),))
    b = KramersHeisenberg((Transition(0.9, 2.5),))
    r = 3.0
    pair = PairSpec(a, b, r)
    exact = -(2.0 / 3.0) * 1.5 * 2.5 / (0.4 + 0.9) / r**6
    assert london_closed_form(pair) == pytest.approx(exact, rel=1e-14)
    res = london_energy(pair)
    assert res.value == pytest.approx(exact, rel=1e-8)


def test_london_quadrature_matches_closed_form_multi_transition():
    a = KramersHeisenberg((Transition(0.375, 2.0), Transition(0.5, 1.0)))
    b = KramersHeisenberg((Transition(0.3, 0.7), Transition(1.4, 3.0)))
    pair = PairSpec(a, b, 2.5)
    res = london_energy(pair)
    assert res.value == pytest.approx(london_closed_form(pair), rel=1e-8)


def test_vdw_reduces_to_london_in_near_zone():
    # omega0 r / c = 0.0036 << 0.01
    pair = identical_pair(4.0, 0.5, 1.0)
    retarded = vdw_energy(pair)
    london = london_energy(pair)
    assert retarded.value == pytest.approx(london.value, rel=0.01)
    assert retarded.value < 0
    # retardation can only weaken the attraction
    assert abs(retarded.value) <= abs(london.value) * (1 + 1e-9)


def test_vdw_reaches_casimir_polder_in_far_zone():
    # omega0 r / c = 146
    alpha_st, omega0, r = 4.0, 2.0, 1e4
    pair = identical_pair(alpha_st, omega0, r)
    retarded = vdw_energy(pair)
    asymptote = casimir_polder_asymptote(alpha_st, alpha_st, r)
    assert retarded.value == pytest.approx(asymptote, rel=0.01)


def test_vdw_symmetric_under_model_swap():
    a = single_resonance(3.0, 0.4)
    b = single_resonance(1.5, 1.1)
    r = 4.0
    forward = vdw_energy(PairSpec(a, b, r))
    backward = vdw_energy(PairSpec(b, a, r))
    assert forward.value == backward.value
    assert forward.error_estimate == backward.error_estimate


def test_vdw_magnitude_strictly_decreasing_in_r():
    model = single_resonance(2.0, 0.6)
    values = [abs(vdw_energy(PairSpec(model, model, r)).value)
              for r in (1.0, 2.0, 4.0, 8.0, 50.0, 1000.0)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_vdw_error_estimate_below_tolerance():
    pair = identical_pair(4.0, 0.5, 2.0)
    res = vdw_energy(pair)
    assert res.error_estimate <= max(1e-9 * abs(res.value), 1e-13)


def vdw_30_digits(model_a, model_b, r):
    """The retarded pair energy from a 30-digit mpmath quadrature, split
    at the lowest transition's x and around x = 1."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        r_mp = mpmath.mpf(r)

        def alpha(model, xi):
            return mpmath.fsum(2 * mpmath.mpf(t.omega_sg) * t.d2
                               / (3 * (mpmath.mpf(t.omega_sg) ** 2 + xi**2))
                               for t in model.transitions)

        def integrand(x):
            xi = C * x / r_mp
            return (alpha(model_a, xi) * alpha(model_b, xi)
                    * (x**4 + 2 * x**3 + 5 * x**2 + 6 * x + 3)
                    * mpmath.exp(-2 * x))

        low = min(t.omega_sg for t in model_a.transitions
                  + model_b.transitions) * r / C
        splits = sorted({low, 1e2 * low, 1e-10, 1e-5, 1e-2, 1.0, 10.0})
        return float(-C / (mpmath.pi * r_mp**7) * mpmath.quad(
            integrand, [0, *splits, mpmath.inf]))


def test_vdw_far_node_walk_against_30_digits():
    # the lowest transition lies about 1e20 under the other, so the node
    # walk reaches x of about 1e79, where P(x) overflows while exp(-2x) is
    # 0: the integrand is 0 there, not inf * 0
    far_walk = KramersHeisenberg((Transition(1.47e-20, 1.0),
                                  Transition(0.9, 0.5)))
    pair = PairSpec(single_resonance(0.5, 0.5), far_walk, 3.0)
    res = vdw_energy(pair)
    exact = vdw_30_digits(pair.model_a, pair.model_b, pair.r)
    assert abs(res.value - exact) <= res.error_estimate


def random_model(rng, count):
    return KramersHeisenberg(tuple(
        Transition(float(rng.uniform(0.1, 2.0)), float(rng.uniform(0.2, 3.0)))
        for _ in range(count)))


@pytest.mark.parametrize("seed", range(4))
def test_vdw_scan_rows_equal_one_row_calls(seed):
    # a scan of shuffled and repeated separations from 1 bohr to
    # 1e3 c/omega_low: each row is its one-row call bit for bit, so no
    # point depends on its neighbours, and lies within its estimate of a
    # 30-digit quadrature
    rng = np.random.default_rng([seed, 21])
    a, b = random_model(rng, 1 + seed % 3), random_model(rng, 3 - seed % 3)
    low = min(t.omega_sg for t in a.transitions + b.transitions)
    r = np.geomspace(1.0, 1e3 * C / low, 8)
    r = rng.permutation(np.concatenate([r, rng.choice(r, 4)])).tolist()
    rows = vdw_energies(a, b, r)
    for sep, row in zip(r, rows):
        one = vdw_energy(PairSpec(a, b, sep))
        assert (row.value, row.error_estimate, row.evaluations) \
            == (one.value, one.error_estimate, one.evaluations)
    for k in rng.choice(len(r), 2, replace=False).tolist():
        exact = vdw_30_digits(a, b, r[k])
        assert abs(rows[k].value - exact) <= rows[k].error_estimate


def test_vdw_scan_rows_fail_alone():
    # a spent budget and an overflow are returned as the rows' errors;
    # the other rows keep their one-row results
    model = single_resonance(1e50, 0.5)
    rows = vdw_energies(model, model, [1e3, 1e-35, 1e3])
    assert isinstance(rows[1], OverflowError)
    assert "van der Waals energy" in str(rows[1])
    assert rows[0] == rows[2] == vdw_energy(PairSpec(model, model, 1e3))
    model = single_resonance(4.0, 0.5)
    spec = QuadratureSpec(max_evals=150)
    rows = vdw_energies(model, model, [1.0, 100.0, 1.2], spec)
    assert isinstance(rows[1], QuadratureError)
    with pytest.raises(QuadratureError, match=str(rows[1])):
        vdw_energy(PairSpec(model, model, 100.0), spec)
    assert rows[2] == vdw_energy(PairSpec(model, model, 1.2), spec)


def test_casimir_polder_asymptote_values():
    assert casimir_polder_asymptote(1.0, 1.0, 1.0) == pytest.approx(
        -23.0 * C / (4.0 * math.pi), rel=1e-15)
    one = casimir_polder_asymptote(1.0, 1.0, 1.0)
    assert casimir_polder_asymptote(1.0, 1.0, 2.0) == pytest.approx(
        one / 128.0, rel=1e-15)
    assert casimir_polder_asymptote(0.0, 1.0, 1.0) == 0.0
    with pytest.raises(ValueError):
        casimir_polder_asymptote(1.0, 1.0, 0.0)
    for r in (math.inf, math.nan):
        with pytest.raises(ValueError, match="separation"):
            casimir_polder_asymptote(1.0, 1.0, r)
    for alphas in ((math.nan, 1.0), (1.0, math.inf), (-1.0, 1.0)):
        with pytest.raises(ValueError, match="polarizabilities"):
            casimir_polder_asymptote(*alphas, 3.0)


def test_validity_check_boundaries():
    ok = validity_check(identical_pair(1.0, 0.5, 2.0))
    assert ok.ok and ok.ratio == pytest.approx(1.0 / 64.0, rel=1e-14)
    bad = validity_check(identical_pair(4.0, 0.5, 1.0))
    assert not bad.ok and bad.ratio == pytest.approx(16.0, rel=1e-14)
    edge = validity_check(identical_pair(1.0, 0.5, 1.0))
    assert not edge.ok and edge.ratio == pytest.approx(1.0, rel=1e-14)


@pytest.mark.parametrize("r", [1e-34, 1e-35, 1e-40, 1e-50])
def test_energies_past_the_double_range_raise_overflow(r):
    # alpha^2/r^7 of the asymptote overflows first, then the London
    # r^-6 and the integral; none returns -inf.  At 1e-50, r^7 itself
    # underflows to 0
    pair = identical_pair(1e50, 0.5, r)
    with pytest.raises(OverflowError, match="Casimir-Polder asymptote"):
        casimir_polder_asymptote(1e50, 1e50, r)
    if r < 1e-34:
        with pytest.raises(OverflowError, match="London energy"):
            london_closed_form(pair)
        with pytest.raises(OverflowError, match="van der Waals energy"):
            vdw_energy(pair)
    else:
        assert math.isfinite(london_closed_form(pair))
        assert math.isfinite(vdw_energy(pair).value)


def rounded(num, den, r, n):
    """num / (den r^n) in exact arithmetic, rounded once to a double."""
    return float(Fraction(num) / (Fraction(den) * Fraction(r) ** n))


@pytest.mark.parametrize("r", [1.05e44, 1e45, 1e52, 1e60, 1e300])
def test_energies_past_the_double_range_underflow(r):
    # r^6 or r^7, or pi r^7, leaves the double range: each value is
    # rounded into it (a subnormal or 0) instead of raising or reading 0
    # where it is normal
    pair = identical_pair(4.0, 0.5, r)
    near = identical_pair(4.0, 0.5, 1.0)
    tiny = {"rel": 1e-14, "abs": 1e-323}
    verdict = validity_check(pair)
    assert verdict.ok
    assert verdict.ratio == pytest.approx(
        rounded(validity_check(near).ratio, 1.0, r, 6), **tiny)
    london = london_closed_form(pair)
    assert london == pytest.approx(
        rounded(london_closed_form(near), 1.0, r, 6), **tiny)
    asymptote = casimir_polder_asymptote(4.0, 4.0, r)
    assert asymptote == pytest.approx(
        rounded(-23.0 * C * 4.0 * 4.0, 4.0 * math.pi, r, 7), **tiny)
    # deep retarded: the integral is the asymptote; a subnormal prefactor
    # keeps about 33 bits at 1e45
    vdw = vdw_energy(pair).value
    assert vdw == pytest.approx(asymptote, rel=1e-8, abs=1e-323)
    assert london_energy(pair).value == pytest.approx(london, rel=1e-8,
                                                      abs=1e-323)
    if r >= 1e60:
        assert verdict.ratio == london == asymptote == vdw == 0.0


@given(
    alpha=st.floats(min_value=0.5, max_value=8.0),
    omega0=st.floats(min_value=0.1, max_value=2.0),
    r=st.floats(min_value=2.0, max_value=50.0),
)
@settings(max_examples=20, deadline=None)
def test_vdw_negative_and_bounded_by_london_property(alpha, omega0, r):
    pair = identical_pair(alpha, omega0, r)
    retarded = vdw_energy(pair)
    london = london_closed_form(pair)
    assert retarded.value < 0
    assert abs(retarded.value) <= abs(london) * (1 + 1e-9)
