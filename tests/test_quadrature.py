"""Quadrature engine verification against closed-form integrals.

Every expected value here is analytic: exponential moments, a Lorentzian
moment, principal values with known closed forms, and geometric-series
thermal sums.  The ladder fed stacks of nodes, and each row of the
ladder that integrates many rows at once, must equal the ladder fed one
node at a time bit for bit.  The error-honesty block asserts the
reported error estimate is never smaller than the actual deviation from
the exact value.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fluctem.core import EnergyResult
from fluctem.quadrature import (
    QuadratureError,
    QuadratureSpec,
    integrate_interval,
    integrate_pv,
    integrate_rows,
    integrate_semi_infinite,
    matsubara_sum,
)

# (integrand, exact value, decay scale) for the semi-infinite suite
SEMI_INFINITE_CASES = [
    (lambda x: math.exp(-x), 1.0, 1.0),
    (lambda x: x**4 * math.exp(-2 * x), 0.75, 1.0),
    # Lorentzian-squared moment: int w0^4/(w0^2+t^2)^2 dt = pi*w0/4 at w0=0.5
    (lambda t: 0.0625 / (0.25 + t * t) ** 2, math.pi / 8, 0.5),
    # dispersion-tail polynomial: int (x^4+2x^3+5x^2+6x+3) e^{-2x} dx = 23/4
    (lambda x: (((x + 2) * x + 5) * x * x + 6 * x + 3) * math.exp(-2 * x),
     5.75, 1.0),
    # algebraic tail: int dx/(1+x)^3 = 1/2
    (lambda x: (1.0 + x) ** -3, 0.5, 1.0),
    # oscillating integrand: int e^{-x} cos x dx = 1/2
    (lambda x: math.exp(-x) * math.cos(x), 0.5, 1.0),
]
CASE_INDICES = range(len(SEMI_INFINITE_CASES))


def _interval_map_on_half_line(f, spec=None, scale=1.0):
    """[0, inf) through integrate_interval: x = s t/(1-t), t in (0, 1)."""
    s = scale

    def compact(t):
        u = 1.0 - t
        return f(s * t / u) * s / (u * u)

    return integrate_interval(compact, 0.0, 1.0, spec)


def _stacked_on_half_line(f, spec=None, scale=1.0, stack=3):
    """The exp-sinh ladder fed stacks of up to ``stack`` nodes, through an
    array version of ``f`` that evaluates it element by element."""
    def array_f(xs):
        assert isinstance(xs, np.ndarray) and 1 <= xs.size <= stack
        return np.array([f(x) for x in xs.tolist()])

    return integrate_semi_infinite(array_f, spec, scale, stack)


def _elementwise(f):
    """The row integrand that calls ``f`` on each node.  A whole level
    reaches nodes far past the cut, where a float power can raise
    OverflowError: the value there is inf."""
    def value(x):
        try:
            return f(x)
        except OverflowError:
            return math.inf

    return lambda x, rows: np.array([[value(v) for v in row]
                                     for row in x.tolist()]).reshape(x.shape)


def _one_row_on_half_line(f, spec=None, scale=1.0):
    """The exp-sinh ladder as the one row of :func:`integrate_rows`."""
    (res,) = integrate_rows(_elementwise(f), [scale], spec)
    if isinstance(res, QuadratureError):
        raise res
    return res


# the routes to [0, inf): the exp-sinh ladder directly, the same ladder
# through the interval map of integrate_interval after compactification,
# the ladder on stacks of nodes, and the ladder as one row.  One engine:
# the second key keeps its historical name, so that the test ids stay
# stable.
ENGINES = {
    "tanh_sinh": integrate_semi_infinite,
    "adaptive_subdivision": _interval_map_on_half_line,
    "stacked": _stacked_on_half_line,
    "rows": _one_row_on_half_line,
}


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("case", CASE_INDICES)
def test_semi_infinite_oracles(engine, case):
    f, exact, scale = SEMI_INFINITE_CASES[case]
    res = ENGINES[engine](f, scale=scale)
    assert isinstance(res, EnergyResult)
    assert res.value == pytest.approx(exact, rel=1e-9, abs=1e-13)
    assert res.evaluations > 0


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("case", CASE_INDICES)
def test_error_estimates_are_honest(engine, case):
    f, exact, scale = SEMI_INFINITE_CASES[case]
    res = ENGINES[engine](f, scale=scale)
    assert res.error_estimate >= abs(res.value - exact)


@pytest.mark.parametrize("stack", [2, 3, 1000])
@pytest.mark.parametrize("case", CASE_INDICES)
def test_stacked_ladder_equals_one_node_ladder(case, stack):
    # same nodes, same kept values, same cut: the same result bit for bit
    f, _, scale = SEMI_INFINITE_CASES[case]
    one = integrate_semi_infinite(f, scale=scale)
    stacked = _stacked_on_half_line(f, scale=scale, stack=stack)
    assert (stacked.value, stacked.error_estimate, stacked.evaluations) \
        == (one.value, one.error_estimate, one.evaluations)


SPOILERS = {
    "nan": lambda xs: np.full(xs.shape, np.nan),
    "inf": lambda xs: np.full(xs.shape, np.inf),
    # overflows without a warning reaching the caller
    "overflow": lambda xs: np.exp(710.0 + xs),
}


@pytest.mark.parametrize("spoil", SPOILERS)
def test_stacked_values_past_the_cut_are_invisible(spoil):
    f, _, scale = SEMI_INFINITE_CASES[1]
    kept = []

    def recorded(x):
        kept.append(x)
        return f(x)

    clean = integrate_semi_infinite(recorded, scale=scale)
    assert clean.evaluations == len(kept)

    def run(bad):
        seen = []

        def array_f(xs):
            seen.extend(xs.tolist())
            values = np.array([f(x) for x in xs.tolist()])
            return np.where(bad(xs), SPOILERS[spoil](xs), values)

        return integrate_semi_infinite(array_f, scale=scale, stack=3), seen

    # spoiled past every cut: nothing changes, not even the count
    spoiled, seen = run(lambda xs: ~np.isin(xs, kept))
    assert len(set(seen) - set(kept)) > 0
    assert spoiled == clean
    # spoiled at one node that is kept: it raises and names that node
    victim = kept[len(kept) // 2]
    with pytest.raises(QuadratureError, match=r"integrand is (nan|inf) at x=") \
            as excinfo:
        run(lambda xs: xs == victim)
    assert _x_named(excinfo) == victim


ROW_SCALES = [1.0, 1e-3, 0.5, 1.0, 40.0, 1e-3]


@pytest.mark.parametrize("rel_tol", [1e-9, 1e-2])
@pytest.mark.parametrize("case", CASE_INDICES)
def test_rows_equal_their_one_node_ladders(case, rel_tol):
    # each row, on its own scale among repeated ones, is the scalar walk
    # of that scale bit for bit; a loose tolerance stops at the first
    # level allowed
    f, _, _ = SEMI_INFINITE_CASES[case]
    spec = QuadratureSpec(rel_tol=rel_tol)
    rows = integrate_rows(_elementwise(f), ROW_SCALES, spec)
    for scale, row in zip(ROW_SCALES, rows):
        one = integrate_semi_infinite(f, spec, scale)
        assert (row.value, row.error_estimate, row.evaluations) \
            == (one.value, one.error_estimate, one.evaluations)


@pytest.mark.parametrize("spoil", SPOILERS)
def test_row_values_past_the_cut_are_invisible(spoil):
    # values past a row's cut change nothing; a bad kept value fails its
    # row alone, with the scalar walk's error
    f, _, _ = SEMI_INFINITE_CASES[1]
    kept = []

    def recorded(x):
        kept.append(x)
        return f(x)

    clean = integrate_semi_infinite(recorded, scale=0.5)

    def run(bad):
        def spoiled(x, rows):
            values = _elementwise(f)(x, rows)
            return np.where((rows[:, None] == 1) & bad(x),
                            SPOILERS[spoil](x), values)

        return integrate_rows(spoiled, [1.0, 0.5, 2.0])

    rows = run(lambda x: ~np.isin(x, kept))
    assert rows[1] == clean
    victim = kept[len(kept) // 2]
    rows = run(lambda x: x == victim)
    assert isinstance(rows[1], QuadratureError)
    assert str(rows[1]).startswith("integrand is ")
    assert _x_named_by(rows[1]) == victim
    for k, scale in ((0, 1.0), (2, 2.0)):
        assert rows[k] == integrate_semi_infinite(f, scale=scale)


def test_each_row_spends_its_own_budget():
    # the rows of a slowly decaying integrand need more nodes the farther
    # their scale lies from its mass at x ~ 1
    f = lambda x: 1.0 / (1.0 + x * math.sqrt(x))
    scales = [1.0, 1e-6, 1.0]
    counts = [integrate_semi_infinite(f, scale=s).evaluations for s in scales]
    spec = QuadratureSpec(max_evals=(counts[0] + counts[1]) // 2)
    assert counts[0] < spec.max_evals < counts[1]
    rows = integrate_rows(_elementwise(f), scales, spec)
    with pytest.raises(QuadratureError) as excinfo:
        integrate_semi_infinite(f, spec, scale=scales[1])
    assert isinstance(rows[1], QuadratureError)
    assert str(rows[1]) == str(excinfo.value)
    assert rows[0] == rows[2] == integrate_semi_infinite(f, spec)


def test_rows_validation():
    for scales in ([1.0, 0.0], [math.inf], [-1.0]):
        with pytest.raises(ValueError, match="scales"):
            integrate_rows(_elementwise(math.exp), scales)
    assert integrate_rows(_elementwise(math.exp), []) == []


def test_huge_scale_stops_where_the_weights_overflow():
    # near x = 1e308 the weight (pi cosh kh) x overflows before x does,
    # and a zero value there would give 0 * inf = nan: the ladder ends
    zero = integrate_semi_infinite(lambda x: 0.0, scale=1e300)
    assert (zero.value, zero.error_estimate) == (0.0, 0.0)
    res = integrate_semi_infinite(lambda x: math.exp(-x / 1e300),
                                  scale=1e300)
    assert res.value == pytest.approx(1e300, rel=1e-9)
    assert res.error_estimate >= abs(res.value - 1e300)


def test_scale_robustness_without_hint():
    # mass sits at x ~ 50 but the engine keeps its default scale 1
    res = integrate_semi_infinite(lambda x: math.exp(-x / 50.0))
    assert res.value == pytest.approx(50.0, rel=1e-9)
    assert res.error_estimate >= abs(res.value - 50.0)


def bose_numerator(w, temperature=0.01):
    x = w / temperature
    return w**3 / math.expm1(x) if x < 700.0 else 0.0


def zeta(s, n=1000):
    """Riemann zeta: direct summation below n plus the Euler-Maclaurin
    tail from n, whose error is about s^3 n^(-s-3) / 720."""
    return math.fsum([k ** -s for k in range(1, n)]
                     + [n ** (1 - s) / (s - 1), 0.5 * n ** -s,
                        s * n ** (-s - 1) / 12.0])


def bose_pv(pole, temperature=0.01):
    """PV int_0^inf bose_numerator(w) / (pole^2 - w^2) dw for T << pole:
    the asymptotic series sum_k (2k+3)! zeta(2k+4) T^(2k+4) / pole^(2k+2)
    summed up to its smallest term."""
    terms, k = [], 0
    while len(terms) < 2 or 0.0 < terms[-1] < terms[-2]:
        terms.append(math.factorial(2 * k + 3) * zeta(2 * k + 4)
                     * temperature ** (2 * k + 4) / pole ** (2 * k + 2))
        k += 1
    return math.fsum(terms[:-1])


# one case per entry point: x e^{-x} on [0, inf) and on [0, 1], and the
# Bose principal value at T = 0.01 about the pole 1 with its nodes on the
# thermal peak (the series' smallest term is ~ e^-100 of its value)
SCALED_CASES = {
    "semi_infinite": (integrate_semi_infinite, lambda x: x * math.exp(-x),
                      lambda: 1.0),
    "interval": (lambda f: integrate_interval(f, 0.0, 1.0),
                 lambda x: x * math.exp(-x), lambda: 1.0 - 2.0 / math.e),
    "pv": (lambda f: integrate_pv(f, pole=1.0, scale=0.01), bose_numerator,
           lambda: bose_pv(1.0)),
}


@pytest.mark.parametrize("amp", [1e-30, 1e30])
@pytest.mark.parametrize("entry", SCALED_CASES)
def test_scaled_integrand_keeps_relative_accuracy(entry, amp):
    # the stopping rule is relative: a constant factor moves no node and
    # no stop, however small or large it is
    integrate, f, exact = SCALED_CASES[entry]
    base = integrate(f)
    scaled = integrate(lambda x: amp * f(x))
    assert scaled.value == pytest.approx(amp * base.value, rel=1e-12)
    assert scaled.evaluations == base.evaluations
    assert scaled.error_estimate >= abs(scaled.value - amp * exact())


@given(rate=st.floats(min_value=0.05, max_value=40.0))
@settings(max_examples=25, deadline=None)
def test_exponential_moment_property(rate):
    res = integrate_semi_infinite(lambda x: x * math.exp(-rate * x),
                                  scale=1.0 / rate)
    exact = rate**-2
    assert res.value == pytest.approx(exact, rel=1e-8)
    assert res.error_estimate >= abs(res.value - exact)


def test_determinism_bit_identical():
    spec = QuadratureSpec()
    f = lambda x: x * x * math.exp(-1.3 * x)
    first = integrate_semi_infinite(f, spec)
    second = integrate_semi_infinite(f, spec)
    assert first.value == second.value
    assert first.error_estimate == second.error_estimate
    assert first.evaluations == second.evaluations


def test_methods_agree_with_each_other():
    f = lambda x: math.exp(-x) * math.cos(x)
    values = [engine(f, QuadratureSpec()).value for engine in ENGINES.values()]
    for v in values[1:]:
        assert v == pytest.approx(values[0], rel=1e-9, abs=1e-12)
    assert values[0] == pytest.approx(0.5, rel=1e-9)


def test_interval_polynomial_exact():
    res = integrate_interval(lambda x: 3 * x * x, 0.0, 2.0)
    assert res.value == pytest.approx(8.0, rel=1e-12)
    res = integrate_interval(lambda x: math.sin(x), 0.0, math.pi)
    assert res.value == pytest.approx(2.0, rel=1e-11)
    assert res.error_estimate >= abs(res.value - 2.0)


def test_interval_rejects_bad_bounds():
    with pytest.raises(ValueError):
        integrate_interval(lambda x: x, 1.0, 1.0)


@pytest.mark.parametrize("lo,hi", [(0.0, 137.035999084**2), (0.0, 1e-12),
                                   (-3.0, 0.5), (1e6, 1e6 + 1.0)])
def test_interval_never_evaluates_end_points(lo, hi):
    # nodes that round onto an end are dropped, not evaluated there
    seen = []

    def f(x):
        seen.append(x)
        return math.exp(lo - x)

    res = integrate_interval(f, lo, hi)
    assert all(lo < x < hi for x in seen)
    assert res.evaluations == len(seen)
    exact = -math.expm1(lo - hi)
    assert res.value == pytest.approx(exact, rel=1e-9)
    assert res.error_estimate >= abs(res.value - exact)


def test_budget_exhaustion_raises():
    spec = QuadratureSpec(max_evals=100, rel_tol=1e-13)
    # x sqrt(x), not x**1.5: a stack reaches nodes near 1e300 past the
    # budget, where the float power raises OverflowError
    f = lambda x: 1.0 / (1.0 + x * math.sqrt(x))
    for integrate in (integrate_semi_infinite, _stacked_on_half_line):
        with pytest.raises(QuadratureError,
                           match="budget of 100 evaluations exhausted"):
            integrate(f, spec)


def test_nan_integrand_raises():
    with pytest.raises(QuadratureError):
        integrate_semi_infinite(lambda x: float("nan"))


def _x_named(excinfo):
    return _x_named_by(excinfo.value)


def _x_named_by(error):
    return float(str(error).rsplit("x=", 1)[1])


def test_infinite_integrand_raises_naming_x_semi_infinite():
    calls = []

    def f(x):
        calls.append(x)
        return math.inf if x > 5.0 else math.exp(-x)

    with pytest.raises(QuadratureError, match=r"integrand is inf at x=") \
            as excinfo:
        integrate_semi_infinite(f)
    assert _x_named(excinfo) == calls[-1] > 5.0
    assert len(calls) < 100


def test_infinite_integrand_raises_naming_x_interval():
    calls = []

    def f(x):
        calls.append(x)
        return -math.inf if x < 1e-3 else math.log(x)

    with pytest.raises(QuadratureError, match=r"integrand is -inf at x=") \
            as excinfo:
        integrate_interval(f, 0.0, 1.0)
    assert 0.0 < _x_named(excinfo) == calls[-1] < 1e-3
    assert len(calls) < 100


def test_infinite_integrand_raises_naming_x_pv():
    # x is the frequency handed to f_regular, on either side of the pole
    for bad, side in ((lambda w: w < 0.25, 0.25), (lambda w: w > 4.0, 4.0)):
        def f(w, bad=bad):
            return math.inf if bad(w) else math.exp(-w)

        with pytest.raises(QuadratureError, match=r"integrand is inf at x=") \
                as excinfo:
            integrate_pv(f, pole=1.0)
        assert bad(_x_named(excinfo))
    with pytest.raises(QuadratureError, match=r"at x=1\.0$"):
        integrate_pv(lambda w: math.inf if w == 1.0 else 1.0, pole=1.0)


def test_energy_result_rejects_nan_value_and_non_finite_error():
    for value, err in ((math.nan, 0.0), (math.nan, math.nan), (1.0, math.nan),
                       (1.0, math.inf), (1.0, -1e-300)):
        with pytest.raises(ValueError):
            EnergyResult(value, err, 1)


def test_spec_validation():
    for kwargs in ({"rel_tol": 0.0}, {"rel_tol": math.nan},
                   {"max_evals": 10}):
        with pytest.raises(ValueError):
            QuadratureSpec(**kwargs)
    for scale in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="scale"):
            integrate_semi_infinite(math.exp, scale=scale)
        with pytest.raises(ValueError, match="scale"):
            integrate_pv(math.exp, pole=1.0, scale=scale)
    with pytest.raises(ValueError, match="stack"):
        integrate_semi_infinite(math.exp, stack=0)


# ---------------------------------------------------------------------------
# principal values


def test_pv_symmetric_window_of_constant_vanishes():
    # PV int_0^inf dw/(a^2-w^2) = 0 exactly: check the engine sees it
    a = 1.3
    res = integrate_pv(lambda w: 1.0, pole=a)
    assert abs(res.value) <= max(res.error_estimate, 1e-12)


@pytest.mark.parametrize("a,b", [(2.0, 1.0), (1.0, 3.0), (0.7, 0.2), (5.0, 4.9)])
def test_pv_rational_closed_form(a, b):
    # PV int_0^inf dw / ((a^2-w^2)(b+w)) = ln(a/b) / (a^2-b^2)
    exact = math.log(a / b) / (a * a - b * b)
    res = integrate_pv(lambda w: 1.0 / (b + w), pole=a)
    assert res.value == pytest.approx(exact, rel=1e-9)
    assert res.error_estimate >= abs(res.value - exact)


def test_pv_frozen_exponential_oracle():
    # PV int_0^inf w e^{-w}/(1-w^2) dw = (e^{-1} Ei(1) - e E_1(1)) / 2
    scipy_special = pytest.importorskip("scipy.special")
    closed = 0.5 * (math.exp(-1.0) * scipy_special.expi(1.0)
                    - math.e * scipy_special.exp1(1.0))
    assert closed == pytest.approx(0.05041376045593576, abs=1e-14)
    res = integrate_pv(lambda w: w * math.exp(-w), pole=1.0)
    assert res.value == pytest.approx(closed, rel=1e-9)
    assert res.error_estimate >= abs(res.value - closed)


@pytest.mark.parametrize("pole", [1.0, 1e-3, 7.3])
def test_pv_calls_f_at_pole_once(pole):
    seen = []

    def f(w):
        seen.append(w)
        return w * math.exp(-w)

    res = integrate_pv(f, pole=pole)
    assert seen.count(pole) == 1
    assert all(w > 0.0 for w in seen)
    assert res.evaluations == len(seen)


def test_pv_validation():
    for pole in (-1.0, 0.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            integrate_pv(lambda w: 1.0, pole=pole)


# ---------------------------------------------------------------------------
# thermal sums


def geometric_sum(temperature):
    """T [1/2 + sum_{n>=1} e^(-2 pi n T)], with q/(1 - q) = 1/expm1(2 pi T):
    the 1 - q form loses 1e-12 relative at T = 1e-4."""
    return temperature * (0.5 + 1.0 / math.expm1(2.0 * math.pi * temperature))


def coth_sum(temperature):
    """T [1/2 + sum_{n>=1} 1/(1 + (2 pi n T)^2)] = coth(1/(2T))/4."""
    return 0.25 / math.tanh(0.5 / temperature)


# (g, exact thermal sum): a tail that falls exponentially, and one that
# falls as xi^-2
CLOSED_SUMS = {
    "geometric": (lambda x: np.exp(-x), geometric_sum),
    "coth": (lambda x: 1.0 / (1.0 + x * x), coth_sum),
}


@pytest.mark.parametrize("temperature", [1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6])
@pytest.mark.parametrize("name", CLOSED_SUMS)
def test_matsubara_error_is_honest(name, temperature):
    # the Euler-Maclaurin tail stops at a block end: a few hundred
    # evaluations at any T, where the terms alone would need up to 1/T
    g, exact = CLOSED_SUMS[name]
    res = matsubara_sum(g, temperature)
    assert abs(res.value - exact(temperature)) <= res.error_estimate
    assert res.error_estimate <= 1e-9 * abs(res.value)
    assert res.evaluations <= 250


@pytest.mark.parametrize("zero_at", [29.5, 61.5])
def test_matsubara_cut_on_a_zero_of_the_third_derivative(zero_at):
    # the third derivative of 1/(1 + x^2) vanishes at x = 1.  With
    # h = 1/zero_at the first (second) block end cuts at xi_(N+1/2) = 1,
    # where c4 is zero to leading order and the h^6 remainder sets the
    # error: the fifth difference must then carry the estimate
    temperature = 1.0 / (2.0 * math.pi * zero_at)
    t_step = 2.0 * math.pi * temperature
    calls = []

    def g(x):
        calls.append(x)
        return 1.0 / (1.0 + x * x)

    res = matsubara_sum(g, temperature)

    def fetched(block):
        terms = np.arange(32 * block, 32 * block + 32) * t_step
        return any(np.array_equal(x, terms) for x in calls)

    # the sum stopped at that block end, n = zero_at + 1.5
    last = int(zero_at + 1.5) // 32
    assert fetched(last) and not fetched(last + 1)
    assert abs(res.value - coth_sum(temperature)) <= res.error_estimate


@pytest.mark.parametrize("temperature", [0.7, 0.05, 1e-3])
def test_matsubara_geometric_closed_form(temperature):
    res = matsubara_sum(lambda x: np.exp(-x), temperature)
    exact = geometric_sum(temperature)
    assert res.value == pytest.approx(exact, rel=1e-8)
    assert res.error_estimate >= abs(res.value - exact) * 0.5


def test_matsubara_low_temperature_approaches_integral():
    # T (g(0)/2 + sum g) -> (1/2pi) int_0^inf g as T -> 0, residual ~ T^2
    res = matsubara_sum(lambda x: np.exp(-x), 1e-3)
    limit = 1.0 / (2.0 * math.pi)
    assert abs(res.value - limit) < 1e-5
    assert abs(res.value - limit) == pytest.approx(math.pi / 6 * 1e-6, rel=0.01)


def test_matsubara_high_temperature_zero_term_dominates():
    res = matsubara_sum(lambda x: np.exp(-x), 100.0)
    assert res.value == pytest.approx(50.0, rel=1e-12)


def test_matsubara_deep_tail_beyond_n_max():
    # decay scale ~ 1 but T so small that the sum stops at its first block
    # end, n = 31, far inside the decay: the tail integral must carry the
    # remainder.  The discrete sum has the closed form
    # T(1/2 + sum 1/(1+(2 pi T n)^2)) = coth(1/(2T))/4.
    t = 1e-6
    res = matsubara_sum(lambda x: 1.0 / (1.0 + x * x), t)
    exact = 0.25 / math.tanh(0.5 / t)
    assert res.value == pytest.approx(exact, rel=1e-9)
    assert res.error_estimate >= abs(res.value - exact)


def test_matsubara_non_finite_term_names_its_frequency():
    # xi_1 = 2 pi 0.1 falls in the NaN window; without the check the stop
    # rule never fires and the sum runs until its budget is spent
    def g(x):
        return np.where((0.5 < x) & (x < 0.7), np.nan, np.exp(-x))

    with pytest.raises(QuadratureError, match=r"xi=0\.628318530717958"):
        matsubara_sum(g, 0.1)
    with pytest.raises(QuadratureError, match="inf"):
        matsubara_sum(lambda x: np.where(x > 3.0, np.inf, np.exp(-x)), 0.1)


def test_matsubara_budget_bounds_the_terms():
    # a summand that never turns smooth on the step h spends the budget on
    # its terms alone, and says so
    spec = QuadratureSpec(max_evals=100)
    with pytest.raises(QuadratureError,
                       match="^quadrature budget of 100 evaluations"):
        matsubara_sum(lambda x: 2.0 + np.cos(x), 0.1, spec)


def test_matsubara_validation():
    with pytest.raises(ValueError):
        matsubara_sum(lambda x: 1.0, 0.0)
    with pytest.raises(ValueError):
        matsubara_sum(lambda x: 1.0, -1.0)
    with pytest.raises(ValueError, match="overflow"):
        matsubara_sum(lambda x: 1.0, 1.7e308)
    for scale in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="scale"):
            matsubara_sum(lambda x: np.exp(-x), 0.1, scale=scale)
