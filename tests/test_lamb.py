"""Radiative shift checks: closed form vs quadrature, dielectric
difference against the analytic principal value, scipy's Cauchy-weight
quadrature and a 50-digit evaluation, thermal scaling laws, and the
thermal shift and its error estimate against scipy's Cauchy-weight
quadrature, the cold-side series and a 50-digit digamma evaluation."""

import decimal
import math

import pytest

from fluctem.core import SPEED_OF_LIGHT
from fluctem.lamb import (
    CutoffSpec,
    DiluteMedium,
    bethe_shift,
    bethe_shift_quadrature,
    dielectric_shift_difference,
    thermal_shift,
)
from fluctem.polarizability import KramersHeisenberg, Transition, single_resonance

C = SPEED_OF_LIGHT
CUBIC = C**3


def test_cutoff_default_is_rest_energy():
    assert CutoffSpec().omega_max == pytest.approx(C * C, rel=1e-15)
    with pytest.raises(ValueError):
        CutoffSpec(omega_max=0.0)


def test_bethe_single_transition_closed_form():
    omega, d2 = 0.375, 2.0
    model = KramersHeisenberg((Transition(omega, d2),))
    cut = CutoffSpec()
    expected = -(2.0 / (3.0 * math.pi * CUBIC)) * omega**2 * d2 \
        * math.log((cut.omega_max + omega) / omega)
    assert bethe_shift(model, cut) == pytest.approx(expected, rel=1e-14)
    assert bethe_shift(model, cut) < 0


def test_bethe_quadrature_route_agrees():
    model = KramersHeisenberg((Transition(0.375, 2.0), Transition(0.5, 1.0),
                               Transition(1.1, 0.25)))
    closed = bethe_shift(model)
    quad = bethe_shift_quadrature(model)
    assert quad.value == pytest.approx(closed, rel=1e-10)
    assert quad.error_estimate >= abs(quad.value - closed)


def test_bethe_vanishes_with_cutoff():
    model = KramersHeisenberg((Transition(0.5, 1.0),))
    with pytest.warns(UserWarning):
        small = bethe_shift(model, CutoffSpec(omega_max=1e-12))
    assert abs(small) < 1e-12 / CUBIC


def test_bethe_cutoff_doubling_adds_log_two_per_term():
    model = KramersHeisenberg((Transition(0.5, 1.0),))
    base = CutoffSpec()
    doubled = CutoffSpec(omega_max=2 * base.omega_max)
    diff = bethe_shift(model, doubled) - bethe_shift(model, base)
    per_term = -(2.0 / (3.0 * math.pi * CUBIC)) * 0.5**2 * 1.0 * math.log(2.0)
    assert diff == pytest.approx(per_term, rel=1e-4)


def test_bethe_linear_under_transition_splitting():
    whole = KramersHeisenberg((Transition(0.5, 1.0), Transition(0.9, 0.5)))
    split = KramersHeisenberg((Transition(0.5, 0.5), Transition(0.5, 0.5),
                               Transition(0.9, 0.5)))
    assert bethe_shift(whole) == bethe_shift(split)


def test_bethe_warns_on_low_cutoff():
    model = KramersHeisenberg((Transition(0.5, 1.0),))
    with pytest.warns(UserWarning, match="cutoff"):
        bethe_shift(model, CutoffSpec(omega_max=10.0))


def test_dilute_medium_validation():
    host = single_resonance(10.0, 0.4)
    with pytest.raises(ValueError, match="dilute"):
        DiluteMedium(number_density=0.01, host=host)
    for density in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            DiluteMedium(number_density=density, host=host)
    DiluteMedium(number_density=1e-4, host=host)  # fine


def test_dielectric_vacuum_and_zero_density_give_zero():
    model = KramersHeisenberg((Transition(0.5, 1.0),))
    host = single_resonance(2.0, 1.5)
    zero = DiluteMedium(number_density=0.0, host=host)
    assert dielectric_shift_difference(model, zero).value == 0.0


def test_dielectric_single_pair_analytic_oracle():
    # PV int_0^inf dw/((a^2-w^2)(b+w)) = ln(a/b)/(a^2-b^2) gives the
    # one-transition-per-species shift in closed form
    omega_s, d2_s = 0.5, 1.0
    omega_t, d2_t = 1.5, 0.8
    density = 1e-4
    model = KramersHeisenberg((Transition(omega_s, d2_s),))
    medium = DiluteMedium(density, KramersHeisenberg((Transition(omega_t, d2_t),)))
    pv = math.log(omega_t / omega_s) / (omega_t**2 - omega_s**2)
    expected = -(2.0 / (3.0 * math.pi * CUBIC)) * 2.0 * math.pi * density \
        * (2.0 / 3.0) * omega_s**2 * d2_s * omega_t * d2_t * pv
    res = dielectric_shift_difference(model, medium)
    assert res.value == pytest.approx(expected, rel=1e-8)
    assert res.error_estimate >= abs(res.value - expected)


def test_dielectric_sign_negative_below_host_resonance():
    # host resonance far above the atomic transition: n-1 > 0 dominates
    model = KramersHeisenberg((Transition(0.4, 1.0),))
    medium = DiluteMedium(5e-5, single_resonance(4.0, 6.0))
    res = dielectric_shift_difference(model, medium)
    assert res.value < 0
    # frozen regression value from the analytic principal value
    pv = math.log(6.0 / 0.4) / (36.0 - 0.16)
    alpha_static = 4.0
    d2_host = 1.5 * alpha_static * 6.0
    expected = -(2.0 / (3.0 * math.pi * CUBIC)) * 2.0 * math.pi * 5e-5 \
        * (2.0 / 3.0) * 0.4**2 * 1.0 * 6.0 * d2_host * pv
    assert res.value == pytest.approx(expected, rel=1e-8)


def test_dielectric_linear_in_density():
    model = KramersHeisenberg((Transition(0.5, 1.0),))
    host = single_resonance(2.0, 1.5)
    one = dielectric_shift_difference(model, DiluteMedium(1e-5, host))
    two = dielectric_shift_difference(model, DiluteMedium(2e-5, host))
    assert two.value == pytest.approx(2.0 * one.value, rel=1e-14)


def test_dielectric_multi_transition_sums_pairs():
    model = KramersHeisenberg((Transition(0.4, 1.0), Transition(0.7, 0.5)))
    host = KramersHeisenberg((Transition(2.0, 1.0), Transition(5.0, 2.0)))
    medium = DiluteMedium(1e-5, host)
    total = dielectric_shift_difference(model, medium)

    def single(ts, th):
        m = KramersHeisenberg((ts,))
        med = DiluteMedium(1e-5, KramersHeisenberg((th,)))
        return dielectric_shift_difference(m, med).value

    parts = sum(single(ts, th) for ts in model.transitions
                for th in host.transitions)
    assert total.value == pytest.approx(parts, rel=1e-12)


def dielectric_oracle(model, medium):
    # the closed form in 50-digit decimal arithmetic from the same float
    # inputs; pi cancels from the prefactor -(2/(3 pi c^3)) 2 pi N (2/3)
    exact = decimal.Decimal
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        total = exact(0)
        for ts in model.transitions:
            for th in medium.host.transitions:
                a, b = exact(ts.omega_sg), exact(th.omega_sg)
                pv = 1 / (2 * a * a) if a == b \
                    else (b / a).ln() / (b * b - a * a)
                total += a * a * exact(ts.d2) * b * exact(th.d2) * pv
        pref = -8 * exact(medium.number_density) / (9 * exact(C) ** 3)
        return float(pref * total)


def scipy_pv(a, b):
    # PV int_0^inf dw / ((a + w)(b^2 - w^2)): Cauchy weight 1/(w - b)
    # on [0, 2b], then the regular tail
    integrate = pytest.importorskip("scipy.integrate")
    opts = dict(epsabs=0.0, epsrel=1e-13, limit=200)
    near, _ = integrate.quad(lambda w: -1.0 / ((a + w) * (b + w)), 0.0,
                             2.0 * b, weight="cauchy", wvar=b, **opts)
    tail, _ = integrate.quad(lambda w: 1.0 / ((a + w) * (b * b - w * w)),
                             2.0 * b, math.inf, **opts)
    return near + tail


def test_dielectric_closed_form_matches_cauchy_quadrature():
    model = KramersHeisenberg((Transition(0.4, 1.0), Transition(0.7, 0.5),
                               Transition(2.0, 0.2)))
    host = KramersHeisenberg((Transition(2.0, 1.0), Transition(5.0, 2.0),
                              Transition(0.3, 0.7)))
    medium = DiluteMedium(1e-5, host)
    pref = -(2.0 / (3.0 * math.pi * CUBIC)) * 2.0 * math.pi * 1e-5 \
        * (2.0 / 3.0)
    expected = pref * math.fsum(
        ts.omega_sg**2 * ts.d2 * th.omega_sg * th.d2
        * scipy_pv(ts.omega_sg, th.omega_sg)
        for ts in model.transitions for th in host.transitions)
    res = dielectric_shift_difference(model, medium)
    assert res.value == pytest.approx(expected, rel=1e-11)
    assert res.evaluations == 0
    oracle = dielectric_oracle(model, medium)
    assert res.error_estimate >= abs(res.value - oracle)


@pytest.mark.parametrize("offset", [0.0, 1e-12, -1e-12, 1e-9, -1e-9,
                                    1e-6, -1e-6])
def test_dielectric_near_degenerate_pair_is_continuous(offset):
    omega = 0.7
    model = KramersHeisenberg((Transition(omega, 1.3),))

    def shift(host_omega):
        host = KramersHeisenberg((Transition(host_omega, 0.9),))
        medium = DiluteMedium(1e-5, host)
        return dielectric_shift_difference(model, medium), medium

    limit, _ = shift(omega)
    res, medium = shift(omega * (1.0 + offset))
    assert res.error_estimate >= abs(res.value - dielectric_oracle(model,
                                                                   medium))
    # the weight grows as b and the principal value falls as 1/(2a^2)
    # times (1 - delta): the product moves at second order
    assert abs(res.value / limit.value - 1.0) <= abs(offset) + 1e-15


def test_thermal_high_temperature_quadratic_law():
    # TRK-saturating single transition: sum (2/3) omega d2 = 1
    model = KramersHeisenberg((Transition(0.5, 3.0),))
    temperature = 50.0  # 100x the transition frequency
    res = thermal_shift(model, temperature)
    expected = math.pi * temperature**2 / (3.0 * CUBIC)
    assert res.value == pytest.approx(expected, rel=5e-3)
    assert res.value > 0


def test_thermal_doubling_temperature_quadruples_shift():
    model = KramersHeisenberg((Transition(0.5, 3.0),))
    t_hot = 50.0
    ratio = thermal_shift(model, 2 * t_hot).value / thermal_shift(model, t_hot).value
    assert ratio == pytest.approx(4.0, rel=1e-3)


def test_thermal_cold_limit_quartic_and_negative():
    omega, d2 = 0.5, 3.0
    model = KramersHeisenberg((Transition(omega, d2),))
    temperature = omega / 20.0
    res = thermal_shift(model, temperature)
    # Bose integral ~ pi^4 T^4/15 against the static pole weight
    expected = -(4.0 / (3.0 * math.pi * CUBIC)) * d2 * omega \
        * (math.pi**4 * temperature**4 / 15.0) / omega**2
    assert res.value < 0
    assert res.value == pytest.approx(expected, rel=0.1)


def scipy_thermal(model, temperature):
    # PV int_0^inf w^3/((e^{w/T} - 1)(a^2 - w^2)) dw per transition: Cauchy
    # weight 1/(w - a) on [0, 2a], then the regular tail; returns the
    # shift and the sum of scipy's error estimates
    integrate = pytest.importorskip("scipy.integrate")
    opts = dict(epsabs=0.0, epsrel=1e-12, limit=200)

    def bose(w):
        x = w / temperature
        return w**3 / math.expm1(x) if 0.0 < x < 700.0 else 0.0

    values, errors = [], []
    for t in model.transitions:
        a = t.omega_sg
        near, near_err = integrate.quad(lambda w: -bose(w) / (a + w), 0.0,
                                        2.0 * a, weight="cauchy", wvar=a,
                                        **opts)
        tail, tail_err = integrate.quad(
            lambda w: bose(w) / ((a - w) * (a + w)), 2.0 * a, math.inf,
            **opts)
        values.append(t.d2 * a * (near + tail))
        errors.append(t.d2 * a * (near_err + tail_err))
    pref = 4.0 / (3.0 * math.pi * CUBIC)
    return -pref * math.fsum(values), pref * math.fsum(errors)


def zeta(s, n=1000):
    """Riemann zeta: direct summation below n plus the Euler-Maclaurin
    tail from n, whose error is about s^3 n^(-s-3) / 720."""
    return math.fsum([k ** -s for k in range(1, n)]
                     + [n ** (1 - s) / (s - 1), 0.5 * n ** -s,
                        s * n ** (-s - 1) / 12.0])


def cold_series(model, temperature):
    # cold-side expansion of the thermal shift,
    # -(4/(3 pi c^3)) sum_j d2_j w_j sum_k (2k+3)! zeta(2k+4) T^(2k+4)
    # / w_j^(2k+2), asymptotic: each transition's series stops at its
    # smallest term, and the smallest terms together are its error
    sums, smallest = [], []
    for t in model.transitions:
        terms, k = [], 0
        while len(terms) < 2 or 0.0 < terms[-1] < terms[-2]:
            terms.append(math.factorial(2 * k + 3) * zeta(2 * k + 4)
                         * temperature ** (2 * k + 4)
                         / t.omega_sg ** (2 * k + 2))
            k += 1
        sums.append(t.d2 * t.omega_sg * math.fsum(terms[:-1]))
        smallest.append(t.d2 * t.omega_sg * min(terms))
    pref = 4.0 / (3.0 * math.pi * CUBIC)
    return -pref * math.fsum(sums), pref * math.fsum(smallest)


@pytest.mark.parametrize("temperature", [50.0, 5.0, 0.5, 0.05, 1e-2, 1e-3,
                                         1e-4, 1e-5, 1e-6])
@pytest.mark.parametrize("model", [
    single_resonance(0.5, 0.5),
    KramersHeisenberg((Transition(0.375, 2.0), Transition(0.9, 0.5))),
], ids=["single", "two_transitions"])
def test_thermal_error_estimate_is_honest(model, temperature):
    res = thermal_shift(model, temperature)
    omega_min = min(t.omega_sg for t in model.transitions)
    if temperature >= 0.01 * omega_min:
        ref, ref_tol = scipy_thermal(model, temperature)
    else:
        ref, ref_tol = cold_series(model, temperature)
        assert abs(res.value - ref) <= 1e-9 * abs(ref) + ref_tol
    assert res.error_estimate + ref_tol >= abs(res.value - ref)


def test_thermal_validation():
    model = KramersHeisenberg((Transition(0.5, 3.0),))
    with pytest.raises(ValueError):
        thermal_shift(model, 0.0)
    with pytest.raises(ValueError, match="temperature must be positive"):
        thermal_shift(model, math.nan)


@pytest.mark.parametrize("ratio", [1e9, 1e11, 1e50])
def test_thermal_far_above_the_temperature_matches_the_cold_series(ratio):
    # the closed form takes any omega/T: no transition is refused
    model = single_resonance(0.5, 0.5)
    res = thermal_shift(model, 0.5 / ratio)
    ref, ref_tol = cold_series(model, 0.5 / ratio)
    assert res.value < 0
    assert abs(res.value - ref) <= res.error_estimate + ref_tol


# the zero of R(y) = Re psi(iy) - ln y - 1/(12 y^2), where the pieces of
# the shift cancel
R_ZERO = 0.41638


def digamma_thermal(omega, temperature):
    """The shift of one transition of unit d2 from 50-digit mpmath:
    -(4/(3 pi c^3)) omega (omega^2/2) R(omega / (2 pi T))."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        a, t = mpmath.mpf(omega), mpmath.mpf(temperature)
        y = a / (2 * mpmath.pi * t)
        r = mpmath.re(mpmath.digamma(1j * y)) - mpmath.log(y) \
            - 1 / (12 * y * y)
        return float(-4 / (3 * mpmath.pi * mpmath.mpf(C) ** 3)
                     * a * a * a / 2 * r)


def test_thermal_matches_the_digamma_route():
    # 201 log-spaced y = omega/(2 pi T) over the hot end, the zero of R,
    # both branches and the cold end, and points closing in on the zero
    omega = 0.7
    model = KramersHeisenberg((Transition(omega, 1.0),))
    grid = [10.0 ** (-3 + 0.04 * k) for k in range(201)]
    near = [R_ZERO * (1.0 + s * d) for s in (-1.0, 1.0)
            for d in (1e-2, 1e-4, 1e-6, 1e-8)]
    for y in grid + near:
        temperature = omega / (2.0 * math.pi * y)
        res = thermal_shift(model, temperature)
        ref = digamma_thermal(omega, temperature)
        diff = abs(res.value - ref)
        assert diff <= res.error_estimate, y
        if y in grid:
            assert diff <= 1e-13 * abs(ref), y


@pytest.mark.parametrize("temperature, omega, strong", [
    (1e99, 1e-100, 1e300), (1e99, 1e154, 1e150), (5e-324, 1e-100, 1e300),
    (5e-324, 1e154, 1e150)])
def test_thermal_at_the_ends_of_the_key_ranges_is_finite(temperature, omega,
                                                         strong):
    # the principal value is -pi^2 T^2/6 at the hot end and
    # pi^4 T^4/(15 omega^2) at the cold end: with d2 = 1 the shift stays
    # finite or underflows to 0, and with d2 = strong it underflows too or
    # is the named OverflowError.  An omega over about 1.3e154 has no
    # finite square, which the model refuses
    res = thermal_shift(KramersHeisenberg((Transition(omega, 1.0),)),
                        temperature)
    if temperature > omega:
        law = 2.0 * math.pi * omega * temperature**2 / (9.0 * CUBIC)
    else:
        law = -4.0 * math.pi**3 / (45.0 * CUBIC) \
            * (temperature**2 / omega) * temperature**2
    assert res.value == pytest.approx(law, rel=1e-14)
    assert math.isfinite(res.error_estimate)
    model = KramersHeisenberg((Transition(omega, strong),))
    if law == 0.0:
        assert thermal_shift(model, temperature).value == 0.0
    else:
        with pytest.raises(OverflowError, match="thermal shift overflows"):
            thermal_shift(model, temperature)


def test_thermal_where_omega_over_t_underflows_is_the_hot_law():
    # omega/(2 pi T) rounds to 0: the shift is the T^2 law, not ln 0
    res = thermal_shift(KramersHeisenberg((Transition(1e-300, 1.0),)), 1e30)
    law = 2.0 * math.pi * 1e-300 * 1e30**2 / (9.0 * CUBIC)
    assert res.value == pytest.approx(law, rel=1e-14)


def test_dielectric_overflow_is_an_overflow_error():
    model = KramersHeisenberg((Transition(0.375, 1.7e308),))
    medium = DiluteMedium(1e-5, single_resonance(2.0, 2.0))
    with pytest.raises(OverflowError, match="dielectric shift overflows"):
        dielectric_shift_difference(model, medium)
