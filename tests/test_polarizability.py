"""Polarizability model checks: static limits, axis consistency, sum rules.

The real-axis and complex-plane views of the Kramers-Heisenberg sum and
its oscillator-strength sum live here as oracles: they are summed from
the transitions directly, an independent route to ``alpha_imag``.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fluctem.polarizability import KramersHeisenberg, Transition, single_resonance


def alpha_complex(model, z):
    """alpha(z) = (2/3) sum_s omega_s d2_s / (omega_s^2 - z^2) off the poles."""
    z2 = complex(z) * complex(z)
    return (2.0 / 3.0) * sum(
        (t.omega_sg * t.d2 / (t.omega_sg * t.omega_sg - z2)
         for t in model.transitions),
        start=complex(0.0))


def alpha_real(model, omega, eta):
    """alpha at omega + i*eta; eta > 0 keeps the poles regulated."""
    return alpha_complex(model, complex(omega, eta))


def oscillator_strength_sum(model):
    """Sum of oscillator strengths (2/3) omega d2; counts electrons when
    the transition set saturates the sum rule."""
    return math.fsum((2.0 / 3.0) * t.omega_sg * t.d2
                     for t in model.transitions)


def test_transition_validation():
    with pytest.raises(ValueError):
        Transition(omega_sg=0.0, d2=1.0)
    with pytest.raises(ValueError):
        Transition(omega_sg=-0.5, d2=1.0)
    for omega_sg, d2 in ((0.5, -1.0), (0.5, math.nan), (0.5, math.inf),
                         (math.inf, 1.0), (math.nan, 1.0)):
        with pytest.raises(ValueError):
            Transition(omega_sg=omega_sg, d2=d2)


def test_a_model_needs_a_transition():
    with pytest.raises(ValueError, match="transition"):
        KramersHeisenberg(())
    # the derived terms stay out of equality, hashing and repr
    listed = KramersHeisenberg([Transition(0.5, 1.0)])
    model = KramersHeisenberg((Transition(0.5, 1.0),))
    assert listed == model and hash(listed) == hash(model)
    assert model.terms == ((0.5, 0.25),)
    assert "terms" not in repr(model)


def test_overflowing_terms_are_rejected():
    # omega*d2 = 7.5e319 and omega^2 = 1e320 overflow
    with pytest.raises(ValueError, match="overflows"):
        single_resonance(0.5, 1e160)
    with pytest.raises(ValueError, match="overflows"):
        KramersHeisenberg((Transition(0.5, 1.0), Transition(2e154, 0.0)))


def test_single_resonance_static_limit():
    model = single_resonance(alpha_static=4.5, omega0=0.375)
    assert model.alpha_imag(0.0) == pytest.approx(4.5, rel=1e-14)
    assert model.static_polarizability() == pytest.approx(4.5, rel=1e-14)


def test_single_resonance_half_value_at_resonance_frequency():
    model = single_resonance(alpha_static=4.5, omega0=0.375)
    assert model.alpha_imag(0.375) == pytest.approx(2.25, rel=1e-14)


def test_single_resonance_validation():
    with pytest.raises(ValueError):
        single_resonance(alpha_static=-1.0, omega0=0.5)
    for alpha_static, omega0 in ((1.0, 0.0), (math.nan, 0.5), (math.inf, 0.5),
                                 (1.0, math.nan), (1.0, math.inf)):
        with pytest.raises(ValueError):
            single_resonance(alpha_static=alpha_static, omega0=omega0)


def test_kh_real_axis_regular_at_zero_frequency():
    model = KramersHeisenberg((Transition(0.5, 1.0), Transition(0.8, 2.0)))
    val = alpha_real(model, 0.0, eta=1e-8)
    assert val.real == pytest.approx(model.alpha_imag(0.0), rel=1e-12)
    assert abs(val.imag) < 1e-7


def test_kh_near_resonance_matches_direct_formula():
    alpha_st, omega0, eta = 3.0, 0.5, 1e-6
    model = single_resonance(alpha_st, omega0)
    d2 = 1.5 * alpha_st * omega0
    z = complex(omega0, eta)
    direct = (2.0 / 3.0) * omega0 * d2 / (omega0**2 - z * z)
    got = alpha_real(model, omega0, eta)
    assert got == pytest.approx(direct, rel=1e-14)
    # near the pole the response is dominantly imaginary and positive
    assert got.imag > 0
    assert got.imag == pytest.approx(alpha_st * omega0 / (2 * eta), rel=1e-5)


def test_passivity_on_positive_real_axis():
    model = KramersHeisenberg((Transition(0.4, 1.2), Transition(1.1, 0.3)))
    for omega in (0.1, 0.4, 0.7, 1.1, 5.0):
        assert alpha_real(model, omega, eta=1e-4).imag >= 0.0


def test_oscillator_strength_sum_examples():
    one = KramersHeisenberg((Transition(0.5, 3.0),))
    assert oscillator_strength_sum(one) == pytest.approx(1.0, rel=1e-15)
    toy = KramersHeisenberg((Transition(0.375, 2.0), Transition(0.5, 1.0)))
    assert oscillator_strength_sum(toy) == pytest.approx(5.0 / 6.0, rel=1e-14)


def test_alpha_imag_nonincreasing_and_high_frequency_tail():
    model = KramersHeisenberg((Transition(0.375, 2.0), Transition(0.5, 1.0)))
    grid = [0.0, 0.1, 0.3, 0.9, 2.7, 8.1]
    values = [model.alpha_imag(x) for x in grid]
    assert all(a >= b for a, b in zip(values, values[1:]))
    # xi^2 * alpha -> sum of oscillator strengths
    xi = 100.0 * 0.5
    tail = xi * xi * model.alpha_imag(xi)
    assert tail == pytest.approx(oscillator_strength_sum(model), rel=1e-2)


def test_shared_kernel_consistency_between_axes():
    model = KramersHeisenberg((Transition(0.375, 2.0), Transition(0.5, 1.0)))
    for xi in (0.0, 0.05, 0.375, 1.0, 30.0):
        kernel = alpha_complex(model, complex(0.0, xi))
        assert kernel.imag == 0.0
        assert abs(kernel.real - model.alpha_imag(xi)) <= 1e-12 * kernel.real


@given(
    omegas=st.lists(st.floats(min_value=0.05, max_value=5.0), min_size=1,
                    max_size=4),
    d2s=st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=4,
                 max_size=4),
    xi_lo=st.floats(min_value=0.0, max_value=2.0),
    step=st.floats(min_value=1e-3, max_value=3.0),
)
@settings(max_examples=40, deadline=None)
def test_alpha_imag_positive_and_monotone_property(omegas, d2s, xi_lo, step):
    model = KramersHeisenberg(tuple(
        Transition(w, d) for w, d in zip(omegas, d2s)))
    lo, hi = model.alpha_imag(xi_lo), model.alpha_imag(xi_lo + step)
    assert lo >= 0.0
    assert hi <= lo


def test_alpha_imag_rejects_negative_frequency():
    model = single_resonance(1.0, 1.0)
    with pytest.raises(ValueError):
        model.alpha_imag(-0.1)
    with pytest.raises(ValueError):
        model.alpha_imag(math.nan)
