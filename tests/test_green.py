"""Green tensor checks against independent closed forms.

The imaginary-axis oracle here is coded directly from the real expression
-exp(-x) [ (xi/c)^2 (I-p)/r + (xi/c)(I-3p)/r^2 + (I-3p)/r^3 ] with its own
projectors; the complex real-axis kernel evaluated at omega = i xi is a
second, independent route to the batched imaginary-axis evaluator.
"""

import math

import numpy as np
import pytest

from fluctem.core import SPEED_OF_LIGHT, vec3
from fluctem.green import (
    _green_kernel,
    dyadic_green,
    dyadic_green_imag,
    f_tensor,
    imag_axis_green,
    pair_projectors,
    static_green,
)
from fluctem.pairwise import retarded_pair_polynomial

C = SPEED_OF_LIGHT
ZHAT = vec3(0.0, 0.0, 1.0)


def imag_axis_oracle(r, rhat, xi):
    p = np.outer(rhat, rhat)
    eye = np.eye(3)
    x = xi * r / C
    return -math.exp(-x) * ((xi / C) ** 2 * (eye - p) / r
                            + (xi / C) * (eye - 3 * p) / r**2
                            + (eye - 3 * p) / r**3)


def test_f_tensor_small_argument_limit():
    for rhat in (ZHAT, vec3(1, 0, 0), vec3(0.6, 0.0, 0.8)):
        f = f_tensor(1e-4, rhat)
        assert np.allclose(f, (2.0 / 3.0) * np.eye(3), atol=1e-7)


def test_f_tensor_at_pi_along_z():
    f = f_tensor(math.pi, ZHAT)
    expected = np.diag([-1.0, -1.0, 2.0]) / math.pi**2
    assert np.allclose(f, expected, rtol=1e-14, atol=1e-16)


def test_f_tensor_far_zone_transverse_dominates():
    x = 1e6
    rhat = vec3(0, 0, 1)
    f = f_tensor(x, rhat)
    expected = (np.eye(3) - np.outer(rhat, rhat)) * math.sin(x) / x
    # longitudinal entries carry only the 1/x^2 pieces
    assert abs(f[2, 2]) < 3.0 / x**2
    assert np.allclose(f[:2, :2], expected[:2, :2], atol=2.0 / x**2)


def test_f_tensor_symmetric_and_validated():
    f = f_tensor(2.3, vec3(0.36, 0.48, 0.8))
    assert np.array_equal(f, f.T)
    with pytest.raises(ValueError):
        f_tensor(0.0, ZHAT)
    with pytest.raises(ValueError):
        f_tensor(-1.0, ZHAT)
    with pytest.raises(ValueError):
        f_tensor(1.0, vec3(1.0, 1.0, 0.0))


def test_static_limit_of_real_axis_tensor():
    rn, rm = vec3(0, 0, 1.0), vec3(0, 0, 0)
    g = dyadic_green(rn, rm, omega=1e-6)
    rhat = vec3(0, 0, 1.0)
    expected = 3.0 * np.outer(rhat, rhat) - np.eye(3)
    assert np.allclose(g.real, expected, rtol=1e-9)
    assert np.allclose(g, static_green(rn, rm), rtol=1e-9, atol=1e-12)


def test_reciprocity_is_exact():
    rn, rm = vec3(0.3, -1.2, 0.7), vec3(-0.4, 0.1, 2.0)
    a = dyadic_green(rn, rm, omega=0.8)
    b = dyadic_green(rm, rn, omega=0.8)
    assert np.array_equal(a, b.T)
    assert np.array_equal(a, a.T)


def test_far_field_transverse_term_dominates():
    omega = 1.0
    r = 1e4 * C  # kr = 1e4
    rn, rm = vec3(0, 0, r), vec3(0, 0, 0)
    g = dyadic_green(rn, rm, omega)
    k = omega / C
    kr = k * r
    leading = (omega**2 * k / C**2) * np.exp(1j * kr) / kr
    assert abs(g[0, 0] - leading) / abs(leading) < 2.0 / kr
    # longitudinal component is down by 1/kr relative to transverse
    assert abs(g[2, 2]) / abs(g[0, 0]) < 3.0 / kr


def test_imaginary_part_matches_f_tensor():
    # x = omega r / c of order one: both routes are well-conditioned
    for omega, r, rhat in [(0.5, 500.0, ZHAT), (1.3, 250.0, vec3(0.6, 0, 0.8)),
                           (2.0, 60.0, vec3(1, 0, 0))]:
        rn = r * rhat
        g = dyadic_green(rn, vec3(0, 0, 0), omega)
        f = f_tensor(omega * r / C, rhat)
        assert np.allclose(g.imag, (omega**3 / C**3) * f, rtol=1e-12,
                           atol=1e-15 * omega**3 / C**3)


def test_imaginary_part_matches_f_tensor_near_zone():
    # deep near zone: the complex kernel cancels ~x^{-3} terms down to O(1),
    # costing digits, so the cross-check tolerance is wider here
    omega, r, rhat = 0.5, 1.0, ZHAT
    g = dyadic_green(r * rhat, vec3(0, 0, 0), omega)
    f = f_tensor(omega * r / C, rhat)
    assert np.allclose(g.imag, (omega**3 / C**3) * f, rtol=1e-8)


def test_imag_axis_matches_independent_oracle():
    cases = [(0.5, 1.0, ZHAT), (2.0, 3.0, vec3(0.6, 0, 0.8)),
             (10.0, 50.0, vec3(0, 1, 0)), (1e-8, 1.0, ZHAT)]
    for xi, r, rhat in cases:
        g = dyadic_green_imag(r * rhat, vec3(0, 0, 0), xi)
        assert np.allclose(g, imag_axis_oracle(r, rhat, xi), rtol=1e-13,
                           atol=0.0)


def test_imag_axis_squared_norm_is_the_retarded_pair_polynomial():
    # ||G(r, i xi)||_F^2 = 2 (exp(-x)/r^3)^2 P(x): the second order sums
    # pair energies from it without building a tensor
    rng = np.random.default_rng(19)
    x_wanted = np.geomspace(1e-12, 700.0, 60)
    checked = 0
    for r in np.geomspace(1e-3, 1e6, 37):
        d = rng.standard_normal(3)
        transverse, static = pair_projectors(d / np.linalg.norm(d))
        xi = x_wanted * C / r
        norm = np.sum(imag_axis_green(xi, r, transverse, static) ** 2,
                      axis=(-2, -1))
        # x as the tensor evaluates it, not as wanted
        x = np.divide(xi, C) * r
        decay = np.exp(-x) / r**3
        identity = 2.0 * (retarded_pair_polynomial(x) * decay * decay)
        normal = norm >= np.finfo(float).tiny
        assert np.all(np.abs(identity - norm)[normal]
                      <= 2e-15 * norm[normal])
        checked += normal.sum()
    assert checked > 1000


def test_imag_axis_entries_exactly_real():
    g = _green_kernel(complex(0.0, 0.7), 2.0, np.array([0.6, 0.0, 0.8]), 1.0)
    assert np.all(g.imag == 0.0)
    real = dyadic_green_imag(vec3(1.2, 0, 1.6), vec3(0, 0, 0), 0.7)
    assert real.dtype == np.float64


def test_batched_imag_axis_matches_complex_kernel():
    rng = np.random.default_rng(11)
    d = rng.standard_normal((40, 3))
    r = rng.uniform(0.5, 300.0, size=40)
    rhat = d / np.linalg.norm(d, axis=1)[:, None]
    transverse, static = pair_projectors(rhat)
    for xi in (1e-6, 0.37, 5.0, 80.0):
        batched = imag_axis_green(xi, r, transverse, static)
        assert batched.shape == (40, 3, 3) and batched.dtype == np.float64
        for g, r_p, rhat_p in zip(batched, r, rhat):
            kernel = _green_kernel(complex(0.0, xi), r_p, rhat_p, 1.0)
            assert np.allclose(g, kernel.real, rtol=1e-12, atol=0.0)
            # r and rhat recomputed from r * rhat differ in the last bit
            single = dyadic_green_imag(r_p * rhat_p, vec3(0, 0, 0), xi)
            assert np.abs(g - single).max() <= 1e-13 * np.abs(g).max()


def test_batched_imag_axis_static_is_static_green():
    rn, rm = vec3(0.4, -1.0, 2.0), vec3(1.0, 0.5, -0.3)
    d = rn - rm
    r = np.linalg.norm(d)
    transverse, static = pair_projectors((d / r)[None])
    batched = imag_axis_green(0.0, np.array([r]), transverse, static)
    assert np.allclose(batched[0], static_green(rn, rm), rtol=1e-15)
    p = np.outer(d, d) / r**2
    assert np.allclose(batched[0], (3.0 * p - np.eye(3)) / r**3,
                       rtol=1e-14, atol=0.0)


def test_imag_axis_static_limit():
    rn, rm = vec3(1.0, 1.0, 0.0), vec3(0, 0, 0)
    g = dyadic_green_imag(rn, rm, xi=1e-9)
    assert np.allclose(g, static_green(rn, rm), rtol=1e-9)


def test_imag_axis_exponential_envelope():
    r = 1.0
    xi1 = 5.0 * C  # x = 5
    xi2 = 10.0 * C
    g1 = dyadic_green_imag(r * ZHAT, vec3(0, 0, 0), xi1)
    g2 = dyadic_green_imag(r * ZHAT, vec3(0, 0, 0), xi2)
    ratio = abs(g2[0, 0] / g1[0, 0])
    # transverse entry scales like e^{-x} (4x^2+2x+1)/(x^2+x+1) going 5 -> 10
    poly = (4 * 25 + 2 * 5 + 1) / (25 + 5 + 1)
    assert ratio == pytest.approx(math.exp(-5.0) * poly, rel=1e-10)


def test_domain_errors():
    p = vec3(0, 0, 1)
    with pytest.raises(ValueError):
        dyadic_green(p, p, omega=1.0)
    with pytest.raises(ValueError):
        dyadic_green(p, vec3(0, 0, 0), omega=-1.0)
    with pytest.raises(ValueError):
        dyadic_green_imag(p, p, xi=1.0)
    with pytest.raises(ValueError):
        dyadic_green_imag(p, vec3(0, 0, 0), xi=0.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="positive and finite"):
            dyadic_green(p, vec3(0, 0, 0), omega=bad)
        with pytest.raises(ValueError, match="positive and finite"):
            dyadic_green_imag(p, vec3(0, 0, 0), xi=bad)


@pytest.mark.parametrize("view", [
    static_green,
    lambda rn, rm: dyadic_green_imag(rn, rm, xi=0.5),
    lambda rn, rm: dyadic_green(rn, rm, omega=0.5),
], ids=["static_green", "dyadic_green_imag", "dyadic_green"])
def test_a_nan_point_is_refused(view):
    with pytest.raises(ValueError, match="point 1 is not a finite 3-vector"):
        view(vec3(0.0, 0.0, 0.0), vec3(0.0, 0.0, math.nan))


def test_f_tensor_refuses_non_finite_arguments():
    with pytest.raises(ValueError, match="unit vector"):
        f_tensor(1.0, vec3(math.nan, 0.0, 0.0))
    for x in (math.nan, math.inf):
        with pytest.raises(ValueError, match="positive and finite"):
            f_tensor(x, ZHAT)
