"""Shared types and geometry: the one path from positions to pair
distances and directions, the finite-energy contract of results, and the
rules by which results combine."""

import math

import numpy as np
import pytest

import fluctem.manybody as manybody
from fluctem.core import (
    EnergyResult,
    PairDistanceError,
    finite_sum,
    pair_separations,
    unwrap,
)


def one_pair(rn, rm):
    """The single-pair call: two points, one pair."""
    i, j, r, rhat = pair_separations((rn, rm))
    assert (list(i), list(j), r.shape, rhat.shape) == ([0], [1], (1,), (1, 3))
    return r[0], rhat[0]


@pytest.mark.parametrize("scale", [1e-30, 1e-3, 1.0, 7.5, 1e40, 1e150])
@pytest.mark.parametrize("origin", [0.0, 1e300])
def test_stacked_separations_equal_single_pair_calls_bitwise(scale, origin):
    rng = np.random.default_rng(int(math.log10(scale)) + 40)
    points = rng.normal(size=(6, 3)) * scale
    # at x = 1e300 every x offset rounds away
    points[:, 0] += origin
    i, j, r, rhat = pair_separations(points)
    assert np.array_equal(np.stack([i, j]), np.triu_indices(6, 1))
    for k in range(len(r)):
        r1, rhat1 = one_pair(points[i[k]], points[j[k]])
        assert r1 == r[k]
        assert np.array_equal(rhat1, rhat[k])
    # direction from point j to point i, of unit length
    delta = points[i] - points[j]
    assert np.allclose(rhat * r[:, None], delta, rtol=1e-15, atol=0.0)
    assert np.allclose(np.sum(rhat * rhat, axis=1), 1.0, rtol=1e-15, atol=0)


def test_points_1e300_apart_raise_alike_in_both_calls():
    # the squared distance overflows: one typed error, and no warning
    far = [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (1e300, 0.0, 0.0)]
    with np.errstate(all="raise"):
        with pytest.raises(PairDistanceError, match="too far apart") as info:
            pair_separations(far)
        assert (info.value.i, info.value.j) == (0, 2)
        assert info.value.distance == math.inf
        with pytest.raises(PairDistanceError, match="too far apart") as one:
            one_pair(far[0], far[2])
    assert (one.value.i, one.value.j, one.value.distance) == (0, 1, math.inf)


def test_coincident_points_name_the_first_pair():
    points = [(0.0, 0.0, 0.0), (1.0, 2.0, 3.0), (4.0, 0.0, 0.0),
              (1.0, 2.0, 3.0)]
    with pytest.raises(PairDistanceError, match="coincident points") as info:
        pair_separations(points)
    assert (info.value.i, info.value.j, info.value.distance) == (1, 3, 0.0)
    with pytest.raises(ValueError, match="coincident points"):
        one_pair(points[1], points[3])


@pytest.mark.parametrize("offset", [1e-160, 1e-155, 1e-158])
def test_distances_with_subnormal_squares_are_refused(offset):
    # sqrt of a subnormal square is inexact, and so is the direction
    points = [(0.0, 0.0, 0.0), (offset, 0.3 * offset, 0.0)]
    with pytest.raises(PairDistanceError, match="too near") as info:
        pair_separations(points)
    assert 0.0 < info.value.distance < 1.5e-154
    # the least distance taken is exact, with a unit direction
    _, _, r, rhat = pair_separations([(0.0, 0.0, 0.0), (0.0, 1.5e-154, 0)])
    assert r[0] == 1.5e-154 and np.array_equal(rhat[0], [0.0, -1.0, 0.0])


def test_pair_distance_error_is_one_type():
    assert manybody.PairDistanceError is PairDistanceError
    assert issubclass(PairDistanceError, ValueError)


def test_fewer_than_two_points_have_no_pairs():
    for points in (np.zeros((0, 3)), np.zeros((1, 3))):
        i, j, r, rhat = pair_separations(points)
        assert i.size == j.size == r.size == 0 and rhat.shape == (0, 3)


@pytest.mark.parametrize("shape", [(3, 2), (3,), (2, 4), (2, 2, 3)])
def test_points_must_be_an_n_by_3_array(shape):
    with pytest.raises(ValueError, match=r"must be an \(N, 3\) array"):
        pair_separations(np.zeros(shape))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_a_non_finite_point_is_named(bad):
    points = [(0.0, 0.0, 0.0), (0.0, 0.0, 2.0), (1.0, bad, 0.0)]
    with pytest.raises(ValueError, match="point 2 is not a finite 3-vector"):
        pair_separations(points)


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_energy_result_refuses_a_non_finite_value(value):
    with pytest.raises(ValueError, match="value must be finite"):
        EnergyResult(value, 0.0, 1)
    EnergyResult(-1.7e308, 0.0, 1)


def _public_producers():
    """Every public function that returns an EnergyResult, on a small
    input of its own."""
    from fluctem import lamb, pairwise, quadrature
    from fluctem.core import vec3
    from fluctem.polarizability import single_resonance

    model = single_resonance(1.5, 0.5)
    pair = pairwise.PairSpec(model, single_resonance(0.8, 0.3), 4.0)
    geom = manybody.SystemGeometry([(vec3(0.0, 0.0, 5.0 * k), model)
                                    for k in range(3)])
    medium = lamb.DiluteMedium(1e-3, model)
    return {
        "integrate_semi_infinite": lambda: quadrature.integrate_semi_infinite(
            lambda x: math.exp(-x)),
        "integrate_rows": lambda: quadrature.integrate_rows(
            lambda x, rows: np.exp(-x), [1.0])[0],
        "integrate_interval": lambda: quadrature.integrate_interval(
            math.sin, 0.0, 1.0),
        "integrate_pv": lambda: quadrature.integrate_pv(
            lambda w: math.exp(-w), 1.0),
        "matsubara_sum": lambda: quadrature.matsubara_sum(
            lambda x: np.exp(-x), 0.05),
        "vdw_energy": lambda: pairwise.vdw_energy(pair),
        "london_energy": lambda: pairwise.london_energy(pair),
        "bethe_shift_quadrature": lambda: lamb.bethe_shift_quadrature(model),
        "dielectric_shift_difference":
            lambda: lamb.dielectric_shift_difference(model, medium),
        "thermal_shift": lambda: lamb.thermal_shift(model, 0.1),
        "free_energy_T0": lambda: manybody.free_energy_T0(geom),
        "free_energy_finiteT": lambda: manybody.free_energy_finiteT(geom,
                                                                    0.05),
        "second_order_energy": lambda: manybody.second_order_energy(geom),
        "normal_mode_energy": lambda: manybody.normal_mode_energy(geom),
        "scaled": lambda: EnergyResult(1.5, 0.25, 3).scaled(-2),
        "total": lambda: EnergyResult.total([]),
    }


@pytest.mark.parametrize("producer", list(_public_producers()))
def test_energy_results_hold_python_numbers(producer):
    # a numpy scalar in a result would leak into every caller's arithmetic
    res = _public_producers()[producer]()
    assert type(res.value) is float
    assert type(res.error_estimate) is float
    assert type(res.evaluations) is int


def test_scaled_error_takes_the_size_of_a_negative_factor():
    res = EnergyResult(1.5, 0.25, 7).scaled(-2.0)
    assert (res.value, res.error_estimate, res.evaluations) == (-3.0, 0.5, 7)


def test_total_sums_exactly_and_adds_the_counts():
    parts = (EnergyResult(v, e, n) for v, e, n in
             [(1e16, 0.5, 1), (1.0, 0.25, 2), (-1e16, 0.125, 3)])
    res = EnergyResult.total(parts)
    assert (res.value, res.error_estimate, res.evaluations) == (1.0, 0.875, 6)
    assert finite_sum([1e16, 1.0, -1e16], "energy") == 1.0


@pytest.mark.parametrize("terms", [[1.0, math.inf], [1e308, 1e308, -1e308]],
                         ids=["infinite", "intermediate"])
def test_finite_sum_names_the_quantity_that_overflows(terms):
    with pytest.raises(OverflowError,
                       match="^the London energy overflows a double$"):
        finite_sum(terms, "London energy")


def test_unwrap_raises_an_error_and_returns_a_result():
    res = EnergyResult(-1.0, 0.5, 4)
    assert unwrap(res) is res
    error = OverflowError("the van der Waals energy overflows a double")
    with pytest.raises(OverflowError) as info:
        unwrap(error)
    assert info.value is error
