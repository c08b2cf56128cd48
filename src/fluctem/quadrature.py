"""Quadrature for the semi-infinite, finite-interval, principal-value and
Matsubara-sum integrals used throughout the package.

One engine serves every integral: the double-exponential ladder on
(0, inf), with nodes x = s*exp(pi*sinh(k*h)).  That is the tanh-sinh rule
composed with the algebraic map x = s*t/(1-t) (Takahasi & Mori, Publ. RIMS
9, 721 (1974)), so

* ``integrate_semi_infinite`` runs it on [0, inf) with the scale s as
  given, and ``integrate_rows`` runs R such integrals at once;
* ``integrate_interval`` maps it onto [lo, hi] through
  w = lo + (hi-lo) u/(1+u), which is tanh-sinh on the interval;
* ``integrate_pv`` subtracts f(pole), which removes the pole because
  PV int_0^inf dw/(a^2 - w^2) = 0, and integrates the regular remainder on
  both sides of it.

Smooth integrands with exponential or algebraic tails converge at machine
precision with a few hundred nodes.  The error estimate is twice the
difference of the last two refinement levels, and at least the rounding
4 eps h sum|w f| of the sum.  From the second refinement on, the ladder
stops once the estimate is at most max(rel_tol |value|, rounding), and it
reports that estimate.  The caller passes the node scale, so an integral
scaled by any constant stops at the same level.  The one exception is the
upper side of a principal value, which only needs rel_tol times the lower
side: that target stops its ladder but is never reported as error.

An integrand whose nodes are costly, such as a log det with one
matrix factorisation per frequency, can take a whole stack of nodes per call:
``integrate_semi_infinite(..., stack=K)`` evaluates each direction of a
refinement level in arrays of up to K nodes.  It keeps the nodes, values,
cut, result and evaluation count of one float per call, and only the
number of calls falls.  The Matsubara sum evaluates its terms, and its
tail integral its nodes, in stacks of up to 32.

Integrals that differ only in their scale and a parameter, such as the
points of a separation scan, are the rows of one ``integrate_rows`` call.
Each refinement level evaluates both directions of every unconverged row
as one (R, n) array, and each row keeps the cut, ladder end, stop, budget
and finiteness check of its own walk, so its result is that of the scalar
walk.  Whole levels pay only across rows: a single cheap integral walks
faster node by node, and a costly one would evaluate nodes past its cut.

``matsubara_sum`` stops once g is smooth on the Matsubara step h, not
once its terms are negligible, which for terms falling like xi^-4 took a
count growing like 1/T.  It sums whole blocks of 32 terms, tries its one
cut at each block end, and takes the rest by the midpoint Euler-Maclaurin
formula: the integral of g from the cut plus h^2 g' and h^4 g'''
corrections from differences of the terms.  The terms and the tail nodes
draw on the ``max_evals`` budget of one ``QuadratureSpec``, as the nodes
of every other integral do; a few hundred suffice at any T below the
scale of g.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import EnergyResult

__all__ = [
    "QuadratureSpec",
    "QuadratureError",
    "integrate_semi_infinite",
    "integrate_rows",
    "integrate_interval",
    "integrate_pv",
    "matsubara_sum",
]

_EPS = np.finfo(float).eps

# |k*h| cap for the double-exponential node ladder: pi*sinh(6.1) ~ 700 keeps
# x = s*exp(pi*sinh(kh)) inside double range.
_DE_CUTOFF = 6.1
_MAX_LEVELS = 13
# nodes per stacked integrand call once a direction has passed the
# previous level's reach: enough for the three terms that cut it
_STEP = 4


class QuadratureError(RuntimeError):
    """Budget exhausted, non-finite integrand, or non-convergent tail."""


@dataclass(frozen=True)
class QuadratureSpec:
    """Relative tolerance and evaluation budget for one integration task."""

    rel_tol: float = 1e-9
    max_evals: int = 10**6

    def __post_init__(self) -> None:
        if not 0 < self.rel_tol < math.inf:
            raise ValueError("rel_tol must be positive and finite")
        if self.max_evals < 100:
            raise ValueError("max_evals must be >= 100")


# thermal sums take a QuadratureSpec; the old name stays bound because
# perfbench/run.py imports it for its provenance record
MatsubaraSpec = QuadratureSpec


class _EvalCounter:
    __slots__ = ("f", "count", "budget")

    def __init__(self, f: Callable[[float], float], budget: int):
        self.f = f
        self.count = 0
        self.budget = budget

    def __call__(self, x: float) -> float:
        return self.check(x, self.f(x))

    def check(self, x: float, y: float) -> float:
        """Count y = f(x), evaluated by the caller or in a stack: one more
        evaluation of the budget, and a finite value."""
        if self.count >= self.budget:
            raise QuadratureError(
                f"quadrature budget of {self.budget} evaluations exhausted"
            )
        self.count += 1
        if not math.isfinite(y):
            raise QuadratureError(f"integrand is {y!r} at x={x!r}")
        return y


@functools.lru_cache(maxsize=None)
def _level_nodes(h: float, odd_only: bool):
    """(start k, [(exp(pi sinh kh), pi cosh kh), ...]) of one refinement
    level, for the directions k > 0 and k < 0, each outward from the
    centre.  The pairs are the math calls of a per-node evaluation, so
    x = s exp(pi sinh kh) and w = (pi cosh kh) x are bitwise the same for
    any scale s.  Level L holds about 12 * 2**L nodes."""
    k_max = int(_DE_CUTOFF / h)
    step = 2 if odd_only else 1
    ladder = []
    for direction in (1, -1):
        start = 1 if odd_only or direction < 0 else 0
        nodes = []
        for k in range(start, k_max + 1, step):
            kh = direction * k * h
            z = 0.5 * math.pi * math.sinh(kh)
            nodes.append((math.exp(2.0 * z), math.pi * math.cosh(kh)))
        ladder.append((start, nodes))
    return ladder


def _stacked_values(f: _EvalCounter, scale: float, nodes):
    """Iterator over f(x) for x = scale u of ``nodes``, up to the first x
    that is 0 or inf, from one call of f on the array of them.  Nothing is
    counted or checked here, and numpy warnings are off."""
    xs = []
    for u, _ in nodes:
        x = scale * u
        if x == 0.0 or math.isinf(x):
            break
        xs.append(x)
    with np.errstate(all="ignore"):
        return iter(np.asarray(f.f(np.array(xs)), dtype=float).tolist())


def _exp_sinh_level(f: Callable[[float], float], scale: float, h: float,
                    odd_only: bool, stack: int = 1,
                    reach: tuple[int, int] = (0, 0)
                    ) -> tuple[float, float, tuple[int, int]]:
    """One refinement level of the double-exponential ladder.

    Returns (sum of w*f contributions without the h factor, sum of |w*f|,
    |k| of the last node above the cut in each direction).  Each direction
    runs outward until three successive terms sit far under the peak.

    ``stack`` = 1 calls ``f`` with one float per node.  Above 1, ``f`` is an
    :class:`_EvalCounter` of an array integrand: each direction fetches
    the nodes inside ``reach`` (the previous level's |k|) in one call,
    then _STEP at a time, never more than ``stack``.  A value is counted
    and checked when the walk takes it, so values past the cut stay unseen.
    """
    terms: list[float] = []
    peak = 0.0
    step = 2 if odd_only else 1
    reached = []
    for (start, nodes), first in zip(_level_nodes(h, odd_only), reach):
        dead = count = live = fetched = 0
        for u, c in nodes:
            x = scale * u
            w = c * x
            # the ladder ends where x underflows or its weight overflows
            if x == 0.0 or math.isinf(w):
                break
            if stack == 1:
                y = f(x)
            else:
                if count == fetched:
                    fetched += min(stack, (count == 0 and first) or _STEP)
                    values = _stacked_values(f, scale, nodes[count:fetched])
                y = f.check(x, next(values))
            t = w * y
            terms.append(t)
            count += 1
            peak = max(peak, abs(t))
            # truncate a direction once its terms sit far under the peak
            if peak > 0.0 and abs(t) <= 1e-17 * peak:
                dead += 1
                if dead >= 3:
                    break
            else:
                dead = 0
                live = count
        reached.append(max(start + step * (live - 1), 0))
    return math.fsum(terms), math.fsum(abs(t) for t in terms), tuple(reached)


def _integrate_exp_sinh(g: Callable[[float], float], counter: _EvalCounter,
                        spec: QuadratureSpec, scale: float,
                        target: float = 0.0, stack: int = 1) -> EnergyResult:
    """int_0^inf g(u) du on the ladder centred on ``scale``; ``counter``
    counts the calls of the caller's integrand that ``g`` makes.  An
    estimate under ``target`` also stops the ladder.  ``stack`` > 1 needs
    ``g`` to be ``counter`` (see :func:`_exp_sinh_level`)."""
    h = 0.5
    total, total_abs, reach = _exp_sinh_level(g, scale, h, False, stack)
    value = h * total
    for level in range(1, _MAX_LEVELS + 1):
        h *= 0.5
        add, add_abs, reach = _exp_sinh_level(g, scale, h, True, stack,
                                              reach)
        total += add
        total_abs += add_abs
        prev, value = value, h * total
        rounding = 4.0 * _EPS * h * total_abs
        err = max(2.0 * abs(value - prev), rounding)
        if level >= 2 \
                and err <= max(spec.rel_tol * abs(value), target, rounding):
            return EnergyResult(value, err, counter.count)
    raise QuadratureError(
        f"tanh_sinh failed to reach tolerance within {counter.count} "
        "evaluations"
    )


def integrate_semi_infinite(f: Callable[[float], float],
                            spec: QuadratureSpec | None = None,
                            scale: float = 1.0,
                            stack: int = 1) -> EnergyResult:
    """Integrate ``f`` over [0, inf).

    Half of the nodes lie below ``scale``.  ``f`` must be finite on
    (0, inf) and decay integrably; the origin is never evaluated.  Raises
    :class:`QuadratureError` when the evaluation budget runs out or ``f``
    returns NaN or an infinity.

    ``stack`` is the largest number of nodes per call of ``f``.  At 1,
    ``f`` takes one float at a time.  Above 1, it takes a 1-D array of
    nodes and returns the array of its values, and each direction of a
    refinement level is evaluated in such stacks.  The values a stack
    holds past a direction's cut are discarded unseen: they are not
    counted, budgeted or checked, and numpy warnings are off while ``f``
    runs.  Nodes, kept values, result and ``evaluations`` are those of
    ``stack`` = 1 bit for bit, provided each array element equals the
    float call.
    """
    if not 0 < scale < math.inf:
        raise ValueError("scale must be positive and finite")
    if stack < 1:
        raise ValueError("stack must be >= 1")
    spec = spec or QuadratureSpec()
    counter = _EvalCounter(f, spec.max_evals)
    return _integrate_exp_sinh(counter, counter, spec, scale, stack=stack)


@functools.lru_cache(maxsize=None)
def _level_arrays(h: float, odd_only: bool):
    """The nodes of :func:`_level_nodes` as arrays u and c, direction
    k > 0 first, and the index where direction k < 0 starts."""
    (_, plus), (_, minus) = _level_nodes(h, odd_only)
    u, c = np.array(plus + minus).T
    return u, c, len(plus)


def _kept(a: np.ndarray, end: np.ndarray, peak: np.ndarray) -> np.ndarray:
    """Terms each row of one direction keeps, from the |w f| of its nodes
    in ``a``: through the third of three successive terms <= 1e-17 of the
    running peak, which starts at ``peak``, and no further than ``end``.
    A NaN stops the peak, so no cut falls past it."""
    peak = np.maximum(np.maximum.accumulate(a, axis=1), peak[:, None])
    dead = (a <= 1e-17 * peak) & (peak > 0.0)
    three = dead[:, 2:] & dead[:, 1:-1] & dead[:, :-2]
    cut = np.where(three.any(axis=1), three.argmax(axis=1) + 3, a.shape[1])
    return np.minimum(cut, end)


def _first(mask: np.ndarray) -> np.ndarray:
    """Per row, the index of the first true element, or the row length."""
    return np.where(mask.any(axis=1), mask.argmax(axis=1), mask.shape[1])


def integrate_rows(f: Callable[[np.ndarray, np.ndarray], np.ndarray],
                   scales, spec: QuadratureSpec | None = None
                   ) -> list[EnergyResult | QuadratureError]:
    """Integrate R functions over [0, inf), row r on the ladder centred on
    ``scales[r]``; the result, or the error, of each row.

    ``f(x, rows)`` takes an (len(rows), n) array of nodes, whose row i
    belongs to integral ``rows[i]``, and returns the array of its values.
    Each refinement level evaluates both directions of every unconverged
    row in one call.  Each row keeps the walk of
    :func:`integrate_semi_infinite`: its own cut, from a peak that runs
    across both directions, its own ladder end, its own stop and its own
    ``max_evals`` budget.  Values past a row's cut are discarded unseen:
    they are not counted, budgeted or checked, and numpy warnings are off
    while ``f`` runs.  Nodes, kept values, results, ``evaluations`` and
    errors are those of the scalar walk bit for bit, provided each array
    element equals the float call; so no row depends on the others.  A
    spent budget, a non-finite kept value or a row that does not converge
    is returned as that row's :class:`QuadratureError`, not raised.
    """
    spec = spec or QuadratureSpec()
    scales = np.asarray(scales, dtype=float)
    if not np.all((scales > 0) & (scales < math.inf)):
        raise ValueError("scales must be positive and finite")
    n_rows = len(scales)
    results: list[EnergyResult | QuadratureError | None] = [None] * n_rows
    total, total_abs = [0.0] * n_rows, [0.0] * n_rows
    value, count = [0.0] * n_rows, [0] * n_rows
    active = np.arange(n_rows)
    h = 1.0
    for level in range(_MAX_LEVELS + 1):
        if not active.size:
            break
        h *= 0.5
        u, c, split = _level_arrays(h, level > 0)
        x = scales[active, None] * u
        w = c * x
        with np.errstate(all="ignore"):
            y = np.asarray(f(x, active), dtype=float)
            t = w * y
            a = np.abs(t)
            # the ladder ends where x underflows or its weight overflows
            ends = (x == 0.0) | np.isinf(w)
            kept_plus = _kept(a[:, :split], _first(ends[:, :split]),
                              np.zeros(len(active)))
            peak = np.where(np.arange(split) < kept_plus[:, None],
                            a[:, :split], 0.0).max(axis=1)
            kept_minus = _kept(a[:, split:], _first(ends[:, split:]), peak)
        # the walk takes its kept values in order, the k > 0 ones first
        bad = ~np.isfinite(y)
        bad_plus, bad_minus = _first(bad[:, :split]), _first(bad[:, split:])
        bad_at = np.where(bad_plus < kept_plus, bad_plus,
                          np.where(bad_minus < kept_minus,
                                   kept_plus + bad_minus, x.shape[1]))
        still = []
        for i, row in enumerate(active.tolist()):
            k_plus, k_minus = int(kept_plus[i]), int(kept_minus[i])
            spent = spec.max_evals - count[row]
            stop = min(spent, int(bad_at[i]))
            if stop < k_plus + k_minus:
                if spent <= stop:
                    results[row] = QuadratureError(
                        f"quadrature budget of {spec.max_evals} evaluations "
                        "exhausted")
                else:
                    j = stop if stop < k_plus else split + stop - k_plus
                    results[row] = QuadratureError(
                        f"integrand is {float(y[i, j])!r} at "
                        f"x={float(x[i, j])!r}")
                continue
            terms = (t[i, :k_plus].tolist()
                     + t[i, split:split + k_minus].tolist())
            count[row] += k_plus + k_minus
            total[row] += math.fsum(terms)
            total_abs[row] += math.fsum(map(abs, terms))
            prev, value[row] = value[row], h * total[row]
            rounding = 4.0 * _EPS * h * total_abs[row]
            err = max(2.0 * abs(value[row] - prev), rounding)
            if level >= 2 and err <= max(spec.rel_tol * abs(value[row]),
                                         rounding):
                results[row] = EnergyResult(value[row], err, count[row])
            else:
                still.append(row)
        active = np.array(still, dtype=int)
    for row in active.tolist():
        results[row] = QuadratureError(
            f"tanh_sinh failed to reach tolerance within {count[row]} "
            "evaluations")
    return results


def integrate_interval(f: Callable[[float], float], lo: float, hi: float,
                       spec: QuadratureSpec | None = None) -> EnergyResult:
    """Tanh-sinh integration of ``f`` over the finite interval [lo, hi].

    The ladder on u in (0, inf) is mapped through w = lo + (hi-lo) u/(1+u).
    Neither end point is evaluated: a node whose w rounds onto an end
    carries a weight below rounding and contributes nothing.  The nodes
    carry rounding of about eps |lo| / (hi - lo) relative to the width:
    2e-10 on [1e6, 1e6 + 1], inside the error estimate.
    """
    if not hi > lo:
        raise ValueError("need hi > lo")
    return _interval_map(f, lo, hi, spec or QuadratureSpec(), 1.0)


def _interval_map(f: Callable[[float], float], lo: float, hi: float,
                  spec: QuadratureSpec, scale: float) -> EnergyResult:
    """The ladder on u centred on ``scale``, mapped to w in [lo, hi]."""
    width = hi - lo
    counter = _EvalCounter(f, spec.max_evals)

    def mapped(u: float) -> float:
        v = 1.0 + u
        w = lo + width * (u / v)
        if not lo < w < hi:
            return 0.0
        return counter(w) * (width / (v * v))

    return _integrate_exp_sinh(mapped, counter, spec, scale)


def integrate_pv(f_regular: Callable[[float], float], pole: float,
                 spec: QuadratureSpec | None = None,
                 scale: float | None = None) -> EnergyResult:
    """Principal value of  integral_0^inf f_regular(w) / (pole^2 - w^2) dw.

    Since PV int_0^inf dw/(a^2 - w^2) = 0, the value equals the regular
    integral of (f(w) - f(a))/(a^2 - w^2), written on each side in the
    distance d = |w - a| > 0.  int_0^a runs on the interval map centred on
    w = min(s, a/2), with s = ``scale`` (default: the pole); int_a^inf on
    the half line with scale s, to rel_tol times the lower side.  A node
    whose w rounds onto the pole contributes nothing, so ``f_regular`` is
    called there once; that call counts as one evaluation.
    """
    spec = spec or QuadratureSpec()
    a, s = pole, pole if scale is None else scale
    if not (0 < a < math.inf and 0 < s < math.inf):
        raise ValueError("pole and scale must be positive and finite")
    f = _EvalCounter(f_regular, spec.max_evals)
    f_a = f(a)

    def below(d: float) -> float:
        w = a - d
        return 0.0 if w == a else (f(w) - f_a) / (d * (a + w))

    def above(d: float) -> float:
        w = a + d
        return 0.0 if w == a else (f_a - f(w)) / (d * (a + w))

    # d = a u/(1+u) puts u = (a-s)/s at w = s
    lower = _interval_map(below, 0.0, a, spec,
                          (a - s) / s if s < 0.5 * a else 1.0)
    above_counter = _EvalCounter(above, spec.max_evals)
    upper = _integrate_exp_sinh(above_counter, above_counter, spec, s,
                                spec.rel_tol * abs(lower.value))
    return EnergyResult(lower.value + upper.value,
                        lower.error_estimate + upper.error_estimate, f.count)




# Matsubara terms per call of the integrand, and the spacing of the block
# ends where the sum may stop: enough to spread the per-call overhead, few
# enough that a sum smooth early stops early
_BLOCK = 32
# Euler-Maclaurin weights, at a = xi_(N+1/2), of the differences that
# stand for h^2 g'(a), h^4 g'''(a) and h^6 g^(5)(a): 1/24; 7/5760 plus
# the 10/5760 that cancel the h^2 error of the first difference; and
# 31/967680 plus the h^4 errors of both differences, 336/967680
_EM2 = 1.0 / 24.0
_EM4 = 17.0 / 5760.0
_EM6 = 367.0 / 967680.0


def matsubara_sum(g: Callable[[np.ndarray], np.ndarray], temperature: float,
                  spec: QuadratureSpec | None = None,
                  scale: float = 1.0) -> EnergyResult:
    """Thermal sum  k_B T * [ g(0)/2 + sum_{n>=1} g(n h) ],  h = 2 pi k_B T.

    ``g`` maps a 1-D array of frequencies to the array of its values.  The
    sum calls it on whole blocks of 32 successive xi_n = n h.  The terms
    n <= N are summed, and the rest is the midpoint Euler-Maclaurin formula
    at a = xi_(N+1/2):

        h sum_{n>N} g(nh) = int_a^inf g + (h^2/24) g'(a)
                            - (7 h^4/5760) g'''(a) + O(h^6 g^(5)),

    with the derivatives from differences of terms already computed,
    c2 = (h/24)(g_(N+1) - g_N) and
    c4 = (17/5760) h (g_(N+2) - 3 g_(N+1) + 3 g_N - g_(N-1)), whose 17
    absorbs the h^2 error of the first difference.  The value is
    T sum_{n<=N} + (int_a^inf g + c2 - c4)/2pi.  The tail integral runs
    once, on stacks of up to 32 nodes centred on max(a, ``scale``), the
    caller's node scale as in :func:`integrate_semi_infinite`.

    The sum stops at the first block end n = 31, 63, ... where g is smooth
    on the step h, |c4| + |c6| <= 2pi rel_tol T |running sum|, and cuts at
    N = n - 2.  Here c6 = (367/967680) h (fifth difference of
    g_(N-3) .. g_(N+2)) is the size of the h^6 remainder, and
    |c4| + |c6| the truncation error; c6 keeps a cut on a zero of g''',
    where c4 vanishes while the remainder does not, from passing for exact.

    The error is the truncation error plus the tail integral's estimate,
    over 2pi, plus the rounding 4 eps T sum|terms|.  ``evaluations``
    counts the terms, the two past N among them, and the tail nodes, which
    all draw on the one budget ``spec.max_evals``.  A spent budget, a
    non-finite term (named by its xi_n) or a tail that does not converge
    raises :class:`QuadratureError`.
    """
    spec = spec or QuadratureSpec()
    if not temperature > 0:
        raise ValueError("temperature must be positive")
    t_step = 2.0 * math.pi * temperature
    if _BLOCK * t_step == math.inf:
        raise ValueError("temperature too high: the frequencies of the "
                         "first Matsubara block overflow a double")
    if not 0 < scale < math.inf:
        raise ValueError("scale must be positive and finite")
    counter = _EvalCounter(g, spec.max_evals)
    values: list[float] = []
    partial = 0.0
    while True:
        xis = np.arange(len(values), len(values) + _BLOCK) * t_step
        block = np.asarray(g(xis), dtype=float).tolist()
        for xi, value in zip(xis.tolist(), block):
            if not math.isfinite(value):
                raise QuadratureError(
                    f"matsubara term is {value!r} at xi={xi!r}")
            partial += value if values else 0.5 * value
            values.append(counter.check(xi, value))
        # the d's are the c's over h, so that no tiny T underflows them
        f0, f1, f2, f3, f4, f5 = values[-6:]
        d2 = _EM2 * (f4 - f3)
        d4 = _EM4 * (f5 - 3.0 * f4 + 3.0 * f3 - f2)
        d6 = _EM6 * (f5 - 5.0 * f4 + 10.0 * f3 - 10.0 * f2 + 5.0 * f1 - f0)
        truncation = abs(d4) + abs(d6)
        if truncation <= spec.rel_tol * max(abs(partial), 1e-300):
            break

    n = len(values) - 1
    cut = n - 2
    terms = [0.5 * values[0]] + values[1:cut + 1]
    xi_mid = (cut + 0.5) * t_step
    # the tail nodes are counted on from the terms, in the same budget
    counter.f = lambda x: g(xi_mid + x)
    try:
        tail = _integrate_exp_sinh(counter, counter, spec,
                                   max(xi_mid, scale), stack=_BLOCK)
    except QuadratureError as exc:
        raise QuadratureError(
            f"matsubara tail did not converge after n={n}: {exc}") from exc
    value = (temperature * (math.fsum(terms) + d2 - d4)
             + tail.value / (2.0 * math.pi))
    err = (temperature * (truncation
                          + 4.0 * _EPS * math.fsum(abs(t) for t in terms))
           + tail.error_estimate / (2.0 * math.pi))
    return EnergyResult(value, err, tail.evaluations)
