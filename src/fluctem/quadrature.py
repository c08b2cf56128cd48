"""Quadrature for the semi-infinite, finite-interval, principal-value and
Matsubara-sum integrals used throughout the package.

One engine serves every integral: the double-exponential ladder on
(0, inf), with nodes x = s*exp(pi*sinh(k*h)).  That is the tanh-sinh rule
composed with the algebraic map x = s*t/(1-t) (Takahasi & Mori, Publ. RIMS
9, 721 (1974)), so

* ``integrate_semi_infinite`` runs it on [0, inf) with the scale s as
  given;
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
eigensolve per frequency, can take a whole stack of nodes per call:
``integrate_semi_infinite(..., stack=K)`` evaluates each direction of a
refinement level in arrays of up to K nodes.  It keeps the nodes, values,
cut, result and evaluation count of one float per call, and only the
number of calls falls.  The Matsubara sum evaluates its terms, and its
tail integral its nodes, in stacks of up to 32.

``matsubara_sum`` stops once g is smooth on the Matsubara step h, not
once its terms are negligible, which for terms falling like xi^-4 took a
count growing like 1/T.  It sums the terms up to a cut and takes the rest
by the midpoint Euler-Maclaurin formula: the integral of g from the cut
plus h^2 g' and h^4 g''' corrections from differences of the terms.  Its
evaluations count the summed terms, the two differenced terms past the
cut and the tail nodes; a few hundred suffice at any T below the scale
of g.
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
    "MatsubaraSpec",
    "QuadratureError",
    "integrate_semi_infinite",
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


@dataclass(frozen=True)
class MatsubaraSpec:
    """Tail control for thermal sums over xi_n = 2*pi*n*k_B*T."""

    rel_tol: float = 1e-9
    n_max: int = 10**5

    def __post_init__(self) -> None:
        # the differences of the tail formula need g_0 .. g_3
        if self.n_max < 3:
            raise ValueError("n_max must be >= 3")
        if not 0 < self.rel_tol < math.inf:
            raise ValueError("rel_tol must be positive and finite")


class _EvalCounter:
    __slots__ = ("f", "count", "budget")

    def __init__(self, f: Callable[[float], float], budget: int):
        self.f = f
        self.count = 0
        self.budget = budget

    def __call__(self, x: float) -> float:
        if self.count >= self.budget:
            raise QuadratureError(
                f"quadrature budget of {self.budget} evaluations exhausted"
            )
        self.count += 1
        y = self.f(x)
        if not math.isfinite(y):
            raise QuadratureError(f"integrand is {y!r} at x={x!r}")
        return y

    def check(self, x: float, y: float) -> float:
        """Count y = f(x), evaluated in a stack, as :meth:`__call__` would."""
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


# Matsubara terms evaluated per call of the integrand: enough to spread
# the per-call overhead, few enough that the terms computed past a stop
# (at most _BLOCK - 1) stay cheap and the stacked arrays stay small
_BLOCK = 32
# successive terms under rel_tol that end the sum: the four differenced
# at its cut
_CONSECUTIVE_SMALL = 4
# Euler-Maclaurin weights, at a = xi_(N+1/2), of the differences that
# stand for h^2 g'(a), h^4 g'''(a) and h^6 g^(5)(a): 1/24; 7/5760 plus
# the 10/5760 that cancel the h^2 error of the first difference; and
# 31/967680 plus the h^4 errors of both differences, 336/967680
_EM2 = 1.0 / 24.0
_EM4 = 17.0 / 5760.0
_EM6 = 367.0 / 967680.0


def _matsubara_terms(g: Callable[[np.ndarray], np.ndarray], t_step: float,
                     n_max: int):
    """(n, g(xi_n)) for n = 0 .. n_max, evaluated _BLOCK terms per call.

    A non-finite value raises once it is reached, so values past the
    caller's stop are never checked.
    """
    for start in range(0, n_max + 1, _BLOCK):
        ns = np.arange(start, min(start + _BLOCK, n_max + 1))
        values = np.asarray(g(ns * t_step), dtype=float)
        for n, value in zip(ns.tolist(), values.tolist()):
            if not math.isfinite(value):
                raise QuadratureError(
                    f"matsubara term is {value!r} at xi={n * t_step!r}")
            yield n, value


def matsubara_sum(g: Callable[[np.ndarray], np.ndarray], temperature: float,
                  spec: MatsubaraSpec | None = None,
                  scale: float = 1.0) -> EnergyResult:
    """Thermal sum  k_B T * [ g(0)/2 + sum_{n>=1} g(n h) ],  h = 2 pi k_B T.

    ``g`` maps a 1-D array of frequencies to the array of its values.  The
    sum calls it on blocks of 32 successive xi_n = n h.  The terms n <= N
    are summed, and the rest is the midpoint Euler-Maclaurin formula at
    a = xi_(N+1/2):

        h sum_{n>N} g(nh) = int_a^inf g + (h^2/24) g'(a)
                            - (7 h^4/5760) g'''(a) + O(h^6 g^(5)),

    with the derivatives from differences of terms already computed,
    c2 = (h/24)(g_(N+1) - g_N) and
    c4 = (17/5760) h (g_(N+2) - 3 g_(N+1) + 3 g_N - g_(N-1)), whose 17
    absorbs the h^2 error of the first difference.  The value is
    T sum_{n<=N} + (int_a^inf g + c2 - c4)/2pi.  The tail integral runs
    once, on stacks of up to 32 nodes centred on max(a, ``scale``), the
    caller's node scale as in :func:`integrate_semi_infinite`.

    The cut is N = n - 2 at the first term n that ends the sum:

    * a block end n = 31, 63, ... where g is smooth on the step h:
      |c4| + |c6| <= 2pi rel_tol T |running sum|, with
      c6 = (367/967680) h (fifth difference of g_(N-3) .. g_(N+2)) the
      size of the h^6 remainder.  |c4| + |c6| is the truncation error;
      c6 keeps a cut on a zero of g''', where c4 vanishes while the
      remainder does not, from passing for exact;
    * the fourth successive term under rel_tol times the running sum:
      the exit at high T, where h reaches the scale on which g varies
      and the corrections are not trusted.  The truncation error is
      h |g_N| + |c2| + |c4|, the first term bounding
      |int_a^inf g - h sum_{n>N} g_n| where |g| falls monotonically;
    * n = ``n_max``, with the same truncation error.

    The error is the truncation error plus the tail integral's estimate,
    over 2pi, plus the rounding 4 eps T sum|terms|.  ``evaluations``
    counts the summed terms, the two terms past N and the tail nodes.
    The terms the last block holds past n are discarded unseen: not
    counted and not checked.  A counted non-finite term raises
    :class:`QuadratureError` naming its xi_n.
    """
    spec = spec or MatsubaraSpec()
    if not temperature > 0:
        raise ValueError("temperature must be positive")
    t_step = 2.0 * math.pi * temperature
    if _BLOCK * t_step == math.inf:
        raise ValueError("temperature too high: the frequencies of the "
                         "first Matsubara block overflow a double")
    if not 0 < scale < math.inf:
        raise ValueError("scale must be positive and finite")
    values = []
    partial = 0.0
    small_run = 0
    for n, value in _matsubara_terms(g, t_step, spec.n_max):
        values.append(value)
        partial += value if n else 0.5 * value
        bound = spec.rel_tol * max(abs(partial), 1e-300)
        small_run = small_run + 1 if n and abs(value) < bound else 0
        if n < 3:
            continue
        # the d's are the c's over h, so that no tiny T underflows them
        g_before, g_cut, g_after, g_last = values[n - 3:]
        d2 = _EM2 * (g_after - g_cut)
        d4 = _EM4 * (g_last - 3.0 * g_after + 3.0 * g_cut - g_before)
        if n % _BLOCK == _BLOCK - 1:
            f0, f1, f2, f3, f4, f5 = values[n - 5:]
            d6 = _EM6 * (f5 - 5.0 * f4 + 10.0 * f3 - 10.0 * f2 + 5.0 * f1
                         - f0)
            truncation = abs(d4) + abs(d6)
            if truncation <= bound:
                break
        if n == spec.n_max or small_run >= _CONSECUTIVE_SMALL:
            truncation = abs(g_cut) + abs(d2) + abs(d4)
            break

    cut = n - 2
    terms = [0.5 * values[0]] + values[1:cut + 1]
    xi_mid = (cut + 0.5) * t_step
    try:
        tail = integrate_semi_infinite(lambda x: g(xi_mid + x),
                                       QuadratureSpec(rel_tol=spec.rel_tol),
                                       max(xi_mid, scale), _BLOCK)
    except QuadratureError as exc:
        raise QuadratureError(
            f"matsubara tail did not converge after n={n}: {exc}") from exc
    value = (temperature * (math.fsum(terms) + d2 - d4)
             + tail.value / (2.0 * math.pi))
    err = (temperature * (truncation
                          + 4.0 * _EPS * math.fsum(abs(t) for t in terms))
           + tail.error_estimate / (2.0 * math.pi))
    return EnergyResult(value, err, n + 1 + tail.evaluations)
