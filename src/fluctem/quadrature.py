"""Quadrature for the semi-infinite, finite-interval, principal-value and
Matsubara-sum integrals used throughout the package.

One engine serves every integral: the double-exponential ladder on
(0, inf), with nodes x = s*exp(pi*sinh(k*h)).  That is the tanh-sinh rule
composed with the algebraic map x = s*t/(1-t) (Takahasi & Mori, Publ. RIMS
9, 721 (1974)), so

* ``integrate_semi_infinite`` runs it on [0, inf) with the scale s as
  given, ``integrate_rows`` runs R such integrals at once, and
  ``integrate_shared`` two whose integrands share their nodes' work;
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

One walk takes each direction of a level outward from the centre.  It
ends the ladder where x underflows or its weight overflows, counts each
value it takes against the ``max_evals`` budget, refuses a non-finite
one, and cuts the direction after three successive terms under 1e-17 of
the level's peak.  Values it does not take are never counted, budgeted or
checked.  It takes them in node order from one of three sources, each the
fastest measured on its integrands:

* a float integrand, passed without a ``stack``, is called once per
  node, as the walk reaches it.  ``london_energy``, the interval map of
  ``bethe_shift_quadrature`` and ``integrate_pv`` hand such scalar
  integrands, and this walk is the reference that the other two sources
  are tested against, node for node.
* ``integrate_semi_infinite(..., stack=K)``, K >= 1, calls an array
  integrand on stacks of at most K nodes.  A direction's first call on
  a level takes the nodes inside the previous level's reach and four
  more, eight on level 0, and both directions go in one call where the
  two windows fit in K; later calls take four nodes.  A log-det call
  costs fixed numpy work worth several small nodes, so the first call
  covers about all that a level keeps, for a few nodes past the cut;
  whole levels computed nodes out to x ~ 1e300, and fetching four at
  a time made twice the calls.  The Matsubara tail takes stacks of up
  to 32.
* ``integrate_rows`` evaluates each level of every unconverged row as one
  (R, n) array, and the walk takes each row's values from its slice.
  Whole levels pay only across rows, such as the points of a separation
  scan.
* ``integrate_shared`` runs two ladders on one scale.  The first takes
  stacks as above from an integrand that gives both functions' values;
  the second takes its values of the same nodes, and computes its own
  only where the first never went: the log det's M gives the second
  order's ||M||_F^2 for one more reduction.
Every source gives the nodes, kept values, result and count of the float
walk bit for bit, provided each array element equals the float call.  One
level loop applies the stop rule to a single integral and to each row.

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
import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import EnergyResult, unwrap

__all__ = [
    "QuadratureSpec",
    "QuadratureError",
    "integrate_semi_infinite",
    "integrate_rows",
    "integrate_shared",
    "integrate_interval",
    "integrate_pv",
    "matsubara_sum",
]

_EPS = math.ulp(1.0)

# |k*h| cap for the double-exponential node ladder: pi*sinh(6.1) ~ 700 keeps
# x = s*exp(pi*sinh(kh)) inside double range.
_DE_CUTOFF = 6.1
_MAX_LEVELS = 13
# nodes a stacked direction fetches past the previous level's reach, in
# its first call and in each later one: enough for the three terms that
# cut it
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


def _fault(count: int, budget: float, x: float, y: float) -> QuadratureError:
    """The error of taking y = f(x) as value ``count`` + 1: a spent budget
    if ``count`` has reached it, else a non-finite y."""
    if count >= budget:
        return QuadratureError(
            f"quadrature budget of {budget} evaluations exhausted")
    return QuadratureError(f"integrand is {y!r} at x={x!r}")


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


# A source gives the walk its values: source(scale, ladder, reach) returns,
# for each direction (start, nodes) of the level's ladder, an iterator
# over f at x = scale u of its nodes in order, which the walk draws on no
# further than it takes values.  ``reach`` is the previous level's |k| per
# direction, None on level 0.

def _floats(f: Callable[[float], float]):
    """The source of a float integrand: one call of ``f`` per node."""
    return lambda scale, ladder, reach: [
        map(f, (scale * u for u, _ in nodes)) for _, nodes in ladder]


def _call(f: Callable[[np.ndarray], np.ndarray], scale: float,
          chunks) -> list:
    """``f`` on the nodes of all ``chunks`` as one array: the values of
    each chunk, sliced from the last axis of ``f``'s.  A chunk's nodes
    stop before an x = scale u that is 0 or inf, and numpy warnings are
    off while ``f`` runs."""
    xs, ends = [], [0]
    for nodes in chunks:
        for u, _ in nodes:
            x = scale * u
            if x == 0.0 or math.isinf(x):
                break
            xs.append(x)
        ends.append(len(xs))
    with np.errstate(all="ignore"):
        values = np.asarray(f(np.array(xs)), dtype=float)
    return [values[..., lo:hi].tolist() for lo, hi in zip(ends, ends[1:])]


def _stacked(f: Callable[[np.ndarray], np.ndarray], stack: int,
             scale: float, ladder, reach, kept=None, start=(0, 0)):
    """The source of an array integrand: per direction of ``ladder``, f at
    x = scale u of its nodes in order from index ``start``, from calls of
    ``f`` on up to ``stack`` nodes.

    A direction's first call from its centre takes its window: the nodes
    inside the previous level's ``reach`` and _STEP more, or 2 _STEP on
    level 0, where ``reach`` is None.  The walk keeps about that many, so
    one call serves most of a level.  When both directions start at the
    centre and their windows fit in ``stack``, one call takes both, at
    the walk's first draw from either.  Every later call, and a first
    one from past the centre, takes _STEP nodes.  Nothing is fetched
    before the walk draws on it.  With ``kept``, ``f`` returns the values
    of two functions: the iterators give the first, and kept[d] gets the
    second of each node of direction d as its iterator draws that node's
    stack, in node order.
    """
    nodes = [n for _, n in ladder]
    window = [2 * _STEP] * 2 if reach is None else [_STEP + k for k in reach]
    merge = not any(start) and sum(window) <= stack
    merged = []

    def values(d):
        fetched, size = start[d], _STEP if start[d] else window[d]
        while True:
            size = min(stack, size)
            if merge and not fetched:
                if not merged:
                    merged.extend(_call(f, scale, [
                        n[:w] for n, w in zip(nodes, window)]))
                y = merged[d]
            else:
                (y,) = _call(f, scale, [nodes[d][fetched:fetched + size]])
            if kept is not None:
                y, second = y
                kept[d].extend(second)
            yield from y
            fetched, size = fetched + size, _STEP

    return [values(0), values(1)]


def _stacks(f: Callable[[np.ndarray], np.ndarray], stack: int):
    """The source of an array integrand: :func:`_stacked` calls of ``f``
    on up to ``stack`` nodes."""
    return functools.partial(_stacked, f, stack)


def _walk(source, scale: float, h: float, odd_only: bool,
          reach: tuple[int, int] | None, count: int, budget: float
          ) -> tuple[float, float, tuple[int, int], int]:
    """One refinement level of the double-exponential ladder, its values
    taken from ``source``.

    Returns (sum of w*f contributions without the h factor, sum of |w*f|,
    |k| of the last node above the cut in each direction, ``count`` plus
    the values taken).  Each direction runs outward until three
    successive terms sit far under the peak, which runs across both.
    """
    ladder = _level_nodes(h, odd_only)
    terms: list[float] = []
    inf = math.inf
    peak = 0.0
    step = 2 if odd_only else 1
    reached = []
    for (start, nodes), values in zip(ladder, source(scale, ladder, reach)):
        room = budget - count
        dead = kept = live = 0
        for u, c in nodes:
            x = scale * u
            w = c * x
            # the ladder ends where x underflows or its weight overflows
            if x == 0.0 or w == inf:
                break
            y = next(values)
            # -inf < y < inf is false for a NaN too
            if kept >= room or not -inf < y < inf:
                raise _fault(count + kept, budget, x, y)
            t = w * y
            terms.append(t)
            kept += 1
            a = abs(t)
            if a > peak:
                peak = a
            # truncate a direction once its terms sit far under the peak
            if peak > 0.0 and a <= 1e-17 * peak:
                dead += 1
                if dead >= 3:
                    break
            else:
                dead = 0
                live = kept
        count += kept
        reached.append(max(start + step * (live - 1), 0))
    return (math.fsum(terms), math.fsum(map(abs, terms)), tuple(reached),
            count)


def _ladders(sources, scales, spec: QuadratureSpec, target: float = 0.0,
             count: int = 0, budget: float | None = None
             ) -> list[EnergyResult | QuadratureError]:
    """The level loop of one ladder per scale, run side by side: the result
    of each, or its error.

    ``sources(h, odd_only, rows)`` gives the source of each row in ``rows``
    (the unconverged ones, in order) for one level.  Each row walks on its
    own scale from ``count`` evaluations against ``budget`` (default
    ``spec.max_evals``) and stops by itself; an estimate under ``target``
    also stops it.  A spent budget, a non-finite value or a row that does
    not converge is that row's :class:`QuadratureError`.
    """
    budget = spec.max_evals if budget is None else budget
    results: dict[int, EnergyResult | QuadratureError] = {}
    # per unconverged row: sum, sum of |terms|, value, count, reach
    state = {row: (0.0, 0.0, 0.0, count, None)
             for row in range(len(scales))}
    h = 1.0
    for level in range(_MAX_LEVELS + 1):
        if not state:
            break
        h *= 0.5
        rows = list(state)
        for row, source in zip(rows, sources(h, level > 0, rows)):
            total, total_abs, value, n, reach = state.pop(row)
            try:
                add, add_abs, reach, n = _walk(source, scales[row], h,
                                               level > 0, reach, n, budget)
            except QuadratureError as exc:
                results[row] = exc
                continue
            total += add
            total_abs += add_abs
            prev, value = value, h * total
            rounding = 4.0 * _EPS * h * total_abs
            err = max(2.0 * abs(value - prev), rounding)
            if level >= 2 \
                    and err <= max(spec.rel_tol * abs(value), target, rounding):
                results[row] = EnergyResult(value, err, n)
            else:
                state[row] = (total, total_abs, value, n, reach)
    for row, (*_, n, _) in state.items():
        results[row] = QuadratureError(
            f"tanh_sinh failed to reach tolerance within {n} evaluations")
    return [results[row] for row in range(len(scales))]


def _integrate(source, spec: QuadratureSpec, scale: float,
               target: float = 0.0, count: int = 0,
               budget: float | None = None) -> EnergyResult:
    """The one ladder of ``source`` centred on ``scale`` (see
    :func:`_ladders`); raises its :class:`QuadratureError`."""
    (res,) = _ladders(lambda *_: [source], [scale], spec, target, count,
                      budget)
    return unwrap(res)


def integrate_semi_infinite(f: Callable[[float], float],
                            spec: QuadratureSpec | None = None,
                            scale: float = 1.0,
                            stack: int | None = None) -> EnergyResult:
    """Integrate ``f`` over [0, inf).

    Half of the nodes lie below ``scale``.  ``f`` must be finite on
    (0, inf) and decay integrably; the origin is never evaluated.  Raises
    :class:`QuadratureError` when the evaluation budget runs out or ``f``
    returns NaN or an infinity.

    Without ``stack``, ``f`` takes one float at a time.  A ``stack`` of
    K >= 1 makes ``f`` take a 1-D array of at most K nodes and return the
    array of its values, and each refinement level is evaluated in such
    stacks; a level's first stack can hold the first nodes of both
    directions (:func:`_stacked`).  The values a stack holds past a
    direction's cut are discarded unseen: they are not counted, budgeted
    or checked, and numpy warnings are off while ``f`` runs.  Nodes, kept
    values, result and ``evaluations`` are those of the float calls bit
    for bit, provided each array element equals the float call.
    """
    if not 0 < scale < math.inf:
        raise ValueError("scale must be positive and finite")
    if stack is not None and stack < 1:
        raise ValueError("stack must be >= 1")
    source = _floats(f) if stack is None else _stacks(f, stack)
    return _integrate(source, spec or QuadratureSpec(), scale)


def integrate_shared(f: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
                     g: Callable[[np.ndarray], np.ndarray],
                     spec: QuadratureSpec | None = None, scale: float = 1.0,
                     stack: int = 1) -> list[EnergyResult | QuadratureError]:
    """Integrate two functions over [0, inf) on one ladder centred on
    ``scale``: the result, or the error, of each.

    ``f`` takes a 1-D array of nodes and returns the arrays of both
    functions' values there; ``g`` those of the second alone.  The first
    integral calls ``f`` as :func:`integrate_semi_infinite` calls an
    integrand with this ``stack``, and keeps the second values of each
    node it computes.  The second integral takes those, and calls ``g``
    only on nodes of a level past them.  Each keeps its own walk, cut,
    stop, estimate and ``max_evals`` budget, so the first result is that
    of :func:`integrate_semi_infinite` on ``f``'s first values bit for
    bit, and the second that of ``g`` alone, provided each element of
    ``g`` equals ``f``'s second value.  Errors are returned, not raised,
    as by :func:`integrate_rows`.
    """
    if not 0 < scale < math.inf:
        raise ValueError("scale must be positive and finite")
    if stack < 1:
        raise ValueError("stack must be >= 1")

    def sources(h, odd_only, rows):
        # the second values of the nodes the first row computed, per
        # direction: the first row walks each level before the second
        shared = ([], [])

        def both(scale, ladder, reach):
            return _stacked(f, stack, scale, ladder, reach, shared)

        def alone(scale, ladder, reach):
            values = _stacked(g, stack, scale, ladder, reach,
                              start=tuple(map(len, shared)))
            return [itertools.chain(kept, v)
                    for kept, v in zip(shared, values)]

        return [(both, alone)[row] for row in rows]

    return _ladders(sources, [scale, scale], spec or QuadratureSpec())


@functools.lru_cache(maxsize=None)
def _level_arrays(h: float, odd_only: bool) -> tuple[np.ndarray, int]:
    """The u of :func:`_level_nodes` as one array, direction k > 0 first,
    and the index where direction k < 0 starts."""
    (_, plus), (_, minus) = _level_nodes(h, odd_only)
    return np.array([u for u, _ in plus + minus]), len(plus)


def integrate_rows(f: Callable[[np.ndarray, np.ndarray], np.ndarray],
                   scales, spec: QuadratureSpec | None = None
                   ) -> list[EnergyResult | QuadratureError]:
    """Integrate R functions over [0, inf), row r on the ladder centred on
    ``scales[r]``; the result, or the error, of each row.

    ``f(x, rows)`` takes an (len(rows), n) array of nodes, whose row i
    belongs to integral ``rows[i]``, and returns the array of its values.
    Each refinement level evaluates both directions of every unconverged
    row in one call, and the walk of :func:`integrate_semi_infinite` takes
    each row's values from its slice: its own cut, ladder end, stop and
    ``max_evals`` budget.  Values past a row's cut are discarded unseen:
    they are not counted, budgeted or checked, and numpy warnings are off
    while the nodes are formed and ``f`` runs.  Nodes, kept values,
    results, ``evaluations`` and errors are those of the scalar walk bit
    for bit, provided each array element equals the float call; so no row
    depends on the others.  A spent budget, a non-finite kept value or a
    row that does not converge is returned as that row's
    :class:`QuadratureError`, not raised.
    """
    scales = np.asarray(scales, dtype=float)
    if not np.all((scales > 0) & (scales < math.inf)):
        raise ValueError("scales must be positive and finite")

    def sources(h, odd_only, rows):
        u, split = _level_arrays(h, odd_only)
        rows = np.array(rows, dtype=int)
        with np.errstate(all="ignore"):
            y = np.asarray(f(scales[rows, None] * u, rows), dtype=float)
        return [lambda *_, v=v: (iter(v[:split]), iter(v[split:]))
                for v in y.tolist()]

    return _ladders(sources, scales.tolist(), spec or QuadratureSpec())


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
    """The ladder on u centred on ``scale``, mapped to w in [lo, hi].  A
    node whose w rounds onto an end is a zero that calls nothing, so the
    calls of ``f`` are counted and checked here, and ``evaluations``
    counts them; the walk's own count of values has no budget."""
    width = hi - lo
    calls = 0

    def mapped(u: float) -> float:
        nonlocal calls
        v = 1.0 + u
        w = lo + width * (u / v)
        if not lo < w < hi:
            return 0.0
        y = f(w)
        if calls >= spec.max_evals or not math.isfinite(y):
            raise _fault(calls, spec.max_evals, w, y)
        calls += 1
        return y * (width / (v * v))

    res = _integrate(_floats(mapped), spec, scale, budget=math.inf)
    return EnergyResult(res.value, res.error_estimate, calls)


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
    calls = 0

    def f(w: float) -> float:
        nonlocal calls
        y = f_regular(w)
        if calls >= spec.max_evals or not math.isfinite(y):
            raise _fault(calls, spec.max_evals, w, y)
        calls += 1
        return y

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
    upper = _integrate(_floats(above), spec, s,
                       spec.rel_tol * abs(lower.value))
    return EnergyResult(lower.value + upper.value,
                        lower.error_estimate + upper.error_estimate, calls)


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
    caller's node scale as in :func:`integrate_semi_infinite`.  It stops
    at rel_tol of its own value, or once its error over 2pi fits in what
    rel_tol |head| leaves beside the head's own error, with the head
    T (sum_{n<=N} + (c2 - c4)/h) and its error the truncation and
    rounding below: a tail far under the head needs far fewer nodes for
    the sum's tolerance than for its own.

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
            if len(values) >= spec.max_evals:
                raise _fault(len(values), spec.max_evals, xi, value)
            values.append(value)
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
    head = temperature * (math.fsum(terms) + d2 - d4)
    head_err = temperature * (truncation
                              + 4.0 * _EPS * math.fsum(abs(t) for t in terms))
    try:
        # the tail nodes are counted on from the terms, in the same budget
        tail = _integrate(_stacks(lambda x: g(xi_mid + x), _BLOCK), spec,
                          max(xi_mid, scale),
                          2.0 * math.pi * (spec.rel_tol * abs(head) - head_err),
                          count=len(values))
    except QuadratureError as exc:
        raise QuadratureError(
            f"matsubara tail did not converge after n={n}: {exc}") from exc
    value = head + tail.value / (2.0 * math.pi)
    err = head_err + tail.error_estimate / (2.0 * math.pi)
    return EnergyResult(value, err, tail.evaluations)
