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
"""

from __future__ import annotations

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
        if self.n_max < 1:
            raise ValueError("n_max must be >= 1")
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


def _exp_sinh_level(f: Callable[[float], float], scale: float, h: float,
                    odd_only: bool) -> tuple[float, float]:
    """One refinement level of the double-exponential ladder.

    Returns (sum of w*f contributions without the h factor, sum of |w*f|).
    """
    terms: list[float] = []
    k_max = int(_DE_CUTOFF / h)
    peak = 0.0
    for direction in (1, -1):
        start = 1 if odd_only or direction < 0 else 0
        step = 2 if odd_only else 1
        dead = 0
        for k in range(start, k_max + 1, step):
            kh = direction * k * h
            z = 0.5 * math.pi * math.sinh(kh)
            x = scale * math.exp(2.0 * z)
            if x == 0.0 or math.isinf(x):
                break
            w = math.pi * math.cosh(kh) * x
            t = w * f(x)
            terms.append(t)
            peak = max(peak, abs(t))
            # truncate a direction once its terms sit far under the peak
            if peak > 0.0 and abs(t) <= 1e-17 * peak:
                dead += 1
                if dead >= 3:
                    break
            else:
                dead = 0
    return math.fsum(terms), math.fsum(abs(t) for t in terms)


def _integrate_exp_sinh(g: Callable[[float], float], counter: _EvalCounter,
                        spec: QuadratureSpec, scale: float,
                        target: float = 0.0) -> EnergyResult:
    """int_0^inf g(u) du on the ladder centred on ``scale``; ``counter``
    counts the calls of the caller's integrand that ``g`` makes.  An
    estimate under ``target`` also stops the ladder."""
    h = 0.5
    total, total_abs = _exp_sinh_level(g, scale, h, odd_only=False)
    value = h * total
    for level in range(1, _MAX_LEVELS + 1):
        h *= 0.5
        add, add_abs = _exp_sinh_level(g, scale, h, odd_only=True)
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
                            scale: float = 1.0) -> EnergyResult:
    """Integrate ``f`` over [0, inf).

    Half of the nodes lie below ``scale``.  ``f`` must be finite on
    (0, inf) and decay integrably; the origin is never evaluated.  Raises
    :class:`QuadratureError` when the evaluation budget runs out or ``f``
    returns NaN or an infinity.
    """
    if not 0 < scale < math.inf:
        raise ValueError("scale must be positive and finite")
    spec = spec or QuadratureSpec()
    counter = _EvalCounter(f, spec.max_evals)
    return _integrate_exp_sinh(counter, counter, spec, scale)


def integrate_interval(f: Callable[[float], float], lo: float, hi: float,
                       spec: QuadratureSpec | None = None) -> EnergyResult:
    """Tanh-sinh integration of ``f`` over the finite interval [lo, hi].

    The ladder on u in (0, inf) is mapped through w = lo + (hi-lo) u/(1+u).
    Neither end point is evaluated: a node whose w rounds onto an end
    carries a weight below rounding and contributes nothing.
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
# the per-call overhead, few enough that the terms computed past the stop
# (at most _BLOCK - 1) stay cheap and the stacked arrays stay small
_BLOCK = 32
# successive terms under rel_tol that end the sum
_CONSECUTIVE_SMALL = 3


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
                  spec: MatsubaraSpec | None = None) -> EnergyResult:
    """Thermal sum  k_B T * [ g(0)/2 + sum_{n>=1} g(2 pi n k_B T) ].

    ``g`` maps a 1-D array of frequencies to the array of its values, and
    a single frequency to its value.  The sum calls it on blocks of up to
    32 successive xi_n; the tail integral calls it node by node.  Terms
    are accumulated one by one until three successive terms fall below
    ``rel_tol`` times the running sum, or ``n_max`` is reached.  The last
    block may run up to 31 terms past that stop; those are discarded and
    not counted, so ``evaluations`` (summed terms, tail nodes and three
    gauge points) equals that of a term-by-term evaluation.  A non-finite
    summed term raises :class:`QuadratureError` naming its xi_n.  The
    remainder is the midpoint integral (1/2pi) int_{xi_(N+1/2)}^inf g.  Its
    gauge, twice the distance to the trapezoidal association, is
    (1/pi)|int_{xi_(N+1/2)}^{xi_(N+1)} g - pi T g(xi_(N+1))|, with that
    integral by Simpson's rule.
    """
    spec = spec or MatsubaraSpec()
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    t_step = 2.0 * math.pi * temperature
    terms = []
    partial = 0.0
    small_run = 0
    for n, value in _matsubara_terms(g, t_step, spec.n_max):
        term = value if n else 0.5 * value
        terms.append(term)
        partial += term
        if n and abs(term) < spec.rel_tol * max(abs(partial), 1e-300):
            small_run += 1
            if small_run >= _CONSECUTIVE_SMALL:
                break
        else:
            small_run = 0

    xi_mid = (n + 0.5) * t_step
    try:
        mid = integrate_semi_infinite(lambda x: float(g(xi_mid + x)),
                                      QuadratureSpec(rel_tol=spec.rel_tol),
                                      max(xi_mid, t_step))
    except QuadratureError as exc:
        raise QuadratureError(
            f"matsubara tail did not converge after n_max={n}: {exc}") from exc
    g0, g1, g2 = np.asarray(
        g(np.array([xi_mid, (n + 0.75) * t_step, (n + 1.0) * t_step])),
        dtype=float).tolist()
    # (1/pi)[(h/12)(g0 + 4 g1 + g2) - (h/2) g2], Simpson on the half step
    gauge = t_step / (12.0 * math.pi) * abs(g0 + 4.0 * g1 - 5.0 * g2)
    value = temperature * math.fsum(terms) + mid.value / (2.0 * math.pi)
    err = (gauge + mid.error_estimate / (2.0 * math.pi)
           + 4.0 * _EPS * temperature * math.fsum(abs(t) for t in terms))
    return EnergyResult(value, err, len(terms) + mid.evaluations + 3)
