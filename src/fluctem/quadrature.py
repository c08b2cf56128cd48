"""Quadrature engines for the semi-infinite, principal-value, and
Matsubara-sum integrals used throughout the package.

Two engines serve them:

* tanh-sinh on [0, inf) (``integrate_semi_infinite``): double-exponential
  nodes through the substitution x = s*exp(pi*sinh(k*h)), which is the
  tanh-sinh rule composed with the algebraic map x = s*t/(1-t).  Smooth
  integrands with exponential or algebraic tails converge at machine
  precision with a few hundred nodes.
* adaptive Gauss-Legendre on finite intervals (``integrate_interval`` and
  the windows of ``integrate_pv``): globally adaptive bisection with an
  embedded Gauss-Legendre error estimate.

The error estimate of both engines is the difference of the last two
refinement levels inflated by a factor 2 (plus a machine-rounding floor), so
reported errors stay on the safe side of the truth.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from functools import lru_cache
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
    """Budget exhausted, NaN integrand, or non-convergent tail."""


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and budget for one integration task.

    ``decay_scale`` is a frequency hint: the [0, inf) map places half of
    its nodes below it.  ``None`` lets the caller of each physics module
    pick a scale from the model (falling back to 1.0).
    """

    rel_tol: float = 1e-9
    abs_tol: float = 1e-14
    max_evals: int = 10**6
    decay_scale: float | None = None

    def __post_init__(self) -> None:
        if not (0 < self.rel_tol < math.inf and 0 < self.abs_tol < math.inf):
            raise ValueError("tolerances must be positive and finite")
        if self.max_evals < 100:
            raise ValueError("max_evals must be >= 100")
        if self.decay_scale is not None \
                and not 0 < self.decay_scale < math.inf:
            raise ValueError("decay_scale must be positive and finite")


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


@lru_cache(maxsize=32)
def _leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(n)


def _tolerance(spec: QuadratureSpec, value: float) -> float:
    return max(spec.abs_tol, spec.rel_tol * abs(value))


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
        if math.isnan(y):
            raise QuadratureError(f"integrand returned NaN at x={x!r}")
        return y


def _exp_sinh_level(f: _EvalCounter, scale: float, h: float, odd_only: bool
                     ) -> tuple[float, float]:
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


def _integrate_exp_sinh(f: _EvalCounter, spec: QuadratureSpec, scale: float
                         ) -> EnergyResult:
    h = 0.5
    total, total_abs = _exp_sinh_level(f, scale, h, odd_only=False)
    value = h * total
    prev = math.inf
    for level in range(1, _MAX_LEVELS + 1):
        h *= 0.5
        add, add_abs = _exp_sinh_level(f, scale, h, odd_only=True)
        total += add
        total_abs += add_abs
        prev, value = value, h * total
        diff = abs(value - prev)
        err = max(2.0 * diff, 4.0 * _EPS * h * total_abs)
        if level >= 2 and err <= _tolerance(spec, value):
            return EnergyResult(value, err, f.count)
    raise QuadratureError(
        f"tanh_sinh failed to reach tolerance within {f.count} evaluations"
    )


def _panel_values(f: _EvalCounter, lo: float, hi: float, order: int
                   ) -> tuple[float, float]:
    """Embedded Gauss-Legendre pair on one panel: (value, error estimate)."""
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    xs_lo, ws_lo = _leggauss(order)
    xs_hi, ws_hi = _leggauss(2 * order)
    v_lo = half * math.fsum(w * f(mid + half * x) for x, w in zip(xs_lo, ws_lo))
    v_hi = half * math.fsum(w * f(mid + half * x) for x, w in zip(xs_hi, ws_hi))
    return v_hi, abs(v_hi - v_lo)


def _integrate_adaptive(f: _EvalCounter, lo: float, hi: float,
                        spec: QuadratureSpec, order: int = 12) -> EnergyResult:
    """Globally adaptive bisection on a finite interval, deterministic order."""
    v, e = _panel_values(f, lo, hi, order)
    seq = 0
    heap = [(-e, seq, lo, hi, v, e)]
    while True:
        total = math.fsum(item[4] for item in heap)
        total_err = math.fsum(item[5] for item in heap)
        if 2.0 * total_err <= _tolerance(spec, total):
            break
        worst = heapq.heappop(heap)
        a, b = worst[2], worst[3]
        if worst[5] < _EPS * abs(total) or (b - a) < 64 * _EPS * max(abs(a), abs(b), 1.0):
            # worst panel is at rounding level: cannot do better
            heapq.heappush(heap, worst)
            break
        m = 0.5 * (a + b)
        for panel_lo, panel_hi in ((a, m), (m, b)):
            seq += 1
            pv, pe = _panel_values(f, panel_lo, panel_hi, order)
            heapq.heappush(heap, (-pe, seq, panel_lo, panel_hi, pv, pe))
    segments = sorted(heap, key=lambda item: item[2])
    value = math.fsum(s[4] for s in segments)
    err = max(2.0 * math.fsum(s[5] for s in segments),
              4.0 * _EPS * math.fsum(abs(s[4]) for s in segments))
    return EnergyResult(value, err, f.count)


def integrate_semi_infinite(f: Callable[[float], float],
                            spec: QuadratureSpec | None = None) -> EnergyResult:
    """Integrate ``f`` over [0, inf).

    ``f`` must be finite on (0, inf) and decay integrably; the origin itself
    is never evaluated.  Raises :class:`QuadratureError` when the evaluation
    budget runs out or ``f`` returns NaN.
    """
    spec = spec or QuadratureSpec()
    return _integrate_exp_sinh(_EvalCounter(f, spec.max_evals), spec,
                               spec.decay_scale or 1.0)


def integrate_interval(f: Callable[[float], float], lo: float, hi: float,
                       spec: QuadratureSpec | None = None) -> EnergyResult:
    """Adaptive integration of ``f`` over the finite interval [lo, hi]."""
    spec = spec or QuadratureSpec()
    if not hi > lo:
        raise ValueError("need hi > lo")
    counter = _EvalCounter(f, spec.max_evals)
    return _integrate_adaptive(counter, lo, hi, spec)


def integrate_pv(f_regular: Callable[[float], float], pole: float,
                 window: float | None = None,
                 spec: QuadratureSpec | None = None) -> EnergyResult:
    """Principal value of  integral_0^inf f_regular(w) / (pole^2 - w^2) dw.

    The singularity at w = pole is removed by subtraction: over the window
    [pole-window, pole+window] the integrand is replaced by
    (f(w) - f(pole))/(pole^2 - w^2), which is finite, and the subtracted
    piece is restored through the analytic principal value

        PV int_{a-D}^{a+D} dw/(a^2 - w^2) = ln((2a+D)/(2a-D)) / (2a).

    Outside the window the integrand is regular and integrated directly.
    """
    spec = spec or QuadratureSpec()
    a = pole
    if a <= 0:
        raise ValueError("pole must be positive")
    delta = 0.5 * a if window is None else window
    if not 0 < delta < a:
        raise ValueError("window must satisfy 0 < window < pole")

    f_at_pole = f_regular(a)
    results = []

    def whole(w: float) -> float:
        return f_regular(w) / ((a - w) * (a + w))

    if a - delta > 0:
        results.append(integrate_interval(whole, 0.0, a - delta, spec))

    def subtracted(w: float) -> float:
        return (f_regular(w) - f_at_pole) / ((a - w) * (a + w))

    results.append(integrate_interval(subtracted, a - delta, a, spec))
    results.append(integrate_interval(subtracted, a, a + delta, spec))

    analytic = f_at_pole * math.log((2 * a + delta) / (2 * a - delta)) / (2 * a)

    def tail(x: float) -> float:
        return whole(a + delta + x)

    tail_scale = spec.decay_scale or a
    tail_spec = QuadratureSpec(rel_tol=spec.rel_tol, abs_tol=spec.abs_tol,
                               max_evals=spec.max_evals, decay_scale=tail_scale)
    results.append(integrate_semi_infinite(tail, tail_spec))

    value = math.fsum(r.value for r in results) + analytic
    err = math.fsum(r.error_estimate for r in results) + 4.0 * _EPS * abs(analytic)
    evals = sum(r.evaluations for r in results) + 1
    return EnergyResult(value, err, evals)


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
    32 successive xi_n; the tail integrals call it node by node.  Terms
    are accumulated one by one until three successive terms fall below
    ``rel_tol`` times the running sum, or ``n_max`` is
    reached.  The last block may run up to 31 terms past that stop; those
    are discarded and not counted, so ``evaluations`` (summed terms, tail
    nodes and one trapezoid end point) equals that of a term-by-term
    evaluation.  A non-finite summed term raises :class:`QuadratureError`
    naming its xi_n.  The remainder is restored by the midpoint integral
    estimate (1/2pi) * int_{xi_(N+1/2)}^inf g(xi) dxi, whose own accuracy
    is gauged against the trapezoidal association and reported in the
    error.
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
    xi_next = (n + 1.0) * t_step
    tail_spec = QuadratureSpec(rel_tol=spec.rel_tol, abs_tol=1e-300,
                               decay_scale=max(xi_mid, t_step))
    try:
        mid = integrate_semi_infinite(lambda x: float(g(xi_mid + x)),
                                      tail_spec)
        trap = integrate_semi_infinite(lambda x: float(g(xi_next + x)),
                                       tail_spec)
    except QuadratureError as exc:
        raise QuadratureError(
            f"matsubara tail did not converge after n_max={n}: {exc}") from exc
    g_next = float(g(xi_next))
    tail_mid = mid.value / (2.0 * math.pi)
    tail_trap = trap.value / (2.0 * math.pi) + 0.5 * temperature * g_next
    value = temperature * math.fsum(terms) + tail_mid
    err = (2.0 * abs(tail_mid - tail_trap)
           + (mid.error_estimate + trap.error_estimate) / (2.0 * math.pi)
           + 4.0 * _EPS * temperature * math.fsum(abs(t) for t in terms))
    evals = len(terms) + mid.evaluations + trap.evaluations + 1
    return EnergyResult(value, err, evals)
