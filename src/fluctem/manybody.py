"""N-atom dispersion free energies from the coupled-dipole determinant.

Each atom is a polarizable point dipole; the 3N x 3N interaction matrix
couples distinct atoms through the Green tensor (self-blocks are exactly
zero, so single-atom self-energies never enter).  The interaction free
energy at T = 0 is

    (1/2 pi) int_0^inf d(xi)  log det [ 1 + A(i xi) T(i xi) ]

with A the block-diagonal polarizability matrix.  Finite temperature
replaces the integral by the standard thermal frequency sum with a
half-weighted zero term.  The determinant is evaluated through the
symmetrized product sqrt(A) T sqrt(A), whose real eigenvalues make the log
branch explicit: any eigenvalue crossing -1 means the coupled ground state
is unstable and the calculation refuses to continue.

The pair data a frequency needs (index pairs, distances, transverse and
static projectors) is computed once per :class:`SystemGeometry`, and the
Green blocks of all pairs come from one broadcast through
:func:`fluctem.green.imag_axis_green`: :func:`build_T` scatters them into
the 3N x 3N matrix, and :func:`second_order_energy` sums their squared
Frobenius norms directly.  The log-det integrand has one evaluation path,
which takes one frequency or a 1-D array of K: the Green blocks, alpha(i xi)
of each distinct model and T(xi) are evaluated for the whole array, and
one ``eigvalsh`` call solves the stacked (K, 3N, 3N) matrices.  The thermal
sum hands it blocks of Matsubara frequencies, and the tanh-sinh integrals
(the T = 0 energy, the second order and the thermal tail) stacks of their
nodes, at most 2**16 matrix elements at T = 0: about 113 nodes at N = 8,
9 at N = 27 and one at N = 64, where stacking measured no gain.  Every
stacked slice equals the single-frequency call bit for bit, so the
stacking changes no result.

``normal_mode_energy`` is the independent oracle for the electrostatic
limit: identical single-resonance atoms give mode frequencies
omega0 sqrt(1 + alpha_static t_k) over the eigenvalues t_k of the static
interaction matrix, and the half-sum of mode shifts must reproduce the
determinant route.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .core import EnergyResult, SPEED_OF_LIGHT
# dyadic_green_imag and static_green are the single-pair views of
# imag_axis_green; they stay importable from this module
from .green import (
    dyadic_green_imag,
    imag_axis_green,
    pair_projectors,
    static_green,
)
from .pairwise import PairSpec, PairValidity, validity_check
from .polarizability import KramersHeisenberg
from .quadrature import (
    QuadratureSpec,
    integrate_semi_infinite,
    matsubara_sum,
)

__all__ = [
    "StrongCouplingError",
    "SystemGeometry",
    "build_T",
    "free_energy_T0",
    "free_energy_finiteT",
    "second_order_energy",
    "normal_mode_energy",
    "phf_lambda_integral",
]


# Gauss-Legendre nodes of the coupling-constant integral
_PHF_NODES = 64
# matrix elements stacked per integrand call of the tanh-sinh integrals:
# (3N)^2 per node of the log det, about half that of the second order
_STACK_ELEMENTS = 2**16
# past this frequency every Green block is exactly zero (exp(-xi r/c)
# underflows at any r above 1e-145 bohr), while xi^2 still fits a double
_XI_CEILING = 1e150


class StrongCouplingError(RuntimeError):
    """Coupling strong enough to destabilize the coupled ground state."""


class SystemGeometry:
    """Immutable collection of polarizable sites.

    ``sites`` is a sequence of (position, model) pairs; positions are
    3-vectors in bohr.  Coincident sites are rejected outright; close
    approaches that strain the point-dipole picture are reported by
    :meth:`validity_reports` rather than rejected.  The pair data every
    frequency node reuses (index pairs i < j, distances, projectors) is
    computed here once.
    """

    def __init__(self, sites: Sequence[tuple[Sequence[float],
                                             KramersHeisenberg]]):
        positions = []
        models = []
        for k, (position, model) in enumerate(sites):
            p = np.asarray(position, dtype=float)
            if p.shape != (3,) or not np.all(np.isfinite(p)):
                raise ValueError(f"site {k} needs a finite 3-vector position")
            positions.append(p)
            models.append(model)
        self._positions = np.array(positions, dtype=float).reshape(-1, 3)
        self._positions.setflags(write=False)
        self._models = tuple(models)
        # alpha is evaluated once per distinct model and scattered to sites
        index: dict[KramersHeisenberg, int] = {}
        self._site_model = np.array(
            [index.setdefault(m, len(index)) for m in self._models],
            dtype=int)
        self._distinct_models = tuple(index)
        self._pair_i, self._pair_j = np.triu_indices(self.n_sites, k=1)
        with np.errstate(over="ignore"):
            delta = self._positions[self._pair_i] \
                - self._positions[self._pair_j]
            # the dot product core.separation uses: distances, and with
            # them the quadrature node scale set by min_separation, agree
            # bitwise with the single-pair functions
            self._pair_r = np.sqrt(
                (delta[:, None, :] @ delta[:, :, None])[:, 0, 0])
        if np.any(self._pair_r == 0.0):
            raise ValueError("coincident points")
        if not np.all(np.isfinite(self._pair_r)):
            raise ValueError("points too far apart for a finite distance")
        self._transverse, self._static = pair_projectors(
            delta / self._pair_r[:, None])
        # flat places of every pair block in the 3N x 3N matrix: the upper
        # copy at block (i, j), the lower one at (j, i)
        dim = 3 * self.n_sites
        i3 = 3 * self._pair_i[:, None, None]
        j3 = 3 * self._pair_j[:, None, None]
        a, b = np.arange(3)[:, None], np.arange(3)
        self._upper = (i3 + a) * dim + j3 + b
        self._lower = (j3 + a) * dim + i3 + b

    @property
    def n_sites(self) -> int:
        return len(self._models)

    @property
    def positions(self) -> np.ndarray:
        return self._positions

    @property
    def models(self) -> tuple[KramersHeisenberg, ...]:
        return self._models

    @property
    def pair_indices(self) -> tuple[np.ndarray, np.ndarray]:
        """Site indices (i, j) of every pair i < j, in row-major order."""
        return self._pair_i, self._pair_j

    def validity_reports(self) -> tuple[tuple[int, int, PairValidity], ...]:
        """Point-dipole validity verdict for every pair."""
        return tuple(
            (int(i), int(j),
             validity_check(PairSpec(self._models[i], self._models[j],
                                     float(r))))
            for i, j, r in zip(self._pair_i, self._pair_j, self._pair_r))

    def min_separation(self) -> float:
        return float(self._pair_r.min()) if self._pair_r.size else math.inf

    def pair_green(self, xi) -> np.ndarray:
        """Green tensors G(r_i, r_j, i xi) of all pairs i < j.

        (P, 3, 3) for one frequency, (K, P, 3, 3) for K of them.
        """
        return imag_axis_green(xi, self._pair_r, self._transverse,
                               self._static)

    def model_alphas(self, xi) -> np.ndarray:
        """alpha(i xi) of every distinct model, equal to ``alpha_imag``.

        (M,) for one frequency, (K, M) for K of them.
        """
        xi = _frequencies(xi)
        x2 = xi * xi
        return np.array([m.sum_terms(x2) for m in self._distinct_models]).T

    def alpha_values(self, xi) -> np.ndarray:
        """alpha(i xi) of every site, each distinct model evaluated once.

        (N,) for one frequency, (K, N) for K of them.
        """
        return self.model_alphas(xi)[..., self._site_model]


def _frequencies(xi) -> np.ndarray:
    """``xi`` as a float array clamped to _XI_CEILING; xi < 0 raises."""
    xi = np.asarray(xi, dtype=float)
    # Python min and max: far cheaper than numpy reductions on one or a
    # few entries, and every node of a quadrature passes here
    values = xi.ravel().tolist()
    if min(values, default=0.0) < 0:
        raise ValueError("imaginary-axis frequency must be >= 0")
    return np.minimum(xi, _XI_CEILING) \
        if max(values, default=0.0) > _XI_CEILING else xi


def build_T(geom: SystemGeometry, xi) -> np.ndarray:
    """Interaction matrix: off-diagonal blocks -G(r_n, r_m, i xi).

    One frequency gives the (3N, 3N) matrix; a 1-D array of K frequencies
    gives the (K, 3N, 3N) stack, whose slice k equals the call at xi[k]
    bit for bit.  xi = 0 selects the electrostatic tensor
    (I - 3 rhat rhat)/r^3; the diagonal blocks are exactly zero.
    """
    xi = _frequencies(xi)
    dim = 3 * geom.n_sites
    blocks = -geom.pair_green(xi)
    t = np.zeros(xi.shape + (dim * dim,))
    t[..., geom._upper] = blocks
    t[..., geom._lower] = blocks
    return t.reshape(xi.shape + (dim, dim))


def _log1pmx(mu: np.ndarray) -> np.ndarray:
    """log1p(mu) - mu elementwise, to 128 ulp relative: for |mu| < 0.05
    the series s (2s^2/3 + 2s^4/5 + 2s^6/7 + 2s^8/9 - mu) in
    s = mu/(2 + mu), from log1p(mu) = 2 atanh(s) and 2s - mu = -s mu."""
    s = mu / (2.0 + mu)
    s2 = s * s
    poly = 2.0 / 3.0 + s2 * (2.0 / 5.0 + s2 * (2.0 / 7.0 + s2 * (2.0 / 9.0)))
    out = s * (s2 * poly - mu)
    large = np.abs(mu) >= 0.05
    if large.any():
        out[large] = np.log1p(mu[large]) - mu[large]
    return out


def _log1p_sums(xi, mu: np.ndarray):
    """sum_k log1p(mu_k) over the last axis of ``mu``: a float for the
    modes of one xi, an array for the (K, 3N) modes of K.

    The mu_k are eigenvalues of a zero-diagonal matrix: their sum is 0,
    so log1p(mu_k) - mu_k is summed, free of a first order that cancels
    to rounding.  A mode at or past mu = -1 leaves the coupled ground
    state unstable: the first such xi is named in the error.  The
    quadrature stacks can hold nodes past a direction's cut, whose values
    are discarded unseen; such a node can still raise this error, which
    then reports a real instability on (0, inf).
    """
    if mu.min() <= -1.0:
        first = np.argmax(np.ravel(mu.min(axis=-1) <= -1.0))
        raise StrongCouplingError(
            "strong-coupling/overlap regime at "
            f"xi={float(np.ravel(xi)[first])!r}: "
            "an interaction mode crosses the stability boundary")
    logs = _log1pmx(mu).tolist()
    if mu.ndim == 1:
        return math.fsum(logs)
    return np.array([math.fsum(row) for row in logs])


def _node_scale(geom: SystemGeometry, nonretarded: bool) -> float:
    # the lowest transition, or c over the closest pair (two sites or more)
    scale = min(t.omega_sg for m in geom.models for t in m.transitions)
    if not nonretarded:
        scale = min(scale, SPEED_OF_LIGHT / geom.min_separation())
    return scale


def _stack(geom: SystemGeometry) -> int:
    """Nodes per integrand call: stacks of _STACK_ELEMENTS matrix elements."""
    return max(1, _STACK_ELEMENTS // (3 * geom.n_sites) ** 2)


def _logdet_function(geom: SystemGeometry, nonretarded: bool
                     ) -> Callable[..., float | np.ndarray]:
    """g(xi) = log det[1 + A T](i xi), the one log-det evaluation path.

    ``xi`` is one frequency, giving a float, or a 1-D array of K, giving K
    values.  The determinant goes through the symmetrized
    sqrt(A) T sqrt(A) of every frequency, all solved by one stacked
    eigensolve.  Identical scalar polarizabilities commute with the static
    T of the nonretarded limit: the eigenproblem then factorizes, is solved
    once, and each frequency only scales its eigenvalues by alpha(i xi),
    which keeps their sum alpha Tr T = 0.
    """
    if nonretarded and all(m == geom.models[0] for m in geom.models):
        t_eigs = np.linalg.eigvalsh(build_T(geom, 0.0))
        return lambda xi: _log1p_sums(xi, geom.model_alphas(xi) * t_eigs)
    static_t = build_T(geom, 0.0) if nonretarded else None

    def g(xi):
        s = np.sqrt(geom.alpha_values(xi)).repeat(3, axis=-1)
        t = static_t if nonretarded else build_T(geom, xi)
        mu = np.linalg.eigvalsh((s[..., :, None] * s[..., None, :]) * t)
        return _log1p_sums(xi, mu)

    return g


def free_energy_T0(geom: SystemGeometry, quad: QuadratureSpec | None = None,
                   nonretarded: bool = False) -> EnergyResult:
    """Zero-temperature interaction energy of the full cluster.

    ``nonretarded=True`` freezes the interaction matrix at its
    electrostatic form for every frequency (the regime where the
    normal-mode oracle applies).
    """
    if geom.n_sites < 2:
        return EnergyResult(0.0, 0.0, 0)
    res = integrate_semi_infinite(_logdet_function(geom, nonretarded), quad,
                                  _node_scale(geom, nonretarded), _stack(geom))
    pref = 1.0 / (2.0 * math.pi)
    return EnergyResult(pref * res.value, pref * res.error_estimate,
                        res.evaluations)


def free_energy_finiteT(geom: SystemGeometry, temperature: float,
                        quad: QuadratureSpec | None = None,
                        nonretarded: bool = False) -> EnergyResult:
    """Interaction free energy at temperature T (Hartree units).

    Thermal sum over xi_n = 2 pi n T with the n = 0 term half-weighted;
    converges to :func:`free_energy_T0` as T -> 0, because the integral
    that takes the rest of the sum is centred on the same node scale.
    ``quad`` is the spec :func:`free_energy_T0` takes; its ``max_evals``
    bounds the Matsubara terms and the tail nodes together.
    """
    if geom.n_sites < 2:
        if temperature <= 0:
            raise ValueError("temperature must be positive")
        return EnergyResult(0.0, 0.0, 0)
    return matsubara_sum(_logdet_function(geom, nonretarded), temperature,
                         quad, _node_scale(geom, nonretarded))


def second_order_energy(geom: SystemGeometry,
                        quad: QuadratureSpec | None = None) -> EnergyResult:
    """Pairwise-additive truncation of the cluster energy.

    -(1/4 pi) int d(xi) sum over ordered pairs of alpha_n alpha_m
    Tr[G_nm G_mn]; the full determinant differs from this at third order
    in the polarizabilities.
    """
    if geom.n_sites < 2:
        return EnergyResult(0.0, 0.0, 0)
    i, j = geom.pair_indices

    def integrand(xi):
        alphas = geom.alpha_values(xi)
        g = geom.pair_green(xi)
        # Tr[G_nm G_mn] = ||G_nm||_F^2; ordered pairs count each
        # unordered pair twice
        pairs = (2.0 * alphas[..., i] * alphas[..., j]
                 * np.sum(g * g, axis=(-2, -1))).tolist()
        if np.ndim(xi) == 0:
            return math.fsum(pairs)
        return np.array([math.fsum(row) for row in pairs])

    res = integrate_semi_infinite(integrand, quad,
                                  _node_scale(geom, nonretarded=False),
                                  _stack(geom))
    pref = 1.0 / (4.0 * math.pi)
    return EnergyResult(-pref * res.value, pref * res.error_estimate,
                        res.evaluations)


def _identical_single_resonance(geom: SystemGeometry) -> tuple[float, float]:
    first = geom.models[0]
    for model in geom.models:
        if len(model.transitions) != 1 \
                or model.transitions != first.transitions:
            raise ValueError(
                "normal-mode route needs identical single-resonance models")
    (t,) = first.transitions
    alpha_static = (2.0 / 3.0) * t.d2 / t.omega_sg
    return alpha_static, t.omega_sg


def normal_mode_energy(geom: SystemGeometry) -> EnergyResult:
    """Sum of zero-point mode shifts of coupled identical dipoles.

    The electrostatic coupled-oscillator problem diagonalizes exactly:
    mode frequencies are omega0 sqrt(1 + alpha_static t_k) over the 3N
    eigenvalues t_k of the static interaction matrix.  Returns
    (1/2) sum_s omega_s - (3N/2) omega0.
    """
    alpha_static, omega0 = _identical_single_resonance(geom)
    t_eigs = np.linalg.eigvalsh(build_T(geom, 0.0))
    if np.any(1.0 + alpha_static * t_eigs <= 0.0):
        raise StrongCouplingError(
            "Hamiltonian unbounded below: a coupled mode frequency "
            "would be imaginary")
    # expm1(log1p(c)/2) = sqrt(1+c) - 1 without cancellation at small c
    value = 0.5 * omega0 * math.fsum(
        math.expm1(0.5 * math.log1p(alpha_static * t)) for t in t_eigs)
    err = 8.0 * np.finfo(float).eps * 1.5 * geom.n_sites * omega0
    return EnergyResult(value, err, 1)


def phf_lambda_integral(x) -> float:
    """Coupling-constant integral int_0^1 (dl/l) Tr[l^2 x (1 - l^2 x)^{-1}].

    Gauss-Legendre on the unit interval; equals -(1/2) Tr log(1 - x) for
    spectral radius below one, which is the identity the free-energy
    derivation rests on.
    """
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    if scalar:
        radius = abs(float(x))
    else:
        if x.ndim != 2 or x.shape[0] != x.shape[1]:
            raise ValueError("x must be a scalar or a square matrix")
        radius = float(np.max(np.abs(np.linalg.eigvals(x))))
    if radius >= 1.0:
        raise ValueError("spectral radius must be < 1")
    glx, glw = np.polynomial.legendre.leggauss(_PHF_NODES)
    lam = 0.5 * (glx + 1.0)
    w = 0.5 * glw
    terms = []
    eye = None if scalar else np.eye(x.shape[0])
    for l_k, w_k in zip(lam, w):
        m = l_k * l_k * x
        if scalar:
            val = float(m / (1.0 - m))
        else:
            val = float(np.trace(np.linalg.solve(eye - m, m)))
        terms.append(w_k * val / l_k)
    return math.fsum(terms)
