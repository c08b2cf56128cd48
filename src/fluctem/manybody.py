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

The pair data a frequency node needs (index pairs, distances, transverse
and static projectors) is computed once per :class:`SystemGeometry`, so
each node assembles the Green blocks of all pairs in one broadcast through
:func:`fluctem.green.imag_axis_green`: :func:`build_T` scatters them into
the 3N x 3N matrix, and :func:`second_order_energy` sums their squared
Frobenius norms directly.  Per node the work is then a handful of array
operations and one dense eigensolve.

``normal_mode_energy`` is the independent oracle for the electrostatic
limit: identical single-resonance atoms give mode frequencies
omega0 sqrt(1 + alpha_static t_k) over the eigenvalues t_k of the static
interaction matrix, and the half-sum of mode shifts must reproduce the
determinant route.
"""

from __future__ import annotations

import math
from dataclasses import replace
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
from .polarizability import KramersHeisenberg, PolarizabilityModel
from .quadrature import (
    MatsubaraSpec,
    QuadratureSpec,
    integrate_semi_infinite,
    matsubara_sum,
)

__all__ = [
    "StrongCouplingError",
    "SystemGeometry",
    "build_T",
    "dressed_susceptibility",
    "free_energy_T0",
    "free_energy_finiteT",
    "second_order_energy",
    "normal_mode_energy",
    "phf_lambda_integral",
]


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
                                             PolarizabilityModel]]):
        positions = []
        models = []
        for position, model in sites:
            p = np.asarray(position, dtype=float)
            if p.shape != (3,):
                raise ValueError("site positions must be 3-vectors")
            positions.append(p)
            models.append(model)
        self._positions = np.array(positions, dtype=float).reshape(-1, 3)
        self._positions.setflags(write=False)
        self._models = tuple(models)
        # alpha is evaluated once per distinct model and scattered to sites
        index: dict[PolarizabilityModel, int] = {}
        self._site_model = np.array(
            [index.setdefault(m, len(index)) for m in self._models],
            dtype=int)
        self._distinct_models = tuple(index)
        self._pair_i, self._pair_j = np.triu_indices(self.n_sites, k=1)
        delta = self._positions[self._pair_i] - self._positions[self._pair_j]
        # the dot product core.separation uses: distances, and with them the
        # quadrature decay scale set by min_separation, agree bitwise with
        # the single-pair functions
        self._pair_r = np.sqrt((delta[:, None, :] @ delta[:, :, None])[:, 0, 0])
        if np.any(self._pair_r == 0.0):
            raise ValueError("coincident points")
        self._transverse, self._static = pair_projectors(
            delta / self._pair_r[:, None])

    @property
    def n_sites(self) -> int:
        return len(self._models)

    @property
    def positions(self) -> np.ndarray:
        return self._positions

    @property
    def models(self) -> tuple[PolarizabilityModel, ...]:
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

    def lowest_transition(self) -> float:
        """Smallest transition frequency present, or 1.0 if none."""
        lows = [min(t.omega_sg for t in m.transitions)
                for m in self._models
                if isinstance(m, KramersHeisenberg) and m.transitions]
        return min(lows) if lows else 1.0

    def min_separation(self) -> float:
        return float(self._pair_r.min()) if self._pair_r.size else math.inf

    def pair_green(self, xi: float) -> np.ndarray:
        """Green tensors G(r_i, r_j, i xi) of all pairs i < j; (P, 3, 3)."""
        return imag_axis_green(xi, self._pair_r, self._transverse,
                               self._static)

    def alpha_values(self, xi: float) -> np.ndarray:
        """alpha(i xi) of every site, each distinct model evaluated once."""
        values = np.array([m.alpha_imag(xi) for m in self._distinct_models])
        return values[self._site_model]


def build_T(geom: SystemGeometry, xi: float) -> np.ndarray:
    """Interaction matrix: off-diagonal blocks -G(r_n, r_m, i xi).

    xi = 0 selects the electrostatic tensor (I - 3 rhat rhat)/r^3; the
    diagonal blocks are exactly zero.
    """
    if xi < 0:
        raise ValueError("imaginary-axis frequency must be >= 0")
    n = geom.n_sites
    blocks = -geom.pair_green(xi)
    i, j = geom.pair_indices
    t = np.zeros((n, 3, n, 3))
    t[i, :, j, :] = blocks
    t[j, :, i, :] = blocks
    return t.reshape(3 * n, 3 * n)


def _log_det_stable(geom: SystemGeometry, xi: float,
                    t: np.ndarray) -> float:
    """log det[1 + A T] through sqrt(A) T sqrt(A), branch-checked."""
    alphas = geom.alpha_values(xi)
    if np.any(alphas < 0):
        raise StrongCouplingError("negative polarizability is not supported")
    s = np.repeat(np.sqrt(alphas), 3)
    sym = (s[:, None] * s[None, :]) * t
    mu = np.linalg.eigvalsh(sym)
    if np.any(mu <= -1.0):
        raise StrongCouplingError(
            f"strong-coupling/overlap regime at xi={xi!r}: "
            "an interaction mode crosses the stability boundary")
    return math.fsum(np.log1p(mu))


def dressed_susceptibility(geom: SystemGeometry, xi: float) -> np.ndarray:
    """Interaction-dressed susceptibility M = A [1 + A T]^{-1}.

    Self-interaction stays excluded: T has zero diagonal blocks, so M
    reduces to A itself for a single atom.  log det[M] - log det[A] equals
    -log det[1 + A T] whenever A is invertible.
    """
    t = build_T(geom, xi)
    alphas = geom.alpha_values(xi)
    a = np.diag(np.repeat(alphas, 3))
    system = np.eye(3 * geom.n_sites) + a @ t
    eigs = np.linalg.eigvals(system)
    if np.min(eigs.real) <= 0.0:
        raise StrongCouplingError(
            f"unbounded-spectrum: 1 + A T is singular or negative at xi={xi!r}")
    return a @ np.linalg.inv(system)


def _decay_scale(geom: SystemGeometry, nonretarded: bool) -> float:
    scale = geom.lowest_transition()
    r_min = geom.min_separation()
    if not nonretarded and math.isfinite(r_min):
        scale = min(scale, SPEED_OF_LIGHT / r_min)
    return scale


def _logdet_function(geom: SystemGeometry, nonretarded: bool
                     ) -> Callable[[float], float]:
    static_t = build_T(geom, 0.0)
    if nonretarded:
        if all(m == geom.models[0] for m in geom.models):
            # identical scalar polarizabilities commute with T: the
            # eigenproblem factorizes and needs solving only once
            t_eigs = np.linalg.eigvalsh(static_t)
            model = geom.models[0]

            def g_identical(xi: float) -> float:
                alpha = model.alpha_imag(xi)
                scaled = alpha * t_eigs
                if scaled.min() <= -1.0:
                    raise StrongCouplingError(
                        f"strong-coupling/overlap regime at xi={xi!r}: "
                        "an interaction mode crosses the stability boundary")
                return math.fsum(np.log1p(scaled))

            return g_identical
        return lambda xi: _log_det_stable(geom, xi, static_t)

    def g(xi: float) -> float:
        t = static_t if xi == 0.0 else build_T(geom, xi)
        return _log_det_stable(geom, xi, t)

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
    quad = quad or QuadratureSpec()
    if quad.decay_scale is None:
        quad = replace(quad, decay_scale=_decay_scale(geom, nonretarded))
    g = _logdet_function(geom, nonretarded)
    res = integrate_semi_infinite(g, quad)
    pref = 1.0 / (2.0 * math.pi)
    return EnergyResult(pref * res.value, pref * res.error_estimate,
                        res.evaluations)


def free_energy_finiteT(geom: SystemGeometry, temperature: float,
                        tail: MatsubaraSpec | None = None,
                        nonretarded: bool = False) -> EnergyResult:
    """Interaction free energy at temperature T (Hartree units).

    Thermal sum over xi_n = 2 pi n T with the n = 0 term half-weighted;
    converges to :func:`free_energy_T0` as T -> 0.
    """
    if geom.n_sites < 2:
        if temperature <= 0:
            raise ValueError("temperature must be positive")
        return EnergyResult(0.0, 0.0, 0)
    g = _logdet_function(geom, nonretarded)
    return matsubara_sum(g, temperature, tail)


def second_order_energy(geom: SystemGeometry,
                        quad: QuadratureSpec | None = None) -> EnergyResult:
    """Pairwise-additive truncation of the cluster energy.

    -(1/4 pi) int d(xi) sum over ordered pairs of alpha_n alpha_m
    Tr[G_nm G_mn]; the full determinant differs from this at third order
    in the polarizabilities.
    """
    if geom.n_sites < 2:
        return EnergyResult(0.0, 0.0, 0)
    quad = quad or QuadratureSpec()
    if quad.decay_scale is None:
        quad = replace(quad, decay_scale=_decay_scale(geom, nonretarded=False))
    i, j = geom.pair_indices

    def integrand(xi: float) -> float:
        alphas = geom.alpha_values(xi)
        g = geom.pair_green(xi)
        # Tr[G_nm G_mn] = ||G_nm||_F^2; ordered pairs count each
        # unordered pair twice
        return math.fsum(2.0 * alphas[i] * alphas[j]
                         * np.sum(g * g, axis=(1, 2)))

    res = integrate_semi_infinite(integrand, quad)
    pref = 1.0 / (4.0 * math.pi)
    return EnergyResult(-pref * res.value, pref * res.error_estimate,
                        res.evaluations)


def _identical_single_resonance(geom: SystemGeometry) -> tuple[float, float]:
    first = geom.models[0]
    for model in geom.models:
        if not isinstance(model, KramersHeisenberg) \
                or len(model.transitions) != 1 \
                or model.transitions != first.transitions:
            raise ValueError(
                "normal-mode route needs identical single-resonance models")
    (t,) = first.transitions
    alpha_static = (2.0 / 3.0) * t.d2 / t.omega_sg
    return alpha_static, t.omega_sg


def normal_mode_energy(geom: SystemGeometry, nonretarded: bool = True
                       ) -> EnergyResult:
    """Sum of zero-point mode shifts of coupled identical dipoles.

    The electrostatic coupled-oscillator problem diagonalizes exactly:
    mode frequencies are omega0 sqrt(1 + alpha_static t_k) over the 3N
    eigenvalues t_k of the static interaction matrix.  Returns
    (1/2) sum_s omega_s - (3N/2) omega0.
    """
    if not nonretarded:
        raise ValueError(
            "only the electrostatic (nonretarded) normal-mode problem "
            "diagonalizes in closed form")
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


def phf_lambda_integral(x, nodes: int = 64) -> float:
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
    glx, glw = np.polynomial.legendre.leggauss(nodes)
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
