"""N-atom dispersion free energies from the coupled-dipole determinant.

Each atom is a polarizable point dipole; the 3N x 3N interaction matrix
couples distinct atoms through the Green tensor (self-blocks are exactly
zero, so single-atom self-energies never enter).  The interaction free
energy at T = 0 is

    (1/2 pi) int_0^inf d(xi)  log det [ 1 + A(i xi) T(i xi) ]

with A the block-diagonal polarizability matrix.  Finite temperature
replaces the integral by the standard thermal frequency sum with a
half-weighted zero term.  The determinant is that of 1 + M, with the
symmetrized M = sqrt(A) T sqrt(A).  M has a zero diagonal, so 1 + M has a
unit diagonal, and its Cholesky factor L gives the log det as
sum_i log1p(-s_i), s_i = sum_{k<i} L_ik^2.  Every term is <= 0, so the
sum does not cancel, and each s_i is a sum of squares rounded relative to
itself: there is no absolute floor of eps ||M|| per mode, which the
eigenvalues mu of M carry.  Each sum of a node, over the 3N log1p(-s_i),
the 3N log1p(mu) - mu of the eigenvalue route or the N(N - 1)/2 pair
terms of the second order, is a plain numpy sum over the last axis of its
array: the terms of each have one sign, so it is off by at most about
log2(n) eps relative (Higham, Accuracy and Stability of Numerical
Algorithms, 2nd ed., 4.2), and the s_i by at most 3N eps, far below the
factorisation's own rounding; no compensated sum is needed.  Where the
factorisation fails, the real mu make the log branch explicit: any mu at
or past -1 means the coupled ground state is unstable and the
calculation refuses to continue.
Identical models in the nonretarded limit keep one eigensolve, whose mu
only scale with alpha(i xi).

The pair data a frequency needs is computed once per
:class:`SystemGeometry`: index pairs, distances, the transverse
projectors and the static ones over r^3 as (3, 3, P) arrays with the
pair axis last, and the gather map of the 3N x 3N matrix.  A node's
matrix is built at pair level.  The blocks -G of all pairs come from one
broadcast through :func:`fluctem.green.interaction_blocks` as a
(K, 3, 3, P) array, so that each elementwise step runs over the P pairs
innermost.  Each pair's block is scaled, by sqrt(alpha_i alpha_j) for M
and by 1 for :func:`build_T`, into a flat array behind a constant zero
slot, and one ``take`` through the gather map fills the (K, 3N, 3N)
stack, the self-blocks from the zero slot; the log det gathers into one
output stack that all calls of its integral reuse.
:func:`second_order_energy` sums the blocks' squared norms from the pair
distances alone.  :func:`free_energy_T0_and_second_order`, the path of a
retarded T = 0 row, takes that sum instead from the log det's own nodes:
it is ||M||_F^2, twice the sum of squares of M's pair products, one more
reduction per node (:func:`_frobenius`), and the second order's ladder
computes M's pair products alone only where the log det's never went.
Nonretarded and finite-temperature rows keep the separate pair sum.
The log-det and second-order integrands take a 1-D
array of K frequencies at every N, and have no float branch: the Green
blocks, alpha(i xi) of each distinct model and M(xi) are evaluated for
the whole array, and one ``cholesky`` call factorises the stacked
(K, 3N, 3N) matrices.  The thermal sum hands them blocks of Matsubara
frequencies, and the tanh-sinh integrals (the T = 0 energy, the second
order and the thermal tail) stacks of their nodes.  At T = 0 a stack
holds at most 2**16 array elements: (3N)^2 matrix elements per node of
the log det, about 113 nodes at N = 8, 9 at N = 27 and one from N = 61
on, and N(N - 1)/2 pair terms per node of the second order, 32 nodes at
N = 64.  Every slice of a stack equals the one-node stack of its
frequency bit for bit, so the stacking changes no result.

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

# PairDistanceError stays importable from this module
from .core import (
    EnergyResult,
    PairDistanceError,
    SPEED_OF_LIGHT,
    pair_separations,
    unwrap,
)
# dyadic_green_imag and static_green are unused here but stay bound:
# perfbench's tracer wraps them
from .green import (
    dyadic_green_imag,
    interaction_blocks,
    pair_projectors,
    static_green,
)
from .pairwise import PairValidity, retarded_pair_polynomial, validity_ratio
from .polarizability import KramersHeisenberg
from .quadrature import (
    QuadratureSpec,
    integrate_semi_infinite,
    integrate_shared,
    matsubara_sum,
)

__all__ = [
    "PairDistanceError",
    "StrongCouplingError",
    "SystemGeometry",
    "build_T",
    "free_energy_T0",
    "free_energy_finiteT",
    "free_energy_T0_and_second_order",
    "second_order_energy",
    "normal_mode_energy",
    "phf_lambda_integral",
]


# Gauss-Legendre nodes of the coupling-constant integral
_PHF_NODES = 64
# array elements stacked per integrand call of the tanh-sinh integrals:
# (3N)^2 per node of the log det, N(N - 1)/2 pair terms of the second order
_STACK_ELEMENTS = 2**16
# past this frequency every Green block is exactly zero (exp(-xi r/c)
# underflows at any r above 1e-145 bohr), while xi^2 still fits a double
_XI_CEILING = 1e150


class StrongCouplingError(RuntimeError):
    """Coupling strong enough to destabilize the coupled ground state."""


class SystemGeometry:
    """Immutable collection of polarizable sites.

    ``sites`` is a sequence of (position, model) pairs; positions are
    3-vectors in bohr.  A pair whose distance has no normal square is
    rejected with :class:`PairDistanceError`; close approaches that strain
    the point-dipole picture are reported by :meth:`validity_reports`
    rather than rejected.  The pair data every frequency node reuses
    (index pairs i < j, distances, projectors with the pair axis last,
    the gather map of the interaction matrix) is computed here once.
    """

    def __init__(self, sites: Sequence[tuple[Sequence[float],
                                             KramersHeisenberg]]):
        positions = [np.asarray(p, dtype=float) for p, _ in sites]
        for k, p in enumerate(positions):
            if p.shape != (3,) or not np.all(np.isfinite(p)):
                raise ValueError(f"site {k} needs a finite 3-vector position")
        self._models = tuple(model for _, model in sites)
        # alpha is evaluated once per distinct model and scattered to sites
        index: dict[KramersHeisenberg, int] = {}
        self._site_model = np.array(
            [index.setdefault(m, len(index)) for m in self._models],
            dtype=int)
        self._distinct_models = tuple(index)
        self._pair_i, self._pair_j, self._pair_r, rhat = pair_separations(
            np.array(positions).reshape(-1, 3))
        self._pair_r.setflags(write=False)
        # the distances and both projectors, the static one over r^3, as
        # interaction_blocks takes them: the pair axis last, the
        # projectors as (3, 3, P) arrays
        transverse, static = np.moveaxis(pair_projectors(rhat), 1, -1).copy()
        # a distance whose cube leaves the double range is refused by the
        # callers that need the blocks, not here
        with np.errstate(all="ignore"):
            self._green = self._pair_r, transverse, static / self._pair_r**3
        # the elements (3i + a, 3j + b) and (3j + a, 3i + b) of the 3N x 3N
        # matrix take slot 1 + (3a + b) P + p of a flat (3, 3, P) pair
        # array behind a zero slot 0, which fills the self-blocks
        i, j = 3 * self._pair_i, 3 * self._pair_j
        a, b = np.arange(3)[:, None, None], np.arange(3)[:, None]
        self._gather = np.zeros((3 * self.n_sites,) * 2, dtype=np.intp)
        self._gather[i + a, j + b] = self._gather[j + a, i + b] = \
            1 + np.arange(static.size).reshape(static.shape)

    @property
    def n_sites(self) -> int:
        return len(self._models)

    @property
    def models(self) -> tuple[KramersHeisenberg, ...]:
        return self._models

    @property
    def pair_indices(self) -> tuple[np.ndarray, np.ndarray]:
        """Site indices (i, j) of every pair i < j, in row-major order."""
        return self._pair_i, self._pair_j

    @property
    def pair_distances(self) -> np.ndarray:
        """Distance of every pair, in the order of :attr:`pair_indices`."""
        return self._pair_r

    def validity_reports(self) -> tuple[tuple[int, int, PairValidity], ...]:
        """Point-dipole validity verdict for every pair."""
        alphas = self.alpha_values(0.0)
        i, j = self._pair_i, self._pair_j
        # a ratio past the double range is inf, and its verdict not ok
        with np.errstate(over="ignore", divide="ignore"):
            ratios = validity_ratio(alphas[i], alphas[j], self._pair_r)
        return tuple(zip(i.tolist(), j.tolist(),
                         map(PairValidity, ratios.tolist())))

    def _blocks(self, xi) -> np.ndarray:
        """-G(i xi) of every pair, the pair axis last: (K, 3, 3, P) for K
        frequencies, (3, 3, P) for one, ``xi`` as :func:`_frequencies`
        gives it."""
        return interaction_blocks(xi, *self._green)

    def _pair_products(self, blocks, scale) -> np.ndarray:
        """``blocks[..., p] * scale[..., p]`` of every pair p as one flat
        row per matrix, the pair axis last, behind a zero slot:
        ``blocks`` as :meth:`_blocks` gives them, ``scale`` of shape
        (..., P), the stack the broadcast of the two."""
        stack = np.broadcast_shapes(blocks.shape[:-3], scale.shape[:-1])
        flat = np.empty(stack + (1 + 9 * blocks.shape[-1],))
        flat[..., 0] = 0.0
        np.multiply(blocks, scale[..., None, None, :],
                    out=flat[..., 1:].reshape(stack + blocks.shape[-3:]))
        return flat

    def _matrices(self, flat, out=None) -> np.ndarray:
        """The stack of matrices whose blocks (i, j) and (j, i) hold pair
        p = (i, j)'s products in ``flat`` (:meth:`_pair_products`), and
        whose self-blocks are zero, spread by one ``take`` through the
        gather map and written into ``out`` if given."""
        # every index is in range; "raise" would buffer the output
        return flat.take(self._gather, axis=-1, out=out, mode="clip")

    def min_separation(self) -> float:
        return float(self._pair_r.min()) if self._pair_r.size else math.inf

    def model_alphas(self, xi) -> np.ndarray:
        """alpha(i xi) of every distinct model, equal to ``alpha_imag``.

        (M,) for one frequency, (K, M) for K of them.
        """
        return self._model_alphas(_frequencies(xi))

    def _model_alphas(self, xi) -> np.ndarray:
        """:meth:`model_alphas` of ``xi`` as :func:`_frequencies` gives
        it."""
        x2 = xi * xi
        return np.array([m.sum_terms(x2) for m in self._distinct_models]).T

    def alpha_values(self, xi) -> np.ndarray:
        """alpha(i xi) of every site, each distinct model evaluated once.

        (N,) for one frequency, (K, N) for K of them.
        """
        return self.model_alphas(xi)[..., self._site_model]


def _frequencies(xi) -> np.ndarray:
    """``xi`` as a float array clamped to _XI_CEILING; a negative or NaN
    xi raises."""
    xi = np.asarray(xi, dtype=float)
    # Python min, max and sum: far cheaper than numpy reductions on one or
    # a few entries, and every node of a quadrature passes here; min can
    # miss a NaN, the sum cannot
    values = xi.ravel().tolist()
    if min(values, default=0.0) < 0 or math.isnan(sum(values)):
        raise ValueError("imaginary-axis frequency must be >= 0")
    return np.minimum(xi, _XI_CEILING) \
        if max(values, default=0.0) > _XI_CEILING else xi


def build_T(geom: SystemGeometry, xi) -> np.ndarray:
    """Interaction matrix: off-diagonal blocks -G(r_n, r_m, i xi).

    One frequency gives the (3N, 3N) matrix; a 1-D array of K frequencies
    gives the (K, 3N, 3N) stack, whose slice k equals the call at xi[k]
    bit for bit.  xi = 0 selects the electrostatic tensor
    (I - 3 rhat rhat)/r^3; the diagonal blocks are exactly zero.  The
    blocks are gathered as those of M are, with a unit scale.
    """
    blocks = geom._blocks(_frequencies(xi))
    return geom._matrices(geom._pair_products(blocks,
                                              np.ones(geom._pair_r.shape)))


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
    """sum_k log1p(mu_k) over the last axis of the (K, 3N) modes ``mu`` of
    K frequencies ``xi``: an array of K sums.

    The mu_k are eigenvalues of a zero-diagonal matrix: their sum is 0,
    so log1p(mu_k) - mu_k is summed, free of a first order that cancels
    to rounding.  Every such term is <= 0, so a plain sum over the last
    axis is accurate to about log2(3N) eps relative.  A mode at or past
    mu = -1 leaves the coupled ground state unstable: the first such xi
    is named in the error.  The quadrature stacks can hold nodes past a
    direction's cut, whose values are discarded unseen; such a node can
    still raise this error, which then reports a real instability on
    (0, inf).  A level's first stack can also hold the first nodes of
    both directions, so the lower direction's window can raise before
    the walk has taken the upper direction's values.
    """
    if mu.min(initial=0.0) <= -1.0:
        first = np.argmax(np.ravel(mu.min(axis=-1) <= -1.0))
        raise StrongCouplingError(
            "strong-coupling/overlap regime at "
            f"xi={float(np.ravel(xi)[first])!r}: "
            "an interaction mode crosses the stability boundary")
    return _log1pmx(mu).sum(axis=-1)


def _node_scale(geom: SystemGeometry, nonretarded: bool) -> float:
    # the lowest transition, or c over the closest pair (two sites or more)
    scale = min(t.omega_sg for m in geom.models for t in m.transitions)
    if not nonretarded:
        scale = min(scale, SPEED_OF_LIGHT / geom.min_separation())
    return scale


def _stack(node_elements: int) -> int:
    """Nodes per integrand call whose arrays hold ``node_elements`` per
    node: stacks of _STACK_ELEMENTS elements, or one node."""
    return max(1, _STACK_ELEMENTS // node_elements)


def _log_det_1p(xi, m: np.ndarray):
    """log det(1 + m) of each symmetric, zero-diagonal matrix of the
    (K, 3N, 3N) stack ``m`` of K frequencies ``xi``: an array of K values.

    1 + m has a unit diagonal, so its Cholesky factor L has
    L_ii^2 = 1 - s_i with s_i = sum_{k<i} L_ik^2, and the log det is
    sum_i log1p(-s_i).  Every term is <= 0, so the sum neither cancels
    nor has an absolute rounding floor: a plain sum over the last axis of
    the (K, 3N) terms needs no compensation, and each s_i comes from one
    ``einsum`` pass over its row.  A stacked Cholesky fails as a whole.
    A failed pivot, or an s_i that rounds to 1 or past it behind
    a pivot LAPACK passed, sends the stack to the eigenvalues of m and
    :func:`_log1p_sums`: it names the xi of a mode at or past mu = -1,
    and where no mode is there (rounding alone stopped the
    factorisation) returns the eigenvalue sum.  ``m`` is overwritten.
    """
    diag = np.arange(m.shape[-1])
    m[..., diag, diag] = 1.0
    try:
        low = np.linalg.cholesky(m)
        low[..., diag, diag] = 0.0
        s = np.einsum("...ij,...ij->...i", low, low)
        # log1p(-s_i) is never taken from s_i = 1 on, where it warns
        if s.max(initial=0.0) < 1.0:
            return np.log1p(-s).sum(axis=-1)
    except np.linalg.LinAlgError:
        pass
    m[..., diag, diag] = 0.0
    return _log1p_sums(xi, np.linalg.eigvalsh(m))


def _m_products(geom: SystemGeometry, xi, blocks=None) -> np.ndarray:
    """The pair products of M = sqrt(A) T sqrt(A) at the K frequencies
    ``xi``: -G(i xi) of each pair, or ``blocks`` if given, times
    sqrt(alpha_i alpha_j), as :meth:`SystemGeometry._pair_products` lays
    them out.  ``xi`` is checked and clamped once, for both."""
    xi = _frequencies(xi)
    s = np.sqrt(geom._model_alphas(xi)[..., geom._site_model])
    return geom._pair_products(geom._blocks(xi) if blocks is None else blocks,
                               s[..., geom._pair_i] * s[..., geom._pair_j])


def _frobenius(products: np.ndarray) -> np.ndarray:
    """||M||_F^2 of each matrix from its pair products: twice their sum of
    squares, as each pair block stands twice in M.  The terms are >= 0,
    so the plain sum is off by about log2(9P) eps relative at most."""
    return 2.0 * np.square(products).sum(axis=-1)


def _logdet_function(geom: SystemGeometry, nonretarded: bool,
                     frobenius: bool = False) -> Callable:
    """g(xi) = log det[1 + A T](i xi), the one log-det evaluation path.

    ``xi`` is a 1-D array of K frequencies, giving K values.  The
    determinant is that of 1 + M with the symmetrized
    M = sqrt(A) T sqrt(A), whose diagonal is zero because T's self-blocks
    are: one stacked Cholesky factorisation of the unit-diagonal 1 + M
    serves every frequency (:func:`_log_det_1p`).  Identical scalar
    polarizabilities commute with the static T of the nonretarded limit:
    the eigenproblem then factorizes, is solved once, and each frequency
    only scales its eigenvalues by alpha(i xi), which keeps their sum
    alpha Tr T = 0.  With ``frobenius``, on the matrix path only, g
    returns the log dets and the ||M||_F^2 of the same M
    (:func:`_frobenius`); the log dets are those of the plain g bit for
    bit.
    """
    if nonretarded and all(m == geom.models[0] for m in geom.models):
        t_eigs = np.linalg.eigvalsh(build_T(geom, 0.0))
        return lambda xi: _log1p_sums(xi, geom.model_alphas(xi) * t_eigs)
    static = geom._blocks(_frequencies(0.0)) if nonretarded else None
    # one output stack for all of the integral's calls: a fresh one per
    # call made glibc trim and regrow its heap, about 180 minor page
    # faults per node at N = 64
    out = np.empty((0,) + geom._gather.shape)

    def g(xi):
        nonlocal out
        if len(out) < len(xi):
            out = np.empty((len(xi),) + geom._gather.shape)
        products = _m_products(geom, xi, static)
        m = geom._matrices(products, out[:len(xi)])
        norms = _frobenius(products) if frobenius else None
        # the blocks and pair products are freed before the factorisation,
        # which then runs at the old peak memory
        del products
        values = _log_det_1p(xi, m)
        return values if norms is None else (values, norms)

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
                                  _node_scale(geom, nonretarded),
                                  _stack((3 * geom.n_sites) ** 2))
    return res.scaled(1.0 / (2.0 * math.pi))


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
        if not temperature > 0:
            raise ValueError("temperature must be positive")
        return EnergyResult(0.0, 0.0, 0)
    return matsubara_sum(_logdet_function(geom, nonretarded), temperature,
                         quad, _node_scale(geom, nonretarded))


def free_energy_T0_and_second_order(geom: SystemGeometry,
                                    quad: QuadratureSpec | None = None
                                    ) -> tuple[EnergyResult, EnergyResult]:
    """The retarded zero-temperature free energy and its second order,
    from one set of nodes.

    The second order is the integral of :func:`second_order_energy`, whose
    integrand 2 sum_{i<j} alpha_i alpha_j ||G_ij||_F^2 is ||M||_F^2 of the
    log det's own M: -1/2 Tr M^2 is the log det's second-order term, as
    Tr M = 0.  Each node of the log det gives it for one more reduction
    over M's pair products (:func:`_frobenius`); the second integral
    computes M's pair products alone only at nodes the log det never
    reached.  Both integrals keep their own stop, estimate and budget
    (:func:`fluctem.quadrature.integrate_shared`), so the free energy is
    that of ``free_energy_T0(geom, quad)`` bit for bit, and the second
    order is :func:`second_order_energy`'s integral of the same integrand
    in other rounding.  The free energy's error is raised first.
    """
    if geom.n_sites < 2:
        zero = EnergyResult(0.0, 0.0, 0)
        return zero, zero
    free, second = integrate_shared(
        _logdet_function(geom, False, frobenius=True),
        lambda xi: _frobenius(_m_products(geom, xi)), quad,
        _node_scale(geom, False), _stack((3 * geom.n_sites) ** 2))
    return (unwrap(free).scaled(1.0 / (2.0 * math.pi)),
            unwrap(second).scaled(-1.0 / (4.0 * math.pi)))


def second_order_energy(geom: SystemGeometry,
                        quad: QuadratureSpec | None = None) -> EnergyResult:
    """Retarded zero-temperature sum of pair energies.

    -(1/4 pi) int d(xi) sum over ordered pairs of alpha_n alpha_m
    ||G_nm||_F^2: the truncation of the retarded free_energy_T0 alone,
    which differs from it at third order in the polarizabilities.  As
    ||G(r, i xi)||_F^2 = 2 (exp(-x)/r^3)^2 P(x), x = xi r / c, with P of
    :func:`fluctem.pairwise.retarded_pair_polynomial`, a pair i < j adds
    4 alpha_i alpha_j P(x) (exp(-x)/r^3)^2 from its distance alone.  Each
    pair term is >= 0, so a node's terms are summed over the last axis of
    their (K, P) array, to about log2(P) eps relative, uncompensated.
    """
    if geom.n_sites < 2:
        return EnergyResult(0.0, 0.0, 0)
    (i, j), r = geom.pair_indices, geom.pair_distances

    def integrand(xi):
        alphas = geom.alpha_values(xi)
        # exp(-x) is 0 past x = 746, where the cap keeps P(x) finite
        x = np.minimum(np.multiply.outer(np.divide(xi, SPEED_OF_LIGHT), r),
                       1e3)
        # squared after the division, it underflows no earlier than G does
        decay = np.exp(-x) / r**3
        # take, unlike indexing, keeps each node's terms in one contiguous
        # row, which the sum reduces as it does the one-node call's
        return (4.0 * alphas.take(i, axis=-1) * alphas.take(j, axis=-1)
                * (retarded_pair_polynomial(x) * decay * decay)).sum(axis=-1)

    res = integrate_semi_infinite(integrand, quad,
                                  _node_scale(geom, nonretarded=False),
                                  _stack(r.size))
    return res.scaled(-1.0 / (4.0 * math.pi))


def _identical_single_resonance(geom: SystemGeometry) -> tuple[float, float]:
    if len(set(geom.models)) != 1 or len(geom.models[0].transitions) != 1:
        raise ValueError(
            "normal-mode route needs identical single-resonance models")
    (t,) = geom.models[0].transitions
    return (2.0 / 3.0) * t.d2 / t.omega_sg, t.omega_sg


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
    err = 8.0 * math.ulp(1.0) * 1.5 * geom.n_sites * omega0
    return EnergyResult(value, err, 1)


def phf_lambda_integral(x) -> float:
    """Coupling-constant integral int_0^1 (dl/l) Tr[l^2 x (1 - l^2 x)^{-1}].

    Gauss-Legendre on the unit interval; equals -(1/2) Tr log(1 - x) for
    spectral radius below one, which is the identity the free-energy
    derivation rests on.
    """
    x = np.asarray(x, dtype=float)
    # a scalar is the 1 x 1 matrix, on which solve divides as m / (1 - m)
    if x.ndim == 0:
        x = x.reshape(1, 1)
    if x.ndim != 2 or x.shape[0] != x.shape[1]:
        raise ValueError("x must be a scalar or a square matrix")
    # eigvals refuses a NaN or infinite entry with LinAlgError, a ValueError
    radius = float(np.max(np.abs(np.linalg.eigvals(x))))
    if not radius < 1.0:
        raise ValueError("spectral radius must be < 1")
    glx, glw = np.polynomial.legendre.leggauss(_PHF_NODES)
    lam = 0.5 * (glx + 1.0)
    w = 0.5 * glw
    terms = []
    eye = np.eye(x.shape[0])
    for l_k, w_k in zip(lam, w):
        m = l_k * l_k * x
        terms.append(w_k * float(np.trace(np.linalg.solve(eye - m, m))) / l_k)
    return math.fsum(terms)
