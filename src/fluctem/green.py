"""Retarded dyadic Green tensor between point dipoles.

The tensor connecting a source dipole at ``rm`` to the field at ``rn`` in a
homogeneous medium of real refractive index n is

    G(r, omega) = (omega^2 k / c^2) * exp(i k r)
                  * [ (I - p)/(k r) + (I - 3 p)(i/(k r)^2 - 1/(k r)^3) ]

with k = n omega / c and p the outer product of the unit separation vector
with itself.  On the real axis a complex kernel evaluates this form, and
:func:`dyadic_green` takes it in vacuum, n = 1.  On the positive
imaginary axis omega = i xi (vacuum) every entry is real,

    G(r, i xi) = -exp(-x) [ (xi/c)^2 (I-p)/r + (xi/c)(I-3p)/r^2 + (I-3p)/r^3 ]

with x = xi r / c.  :func:`interaction_blocks` holds this real form,
negated, for arrays of frequencies, distances and projectors in any
layout that broadcasts; :func:`imag_axis_green` evaluates it for any
number of pairs, and any number of frequencies, at once, and xi = 0
gives the static tensor (3 p - I)/r^3.  The single-pair functions
:func:`dyadic_green_imag` and :func:`static_green` are views of it.
Entries carry units of inverse volume in Hartree atomic units.
"""

from __future__ import annotations

import numpy as np

from .core import SPEED_OF_LIGHT, pair_separations

__all__ = [
    "f_tensor",
    "dyadic_green",
    "dyadic_green_imag",
    "static_green",
    "imag_axis_green",
    "interaction_blocks",
    "pair_projectors",
]

_IDENTITY = np.eye(3)


def pair_projectors(rhat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Transverse I - p and static I - 3p projectors of unit vectors.

    ``rhat`` has shape (..., 3); both projectors have shape (..., 3, 3).
    A vector whose squared length is off 1 by over 1e-12 raises.
    """
    rhat = np.asarray(rhat, dtype=float)
    if not (abs((rhat * rhat).sum(axis=-1) - 1.0) <= 1e-12).all():
        raise ValueError("rhat must be a unit vector")
    p = rhat[..., :, None] * rhat[..., None, :]
    return _IDENTITY - p, _IDENTITY - 3.0 * p


def f_tensor(x: float, rhat: np.ndarray) -> np.ndarray:
    """Dimensionless angular tensor of dipole radiation exchange.

    F(x) = (I - p) sin(x)/x + (I - 3p)(cos(x)/x^2 - sin(x)/x^3), which
    tends to (2/3) I as x -> 0 and to the transverse projector times
    sin(x)/x in the far zone.
    """
    if not 0 < x < np.inf:
        raise ValueError("dimensionless x must be positive and finite")
    transverse, static = pair_projectors(rhat)
    sx, cx = np.sin(x), np.cos(x)
    return transverse * (sx / x) + static * (cx / x**2 - sx / x**3)


def _green_kernel(omega: complex, r: float, rhat: np.ndarray,
                  n_index: float) -> np.ndarray:
    """Complex kernel of :func:`dyadic_green`; omega may be complex.

    At omega = i xi it is an independent route to :func:`imag_axis_green`.
    """
    k = n_index * omega / SPEED_OF_LIGHT
    kr = k * r
    transverse, static = pair_projectors(rhat)
    bracket = (transverse / kr
               + static * (1j / (kr * kr) - 1.0 / (kr * kr * kr)))
    prefactor = omega * omega * k / SPEED_OF_LIGHT**2
    return prefactor * np.exp(1j * kr) * bracket


def dyadic_green(rn: np.ndarray, rm: np.ndarray, omega: float) -> np.ndarray:
    """Green tensor in vacuum at real frequency; complex 3x3 array.

    The static limit (omega r/c -> 0) is (3 p - I)/r^3; the far zone
    keeps only the transverse 1/(k r) term.
    """
    if not 0 < omega < np.inf:
        raise ValueError("frequency must be positive and finite")
    _, _, (r,), (rhat,) = pair_separations((rn, rm))
    return _green_kernel(complex(omega), r, rhat, 1.0)


def interaction_blocks(xi, r, transverse, static_r3) -> np.ndarray:
    """-G(r, i xi), the vacuum coupling on the imaginary axis, elementwise.

    ``r`` holds distances, ``transverse`` the projectors I - p and
    ``static_r3`` the static ones over the cubed distance, (I - 3p)/r^3,
    in any layout in which they broadcast together: the caller picks it.
    ``xi`` is one frequency or an array of them (shape (K,)), which gets
    the leading axis of the result, in front of that broadcast.
    Entries are exp(-x) [ (xi/c)^2 (I-p)/r + (1 + x)(I-3p)/r^3 ] with
    x = xi r / c, the (xi/c)(I-3p)/r^2 term folded into (1 + x); xi = 0
    gives exactly (I - 3p)/r^3.
    """
    q = np.divide(xi, SPEED_OF_LIGHT)
    q = np.reshape(q, np.shape(q) + (1,) * np.broadcast(r, transverse).ndim)
    x = q * r
    return np.exp(-x) * ((q * q / r) * transverse + (1.0 + x) * static_r3)


def imag_axis_green(xi, r: np.ndarray, transverse: np.ndarray,
                    static: np.ndarray) -> np.ndarray:
    """Vacuum Green tensors at i xi for many pairs and frequencies.

    ``r`` holds the distances (shape (...)), ``transverse`` and ``static``
    the projectors I - p and I - 3p of :func:`pair_projectors`.  ``xi`` is
    one frequency or an array of them (shape (K,)); the real result has
    shape (K, ..., 3, 3), or (..., 3, 3) for a scalar ``xi``, and slice k
    equals the call at xi[k] bit for bit.  Entries are the negated
    :func:`interaction_blocks`; xi = 0 gives the static tensor
    (3 p - I)/r^3.
    """
    r = np.asarray(r, dtype=float)[..., None, None]
    return -interaction_blocks(xi, r, transverse, static / r**3)


def _single_pair(rn: np.ndarray, rm: np.ndarray, xi: float) -> np.ndarray:
    _, _, (r,), (rhat,) = pair_separations((rn, rm))
    return imag_axis_green(xi, r, *pair_projectors(rhat))


def dyadic_green_imag(rn: np.ndarray, rm: np.ndarray, xi: float) -> np.ndarray:
    """Green tensor on the positive imaginary axis (vacuum); real 3x3 array.

    Single-pair view of :func:`imag_axis_green`: every term is real and
    decays as exp(-x), x = xi r / c.
    """
    if not 0 < xi < np.inf:
        raise ValueError("frequency xi must be positive and finite")
    return _single_pair(rn, rm, xi)


def static_green(rn: np.ndarray, rm: np.ndarray) -> np.ndarray:
    """Zero-frequency (longitudinal) limit (3 p - I)/r^3 in vacuum."""
    return _single_pair(rn, rm, 0.0)
