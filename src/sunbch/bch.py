"""Composition and conjugation of SU(N) exponentials in coordinates.

``compose`` multiplies two group elements exp(-i m . L) exp(-i n . L)
without ever leaving coordinate space: both factors are linearized, the
product reduces through the structure tensors by ``algebra.multiply``,

    r0 = mu0 nu0 + (2/N) mu . nu
    r  = nu0 mu + mu0 nu + mu (.) nu + i mu (x) nu,

and the result is delinearized back to an algebra element.  ``multiply``
sums the bilinear part, mu (.) nu + i mu (x) nu = D(nu) mu + i F(nu) mu,
straight from the structure tensors' row-major term list, one gather and
one segmented sum, with no matrix formed.  ``similarity`` forms
exp(-i m . L) (n . L) exp(i m . L) = n' . L with the same product, twice,
from one linearization and its conjugate.
Each analytic path has a dense oracle twin (``compose_direct``, ``similarity_direct``).
"""

from __future__ import annotations

import math

import numpy as np

from .algebra import (
    GeneratorBasis,
    LinearElement,
    StructureTensors,
    _real_coords,
    algebra_matrix,
    from_matrix,
    multiply,
    product_matrices,
)
from .errors import ConstraintViolationError
from .linearize import delinearize_exp, exp_matrix, linearize_fn, log_coords

CONSTRAINT_TOL = 1e-9
DIRECT_SCALAR_TOL = 1e-10


def compose_linear(
    t: StructureTensors, basis: GeneratorBasis, m: np.ndarray, nvec: np.ndarray
) -> LinearElement:
    """Product coordinates of exp(-i m . L) exp(-i n . L), not yet delinearized."""
    _real_coords(t.dim, nvec=nvec)  # linearize_fn checks m
    return multiply(t, linearize_fn(t, basis, m), linearize_fn(t, basis, nvec))


def _compose(
    t: StructureTensors, basis: GeneratorBasis, m: np.ndarray, nvec: np.ndarray
) -> tuple[np.ndarray, LinearElement]:
    """``compose``'s r and product; a product that rounding pushed out of
    SU(N) is refused as ConstraintViolationError, not as invalid input."""
    product = compose_linear(t, basis, m, nvec)
    try:
        return delinearize_exp(t, basis, product), product
    except ValueError as exc:
        raise ConstraintViolationError(f"the composed product is not in SU(N): {exc}") from exc


def compose(
    t: StructureTensors, basis: GeneratorBasis, m: np.ndarray, nvec: np.ndarray
) -> np.ndarray:
    """Coordinates r with exp(-i r . L) = exp(-i m . L) exp(-i n . L)."""
    return _compose(t, basis, m, nvec)[0]


def compose_direct(
    basis: GeneratorBasis, m: np.ndarray, nvec: np.ndarray
) -> np.ndarray:
    """Dense oracle for ``compose``: multiply the unitaries, take the log.
    A complex or non-finite m or n is a ValueError, as in ``compose``."""
    m, nvec = _real_coords(basis.dim, m=m, nvec=nvec)
    return log_coords(basis, exp_matrix(basis, m) @ exp_matrix(basis, nvec))


def _half_sine_axis(v: np.ndarray) -> np.ndarray:
    angle = float(np.sqrt(np.dot(v, v)))
    if angle == 0.0:
        return np.zeros(3)
    return v * (np.sin(angle / 2.0) / angle)


def su2_compose_closed_form(
    alpha: np.ndarray, beta: np.ndarray
) -> tuple[float, np.ndarray]:
    """Half-angle product rule for SU(2), independent of the tensor machinery.

    For exp(-i alpha . sigma / 2) exp(-i beta . sigma / 2) returns the real
    pair (g0, gvec) of the product written as g0 I - i gvec . sigma:

        g0   = cos(a/2) cos(b/2) - sin(a/2) sin(b/2) ea . eb
        gvec = sin(a/2) cos(b/2) ea + cos(a/2) sin(b/2) eb
               + sin(a/2) sin(b/2) ea x eb

    with a = |alpha|, ea = alpha/a (and likewise for beta); the zero-angle
    limits are taken smoothly.
    """
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=float)
    if alpha.shape != (3,) or beta.shape != (3,):
        raise ValueError("the closed form is the N = 2 rule; expected 3-vectors")
    ca = np.cos(np.sqrt(np.dot(alpha, alpha)) / 2.0)
    cb = np.cos(np.sqrt(np.dot(beta, beta)) / 2.0)
    sa = _half_sine_axis(alpha)
    sb = _half_sine_axis(beta)
    g0 = ca * cb - np.dot(sa, sb)
    gvec = cb * sa + ca * sb + np.cross(sa, sb)
    return float(g0), gvec


def build_adjoint_kernel(t: StructureTensors, mu: LinearElement) -> tuple[np.ndarray, np.ndarray]:
    """The (N**2-1)-dimensional operators (K+, K-) of the conjugation
    equation, from the linearized exp(+i m . L), ``linearize_fn(...).conj()``.

    K+- = mu0 I + D(mu) -+ i F(mu) with ``algebra.product_matrices``'
    D(mu) v = v (.) mu and F(mu) v = v (x) mu, which read only the index
    arrays of f and d, never a dense tensor; ``similarity``'s n' satisfies
    K- n = K+ n'.
    """
    sym, skew = product_matrices(t, mu.vector)
    base = mu.scalar * np.eye(t.dim) + sym
    return base - 1j * skew, base + 1j * skew


def _norm(v: np.ndarray) -> float:
    """Euclidean norm without overflow or underflow in the squares."""
    return math.hypot(*v.tolist())


def _conjugate(
    t: StructureTensors, basis: GeneratorBasis, m: np.ndarray, nvec: np.ndarray
) -> tuple[np.ndarray, float, float]:
    """``similarity``'s n' with its norm drift and mu . n defect.

    n' is linear in n, so its rounding scales with |n|: each guard is
    CONSTRAINT_TOL times max(1, |n|).  A complex or non-finite m or n is a
    ValueError."""
    (nvec,) = _real_coords(t.dim, nvec=nvec)  # linearize_fn checks m
    nu = linearize_fn(t, basis, m)
    mu = nu.conj()
    product = multiply(t, multiply(t, nu, LinearElement(0.0, nvec)), mu)
    norm = _norm(nvec)
    tol = CONSTRAINT_TOL * max(1.0, norm)
    residue = float(np.max(np.abs(product.vector.imag), initial=abs(product.scalar)))
    if not residue <= tol:
        raise ConstraintViolationError(f"conjugation left a scalar or imaginary part {residue:.3e}")
    nprime = product.vector.real
    drift = abs(_norm(nprime) - norm)
    if not drift <= tol:
        raise ConstraintViolationError(f"conjugation changed the norm by {drift:.3e}")
    scalar_defect = abs(complex(np.dot(mu.vector, nvec) - np.dot(mu.vector, nprime)))
    if not scalar_defect <= tol:
        raise ConstraintViolationError(
            f"scalar invariant mu . n drifted by {scalar_defect:.3e}"
        )
    return nprime, drift, scalar_defect


def similarity(
    t: StructureTensors, basis: GeneratorBasis, m: np.ndarray, nvec: np.ndarray
) -> np.ndarray:
    """Coordinates n' with exp(-i m . L)(n . L) exp(i m . L) = n' . L.

    Multiplies out (nu0, nu) (0, n) (mu0, mu), with exp(-i m . L) = nu0 I + nu . L
    and exp(i m . L) = mu0 I + mu . L its conjugate (the generators are Hermitian).
    The product must be real with no scalar part, keep the norm of n and the
    invariant mu . n = mu . n', each within 1e-9 times max(1, |n|).
    """
    return _conjugate(t, basis, m, nvec)[0]


def similarity_direct(
    basis: GeneratorBasis, m: np.ndarray, nvec: np.ndarray
) -> np.ndarray:
    """Dense oracle for ``similarity``: conjugate n . L by exp(-i m . L).

    Its guards scale with max(1, |n|) as ``similarity``'s do.  A complex
    or non-finite m or n is a ValueError, as there.
    """
    m, nvec = _real_coords(basis.dim, m=m, nvec=nvec)
    u = exp_matrix(basis, m)
    elem = from_matrix(basis, u @ algebra_matrix(basis, nvec) @ u.conj().T)
    scale = max(1.0, _norm(nvec))
    if not abs(elem.scalar) < DIRECT_SCALAR_TOL * scale:
        raise ConstraintViolationError(
            f"conjugation produced a scalar part of {abs(elem.scalar):.3e}"
        )
    residue = float(np.max(np.abs(elem.vector.imag)))
    if not residue <= CONSTRAINT_TOL * scale:
        raise ConstraintViolationError(
            f"conjugated coordinates have imaginary residue {residue:.3e}"
        )
    return elem.vector.real
