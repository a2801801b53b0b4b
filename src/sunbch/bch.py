"""Composition and conjugation of SU(N) exponentials in coordinates.

``compose`` multiplies two group elements exp(-i m . L) exp(-i n . L)
without ever leaving coordinate space: both factors are linearized, the
product reduces through the structure tensors,

    r0 = mu0 nu0 + (2/N) mu . nu
    r  = nu0 mu + mu0 nu + mu (.) nu + i mu (x) nu,

and the result is delinearized back to an algebra element.  ``similarity``
forms exp(-i m . L) (n . L) exp(i m . L) = n' . L with the same product, twice.
Each analytic path has a dense oracle twin (``compose_direct``, ``similarity_direct``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import (
    GeneratorBasis,
    LinearElement,
    StructureTensors,
    _check_coords,
    algebra_matrix,
    cross,
    dot_sym,
    from_matrix,
)
from .errors import ConstraintViolationError
from .linearize import delinearize_exp, exp_matrix, exp_minus_i, exp_plus_i, linearize_fn, log_coords

CONSTRAINT_TOL = 1e-9
DIRECT_SCALAR_TOL = 1e-10


@dataclass(frozen=True)
class AdjointKernel:
    """The (N**2-1)-dimensional operators of the conjugation equation.

    K+- = mu0 I + D(mu) +- i F(mu) with D(mu)_jl = d_jkl mu_k and
    F(mu)_jl = f_jkl mu_k; ``similarity``'s n' satisfies K- n = K+ n'.
    """

    kplus: np.ndarray
    kminus: np.ndarray


def _multiply(t: StructureTensors, a: LinearElement, b: LinearElement) -> LinearElement:
    """Coordinates of (a0 I + a . L)(b0 I + b . L)."""
    scalar = a.scalar * b.scalar + (2.0 / t.n) * np.dot(a.vector, b.vector)
    vector = (
        b.scalar * a.vector
        + a.scalar * b.vector
        + dot_sym(t, a.vector, b.vector)
        + 1j * cross(t, a.vector, b.vector)
    )
    return LinearElement(scalar, vector)


def compose_linear(
    t: StructureTensors, basis: GeneratorBasis, m: np.ndarray, nvec: np.ndarray
) -> LinearElement:
    """Product coordinates of exp(-i m . L) exp(-i n . L), not yet delinearized."""
    mu = linearize_fn(t, basis, m, exp_minus_i)
    nu = linearize_fn(t, basis, nvec, exp_minus_i)
    return _multiply(t, mu, nu)


def compose(
    t: StructureTensors, basis: GeneratorBasis, m: np.ndarray, nvec: np.ndarray
) -> np.ndarray:
    """Coordinates r with exp(-i r . L) = exp(-i m . L) exp(-i n . L)."""
    return delinearize_exp(basis, compose_linear(t, basis, m, nvec))


def compose_direct(
    basis: GeneratorBasis, m: np.ndarray, nvec: np.ndarray
) -> np.ndarray:
    """Dense oracle for ``compose``: multiply the unitaries, take the log."""
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


def build_adjoint_kernel(t: StructureTensors, mu: LinearElement) -> AdjointKernel:
    """Assemble K+- from the linearized coordinates of exp(+i m . L)."""
    (vector,) = _check_coords(t.dim, mu.vector)
    sym = np.einsum("jkl,k->jl", t.d, vector)
    skew = np.einsum("jkl,k->jl", t.f, vector)
    eye = np.eye(t.dim)
    return AdjointKernel(
        kplus=mu.scalar * eye + sym + 1j * skew,
        kminus=mu.scalar * eye + sym - 1j * skew,
    )


def _conjugate(
    t: StructureTensors, basis: GeneratorBasis, m: np.ndarray, nvec: np.ndarray
) -> tuple[np.ndarray, float, float]:
    """``similarity``'s n' with its norm drift and mu . n defect."""
    (m, nvec) = _check_coords(t.dim, m, nvec)
    mu = linearize_fn(t, basis, m, exp_plus_i)
    mu_bar = LinearElement(np.conj(mu.scalar), np.conj(mu.vector))
    product = _multiply(t, _multiply(t, mu_bar, LinearElement(0.0, nvec)), mu)
    residue = max(abs(product.scalar), float(np.max(np.abs(product.vector.imag))))
    if residue > CONSTRAINT_TOL:
        raise ConstraintViolationError(f"conjugation left a scalar or imaginary part {residue:.3e}")
    nprime = product.vector.real
    drift = abs(float(np.sqrt(np.dot(nprime, nprime)) - np.sqrt(np.dot(nvec, nvec))))
    if drift > CONSTRAINT_TOL:
        raise ConstraintViolationError(f"conjugation changed the norm by {drift:.3e}")
    scalar_defect = abs(complex(np.dot(mu.vector, nvec) - np.dot(mu.vector, nprime)))
    if scalar_defect > CONSTRAINT_TOL:
        raise ConstraintViolationError(
            f"scalar invariant mu . n drifted by {scalar_defect:.3e}"
        )
    return nprime, drift, scalar_defect


def similarity(
    t: StructureTensors, basis: GeneratorBasis, m: np.ndarray, nvec: np.ndarray
) -> np.ndarray:
    """Coordinates n' with exp(-i m . L)(n . L) exp(i m . L) = n' . L.

    Multiplies out conj(mu0, mu) (0, n) (mu0, mu), with exp(i m . L) = mu0 I + mu . L
    (the generators are Hermitian).  The product must be real with no scalar part,
    keep the norm of n and the invariant mu . n = mu . n', each within 1e-9.
    """
    return _conjugate(t, basis, m, nvec)[0]


def similarity_direct(
    basis: GeneratorBasis, m: np.ndarray, nvec: np.ndarray
) -> np.ndarray:
    """Dense oracle for ``similarity``: conjugate n . L by exp(-i m . L)."""
    u = exp_matrix(basis, m)
    elem = from_matrix(basis, u @ algebra_matrix(basis, nvec) @ u.conj().T)
    if abs(elem.scalar) >= DIRECT_SCALAR_TOL:
        raise ConstraintViolationError(
            f"conjugation produced a scalar part of {abs(elem.scalar):.3e}"
        )
    residue = float(np.max(np.abs(elem.vector.imag)))
    if residue > CONSTRAINT_TOL:
        raise ConstraintViolationError(
            f"conjugated coordinates have imaginary residue {residue:.3e}"
        )
    return elem.vector.real
