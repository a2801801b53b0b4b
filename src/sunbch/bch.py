"""Composition and conjugation of SU(N) exponentials in coordinates.

``compose`` multiplies two group elements exp(-i m . L) exp(-i n . L)
without ever leaving coordinate space: both factors are linearized, the
product reduces through the structure tensors by ``algebra.multiply``,

    r0 = mu0 nu0 + (2/N) mu . nu
    r  = nu0 mu + mu0 nu + mu (.) nu + i mu (x) nu,

and the result is delinearized back to an algebra element.  ``multiply``
sums the bilinear part, mu (.) nu + i mu (x) nu = D(nu) mu + i F(nu) mu,
straight from the structure tensors' row-major term list, one gather and
one segmented sum, with no matrix formed.

``similarity`` forms exp(-i m . L) (n . L) exp(i m . L) = n' . L, which is
real, as the adjoint action in coordinates: n' = exp(K) n with
K y = 2 m (x) y, K = -2 F(m) one ``np.bincount`` over the f terms.
Inside ``linearize_fn``'s reach (beta = (Tr M**8)**(1/8) <= TAYLOR_REACH)
exp(K) n is a Taylor series on the vector, in one or two passes of
radius at most pi, with no linearization and no complex product; it is
guarded by its norm and by the invariants of m's commutant,
w_k . n' = w_k . n for the vector parts w_k of M**k.  Past the reach it is
the sandwich (nu0, nu) (0, n) (mu0, mu) of two ``multiply`` calls on one
linearization nu of exp(-i m . L) and its conjugate mu, guarded by its
scalar and imaginary residue, its norm and mu . n = mu . n'.
Of the routes only ``compose``'s ``delinearize_exp`` reads the generator matrices,
to form the dense u, so ``compose_linear`` and ``_conjugate`` take no basis.
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
from .linearize import (
    _COS_SIN,
    _cos_sin,
    _reach_bound,
    _series_powers,
    _step_matrix,
    delinearize_exp,
    exp_matrix,
    linearize_fn,
    log_coords,
)
from .spectral import TAYLOR_REACH

CONSTRAINT_TOL = 1e-9
DIRECT_SCALAR_TOL = 1e-10


def compose_linear(t: StructureTensors, m: np.ndarray, nvec: np.ndarray) -> LinearElement:
    """exp(-i m . L) exp(-i n . L) in coordinates, from the tensors alone, not yet delinearized."""
    _real_coords(t.dim, nvec=nvec)  # linearize_fn checks m
    return multiply(t, linearize_fn(t, m), linearize_fn(t, nvec))


def _compose(
    t: StructureTensors, basis: GeneratorBasis, m: np.ndarray, nvec: np.ndarray
) -> tuple[np.ndarray, LinearElement]:
    """``compose``'s r and product; a product that rounding pushed out of
    SU(N) is refused as ConstraintViolationError, not as invalid input."""
    product = compose_linear(t, m, nvec)
    try:
        return delinearize_exp(t, basis, product), product
    except ValueError as exc:
        raise ConstraintViolationError(f"the composed product is not in SU(N): {exc}") from exc


def compose(
    t: StructureTensors, basis: GeneratorBasis, m: np.ndarray, nvec: np.ndarray
) -> np.ndarray:
    """Coordinates r with exp(-i r . L) = exp(-i m . L) exp(-i n . L)."""
    return _compose(t, basis, m, nvec)[0]


def compose_direct(basis: GeneratorBasis, m: np.ndarray, nvec: np.ndarray) -> np.ndarray:
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
    """Euclidean norm without overflow or underflow in the squares: from
    ``math.hypot``, and where v . v is then safely a normal float, sqrt(v . v)
    itself, so that a norm drift reads |sqrt(n' . n') - sqrt(n . n)| bit for
    bit whatever the route's last bits."""
    size = math.hypot(*v.tolist())
    return math.sqrt(float(v @ v)) if 1e-150 <= size <= 1e150 else size


def _adjoint_series(
    t: StructureTensors, m: np.ndarray, nvec: np.ndarray, radius: float, norm: float
) -> np.ndarray:
    """exp(K) n for K = K(m) = -2 F(m), K y = 2 m (x) y, the action of the
    matrix exponential on a vector by its truncated Taylor series (Al-Mohy
    & Higham, SIAM J. Sci. Comput. 33 (2011) 488).  K, one ``np.bincount``
    over ``StructureTensors.adjoint_rule``, is real antisymmetric with
    eigenvalues i (lambda_a - lambda_b), of modulus at most 2 ``radius``
    for a bound ``radius`` >= rho(M).  Where 2 radius <= TAYLOR_REACH one
    pass of exp(K) = cosh K + K (sinh K / K) sums cos + K sin of
    ``linearize._cos_sin`` over the powers (-K**2)**k n; otherwise two
    passes of exp(K/2), so that each has radius at most TAYLOR_REACH and
    loses at most about exp(pi) roundoffs to cancellation, not exp(2 pi).
    n is scaled by a power of two to |n| < 1 (``norm`` = |n|) and back, so
    no power overflows; at m = 0 n comes back bit for bit."""
    slots, gather, coef = t.adjoint_rule
    passes = 1 if 2.0 * radius <= TAYLOR_REACH else 2
    step = np.bincount(slots, coef * m[gather], minlength=t.dim * t.dim).reshape(t.dim, t.dim)
    if passes == 2:
        step *= 0.5
    square = -(step @ step)
    exponent = math.frexp(norm)[1]
    powers = np.empty((len(_COS_SIN), t.dim))
    vec = np.ldexp(nvec, -exponent)
    for _ in range(passes):
        powers[0] = vec
        cos, sin = _cos_sin(square, powers, 2.0 * radius / passes, 1)
        vec = cos + step @ sin
    return np.ldexp(vec, exponent)


def _mu_defect(mu: LinearElement, nvec: np.ndarray, nprime: np.ndarray) -> float:
    """|mu . n - mu . n'| for mu the vector part of exp(i m . L)."""
    return abs(complex(np.dot(mu.vector, nvec) - np.dot(mu.vector, nprime)))


def _conjugate(
    t: StructureTensors, m: np.ndarray, nvec: np.ndarray
) -> tuple[np.ndarray, float, LinearElement | None]:
    """``similarity``'s n' with its norm drift, and the linearization
    exp(-i m . L) where the route made one (past the reach), else None.

    It reads the structure tensors alone.  n' is linear in n, so its
    rounding scales with |n|: each guard is CONSTRAINT_TOL times
    max(1, |n|).  The reach is tested as in ``linearize_fn``:
    |m| <= TAYLOR_REACH sqrt(N / 2), by ``math.hypot``, then beta from the
    coordinates of M**4 (``linearize._reach_bound``).  Inside it n' is
    ``_adjoint_series``, real and traceless by construction, guarded by
    its norm and by the commutant invariants w_k . n' = w_k . n,
    k = 1 .. N - 1: M**k commutes with exp(-iM), so
    Tr(M**k n' . L) = Tr(M**k n . L).  w_k is the vector part of
    (M / 2**e)**k, 2**e the power of two just above |m|, the row A**k e0 of
    the powers that gave beta: unit-free, so a vector part that cancels
    to rounding (M**2 = c I) stays at rounding, and mu, a polynomial in
    M, lies in their span.  Past the reach n' is the sandwich
    (nu0, nu) (0, n) (mu0, mu) of two ``multiply`` calls, guarded by its
    scalar and imaginary residue, its norm and mu . n = mu . n'.  A
    complex or non-finite m or n is a ValueError."""
    (nvec,) = _real_coords(t.dim, nvec=nvec)
    (m,) = _real_coords(t.dim, m=m)
    norm = _norm(nvec)
    tol = CONSTRAINT_TOL * max(1.0, norm)
    size = math.hypot(*m.tolist())
    if size <= TAYLOR_REACH * math.sqrt(0.5 * t.n):
        # Rows A**k e0 of M / 2**e, 2**e the power of two just above |m|, for
        # k up to 4 (beta) and N - 1 (the commutant guard): their coordinates
        # neither overflow nor underflow, and beta scales back.
        e = math.frexp(size)[1]
        powers = np.zeros((max(5, t.n), t.dim + 1))
        powers[0, 0] = 1.0
        _series_powers(_step_matrix(t, np.ldexp(m, -e)), powers, 1)
        radius = math.ldexp(_reach_bound(t, powers[4]), e)
        if radius <= TAYLOR_REACH:
            nprime = _adjoint_series(t, m, nvec, radius, norm)
            drift = _drift(nprime, norm, tol)
            defect = float(np.max(np.abs(powers[1 : t.n, 1:] @ (nprime - nvec))))
            if not defect <= tol:
                raise ConstraintViolationError(
                    f"conjugation moved a commutant invariant w_k . n of m by {defect:.3e}, "
                    f"limit {tol:.3e}"
                )
            return nprime, drift, None
    nu = linearize_fn(t, m)
    mu = nu.conj()
    product = multiply(t, multiply(t, nu, LinearElement(0.0, nvec)), mu)
    residue = float(np.max(np.abs(product.vector.imag), initial=abs(product.scalar)))
    if not residue <= tol:
        raise ConstraintViolationError(f"conjugation left a scalar or imaginary part {residue:.3e}")
    nprime = product.vector.real
    drift = _drift(nprime, norm, tol)
    scalar_defect = _mu_defect(mu, nvec, nprime)
    if not scalar_defect <= tol:
        raise ConstraintViolationError(
            f"scalar invariant mu . n drifted by {scalar_defect:.3e}"
        )
    return nprime, drift, nu


def _drift(nprime: np.ndarray, norm: float, tol: float) -> float:
    """| |n'| - |n| |, refused past ``tol``."""
    drift = abs(_norm(nprime) - norm)
    if not drift <= tol:
        raise ConstraintViolationError(f"conjugation changed the norm by {drift:.3e}")
    return drift


def similarity(
    t: StructureTensors, basis: GeneratorBasis, m: np.ndarray, nvec: np.ndarray
) -> np.ndarray:
    """Coordinates n' with exp(-i m . L)(n . L) exp(i m . L) = n' . L.

    d/ds of exp(-i s M) N exp(i s M) is -i [M, N(s)] = (2 m (x) n(s)) . L,
    so n' = exp(K) n with K y = 2 m (x) y, the adjoint action in
    coordinates.  Inside TAYLOR_REACH (beta = (Tr M**8)**(1/8) <= pi, the
    bound and test of ``linearize_fn``) it is that series on the vector
    (``_adjoint_series``), with no linearization and no complex product.
    Past the reach it multiplies out (nu0, nu) (0, n) (mu0, mu), with
    exp(-i m . L) = nu0 I + nu . L from ``linearize_fn`` and
    exp(i m . L) = mu0 I + mu . L its conjugate.  Either way n' keeps the
    norm of n within 1e-9 times max(1, |n|), and the invariants of m's
    commutant (inside) or mu . n = mu . n' and a real, scalar-free
    product (past) within the same limit (``_conjugate``).  No route reads
    ``basis``, which keeps ``compose``'s (t, basis, m, n) form.
    """
    return _conjugate(t, m, nvec)[0]


def similarity_direct(basis: GeneratorBasis, m: np.ndarray, nvec: np.ndarray) -> np.ndarray:
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
