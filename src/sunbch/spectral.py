"""Spectral machinery for the small dense matrices the package works with.

Everything here is self-contained: eigendecompositions use cyclic Jacobi
rotations, characteristic polynomials come from the Faddeev-LeVerrier
recurrence, divided differences of the exponential come from a Taylor
series of Opitz's bidiagonal matrix (scaled and squared for widely spread
points), and linear solves go through the in-package LU kernel.

The matrices are desk scale (N <= 8).  A Jacobi rotation there touches a
few dozen numbers, so a numpy call per step costs more in dispatch than
in arithmetic.  The Jacobi sweeps therefore run over Python ``complex``
and ``float`` scalars held in nested lists and convert to numpy arrays
only at the end; at N = 8 that is about 4x faster than the same rotations
written as numpy slice updates, and faster still at N = 3.  One sweep
routine serves both entries: ``eig_hermitian`` carries the eigenvector
columns along, ``eigvals_hermitian`` leaves them out and returns the same
eigenvalues bit for bit.  The same reasoning puts the divided-difference
series on Python scalars.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import linsolve
from .errors import (
    ConvergenceError,
    DegenerateSpectrumError,
    IllConditionedError,
    SingularMatrixError,
)

HERMITIAN_TOL = 1e-10
UNITARY_TOL = 1e-8
JACOBI_OFF_TOL = 1e-13
JACOBI_MAX_SWEEPS = 100
GAP_TOL = 1e-9
VANDERMONDE_COND_LIMIT = 1e12
# Eigenvalues of (u + u')/2 closer than this share an eigenspace and are
# split by the skew part instead.
COS_CLUSTER_TOL = 1e-6
# Largest |c| times half-spread that exp_divided_differences sums without
# squaring: the series then loses at most exp(pi) ~ 23 roundoffs, and every
# spectrum the sampler draws (radius <= 0.9 pi) stays within it.
TAYLOR_REACH = math.pi
_ROUNDOFF = 2.0 ** -53


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues with matching orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def n(self) -> int:
        return self.eigenvalues.shape[0]


@dataclass(frozen=True)
class CharPoly:
    """Monic characteristic polynomial, coefficients[k] multiplying x**k."""

    coefficients: np.ndarray

    @property
    def degree(self) -> int:
        return self.coefficients.shape[0] - 1


def _square(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


@functools.lru_cache(maxsize=16)
def _pivot_order(n: int) -> tuple[tuple[int, int, tuple[int, ...]], ...]:
    """Row-cyclic (p, q) pivots, each with the indices k outside the pair."""
    return tuple(
        (p, q, tuple(k for k in range(n) if k != p and k != q))
        for p in range(n - 1)
        for q in range(p + 1, n)
    )


def _jacobi_diagonal(m: np.ndarray, cols: list[list[complex]] | None) -> list[float]:
    """Run the cyclic Jacobi sweeps on the square complex ``m``; return its
    final diagonal.

    ``eig_hermitian`` passes the identity's columns in ``cols`` and each
    rotation is applied to them too; ``eigvals_hermitian`` passes None and
    skips that work.  The columns never feed back into a rotation, so the
    diagonal comes out bitwise the same either way.
    """
    # Written as not(<) so that a NaN anywhere (inf - inf included) also
    # fails the guard.
    with np.errstate(invalid="ignore"):
        hermitian = np.max(np.abs(m - m.conj().T)) < HERMITIAN_TOL
    if not hermitian:
        raise ValueError("matrix is not finite and Hermitian within 1e-10")
    n = m.shape[0]
    tol = JACOBI_OFF_TOL * float(np.sqrt((np.abs(m) ** 2).sum()))
    skip = tol / (4.0 * n * n)
    a = m.tolist()
    # The real diagonal lives in `diag`; the diagonal entries of `a` are
    # never read again.
    diag = [a[k][k].real for k in range(n)]
    pivots = _pivot_order(n)
    for _ in range(JACOBI_MAX_SWEEPS):
        # Sum off-diagonal squares directly: subtracting the diagonal part
        # from the total Frobenius norm cancels catastrophically near
        # convergence.  The lower triangle mirrors the upper one exactly.
        upper = sum(z.real * z.real + z.imag * z.imag
                    for p in range(n - 1) for z in a[p][p + 1:])
        off = math.sqrt(2.0 * upper)
        if off <= tol:
            return diag
        for p, q, others in pivots:
            row_p, row_q = a[p], a[q]
            g = row_p[q]
            absg = abs(g)
            if absg <= skip:
                continue
            phase = complex(g.real / absg, g.imag / absg)
            zeta = (diag[q] - diag[p]) / (2.0 * absg)
            sgn = 1.0 if zeta >= 0.0 else -1.0
            t = sgn / (abs(zeta) + math.hypot(1.0, zeta))
            c = 1.0 / math.sqrt(1.0 + t * t)
            s = t * c
            # The rotation [[c phase, s phase], [-s, c]] on columns p, q.
            c_phase, s_phase = c * phase, s * phase
            for k in others:
                row = a[k]
                x, y = row[p], row[q]
                x, y = c_phase * x - s * y, s_phase * x + c * y
                row[p], row[q] = x, y
                row_p[k], row_q[k] = x.conjugate(), y.conjugate()
            shift = t * absg
            diag[p] -= shift
            diag[q] += shift
            row_p[q] = row_q[p] = 0j
            if cols is not None:
                col_p, col_q = cols[p], cols[q]
                cols[p] = [c_phase * x - s * y for x, y in zip(col_p, col_q)]
                cols[q] = [s_phase * x + c * y for x, y in zip(col_p, col_q)]
    raise ConvergenceError(
        f"Jacobi sweep budget ({JACOBI_MAX_SWEEPS}) exhausted, off-norm {off:.3e}"
    )


def eig_hermitian(m: np.ndarray) -> SpectralDecomposition:
    """Diagonalize a Hermitian matrix by cyclic Jacobi rotations.

    Each (p, q) pivot, taken in row-cyclic order, applies the unitary plane
    rotation that annihilates the off-diagonal pair; sweeps repeat until
    the off-diagonal Frobenius norm falls below JACOBI_OFF_TOL * ||m||_F.
    The stop is relative, so a small matrix is diagonalized to the same
    relative accuracy as a large one (Demmel & Veselic, SIAM J. Matrix
    Anal. Appl. 13, 1992), and a zero matrix stops before any rotation.
    The update is symmetric: a rotation computes the entries (k, p) and
    (k, q) for k outside the pivot pair, mirrors their conjugates into
    rows p and q, moves the diagonal by -/+ t|a_pq| and sets the pivot
    pair to exactly 0, so the working matrix stays exactly Hermitian with
    a real diagonal.  A non-finite or non-Hermitian input raises
    ValueError.  Eigenvalues are returned real, ascending (stable order
    for ties).
    """
    m = _square(m)
    n = m.shape[0]
    # Eigenvector columns, one list each: a rotation rewrites two of them.
    cols = [[1.0 + 0j if j == k else 0j for j in range(n)] for k in range(n)]
    vals = np.array(_jacobi_diagonal(m, cols))
    order = np.argsort(vals, kind="stable")
    vecs = np.array([cols[k] for k in order], dtype=complex).T.copy()
    return SpectralDecomposition(vals[order], vecs)


def eigvals_hermitian(m: np.ndarray) -> np.ndarray:
    """The eigenvalues of ``eig_hermitian(m)``, bitwise, without the vectors.

    Runs the same sweeps but accumulates no eigenvector columns, which is
    all that ``linearize_fn``, ``f0_trace`` and the sampler need.
    """
    return np.sort(np.array(_jacobi_diagonal(_square(m), None)), kind="stable")


def exp_divided_differences(values, c: complex) -> np.ndarray:
    """Divided differences f[x1], f[x1, x2], ..., f[x1..xn] of f(x) = exp(c x).

    By Opitz's theorem they are the first row of exp(c B), where B is the
    bidiagonal matrix with x1..xn on its diagonal and ones above it.  The
    points are shifted to their midpoint first, exp(c B) = exp(c mid)
    exp(c (B - mid I)), and exp(h (B - mid I)) is summed as a Taylor
    series, one bidiagonal step per term, with h = c / 2**s.  Its entries
    are the series of complete homogeneous symmetric polynomials that
    McCurdy, Ng & Parlett (Math. Comp. 43, 1984) use for close points, so
    no difference of nearby values is ever divided by their gap, and
    confluent points are allowed.  With half-spread r, term k of entry j
    is at most |h|**j (|h| r)**(k-j) / ((k-j)! j!), and the series
    loses about exp(|h| r) roundoffs of the entry's |h|**j / j! scale to
    cancellation.  So s is the least count of halvings that brings |h| r
    to TAYLOR_REACH or below, and the sum is squared s times afterwards.
    For s = 0 only the first row is summed; otherwise the whole upper
    triangle is, since squaring needs it.  The loop stops once the bound
    above is below one unit roundoff of the entry's scale.  The values
    are real and finite; anything else raises ValueError.
    """
    xs = [float(x) for x in values]
    n = len(xs)
    lo, hi = min(xs), max(xs)
    mid, reach = 0.5 * (lo + hi), 0.5 * (hi - lo) * abs(c)
    if not math.isfinite(mid + reach):
        raise ValueError("divided differences need finite points")
    squarings = 0
    while reach > TAYLOR_REACH:
        reach *= 0.5
        squarings += 1
    h = c * 0.5 ** squarings
    shifted = [x - mid for x in xs]
    # Terms of the series of exp(|h| r) are below one roundoff after
    # `extra` steps; entry j of row i starts at step j - i.
    extra, size = 0, 1.0
    while size > _ROUNDOFF:
        extra += 1
        size *= reach / extra
    rows = []
    for i in range(n if squarings else 1):
        row = [0j] * n  # e_i' (h (B - mid I))**k / k!
        row[i] = 1.0 + 0j
        total = row[:]
        for k in range(1, n - i + extra):
            scale = h / k
            prev = 0j
            # (row B)_j = row_j x_j + row_{j-1}; entries past i + k are 0.
            for j in range(i, min(i + k + 1, n)):
                cur = row[j]
                row[j] = term = scale * (cur * shifted[j] + prev)
                total[j] += term
                prev = cur
        rows.append(total)
    e = np.array(rows)
    for _ in range(squarings - 1):
        e = e @ e
    first = e[0] @ e if squarings else e[0]
    return np.exp(c * mid) * first


def eig_unitary(u: np.ndarray) -> SpectralDecomposition:
    """Eigendecompose a unitary matrix via its commuting Hermitian parts.

    (u + u')/2 and (u - u')/2i are simultaneously diagonalizable; the
    first is diagonalized outright and each of its near-degenerate
    eigenvalue clusters is then split by the second on that subspace.
    Eigenvalues come back on the unit circle, ordered by principal phase.
    Repeated eigenvalues are fine: any orthonormal basis of the shared
    eigenspace gives a valid decomposition.
    """
    u = _square(u)
    n = u.shape[0]
    if np.max(np.abs(u.conj().T @ u - np.eye(n))) >= UNITARY_TOL:
        raise ValueError("matrix is not unitary within 1e-8")
    cos_part = (u + u.conj().T) / 2.0
    sin_part = (u - u.conj().T) / 2j
    base = eig_hermitian(cos_part)
    vecs = base.eigenvectors.copy()
    cos_vals = base.eigenvalues
    start = 0
    while start < n:
        stop = start + 1
        while stop < n and cos_vals[stop] - cos_vals[stop - 1] < COS_CLUSTER_TOL:
            stop += 1
        if stop - start > 1:
            block = vecs[:, start:stop]
            sub = block.conj().T @ sin_part @ block
            sub = (sub + sub.conj().T) / 2.0
            split = eig_hermitian(sub)
            vecs[:, start:stop] = block @ split.eigenvectors
        start = stop
    vals = np.einsum("ak,ab,bk->k", vecs.conj(), u, vecs)
    vals = vals / np.abs(vals)
    order = np.argsort(np.angle(vals), kind="stable")
    return SpectralDecomposition(vals[order], vecs[:, order])


def char_poly(m: np.ndarray) -> CharPoly:
    """Monic characteristic polynomial by the Faddeev-LeVerrier recurrence.

    coefficients[N] = 1 and coefficients[0] = (-1)**N det(m); a traceless
    input has coefficients[N-1] = 0 up to rounding.
    """
    m = _square(m)
    n = m.shape[0]
    if n > 8:
        raise ValueError(f"characteristic polynomial supported for N <= 8, got {n}")
    coeff = np.zeros(n + 1, dtype=complex)
    coeff[n] = 1.0
    b = np.eye(n, dtype=complex)
    for k in range(1, n + 1):
        if k > 1:
            b = m @ b + coeff[n - k + 1] * np.eye(n)
        coeff[n - k] = -np.trace(m @ b) / k
    return CharPoly(coeff)


def _min_gap(values: np.ndarray) -> float:
    values = np.asarray(values)
    gap = np.inf
    for i in range(values.shape[0] - 1):
        gap = min(gap, float(np.min(np.abs(values[i + 1:] - values[i]))))
    return gap


def _require_simple_spectrum(eigenvalues: np.ndarray) -> None:
    radius = float(np.max(np.abs(eigenvalues)))
    if _min_gap(eigenvalues) <= GAP_TOL * radius:
        raise DegenerateSpectrumError(
            f"eigenvalue gap below {GAP_TOL:g} of the spectral radius {radius:.3e}"
        )


def lagrange_projectors(m: np.ndarray, spec: SpectralDecomposition) -> list[np.ndarray]:
    """Spectral projectors P_k = prod_{n != k} (m - m_n I)/(m_k - m_n)."""
    m = _square(m)
    vals = spec.eigenvalues
    _require_simple_spectrum(vals)
    eye = np.eye(m.shape[0], dtype=complex)
    projectors = []
    for k in range(spec.n):
        p = eye
        for j in range(spec.n):
            if j != k:
                p = p @ (m - vals[j] * eye) / (vals[k] - vals[j])
        projectors.append(p)
    return projectors


def apply_spectral(spec: SpectralDecomposition, fn) -> np.ndarray:
    """f(M) = sum_k f(m_k) v_k v_k' from an eigendecomposition."""
    fvals = np.asarray([fn(v) for v in spec.eigenvalues], dtype=complex)
    v = spec.eigenvectors
    return np.einsum("k,ak,bk->ab", fvals, v, v.conj())


def expansion_coeffs(spec: SpectralDecomposition, fn) -> np.ndarray:
    """Coefficients f_n with f(M) = sum_n f_n M**n, n = 0..N-1.

    Solves the Vandermonde system sum_n f_n m_k**n = f(m_k) over the
    eigenvalues.  Requires a simple spectrum and a usable condition
    number; both guards signal clustered eigenvalues.
    """
    vals = np.asarray(spec.eigenvalues, dtype=complex)
    _require_simple_spectrum(vals)
    vander = np.vander(vals, increasing=True)
    fvals = np.asarray([fn(v) for v in spec.eigenvalues], dtype=complex)
    # One factorization serves both the condition guard and the solve.
    try:
        factors = linsolve.lu_factor(vander)
    except SingularMatrixError:
        cond = np.inf
    else:
        cond = linsolve.factored_condition(vander, factors)
    if cond > VANDERMONDE_COND_LIMIT:
        raise IllConditionedError(
            "Vandermonde condition number exceeds 1e12 (clustered eigenvalues)"
        )
    return linsolve.lu_solve(factors, fvals)


def expansion_coeffs_derivative(
    spec: SpectralDecomposition, char: CharPoly, fn
) -> np.ndarray:
    """Same coefficients by a second, independent route.

    Uses the inverse eigenvalue-gap weights

        delta_n = prod_{k != n} (m_n - m_k)**-1

    to form the moments D_q = sum_n delta_n m_n**q f(m_n) (the weighted
    divided differences of x**q f(x)), then folds in the characteristic
    polynomial by synthetic division:

        f_n = sum_{q=0}^{N-1-n} a_{n+1+q} D_q.

    Shares no solver with expansion_coeffs, which makes the pairwise
    agreement of the two routes a meaningful check.
    """
    vals = np.asarray(spec.eigenvalues, dtype=complex)
    n = vals.shape[0]
    if char.degree != n:
        raise ValueError(f"characteristic polynomial degree {char.degree} != {n}")
    _require_simple_spectrum(vals)
    delta = np.array(
        [1.0 / np.prod(vals[k] - np.delete(vals, k)) for k in range(n)]
    )
    fvals = np.asarray([fn(v) for v in spec.eigenvalues], dtype=complex)
    moments = np.array([np.sum(delta * vals**q * fvals) for q in range(n)])
    a = char.coefficients
    return np.array(
        [np.sum(a[k + 1: n + 1] * moments[: n - k]) for k in range(n)]
    )
