"""Spectral machinery for the small dense matrices the package works with.

Hermitian eigenproblems go to LAPACK, ``eig_hermitian`` by ``eigh`` and the
values-only callers by ``eigvalsh`` (``_eigvalsh``), so the two agree to
rounding, not bit for bit; a matrix of extreme norm is first scaled by a
power of two, which is exact.  Characteristic polynomials come from
the traces of a matrix's powers by Newton's identities
(``_power_sum_poly``).  exp(-ix)'s divided differences come from the
Taylor series of Opitz's bidiagonal matrix, scaled and squared for widely
spread points within PHASE_BUDGET (``_taylor_rows``, over Python scalars).
They serve only the monomial coefficients of exp(-iM), cross-checks of
``linearize_fn``, which reads none; no Vandermonde system is solved.

A unitary u is diagonalized by one Hermitian eigenproblem, its Cayley
transform H = i (wI + u)(wI - u)**-1 (``eig_unitary``), whose eigenvectors
are orthonormal however u's eigenvalues cluster.  The pole w is the point
of largest |p_u(w)| among 4N points on the unit circle (``_cayley_pole``),
p_u being u's characteristic polynomial from its powers (``_power_rows``,
``_power_poly``, which ``char_poly`` also reads), and Cayley-Hamilton
gives (wI - u)**-1 as a polynomial in u, so no linear system is solved.
The powers alone serve the values-only logarithm past the gate,
``linearize._log_past_gate``, which takes u's eigenvalues from LAPACK's
nonsymmetric ``eigvals`` through ``_lapack`` and needs no eigenvector.
"""

from __future__ import annotations

import cmath
import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import ConstraintViolationError, ConvergenceError, DegenerateSpectrumError

HERMITIAN_TOL = 1e-10
UNITARY_TOL = 1e-8
# Largest rho eps (eps = 2**-52) for exp(-ix) at points bounded by rho:
# each phase carries about rho eps of rounding, which no unitarity check
# sees.  |m| = 1e8 is answered at every N (rho eps <= 2.9e-8), 1e9 is not.
PHASE_BUDGET = 1e-7
GAP_TOL = 1e-9
# Largest N the package supports, the range its tests and CI cover:
# ``char_poly`` refuses larger input, and ``verify``'s run configuration
# and the CLI's --n read it.
MAX_N = 8
# Largest half-spread that exp_divided_differences sums without squaring,
# and largest bound on rho(M) at which ``linearize_fn`` sums exp(-iM) as a
# Taylor series: either series then loses at most exp(pi) ~ 23 roundoffs.
TAYLOR_REACH = math.pi
_ROUNDOFF = 2.0 ** -53
# ||m||_F^2 range in which the Hermitian eigensolver runs on m unscaled.
# Outside it m is scaled by a power of two, which is exact, so the results
# are those of the normal-range matrix bit for bit; LAPACK's own rescaling
# of badly scaled input is by a factor that is not a power of two, and it
# starts only for entries below about 1e-146 or above 1e146, outside the
# entries' range of about 2**+-300 here.
_SAFE_NORM2 = (2.0 ** -600, 2.0 ** 600)


def _phase_budget_refusal(phase: float, subject: str) -> ConstraintViolationError | None:
    """The refusal "<subject> = <phase> passes PHASE_BUDGET" of a rounding bound rho eps =
    ``phase`` past the budget (or NaN), for the caller to raise as its own; else None."""
    if phase <= PHASE_BUDGET:
        return None
    return ConstraintViolationError(f"{subject} = {phase:.3e} passes PHASE_BUDGET = {PHASE_BUDGET:g}")


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues with matching orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def n(self) -> int:
        return self.eigenvalues.shape[0]


def _square(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


def _hermitian(m: np.ndarray) -> np.ndarray:
    """``eig_hermitian``'s guard: ``m`` as a complex square matrix, or
    ValueError unless it is finite and Hermitian within HERMITIAN_TOL."""
    m = _square(m)
    # Written as not(<) so that a NaN anywhere (inf - inf included) also
    # fails the guard.
    with np.errstate(invalid="ignore"):
        defect = float(np.abs(m - m.conj().T).max())
    if not defect < HERMITIAN_TOL:
        raise ValueError(
            f"matrix is not finite and Hermitian within {HERMITIAN_TOL:g}: "
            f"m - m' reached {defect:.3e}"
        )
    return m


def _lapack(solver, m: np.ndarray):
    """``solver(m)`` (``np.linalg.eigh``, ``eigvalsh`` or ``eigvals``) for a complex or real m,
    and the e to scale its eigenvalues back by: outside ``_SAFE_NORM2`` m is scaled by 2**-e,
    2**e just above its largest part, exactly.  A non-finite entry is a ValueError, a LAPACK
    failure ConvergenceError."""
    e = 0
    if not _SAFE_NORM2[0] < np.vdot(m, m).real < _SAFE_NORM2[1]:
        parts = np.ascontiguousarray(m).view(float)
        peak = np.abs(parts).max()
        if not math.isfinite(peak):
            raise ValueError(f"matrix is not finite: an entry reached {peak}")
        _, e = math.frexp(peak)
        m = np.ldexp(parts, -e).view(m.dtype)
    try:
        return solver(m), e
    except np.linalg.LinAlgError as exc:
        norm = math.ldexp(float(np.linalg.norm(m)), e)
        raise ConvergenceError(
            f"eigensolver failed at N = {m.shape[0]}, ||m||_F = {norm:.3e}: {exc}"
        ) from exc


def _eigvalsh(m: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the complex Hermitian square ``m`` by LAPACK's
    eigenvalues-only driver, pre-scaled by ``_lapack``; no Hermitian test."""
    vals, e = _lapack(np.linalg.eigvalsh, m)
    return np.ldexp(vals, e) if e else vals


def eig_hermitian(m: np.ndarray) -> SpectralDecomposition:
    """Diagonalize a Hermitian matrix by ``np.linalg.eigh``, pre-scaled by
    ``_lapack`` (so extreme norms are diagonalized alike, bit for bit), into
    real ascending eigenvalues and their vectors.  A non-finite or
    non-Hermitian input raises ValueError."""
    (vals, vecs), e = _lapack(np.linalg.eigh, _hermitian(m))
    return SpectralDecomposition(np.ldexp(vals, e) if e else vals, vecs)


def exp_minus_i(x):
    """exp(-i x), the group-element function used throughout."""
    return np.exp(-1j * x)


def _taylor_rows(points, coefficients, count: int) -> list[list]:
    """Rows 0 .. count - 1 of sum_k a_k P**k, a_k = coefficients[k], for the
    bidiagonal P with ``points`` on its diagonal and ones above it; count
    is at most len(coefficients).

    By Opitz's theorem row 0 of f(B), for the bidiagonal B of points x1..xn
    and f(x) = sum_k a_k (x - x0)**k, holds the divided differences
    f[x1], f[x1, x2], ..., f[x1..xn]; the callers pass the points shifted
    by x0.  Row i of P**k is stepped from row i of P**(k-1), one bidiagonal
    step per term, and row i sums its first len(coefficients) - i terms.
    Its entry j starts at term j - i, so entry j sums len(coefficients) - j
    nonzero terms in every row.  The entries of P**k are the complete
    homogeneous symmetric polynomials of the points that McCurdy, Ng &
    Parlett (Math. Comp. 43, 1984) sum for close points, so no difference
    of nearby values is ever divided by their gap, and confluent points
    are allowed.  On real points the rows of P**k stay real; only the
    coefficients may be complex.
    """
    n = len(points)
    rows = []
    for i in range(count):
        row = [0.0] * n  # e_i' P**t
        row[i] = 1.0
        total = [0.0] * n
        total[i] = coefficients[0]
        # Row i of P**t is 0 past entry i + t, that is from stop on.
        for stop, a in enumerate(coefficients[1:len(coefficients) - i], i + 2):
            prev = 0.0
            # (row P)_j = row_j x_j + row_{j-1}.
            for j in range(i, stop if stop < n else n):
                cur = row[j]
                row[j] = nxt = cur * points[j] + prev
                total[j] += a * nxt
                prev = cur
        rows.append(total)
    return rows


# (-i)**k / k!, c_k = c_(k-1) (-i) / k: the <= N + 29 terms of N <= MAX_N + 3 points.
_EXP_TAYLOR = [1.0 + 0j]
for _k in range(1, 2 * MAX_N + 32):
    _EXP_TAYLOR.append(_EXP_TAYLOR[-1] * -1j / _k)


def exp_divided_differences(values) -> np.ndarray:
    """Divided differences f[x1], f[x1, x2], ..., f[x1..xn] of f(x) = exp(-ix).

    They are the first row of exp(-iB), B the bidiagonal matrix of the
    points (Opitz).  Shifted to their midpoint, exp(-iB) = exp(-i mid)
    exp(-i (B - mid I)), and with s halvings exp(-i 2**-s (B - mid I)) =
    S exp(-iP) S**-1 for P with the points (x - mid) 2**-s on its diagonal
    and ones above it and S = diag(2**(s j)): entry (i, j) of the
    ``_taylor_rows`` sum of exp(-iP), coefficients (-i)**k / k!, is scaled
    by 2**(-s (j - i)), which is exact.  With half-spread r, term k of
    entry j is at most (r 2**-s)**(k-j) / ((k-j)! j!), and the series loses
    about exp(r 2**-s) roundoffs of the entry's 1 / j! scale, so s is the
    least count of halvings that brings r 2**-s to TAYLOR_REACH or below,
    and the scaled sum is squared s times.  For s = 0 only the first row is
    summed, otherwise the whole upper triangle.  The series stops once the
    bound is below one roundoff of the entry's scale.  Points that are not
    real and finite raise ValueError, and points with max |x| eps past
    PHASE_BUDGET (eps = 2**-52) ConstraintViolationError: their phases
    carry that much rounding.
    """
    xs = [float(x) for x in values]
    n = len(xs)
    lo, hi = min(xs), max(xs)
    # Halving first is exact for normal points, and keeps finite points'
    # midpoint and half-spread finite where hi - lo would overflow.
    mid, reach = 0.5 * lo + 0.5 * hi, 0.5 * hi - 0.5 * lo
    if not math.isfinite(mid + reach):
        raise ValueError("divided differences need finite points")
    peak = max(abs(lo), abs(hi))
    refusal = _phase_budget_refusal(peak * math.ulp(1.0), f"exp(-ix) at max |x| = {peak:.3e}: |x| eps")
    if refusal is not None:
        raise refusal
    squarings = 0
    while reach > TAYLOR_REACH:
        reach *= 0.5
        squarings += 1
    # Terms of the series of exp(r 2**-s) are below one roundoff after
    # `extra` steps; entry j of row i starts at step j - i.
    extra, size = 0, 1.0
    while size > _ROUNDOFF:
        extra += 1
        size *= reach / extra
    coefficients = _EXP_TAYLOR[:n + extra]
    for k in range(len(coefficients), n + extra):  # by the table's recurrence
        coefficients.append(coefficients[-1] * -1j / k)
    scale = 0.5 ** squarings
    rows = _taylor_rows([(x - mid) * scale for x in xs], coefficients, n if squarings else 1)
    if not squarings:
        return np.exp(-1j * mid) * np.array(rows[0])
    d = np.arange(n)
    e = np.array(rows) * np.ldexp(1.0, squarings * np.minimum(d[:, None] - d, 0))
    for _ in range(squarings - 1):
        e = e @ e
    return np.exp(-1j * mid) * (e[0] @ e)


def _require_unitary(u: np.ndarray) -> None:
    """ValueError unless u'u - I stays below UNITARY_TOL (a NaN fails too)."""
    defect = float(np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))))
    if not defect < UNITARY_TOL:
        raise ValueError(
            f"matrix is not unitary within {UNITARY_TOL:g}: u'u - I reached {defect:.3e}"
        )


def _power_sum_poly(sums: list) -> list:
    """The monic polynomial z**N + a_1 z**(N-1) + ... + a_N whose roots
    have the power sums p_k = sums[k - 1] = sum_i z_i**k, k = 1..N, as
    coefficients[j] of z**j, by Newton's identities
    k a_k = -(a_0 p_k + a_1 p_(k-1) + ... + a_(k-1) p_1), a_0 = 1."""
    coeffs = [1.0]  # a_(k-1), ..., a_1, a_0 before step k
    for k in range(1, len(sums) + 1):
        coeffs.insert(0, -sum(map(operator.mul, coeffs, sums)) / k)
    return coeffs


@functools.cache
def _pole_points(n: int) -> tuple[list, np.ndarray]:
    """arg(-w_j) = pi j / 2n for the 4n points w_j = -exp(i pi j / 2n), and
    the rows (w_j**0, ..., w_j**n) that evaluate a degree-n polynomial at
    all of them in one product."""
    turns = np.pi * np.arange(4 * n) / (2 * n)
    return turns.tolist(), (-np.exp(1j * turns))[:, None] ** np.arange(n + 1)


def _cayley_pole(coeffs: list) -> tuple[complex, float]:
    """The pole w of ``eig_unitary``'s Cayley transform
    H = i (wI + u)(wI - u)**-1, and arg(-w), from u's monic characteristic
    polynomial p of degree N, coefficients[j] of z**j: of the 4N points
    w_j = -exp(i pi j / 2N), the one with the largest |p(w_j)|.

    The points are the 4N-th roots of unity turned by pi, and 4N > N, so
    the powers z**0 .. z**N are orthogonal over them and the mean of
    |p(w_j)|**2 is sum_j |coefficients[j]|**2.  For the characteristic
    polynomial of a unitary matrix that is at least 2 (the leading
    coefficient is 1, the constant one has modulus |det u| = 1), so the
    largest |p(w_j)| is at least sqrt 2 and no eigenvalue is the pole.
    The points include -1, -i, 1 and i (j = 0, N, 2N, 3N); -1 is exact,
    with arg(-w) = 0, the pole that a u next to I takes.
    """
    turns, rows = _pole_points(len(coeffs) - 1)
    values = rows @ np.array(coeffs)
    j = int(np.abs(values).argmax())
    return -cmath.exp(1j * turns[j]), turns[j]


def _power_rows(u: np.ndarray) -> np.ndarray:
    """The rows u**0 .. u**(N-1) of a square u as an (N, N*N) array."""
    n = u.shape[0]
    powers = np.empty((n, n, n), dtype=complex)
    powers[0], powers[1:2] = np.eye(n), u  # a slice: there is no u**1 row at N = 1
    k = 2
    while k < n:
        # Doubling: u**k .. u**(k+m-1) are u**1 .. u**m times u**(k-1), one batched product.
        m = min(k - 1, n - k)
        powers[k:k + m] = powers[1:m + 1] @ powers[k - 1]
        k += m
    return powers.reshape(n, n * n)


def _power_poly(u: np.ndarray, powers: np.ndarray) -> list:
    """The coefficients of u's characteristic polynomial from its
    ``_power_rows``: ``_power_sum_poly`` on Tr u**k, k = 1..N, the last as
    sum_ij (u**(N-1))_ij u_ji."""
    return _power_sum_poly((powers @ u.T.ravel()).tolist())


def _cayley_hermitian(u: np.ndarray, powers: np.ndarray, coeffs: list, w: complex) -> np.ndarray:
    """H = i (wI + u) q(u)/p_u(w) = i (wI + u)(wI - u)**-1, made exactly
    Hermitian, from ``_power_rows`` and p_u and the pole w.
    Synthetic division gives q(z) = (p_u(z) - p_u(w))/(z - w) and the remainder
    p_u(w), and Cayley-Hamilton (wI - u)**-1 = q(u)/p_u(w)."""
    n = u.shape[0]
    q = [1.0]  # q[i] multiplies z**(N-1-i); the last entry is p_u(w)
    for c in coeffs[n - 1::-1]:
        q.append(q[-1] * w + c)
    scale = 0.5j / q.pop()  # h = H/2, so that h + h' is H made exactly Hermitian
    h = (u + w * np.eye(n)) @ (np.array([c * scale for c in reversed(q)]) @ powers).reshape(n, n)
    return h + h.conj().T


def eig_unitary(u: np.ndarray) -> SpectralDecomposition:
    """Eigendecompose a unitary matrix by one Hermitian eigenproblem, its
    Cayley transform H = i (wI + u)(wI - u)**-1.

    H is a function of u, so it has u's eigenvectors, and its eigenvalues
    t_k = i (w + z_k)/(w - z_k) are real; z -> t is one-to-one on the unit
    circle, so distinct eigenvalues of u never share one of H, and the
    phases are 2 atan(t_k) + arg(-w).  The pole w is ``_cayley_pole`` of
    u's characteristic polynomial p_u, whose coefficients come from the
    traces of u, u**2, ..., u**N by Newton's identities (``_power_rows``,
    ``_power_poly``).  No system is solved: ``_cayley_hermitian`` takes
    (wI - u)**-1 = q(u)/p_u(w) from the powers already formed.  Rounding
    in p_u's coefficients moves t_k but not the eigenvectors, since q(u)
    stays a polynomial in u; and wI + u is formed directly, so next to I
    (w = -1) each t_k, and each phase, keeps its relative accuracy.
    LAPACK's ``eigh`` runs once, on H, by ``_lapack`` without
    ``eig_hermitian``'s guard: H is Hermitian by construction, and finite
    once u is unitary.  Eigenvalues come back on the unit
    circle, ordered by principal phase.  Repeated eigenvalues are fine:
    any orthonormal basis of the shared eigenspace gives a valid
    decomposition.  The transform is for the eigenvectors, which
    ``log_coords`` needs orthonormal; the values-only logarithm past the
    gate needs none, and takes LAPACK's ``eigvals`` of u instead.
    """
    u = _square(u)
    n = u.shape[0]
    _require_unitary(u)
    powers = _power_rows(u)
    coeffs = _power_poly(u, powers)
    w, turn = _cayley_pole(coeffs)
    (vals, vecs), e = _lapack(np.linalg.eigh, _cayley_hermitian(u, powers, coeffs, w))
    phases = [math.remainder(2.0 * math.atan(x) + turn, math.tau) for x in np.ldexp(vals, e).tolist()]
    order = sorted(range(n), key=phases.__getitem__)
    z = [cmath.rect(1.0, phases[k]) for k in order]
    return SpectralDecomposition(np.array(z), vecs[:, order])


def char_poly(m: np.ndarray) -> np.ndarray:
    """Coefficients of the monic characteristic polynomial, entry k
    multiplying x**k, from the traces of m's powers by Newton's identities
    (``_power_rows``, ``_power_poly``).

    Entry N is 1 and entry 0 is (-1)**N det(m); a traceless input has
    entry N-1 = 0 up to rounding.
    """
    m = _square(m)
    if m.shape[0] > MAX_N:
        raise ValueError(f"characteristic polynomial supported for N <= {MAX_N}, got {m.shape[0]}")
    return np.array(_power_poly(m, _power_rows(m)), dtype=complex)


def _min_gap(values: np.ndarray) -> float:
    """Least pairwise distance of real values: the least step once sorted."""
    return float(np.min(np.diff(np.sort(values)), initial=np.inf))


def _require_simple_spectrum(eigenvalues: np.ndarray) -> None:
    radius = float(np.max(np.abs(eigenvalues)))
    gap = _min_gap(eigenvalues)
    if gap <= GAP_TOL * radius:
        raise DegenerateSpectrumError(
            f"smallest eigenvalue gap {gap:.3e} is not above {GAP_TOL:g} "
            f"of the spectral radius {radius:.3e}"
        )


def lagrange_projectors(m: np.ndarray, spec: SpectralDecomposition) -> list[np.ndarray]:
    """Spectral projectors P_k = prod_{n != k} (m - m_n I)/(m_k - m_n).

    A gap not above GAP_TOL times the spectral radius leaves a projector
    ambiguous and is refused as DegenerateSpectrumError."""
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


def _newton_monomials(points: list, newton: list) -> list:
    """The coefficients c_n of sum_n c_n x**n equal to the Newton form
    sum_k newton[k] (x - points[0]) ... (x - points[k - 1]), by the
    Horner rule of ``expansion_coeffs``; points[-1] is not read."""
    coeffs = [newton[-1]]
    for shift, top in zip(points[-2::-1], newton[-2::-1]):
        coeffs = (
            [top - shift * coeffs[0]]
            + [lower - shift * upper for lower, upper in zip(coeffs, coeffs[1:])]
            + [coeffs[-1]]
        )
    return coeffs


def expansion_coeffs(spec: SpectralDecomposition) -> np.ndarray:
    """Coefficients f_n with exp(-iM) = sum_n f_n M**n, n = 0..N-1.

    The Newton form of f(x) = exp(-ix) over the eigenvalues l1..lN,

        f(M) = sum_k f[l1..l(k+1)] (M - l1 I) ... (M - lk I),

    takes its divided differences from ``exp_divided_differences`` and is
    expanded to monomials by Horner's rule: from p = f[l1..lN],
    p <- p (x - lk) + f[l1..lk] for k = N - 1 down to 1.  No Vandermonde
    system is solved and no gap is divided by, so a small spectral radius
    costs no accuracy, and a repeated eigenvalue makes the form the
    Hermite interpolant, which agrees with exp(-ix) there too.
    """
    lam = spec.eigenvalues.tolist()
    return np.array(_newton_monomials(lam, exp_divided_differences(lam).tolist()))


def expansion_coeffs_derivative(spec: SpectralDecomposition, char: np.ndarray) -> np.ndarray:
    """Same coefficients by a second route: the paper's moments, folded in
    through the characteristic polynomial.

    With f(x) = exp(-ix), the moments are the divided differences

        D_q = [m_1..m_N](x**q f(x)) = sum_n delta_n m_n**q f(m_n),
        delta_n = prod_{k != n} (m_n - m_k)**-1,

    read without dividing by any gap: by Opitz's theorem D_q is the last
    entry of the first row of B**q f(B) for the bidiagonal B of the
    eigenvalues, that is of (first row of exp(-iB)) B**q, one bidiagonal
    step per power of B.  Synthetic division by the characteristic
    polynomial then gives

        f_n = sum_{q=0}^{N-1-n} a_{n+1+q} D_q.

    ``char`` is ``char_poly``'s array.  The route shares the first row of
    exp(-iB) with expansion_coeffs, and like it takes any spectrum, but not
    the expansion: Horner over the points there, the characteristic
    polynomial of M here.
    """
    n = spec.n
    if len(char) != n + 1:
        raise ValueError(f"characteristic polynomial degree {len(char) - 1} != {n}")
    lam = spec.eigenvalues.tolist()
    row = exp_divided_differences(lam).tolist()
    moments = [row[-1]]
    for _ in range(n - 1):
        # (row B)_j = row_j m_j + row_{j-1}.
        row = [row[0] * lam[0]] + [
            x * shift + prev for x, shift, prev in zip(row[1:], lam[1:], row)
        ]
        moments.append(row[-1])
    moments = np.array(moments)
    return np.array(
        [np.sum(char[k + 1: n + 1] * moments[: n - k]) for k in range(n)]
    )
