"""Spectral machinery for the small dense matrices the package works with.

Hermitian eigenproblems go to LAPACK, ``eig_hermitian`` by ``eigh`` and the
values-only callers by ``eigvalsh`` (``_eigvalsh``), so the two agree to
rounding, not bit for bit; a matrix of extreme norm is first scaled by a
power of two, which is exact.  Characteristic polynomials come from
the traces of a matrix's powers by Newton's identities
(``_power_sum_poly``), and divided differences come from Taylor series
of Opitz's bidiagonal matrix, summed row by row in one loop,
``_taylor_rows``: exp(-ix)'s (scaled and squared for widely spread
points) and arcsin's.  ``_taylor_rows`` runs over Python scalars: at
desk scale (N <= 8) a numpy call costs more in dispatch than its few
dozen flops.  The monomial coefficients of exp(-iM) expand the Newton
form of exp(-ix)'s divided differences, so no Vandermonde system is
solved anywhere.

For N <= 4 the eigenvalues of a traceless M need no iteration:
``eigvals_from_power_sums`` reads them off the characteristic polynomial,
which Tr M**2, Tr M**3 and Tr M**4 fix, by the trigonometric cubic (N = 3)
and Descartes' resolvent (N = 4), each root polished by Newton steps.  A
root of a polynomial is only as accurate as the polynomial's slope there
allows, so a spectrum with a slope below CLOSED_FORM_CUT (close or
repeated eigenvalues) is declined and goes to ``eigvals_hermitian``, as in
Kopp's hybrid 3 x 3 solver (Int. J. Mod. Phys. C 19, 2008, 523).
``arcsin_divided_differences`` hands ``_taylor_rows`` arcsin's Taylor
coefficients, as ``exp_divided_differences`` hands it exp's, for the
values-only logarithm of ``linearize.delinearize_exp``.

A unitary u is diagonalized by one Hermitian eigenproblem, its Cayley
transform H = i (wI + u)(wI - u)**-1 (``eig_unitary``).  Newton's
identities turn the traces of u's powers into its characteristic
polynomial p_u (``_power_sum_poly``); the pole w is the point of largest
|p_u(w)| among 4N points on the unit circle (``_cayley_pole``), and
Cayley-Hamilton gives (wI - u)**-1 as a polynomial in u, so no linear
system is solved.  The powers and p_u (``_powers_and_poly``, which
``char_poly`` also reads), the pole and the H builder
(``_cayley_hermitian``) are shared with the values-only logarithm past
the gate, ``linearize._log_past_gate``, which takes H's eigenvalues and
not its eigenvectors.
"""

from __future__ import annotations

import cmath
import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DegenerateSpectrumError

HERMITIAN_TOL = 1e-10
UNITARY_TOL = 1e-8
# ``eigvals_from_power_sums`` hands a spectrum to ``eigvals_hermitian``
# when some eigenvalue has |p'(l_k)| = prod_{j != k} |l_k - l_j| below this
# share of radius**(N-1).  An eigenvalue read off the characteristic
# polynomial p errs by about eps |p|/|p'(l_k)| (Wilkinson): measured, at
# most 4.3 eps radius**N / |p'(l_k)| on 12,000 N = 3 and 4 spectra with one
# pair split by 1e-4..1e-1 of the radius, so at this cut every closed-form
# eigenvalue lies within about 1e-13 of the radius of the Hermitian
# solver's.  The smallest gap alone does not bound the error at N = 4: a
# gap of 1e-3 of the radius next to a second small gap left 5e-11.
CLOSED_FORM_CUT = 1e-2
GAP_TOL = 1e-9
# Largest N the package supports, the range its tests and CI cover:
# ``char_poly`` refuses larger input, and ``verify``'s run configuration
# and the CLI's --n read it.
MAX_N = 8
# Largest half-spread that exp_divided_differences sums without squaring:
# the series then loses at most exp(pi) ~ 23 roundoffs, and every
# spectrum the sampler draws (radius <= 0.9 pi) stays within it.
TAYLOR_REACH = math.pi
_ROUNDOFF = 2.0 ** -53
# ||m||_F^2 range in which the Hermitian eigensolver runs on m unscaled.
# Outside it m is scaled by a power of two, which is exact, so the results
# are those of the normal-range matrix bit for bit; LAPACK's own rescaling
# of badly scaled input is by a factor that is not a power of two, and it
# starts only for entries below about 1e-146 or above 1e146, outside the
# entries' range of about 2**+-300 here.
_SAFE_NORM2 = (2.0 ** -600, 2.0 ** 600)


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


def _hermitian(m: np.ndarray) -> np.ndarray:
    """The public entries' guard: ``m`` as a complex square matrix, or
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
    """``solver(m)`` (``np.linalg.eigh`` or ``eigvalsh``) and the e to scale its eigenvalues
    back by: outside ``_SAFE_NORM2`` m is scaled by 2**-e, 2**e just above its largest part,
    exactly.  A non-finite entry is a ValueError, a LAPACK failure ConvergenceError."""
    e = 0
    if not _SAFE_NORM2[0] < np.vdot(m, m).real < _SAFE_NORM2[1]:
        parts = np.ascontiguousarray(m).view(float)
        peak = np.abs(parts).max()
        if not math.isfinite(peak):
            raise ValueError(f"matrix is not finite: an entry reached {peak}")
        _, e = math.frexp(peak)
        m = np.ldexp(parts, -e).view(complex)
    try:
        return solver(m), e
    except np.linalg.LinAlgError as exc:
        norm = math.ldexp(float(np.linalg.norm(m)), e)
        raise ConvergenceError(
            f"Hermitian eigensolver failed at N = {m.shape[0]}, ||m||_F = {norm:.3e}: {exc}"
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


def eigvals_hermitian(m: np.ndarray) -> np.ndarray:
    """``_eigvalsh`` behind ``eig_hermitian``'s guard: all that ``f0_trace``
    and the sampler need.  Another LAPACK driver than ``eig_hermitian``'s,
    so the two agree to rounding, not bit for bit."""
    return _eigvalsh(_hermitian(m))


def _cubic_roots(p: float, q: float) -> list[float] | None:
    """The three real roots of z**3 + p z + q by the trigonometric
    solution (Viete), largest first; None unless p < 0."""
    if not p < 0.0:
        return None
    scale = 2.0 * math.sqrt(-p / 3.0)
    cos3 = min(1.0, max(-1.0, 3.0 * q / (p * scale)))
    third = math.acos(cos3) / 3.0
    return [scale * math.cos(third - 2.0 * math.pi * k / 3.0) for k in range(3)]


def eigvals_from_power_sums(n: int, p2: float, p3: float, p4: float) -> list[float] | None:
    """Ascending eigenvalues of a traceless Hermitian n x n matrix M,
    n = 2, 3 or 4, in closed form from its power sums p_k = Tr M**k; None
    where the closed form is not accurate enough.

    For M = a . L the power sums are scalars in coordinates: p2 = 2 a.a,
    p3 = 2 (a (.) a).a and p4 = (4/N)(a.a)**2 + 2 (a (.) a).(a (.) a).  In
    units of r = sqrt(p2 / 2) the characteristic polynomial is, with
    q = p3 / (3 r**3),
      n = 2: t**2 - 1, so t = +-1;
      n = 3: t**3 - t - q, solved trigonometrically;
      n = 4: t**4 - t**2 - q t + R, R = 1/2 - p4 / (4 r**4), by Descartes'
             resolvent y**3 - 2 y**2 + (1 - 4R) y - q**2, whose roots are
             the squares (t1 + t2)**2, (t1 + t3)**2, (t1 + t4)**2.  The two
             larger give s1, s2 >= 0 by square roots, and s3 = q / (s1 s2)
             keeps its sign and accuracy where a third square root would
             lose half the digits of a small root; the eigenvalues are
             (+-s1 +- s2 +- s3) / 2 with an even count of minus signs.
    Each cubic or quartic root is then polished by Newton steps on its
    polynomial (one at n = 3, two at n = 4).  The result is None when the
    slope |p'| at some root is below CLOSED_FORM_CUT times radius**(n-1),
    which covers every repeated or close eigenvalue: a root of a
    polynomial is only as accurate as that slope allows, and at a double
    root the trigonometric and resolvent formulas split it by about
    sqrt(eps) while Newton's step divides rounding by rounding.
    p2 must be positive and normal; the caller checks its range.
    (Kopp, Int. J. Mod. Phys. C 19 (2008) 523, falls back the same way
    from analytic 3 x 3 eigenvalues to an iterative solver.)
    """
    r = math.sqrt(0.5 * p2)
    if n == 2:
        return [-r, r]
    q = p3 / (3.0 * r * r * r)
    if n == 3:
        roots = _cubic_roots(-1.0, -q)
        coeffs, steps = (0.0, -1.0, -q), 1
    else:
        quartic = 0.5 - p4 / (4.0 * r ** 4)
        # The resolvent depressed by y = z + 2/3.
        cubic = _cubic_roots(
            -1.0 / 3.0 - 4.0 * quartic,
            2.0 * (1.0 - 4.0 * quartic) / 3.0 - 16.0 / 27.0 - q * q,
        )
        if cubic is None:
            return None
        y1, y2 = (max(0.0, z + 2.0 / 3.0) for z in cubic[:2])
        s1, s2 = math.sqrt(y1), math.sqrt(y2)
        if not s1 * s2 > 0.0:
            return None
        s3 = q / (s1 * s2)
        roots = [
            0.5 * (s1 + s2 + s3), 0.5 * (s1 - s2 - s3),
            0.5 * (s2 - s1 - s3), 0.5 * (s3 - s1 - s2),
        ]
        coeffs, steps = (0.0, -1.0, -q, quartic), 2
    # Newton on t**n + c[0] t**(n-1) + ... + c[n-1], value and slope by
    # Horner.  A slope below the cut declines before the step: next to a
    # double root the step would divide rounding by rounding.
    radius = max(abs(x) for x in roots)
    floor = CLOSED_FORM_CUT * radius ** (n - 1)
    polished = []
    for root in roots:
        for _ in range(steps):
            value, slope = 1.0, 0.0
            for c in coeffs:
                value, slope = value * root + c, slope * root + value
            if not abs(slope) >= floor:
                return None
            root -= value / slope
        polished.append(root)
    polished.sort()
    return [r * x for x in polished]


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
    points.  The points are shifted to their midpoint first, exp(-iB) =
    exp(-i mid) exp(-i (B - mid I)), and with s halvings exp(-i 2**-s (B -
    mid I)) = S exp(-iP) S**-1, where P has the points (x - mid) 2**-s on
    its diagonal and ones above it and S = diag(2**(s j)): entry (i, j) of
    the ``_taylor_rows`` sum of exp(-iP), coefficients (-i)**k / k!, is
    scaled by 2**(-s (j - i)), which is exact.  With half-spread r, term k
    of entry j is at most (r 2**-s)**(k-j) / ((k-j)! j!), and the series
    loses about exp(r 2**-s) roundoffs of the entry's 1 / j! scale to
    cancellation.  So s is the least count of halvings that brings
    r 2**-s to TAYLOR_REACH or below, and the scaled sum is squared s
    times afterwards.  For s = 0 only the first row is summed; otherwise
    the whole upper triangle is, since squaring needs it.  The series
    stops once the bound above is below one unit roundoff of the entry's
    scale.  The values are real and finite; anything else raises
    ValueError.
    """
    xs = [float(x) for x in values]
    n = len(xs)
    lo, hi = min(xs), max(xs)
    mid, reach = 0.5 * (lo + hi), 0.5 * (hi - lo)
    if not math.isfinite(mid + reach):
        raise ValueError("divided differences need finite points")
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


def arcsin_divided_differences(values, offset: float) -> list[float]:
    """Divided differences f[x1], f[x1, x2], ..., f[x1..xn] of
    f(x) = arcsin(offset + x).

    They are the first row of the ``_taylor_rows`` sum of arcsin's Taylor
    series about the midpoint z0 = offset + mid.  The coefficients of
    arcsin' = (1 - z**2)**-1/2 about z0 follow from (1 - z**2) g' = z g:

        b0 = (1 - z0**2)**-1/2,
        b(k+1) = ((2k + 1) z0 bk + k b(k-1)) / ((1 - z0**2)(k + 1)),

    and arcsin's are a0 = arcsin z0, a(k+1) = bk / (k + 1).  Summed to
    degree K, the entries are exactly the divided differences of the
    Taylor polynomial T_K, so the Newton form built from them interpolates
    T_K and errs at each point by at most the tail sum of |ak| r**k, r the
    half-spread.  The series stops once two consecutive terms (one of a
    pair is zero where z0 = 0) are below one roundoff of arcsin's scale
    there, |a0| + |a1| r, shrunk by 1 - r / (1 - |z0|), the tail's
    geometric ratio.  Every offset + x must lie inside (-1, 1), with the
    series' ratio r / (1 - |z0|) at most 0.75; otherwise ValueError.
    """
    xs = [float(x) for x in values]
    lo, hi = min(xs), max(xs)
    mid, reach = 0.5 * (lo + hi), 0.5 * (hi - lo)
    z0 = offset + mid
    # min and max skip a NaN that is not first, so the sum tests finiteness.
    finite = math.isfinite(offset + sum(xs))
    if not (finite and abs(z0) < 1.0 and reach <= 0.75 * (1.0 - abs(z0))):
        raise ValueError("arcsin divided differences need points well inside (-1, 1)")
    ratio = reach / (1.0 - abs(z0))
    w = 1.0 - z0 * z0
    coefficients = [math.asin(z0)]
    lower, coef = 0.0, 1.0 / math.sqrt(w)  # b(k-1), bk
    limit = _ROUNDOFF * (abs(coefficients[0]) + coef * reach) * (1.0 - ratio)
    last, power, k = math.inf, 1.0, 0
    while True:
        coefficients.append(coef / (k + 1))
        power *= reach
        term = abs(coefficients[-1]) * power
        if term + last <= limit:
            return _taylor_rows([x - mid for x in xs], coefficients, 1)[0]
        last = term
        lower, coef = coef, ((2 * k + 1) * z0 * coef + k * lower) / (w * (k + 1))
        k += 1


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


def _cayley_pole(coeffs: list) -> tuple[complex, float, complex]:
    """The pole w of the Cayley substitution z = w (t - i)/(t + i) for the
    monic polynomial p of degree N with coefficients[j] of z**j, with
    arg(-w) and p(w): of the 4N points w_j = -exp(i pi j / 2N), the one with
    the largest |p(w_j)|.

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
    return -cmath.exp(1j * turns[j]), turns[j], complex(values[j])


def _powers_and_poly(u: np.ndarray) -> tuple[np.ndarray, list]:
    """The rows u**0 .. u**(N-1) of a square u as an (N, N*N) array, and the
    coefficients of u's characteristic polynomial: ``_power_sum_poly`` on
    Tr u**k, k = 1..N, the last as sum_ij (u**(N-1))_ij u_ji."""
    n = u.shape[0]
    powers = np.empty((n, n, n), dtype=complex)
    powers[0], powers[1:2] = np.eye(n), u  # a slice: there is no u**1 row at N = 1
    k = 2
    while k < n:
        # Doubling: u**k .. u**(k+m-1) are u**1 .. u**m times u**(k-1), one batched product.
        m = min(k - 1, n - k)
        powers[k:k + m] = powers[1:m + 1] @ powers[k - 1]
        k += m
    powers = powers.reshape(n, n * n)
    return powers, _power_sum_poly((powers @ u.T.ravel()).tolist())


def _cayley_hermitian(u: np.ndarray, powers: np.ndarray, coeffs: list, w: complex) -> np.ndarray:
    """H = i (wI + u) q(u)/p_u(w) = i (wI + u)(wI - u)**-1, made exactly
    Hermitian, from ``_powers_and_poly``'s rows and p_u and the pole w.
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
    traces of u, u**2, ..., u**N by Newton's identities
    (``_powers_and_poly``).  No system is solved: ``_cayley_hermitian`` takes
    (wI - u)**-1 = q(u)/p_u(w) from the powers already formed.  Rounding
    in p_u's coefficients moves t_k but not the eigenvectors, since q(u)
    stays a polynomial in u; and wI + u is formed directly, so next to I
    (w = -1) each t_k, and each phase, keeps its relative accuracy.
    ``eig_hermitian`` runs once, on H.  Eigenvalues come back on the unit
    circle, ordered by principal phase.  Repeated eigenvalues are fine:
    any orthonormal basis of the shared eigenspace gives a valid
    decomposition.
    """
    u = _square(u)
    n = u.shape[0]
    _require_unitary(u)
    powers, coeffs = _powers_and_poly(u)
    w, turn, _ = _cayley_pole(coeffs)
    spec = eig_hermitian(_cayley_hermitian(u, powers, coeffs, w))
    phases = [math.remainder(2.0 * math.atan(x) + turn, math.tau) for x in spec.eigenvalues.tolist()]
    order = sorted(range(n), key=phases.__getitem__)
    z = [cmath.rect(1.0, phases[k]) for k in order]
    return SpectralDecomposition(np.array(z), spec.eigenvectors[:, order])


def char_poly(m: np.ndarray) -> CharPoly:
    """Monic characteristic polynomial from the traces of m's powers by
    Newton's identities (``_powers_and_poly``).

    coefficients[N] = 1 and coefficients[0] = (-1)**N det(m); a traceless
    input has coefficients[N-1] = 0 up to rounding.
    """
    m = _square(m)
    if m.shape[0] > MAX_N:
        raise ValueError(f"characteristic polynomial supported for N <= {MAX_N}, got {m.shape[0]}")
    return CharPoly(np.array(_powers_and_poly(m)[1], dtype=complex))


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


def _exp_newton(eigenvalues) -> tuple[list[float], list[complex]]:
    """The points of a simple spectrum and the divided differences of
    exp(-ix) over them, as Python lists.  exp(-ix) is the one function the
    Newton-form routes evaluate: exp(+iM) is ``linearize_fn(...).conj()``,
    and nothing evaluates exp(+ix)."""
    vals = np.asarray(eigenvalues)
    _require_simple_spectrum(vals)
    lam = vals.tolist()
    return lam, exp_divided_differences(lam).tolist()


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
    system is solved, so a small spectral radius costs no accuracy.  A
    spectrum with eigenvalues closer than GAP_TOL times its radius is
    refused as degenerate.
    """
    lam, newton = _exp_newton(spec.eigenvalues)
    return np.array(_newton_monomials(lam, newton))


def expansion_coeffs_derivative(spec: SpectralDecomposition, char: CharPoly) -> np.ndarray:
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

    It shares the first row of exp(-iB) with expansion_coeffs but not the
    expansion: Horner over the points there, the characteristic
    polynomial of M here.
    """
    n = spec.n
    if char.degree != n:
        raise ValueError(f"characteristic polynomial degree {char.degree} != {n}")
    lam, row = _exp_newton(spec.eigenvalues)
    moments = [row[-1]]
    for _ in range(n - 1):
        # (row B)_j = row_j m_j + row_{j-1}.
        row = [row[0] * lam[0]] + [
            x * shift + prev for x, shift, prev in zip(row[1:], lam[1:], row)
        ]
        moments.append(row[-1])
    moments = np.array(moments)
    a = char.coefficients
    return np.array(
        [np.sum(a[k + 1: n + 1] * moments[: n - k]) for k in range(n)]
    )
