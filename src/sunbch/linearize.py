"""Linearization of matrix functions over su(N), and its inverse for exp.

Any smooth function of an algebra element collapses to an affine form,

    f(m . L) = f0 I + fvec . L,

because every polynomial in M = m . L reduces through the product rule.
The products are real and built in coordinates; with P = s I + v . L,

    P (M - l I) = (-l s + (2/N) v . m) I + (s m - l v + v (.) m) . L,

and v (.) m = D(m) v for the matrix D(m) of ``algebra.product_matrices``,
built once per linearization, so a product with M - l I is one product of
the (dim + 1)-square step matrix A = [[0, (2/N) m'], [m, D(m)]] with
(s, v), less l (s, v).  The cross-product term of the full product rule
(``algebra.multiply``) drops out identically: every product lies in the
commutative family generated by m under (.).

``linearize_fn`` evaluates exp(-iM) by one of two routes, chosen from m
before any eigenproblem.  Inside the reach, where the bound
beta = (Tr M**8)**(1/8) >= rho(M) is at most TAYLOR_REACH = pi, it sums
cos M - i sin M as Taylor series in S = A A on the coordinates of I
(``_exp_series``; Al-Mohy & Higham, SIAM J. Sci. Comput. 33 (2011) 488):
no eigenvalue, and at most about exp(pi) roundoffs lost to cancellation,
as in Opitz's rows.  Past the reach it takes the Newton form over the
eigenvalues l1 <= ... <= lN of M from LAPACK (``_exp_newton``),

    f(M) = sum_k f[l1..l(k+1)] (M - l1 I) ... (M - lk I),

which is exact on any spectrum of the diagonalizable M: with a repeated
eigenvalue it is the Hermite interpolant, which agrees with f there too.
Its divided differences are the first row of exp(-iB) for the bidiagonal
matrix B of the eigenvalues and ones (Opitz), scaled and squared for wide
spectra, so it needs no eigenvector and no Vandermonde system.  A group
element obeys the norm identity |f0|**2 + (2/N) |fvec|**2 = Tr(u'u) / N
= 1, and ``linearize_fn`` refuses a form that misses it by more than
UNITARY_TOL.  That is the one guard of the exp form, on both routes.  A
NaN or inf fails it, and so does the rounding of the eigenphases, about
|l| eps each, from about |m| = 1e8 on.  The identity is necessary, not
sufficient, for unitarity, but its defect tracked the form's true error
within a factor of about ten from |m| = 1 to 1e12 at N = 2, 3, 4 and 8.
``power_table`` lists the plain powers of M as ``LinearElement``s from
the Newton products, every shift 0; it and the monomial coefficients of
``spectral.expansion_coeffs``, which read Opitz's rows, remain as
cross-checks.  M is Hermitian, so exp(+i M) is the conjugate element
``linearize_fn(...).conj()``.

``delinearize_exp`` inverts the exponential case without eigenvectors,
at every N.  Near the identity the scalar coordinate alone shows that
every eigenphase lies within pi/4 (LOG_GATE), and R = m . L is then
arcsin of S = sin R, whose coordinates are the imaginary parts of the
element's; ``_arcsin_series`` sums its Taylor series with the Newton
step matrix, and needs no eigenvalue.  Past the gate the eigenvalues
of u itself come from LAPACK's nonsymmetric ``eigvals``, through
``spectral._lapack``, and R is the Newton form in u over them
(``_log_past_gate``), expanded over the powers of u from
``spectral._powers_and_poly``.  u is normal, so each eigenvalue is
accurate to about eps however they cluster.  That route declines,
rather than refuses, wherever its divided differences would lose
accuracy (CHORD_CUT, TIE_CUT), and only then does ``log_coords`` take the dense
matrix and its eigenvectors.  Past the gate both logarithms take principal
eigenphases through ``_branch_rule``, the one 2 pi shift rule, the one
det u = 1 check and the one site of the ambiguity refusals.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .algebra import (
    GeneratorBasis,
    LinearElement,
    StructureTensors,
    _real_coords,
    algebra_matrix,
    from_matrix,
    product_matrices,
    to_matrix,
)
from .errors import BranchCutError, ConstraintViolationError, DegenerateSpectrumError
from .spectral import (
    TAYLOR_REACH,
    UNITARY_TOL,
    _ROUNDOFF,
    _eigvalsh,
    _lapack,
    _newton_monomials,
    _powers_and_poly,
    _require_unitary,
    apply_spectral,
    eig_hermitian,
    eig_unitary,
    exp_divided_differences,
    exp_minus_i,
)

BRANCH_GAP = 1e-9
# ``delinearize_exp`` takes the arcsin series when 2N (1 - Re g0) =
# sum_k |1 - exp(-i theta_k)|**2 = sum_k 4 sin(theta_k/2)**2 is at most
# this: each term is then at most 4 sin(pi/8)**2, so every |theta_k| <= pi/4
# and the phases sum to 0, not a nonzero multiple of 2 pi.  It also bounds
# ||sin R||_F**2 = sum_k sin(theta_k)**2, the ratio of ``_arcsin_terms``'
# series, which then sums at most 57 terms.
LOG_GATE = 4.0 * math.sin(math.pi / 8.0) ** 2
# Past the gate ``delinearize_exp`` takes the logarithm from u's
# eigenvalues (``_log_past_gate``) and declines to ``log_coords`` where
# that would lose accuracy.  CHORD_CUT: some eigenvalue z_k of u has
# prod_{j != k} |z_k - z_j| below it; the divided differences of the
# Newton form divide the eigenvalues' rounding, about eps, by such
# products, so an answered R stays within about 2e-13 of exact.  A phase
# pair straddling the cut at pi loses more, since R's values there lie
# nearly 2 pi apart at close points; so does any logarithm of the rounded
# u (measured up to 3e-12 at N = 3 and 4, ``log_coords`` 2.5e-12).
# TIE_CUT: the 2 pi shift boundary falls between two phases closer than
# this, so R takes values 2 pi apart at two close points and the error
# grows like eps / gap (measured at N = 3: 3e-14 at a gap of 0.1, 3e-13
# at 0.01, where ``log_coords`` errs by 1.4e-14 and 3e-13).
CHORD_CUT = 1e-3
TIE_CUT = 0.1


# Rows (c_k, s_k) = ((-1)**k / (2k)!, (-1)**k / (2k+1)!) of cos x =
# sum_k c_k x**(2k) and sin x = x sum_k s_k x**(2k); ``_exp_series`` sums at
# most 15 of them, at radius TAYLOR_REACH.
_COS_SIN = np.array([[(-1) ** k / math.factorial(j) for j in (2 * k, 2 * k + 1)] for k in range(15)])


def _step_matrix(t: StructureTensors, m: np.ndarray, sym: np.ndarray) -> np.ndarray:
    """A = [[0, (2/N) m'], [m, D(m)]], D(m) = ``sym``: A (s, v) are the
    coordinates of (m . L)(s I + v . L) for every v in the commutative family
    generated by m (module docstring)."""
    step = np.zeros((t.dim + 1, t.dim + 1))
    step[0, 1:], step[1:, 0], step[1:, 1:] = (2.0 / t.n) * m, m, sym
    return step


def _newton_products(t: StructureTensors, m: np.ndarray, shifts, sym: np.ndarray) -> np.ndarray:
    """The rows (s_k, v_k) of P_k = (M - x1 I) ... (M - xk I) = s_k I + v_k . L
    for k = 0 .. len(shifts), in one array.

    Each step is (s, v) <- A (s, v) - x (s, v), one product with the
    ``_step_matrix`` A of m and D(m) = ``sym``.
    """
    products = np.zeros((len(shifts) + 1, t.dim + 1))
    products[0, 0] = 1.0
    if shifts:
        products[1, 0], products[1, 1:] = -shifts[0], m
    if len(shifts) >= 2:
        step = _step_matrix(t, m, sym)
        for k, shift in enumerate(shifts[1:], 1):
            products[k + 1] = step @ products[k] - shift * products[k]
    return products


def power_table(t: StructureTensors, m: np.ndarray, max_power: int) -> list[LinearElement]:
    """The reduced powers (m . L)**k for k = 0 .. ``max_power`` (<= N).

    The powers are the Newton products with every shift 0.  A power that
    is not finite (a huge |m| overflows them) raises ConstraintViolationError.
    """
    (m,) = _real_coords(t.dim, m=m)
    if not 0 <= max_power <= t.n:
        raise ValueError(
            f"max_power must lie in 0..{t.n} (higher powers reduce), got {max_power}"
        )
    products = _newton_products(t, m, [0.0] * max_power, product_matrices(t, m)[0])
    if not np.isfinite(products).all():
        raise ConstraintViolationError(
            f"a power of m . L at |m| = {math.hypot(*m.tolist()):.3e} is not finite"
        )
    return [LinearElement(p[0], p[1:]) for p in products]


def _eigenvalues(basis: GeneratorBasis, m: np.ndarray) -> list[float]:
    """Ascending eigenvalues of M = m . L for the Newton form past the reach,
    from LAPACK, unguarded (``spectral._eigvalsh``): m is real."""
    return _eigvalsh(algebra_matrix(basis, m)).tolist()


def _exp_newton(t: StructureTensors, basis: GeneratorBasis, m: np.ndarray, sym: np.ndarray) -> np.ndarray:
    """Coordinates of exp(-iM) by the Newton form over M's eigenvalues
    (module docstring), with D(m) = ``sym``."""
    lam = _eigenvalues(basis, m)
    return np.dot(exp_divided_differences(lam), _newton_products(t, m, lam[:-1], sym))


def _exp_series(step: np.ndarray, square: np.ndarray, radius: float) -> np.ndarray:
    """Coordinates of exp(-iM) = cos M - i sin M, for the ``_step_matrix`` A
    of M, S = A A = ``square`` and a bound ``radius`` >= rho(M): cos M =
    sum_k c_k S**k e0 and sin M = A sum_k s_k S**k e0 (``_COS_SIN``), by
    Horner's rule on one (dim + 1, 2) array.  The first term left out is at
    most radius**(2K) / (2K)!, and K is the least count that brings it
    below a roundoff."""
    terms, size, r2 = 1, 0.5 * radius * radius, radius * radius
    while size >= _ROUNDOFF:
        terms += 1
        size *= r2 / ((2 * terms - 1) * (2 * terms))
    x = np.zeros((square.shape[0], 2))
    x[0] = _COS_SIN[terms - 1]
    for row in _COS_SIN[:terms - 1][::-1]:
        x = square @ x
        x[0] += row
    return x[:, 0] - 1j * (step @ x[:, 1])


def linearize_fn(t: StructureTensors, basis: GeneratorBasis, m: np.ndarray) -> LinearElement:
    """Coordinates (f0, fvec) of f(m . L) = f0 I + fvec . L for f(x) = exp(-ix).

    The route is chosen from m before any eigenproblem (module docstring).
    Since 2 m . m = Tr M**2 <= N rho(M)**2, 2 m . m > N TAYLOR_REACH**2 is
    past the reach before S = A A is formed, so a huge m never overflows
    it.  Otherwise beta = (Tr M**8)**(1/8), Tr M**8 / N being the norm
    identity's sum of squares of M**4 = S S e0, picks ``_exp_series``
    (beta <= TAYLOR_REACH) or ``_exp_newton``; D(m) serves both (it is 0
    at N = 2).  A degenerate spectrum, the zero element included, is no
    special case.  The dense route (apply_spectral then from_matrix) is
    the tests' oracle.  A complex or non-finite m is a ValueError.

    The one refusal of both routes is the norm identity: unless
    |f0|**2 + (2/N) |fvec|**2 lies within UNITARY_TOL of 1 (a NaN or inf
    does not), ConstraintViolationError names |m| and the defect.  Each
    eigenvalue l carries about |l| eps of rounding into its phase, so at
    a large enough |m| the form drifts off SU(N) and is refused here.
    """
    (m,) = _real_coords(t.dim, m=m)
    sym = product_matrices(t, m)[0]
    radius = math.inf
    if 2.0 * float(m @ m) <= t.n * TAYLOR_REACH * TAYLOR_REACH:
        step = _step_matrix(t, m, sym)
        square = step @ step
        fourth = square @ square[:, 0]
        radius = (t.n * fourth[0] * fourth[0] + 2.0 * float(fourth[1:] @ fourth[1:])) ** 0.125
    form = _exp_series(step, square, radius) if radius <= TAYLOR_REACH else _exp_newton(t, basis, m, sym)
    f0, fvec = complex(form[0]), form[1:]
    # Products, not **, which raises OverflowError on a huge float.
    norm2 = f0.real * f0.real + f0.imag * f0.imag + (2.0 / t.n) * np.vdot(fvec, fvec).real
    defect = abs(norm2 - 1.0)
    if not defect <= UNITARY_TOL:
        raise ConstraintViolationError(
            f"exp(-i m . L) at |m| = {math.hypot(*m.tolist()):.3e} is not unitary: its norm "
            f"identity misses 1 by {defect:.3e}, limit {UNITARY_TOL:g}"
        )
    return LinearElement(f0, fvec)


def f0_trace(basis: GeneratorBasis, m: np.ndarray, fn) -> complex:
    """Identity coefficient the cheap way: f0 = (1/N) sum_k f(m_k), the
    eigenvalues from LAPACK (``spectral._eigvalsh``).  A complex or
    non-finite m is a ValueError."""
    (m,) = _real_coords(basis.dim, m=m)
    vals = _eigvalsh(algebra_matrix(basis, m))
    return complex(np.mean([fn(v) for v in vals]))


def exp_matrix(basis: GeneratorBasis, m: np.ndarray) -> np.ndarray:
    """Dense unitary exp(-i m . L)."""
    return apply_spectral(eig_hermitian(algebra_matrix(basis, m)), exp_minus_i)


def _require_det_one(phase: float) -> None:
    """The det u = 1 guard of both logarithms: ValueError unless the phase
    sum less its multiple of 2 pi is below UNITARY_TOL (a NaN fails too)."""
    if not abs(phase) < UNITARY_TOL:
        raise ValueError(f"det u is not 1: its phase is {abs(phase):.3e}, limit {UNITARY_TOL:g}")


def _branch_rule(theta: list[float]) -> tuple[list[float], float]:
    """The branch rule of both logarithms past the gate, on eigenphases
    theta_k in (-pi, pi].  Their sum must be 2 pi s for an integer s
    (``_require_det_one``); sign(s) 2 pi then comes off the |s| phases
    largest in sign(s) theta, ties broken by index.  The two ambiguities
    are refused here: a phase within BRANCH_GAP of the cut at pi
    (BranchCutError), and a shift boundary inside a phase tie, its gap
    below BRANCH_GAP (DegenerateSpectrumError).  Returns the shifted
    phases and that gap (inf for s = 0)."""
    total = sum(theta)
    shift = round(total / (2.0 * math.pi))
    _require_det_one(total - 2.0 * math.pi * shift)
    cut_distance = min(math.pi - abs(x) for x in theta)
    if cut_distance < BRANCH_GAP:
        raise BranchCutError(
            f"an eigenphase lies {cut_distance:.3e} from the branch cut at pi, "
            f"within {BRANCH_GAP:g}"
        )
    if not shift:
        return theta, math.inf
    sign, k = (1 if shift > 0 else -1), abs(shift)
    order = sorted(range(len(theta)), key=lambda j: -sign * theta[j])
    tie_gap = sign * (theta[order[k - 1]] - theta[order[k]])
    if tie_gap < BRANCH_GAP:
        raise DegenerateSpectrumError(
            f"the 2 pi shift boundary falls inside an eigenphase tie: its gap "
            f"{tie_gap:.3e} is below {BRANCH_GAP:g}"
        )
    shifted = theta[:]
    for j in order[:k]:
        shifted[j] -= sign * 2.0 * math.pi
    return shifted, tie_gap


def log_coords(basis: GeneratorBasis, u: np.ndarray) -> np.ndarray:
    """Coordinates m with exp(-i m . L) = u, for unitary u with det 1.

    ``eig_unitary`` refuses a u that is not unitary within UNITARY_TOL.
    Eigenphases are taken in (-pi, pi] and go through ``_branch_rule``,
    shared with the values-only route: it refuses det u != 1 (ValueError),
    restores tracelessness by one 2 pi shift rule for either sign (the s
    largest phases for s > 0, the |s| smallest for s < 0, ties broken by
    eigenvalue index), and refuses as ambiguous a phase within BRANCH_GAP
    of the cut at pi or a shift boundary inside a phase tie.  The
    logarithm V diag(-theta) V' is Hermitian by construction, so its
    coordinates are the real parts of ``from_matrix``'s.
    """
    spec = eig_unitary(u)
    theta, _ = _branch_rule(np.angle(spec.eigenvalues).tolist())
    v = spec.eigenvectors
    log_m = np.einsum("k,ak,bk->ab", -np.array(theta, dtype=complex), v, v.conj())
    return from_matrix(basis, log_m).vector.real


def _log_past_gate(basis: GeneratorBasis, u: np.ndarray) -> np.ndarray | None:
    """r with exp(-i r . L) = u, for a unitary u (the caller checks it),
    from u's eigenvalues alone; None where the route would lose accuracy
    (module constants CHORD_CUT and TIE_CUT), and ``log_coords`` then
    decides.

    LAPACK's ``eigvals`` takes the eigenvalues z_k of u itself, through
    ``spectral._lapack`` so that a failure is a ConvergenceError; u is
    unitary, so its pre-scaling never fires.  u is normal, so a
    backward-stable nonsymmetric QR gives each z_k within about
    eps ||u||_2 = eps, however the eigenvalues cluster (Bauer & Fike,
    Numer. Math. 2 (1960) 137), and the eigenphases theta_k = -arg z_k
    within about eps too.  They go through ``_branch_rule``, as in
    ``log_coords``, which also refuses det u != 1 on their sum.  R is the
    Newton form in u over z_k = exp(-i theta_k) of the values theta_k,
    expanded to monomials (``_newton_monomials``) over the powers
    u**0 .. u**(N-1) from ``spectral._powers_and_poly``.
    """
    n = basis.n
    powers, _ = _powers_and_poly(u)
    theta = [-cmath.phase(z) for z in _lapack(np.linalg.eigvals, u)[0].tolist()]
    theta, tie_gap = _branch_rule(theta)
    if tie_gap < TIE_CUT:
        return None
    z = [cmath.exp(-1j * x) for x in theta]
    for k in range(n):
        chord = 1.0
        for j in range(n):
            if j != k:
                chord *= abs(z[k] - z[j])
        if not chord >= CHORD_CUT:
            return None
    # Divided differences of z_k -> theta_k, then Horner from the Newton
    # form in u to monomials in u.
    diff = [complex(x) for x in theta]
    for level in range(1, n):
        for k in range(n - 1, level - 1, -1):
            diff[k] = (diff[k] - diff[k - 1]) / (z[k] - z[k - level])
    r = (np.array(_newton_monomials(z, diff)) @ powers).reshape(n, n)
    return from_matrix(basis, r).vector.real


def _arcsin_terms(rho2: float) -> list[float]:
    """c_0 .. c_(K-1) of arcsin z = sum_k c_k z**(2k+1), c_0 = 1 and
    c_(k+1) = c_k (2k+1)**2 / ((2k+2)(2k+3)), at rho**2 = ``rho2`` < 1: the
    c_k fall, so the tail from K on is at most c_K rho**(2K+1) / (1 - rho**2),
    and K is the first k that brings it below a roundoff of rho."""
    coeffs, term, limit = [1.0], 1.0, _ROUNDOFF * (1.0 - rho2)
    while True:
        k = len(coeffs) - 1
        ratio = (2 * k + 1) ** 2 / ((2 * k + 2) * (2 * k + 3))
        term *= ratio * rho2  # c_(k+1) rho**(2k+2)
        if not term >= limit:
            return coeffs
        coeffs.append(coeffs[-1] * ratio)


def _arcsin_series(t: StructureTensors, s: float, a: np.ndarray) -> np.ndarray:
    """(scalar, vector) coordinates of arcsin(S), S = s I + a . L, with
    ||S||_F**2 = N s**2 + 2 a . a < 1: ``_arcsin_terms``' series by Horner's
    rule in S**2, then times S.  Each partial sum lies in the commutative
    family of a, so S acts on it as the ``_step_matrix`` of a plus s I."""
    coeffs = _arcsin_terms(t.n * s * s + 2.0 * float(np.dot(a, a)))
    step = _step_matrix(t, a, product_matrices(t, a)[0]) + s * np.eye(t.dim + 1)
    square = step @ step
    r = np.zeros(t.dim + 1)
    r[0] = coeffs.pop()
    for c in reversed(coeffs):
        r = square @ r
        r[0] += c
    return step @ r


def delinearize_exp(t: StructureTensors, basis: GeneratorBasis, g: LinearElement) -> np.ndarray:
    """Invert g = (g0, gvec) with g0 I + gvec . L = exp(-i m . L) for m.

    Three routes, chosen from the scalar coordinate before any
    eigenproblem.  With R = m . L, 2N (1 - Re g0) = sum_k
    |1 - exp(-i theta_k)|**2 over R's eigenvalues; at or below LOG_GATE
    every |theta_k| <= pi/4 and the 2 pi shift is 0, so R = arcsin(S) on
    the principal branch, S = sin R = (g' - g) / 2i = -Im g0 I + a . L,
    a = -Im gvec, and ``_arcsin_series`` sums it in coordinates with no
    eigenvalue at all.  Past the gate, at every N, ``_log_past_gate``
    takes R from LAPACK's eigenvalues of u itself, with the det = 1 guard
    and 2 pi shift rule of ``log_coords`` (``_branch_rule``).  Neither
    needs an eigenvector or a dense logarithm.  Only where
    ``_log_past_gate`` declines does ``log_coords`` take the dense matrix.

    Both routes are preceded by one unitarity check of the dense u within
    UNITARY_TOL (ValueError, as in ``log_coords``), which the route past
    the gate then reads, and refuse det g != 1 by ``_require_det_one``,
    the guard ``log_coords`` uses: inside the gate the series' scalar
    coordinate, the phase sum over N, must vanish.  No other refusal of
    ``log_coords`` can arise inside the gate (no phase is near the cut and
    no shift boundary exists); past it, ``_branch_rule`` refuses a phase
    within BRANCH_GAP of the cut or a tie at the shift boundary for both
    routes.  The coordinates are real by construction inside the gate,
    and the real part of the Newton form past it.
    """
    u = to_matrix(basis, g)
    _require_unitary(u)
    if not 2.0 * t.n * (1.0 - g.scalar.real) <= LOG_GATE:
        r = _log_past_gate(basis, u)
        return log_coords(basis, u) if r is None else r
    r = _arcsin_series(t, -g.scalar.imag, -np.imag(g.vector))
    _require_det_one(t.n * float(r[0]))
    return r[1:]
