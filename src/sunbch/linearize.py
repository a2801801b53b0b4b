"""Linearization of matrix functions over su(N), and its inverse for exp.

Any smooth function of an algebra element collapses to an affine form,

    f(m . L) = f0 I + fvec . L,

because every polynomial in M = m . L reduces through the product rule.
The products are real and built in coordinates; with P = s I + v . L,

    P M = ((2/N) v . m) I + (s m + v (.) m) . L,

and v (.) m = D(m) v for the matrix D(m) of ``algebra.product_matrices``,
so a product with M is one product of the (dim + 1)-square step matrix
A = [[0, (2/N) m'], [m, D(m)]] with (s, v).  A is built once per
linearization, by one gather and one ``np.bincount`` over
``StructureTensors.step_rule`` (``_step_matrix``), with no F(m).  The
cross-product term of the full product rule (``algebra.multiply``) drops
out identically: every product lies in the commutative family of m.

``linearize_fn`` evaluates exp(-iM) by one of two routes, chosen from m
before any eigenproblem.  Inside the reach, where the bound
beta = (Tr M**8)**(1/8) >= rho(M) is at most TAYLOR_REACH = pi, it sums
cos M - i sin M as Taylor series in S = A A on the coordinates of I
(``_exp_series``; Al-Mohy & Higham, SIAM J. Sci. Comput. 33 (2011) 488):
the rows S**k e0 fill one power array, and one product with the
coefficient rows sums both series, losing at most about exp(pi)
roundoffs to cancellation.  The same sum (``_cos_sin``) serves
``bch.similarity``'s adjoint series.  Past the reach it runs Lanczos
(``_exp_lanczos``; Saad, SIAM J. Numer. Anal. 29 (1992) 209; Golub & Van
Loan, Matrix Computations, 4th ed., sec. 10.1) on W**(1/2) A W**(-1/2) =
[[0, c m'], [c m, D(m)]], c = sqrt(2/N): A with row 0 and column 0
scaled, real symmetric since A is self-adjoint in the trace inner
product Tr(X'Y) / N, of weight W = diag(1, 2/N, ..., 2/N) on (s, v).
Its Krylov space from e0, the polynomials in M, has one dimension per
distinct eigenvalue, so with two full reorthogonalization passes per
step Lanczos ends within N steps, or where beta <= 1e-15 of the 1-norm,
and exp(-iM) has the coordinates Q exp(-iT) e1, vector part divided by
c, from ``eigh`` of the tridiagonal T.  No dense M is formed.  Each
eigenphase carries about rho(M) eps of rounding, which a unitary result
hides, so past the reach a bound on it past PHASE_BUDGET is refused.  On
both routes the norm identity |f0|**2 + (2/N) |fvec|**2 = Tr(u'u) / N = 1
guards the output, within UNITARY_TOL (a NaN or inf fails it).
``power_table`` lists the powers of M from ``_series_powers`` over A; it
and the monomial coefficients of ``spectral.expansion_coeffs`` remain as
cross-checks.  exp(+i M) is the conjugate ``linearize_fn(...).conj()``.

``delinearize_exp`` inverts the exponential case without eigenvectors,
at every N.  Near the identity the scalar coordinate alone shows that
every eigenphase lies within pi/4 (LOG_GATE), and R = m . L is then
arcsin of S = sin R, whose coordinates are the imaginary parts of the
element's; ``_arcsin_series`` sums its Taylor series over one power
array of the step matrix of S, and needs no eigenvalue.  Past the gate
the eigenvalues of u itself come from LAPACK's nonsymmetric ``eigvals``,
accurate to about eps however they cluster since u is normal, and R is
the Newton form in u over them (``_log_past_gate``), expanded over the
powers of u from ``spectral._power_rows``.  That route declines, rather
than refuses, wherever its divided differences would lose accuracy
(CHORD_CUT, TIE_CUT), and only then does ``log_coords`` take the dense
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
    _phase_budget_refusal,
    _power_rows,
    _require_unitary,
    apply_spectral,
    eig_hermitian,
    eig_unitary,
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
# grows like eps / gap.  Over LAPACK's eigenvalues that costs the route
# what it costs ``log_coords`` (measured at N = 3: 3e-14 at a gap of 0.1,
# 3e-13 at 0.01, where ``log_coords`` errs by 1.4e-14 and 3e-13), so only
# ties below 0.01 go to ``log_coords``.
CHORD_CUT = 1e-3
TIE_CUT = 0.01


# Rows (c_k, s_k) = ((-1)**k / (2k)!, (-1)**k / (2k+1)!) of cos x =
# sum_k c_k x**(2k) and sin x = x sum_k s_k x**(2k); ``_cos_sin`` sums at
# most 15 of them, at radius TAYLOR_REACH, for ``_exp_series`` and for
# ``bch._adjoint_series``.
_COS_SIN = np.array([[(-1) ** k / math.factorial(j) for j in (2 * k, 2 * k + 1)] for k in range(15)])


def _step_matrix(t: StructureTensors, m: np.ndarray, shift: float = 0.0) -> np.ndarray:
    """A + shift I for A = [[0, (2/N) m'], [m, D(m)]]: A (s, v) are the
    coordinates of (m . L)(s I + v . L) for every v in the commutative family
    generated by m (module docstring).  One gather and one ``np.bincount``
    over ``StructureTensors.step_rule``; A is bit for bit the matrix with
    D(m) from ``product_matrices``, and the shift is added on its diagonal."""
    slots, gather, coef = t.step_rule
    size = t.dim + 1
    step = np.bincount(slots, coef * m[gather], minlength=size * size)
    if shift:
        step[:: size + 1] += shift
    return step.reshape(size, size)


def _series_powers(square: np.ndarray, powers: np.ndarray, start: int) -> np.ndarray:
    """``powers`` with its rows from ``start`` on filled: row k is S**k
    times row 0, S = ``square`` (row 0 is e0, the coordinates of I, for
    every series of this module), one matrix-vector product per row.  The
    rows before ``start`` are filled by the caller."""
    for k in range(start, len(powers)):
        np.dot(square, powers[k - 1], out=powers[k])
    return powers


def power_table(t: StructureTensors, m: np.ndarray, max_power: int) -> list[LinearElement]:
    """The reduced powers (m . L)**k for k = 0 .. ``max_power`` (<= N), the
    rows A**k e0 of ``_series_powers`` over the ``_step_matrix`` A of m.  A
    power that is not finite (a huge |m| overflows them) raises
    ConstraintViolationError."""
    (m,) = _real_coords(t.dim, m=m)
    if not 0 <= max_power <= t.n:
        raise ValueError(
            f"max_power must lie in 0..{t.n} (higher powers reduce), got {max_power}"
        )
    products = _series_powers(_step_matrix(t, m), np.eye(max_power + 1, t.dim + 1), 1)
    if not np.isfinite(products).all():
        raise ConstraintViolationError(
            f"a power of m . L at |m| = {math.hypot(*m.tolist()):.3e} is not finite"
        )
    return [LinearElement(p[0], p[1:]) for p in products]


def _cos_sin(square: np.ndarray, powers: np.ndarray, radius: float, start: int) -> np.ndarray:
    """The rows (sum_k c_k Q**k p, sum_k s_k Q**k p) of ``_COS_SIN``'s
    series in Q = ``square`` = X X, for an X of spectral radius at most
    ``radius``: cos X p and (sin X / X) p.  ``_exp_series`` takes X = A,
    ``bch._adjoint_series`` X = iK.
    ``powers`` holds len(_COS_SIN) rows, row 0 p and rows 1 .. ``start`` - 1
    Q**k p already filled; ``_series_powers`` fills rows ``start`` .. K - 1,
    and one product of those K rows with the first K rows of ``_COS_SIN``
    sums both series.  The first term left out is at most
    radius**(2K) / (2K)!, and K is the least count that brings it below a
    roundoff: at radius TAYLOR_REACH all 15 rows."""
    terms, size, r2 = 1, 0.5 * radius * radius, radius * radius
    while size >= _ROUNDOFF:
        terms += 1
        size *= r2 / ((2 * terms - 1) * (2 * terms))
    return _COS_SIN[:terms].T @ _series_powers(square, powers[:terms], start)


def _exp_series(step: np.ndarray, square: np.ndarray, powers: np.ndarray, radius: float) -> np.ndarray:
    """Coordinates of exp(-iM) = cos M - i sin M, for the ``_step_matrix`` A
    of M, S = A A = ``square`` and a bound ``radius`` >= rho(M): cos M =
    sum_k c_k S**k e0 and sin M = A sum_k s_k S**k e0, the rows of
    ``_cos_sin`` after the three S**0 e0 .. S**2 e0 of ``linearize_fn``'s
    radius probe."""
    cos, sin = _cos_sin(square, powers, radius, 3)
    return cos - 1j * (step @ sin)


def _reach_bound(t: StructureTensors, fourth: np.ndarray) -> float:
    """beta = (Tr M**8)**(1/8) >= rho(M) from the coordinates of M**4:
    Tr M**8 / N is the norm identity's sum of squares of M**4.  Callers
    test 2 m . m <= N TAYLOR_REACH**2 (Tr M**2 <= N rho(M)**2) first, so
    that M**4 cannot overflow, and take Taylor series where beta is at
    most TAYLOR_REACH."""
    return (t.n * fourth[0] * fourth[0] + 2.0 * float(fourth[1:] @ fourth[1:])) ** 0.125


def _exp_lanczos(t: StructureTensors, step: np.ndarray) -> np.ndarray:
    """Coordinates of exp(-iM) by Lanczos (module docstring) on the
    ``_step_matrix`` of M, ``step``, scaled in place to its symmetric form."""
    c = math.sqrt(2.0 / t.n)
    step[0] /= c
    step[:, 0] *= c
    cut = 1e-15 * float(np.abs(step).sum(axis=0).max())
    q, alpha, beta = np.eye(t.n, t.dim + 1), [], []  # row k + 1 is written before it is read
    for k in range(t.n):
        w = step @ q[k]
        alpha.append(float(q[k] @ w))
        if k + 1 == t.n:
            break
        for _ in range(2):
            w -= (q[: k + 1] @ w) @ q[: k + 1]
        b = math.sqrt(float(w @ w))
        if not b > cut:
            break
        beta.append(b)
        q[k + 1] = w / b
    (vals, vecs), e = _lapack(np.linalg.eigh, np.diag(alpha) + np.diag(beta, 1) + np.diag(beta, -1))
    form = (vecs @ (np.exp(-1j * np.ldexp(vals, e)) * vecs[0])) @ q[: len(alpha)]
    form[1:] /= c
    return form


def linearize_fn(t: StructureTensors, m: np.ndarray) -> LinearElement:
    """Coordinates (f0, fvec) of f(m . L) = f0 I + fvec . L for f(x) = exp(-ix).

    The route is chosen from m before any eigenproblem (module docstring).
    Since 2 m . m = Tr M**2 <= N rho(M)**2, 2 m . m > N TAYLOR_REACH**2 is
    past the reach before S = A A is formed, so a huge m never overflows
    it.  Otherwise beta = (Tr M**8)**(1/8), Tr M**8 / N being the norm
    identity's sum of squares of M**4 = S S e0, picks ``_exp_series``
    (beta <= TAYLOR_REACH) or ``_exp_lanczos``; the step matrix A serves
    both, and S e0 and S S e0 are the series' first powers.  A degenerate
    spectrum, the zero element included, is no special case.  The dense
    route (apply_spectral then from_matrix) is the tests' oracle.  A
    complex or non-finite m is a ValueError.

    ConstraintViolationError, naming |m|, refuses past the reach, before
    any product, a bound sqrt(2 (N - 1) / N) |m| eps >= rho(M) eps (eps =
    2**-52) past PHASE_BUDGET, and on both routes a norm identity
    |f0|**2 + (2/N) |fvec|**2 that misses 1 by more than UNITARY_TOL.
    """
    (m,) = _real_coords(t.dim, m=m)
    step = _step_matrix(t, m)
    radius = math.inf
    if 2.0 * float(m @ m) <= t.n * TAYLOR_REACH * TAYLOR_REACH:
        square = step @ step
        powers = np.zeros((len(_COS_SIN), t.dim + 1))
        powers[0, 0], powers[1] = 1.0, square[:, 0]
        radius = _reach_bound(t, np.dot(square, powers[1], out=powers[2]))
    if radius <= TAYLOR_REACH:
        form = _exp_series(step, square, powers, radius)
    else:
        size = math.hypot(*m.tolist())
        # eps first, so that a bound past the float range cannot overflow.
        refusal = _phase_budget_refusal(
            size * math.ulp(1.0) * math.sqrt(2.0 - 2.0 / t.n),
            f"exp(-i m . L) at |m| = {size:.3e} is not unitary to working precision: rho eps",
        )
        if refusal is not None:
            raise refusal
        form = _exp_lanczos(t, step)
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
    u**0 .. u**(N-1) from ``spectral._power_rows``.
    """
    n = basis.n
    powers = _power_rows(u)
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
    ||S||_F**2 = N s**2 + 2 a . a < 1: ``_arcsin_terms``' K coefficients
    times the K rows S**2k e0 of one power array (``_series_powers``), in
    one product, then times S.  Every power lies in the commutative
    family of a, so S acts on it as the ``_step_matrix`` of a shifted by s."""
    coeffs = _arcsin_terms(t.n * s * s + 2.0 * float(np.dot(a, a)))
    step = _step_matrix(t, a, s)
    square = step @ step
    powers = np.zeros((len(coeffs), t.dim + 1))
    powers[0, 0] = 1.0
    return step @ np.dot(coeffs, _series_powers(square, powers, 1))


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
