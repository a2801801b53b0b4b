"""Linearization of matrix functions over su(N), and its inverse for exp.

Any smooth function of an algebra element collapses to an affine form,

    f(m . L) = f0 I + fvec . L,

because every polynomial in M = m . L reduces through the product rule.
``linearize_fn`` writes exp(-i M) in the Newton form over the
eigenvalues l1 <= ... <= lN of M,

    f(M) = sum_k f[l1..l(k+1)] (M - l1 I) ... (M - lk I),

which is exact on any spectrum of the diagonalizable M: with a repeated
eigenvalue it is the Hermite interpolant, which agrees with f there too.
Its divided differences are the first row of exp(-iB) for the bidiagonal
matrix B of the eigenvalues and ones (Opitz), so the eigenvalues are all
the spectral input it needs: no eigenvectors, and no Vandermonde system to
solve.  For N <= 4 even those come without iteration: the power sums
Tr M**2 = 2 m.m, Tr M**3 = 2 (m (.) m).m and
Tr M**4 = (4/N)(m.m)**2 + 2 (m (.) m).(m (.) m) fix the characteristic
polynomial, and ``spectral.eigvals_from_power_sums`` solves it in closed
form, declining close or repeated eigenvalues to LAPACK.  The
Newton products are real and built in coordinates; with P = s I + v . L,

    P (M - l I) = (-l s + (2/N) v . m) I + (s m - l v + v (.) m) . L,

and v (.) m = D(m) v for the matrix D(m) of ``algebra.product_matrices``,
built once per linearization with F(m) (and giving m (.) m = D(m) m for
the power sums), so each step is one product of the (dim + 1)-square
matrix [[0, (2/N) m'], [m, D(m)]] with (s, v), less l (s, v).
The cross-product term of the full product rule (``algebra.multiply``)
drops out identically (every product lies in the commutative family
generated by m under (.)), and that vanishing, v (x) m = F(m) v = 0, is
asserted for each step from the third on, by one stacked product with
F(m) once the steps are formed.  At the second step v = m,
whose cross term m (x) m is exactly zero in floating point (each term is
f (m_k m_l - m_l m_k)), while F(m) m rounds to about eps |m|**2, so
checking it there would test only rounding.
``power_table`` lists the plain powers of M as ``LinearElement``s from
the same routine, every shift 0; it and the monomial coefficients of
``spectral.expansion_coeffs`` remain as cross-checks.  M is Hermitian, so
exp(+i M) is the conjugate element ``linearize_fn(...).conj()``.

``delinearize_exp`` inverts the exponential case from eigenvalues only,
at every N.  Near the identity the scalar coordinate alone shows that
every eigenphase lies within pi/4 (LOG_GATE), and R = m . L is then the
Newton form of arcsin over the eigenvalues of sin R, whose coordinates
are the imaginary parts of the element's; ``_newton_form`` builds it as
it builds exp.  Past the gate the eigenphases of u itself come from its
Cayley transform H = i (wI + u)(wI - u)**-1, whose eigenvalues are real:
for N = 3 and 4 in closed form, from u's characteristic polynomial
mapped by the Cayley substitution to a real polynomial that
``spectral.eigvals_from_power_sums`` solves, and otherwise, or where
that declines, by ``spectral._eigvalsh`` on H.  R is the Newton form in u
over those eigenvalues (``_log_past_gate``).  That route reads the
powers of u and its characteristic polynomial from
``spectral._powers_and_poly``, the pole w from ``spectral._cayley_pole``
and H from ``spectral._cayley_hermitian``, as ``spectral.eig_unitary``
does.  It declines, rather than refuses, wherever it would lose accuracy
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
    product_matrices,
    to_matrix,
)
from .errors import BranchCutError, ConstraintViolationError, DegenerateSpectrumError
from .spectral import (
    UNITARY_TOL,
    _cayley_hermitian,
    _cayley_pole,
    _eigvalsh,
    _newton_monomials,
    _powers_and_poly,
    _require_unitary,
    apply_spectral,
    arcsin_divided_differences,
    eig_hermitian,
    eig_unitary,
    eigvals_from_power_sums,
    eigvals_hermitian,
    exp_divided_differences,
    exp_minus_i,
)

CROSS_RESIDUAL_TOL = 1e-10
BRANCH_GAP = 1e-9
REALITY_TOL = 1e-9
# a . a and its square stay normal floats inside this range, so the power
# sums of the closed-form spectra (D(a) a and its dot products) neither
# underflow nor overflow; outside it ``spectral._eigvalsh``, which scales
# its input by a power of two, takes the eigenvalues from LAPACK.
POWER_SUM_RANGE = (2.0 ** -500, 2.0 ** 500)
# ``delinearize_exp`` takes the values-only logarithm when
# 2N (1 - Re g0) = sum_k |1 - exp(-i theta_k)|**2 is at most this: each
# term is then at most 4 sin(pi/8)**2, so every |theta_k| <= pi/4, the
# phases sum to 0 rather than a nonzero multiple of 2 pi, and the points
# sin theta_k lie within sin(pi/4) of 0, so the arcsin series of
# ``arcsin_divided_differences`` converges with ratio at most sin(pi/4).
LOG_GATE = 4.0 * math.sin(math.pi / 8.0) ** 2
# Past the gate ``delinearize_exp`` takes the logarithm from u's
# eigenvalues (``_log_past_gate``) and declines to ``log_coords`` where
# that would lose accuracy.  CHORD_CUT: some eigenvalue z_k of u has
# prod_{j != k} |z_k - z_j| below it; a root of p_u errs by about
# eps / |p_u'(z_k)| and the divided differences of the Newton form lose
# as much, so an answered R stays within about 2e-13 of exact.  A phase
# pair straddling the cut at pi loses more, since R's values there lie
# nearly 2 pi apart at close points (measured up to 6e-12, at N = 3).
# TIE_CUT: the 2 pi shift boundary falls between two phases closer than
# this, so R takes values 2 pi apart at two close points and the error
# grows like 3e-15 / gap**2 (measured 3e-13 at a gap of 0.1, 3e-11 at
# 0.01, where ``log_coords`` errs by 3e-14 and 3e-13).
CHORD_CUT = 1e-3
TIE_CUT = 0.1


def _cayley_rows(n: int) -> list[list[complex]]:
    """Row k, column j: the coefficient of t**k in (t - i)**j (t + i)**(n - j),
    so that sum_j a_j w**j (t - i)**j (t + i)**(n - j) is the Cayley
    substitution z = w (t - i)/(t + i) of p(z) = sum_j a_j z**j."""
    columns = []
    for j in range(n + 1):
        c = [1.0 + 0j]
        for root in [1j] * j + [-1j] * (n - j):
            c = [a - root * b for a, b in zip([0j] + c, c + [0j])]  # times (t - root)
        columns.append(c)
    return [list(row) for row in zip(*columns)]


_CAYLEY = {n: _cayley_rows(n) for n in (3, 4)}


def _newton_products(
    t: StructureTensors, m: np.ndarray, shifts, sym: np.ndarray, skew: np.ndarray
) -> np.ndarray:
    """The rows (s_k, v_k) of P_k = (M - x1 I) ... (M - xk I) = s_k I + v_k . L
    for k = 0 .. len(shifts), in one array.

    Each step is (s, v) <- A (s, v) - x (s, v), one product with
    A = [[0, (2/N) m'], [m, D(m)]], D(m) = ``sym`` (module docstring).
    When there is a step k >= 3, whose cross term F(m) v must vanish, one
    stacked product with F(m) = ``skew`` checks all of them: a residual
    that is not below CROSS_RESIDUAL_TOL (a NaN included) raises
    ConstraintViolationError for the first such step.  Step 2 is not
    checked: its v is m, and m (x) m is zero exactly (module docstring).
    """
    products = np.zeros((len(shifts) + 1, t.dim + 1))
    products[0, 0] = 1.0
    if shifts:
        products[1, 0], products[1, 1:] = -shifts[0], m
    if len(shifts) >= 2:
        step = np.zeros((t.dim + 1, t.dim + 1))
        step[0, 1:], step[1:, 0], step[1:, 1:] = (2.0 / t.n) * m, m, sym
        for k, shift in enumerate(shifts[1:], 1):
            products[k + 1] = step @ products[k] - shift * products[k]
    if len(shifts) >= 3:
        # Row j is the cross term of step j + 3, whose v is products[j + 2];
        # a stack of matrix-vector products rounds as each one alone does.
        cross = np.abs(skew @ products[2:-1, 1:, None])
        if not cross.max() < CROSS_RESIDUAL_TOL:
            residual = cross.max(axis=(1, 2))
            j = int(np.argmin(residual < CROSS_RESIDUAL_TOL))
            raise ConstraintViolationError(
                f"cross term of product {j + 3} reached {residual[j]:.3e}; "
                "the commutative-family reduction no longer holds"
            )
    return products


def power_table(t: StructureTensors, m: np.ndarray, max_power: int) -> list[LinearElement]:
    """The reduced powers (m . L)**k for k = 0 .. ``max_power`` (<= N).

    The powers are the Newton products with every shift 0.
    """
    (m,) = _real_coords(t.dim, m=m)
    if not 0 <= max_power <= t.n:
        raise ValueError(
            f"max_power must lie in 0..{t.n} (higher powers reduce), got {max_power}"
        )
    products = _newton_products(t, m, [0.0] * max_power, *product_matrices(t, m))
    return [LinearElement(p[0], p[1:]) for p in products]


def _eigenvalues(
    t: StructureTensors, basis: GeneratorBasis, m: np.ndarray, sym: np.ndarray
) -> list[float]:
    """Ascending eigenvalues of M = m . L for the Newton routes.

    For N <= 4 they come in closed form from the power sums of
    ``eigvals_from_power_sums``, with m (.) m = D(m) m from the caller's
    D(m) = ``sym``, while a . a lies inside POWER_SUM_RANGE.  Outside it,
    where the closed form declines (close or repeated eigenvalues), and
    for N > 4 LAPACK takes them, unguarded (``spectral._eigvalsh``): m is real.
    """
    if t.n <= 4:
        # hypot does not overflow, and a float product overflows to inf
        # silently: a huge m is refused by the range, not with a warning.
        norm = math.hypot(*m.tolist())
        aa = norm * norm
        if POWER_SUM_RANGE[0] < aa < POWER_SUM_RANGE[1]:
            p3 = p4 = 0.0
            if t.n > 2:
                mm = sym @ m
                p3 = 2.0 * float(np.dot(mm, m))
                p4 = (4.0 / t.n) * aa * aa + 2.0 * float(np.dot(mm, mm))
            vals = eigvals_from_power_sums(t.n, 2.0 * aa, p3, p4)
            if vals is not None:
                return vals
    return _eigvalsh(algebra_matrix(basis, m)).tolist()


def _newton_form(t: StructureTensors, basis: GeneratorBasis, m: np.ndarray, differences):
    """(f0, fvec) of f(m . L) = f0 I + fvec . L, the Newton form over its
    eigenvalues l1 <= ... <= lN with f[l1], ..., f[l1..lN] = differences(l).
    D(m) and F(m) are built once (D(m) is zero at N = 2) for the power sums
    of ``_eigenvalues`` and the steps of ``_newton_products``.  A form that is
    not finite raises ConstraintViolationError, with |m|: at a huge |m| the
    products or the divided differences overflow, and the checked cross
    terms do not always show it (N <= 3 has none, and an overflowing term
    can vanish by sparsity, as for m along L1 at N = 4)."""
    sym, skew = product_matrices(t, m)
    lam = _eigenvalues(t, basis, m, sym)
    form = np.dot(differences(lam), _newton_products(t, m, lam[:-1], sym, skew))
    # A NaN or inf coordinate makes the sum non-finite.
    if not cmath.isfinite(form.sum()):
        raise ConstraintViolationError(
            f"the Newton form at |m| = {math.hypot(*m.tolist()):.3e} is not finite; "
            "its products or divided differences overflowed"
        )
    return form[0], form[1:]


def linearize_fn(t: StructureTensors, basis: GeneratorBasis, m: np.ndarray) -> LinearElement:
    """Coordinates (f0, fvec) of f(m . L) = f0 I + fvec . L for f(x) = exp(-ix).

    The Newton form of ``_newton_form`` (module docstring) is exact,
    because f and its interpolant agree on the spectrum of the
    diagonalizable M = m . L; a repeated eigenvalue makes that a Hermite
    interpolant, which agrees there as well.  The divided differences come
    from ``exp_divided_differences`` (Opitz's bidiagonal exponential),
    which accepts confluent points, so only the eigenvalues are needed,
    never the eigenvectors, and a degenerate spectrum (the zero element
    included) is no special case.  The cross term of each Newton step
    from the third on is checked.  The all-matrix route (apply_spectral
    then from_matrix) reproduces the same element and serves as the
    oracle in the test suite.  A complex or non-finite m is a ValueError.
    """
    (m,) = _real_coords(t.dim, m=m)
    f0, fvec = _newton_form(t, basis, m, exp_divided_differences)
    return LinearElement(complex(f0), fvec)


def f0_trace(basis: GeneratorBasis, m: np.ndarray, fn) -> complex:
    """Identity coefficient the cheap way: f0 = (1/N) sum_k f(m_k)."""
    vals = eigvals_hermitian(algebra_matrix(basis, m))
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
    of the cut at pi or a shift boundary inside a phase tie.
    """
    spec = eig_unitary(u)
    theta, _ = _branch_rule(np.angle(spec.eigenvalues).tolist())
    v = spec.eigenvectors
    log_m = np.einsum("k,ak,bk->ab", -np.array(theta, dtype=complex), v, v.conj())
    elem = from_matrix(basis, log_m)
    residue = float(np.max(np.abs(elem.vector.imag)))
    if residue > REALITY_TOL:
        raise ConstraintViolationError(
            f"recovered coordinates have imaginary residue {residue:.3e}"
        )
    return elem.vector.real


def _log_past_gate(basis: GeneratorBasis, u: np.ndarray) -> np.ndarray | None:
    """r with exp(-i r . L) = u, for a unitary u (the caller checks it),
    from u's eigenvalues alone; None where the route would lose accuracy
    (module constants CHORD_CUT and TIE_CUT), and ``log_coords`` then
    decides.

    ``spectral._powers_and_poly`` gives the powers u**0 .. u**(N-1) and u's
    characteristic polynomial p_u, ``spectral._cayley_pole`` the pole w, the point of
    largest |p_u(w)| among 4N points on the circle, at least sqrt 2 on
    every unitary u, so no det check has to come first; ``eig_unitary``
    reads the same.  The eigenvalues t_k of H = i (wI + u)(wI - u)**-1
    are real, and the eigenphases are theta_k = -2 atan(t_k) - arg(-w).
    For N = 3 and 4 the t_k come in closed form: the Cayley substitution
    z = w (t - i)/(t + i) maps p_u to a real polynomial in t (after
    division by its leading coefficient p_u(w)), which, depressed by its
    mean root, ``eigvals_from_power_sums`` solves while its p2 lies inside
    POWER_SUM_RANGE; its slope cut declines close roots, whose values the
    rounding of p_u's coefficients would move by eps / |p'|.  N = 2 has no
    such cut (its two roots are +-r), so there, for N > 4, and wherever
    the closed form declines, ``spectral._eigvalsh`` takes the t_k from the
    exactly Hermitian H (``spectral._cayley_hermitian``).  The phases go
    through ``_branch_rule``, as in ``log_coords``, which also refuses
    det u != 1 on their sum.  R is the Newton form in u over
    z_k = exp(-i theta_k) of the values theta_k, expanded to monomials
    (``_newton_monomials``) over the powers of u already formed.
    """
    n = basis.n
    powers, coeffs = _powers_and_poly(u)
    w, beta, lead = _cayley_pole(coeffs)
    t = None
    if n in _CAYLEY:
        # The real monic t-polynomial, then its Taylor shift by the mean root.
        b = [c * w ** j for j, c in enumerate(coeffs)]
        q = [(sum(a * x for a, x in zip(row, b)) / lead).real for row in _CAYLEY[n]]
        mean = -q[n - 1] / n
        for i in range(n):
            for j in range(n - 1, i - 1, -1):
                q[j] += mean * q[j + 1]
        # Power sums of the depressed roots from its coefficients.
        p2 = -2.0 * q[n - 2]
        if POWER_SUM_RANGE[0] < 0.5 * p2 < POWER_SUM_RANGE[1]:
            p4 = 2.0 * q[2] * q[2] - 4.0 * q[0] if n == 4 else 0.0
            tau = eigvals_from_power_sums(n, p2, -3.0 * q[n - 3], p4)
            t = None if tau is None else [mean + x for x in tau]
    if t is None:
        t = _eigvalsh(_cayley_hermitian(u, powers, coeffs, w)).tolist()
    theta = [math.remainder(-2.0 * math.atan(x) - beta, 2.0 * math.pi) for x in t]
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


def delinearize_exp(t: StructureTensors, basis: GeneratorBasis, g: LinearElement) -> np.ndarray:
    """Invert g = (g0, gvec) with g0 I + gvec . L = exp(-i m . L) for m.

    Three routes, chosen from the scalar coordinate before any
    eigenproblem.  With R = m . L, 2N (1 - Re g0) = sum_k
    |1 - exp(-i theta_k)|**2 over R's eigenvalues; at or below LOG_GATE
    every |theta_k| <= pi/4 and the 2 pi shift is 0, so
    theta_k = arcsin(sin theta_k) on the principal branch and R is that
    function of sin R = (g' - g) / 2i = -Im g0 I + a . L, a = -Im gvec.
    With the eigenvalues mu_k of a . L (``_eigenvalues``: closed form for
    N <= 4, else LAPACK) R is the Newton form over them of
    arcsin(-Im g0 + x), by ``_newton_form`` on a with the divided
    differences of ``arcsin_divided_differences``.  Past the gate, at
    every N, ``_log_past_gate`` takes R from the eigenvalues of u itself,
    those of its Cayley transform, with the det = 1 guard and 2 pi shift
    rule of ``log_coords`` (``_branch_rule``).  Neither needs an
    eigenvector or a dense logarithm.  Only where ``_log_past_gate``
    declines does ``log_coords`` take the dense matrix.

    Both values-only routes are preceded by one unitarity check of the
    dense u within UNITARY_TOL (ValueError, as in ``log_coords``), which
    the route past the gate then reads, and refuse det g != 1 by
    ``_require_det_one``, the guard ``log_coords`` uses: inside the gate
    R's scalar part, the phase sum over N, must vanish.  No other
    refusal of ``log_coords`` can arise inside the gate (no phase is near
    the cut and no shift boundary exists); past it, ``_branch_rule``
    refuses a phase within BRANCH_GAP of the cut or a tie at the shift
    boundary for both routes.  The coordinates are real by construction
    inside the gate, and the real part of the Newton form past it.
    """
    u = to_matrix(basis, g)
    _require_unitary(u)
    if not 2.0 * t.n * (1.0 - g.scalar.real) <= LOG_GATE:
        r = _log_past_gate(basis, u)
        return log_coords(basis, u) if r is None else r
    offset = -g.scalar.imag
    scalar, r = _newton_form(
        t, basis, -np.imag(g.vector), lambda mu: arcsin_divided_differences(mu, offset)
    )
    _require_det_one(t.n * float(scalar))
    return r
