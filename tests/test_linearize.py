import re
import sys

import numpy as np
import pytest

from sunbch import (
    LinearElement,
    cached_algebra,
    compose,
    compose_direct,
    delinearize_exp,
    eig_hermitian,
    exp_matrix,
    f0_trace,
    linearize_fn,
    log_coords,
    power_table,
    random_coords,
    similarity,
    similarity_direct,
    to_matrix,
)
from sunbch import linearize
from sunbch.algebra import algebra_matrix, product_matrices
from sunbch.errors import BranchCutError, ConstraintViolationError, DegenerateSpectrumError
from sunbch.linearize import exp_minus_i

from conftest import dense_exp, rotated, seeded_samples


def test_exp_helpers():
    assert exp_minus_i(0.0) == 1.0
    assert exp_minus_i(np.pi / 2) == pytest.approx(-1j, abs=1e-15)


def test_power_table_first_rows(algebra3):
    _, t = algebra3
    rng = np.random.default_rng(2)
    m = rng.uniform(-1, 1, 8)
    table = power_table(t, m, 2)
    assert len(table) == 3
    assert all(isinstance(elem, LinearElement) for elem in table)
    assert table[0].scalar == 1.0 and table[1].scalar == 0.0
    np.testing.assert_array_equal(table[0].vector, np.zeros(8))
    np.testing.assert_array_equal(table[1].vector, m)


def test_power_table_diagonal_generator(algebra3):
    """Second power of L8: scalar 2/3, vector -(1/sqrt 3) e8."""
    _, t = algebra3
    e8 = np.zeros(8)
    e8[7] = 1.0
    scalar, vector = power_table(t, e8, 2)[2]
    assert scalar == pytest.approx(2.0 / 3.0, abs=1e-14)
    np.testing.assert_allclose(vector, -e8 / np.sqrt(3.0), atol=1e-14)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_power_table_matches_dense_powers(n):
    basis, t = cached_algebra(n)
    for coords in seeded_samples(basis, 300 + n, 5):
        table = power_table(t, coords, basis.n)
        assert len(table) == n + 1
        mat = algebra_matrix(basis, coords)
        power = np.eye(n, dtype=complex)
        for elem in table:
            assert np.max(np.abs(to_matrix(basis, elem) - power)) < 1e-10
            power = power @ mat


def test_power_table_range_check(algebra3):
    _, t = algebra3
    with pytest.raises(ValueError):
        power_table(t, np.zeros(8), 4)
    with pytest.raises(ValueError):
        power_table(t, np.zeros(8), -1)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
def test_linearize_zero_coords(n):
    # The zero element takes the general route (D(0) = 0, a fully confluent
    # spectrum) and still gives exactly exp(0) = I.
    basis, t = cached_algebra(n)
    elem = linearize_fn(t, basis, np.zeros(basis.dim))
    assert elem.scalar == 1.0
    np.testing.assert_array_equal(elem.vector, np.zeros(basis.dim))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
def test_linearize_exp_matches_scipy(n):
    """f0 I + fvec . L reproduces the dense matrix exponential."""
    basis, t = cached_algebra(n)
    for coords in seeded_samples(basis, 400 + n, 10):
        elem = linearize_fn(t, basis, coords)
        recon = to_matrix(basis, elem)
        assert np.max(np.abs(recon - dense_exp(basis, coords))) < 1e-9
        elem = linearize_fn(t, basis, coords).conj()
        recon = to_matrix(basis, elem)
        assert np.max(np.abs(recon - dense_exp(basis, coords).conj().T)) < 1e-9


def agrees_with_oracles(basis, t, m, nvec):
    """linearize_fn, compose and similarity answer, within 1e-9 max(1, |m|)
    of their dense oracles (for similarity, max(1, |n|): n' is linear in n)."""
    scale = max(1.0, float(np.linalg.norm(m)))
    elem = linearize_fn(t, basis, m)
    assert np.max(np.abs(to_matrix(basis, elem) - dense_exp(basis, m))) <= 1e-9 * scale
    r = compose(t, basis, m, nvec)
    assert np.max(np.abs(r - compose_direct(basis, m, nvec))) <= 1e-9 * scale
    nprime = similarity(t, basis, m, nvec)
    want = similarity_direct(basis, m, nvec)
    assert np.max(np.abs(nprime - want)) <= 1e-9 * max(1.0, float(np.linalg.norm(nvec)))


@pytest.mark.parametrize("n, spread", [(4, 100.0), (6, 10.0), (8, 3.0)])
def test_wide_spectra_answer_and_agree(n, spread):
    """Coordinates uniform in +-spread give spectral radii of 9 to 230, where
    every Newton step's rounding grows with |P_k| |m|: every draw answers."""
    basis, t = cached_algebra(n)
    rng = np.random.default_rng(100 + n)
    for _ in range(5):
        agrees_with_oracles(basis, t, *rng.uniform(-spread, spread, (2, t.dim)))


def test_n8_answers_along_a_direction_up_to_1e3():
    """One seeded unit direction at N = 8, from |m| = 1 to 1e3, composed
    with and conjugating an n of norm 0.3."""
    basis, t = cached_algebra(8)
    rng = np.random.default_rng(7)
    direction = rng.standard_normal(t.dim)
    nvec = rng.standard_normal(t.dim)
    nvec *= 0.3 / np.linalg.norm(nvec)
    for size in (1.0, 10.0, 100.0, 1e3):
        agrees_with_oracles(basis, t, size / np.linalg.norm(direction) * direction, nvec)


@pytest.mark.parametrize("n", [2, 3])
def test_norm_identity_refuses_phase_drift(n):
    """At |m| = 1e12 each eigenphase carries about 1e-4 of rounding, so the
    form is off unitary by about that much: linearize_fn itself refuses it,
    where N = 2 and 3 once answered silently."""
    basis, t = cached_algebra(n)
    direction = np.random.default_rng(7).standard_normal(t.dim)
    m = 1e12 / np.linalg.norm(direction) * direction
    with pytest.raises(ConstraintViolationError, match=r"\|m\| = 1\.000e\+12 .*norm identity") as info:
        linearize_fn(t, basis, m)
    assert info.traceback[-1].name == "linearize_fn"


@pytest.mark.parametrize("n", range(2, 9))
@pytest.mark.parametrize("scale", [1e150, 1e200])
def test_huge_exponent_never_linearizes_to_nan(n, scale):
    """Past the float range of the Newton form, linearize_fn refuses rather
    than return NaN or non-unitary coordinates, with the one message of
    its norm identity at every N.  power_table returns no NaN either."""
    basis, t = cached_algebra(n)
    m = np.zeros(t.dim)
    m[0] = scale
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ConstraintViolationError, match=re.escape(f"|m| = {scale:.3e} is not unitary")):
            linearize_fn(t, basis, m)
        try:
            table = power_table(t, m, n)
        except ConstraintViolationError as exc:
            assert f"|m| = {scale:.3e}" in str(exc)
        else:
            assert not any(np.isnan(p.scalar) or np.isnan(p.vector).any() for p in table)


@pytest.mark.parametrize("n", range(2, 9))
def test_power_table_refuses_overflow(n):
    """m = 1e200 e1 overflows its square at every N: the same refusal,
    naming |m|, and never an inf power."""
    _, t = cached_algebra(n)
    m = np.zeros(t.dim)
    m[0] = 1e200
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ConstraintViolationError, match=r"\|m\| = 1\.000e\+200 is not finite"):
            power_table(t, m, n)


@pytest.mark.parametrize("n", [2, 3, 8])
def test_finite_exponent_with_overflowing_spread_is_refused_by_norm(n):
    """m = 1e308 (e1 + e2) has finite eigenvalues whose difference
    overflows; exp's divided differences take them, and the norm identity
    refuses the result, naming |m|."""
    basis, t = cached_algebra(n)
    m = np.zeros(t.dim)
    m[:2] = 1e308
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ConstraintViolationError, match=r"\|m\| = 1\.414e\+308 is not unitary"):
            linearize_fn(t, basis, m)


def test_exp_matrix_matches_scipy(algebra3):
    basis, _ = algebra3
    for coords in seeded_samples(basis, 19, 10):
        assert np.max(np.abs(exp_matrix(basis, coords) - dense_exp(basis, coords))) < 1e-10


def test_f0_trace_zero(algebra3):
    basis, _ = algebra3
    assert f0_trace(basis, np.zeros(8), exp_minus_i) == 1.0


def test_f0_trace_agrees_with_linearize(algebra3):
    basis, t = algebra3
    for coords in seeded_samples(basis, 23, 10):
        elem = linearize_fn(t, basis, coords)
        assert abs(elem.scalar - f0_trace(basis, coords, exp_minus_i)) < 1e-12


def test_log_coords_identity(algebra3):
    basis, _ = algebra3
    np.testing.assert_array_equal(log_coords(basis, np.eye(3)), np.zeros(8))


def test_delinearize_identity_element(algebra3):
    basis, t = algebra3
    g = LinearElement(1.0, np.zeros(8, dtype=complex))
    np.testing.assert_allclose(delinearize_exp(t, basis, g), np.zeros(8), atol=1e-12)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_round_trip_inside_principal_region(n):
    basis, t = cached_algebra(n)
    for coords in seeded_samples(basis, 500 + n, 20):
        elem = linearize_fn(t, basis, coords)
        np.testing.assert_allclose(delinearize_exp(t, basis, elem), coords, atol=1e-9)


def test_log_coords_scipy_cross_check(algebra2):
    # against scipy logm on a generic SU(2) element
    import scipy.linalg

    basis, _ = algebra2
    coords = np.array([0.3, -0.7, 0.2])
    u = dense_exp(basis, coords)
    got = log_coords(basis, u)
    ref = scipy.linalg.logm(u)
    np.testing.assert_allclose(algebra_matrix(basis, got), 1j * ref, atol=1e-10)
    np.testing.assert_allclose(got, coords, atol=1e-10)


def test_branch_cut_refused(algebra2):
    # eigenphases at exactly +-pi sit on the cut, and 4e-10 away within BRANCH_GAP
    basis, _ = algebra2
    near = np.pi - 4e-10
    for u, distance in [
        (np.diag([-1.0, -1.0]).astype(complex), r"0\.000e\+00"),
        (np.diag(np.exp([1j * near, -1j * near])), r"4\.000e-10"),
    ]:
        with pytest.raises(BranchCutError, match=rf"lies {distance} from the branch cut"):
            log_coords(basis, u)


def test_branch_cut_refused_with_every_axis_pole_an_eigenvalue():
    """An SU(5) u with spectrum {-1, -1, i, -i, 1}, conjugated by a random
    unitary: each of -1, 1, i and -i is an eigenvalue, and det u = 1.  The
    Cayley pole of ``eig_unitary`` comes from 4N = 20 candidates, more
    than N, so it stays off the spectrum, and the phases on the cut are
    refused as BranchCutError rather than misread as det u != 1."""
    basis, _ = cached_algebra(5)
    rng = np.random.default_rng(5)
    q, _ = np.linalg.qr(rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)))
    u = q @ np.diag([-1.0, -1.0, 1j, -1j, 1.0]) @ q.conj().T
    with pytest.raises(BranchCutError, match="from the branch cut"):
        log_coords(basis, u)


def test_shift_boundary_in_phase_tie_refused(algebra3):
    # s = +1 takes 2 pi off the largest phase, but the two largest differ
    # by 5e-10, below BRANCH_GAP: which one goes is not determined.
    basis, _ = algebra3
    theta = np.array([0.9 * np.pi + 2.5e-10, 0.9 * np.pi - 2.5e-10, 0.2 * np.pi])
    with pytest.raises(DegenerateSpectrumError, match=r"tie: its gap 5\.000e-10"):
        log_coords(basis, np.diag(np.exp(1j * theta)))


def test_det_correction_balances_phases(algebra3):
    """Principal phases summing to 2 pi get one phase shifted down a sheet."""
    basis, _ = algebra3
    theta = np.array([2.9, 2.2, 2.0 * np.pi - 5.1])
    u = np.diag(np.exp(1j * theta))
    coords = log_coords(basis, u)
    np.testing.assert_allclose(exp_matrix(basis, coords), u, atol=1e-10)
    # the largest phase went to 2.9 - 2 pi, outside the principal band
    vals = eig_hermitian(algebra_matrix(basis, coords)).eigenvalues
    assert np.max(np.abs(vals)) > np.pi


@pytest.mark.parametrize(
    "theta, shifted",
    [
        # s = -1: the smallest phase goes up a sheet.
        ([-2.5, -2.2, 4.7 - 2.0 * np.pi], [0]),
        # s = +2: the two largest phases go down a sheet, ties by index.
        ([2.9, 2.6, 2.8, 2.7, 4.0 * np.pi - 11.0], [0, 2]),
        # s = -2: the mirror image, the two smallest go up.
        ([-2.9, -2.6, -2.8, -2.7, 11.0 - 4.0 * np.pi], [0, 2]),
    ],
)
def test_det_correction_both_signs(theta, shifted):
    """log_coords shifts sign(s) 2 pi off the |s| phases largest in sign(s) theta."""
    theta = np.array(theta)
    n = theta.size
    basis, _ = cached_algebra(n)
    rng = np.random.default_rng(n)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    u = q @ np.diag(np.exp(1j * theta)) @ q.conj().T
    coords = log_coords(basis, u)
    np.testing.assert_allclose(exp_matrix(basis, coords), u, atol=1e-10)
    sign = np.sign(theta.sum())
    expected = theta.copy()
    expected[shifted] -= sign * 2.0 * np.pi
    assert abs(expected.sum()) < 1e-12
    vals = eig_hermitian(algebra_matrix(basis, coords)).eigenvalues
    np.testing.assert_allclose(vals, np.sort(-expected), atol=1e-10)


@pytest.mark.parametrize("n", [2, 3, 8])
def test_det_not_one_refused(n):
    """A unitary with det u = exp(0.1 i N) has no coordinates; both entries refuse it."""
    basis, t = cached_algebra(n)
    (coords,) = seeded_samples(basis, 40 + n, 1)
    u = np.exp(0.1j) * exp_matrix(basis, coords)
    # One guard, one message: the phase 0.1 N against UNITARY_TOL.
    message = rf"det u is not 1: its phase is {0.1 * n:.3e}, limit 1e-08"
    with pytest.raises(ValueError, match=message):
        log_coords(basis, u)
    g = LinearElement(np.exp(0.1j), np.zeros(basis.dim, dtype=complex))
    with pytest.raises(ValueError, match=message):
        delinearize_exp(t, basis, g)


def test_delinearize_rejects_nonunitary(algebra2):
    basis, t = algebra2
    g = LinearElement(0.5, np.zeros(3, dtype=complex))
    with pytest.raises(ValueError, match="unitary"):
        delinearize_exp(t, basis, g)


def mpmath_exp_coords(n, m):
    """(f0, f) of exp(-i m . L) from mpmath's ``expm`` at 40 digits, rounded
    once to double.  M and the coordinates Tr(E L_k) / 2 are formed in mpmath
    from the generators' exact entries, so m is the only rounded input."""
    mpmath = pytest.importorskip("mpmath")
    pairs = [(j, k) for j in range(n) for k in range(j + 1, n)]
    with mpmath.workdps(40):
        x = [mpmath.mpf(float(c)) for c in m]
        diagonal = [mpmath.sqrt(mpmath.mpf(2) / (l * (l + 1))) for l in range(1, n)]
        big = mpmath.matrix(n, n)
        for (j, k), a, b in zip(pairs, x, x[len(pairs):]):
            big[j, k] += a - 1j * b
            big[k, j] += a + 1j * b
        for l, (c, w) in enumerate(zip(x[2 * len(pairs):], diagonal), 1):
            for a in range(l):
                big[a, a] += c * w
            big[l, l] -= l * c * w
        e = mpmath.expm(-1j * big)
        f0 = sum(e[a, a] for a in range(n)) / n
        f = [(e[k, j] + e[j, k]) / 2 for j, k in pairs]
        f += [1j * (e[j, k] - e[k, j]) / 2 for j, k in pairs]
        f += [(sum(e[a, a] for a in range(l)) - l * e[l, l]) * w / 2 for l, w in enumerate(diagonal, 1)]
        return complex(f0), np.array([complex(c) for c in f])


def coordinate_error(elem, exact):
    """Largest coordinate error of a (scalar, vector) pair against ``exact``."""
    f0, f = exact
    return max(abs(elem[0] - f0), float(np.max(np.abs(elem[1] - f))))


# Exponents with repeated eigenvalues, (generator index, size) per N:
# 1.3 L8 at N = 3 (a double eigenvalue), 0.5 L1 at N = 4 (a double
# eigenvalue 0) and 2 L1 at N = 8 (six eigenvalues 0).
SPECIAL_EXPONENTS = {3: (7, 1.3), 4: (0, 0.5), 8: (0, 2.0)}


@pytest.mark.parametrize("n", range(2, 9))
def test_exp_routes_against_40_digits(monkeypatch, n):
    """linearize_fn against mpmath's 40-digit expm.

    On both sides of the reach: a sampler direction scaled so that
    beta = (Tr M**8)**(1/8) is 0.99 pi takes the series (the Newton form
    made to raise), and one at 1.01 pi the Newton form (the series made to
    raise); both agree within 1e-14.  Then sampler draws, Haar-rotated
    clusters of 2, 3 or N - 1 eigenvalues in [-1, 1] split by 1e-3 down to
    1e-12, the zero element and the double eigenvalues of
    SPECIAL_EXPONENTS, and a draw at scale 1e-300: each within 1e-14, and
    the worst error within twice that of the Newton form over the same
    exponents.  At 1e-300, exp(-iM) = I - iM to every digit, so f = -i m
    holds relative to |m| as well."""
    basis, t = cached_algebra(n)
    rng = np.random.default_rng(700 + n)

    def refuse(*args):
        raise AssertionError("the other route was taken")

    for share, other in ((0.99, "_exp_newton"), (1.01, "_exp_series")):
        m = random_coords(basis, rng)
        m *= share * np.pi / np.sum(np.linalg.eigvalsh(algebra_matrix(basis, m)) ** 8) ** 0.125
        with monkeypatch.context() as patch:
            patch.setattr(linearize, other, refuse)
            error = coordinate_error(linearize_fn(t, basis, m), mpmath_exp_coords(n, m))
        print(f"N = {n}: beta = {share} pi, error {error:.1e}")
        assert error <= 1e-14

    exponents = [random_coords(basis, rng) for _ in range(4)]
    for size in sorted({2, 3, n - 1} & set(range(2, n))):
        for split in (1e-3, 1e-6, 1e-9, 1e-12):
            values = rng.uniform(-1.0, 1.0, n)
            values[:size] = values[0] + split * np.arange(size)
            exponents.append(rotated(basis, values - values.mean(), rng))
    exponents.append(np.zeros(t.dim))
    if n in SPECIAL_EXPONENTS:
        k, size = SPECIAL_EXPONENTS[n]
        exponents.append(size * np.eye(t.dim)[k])
    tiny = 1e-300 * random_coords(basis, rng)
    exponents.append(tiny)
    worst = {"linearize_fn": 0.0, "newton": 0.0}
    for m in exponents:
        exact = mpmath_exp_coords(n, m)
        newton = linearize._exp_newton(t, basis, m, linearize._step_matrix(t, m))
        for name, got in (("linearize_fn", linearize_fn(t, basis, m)), ("newton", (newton[0], newton[1:]))):
            worst[name] = max(worst[name], coordinate_error(got, exact))
    print(f"N = {n}: {len(exponents)} exponents, worst " + ", ".join(f"{k} {v:.1e}" for k, v in worst.items()))
    assert worst["linearize_fn"] <= 1e-14
    assert worst["linearize_fn"] <= 2.0 * worst["newton"]
    elem = linearize_fn(t, basis, tiny)
    assert elem.scalar == 1.0
    assert np.max(np.abs(elem.vector + 1j * tiny)) <= 1e-15 * np.max(np.abs(tiny))


@pytest.mark.parametrize("n", [2, 3, 4, 8])
def test_inside_reach_solves_no_eigenproblem(monkeypatch, n):
    """Near the identity neither linearization nor logarithm computes an
    eigenvalue: on pairs at operand scales 10**U(-6, -1), with LAPACK's
    Hermitian drivers, its nonsymmetric ``eigvals``,
    ``linearize._eigenvalues`` and ``linearize.exp_divided_differences``
    made to raise, ``compose`` and ``similarity`` still return what they
    returned before, bit for bit."""
    basis, t = cached_algebra(n)
    rng = np.random.default_rng(960 + n)
    pairs = [
        tuple(random_coords(basis, rng) * 10.0 ** rng.uniform(-6.0, -1.0) for _ in range(2))
        for _ in range(12)
    ]
    want = [(compose(t, basis, m, v), similarity(t, basis, m, v)) for m, v in pairs]

    def refuse(*args, **kwargs):
        raise AssertionError("an eigenproblem was solved inside the reach")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    monkeypatch.setattr(np.linalg, "eigvals", refuse)
    monkeypatch.setattr(linearize, "_eigenvalues", refuse)
    monkeypatch.setattr(linearize, "exp_divided_differences", refuse)
    for (m, v), (r, nprime) in zip(pairs, want):
        np.testing.assert_array_equal(compose(t, basis, m, v), r)
        np.testing.assert_array_equal(similarity(t, basis, m, v), nprime)


@pytest.mark.parametrize("n", range(2, 9))
def test_step_matrix_is_the_product_matrices_form(n):
    """``_step_matrix``, one bincount over ``step_rule``, is byte for byte
    [[0, (2/N) m'], [m, D(m)]] with D(m) from ``product_matrices``, on
    sampler draws, a tiny one and the zero element; and with a shift s it is
    byte for byte that matrix plus s I, the form ``_arcsin_series`` reads."""
    basis, t = cached_algebra(n)
    rng = np.random.default_rng(980 + n)
    draws = [random_coords(basis, rng) for _ in range(6)] + [1e-200 * random_coords(basis, rng)]
    for m in draws + [np.zeros(t.dim)]:
        want = np.zeros((t.dim + 1, t.dim + 1))
        want[0, 1:], want[1:, 0], want[1:, 1:] = (2.0 / n) * m, m, product_matrices(t, m)[0]
        assert linearize._step_matrix(t, m).tobytes() == want.tobytes()
        for s in (rng.uniform(-0.3, 0.3), 1e-9):
            shifted = want + s * np.eye(t.dim + 1)
            assert linearize._step_matrix(t, m, s).tobytes() == shifted.tobytes()


@pytest.mark.parametrize("n", [2, 3, 4, 8])
def test_series_read_no_product_matrices(monkeypatch, n):
    """The series and their step matrices never build F(m): with
    ``product_matrices`` made to raise wherever the package binds it,
    ``compose`` and ``similarity`` return what they returned before, bit
    for bit, on sampler pairs whose exponents both lie inside the reach
    and on pairs at operand scales 10**U(-6, -1)."""
    basis, t = cached_algebra(n)
    rng = np.random.default_rng(990 + n)

    def inside_reach(m):
        return np.sum(np.linalg.eigvalsh(algebra_matrix(basis, m)) ** 8) ** 0.125 <= np.pi

    pairs = []
    while len(pairs) < 8:
        m, v = random_coords(basis, rng), random_coords(basis, rng)
        if inside_reach(m) and inside_reach(v):
            pairs.append((m, v))
    pairs += [
        tuple(random_coords(basis, rng) * 10.0 ** rng.uniform(-6.0, -1.0) for _ in range(2))
        for _ in range(8)
    ]
    want = [(compose(t, basis, m, v), similarity(t, basis, m, v)) for m, v in pairs]

    def refuse(*args, **kwargs):
        raise AssertionError("product_matrices was called")

    for name, module in list(sys.modules.items()):
        if (name == "sunbch" or name.startswith("sunbch.")) and hasattr(module, "product_matrices"):
            monkeypatch.setattr(module, "product_matrices", refuse)
    for (m, v), (r, nprime) in zip(pairs, want):
        np.testing.assert_array_equal(compose(t, basis, m, v), r)
        np.testing.assert_array_equal(similarity(t, basis, m, v), nprime)
