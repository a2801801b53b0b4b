import re

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
    similarity,
    similarity_direct,
    to_matrix,
)
from sunbch.algebra import algebra_matrix
from sunbch.errors import BranchCutError, ConstraintViolationError, DegenerateSpectrumError
from sunbch.linearize import exp_minus_i

from conftest import dense_exp, seeded_samples


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
