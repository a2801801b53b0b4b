import math
import re

import numpy as np
import pytest
import scipy.linalg

from sunbch import (
    algebra_matrix,
    apply_spectral,
    cached_algebra,
    char_poly,
    eig_hermitian,
    eig_unitary,
    expansion_coeffs,
    expansion_coeffs_derivative,
    lagrange_projectors,
    spectral,
)
from sunbch.errors import ConstraintViolationError, ConvergenceError, DegenerateSpectrumError
from sunbch.linearize import exp_minus_i
from sunbch.spectral import _eigvalsh, _taylor_rows, exp_divided_differences

from conftest import dense_exp, seeded_samples

SIGMA3 = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def random_hermitian(rng, n):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (a + a.conj().T) / 2.0


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
def test_eig_hermitian_reconstruction(n):
    rng = np.random.default_rng(100 + n)
    for _ in range(25):
        m = random_hermitian(rng, n)
        spec = eig_hermitian(m)
        v = spec.eigenvectors
        recon = (v * spec.eigenvalues) @ v.conj().T
        assert np.max(np.abs(recon - m)) < 1e-11
        assert np.max(np.abs(v.conj().T @ v - np.eye(n))) < 1e-12
        np.testing.assert_allclose(
            spec.eigenvalues, np.linalg.eigvalsh(m), atol=1e-11
        )


def test_eig_hermitian_sorted_and_real():
    spec = eig_hermitian(SIGMA3)
    assert spec.eigenvalues.dtype == np.float64
    np.testing.assert_allclose(spec.eigenvalues, [-1.0, 1.0], atol=1e-15)


def test_eig_hermitian_large_scale_converges():
    # Off-norm bookkeeping must not lose precision against a large diagonal.
    rng = np.random.default_rng(5)
    m = 1e6 * random_hermitian(rng, 5)
    spec = eig_hermitian(m)
    v = spec.eigenvectors
    recon = (v * spec.eigenvalues) @ v.conj().T
    assert np.max(np.abs(recon - m)) < 1e-5


def test_eig_hermitian_rejects_nonhermitian():
    # The message carries the measured defect max |m - m'| = 1.
    with pytest.raises(ValueError, match=r"Hermitian within 1e-10: m - m' reached 1\.000e\+00"):
        eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_eig_hermitian_rejects_nonfinite(bad):
    with pytest.raises(ValueError, match="finite"):
        eig_hermitian(np.array([[bad, 1.0], [1.0, 0.0]]))


def test_eig_hermitian_rejects_nan_coordinate_n8():
    # Refused up front, not after spending the whole sweep budget.
    basis, _ = cached_algebra(8)
    coords = np.zeros(basis.dim)
    coords[5] = np.nan
    with pytest.raises(ValueError, match="finite"):
        eig_hermitian(algebra_matrix(basis, coords))


def assert_eigh_consistent(m, spec, atol):
    """Eigenvalues against LAPACK, eigenvectors by reconstruction."""
    n = m.shape[0]
    v = spec.eigenvectors
    np.testing.assert_allclose(spec.eigenvalues, np.linalg.eigvalsh(m), atol=atol)
    assert np.max(np.abs((v * spec.eigenvalues) @ v.conj().T - m)) < atol
    assert np.max(np.abs(v.conj().T @ v - np.eye(n))) < 1e-12


@pytest.mark.parametrize("n", [1, 2, 5, 8])
def test_eig_hermitian_zero_matrix(n):
    spec = eig_hermitian(np.zeros((n, n)))
    assert np.array_equal(spec.eigenvalues, np.zeros(n))
    # No rotation is applied, so the eigenvector basis is exactly I.
    assert np.array_equal(spec.eigenvectors, np.eye(n))


def test_eig_hermitian_diagonal_returned_bitwise():
    entries = np.array([0.75, -1.5, 0.75, 1.0 / 3.0, -1.5, 0.0, 0.75])
    spec = eig_hermitian(np.diag(entries))
    order = np.argsort(entries, kind="stable")
    assert spec.eigenvalues.tobytes() == entries[order].tobytes()
    assert np.array_equal(spec.eigenvectors, np.eye(entries.size)[:, order])


def test_eig_hermitian_lambda8_double_eigenvalue():
    basis, _ = cached_algebra(3)
    e8 = np.zeros(8)
    e8[7] = 1.0
    lam8 = algebra_matrix(basis, e8)
    expected = np.array([-2.0, 1.0, 1.0]) / np.sqrt(3.0)
    np.testing.assert_allclose(eig_hermitian(lam8).eigenvalues, expected, atol=1e-15)
    # The same spectrum in a rotated basis, where the double eigenvalue has
    # to be found by rotations rather than read off the diagonal.
    rng = np.random.default_rng(61)
    u = scipy.linalg.expm(-1j * random_hermitian(rng, 3))
    rotated = u @ lam8 @ u.conj().T
    rotated = (rotated + rotated.conj().T) / 2.0
    spec = eig_hermitian(rotated)
    np.testing.assert_allclose(spec.eigenvalues, expected, atol=1e-14)
    assert_eigh_consistent(rotated, spec, atol=1e-14)


def test_eig_hermitian_small_scale_relative_tolerance():
    # The splitting test is relative (a roundoff of the neighbouring
    # diagonal entries, or of ||m||_F), so a matrix of norm ~1e-8 is
    # diagonalized to the same relative accuracy as one of unit norm.
    rng = np.random.default_rng(67)
    m = 1e-8 * random_hermitian(rng, 8)
    spec = eig_hermitian(m)
    reference = np.linalg.eigvalsh(m)
    scale = np.max(np.abs(reference))
    assert np.max(np.abs(spec.eigenvalues - reference)) < 1e-12 * scale
    v = spec.eigenvectors
    recon = (v * spec.eigenvalues) @ v.conj().T
    assert np.max(np.abs(recon - m)) < 1e-13 * np.linalg.norm(m)
    assert np.max(np.abs(v.conj().T @ v - np.eye(8))) < 1e-12


def values_only_inputs():
    """Random Hermitian matrices for N = 1..8, zero matrices, lambda_8
    plain and rotated, a diagonal with ties, a complex tridiagonal matrix
    that splits at a zero subdiagonal, and a real tridiagonal one that
    needs no reflector."""
    rng = np.random.default_rng(83)
    cases = [random_hermitian(rng, n) for n in range(1, 9)]
    cases += [1e-7 * random_hermitian(rng, n) for n in (3, 8)]
    cases += [np.zeros((n, n)) for n in (1, 2, 5, 8)]
    basis, _ = cached_algebra(3)
    e8 = np.zeros(8)
    e8[7] = 1.0
    lam8 = algebra_matrix(basis, e8)
    u = scipy.linalg.expm(-1j * random_hermitian(rng, 3))
    rotated = u @ lam8 @ u.conj().T
    cases += [lam8, (rotated + rotated.conj().T) / 2.0]
    cases.append(np.diag([0.75, -1.5, 0.75, 1.0 / 3.0, -1.5, 0.0, 0.75]))
    sub = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    sub[2] = 0.0
    split = np.diag(rng.standard_normal(6)).astype(complex) + np.diag(sub, -1)
    cases.append(split + np.tril(split, -1).conj().T)
    real_sub = rng.standard_normal(4)
    tridiagonal = np.diag(real_sub, -1) + np.diag(real_sub, 1)
    cases.append(np.diag(rng.standard_normal(5)) + tridiagonal)
    return cases


@pytest.mark.parametrize("index", range(len(values_only_inputs())))
def test_eigvals_hermitian_bitwise_equal(index):
    """The eigenvalues-only kernel ``_eigvalsh`` is LAPACK's eigvalsh, bit
    for bit, and agrees with eig_hermitian's eigh to rounding."""
    m = np.asarray(values_only_inputs()[index], dtype=complex)
    got = _eigvalsh(m)
    assert got.dtype == np.float64
    assert got.tobytes() == np.linalg.eigvalsh(m).tobytes()
    radius = np.max(np.abs(got), initial=0.0)
    assert np.max(np.abs(got - eig_hermitian(m).eigenvalues)) <= 1e-14 * radius


@pytest.mark.parametrize("scale", [1e-200, 1e160])
def test_eig_hermitian_extreme_scales(scale):
    # Unscaled, the reflectors' squared norms underflow (1e-200: eigenvalues
    # off by order one) or overflow (1e160: a nan off-diagonal).
    rng = np.random.default_rng(89)
    m = scale * random_hermitian(rng, 5)
    reference = np.linalg.eigvalsh(m)
    radius = np.max(np.abs(reference))
    for got in (_eigvalsh(m), eig_hermitian(m).eigenvalues):
        assert np.max(np.abs(got - reference)) < 1e-13 * radius
    v = eig_hermitian(m).eigenvectors
    assert np.max(np.abs(v.conj().T @ v - np.eye(5))) < 1e-12


def test_eig_hermitian_scaling_is_bitwise():
    # Normal-range input goes to LAPACK as given.  At extreme scales it
    # goes there as the input times a power of two, which is exact, so the
    # eigenvalues come out as the normal-range ones times that power and
    # the eigenvectors unchanged, bit for bit.
    basis, _ = cached_algebra(4)
    cases = values_only_inputs() + [
        s * algebra_matrix(basis, coords)
        for s in (1e-8, 1e-3, 1.0, 1e3)
        for coords in seeded_samples(basis, 89, 5)
    ]
    for m in cases:
        m = np.asarray(m, dtype=complex)
        vals, vecs = np.linalg.eigh(m)
        spec = eig_hermitian(m)
        assert spec.eigenvalues.tobytes() == vals.tobytes()
        assert spec.eigenvectors.tobytes() == vecs.tobytes()
        for k in (-700, 600):
            scaled = np.empty_like(m)
            scaled.real, scaled.imag = np.ldexp(m.real, k), np.ldexp(m.imag, k)
            far = eig_hermitian(scaled)
            assert far.eigenvalues.tobytes() == np.ldexp(spec.eigenvalues, k).tobytes()
            assert far.eigenvectors.tobytes() == spec.eigenvectors.tobytes()
            assert _eigvalsh(scaled).tobytes() == np.ldexp(_eigvalsh(m), k).tobytes()


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
def test_eigvals_hermitian_matches_lapack_on_sampler_draws(n):
    basis, _ = cached_algebra(n)
    for coords in seeded_samples(basis, 97 + n, 20):
        m = algebra_matrix(basis, coords)
        reference = np.linalg.eigvalsh(m)
        radius = np.max(np.abs(reference))
        assert np.max(np.abs(_eigvalsh(m) - reference)) < 1e-14 * radius


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
def test_eigvals_hermitian_matches_mpmath(n):
    """The draws of the LAPACK comparison above against a reference outside
    LAPACK: 30-digit ``mpmath.eighe``."""
    mpmath = pytest.importorskip("mpmath")
    basis, _ = cached_algebra(n)
    for coords in seeded_samples(basis, 97 + n, 20):
        m = algebra_matrix(basis, coords)
        with mpmath.workdps(30):
            exact = mpmath.eighe(mpmath.matrix(m.tolist()), eigvals_only=True)
            reference = np.sort([float(x) for x in exact])
        radius = np.max(np.abs(reference))
        assert np.max(np.abs(_eigvalsh(m) - reference)) < 1e-14 * radius


def test_eigvals_hermitian_rejects_nonfinite():
    # The values-only kernel has no Hermitian test, but keeps its own
    # finiteness refusal, as eig_hermitian's guard does.
    for bad in (np.nan, np.inf):
        m = np.array([[bad, 1.0], [1.0, 0.0]], dtype=complex)
        for entry in (eig_hermitian, _eigvalsh):
            with pytest.raises(ValueError, match="finite"):
                entry(m)


@pytest.mark.parametrize("n", [2, 4, 8])
def test_eig_hermitian_imaginary_offdiagonal(n):
    rng = np.random.default_rng(71 + n)
    skew = rng.standard_normal((n, n))
    m = np.diag(rng.standard_normal(n)) + 1j * (skew - skew.T)
    assert np.all(m[~np.eye(n, dtype=bool)].real == 0.0)
    assert_eigh_consistent(m, eig_hermitian(m), atol=1e-12)
    # Zero diagonal: the tridiagonal form and its shifts start from zeros.
    m0 = 1j * (skew - skew.T)
    assert_eigh_consistent(m0, eig_hermitian(m0), atol=1e-12)


def test_eig_hermitian_solver_failure_is_convergence_error(monkeypatch):
    # A LAPACK failure reaches the caller as the package's typed refusal,
    # with N and ||m||_F in its message, from both entries.
    d = np.array([0.5, -2.0, 1.25, 3.0])
    e = np.array([0.75, 0.5, 0.25])
    m = (np.diag(d) + np.diag(e, -1) + np.diag(e, 1)).astype(complex)

    def fail(_):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    with monkeypatch.context() as patch:
        patch.setattr(np.linalg, "eigh", fail)
        patch.setattr(np.linalg, "eigvalsh", fail)
        norm = f"||m||_F = {np.linalg.norm(m):.3e}"
        for entry in (eig_hermitian, _eigvalsh):
            with pytest.raises(ConvergenceError, match="N = 4") as info:
                entry(m)
            assert norm in str(info.value)
    # A diagonal input comes back sorted, bit for bit.
    assert np.array_equal(_eigvalsh(np.diag(d).astype(complex)), np.sort(d))


def test_eig_hermitian_deterministic():
    rng = np.random.default_rng(79)
    m = random_hermitian(rng, 8)
    first, second = eig_hermitian(m), eig_hermitian(m.copy())
    assert first.eigenvalues.tobytes() == second.eigenvalues.tobytes()
    assert first.eigenvectors.tobytes() == second.eigenvectors.tobytes()


def test_eig_unitary_identity():
    spec = eig_unitary(np.eye(4))
    np.testing.assert_allclose(spec.eigenvalues, np.ones(4), atol=1e-14)


def test_eig_unitary_matches_hermitian_phases():
    rng = np.random.default_rng(3)
    for _ in range(10):
        h = random_hermitian(rng, 3)
        u = scipy.linalg.expm(-1j * h)
        spec_h = eig_hermitian(h)
        spec_u = eig_unitary(u)
        expected = np.sort(np.angle(np.exp(-1j * spec_h.eigenvalues)))
        got = np.sort(np.angle(spec_u.eigenvalues))
        np.testing.assert_allclose(got, expected, atol=1e-10)
        assert np.max(np.abs(np.abs(spec_u.eigenvalues) - 1.0)) < 1e-12
        recon = (spec_u.eigenvectors * spec_u.eigenvalues) @ spec_u.eigenvectors.conj().T
        assert np.max(np.abs(recon - u)) < 1e-10


def test_eig_unitary_degenerate_block():
    # A repeated eigenvalue is legitimate here, unlike in the coefficient solvers.
    u = np.diag([1.0, 1.0, -1j]).astype(complex)
    spec = eig_unitary(u)
    recon = (spec.eigenvectors * spec.eigenvalues) @ spec.eigenvectors.conj().T
    np.testing.assert_allclose(recon, u, atol=1e-12)


def test_eig_unitary_every_axis_pole_an_eigenvalue():
    """Each of -1, 1, i and -i is an eigenvalue of diag(1, -1, i, -i)
    (det -1), so the Cayley pole must come from the other candidates;
    u is still rebuilt to rounding."""
    u = np.diag([1.0, -1.0, 1j, -1j])
    spec = eig_unitary(u)
    recon = (spec.eigenvectors * spec.eigenvalues) @ spec.eigenvectors.conj().T
    assert np.max(np.abs(recon - u)) <= 1e-14


@pytest.mark.parametrize("n", range(2, 9))
def test_eig_unitary_one_hermitian_eigenproblem(n, monkeypatch):
    """One ``np.linalg.eigh`` call per unitary, whatever its spectrum: a
    product of two sampler draws, and for N >= 3 exp(-0.7i L_4), whose
    eigenvalues exp(+-0.7i) share a cosine and whose eigenvalue 1 is
    repeated N - 2 times."""
    basis, _ = cached_algebra(n)
    m, nvec = seeded_samples(basis, 60 + n, 2)
    unitaries = [dense_exp(basis, m) @ dense_exp(basis, nvec)]
    if n >= 3:
        unitaries.append(dense_exp(basis, 0.7 * np.eye(basis.dim)[3]))
    real = np.linalg.eigh
    for u in unitaries:
        calls = []
        monkeypatch.setattr(np.linalg, "eigh", lambda h: calls.append(h) or real(h))
        spec = eig_unitary(u)
        assert len(calls) == 1
        recon = (spec.eigenvectors * spec.eigenvalues) @ spec.eigenvectors.conj().T
        assert np.max(np.abs(recon - u)) <= 1e-13


def test_eig_unitary_rejects_nonunitary():
    # The message carries the measured defect max |u'u - I| = 3.
    with pytest.raises(ValueError, match=r"unitary.*3\.000e\+00"):
        eig_unitary(2.0 * np.eye(3))


def test_min_gap_is_least_pairwise_distance():
    rng = np.random.default_rng(5)
    for n in range(2, 9):
        for _ in range(20):
            values = rng.standard_normal(n) * 10.0 ** rng.uniform(-8, 2)
            pairwise = min(abs(values[i] - values[j]) for i in range(n) for j in range(i))
            assert spectral._min_gap(values) == pairwise
    assert spectral._min_gap(np.array([3.0, -1.0, 3.0])) == 0.0


def test_char_poly_sigma3():
    poly = char_poly(SIGMA3)
    np.testing.assert_allclose(poly, [-1.0, 0.0, 1.0], atol=1e-15)
    assert poly.shape == (3,) and poly.dtype == complex


def test_char_poly_roots_match_eigenvalues():
    basis, _ = cached_algebra(3)
    for coords in seeded_samples(basis, 17, 10):
        m = algebra_matrix(basis, coords)
        poly = char_poly(m)
        roots = np.sort(np.roots(poly[::-1]).real)
        np.testing.assert_allclose(
            roots, eig_hermitian(m).eigenvalues, atol=1e-9
        )
        # traceless input: the x^{N-1} coefficient vanishes
        assert abs(poly[2]) < 1e-13


def test_char_poly_determinant_constant():
    rng = np.random.default_rng(23)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    poly = char_poly(a)
    assert poly[4] == 1.0
    assert abs(poly[0] - np.linalg.det(a)) < 1e-10


def test_char_poly_size_cap():
    with pytest.raises(ValueError):
        char_poly(np.eye(9))


def test_cayley_hamilton():
    basis, _ = cached_algebra(4)
    for coords in seeded_samples(basis, 29, 5):
        m = algebra_matrix(basis, coords)
        coeff = char_poly(m)
        total = np.zeros_like(m)
        power = np.eye(4, dtype=complex)
        for a_k in coeff:
            total = total + a_k * power
            power = power @ m
        assert np.max(np.abs(total)) < 1e-12


def test_projectors_sigma3():
    spec = eig_hermitian(SIGMA3)
    p_minus, p_plus = lagrange_projectors(SIGMA3, spec)
    np.testing.assert_allclose(p_minus, np.diag([0.0, 1.0]), atol=1e-15)
    np.testing.assert_allclose(p_plus, np.diag([1.0, 0.0]), atol=1e-15)


def test_projector_identities():
    basis, _ = cached_algebra(3)
    for coords in seeded_samples(basis, 31, 10):
        m = algebra_matrix(basis, coords)
        spec = eig_hermitian(m)
        projectors = lagrange_projectors(m, spec)
        total = sum(projectors)
        assert np.max(np.abs(total - np.eye(3))) < 1e-10
        for j, p in enumerate(projectors):
            assert np.max(np.abs(p @ p - p)) < 1e-10
            for k in range(j):
                assert np.max(np.abs(p @ projectors[k])) < 1e-10


def test_apply_spectral_identity_fn():
    rng = np.random.default_rng(37)
    m = random_hermitian(rng, 4)
    spec = eig_hermitian(m)
    np.testing.assert_allclose(apply_spectral(spec, lambda x: x), m, atol=1e-11)


def test_apply_spectral_exp_is_unitary():
    rng = np.random.default_rng(41)
    for _ in range(10):
        m = random_hermitian(rng, 3)
        u = apply_spectral(eig_hermitian(m), exp_minus_i)
        assert np.max(np.abs(u.conj().T @ u - np.eye(3))) < 1e-10


def test_expansion_coeffs_sigma3():
    """exp(-i s3) = cos(1) I - i sin(1) s3."""
    spec = eig_hermitian(SIGMA3)
    coeffs = expansion_coeffs(spec)
    np.testing.assert_allclose(
        coeffs, [np.cos(1.0), -1j * np.sin(1.0)], atol=1e-14
    )


def test_expansion_residual_n4():
    basis, _ = cached_algebra(4)
    for coords in seeded_samples(basis, 47, 10):
        m = algebra_matrix(basis, coords)
        spec = eig_hermitian(m)
        coeffs = expansion_coeffs(spec)
        total = np.zeros((4, 4), dtype=complex)
        power = np.eye(4, dtype=complex)
        for c in coeffs:
            total = total + c * power
            power = power @ m
        assert np.max(np.abs(total - dense_exp(basis, coords))) < 1e-9


def degenerate_matrices():
    """Hermitian M = Q diag(l) Q' with Haar-random Q at N = 2..8 on spectra
    that leave a projector ambiguous: zero, a double and (N >= 3) a triple
    eigenvalue, and a pair split by 1e-12."""
    rng = np.random.default_rng(107)
    out = []
    for n in range(2, 9):
        base = np.linspace(-1.5, 1.5, n)
        spectra = [np.zeros(n), np.r_[base[0], base[:-1]], np.r_[base[0] + 1e-12, base[:-1]]]
        if n >= 3:
            spectra.append(np.r_[base[0], base[0], base[:-2]])
        for values in spectra:
            z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            q, r = np.linalg.qr(z)
            q = q * (np.diag(r) / np.abs(np.diag(r)))
            m = (q * values) @ q.conj().T
            out.append((m + m.conj().T) / 2.0)
    return out


def test_expansion_coeffs_degenerate_answered():
    """Both monomial routes answer a repeated or close eigenvalue: the
    Newton form is then the Hermite interpolant, exact on the spectrum."""
    for m in degenerate_matrices():
        spec = eig_hermitian(m)
        reference = scipy.linalg.expm(-1j * m)
        for coeffs in (expansion_coeffs(spec), expansion_coeffs_derivative(spec, char_poly(m))):
            total = sum(c * np.linalg.matrix_power(m, k) for k, c in enumerate(coeffs))
            assert np.max(np.abs(total - reference)) < 1e-14


def test_lagrange_projectors_degenerate_rejected():
    for m in degenerate_matrices():
        with pytest.raises(DegenerateSpectrumError, match="smallest eigenvalue gap"):
            lagrange_projectors(m, eig_hermitian(m))
    basis, _ = cached_algebra(3)
    e8 = np.zeros(8)
    e8[7] = 1.0
    m = algebra_matrix(basis, e8)
    with pytest.raises(DegenerateSpectrumError, match=r"gap 0\.000e\+00 .* radius 1\.155e\+00"):
        lagrange_projectors(m, eig_hermitian(m))
    # A split pair is refused too, its gap in the message.
    m = np.diag([1.0, 1.0 + 5e-10, -2.0 - 5e-10])
    with pytest.raises(DegenerateSpectrumError, match=r"gap 5\.000e-10 is not above 1e-09"):
        lagrange_projectors(m, eig_hermitian(m))


def test_derivative_route_sigma3():
    spec = eig_hermitian(SIGMA3)
    direct = expansion_coeffs(spec)
    derived = expansion_coeffs_derivative(spec, char_poly(SIGMA3))
    np.testing.assert_allclose(derived, direct, atol=1e-14)


def test_derivative_route_agreement_n3():
    basis, _ = cached_algebra(3)
    for coords in seeded_samples(basis, 53, 100):
        m = algebra_matrix(basis, coords)
        spec = eig_hermitian(m)
        direct = expansion_coeffs(spec)
        derived = expansion_coeffs_derivative(spec, char_poly(m))
        assert np.max(np.abs(direct - derived)) < 1e-8


def mp_monomial_coeffs(points, c):
    """Monomial coefficients of the interpolant of exp(c x) on ``points``,
    correct to 50 digits: the Vandermonde system is solved by mpmath at
    150 digits, which covers the at most 48 its condition costs here."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(150):
        xs = [mpmath.mpf(float(x)) for x in points]
        vander = mpmath.matrix([[x**k for k in range(len(xs))] for x in xs])
        fvals = mpmath.matrix([mpmath.expj(c.imag * x) for x in xs])
        return np.array([complex(z) for z in mpmath.lu_solve(vander, fvals)])


@pytest.mark.parametrize("fn, c", [("exp_minus_i", -1j), ("exp_plus_i", 1j)])
@pytest.mark.parametrize("n", [4, 8])
def test_expansion_coeffs_small_radius_against_mpmath(n, fn, c):
    """Both routes stay at rounding level on spectra of radius 1e-3..1e-6,
    where a Vandermonde solve in double precision loses up to 42 digits.
    The coefficients of exp(+ix) are the complex conjugates of those of
    exp(-ix) on real points."""
    part = np.conj if fn == "exp_plus_i" else np.asarray
    rng = np.random.default_rng(101 + n)
    weights = np.array([math.factorial(k) for k in range(n)])
    for radius in (1e-3, 1e-4, 1e-5, 1e-6):
        for _ in range(3):
            points = np.sort(rng.uniform(-radius, radius, n))
            spec = spectral.SpectralDecomposition(points, np.eye(n, dtype=complex))
            reference = mp_monomial_coeffs(points, c)
            direct = part(expansion_coeffs(spec))
            derived = part(expansion_coeffs_derivative(spec, char_poly(np.diag(points))))
            # Coefficient k is about 1/k! in size.
            assert np.max(np.abs(direct - reference) * weights) < 1e-14
            assert np.max(np.abs(derived - reference) * weights) < 1e-14


def test_derivative_route_degree_mismatch():
    spec = eig_hermitian(SIGMA3)
    with pytest.raises(ValueError):
        expansion_coeffs_derivative(spec, char_poly(np.eye(3)))


def bidiagonal(points):
    n = len(points)
    return np.diag(np.asarray(points, dtype=complex)) + np.eye(n, k=1)


def truncated_rows(points, coefficients):
    """Row i of sum_{k < len(coefficients) - i} a_k P**k from matrix powers."""
    p, n = bidiagonal(points), len(points)
    powers = [np.linalg.matrix_power(p, k) for k in range(len(coefficients))]
    terms = [np.abs(a) * np.abs(q) for a, q in zip(coefficients, powers)]
    ref = [sum(a * q[i] for a, q in zip(coefficients[: len(coefficients) - i], powers))
           for i in range(n)]
    size = [sum(t[i] for t in terms[: len(coefficients) - i]) for i in range(n)]
    return np.array(ref), np.array(size)


@pytest.mark.parametrize("n", range(1, 9))
def test_taylor_rows_match_matrix_powers(n):
    """Every row of the kernel against numpy matrix powers of the bidiagonal
    P, for real and complex coefficients on real points and for complex
    points; each entry within 1e-14 of its sum of term magnitudes."""
    rng = np.random.default_rng(23 + n)
    for _ in range(10):
        terms = int(rng.integers(n, n + 25))
        real = rng.standard_normal(terms) / [math.factorial(k) for k in range(terms)]
        cplx = real * np.exp(2j * np.pi * rng.uniform(size=terms))
        x = rng.uniform(-2.0, 2.0, n)
        z = x + 1j * rng.uniform(-2.0, 2.0, n)
        for points, coefficients in ((x, real), (x, cplx), (z, cplx)):
            got = np.array(_taylor_rows(points.tolist(), coefficients.tolist(), n))
            ref, size = truncated_rows(points, coefficients)
            assert np.all(np.abs(got - ref) <= 1e-14 * size)
        if n > 1:
            # Real points and coefficients give floats.
            assert all(type(v) is float for v in _taylor_rows(x.tolist(), real.tolist(), n)[1])


@pytest.mark.parametrize("c", [-1j, 1j])
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
def test_taylor_rows_rescaled_as_for_squaring(n, c):
    """With the points shifted to their midpoint and scaled by 2**-s, and
    coefficients c**k / k!, entry (i, j) of the rows times 2**(-s (j - i))
    is exp(c 2**-s (B - mid I)), the matrix that exp's squaring path
    squares s times."""
    rng = np.random.default_rng(37 + n)
    for spread, halvings in ((20.0, 3), (1e3, 9)):
        x = np.sort(rng.uniform(-spread, spread, n))
        mid = 0.5 * (x[0] + x[-1])
        scale = 0.5**halvings
        coefficients = [c**k / math.factorial(k) for k in range(n + 40)]
        rows = np.array(_taylor_rows(((x - mid) * scale).tolist(), coefficients, n))
        d = np.arange(n)
        got = rows * np.ldexp(1.0, halvings * np.minimum(d[:, None] - d, 0))
        ref = scipy.linalg.expm(c * scale * (bidiagonal(x) - mid * np.eye(n)))
        assert np.max(np.abs(got - ref)) < 1e-13


# The exp_divided_differences tests take c = -i as a parameter so that their
# references read as exp(c x).
@pytest.mark.parametrize("c", [-1j])
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
def test_exp_divided_differences_match_scipy(n, c):
    """The first row of exp(-iB) for the Opitz bidiagonal B, against expm.

    Scales past pi take the scaling-and-squaring path.  There the phase
    c x of a point carries about |x| roundoffs, in expm as here, so the
    bound grows with the scale.
    """
    rng = np.random.default_rng(89 + n)
    for scale in (1e-8, 1e-4, 1e-2, 1.0, 2.0 * np.pi, 20.0, 1e3):
        for _ in range(5):
            points = np.sort(rng.uniform(-scale, scale, n))
            got = exp_divided_differences(points)
            ref = scipy.linalg.expm(c * bidiagonal(points))[0]
            # Entry k is at most 1/k! in size, |f^(k)| being 1 on the reals.
            weights = [1.0 / math.factorial(k) for k in range(n)]
            assert np.max(np.abs(got - ref) / weights) < max(1e-13, 1e-15 * scale)


@pytest.mark.parametrize("c", [-1j])
def test_exp_divided_differences_two_wide_points(c):
    """f[a, b] = (f(a) - f(b)) / (a - b) for points about 2e3 apart."""
    for a, b in ((-1e3, 1e3), (-812.5, 1377.25), (3000.0, 0.0)):
        got = exp_divided_differences([a, b])
        assert got[0] == pytest.approx(np.exp(c * a), abs=1e-12)
        expected = (np.exp(c * a) - np.exp(c * b)) / (a - b)
        assert abs(got[1] - expected) < 1e-15


def test_exp_divided_differences_rejects_nonfinite():
    for points in ([0.0, np.inf], [np.nan, 1.0]):
        with pytest.raises(ValueError):
            exp_divided_differences(points)


def test_exp_divided_differences_takes_an_overflowing_spread():
    """Finite points whose difference overflows have a finite midpoint and
    half-spread, so they are not refused as non-finite; their phases carry
    far more rounding than PHASE_BUDGET allows, and they are refused for
    that, as are [-1e100, 1e100] (once NaN) and [-1e307, 1e307] (once
    [0, 0]).  Points of 4e8 lie inside the budget and are answered."""
    for peak in (1e100, 1e307, 1e308):
        with pytest.raises(ConstraintViolationError, match=re.escape(f"max |x| = {peak:.3e}:") + ".*PHASE_BUDGET"):
            exp_divided_differences([-peak, peak])
    assert abs(exp_divided_differences([-4e8, 4e8])[0] - np.exp(4e8j)) < 1e-6


@pytest.mark.parametrize("c", [-1j])
@pytest.mark.parametrize("n", [1, 2, 5, 8])
def test_exp_divided_differences_confluent(n, c):
    """f[x, ..., x] (k + 1 copies) = c**k exp(c x) / k!."""
    for x in (0.0, 0.3, -2.5):
        got = exp_divided_differences([x] * n)
        expected = [c**k * np.exp(c * x) / math.factorial(k) for k in range(n)]
        np.testing.assert_allclose(got, expected, rtol=1e-14, atol=0)


@pytest.mark.parametrize("c", [-1j])
def test_exp_divided_differences_two_points(c):
    """f[a, b] = (f(a) - f(b)) / (a - b) for well-separated points."""
    for a, b in ((-1.0, 0.5), (0.25, 2.0), (-3.0, 2.9)):
        got = exp_divided_differences([a, b])
        assert got[0] == pytest.approx(np.exp(c * a), abs=1e-15)
        expected = (np.exp(c * a) - np.exp(c * b)) / (a - b)
        assert got[1] == pytest.approx(expected, rel=1e-14)


def test_exp_divided_differences_unit_c_values_pinned():
    """On points symmetric about 0 (so exp(-i mid) = 1 exactly and every
    step is IEEE arithmetic on Python floats) the entries are pinned bit
    for bit: any change to the series' arithmetic shows here."""
    pinned = {
        (-0.75, -0.25, 0.125, 0.75): [
            ("0x1.769fec655211fp-1", "0x1.5cffc16bf8f0dp-1"),
            ("0x1.e5d5764a3360ap-2", "-0x1.bca80c305935fp-1"),
            ("-0x1.e2922a9e297ffp-2", "-0x1.219f7545bfe81p-3"),
            ("-0x1.4e1e44d0c0439p-8", "0x1.4b12971cbb4e2p-3"),
        ],
        (-2.5, -1.0, 0.5, 1.75, 2.5): [
            ("-0x1.9a2f7ef858b7dp-1", "0x1.326af0dcfcab1p-1"),
            ("0x1.c9e1554d1b6b1p-1", "0x1.4bc6403435b4dp-3"),
            ("-0x1.c901c796734b0p-3", "-0x1.63df82111b2bap-2"),
            ("-0x1.3f85613ec76b5p-5", "0x1.f6174afedafc2p-4"),
            ("0x1.f2899dc310830p-6", "-0x1.0cf394baa2d52p-7"),
        ],
    }
    for points, entries in pinned.items():
        expected = [complex(float.fromhex(re), float.fromhex(im)) for re, im in entries]
        got = exp_divided_differences(list(points))
        assert got.tobytes() == np.array(expected).tobytes()


@pytest.mark.parametrize("n", range(2, 9))
def test_cayley_front_powers_match_matrix_power(n):
    """The doubling table's rows, which ``eig_unitary``, the values-only
    logarithm and ``char_poly`` read, are u**0 .. u**(N-1) within rounding."""
    basis, _ = cached_algebra(n)
    for coords in seeded_samples(basis, 700 + n, 5):
        u = dense_exp(basis, coords)
        powers = spectral._power_rows(u)
        assert powers.shape == (n, n * n)
        for k in range(n):
            np.testing.assert_allclose(
                powers[k].reshape(n, n), np.linalg.matrix_power(u, k), rtol=0, atol=1e-14 * (k + 1)
            )
