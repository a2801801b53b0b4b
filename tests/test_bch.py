import re
import warnings

import numpy as np
import pytest

from sunbch import (
    build_adjoint_kernel,
    cached_algebra,
    compose,
    compose_direct,
    compose_linear,
    cross,
    exp_matrix,
    f0_trace,
    linearize_fn,
    random_coords,
    similarity,
    similarity_direct,
    su2_compose_closed_form,
)
from sunbch import algebra, linearize
from sunbch.errors import ConstraintViolationError

from conftest import dense_conjugate, dense_exp, seeded_samples, trace_tensors

HALF_PI = np.pi / 2.0


def xyz(x, y, z):
    return np.array([x, y, z], dtype=float)


def test_compose_pauli_quarter_turns(algebra2):
    """(-i s1)(-i s2) = -i s3 lifts to (pi/2, 0, 0) o (0, pi/2, 0)."""
    basis, t = algebra2
    r = compose(t, basis, xyz(HALF_PI, 0, 0), xyz(0, HALF_PI, 0))
    np.testing.assert_allclose(r, xyz(0, 0, HALF_PI), atol=1e-12)


def test_compose_identity_element(algebra3):
    basis, t = algebra3
    for coords in seeded_samples(basis, 61, 5):
        np.testing.assert_allclose(
            compose(t, basis, coords, np.zeros(8)), coords, atol=1e-10
        )
        np.testing.assert_allclose(
            compose(t, basis, np.zeros(8), coords), coords, atol=1e-10
        )


def test_compose_direct_identity(algebra3):
    basis, _ = algebra3
    for coords in seeded_samples(basis, 67, 5):
        np.testing.assert_allclose(
            compose_direct(basis, coords, np.zeros(8)), coords, atol=1e-10
        )


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_compose_routes_agree(n):
    basis, t = cached_algebra(n)
    for seed in range(25):
        m, nvec = seeded_samples(basis, 600 + 100 * n + seed, 2)
        np.testing.assert_allclose(
            compose(t, basis, m, nvec),
            compose_direct(basis, m, nvec),
            atol=1e-8,
        )


def bch_series(t, m, nvec):
    """Third-order BCH series of exp(-i m . L) exp(-i n . L) in coordinates:
    r = m + n + m (x) n + (m (x) (m (x) n) + n (x) (n (x) m)) / 3, with
    (x) = ``cross``.  Nested cross products only, no spectral code; its
    truncation error is of order s**4 for operands of norm s."""
    mn = cross(t, m, nvec)
    return m + nvec + mn + (cross(t, m, mn) + cross(t, nvec, cross(t, nvec, m))) / 3.0


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
def test_compose_near_identity_matches_bch_series(n):
    """No refusal, and scale-relative accuracy, for operands of norm s.

    The error is measured against s, the operands' common 2-norm, not
    against |r|: r = m + n + ... can be much shorter than its operands
    when n is close to -m, while the result's error does not shrink with
    it.  One bound holds at every scale: delinearizing reads r from
    exp(-i r . L), which differs from I by only ~s, and inside the gate
    the values-only logarithm takes R as arcsin of sin R, whose
    coordinates are the imaginary parts of that element's, so r keeps its
    relative accuracy however close to I it is.  At s = 1e-4
    the series' own truncation, of order s**3 relative to s, is what the
    bound sees.
    """
    basis, t = cached_algebra(n)
    rng = np.random.default_rng(127 + n)
    for scale in (1e-4, 1e-6, 1e-8, 1e-10, 1e-12):
        worst = 0.0
        for _ in range(20):
            m, nvec = (rng.uniform(-1.0, 1.0, basis.dim) for _ in range(2))
            m *= scale / np.linalg.norm(m)
            nvec *= scale / np.linalg.norm(nvec)
            r = compose(t, basis, m, nvec)
            worst = max(worst, np.linalg.norm(r - bch_series(t, m, nvec)) / scale)
        assert worst <= 1e-12, (scale, worst)


def test_compose_against_scipy_product(algebra3):
    """exp(-iR) must equal the dense product exp(-iM) exp(-iN)."""
    basis, t = algebra3
    for seed in (71, 73, 79):
        m, nvec = seeded_samples(basis, seed, 2)
        r = compose(t, basis, m, nvec)
        product = dense_exp(basis, m) @ dense_exp(basis, nvec)
        assert np.max(np.abs(dense_exp(basis, r) - product)) < 1e-9


@pytest.mark.parametrize("n", [2, 3])
def test_compose_wide_exponent_matches_direct(n):
    """Exponents of size ~1e3 wrap many turns; both routes agree.

    The coordinate route sums its divided differences by scaling and
    squaring here.  An eigenvalue of size 1e3 carries ~1e-13 of rounding,
    and the phase it sets is only that accurate in either route.
    """
    basis, t = cached_algebra(n)
    rng = np.random.default_rng(101 + n)
    for _ in range(10):
        m = rng.uniform(-1e3, 1e3, t.dim)
        nvec = rng.uniform(-1.0, 1.0, t.dim)
        r = compose(t, basis, m, nvec)
        assert np.max(np.abs(r - compose_direct(basis, m, nvec))) < 1e-10
        s = similarity(t, basis, m, nvec)
        assert np.max(np.abs(s - similarity_direct(basis, m, nvec))) < 1e-10


def test_compose_n2_three_thousand_turn():
    """exp(-3000 i s1) is exp(-i (3000 - 954 pi) s1)."""
    basis, t = cached_algebra(2)
    r = compose(t, basis, xyz(3000.0, 0.0, 0.0), np.zeros(3))
    np.testing.assert_allclose(r, [3000.0 - 954.0 * np.pi, 0.0, 0.0], atol=1e-11)


def test_su2_closed_form_single_rotation():
    alpha = np.array([0.0, 1.2, 0.0])
    g0, gvec = su2_compose_closed_form(alpha, np.zeros(3))
    assert g0 == pytest.approx(np.cos(0.6), abs=1e-15)
    np.testing.assert_allclose(gvec, [0.0, np.sin(0.6), 0.0], atol=1e-15)


def test_su2_closed_form_zero_inputs():
    g0, gvec = su2_compose_closed_form(np.zeros(3), np.zeros(3))
    assert g0 == 1.0
    np.testing.assert_array_equal(gvec, np.zeros(3))


def test_su2_closed_form_matches_linear_route(algebra2):
    basis, t = algebra2
    rng = np.random.default_rng(83)
    for _ in range(50):
        alpha = rng.uniform(-np.pi, np.pi, 3)
        beta = rng.uniform(-np.pi, np.pi, 3)
        g0, gvec = su2_compose_closed_form(alpha, beta)
        elem = compose_linear(t, basis, alpha / 2.0, beta / 2.0)
        assert abs(elem.scalar - g0) < 1e-12
        np.testing.assert_allclose(elem.vector, -1j * gvec, atol=1e-12)


def test_su2_closed_form_matches_scipy(algebra2):
    basis, _ = algebra2
    rng = np.random.default_rng(89)
    for _ in range(20):
        alpha = rng.uniform(-2, 2, 3)
        beta = rng.uniform(-2, 2, 3)
        g0, gvec = su2_compose_closed_form(alpha, beta)
        recon = g0 * np.eye(2) - 1j * np.einsum(
            "j,jab->ab", gvec, basis.matrices
        )
        product = dense_exp(basis, alpha / 2.0) @ dense_exp(basis, beta / 2.0)
        assert np.max(np.abs(recon - product)) < 1e-13


def test_similarity_quarter_turn(algebra2):
    """Conjugating s1 by exp(-i (pi/4) s3) rotates it to s2."""
    basis, t = algebra2
    nprime = similarity(t, basis, xyz(0, 0, np.pi / 4), xyz(1, 0, 0))
    np.testing.assert_allclose(nprime, xyz(0, 1, 0), atol=1e-12)


def test_similarity_trivial_cases(algebra3):
    basis, t = algebra3
    nvec = seeded_samples(basis, 97, 1)[0]
    np.testing.assert_allclose(
        similarity(t, basis, np.zeros(8), nvec), nvec, atol=1e-12
    )
    m = seeded_samples(basis, 101, 1)[0]
    np.testing.assert_allclose(
        similarity(t, basis, m, np.zeros(8)), np.zeros(8), atol=1e-12
    )


def test_similarity_zero_trace_exponent(algebra2, algebra3):
    """Tr exp(-iM) = 0 makes K+ singular; the conjugation is still well posed."""
    basis, t = algebra2
    nprime = similarity(t, basis, xyz(0, 0, HALF_PI), xyz(1, 0, 0))
    np.testing.assert_allclose(nprime, xyz(-1, 0, 0), atol=1e-12)
    basis, t = algebra3
    m = np.zeros(8)
    m[6] = 2.0 * np.pi / 3.0  # diag(1, -1, 0)
    nvec = seeded_samples(basis, 140, 1)[0]
    for scale in (1.0, 1.0 + 1e-9):
        np.testing.assert_allclose(
            similarity(t, basis, scale * m, nvec),
            similarity_direct(basis, scale * m, nvec),
            atol=1e-12,
        )


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
def test_similarity_routes_agree(n):
    basis, t = cached_algebra(n)
    for seed in range(20):
        m, nvec = seeded_samples(basis, 7000 + 37 * n + seed, 2)
        np.testing.assert_allclose(
            similarity(t, basis, m, nvec),
            similarity_direct(basis, m, nvec),
            atol=1e-8,
        )


def test_similarity_against_scipy(algebra3):
    basis, t = algebra3
    for seed in (103, 107, 109):
        m, nvec = seeded_samples(basis, seed, 2)
        nprime = similarity(t, basis, m, nvec)
        oracle = dense_conjugate(basis, m, nvec)
        got = np.einsum("j,jab->ab", nprime, basis.matrices)
        assert np.max(np.abs(got - oracle)) < 1e-9


def test_similarity_preserves_invariants(algebra4):
    basis, t = algebra4
    for seed in (113, 127):
        m, nvec = seeded_samples(basis, seed, 2)
        nprime = similarity(t, basis, m, nvec)
        assert abs(np.linalg.norm(nprime) - np.linalg.norm(nvec)) < 1e-9
        mu = linearize_fn(t, basis, m).conj()
        assert abs(np.dot(mu.vector, nprime) - np.dot(mu.vector, nvec)) < 1e-9
        kplus, kminus = build_adjoint_kernel(t, mu)
        np.testing.assert_allclose(kplus @ nprime, kminus @ nvec, rtol=0, atol=1e-12)


def test_similarity_degenerate_exponent(algebra3):
    """lambda_8's double eigenvalue is no refusal: the Newton form over the
    eigenvalue multiset is a Hermite interpolant of exp(-ix), exact on the
    spectrum."""
    basis, t = algebra3
    e8 = np.zeros(8)
    e8[7] = 1.0
    got = similarity(t, basis, e8, np.ones(8))
    assert np.max(np.abs(got - similarity_direct(basis, e8, np.ones(8)))) <= 1e-13


def test_adjoint_kernel_shapes(algebra3):
    basis, t = algebra3
    m = seeded_samples(basis, 131, 1)[0]
    mu = linearize_fn(t, basis, m).conj()
    kplus, kminus = build_adjoint_kernel(t, mu)
    assert kplus.shape == (8, 8)
    assert kminus.shape == (8, 8)
    # the two kernels share the symmetric part and differ in the skew part
    np.testing.assert_allclose(kplus + kminus, kplus.T + kminus.T, atol=1e-12)


@pytest.mark.parametrize("n", range(2, 9))
def test_adjoint_kernel_matches_dense_contraction(n):
    """K+- from the index-array matrices against contracting the dense
    trace oracle with the complex mu, K+- = mu0 I + d.mu +- i f.mu
    (f.mu_jl = f_jkl mu_k)."""
    basis, t = cached_algebra(n)
    f, d = trace_tensors(n)
    eye = np.eye(t.dim)
    for m in seeded_samples(basis, 140 + n, 5):
        mu = linearize_fn(t, basis, m).conj()
        kplus, kminus = build_adjoint_kernel(t, mu)
        sym = np.einsum("jkl,k->jl", d, mu.vector)
        skew = np.einsum("jkl,k->jl", f, mu.vector)
        np.testing.assert_allclose(kplus, mu.scalar * eye + sym + 1j * skew, rtol=0, atol=1e-15)
        np.testing.assert_allclose(kminus, mu.scalar * eye + sym - 1j * skew, rtol=0, atol=1e-15)


@pytest.mark.parametrize("n", [2, 3, 8])
def test_similarity_large_observable(n):
    """n' is linear in n, so the guards scale with |n|: an observable of
    norm 1e8 is conjugated, and agrees with the oracle relative to |n|."""
    basis, t = cached_algebra(n)
    rng = np.random.default_rng(5)
    m, nvec = random_coords(basis, rng), random_coords(basis, rng)
    nvec *= 1e8 / np.linalg.norm(nvec)
    got = similarity(t, basis, m, nvec)
    assert np.max(np.abs(got - similarity_direct(basis, m, nvec))) <= 1e-13 * 1e8


@pytest.mark.parametrize("n", [2, 3, 8])
def test_similarity_huge_observable_without_overflow(n):
    """With m = 0 an observable of norm ~1e300 comes back unchanged; the
    norms are taken without squaring, so nothing overflows or warns."""
    basis, t = cached_algebra(n)
    nvec = np.random.default_rng(6).uniform(-1.0, 1.0, t.dim) * 1e300
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        np.testing.assert_array_equal(similarity(t, basis, np.zeros(t.dim), nvec), nvec)


def test_group_inverse_via_compose(algebra3):
    basis, t = algebra3
    for coords in seeded_samples(basis, 137, 5):
        r = compose(t, basis, coords, -coords)
        assert np.max(np.abs(exp_matrix(basis, r) - np.eye(3))) < 1e-9


@pytest.mark.parametrize("n, scale", [(2, 1e10), (3, 1e10)])
def test_compose_rounding_out_of_group_is_a_domain_error(n, scale):
    """At these scales the linearized factor drifts out of SU(N) by rounding,
    and linearize_fn's norm identity refuses it before any product is
    formed; that is a ConstraintViolationError, not the ValueError of bad
    input.  (At N = 3 and 1e8 it does not drift: see
    ``test_compose_single_generator_1e8_n3``.)"""
    basis, t = cached_algebra(n)
    m = np.zeros(basis.dim)
    m[0] = scale
    nvec = np.zeros(basis.dim)
    nvec[1] = 0.2
    with pytest.raises(ConstraintViolationError, match="norm identity"):
        compose(t, basis, m, nvec)


def test_compose_single_generator_1e8_n3():
    """m = 1e8 L_1 at N = 3 has the eigenvalues -1e8, 0, 1e8, which LAPACK
    returns exactly to the Newton form past the reach, so the product stays
    in SU(3) and compose agrees with the dense oracle to the phase accuracy
    an exponent of 1e8 allows."""
    basis, t = cached_algebra(3)
    m = np.zeros(basis.dim)
    m[0] = 1e8
    assert linearize._eigenvalues(basis, m) == [-1e8, 0.0, 1e8]
    nvec = np.zeros(basis.dim)
    nvec[1] = 0.2
    assert np.max(np.abs(compose(t, basis, m, nvec) - compose_direct(basis, m, nvec))) < 1e-7


@pytest.mark.parametrize("n", range(2, 9))
@pytest.mark.parametrize("kind", ["complex", "nan", "inf"])
@pytest.mark.parametrize("name", ["m", "nvec"])
def test_bad_coordinates_refused_before_any_matrix(n, kind, name, monkeypatch):
    """A complex (even with zero imaginary part), NaN or inf m or n gets one
    answer at every N: ValueError naming the vector and its norm, from
    linearize_fn, f0_trace, compose, similarity and their dense oracles
    alike, with no dense matrix formed and no floating-point warning
    (pyproject turns those into errors)."""
    basis, t = cached_algebra(n)
    good, bad = seeded_samples(basis, 90 + n, 2)
    if kind == "complex":
        bad = bad.astype(complex)
        norm = np.linalg.norm(bad)
    else:
        bad[n] = np.nan if kind == "nan" else np.inf
        norm = np.nan if kind == "nan" else np.inf

    def dense(*args):
        raise AssertionError("a dense matrix was formed")

    monkeypatch.setattr(algebra, "to_matrix", dense)
    monkeypatch.setattr(linearize, "to_matrix", dense)
    args = {"m": good, "nvec": good, name: bad}
    message = "^" + re.escape(f"{name} must be real and finite coordinates, got |{name}| = {norm:.3e}") + "$"
    for route in (compose, similarity):
        with pytest.raises(ValueError, match=message):
            route(t, basis, args["m"], args["nvec"])
    for oracle in (compose_direct, similarity_direct):
        with pytest.raises(ValueError, match=message):
            oracle(basis, args["m"], args["nvec"])
    if name == "m":
        with pytest.raises(ValueError, match=message):
            linearize_fn(t, basis, bad)
        with pytest.raises(ValueError, match=message):
            f0_trace(basis, bad, linearize.exp_minus_i)

