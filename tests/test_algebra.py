import itertools

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sunbch import (
    LinearElement,
    algebra_matrix,
    build_basis,
    cached_algebra,
    cross,
    dot_sym,
    from_matrix,
    product_reduce,
    serialize_algebra,
    structure_constants,
    to_matrix,
)
from sunbch.algebra import SPARSE_THRESHOLD

PAULI = {
    1: np.array([[0, 1], [1, 0]], dtype=complex),
    2: np.array([[0, -1j], [1j, 0]], dtype=complex),
    3: np.array([[1, 0], [0, -1]], dtype=complex),
}


def unit(dim, index):
    e = np.zeros(dim)
    e[index - 1] = 1.0
    return e


def test_n2_generators_are_pauli():
    basis = build_basis(2)
    assert basis.dim == 3
    for j in (1, 2, 3):
        np.testing.assert_array_equal(basis.matrices[j - 1], PAULI[j])


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_generator_invariants(n):
    """N^2-1 traceless Hermitian generators with Tr(Lj Lk) = 2 djk."""
    basis = build_basis(n)
    g = basis.matrices
    assert g.shape == (n * n - 1, n, n)
    assert np.max(np.abs(np.trace(g, axis1=1, axis2=2))) < 1e-14
    assert np.max(np.abs(g - g.conj().transpose(0, 2, 1))) == 0.0
    gram = np.einsum("jab,kba->jk", g, g)
    assert np.max(np.abs(gram - 2.0 * np.eye(basis.dim))) < 1e-13


def test_n2_structure_constants():
    _, t = cached_algebra(2)
    assert t.f_entries == ((1, 2, 3, 1.0),)
    assert t.d_entries == ()


def test_n3_d888():
    # Second diagonal generator squared projects back onto itself.
    _, t = cached_algebra(3)
    entries = {(j, k, l): v for j, k, l, v in t.d_entries}
    assert entries[(8, 8, 8)] == pytest.approx(-1.0 / np.sqrt(3.0), abs=1e-15)


def test_tensor_symmetries():
    for n in (2, 3, 4):
        _, t = cached_algebra(n)
        assert np.array_equal(t.f, -t.f.transpose(1, 0, 2))
        assert np.array_equal(t.f, t.f.transpose(1, 2, 0))
        assert np.array_equal(t.d, t.d.transpose(1, 0, 2))
        assert np.array_equal(t.d, t.d.transpose(1, 2, 0))


def test_cross_on_unit_vectors():
    _, t = cached_algebra(2)
    np.testing.assert_allclose(
        cross(t, unit(3, 1), unit(3, 2)), unit(3, 3), atol=1e-15
    )


def test_dot_sym_diagonal_generator():
    _, t = cached_algebra(3)
    e8 = unit(8, 8)
    np.testing.assert_allclose(
        dot_sym(t, e8, e8), -e8 / np.sqrt(3.0), atol=1e-14
    )


def test_product_reduce_diagonal_generator():
    """L8 L8 = (2/3) I - (1/sqrt 3) L8 at n = 3."""
    basis, t = cached_algebra(3)
    e8 = unit(8, 8)
    elem = product_reduce(t, e8, e8)
    assert elem.scalar == pytest.approx(2.0 / 3.0, abs=1e-14)
    np.testing.assert_allclose(elem.vector, -e8 / np.sqrt(3.0), atol=1e-14)
    recon = to_matrix(basis, elem)
    np.testing.assert_allclose(
        recon, basis.matrices[7] @ basis.matrices[7], atol=1e-14
    )


# One draw covers every N: each check uses the leading dim = N**2 - 1 entries.
MAX_DIM = 63
draws = arrays(np.float64, (MAX_DIM,), elements=st.floats(-1, 1))


def bitwise_cases(a_re, a_im, b):
    """(tensors, a, b) for N = 2..8, with a real and with a complex.

    Complex first arguments are what ``power_table`` (powers of m times
    the real m) and the product rule pass.
    """
    for n in range(2, 9):
        _, t = cached_algebra(n)
        dim = t.dim
        for a in (a_re[:dim], a_re[:dim] + 1j * a_im[:dim]):
            yield t, a, b[:dim]


@seed(20260301)
@settings(max_examples=50, deadline=None)
@given(a_re=draws, a_im=draws, b=draws)
def test_cross_antisymmetric_bitwise(a_re, a_im, b):
    for t, a, bb in bitwise_cases(a_re, a_im, b):
        assert np.array_equal(cross(t, a, bb), -cross(t, bb, a))


@seed(20260301)
@settings(max_examples=50, deadline=None)
@given(a_re=draws, a_im=draws, b=draws)
def test_dot_sym_symmetric_bitwise(a_re, a_im, b):
    for t, a, bb in bitwise_cases(a_re, a_im, b):
        assert np.array_equal(dot_sym(t, a, bb), dot_sym(t, bb, a))


@pytest.mark.parametrize("n", range(2, 9))
def test_contractions_match_dense_reference(n):
    """The sparse sums agree with contracting the whole dense tensor."""
    _, t = cached_algebra(n)
    rng = np.random.default_rng(100 + n)

    def dense(tensor, a, b, sign):
        outer = np.outer(a, b)
        return 0.5 * np.einsum("jkl,kl->j", tensor, outer + sign * outer.T)

    for _ in range(5):
        re = rng.uniform(-1, 1, (2, t.dim))
        im = rng.uniform(-1, 1, (2, t.dim))
        for a, b in ((re[0], re[1]), (re[0] + 1j * im[0], re[1]), (re[0] + 1j * im[0], re[1] + 1j * im[1])):
            np.testing.assert_allclose(cross(t, a, b), dense(t.f, a, b, -1.0), rtol=0, atol=1e-13)
            np.testing.assert_allclose(dot_sym(t, a, b), dense(t.d, a, b, 1.0), rtol=0, atol=1e-13)
            assert cross(t, a, b).dtype == dense(t.f, a, b, -1.0).dtype


def test_product_reduce_matches_matrix_product(any_algebra):
    basis, t = any_algebra
    rng = np.random.default_rng(7)
    for _ in range(10):
        a = rng.uniform(-1, 1, basis.dim)
        b = rng.uniform(-1, 1, basis.dim)
        lhs = algebra_matrix(basis, a) @ algebra_matrix(basis, b)
        rhs = to_matrix(basis, product_reduce(t, a, b))
        np.testing.assert_allclose(lhs, rhs, atol=1e-13)


def test_from_matrix_round_trip(algebra3):
    basis, _ = algebra3
    rng = np.random.default_rng(11)
    m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    elem = from_matrix(basis, m)
    np.testing.assert_allclose(to_matrix(basis, elem), m, atol=1e-12)


def test_from_matrix_identity():
    basis, _ = cached_algebra(3)
    elem = from_matrix(basis, np.eye(3))
    assert elem.scalar == pytest.approx(1.0)
    np.testing.assert_allclose(elem.vector, 0.0, atol=1e-15)


def test_to_matrix_identity_element():
    basis, _ = cached_algebra(4)
    m = to_matrix(basis, LinearElement(1.0, np.zeros(15)))
    np.testing.assert_array_equal(m, np.eye(4, dtype=complex))


def test_wrong_length_rejected():
    _, t = cached_algebra(3)
    with pytest.raises(ValueError):
        cross(t, np.zeros(7), np.zeros(8))


def test_cached_algebra_is_cached():
    assert cached_algebra(3)[0] is cached_algebra(3)[0]


def test_serialize_wire_format():
    basis, t = cached_algebra(2)
    doc = serialize_algebra(basis, t)
    assert doc["n"] == 2
    assert doc["f"] == [[1, 2, 3, 1.0]]
    assert doc["d"] == []
    assert len(doc["generators"]) == 3
    # each generator entry is [re, im] pairs, row major
    assert doc["generators"][0][0][1] == [1.0, 0.0]


def test_structure_constants_sparsity():
    # canonical triples only: f strictly increasing, d nondecreasing, no zeros
    _, t = cached_algebra(4)
    for j, k, l, v in t.f_entries:
        assert j < k < l and abs(v) > 1e-13
    for j, k, l, v in t.d_entries:
        assert j <= k <= l and abs(v) > 1e-13
    assert structure_constants(cached_algebra(2)[0]).f[0, 1, 2] == 1.0


def loop_canonicalization(basis):
    """The element-by-element construction that ``structure_constants`` replaced."""
    g = basis.matrices
    dim = basis.dim
    prod = np.einsum("jab,kbc->jkac", g, g)
    tr3 = np.einsum("jkab,lba->jkl", prod, g)
    f_raw = ((tr3 - tr3.transpose(1, 0, 2)) / 4j).real
    d_raw = ((tr3 + tr3.transpose(1, 0, 2)) / 4.0).real
    f_entries = []
    for j, k, l in itertools.combinations(range(dim), 3):
        v = f_raw[j, k, l]
        if abs(v) >= SPARSE_THRESHOLD:
            f_entries.append((j + 1, k + 1, l + 1, float(v)))
    d_entries = []
    for j, k, l in itertools.combinations_with_replacement(range(dim), 3):
        v = d_raw[j, k, l]
        if abs(v) >= SPARSE_THRESHOLD:
            d_entries.append((j + 1, k + 1, l + 1, float(v)))
    f = np.zeros((dim, dim, dim))
    for j, k, l, v in f_entries:
        j, k, l = j - 1, k - 1, l - 1
        for (a, b, c), sgn in (
            ((j, k, l), 1.0), ((k, l, j), 1.0), ((l, j, k), 1.0),
            ((k, j, l), -1.0), ((j, l, k), -1.0), ((l, k, j), -1.0),
        ):
            f[a, b, c] = sgn * v
    d = np.zeros((dim, dim, dim))
    for j, k, l, v in d_entries:
        for a, b, c in set(itertools.permutations((j - 1, k - 1, l - 1))):
            d[a, b, c] = v
    return f, d, tuple(f_entries), tuple(d_entries)


@pytest.mark.parametrize("n", range(2, 9))
def test_structure_constants_match_loop_canonicalization(n):
    """The vectorized build is bitwise the loop build, entry types included."""
    basis = build_basis(n)
    t = structure_constants(basis)
    f, d, f_entries, d_entries = loop_canonicalization(basis)
    assert np.array_equal(t.f, f) and np.array_equal(t.d, d)
    assert t.f_entries == f_entries and t.d_entries == d_entries
    for ours, theirs in ((t.f_entries, f_entries), (t.d_entries, d_entries)):
        for row, expected in zip(ours, theirs):
            assert [type(x) for x in row] == [type(x) for x in expected]
