import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sunbch import (
    GeneratorBasis,
    LinearElement,
    algebra_matrix,
    build_adjoint_kernel,
    build_basis,
    cached_algebra,
    compose,
    cross,
    dot_sym,
    from_matrix,
    multiply,
    product_matrices,
    random_coords,
    serialize_algebra,
    similarity,
    structure_constants,
    to_matrix,
)
from sunbch.algebra import StructureTensors, _scatter
from sunbch.linearize import linearize_fn

from conftest import loop_canonicalization, trace_tensors

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
    """The stored tensors, read back densely as t[j, k, l] = the (j, k)
    entry of ``product_matrices`` at the unit vector e_l, are totally
    antisymmetric (f) and totally symmetric (d), bit for bit."""
    for n in (2, 3, 4):
        _, t = cached_algebra(n)
        d, f = np.stack([product_matrices(t, e) for e in np.eye(t.dim)], axis=-1)
        assert np.array_equal(f, -f.transpose(1, 0, 2))
        assert np.array_equal(f, f.transpose(1, 2, 0))
        assert np.array_equal(d, d.transpose(1, 0, 2))
        assert np.array_equal(d, d.transpose(1, 2, 0))


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


def test_multiply_diagonal_generator():
    """L8 L8 = (2/3) I - (1/sqrt 3) L8 at n = 3."""
    basis, t = cached_algebra(3)
    e8 = unit(8, 8)
    elem = multiply(t, LinearElement(0.0, e8), LinearElement(0.0, e8))
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

    Complex first arguments are what the product rule passes.
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
    """The sparse sums agree with contracting the whole dense trace oracle."""
    _, t = cached_algebra(n)
    f, d = trace_tensors(n)
    rng = np.random.default_rng(100 + n)

    def dense(tensor, a, b, sign):
        outer = np.outer(a, b)
        return 0.5 * np.einsum("jkl,kl->j", tensor, outer + sign * outer.T)

    for _ in range(5):
        re = rng.uniform(-1, 1, (2, t.dim))
        im = rng.uniform(-1, 1, (2, t.dim))
        for a, b in ((re[0], re[1]), (re[0] + 1j * im[0], re[1]), (re[0] + 1j * im[0], re[1] + 1j * im[1])):
            np.testing.assert_allclose(cross(t, a, b), dense(f, a, b, -1.0), rtol=0, atol=1e-13)
            np.testing.assert_allclose(dot_sym(t, a, b), dense(d, a, b, 1.0), rtol=0, atol=1e-13)
            assert cross(t, a, b).dtype == dense(f, a, b, -1.0).dtype


@pytest.mark.parametrize("n", range(2, 9))
def test_product_matrix_matches_dense_tensors(n):
    """D(a) and F(a) from the index arrays against contracting the dense
    trace oracle; D(a) v and F(a) v are the products v (.) a and v (x) a.
    A complex a gives exactly D(Re a) + i D(Im a), and F likewise, each
    part equal to the real path's matrix.  The joint scatter sums each
    slot's terms in the order of its tensor's own half (``terms``), so both
    matrices equal a bincount over that half alone, bit for bit."""
    _, t = cached_algebra(n)
    f, d = trace_tensors(n)
    rng = np.random.default_rng(200 + n)
    for _ in range(5):
        a, b, v = rng.uniform(-1, 1, (3, t.dim))
        sym, skew = product_matrices(t, a)
        assert sym.dtype == skew.dtype == np.float64
        for got, tensor in ((sym, "d"), (skew, "f")):
            slots, gather, coef = t.terms(tensor)
            alone = np.bincount(slots, coef * a[gather], minlength=t.dim**2).reshape(t.dim, t.dim)
            assert got.tobytes() == alone.astype(float).tobytes()
        np.testing.assert_allclose(sym, np.einsum("jkl,l->jk", d, a), rtol=0, atol=1e-15)
        np.testing.assert_allclose(skew, np.einsum("jkl,l->jk", f, a), rtol=0, atol=1e-15)
        np.testing.assert_allclose(sym @ v, dot_sym(t, v, a), rtol=0, atol=1e-14)
        np.testing.assert_allclose(skew @ v, cross(t, v, a), rtol=0, atol=1e-14)
        c = a + 1j * b
        for got, re, im, dense in zip(*(product_matrices(t, x) for x in (c, a, b)), (d, f)):
            assert got.dtype == np.complex128
            np.testing.assert_array_equal(got, re + 1j * im)
            np.testing.assert_array_equal(got.real, re)
            np.testing.assert_array_equal(got.imag, im)
            np.testing.assert_allclose(got, np.einsum("jkl,l->jk", dense, c), rtol=0, atol=2e-15)


@pytest.mark.parametrize("n", range(2, 9))
def test_cross_with_itself_is_exactly_zero(n):
    """m (x) m is bitwise zero for real m: each term is f (m_k m_l - m_l m_k).
    The Newton products skip their step-2 check, whose v is m, on this."""
    _, t = cached_algebra(n)
    rng = np.random.default_rng(300 + n)
    for scale in (1e-8, 1.0, 1e3):
        for _ in range(20):
            m = scale * rng.uniform(-1, 1, t.dim)
            assert not np.any(cross(t, m, m))


@pytest.mark.parametrize("n", range(2, 9), ids=lambda n: f"n{n}")
def test_multiply_matches_matrix_product(n):
    """The product rule against the dense product, for pure algebra elements
    and for complex scalar and vector parts."""
    basis, t = cached_algebra(n)
    rng = np.random.default_rng(7)

    def draw(complex_parts):
        re, im = rng.uniform(-1, 1, (2, basis.dim + 1))
        if not complex_parts:
            return LinearElement(0.0, re[1:])
        return LinearElement(complex(re[0], im[0]), re[1:] + 1j * im[1:])

    for complex_parts in (False, True):
        for _ in range(10):
            a, b = draw(complex_parts), draw(complex_parts)
            lhs = to_matrix(basis, a) @ to_matrix(basis, b)
            rhs = to_matrix(basis, multiply(t, a, b))
            np.testing.assert_allclose(lhs, rhs, atol=1e-13)


def complex_element(rng, dim, scale):
    re, im = scale * rng.uniform(-1, 1, (2, dim + 1))
    return LinearElement(complex(re[0], im[0]), re[1:] + 1j * im[1:])


@pytest.mark.parametrize("n", range(2, 9))
def test_multiply_is_the_product_matrices_sum(n):
    """multiply's one segmented sum is b0 a + a0 b + D(b) a + i F(b) a, with
    D(b) and F(b) from a complex ``product_matrices``: the same terms summed
    in another order, so within 1e-15 of |(a0, a)| |(b0, b)|."""
    _, t = cached_algebra(n)
    rng = np.random.default_rng(600 + n)
    for scale in (1e-3, 1.0, 1e3):
        for _ in range(10):
            a, b = complex_element(rng, t.dim, scale), complex_element(rng, t.dim, scale)
            sym, skew = product_matrices(t, b.vector)
            want = b.scalar * a.vector + a.scalar * b.vector + sym @ a.vector + 1j * (skew @ a.vector)
            size = np.linalg.norm([a.scalar, *a.vector]) * np.linalg.norm([b.scalar, *b.vector])
            assert np.abs(multiply(t, a, b).vector - want).max() <= 1e-15 * size


@pytest.mark.parametrize("n", range(2, 9))
def test_product_rule_rows_are_never_empty(n):
    """``np.add.reduceat`` gives an empty segment its first element, not 0,
    so every row of multiply's term list must hold a term; each holds an f
    term (N = 2 has no d term at all).  The list is built on first read,
    not by ``structure_constants``."""
    t = structure_constants(build_basis(n))
    assert "scatter" not in vars(t) and "product_rule" not in vars(t)
    gather, column, coef, starts = t.product_rule
    assert len(starts) == t.dim and starts[0] == 0
    assert np.all(np.diff([*starts, len(column)]) > 0)
    assert all(np.any(coef[lo:hi].imag != 0) for lo, hi in zip(starts, [*starts[1:], len(coef)]))
    assert gather is t.scatter[1]


@pytest.mark.parametrize("n", range(2, 9))
def test_row_major_scatter_keeps_product_matrices_bitwise(n):
    """``scatter`` is ``_scatter``'s list stably sorted by row; each slot keeps
    its terms in order, so ``product_matrices`` is bit for bit a bincount
    over the unsorted list, for real and complex a."""
    _, t = cached_algebra(n)
    slots, gather, coef = _scatter(t.dim, t.d_coo, t.f_coo)
    rng = np.random.default_rng(700 + n)
    size = 2 * t.dim**2
    for _ in range(5):
        re, im = rng.uniform(-1, 1, (2, t.dim))
        for a in (re, re + 1j * im):
            want = np.bincount(slots, coef * a[gather].real, minlength=size)
            if a.dtype.kind == "c":
                want = want + 1j * np.bincount(slots, coef * a[gather].imag, minlength=size)
            assert product_matrices(t, a).tobytes() == want.reshape(2, t.dim, t.dim).tobytes()


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
    good, bad = LinearElement(0.0, np.zeros(8)), LinearElement(0.0, np.zeros(7))
    for a, b in ((good, bad), (bad, good)):
        with pytest.raises(ValueError, match="length 8"):
            multiply(t, a, b)


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
    assert structure_constants(build_basis(2)).f_entries == ((1, 2, 3, 1.0),)


def dense_coo(tensor):
    """Oracle for the stored index arrays: the (row, k, l, value) of a dense
    tensor's nonzero entries with k <= l, in lexicographic order, diagonal halved."""
    rows, k, l = np.nonzero(tensor)
    keep = k <= l
    rows, k, l = rows[keep], k[keep], l[keep]
    return rows, k, l, tensor[rows, k, l] * np.where(k == l, 0.5, 1.0)


@pytest.mark.parametrize("n", range(2, 9))
def test_structure_constants_match_loop_canonicalization(n):
    """The vectorized build is bitwise the loop build, entry types included."""
    basis = build_basis(n)
    t = structure_constants(basis)
    f, d, f_entries, d_entries = loop_canonicalization(basis)
    for ours, dense in ((t.f_coo, f), (t.d_coo, d)):
        for column, expected in zip(ours, dense_coo(dense), strict=True):
            assert column.dtype == expected.dtype
            assert column.tobytes() == expected.tobytes()
    assert t.f_entries == f_entries and t.d_entries == d_entries
    for ours, theirs in ((t.f_entries, f_entries), (t.d_entries, d_entries)):
        for row, expected in zip(ours, theirs):
            assert [type(x) for x in row] == [type(x) for x in expected]


def test_structure_constants_never_form_a_dense_cube():
    """The N = 8 build stays O(nonzeros): one dim**3 complex array alone is 4 MB."""
    basis = build_basis(8)
    tracemalloc.start()
    try:
        structure_constants(basis)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


@pytest.mark.parametrize("n", [3, 4])
def test_structure_constants_on_a_rotated_basis(n):
    """A seeded orthogonal rotation of the basis makes every generator dense,
    with many entries per row and complex off-diagonal entries; the sparse
    trace must still agree with the dense oracle on every canonical entry."""
    gell_mann = build_basis(n)
    q, _ = np.linalg.qr(np.random.default_rng(400 + n).standard_normal((gell_mann.dim,) * 2))
    basis = GeneratorBasis(n, np.einsum("ij,jab->iab", q, gell_mann.matrices))
    assert np.all(basis.matrices != 0)
    t = structure_constants(basis)
    _, _, f_entries, d_entries = loop_canonicalization(basis)
    for ours, theirs in ((t.f_entries, f_entries), (t.d_entries, d_entries)):
        assert [row[:3] for row in ours] == [row[:3] for row in theirs]
        np.testing.assert_allclose(
            [row[3] for row in ours], [row[3] for row in theirs], rtol=0, atol=1e-14
        )


def test_compose_and_similarity_build_no_dense_tensor():
    """The contractions and the adjoint kernel read the index arrays only,
    and no dense f or d exists to read."""
    basis = build_basis(8)
    t = structure_constants(basis)
    assert [field.name for field in dataclasses.fields(t)] == ["n", "f_coo", "d_coo"]
    rng = np.random.default_rng(8)
    m, nvec = (random_coords(basis, rng) for _ in range(2))
    compose(t, basis, m, nvec)
    similarity(t, basis, m, nvec)
    build_adjoint_kernel(t, linearize_fn(t, basis, m).conj())
    assert "f" not in vars(t) and "d" not in vars(t)
    assert not any(hasattr(x, name) for x in (t, StructureTensors) for name in "fd")


def rowwise_unique_coo(entries, sign):
    """Oracle for ``_coo``: the index arrays of canonical 1-based triples,
    each expanded to its k <= l permutations (the odd one times ``sign``)
    and deduplicated by a row-wise ``np.unique`` over the stacked indices."""
    j, k, l, value = np.array(entries, dtype=float).reshape(-1, 4).T
    j, k, l = (x.astype(np.intp) - 1 for x in (j, k, l))
    triples = [np.concatenate(col) for col in ((j, k, l), (k, j, j), (l, l, k))]
    value = np.concatenate((value, sign * value, value))
    _, first = np.unique(np.stack(triples, axis=1), axis=0, return_index=True)
    rows, k, l, value = (x[first] for x in (*triples, value))
    return rows, k, l, value * np.where(k == l, 0.5, 1.0)


@pytest.mark.parametrize("n", range(2, 9))
def test_coo_matches_rowwise_unique_reference(n):
    """The flat-key deduplication keeps the slots, order and values of a
    row-wise unique bit for bit, index types included."""
    t = structure_constants(build_basis(n))
    for ours, entries, sign in ((t.f_coo, t.f_entries, -1.0), (t.d_coo, t.d_entries, 1.0)):
        for column, expected in zip(ours, rowwise_unique_coo(entries, sign), strict=True):
            assert column.dtype == expected.dtype
            assert column.tobytes() == expected.tobytes()


@pytest.mark.parametrize("n", range(2, 9))
def test_generator_map_matches_trace_definition(n):
    """to_matrix is s I + sum_k x_k L_k and from_matrix gives Tr(m)/N and
    Tr(m L_k)/2, each within 4 ulp of the largest entry of the definition
    evaluated in extended precision."""
    basis, _ = cached_algebra(n)
    wide = basis.matrices.astype(np.clongdouble)
    rng = np.random.default_rng(500 + n)
    for _ in range(20):
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        elem = from_matrix(basis, m)
        want = np.array([np.trace(m.astype(np.clongdouble) @ g) / 2 for g in wide])
        assert elem.scalar == np.trace(m) / n
        assert np.abs(elem.vector - want).max() <= 4 * np.spacing(float(np.abs(want).max()))

        x, s = rng.standard_normal(basis.dim), complex(*rng.standard_normal(2))
        want = s * np.eye(n, dtype=np.clongdouble) + np.tensordot(x.astype(np.longdouble), wide, axes=1)
        got = to_matrix(basis, LinearElement(s, x))
        assert np.abs(got - want).max() <= 4 * np.spacing(float(np.abs(want).max()))


@pytest.mark.parametrize("n", range(2, 9))
def test_generator_map_round_trip(n):
    """from_matrix(to_matrix(x)) returns x, complex scalar part included,
    within 8 ulp of the largest coordinate (4 for each map)."""
    basis, _ = cached_algebra(n)
    rng = np.random.default_rng(600 + n)
    for _ in range(20):
        x = rng.standard_normal(basis.dim) + 1j * rng.standard_normal(basis.dim)
        s = complex(*rng.standard_normal(2))
        elem = from_matrix(basis, to_matrix(basis, LinearElement(s, x)))
        scale = 8 * np.spacing(max(abs(s), np.abs(x).max()))
        assert abs(elem.scalar - s) <= scale
        assert np.abs(elem.vector - x).max() <= scale
