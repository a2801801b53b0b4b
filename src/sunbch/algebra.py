"""Generator basis, structure tensors, and vector products for su(N).

The N**2 - 1 generalized Gell-Mann generators are ordered as: the
N(N-1)/2 symmetric off-diagonal matrices (row-major over pairs j < k),
the antisymmetric off-diagonal matrices in the same pair order, then the
N - 1 diagonal matrices.  All are Hermitian, traceless, and normalized to

    Tr(L_j L_k) = 2 delta_jk.

For N = 2 the basis is exactly (sigma_1, sigma_2, sigma_3).

Structure tensors are fixed by traces over the basis,

    f_jkl = Tr([L_j, L_k] L_l) / 4i      (totally antisymmetric)
    d_jkl = Tr({L_j, L_k} L_l) / 4       (totally symmetric)

and define two bilinear products on coordinate vectors,

    (a (x) b)_j = f_jkl a_k b_l          cross product
    (a (.) b)_j = d_jkl a_k b_l          symmetric product

together with the plain scalar product a . b = sum_k a_k b_k (no
conjugation).  With one argument fixed, each product is linear in the
other: ``product_matrices`` builds the dim x dim matrices D(a) and F(a)
with

    D(a) v = v (.) a,   F(a) v = v (x) a,

both at once, from one scatter list of terms (slot, gathered coordinate,
coefficient), so a loop that multiplies by the same a many times (the
adjoint kernel of ``bch``) pays one matrix-vector product per step.

The product of two elements a0 I + a . L and b0 I + b . L reduces to

    (a0 b0 + (2/N) a . b) I + (b0 a + a0 b + a (.) b + i a (x) b) . L,

which ``multiply`` alone writes out.  Its bilinear part is
D(b) a + i F(b) a, summed straight from the same terms without forming
either matrix: a term at row j and column k with coefficient c and
gathered coordinate l adds c b_l a_k to entry j, with c taken times i
for an f term.  The scatter list is stored row by row, so one gather
and one segmented sum (``np.add.reduceat``) give the whole vector part.

Under 1% of the dim**3 tensor slots are nonzero at N = 8, so each tensor
is built from T_jkl = Tr(L_j L_k L_l), summed over the generators'
nonzero entries only, as f = Im T / 2 and d = Re T / 2, and stored once,
as index arrays of its nonzero entries, one term per unordered pair
k <= l, which the two products, ``product_matrices`` and the exhaustive
tensor identities of ``verify`` run over.  No dense copy is kept.

The dense map and its inverse are one matrix product each with the
basis read as the dim x N**2 array G of raveled generators (a reshape of
``matrices``, which is a view): ``to_matrix`` takes vector @ G, reshaped
to N x N, plus the scalar on the diagonal, and ``from_matrix`` takes
vector_k = Tr(m L_k) / 2 as G @ ravel(m^T) / 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

# Tensor entries below this magnitude are treated as exact zeros.
SPARSE_THRESHOLD = 1e-13


class LinearElement(NamedTuple):
    """An element written as ``scalar * I + vector . L``."""

    scalar: complex
    vector: np.ndarray

    def conj(self) -> "LinearElement":
        """The adjoint element (the generators are Hermitian)."""
        return LinearElement(np.conj(self.scalar), np.conj(self.vector))


@dataclass(frozen=True)
class GeneratorBasis:
    """The ordered generator matrices for one N."""

    n: int
    matrices: np.ndarray  # shape (n**2 - 1, n, n), complex, read-only

    @property
    def dim(self) -> int:
        return self.n * self.n - 1


@dataclass(frozen=True)
class StructureTensors:
    """Structure constants for one N, stored as index arrays.

    ``f_coo`` and ``d_coo`` are the 0-based (row, k, l, value) arrays of
    the nonzero dense entries with k <= l, in lexicographic order, that
    ``cross`` and ``dot_sym`` contract; a value with k == l is halved,
    because the term a_k b_l + a_l b_k counts that slot twice.  The rest
    is derived from them: the joint scatter arrays of ``product_matrices``
    (and their halves, ``terms``), the row layout of ``multiply``
    (``product_rule``), the scatter list of ``linearize``'s step matrix
    (``step_rule``) and that of ``bch``'s adjoint matrix K(m) = -2 F(m)
    (``adjoint_rule``), each built on first read and then kept, and the
    canonical 1-based triples ``f_entries`` and ``d_entries``.

    ``scatter`` lists its terms row-major over the dim x 2 dim matrix
    [D | F]: by row, then d before f, then column.  The sort is stable,
    so each slot keeps its terms in the order ``_scatter`` made them, and
    every sum over a slot is the same, bit for bit, as over the unsorted
    list.
    """

    n: int
    f_coo: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
    d_coo: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]

    @property
    def dim(self) -> int:
        return self.n * self.n - 1

    f_entries = property(lambda self: _canonical(self.f_coo))
    d_entries = property(lambda self: _canonical(self.d_coo))
    scatter = cached_property(lambda self: _row_major(self.dim, self.d_coo, self.f_coo))
    product_rule = cached_property(lambda self: _product_rule(self.dim, *self.scatter))
    step_rule = cached_property(lambda self: _step_rule(self.n, *self.terms("d")))
    adjoint_rule = cached_property(lambda self: _adjoint_rule(*self.terms("f")))

    def terms(self, tensor: str) -> tuple[np.ndarray, ...]:
        """``tensor``'s ("d" or "f") half of ``scatter``, its slots in 0 .. dim**2 - 1."""
        slots, gather, coef = self.scatter
        half = slots < self.dim**2 if tensor == "d" else slots >= self.dim**2
        return slots[half] % self.dim**2, gather[half], coef[half]


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def build_basis(n: int) -> GeneratorBasis:
    """Construct the generalized Gell-Mann basis for su(n), n >= 2."""
    if not isinstance(n, (int, np.integer)) or n < 2:
        raise ValueError(f"basis requires an integer n >= 2, got {n!r}")
    n = int(n)
    mats = []
    for j in range(n):
        for k in range(j + 1, n):
            m = np.zeros((n, n), dtype=complex)
            m[j, k] = m[k, j] = 1.0
            mats.append(m)
    for j in range(n):
        for k in range(j + 1, n):
            m = np.zeros((n, n), dtype=complex)
            m[j, k] = -1j
            m[k, j] = 1j
            mats.append(m)
    for l in range(1, n):
        m = np.zeros((n, n), dtype=complex)
        m[np.arange(l), np.arange(l)] = 1.0
        m[l, l] = -l
        mats.append(m * np.sqrt(2.0 / (l * (l + 1))))
    return GeneratorBasis(n, _freeze(np.stack(mats)))


def _scatter(dim: int, d_coo, f_coo) -> tuple[np.ndarray, ...]:
    """Flat (row, column) slots, gathered coordinate and coefficient of
    each term of the matrices d[row, k, l] a_l, then of f[row, k, l] a_l
    with slots offset by dim**2, for ``product_matrices``.  An entry
    (row, k, l, value) holds t[row, k, l] = value and t[row, l, k] =
    sign * value (-1 for f), so it adds value * a_l at (row, k) and
    sign * value * a_k at (row, l); halving k == l keeps that sum right.
    """
    slots, gather, coef = [], [], []
    for (rows, k, l, value), sign, offset in ((d_coo, 1.0, 0), (f_coo, -1.0, dim * dim)):
        slots += [rows * dim + k + offset, rows * dim + l + offset]
        gather += [l, k]
        coef += [value, sign * value]
    return tuple(np.concatenate(x) for x in (slots, gather, coef))


def _row_major(dim: int, d_coo, f_coo) -> tuple[np.ndarray, ...]:
    """``_scatter``'s arrays, stably sorted by (row, d before f, column)."""
    slots, gather, coef = _scatter(dim, d_coo, f_coo)
    half, row, column = _slot_parts(dim, slots)
    order = np.argsort((2 * row + half) * dim + column, kind="stable")
    return tuple(_freeze(x[order]) for x in (slots, gather, coef))


def _slot_parts(dim: int, slots: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(0 for d or 1 for f, row, column) of flat ``product_matrices`` slots."""
    half, rest = np.divmod(slots, dim * dim)
    return (half, *np.divmod(rest, dim))


def _product_rule(dim: int, slots, gather, coef) -> tuple[np.ndarray, ...]:
    """``multiply``'s view of the row-major scatter list: the gathered
    coordinate and column of each term, its coefficient times 1 (d) or
    i (f), and the index of each row's first term.

    ``np.add.reduceat`` returns a segment's first element when the
    segment is empty, not 0, so every row must hold a term.  Each holds an
    f term: su(N) is simple, so no generator commutes with all the others.
    """
    half, row, column = _slot_parts(dim, slots)
    assert np.bincount(row[half == 1], minlength=dim).all(), "a row of f has no term"
    coef = np.where(half == 1, 1j * coef, coef)
    return (gather, *(_freeze(x) for x in (column, coef, np.searchsorted(row, np.arange(dim)))))


def _step_rule(n: int, slots, gather, coef) -> tuple[np.ndarray, ...]:
    """Flat slots, gathered coordinate and coefficient of the terms of the
    (dim + 1)-square matrix A = [[0, (2/N) m'], [m, D(m)]] at m: the d half
    of ``scatter`` one row and one column down, then the 2 dim border
    terms (2/N) m_j at (0, j + 1) and m_j at (j + 1, 0).  Each slot of D
    keeps its terms in ``scatter``'s order, so one ``np.bincount`` builds A
    with the D(m) of ``product_matrices`` bit for bit."""
    dim = n * n - 1
    size, border = dim + 1, np.arange(dim)
    row, column = np.divmod(slots, dim)
    slots = np.concatenate((row * size + column + size + 1, border + 1, (border + 1) * size))
    gather = np.concatenate((gather, border, border))
    coef = np.concatenate((coef, np.full(dim, 2.0 / n), np.ones(dim)))
    return tuple(_freeze(x) for x in (slots, gather, coef))


def _adjoint_rule(slots, gather, coef) -> tuple[np.ndarray, ...]:
    """Flat slots, gathered coordinate and coefficient of the terms of the
    dim-square matrix K(m) = -2 F(m), K(m) y = 2 m (x) y: the f half of
    ``scatter`` with each coefficient times -2, so one ``np.bincount``
    builds K with -2 times the F(m) of ``product_matrices``, bit for bit."""
    return tuple(_freeze(x) for x in (slots, gather, -2.0 * coef))


def _canonical(coo) -> tuple[tuple[int, int, int, float], ...]:
    """1-based (j, k, l, value) triples with j <= k <= l of an index array."""
    rows, k, l, value = coo
    keep = rows <= k
    full = (value * np.where(k == l, 2.0, 1.0))[keep]
    columns = (rows[keep] + 1, k[keep] + 1, l[keep] + 1, full)
    return tuple(zip(*(col.tolist() for col in columns)))


def _coo(shape, j, k, l, value, sign: float) -> tuple[np.ndarray, ...]:
    """Sorted index arrays of a tensor of ``shape`` from its canonical
    triples (j, k, l).

    A triple's permutations with k <= l are (j, k, l), (k, j, l) and
    (l, j, k), the odd one times ``sign``; repeats drop, k == l is halved.
    The flat index of a triple sorts as the triple does, so one ``np.unique``
    over it keeps each slot's first occurrence, in lexicographic order.
    """
    triples = [np.concatenate(col) for col in ((j, k, l), (k, j, j), (l, l, k))]
    value = np.concatenate((value, sign * value, value))
    _, first = np.unique(np.ravel_multi_index(triples, shape), return_index=True)
    rows, k, l, value = (x[first] for x in (*triples, value))
    value = value * np.where(k == l, 0.5, 1.0)
    return tuple(_freeze(x) for x in (rows, k, l, value))


def _join(keys: np.ndarray, targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs (i, p) with keys[p] == targets[i], for sorted keys."""
    lo = np.searchsorted(keys, targets, "left")
    reps = np.searchsorted(keys, targets, "right") - lo
    i = np.repeat(np.arange(len(targets)), reps)
    return i, np.arange(len(i)) - np.repeat(np.cumsum(reps) - reps - lo, reps)


def structure_constants(basis: GeneratorBasis) -> StructureTensors:
    """f and d from T_jkl = Tr(L_j L_k L_l), canonicalized and indexed.

    T is summed over the generators' nonzero entries only: L_j[a, b]
    joins L_k[b, c] on b, then L_l[c, a] on (c, a).  The generators are
    Hermitian, so Tr(L_k L_j L_l) is the conjugate of T_jkl, which gives
    f = Im T / 2 and d = Re T / 2.
    """
    g, n, shape = basis.matrices, basis.n, (basis.dim,) * 3
    a, b, gen = np.nonzero(g.transpose(1, 2, 0))  # sorted by row, then column, for _join
    val = g[gen, a, b]
    i, p = _join(a, b)
    q, r = _join(a * n + b, b[p] * n + a[i])
    i, p = i[q], p[q]
    terms = val[i] * val[p] * val[r]
    slots, inv = np.unique(np.ravel_multi_index((gen[i], gen[p], gen[r]), shape), return_inverse=True)
    j, k, l = np.unravel_index(slots, shape)
    f, d = np.bincount(inv, terms.imag) / 2, np.bincount(inv, terms.real) / 2

    # Canonical triples in lexicographic order: j < k < l for f, j <= k <= l for d.
    keep_f = (j < k) & (k < l) & (np.abs(f) >= SPARSE_THRESHOLD)
    keep_d = (j <= k) & (k <= l) & (np.abs(d) >= SPARSE_THRESHOLD)
    f_coo = _coo(shape, j[keep_f], k[keep_f], l[keep_f], f[keep_f], -1.0)
    return StructureTensors(basis.n, f_coo, _coo(shape, j[keep_d], k[keep_d], l[keep_d], d[keep_d], 1.0))


@lru_cache(maxsize=None)
def cached_algebra(n: int) -> tuple[GeneratorBasis, StructureTensors]:
    """Shared immutable (basis, tensors) pair for one N."""
    basis = build_basis(n)
    return basis, structure_constants(basis)


def _check_coords(dim: int, *vectors: np.ndarray) -> list[np.ndarray]:
    out = []
    for v in vectors:
        v = np.asarray(v)
        if v.shape != (dim,):
            raise ValueError(f"expected a coordinate vector of length {dim}, got shape {v.shape}")
        out.append(v)
    return out


def _real_coords(dim: int, **named: np.ndarray) -> list[np.ndarray]:
    """``_check_coords``, then ValueError naming a complex or non-finite vector, with its norm."""
    out = _check_coords(dim, *named.values())
    for name, v in zip(named, out):
        if v.dtype.kind == "c" or not np.isfinite(v).all():
            norm = np.hypot.reduce(np.abs(v))
            raise ValueError(f"{name} must be real and finite coordinates, got |{name}| = {norm:.3e}")
    return out


def _row_sum(dim: int, rows: np.ndarray, terms: np.ndarray) -> np.ndarray:
    out = np.zeros(dim, dtype=terms.dtype)
    np.add.at(out, rows, terms)
    return out


def cross(t: StructureTensors, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(a (x) b)_j = f_jkl a_k b_l, summed over the nonzero f_jkl with k < l.

    Each term is f_jkl (a_k b_l - a_l b_k), so swapping the arguments
    negates every term and the result exactly, not just to rounding,
    whenever a_k b_l == b_l a_k bitwise: for real inputs and for one
    complex argument (numpy's complex-by-complex product may round the two
    orders differently).
    """
    a, b = _check_coords(t.dim, a, b)
    rows, k, l, value = t.f_coo
    return _row_sum(t.dim, rows, value * (a[k] * b[l] - a[l] * b[k]))


def dot_sym(t: StructureTensors, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(a (.) b)_j = d_jkl a_k b_l, summed over the nonzero d_jkl with k <= l.

    Each term is d_jkl (a_k b_l + a_l b_k), halved on the diagonal, so the
    result is exactly symmetric in the arguments under the same condition
    as ``cross``.
    """
    a, b = _check_coords(t.dim, a, b)
    rows, k, l, value = t.d_coo
    return _row_sum(t.dim, rows, value * (a[k] * b[l] + a[l] * b[k]))


def product_matrices(t: StructureTensors, a: np.ndarray) -> np.ndarray:
    """D(a) and F(a), stacked, at a coordinate vector a.

    D(a)_jk = d_jkl a_l and F(a)_jk = f_jkl a_l, so D(a) v = v (.) a and
    F(a) v = v (x) a for every v.  One gather and one ``np.bincount`` over
    the joint scatter list build both in O(nonzeros); no dense tensor is
    read.  A complex a adds a second bincount over the imaginary parts,
    D(a) = D(Re a) + i D(Im a), since bincount weights must be real.
    """
    (a,) = _check_coords(t.dim, a)
    slots, gather, coef = t.scatter
    size = 2 * t.dim * t.dim
    picked = a[gather]
    out = np.bincount(slots, coef * picked.real, minlength=size)
    if a.dtype.kind == "c":
        out = out + 1j * np.bincount(slots, coef * picked.imag, minlength=size)
    return out.reshape(2, t.dim, t.dim)


def multiply(t: StructureTensors, a: LinearElement, b: LinearElement) -> LinearElement:
    """Coordinates of (a0 I + a . L)(b0 I + b . L): the module's product rule.

    The bilinear part a (.) b + i a (x) b = D(b) a + i F(b) a is one
    gather and one ``np.add.reduceat`` over ``product_rule``'s rows.
    """
    av, bv = _check_coords(t.dim, a.vector, b.vector)
    gather, column, coef, starts = t.product_rule
    scalar = a.scalar * b.scalar + (2.0 / t.n) * np.dot(av, bv)
    vector = b.scalar * av + a.scalar * bv + np.add.reduceat(coef * bv[gather] * av[column], starts)
    return LinearElement(scalar, vector)


def to_matrix(basis: GeneratorBasis, elem: LinearElement) -> np.ndarray:
    """Dense matrix of ``scalar * I + vector . L``."""
    scalar, vector = elem
    (vector,) = _check_coords(basis.dim, vector)
    n = basis.n
    m = (vector @ basis.matrices.reshape(basis.dim, -1)).reshape(n, n)
    m.flat[:: n + 1] += scalar
    return m


def algebra_matrix(basis: GeneratorBasis, coords: np.ndarray) -> np.ndarray:
    """Dense matrix of ``coords . L`` (no identity part)."""
    return to_matrix(basis, LinearElement(0.0, np.asarray(coords)))


def from_matrix(basis: GeneratorBasis, m: np.ndarray) -> LinearElement:
    """Project any complex N x N matrix onto ``scalar * I + vector . L``.

    scalar = Tr(m)/N and vector_k = Tr(m L_k)/2; exact because {I, L}
    spans the complex N x N matrices.
    """
    m = np.asarray(m, dtype=complex)
    if m.shape != (basis.n, basis.n):
        raise ValueError(f"expected a {basis.n} x {basis.n} matrix, got shape {m.shape}")
    scalar = np.trace(m) / basis.n
    vector = basis.matrices.reshape(basis.dim, -1) @ m.T.ravel() / 2.0
    return LinearElement(scalar, vector)


def serialize_algebra(basis: GeneratorBasis, t: StructureTensors) -> dict:
    """JSON-ready document: canonical 1-based sparse tensors plus generators."""
    return {
        "n": basis.n,
        "f": [[j, k, l, v] for j, k, l, v in t.f_entries],
        "d": [[j, k, l, v] for j, k, l, v in t.d_entries],
        "generators": [
            [[[float(x.real), float(x.imag)] for x in row] for row in mat]
            for mat in basis.matrices
        ],
    }
