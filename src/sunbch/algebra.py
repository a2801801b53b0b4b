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
conjugation).  The product of two algebra elements then reduces to

    (a . L)(b . L) = (2/N)(a . b) I + ((a (.) b) + i (a (x) b)) . L

Under 1% of the dim**3 tensor slots are nonzero at N = 8, so the two
products run over index arrays of the nonzero entries only, one term per
unordered pair k <= l.  The dense f and d stay for the tensor identities
and the adjoint kernel.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

# Tensor entries below this magnitude are treated as exact zeros.
SPARSE_THRESHOLD = 1e-13


class LinearElement(NamedTuple):
    """An element written as ``scalar * I + vector . L``."""

    scalar: complex
    vector: np.ndarray


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
    """Dense and sparse structure constants for one N.

    ``f`` and ``d`` are dense rank-3 arrays rebuilt from the canonical
    entries, so antisymmetry of f and symmetry of d hold exactly, not just
    to rounding.  ``f_entries`` holds 1-based triples with j < k < l;
    ``d_entries`` holds 1-based triples with j <= k <= l.  ``f_coo`` and
    ``d_coo`` are the 0-based (row, k, l, value) arrays of the nonzero dense
    entries with k <= l that ``cross`` and ``dot_sym`` contract; a value
    with k == l is halved, because the term a_k b_l + a_l b_k counts that
    slot twice.
    """

    n: int
    f: np.ndarray
    d: np.ndarray
    f_entries: tuple[tuple[int, int, int, float], ...]
    d_entries: tuple[tuple[int, int, int, float], ...]
    f_coo: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
    d_coo: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]

    @property
    def dim(self) -> int:
        return self.n * self.n - 1


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


def _coo(tensor: np.ndarray) -> tuple[np.ndarray, ...]:
    """(row, k, l, value) of the nonzero entries with k <= l, diagonal halved."""
    rows, k, l = np.nonzero(tensor)
    keep = k <= l
    rows, k, l = rows[keep], k[keep], l[keep]
    value = tensor[rows, k, l] * np.where(k == l, 0.5, 1.0)
    return tuple(_freeze(x) for x in (rows, k, l, value))


def structure_constants(basis: GeneratorBasis) -> StructureTensors:
    """Compute f and d by the trace formulas, canonicalize, and densify."""
    g = basis.matrices
    dim = basis.dim
    prod = np.einsum("jab,kbc->jkac", g, g)
    tr3 = np.einsum("jkab,lba->jkl", prod, g)  # Tr(L_j L_k L_l)
    f_raw = ((tr3 - tr3.transpose(1, 0, 2)) / 4j).real
    d_raw = ((tr3 + tr3.transpose(1, 0, 2)) / 4.0).real

    # Canonical triples in lexicographic order: j < k < l for f, j <= k <= l for d.
    j, k, l = np.ix_(np.arange(dim), np.arange(dim), np.arange(dim))
    fj, fk, fl = np.nonzero((j < k) & (k < l) & (np.abs(f_raw) >= SPARSE_THRESHOLD))
    dj, dk, dl = np.nonzero((j <= k) & (k <= l) & (np.abs(d_raw) >= SPARSE_THRESHOLD))
    fv, dv = f_raw[fj, fk, fl], d_raw[dj, dk, dl]

    # Rebuild dense tensors from the canonical store so the symmetry
    # properties are exact by construction.
    f = np.zeros((dim, dim, dim))
    for a, b, c in ((fj, fk, fl), (fk, fl, fj), (fl, fj, fk)):
        f[a, b, c] = fv
        f[b, a, c] = -fv
    d = np.zeros((dim, dim, dim))
    for a, b, c in itertools.permutations((dj, dk, dl)):
        d[a, b, c] = dv

    def entries(*columns):
        return tuple(zip(*(col.tolist() for col in columns)))

    return StructureTensors(
        basis.n,
        _freeze(f),
        _freeze(d),
        entries(fj + 1, fk + 1, fl + 1, fv),
        entries(dj + 1, dk + 1, dl + 1, dv),
        _coo(f),
        _coo(d),
    )


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


def product_reduce(t: StructureTensors, a: np.ndarray, b: np.ndarray) -> LinearElement:
    """Coordinates of (a . L)(b . L) as scalar * I + vector . L."""
    a, b = _check_coords(t.dim, a, b)
    scalar = (2.0 / t.n) * np.dot(a, b)
    return LinearElement(scalar, dot_sym(t, a, b) + 1j * cross(t, a, b))


def to_matrix(basis: GeneratorBasis, elem: LinearElement) -> np.ndarray:
    """Dense matrix of ``scalar * I + vector . L``."""
    scalar, vector = elem
    (vector,) = _check_coords(basis.dim, vector)
    m = np.einsum("j,jab->ab", vector.astype(complex), basis.matrices)
    m[np.arange(basis.n), np.arange(basis.n)] += scalar
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
    vector = np.einsum("ab,jba->j", m, basis.matrices) / 2.0
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
