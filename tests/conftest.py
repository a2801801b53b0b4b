"""Shared fixtures and the external dense oracles.

Library code never touches scipy; tests use scipy.linalg.expm as an
independent reference for everything exponential, and the dense trace
formulas for the structure tensors, which the library stores only as
index arrays.
"""

import functools
import itertools

import numpy as np
import pytest
import scipy.linalg

from sunbch import algebra_matrix, build_basis, cached_algebra, from_matrix, random_coords
from sunbch.algebra import SPARSE_THRESHOLD


def dense_exp(basis, coords):
    """Oracle exp(-i coords . generators) via scipy, not package code."""
    return scipy.linalg.expm(-1j * algebra_matrix(basis, coords))


def dense_conjugate(basis, m, nvec):
    """Oracle exp(-iM) N exp(iM) via scipy."""
    u = dense_exp(basis, m)
    return u @ algebra_matrix(basis, nvec) @ u.conj().T


def conjugated(basis, diagonal, rng):
    """The element U diag(diagonal) U' for a Haar-random unitary U."""
    n = basis.n
    q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    q = q * (np.diag(r) / np.abs(np.diag(r)))
    return from_matrix(basis, q @ np.diag(diagonal) @ q.conj().T)


def rotated(basis, eigenvalues, rng):
    """Coordinates of U diag(eigenvalues) U' for a Haar-random unitary U."""
    return conjugated(basis, eigenvalues, rng).vector.real


@pytest.fixture
def algebra2():
    return cached_algebra(2)


@pytest.fixture
def algebra3():
    return cached_algebra(3)


@pytest.fixture
def algebra4():
    return cached_algebra(4)


def seeded_samples(basis, seed, count, **kwargs):
    rng = np.random.default_rng(seed)
    return [random_coords(basis, rng, **kwargs) for _ in range(count)]


def loop_canonicalization(basis):
    """Oracle for ``structure_constants``: the dense trace formulas,
    Tr(L_j L_k L_l) over every index triple, canonicalized element by element."""
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


@functools.cache
def trace_tensors(n):
    """Dense f and d for one N from ``loop_canonicalization``, read-only."""
    f, d, _, _ = loop_canonicalization(build_basis(n))
    f.flags.writeable = d.flags.writeable = False
    return f, d
