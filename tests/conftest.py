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


def mpmath_element(n, coords):
    """The mpmath matrix coords . L, from the generators' exact entries, at
    the caller's working precision; the coordinates are its only rounded
    input."""
    import mpmath

    pairs = [(j, k) for j in range(n) for k in range(j + 1, n)]
    x = [mpmath.mpf(float(c)) for c in coords]
    big = mpmath.matrix(n, n)
    for (j, k), a, b in zip(pairs, x, x[len(pairs):]):
        big[j, k] += a - 1j * b
        big[k, j] += a + 1j * b
    for l, c in enumerate(x[2 * len(pairs):], 1):
        w = mpmath.sqrt(mpmath.mpf(2) / (l * (l + 1)))
        for a in range(l):
            big[a, a] += c * w
        big[l, l] -= l * c * w
    return big


def mpmath_coords(n, e):
    """(e0, e) of an mpmath matrix E = e0 I + e . L, e0 = Tr E / N and
    e_k = Tr(E L_k) / 2, rounded once to complex doubles."""
    import mpmath

    pairs = [(j, k) for j in range(n) for k in range(j + 1, n)]
    f0 = sum(e[a, a] for a in range(n)) / n
    f = [(e[k, j] + e[j, k]) / 2 for j, k in pairs]
    f += [1j * (e[j, k] - e[k, j]) / 2 for j, k in pairs]
    for l in range(1, n):
        w = mpmath.sqrt(mpmath.mpf(2) / (l * (l + 1)))
        f.append((sum(e[a, a] for a in range(l)) - l * e[l, l]) * w / 2)
    return complex(f0), np.array([complex(c) for c in f])


def mpmath_conjugate(n, m, nvec):
    """n' of exp(-iM) (n . L) exp(iM) = n' . L from mpmath's ``expm`` at 40
    digits, rounded once to double; m and n are the only rounded inputs."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        u = mpmath.expm(-1j * mpmath_element(n, m))
        return mpmath_coords(n, u * mpmath_element(n, nvec) * u.transpose_conj())[1].real


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
