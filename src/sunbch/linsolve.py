"""Dense complex linear algebra kernels: LU with partial pivoting.

The systems solved here are tiny (never larger than N*N-1 for N <= 8), so
a straightforward row-pivoted elimination is both adequate and easy to
audit.  Row operations are vectorized; only the pivot search is a loop.
"""

from __future__ import annotations

import numpy as np

from .errors import SingularMatrixError

__all__ = ["lu_factor", "solve", "inverse", "determinant", "condition_number"]


def lu_factor(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """Factor ``a`` in place style: returns (lu, perm, sign).

    ``lu`` packs L (unit lower, below the diagonal) and U (on and above).
    ``perm`` maps factored row -> original row.  ``sign`` is the permutation
    parity, needed for determinants.
    """
    a = np.array(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    n = a.shape[0]
    perm = np.arange(n)
    sign = 1
    scale = np.max(np.abs(a)) if n else 0.0
    tiny = max(scale, 1.0) * n * np.finfo(float).eps
    for col in range(n):
        pivot_row = col + int(np.argmax(np.abs(a[col:, col])))
        if np.abs(a[pivot_row, col]) <= tiny:
            raise SingularMatrixError(
                f"no usable pivot in column {col} (|pivot| <= {tiny:.3e})"
            )
        if pivot_row != col:
            a[[col, pivot_row]] = a[[pivot_row, col]]
            perm[[col, pivot_row]] = perm[[pivot_row, col]]
            sign = -sign
        factors = a[col + 1:, col] / a[col, col]
        a[col + 1:, col] = factors
        a[col + 1:, col + 1:] -= np.outer(factors, a[col, col + 1:])
    return a, perm, sign


def solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``a @ x = b`` for one right-hand side or a stack of columns."""
    lu, perm, _ = lu_factor(a)
    n = lu.shape[0]
    b = np.asarray(b, dtype=complex)
    single = b.ndim == 1
    x = b.reshape(n, -1)[perm].copy()
    for col in range(n):                     # forward: L y = P b
        x[col + 1:] -= np.outer(lu[col + 1:, col], x[col])
    for col in range(n - 1, -1, -1):         # backward: U x = y
        x[col] /= lu[col, col]
        if col:
            x[:col] -= np.outer(lu[:col, col], x[col])
    return x[:, 0] if single else x


def inverse(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a)
    return solve(a, np.eye(a.shape[0], dtype=complex))


def determinant(a: np.ndarray) -> complex:
    try:
        lu, _, sign = lu_factor(a)
    except SingularMatrixError:
        return 0.0
    return sign * complex(np.prod(np.diag(lu)))


def condition_number(a: np.ndarray) -> float:
    """1-norm condition estimate via the explicit inverse; inf if singular."""
    a = np.asarray(a)
    try:
        inv = inverse(a)
    except SingularMatrixError:
        return np.inf
    return float(np.max(np.abs(a).sum(axis=0)) * np.max(np.abs(inv).sum(axis=0)))
