"""Seeded benchmark inputs, built with numpy alone.

The sampling rule is the one ``sunbch.sampling.random_coords`` follows:
components uniform in [-1, 1], the vector rescaled so the spectral radius
of m . L is a uniform draw from (0, 0.9 pi], and the draw repeated while
the smallest scaled eigenvalue gap is below 1e-6.  The generators are
built here and the eigenvalues come from ``numpy.linalg.eigvalsh``, so no
change to the package can change the inputs a workload sees.
"""

from __future__ import annotations

import hashlib
import zlib

import numpy as np

SPECTRAL_CAP = 0.9 * np.pi
MIN_GAP = 1e-6
MAX_TRIES = 128


def gell_mann(n: int) -> np.ndarray:
    """Generalized Gell-Mann matrices in the package's order, shape (n*n-1, n, n).

    Symmetric off-diagonal pairs (j < k, row-major), antisymmetric ones in
    the same order, then the n - 1 diagonal matrices; Tr(L_j L_k) = 2 delta_jk.
    """
    sym, anti, diag = [], [], []
    for j in range(n):
        for k in range(j + 1, n):
            s = np.zeros((n, n), dtype=complex)
            s[j, k] = s[k, j] = 1.0
            sym.append(s)
            a = np.zeros((n, n), dtype=complex)
            a[j, k], a[k, j] = -1j, 1j
            anti.append(a)
    for l in range(1, n):
        d = np.zeros((n, n), dtype=complex)
        d[np.arange(l), np.arange(l)] = 1.0
        d[l, l] = -l
        diag.append(d * np.sqrt(2.0 / (l * (l + 1))))
    return np.stack(sym + anti + diag)


def draw(generators: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One coordinate vector by the sampler's rule."""
    dim = generators.shape[0]
    for _ in range(MAX_TRIES):
        raw = rng.uniform(-1.0, 1.0, dim)
        target = SPECTRAL_CAP * (1.0 - rng.uniform())  # lands in (0, cap]
        vals = np.linalg.eigvalsh(np.einsum("j,jab->ab", raw, generators))
        radius = float(np.max(np.abs(vals)))
        if radius == 0.0:
            continue
        scale = target / radius
        if np.min(np.diff(vals * scale)) >= MIN_GAP:
            return raw * scale
    raise RuntimeError(f"no acceptable draw within {MAX_TRIES} tries")


def rng_for(workload: str, seed: int) -> np.random.Generator:
    """Stream keyed by (seed, workload name), so workloads never share draws."""
    return np.random.default_rng([seed, zlib.crc32(workload.encode())])


def pair_pool(
    generators: np.ndarray,
    rng: np.random.Generator,
    count: int,
    log10_scale: tuple[float, float] | None = None,
) -> np.ndarray:
    """``count`` operand pairs, shape (count, 2, dim).

    With ``log10_scale = (lo, hi)`` each operand is multiplied by its own
    factor 10**e, which moves it toward the identity.  Each e is uniform in
    (lo, hi), stratified: per side, each of ``count`` equal slices of
    (lo, hi) holds one e, in random order.  How close operands come to the
    identity decides most refusals, so stratifying keeps the refused share
    from varying much between seeds.
    """
    pool = np.empty((count, 2, generators.shape[0]))
    for i in range(count):
        for side in range(2):
            pool[i, side] = draw(generators, rng)
    if log10_scale is not None:
        lo, hi = log10_scale
        for side in range(2):
            e = lo + (hi - lo) * (rng.permutation(count) + rng.uniform(size=count)) / count
            pool[:, side] *= 10.0 ** e[:, None]
    return pool


def digest(*parts) -> str:
    """SHA-256 over arrays (raw float64 bytes) and strings, in order."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(np.ascontiguousarray(part, dtype=np.float64).tobytes())
        else:
            h.update(str(part).encode())
        h.update(b"\0")
    return h.hexdigest()
