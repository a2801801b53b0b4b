"""Seeded generation of well-conditioned algebra elements for checks.

Components are drawn uniformly from [-1, 1] and the vector is rescaled so
the spectral radius of m . L equals a uniform draw from (0, cap].  Draws
whose scaled eigenvalue gaps fall below ``MIN_GAP`` are rejected: the
Lagrange projectors that ``verify`` checks need a simple spectrum (no
other route does).  A cap too small for any draw to meet ``MIN_GAP`` is a
ValueError.  Everything is a pure function of the generator state, so
seeded runs are reproducible.
"""

from __future__ import annotations

import numpy as np

from .algebra import GeneratorBasis, algebra_matrix
from .spectral import _eigvalsh, _min_gap

DEFAULT_SPECTRAL_CAP = 0.9 * np.pi
MIN_GAP = 1e-6
_MAX_TRIES = 128


def random_coords(
    basis: GeneratorBasis,
    rng: np.random.Generator,
    spectral_cap: float = DEFAULT_SPECTRAL_CAP,
) -> np.ndarray:
    if not 0 < spectral_cap < np.inf:
        raise ValueError(f"spectral_cap must be positive and finite, got {spectral_cap}")
    for _ in range(_MAX_TRIES):
        raw = rng.uniform(-1.0, 1.0, basis.dim)
        target = spectral_cap * (1.0 - rng.uniform())  # lands in (0, cap]
        vals = _eigvalsh(algebra_matrix(basis, raw))
        radius = float(np.max(np.abs(vals)))
        if radius == 0.0:
            continue
        scale = target / radius
        if _min_gap(vals * scale) >= MIN_GAP:
            return raw * scale
    raise ValueError(
        f"no draw within {_MAX_TRIES} tries kept its eigenvalue gaps at least "
        f"min_gap {MIN_GAP} under spectral_cap {spectral_cap}"
    )
