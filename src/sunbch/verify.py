"""Seeded property suites over every analytic path in the package.

Each property reduces to a residual that should sit at rounding level;
``run_suite`` evaluates all of them for one (n, seed, trials) choice and
reports the worst residual and the offending instance index per property.

There are two kinds of property.  An exhaustive one (a tensor identity)
takes the basis and tensors and covers every index combination, whatever
the trial count: it returns their number and the residuals of those that
some term reaches, the rest being exact zeros.  A trial property takes
the suite context and a generator, draws its own inputs and returns one
trial's residual; ``run_suite`` owns the trial loop and calls it
``trials`` times.

Each row of ``_PROPERTIES`` carries the N it is restricted to, if any, and
its position fixes its instance stream, ``default_rng([seed, position])``:
one stream per property, so reports for identical configurations are
reproducible byte for byte.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import partial

import numpy as np

from .algebra import (
    _join,
    algebra_matrix,
    cached_algebra,
    cross,
    dot_sym,
    from_matrix,
    to_matrix,
)
from .bch import (
    build_adjoint_kernel,
    compose,
    compose_direct,
    compose_linear,
    similarity,
    similarity_direct,
    su2_compose_closed_form,
)
from .linearize import (
    delinearize_exp,
    exp_matrix,
    exp_minus_i,
    f0_trace,
    linearize_fn,
    log_coords,
    power_table,
)
from .sampling import DEFAULT_SPECTRAL_CAP, random_coords
from .spectral import (
    MAX_N,
    char_poly,
    eig_hermitian,
    expansion_coeffs,
    expansion_coeffs_derivative,
    lagrange_projectors,
)


@dataclass(frozen=True)
class RunConfig:
    """Knobs for one verification run."""

    n: int
    seed: int
    trials: int
    tol: float = 1e-8
    spectral_cap: float = DEFAULT_SPECTRAL_CAP

    def __post_init__(self):
        if not 2 <= self.n <= MAX_N:
            raise ValueError(f"n must lie in 2..{MAX_N}, got {self.n}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        if self.trials < 1:
            raise ValueError(f"trials must be positive, got {self.trials}")
        if not 0 < self.tol < np.inf:
            raise ValueError(f"tol must be positive and finite, got {self.tol}")
        if not 0 < self.spectral_cap < np.inf:
            raise ValueError(
                f"spectral_cap must be positive and finite, got {self.spectral_cap}"
            )


def _maxabs(x) -> float:
    return float(np.max(np.abs(x)))


# ---- exhaustive tensor properties -------------------------------------------
#
# Each returns (checks, slots, residuals): the number of index combinations,
# the ascending row-major flat indices of those some term of the identity
# reaches, and their residuals.  A slot no term reaches is exactly zero.


def _every(residuals):
    return residuals.size, np.arange(residuals.size), residuals


def _orthonormality(basis, tensors):
    g = basis.matrices
    gram = np.einsum("jab,kba->jk", g, g)
    return _every(np.abs(gram - 2.0 * np.eye(basis.dim)).ravel())


def _closure(tensor, sign, scale, basis, tensors):
    """Per pair (j, k), the largest entry of L_j L_k + sign L_k L_j minus
    scale sum_l t_jkl L_l and its trace part (1 + sign) Tr(L_j L_k) I / N,
    the sum accumulated over the tensor's terms into a (dim**2, N**2) array."""
    g, dim = basis.matrices, basis.dim
    prod = np.einsum("jab,kbc->jkac", g, g).reshape(dim, dim, -1)
    bracket = (prod + sign * prod.transpose(1, 0, 2)).reshape(dim * dim, -1)
    slots, gather, value = tensors.terms(tensor)
    recon = np.zeros_like(bracket)
    np.add.at(recon, slots, scale * value[:, None] * g.reshape(dim, -1)[gather])
    recon[:: dim + 1] += (1.0 + sign) * 2.0 / basis.n * np.eye(basis.n).ravel()
    return _every(np.abs(bracket - recon).max(axis=1))


_commutator_closure = partial(_closure, "f", -1.0, 2j)
_anticommutator_closure = partial(_closure, "d", 1.0, 2.0)


def _jacobi(a, b, axes, basis, tensors):
    """|sum over ``axes`` of c.transpose(axis)| per reached slot, where
    c_klpq = sum_m a_klm b_mpq joins the terms of a, read off its ``terms``
    list as (k * dim + l, m, value), with those of b on b's row m.  Each
    transpose relabels the same terms: a term at (k, l, p, q) adds to the
    slot whose index at position i is (k, l, p, q)[axis[i]]."""
    dim, shape = basis.dim, (basis.dim,) * 4
    slots_a, m, value_a = tensors.terms(a)
    order = np.argsort(tensors.terms(b)[0], kind="stable")
    slots_b, q, value_b = (x[order] for x in tensors.terms(b))
    i, j = _join(slots_b // dim, m)
    terms, inverse = np.unique(slots_a[i] * dim**2 + slots_b[j] % dim * dim + q[j], return_inverse=True)
    c = np.bincount(inverse, value_a[i] * value_b[j])
    index = np.unravel_index(terms, shape)
    flat = [np.ravel_multi_index([index[x] for x in axis], shape) for axis in axes]
    # Summed in order, (c + c') + c'' per slot, as the three dense arrays would be.
    slots, inverse = np.unique(np.concatenate(flat), return_inverse=True)
    return dim**4, slots, np.abs(np.bincount(inverse, np.tile(c, len(axes))))


# Cyclic in (k, l, p): f_klm f_mpq + f_lpm f_mkq + f_pkm f_mlq = 0.
_jacobi_ff = partial(_jacobi, "f", "f", ((0, 1, 2, 3), (2, 0, 1, 3), (1, 2, 0, 3)))
# f_klm d_mpq + f_kqm d_mpl + f_kpm d_mlq = 0.
_jacobi_fd = partial(_jacobi, "f", "d", ((0, 1, 2, 3), (0, 3, 2, 1), (0, 2, 1, 3)))


# ---- random-vector identities ------------------------------------------------


def _vectors(ctx, rng, count):
    return [rng.uniform(-1.0, 1.0, ctx.basis.dim) for _ in range(count)]


def _cross_jacobi(ctx, rng):
    t = ctx.tensors
    a, b, c, dd = _vectors(ctx, rng, 4)
    return abs(
        np.dot(cross(t, a, b), cross(t, c, dd))
        + np.dot(cross(t, b, c), cross(t, a, dd))
        + np.dot(cross(t, c, a), cross(t, b, dd))
    )


def _mixed_jacobi(ctx, rng):
    t = ctx.tensors
    a, b, c, dd = _vectors(ctx, rng, 4)
    return abs(
        np.dot(cross(t, a, b), dot_sym(t, c, dd))
        + np.dot(cross(t, a, dd), dot_sym(t, c, b))
        + np.dot(cross(t, a, c), dot_sym(t, b, dd))
    )


def _cross_derivation(ctx, rng):
    t = ctx.tensors
    a, b, c = _vectors(ctx, rng, 3)
    lhs = cross(t, a, dot_sym(t, b, c))
    rhs = dot_sym(t, cross(t, a, b), c) + dot_sym(t, b, cross(t, a, c))
    return _maxabs(lhs - rhs)


def _trace_pairing(ctx, rng):
    a, b = _vectors(ctx, rng, 2)
    lhs = np.trace(algebra_matrix(ctx.basis, a) @ algebra_matrix(ctx.basis, b))
    return abs(lhs - 2.0 * np.dot(a, b))


# ---- spectral properties -------------------------------------------------------


def _cayley_hamilton(ctx, rng):
    m = algebra_matrix(ctx.basis, ctx.sample(rng))
    total = np.zeros_like(m)
    power = np.eye(ctx.basis.n, dtype=complex)
    for a_k in char_poly(m):
        total = total + a_k * power
        power = power @ m
    return _maxabs(total)


def _spectral_exp_unitary(ctx, rng):
    u = exp_matrix(ctx.basis, ctx.sample(rng))
    return max(
        _maxabs(u.conj().T @ u - np.eye(ctx.basis.n)),
        abs(np.linalg.det(u) - 1.0),
    )


def _projector_identities(ctx, rng):
    m = algebra_matrix(ctx.basis, ctx.sample(rng))
    spec = eig_hermitian(m)
    projectors = lagrange_projectors(m, spec)
    v = spec.eigenvectors
    worst = _maxabs(sum(projectors) - np.eye(ctx.basis.n))
    for k, p in enumerate(projectors):
        worst = max(worst, _maxabs(p @ p - p))
        worst = max(worst, _maxabs(p - np.outer(v[:, k], v[:, k].conj())))
    return worst


def _coeff_route_agreement(ctx, rng):
    """The monomial coefficients of exp(-iM) by Horner over the Newton form
    against the paper's moments folded through the characteristic
    polynomial, and sum_k f_k M**k against ``linearize_fn``.

    Both coefficient routes read Opitz's matrix (the first row of exp(-iB)
    from ``exp_divided_differences``), so a fault there would move both
    alike; ``linearize_fn`` sums exp's Taylor series on every draw inside
    the reach, with no divided difference, and so catches it.
    """
    m = ctx.sample(rng)
    mat = algebra_matrix(ctx.basis, m)
    spec = eig_hermitian(mat)
    direct = expansion_coeffs(spec)
    derived = expansion_coeffs_derivative(spec, char_poly(mat))
    series = sum(c * np.linalg.matrix_power(mat, k) for k, c in enumerate(direct))
    form = to_matrix(ctx.basis, linearize_fn(ctx.tensors, ctx.basis, m))
    return max(_maxabs(direct - derived), _maxabs(series - form))


# ---- linearization properties ---------------------------------------------------


def _linearize_vs_dense(ctx, rng):
    m = ctx.sample(rng)
    elem = linearize_fn(ctx.tensors, ctx.basis, m)
    oracle = from_matrix(ctx.basis, exp_matrix(ctx.basis, m))
    return max(abs(elem.scalar - oracle.scalar), _maxabs(elem.vector - oracle.vector))


def _f0_trace_agreement(ctx, rng):
    m = ctx.sample(rng)
    elem = linearize_fn(ctx.tensors, ctx.basis, m)
    return abs(elem.scalar - f0_trace(ctx.basis, m, exp_minus_i))


def _power_table_consistency(ctx, rng):
    m = ctx.sample(rng)
    mat = algebra_matrix(ctx.basis, m)
    power = np.eye(ctx.basis.n, dtype=complex)
    worst = 0.0
    for elem in power_table(ctx.tensors, m, ctx.basis.n):
        worst = max(worst, _maxabs(to_matrix(ctx.basis, elem) - power))
        power = power @ mat
    return worst


def _commuting_family(ctx, rng):
    t = ctx.tensors
    (m,) = _vectors(ctx, rng, 1)
    mm = dot_sym(t, m, m)
    mmm = dot_sym(t, mm, m)
    return max(
        _maxabs(cross(t, m, mm)),
        _maxabs(cross(t, m, mmm)),
        _maxabs(cross(t, mm, mmm)),
    )


def _cubic_regroup(ctx, rng):
    # The four-term regrouping of the exponential, specific to N = 4.
    t = ctx.tensors
    m = ctx.sample(rng)
    spec = eig_hermitian(algebra_matrix(ctx.basis, m))
    e = expansion_coeffs(spec)
    mm = dot_sym(t, m, m)
    mmm = dot_sym(t, mm, m)
    msq = np.dot(m, m)
    scalar = e[0] + e[2] * 0.5 * msq + e[3] * 0.5 * np.dot(mm, m)
    vector = (e[1] + e[3] * 0.5 * msq) * m + e[2] * mm + e[3] * mmm
    elem = linearize_fn(t, ctx.basis, m)
    return max(abs(scalar - elem.scalar), _maxabs(vector - elem.vector))


def _exp_log_round_trip(ctx, rng):
    m = ctx.sample(rng)
    elem = linearize_fn(ctx.tensors, ctx.basis, m)
    return _maxabs(delinearize_exp(ctx.tensors, ctx.basis, elem) - m)


# ---- group-level properties -----------------------------------------------------


def _compose_route_agreement(ctx, rng):
    m, nvec = ctx.sample(rng), ctx.sample(rng)
    return _maxabs(
        compose(ctx.tensors, ctx.basis, m, nvec) - compose_direct(ctx.basis, m, nvec)
    )


def _similarity_route_agreement(ctx, rng):
    m, nvec = ctx.sample(rng), ctx.sample(rng)
    return _maxabs(
        similarity(ctx.tensors, ctx.basis, m, nvec)
        - similarity_direct(ctx.basis, m, nvec)
    )


def _adjoint_invariants(ctx, rng):
    m, nvec = ctx.sample(rng), ctx.sample(rng)
    nprime = similarity(ctx.tensors, ctx.basis, m, nvec)
    mu = linearize_fn(ctx.tensors, ctx.basis, m).conj()
    kplus, kminus = build_adjoint_kernel(ctx.tensors, mu)
    return max(
        abs(np.sqrt(np.dot(nprime, nprime)) - np.sqrt(np.dot(nvec, nvec))),
        abs(np.dot(mu.vector, nvec) - np.dot(mu.vector, nprime)),
        _maxabs(kplus @ nprime - kminus @ nvec),
    )


def _group_closure(ctx, rng):
    m, nvec = ctx.sample(rng), ctx.sample(rng)
    r = compose(ctx.tensors, ctx.basis, m, nvec)
    return _maxabs(
        exp_matrix(ctx.basis, r) - exp_matrix(ctx.basis, m) @ exp_matrix(ctx.basis, nvec)
    )


def _group_associativity(ctx, rng):
    a, b, c = (ctx.sample(rng) for _ in range(3))
    left = compose(ctx.tensors, ctx.basis, compose(ctx.tensors, ctx.basis, a, b), c)
    right = compose(ctx.tensors, ctx.basis, a, compose(ctx.tensors, ctx.basis, b, c))
    return _maxabs(exp_matrix(ctx.basis, left) - exp_matrix(ctx.basis, right))


def _group_identity_inverse(ctx, rng):
    m = ctx.sample(rng)
    ident = _maxabs(compose(ctx.tensors, ctx.basis, m, np.zeros(ctx.basis.dim)) - m)
    minv = log_coords(ctx.basis, exp_matrix(ctx.basis, m).conj().T)
    resid = _maxabs(
        exp_matrix(ctx.basis, compose(ctx.tensors, ctx.basis, m, minv))
        - np.eye(ctx.basis.n)
    )
    return max(ident, resid)


def _su2_closed_form(ctx, rng):
    alpha = rng.uniform(-np.pi, np.pi, 3)
    beta = rng.uniform(-np.pi, np.pi, 3)
    g0, gvec = su2_compose_closed_form(alpha, beta)
    elem = compose_linear(ctx.tensors, ctx.basis, alpha / 2.0, beta / 2.0)
    return max(abs(elem.scalar - g0), _maxabs(elem.vector - (-1j) * gvec))


# (name, check, per trial, the only N it runs at or None).  Appending keeps
# every existing property's stream.
_PROPERTIES = [
    ("orthonormality", _orthonormality, False, None),
    ("commutator_closure", _commutator_closure, False, None),
    ("anticommutator_closure", _anticommutator_closure, False, None),
    ("jacobi_ff", _jacobi_ff, False, None),
    ("jacobi_fd", _jacobi_fd, False, None),
    ("cross_jacobi", _cross_jacobi, True, None),
    ("mixed_jacobi", _mixed_jacobi, True, None),
    ("cross_derivation", _cross_derivation, True, None),
    ("trace_pairing", _trace_pairing, True, None),
    ("cayley_hamilton", _cayley_hamilton, True, None),
    ("spectral_exp_unitary", _spectral_exp_unitary, True, None),
    ("projector_identities", _projector_identities, True, None),
    ("coeff_route_agreement", _coeff_route_agreement, True, None),
    ("linearize_vs_dense", _linearize_vs_dense, True, None),
    ("f0_trace_agreement", _f0_trace_agreement, True, None),
    ("power_table_consistency", _power_table_consistency, True, None),
    ("commuting_family", _commuting_family, True, None),
    ("cubic_regroup", _cubic_regroup, True, 4),
    ("exp_log_round_trip", _exp_log_round_trip, True, None),
    ("compose_route_agreement", _compose_route_agreement, True, None),
    ("similarity_route_agreement", _similarity_route_agreement, True, None),
    ("adjoint_invariants", _adjoint_invariants, True, None),
    ("group_closure", _group_closure, True, None),
    ("group_associativity", _group_associativity, True, None),
    ("group_identity_inverse", _group_identity_inverse, True, None),
    ("su2_closed_form", _su2_closed_form, True, 2),
]


class _Context:
    def __init__(self, config: RunConfig):
        self.config = config
        self.basis, self.tensors = cached_algebra(config.n)

    def sample(self, rng):
        return random_coords(self.basis, rng, spectral_cap=self.config.spectral_cap)


def run_suite(config: RunConfig) -> dict:
    """Run every property at one configuration and build the report."""
    ctx = _Context(config)
    rows = []
    for index, (name, check, per_trial, only_n) in enumerate(_PROPERTIES):
        if only_n not in (None, config.n):
            continue
        if per_trial:
            rng = np.random.default_rng([config.seed, index])
            checks, slots, residuals = _every(np.array([check(ctx, rng) for _ in range(config.trials)]))
        else:
            checks, slots, residuals = check(ctx.basis, ctx.tensors)
        max_residual = float(residuals.max(initial=0.0))
        # The first slot holding the maximum; unreached slots are zeros.
        worst = int(slots[residuals.argmax()]) if max_residual != 0.0 else 0
        rows.append(
            {
                "name": name,
                "checks": int(checks),
                "max_residual": max_residual,
                "worst_index": worst,
                "pass": max_residual <= config.tol,
            }
        )
    failed = [row["name"] for row in rows if not row["pass"]]
    return {**asdict(config), "properties": rows, "failed": failed, "pass": not failed}
