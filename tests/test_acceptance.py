"""Acceptance gate: eight oracle- and property-based criteria.

Each test prints its worst residual next to the pinned tolerance, so a
full run doubles as a numerical health report.  Every criterion draws
its instances from fixed seeds; a failure here reproduces exactly.
"""

import numpy as np

from sunbch import (
    algebra_matrix,
    apply_spectral,
    build_adjoint_kernel,
    cached_algebra,
    char_poly,
    compose,
    compose_direct,
    compose_linear,
    cross,
    delinearize_exp,
    dot_sym,
    eig_hermitian,
    exp_matrix,
    expansion_coeffs,
    expansion_coeffs_derivative,
    from_matrix,
    linearize_fn,
    random_coords,
    similarity,
    similarity_direct,
    su2_compose_closed_form,
)
from sunbch.linearize import exp_minus_i

from conftest import loop_canonicalization

SEED = 20260401


def report(label, worst, tol):
    print(f"{label}: worst residual {worst:.3e} (tolerance {tol:g})")
    assert worst < tol


def test_criterion_1_su2_closed_form():
    """Closed-form half-angle composition vs the general pipeline, 1000 pairs."""
    basis, t = cached_algebra(2)
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(1000):
        alpha = rng.uniform(-np.pi, np.pi, 3)
        beta = rng.uniform(-np.pi, np.pi, 3)
        g0, gvec = su2_compose_closed_form(alpha, beta)
        elem = compose_linear(t, basis, alpha / 2.0, beta / 2.0)
        worst = max(
            worst,
            abs(elem.scalar - g0),
            float(np.max(np.abs(elem.vector - (-1j) * gvec))),
        )
    report("criterion 1, su(2) closed form", worst, 1e-10)


def test_criterion_2_compose_oracle_equivalence():
    """Coordinate-space composition vs the dense-product logarithm."""
    worst = 0.0
    for n in (2, 3, 4, 5):
        basis, t = cached_algebra(n)
        rng = np.random.default_rng([SEED, n])
        for _ in range(200):
            m = random_coords(basis, rng)
            nvec = random_coords(basis, rng)
            delta = compose(t, basis, m, nvec) - compose_direct(basis, m, nvec)
            worst = max(worst, float(np.max(np.abs(delta))))
    report("criterion 2, compose route agreement", worst, 1e-8)


def test_criterion_3_similarity_oracle_equivalence():
    """Coordinate-product conjugation vs dense conjugation, plus its invariants.

    The invariants are the norm of n, the scalar mu . n, and the paper's
    adjoint-kernel relation K+ n' = K- n.
    """
    worst = 0.0
    worst_invariant = 0.0
    for n in (2, 3, 4):
        basis, t = cached_algebra(n)
        rng = np.random.default_rng([SEED, n])
        for _ in range(200):
            m = random_coords(basis, rng)
            nvec = random_coords(basis, rng)
            nprime = similarity(t, basis, m, nvec)
            delta = nprime - similarity_direct(basis, m, nvec)
            worst = max(worst, float(np.max(np.abs(delta))))
            mu = linearize_fn(t, basis, m).conj()
            kernel = build_adjoint_kernel(t, mu)
            worst_invariant = max(
                worst_invariant,
                abs(np.linalg.norm(nprime) - np.linalg.norm(nvec)),
                abs(np.dot(mu.vector, nprime) - np.dot(mu.vector, nvec)),
                float(np.max(np.abs(kernel.kplus @ nprime - kernel.kminus @ nvec))),
            )
    print(f"criterion 3, invariants: worst {worst_invariant:.3e} (tolerance 1e-09)")
    assert worst_invariant < 1e-9
    report("criterion 3, similarity route agreement", worst, 1e-8)


def test_criterion_4_algebra_identity_suite():
    """Tensor identities exhaustively, vector identities on random draws.

    The exhaustive identities contract the dense trace oracle, whose
    canonical entries the stored tensors must reproduce exactly."""
    worst_exhaustive = 0.0
    for n in (2, 3):
        basis, t = cached_algebra(n)
        f, d, f_entries, d_entries = loop_canonicalization(basis)
        assert (t.f_entries, t.d_entries) == (f_entries, d_entries)
        g = basis.matrices
        dim = basis.dim
        gram = np.einsum("jab,kba->jk", g, g)
        prod = np.einsum("jab,kbc->jkac", g, g)
        comm = prod - prod.transpose(1, 0, 2, 3)
        anti = prod + prod.transpose(1, 0, 2, 3)
        comm_recon = 2j * np.einsum("jkl,lab->jkab", f, g)
        anti_recon = 2.0 * np.einsum("jkl,lab->jkab", d, g).astype(complex)
        anti_recon += (4.0 / n) * np.einsum("jk,ab->jkab", np.eye(dim), np.eye(n))
        jac_ff = (
            np.einsum("klm,mpq->klpq", f, f)
            + np.einsum("lpm,mkq->klpq", f, f)
            + np.einsum("pkm,mlq->klpq", f, f)
        )
        jac_fd = (
            np.einsum("klm,mpq->klpq", f, d)
            + np.einsum("kqm,mpl->klpq", f, d)
            + np.einsum("kpm,mlq->klpq", f, d)
        )
        worst_exhaustive = max(
            worst_exhaustive,
            float(np.max(np.abs(gram - 2.0 * np.eye(dim)))),
            float(np.max(np.abs(comm - comm_recon))),
            float(np.max(np.abs(anti - anti_recon))),
            float(np.max(np.abs(jac_ff))),
            float(np.max(np.abs(jac_fd))),
        )
    print(
        f"criterion 4, exhaustive identities: worst {worst_exhaustive:.3e}"
        " (tolerance 1e-12)"
    )
    assert worst_exhaustive < 1e-12

    worst_vector = 0.0
    for n in (2, 3, 4):
        basis, t = cached_algebra(n)
        rng = np.random.default_rng([SEED, 4, n])
        for _ in range(100):
            a, b, c, dd = (rng.uniform(-1, 1, basis.dim) for _ in range(4))
            cyc = (
                np.dot(cross(t, a, b), cross(t, c, dd))
                + np.dot(cross(t, b, c), cross(t, a, dd))
                + np.dot(cross(t, c, a), cross(t, b, dd))
            )
            mixed = (
                np.dot(cross(t, a, b), dot_sym(t, c, dd))
                + np.dot(cross(t, a, dd), dot_sym(t, c, b))
                + np.dot(cross(t, a, c), dot_sym(t, b, dd))
            )
            deriv = cross(t, a, dot_sym(t, b, c)) - (
                dot_sym(t, cross(t, a, b), c) + dot_sym(t, b, cross(t, a, c))
            )
            worst_vector = max(
                worst_vector, abs(cyc), abs(mixed), float(np.max(np.abs(deriv)))
            )
    report("criterion 4, vector identities", worst_vector, 1e-10)


def test_criterion_5_linearized_spectral_theorem():
    """(f0, fvec) from the power table vs the all-matrix spectral route."""
    worst = 0.0
    worst_round_trip = 0.0
    for n in (2, 3, 4, 5):
        basis, t = cached_algebra(n)
        rng = np.random.default_rng([SEED, 5, n])
        for _ in range(50):
            m = random_coords(basis, rng)
            elem = linearize_fn(t, basis, m)
            dense = apply_spectral(
                eig_hermitian(algebra_matrix(basis, m)), exp_minus_i
            )
            oracle = from_matrix(basis, dense)
            worst = max(
                worst,
                abs(elem.scalar - oracle.scalar),
                float(np.max(np.abs(elem.vector - oracle.vector))),
            )
            recovered = delinearize_exp(t, basis, elem)
            worst_round_trip = max(
                worst_round_trip, float(np.max(np.abs(recovered - m)))
            )
    print(
        f"criterion 5, exp round trip: worst {worst_round_trip:.3e}"
        " (tolerance 1e-09)"
    )
    assert worst_round_trip < 1e-9
    report("criterion 5, linearized spectral theorem", worst, 1e-9)


def test_criterion_6_su4_commuting_family():
    """m, m*m and (m*m)*m commute; the quartic regrouping matches linearize."""
    basis, t = cached_algebra(4)
    rng = np.random.default_rng([SEED, 6])
    worst_wedge = 0.0
    for _ in range(100):
        m = rng.uniform(-1, 1, basis.dim)
        mm = dot_sym(t, m, m)
        mmm = dot_sym(t, mm, m)
        worst_wedge = max(
            worst_wedge,
            float(np.max(np.abs(cross(t, m, mm)))),
            float(np.max(np.abs(cross(t, m, mmm)))),
            float(np.max(np.abs(cross(t, mm, mmm)))),
        )
    print(f"criterion 6, commuting family: worst {worst_wedge:.3e} (tolerance 1e-10)")
    assert worst_wedge < 1e-10

    worst_regroup = 0.0
    for _ in range(100):
        m = random_coords(basis, rng)
        spec = eig_hermitian(algebra_matrix(basis, m))
        e = expansion_coeffs(spec)
        mm = dot_sym(t, m, m)
        mmm = dot_sym(t, mm, m)
        msq = float(np.dot(m, m))
        scalar = e[0] + e[2] * 0.5 * msq + e[3] * 0.5 * np.dot(mm, m)
        vector = (e[1] + e[3] * 0.5 * msq) * m + e[2] * mm + e[3] * mmm
        elem = linearize_fn(t, basis, m)
        worst_regroup = max(
            worst_regroup,
            abs(scalar - elem.scalar),
            float(np.max(np.abs(vector - elem.vector))),
        )
    report("criterion 6, quartic regrouping", worst_regroup, 1e-9)


def test_criterion_7_coefficient_formula_equivalence():
    """Vandermonde solve vs inverse-gap moments, 100 instances per n."""
    worst = 0.0
    for n in (2, 3, 4):
        basis, _ = cached_algebra(n)
        rng = np.random.default_rng([SEED, 7, n])
        for _ in range(100):
            m = algebra_matrix(basis, random_coords(basis, rng))
            spec = eig_hermitian(m)
            direct = expansion_coeffs(spec)
            derived = expansion_coeffs_derivative(spec, char_poly(m))
            worst = max(worst, float(np.max(np.abs(direct - derived))))
    report("criterion 7, coefficient formula equivalence", worst, 1e-8)


def test_criterion_8_group_axioms():
    """Unitarity, unimodularity, associativity, identity and inverse."""
    worst = 0.0
    for n in (2, 3, 4):
        basis, t = cached_algebra(n)
        rng = np.random.default_rng([SEED, 8, n])
        eye = np.eye(n)
        zero = np.zeros(basis.dim)
        for _ in range(20):
            a = random_coords(basis, rng)
            b = random_coords(basis, rng)
            c = random_coords(basis, rng)
            u = exp_matrix(basis, a)
            worst = max(
                worst,
                float(np.max(np.abs(u.conj().T @ u - eye))),
                abs(np.linalg.det(u) - 1.0),
            )
            left = compose(t, basis, compose(t, basis, a, b), c)
            right = compose(t, basis, a, compose(t, basis, b, c))
            worst = max(
                worst,
                float(np.max(np.abs(exp_matrix(basis, left) - exp_matrix(basis, right)))),
                float(np.max(np.abs(compose(t, basis, a, zero) - a))),
                float(np.max(np.abs(exp_matrix(basis, compose(t, basis, a, -a)) - eye))),
            )
    report("criterion 8, group axioms", worst, 1e-8)
