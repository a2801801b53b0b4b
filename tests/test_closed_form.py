"""The values-only logarithms (arcsin's series near the identity, and the
Newton form over LAPACK's eigenvalues of u past the gate, at every N), and
the degenerate spectra the Newton route accepts."""

import math

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize

from sunbch import (
    LinearElement,
    algebra_matrix,
    cached_algebra,
    compose,
    compose_direct,
    compose_linear,
    delinearize_exp,
    exp_matrix,
    from_matrix,
    linearize_fn,
    log_coords,
    random_coords,
    similarity,
    similarity_direct,
    to_matrix,
)
from sunbch import linearize
from sunbch.errors import BranchCutError, ConvergenceError, DegenerateSpectrumError
from sunbch.linearize import LOG_GATE, TIE_CUT, _log_past_gate

from conftest import conjugated, dense_exp, rotated


@pytest.mark.parametrize("n", range(2, 9))
def test_values_only_log_against_log_coords(n):
    """g = exp(-i m . L) from ``linearize_fn`` at scales 1e-2..1, on both
    sides of the gate.  Inside it the values-only route returns m within
    1e-12; outside it ``delinearize_exp`` takes the values-only route past
    the gate, at every N, and ``log_coords`` only where that declines.

    Both agree with ``log_coords`` within 1e-13.  ``log_coords`` takes its
    eigenvectors from one Hermitian eigenproblem, the Cayley transform of
    u, whose eigenvalues keep their relative accuracy next to I; the route
    past the gate takes LAPACK's eigenvalues of u itself, within about eps
    since u is normal, and loses at most the rounding of its divided
    differences over them.
    """
    basis, t = cached_algebra(n)
    rng = np.random.default_rng(200 + n)
    inside = outside = 0
    worst_inside = worst_agree = worst_oracle = 0.0
    for scale in (1e-2, 1e-1, 0.3, 1.0):
        for _ in range(15):
            m = random_coords(basis, rng) * scale
            g = linearize_fn(t, basis, m)
            got = delinearize_exp(t, basis, g)
            oracle = log_coords(basis, to_matrix(basis, g))
            worst_agree = max(worst_agree, float(np.max(np.abs(got - oracle))))
            worst_oracle = max(worst_oracle, float(np.max(np.abs(oracle - m))))
            if 2 * n * (1.0 - g.scalar.real) <= LOG_GATE:
                inside += 1
                worst_inside = max(worst_inside, float(np.max(np.abs(got - m))))
            else:
                outside += 1
    print(
        f"N = {n}: {inside} inside, {outside} outside the gate; values-only {worst_inside:.1e} "
        f"from m, log_coords {worst_oracle:.1e} from m, routes {worst_agree:.1e} apart"
    )
    assert inside and outside
    assert worst_inside <= 1e-12
    assert worst_agree <= 1e-13


@pytest.mark.parametrize("n", range(2, 9))
def test_values_only_log_identity_is_exact(n):
    basis, t = cached_algebra(n)
    got = delinearize_exp(t, basis, LinearElement(1.0, np.zeros(t.dim, dtype=complex)))
    np.testing.assert_array_equal(got, np.zeros(t.dim))


@pytest.mark.parametrize("n", [2, 3, 4, 8])
def test_values_only_log_refuses_like_log_coords(n):
    """On both sides of the gate a non-unitary g and a g with det != 1
    raise the ValueErrors ``log_coords`` raises."""
    basis, t = cached_algebra(n)
    m = random_coords(basis, np.random.default_rng(n))
    for m, inside in ((0.05 * m, True), (1.5 * m / np.linalg.norm(m), False)):
        g = linearize_fn(t, basis, m)
        phase = np.exp(0.1j)
        turned = LinearElement(phase * g.scalar, phase * g.vector)
        for elem in (g, turned):
            assert (2 * n * (1.0 - elem.scalar.real) <= LOG_GATE) == inside
        stretched = LinearElement(g.scalar, 1.01 * g.vector)
        with pytest.raises(ValueError, match="unitary"):
            delinearize_exp(t, basis, stretched)
        with pytest.raises(ValueError, match="unitary"):
            log_coords(basis, to_matrix(basis, stretched))
        with pytest.raises(ValueError, match="det u is not 1"):
            delinearize_exp(t, basis, turned)
        with pytest.raises(ValueError, match="det u is not 1"):
            log_coords(basis, to_matrix(basis, turned))


def mpmath_log(basis, g):
    """Real coordinates of R = i logm(u), u = g0 I + g . L, from mpmath's
    ``logm`` at 40 digits."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        r = mpmath.logm(mpmath.matrix(to_matrix(basis, g).tolist())) * 1j
        r = np.array([[complex(x) for x in row] for row in r.tolist()])
    return from_matrix(basis, r).vector.real


def inside_gate_elements(basis, t, rng):
    """Elements inside LOG_GATE from three sets: products of two sampler
    draws scaled by 1e-12 .. 0.6 (those that land inside the gate),
    Haar-rotated phases at 0.9-1.0 of the gate, and phase clusters of two
    (three from N = 4) split by 1e-12."""
    n = basis.n
    for scale in (1e-12, 1e-8, 1e-4, 1e-2, 0.1, 0.3, 0.6):
        for _ in range(2):
            g = compose_linear(
                t, basis, scale * random_coords(basis, rng), scale * random_coords(basis, rng)
            )
            if 2 * n * (1.0 - g.scalar.real) <= LOG_GATE:
                yield g
    for _ in range(3):
        theta = rng.standard_normal(n)
        theta -= theta.mean()
        target = rng.uniform(0.9, 1.0) * LOG_GATE
        stretch = scipy.optimize.brentq(
            lambda x: float(np.sum(4.0 * np.sin(0.5 * x * theta) ** 2)) - target,
            0.0, 0.25 * np.pi / np.max(np.abs(theta)),
        )
        yield conjugated(basis, np.exp(-1j * stretch * theta), rng)
    for _ in range(2):
        theta = rng.uniform(-0.3, 0.3, n)
        theta[1] = theta[0] + 1e-12
        if n >= 4:
            theta[2] = theta[0] - 1e-12
        yield conjugated(basis, np.exp(-1j * (theta - theta.mean())), rng)


@pytest.mark.parametrize("n", [2, 3, 4, 8])
def test_arcsin_series_against_mpmath_logm(n):
    """Inside the gate ``delinearize_exp`` sums arcsin's series on
    sin R in coordinates; on every set of ``inside_gate_elements`` its r
    lies within 1e-15 of |r| of the 40-digit ``mpmath.logm`` of the same
    u."""
    basis, t = cached_algebra(n)
    worst, count = 0.0, 0
    for g in inside_gate_elements(basis, t, np.random.default_rng(900 + n)):
        exact = mpmath_log(basis, g)
        error = np.linalg.norm(delinearize_exp(t, basis, g) - exact) / np.linalg.norm(exact)
        worst, count = max(worst, float(error)), count + 1
    print(f"N = {n}: {count} elements, worst relative error {worst:.1e}")
    assert count >= 12
    assert worst <= 1e-15


@pytest.mark.parametrize("n", [2, 3, 4, 8])
def test_inside_gate_solves_no_eigenproblem(monkeypatch, n):
    """Inside the gate no eigenvalue is computed: with LAPACK's Hermitian
    drivers, its nonsymmetric ``eigvals`` and ``linearize._eigenvalues`` made
    to raise, ``delinearize_exp`` still returns the values it returned
    before."""
    basis, t = cached_algebra(n)
    elements = list(inside_gate_elements(basis, t, np.random.default_rng(950 + n)))
    want = [delinearize_exp(t, basis, g) for g in elements]

    def refuse(*args, **kwargs):
        raise AssertionError("an eigenproblem was solved inside the gate")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    monkeypatch.setattr(np.linalg, "eigvals", refuse)
    monkeypatch.setattr(linearize, "_eigenvalues", refuse)
    for g, r in zip(elements, want):
        np.testing.assert_array_equal(delinearize_exp(t, basis, g), r)


def test_arcsin_series_stops_within_sixty_terms():
    """At the gate's bound rho = ||sin R||_F = 2 sin(pi/8) the series sums
    at most 60 terms, and the tail bound c_K rho**(2K+1) / (1 - rho**2) of
    the first term left out is below a roundoff of rho."""
    rho = 2.0 * math.sin(math.pi / 8.0)
    coeffs = linearize._arcsin_terms(rho * rho)
    k = len(coeffs)
    assert k <= 60
    assert coeffs[:3] == [1.0, 1.0 / 6.0, 3.0 / 40.0]
    c = math.comb(2 * k, k) / (4 ** k * (2 * k + 1))
    assert c * rho ** (2 * k + 1) / (1.0 - rho * rho) < 2.0 ** -53 * rho
    assert linearize._arcsin_terms(0.0) == [1.0]


def past_gate_products(basis, t, rng, count):
    """``count`` sampler products g = compose_linear(m, n) past LOG_GATE."""
    n = basis.n
    while count:
        g = compose_linear(t, basis, random_coords(basis, rng), random_coords(basis, rng))
        if 2 * n * (1.0 - g.scalar.real) > LOG_GATE:
            count -= 1
            yield g


@pytest.mark.parametrize("n", range(2, 9))
def test_log_past_gate_on_sampler_products(n):
    """500 sampler products past the gate per N.  Where the phase sum is
    0 (no 2 pi shift), i logm(u) from scipy is R: the values-only route is
    within 1e-12 of it, and ``log_coords``' distance to it is printed.
    Where a 2 pi shift is needed, the route agrees with ``log_coords``
    within 1e-11.  For N <= 6 at most 1 % is declined.  At N = 7 and 8
    u's eigenvalues crowd the circle, so more chord products fall below
    CHORD_CUT (10 and 17 of these 500 draws), and the bound is the 5 % of
    ``test_compose_past_the_gate_rarely_reaches_eig_unitary``."""
    basis, t = cached_algebra(n)
    declined = shifted = 0
    worst = {"route": 0.0, "log_coords": 0.0, "shifted": 0.0}
    for g in past_gate_products(basis, t, np.random.default_rng(600 + n), 500):
        u = to_matrix(basis, g)
        got = _log_past_gate(basis, u)
        if got is None:
            declined += 1
            continue
        principal = from_matrix(basis, 1j * scipy.linalg.logm(u))
        if abs(principal.scalar) > 1e-9:
            shifted += 1
            worst["shifted"] = max(worst["shifted"], float(np.max(np.abs(got - log_coords(basis, u)))))
            continue
        ref = principal.vector.real
        worst["route"] = max(worst["route"], float(np.max(np.abs(got - ref))))
        worst["log_coords"] = max(worst["log_coords"], float(np.max(np.abs(log_coords(basis, u) - ref))))
    print(
        f"N = {n}: {declined} of 500 declined, {shifted} shifted; from i logm(u): route "
        f"{worst['route']:.1e}, log_coords {worst['log_coords']:.1e}; shifted: route "
        f"{worst['shifted']:.1e} from log_coords"
    )
    assert worst["route"] <= 1e-12
    assert worst["shifted"] <= 1e-11
    assert declined <= (5 if n <= 6 else 25)


@pytest.mark.parametrize("n", range(2, 9))
def test_log_past_gate_one_eigvals_call(monkeypatch, n):
    """On 20 sampler products past the gate that the values-only route
    answers, ``delinearize_exp`` solves one eigenproblem: one
    ``np.linalg.eigvals`` call on u, and no ``eigh`` or ``eigvalsh``."""
    basis, t = cached_algebra(n)
    elements = [
        g for g in past_gate_products(basis, t, np.random.default_rng(620 + n), 20)
        if _log_past_gate(basis, to_matrix(basis, g)) is not None
    ]
    assert len(elements) >= 15
    calls = []
    real = np.linalg.eigvals

    def refuse(*args, **kwargs):
        raise AssertionError("a Hermitian eigenproblem was solved past the gate")

    monkeypatch.setattr(np.linalg, "eigvals", lambda u: calls.append(u) or real(u))
    monkeypatch.setattr(np.linalg, "eigh", refuse)
    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    for g in elements:
        calls.clear()
        delinearize_exp(t, basis, g)
        assert len(calls) == 1
        np.testing.assert_array_equal(calls[0], to_matrix(basis, g))


@pytest.mark.parametrize("n", [3, 8])
def test_log_past_gate_solver_failure_is_convergence_error(monkeypatch, n):
    """A LAPACK failure in ``eigvals`` past the gate reaches the caller as
    the package's typed refusal, with N and ||u||_F = sqrt(N) in its
    message."""
    basis, t = cached_algebra(n)
    (g,) = past_gate_products(basis, t, np.random.default_rng(640 + n), 1)

    def fail(_):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvals", fail)
    with pytest.raises(ConvergenceError, match=f"N = {n}") as info:
        delinearize_exp(t, basis, g)
    assert f"||m||_F = {math.sqrt(n):.3e}" in str(info.value)


def targeted_spectra(n):
    """(label, eigenphases summing to 0 mod 2 pi) past the gate: a 2 pi
    shift (s = 1, then s = -1; the shift boundary between 2.9 and 2.2, a
    gap of 0.7, far above TIE_CUT), one phase 1e-2 to 1e-6 from the cut at
    pi, and a repeated phase."""
    if n > 2:
        shift = [2.9, 2.2] + [0.3 + 0.25 * k for k in range(n - 3)]
        shift.append(2.0 * np.pi - sum(shift))
        assert abs(shift[-1]) < np.pi and shift[0] - max(shift[1:]) > TIE_CUT
        yield "shift s = 1", shift
        yield "shift s = -1", [-x for x in shift]
        yield "repeated", [1.2, 1.2] + [-2.4 / (n - 2)] * (n - 2)
    for distance in (1e-2, 1e-4, 1e-6):
        near = [np.pi - distance] + [0.5] * (n - 2)
        yield f"{distance:g} from the cut", near + [-sum(near)]


@pytest.mark.parametrize("n", range(2, 9))
def test_log_past_gate_targeted_spectra(n):
    """A 2 pi shift, a phase near the cut and a repeated phase: each is
    answered (by the values-only route, or by ``log_coords`` where it
    declines) with exp(-i r . L) within 1e-10 of the dense matrix, never
    refused.  The shifts are answered by the values-only route, so its
    shift rule runs."""
    basis, t = cached_algebra(n)
    rng = np.random.default_rng(700 + n)
    for label, phases in targeted_spectra(n):
        # log_coords reads the eigenphases of g as ``phases``.
        g = conjugated(basis, np.exp(1j * np.array(phases)), rng)
        assert 2 * n * (1.0 - g.scalar.real) > LOG_GATE
        declined = _log_past_gate(basis, to_matrix(basis, g)) is None
        r = delinearize_exp(t, basis, g)
        residual = float(np.max(np.abs(dense_exp(basis, r) - to_matrix(basis, g))))
        print(f"N = {n}, {label}: {'declined' if declined else 'answered'}, residual {residual:.1e}")
        assert residual <= 1e-10
        if label.startswith("shift"):
            assert not declined


def mpmath_shifted_log(basis, g):
    """Real coordinates of the traceless R with exp(-i R) = u, u = g0 I +
    g . L, for a u whose principal phases sum to 2 pi: mpmath's eigenvalues
    z_k and eigenvectors V of u at 40 digits, the largest phase arg z_k
    less 2 pi, and R = V diag(-arg z) V**-1."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        z, v = mpmath.eig(mpmath.matrix(to_matrix(basis, g).tolist()))
        phases = [mpmath.arg(x) for x in z]
        top = max(range(len(phases)), key=phases.__getitem__)
        phases[top] -= 2 * mpmath.pi
        r = v * mpmath.diag([-x for x in phases]) * mpmath.inverse(v)
        r = np.array([[complex(x) for x in row] for row in r.tolist()])
    return from_matrix(basis, r).vector.real


def test_shift_ties_above_tie_cut_answered_by_the_route():
    """At N = 3, Haar-rotated spectra with phases (2.5, 2.5 - gap, rest),
    summing to 2 pi, put the 2 pi shift boundary inside a tie of width gap
    (and their negatives, with the shift of the other sign).  Gaps of 0.05
    and 0.02, above TIE_CUT = 0.01, are answered by ``_log_past_gate``
    within 1e-12 of a 40-digit reference; a gap of 0.005 is declined."""
    basis, t = cached_algebra(3)
    rng = np.random.default_rng(760)
    for gap in (0.05, 0.02, 0.005):
        phases = np.array([2.5, 2.5 - gap, 2.0 * np.pi - 5.0 + gap])
        worst = 0.0
        for sign in (1.0, -1.0):
            for _ in range(10):
                g = conjugated(basis, np.exp(1j * sign * phases), rng)
                got = _log_past_gate(basis, to_matrix(basis, g))
                if gap < TIE_CUT:
                    assert got is None
                    continue
                assert got is not None
                exact = mpmath_shifted_log(basis, g) if sign > 0 else -mpmath_shifted_log(
                    basis, LinearElement(np.conj(g.scalar), np.conj(g.vector))
                )
                worst = max(worst, float(np.max(np.abs(got - exact))))
        print(f"gap {gap}: worst distance to the 40-digit logarithm {worst:.1e}")
        assert worst <= 1e-12


def no_eig_unitary(u):
    raise AssertionError("the values-only route handed u to eig_unitary")


@pytest.mark.parametrize("n", [3, 4, 5, 8])
def test_cut_refused_by_values_only_route(monkeypatch, n):
    """A phase 4e-10 from pi, the others well apart, is refused by the
    values-only route itself through ``_branch_rule``: ``eig_unitary``
    is never reached, and the message carries the route's distance."""
    monkeypatch.setattr(linearize, "eig_unitary", no_eig_unitary)
    basis, t = cached_algebra(n)
    near = [np.pi - 4e-10] + [0.5 + 0.4 * k for k in range(n - 2)]
    g = conjugated(basis, np.exp(1j * np.array(near + [-sum(near)])), np.random.default_rng(n))
    with pytest.raises(BranchCutError, match=r"lies \S+ from the branch cut") as excinfo:
        delinearize_exp(t, basis, g)
    assert excinfo.traceback[-1].name == "_branch_rule"
    distance = float(excinfo.value.args[0].split()[3])
    assert abs(distance - 4e-10) <= 1e-13


def test_compose_onto_the_cut_refused_by_values_only_route(monkeypatch):
    """m has M = diag(pi, -pi/3, -2 pi/3) (the CI's branch-cut compose), so
    exp(-iM) exp(0) has an eigenphase on the cut: compose refuses it
    from the values-only route, without ``eig_unitary``."""
    monkeypatch.setattr(linearize, "eig_unitary", no_eig_unitary)
    basis, t = cached_algebra(3)
    m = np.array([0, 0, 0, 0, 0, 0, 2.0943951023931953, 1.8137993642342178])
    np.testing.assert_allclose(
        algebra_matrix(basis, m), np.diag([np.pi, -np.pi / 3, -2 * np.pi / 3]), atol=1e-15
    )
    with pytest.raises(BranchCutError, match=r"lies \S+ from the branch cut") as excinfo:
        compose(t, basis, m, np.zeros(t.dim))
    assert excinfo.traceback[-1].name == "_branch_rule"


@pytest.mark.parametrize("n", [5, 8])
def test_compose_past_the_gate_rarely_reaches_eig_unitary(monkeypatch, n):
    """50 sampler compose calls past the gate: ``eig_unitary`` (through
    ``log_coords``) runs exactly once per decline of the values-only
    route, so never where the route answers, and the route declines at
    most 5 % of the calls."""
    basis, t = cached_algebra(n)
    calls = {"eig_unitary": 0, "declined": 0}
    eig_unitary, route = linearize.eig_unitary, linearize._log_past_gate

    def counted_eig_unitary(u):
        calls["eig_unitary"] += 1
        return eig_unitary(u)

    def counted_route(basis, u):
        r = route(basis, u)
        calls["declined"] += r is None
        return r

    monkeypatch.setattr(linearize, "eig_unitary", counted_eig_unitary)
    monkeypatch.setattr(linearize, "_log_past_gate", counted_route)
    rng = np.random.default_rng(800 + n)
    done = 0
    while done < 50:
        m, other = random_coords(basis, rng), random_coords(basis, rng)
        if 2 * n * (1.0 - compose_linear(t, basis, m, other).scalar.real) > LOG_GATE:
            compose(t, basis, m, other)
            done += 1
    print(f"N = {n}: {calls['declined']} of 50 declined")
    assert calls["eig_unitary"] == calls["declined"] <= 2


def test_shift_tie_refused_at_the_one_site(monkeypatch):
    """A 2 pi shift boundary inside a 5e-10 phase tie at N = 3: the
    values-only route refuses it itself, by the raise in ``_branch_rule``,
    before any decline could hand u to ``eig_unitary``."""
    monkeypatch.setattr(linearize, "eig_unitary", no_eig_unitary)
    basis, t = cached_algebra(3)
    theta = np.array([0.9 * np.pi + 2.5e-10, 0.9 * np.pi - 2.5e-10, 0.2 * np.pi])
    g = conjugated(basis, np.exp(1j * theta), np.random.default_rng(3))
    with pytest.raises(DegenerateSpectrumError, match="tie: its gap") as excinfo:
        delinearize_exp(t, basis, g)
    assert excinfo.traceback[-1].name == "_branch_rule"


@pytest.mark.parametrize("n, floor", [(3, 1.65), (4, 1.99)])
def test_cayley_pole_stays_off_det_one_spectra(n, floor):
    """The best of the poles -1, 1, i and -i alone has |p_u(w)| >= floor
    on 2,000 random det-1 spectra and at Nelder-Mead minima from 20 of
    them (4 sqrt(2) - 4 at N = 3, 2 at N = 4).  ``_cayley_pole`` searches a
    superset of these four, so on det-1 spectra the pole of
    ``eig_unitary``'s Cayley transform does at least this well.  That
    transform needs less, and checks no det first: over all 4N points the
    mean of |p_u|**2 is at least 2, so |p_u(w)| >= sqrt 2 on every unitary
    u, whatever its determinant."""
    poles = np.array([-1.0, 1.0, 1j, -1j])

    def best(free):
        z = np.exp(1j * np.append(free, -np.sum(free)))
        return float(np.max(np.abs(np.prod(poles[:, None] - z[None, :], axis=1))))

    rng = np.random.default_rng(40 + n)
    draws = rng.uniform(-np.pi, np.pi, (2000, n - 1))
    worst = min(best(free) for free in draws)
    for free in draws[:20]:
        worst = min(worst, scipy.optimize.minimize(best, free, method="Nelder-Mead").fun)
    print(f"N = {n}: least best |p_u(w)| {worst:.4f}")
    assert worst >= floor


def test_det_minus_one_with_every_pole_a_root_refused():
    """u with spectrum {1, -1, i, -i} at N = 4 (det -1), each of -1, 1, i
    and -i an eigenvalue: the phases of LAPACK's eigenvalues sum to pi, not
    a multiple of 2 pi, and ``_branch_rule`` refuses det u != 1 before it
    looks at the phase on the cut, in the route as through
    ``delinearize_exp``."""
    basis, t = cached_algebra(4)
    g = conjugated(basis, np.array([1.0, -1.0, 1j, -1j]), np.random.default_rng(4))
    with pytest.raises(ValueError, match="det u is not 1"):
        _log_past_gate(basis, to_matrix(basis, g))
    with pytest.raises(ValueError, match="det u is not 1"):
        delinearize_exp(t, basis, g)


def degenerate_exponents(basis):
    """Every single-generator direction and Cartan elements with repeated
    diagonal entries, at a few sizes."""
    n = basis.n
    for k in range(basis.dim):
        e = np.zeros(basis.dim)
        e[k] = 0.7
        yield e
    for diagonal in (
        [1.0] * (n - 1) + [1.0 - n],
        [1.0] * (n // 2) + [-1.0] * (n - n // 2),
        [0.5, 0.5] + [0.0] * (n - 3) + [-1.0] if n > 2 else [0.5, -0.5],
    ):
        cartan = np.array(diagonal) - np.mean(diagonal)
        for scale in (0.05, 0.6):
            yield from_matrix(basis, np.diag(scale * cartan)).vector.real


@pytest.mark.parametrize("n", [3, 4, 6, 8])
def test_clustered_spectra_linearize_to_exp_matrix(n):
    """Haar-rotated spectra with a cluster of 2, 3 or N - 1 eigenvalues
    split by 1e-3 down to 1e-14, or repeated before rounding: no refusal,
    and ``linearize_fn`` within 1e-13 of ``exp_matrix``.  Opitz's Taylor
    rows keep each divided difference accurate however close the points
    lie; a plain difference table over the same rounded eigenvalues
    divides rounding by their split."""
    basis, t = cached_algebra(n)
    rng = np.random.default_rng(500 + n)
    worst = 0.0
    for size in sorted({2, 3, n - 1} & set(range(2, n))):
        for split in (1e-3, 1e-6, 1e-9, 1e-12, 1e-14, 0.0):
            for _ in range(2):
                values = rng.uniform(-2.0, 2.0, n)
                values[:size] = values[0] + split * np.arange(size)
                m = rotated(basis, values - values.mean(), rng)
                got = to_matrix(basis, linearize_fn(t, basis, m))
                worst = max(worst, float(np.max(np.abs(got - exp_matrix(basis, m)))))
    print(f"N = {n}: worst {worst:.1e}")
    assert worst <= 1e-13


@pytest.mark.parametrize("n", range(2, 9))
def test_degenerate_spectra_compose_and_conjugate(n):
    """Repeated eigenvalues are no refusal.  similarity matches
    similarity_direct within 1e-13.  For compose, exp(-i r . L) is held
    against the dense product exp(-iM) exp(-iN): within 1e-13 where the
    product passes the gate of the values-only logarithm, and past it,
    where the values-only route answers or, on a repeated phase, declines
    to ``log_coords``.

    ``log_coords`` is also what compose_direct runs at every N.  Its
    eigenvectors come from one Hermitian eigenproblem, the Cayley
    transform of u, on which distinct eigenphases never share an
    eigenvalue; so the bound is 1e-13 there too, and between the two
    routes.
    """
    basis, t = cached_algebra(n)
    rng = np.random.default_rng(300 + n)
    worst = {"inside": 0.0, "outside": 0.0, "routes": 0.0, "similarity": 0.0}
    for m in degenerate_exponents(basis):
        other = random_coords(basis, rng)
        partners = ((m, other), (other, m), (m, np.zeros(t.dim)), (m, 0.5 * m[::-1].copy()))
        for left, right in partners:
            got = compose(t, basis, left, right)
            product = dense_exp(basis, left) @ dense_exp(basis, right)
            g0 = compose_linear(t, basis, left, right).scalar
            side = "inside" if 2 * n * (1.0 - g0.real) <= LOG_GATE else "outside"
            residual = float(np.max(np.abs(dense_exp(basis, got) - product)))
            worst[side] = max(worst[side], residual)
            worst["routes"] = max(
                worst["routes"], float(np.max(np.abs(got - compose_direct(basis, left, right))))
            )
        got = similarity(t, basis, m, other)
        worst["similarity"] = max(
            worst["similarity"], float(np.max(np.abs(got - similarity_direct(basis, m, other))))
        )
    print(f"N = {n}: " + ", ".join(f"{key} {value:.1e}" for key, value in worst.items()))
    assert worst["inside"] <= 1e-13
    assert worst["outside"] <= 1e-13
    assert worst["routes"] <= 1e-13
    assert worst["similarity"] <= 1e-13


# near-identity-n4 pairs 1220 and 618 of `perfbench/run.py` seed 1 (operands
# 1e-5..1e-3, inside the gate), and pairs-n3 pairs 491 and 333 of seed 1
# (product phases +-2.05 and +-2.55, past the gate, with no phase within 0.1
# of pi, where mpmath's logm could take another branch).  Past the gate at
# N = 7 and 8, where the values-only route answers without eigenvectors:
# pair 0 of the pairs-n8 pool of seed 1 (largest phase 2.53), and pair 1 of
# the pool that `perfbench/inputs.py` draws at N = 7 for the name "pairs-n7"
# and seed 1 (largest phase 1.62; its pair 0 would share the key 0).  Both
# have phases summing to 0, so the principal logm needs no 2 pi shift.  The
# references were computed once with mpmath 1.3.0 at 40 digits: M and N
# assembled from the Gell-Mann generators in mpmath,
# R = i logm(expm(-iM) expm(-iN)), r_k = Re Tr(R L_k) / 2, rounded to double.
REFERENCE_PAIRS = {
    1220: (
        [-2.7126695248633608e-05, 9.544005699973798e-06, 3.153761449283196e-05, 2.164298758900415e-05, 7.162123878269068e-06, 3.806900681838329e-05, -8.41393978519757e-06, -3.227370016200833e-05, 1.7908559727871137e-05, 4.155463505624328e-06, 1.2117265361717718e-05, -4.051129382900929e-05, 5.353332339421945e-05, 5.6342042811879615e-05, -1.596541811289973e-05],
        [-0.0004803853737603638, -0.000287238667198071, -7.273778308003978e-05, 0.0004244052745178404, -0.00040053842695778963, 0.00044588376008218003, -0.00034834888023470425, 0.0004794104355795568, -0.0005461074108471127, 0.0004625894595776425, -0.0005018711269051654, -0.00041696250894157654, -0.0002947962471219029, 0.00029222107561470374, -0.00013231781303195387],
        [-0.000507481942709723, -0.00027775343830669725, -4.117537809577573e-05, 0.0004460349987308375, -0.00039338872902475587, 0.0004839441349764635, -0.00035680710358049135, 0.00044710831432649874, -0.0005282015628666109, 0.00046674067083583674, -0.0004897430932825947, -0.0004574845765946593, -0.0002412725971950756, 0.00034856068487917137, -0.00014829341282906813],
    ),
    618: (
        [-0.00012166467665337324, -2.1074510085177674e-05, 8.564246999267546e-06, 7.047197217051156e-05, 0.0001276242205268115, -5.989254030598957e-05, -3.860281844523961e-05, -8.450587092185943e-06, 0.00010909302307102637, -9.657253010263363e-05, 0.00012393538138568848, -6.95077125049724e-05, 4.7342064866402175e-05, -1.9066408019093067e-05, -0.00016876148904857976],
        [0.00040216382588813656, -0.0009764980160597915, -0.0014427067781149746, 0.0016888070088471193, -0.0014016566053317605, 0.001942986258559197, 0.0015554371756104541, 0.0003098610178473797, -0.0015784777949917421, -3.4641447461956874e-05, 0.0018544675914594685, -0.0009910834983411897, -0.0007064171299991145, 0.0018865799355568225, -0.00132962821740068],
        [0.00028049738483877326, -0.000997633363868676, -0.0014341960614922614, 0.0017588497896824965, -0.0012737285028877514, 0.0018831640899482722, 0.0015170843245073127, 0.0003010937854905529, -0.0014690776932450383, -0.00013127177015218085, 0.0019787643218072393, -0.0010612028139391457, -0.0006594699587071176, 0.0018676874707569408, -0.0014977776621206325],
    ),
    491: (
        [0.997423646085638, 0.618152154828142, 0.3129146216226022, 0.5731477953082266, 0.35582549788289686, -0.3549385327695854, 0.9322716740201209, -0.600361163945751],
        [0.35667758313025605, 0.06229496401411925, -0.21341327619534892, 0.15667567444310618, 0.031178292776414044, -0.2505037223958213, 0.06359883134356406, 0.47666790172317836],
        [1.1300206320383857, 0.940385330402125, -0.20714907472040492, 0.7131875793247002, -0.13926402040281513, -0.3534937895518956, 1.0955928790579545, -0.3568093998754976],
    ),
    333: (
        [0.33715935065716296, -1.0481547332701755, -0.44410550725247155, 0.8891995133709042, 1.498685719192984, -0.1957206961203951, 0.2432952744671413, -1.4033664734155558],
        [-0.2812101596457073, 0.2373108909204539, 0.19758434519816445, 0.2648486391478018, 0.0265083377219297, -0.25157582992341015, -0.18457481713547091, -0.16080876702733032],
        [0.1967588436864677, -1.232344876692047, -1.091071630152003, 0.4318616525702833, 1.3707204420736925, -1.0688989412727066, 0.2537753072472497, -0.6969817805696098],
    ),
    1: (
        [-0.04151696255688502, -0.398802380911795, 0.39354525271706053, 0.2989134084717045, -0.3300003017928751, 0.2034395315943373, -0.2772684706320171, 0.2550711185275887, 0.22839870268847762, 0.39910058955279976, -0.2704672830164258, -0.33654647832662926, -0.07655838538442836, -0.012065821846661736, -0.10164334211687695, 0.09372128231258584, 0.3152954320253367, -0.37972118531876453, -0.04414614427635145, 0.33730225673795605, -0.37085811367947163, 0.14784797841036962, -0.2262136054730666, 0.2985844230878552, 0.22953175916909416, 0.2252538496617916, -0.318271450567328, -0.15387996427215264, -0.012665146171962393, 0.2899987036194312, 0.1709158157144339, -0.1706174406206468, -0.353606559249726, -0.260254077844103, -0.25673634768285175, -0.11045868714184512, 0.38237346149288176, -0.3085614275076508, 0.357771025537848, -0.20876582853851353, 0.1592155494846654, -0.033723264566320146, -0.22162553495206788, -0.27997266713777913, 0.31291133286419504, -0.3781601425531136, -0.22926095750568468, 0.17225836657341603],
        [0.0025451508269536387, -0.010987879527986723, 0.012218231166104671, 0.004103439461891879, -0.002930107840702516, 0.009914868199191679, 0.0035035530622398365, 0.010205347332475823, -0.014181995538986199, 0.025420112222029365, 0.012596444672721219, -0.028937053228458777, 0.0275823704186275, -0.02825581396138253, 0.004894866548953142, 0.0030363586537012766, 0.004003808107342755, -0.010559948657809144, 0.014030081274190366, 0.016205147666307568, -0.01575600039854875, 0.025407836975360053, -0.004767858125891158, 0.01677651059469229, -0.014422173318915434, 0.020417380114577457, 0.0257560508699174, 0.025463525180829692, -0.023403066111262784, -0.026057814096798974, 0.00636772249076838, 0.02083323025438579, -0.007727530788002629, -0.020919479969175106, 0.012185591079330607, 0.02944857863425021, 0.023620914026830635, 0.02579798473356724, 0.0023474318026414248, 0.005062333290878475, -0.014235413312996026, -0.00532477169025314, -0.0060472954189946, 0.03006390712014617, -0.012146612909491976, 0.013908973710165404, -0.026007955456577393, 0.031306145861623155],
        [-0.047257453274425584, -0.4213516878616318, 0.38684744458548287, 0.2990690723886056, -0.34045941814956215, 0.20264172305074793, -0.27068448168547915, 0.2599624321785839, 0.21557699589894072, 0.4106435699279736, -0.26879489231882053, -0.36232921256865946, -0.056438909823420425, -0.025983518433617517, -0.09729300866238644, 0.12841061747259078, 0.34302231743645695, -0.39187948083192636, -0.023119620220651185, 0.35131178929627893, -0.38049470094032717, 0.15848869238033766, -0.21693996016697892, 0.32947198940525896, 0.2106556117581774, 0.24689301050032983, -0.2958067885906987, -0.13224240403688417, -0.020680932080332608, 0.2489271172105699, 0.1909203818392438, -0.1333667974977084, -0.38888408996287477, -0.2828856057704463, -0.23965323801841318, -0.10332065369488896, 0.38676603608090454, -0.2870425016789017, 0.38062606304574714, -0.18584847079852285, 0.14834576724725218, -0.02431436798697696, -0.21928570240128203, -0.25774932820494256, 0.28677820715145763, -0.3639962049234891, -0.25257786038339713, 0.19854888539807403],
    ),
    0: (
        [-0.29890118342703303, -0.12457757118486916, 0.3975552250906534, 0.2202651276474188, 0.37547609831508516, -0.10437883968100017, -0.3554015631727824, 0.2299776983027382, 0.009859629729330544, -0.03553826851446143, 0.1620506344933948, 0.46875506157919494, -0.44480510815333185, 0.18396455042631227, 0.1031724025281949, -0.10789312218200613, 0.12232598811023265, -0.15930517537993205, 0.22362467599193947, -0.43882543561906934, 0.4750416130100864, 0.18158986571986968, 0.22996164493778304, 0.43938428218401326, 0.3469267369986595, -0.41940136772230463, 0.10002168409200743, 0.11124696992680162, 0.06682212799841429, -0.054488301554419354, 0.3824352566093981, 0.03166535571993336, 0.2741963312010555, 0.1267713626101339, -0.45205417504708945, 0.26372340303131303, -0.3537409509018204, 0.4646948458214593, 0.3063451641669586, 0.2010620590794651, -0.2677050502721564, 0.2311905287122674, -0.14722457800378363, 0.06373417676823062, -0.4472727464096647, 0.45396364159704006, -0.01303031341172071, -0.3028944972295739, 0.1793149182769118, -0.0735675442602057, 0.20157595885473562, -0.3419505468332413, 0.2790147526593761, -0.33107346695568435, -0.5028163094993897, -0.20659265861711415, -0.09295368447257249, -0.4766950974737558, 0.15053369846390674, 0.2061457903176829, -0.36493178022641987, 0.21845368400597298, -0.23850247773715796],
        [0.19673691879113256, -0.09383111112665433, 0.2352884047777547, -0.09384305699335296, 0.10250692089550871, -0.2595913841232305, -0.31654568014583817, -0.31952669071750334, -0.21007100051402575, -0.1748920685747538, 0.17483552038976322, -0.16235511209179715, -0.08191263261533523, 0.20274595076643884, -0.23808558618743755, 0.2506581619189729, 0.2568823431457704, -0.24055978196238698, -0.14790239808356698, 0.14214728200423302, -0.08527075343021118, -0.05769428955258757, 0.12322401648471563, 0.08631364649887052, -0.1970562135538479, -0.2612049707281045, 0.2781100181413437, 0.002128403135780088, 0.02799100216029059, 0.19607531528485822, 0.03607526873756523, 0.14450457717032505, 0.2793086160790011, 0.28360456450019195, -0.22279759452843026, 0.11767851550584536, -0.15387794466717897, -0.18760853505784253, 0.16697739888424246, -0.03072675080880471, 0.24015497786012696, -0.16602072781916632, -0.18432791464176718, 0.2155876924540446, 0.03650044774530871, -0.2393284235595512, 0.2705897576847722, 0.2240750858319317, -0.11299375502670793, 0.23601872926546985, 0.17653409450907204, -0.3114449566261178, 0.10965443479506827, -0.011609028086609482, -0.2287916141592022, -0.2872200214863894, -0.20097525347561282, 0.014226776186105287, 0.16260937030134268, 0.05904843804906992, -0.20912683314368763, -0.12386658387680904, 0.30510147750855054],
        [0.07074665219174776, -0.06481358143481461, 0.567123600173495, 0.24318948530477172, 0.2420064937398642, -0.09587402480303081, -0.7685901034471033, 0.17740616456117136, -0.11571540703508731, -0.02576528741581664, 0.4375283854519449, 0.3753383427610101, -0.47280989312216676, 0.19118162351726398, -0.08144553468245641, -0.20814924268865487, 0.1963744677231011, -0.3978428810621708, -0.15324141692615262, -0.251976216915451, 0.1609568149034141, 0.04179910703319578, 0.22768378015343976, 0.41060660838442803, 0.2752332694227322, -0.785700036225807, 0.04140821865276265, 0.07701340155382153, -0.2831475547051304, 0.37156843001248996, 0.5820914575666839, 0.2531466391806492, 0.5612700966527635, 0.1814887399140289, -0.35057956982331673, 0.5643712404543956, -0.31734966093165584, 0.254758495574465, 0.2213299762194241, 0.36667296550577205, 0.4423080539994912, 0.05831740684990278, -0.4427689680222968, 0.22972479399484202, -0.35409292408135873, 0.06958204314088064, 0.0691643471304104, -0.13596353743788167, 0.3151023179897579, -0.08197806665444192, 0.291364807265772, -0.6418302732269923, 0.4332076779945538, -0.48067447760612153, -0.7700009891282094, -0.4696828695297413, -0.23524933706195622, -0.43860021610789374, 0.14353494234272496, 0.320658059089007, -0.6183728696171571, 0.09234040947596946, 0.1387026575603954],
    ),
}


@pytest.mark.parametrize("pair", sorted(REFERENCE_PAIRS))
def test_compose_against_high_precision_reference(pair):
    """compose within 1e-13 of the 40-digit reference, relative to its
    largest coordinate, and compose_direct within 1e-12.  The dense
    oracle forms u = exp(-iM) exp(-iN) in floating point, whose rounding
    is about eps relative to |u - I| ~ 1e-3 on the N = 4 pairs near I;
    its logarithm adds no floor of its own."""
    m, nvec, ref = (np.array(x) for x in REFERENCE_PAIRS[pair])
    basis, t = cached_algebra(round(math.sqrt(m.size + 1)))
    scale = np.max(np.abs(ref))
    err = np.max(np.abs(compose(t, basis, m, nvec) - ref)) / scale
    direct = np.max(np.abs(compose_direct(basis, m, nvec) - ref)) / scale
    print(f"pair {pair}: compose {err:.1e}, compose_direct {direct:.1e}")
    assert err <= 1e-13
    assert direct <= 1e-12
