import numpy as np
import pytest

from sunbch import linsolve
from sunbch.errors import SingularMatrixError

RNG = np.random.default_rng(20260301)


def random_complex(n):
    return RNG.standard_normal((n, n)) + 1j * RNG.standard_normal((n, n))


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_solve_matches_numpy(n):
    for _ in range(20):
        a = random_complex(n)
        b = RNG.standard_normal(n) + 1j * RNG.standard_normal(n)
        x = linsolve.solve(a, b)
        np.testing.assert_allclose(x, np.linalg.solve(a, b), atol=1e-10)


def test_solve_matrix_rhs():
    a = random_complex(4)
    b = random_complex(4)
    x = linsolve.solve(a, b)
    np.testing.assert_allclose(a @ x, b, atol=1e-12)


@pytest.mark.parametrize("n", [2, 4, 6])
def test_inverse(n):
    a = random_complex(n)
    np.testing.assert_allclose(a @ linsolve.inverse(a), np.eye(n), atol=1e-10)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_determinant_matches_numpy(n):
    for _ in range(20):
        a = random_complex(n)
        assert abs(linsolve.determinant(a) - np.linalg.det(a)) < 1e-10 * abs(
            np.linalg.det(a)
        ) + 1e-12


def test_determinant_permutation_sign():
    # Row-swap parity must come out exact.
    p = np.eye(4)[[1, 0, 3, 2]]
    assert linsolve.determinant(p) == 1.0
    p = np.eye(3)[[1, 0, 2]]
    assert linsolve.determinant(p) == -1.0


def test_singular_raises_and_determinant_is_zero():
    a = np.array([[1.0, 2.0], [2.0, 4.0]])
    with pytest.raises(SingularMatrixError):
        linsolve.solve(a, np.ones(2))
    assert linsolve.determinant(a) == 0.0


def test_condition_number():
    assert linsolve.condition_number(np.eye(5)) == 1.0
    a = np.diag([1.0, 1e-6])
    assert linsolve.condition_number(a) == pytest.approx(1e6)


def test_nonsquare_rejected():
    with pytest.raises(ValueError):
        linsolve.lu_factor(np.ones((2, 3)))
