"""Exception types shared across the package.

Everything raised for a numerical-domain reason (as opposed to plain misuse
of the API, which gets ValueError) derives from NumericalDomainError and
carries a short machine-readable ``code`` so the command line layer can
report failures uniformly.
"""


class NumericalDomainError(RuntimeError):
    """Input is structurally valid but outside the numerically safe domain."""

    code = "numeric-domain"


class DegenerateSpectrumError(NumericalDomainError):
    """Eigenvalues coincide or cluster below the resolution the formula needs."""

    code = "degenerate-spectrum"


class BranchCutError(NumericalDomainError):
    """An eigenphase sits too close to the logarithm branch cut at pi."""

    code = "branch-cut"


class IllConditionedError(NumericalDomainError):
    """A linear system is too ill-conditioned to solve reliably."""

    code = "ill-conditioned"


class SingularMatrixError(IllConditionedError):
    """Pivoting found no usable pivot; the matrix is numerically singular."""

    code = "singular-matrix"


class ConstraintViolationError(NumericalDomainError):
    """A quantity that must vanish (or be preserved) exceeded its tolerance."""

    code = "constraint-violation"


class ConvergenceError(NumericalDomainError):
    """An iterative solver failed to converge: LAPACK's Hermitian
    eigensolver reported failure (``spectral.eig_hermitian``)."""

    code = "no-convergence"
