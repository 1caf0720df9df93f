"""Shared exception types."""


class NonConvergent(RuntimeError):
    """An adaptive quadrature, a truncation doubling or an iterative
    solver failed to meet its tolerance within its caps."""


class SingularOperator(RuntimeError):
    """(I - K) is numerically singular on the current grid, or its
    determinant is not positive."""


class PsiTooSmall(RuntimeError):
    """|psi(tau)| fell below the non-vanishing guard."""


class WeightVanishes(RuntimeError):
    """A kernel weight function vanished at a quadrature node."""
