"""Shared exception types."""


class NonConvergent(RuntimeError):
    """An adaptive quadrature or an iterative solver failed to meet its
    tolerance within its caps."""


class TailNotResolved(RuntimeError):
    """Doubling the truncation length never met the tail and
    determinant-stability criteria."""


class SingularOperator(RuntimeError):
    """(I - K) is numerically singular on the current grid, or its
    determinant is not positive."""


class PsiTooSmall(RuntimeError):
    """|psi(tau)| fell below the non-vanishing guard."""


class WeightVanishes(RuntimeError):
    """A kernel weight function vanished at a quadrature node."""
