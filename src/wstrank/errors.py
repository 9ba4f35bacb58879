"""Error types shared across the package.

Two families matter for callers: :class:`DataError` covers data and model
preconditions (bad input files, disconnected comparison graphs, degenerate
instances), while :class:`NumericError` covers numeric failures of the
solvers. The CLI maps them to exit codes 3 and 4 respectively.
"""

from __future__ import annotations


class DataError(ValueError):
    """Input data violates a documented precondition."""


class NotConnectedError(DataError):
    """The directed comparison graph is not strongly connected."""


class AlignmentError(DataError):
    """Two rankings cover different player sets."""

    def __init__(self, only_left: set[str], only_right: set[str]) -> None:
        self.only_left = frozenset(only_left)
        self.only_right = frozenset(only_right)
        super().__init__(
            "player sets differ: only in first %s, only in second %s"
            % (sorted(self.only_left), sorted(self.only_right))
        )


class NumericError(RuntimeError):
    """A numeric routine produced a non-finite value or failed to converge."""


class ConvergenceError(NumericError):
    """Iteration limit reached before meeting the stopping criterion."""
