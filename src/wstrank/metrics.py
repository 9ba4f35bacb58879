"""Ranking distances: Kendall's tau, Spearman's rho, and the difficulty-weighted tau.

The difficulty weighting multiplies the raw discordant-pair count by the
squared mean of the smallest pairwise margins |2p - 1|, so instances full of
near-coin-flip pairs are penalised less for getting those pairs wrong.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .data import ProbabilityMatrix, Ranking
from .errors import DataError

ERROR_CONVENTIONS = ("pairs", "paper")


def _count_inversions(values: list[int]) -> int:
    # Bottom-up stable merge; counts pairs appearing in decreasing order.
    a = list(values)
    n = len(a)
    inversions = 0
    width = 1
    while width < n:
        merged: list[int] = []
        for lo in range(0, n, 2 * width):
            mid = min(lo + width, n)
            hi = min(lo + 2 * width, n)
            i, j = lo, mid
            while i < mid and j < hi:
                if a[i] <= a[j]:
                    merged.append(a[i])
                    i += 1
                else:
                    merged.append(a[j])
                    inversions += mid - i
                    j += 1
            merged.extend(a[i:mid])
            merged.extend(a[j:hi])
        a = merged
        width *= 2
    return inversions


def kendall_tau(pi: Ranking, omega: Ranking) -> int:
    """Number of unordered pairs ranked in opposite relative order.

    O(n log n) by counting inversions of one ranking visited in the order of
    the other; ranges over [0, n(n-1)/2].
    """
    if pi.n != omega.n:
        raise ValueError("rankings must have equal length")
    sequence = omega.ranks[np.argsort(pi.ranks)]
    return _count_inversions(sequence.tolist())


def error_rate(tau: int, n: int, convention: str = "pairs") -> float:
    """Normalize a Kendall distance to an error rate.

    ``"pairs"`` divides by n(n-1)/2 (the proportion of discordant pairs);
    ``"paper"`` divides by 2n(n-1), an alternative normalization seen in
    reported tables. The two differ by an exact factor of 4.
    """
    if n < 2:
        raise ValueError("need at least 2 players")
    n_pairs = n * (n - 1) // 2
    if not 0 <= tau <= n_pairs:
        raise ValueError(f"tau={tau} outside [0, {n_pairs}]")
    if convention == "pairs":
        return tau / n_pairs
    if convention == "paper":
        return tau / (2 * n * (n - 1))
    raise ValueError(f"unknown convention {convention!r}; expected one of {ERROR_CONVENTIONS}")


def spearman_rho(pi: Ranking, omega: Ranking) -> float:
    """Spearman rank correlation, 1 - 6*sum(d^2)/(n(n^2-1)); in [-1, 1]."""
    if pi.n != omega.n:
        raise ValueError("rankings must have equal length")
    n = pi.n
    if n < 2:
        raise ValueError("need at least 2 players")
    d = pi.ranks.astype(np.int64) - omega.ranks.astype(np.int64)
    return 1.0 - 6.0 * float(d @ d) / (n * (n * n - 1))


@dataclass(frozen=True, eq=False)
class QSequence:
    """Sorted pairwise difficulty values q = |2p - 1|, one per unordered pair."""

    q_sorted: np.ndarray

    def __post_init__(self) -> None:
        q = np.array(self.q_sorted, dtype=float)
        if q.ndim != 1 or q.size == 0:
            raise ValueError("q_sorted must be a non-empty 1-d sequence")
        m = q.size
        n = int((1 + np.sqrt(1 + 8 * m)) / 2)
        if n * (n - 1) // 2 != m:
            raise ValueError(f"length {m} is not n(n-1)/2 for any integer n")
        if (q <= 0).any() or (q > 1).any():
            raise ValueError("difficulty values must lie in (0, 1]")
        if (np.diff(q) < 0).any():
            raise ValueError("q_sorted must be non-decreasing")
        q.setflags(write=False)
        object.__setattr__(self, "q_sorted", q)

    def __len__(self) -> int:
        return int(self.q_sorted.size)

    @cached_property
    def _prefix(self) -> np.ndarray:
        return np.cumsum(self.q_sorted)

    def prefix_means(self) -> np.ndarray:
        """Vector of mean-of-s-smallest values for s = 1..len(self)."""
        return self._prefix / np.arange(1, len(self) + 1)


def q_sequence(P_star: ProbabilityMatrix) -> QSequence:
    """Difficulties |2p - 1| over all pairs i < j, sorted non-decreasing.

    A pair at exactly 0.5 makes the implied ranking non-unique and is
    rejected.
    """
    iu, ju = np.triu_indices(P_star.n, 1)
    upper = P_star.probs[iu, ju]
    if (upper == 0.5).any():
        raise DataError("a pair has winning probability exactly 0.5; ranking is not unique")
    return QSequence(np.sort(np.abs(2.0 * upper - 1.0)))


def q_bar(s: int, q: QSequence) -> float:
    """Mean of the s smallest difficulties; 0 for s = 0. Non-decreasing in s."""
    if not 0 <= s <= len(q):
        raise ValueError(f"s={s} outside [0, {len(q)}]")
    if s == 0:
        return 0.0
    return float(q._prefix[s - 1] / s)


def modified_tau(pi: Ranking, pi_star: Ranking, q: QSequence) -> float:
    """Difficulty-weighted Kendall distance tau * Qbar(tau)^2."""
    if pi.n != pi_star.n:
        raise ValueError("rankings must have equal length")
    if pi.n * (pi.n - 1) // 2 != len(q):
        raise ValueError("difficulty sequence length does not match the rankings")
    tau = kendall_tau(pi, pi_star)
    return tau * q_bar(tau, q) ** 2
