"""Ranking distances: Kendall's tau, Spearman's rho, and the difficulty-weighted tau.

The difficulty weighting multiplies the raw discordant-pair count by the
squared mean of the smallest pairwise margins |2p - 1|, so instances full of
near-coin-flip pairs are penalised less for getting those pairs wrong. The
margins are a plain sorted, read-only float array from :func:`q_sequence`,
which :func:`q_bar` and :func:`modified_tau` take as it is.
"""

from __future__ import annotations

from bisect import bisect

import numpy as np

from .data import ProbabilityMatrix, Ranking
from .errors import DataError

ERROR_CONVENTIONS = ("pairs", "paper")


def kendall_tau(pi: Ranking, omega: Ranking) -> int:
    """Number of unordered pairs ranked in opposite relative order.

    Counts the inversions of omega's ranks visited in pi's order: each rank
    is bisected into the sorted list of those already seen. The list inserts
    move O(n^2) pointers in all, but in C, so this is faster than an
    O(n log n) merge sort written in Python well past the paper's n <= 875
    (about 3x at n=875) and falls behind only around n=20000. Ranges over
    [0, n(n-1)/2].
    """
    if pi.n != omega.n:
        raise ValueError("rankings must have equal length")
    seen: list[int] = []
    inversions = 0
    for i, r in enumerate(omega.ranks[np.argsort(pi.ranks)].tolist()):
        pos = bisect(seen, r)
        inversions += i - pos
        seen.insert(pos, r)
    return inversions


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


def q_sequence(P_star: ProbabilityMatrix) -> np.ndarray:
    """Difficulties |2p - 1| over all pairs i < j, as a sorted read-only array.

    A pair at exactly 0.5 makes the implied ranking non-unique and is
    rejected.
    """
    iu, ju = np.triu_indices(P_star.n, 1)
    upper = P_star.probs[iu, ju]
    if (upper == 0.5).any():
        raise DataError("a pair has winning probability exactly 0.5; ranking is not unique")
    q = np.sort(np.abs(2.0 * upper - 1.0))
    q.setflags(write=False)
    return q


def q_bar(s: int, q: np.ndarray) -> float:
    """Mean of the s smallest difficulties in sorted ``q``; 0 for s = 0. Non-decreasing in s."""
    if not 0 <= s <= q.size:
        raise ValueError(f"s={s} outside [0, {q.size}]")
    if s == 0:
        return 0.0
    return float(np.cumsum(q[:s])[-1] / s)


def modified_tau(pi: Ranking, pi_star: Ranking, q: np.ndarray) -> float:
    """Difficulty-weighted Kendall distance tau * Qbar(tau)^2, with ``q`` from :func:`q_sequence`."""
    if pi.n != pi_star.n:
        raise ValueError("rankings must have equal length")
    if pi.n * (pi.n - 1) // 2 != q.size:
        raise ValueError("difficulty sequence length does not match the rankings")
    tau = kendall_tau(pi, pi_star)
    return tau * q_bar(tau, q) ** 2
