"""Reference ranking methods: win-fraction counting, Bradley-Terry ML, USVT.

These all assume, one way or another, stronger structure than the
maximum-score estimator does, which is exactly why they serve as baselines.
"""

from __future__ import annotations

import math

import numpy as np

from .data import (
    ComparisonCounts,
    ProbabilityMatrix,
    Ranking,
    skew_statistic,
    strong_component,
)
from .errors import ConvergenceError, DataError, NotConnectedError

BT_TOL = 1e-8  # bt_fit stops once the log-likelihood gradient norm is this small
BT_MAX_ITERS = 10000
USVT_ETA = 0.01  # USVT's threshold margin above the noise level 2 * sqrt(n * p_hat)


def borda_scores(counts: ComparisonCounts) -> np.ndarray:
    """Sum of per-opponent win fractions y_ij/n_ij for each player.

    Less sensitive to an uneven game schedule than raw win totals. Players
    with no games score zero.
    """
    pair = counts.pair_counts
    frac = np.where(pair > 0, counts.win_counts / np.where(pair > 0, pair, 1), 0.0)
    return frac.sum(axis=1)


def borda_rank(counts: ComparisonCounts) -> Ranking:
    """Rank by :func:`borda_scores`; equal scores sort by index."""
    return Ranking.from_scores(borda_scores(counts))


def bt_fit(counts: ComparisonCounts) -> tuple[np.ndarray, Ranking]:
    """Maximum-likelihood Bradley-Terry scores, constrained to sum to zero.

    Uses the minorization-maximization fixed point on the strength scale,
    stopping once the log-likelihood gradient norm drops to ``BT_TOL``, and
    raising ``ConvergenceError`` after ``BT_MAX_ITERS`` iterations.
    The MLE exists iff the win digraph is strongly connected, which two
    searches from player 0 check (see :func:`strong_component`); anything
    else raises before iterating.
    """
    n = counts.n
    if not strong_component(counts, 0).all():
        raise NotConnectedError(
            "comparison graph is not strongly connected; "
            "apply filter_players(counts, 'bt-connected') first"
        )
    wins = counts.win_counts.sum(axis=1).astype(float)
    games = counts.pair_counts.astype(float)
    strength = np.ones(n)
    for _ in range(BT_MAX_ITERS):
        pairwise = strength[:, None] + strength[None, :]
        grad = wins - (games * (strength[:, None] / pairwise)).sum(axis=1)
        if float(np.linalg.norm(grad)) <= BT_TOL:
            beta = np.log(strength)
            beta -= beta.mean()
            return beta, Ranking.from_scores(beta)
        strength = wins / (games / pairwise).sum(axis=1)
        strength /= math.exp(float(np.mean(np.log(strength))))
    beta = np.log(strength)
    beta -= beta.mean()
    raise ConvergenceError(
        f"gradient norm still above {BT_TOL} after {BT_MAX_ITERS} iterations",
        beta=beta,
    )


def usvt_probabilities(x: np.ndarray, p_hat: float) -> ProbabilityMatrix:
    """Denoise a standardized skew-symmetric outcome matrix into probabilities.

    Keeps singular values above (2 + USVT_ETA) * sqrt(n * p_hat), rescales the
    truncated reconstruction by 1/p_hat, clips to [-1, 1], and maps to the
    probability scale. The estimate is symmetrized so that complementary
    entries sum to one exactly (numeric truncation does not preserve skew
    symmetry on its own).
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[0] != x.shape[1]:
        raise ValueError("x must be square")
    if not 0 < p_hat <= 1:
        raise ValueError("p_hat must be in (0, 1]")
    n = x.shape[0]
    u, s, vt = np.linalg.svd(x)
    keep = s > (2.0 + USVT_ETA) * math.sqrt(n * p_hat)
    denoised = (u[:, keep] * s[keep]) @ vt[keep] / p_hat
    np.clip(denoised, -1.0, 1.0, out=denoised)
    est = (denoised + 1.0) / 2.0
    probs = np.full((n, n), 0.5)
    iu, ju = np.triu_indices(n, 1)
    upper = (est[iu, ju] + 1.0 - est[ju, iu]) / 2.0
    probs[iu, ju] = upper
    probs[ju, iu] = 1.0 - upper
    return ProbabilityMatrix(probs)


def usvt_rank(counts: ComparisonCounts) -> tuple[ProbabilityMatrix, Ranking]:
    """Estimate the probability matrix by USVT and rank players by its row sums.

    ``p_hat`` is the share of pairs that have played.
    """
    n = counts.n
    if n < 2:
        raise ValueError("need at least 2 players")
    p_hat = np.count_nonzero(counts.pair_counts) / (n * (n - 1))
    if p_hat == 0.0:
        raise DataError("no pair has been observed; the estimate is degenerate")
    estimate = usvt_probabilities(skew_statistic(counts), p_hat)
    return estimate, Ranking.from_scores(estimate.probs.sum(axis=1))
