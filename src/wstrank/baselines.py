"""Reference ranking methods: win-fraction counting, Bradley-Terry ML, USVT.

These all assume, one way or another, stronger structure than the
maximum-score estimator does, which is exactly why they serve as baselines.
"""

from __future__ import annotations

import numpy as np

from .data import (
    ComparisonCounts,
    ProbabilityMatrix,
    Ranking,
    skew_statistic,
    strong_components,
)
from .errors import ConvergenceError, DataError, NotConnectedError, NumericError

BT_TOL = 1e-8  # bt_fit stops once the log-likelihood gradient norm is this small
BT_MAX_ITERS = 100  # Newton steps
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

    Damped Newton's method from beta = 0 over the pairs of
    ``counts.played``, whose lower player won (games + z) / 2 games. With
    s = sigmoid(beta_lo - beta_hi) per pair, the log-likelihood gradient is
    wins minus the sum of games * s, and the negated Hessian is the
    Laplacian weighted by games * s * (1 - s). The Laplacian is singular
    along the all-ones vector, which the likelihood ignores; adding 11^T / n
    makes it nonsingular and, as the gradient sums to zero, leaves the step
    unchanged. ``np.linalg.solve`` finds the step, and each trial is
    re-centred to sum zero. A halving line search accepts
    the first trial that raises the log-likelihood or lowers the gradient
    norm: near the optimum the log-likelihood can no longer resolve a step's
    gain at float precision, but the gradient still can. The fit stops once
    the gradient norm drops to ``BT_TOL``. It raises ``ConvergenceError``
    after ``BT_MAX_ITERS`` Newton steps or when no trial is accepted, and
    ``NumericError`` when the solve fails or gives a non-finite step.
    The MLE exists iff the win digraph is strongly connected, that is iff
    the first component of :func:`strong_components` holds every player, so
    only that one pair of searches is run. Anything else raises
    ``NotConnectedError`` before iterating.
    """
    n = counts.n
    if not next(strong_components(counts.win_counts > 0)).all():
        raise NotConnectedError(
            "comparison graph is not strongly connected; "
            "apply filter_players(counts, 'bt-connected') first"
        )
    lo, hi, games, z = counts.played
    wins_lo = ((games + z) // 2).astype(float)
    games = games.astype(float)
    losses_lo = games - wins_lo

    def evaluate(b: np.ndarray) -> tuple[float, np.ndarray, np.ndarray, float]:
        """Log-likelihood, gradient, Hessian weights and gradient norm at ``b``."""
        d = b[hi] - b[lo]  # log(s) = -log1p(exp(d)) and log(1 - s) = d + log(s)
        with np.errstate(over="ignore"):  # exp -> inf gives s = 0 and log-likelihood -inf
            s = np.exp(d)
        loglik = float(losses_lo @ d - games @ np.log1p(s))
        s += 1.0
        np.reciprocal(s, out=s)
        residual = games * s
        np.subtract(wins_lo, residual, out=residual)
        grad = np.bincount(lo, residual, n) - np.bincount(hi, residual, n)
        weight = 1.0 - s
        weight *= s
        weight *= games
        return loglik, grad, weight, float(np.linalg.norm(grad))

    beta = np.zeros(n)
    loglik, grad, weight, grad_norm = evaluate(beta)
    for _ in range(BT_MAX_ITERS):
        if grad_norm <= BT_TOL:
            return beta, Ranking.from_scores(beta)
        hessian = np.full((n, n), 1.0 / n)
        hessian[lo, hi] = hessian[hi, lo] = 1.0 / n - weight
        hessian.ravel()[:: n + 1] += np.bincount(lo, weight, n) + np.bincount(hi, weight, n)
        try:
            step = np.linalg.solve(hessian, grad)
        except np.linalg.LinAlgError as exc:
            raise NumericError(f"Bradley-Terry Newton step: {exc}") from None
        if not np.all(np.isfinite(step)):
            raise NumericError("non-finite Bradley-Terry Newton step")
        t = 1.0
        for _ in range(60):
            trial = beta + t * step
            trial -= trial.mean()
            trial_loglik, trial_grad, trial_weight, trial_norm = evaluate(trial)
            if trial_loglik > loglik or trial_norm < grad_norm:
                break
            t *= 0.5
        else:
            raise ConvergenceError(f"no Newton step lowers the gradient norm {grad_norm:.3g}")
        beta, loglik, grad, weight, grad_norm = (
            trial, trial_loglik, trial_grad, trial_weight, trial_norm
        )
    raise ConvergenceError(
        f"gradient norm still above {BT_TOL} after {BT_MAX_ITERS} Newton steps"
    )


def usvt_rank(counts: ComparisonCounts) -> tuple[ProbabilityMatrix, Ranking]:
    """Estimate the probability matrix by USVT and rank players by its row sums.

    X is :func:`skew_statistic` and ``p_hat`` the share of pairs that have
    played. USVT keeps the singular values of X above
    (2 + USVT_ETA) * sqrt(n * p_hat). Their right singular vectors V are the
    eigenvectors of X^T X whose eigenvalues pass that threshold squared, and
    the truncated reconstruction is X V V^T. Rescaled by 1/p_hat and clipped
    to [-1, 1], it gives C, and the estimate 0.5 + (C - C^T) / 4 has
    complementary entries that sum to one exactly. With no value kept, every
    entry is exactly 0.5.
    """
    n = counts.n
    if n < 2:
        raise ValueError("need at least 2 players")
    p_hat = 2 * counts.played[0].size / (n * (n - 1))
    if p_hat == 0.0:
        raise DataError("no pair has been observed; the estimate is degenerate")
    x = skew_statistic(counts)
    eigenvalues, eigenvectors = np.linalg.eigh(x.T @ x)
    v = eigenvectors[:, eigenvalues > (2.0 + USVT_ETA) ** 2 * n * p_hat]
    c = np.clip(x @ v @ v.T / p_hat, -1.0, 1.0)
    estimate = ProbabilityMatrix(0.5 + (c - c.T) / 4)
    return estimate, Ranking.from_scores(estimate.probs.sum(axis=1))
