"""Independent brute-force reference implementations, used only by tests.

Everything here is written the slow, obvious way on purpose: these act as
oracles against the optimised library code and must not share its shortcuts.
"""

from __future__ import annotations

import csv
import itertools
import math

import numpy as np
from scipy.special import expit

from wstrank import simulation
from wstrank.baselines import USVT_ETA
from wstrank.data import ComparisonCounts, MatchRecord, ProbabilityMatrix, Ranking
from wstrank.errors import DataError
from wstrank.maxscore import SURROGATE_RIDGE, MasterResult, score
from wstrank.simulation import BT_LATENT_SD


def brute_kendall(ranks_a, ranks_b) -> int:
    n = len(ranks_a)
    count = 0
    for i in range(n):
        for j in range(i + 1, n):
            if np.sign(ranks_a[i] - ranks_a[j]) != np.sign(ranks_b[i] - ranks_b[j]):
                count += 1
    return count


def brute_score(ranks, win) -> int:
    n = len(ranks)
    total = 0
    for i in range(n):
        for j in range(i + 1, n):
            if ranks[i] > ranks[j]:
                total += int(win[i][j]) - int(win[j][i])
    return total


def exhaustive_max_score(win) -> tuple[int, tuple[int, ...]]:
    """Maximum objective over all n! rankings by direct enumeration."""
    n = win.shape[0]
    pairs = [
        (i, j, int(win[i, j]) - int(win[j, i]))
        for i in range(n)
        for j in range(i + 1, n)
        if win[i, j] != win[j, i]
    ]
    best = None
    best_perm: tuple[int, ...] = ()
    for perm in itertools.permutations(range(n)):
        value = 0
        for i, j, z in pairs:
            if perm[i] > perm[j]:
                value += z
        if best is None or value > best:
            best, best_perm = value, perm
    assert best is not None
    return best, tuple(r + 1 for r in best_perm)


def loop_load_matches(records) -> ComparisonCounts:
    """``data.load_matches`` one record at a time, stopping at the first bad one."""
    if not records:
        raise DataError("no match records given")
    index: dict[str, int] = {}
    games: list[tuple[int, int]] = []
    for row, rec in enumerate(records, start=1):
        winner, loser = rec.winner, rec.loser
        if not winner or not loser:
            raise DataError(f"record {row}: empty player identifier")
        if winner == loser:
            raise DataError(f"record {row}: winner equals loser ({winner!r})")
        for name in (winner, loser):
            if name not in index:
                index[name] = len(index)
        games.append((index[winner], index[loser]))
    n = len(index)
    win = np.zeros((n, n), dtype=np.int64)
    for w, l in games:
        win[w, l] += 1
    return ComparisonCounts(win, labels=tuple(index))


def loop_read_match_csv(path) -> list[MatchRecord]:
    """``data.read_match_csv`` one row at a time, stopping at the first bad row."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise DataError(f"{path}: empty match file")
            if [h.strip() for h in header] != ["winner", "loser"]:
                raise DataError(f"{path}: expected header 'winner,loser', got {header!r}")
            records = []
            for row in reader:
                if len(row) == 2:
                    records.append(MatchRecord(*row))
                elif row:
                    raise DataError(f"{path}:{reader.line_num}: expected 2 fields, got {len(row)}")
        except csv.Error as exc:
            raise DataError(f"{path}:{reader.line_num}: {exc}") from None
    return records


def counts_error(win, labels=None) -> str | None:
    """The message ``ComparisonCounts(win, labels=labels)`` raises, checking each invariant in turn.

    ``None`` if every invariant holds.
    """
    win = np.asarray(win, dtype=np.int64)
    if win.ndim != 2 or win.shape[0] != win.shape[1] or win.shape[0] == 0:
        return "win_counts must be a non-empty square matrix"
    n = win.shape[0]
    if any(win[i, j] < 0 for i in range(n) for j in range(n)):
        return "counts must be non-negative"
    if any(win[i, i] != 0 for i in range(n)):
        return "diagonal entries must be zero"
    if labels is not None and len(labels) != n:
        return "labels length must equal the number of players"
    return None


def dense_skew_statistic(win) -> np.ndarray:
    """``data.skew_statistic`` over the full n x n matrix, every pair included."""
    win = np.asarray(win)
    pair = win + win.T
    with np.errstate(divide="ignore", invalid="ignore"):
        raw = np.where(pair > 0, 2.0 * win / np.where(pair > 0, pair, 1) - 1.0, 0.0)
    upper = np.triu(raw, 1)
    return upper - upper.T


def svd_usvt_probabilities(x, p_hat) -> ProbabilityMatrix:
    """USVT by a full SVD of ``x``, symmetrized pair by pair over the upper triangle.

    Keeps singular values above (2 + USVT_ETA) * sqrt(n * p_hat), rescales the
    truncated reconstruction by 1/p_hat, clips it to [-1, 1] and maps it to
    the probability scale; entry (i, j) is then the mean of est[i, j] and
    1 - est[j, i].
    """
    x = np.asarray(x, dtype=float)
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


def _reachable(adj, start) -> set[int]:
    seen = {start}
    stack = [start]
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def is_strongly_connected(win) -> bool:
    n = win.shape[0]
    forward = [list(np.flatnonzero(win[i] > 0)) for i in range(n)]
    backward = [list(np.flatnonzero(win[:, i] > 0)) for i in range(n)]
    return len(_reachable(forward, 0)) == n and len(_reachable(backward, 0)) == n


def largest_strong_component(win) -> tuple[int, ...]:
    """Largest strongly connected component of the win digraph (edge i -> j iff win[i, j] > 0).

    Players i and j share a component iff each reaches the other. Among
    components of equal size the one holding the smallest index is taken.
    """
    n = win.shape[0]
    forward = [list(np.flatnonzero(win[i] > 0)) for i in range(n)]
    reach = [_reachable(forward, v) for v in range(n)]
    components = {tuple(w for w in sorted(reach[v]) if v in reach[w]) for v in range(n)}
    return min(components, key=lambda c: (-len(c), c[0]))


def decisive_components(win) -> np.ndarray:
    """Each player's component of the graph joining i and j when win[i, j] != win[j, i].

    A component is labelled by its lowest-index player.
    """
    n = win.shape[0]
    neighbours = [list(np.flatnonzero(win[i] != win[:, i])) for i in range(n)]
    return np.array([min(_reachable(neighbours, v)) for v in range(n)])


def brute_wst_violations(probs) -> list[tuple[int, int, int]]:
    n = probs.shape[0]
    out = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if i == j or j == k or i == k:
                    continue
                if probs[i, j] >= 0.5 and probs[j, k] >= 0.5 and probs[i, k] < 0.5:
                    out.append((i, j, k))
    return sorted(out)


def sst_holds(probs) -> bool:
    n = probs.shape[0]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if i == j or j == k or i == k:
                    continue
                if probs[i, j] >= 0.5 and probs[j, k] >= 0.5:
                    if probs[i, k] < max(probs[i, j], probs[j, k]):
                        return False
    return True


def expit_bt_latent_better(config, rng) -> np.ndarray:
    """bt_latent's better-player probabilities ``P[j, i]``, i < j, built with scipy's ``expit``.

    Draws what ``gen_probabilities`` draws for bt_latent, in the same order,
    so ``rng`` ends in the same state.
    """
    latent = np.sort(rng.normal(0.0, BT_LATENT_SD, config.n))
    iu, ju = np.triu_indices(config.n, 1)
    return np.maximum(expit(latent[ju] - latent[iu]), np.nextafter(0.5, 1.0))


def expit_synthetic_matches(n_players, pair_density, seed=0):
    """``synthetic_matches`` with its win probabilities from scipy's ``expit``, one record at a time.

    Reads ``SYNTHETIC_T_MAX`` and ``SYNTHETIC_SCORE_SD`` from the module at
    each call, as ``synthetic_matches`` does, so a patched value reaches both.
    """
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, 875)))
    latent = rng.normal(0.0, simulation.SYNTHETIC_SCORE_SD, n_players)
    iu, ju = np.triu_indices(n_players, 1)
    met = rng.random(iu.size) < pair_density
    iu, ju = iu[met], ju[met]
    games = rng.integers(1, simulation.SYNTHETIC_T_MAX + 1, iu.size)
    wins_i = rng.binomial(games, expit(latent[iu] - latent[ju]))
    records = []
    for a, b, g, w in zip(iu, ju, games, wins_i):
        winner, loser = f"P{a:04d}", f"P{b:04d}"
        records += [MatchRecord(winner, loser) for _ in range(w)]
        records += [MatchRecord(loser, winner) for _ in range(g - w)]
    return records


def bt_log_likelihood(beta, counts: ComparisonCounts) -> float:
    """Bradley-Terry log-likelihood sum of y_ij * log sigmoid(beta_i - beta_j), on dense n x n arrays."""
    b = np.asarray(beta, dtype=float)
    diff = b[:, None] - b[None, :]
    # log sigmoid computed stably as -log1p(exp(-|d|)) + min(d, 0)
    log_sig = np.minimum(diff, 0.0) - np.log1p(np.exp(-np.abs(diff)))
    return float((counts.win_counts * log_sig).sum())


def bt_mm_beta(win, tol: float = 1e-8, max_iters: int = 100000) -> np.ndarray:
    """Bradley-Terry MLE by the minorization-maximization fixed point (Hunter 2004).

    Works on the strength scale over dense n x n arrays, normalising the
    strengths' geometric mean to one after each update, and stops once the
    log-likelihood gradient norm is at most ``tol``. Returns the log-strengths
    centred to sum zero. The win digraph must be strongly connected.
    """
    win = np.asarray(win, dtype=float)
    n = win.shape[0]
    wins = win.sum(axis=1)
    games = win + win.T
    strength = np.ones(n)
    for _ in range(max_iters):
        pairwise = strength[:, None] + strength[None, :]
        grad = wins - (games * (strength[:, None] / pairwise)).sum(axis=1)
        if float(np.linalg.norm(grad)) <= tol:
            beta = np.log(strength)
            return beta - beta.mean()
        strength = wins / (games / pairwise).sum(axis=1)
        strength /= math.exp(float(np.mean(np.log(strength))))
    raise AssertionError(f"MM gradient norm still above {tol} after {max_iters} iterations")


def bt_oracle_beta(win) -> np.ndarray:
    """Bradley-Terry MLE by generic derivative-free minimisation.

    Parameterised by the first n-1 scores with the last fixed to minus their
    sum, so the sum-to-zero constraint holds by construction.
    """
    from scipy.optimize import minimize

    n = win.shape[0]

    def negative_log_likelihood(free):
        beta = np.append(free, -free.sum())
        total = 0.0
        for i in range(n):
            for j in range(n):
                if i != j and win[i, j] > 0:
                    total += win[i, j] * np.log1p(np.exp(-(beta[i] - beta[j])))
        return total

    result = minimize(
        negative_log_likelihood,
        np.zeros(n - 1),
        method="Nelder-Mead",
        options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": 50000, "maxfev": 50000},
    )
    beta = np.append(result.x, -result.x.sum())
    return beta - beta.mean()


def dense_surrogate_gradient(win, beta) -> np.ndarray:
    """Gradient of ``maxscore.surrogate_init``'s penalised objective at ``beta``.

    Written over every pair i < j, including unplayed and drawn ones, one
    pair at a time: the term z_ij * sigmoid(beta_i - beta_j) adds
    z_ij * s * (1 - s) to the i-th component and subtracts it from the j-th.
    """
    n = len(win)
    grad = [-2.0 * SURROGATE_RIDGE * float(b) for b in beta]
    for i in range(n):
        for j in range(i + 1, n):
            z = int(win[i][j]) - int(win[j][i])
            s = 1.0 / (1.0 + math.exp(-(float(beta[i]) - float(beta[j]))))
            grad[i] += z * s * (1.0 - s)
            grad[j] -= z * s * (1.0 - s)
    return np.array(grad)


def rescan_ktuple_search(counts, init, k) -> MasterResult:
    """K-tuple local search that rescans from the lowest window after every move.

    The plain form of ``maxscore.ktuple_search``: each window's k! totals
    are summed by gathering the internal pair terms of every permutation, and
    an accepted move sends the scan back to the window ending at k.
    """
    n = counts.n
    z = counts.win_counts - counts.win_counts.T
    contribution = np.triu(z, 1)
    perms = np.array(list(itertools.permutations(range(k))), dtype=np.intp)
    low_slot, high_slot = np.triu_indices(k, 1)
    occupant_high = perms[:, high_slot]
    occupant_low = perms[:, low_slot]

    order = init.order().copy()
    init_objective = score(init, counts)
    objective = init_objective
    sweeps = 0
    t = k
    while t <= n:
        segment = order[t - k : t]
        sub = contribution[np.ix_(segment, segment)]
        totals = sub[occupant_high, occupant_low].sum(axis=1)
        best = int(totals.argmax())
        if totals[best] > totals[0]:
            order[t - k : t] = segment[perms[best]]
            objective += int(totals[best] - totals[0])
            sweeps += 1
            t = k
        else:
            t += 1
    ranks = np.empty(n, dtype=np.int64)
    ranks[order] = np.arange(1, n + 1)
    return MasterResult(Ranking(ranks), objective, init_objective, sweeps)
