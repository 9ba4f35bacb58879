"""Maximum-score rank estimation.

The objective for a ranking pi is

    L(pi) = sum over pairs i < j of (2*y_ij - n_ij) * I(pi_i > pi_j),

the net number of observed game outcomes consistent with pi. It is maximised
in two stages: a smooth logistic surrogate, maximised by L-BFGS until its
gradient is within a tolerance of zero, gives an initial ranking, then a local
search repeatedly re-permutes every window of K consecutive rank positions
while any strict improvement exists.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .data import ComparisonCounts, Ranking, strong_components
from .errors import NumericError

MAX_TUPLE_LEN = 8  # K! enumeration guard
SURROGATE_RIDGE = 1e-3  # keeps the surrogate's maximiser finite
SURROGATE_GTOL = 1e-4  # gradient 2-norm at which the surrogate fit stops
SURROGATE_MAX_STEP = 2.0  # bound on any beta_i's move in one line-search trial


@dataclass(frozen=True)
class MasterOptions:
    """Tuning knobs for the two-stage search.

    ``surrogate_iters`` caps the surrogate's L-BFGS steps; the fit normally
    stops earlier, on the gradient tolerance ``SURROGATE_GTOL``. Each step's
    halving line search starts at the L-BFGS step, shortened so that no beta_i
    moves by more than ``SURROGATE_MAX_STEP``; the first step follows
    0.5/sqrt(mean opponents per player) times the gradient. Only rank(beta) is
    consumed downstream, so the surrogate's absolute scale is immaterial.
    """

    k: int = 3
    surrogate_iters: int = 500

    def __post_init__(self) -> None:
        if not 2 <= self.k <= MAX_TUPLE_LEN:
            raise ValueError(f"k must be in [2, {MAX_TUPLE_LEN}]")
        if self.surrogate_iters <= 0:
            raise ValueError("surrogate_iters must be positive")


@dataclass(frozen=True, eq=False)
class MasterResult:
    """Final ranking with objective diagnostics; objective >= init_objective.

    ``sweeps`` counts the improving window moves ``ktuple_search`` applied,
    not full passes over the ranking.
    """

    ranking: Ranking
    objective: int
    init_objective: int
    sweeps: int

    def __post_init__(self) -> None:
        if self.objective < self.init_objective:
            raise ValueError("search must not decrease the objective")
        if self.sweeps < 0:
            raise ValueError("sweeps must be non-negative")


def score(pi: Ranking, counts: ComparisonCounts) -> int:
    """Exact integer objective L(pi), summed over the pairs of ``counts.played``.

    Unplayed pairs add nothing, and a played pair without a net winner adds
    its z = 0.
    """
    if pi.n != counts.n:
        raise ValueError("ranking and counts disagree on the number of players")
    lo, hi, _, z = counts.played
    return int(z @ (pi.ranks[lo] > pi.ranks[hi]))


def surrogate_init(
    counts: ComparisonCounts,
    opts: MasterOptions | None = None,
    trace: list | None = None,
) -> tuple[np.ndarray, Ranking]:
    """Fit the logistic surrogate and return (scores, implied ranking).

    Maximises sum over i < j of z_ij * sigmoid(beta_i - beta_j) minus
    ``SURROGATE_RIDGE`` * |beta|^2 by two-loop L-BFGS (Liu and Nocedal 1989)
    from beta = 0. Every trial is re-centred to mean zero within each
    connected component of the graph of pairs with z_ij != 0, as found by
    :func:`~wstrank.data.strong_components` on that graph. The pair terms
    do not change when one component shifts as a whole, and the ridge is
    least at that component's mean zero, so the maximiser has every
    component at mean zero and the centring sets it exactly. It leaves no
    direction held in place by the ridge alone, and it puts a player without
    decisive pairs at exactly 0.0, tied by index with the others. It stops
    once the gradient's 2-norm is at most ``SURROGATE_GTOL``, after
    ``opts.surrogate_iters`` steps, or when no step passes the line search.
    The surrogate is not concave, so a curvature pair with
    s.y <= 1e-10 * y.y is not stored. The first direction, and any L-BFGS
    direction that is not an ascent direction (which also clears the pairs),
    is base_step * gradient. Each line search halves from
    t = min(1, SURROGATE_MAX_STEP / max|direction|), which keeps steps from
    jumping between the surrogate's basins, and accepts the first t meeting
    the Armijo condition, so the penalised objective rises with every step.
    If ``trace`` is a list, the objective value after each accepted step is
    appended to it: one entry per step, non-decreasing.

    The sums run over the m pairs of ``counts.played`` with z_ij != 0 only,
    masked once per call; the others add nothing. Each line-search trial
    and each gradient therefore costs O(m + n), not O(n^2), and the
    gradient reuses the sigmoids computed for the accepted trial. A trial's sigmoids are
    1 / (1 + exp(beta_j - beta_i)), computed in place in one array, with
    beta_i repeated once per segment of the sorted ``lo``; an exp that
    overflows gives exactly 0.0. The gradient adds each player's pair
    terms as one segment sum (``np.add.reduceat``): over the pairs in
    ``lo`` order, which is already sorted, for the players as i, and over
    the pairs sorted once by ``hi`` for the players as j. So its sums run in
    segment order, not in the order of a ``bincount`` over the pair list.
    """
    opts = opts or MasterOptions()
    n = counts.n
    lo, hi, _, z = counts.played
    net = z != 0
    lo, hi, zw = lo[net], hi[net], z[net].astype(float)
    lo_starts = np.flatnonzero(np.diff(lo, prepend=-1))  # lo is sorted
    lo_lens = np.diff(lo_starts, append=lo.size)
    hi_order = np.argsort(hi, kind="stable")
    hi_starts = np.flatnonzero(np.diff(hi[hi_order], prepend=-1))
    lo_own, hi_own = lo[lo_starts], hi[hi_order[hi_starts]]
    adj = np.zeros((n, n), dtype=bool)
    adj[lo, hi] = adj[hi, lo] = True
    comp = np.empty(n, dtype=np.int64)
    for c in strong_components(adj):
        comp[c] = c.argmax()  # each component is labelled by its lowest index
    comp_size = np.bincount(comp, minlength=n)[comp].astype(float)

    def objective(b: np.ndarray) -> tuple[float, np.ndarray]:
        sig = np.take(b, hi)
        sig -= np.repeat(b[lo_own], lo_lens)  # b[lo], one value per segment
        with np.errstate(over="ignore"):  # exp -> inf gives sigmoid 0.0 exactly
            np.exp(sig, out=sig)
        sig += 1.0
        np.reciprocal(sig, out=sig)
        return float(zw @ sig - SURROGATE_RIDGE * (b @ b)), sig

    def gradient(b: np.ndarray, sig: np.ndarray) -> np.ndarray:
        g = 1.0 - sig
        g *= sig
        g *= zw
        grad = -2.0 * SURROGATE_RIDGE * b
        if g.size:
            grad[lo_own] += np.add.reduceat(g, lo_starts)
            grad[hi_own] -= np.add.reduceat(g[hi_order], hi_starts)
        if not np.all(np.isfinite(grad)):
            raise NumericError("non-finite gradient in surrogate ascent")
        return grad

    mean_degree = 2 * counts.played[0].size / n
    base_step = 0.5 / math.sqrt(max(mean_degree, 1.0))

    beta = np.zeros(n)
    obj, sig = objective(beta)
    grad = gradient(beta, sig)
    pairs: list = []  # the last 10 curvature pairs (s, y, 1 / s.y), oldest first
    for _ in range(opts.surrogate_iters):
        if math.sqrt(grad @ grad) <= SURROGATE_GTOL:
            break
        direction = grad.copy()
        alphas = []
        for s, y, rho in reversed(pairs):
            alphas.append(rho * (s @ direction))
            direction -= alphas[-1] * y
        if pairs:
            s, y, rho = pairs[-1]
            direction *= 1.0 / (rho * (y @ y))  # s.y / y.y, the usual initial scale
        else:
            direction *= base_step
        for (s, y, rho), alpha in zip(pairs, reversed(alphas)):
            direction += (alpha - rho * (y @ direction)) * s
        if grad @ direction <= 0.0:
            pairs.clear()
            direction = base_step * grad
        slope = grad @ direction
        step = min(1.0, SURROGATE_MAX_STEP / np.abs(direction).max())
        accepted = None
        for _ in range(40):
            candidate = beta + step * direction
            candidate -= np.bincount(comp, candidate, n)[comp] / comp_size
            cand_obj, cand_sig = objective(candidate)
            if not math.isfinite(cand_obj):
                raise NumericError("non-finite objective in surrogate ascent")
            if cand_obj >= obj + 1e-4 * step * slope:
                accepted = (candidate, cand_obj, cand_sig)
                break
            step *= 0.5
        if accepted is None:
            break  # no ascent step at float precision
        candidate, obj, sig = accepted
        new_grad = gradient(candidate, sig)
        s, y = candidate - beta, grad - new_grad
        if s @ y > 1e-10 * (y @ y):
            pairs = pairs[-9:] + [(s, y, 1.0 / (s @ y))]
        beta, grad = candidate, new_grad
        if trace is not None:
            trace.append(obj)
    return beta, Ranking.from_scores(beta)


@lru_cache(maxsize=MAX_TUPLE_LEN)
def _window_tables(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only k! permutation table and 0/1 ``pick`` matrix for ``ktuple_search``.

    The permutations are in lexicographic order. Built once per k: at k = 8 a
    build takes about 50 ms and 20 MB.
    """
    perms = np.array(list(itertools.permutations(range(k))), dtype=np.intp)
    slot_position = np.argsort(perms, axis=1).T  # [a, p]: where p puts slot a
    pick = (slot_position[:, None] > slot_position[None, :]).reshape(k * k, -1).astype(float)
    perms.flags.writeable = False
    pick.flags.writeable = False
    return perms, pick


def ktuple_search(counts: ComparisonCounts, init: Ranking, k: int) -> MasterResult:
    """Local search over windows of k consecutive rank positions.

    Starting at the lowest window, all k! assignments of the window's players
    to its positions are scored; the best strictly improving one is applied
    (ties among equally good improvements go to the lexicographically first
    permutation), otherwise the window moves up one position. Permuting
    players within a contiguous window leaves their order relative to
    everyone outside unchanged, so only the O(k^2) internal pairs are
    re-scored: with ``pick[a*k + b, p] = 1`` when permutation p puts slot a
    above slot b, the window's k x k block of pair terms, flattened, times
    ``pick`` gives all k! totals in one product (exact, as the terms are
    integers). After a move in the window ending at t the scan resumes at the
    first window that shares a position with it, the one ending at
    t - k + 1 (or k). Every window below it was non-improving when scanned
    and its internal pairs are untouched, so rescanning them from the bottom
    would find no move there: the sequence of moves is the same. Terminates
    because the objective is integer, strictly increasing on each accepted
    move, and bounded.

    The pair terms are the net wins z of ``counts.played``.
    """
    n = counts.n
    if init.n != n:
        raise ValueError("ranking and counts disagree on the number of players")
    if not 2 <= k <= min(n, MAX_TUPLE_LEN):
        raise ValueError(f"k must be in [2, min(n, {MAX_TUPLE_LEN})]")
    lo, hi, _, z = counts.played
    # contribution[w, l] is the objective term earned when w is ranked above l
    contribution = np.zeros((n, n))
    contribution[lo, hi] = z
    perms, pick = _window_tables(k)

    order = init.order().copy()  # players from worst to best
    init_objective = score(init, counts)
    objective = init_objective
    sweeps = 0
    t = k
    while t <= n:
        segment = order[t - k : t]
        totals = contribution[np.ix_(segment, segment)].ravel() @ pick
        best = int(totals.argmax())  # perms are lexicographic; identity is first
        if totals[best] > totals[0]:
            order[t - k : t] = segment[perms[best]]
            objective += int(totals[best] - totals[0])
            sweeps += 1
            t = max(k, t - k + 1)
        else:
            t += 1
    ranks = np.empty(n, dtype=np.int64)
    ranks[order] = np.arange(1, n + 1)
    return MasterResult(Ranking(ranks), objective, init_objective, sweeps)


def master_rank(counts: ComparisonCounts, opts: MasterOptions | None = None) -> MasterResult:
    """Surrogate initialisation followed by k-tuple search.

    The window length is clamped to the number of players so tiny instances
    (n < k) still work; n = 1 returns the only possible ranking.
    """
    opts = opts or MasterOptions()
    if counts.n == 1:
        return MasterResult(Ranking.identity(1), 0, 0, 0)
    _, init = surrogate_init(counts, opts)
    return ktuple_search(counts, init, min(opts.k, counts.n))


def certify(candidate: Ranking, truth: Ranking, counts: ComparisonCounts) -> tuple[bool, int]:
    """Check L(candidate) >= L(truth); returns (ok, margin).

    A simulation-only diagnostic: when the margin is non-negative the
    candidate inherits the estimator's guarantees without being a global
    maximiser.
    """
    margin = score(candidate, counts) - score(truth, counts)
    return margin >= 0, margin
