"""Seeded generators for the three comparison scenarios and the study harness.

Every replicate draws from its own RNG stream derived as
``SeedSequence(entropy=(seed, replicate_index))``, so results are identical
whatever the execution order.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .baselines import borda_scores, bt_fit, usvt_rank
from .data import ComparisonCounts, MatchRecord, ProbabilityMatrix, Ranking
from .errors import DataError, NumericError
from .maxscore import MasterOptions, MasterResult, certify, master_rank
from .metrics import error_rate, kendall_tau

SCENARIOS = ("uniform", "two_group", "bt_latent")
METHODS = ("counting", "bt", "usvt", "master")
BT_LATENT_SD = math.sqrt(2.0)  # bt_latent's latent-score standard deviation (variance 2)
SYNTHETIC_T_MAX = 5  # synthetic_matches: most games a meeting pair plays
SYNTHETIC_SCORE_SD = 1.5  # synthetic_matches: latent-score standard deviation


def study_methods(methods: tuple[str, ...]) -> tuple[str, ...]:
    """The requested methods in :data:`METHODS` order; ValueError for an unknown one or none."""
    if not methods:
        raise ValueError(f"no method given; expected a subset of {METHODS}")
    for m in methods:
        if m not in METHODS:
            raise ValueError(f"unknown method {m!r}; expected a subset of {METHODS}")
    return tuple(m for m in METHODS if m in methods)


@dataclass(frozen=True, eq=False)
class Fit:
    """A method's ranking, the per-player scores it sorts by, and master's search result."""

    ranking: Ranking
    scores: np.ndarray
    master: MasterResult | None = None


def rank_counts(
    method: str, counts: ComparisonCounts, master_opts: MasterOptions | None = None
) -> Fit:
    """Fit one of :data:`METHODS`; ``master_opts`` applies to master only.

    Scores are win-fraction sums (counting), Bradley-Terry log-strengths (bt),
    estimated win-probability row sums (usvt), or the ranks themselves (master,
    whose objective gives no per-player score).
    """
    if method == "counting":
        scores = borda_scores(counts)
        return Fit(Ranking.from_scores(scores), scores)
    if method == "bt":
        beta, ranking = bt_fit(counts)
        return Fit(ranking, beta)
    if method == "usvt":
        estimate, ranking = usvt_rank(counts)
        return Fit(ranking, estimate.probs.sum(axis=1))
    if method == "master":
        result = master_rank(counts, master_opts)
        return Fit(result.ranking, result.ranking.ranks.astype(float), result)
    raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")


@dataclass(frozen=True)
class SimConfig:
    """One simulation setting.

    True ranks are 1..n by player index (player n is best). Pair i < j plays
    Binomial(t_max, xi_ij) games with xi_ij ~ Uniform(xi_low, xi_high), and
    the better player wins each game independently with the scenario's
    probability.

    Reliable recovery needs the sampling rates to stay comparable across
    pairs and not vanish too fast: keep xi_low within a constant factor of
    xi_high and at least on the order of log(n)/n.
    """

    scenario: str
    n: int
    t_max: int = 5
    xi_low: float = 0.3
    xi_high: float = 0.5
    replicates: int = 100
    seed: int = 0

    def __post_init__(self) -> None:
        if self.scenario not in SCENARIOS:
            raise ValueError(f"unknown scenario {self.scenario!r}; expected one of {SCENARIOS}")
        if self.n < 2:
            raise ValueError("n must be at least 2")
        if self.scenario == "two_group" and self.n % 2:
            raise ValueError("two_group requires an even number of players")
        if not 0 <= self.t_max <= 2**63 - 1:  # numpy draws binomials with a C long
            raise ValueError("t_max must be between 0 and 2**63 - 1")
        if not 0 <= self.xi_low <= self.xi_high <= 1:
            raise ValueError("need 0 <= xi_low <= xi_high <= 1")
        if self.replicates < 2:
            raise ValueError("replicates must be at least 2 to estimate standard errors")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


def replicate_rng(seed: int, replicate: int) -> np.random.Generator:
    """Independent, order-insensitive RNG stream for one replicate."""
    return np.random.default_rng(np.random.SeedSequence(entropy=(seed, replicate)))


def gen_probabilities(
    config: SimConfig, rng: np.random.Generator
) -> tuple[ProbabilityMatrix, Ranking]:
    """Draw a true probability matrix and its (identity) true ranking.

    uniform: the better of each pair wins with Uniform(0.5, 1) probability.
    two_group: players split into a worse half and a better half; the better
    player's probability is Uniform(0.75, 0.85) within a group and
    Uniform(0.65, 0.75) across groups, so cross-group pairs are noisier.
    bt_latent: sorted latent normal scores with a logistic link.
    All three admit the identity ranking and satisfy weak transitivity.
    """
    n = config.n
    iu, ju = np.triu_indices(n, 1)
    if config.scenario == "uniform":
        better = rng.uniform(0.5, 1.0, iu.size)
    elif config.scenario == "two_group":
        half = n // 2
        same_group = (iu < half) == (ju < half)
        low = np.where(same_group, 0.75, 0.65)
        better = low + 0.1 * rng.uniform(0.0, 1.0, iu.size)
    else:
        latent = np.sort(rng.normal(0.0, BT_LATENT_SD, n))
        better = 1.0 / (1.0 + np.exp(latent[iu] - latent[ju]))  # sorted, so exponent <= 0
    # rule out exact coin flips so the implied ranking is unique
    better = np.maximum(better, np.nextafter(0.5, 1.0))
    probs = np.full((n, n), 0.5)
    probs[ju, iu] = better  # higher index is the better player
    probs[iu, ju] = 1.0 - better
    return ProbabilityMatrix(probs), Ranking.identity(n)


def gen_counts(
    P_star: ProbabilityMatrix, config: SimConfig, rng: np.random.Generator
) -> ComparisonCounts:
    """Sample game and win counts for every pair under the sparse design."""
    n = P_star.n
    if n != config.n:
        raise ValueError("probability matrix size differs from config.n")
    iu, ju = np.triu_indices(n, 1)
    xi = rng.uniform(config.xi_low, config.xi_high, iu.size)
    games = rng.binomial(config.t_max, xi)
    wins_upper = rng.binomial(games, P_star.probs[iu, ju])
    win = np.zeros((n, n), dtype=np.int64)
    win[iu, ju] = wins_upper
    win[ju, iu] = games - wins_upper
    return ComparisonCounts(win)


@dataclass(frozen=True)
class MethodStats:
    """Aggregates for one method across replicates.

    Standard errors are sample standard deviation / sqrt(replicates used).
    The ``paper`` fields are the ``pairs`` fields divided by 4 (see
    :func:`error_rate`), which is exact in floating point.
    ``cert_rate`` is the fraction of replicates where the returned ranking
    scored at least as well as the truth (master only, None otherwise).
    Replicates where the method raised a data or numeric error (e.g. a
    disconnected graph for BT, or no observed pair for USVT) are counted in
    ``failures`` and excluded from the means.
    """

    method: str
    replicates_used: int
    failures: int
    mean_error_pairs: float
    se_pairs: float
    mean_error_paper: float
    se_paper: float
    cert_rate: float | None
    secs: float


@dataclass(frozen=True, eq=False)
class StudyResult:
    stats: tuple[MethodStats, ...]

    def by_method(self) -> dict[str, MethodStats]:
        return {s.method: s for s in self.stats}


def run_study(
    config: SimConfig,
    methods: tuple[str, ...] = METHODS,
    master_opts: MasterOptions | None = None,
) -> StudyResult:
    """Replicated comparison of ranking methods on freshly simulated data.

    Each replicate generates its own truth and counts from a derived seed,
    runs every requested method, and records the Kendall error under both
    normalizations plus the score certificate for master. Deterministic for
    a given config.
    """
    ordered = study_methods(methods)
    per_replicate = []
    for replicate in range(config.replicates):
        rng = replicate_rng(config.seed, replicate)
        P_star, truth = gen_probabilities(config, rng)
        counts = gen_counts(P_star, config, rng)
        out: dict[str, tuple[int, float, bool | None] | None] = {}
        for method in ordered:
            start = time.perf_counter()
            try:
                fit = rank_counts(method, counts, master_opts)
            except (DataError, NumericError):
                out[method] = None
                continue
            elapsed = time.perf_counter() - start
            cert = None if fit.master is None else certify(fit.ranking, truth, counts)[0]
            out[method] = (kendall_tau(fit.ranking, truth), elapsed, cert)
        per_replicate.append(out)

    stats = []
    for method in ordered:
        rows = [rep[method] for rep in per_replicate]
        kept = [r for r in rows if r is not None]
        failures = len(rows) - len(kept)
        secs = float(np.mean([r[1] for r in kept])) if kept else math.nan
        pairs = np.array([error_rate(r[0], config.n, "pairs") for r in kept])
        mean_pairs = float(pairs.mean()) if kept else math.nan
        se_pairs = float(pairs.std(ddof=1) / math.sqrt(len(kept))) if len(kept) > 1 else math.nan
        cert_rate = None
        if method == "master":
            cert_rate = float(np.mean([bool(r[2]) for r in kept])) if kept else math.nan
        stats.append(
            MethodStats(
                method=method,
                replicates_used=len(kept),
                failures=failures,
                mean_error_pairs=mean_pairs,
                se_pairs=se_pairs,
                mean_error_paper=mean_pairs / 4,
                se_paper=se_pairs / 4,
                cert_rate=cert_rate,
                secs=secs,
            )
        )
    return StudyResult(tuple(stats))


def synthetic_matches(n_players: int, pair_density: float, seed: int = 0) -> list[MatchRecord]:
    """Synthetic tournament records at a target pair-coverage density.

    Each unordered pair meets with probability ``pair_density`` and then
    plays 1..``SYNTHETIC_T_MAX`` games; winners follow a logistic model on
    latent normal scores with standard deviation ``SYNTHETIC_SCORE_SD``. Handy
    for exercising the ingestion pipeline at realistic scale without
    shipping any real dataset.
    """
    if not 0 < pair_density <= 1:
        raise ValueError("pair_density must be in (0, 1]")
    if n_players < 2:
        raise ValueError("need at least 2 players")
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, 875)))
    labels = [f"P{i:04d}" for i in range(n_players)]
    latent = rng.normal(0.0, SYNTHETIC_SCORE_SD, n_players)
    iu, ju = np.triu_indices(n_players, 1)
    met = rng.random(iu.size) < pair_density
    iu, ju = iu[met], ju[met]
    games = rng.integers(1, SYNTHETIC_T_MAX + 1, iu.size)
    with np.errstate(over="ignore"):  # exp -> inf gives probability 0.0 exactly
        wins_i = rng.binomial(games, 1.0 / (1.0 + np.exp(latent[ju] - latent[iu])))
    records: list[MatchRecord] = []
    for a, b, g, w in zip(iu, ju, games, wins_i):
        records.extend([MatchRecord(labels[a], labels[b])] * int(w))
        records.extend([MatchRecord(labels[b], labels[a])] * int(g - w))
    return records
