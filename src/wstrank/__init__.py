"""Rank aggregation from sparse pairwise comparisons under weak stochastic transitivity.

The package exposes a data model for pairwise game counts, a maximum-score
rank estimator with a logistic-surrogate initialisation and K-tuple local
search, three baseline rankers (counting, Bradley-Terry, USVT), ranking
metrics including a difficulty-weighted Kendall distance, and a seeded
simulation-study harness. A CLI binds everything into batch workflows; see
``python -m wstrank --help``.
"""

from .baselines import (
    borda_rank,
    bt_fit,
    usvt_rank,
)
from .data import (
    ComparisonCounts,
    MatchRecord,
    MatchRecords,
    ProbabilityMatrix,
    Ranking,
    WstReport,
    check_wst,
    filter_players,
    load_matches,
    read_match_csv,
    skew_statistic,
    write_match_csv,
)
from .errors import (
    AlignmentError,
    ConvergenceError,
    DataError,
    NotConnectedError,
    NumericError,
)
from .maxscore import (
    MasterOptions,
    MasterResult,
    certify,
    ktuple_search,
    master_rank,
    score,
    surrogate_init,
)
from .metrics import (
    error_rate,
    kendall_tau,
    modified_tau,
    q_bar,
    q_sequence,
    spearman_rho,
)
from .simulation import (
    METHODS,
    SCENARIOS,
    MethodStats,
    SimConfig,
    StudyResult,
    gen_counts,
    gen_probabilities,
    rank_counts,
    replicate_rng,
    run_study,
    synthetic_matches,
)

__version__ = "0.1.0"

__all__ = [
    "AlignmentError",
    "ComparisonCounts",
    "ConvergenceError",
    "DataError",
    "MasterOptions",
    "MasterResult",
    "MatchRecord",
    "MatchRecords",
    "METHODS",
    "MethodStats",
    "NotConnectedError",
    "NumericError",
    "ProbabilityMatrix",
    "Ranking",
    "SCENARIOS",
    "SimConfig",
    "StudyResult",
    "WstReport",
    "borda_rank",
    "bt_fit",
    "certify",
    "check_wst",
    "error_rate",
    "filter_players",
    "gen_counts",
    "gen_probabilities",
    "kendall_tau",
    "ktuple_search",
    "load_matches",
    "master_rank",
    "modified_tau",
    "q_bar",
    "q_sequence",
    "rank_counts",
    "read_match_csv",
    "replicate_rng",
    "run_study",
    "score",
    "skew_statistic",
    "spearman_rho",
    "surrogate_init",
    "synthetic_matches",
    "usvt_rank",
    "write_match_csv",
]
