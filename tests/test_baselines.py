import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import expit

from wstrank import (
    ComparisonCounts,
    ConvergenceError,
    DataError,
    NotConnectedError,
    Ranking,
    SimConfig,
    borda_rank,
    bt_fit,
    error_rate,
    gen_counts,
    gen_probabilities,
    kendall_tau,
    skew_statistic,
    usvt_rank,
)
from wstrank import NumericError, baselines
from wstrank.cli import main
from wstrank.simulation import replicate_rng

from oracles import bt_log_likelihood, bt_mm_beta, bt_oracle_beta, svd_usvt_probabilities
from test_data import game_counts


def counts_from_wins(win):
    win = np.asarray(win)
    return ComparisonCounts(win)


def random_instance(seed, n, scenario="uniform", replicate=0, **kwargs):
    cfg = SimConfig(scenario=scenario, n=n, seed=seed, **kwargs)
    rng = replicate_rng(seed, replicate)
    P, truth = gen_probabilities(cfg, rng)
    return gen_counts(P, cfg, rng), truth


def dense_bt_gradient(beta, counts):
    """Log-likelihood gradient of ``beta`` over every ordered pair of players."""
    diff = beta[:, None] - beta[None, :]
    return counts.win_counts.sum(axis=1) - (counts.pair_counts * expit(diff)).sum(axis=1)


def singular_solve(a, b):
    raise np.linalg.LinAlgError("Singular matrix")


def nan_solve(a, b):
    return np.full_like(b, np.nan)


@st.composite
def strongly_connected_counts(draw):
    """Win counts on 2 to 9 players whose win digraph is strongly connected.

    A random cycle of single wins makes the digraph strongly connected. A
    dense instance then adds 0 to 12 games to every pair, a sparse one a
    few games to a few pairs.
    """
    n = draw(st.integers(min_value=2, max_value=9))
    cycle = draw(st.permutations(range(n)))
    win = np.zeros((n, n), dtype=int)
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        win[a, b] += 1
    player = st.integers(0, n - 1)
    if draw(st.booleans()):
        extra = [(i, j, draw(st.integers(0, 12))) for i in range(n) for j in range(n) if i != j]
    else:
        extra = draw(st.lists(st.tuples(player, player, st.integers(1, 12)), max_size=n))
    for i, j, games in extra:
        if i != j:
            win[i, j] += games
    return ComparisonCounts(win)


class TestBorda:
    def test_single_pair_dominance(self):
        counts = counts_from_wins([[0, 0], [5, 0]])
        assert borda_rank(counts) == Ranking([1, 2])

    def test_fully_symmetric_data_gives_tie_break_order(self):
        win = np.array([[0, 2, 2], [2, 0, 2], [2, 2, 0]])
        counts = ComparisonCounts(win)
        assert borda_rank(counts) == Ranking([1, 2, 3])

    def test_noiseless_dense_data_recovers_truth(self):
        n = 12
        win = np.zeros((n, n), dtype=int)
        for i in range(n):
            for j in range(n):
                if i > j:
                    win[i, j] = 4  # higher index always wins
        counts = ComparisonCounts(win)
        assert borda_rank(counts) == Ranking.identity(n)

    def test_invariant_to_duplicating_games(self):
        counts, _ = random_instance(5, 20)
        tripled = ComparisonCounts(3 * counts.win_counts)
        assert borda_rank(counts) == borda_rank(tripled)

    def test_unplayed_players_sink_by_index(self):
        # player 1 (middle) has no games at all
        win = np.array([[0, 0, 4], [0, 0, 0], [0, 0, 0]])
        counts = ComparisonCounts(win)
        ranking = borda_rank(counts)
        assert ranking.ranks[1] < ranking.ranks[0]
        assert ranking.ranks[1] < ranking.ranks[2]


class TestBradleyTerry:
    def test_even_pair_is_symmetric(self):
        counts = counts_from_wins([[0, 1], [1, 0]])
        beta, ranking = bt_fit(counts)
        assert np.allclose(beta, 0.0)
        assert ranking == Ranking([1, 2])

    def test_sum_zero_and_gradient_norm(self):
        counts, _ = random_instance(9, 25)
        beta, _ = bt_fit(counts)
        assert abs(beta.sum()) < 1e-12
        # independent gradient evaluation at the returned point
        assert np.linalg.norm(dense_bt_gradient(beta, counts)) <= baselines.BT_TOL

    def test_ascends_from_zero(self):
        counts, _ = random_instance(10, 20)
        beta, _ = bt_fit(counts)
        assert bt_log_likelihood(beta, counts) >= bt_log_likelihood(np.zeros(20), counts)

    def test_matches_generic_optimizer(self):
        rng = np.random.default_rng(77)
        for _ in range(3):
            win = np.zeros((3, 3), dtype=int)
            for i in range(3):
                for j in range(i + 1, 3):
                    w = int(rng.integers(3, 10))
                    win[i, j] = w
                    win[j, i] = 12 - w
            counts = ComparisonCounts(win)
            beta, _ = bt_fit(counts)
            oracle = bt_oracle_beta(counts.win_counts)
            assert np.abs(beta - oracle).max() < 1e-4

    def test_disconnected_graph_raises_with_hint(self):
        win = np.array([[0, 2, 0], [0, 0, 0], [0, 0, 0]])
        counts = ComparisonCounts(win)
        with pytest.raises(NotConnectedError, match="bt-connected"):
            bt_fit(counts)

    def test_non_convergence_names_the_step_budget(self, monkeypatch):
        counts, _ = random_instance(11, 12)
        monkeypatch.setattr(baselines, "BT_MAX_ITERS", 1)
        with pytest.raises(ConvergenceError, match="still above 1e-08 after 1 Newton steps"):
            bt_fit(counts)

    def test_deterministic(self):
        counts, _ = random_instance(12, 18)
        b1, r1 = bt_fit(counts)
        b2, r2 = bt_fit(counts)
        assert np.array_equal(b1, b2)
        assert r1 == r2

    @given(strongly_connected_counts())
    @settings(max_examples=150, deadline=None)
    def test_agrees_with_mm_oracle(self, counts):
        beta, ranking = bt_fit(counts)
        mm = bt_mm_beta(counts.win_counts)
        assert np.abs(beta - mm).max() <= 1e-6
        # Players the data treat alike tie exactly in the MLE; each solver
        # then orders them by its own float rounding.
        if np.diff(np.sort(mm)).min() > 1e-6:
            assert ranking == Ranking.from_scores(mm)
        assert np.linalg.norm(dense_bt_gradient(beta, counts)) <= baselines.BT_TOL

    @pytest.mark.parametrize("replicate", [0, 3])
    def test_converges_where_likelihood_halving_stalls(self, replicate):
        # Near the optimum the log-likelihood (about -1.8e4, ulp about 4e-12)
        # cannot resolve a Newton step's gain, so a line search on it alone
        # stalls with the gradient norm above BT_TOL: on replicate 0 here,
        # and on 3 with the log-likelihood summed in another order.
        counts, _ = random_instance(20260810, 200, scenario="bt_latent", replicate=replicate)
        beta, _ = bt_fit(counts)
        assert np.linalg.norm(dense_bt_gradient(beta, counts)) <= baselines.BT_TOL

    @pytest.mark.parametrize(
        "solve, message", [(singular_solve, "Singular"), (nan_solve, "non-finite")]
    )
    def test_failed_newton_solve_is_numeric_error(self, monkeypatch, solve, message):
        counts, _ = random_instance(11, 12)
        monkeypatch.setattr(np.linalg, "solve", solve)
        with pytest.raises(NumericError, match=message) as exc_info:
            bt_fit(counts)
        assert not isinstance(exc_info.value, ConvergenceError)  # raised at once, not on budget

    @pytest.mark.parametrize("solve", [singular_solve, nan_solve])
    def test_failed_newton_solve_exits_4(self, monkeypatch, solve, tmp_path, capsys):
        path = tmp_path / "matches.csv"
        path.write_text("winner,loser\nA,B\nA,B\nB,A\n")
        monkeypatch.setattr(np.linalg, "solve", solve)
        assert main(["rank", "--input", str(path), "--method", "bt"]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err


class TestUsvt:
    def test_perfectly_balanced_outcomes_give_tie_break_order(self):
        n = 4
        win = np.ones((n, n), dtype=int)
        np.fill_diagonal(win, 0)
        counts = ComparisonCounts(win)
        estimate, ranking = usvt_rank(counts)
        assert np.array_equal(estimate.probs, np.full((n, n), 0.5))
        assert ranking == Ranking.identity(n)

    def test_estimate_contract(self):
        counts, _ = random_instance(13, 30)
        estimate, _ = usvt_rank(counts)
        p = estimate.probs
        assert ((p >= 0.0) & (p <= 1.0)).all()
        assert np.array_equal(p + p.T, np.ones_like(p))
        assert (np.diagonal(p) == 0.5).all()

    @given(game_counts(), st.sampled_from([1, 6]))
    @settings(max_examples=200, deadline=None)
    def test_estimate_is_an_exact_complement(self, counts, block):
        # USVT keeps a component on about 1 in 2000 of these small instances.
        # Blowing each player up into a block of 6 that never meet scales the
        # singular values by 6 and the threshold by about sqrt(6), and then it
        # keeps one on about half of them.
        assume(counts.played[0].size > 0)
        counts = ComparisonCounts(np.kron(counts.win_counts, np.ones((block, block), dtype=int)))
        p = usvt_rank(counts)[0].probs
        assert np.array_equal(p + p.T, np.ones_like(p))
        assert (np.diagonal(p) == 0.5).all()
        assert ((p >= 0.0) & (p <= 1.0)).all()

    @pytest.mark.parametrize(
        "scenario, n, xi",
        [("two_group", 100, {}), ("uniform", 100, {}), ("bt_latent", 100, {}),
         ("uniform", 50, {"xi_low": 0.02, "xi_high": 0.05})],
    )
    def test_agrees_with_svd_oracle(self, scenario, n, xi):
        for replicate in range(20):
            counts, _ = random_instance(0, n, scenario, replicate, **xi)
            estimate, ranking = usvt_rank(counts)
            p_hat = 2 * counts.played[0].size / (n * (n - 1))
            oracle = svd_usvt_probabilities(skew_statistic(counts), p_hat).probs
            assert np.abs(estimate.probs - oracle).max() <= 1e-12
            # an exact tie in the oracle's row sums goes by index there, while
            # the eigendecomposition may leave the two an ulp apart
            sums = oracle.sum(axis=1)
            untied = sums[:, None] != sums[None, :]
            by_sums = np.sign(sums[:, None] - sums[None, :])
            by_ranks = np.sign(ranking.ranks[:, None] - ranking.ranks[None, :])
            assert np.array_equal(by_ranks[untied], by_sums[untied])

    def test_no_observed_pairs_is_degenerate(self):
        zero = np.zeros((4, 4), dtype=int)
        with pytest.raises(DataError, match="degenerate"):
            usvt_rank(ComparisonCounts(zero))

    def test_equivariant_under_relabelling(self):
        # needs an instance where the threshold keeps some signal: with
        # everything truncated the tie-break order is not equivariant
        counts, _ = random_instance(14, 100, scenario="bt_latent")
        estimate, base = usvt_rank(counts)
        row_sums = estimate.probs.sum(axis=1)
        assert len(np.unique(row_sums)) == 100
        sigma = np.random.default_rng(1).permutation(100)
        shuffled = ComparisonCounts(counts.win_counts[np.ix_(sigma, sigma)])
        _, moved = usvt_rank(shuffled)
        assert np.array_equal(moved.ranks, base.ranks[sigma])

    def test_exact_inputs_rank_well(self):
        # a million games per pair won in proportion to P, near the
        # infinite-games limit of the statistic
        cfg = SimConfig(scenario="bt_latent", n=200, seed=5)
        P, truth = gen_probabilities(cfg, replicate_rng(5, 0))
        win = np.rint(1e6 * P.probs).astype(int)
        np.fill_diagonal(win, 0)
        _, ranking = usvt_rank(ComparisonCounts(win))
        tau = kendall_tau(ranking, truth)
        assert error_rate(tau, 200, "pairs") < 0.10
