import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wstrank import (
    ComparisonCounts,
    MasterOptions,
    Ranking,
    SimConfig,
    certify,
    gen_counts,
    gen_probabilities,
    kendall_tau,
    ktuple_search,
    master_rank,
    score,
    surrogate_init,
)
from wstrank.maxscore import SURROGATE_GTOL, _window_tables
from wstrank.simulation import replicate_rng

from oracles import (
    brute_score,
    decisive_components,
    dense_surrogate_gradient,
    exhaustive_max_score,
    rescan_ktuple_search,
)


def counts_from_wins(win):
    win = np.asarray(win)
    return ComparisonCounts(win)


def random_instance(seed, n, scenario="uniform", **kwargs):
    cfg = SimConfig(scenario=scenario, n=n, seed=seed, **kwargs)
    rng = replicate_rng(seed, 0)
    P, truth = gen_probabilities(cfg, rng)
    return gen_counts(P, cfg, rng), truth


@st.composite
def surrogate_instances(draw):
    """Win matrices, n <= 30, mostly sparse, with drawn pairs and isolated players."""
    n = draw(st.integers(min_value=2, max_value=30))
    xi_low, xi_high = draw(st.sampled_from([(0.02, 0.05), (0.02, 0.05), (0.1, 0.3), (0.3, 0.5)]))
    scenario = draw(st.sampled_from(["uniform", "bt_latent"]))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    counts, _ = random_instance(seed, n, scenario=scenario, xi_low=xi_low, xi_high=xi_high)
    win = counts.win_counts.copy()
    player = st.integers(min_value=0, max_value=n - 1)
    drawn = st.tuples(player, player, st.integers(min_value=1, max_value=3))
    for i, j, games in draw(st.lists(drawn, max_size=4)):
        if i != j:
            win[i, j] = win[j, i] = games  # played, net wins zero
    for i in draw(st.lists(player, max_size=3)):
        win[i, :] = 0
        win[:, i] = 0
    return win


@st.composite
def relabelled_instances(draw):
    """A ``surrogate_instances`` win matrix and a permutation of its players."""
    win = draw(surrogate_instances())
    return win, np.array(draw(st.permutations(range(len(win)))))


# 9 players with wins 2>4, 3>2, 3>6, 4>3, 4>7, 6>1, 6>3, 7>3 and 8>5: the
# component {5, 8} of the decisive-pair graph meets no other player.
SPLIT_WIN = np.zeros((9, 9), dtype=np.int64)
SPLIT_WIN[[2, 3, 3, 4, 4, 6, 6, 7, 8], [4, 2, 6, 3, 7, 1, 3, 3, 5]] = 1


@st.composite
def ktuple_instances(draw):
    """Counts, a start ranking and a window length 2 <= k <= min(n, 8).

    The counts are those of ``surrogate_instances`` or, now and then, no
    games at all; the start is a random ranking, the surrogate's, or the
    surrogate's reversed.
    """
    win = draw(surrogate_instances())
    n = len(win)
    if draw(st.integers(0, 4)) == 0:
        win = np.zeros_like(win)
    counts = counts_from_wins(win)
    start = draw(st.sampled_from(["random", "surrogate", "reversed"]))
    if start == "random":
        init = Ranking(np.array(draw(st.permutations(range(1, n + 1)))))
    else:
        init = surrogate_init(counts)[1]
        if start == "reversed":
            init = Ranking(init.n + 1 - init.ranks)
    k = draw(st.integers(min_value=2, max_value=min(n, 8)))
    return counts, init, k


class TestScore:
    def test_single_pair(self):
        counts = counts_from_wins([[0, 3], [2, 0]])
        assert score(Ranking([2, 1]), counts) == 1
        assert score(Ranking([1, 2]), counts) == 0

    def test_empty_data_scores_zero(self):
        counts = counts_from_wins(np.zeros((4, 4), dtype=int))
        rng = np.random.default_rng(0)
        for _ in range(5):
            pi = Ranking(rng.permutation(4) + 1)
            assert score(pi, counts) == 0

    def test_dimension_mismatch(self):
        counts = counts_from_wins([[0, 3], [2, 0]])
        with pytest.raises(ValueError):
            score(Ranking([1, 2, 3]), counts)

    def test_matches_bruteforce_on_all_permutations(self):
        import itertools

        drawn = counts_from_wins(  # (0, 1) split 2-2 and (2, 4) split 1-1
            [
                [0, 2, 1, 0, 3],
                [2, 0, 0, 1, 0],
                [2, 1, 0, 0, 1],
                [0, 0, 3, 0, 2],
                [1, 4, 1, 0, 0],
            ]
        )
        _, _, _, z = drawn.played
        assert np.count_nonzero(z == 0) == 2  # played pairs that add z = 0 to the sum
        for counts in (random_instance(21, 5)[0], drawn):
            for perm in itertools.permutations(range(1, 6)):
                pi = Ranking(np.array(perm))
                assert score(pi, counts) == brute_score(perm, counts.win_counts)

    def test_relabelling_preserves_score_differences(self):
        # Written over pairs i < j, the objective picks up a constant that
        # depends on the labelling, so only score differences (hence the
        # argmax and every certificate margin) are relabel-invariant.
        rng = np.random.default_rng(3)
        counts, _ = random_instance(3, 12)
        sigma = rng.permutation(12)
        relabelled = ComparisonCounts(counts.win_counts[np.ix_(sigma, sigma)])
        for _ in range(5):
            a = Ranking(rng.permutation(12) + 1)
            b = Ranking(rng.permutation(12) + 1)
            original = score(a, counts) - score(b, counts)
            moved = score(Ranking(a.ranks[sigma]), relabelled) - score(
                Ranking(b.ranks[sigma]), relabelled
            )
            assert moved == original

    def test_relabelling_moves_the_argmax_consistently(self):
        counts, _ = random_instance(33, 6)
        sigma = np.random.default_rng(9).permutation(6)
        relabelled = ComparisonCounts(counts.win_counts[np.ix_(sigma, sigma)])
        _, ranks = exhaustive_max_score(counts.win_counts)
        _, moved_ranks = exhaustive_max_score(relabelled.win_counts)
        assert score(Ranking(np.array(ranks)[sigma]), relabelled) == score(
            Ranking(np.array(moved_ranks)), relabelled
        )

    def test_reversal_identity(self):
        # L(pi) + L(reverse(pi)) equals the total net wins over ordered pairs,
        # because each pair's indicator flips between the two rankings.
        rng = np.random.default_rng(11)
        for seed in range(5):
            counts, _ = random_instance(seed, 10)
            z = counts.win_counts - counts.win_counts.T
            iu, ju = np.triu_indices(10, 1)
            total = int(z[iu, ju].sum())
            pi = Ranking(rng.permutation(10) + 1)
            assert score(pi, counts) + score(Ranking(pi.n + 1 - pi.ranks), counts) == total


class TestSurrogateInit:
    def test_one_sided_pair_orders_players(self):
        counts = counts_from_wins([[0, 0], [5, 0]])
        beta, ranking = surrogate_init(counts)
        assert beta[1] > beta[0]
        assert ranking == Ranking([1, 2])

    def test_balanced_data_stays_at_zero(self):
        # Balanced wins, a single player and no games at all: no decisive
        # pair, so the ascent stops before its first step.
        balanced = np.array([[0, 2, 2], [2, 0, 2], [2, 2, 0]])
        for win in (balanced, np.zeros((1, 1), dtype=int), np.zeros((4, 4), dtype=int)):
            trace: list = []
            beta, ranking = surrogate_init(counts_from_wins(win), trace=trace)
            assert np.array_equal(beta, np.zeros(len(win)))
            assert ranking == Ranking.identity(len(win))
            assert trace == []

    def test_extreme_counts_raise_no_warning(self):
        # The last player beats every other 10^6 times, and one game links
        # two of the others, so the betas end about 26 apart. Every sigmoid
        # must still come out of exp without a floating-point warning.
        win = np.zeros((5, 5), dtype=np.int64)
        win[4, :4] = 10**6
        win[0, 1] = 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            beta, ranking = surrogate_init(counts_from_wins(win))
        assert np.all(np.isfinite(beta))
        assert ranking.best_first()[0] == 4

    @given(surrogate_instances())
    @settings(max_examples=60, deadline=None)
    def test_stops_at_a_stationary_point(self, win):
        # Unless the fit spent its whole step budget, the dense oracle's
        # gradient at the returned beta is within the stopping tolerance. The
        # slack covers the two gradients summing the same terms in different
        # orders: rounding of about 1e-16 per term over at most 435 pairs.
        trace: list = []
        beta, _ = surrogate_init(counts_from_wins(win), trace=trace)
        if len(trace) < MasterOptions().surrogate_iters:
            grad = dense_surrogate_gradient(win, beta)
            assert np.linalg.norm(grad) <= SURROGATE_GTOL + 1e-10

    @given(surrogate_instances())
    @settings(max_examples=40, deadline=None)
    def test_objective_trace_is_monotone(self, win):
        trace: list = []
        surrogate_init(counts_from_wins(win), trace=trace)
        assert all(b >= a for a, b in zip(trace, trace[1:]))

    @given(relabelled_instances())
    @example((SPLIT_WIN, np.array([1, 0, 2, 4, 3, 8, 7, 5, 6])))
    @settings(max_examples=40, deadline=None)
    def test_relabelling_permutes_scores(self, instance):
        # Relabelling reorders the decisive pairs, hence every float sum, and
        # the L-BFGS steps carry that rounding forward, so the two fits agree
        # up to rounding only. The fit starts at beta = 0 and builds every
        # direction from gradients and earlier steps, which sum to zero on
        # each component of the decisive-pair graph, so it stays centred on
        # each component and never moves along a shift of one component as a
        # whole: a direction that only the ridge holds in place, along which
        # a fit stopping on the gradient tolerance would leave that rounding
        # amplified by about 1 / (2 * ridge). Over 12,000 drawn instances the
        # gap reached 2.4e-8 * max(1, max|beta|) at worst; the example, whose
        # {5, 8} component meets no other player, gives 1.2e-9 times it.
        win, sigma = instance
        beta, _ = surrogate_init(counts_from_wins(win))
        moved, _ = surrogate_init(counts_from_wins(win[np.ix_(sigma, sigma)]))
        atol = 1e-6 * max(1.0, float(np.abs(beta).max()))
        np.testing.assert_allclose(moved, beta[sigma], rtol=0, atol=atol)

    def test_stops_before_the_step_cap(self):
        counts, _ = random_instance(5, 30)
        trace: list = []
        surrogate_init(counts, trace=trace)
        assert 0 < len(trace) < MasterOptions().surrogate_iters

    def test_step_budget_on_a_dense_design(self):
        # The benchmark's dense study design, two_group n=200 with about 91%
        # of pairs played: the fit takes 97 steps here, and took 193 at a
        # ridge of 1e-4.
        counts, _ = random_instance(1, 200, scenario="two_group")
        trace: list = []
        surrogate_init(counts, trace=trace)
        assert len(trace) < 150

    @given(surrogate_instances())
    @example(random_instance(6, 25)[0].win_counts)
    @example(random_instance(6, 25, xi_low=0.02, xi_high=0.05)[0].win_counts)
    @example(SPLIT_WIN)
    @settings(max_examples=60, deadline=None)
    def test_centered_and_deterministic(self, win):
        # The fit starts at beta = 0 and builds every direction from
        # gradients and earlier steps. On each component of the decisive-pair
        # graph the gradient's pair terms sum to zero, and so does its ridge
        # term while beta does, so each component keeps mean zero up to
        # rounding, and a player with no decisive pair, whose gradient entry
        # is always zero, stays at exactly 0.0. The examples are a connected
        # design, a sparse one with an isolated player, and SPLIT_WIN.
        counts = counts_from_wins(win)
        beta1, r1 = surrogate_init(counts)
        beta2, r2 = surrogate_init(counts)
        assert np.array_equal(beta1, beta2)
        assert r1 == r2
        comp = decisive_components(win)
        means = np.bincount(comp, beta1) / np.maximum(np.bincount(comp), 1)
        assert np.all(np.abs(means) < 1e-12)
        alone = ~(win != win.T).any(axis=1)
        assert np.all(beta1[alone] == 0.0)

    def test_players_without_decisive_games_tie_by_index(self):
        # Players 1, 5, 7, 8 and 9 of this sparse replicate have no decisive
        # pair. Their gradient entries are always zero, so the fit never moves
        # them from 0.0, and ``Ranking.from_scores`` orders them by index,
        # next to each other.
        cfg = SimConfig("uniform", 10, xi_low=0.02, xi_high=0.05, seed=0)
        rng = replicate_rng(0, 6)
        P, _ = gen_probabilities(cfg, rng)
        counts = gen_counts(P, cfg, rng)
        alone = [1, 5, 7, 8, 9]
        assert decisive_components(counts.win_counts)[alone].tolist() == alone
        beta, ranking = surrogate_init(counts)
        assert np.all(beta[alone] == 0.0)
        assert np.all(np.diff(ranking.ranks[alone]) == 1)

    def test_recovers_latent_order_reasonably(self):
        corrs = []
        for seed in range(20):
            cfg = SimConfig(scenario="bt_latent", n=50, seed=seed)
            rng = replicate_rng(seed, 0)
            P, truth = gen_probabilities(cfg, rng)
            counts = gen_counts(P, cfg, rng)
            _, ranking = surrogate_init(counts)
            tau = kendall_tau(ranking, truth)
            corrs.append(1.0 - 4.0 * tau / (50 * 49))
        assert np.mean(corrs) >= 0.6


class TestKtupleSearch:
    def test_zero_counts_returns_init(self):
        counts = counts_from_wins(np.zeros((6, 6), dtype=int))
        init = Ranking([3, 1, 6, 2, 5, 4])
        result = ktuple_search(counts, init, 3)
        assert result.ranking == init
        assert result.sweeps == 0
        assert result.objective == result.init_objective == 0

    def test_k_equals_n_reaches_global_maximum(self):
        for seed in range(30):
            n = 4 + seed % 3
            counts, _ = random_instance(seed, n)
            init = Ranking.identity(n)
            result = ktuple_search(counts, init, n)
            best, _ = exhaustive_max_score(counts.win_counts)
            assert result.objective == best

    def test_improves_from_reversed_optimum(self):
        counts, _ = random_instance(40, 6)
        _, oracle_ranks = exhaustive_max_score(counts.win_counts)
        init = Ranking(counts.n + 1 - np.array(oracle_ranks))
        result = ktuple_search(counts, init, 3)
        assert result.sweeps >= 1
        assert result.objective > result.init_objective

    def test_objective_bookkeeping_matches_full_rescore(self):
        for seed in range(8):
            counts, _ = random_instance(seed, 25)
            init = Ranking.identity(25)
            result = ktuple_search(counts, init, 3)
            assert result.objective == score(result.ranking, counts)
            assert result.init_objective == score(init, counts)
            assert result.objective >= result.init_objective

    @given(ktuple_instances())
    @settings(max_examples=60, deadline=None)
    def test_matches_rescan_oracle(self, instance):
        counts, init, k = instance
        result = ktuple_search(counts, init, k)
        expected = rescan_ktuple_search(counts, init, k)
        assert result.ranking == expected.ranking
        assert result.objective == expected.objective
        assert result.init_objective == expected.init_objective
        assert result.sweeps == expected.sweeps

    def test_window_tables_are_cached_and_read_only(self):
        perms, pick = _window_tables(4)
        assert _window_tables(4)[0] is perms and _window_tables(4)[1] is pick
        assert perms.shape == (24, 4) and pick.shape == (16, 24)
        assert not perms.flags.writeable and not pick.flags.writeable
        with pytest.raises(ValueError):
            pick[0, 0] = 2.0

    def test_k_out_of_range(self):
        counts, _ = random_instance(1, 6)
        for k in (1, 9, 7):
            with pytest.raises(ValueError):
                ktuple_search(counts, Ranking.identity(6), k)


class TestMasterRank:
    def test_single_pair(self):
        counts = counts_from_wins([[0, 0], [5, 0]])
        result = master_rank(counts)
        assert result.ranking == Ranking([1, 2])
        # the better ordering leaves no inverted pair, so the objective is 0
        assert result.objective == score(result.ranking, counts) == 0

    def test_is_the_documented_composition(self):
        counts, _ = random_instance(14, 20)
        opts = MasterOptions(k=3)
        composed = ktuple_search(counts, surrogate_init(counts, opts)[1], opts.k)
        direct = master_rank(counts, opts)
        assert direct.ranking == composed.ranking
        assert direct.objective == composed.objective
        assert direct.init_objective == composed.init_objective
        assert direct.sweeps == composed.sweeps

    def test_matches_exhaustive_maximum_with_full_window(self):
        for seed in range(10):
            counts, _ = random_instance(seed + 50, 7)
            result = master_rank(counts, MasterOptions(k=7))
            best, _ = exhaustive_max_score(counts.win_counts)
            assert result.objective == best

    def test_result_serializes(self):
        counts, _ = random_instance(2, 8)
        result = master_rank(counts)
        assert result.objective == score(result.ranking, counts)
        assert result.init_objective <= result.objective
        assert result.sweeps >= 0


class TestCertify:
    def test_identity_certificate(self):
        counts, truth = random_instance(7, 10)
        ok, margin = certify(truth, truth, counts)
        assert ok and margin == 0

    def test_argmax_dominates_everything(self):
        counts, _ = random_instance(8, 6)
        _, oracle_ranks = exhaustive_max_score(counts.win_counts)
        best = Ranking(np.array(oracle_ranks))
        rng = np.random.default_rng(0)
        for _ in range(10):
            other = Ranking(rng.permutation(6) + 1)
            ok, margin = certify(best, other, counts)
            assert ok and margin >= 0

    def test_empty_counts(self):
        counts = counts_from_wins(np.zeros((5, 5), dtype=int))
        ok, margin = certify(Ranking([5, 4, 3, 2, 1]), Ranking.identity(5), counts)
        assert ok and margin == 0


class TestOptions:
    def test_k_bounds(self):
        with pytest.raises(ValueError):
            MasterOptions(k=1)
        with pytest.raises(ValueError):
            MasterOptions(k=9)

    def test_other_bounds(self):
        with pytest.raises(ValueError):
            MasterOptions(surrogate_iters=0)
