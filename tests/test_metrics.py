import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from wstrank import (
    DataError,
    ProbabilityMatrix,
    Ranking,
    SimConfig,
    error_rate,
    gen_probabilities,
    kendall_tau,
    modified_tau,
    q_bar,
    q_sequence,
    spearman_rho,
)
from wstrank.simulation import replicate_rng

from oracles import brute_kendall


def random_ranking(rng, n):
    return Ranking(rng.permutation(n) + 1)


class TestKendallTau:
    def test_identity(self):
        r = Ranking([3, 1, 4, 2])
        assert kendall_tau(r, r) == 0

    def test_full_reversal(self):
        assert kendall_tau(Ranking([1, 2, 3, 4]), Ranking([4, 3, 2, 1])) == 6

    def test_matches_quadratic_oracle(self):
        rng = np.random.default_rng(123)
        # no pair at n=1, 200 small sizes, and three at the paper's scale
        for n in [1, *rng.integers(2, 51, 200).tolist(), 300, 400, 500]:
            a, b = random_ranking(rng, n), random_ranking(rng, n)
            assert kendall_tau(a, b) == brute_kendall(a.ranks, b.ranks)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            kendall_tau(Ranking([1, 2]), Ranking([1, 2, 3]))

    def test_metric_properties(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(3, 20))
            a, b, c = (random_ranking(rng, n) for _ in range(3))
            assert kendall_tau(a, b) == kendall_tau(b, a)
            assert kendall_tau(a, a) == 0
            assert kendall_tau(a, c) <= kendall_tau(a, b) + kendall_tau(b, c)

    def test_reversal_complement(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            n = int(rng.integers(2, 30))
            a, b = random_ranking(rng, n), random_ranking(rng, n)
            assert kendall_tau(a, b) + kendall_tau(Ranking(a.n + 1 - a.ranks), b) == n * (n - 1) // 2


class TestErrorRate:
    def test_zero(self):
        assert error_rate(0, 10, "pairs") == 0.0
        assert error_rate(0, 10, "paper") == 0.0

    def test_known_values(self):
        assert error_rate(6, 4, "pairs") == pytest.approx(1.0)
        assert error_rate(6, 4, "paper") == pytest.approx(0.25)

    @given(st.integers(min_value=2, max_value=200), st.data())
    @settings(max_examples=50, deadline=None)
    def test_conventions_differ_by_factor_four(self, n, data):
        tau = data.draw(st.integers(min_value=1, max_value=n * (n - 1) // 2))
        assert error_rate(tau, n, "pairs") == pytest.approx(4 * error_rate(tau, n, "paper"))

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            error_rate(7, 4)
        with pytest.raises(ValueError):
            error_rate(-1, 4)
        with pytest.raises(ValueError):
            error_rate(1, 4, "alternative")


class TestSpearman:
    def test_identity(self):
        r = Ranking([2, 1, 3])
        assert spearman_rho(r, r) == pytest.approx(1.0)

    def test_reversal(self):
        r = Ranking([1, 2, 3, 4, 5])
        assert spearman_rho(r, Ranking(r.n + 1 - r.ranks)) == pytest.approx(-1.0)

    def test_matches_scipy(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            a, b = random_ranking(rng, 100), random_ranking(rng, 100)
            expected = stats.spearmanr(a.ranks, b.ranks)[0]
            assert spearman_rho(a, b) == pytest.approx(expected, abs=1e-12)


def probability_matrix(n, better):
    """Build a matrix from {(j, i): p_ji} entries for better players j > i."""
    probs = np.full((n, n), 0.5)
    for (j, i), p in better.items():
        probs[j, i] = p
        probs[i, j] = 1.0 - p
    return ProbabilityMatrix(probs)


class TestQSequence:
    def test_constant_case(self):
        P = probability_matrix(3, {(1, 0): 0.7, (2, 0): 0.7, (2, 1): 0.7})
        q = q_sequence(P)
        assert np.allclose(q, 0.4)

    def test_sorted_values(self):
        P = probability_matrix(3, {(1, 0): 0.9, (2, 0): 0.6, (2, 1): 0.55})
        q = q_sequence(P)
        assert np.allclose(q, [0.1, 0.2, 0.8])
        assert isinstance(q, np.ndarray) and not q.flags.writeable

    def test_half_probability_rejected(self):
        P = probability_matrix(3, {(1, 0): 0.9, (2, 0): 0.5, (2, 1): 0.55})
        with pytest.raises(DataError, match="0.5"):
            q_sequence(P)

    def test_uniform_scenario_difficulties_are_uniform(self):
        cfg = SimConfig(scenario="uniform", n=500, seed=0)
        P, _ = gen_probabilities(cfg, replicate_rng(0, 0))
        q = q_sequence(P)
        d = stats.kstest(q, "uniform").statistic
        assert d < 0.05


class TestQBar:
    def test_constant_sequence(self):
        q = np.array([0.4, 0.4, 0.4])
        for s in (1, 2, 3):
            assert q_bar(s, q) == pytest.approx(0.4)

    def test_zero_is_zero(self):
        q = np.array([0.4, 0.4, 0.4])
        assert q_bar(0, q) == 0.0

    def test_monotone_and_bounded(self):
        cfg = SimConfig(scenario="uniform", n=30, seed=3)
        P, _ = gen_probabilities(cfg, replicate_rng(3, 0))
        q = q_sequence(P)
        values = [q_bar(s, q) for s in range(len(q) + 1)]
        assert all(b >= a for a, b in zip(values, values[1:]))
        assert 0.0 <= values[0] and values[-1] <= 1.0

    def test_out_of_range(self):
        q = np.array([0.4, 0.4, 0.4])
        with pytest.raises(ValueError):
            q_bar(4, q)
        with pytest.raises(ValueError):
            q_bar(-1, q)

    def test_tracks_uniform_conditional_mean(self):
        # For uniform difficulties the mean of the s smallest values is about
        # half the s-th quantile: Q(s) ~ s/(n(n-1)) for s well above n.
        n = 500
        cfg = SimConfig(scenario="uniform", n=n, seed=1)
        P, _ = gen_probabilities(cfg, replicate_rng(1, 0))
        q = q_sequence(P)
        m = len(q)
        s = np.arange(n, m + 1)
        approx = s / (n * (n - 1))
        prefix_means = np.cumsum(q) / np.arange(1, m + 1)
        rel = np.abs(prefix_means[n - 1 :] / approx - 1.0)
        assert rel.max() < 0.10


class TestModifiedTau:
    def test_identical_rankings(self):
        q = np.array([0.4, 0.4, 0.4])
        r = Ranking([2, 3, 1])
        assert modified_tau(r, r, q) == 0.0

    def test_constant_difficulty_arithmetic(self):
        # full reversal of 5 players has tau = 10; 10 * 0.4^2 = 1.6
        q = np.full(10, 0.4)
        pi = Ranking.identity(5)
        assert modified_tau(Ranking(pi.n + 1 - pi.ranks), pi, q) == pytest.approx(1.6)

    def test_never_exceeds_tau(self):
        rng = np.random.default_rng(5)
        cfg = SimConfig(scenario="uniform", n=12, seed=5)
        P, _ = gen_probabilities(cfg, replicate_rng(5, 0))
        q = q_sequence(P)
        for _ in range(20):
            a, b = random_ranking(rng, 12), random_ranking(rng, 12)
            assert modified_tau(a, b, q) <= kendall_tau(a, b)

    def test_dimension_check(self):
        q = np.array([0.4, 0.4, 0.4])
        with pytest.raises(ValueError):
            modified_tau(Ranking.identity(4), Ranking.identity(4), q)
