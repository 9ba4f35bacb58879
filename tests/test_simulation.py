import csv
import json
import math
import warnings
from dataclasses import asdict, replace

import numpy as np
import pytest

from wstrank import (
    METHODS,
    ProbabilityMatrix,
    Ranking,
    SimConfig,
    check_wst,
    error_rate,
    gen_counts,
    gen_probabilities,
    kendall_tau,
    load_matches,
    rank_counts,
    run_study,
    synthetic_matches,
)
from wstrank.cli import main
from wstrank import simulation
from wstrank.simulation import replicate_rng

from oracles import expit_bt_latent_better, expit_synthetic_matches, sst_holds


class TestSimConfig:
    def test_two_group_needs_even_n(self):
        with pytest.raises(ValueError, match="even"):
            SimConfig(scenario="two_group", n=201)

    def test_unknown_scenario(self):
        with pytest.raises(ValueError, match="scenario"):
            SimConfig(scenario="three_group", n=10)

    def test_xi_bounds(self):
        with pytest.raises(ValueError):
            SimConfig(scenario="uniform", n=10, xi_low=0.6, xi_high=0.4)
        with pytest.raises(ValueError):
            SimConfig(scenario="uniform", n=10, xi_high=1.5)


class TestGenProbabilities:
    def test_true_ranking_is_identity(self):
        cfg = SimConfig(scenario="uniform", n=9, seed=0)
        _, truth = gen_probabilities(cfg, replicate_rng(0, 0))
        assert truth == Ranking.identity(9)

    def test_uniform_better_probabilities(self):
        cfg = SimConfig(scenario="uniform", n=40, seed=1)
        P, _ = gen_probabilities(cfg, replicate_rng(1, 0))
        iu, ju = np.triu_indices(40, 1)
        better = P.probs[ju, iu]
        assert (better > 0.5).all() and (better < 1.0).all()

    def test_two_group_interval_bounds(self):
        cfg = SimConfig(scenario="two_group", n=30, seed=2)
        P, _ = gen_probabilities(cfg, replicate_rng(2, 0))
        iu, ju = np.triu_indices(30, 1)
        better = P.probs[ju, iu]
        assert (better >= 0.65).all() and (better <= 0.85).all()
        assert (better > 0.5).all()
        same = (iu < 15) == (ju < 15)
        assert (better[same] >= 0.75).all()
        assert (better[~same] <= 0.75).all()

    def test_bt_latent_satisfies_sst(self):
        cfg = SimConfig(scenario="bt_latent", n=20, seed=3)
        P, _ = gen_probabilities(cfg, replicate_rng(3, 0))
        assert sst_holds(P.probs)

    @pytest.mark.parametrize("scenario", ["uniform", "two_group", "bt_latent"])
    def test_all_scenarios_pass_wst(self, scenario):
        for seed in range(3):
            cfg = SimConfig(scenario=scenario, n=20, seed=seed)
            P, _ = gen_probabilities(cfg, replicate_rng(seed, 0))
            assert check_wst(P).ok


class TestGenCounts:
    def test_no_games_when_t_is_zero(self):
        cfg = SimConfig(scenario="uniform", n=10, t_max=0, seed=0)
        rng = replicate_rng(0, 0)
        P, _ = gen_probabilities(cfg, rng)
        counts = gen_counts(P, cfg, rng)
        assert counts.pair_counts.sum() == 0

    def test_mean_games_per_pair(self):
        # E n_ij = T * E xi = 5 * 0.4 = 2 under the defaults
        cfg = SimConfig(scenario="uniform", n=200, seed=4)
        rng = replicate_rng(4, 0)
        P, _ = gen_probabilities(cfg, rng)
        counts = gen_counts(P, cfg, rng)
        iu, ju = np.triu_indices(200, 1)
        games = counts.pair_counts[iu, ju]
        se = games.std(ddof=1) / math.sqrt(games.size)
        assert abs(games.mean() - 2.0) <= 3 * se

    def test_sure_winners_take_every_game(self):
        n = 8
        probs = np.full((n, n), 0.5)
        iu, ju = np.triu_indices(n, 1)
        probs[ju, iu] = 1.0
        probs[iu, ju] = 0.0
        P = ProbabilityMatrix(probs)
        cfg = SimConfig(scenario="uniform", n=n, seed=5)
        counts = gen_counts(P, cfg, replicate_rng(5, 0))
        assert np.array_equal(counts.win_counts[ju, iu], counts.pair_counts[ju, iu])
        assert (counts.win_counts[iu, ju] == 0).all()

    def test_win_fraction_tracks_true_probability(self):
        # hold one pair fixed and average its win fraction over many draws
        cfg = SimConfig(scenario="two_group", n=12, seed=10)
        P, _ = gen_probabilities(cfg, replicate_rng(10, 0))
        i, j = 2, 9
        fractions = []
        for r in range(400):
            counts = gen_counts(P, cfg, replicate_rng(11, r))
            if counts.pair_counts[i, j] > 0:
                fractions.append(counts.win_counts[i, j] / counts.pair_counts[i, j])
        fractions = np.array(fractions)
        se = fractions.std(ddof=1) / math.sqrt(fractions.size)
        assert abs(fractions.mean() - P.probs[i, j]) <= 3 * se

    def test_deterministic_given_seed(self):
        cfg = SimConfig(scenario="two_group", n=30, seed=6)
        first = gen_counts(*_probs_and_cfg(cfg, 0))
        second = gen_counts(*_probs_and_cfg(cfg, 0))
        assert first == second

    def test_distinct_replicates_differ(self):
        cfg = SimConfig(scenario="two_group", n=30, seed=6)
        assert gen_counts(*_probs_and_cfg(cfg, 0)) != gen_counts(*_probs_and_cfg(cfg, 1))


def _probs_and_cfg(cfg, replicate):
    rng = replicate_rng(cfg.seed, replicate)
    P, _ = gen_probabilities(cfg, rng)
    return P, cfg, rng


class TestNumpySigmoids:
    """The generators' numpy sigmoids against scipy's ``expit``."""

    @pytest.mark.parametrize("n", [10, 100, 200])
    def test_bt_latent_within_two_ulp_of_expit(self, n):
        # numpy's exp and libm's differ by up to 1 ulp; 1 + exp then rounds
        # to sums at most 1 ulp apart, and the reciprocal, which lies in
        # [0.5, 1], to results at most 2 ulp apart
        cfg = SimConfig(scenario="bt_latent", n=n, seed=12)
        iu, ju = np.triu_indices(n, 1)
        for replicate in range(4):
            P, _ = gen_probabilities(cfg, replicate_rng(12, replicate))
            expected = expit_bt_latent_better(cfg, replicate_rng(12, replicate))
            np.testing.assert_array_max_ulp(P.probs[ju, iu], expected, maxulp=2)

    def test_bt_latent_counts_equal_those_drawn_from_expit(self):
        cfg = SimConfig(scenario="bt_latent", n=100, seed=13)
        iu, ju = np.triu_indices(cfg.n, 1)
        for replicate in range(4):
            rng, ref_rng = replicate_rng(13, replicate), replicate_rng(13, replicate)
            P, _ = gen_probabilities(cfg, rng)
            probs = np.full((cfg.n, cfg.n), 0.5)
            probs[ju, iu] = expit_bt_latent_better(cfg, ref_rng)
            probs[iu, ju] = 1.0 - probs[ju, iu]
            assert gen_counts(P, cfg, rng) == gen_counts(ProbabilityMatrix(probs), cfg, ref_rng)

    @pytest.mark.parametrize(
        "n, density, score_sd, seed",
        [(875, 0.0713, 1.5, 1), (60, 0.5, 1000.0, 0)],
        ids=["paper-scale", "overflowing"],
    )
    def test_synthetic_matches_equal_expit_records(self, n, density, score_sd, seed, monkeypatch):
        # at a spread of 1000 about a third of the exponents pass 710 and
        # overflow, which must give probability 0 without a RuntimeWarning
        monkeypatch.setattr(simulation, "SYNTHETIC_SCORE_SD", score_sd)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            records = synthetic_matches(n, density, seed=seed)
        assert records == expit_synthetic_matches(n, density, seed=seed)


class TestRankCounts:
    def test_ranking_follows_scores(self):
        cfg = SimConfig(scenario="two_group", n=12, seed=2)
        rng = replicate_rng(2, 0)
        counts = gen_counts(gen_probabilities(cfg, rng)[0], cfg, rng)
        for method in METHODS:
            fit = rank_counts(method, counts)
            assert fit.ranking == Ranking.from_scores(fit.scores)
            assert (fit.master is not None) == (method == "master")

    def test_unknown_method(self):
        counts = load_matches(synthetic_matches(5, 1.0, seed=1))
        with pytest.raises(ValueError, match="unknown method"):
            rank_counts("elo", counts)


class TestRunStudy:
    def test_reproducible_and_order_invariant(self):
        cfg = SimConfig(scenario="uniform", n=16, replicates=3, seed=7)
        a = run_study(cfg)
        b = run_study(cfg)
        assert [replace(s, secs=0.0) for s in a.stats] == [replace(s, secs=0.0) for s in b.stats]
        # replicates drawn last to first give the study's means bit for bit
        errors = {m: [0.0] * cfg.replicates for m in METHODS}
        for replicate in reversed(range(cfg.replicates)):
            rng = replicate_rng(cfg.seed, replicate)
            P_star, truth = gen_probabilities(cfg, rng)
            counts = gen_counts(P_star, cfg, rng)
            for m in METHODS:
                ranking = rank_counts(m, counts).ranking
                errors[m][replicate] = error_rate(kendall_tau(ranking, truth), cfg.n, "pairs")
        for s in a.stats:
            assert s.replicates_used == cfg.replicates
            assert s.mean_error_pairs == float(np.mean(errors[s.method]))

    def test_bt_failures_are_tolerated(self):
        # nearly empty schedules leave the win graph disconnected
        cfg = SimConfig(
            scenario="uniform", n=8, t_max=1, xi_low=0.01, xi_high=0.05, replicates=4, seed=8
        )
        result = run_study(cfg, methods=("counting", "bt"))
        bt = result.by_method()["bt"]
        assert bt.failures >= 1
        assert bt.failures + bt.replicates_used == 4
        counting = result.by_method()["counting"]
        assert counting.failures == 0
        assert math.isfinite(counting.mean_error_pairs)

    def test_validates_inputs(self):
        with pytest.raises(ValueError, match="replicates"):
            SimConfig(scenario="uniform", n=10, replicates=1, seed=0)
        with pytest.raises(ValueError, match="t_max"):
            SimConfig(scenario="uniform", n=10, t_max=2**63, seed=0)
        cfg = SimConfig(scenario="uniform", n=10, replicates=3, seed=0)
        with pytest.raises(ValueError, match="method"):
            run_study(cfg, methods=("counting", "elo"))

    def test_csv_shape(self, capsys):
        argv = ["simulate", "--scenario", "uniform", "--n", "12", "--reps", "2", "--seed", "9"]
        assert main(argv + ["--methods", "counting,master", "--format", "csv"]) == 0
        rows = list(csv.DictReader(capsys.readouterr().out.splitlines()[:3]))
        assert [r["method"] for r in rows] == ["counting", "master"]
        assert rows[0]["cert_rate"] == "" and rows[1]["cert_rate"] != ""

    def test_json_round_trips_config(self, capsys):
        cfg = SimConfig(scenario="uniform", n=12, replicates=2, seed=9)
        argv = ["simulate", "--scenario", "uniform", "--n", "12", "--reps", "2", "--seed", "9"]
        assert main(argv + ["--methods", "counting", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        row = payload["stats"][0]  # scenario and n vary over a grid, so they sit in the rows
        merged = {**payload, **row}
        assert {k: merged[k] for k in asdict(cfg)} == asdict(cfg)
        assert row["method"] == "counting"


class TestSyntheticMatches:
    def test_density_and_labels(self):
        records = synthetic_matches(60, 0.25, seed=1)
        counts = load_matches(records)
        assert counts.n <= 60
        iu, ju = np.triu_indices(counts.n, 1)
        density = (counts.pair_counts[iu, ju] > 0).mean()
        assert abs(density - 0.25) < 0.08

    def test_deterministic(self):
        assert synthetic_matches(30, 0.3, seed=2) == synthetic_matches(30, 0.3, seed=2)

    def test_validation(self):
        with pytest.raises(ValueError):
            synthetic_matches(1, 0.5)
        with pytest.raises(ValueError):
            synthetic_matches(10, 0.0)
