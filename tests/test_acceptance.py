"""Acceptance gate: one test per numbered criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines. Studies are cached at module level so criteria sharing a
setting pay for it once; every study is deterministic given its seed.
"""

import time
from functools import lru_cache

import numpy as np
import pytest
from scipy.special import expit

from wstrank import (
    MasterOptions,
    Ranking,
    SimConfig,
    bt_fit,
    gen_counts,
    gen_probabilities,
    kendall_tau,
    master_rank,
    modified_tau,
    q_sequence,
    spearman_rho,
    synthetic_matches,
    write_match_csv,
)
from wstrank.cli import main as cli_main
from wstrank.data import ComparisonCounts, ProbabilityMatrix, check_wst
from wstrank.simulation import replicate_rng, run_study

from oracles import (
    brute_kendall,
    brute_wst_violations,
    bt_oracle_beta,
    exhaustive_max_score,
)

STUDY_SEED = 20260810

# headline cells of the reported error table (values are percentages / 100):
# mean (standard error) for scenario two_group at n = 200
TABLE_TWO_GROUP_200 = {
    "counting": (0.0826, 0.0044),
    "bt": (0.0680, 0.0033),
    "master": (0.0080, 0.0017),
}


@lru_cache(maxsize=None)
def study(scenario: str, n: int):
    cfg = SimConfig(scenario=scenario, n=n, replicates=100, seed=STUDY_SEED)
    return run_study(cfg)


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")


def test_criterion_1_exhaustive_oracle_optimality():
    start = time.perf_counter()
    mismatches = 0
    instances = 0
    for n in (4, 5, 6, 7):
        for r in range(25):
            cfg = SimConfig(scenario="uniform", n=n, seed=STUDY_SEED + n)
            rng = replicate_rng(cfg.seed, r)
            P, _ = gen_probabilities(cfg, rng)
            counts = gen_counts(P, cfg, rng)
            result = master_rank(counts, MasterOptions(k=n))
            best, _ = exhaustive_max_score(counts.win_counts)
            instances += 1
            if result.objective != best:
                mismatches += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and elapsed < 10.0
    report(
        "criterion 1 (k = n attains the exhaustive maximum)",
        ok,
        f"{instances - mismatches}/{instances} instances optimal in {elapsed:.1f}s",
    )
    assert mismatches == 0
    assert elapsed < 10.0


def test_criterion_2_certificate_rate():
    start = time.perf_counter()
    rates = {s: study(s, 100).by_method()["master"].cert_rate for s in ("uniform", "two_group")}
    elapsed = time.perf_counter() - start
    ok = all(rate >= 0.90 for rate in rates.values()) and elapsed < 300.0
    report(
        "criterion 2 (certificate rate at n=100, k=3)",
        ok,
        f"uniform {rates['uniform']:.2f}, two_group {rates['two_group']:.2f} "
        f"(need >= 0.90 each) in {elapsed:.0f}s",
    )
    for scenario, rate in rates.items():
        assert rate >= 0.90, scenario
    assert elapsed < 300.0


def test_criterion_3_normalization_resolution_and_table_reproduction():
    start = time.perf_counter()
    stats = study("two_group", 200).by_method()
    elapsed = time.perf_counter() - start
    target, se = TABLE_TWO_GROUP_200["counting"]
    counting = stats["counting"]
    convention = None
    if abs(counting.mean_error_pairs - target) <= 3 * se:
        convention = "pairs"
    elif abs(counting.mean_error_paper - target) <= 3 * se:
        convention = "paper"
    if convention is None:
        report(
            "criterion 3 (normalization resolution)",
            False,
            f"counting mean matched neither convention: pairs={counting.mean_error_pairs:.4f}, "
            f"paper={counting.mean_error_paper:.4f}, table={target}+-3*{se}",
        )
        pytest.fail("neither error convention reproduces the counting baseline")
    deviations = {}
    for method in ("master", "bt"):
        value = getattr(stats[method], f"mean_error_{convention}")
        m_target, m_se = TABLE_TWO_GROUP_200[method]
        deviations[method] = (value, m_target, m_se, abs(value - m_target) <= 3 * m_se)
    ok = all(entry[3] for entry in deviations.values()) and elapsed < 900.0
    detail = f"convention resolved to '{convention}'; " + ", ".join(
        f"{m}: {v:.4f} vs {t}+-3*{s}" for m, (v, t, s, _) in deviations.items()
    )
    report("criterion 3 (normalization + table reproduction)", ok, detail + f"; {elapsed:.0f}s")
    for method, (value, m_target, m_se, inside) in deviations.items():
        assert inside, f"{method}: {value} vs {m_target} +- {3 * m_se}"
    assert elapsed < 900.0


def test_criterion_4_method_ordering():
    lines = []
    ok = True
    for scenario in ("uniform", "two_group"):
        for n in (100, 200):
            s = study(scenario, n).by_method()
            master = s["master"].mean_error_pairs
            bt = s["bt"].mean_error_pairs
            counting = s["counting"].mean_error_pairs
            holds = master < bt < counting
            ok &= holds
            lines.append(f"{scenario}/{n}: {master:.4f} < {bt:.4f} < {counting:.4f} {holds}")
    for n in (100, 200):
        s = study("bt_latent", n).by_method()
        holds = s["bt"].mean_error_pairs < s["master"].mean_error_pairs
        ok &= holds
        lines.append(
            f"bt_latent/{n}: bt {s['bt'].mean_error_pairs:.4f} < "
            f"master {s['master'].mean_error_pairs:.4f} {holds}"
        )
    report("criterion 4 (method ordering)", ok, "; ".join(lines))
    assert ok


def test_criterion_5_metric_and_bt_oracles():
    rng = np.random.default_rng(STUDY_SEED)
    kendall_ok = True
    for _ in range(200):
        n = int(rng.integers(2, 51))
        a = Ranking(rng.permutation(n) + 1)
        b = Ranking(rng.permutation(n) + 1)
        if kendall_tau(a, b) != brute_kendall(a.ranks, b.ranks):
            kendall_ok = False

    from scipy import stats as scipy_stats

    spearman_dev = 0.0
    for _ in range(20):
        n = int(rng.integers(3, 120))
        a = Ranking(rng.permutation(n) + 1)
        b = Ranking(rng.permutation(n) + 1)
        spearman_dev = max(
            spearman_dev, abs(spearman_rho(a, b) - scipy_stats.spearmanr(a.ranks, b.ranks)[0])
        )

    bt_dev = 0.0
    grad_norm = 0.0
    for _ in range(20):
        win = np.zeros((3, 3), dtype=int)
        for i in range(3):
            for j in range(i + 1, 3):
                w = int(rng.integers(2, 11))
                win[i, j] = w
                win[j, i] = 12 - w
        counts = ComparisonCounts(win)
        beta, _ = bt_fit(counts)
        bt_dev = max(bt_dev, float(np.abs(beta - bt_oracle_beta(win)).max()))
        diff = beta[:, None] - beta[None, :]
        grad = counts.win_counts.sum(axis=1) - (counts.pair_counts * expit(diff)).sum(axis=1)
        grad_norm = max(grad_norm, float(np.linalg.norm(grad)))

    ok = kendall_ok and spearman_dev <= 1e-12 and bt_dev < 1e-4 and grad_norm <= 1e-8
    report(
        "criterion 5 (metric and BT oracles)",
        ok,
        f"kendall exact={kendall_ok}, spearman dev={spearman_dev:.1e}, "
        f"bt dev={bt_dev:.1e}, grad norm={grad_norm:.1e}",
    )
    assert kendall_ok
    assert spearman_dev <= 1e-12
    assert bt_dev < 1e-4
    assert grad_norm <= 1e-8


def _q_approximation_sups(constant_over_s):
    """Mean over 20 seeds of sup_s |Q(s)/approx(s) - 1| for s in [n, n(n-1)/2]."""
    n = 500
    sups = []
    for seed in range(20):
        cfg = SimConfig(scenario="uniform", n=n, seed=seed)
        P, _ = gen_probabilities(cfg, replicate_rng(seed, 0))
        q = q_sequence(P)
        m = len(q)
        s = np.arange(n, m + 1, dtype=float)
        approx = constant_over_s(s, n)
        prefix_means = np.cumsum(q) / np.arange(1, m + 1)
        rel = np.abs(prefix_means[n - 1 :] / approx - 1.0)
        sups.append(float(rel.max()))
    return float(np.mean(sups))


@pytest.mark.xfail(
    strict=True,
    reason=(
        "unattainable as stated: the printed closed form 2s/(n(n-1)) is the s-th "
        "quantile of the uniform difficulties, but Q(s) is the mean of the s "
        "smallest values, which is half that (at s = n(n-1)/2, Q is the mean of "
        "all uniforms, 0.5, while the formula claims 1.0); the corrected constant "
        "is verified by the companion test"
    ),
)
def test_criterion_6_q_approximation_as_stated():
    mean_sup = _q_approximation_sups(lambda s, n: 2.0 * s / (n * (n - 1)))
    report(
        "criterion 6 (Q(s) ~ 2s/(n(n-1)) as stated)",
        mean_sup < 0.05,
        f"mean sup rel err {mean_sup:.3f} (needs < 0.05; sits near 0.5 because the "
        f"stated constant is double the conditional mean)",
    )
    assert mean_sup < 0.05


def test_criterion_6_q_approximation_corrected_constant():
    mean_sup = _q_approximation_sups(lambda s, n: s / (n * (n - 1)))
    ok = mean_sup < 0.05
    report(
        "criterion 6 (corrected: Q(s) ~ s/(n(n-1)))",
        ok,
        f"mean sup rel err {mean_sup:.4f} over s in [n, n(n-1)/2], 20 seeds (need < 0.05)",
    )
    assert ok


def test_criterion_7_wst_validation():
    clean = 0
    total = 0
    for scenario in ("uniform", "two_group", "bt_latent"):
        for seed in range(50):
            cfg = SimConfig(scenario=scenario, n=40, seed=seed)
            P, _ = gen_probabilities(cfg, replicate_rng(seed, 0))
            total += 1
            if check_wst(P).ok:
                clean += 1

    cfg = SimConfig(scenario="uniform", n=12, seed=9)
    P, _ = gen_probabilities(cfg, replicate_rng(9, 0))
    tampered = P.probs.copy()
    tampered[8, 2] = 0.3
    tampered[2, 8] = 0.7
    flipped = ProbabilityMatrix(tampered)
    found = list(check_wst(flipped).violations)
    expected = brute_wst_violations(flipped.probs)
    planted_ok = found == expected and len(expected) > 0

    ok = clean == total and planted_ok
    report(
        "criterion 7 (WST validation)",
        ok,
        f"{clean}/{total} generated matrices clean; planted violation triples "
        f"{len(found)}/{len(expected)} matched",
    )
    assert clean == total
    assert planted_ok


def test_criterion_8a_weighted_error_shrinks_with_n():
    fractions = {}
    for n in (100, 200, 500):
        values = []
        for r in range(20):
            cfg = SimConfig(scenario="uniform", n=n, seed=STUDY_SEED + 1)
            rng = replicate_rng(cfg.seed, r)
            P, truth = gen_probabilities(cfg, rng)
            counts = gen_counts(P, cfg, rng)
            result = master_rank(counts)
            q = q_sequence(P)
            values.append(modified_tau(result.ranking, truth, q) / (n * (n - 1) / 2))
        fractions[n] = float(np.mean(values))
    ok = fractions[100] >= fractions[200] >= fractions[500]
    report(
        "criterion 8a (weighted error fraction non-increasing in n)",
        ok,
        ", ".join(f"n={n}: {v:.3e}" for n, v in fractions.items()),
    )
    assert ok


def test_criterion_8b_large_scale_pipeline(tmp_path, capsys):
    start = time.perf_counter()
    path = tmp_path / "synthetic_875.csv"
    write_match_csv(path, synthetic_matches(875, 0.0713, seed=STUDY_SEED))
    top10 = {}
    for method, filt in (
        ("counting", "no-wins"),
        ("usvt", "no-wins"),
        ("master", "no-wins"),
        ("bt", "bt-connected"),
    ):
        out = tmp_path / f"{method}.json"
        code = cli_main(
            [
                "rank",
                "--input",
                str(path),
                "--method",
                method,
                "--filter",
                filt,
                "--format",
                "json",
                "--out",
                str(out),
            ]
        )
        assert code == 0, method
        import json

        artifact = json.loads(out.read_text())
        top10[method] = [p["label"] for p in artifact["players"][:10]]
        assert len(top10[method]) == 10
    elapsed = time.perf_counter() - start
    ok = elapsed < 300.0
    capsys.readouterr()
    report(
        "criterion 8b (875-player pipeline end to end)",
        ok,
        f"all four methods completed in {elapsed:.0f}s (< 300s); "
        f"master top-3: {top10['master'][:3]}",
    )
    assert ok
