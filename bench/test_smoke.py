"""Smoke test of the benchmark harness at tiny sizes, so that it cannot rot.

    python3 -m pytest -q bench

It is kept out of the tier-1 suite (pytest's testpaths is tests/).
"""

import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import wstbench as wb  # noqa: E402
from wstrank.maxscore import MasterOptions  # noqa: E402
from wstrank.simulation import SimConfig, run_study  # noqa: E402

TINY = {
    "study": wb.Study(SimConfig("two_group", 20), MasterOptions(), quality_reps=4),
    "study_k4": wb.Study(SimConfig("uniform", 24), MasterOptions(k=4), quality_reps=3),
    "file": wb.MatchFile(40, 0.5, ("counting", "usvt", "master"), quality_players=30,
                         quality_files=2),
    "file_ingest": wb.MatchFile(40, 0.5, ("counting",), quality_players=30, quality_files=2),
}
SEED = 3


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_workload_runs_clean(name, trace, tmp_path):
    run = wb.run_workload(TINY[name], SEED, 0.05, trace, tmp_path)
    assert run["checks"].failures == []
    kind = "per_layer" if trace else "end_to_end"
    assert sorted(run["metrics"]) == sorted(wb.declared_metrics(kind))
    assert all(math.isfinite(value) for value, _ in run["metrics"].values())
    assert run["attempted"] >= 1
    assert list(tmp_path.iterdir()) == []  # the match file is removed
    if trace:
        shares = [v for name, (v, _) in run["metrics"].items() if name.endswith(".share")]
        assert sum(shares) == pytest.approx(1.0)
        assert {s["name"] for s in run["spans"]} >= {"op", "baselines.borda_rank"}
    else:
        assert run["metrics"]["setup_s"][0] > 0


@pytest.mark.parametrize("name", ["study", "study_k4"])
def test_study_quality_reproduces_run_study(name, tmp_path):
    spec = TINY[name]
    run = wb.run_workload(spec, SEED, 0.05, False, tmp_path)
    config = replace(spec.config, seed=SEED, replicates=spec.quality_reps)
    stats = run_study(config, master_opts=spec.master).by_method()
    for method in wb.METHODS:
        assert run["metrics"][f"{method}_err_pairs"][0] == stats[method].mean_error_pairs
    assert run["metrics"]["master_cert_rate"][0] == stats["master"].cert_rate


@pytest.mark.parametrize("trace", ["0", "1"])
def test_command_prints_result_last(trace, monkeypatch, capsys, tmp_path):
    monkeypatch.setitem(wb.WORKLOADS, "tiny", TINY["study"])
    monkeypatch.setattr(wb, "WORK_DIR", tmp_path / "work")
    monkeypatch.setattr(wb, "TRACE_DIR", tmp_path / "traces")
    argv = ["--workload", "tiny", "--seed", str(SEED), "--seconds", "0.05", "--trace", trace]
    code = wb.main(argv)
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    kind = "per_layer" if trace == "1" else "end_to_end"
    assert sorted(result["metrics"]) == sorted(wb.declared_metrics(kind))
    traces = [p.name for p in (tmp_path / "traces").glob("*")]
    assert traces == (["tiny-seed3.jsonl"] if trace == "1" else [])


def test_tail_needs_ten_samples_beyond():
    assert wb.tail([3.0, 1.0, 2.0]) == (2.0, 50.0, 1)
    assert wb.tail([float(i) for i in range(1, 12)]) == (6.0, 50.0, 5)
    value, percentile, beyond = wb.tail([float(i) for i in range(1, 22)])
    assert (value, beyond) == (11.0, 10)
    assert percentile == pytest.approx(100 * 11 / 21)
