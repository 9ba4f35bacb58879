"""Whole-package checks: the package without scipy in a fresh interpreter, and the README."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from wstrank.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]


def run_python(code: str, cwd: Path) -> subprocess.CompletedProcess:
    """Run ``code`` in a new interpreter that imports ``wstrank`` from ``src``."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code],
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_package_runs_without_scipy(tmp_path):
    # numpy is the only runtime dependency: with every scipy import made to
    # raise ImportError, the study harness, the match-file pipeline, all four
    # rankers and every CLI command still run
    code = """
import sys
sys.modules["scipy"] = None
from wstrank import (
    METHODS, SCENARIOS, SimConfig, filter_players, load_matches, rank_counts, read_match_csv,
    run_study, synthetic_matches, write_match_csv,
)
from wstrank.cli import main

for scenario in SCENARIOS:
    run_study(SimConfig(scenario=scenario, n=10, replicates=2))
write_match_csv("m.csv", synthetic_matches(40, 0.3, seed=1))
counts, _ = filter_players(load_matches(read_match_csv("m.csv")), "bt-connected")
for method in METHODS:
    rank_counts(method, counts)
    rank = ["rank", "--input", "m.csv", "--method", method, "--filter", "bt-connected"]
    assert main(rank + ["--format", "json", "--out", method + ".json"]) == 0
assert main(["simulate", "--scenario", ",".join(SCENARIOS), "--n", "10", "--reps", "2", "--out", "s.txt"]) == 0
assert main(["compare", "--rankings", "master.json,bt.json", "--out", "c.txt"]) == 0
assert main(["compare", "--input", "m.csv", "--methods", "counting,usvt", "--out", "d.txt"]) == 0
"""
    proc = run_python(code, tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_readme_quick_start_runs(tmp_path):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Quick start (API)", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    proc = run_python(code, tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_readme_cli_examples_parse():
    # the examples name files that do not exist, so they are parsed, not run
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## CLI", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.DOTALL).group(1)
    lines = [line for line in block.replace("\\\n", " ").splitlines() if line.startswith("wstrank ")]
    assert lines
    parser = build_parser()
    for line in lines:
        try:
            parser.parse_args(shlex.split(line)[1:])
        except SystemExit:
            pytest.fail(f"README example does not parse: {line}")
