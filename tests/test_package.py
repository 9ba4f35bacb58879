"""Whole-package checks run in a fresh interpreter: what importing loads, and the README."""

import os
import re
import subprocess
import sys
from pathlib import Path

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


def test_rankers_leave_heavy_scipy_modules_unloaded(tmp_path):
    # scipy.optimize, scipy.stats and scipy.sparse each add tens of MB of
    # resident memory at import; the library needs none of them
    code = """
import sys
import numpy as np
from wstrank import METHODS, ComparisonCounts, filter_players, rank_counts

rng = np.random.default_rng(0)
win = rng.integers(0, 4, (12, 12))
np.fill_diagonal(win, 0)
counts, _ = filter_players(ComparisonCounts(win), "bt-connected")
for method in METHODS:
    rank_counts(method, counts)
heavy = ("scipy.optimize", "scipy.stats", "scipy.sparse")
print(sorted(m for m in sys.modules if m.startswith(heavy)))
"""
    proc = run_python(code, tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_readme_quick_start_runs(tmp_path):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Quick start (API)", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    proc = run_python(code, tmp_path)
    assert proc.returncode == 0, proc.stderr
