import codecs
import itertools
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wstrank import (
    METHODS,
    SCENARIOS,
    MasterOptions,
    MatchRecord,
    SimConfig,
    run_study,
    synthetic_matches,
    write_match_csv,
)
from wstrank.cli import main

ROOT = Path(__file__).resolve().parents[1]


def write_matches(path, pairs):
    write_match_csv(path, [MatchRecord(w, l) for w, l in pairs])


@pytest.fixture()
def small_matches(tmp_path):
    path = tmp_path / "matches.csv"
    # A beats B three times, B wins once back; strongly connected
    write_matches(path, [("A", "B"), ("A", "B"), ("A", "B"), ("B", "A")])
    return path


EXIT_CODES = {0, 2, 3, 4}
FILTERS = ("none", "no-wins", "bt-connected")
# A field longer than csv.field_size_limit() (131072) is a reader error.
LONG_LABEL = "L" * 131073


@st.composite
def match_csv_bytes(draw):
    """Bytes of a would-be match file: right, wrong or missing header columns,
    an optional BOM, empty lines, self-games, ragged rows, quotes, an over-long
    field and a few arbitrary (often non-UTF-8) bytes spliced in."""
    header = draw(
        st.sampled_from(
            ["winner,loser", "winner,loser", " winner , loser ", "winner", "loser,winner", ""]
        )
    )
    label = st.sampled_from(["A", "B", "C", "D", "", "é", '"A', LONG_LABEL])
    rows = draw(st.lists(st.lists(label, max_size=3).map(",".join), max_size=12))
    text = "\n".join([header, *rows]) + draw(st.sampled_from(["", "\n", "\r\n"]))
    data = text.encode("utf-8")
    if draw(st.booleans()):
        data = codecs.BOM_UTF8 + data
    at = draw(st.integers(0, len(data)))
    return data[:at] + draw(st.binary(max_size=4)) + data[at:]


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=3), children, max_size=3),
    max_leaves=8,
)
ARTIFACT_PLAYER = st.fixed_dictionaries(
    {},
    optional={
        "position": st.integers(0, 4) | JSON_VALUES,
        "label": st.sampled_from(["A", "B", "C"]) | JSON_VALUES,
        "score": JSON_VALUES,
    },
)
RANKING_ARTIFACT_BYTES = st.one_of(
    st.fixed_dictionaries(
        {"players": st.lists(ARTIFACT_PLAYER, max_size=4)},
        optional={"method": JSON_VALUES, "n": JSON_VALUES},
    ).map(lambda a: json.dumps(a).encode()),
    JSON_VALUES.map(lambda v: json.dumps(v).encode()),
    st.integers(1, 100_000).map(lambda depth: b"[" * depth),  # nesting past the recursion limit
    st.binary(max_size=20),
)


class TestSimulate:
    def test_writes_csv_row_per_method(self, tmp_path):
        out = tmp_path / "study.csv"
        code = main(
            [
                "simulate",
                "--scenario",
                "two_group",
                "--n",
                "16",
                "--reps",
                "3",
                "--seed",
                "7",
                "--format",
                "csv",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("scenario,n,method")
        methods = [line.split(",")[2] for line in lines[1:]]
        assert methods == ["counting", "bt", "usvt", "master"]

    def test_odd_n_two_group_is_usage_error(self, capsys):
        code = main(["simulate", "--scenario", "two_group", "--n", "201", "--reps", "3"])
        assert code == 2
        assert "even" in capsys.readouterr().err

    def test_unknown_flag_rejected(self):
        assert main(["simulate", "--scenario", "uniform", "--n", "10", "--fancy"]) == 2

    def test_unknown_method_is_usage_error(self, capsys):
        code = main(
            ["simulate", "--scenario", "uniform", "--n", "10", "--reps", "2", "--methods", "elo"]
        )
        assert code == 2

    def test_threads_below_one_is_usage_error(self, capsys):
        code = main(
            ["simulate", "--scenario", "uniform", "--n", "10", "--reps", "2", "--threads", "0"]
        )
        assert code == 2
        assert "--threads" in capsys.readouterr().err

    def test_deterministic_apart_from_timing(self, tmp_path):
        args = [
            "simulate",
            "--scenario",
            "uniform",
            "--n",
            "14",
            "--reps",
            "3",
            "--seed",
            "5",
            "--format",
            "csv",
        ]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2), "--threads", "2"]) == 0

        def strip_secs(text):
            return [",".join(line.split(",")[:-1]) for line in text.splitlines()]

        assert strip_secs(out1.read_text()) == strip_secs(out2.read_text())

    def test_table_format_smoke(self, capsys):
        code = main(["simulate", "--scenario", "uniform", "--n", "12", "--reps", "2"])
        assert code == 0
        text = capsys.readouterr().out
        assert "method" in text and "master" in text

    def test_grid_csv_concatenates_settings(self, tmp_path):
        out = tmp_path / "grid.csv"
        grid = ["--scenario", "uniform,two_group", "--n", "10,12", "--reps", "2", "--seed", "0"]
        code = main(["simulate", *grid, "--k", "5", "--format", "csv", "--out", str(out)])
        assert code == 0

        def expected(k):
            grid_settings = itertools.product(("uniform", "two_group"), (10, 12))
            return "".join(
                run_study(
                    SimConfig(scenario=scenario, n=n, replicates=2, seed=0),
                    master_opts=MasterOptions(k=k),
                ).to_csv(header=i == 0)
                for i, (scenario, n) in enumerate(grid_settings)
            )

        def strip_secs(text):
            return [line.rsplit(",", 1)[0] for line in text.splitlines()]

        assert strip_secs(expected(5)) != strip_secs(expected(3))  # so --k must reach master
        assert strip_secs(out.read_text()) == strip_secs(expected(5))

    def test_grid_json_lists_settings_in_order(self, capsys):
        code = main(
            ["simulate", "--scenario", "uniform,bt_latent", "--n", "8,10", "--reps", "2"]
            + ["--methods", "counting", "--format", "json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        order = [(p["config"]["scenario"], p["config"]["n"]) for p in payload]
        assert order == [("uniform", 8), ("uniform", 10), ("bt_latent", 8), ("bt_latent", 10)]

    def test_bad_setting_exits_before_any_study(self, capsys):
        code = main(["simulate", "--scenario", "uniform,two_group", "--n", "10,11", "--reps", "2"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "even" in captured.err

    def test_failures_counted_per_method(self, capsys):
        # with no games BT sees a disconnected graph and USVT no observed pair
        code = main(["simulate", "--scenario", "uniform", "--n", "10", "--reps", "2", "--t", "0"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        column = lines[1].split().index("failed")
        failed = {row.split()[0]: int(row.split()[column]) for row in lines[2:]}
        assert failed == {"counting": 0, "bt": 2, "usvt": 2, "master": 0}

    @given(
        scenarios=st.lists(st.sampled_from(SCENARIOS + ("bogus",)), min_size=1, max_size=2),
        sizes=st.lists(st.integers(-1, 12), min_size=1, max_size=2),
        t=st.integers(-1, 3),
        reps=st.integers(0, 3),
        xi=st.tuples(st.floats(-0.2, 1.2), st.floats(-0.2, 1.2)),
        methods=st.lists(st.sampled_from(METHODS + ("elo",)), max_size=3),
        k=st.integers(1, 9),
        threads=st.integers(-1, 3),
    )
    @settings(max_examples=30, deadline=None)
    def test_exit_code_contract(self, scenarios, sizes, t, reps, xi, methods, k, threads):
        argv = ["simulate", "--scenario", ",".join(scenarios), "--n", ",".join(map(str, sizes))]
        argv += ["--t", str(t), "--reps", str(reps), "--methods", ",".join(methods)]
        argv += ["--xi-low", str(xi[0]), "--xi-high", str(xi[1])]
        argv += ["--k", str(k), "--threads", str(threads)]
        assert main(argv + ["--format", "csv"]) in EXIT_CODES


class TestRank:
    def test_dominant_player_first(self, small_matches, capsys):
        code = main(["rank", "--input", str(small_matches), "--method", "master"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        first_player = lines[1].split()[1]
        assert first_player == "A"

    def test_master_json_artifact_fields(self, small_matches, tmp_path):
        out = tmp_path / "master.json"
        code = main(
            [
                "rank",
                "--input",
                str(small_matches),
                "--method",
                "master",
                "--format",
                "json",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        artifact = json.loads(out.read_text())
        assert {"method", "n", "players", "objective", "init_objective", "sweeps"} <= set(artifact)
        assert artifact["objective"] >= artifact["init_objective"]
        positions = [p["position"] for p in artifact["players"]]
        assert positions == list(range(1, artifact["n"] + 1))

    def test_bt_on_disconnected_data_exits_3_with_hint(self, tmp_path, capsys):
        path = tmp_path / "chain.csv"
        write_matches(path, [("A", "B"), ("B", "C")])
        code = main(["rank", "--input", str(path), "--method", "bt"])
        assert code == 3
        assert "bt-connected" in capsys.readouterr().err

    def test_bt_with_filter_succeeds(self, tmp_path, capsys):
        path = tmp_path / "mixed.csv"
        write_matches(
            path, [("A", "B"), ("B", "A"), ("A", "B"), ("B", "C")]  # C unreachable, filtered out
        )
        code = main(
            ["rank", "--input", str(path), "--method", "bt", "--filter", "bt-connected"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "C" not in out.split()

    def test_each_method_runs(self, small_matches, capsys):
        for method in ("counting", "bt", "usvt", "master"):
            assert main(["rank", "--input", str(small_matches), "--method", method]) == 0
            capsys.readouterr()

    def test_missing_file_is_data_error(self, tmp_path):
        assert main(["rank", "--input", str(tmp_path / "nope.csv"), "--method", "master"]) == 3

    def test_invalid_utf8_exits_3_naming_line_and_offset(self, tmp_path, capsys):
        path = tmp_path / "latin1.csv"
        path.write_bytes("winner,loser\nA,B\nJosé,A\n".encode("latin-1"))
        assert main(["rank", "--input", str(path), "--method", "counting"]) == 3
        assert f"{path}:3: not valid UTF-8: byte 0xe9 at file offset 20" in capsys.readouterr().err

    def test_numeric_failure_exits_4(self, small_matches, monkeypatch, capsys):
        import wstrank.simulation
        from wstrank.errors import ConvergenceError

        def explode(counts, opts=None):
            raise ConvergenceError("did not converge", beta=None)

        monkeypatch.setattr(wstrank.simulation, "bt_fit", explode)
        code = main(["rank", "--input", str(small_matches), "--method", "bt"])
        assert code == 4
        assert "converge" in capsys.readouterr().err

    @given(data=match_csv_bytes())
    @example(data=b"winner,loser\n" + LONG_LABEL.encode() + b",B\n")
    @settings(max_examples=40, deadline=None)
    def test_exit_code_contract(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            path, out = Path(tmp) / "matches.csv", Path(tmp) / "out.json"
            path.write_bytes(data)
            for method, filter_ in itertools.product(METHODS, FILTERS):
                argv = ["rank", "--input", str(path), "--method", method, "--filter", filter_]
                assert main(argv + ["--format", "json", "--out", str(out)]) in EXIT_CODES

    def test_csv_output(self, small_matches, tmp_path):
        out = tmp_path / "ranked.csv"
        code = main(
            [
                "rank",
                "--input",
                str(small_matches),
                "--method",
                "counting",
                "--format",
                "csv",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "position,label,score"
        assert lines[1:] == ["1,A,0.75", "2,B,0.25"]


class TestCompare:
    def test_same_method_agrees_with_itself(self, small_matches, capsys):
        code = main(
            [
                "compare",
                "--input",
                str(small_matches),
                "--methods",
                "counting,counting",
                "--format",
                "json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kendall_corr"] == pytest.approx(1.0)
        assert payload["spearman_rho"] == pytest.approx(1.0)

    def test_two_methods_on_one_file(self, small_matches, capsys):
        code = main(
            [
                "compare",
                "--input",
                str(small_matches),
                "--methods",
                "master,bt",
                "--format",
                "json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert -1.0 <= payload["kendall_corr"] <= 1.0
        assert payload["n"] == 2

    def test_reversed_artifacts(self, tmp_path, capsys):
        a = {
            "method": "x",
            "n": 3,
            "players": [
                {"position": 1, "label": "A", "score": 3.0},
                {"position": 2, "label": "B", "score": 2.0},
                {"position": 3, "label": "C", "score": 1.0},
            ],
        }
        b = {
            "method": "y",
            "n": 3,
            "players": [
                {"position": 1, "label": "C", "score": 3.0},
                {"position": 2, "label": "B", "score": 2.0},
                {"position": 3, "label": "A", "score": 1.0},
            ],
        }
        pa, pb = tmp_path / "a.json", tmp_path / "b.json"
        pa.write_text(json.dumps(a))
        pb.write_text(json.dumps(b))
        code = main(["compare", "--rankings", f"{pa},{pb}", "--format", "json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kendall_corr"] == pytest.approx(-1.0)
        assert payload["spearman_rho"] == pytest.approx(-1.0)

    def test_mismatched_player_sets(self, tmp_path, capsys):
        a = {"players": [{"position": 1, "label": "A"}, {"position": 2, "label": "B"}]}
        b = {"players": [{"position": 1, "label": "A"}, {"position": 2, "label": "Z"}]}
        pa, pb = tmp_path / "a.json", tmp_path / "b.json"
        pa.write_text(json.dumps(a))
        pb.write_text(json.dumps(b))
        code = main(["compare", "--rankings", f"{pa},{pb}"])
        assert code == 3
        err = capsys.readouterr().err
        assert "B" in err and "Z" in err

    @pytest.mark.parametrize(
        "players",
        [
            None,  # no players list at all
            [{"position": 1, "label": "A"}, {"position": 2, "label": "A"}],
            [{"position": 1, "label": "A"}, {"position": 3, "label": "B"}],
            [{"position": 1, "label": "A"}],  # too few players to compare
            [{"position": True, "label": "A"}, {"position": 2, "label": "B"}],
            [{"position": 1.0, "label": "A"}, {"position": 2, "label": "B"}],
        ],
        ids=[
            "missing-players",
            "duplicate-labels",
            "bad-positions",
            "single-player",
            "bool-position",
            "float-position",
        ],
    )
    def test_malformed_artifact_is_data_error(self, tmp_path, capsys, players):
        artifact = {"method": "x"} if players is None else {"method": "x", "players": players}
        path = tmp_path / "a.json"
        path.write_text(json.dumps(artifact))
        assert main(["compare", "--rankings", f"{path},{path}"]) == 3
        assert "error:" in capsys.readouterr().err

    @given(first=RANKING_ARTIFACT_BYTES, second=RANKING_ARTIFACT_BYTES)
    @example(first=b"[" * 100_000, second=b"[]")
    @settings(max_examples=60, deadline=None)
    def test_exit_code_contract(self, first, second):
        with tempfile.TemporaryDirectory() as tmp:
            pa, pb, out = Path(tmp) / "a.json", Path(tmp) / "b.json", Path(tmp) / "out.json"
            pa.write_bytes(first)
            pb.write_bytes(second)
            for fmt in ("table", "csv", "json"):
                argv = ["compare", "--rankings", f"{pa},{pb}", "--format", fmt]
                assert main(argv + ["--out", str(out)]) in EXIT_CODES

    def test_head_to_head(self, small_matches, capsys):
        code = main(
            [
                "compare",
                "--input",
                str(small_matches),
                "--methods",
                "counting,master",
                "--h2h",
                "A,B",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "A vs B: 3:1" in out

    def test_h2h_unknown_player(self, small_matches, capsys):
        code = main(
            [
                "compare",
                "--input",
                str(small_matches),
                "--methods",
                "counting,master",
                "--h2h",
                "A,Zed",
            ]
        )
        assert code == 3

    def test_requires_a_mode(self, capsys):
        assert main(["compare"]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["rank", "--method", "counting", "--threads", "2"],
        ["compare", "--methods", "counting,bt", "--seed", "1"],
    ],
)
def test_study_flags_rejected_outside_simulate(small_matches, argv):
    assert main([*argv, "--input", str(small_matches)]) == 2


def test_synthetic_match_script_feeds_rank(tmp_path, capsys):
    path = tmp_path / "matches.csv"
    script = ROOT / "scripts" / "make_synthetic_matches.py"
    subprocess.run(
        [sys.executable, str(script), "--players", "20", "--density", "0.5", "--out", str(path)],
        check=True,
        capture_output=True,
    )
    assert main(["rank", "--input", str(path), "--method", "master"]) == 0


class TestScaleSmoke:
    def test_mid_size_pipeline(self, tmp_path, capsys):
        # structural version of the large-scale run exercised in acceptance
        path = tmp_path / "synthetic.csv"
        write_match_csv(path, synthetic_matches(80, 0.2, seed=3))
        for method in ("counting", "usvt", "master"):
            assert (
                main(
                    [
                        "rank",
                        "--input",
                        str(path),
                        "--method",
                        method,
                        "--filter",
                        "no-wins",
                    ]
                )
                == 0
            )
            capsys.readouterr()
        assert (
            main(
                [
                    "rank",
                    "--input",
                    str(path),
                    "--method",
                    "bt",
                    "--filter",
                    "bt-connected",
                ]
            )
            == 0
        )
