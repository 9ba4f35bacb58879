import codecs
import csv
import itertools
import json
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wstrank import (
    METHODS,
    SCENARIOS,
    MasterOptions,
    MatchRecord,
    MethodStats,
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
        methods = [line.split(",")[2] for line in lines[1:] if not line.startswith("# ")]
        assert methods == ["counting", "bt", "usvt", "master"]

    def test_odd_n_two_group_is_usage_error(self, capsys):
        code = main(["simulate", "--scenario", "two_group", "--n", "201", "--reps", "3"])
        assert code == 2
        assert "even" in capsys.readouterr().err

    def test_out_of_memory_exits_3(self, monkeypatch, capsys):
        # numpy raises MemoryError at once for an instance far too large
        # (``--n 100000000``); stand it in without allocating anything
        import wstrank.cli

        def explode(config, methods, master_opts):
            raise MemoryError("Unable to allocate 8.88 PiB")

        monkeypatch.setattr(wstrank.cli, "run_study", explode)
        code = main(["simulate", "--scenario", "uniform", "--n", "10", "--reps", "2"])
        assert code == 3
        err = capsys.readouterr().err
        assert err == "error: out of memory: Unable to allocate 8.88 PiB\n"

    def test_unknown_flag_rejected(self):
        for flag in (["--fancy"], ["--threads", "2"]):
            assert main(["simulate", "--scenario", "uniform", "--n", "10", *flag]) == 2

    def test_unknown_method_is_usage_error(self, capsys):
        argv = ["simulate", "--scenario", "uniform", "--n", "10", "--reps", "2"]
        for methods in ("elo", ",", ""):  # an empty list, too, exits before any study
            assert main([*argv, "--methods", methods]) == 2
            assert capsys.readouterr().out == ""

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
        assert main(args + ["--out", str(out2)]) == 0

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
            return [
                (scenario, n, replace(s, secs=0.0))
                for scenario, n in grid_settings
                for s in run_study(
                    SimConfig(scenario=scenario, n=n, replicates=2, seed=0),
                    master_opts=MasterOptions(k=k),
                ).stats
            ]

        def value(cell):
            for kind in (int, float):
                try:
                    return kind(cell)
                except ValueError:
                    pass
            return cell or None  # an empty cell is a missing value

        lines = out.read_text().splitlines()
        written = []
        for row in csv.DictReader(line for line in lines if not line.startswith("# ")):
            scenario, n = row.pop("scenario"), int(row.pop("n"))
            stats = MethodStats(**{k: value(v) for k, v in row.items()})
            written.append((scenario, n, replace(stats, secs=0.0)))
        assert expected(5) != expected(3)  # so --k must reach master
        assert written == expected(5)
        assert "# k=5" in lines

    def test_grid_json_lists_settings_in_order(self, capsys):
        code = main(
            ["simulate", "--scenario", "uniform,bt_latent", "--n", "8,10", "--reps", "2"]
            + ["--methods", "counting", "--format", "json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        order = [(row["scenario"], row["n"]) for row in payload["stats"]]
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
        header = lines[0].split()
        method, column = header.index("method"), header.index("failures")
        failed = {row.split()[method]: int(row.split()[column]) for row in lines[1:-1]}
        assert failed == {"counting": 0, "bt": 2, "usvt": 2, "master": 0}

    def test_json_is_strict(self, capsys):
        # with no games BT and USVT fail on every replicate, leaving NaN means
        argv = ["simulate", "--scenario", "uniform", "--n", "10", "--reps", "2", "--t", "0"]
        assert main(argv + ["--format", "json"]) == 0

        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        payload = json.loads(capsys.readouterr().out, parse_constant=reject)
        bt = next(row for row in payload["stats"] if row["method"] == "bt")
        assert bt["mean_error_pairs"] is None and bt["failures"] == 2

    @given(
        scenarios=st.lists(st.sampled_from(SCENARIOS + ("bogus",)), min_size=1, max_size=2),
        sizes=st.lists(st.integers(-1, 12), min_size=1, max_size=2),
        t=st.integers(-1, 3),
        reps=st.integers(0, 3),
        xi=st.tuples(st.floats(-0.2, 1.2), st.floats(-0.2, 1.2)),
        methods=st.lists(st.sampled_from(METHODS + ("elo",)), max_size=3),
        k=st.integers(1, 9),
        seed=st.integers(-1, 3),
    )
    @example(
        scenarios=["uniform"],
        sizes=[4],
        t=2**63,  # numpy cannot draw binomials of more than 2**63 - 1 games
        reps=2,
        xi=(0.3, 0.5),
        methods=["counting"],
        k=3,
        seed=0,
    )
    @settings(max_examples=30, deadline=None)
    def test_exit_code_contract(self, scenarios, sizes, t, reps, xi, methods, k, seed):
        argv = ["simulate", "--scenario", ",".join(scenarios), "--n", ",".join(map(str, sizes))]
        argv += ["--t", str(t), "--reps", str(reps), "--methods", ",".join(methods)]
        argv += ["--xi-low", str(xi[0]), "--xi-high", str(xi[1])]
        argv += ["--k", str(k), "--seed", str(seed)]
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

    @pytest.mark.parametrize(
        "text, flags, message",
        [
            ("", ["--method", "counting"], "empty match file"),
            ("winner,loser\n", ["--method", "counting"], "no match records given"),
            (
                "winner,loser\nA,B\n",
                ["--method", "usvt", "--filter", "no-wins"],
                "need at least 2 players",
            ),
        ],
        ids=["empty-file", "header-only", "usvt-one-player"],
    )
    def test_data_error_exits_3_with_message(self, tmp_path, capsys, text, flags, message):
        path = tmp_path / "matches.csv"
        path.write_text(text, encoding="utf-8")
        assert main(["rank", "--input", str(path), *flags]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and message in captured.err

    @pytest.mark.parametrize("method", ["counting", "bt", "master"])
    def test_one_player_left_by_the_filter_is_ranked(self, tmp_path, capsys, method):
        # A beat B, so no-wins keeps A alone
        path = tmp_path / "matches.csv"
        write_matches(path, [("A", "B")])
        argv = ["rank", "--input", str(path), "--method", method, "--filter", "no-wins"]
        assert main([*argv, "--format", "json"]) == 0
        artifact = json.loads(capsys.readouterr().out)
        assert artifact["n"] == 1
        assert [(p["position"], p["label"]) for p in artifact["players"]] == [(1, "A")]

    def test_numeric_failure_exits_4(self, small_matches, monkeypatch, capsys):
        import wstrank.simulation
        from wstrank.errors import ConvergenceError

        def explode(counts, opts=None):
            raise ConvergenceError("did not converge")

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
        assert lines[1:3] == ["1,A,0.75", "2,B,0.25"]
        assert lines[3:] == ["# method=counting", "# n=2"]


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
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].split() == ["a", "b", "a_wins", "b_wins"]
        assert lines[1].split() == ["A", "B", "3", "1"]

    def test_h2h_row_of_a_hash_label_is_not_read_as_a_field(self, tmp_path, capsys):
        path = tmp_path / "hash.csv"
        write_matches(path, [("# x=1", "A"), ("A", "# x=1"), ("# x=1", "A")])
        argv = ["compare", "--input", str(path), "--methods", "counting,bt", "--format", "csv"]
        assert main([*argv, "--h2h", "# x=1,A"]) == 0
        fields, _, rows = _read_back(capsys.readouterr().out, "csv")
        assert rows == [{"a": "# x=1", "b": "A", "a_wins": "2", "b_wins": "1"}]
        names = ["first", "second", "n", "kendall_tau", "kendall_corr", "spearman_rho"]
        assert list(fields) == names

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
        "flag",
        [["--methods", "bogus,x"], ["--filter", "bt-connected"], ["--k", "5"], ["--k", "99"]],
    )
    def test_input_mode_flags_rejected_with_rankings(self, tmp_path, small_matches, capsys, flag):
        path = tmp_path / "a.json"
        rank = ["rank", "--input", str(small_matches), "--method", "counting", "--format", "json"]
        assert main([*rank, "--out", str(path)]) == 0
        argv = ["compare", "--rankings", f"{path},{path}", "--input", str(small_matches)]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv + flag) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "--rankings" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["rank", "--method", "counting", "--reps", "2"],
        ["compare", "--methods", "counting,bt", "--seed", "1"],
    ],
)
def test_study_flags_rejected_outside_simulate(small_matches, argv):
    assert main([*argv, "--input", str(small_matches)]) == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["compare", "--input", "{m}", "--methods", "counting,bt", "--h2h", "A"],
            "--h2h expects 'A,B', got 'A'",
        ),
        (["compare", "--rankings", "{a}"], "--rankings expects two comma-separated paths"),
        (["compare", "--input", "{m}", "--methods", "master"], "--methods expects two of"),
        (["compare", "--input", "{m}", "--methods", "master,elo"], "--methods expects two of"),
        (["compare", "--rankings", "{a},{a}", "--h2h", "A,B"], "--h2h needs --input"),
        (["rank", "--input", "{m}", "--method", "master", "--k", "9"], "k must be in [2, 8]"),
        (
            ["compare", "--input", "{m}", "--methods", "counting,master", "--k", "1"],
            "k must be in [2, 8]",
        ),
    ],
    ids=[
        "h2h-one-name",
        "one-ranking",
        "one-method",
        "unknown-method",
        "h2h-without-input",
        "rank-k-9",
        "compare-k-1",
    ],
)
def test_usage_error_exits_2_with_message(tmp_path, small_matches, capsys, argv, message):
    artifact = tmp_path / "a.json"
    rank = ["rank", "--input", str(small_matches), "--method", "counting", "--format", "json"]
    assert main([*rank, "--out", str(artifact)]) == 0
    argv = [arg.format(m=small_matches, a=artifact) for arg in argv]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"error: {message}" in captured.err


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


def _read_back(text, fmt):
    """Fields, column names and rows of a table or CSV report, every value a string."""
    lines = text.splitlines()
    if fmt == "table":
        header = lines[0].split()
        rows = [dict(zip(header, line.split(), strict=True)) for line in lines[1:-1]]
        return dict(token.split("=", 1) for token in lines[-1].split()), header, rows
    end = len(lines)
    while lines[end - 1].startswith("# "):
        end -= 1
    reader = csv.reader(lines[:end])
    header = next(reader)
    rows = [dict(zip(header, row, strict=True)) for row in reader]
    return dict(line[2:].split("=", 1) for line in lines[end:]), header, rows


def _shows(cell, value, fmt):
    """Whether a table or CSV cell reads back as the JSON value."""
    if value is None:
        return cell == ("" if fmt == "csv" else "-")
    if isinstance(value, float):  # CSV writes repr, the table 6 significant digits
        return float(cell) == (value if fmt == "csv" else pytest.approx(value, rel=1e-5))
    return cell == str(value)


class TestReportLayout:
    @pytest.mark.parametrize("fmt", ["table", "csv"])
    @pytest.mark.parametrize(
        "command", ["simulate", "rank-master", "rank-usvt", "compare-input", "compare-rankings"]
    )
    @given(seed=st.integers(0, 2**16))
    @settings(max_examples=5, deadline=None)
    def test_every_json_value_reads_back_under_its_name(self, command, fmt, seed):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            # a quote in every label, which CSV must quote and the table prints as is
            records = [
                (w.replace("P00", 'p"'), l.replace("P00", 'p"'))
                for w, l in synthetic_matches(12, 0.5, seed=seed)
            ]
            path = tmp / "matches.csv"
            write_matches(path, records)
            h2h = ["--input", str(path), "--h2h", ",".join(records[0])]
            if command == "simulate":
                argv = ["simulate", "--scenario", "uniform,two_group", "--n", "6", "--reps", "2"]
                argv += ["--t", "1", "--xi-low", "0.1", "--seed", str(seed)]
                rows_key = "stats"
            elif command.startswith("rank"):
                argv = ["rank", "--input", str(path), "--method", command[len("rank-") :]]
                rows_key = "players"
            elif command == "compare-input":
                argv = ["compare", "--methods", "master,usvt", *h2h]
                rows_key = "h2h"
            else:
                artifact = tmp / "counting.json"
                rank = ["rank", "--input", str(path), "--method", "counting", "--format", "json"]
                assert main([*rank, "--out", str(artifact)]) == 0
                argv = ["compare", "--rankings", f"{artifact},{artifact}", *h2h]
                rows_key = "h2h"
            outputs = {}
            for f in ("json", fmt):
                out = tmp / f"out.{f}"
                assert main([*argv, "--format", f, "--out", str(out)]) == 0
                outputs[f] = out.read_text()
        payload = json.loads(outputs["json"])
        rows = payload.pop(rows_key)
        fields, header, written = _read_back(outputs[fmt], fmt)
        assert set(fields) == set(payload)
        assert all(_shows(fields[k], v, fmt) for k, v in payload.items())
        assert len(written) == len(rows) > 0
        for row, read in zip(rows, written):
            assert header == list(row)
            # wall time differs between the two runs
            assert all(_shows(read[k], v, fmt) for k, v in row.items() if k != "secs")
