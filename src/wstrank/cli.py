"""Command-line entry point: `simulate`, `rank`, and `compare` subcommands.

Exit codes are a stable scripting contract: 0 success, 2 usage errors,
3 data/model precondition failures, 4 numeric failures.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import asdict, dataclass
from dataclasses import fields as dataclass_fields
from pathlib import Path

import numpy as np

from .data import ComparisonCounts, Ranking, filter_players, load_matches, read_match_csv
from .data import FILTER_POLICIES
from .errors import AlignmentError, DataError, NumericError
from .maxscore import MasterOptions
from .metrics import kendall_tau, spearman_rho
from .simulation import METHODS, SCENARIOS, MethodStats, SimConfig, rank_counts, run_study
from .simulation import study_methods

FORMATS = ("table", "csv", "json")
FILTERS = ("none", *FILTER_POLICIES)


class _UsageError(Exception):
    pass


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wstrank",
        description="Rank players from pairwise comparison data and run simulation studies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--out", help="output path (default: stdout)")
        p.add_argument("--format", choices=FORMATS, default="table")

    sim = sub.add_parser("simulate", help="run replicated simulation studies over a grid")
    sim.add_argument("--scenario", required=True, help="comma-separated: " + ",".join(SCENARIOS))
    sim.add_argument("--n", required=True, help="comma-separated player counts, e.g. 100,200,500")
    sim.add_argument("--t", type=int, default=5, help="max games per pair")
    sim.add_argument("--xi-low", type=float, default=0.3)
    sim.add_argument("--xi-high", type=float, default=0.5)
    sim.add_argument("--reps", type=int, default=100)
    sim.add_argument("--methods", default=",".join(METHODS))
    sim.add_argument("--k", type=int, help="search window length")
    sim.add_argument("--seed", type=int, default=0)
    add_common(sim)
    sim.set_defaults(func=cmd_simulate)

    rank = sub.add_parser("rank", help="rank players from a winner,loser match CSV")
    rank.add_argument("--input", required=True, help="match CSV path")
    rank.add_argument("--method", choices=METHODS, required=True)
    rank.add_argument("--k", type=int)
    rank.add_argument("--filter", choices=FILTERS, default="none")
    add_common(rank)
    rank.set_defaults(func=cmd_rank)

    comp = sub.add_parser("compare", help="compare two rankings")
    comp.add_argument("--input", help="match CSV to rank with --methods")
    comp.add_argument("--methods", help="two methods, e.g. master,bt")
    comp.add_argument("--rankings", help="two ranking JSON artifacts, e.g. a.json,b.json")
    comp.add_argument("--filter", choices=FILTERS, default="none")
    comp.add_argument(
        "--h2h",
        action="append",
        default=[],
        metavar="A,B",
        help="print the head-to-head record of a player pair (repeatable)",
    )
    comp.add_argument("--k", type=int, help="master's window length, with --methods")
    add_common(comp)
    comp.set_defaults(func=cmd_compare)
    return parser


@dataclass(frozen=True)
class Report:
    """What a command prints: scalar ``fields`` and flat ``rows`` keyed by ``columns``.

    JSON nests the rows under ``rows_key``; table and CSV lay them out as
    columns, with the fields after them.
    """

    fields: dict
    rows_key: str
    columns: tuple[str, ...]
    rows: list[dict]


def _missing(value) -> bool:
    return value is None or (isinstance(value, float) and math.isnan(value))


def render(report: Report, fmt: str) -> str:
    """The one place that lays out a report in a ``--format``.

    JSON writes a missing value (None or NaN) as null; CSV writes it as an
    empty cell and floats with repr, so they read back exactly; the table
    writes "-" and floats to 6 significant digits.
    """
    if fmt == "json":

        def strict(d: dict) -> dict:
            return {k: None if _missing(v) else v for k, v in d.items()}

        payload = {**strict(report.fields), report.rows_key: [strict(r) for r in report.rows]}
        return json.dumps(payload, indent=2, allow_nan=False) + "\n"
    missing, float_format = ("", repr) if fmt == "csv" else ("-", "{:.6g}".format)

    def cell(value) -> str:
        if _missing(value):
            return missing
        return float_format(value) if isinstance(value, float) else str(value)

    rows = [[cell(row[c]) for c in report.columns] for row in report.rows]
    fields = [f"{k}={cell(v)}" for k, v in report.fields.items()]
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        # a row starting "#" is quoted, so it cannot be read as a field line
        quoted = csv.writer(buf, lineterminator="\n", quoting=csv.QUOTE_ALL)
        writer.writerow(report.columns)
        for row in rows:
            (quoted if row and row[0].startswith("#") else writer).writerow(row)
        return buf.getvalue() + "".join(f"# {f}\n" for f in fields)
    widths = [max(map(len, column)) for column in zip(report.columns, *rows)]
    lines = [
        "  ".join(c.ljust(w) for c, w in zip(line, widths)).rstrip()
        for line in [report.columns, *rows]
    ]
    return "\n".join([*lines, " ".join(fields)]) + "\n"


def _write(report: Report, args: argparse.Namespace) -> None:
    text = render(report, args.format)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _master_options(args: argparse.Namespace) -> MasterOptions:
    try:
        return MasterOptions() if args.k is None else MasterOptions(k=args.k)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc


def cmd_simulate(args: argparse.Namespace) -> int:
    try:
        configs = [
            SimConfig(
                scenario=scenario.strip(),
                n=int(n),
                t_max=args.t,
                xi_low=args.xi_low,
                xi_high=args.xi_high,
                replicates=args.reps,
                seed=args.seed,
            )
            for scenario in args.scenario.split(",")
            for n in args.n.split(",")
        ]
        methods = study_methods(tuple(m.strip() for m in args.methods.split(",") if m.strip()))
        master_opts = _master_options(args)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc
    # the grid shares every setting but scenario and n
    shared = {k: v for k, v in asdict(configs[0]).items() if k not in ("scenario", "n")}
    rows = [
        {"scenario": c.scenario, "n": c.n, **asdict(s)}
        for c in configs
        for s in run_study(c, methods, master_opts).stats
    ]
    columns = ("scenario", "n", *(f.name for f in dataclass_fields(MethodStats)))
    _write(Report({**shared, "k": master_opts.k}, "stats", columns, rows), args)
    return 0


def _read_counts(path: str, policy: str) -> tuple[ComparisonCounts, ComparisonCounts]:
    """A match file's counts, as read and after the ``--filter`` policy."""
    counts = load_matches(read_match_csv(path))
    return counts, counts if policy == "none" else filter_players(counts, policy)[0]


def cmd_rank(args: argparse.Namespace) -> int:
    master_opts = _master_options(args)
    _, counts = _read_counts(args.input, args.filter)
    fit = rank_counts(args.method, counts, master_opts)
    fields: dict = {"method": args.method, "n": counts.n}
    if fit.master is not None:
        m = fit.master
        fields.update(objective=m.objective, init_objective=m.init_objective, sweeps=m.sweeps)
    players = [
        {"position": pos, "label": counts.label(int(i)), "score": float(fit.scores[int(i)])}
        for pos, i in enumerate(fit.ranking.best_first(), start=1)
    ]
    _write(Report(fields, "players", ("position", "label", "score"), players), args)
    return 0


def _read_ranking_artifact(path: str) -> tuple[str, dict[str, int]]:
    """Method name and label -> rank (n is best) of a ranking artifact written by `rank`."""
    try:
        artifact = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError) as exc:  # RecursionError: nesting too deep
        raise DataError(f"cannot read ranking artifact {path}: {exc}") from exc
    try:
        players = artifact["players"]
        labels = [p["label"] for p in players]
        positions = sorted(p["position"] for p in players)
    except (KeyError, TypeError) as exc:
        raise DataError(f"ranking artifact {path}: no players list with label, position") from exc
    n = len(players)
    if not all(isinstance(label, str) for label in labels) or len(set(labels)) != n:
        raise DataError(f"ranking artifact {path}: player labels must be distinct strings")
    # bool is an int subclass, and True == 1.0 == 1 would pass the range check
    if any(type(p) is not int for p in positions) or positions != list(range(1, n + 1)):
        raise DataError(f"ranking artifact {path}: positions must be 1..{n}")
    return artifact.get("method", path), {p["label"]: n - p["position"] + 1 for p in players}


def _aligned_rankings(ranks_a: dict[str, int], ranks_b: dict[str, int]) -> tuple[Ranking, Ranking, list[str]]:
    labels_a, labels_b = set(ranks_a), set(ranks_b)
    if labels_a != labels_b:
        raise AlignmentError(labels_a - labels_b, labels_b - labels_a)
    labels = sorted(labels_a)
    ra = Ranking(np.array([ranks_a[l] for l in labels]))
    rb = Ranking(np.array([ranks_b[l] for l in labels]))
    return ra, rb, labels


def cmd_compare(args: argparse.Namespace) -> int:
    h2h_requests = []
    for request in args.h2h:
        parts = [p.strip() for p in request.split(",")]
        if len(parts) != 2 or not all(parts):
            raise _UsageError(f"--h2h expects 'A,B', got {request!r}")
        h2h_requests.append((parts[0], parts[1]))

    raw_counts = None
    if args.rankings:
        if args.methods or args.filter != "none" or args.k is not None:
            raise _UsageError("--methods, --filter and --k apply to --input mode, not --rankings")
        paths = [p.strip() for p in args.rankings.split(",")]
        if len(paths) != 2:
            raise _UsageError("--rankings expects two comma-separated paths")
        (name_a, ranks_a), (name_b, ranks_b) = (_read_ranking_artifact(p) for p in paths)
        names = [name_a, name_b]
        if args.input:
            raw_counts, _ = _read_counts(args.input, "none")
    elif args.input and args.methods:
        master_opts = _master_options(args)
        methods = [m.strip() for m in args.methods.split(",")]
        if len(methods) != 2 or any(m not in METHODS for m in methods):
            raise _UsageError("--methods expects two of " + ",".join(METHODS))
        raw_counts, counts = _read_counts(args.input, args.filter)
        names = methods
        fits = [rank_counts(m, counts, master_opts) for m in methods]
        ranks_a, ranks_b = (
            {counts.label(i): int(r) for i, r in enumerate(fit.ranking.ranks)} for fit in fits
        )
    else:
        raise _UsageError("need either --rankings a,b or --input FILE --methods m1,m2")

    ra, rb, _ = _aligned_rankings(ranks_a, ranks_b)
    n = ra.n
    if n < 2:
        raise DataError("need at least 2 players to compare rankings")
    tau = kendall_tau(ra, rb)

    h2h_rows = []
    for a, b in h2h_requests:
        if raw_counts is None:
            raise _UsageError("--h2h needs --input with the match file")
        if raw_counts.labels is None or a not in raw_counts.labels or b not in raw_counts.labels:
            missing = [x for x in (a, b) if raw_counts.labels is None or x not in raw_counts.labels]
            raise DataError(f"unknown player(s) for --h2h: {missing}")
        ia, ib = raw_counts.labels.index(a), raw_counts.labels.index(b)
        h2h_rows.append(
            {
                "a": a,
                "b": b,
                "a_wins": int(raw_counts.win_counts[ia, ib]),
                "b_wins": int(raw_counts.win_counts[ib, ia]),
            }
        )

    fields = {
        "first": names[0],
        "second": names[1],
        "n": n,
        "kendall_tau": tau,
        "kendall_corr": 1.0 - 4.0 * tau / (n * (n - 1)),
        "spearman_rho": spearman_rho(ra, rb),
    }
    _write(Report(fields, "h2h", ("a", "b", "a_wins", "b_wins"), h2h_rows), args)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse handles usage errors and --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DataError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:  # numpy raises it at once for an instance far too large
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
