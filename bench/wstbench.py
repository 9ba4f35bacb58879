"""wstrank benchmark: workloads, a timed closed loop, correctness checks, traced runs.

Run it through ``bench/run.py``, which pins BLAS to one thread first; see
``bench/README.md`` for the workloads and the meaning of every metric.

One process, one thread, one caller: each op starts only after the previous
one has returned, so no work ever waits and wait time is zero by
construction. Layers are timed from outside, by replacing the package's public
functions with wrappers for the duration of a traced op; nothing inside the
package is instrumented.
"""

from __future__ import annotations

import argparse
import ctypes
import itertools
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np
import scipy

import wstrank
from wstrank import baselines, data, maxscore, metrics, simulation
from wstrank.data import ComparisonCounts, ProbabilityMatrix, Ranking
from wstrank.errors import ConvergenceError, NotConnectedError
from wstrank.maxscore import MasterOptions, MasterResult
from wstrank.simulation import METHODS, SimConfig

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
WORK_DIR = ROOT / "bench" / "work"  # the match file lives here during a run
TRACE_DIR = ROOT / "bench" / "traces"

# The ranker failures run_study tolerates; anything else aborts the run.
TOLERATED = (NotConnectedError, ConvergenceError)
MIN_SETUPS, MAX_SETUPS = 3, 15
SETUP_SHARE = 1 / 8  # of op time, the set-up time spread through the timed loop
TAIL_BEYOND = 10
USEFUL_GAIN = 1e-9


@dataclass(frozen=True)
class Study:
    """One run_study replicate per op; quality over replicates 0..quality_reps-1."""

    config: SimConfig
    master: MasterOptions
    quality_reps: int


@dataclass(frozen=True)
class MatchFile:
    """A synthetic_matches file read, filtered and ranked by ``methods`` per op.

    The quality set is ``quality_files`` further files of the same density with
    ``quality_players`` players each, read the same way and ranked by every
    method. File j of workload seed s is drawn with seed s * quality_files + j.
    """

    players: int
    density: float
    methods: tuple[str, ...]
    quality_players: int
    quality_files: int
    master: MasterOptions = MasterOptions()


# Why each workload exists is recorded in README.md.
WORKLOADS = {
    "study_dense": Study(SimConfig("two_group", 200), MasterOptions(), quality_reps=32),
    "study_window6": Study(SimConfig("uniform", 300), MasterOptions(k=6), quality_reps=8),
    "file_ingest": MatchFile(875, 0.0713, ("counting",), quality_players=300, quality_files=3),
}

# Public functions wrapped in the traced run, by module.
TRACED = {
    data: ("read_match_csv", "load_matches", "filter_players"),
    simulation: ("gen_probabilities", "gen_counts"),
    baselines: ("borda_rank", "bt_fit", "usvt_rank"),
    maxscore: ("master_rank", "surrogate_init", "ktuple_search", "certify"),
    metrics: ("kendall_tau",),
}


def _layer(module, name: str) -> str:
    return f"{module.__name__.rsplit('.', 1)[1]}.{name}"


LAYERS = tuple(_layer(module, name) for module, names in TRACED.items() for name in names)


# ---------------------------------------------------------------- ops


@dataclass
class OpResult:
    counts: ComparisonCounts
    rankings: dict[str, Ranking | None]  # None marks a tolerated failure
    master: MasterResult | None = None
    usvt: ProbabilityMatrix | None = None
    taus: dict[str, int] = field(default_factory=dict)
    margin: int | None = None  # certify margin of master against the truth

    @property
    def failed(self) -> int:
        return sum(r is None for r in self.rankings.values())


def _rank(counts: ComparisonCounts, methods, master_opts: MasterOptions) -> OpResult:
    # Module attributes are looked up at call time so the traced run sees its wrappers.
    result = OpResult(counts, {})
    for method in methods:
        try:
            if method == "counting":
                ranking = baselines.borda_rank(counts)
            elif method == "bt":
                ranking = baselines.bt_fit(counts)[1]
            elif method == "usvt":
                result.usvt, ranking = baselines.usvt_rank(counts)
            else:
                result.master = maxscore.master_rank(counts, master_opts)
                ranking = result.master.ranking
        except TOLERATED:
            ranking = None
        result.rankings[method] = ranking
    return result


def study_op(spec: Study, config: SimConfig, replicate: int) -> OpResult:
    """The work of one run_study replicate, with run_study's inputs."""
    rng = simulation.replicate_rng(config.seed, replicate)
    P_star, truth = simulation.gen_probabilities(config, rng)
    counts = simulation.gen_counts(P_star, config, rng)
    result = _rank(counts, METHODS, spec.master)
    for method, ranking in result.rankings.items():
        if ranking is not None:
            result.taus[method] = metrics.kendall_tau(ranking, truth)
    if result.master is not None:
        result.margin = maxscore.certify(result.master.ranking, truth, counts)[1]
    return result


def file_op(spec: MatchFile, path: Path) -> OpResult:
    """`wstrank rank --filter bt-connected` for each method, minus formatting."""
    counts = data.load_matches(data.read_match_csv(path))
    counts, _ = data.filter_players(counts, "bt-connected")
    return _rank(counts, spec.methods, spec.master)


def write_matches(path: Path, players: int, density: float, seed: int) -> None:
    data.write_match_csv(path, simulation.synthetic_matches(players, density, seed=seed))


def latent_truth(spec: MatchFile, seed: int, labels) -> Ranking:
    """Order of the latent scores behind synthetic_matches, on the kept players.

    synthetic_matches draws its latent scores first from this stream, with
    its default spread, and labels player i as P<i:04d>; file_quality fails
    the run if that ever stops holding.
    """
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, 875)))
    latent = rng.normal(0.0, 1.5, spec.players)
    return Ranking.from_scores(latent[[int(label[1:]) for label in labels]])


# ---------------------------------------------------------------- checks


class Checks:
    """Correctness checks, always run outside the timed region."""

    def __init__(self) -> None:
        self.failures: list[str] = []
        self.margins: list[int] = []

    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            self.failures.append(message)

    def op(self, result: OpResult, k: int, where: str) -> None:
        counts = result.counts
        if result.master is not None:
            m = result.master
            self.expect(m.objective == maxscore.score(m.ranking, counts),
                        f"{where}: objective != score(ranking)")
            self.expect(m.objective >= m.init_objective, f"{where}: objective < init_objective")
            window = min(k, counts.n)
            self.expect(
                maxscore.ktuple_search(counts, m.ranking, window).sweeps == 0,
                f"{where}: master ranking is not a {window}-tuple local optimum",
            )
        if result.usvt is not None:
            probs = result.usvt.probs
            self.expect(np.array_equal(probs + probs.T, np.ones_like(probs)),
                        f"{where}: usvt probs + probs.T != 1")
        if result.margin is not None:
            self.margins.append(result.margin)

    def same(self, result: OpResult, reference: OpResult, where: str) -> None:
        self.expect(
            result.counts == reference.counts and result.rankings == reference.rankings,
            f"{where}: output differs from the warm-up op on the same file",
        )


# ---------------------------------------------------------------- tracing


class Tracer:
    """Spans around calls into the package's public functions, kept in memory.

    A span is a dict with name, start, end, parent (index into ``spans``),
    op id, the exception name if the call raised, and counters read from the
    call's return value (or, for surrogate_init, from its public trace list).
    """

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.op_id = -1

    @contextmanager
    def span(self, name: str):
        record = {"name": name, "start": time.perf_counter(), "end": None,
                  "parent": self._stack[-1] if self._stack else None,
                  "op": self.op_id, "error": None, "counters": {}}
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield record
        except BaseException as exc:
            record["error"] = type(exc).__name__
            raise
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn):
        if name == "maxscore.surrogate_init":
            def traced(counts, opts=None, trace=None):
                steps = [] if trace is None else trace
                with self.span(name) as record:
                    result = fn(counts, opts, steps)
                    record["counters"] = _surrogate_counters(steps, opts or MasterOptions())
                return result
        else:
            def traced(*args, **kwargs):
                with self.span(name) as record:
                    result = fn(*args, **kwargs)
                    record["counters"] = _counters(name, result)
                return result
        return traced

    @contextmanager
    def installed(self):
        """Replace every TRACED function with its wrapper, restoring on exit."""
        saved = []
        try:
            for module, names in TRACED.items():
                for name in names:
                    original = getattr(module, name)
                    saved.append((module, name, original))
                    setattr(module, name, self.wrap(_layer(module, name), original))
            yield
        finally:
            for module, name, original in saved:
                setattr(module, name, original)

    @contextmanager
    def op(self, op_id: int):
        self.op_id = op_id
        with self.installed(), self.span("op"):
            yield


def _surrogate_counters(steps: list, opts: MasterOptions) -> dict:
    useful = sum(b - a > USEFUL_GAIN * abs(a) for a, b in zip(steps, steps[1:]))
    return {"steps": len(steps), "budget_hit": len(steps) == opts.surrogate_iters,
            "useful": useful, "compared": max(len(steps) - 1, 0)}


def _counters(name: str, result) -> dict:
    if name == "maxscore.ktuple_search":
        return {"moves": result.sweeps, "gain": result.objective - result.init_objective}
    if name == "baselines.usvt_rank":
        return {"flat": bool(np.all(result[0].probs == 0.5))}
    return {}


def layer_metrics(spans: list[dict]) -> dict[str, tuple[float, str]]:
    """Per-layer self time, calls and share of op time, plus solver counters."""
    duration = [s["end"] - s["start"] for s in spans]
    children = [0.0] * len(spans)
    for s, d in zip(spans, duration):
        if s["parent"] is not None:
            children[s["parent"]] += d
    ops = sum(s["name"] == "op" for s in spans)
    op_time = sum(d for s, d in zip(spans, duration) if s["name"] == "op")
    by_name: dict[str, list[tuple[dict, float]]] = {}
    for s, d, c in zip(spans, duration, children):
        by_name.setdefault(s["name"], []).append((s, d - c))

    out: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        calls = by_name.get(layer, [])
        busy = sum(self_time for _, self_time in calls)
        out[f"{layer}.s"] = (busy / ops, "s")
        out[f"{layer}.calls"] = (len(calls) / ops, "calls/op")
        out[f"{layer}.share"] = (busy / op_time, "frac")

    def ok(layer):
        return [s["counters"] for s, _ in by_name.get(layer, []) if s["error"] is None]

    def mean(values):
        return float(np.mean(values)) if values else 0.0

    def failed(layer):
        return sum(s["error"] is not None for s, _ in by_name.get(layer, [])) / ops

    sur = ok("maxscore.surrogate_init")
    compared = sum(c["compared"] for c in sur)
    out["maxscore.surrogate_init.steps"] = (mean([c["steps"] for c in sur]), "steps/call")
    out["maxscore.surrogate_init.budget_hit_frac"] = (mean([c["budget_hit"] for c in sur]), "frac")
    out["maxscore.surrogate_init.useful_step_frac"] = (
        sum(c["useful"] for c in sur) / compared if compared else 0.0, "frac")
    kt = ok("maxscore.ktuple_search")
    out["maxscore.ktuple_search.moves"] = (mean([c["moves"] for c in kt]), "moves/call")
    out["maxscore.ktuple_search.gain"] = (mean([c["gain"] for c in kt]), "L/call")
    out["baselines.bt_fit.failed"] = (failed("baselines.bt_fit"), "calls/op")
    usvt = ok("baselines.usvt_rank")
    out["baselines.usvt_rank.flat_frac"] = (mean([c["flat"] for c in usvt]), "frac")
    out["baselines.usvt_rank.failed"] = (failed("baselines.usvt_rank"), "calls/op")
    root = sum(d - c for s, d, c in zip(spans, duration, children) if s["name"] == "op")
    out["unattributed.share"] = (root / op_time, "frac")
    return out


# ---------------------------------------------------------------- running


def _median(values) -> float:
    return float(statistics.median(values))


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) for the highest percentile with
    TAIL_BEYOND samples above it.

    With fewer than 2 * TAIL_BEYOND + 1 samples that percentile would fall
    below the median, and with TAIL_BEYOND or fewer it does not exist; the
    median is reported then, so the metric never swaps between the minimum
    and the maximum as the op count crosses TAIL_BEYOND.
    """
    ordered = sorted(samples)
    m = len(ordered)
    if m < 2 * TAIL_BEYOND + 1:
        median = _median(ordered)
        return median, 50.0, sum(x > median for x in ordered)
    return ordered[m - TAIL_BEYOND - 1], 100.0 * (m - TAIL_BEYOND) / m, TAIL_BEYOND


def _played(counts: ComparisonCounts) -> tuple[int, int]:
    upper = counts.pair_counts[np.triu_indices(counts.n, 1)]
    return int((upper > 0).sum()), int(upper.sum())


def run_workload(spec, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    """Set up, run the timed closed loop, check every output, and summarise.

    Returns a dict with ``metrics`` (name -> (value, unit)), ``checks``,
    ``attempted``/``failed`` op counts, ``context`` and, when tracing, ``spans``.
    """
    checks = Checks()
    study = isinstance(spec, Study)
    config = replace(spec.config, seed=seed) if study else None
    k = spec.master.k
    workdir.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="run-", dir=workdir) as tmp:
        path = Path(tmp) / "matches.csv"
        quality: dict[int, tuple] = {}  # replicate -> (taus, certify margin, objective)

        # A set-up makes the inputs and runs one untimed warm-up op on them. The
        # first comes before the timed loop. More are spread through the loop,
        # keeping set-up time at SETUP_SHARE of op time, up to MAX_SETUPS, and
        # made after it until there are MIN_SETUPS. setup_s is their median, so
        # it sees the host's speed over the whole run, not over its first seconds.
        setups: list[float] = []
        warm = None
        replicates = itertools.count()  # study replicates, shared by set-ups and ops

        def set_up() -> None:
            nonlocal warm
            warm = None  # so peak memory never holds two results
            start = time.perf_counter()
            if study:
                replicate = next(replicates)
                warm = study_op(spec, config, replicate)
            else:
                write_matches(path, spec.players, spec.density, seed)
                warm = file_op(spec, path)
            setups.append(time.perf_counter() - start)
            checks.op(warm, k, f"set-up {len(setups)}")
            if study and replicate < spec.quality_reps:
                quality[replicate] = _quality_row(warm)

        # Closed loop: ops back to back until `seconds` of op time is spent.
        # In the traced run, even ops are traced and odd ops are not.
        tracer = Tracer()
        plain: list[float] = []
        traced: list[float] = []
        failed_ops = ranker_calls = ranker_failures = 0
        played = []
        i = 0
        set_up()
        while (spent := sum(plain) + sum(traced)) < seconds or not plain or (trace and not traced):
            if len(setups) < MAX_SETUPS and sum(setups) < SETUP_SHARE * spent:
                set_up()
            replicate = next(replicates) if study else None
            with_trace = trace and i % 2 == 0
            start = time.perf_counter()
            with tracer.op(i) if with_trace else nullcontext():
                result = study_op(spec, config, replicate) if study else file_op(spec, path)
            (traced if with_trace else plain).append(time.perf_counter() - start)
            checks.op(result, k, f"op {i}")
            if study and replicate < spec.quality_reps:
                quality[replicate] = _quality_row(result)
            elif not study:
                checks.same(result, warm, f"op {i}")
            failed_ops += result.failed > 0
            ranker_calls += len(result.rankings)
            ranker_failures += result.failed
            played.append(_played(result.counts))
            del result
            i += 1
        while len(setups) < MIN_SETUPS:
            set_up()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        # Quality set, untimed: study replicates the set-ups and the loop did not
        # reach, or the quality files ranked by every method.
        file_rows: list[dict] = []  # file workloads: each quality file's metrics
        file_context: dict = {}
        if not trace:
            if study:
                for replicate in range(spec.quality_reps):
                    if replicate not in quality:
                        result = study_op(spec, config, replicate)
                        checks.op(result, k, f"quality replicate {replicate}")
                        quality[replicate] = _quality_row(result)
                        del result
            else:
                start = time.perf_counter()
                quality_spec = replace(spec, players=spec.quality_players, methods=METHODS)
                ranked = []
                for j in range(spec.quality_files):
                    file_seed = seed * spec.quality_files + j
                    quality_path = Path(tmp) / f"quality-{j}.csv"
                    write_matches(quality_path, quality_spec.players, spec.density, file_seed)
                    result = file_op(quality_spec, quality_path)
                    checks.op(result, k, f"quality file {j}")
                    file_rows.append(file_quality(quality_spec, file_seed, result, checks))
                    ranked.append(result.counts.n)
                    del result
                file_context = {"files": spec.quality_files, "players": quality_spec.players,
                                "ranked": ranked, "seconds": time.perf_counter() - start}

    ops = len(plain) + len(traced)
    context = {
        "workload_seed": seed,
        "seconds": seconds,
        "trace": trace,
        "setups": len(setups),
        "ops": ops,
        "closed_loop_callers": 1,
        "input": {
            "players": config.n if study else spec.players,
            "ranked": config.n if study else warm.counts.n,
            "pairs_played_mean": float(np.mean([p for p, _ in played])),
            "games_mean": float(np.mean([g for _, g in played])),
        },
        **run_context(),
    }
    if file_context:
        context["quality_files"] = file_context
    out = {"checks": checks, "attempted": ops, "failed": failed_ops, "context": context}
    if trace:
        layers = layer_metrics(tracer.spans)
        layers["trace.overhead_s"] = (_median(traced) - _median(plain), "s")
        context["traced_ops"] = len(traced)
        out["metrics"] = layers
        out["spans"] = tracer.spans
        return out

    value, percentile, beyond = tail(plain)
    context["op_tail"] = {"percentile": percentile, "samples_beyond": beyond, "samples": len(plain)}
    m = {
        "setup_s": (_median(setups), "s"),
        "op_p50_s": (_median(plain), "s"),
        "op_tail_s": (value, "s"),
        "ops_per_s": (len(plain) / sum(plain), "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "ok_frac": ((ranker_calls - ranker_failures) / ranker_calls, "frac"),
    }
    if study:
        m.update(study_quality(spec, config, quality, checks))
    else:
        m.update({name: (float(np.mean([row[name][0] for row in file_rows])), unit)
                  for name, (_, unit) in file_rows[0].items()})
    if checks.margins:
        margins = checks.margins
        context["cert_margins"] = {"min": min(margins), "median": _median(margins),
                                   "max": max(margins), "count": len(margins)}
    out["metrics"] = m
    return out


def _quality_row(result: OpResult) -> tuple:
    objective = result.master.objective if result.master is not None else None
    return result.taus, result.margin, objective


def study_quality(spec: Study, config: SimConfig, quality: dict[int, tuple],
                  checks: Checks) -> dict:
    """run_study's per-method means over the quality replicates, computed the same way."""
    out = {}
    rows = [quality[r] for r in range(spec.quality_reps)]
    for method in METHODS:
        taus = [row_taus[method] for row_taus, _, _ in rows if method in row_taus]
        checks.expect(bool(taus), f"{method} failed on every quality replicate")
        pairs = np.array([metrics.error_rate(int(t), config.n, "pairs") for t in taus])
        out[f"{method}_err_pairs"] = (float(pairs.mean()) if taus else float("nan"), "frac")
    certs = [margin >= 0 for _, margin, _ in rows if margin is not None]
    cert_rate = float(np.mean([1.0 if c else 0.0 for c in certs])) if certs else float("nan")
    out["master_cert_rate"] = (cert_rate, "frac")
    objectives = [objective for _, _, objective in rows if objective is not None]
    out["master_objective"] = (float(np.mean(objectives)) if objectives else float("nan"), "L")
    return out


def file_quality(spec: MatchFile, seed: int, result: OpResult, checks: Checks) -> dict:
    """Errors and certificate of a fully ranked file against its latent-score order."""
    counts = result.counts
    truth = latent_truth(spec, seed, counts.labels)
    out = {}
    for method in METHODS:
        ranking = result.rankings[method]
        checks.expect(ranking is not None, f"{method} failed on the match file")
        tau = metrics.kendall_tau(ranking, truth) if ranking else None
        err = metrics.error_rate(tau, counts.n, "pairs") if ranking else float("nan")
        out[f"{method}_err_pairs"] = (err, "frac")
    checks.expect(out["counting_err_pairs"][0] < 0.25,
                  "latent truth is out of step with synthetic_matches")
    ok, margin = maxscore.certify(result.master.ranking, truth, counts)
    checks.margins.append(margin)
    out["master_cert_rate"] = (1.0 if ok else 0.0, "frac")
    out["master_objective"] = (float(result.master.objective), "L")
    return out


def blas_threads() -> int | None:
    """Threads the OpenBLAS bundled with numpy will use, if it can be asked."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            try:
                getter = getattr(ctypes.CDLL(lib), symbol)
            except (OSError, AttributeError):
                continue
            getter.restype = ctypes.c_int
            getter.argtypes = []
            return int(getter())
    return None


def run_context() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "wstrank": wstrank.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "blas_threads": blas_threads(),
    }


def declared_metrics(kind: str) -> list[str]:
    return [m["name"] for m in json.loads(BENCHMARK_JSON.read_text())[kind]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one wstrank benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be non-negative and --seconds positive")
    package = Path(wstrank.__file__).resolve().parent
    if package != ROOT / "src" / "wstrank":
        print(f"wstrank imported from {package}, not from this checkout", file=sys.stderr)
        return 2

    trace = bool(args.trace)
    run = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, trace, WORK_DIR)
    checks: Checks = run["checks"]
    expected = declared_metrics("per_layer" if trace else "end_to_end")
    checks.expect(sorted(run["metrics"]) == sorted(expected), "metrics differ from BENCHMARK.json")
    if trace:
        out = TRACE_DIR / f"{args.workload}-seed{args.seed}.jsonl"
        out.parent.mkdir(parents=True, exist_ok=True)
        with open(out, "w") as fh:
            for span in run["spans"]:
                fh.write(json.dumps(span) + "\n")
        run["context"]["spans_file"] = str(out)
        run["context"]["spans"] = len(run["spans"])

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{run['attempted']} ops, {run['failed']} with a ranker failure")
    for name in expected:
        value, unit = run["metrics"].get(name, (float("nan"), "?"))
        print(f"  {name:<44} {value:>16.6g} {unit}")
    for failure in checks.failures:
        print(f"CHECK FAILED: {failure}")
    print(json.dumps({"context": run["context"]}))
    print(json.dumps({
        "correct": not checks.failures,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in run["metrics"].items()},
    }))
    return 0 if not checks.failures else 1
