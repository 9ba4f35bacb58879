"""Pairwise-comparison data model: counts, rankings, probabilities, ingestion.

All types are immutable after construction (backing arrays are marked
read-only), so every operation here is a pure function.
"""

from __future__ import annotations

import csv
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, count, repeat
from operator import eq
from typing import Iterable, NamedTuple, NoReturn

import numpy as np

from .errors import DataError

FILTER_POLICIES = ("no-wins", "bt-connected")


class MatchRecord(NamedTuple):
    """One game: ``winner`` beat ``loser``. Ties have no representation.

    A plain tuple underneath, so it equals ``(winner, loser)``.
    """

    winner: str
    loser: str


class MatchRecords(Sequence[MatchRecord]):
    """A read-only sequence of :class:`MatchRecord` kept as one flat tuple of names.

    ``names`` is ``(w1, l1, w2, l2, ...)``; record ``i`` is built from
    ``names[2*i]`` and ``names[2*i + 1]`` only when it is indexed or
    iterated. Length, indexing (negative indices and slices, which give a
    list) and iteration behave as on a list of records, and the sequence
    equals a ``list`` of the same records. CPython's cyclic garbage
    collector tracks every tuple subclass instance, ``MatchRecord``
    included, but no string: a list of records holds one tracked object
    per game, this sequence holds two in all.
    """

    __slots__ = ("names",)

    def __init__(self, names: Iterable[str]) -> None:
        names = tuple(names)
        if len(names) % 2:
            raise ValueError("names must hold a winner and a loser per record")
        self.names = names

    def __len__(self) -> int:
        return len(self.names) // 2

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(len(self))[index]]
        i = 2 * range(len(self))[index]
        return MatchRecord(self.names[i], self.names[i + 1])

    def __iter__(self):
        names = iter(self.names)
        # tuple.__new__ is MatchRecord._make without its per-call Python frame
        return map(tuple.__new__, repeat(MatchRecord), zip(names, names))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, MatchRecords):
            return self.names == other.names
        if isinstance(other, list):
            return len(self) == len(other) and all(map(eq, self, other))
        return NotImplemented

    def __repr__(self) -> str:
        return f"{type(self).__name__}({list(self)!r})"


@dataclass(frozen=True, eq=False)
class Ranking:
    """A strict ranking of n players.

    ``ranks[i]`` is the rank of player ``i``, a permutation of 1..n with
    higher values meaning better players.
    """

    ranks: np.ndarray

    def __post_init__(self) -> None:
        r = np.array(self.ranks, dtype=np.int64)
        if r.ndim != 1 or r.size == 0:
            raise ValueError("ranks must be a non-empty 1-d sequence")
        if not np.array_equal(np.sort(r), np.arange(1, r.size + 1)):
            raise ValueError("ranks must be a permutation of 1..n")
        r.setflags(write=False)
        object.__setattr__(self, "ranks", r)

    @property
    def n(self) -> int:
        return int(self.ranks.size)

    @classmethod
    def identity(cls, n: int) -> "Ranking":
        return cls(np.arange(1, n + 1))

    @classmethod
    def from_scores(cls, scores) -> "Ranking":
        """Rank by increasing score; ties give the lower player index the lower rank."""
        s = np.asarray(scores, dtype=float)
        order = np.argsort(s, kind="stable")
        ranks = np.empty(s.size, dtype=np.int64)
        ranks[order] = np.arange(1, s.size + 1)
        return cls(ranks)

    def order(self) -> np.ndarray:
        """Player indices from worst to best."""
        return np.argsort(self.ranks, kind="stable")

    def best_first(self) -> np.ndarray:
        """Player indices from best to worst."""
        return self.order()[::-1]

    def reverse(self) -> "Ranking":
        return Ranking(self.n + 1 - self.ranks)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Ranking):
            return NotImplemented
        return np.array_equal(self.ranks, other.ranks)


@dataclass(frozen=True, eq=False)
class ComparisonCounts:
    """Directed win counts: ``win_counts[i, j]`` is how many games ``i`` won against ``j``.

    The game counts ``pair_counts = win_counts + win_counts.T`` follow from
    them. ``labels`` is keyword-only, so a positional second matrix is an
    error rather than a silent set of labels.
    """

    win_counts: np.ndarray
    labels: tuple[str, ...] | None = field(default=None, kw_only=True)

    def __post_init__(self) -> None:
        win = np.array(self.win_counts, dtype=np.int64)
        if win.ndim != 2 or win.shape[0] != win.shape[1] or win.shape[0] == 0:
            raise ValueError("win_counts must be a non-empty square matrix")
        if (win < 0).any():
            raise ValueError("counts must be non-negative")
        if np.diagonal(win).any():
            raise ValueError("diagonal entries must be zero")
        labels = self.labels
        if labels is not None:
            labels = tuple(str(x) for x in labels)
            if len(labels) != win.shape[0]:
                raise ValueError("labels length must equal the number of players")
        win.setflags(write=False)
        object.__setattr__(self, "win_counts", win)
        object.__setattr__(self, "labels", labels)

    @property
    def n(self) -> int:
        return int(self.win_counts.shape[0])

    def label(self, i: int) -> str:
        return self.labels[i] if self.labels is not None else str(i)

    @cached_property
    def pair_counts(self) -> np.ndarray:
        """Games played per pair, ``win_counts + win_counts.T``, read-only and built once."""
        pair = self.win_counts + self.win_counts.T
        pair.setflags(write=False)
        return pair

    @cached_property
    def played(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The pairs that have played, as read-only arrays ``(lo, hi, games, z)``.

        ``lo < hi`` index the pairs with ``games = pair[lo, hi] > 0``, in
        row-major (``np.nonzero``) order, and ``z = win[lo, hi] - win[hi, lo]``
        is the net wins of ``lo``, zero for a drawn pair. The wins of ``lo``
        are ``(games + z) // 2``. The arrays are int64 and C-contiguous.
        Built once per object.
        """
        flat = np.flatnonzero(np.triu(self.pair_counts > 0, 1))
        lo, hi = np.divmod(flat, self.n)
        games = self.pair_counts.ravel()[flat]
        pairs = (lo, hi, games, 2 * self.win_counts.ravel()[flat] - games)
        for a in pairs:
            a.setflags(write=False)
        return pairs

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ComparisonCounts):
            return NotImplemented
        return np.array_equal(self.win_counts, other.win_counts) and self.labels == other.labels


@dataclass(frozen=True, eq=False)
class ProbabilityMatrix:
    """Pairwise winning probabilities with ``probs[i, j] + probs[j, i] == 1``.

    The diagonal is fixed at 0.5 by convention.
    """

    probs: np.ndarray

    def __post_init__(self) -> None:
        p = np.array(self.probs, dtype=float)
        if p.ndim != 2 or p.shape[0] != p.shape[1] or p.shape[0] == 0:
            raise ValueError("probs must be a non-empty square matrix")
        if (p < 0).any() or (p > 1).any():
            raise ValueError("probabilities must lie in [0, 1]")
        if np.abs(p + p.T - 1.0).max() > 1e-12:
            raise ValueError("probs[i,j] + probs[j,i] must equal 1")
        if np.abs(np.diagonal(p) - 0.5).max() > 1e-12:
            raise ValueError("diagonal must be 0.5")
        p.setflags(write=False)
        object.__setattr__(self, "probs", p)

    @property
    def n(self) -> int:
        return int(self.probs.shape[0])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ProbabilityMatrix):
            return NotImplemented
        return np.array_equal(self.probs, other.probs)


def load_matches(records: Iterable[MatchRecord]) -> ComparisonCounts:
    """Aggregate match records into comparison counts.

    Distinct identifiers become indices 0..n-1 in order of first appearance,
    retained as ``labels``. Records are validated here (not at construction)
    so a malformed record can be reported with its position in the sequence.
    Validation is vectorised over all records, and the earliest bad record
    is reported: an empty identifier before a winner equal to the loser.
    A :class:`MatchRecords` from :func:`read_match_csv` is coded straight
    from its flat ``names``, so no record object is built; any other
    iterable of records is flattened first.
    """
    if isinstance(records, MatchRecords):
        names = records.names
    else:
        names = list(chain.from_iterable(records))  # w1, l1, w2, l2, ...
    if not names:
        raise DataError("no match records given")
    index = {name: i for i, name in enumerate(dict.fromkeys(names))}
    codes = np.fromiter(map(index.__getitem__, names), np.int64, len(names)).reshape(-1, 2)
    winners, losers = codes.T
    bad = winners == losers
    blank = index.get("")  # the only identifier that can be empty
    if blank is not None:
        bad |= (codes == blank).any(axis=1)
    if bad.any():
        row = int(bad.argmax())
        if "" in names[2 * row : 2 * row + 2]:
            raise DataError(f"record {row + 1}: empty player identifier")
        raise DataError(f"record {row + 1}: winner equals loser ({names[2 * row]!r})")
    n = len(index)
    win = np.bincount(winners * n + losers, minlength=n * n).reshape(n, n)
    return ComparisonCounts(win, labels=tuple(index))


def _reach(adj: np.ndarray, start: int) -> np.ndarray:
    """Mask of the players reachable from ``start`` along ``adj``, by frontier search."""
    seen = np.zeros(adj.shape[0], dtype=bool)
    seen[start] = True
    frontier = seen.copy()
    while frontier.any():
        frontier = adj[frontier].any(axis=0) & ~seen
        seen |= frontier
    return seen


def strong_component(counts: ComparisonCounts, player: int) -> np.ndarray:
    """Mask of the strongly connected component of the win digraph holding ``player``.

    The edge i -> j means i beat j. The component is the players that
    ``player`` reaches forward and that reach it backward: two frontier
    searches (Fleischer, Hendrickson and Pinar 2000), O(n^2) on the dense
    adjacency.
    """
    adj = counts.win_counts > 0
    return _reach(adj, player) & _reach(adj.T, player)


def largest_strong_component(counts: ComparisonCounts) -> np.ndarray:
    """Mask of the largest strongly connected component of the win digraph.

    First the component of the player with the most opponents is searched
    (:func:`strong_component`); if it holds more than half the players it
    is the unique largest one. Only otherwise, as on a graph split into
    small components, does this fall back to the full transitive closure by
    float32 matrix products (exact up to 2**24 players), taking among
    components of equal size the one holding the smallest index.
    """
    n = counts.n
    component = strong_component(counts, int(np.count_nonzero(counts.pair_counts, axis=1).argmax()))
    if 2 * np.count_nonzero(component) > n:
        return component
    reach = (counts.win_counts > 0) | np.eye(n, dtype=bool)
    while True:
        paths = reach.astype(np.float32)
        grown = (paths @ paths) > 0
        if np.array_equal(grown, reach):
            break
        reach = grown
    same = reach & reach.T
    # argmax takes the first row of largest size: among equal-size
    # components, the one holding the smallest index
    return same[same.sum(axis=1).argmax()]


def filter_players(
    counts: ComparisonCounts, policy: str = "no-wins"
) -> tuple[ComparisonCounts, tuple[int, ...]]:
    """Drop players according to ``policy`` and return (reduced counts, index map).

    ``"no-wins"`` removes, in a single pass, every player without a single
    win. ``"bt-connected"`` keeps only the largest strongly connected
    component of the win digraph, which is the precondition for a
    well-posed Bradley-Terry likelihood; see
    :func:`largest_strong_component` for how it is found and for the
    tie-break between components of equal size.
    The index map sends new indices to original ones.
    """
    if policy not in FILTER_POLICIES:
        raise ValueError(f"unknown filter policy {policy!r}; expected one of {FILTER_POLICIES}")
    if policy == "no-wins":
        keep = np.flatnonzero(counts.win_counts.sum(axis=1) > 0)
    else:
        keep = np.flatnonzero(largest_strong_component(counts))
        if keep.size < 2:
            raise DataError("no strongly connected component with at least 2 players")
    if keep.size == 0:
        raise DataError(f"filter {policy!r} removed every player")
    labels = None
    if counts.labels is not None:
        labels = tuple(counts.labels[i] for i in keep)
    reduced = ComparisonCounts(counts.win_counts[np.ix_(keep, keep)], labels=labels)
    return reduced, tuple(int(i) for i in keep)


@dataclass(frozen=True)
class WstReport:
    """Outcome of a transitivity check.

    ``violations`` holds ordered triples (i, j, k) with p_ij >= 0.5 and
    p_jk >= 0.5 but p_ik < 0.5. ``ties`` holds pairs i < j whose
    probability is exactly 0.5, for which the implied ranking is not unique.
    """

    violations: tuple[tuple[int, int, int], ...]
    ties: tuple[tuple[int, int], ...]

    @property
    def ok(self) -> bool:
        return not self.violations and not self.ties


def check_wst(P: ProbabilityMatrix) -> WstReport:
    """Brute-force weak-stochastic-transitivity check over all ordered triples."""
    p = P.probs
    n = P.n
    at_least_even = p >= 0.5
    below = p < 0.5
    violations: list[tuple[int, int, int]] = []
    for j in range(n):
        premise = np.outer(at_least_even[:, j], at_least_even[j, :])
        hit = premise & below
        hit[j, :] = False
        hit[:, j] = False
        np.fill_diagonal(hit, False)
        for i, k in zip(*np.nonzero(hit)):
            violations.append((int(i), int(j), int(k)))
    iu, ju = np.triu_indices(n, 1)
    even = p[iu, ju] == 0.5
    ties = tuple((int(a), int(b)) for a, b in zip(iu[even], ju[even]))
    return WstReport(tuple(sorted(violations)), ties)


def skew_statistic(counts: ComparisonCounts) -> np.ndarray:
    """Standardized skew-symmetric outcome matrix.

    ``x[i, j] = 2*win[i, j]/pair[i, j] - 1`` for played pairs and 0 for
    unplayed ones. Only the pairs of ``counts.played`` with a net winner are
    written: a played pair without one gives exactly 0, and writing it would
    put -0.0 below the diagonal. Each lower entry is the negated upper one,
    so ``x + x.T`` is exactly zero.
    """
    lo, hi, games, z = counts.played
    net = z != 0
    lo, hi, g = lo[net], hi[net], games[net]
    w = (g + z[net]) // 2
    x = np.zeros((counts.n, counts.n))
    x[lo, hi] = 2.0 * w / g - 1.0
    x[hi, lo] = -x[lo, hi]
    return x


def read_match_csv(path) -> MatchRecords:
    """Read a ``winner,loser`` match file (UTF-8, one game per row).

    A leading UTF-8 byte-order mark, as some spreadsheet exports write, is
    skipped, and so are blank lines. Identifiers are not checked here; see
    :func:`load_matches`. The csv reader's rows are streamed, with no
    Python code per row, into one flat list of names, which the returned
    :class:`MatchRecords` wraps: no object is built or kept per game, so a
    large file gives the garbage collector nothing to scan, and each row's
    list is freed once its names are copied. The same pass checks every
    field count: after the k-th row the list must hold 2k names. Only if a
    row fails that, or reading raises, is the file read again row by row,
    so that the error names the first problem the row-by-row read meets: a
    bad row by the physical line it ends on (which differs from the row
    count once a quoted field spans lines), or, once the decoder reaches
    it, the line and file offset of the first byte that is not valid UTF-8.
    """
    names: list[str] = []
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            _check_header(path, next(reader, None))
            # names.__iadd__ extends the list and returns it
            rows_ok = all(map(eq, map(len, map(names.__iadd__, filter(None, reader))), count(2, 2)))
        except (csv.Error, UnicodeDecodeError):
            rows_ok = False
    if not rows_ok:
        _raise_first_row_error(path)
    return MatchRecords(names)


def _check_header(path, header: list[str] | None) -> None:
    if header is None:
        raise DataError(f"{path}: empty match file")
    if [h.strip() for h in header] != ["winner", "loser"]:
        raise DataError(f"{path}: expected header 'winner,loser', got {header!r}")


def _raise_first_row_error(path) -> NoReturn:
    """Read ``path`` one row at a time and raise the DataError for its first bad row.

    Called only once :func:`read_match_csv` has met a problem, so a file
    that reads cleanly here is an internal error.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            _check_header(path, next(reader, None))
            for row in reader:
                if row and len(row) != 2:
                    raise DataError(f"{path}:{reader.line_num}: expected 2 fields, got {len(row)}")
        except csv.Error as exc:  # e.g. a field longer than csv.field_size_limit()
            raise DataError(f"{path}:{reader.line_num}: {exc}") from None
        except UnicodeDecodeError:
            raise _utf8_error(path) from None
    raise AssertionError(f"{path}: the row-by-row re-read found no bad row")


def _utf8_error(path) -> DataError:
    """A DataError naming the first byte of ``path`` that is not valid UTF-8.

    The decoder's own offset counts from the start of its current chunk, so
    the file's bytes are read again to find the offset in the file.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # lines before the bad byte, plus its own: the appended byte keeps a
        # line break just before it from going uncounted
        line = len((data[: exc.start] + b".").splitlines())
        return DataError(
            f"{path}:{line}: not valid UTF-8: byte 0x{data[exc.start]:02x} "
            f"at file offset {exc.start} ({exc.reason})"
        )
    return DataError(f"{path}: not valid UTF-8")


def write_match_csv(path, records: Iterable[MatchRecord]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["winner", "loser"])
        writer.writerows(records)
