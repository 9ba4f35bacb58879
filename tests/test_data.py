import builtins
import csv
import gc
import io
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import wstrank
from wstrank import (
    ComparisonCounts,
    ConvergenceError,
    DataError,
    MatchRecord,
    MatchRecords,
    NotConnectedError,
    ProbabilityMatrix,
    Ranking,
    SimConfig,
    bt_fit,
    check_wst,
    filter_players,
    gen_counts,
    gen_probabilities,
    load_matches,
    read_match_csv,
    skew_statistic,
    synthetic_matches,
    write_match_csv,
)
from wstrank.data import largest_strong_component, strong_components
from wstrank.simulation import replicate_rng

from oracles import (
    _reachable,
    brute_wst_violations,
    counts_error,
    dense_skew_statistic,
    is_strongly_connected,
    loop_load_matches,
    loop_read_match_csv,
)
from oracles import largest_strong_component as oracle_largest_component


def records(*pairs):
    return [MatchRecord(w, l) for w, l in pairs]


def test_every_export_resolves():
    assert [name for name in wstrank.__all__ if not hasattr(wstrank, name)] == []


@st.composite
def game_counts(draw):
    """Counts on 1 to 10 players whose pairs are unplayed, balanced (net wins 0) or random."""
    n = draw(st.integers(min_value=1, max_value=10))
    win = np.zeros((n, n), dtype=int)
    for i in range(n):
        for j in range(i + 1, n):
            kind = draw(st.sampled_from(["unplayed", "balanced", "random"]))
            if kind == "balanced":
                win[i, j] = win[j, i] = draw(st.integers(min_value=1, max_value=3))
            elif kind == "random":
                games = draw(st.integers(min_value=1, max_value=9))
                win[i, j] = draw(st.integers(min_value=0, max_value=games))
                win[j, i] = games - win[i, j]
    return ComparisonCounts(win)


@st.composite
def win_digraphs(draw):
    """Random win matrices; edge i -> j iff i beat j at least once."""
    n = draw(st.integers(min_value=2, max_value=9))
    edges = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3 * n))
    win = np.zeros((n, n), dtype=int)
    for a, b in edges:
        if a != b:
            win[a, b] += 1
    return win


@st.composite
def twin_cycles(draw):
    """Two disjoint directed cycles of equal size on shuffled indices.

    An optional one-way edge joins them without merging them, and the
    remaining players only lose, so the two cycles tie for largest.
    """
    size = draw(st.integers(min_value=2, max_value=4))
    n = 2 * size + draw(st.integers(min_value=0, max_value=2))
    perm = draw(st.permutations(range(n)))
    win = np.zeros((n, n), dtype=int)
    for cycle in (perm[:size], perm[size : 2 * size]):
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            win[a, b] = 1
    if draw(st.booleans()):
        win[perm[0], perm[size]] = 1
    for loser in perm[2 * size :]:
        win[perm[0], loser] = 1
    return win


@st.composite
def match_records(draw):
    """Valid games among a few players, with 0-3 bad records at random positions.

    A bad record has an empty winner, an empty loser, a winner equal to the
    loser, or both identifiers empty (empty and a self-game at once).
    """
    players = ["A", "B", "C", "D", "É"]
    games = draw(
        st.lists(
            st.tuples(st.sampled_from(players), st.sampled_from(players)).filter(
                lambda t: t[0] != t[1]
            ),
            max_size=40,
        )
    )
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        name = draw(st.sampled_from(players))
        bad = draw(st.sampled_from([("", name), (name, ""), (name, name), ("", "")]))
        games.insert(draw(st.integers(min_value=0, max_value=len(games))), bad)
    return [MatchRecord(w, l) for w, l in games]


def load_outcome(load, recs):
    """(pair_counts, win_counts, labels) of ``load(recs)``, or its DataError message."""
    try:
        counts = load(recs)
    except DataError as exc:
        return str(exc)
    return counts.pair_counts.tolist(), counts.win_counts.tolist(), counts.labels


class TestLoadMatches:
    def test_single_pair_counts(self):
        counts = load_matches(records(("A", "B"), ("B", "A"), ("A", "B")))
        assert counts.n == 2
        assert counts.labels == ("A", "B")
        assert counts.pair_counts[0, 1] == 3
        assert counts.win_counts[0, 1] == 2
        assert counts.win_counts[1, 0] == 1

    def test_empty_input(self):
        with pytest.raises(DataError, match="no match records"):
            load_matches([])

    def test_self_match_names_the_row(self):
        bad = records(("A", "B"), ("C", "C"))
        with pytest.raises(DataError, match="record 2"):
            load_matches(bad)

    def test_empty_identifier_rejected(self):
        with pytest.raises(DataError, match="record 1"):
            load_matches(records(("", "B")))

    @given(match_records())
    @example(records(("A", "B"), ("C", "C"), ("", "D")))  # self-game first
    @example(records(("A", "B"), ("D", ""), ("C", "C")))  # empty identifier first
    @example(records(("A", "B"), ("", "")))  # both at once: empty identifier
    @settings(max_examples=300, deadline=None)
    def test_matches_loop_oracle(self, recs):
        assert load_outcome(load_matches, recs) == load_outcome(loop_load_matches, recs)

    def test_first_appearance_indexing(self):
        counts = load_matches(records(("Z", "A"), ("A", "M")))
        assert counts.labels == ("Z", "A", "M")

    def test_multiset_round_trip(self):
        rng = np.random.default_rng(17)
        players = [f"p{i}" for i in range(20)]
        recs = []
        for _ in range(1000):
            w, l = rng.choice(20, size=2, replace=False)
            recs.append(MatchRecord(players[w], players[l]))
        counts = load_matches(recs)
        regenerated: Counter = Counter()
        for i in range(counts.n):
            for j in range(counts.n):
                if counts.win_counts[i, j]:
                    regenerated[(counts.labels[i], counts.labels[j])] += int(counts.win_counts[i, j])
        assert regenerated == Counter((r.winner, r.loser) for r in recs)

    @given(
        st.lists(
            st.tuples(st.sampled_from("ABCDEFGH"), st.sampled_from("ABCDEFGH")).filter(
                lambda t: t[0] != t[1]
            ),
            min_size=1,
            max_size=60,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_invariants_hold(self, pairs):
        counts = load_matches(records(*pairs))
        pair, win = counts.pair_counts, counts.win_counts
        assert np.array_equal(pair, pair.T)
        assert np.array_equal(win + win.T, pair)
        assert not np.diagonal(pair).any()
        assert (win >= 0).all()
        assert pair.sum() == 2 * len(pairs)


@st.composite
def broken_counts(draw):
    """Win counts and labels on 2-5 players with one or more invariants then broken.

    Each break is a negative entry or a non-zero diagonal entry at a random
    cell, a non-square shape, or labels of the wrong length.
    """
    n = draw(st.integers(min_value=2, max_value=5))
    cells = st.lists(st.integers(0, 3), min_size=n * n, max_size=n * n)
    win = np.array(draw(cells)).reshape(n, n)
    np.fill_diagonal(win, 0)
    labels = draw(st.sampled_from([None, tuple("ABCDE"[:n])]))
    kinds = st.sampled_from(["negative", "diagonal", "non-square", "labels"])
    kinds = draw(st.sets(kinds, min_size=1))
    i, j = draw(st.permutations(range(n)))[:2]
    step = draw(st.integers(min_value=1, max_value=3))
    if "negative" in kinds:
        win[draw(st.sampled_from([(i, j), (i, i)]))] = -step
    if "diagonal" in kinds:
        win[j, j] = step
    if "non-square" in kinds:
        win = draw(st.sampled_from([win[:, 1:], win[1:], win.ravel()]))
    if "labels" in kinds:
        labels = tuple("ABCDEF"[: draw(st.sampled_from([n - 1, n + 1]))])
    return win, labels


class TestCountsType:
    @given(broken_counts())
    @example((np.array([[1, -1], [0, 0]]), None))  # negative and diagonal
    @example((np.array([[0, -1, 0], [1, 0, 0]]), None))  # non-square and negative
    @example((np.array([[1, 0], [0, 0]]), ("A",)))  # diagonal and labels
    @settings(max_examples=300, deadline=None)
    def test_message_matches_check_sequence(self, case):
        win, labels = case
        expected = counts_error(win, labels)
        assert expected is not None
        with pytest.raises(ValueError) as info:
            ComparisonCounts(win, labels=labels)
        assert str(info.value) == expected

    def test_two_matrix_call_is_a_type_error(self):
        win = np.array([[0, 1], [2, 0]])
        with pytest.raises(TypeError):
            ComparisonCounts(win + win.T, win)

    @given(game_counts())
    @settings(max_examples=50, deadline=None)
    def test_pair_counts_are_derived_once(self, counts):
        win = counts.win_counts
        assert np.array_equal(counts.pair_counts, win + win.T)
        assert counts.pair_counts.dtype == np.int64
        assert counts.pair_counts is counts.pair_counts

    def test_equality_is_wins_and_labels(self):
        win = np.array([[0, 1], [2, 0]])
        assert ComparisonCounts(win) == ComparisonCounts(win.tolist())
        assert ComparisonCounts(win) != ComparisonCounts(win.T)
        assert ComparisonCounts(win, labels=("A", "B")) != ComparisonCounts(win)

    def test_rejects_negative_and_diagonal(self):
        with pytest.raises(ValueError, match="non-negative"):
            ComparisonCounts([[0, 0], [-1, 0]])
        with pytest.raises(ValueError, match="diagonal"):
            ComparisonCounts([[1, 0], [0, 0]])

    def test_arrays_are_read_only(self):
        counts = load_matches(records(("A", "B")))
        for matrix in (counts.win_counts, counts.pair_counts):
            with pytest.raises(ValueError):
                matrix[0, 1] = 5


class TestRanking:
    def test_must_be_permutation(self):
        with pytest.raises(ValueError, match="permutation"):
            Ranking([1, 1, 3])

    def test_from_scores_tie_break_prefers_lower_index(self):
        r = Ranking.from_scores([0.0, 0.0, 1.0])
        assert r.ranks.tolist() == [1, 2, 3]

    def test_best_first(self):
        r = Ranking([2, 3, 1])
        assert r.best_first().tolist() == [1, 0, 2]


class TestFilterPlayers:
    def test_no_wins_removes_winless_player(self):
        # player 2 never wins
        win = np.array([[0, 2, 1], [1, 0, 2], [0, 0, 0]])
        counts = ComparisonCounts(win)
        reduced, mapping = filter_players(counts, "no-wins")
        assert reduced.n == 2
        assert mapping == (0, 1)

    def test_cycle_is_fixed_point_for_both_policies(self):
        win = np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
        counts = ComparisonCounts(win)
        for policy in ("no-wins", "bt-connected"):
            reduced, mapping = filter_players(counts, policy)
            assert reduced == counts
            assert mapping == (0, 1, 2)

    def test_no_wins_is_a_single_pass(self):
        # A beats B, B beats C: one pass drops only C even though B then
        # has no wins left in the reduced data.
        counts = load_matches(records(("A", "B"), ("B", "C")))
        reduced, mapping = filter_players(counts, "no-wins")
        assert mapping == (0, 1)
        assert reduced.labels == ("A", "B")

    def test_bt_connected_output_is_strongly_connected(self):
        cfg = SimConfig(scenario="uniform", n=50, t_max=1, xi_low=0.02, xi_high=0.10, seed=4)
        rng = replicate_rng(4, 0)
        P, _ = gen_probabilities(cfg, rng)
        counts = gen_counts(P, cfg, rng)
        reduced, mapping = filter_players(counts, "bt-connected")
        assert 2 <= reduced.n < 50
        assert is_strongly_connected(reduced.win_counts)
        # idempotent: a strongly connected graph is its own largest component
        again, mapping2 = filter_players(reduced, "bt-connected")
        assert again == reduced
        assert mapping2 == tuple(range(reduced.n))

    @given(st.one_of(win_digraphs(), twin_cycles()))
    @settings(max_examples=200, deadline=None)
    def test_bt_connected_matches_reachability_oracle(self, win):
        counts = ComparisonCounts(win)
        expected = oracle_largest_component(win)
        if len(expected) < 2:
            with pytest.raises(DataError, match="strongly connected"):
                filter_players(counts, "bt-connected")
        else:
            assert filter_players(counts, "bt-connected")[1] == expected

    def test_all_removed_is_an_error(self):
        zero = np.zeros((3, 3), dtype=int)
        counts = ComparisonCounts(zero)
        with pytest.raises(DataError):
            filter_players(counts, "no-wins")

    def test_acyclic_graph_has_no_usable_component(self):
        counts = load_matches(records(("A", "B"), ("B", "C")))
        with pytest.raises(DataError):
            filter_players(counts, "bt-connected")

    def test_unknown_policy(self):
        counts = load_matches(records(("A", "B")))
        with pytest.raises(ValueError, match="policy"):
            filter_players(counts, "strict")


def counts_from_edges(n, edges):
    win = np.zeros((n, n), dtype=int)
    for a, b in edges:
        win[a, b] += 1
    return ComparisonCounts(win)


class TestStrongComponents:
    def test_majority_component_is_found_by_search(self):
        # a 5-cycle that players 5 and 6 only lose to: the first search, from
        # player 0, finds 5 of 7 players, and the 2 left cannot beat that
        cycle = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]
        counts = counts_from_edges(7, cycle + [(0, 5), (0, 6)])
        assert largest_strong_component(counts).tolist() == [True] * 5 + [False] * 2
        assert filter_players(counts, "bt-connected")[1] == (0, 1, 2, 3, 4)

    def test_equal_components_without_majority_take_the_lower_index(self):
        # two 3-cycles joined one way: the search from player 0 finds the
        # lower-index cycle first, and the equal one found next does not
        # replace it
        edges = [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (3, 0), (3, 1)]
        counts = counts_from_edges(6, edges)
        assert largest_strong_component(counts).tolist() == [True] * 3 + [False] * 3
        assert filter_players(counts, "bt-connected")[1] == (0, 1, 2)

    @given(st.one_of(win_digraphs(), twin_cycles()))
    @example(np.zeros((1, 1), dtype=int))  # one player: a singleton component
    @example(np.eye(5, k=1, dtype=int))  # an acyclic chain 0 -> 1 -> ... -> 4
    # a 3-cycle on the top indices that players 0-2 only lose to: three
    # singleton searches come before the one that finds the cycle
    @example(counts_from_edges(6, [(3, 4), (4, 5), (5, 3), (3, 0), (3, 1), (3, 2)]).win_counts)
    @settings(max_examples=200, deadline=None)
    def test_mask_matches_reachability_oracle(self, win):
        mask = largest_strong_component(ComparisonCounts(win))
        assert tuple(np.flatnonzero(mask)) == oracle_largest_component(win)

    @given(st.one_of(win_digraphs(), twin_cycles()))
    @settings(max_examples=200, deadline=None)
    def test_strong_components_partition_in_oracle_order(self, win):
        n = len(win)
        forward = [list(np.flatnonzero(win[i] > 0)) for i in range(n)]
        backward = [list(np.flatnonzero(win[:, i] > 0)) for i in range(n)]
        masks = list(strong_components(win > 0))
        assert (np.sum(masks, axis=0) == 1).all()  # every player in exactly one
        lowest = [int(mask.argmax()) for mask in masks]
        assert np.all(np.diff(lowest) > 0)
        for mask, v in zip(masks, lowest):
            both_ways = _reachable(forward, v) & _reachable(backward, v)
            assert set(np.flatnonzero(mask).tolist()) == both_ways

    def test_bt_fit_searches_only_the_first_component(self, monkeypatch):
        # player 0 only loses, to the 5-cycle of players 1-5: the first
        # component, {0} alone, already settles the refusal, so bt_fit runs
        # one forward and one backward search and never finds the cycle
        edges = [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1), (1, 0)]
        calls = []
        reach = wstrank.data._reach
        monkeypatch.setattr(wstrank.data, "_reach", lambda *a: calls.append(a) or reach(*a))
        with pytest.raises(NotConnectedError):
            bt_fit(counts_from_edges(6, edges))
        assert len(calls) == 2

    @given(st.one_of(win_digraphs(), twin_cycles()))
    @example(np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]]))  # a cycle: connected
    @settings(max_examples=200, deadline=None)
    def test_bt_fit_refuses_exactly_the_unconnected(self, win):
        try:
            bt_fit(ComparisonCounts(win))
            refused = False
        except NotConnectedError:
            refused = True
        except ConvergenceError:
            refused = False
        assert refused == (not is_strongly_connected(win))


def probability_matrix(n, entries):
    probs = np.full((n, n), 0.5)
    for (i, j), p in entries.items():
        probs[i, j] = p
        probs[j, i] = 1.0 - p
    return ProbabilityMatrix(probs)


class TestProbabilityMatrix:
    @pytest.mark.parametrize(
        "probs",
        [[[0.5, np.nan], [np.nan, 0.5]], [[np.nan, 0.5], [0.5, 0.5]], np.full((3, 3), np.nan)],
        ids=["off_diagonal", "diagonal", "everywhere"],
    )
    def test_rejects_nan(self, probs):
        # NaN fails every comparison, so a check that raises only on a
        # comparison that holds would let it through
        with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
            ProbabilityMatrix(probs)

    @pytest.mark.parametrize(
        "probs, message",
        [
            (np.full((2, 3), 0.5), "non-empty square matrix"),
            ([[0.5, 0.6], [0.6, 0.5]], "must equal 1"),
            # p[i, i] + p[i, i] == 1 is what fixes the diagonal at 0.5
            ([[0.4, 0.5], [0.5, 0.6]], "must equal 1"),
        ],
        ids=["non_square", "pair_not_complementary", "diagonal_off_half"],
    )
    def test_rejects_invalid(self, probs, message):
        with pytest.raises(ValueError, match=message):
            ProbabilityMatrix(probs)


class TestCheckWst:
    def test_wst_holds_without_sst(self):
        # strong pairwise favourites but a weak transitive edge is fine
        P = probability_matrix(3, {(1, 0): 0.9, (2, 1): 0.9, (2, 0): 0.6})
        report = check_wst(P)
        assert report.ok
        assert report.violations == ()

    def test_direct_violation_reported(self):
        P = probability_matrix(3, {(1, 0): 0.9, (2, 1): 0.9, (2, 0): 0.4})
        report = check_wst(P)
        assert (2, 1, 0) in report.violations

    def test_exact_half_pair_is_flagged(self):
        P = probability_matrix(3, {(1, 0): 0.9, (2, 1): 0.9, (2, 0): 0.5})
        report = check_wst(P)
        assert (0, 2) in report.ties
        assert not report.ok

    @pytest.mark.parametrize("scenario", ["uniform", "two_group", "bt_latent"])
    def test_generated_matrices_are_clean(self, scenario):
        for seed in range(5):
            cfg = SimConfig(scenario=scenario, n=24, seed=seed)
            P, _ = gen_probabilities(cfg, replicate_rng(seed, 0))
            assert check_wst(P).ok

    def test_planted_violation_detected_exactly(self):
        cfg = SimConfig(scenario="uniform", n=12, seed=9)
        P, _ = gen_probabilities(cfg, replicate_rng(9, 0))
        tampered = P.probs.copy()
        tampered[8, 2] = 0.3  # better player 8 now loses to 2 in expectation
        tampered[2, 8] = 0.7
        flipped = ProbabilityMatrix(tampered)
        report = check_wst(flipped)
        expected = brute_wst_violations(flipped.probs)
        assert list(report.violations) == expected
        assert len(expected) > 0


class TestSkewStatistic:
    def test_example_values(self):
        counts = ComparisonCounts([[0, 3], [2, 0]])
        x = skew_statistic(counts)
        assert x[0, 1] == pytest.approx(0.2)
        assert x[1, 0] == pytest.approx(-0.2)

    def test_unplayed_pair_is_zero(self):
        zero = np.zeros((2, 2), dtype=int)
        x = skew_statistic(ComparisonCounts(zero))
        assert (x == 0).all()

    def test_exactly_skew_symmetric_and_bounded(self):
        cfg = SimConfig(scenario="uniform", n=30, seed=2)
        rng = replicate_rng(2, 0)
        P, _ = gen_probabilities(cfg, rng)
        counts = gen_counts(P, cfg, rng)
        x = skew_statistic(counts)
        assert (x + x.T == 0).all()
        assert np.abs(x).max() <= 1.0

    @given(game_counts())
    @settings(max_examples=200, deadline=None)
    def test_bit_equal_to_dense_formula(self, counts):
        x = skew_statistic(counts)
        dense = dense_skew_statistic(counts.win_counts)
        assert np.array_equal(x, dense)
        assert x.tobytes() == dense.tobytes()  # signs of zero included


class TestPlayedPairs:
    @given(game_counts())
    @settings(max_examples=200, deadline=None)
    def test_lists_played_pairs_in_row_major_order(self, counts):
        lo, hi, games, z = counts.played
        n, pair, win = counts.n, counts.pair_counts, counts.win_counts
        expected = [(i, j) for i in range(n) for j in range(i + 1, n) if pair[i, j] > 0]
        assert list(zip(lo.tolist(), hi.tolist())) == expected
        assert games.tolist() == [int(pair[i, j]) for i, j in expected]
        # net wins of the lower player, drawn pairs' zeros included
        assert z.tolist() == [int(win[i, j]) - int(win[j, i]) for i, j in expected]
        for a in counts.played:
            assert a.dtype == np.int64
            assert a.flags.c_contiguous
            assert not a.flags.writeable
        assert counts.played is counts.played

    @pytest.mark.parametrize("n", [1, 4])
    def test_no_games_gives_empty_lists(self, n):
        counts = ComparisonCounts(np.zeros((n, n), dtype=int))
        for a in counts.played:
            assert a.shape == (0,)
            assert a.dtype == np.int64


# CSV's special characters, or any text UTF-8 can encode (NUL aside: Python
# 3.10's csv reader refuses it)
IDENTIFIERS = st.text(
    st.sampled_from(',"\n\r ab') | st.characters(codec="utf-8", exclude_characters="\x00")
)


# A field longer than csv.field_size_limit() (131072) is a reader error.
OVERSIZED_FIELD = "x" * 131073
BAD_ROWS = ["", "A", '"A\nB"', "A,B,C", '"A\nB",C,D', OVERSIZED_FIELD + ",B", 'A,"' + OVERSIZED_FIELD]


def csv_row(fields) -> str:
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="").writerow(fields)
    return buffer.getvalue()


@st.composite
def match_file_texts(draw):
    """Text of a match file: a header and valid rows, some with quoted
    multi-line identifiers, and 0-3 lines from ``BAD_ROWS`` (blank lines,
    1- and 3-field rows, oversized fields) each at a random position, the
    header's included; an optional byte-order mark."""
    names = st.sampled_from(["A", "B", "é", "Doe, Jane", 'say "hi"', "two\nlines", "c\r\nd"])
    header = draw(st.sampled_from(["winner,loser", " winner , loser ", "loser,winner"]))
    lines = [header] + [csv_row(row) for row in draw(st.lists(st.tuples(names, names), max_size=12))]
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(BAD_ROWS)))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return draw(st.sampled_from(["", "\ufeff"])) + newline.join(lines) + newline


def read_outcome(read, path):
    """The records ``read(path)`` returns, or its DataError message."""
    try:
        return read(path)
    except DataError as exc:
        return str(exc)


class TestSerialization:
    def test_match_csv_round_trip(self, tmp_path):
        recs = records(("Doe, Jane", "Poe, Edgar"), ("Poe, Edgar", "Doe, Jane"))
        path = tmp_path / "m.csv"
        write_match_csv(path, recs)
        assert read_match_csv(path) == recs

    @given(st.lists(st.tuples(IDENTIFIERS, IDENTIFIERS), max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_match_csv_round_trip_any_identifier(self, tmp_path_factory, pairs):
        # commas, quotes, line breaks and any non-ASCII text survive quoting
        path = tmp_path_factory.mktemp("csv") / "m.csv"
        recs = records(*pairs)
        write_match_csv(path, recs)
        back = read_match_csv(path)
        assert back == recs
        assert all(type(rec) is MatchRecord for rec in back)

    def test_match_csv_skips_blank_lines(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("winner,loser\n\nA,B\n\n\nB,A\n")
        assert read_match_csv(path) == records(("A", "B"), ("B", "A"))

    def test_match_csv_field_count_error_names_the_physical_line(self, tmp_path):
        # the quoted field spans lines 2-3, so the one-field row is on line 4
        path = tmp_path / "m.csv"
        path.write_text('winner,loser\n"A\nB",C\nD\n')
        with pytest.raises(DataError, match=r"m\.csv:4: expected 2 fields, got 1$"):
            read_match_csv(path)

    def test_match_csv_skips_byte_order_mark(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("winner,loser\nA,B\n", encoding="utf-8-sig")
        assert read_match_csv(path) == records(("A", "B"))

    def test_match_csv_bad_header(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("a,b\nx,y\n")
        with pytest.raises(DataError, match="header"):
            read_match_csv(path)

    @given(match_file_texts())
    @example("winner,loser\nA\nA,B,C\n")  # two bad field counts: the first is named
    @example("winner,loser\nA,B,C\n" + OVERSIZED_FIELD + ",B\n")  # field count before reader error
    @example("winner,loser\n" + OVERSIZED_FIELD + ",B\nA\n")  # reader error before field count
    @example('winner,loser\n"A\nB",C,D\nA\n')  # a 3-field row spanning lines 2-3
    @example("winner,loser\nA,B\nC,D\nE,F,G,H\n")  # the third row's field count, got 4 on line 4
    @settings(max_examples=300, deadline=None)
    def test_match_csv_matches_loop_oracle(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("csv") / "m.csv"
        path.write_bytes(text.encode("utf-8"))
        outcome = read_outcome(read_match_csv, path)
        assert outcome == read_outcome(loop_read_match_csv, path)
        if not isinstance(outcome, str):
            assert all(type(rec) is MatchRecord for rec in outcome)

    @pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf"])
    @pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"])
    def test_match_csv_invalid_utf8_names_line_and_file_offset(self, tmp_path, bom, newline):
        # past the decoder's first chunk, whose own offsets restart at 0
        lines = [b"winner,loser"] + [b"p%d,q%d" % (i, i) for i in range(5000)]
        lines[3000] = b"p2999,q\xff"
        data = bom + newline.join(lines) + newline
        path = tmp_path / "m.csv"
        path.write_bytes(data)
        offset = data.index(b"\xff")
        message = f"{path}:3001: not valid UTF-8: byte 0xff at file offset {offset} (invalid start byte)"
        with pytest.raises(DataError) as info:
            read_match_csv(path)
        assert str(info.value) == message

    def test_match_csv_bad_row_before_a_later_bad_byte_is_named(self, tmp_path):
        # the one pass meets the 3-field row and stops before the decoder
        # reaches the bad byte
        lines = [b"winner,loser", b"A,B,C"] + [b"p%d,q%d" % (i, i) for i in range(5000)]
        path = tmp_path / "m.csv"
        path.write_bytes(b"\n".join(lines) + b"\nA,\xff\n")
        with pytest.raises(DataError, match=r"m\.csv:2: expected 2 fields, got 3$"):
            read_match_csv(path)

    @pytest.mark.parametrize(
        ("tail", "opens"),
        [(b"A,B\nA,B,C\nB,A\n", 1), (b"A,B\nA,\xff\nB,A\n", 2)],
        ids=["field_count", "utf8"],
    )
    def test_match_csv_bad_file_open_count(self, tmp_path, monkeypatch, tail, opens):
        # a bad row is named by the pass that found it; only a bad byte
        # needs the file's bytes, to give its offset in the file
        opened = []

        def counting_open(*args, **kwargs):
            opened.append(args)
            return builtins.open(*args, **kwargs)

        monkeypatch.setattr(wstrank.data, "open", counting_open, raising=False)
        path = tmp_path / "m.csv"
        path.write_bytes(b"winner,loser\n" + tail)
        with pytest.raises(DataError, match=r"m\.csv:3: "):
            read_match_csv(path)
        assert len(opened) == opens

    def test_match_csv_reader_error_names_the_line(self, tmp_path):
        # csv refuses a field longer than csv.field_size_limit() (131072).
        path = tmp_path / "m.csv"
        path.write_text("winner,loser\nA,B\n" + "x" * 131073 + ",B\n")
        with pytest.raises(DataError, match=r"m\.csv:3: field larger than field limit"):
            read_match_csv(path)


class TestMatchRecords:
    def test_read_keeps_no_tracked_object_per_game(self, tmp_path):
        path = tmp_path / "m.csv"
        write_match_csv(path, synthetic_matches(300, 0.2, seed=3))  # 27,298 games
        read_match_csv(path)  # warm-up
        gc.collect()
        before = len(gc.get_objects())
        recs = read_match_csv(path)
        assert len(gc.get_objects()) - before < 1000
        assert len(recs) == 27298

    @given(match_records().flatmap(lambda recs: st.tuples(st.just(recs), st.slices(len(recs)))))
    @example((records(("A", "B"), ("C", "C"), ("", "D")), slice(None, None, -2)))
    @settings(max_examples=200, deadline=None)
    def test_sequence_read_back_is_the_loop_list(self, tmp_path_factory, case):
        # the drawn records include empty identifiers and self-games
        recs, part = case
        path = tmp_path_factory.mktemp("csv") / "m.csv"
        write_match_csv(path, recs)
        seq = read_match_csv(path)
        expected = loop_read_match_csv(path)
        assert isinstance(seq, MatchRecords)
        assert len(seq) == len(expected) == len(recs)
        assert list(seq) == expected
        assert seq == expected and expected == seq
        assert [seq[i] for i in range(len(seq))] == expected
        assert [seq[-i] for i in range(1, len(seq) + 1)] == [expected[-i] for i in range(1, len(seq) + 1)]
        assert seq[part] == expected[part]
        with pytest.raises(IndexError):
            seq[len(seq)]
        assert load_outcome(load_matches, seq) == load_outcome(load_matches, list(seq))

    def test_equality(self):
        seq = MatchRecords(["A", "B", "B", "C"])
        assert seq == records(("A", "B"), ("B", "C")) == seq
        assert seq == MatchRecords(["A", "B", "B", "C"])
        assert seq != records(("A", "B"))
        assert seq != records(("A", "B"), ("C", "B"))
        assert seq != ("A", "B", "B", "C")
        with pytest.raises(ValueError, match="a winner and a loser"):
            MatchRecords(["A", "B", "C"])
