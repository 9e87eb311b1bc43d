"""Majority voting and rank-correlation statistics against naive loops."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import kendalltau, rankdata

from osborn import evaluation
from osborn.data_io import LabelVector, PredictionVector, read_scores, write_scores
from osborn.errors import ComputationError, ValidationError
from osborn.evaluation import (
    CorrelationReport,
    _average_ranks,
    _earlier_smaller,
    _net_concordance,
    evaluate,
    kendall_tau,
    majority_vote_accuracy,
    pearson,
    weighted_kendall_tau,
    write_report,
)

from conftest import (
    earlier_smaller_loop,
    kendall_tau_b_loop,
    majority_vote_loop,
    net_concordance_loop,
    pearson_loop,
    peak_ratio,
    weighted_kendall_loop,
)


# ---------------------------------------------------------------------------
# ensemble accuracy
# ---------------------------------------------------------------------------


def ensemble_accuracy(members, truth):
    """Majority-vote accuracy of one ensemble: a one-row vote."""
    one = np.arange(len(members))[None, :]
    return float(majority_vote_accuracy(members, truth, one)[0])


def test_single_perfect_member_scores_one():
    truth = LabelVector(np.array([0, 1, 2, 1]), 3)
    perfect = PredictionVector(truth.values.copy(), 3)
    assert ensemble_accuracy([perfect], truth) == 1.0


def test_vote_ties_break_toward_smaller_class():
    truth_lo = LabelVector(np.array([0, 0]), 2)
    truth_hi = LabelVector(np.array([1, 1]), 2)
    a = PredictionVector(np.array([0, 0]), 2)
    b = PredictionVector(np.array([1, 1]), 2)
    # one vote each: the tie goes to class 0 on every sample
    assert ensemble_accuracy([a, b], truth_lo) == 1.0
    assert ensemble_accuracy([a, b], truth_hi) == 0.0


def test_redundant_members_change_nothing():
    rng = np.random.default_rng(0)
    truth = LabelVector(rng.integers(0, 3, 50), 3)
    p = PredictionVector(rng.integers(0, 3, 50), 3)
    solo = ensemble_accuracy([p], truth)
    assert ensemble_accuracy([p, p, p], truth) == solo


def test_majority_vote_matches_scalar_loop():
    rng = np.random.default_rng(1)
    for _ in range(20):
        n = int(rng.integers(3, 40))
        c = int(rng.integers(2, 5))
        truth = LabelVector(rng.integers(0, c, n), c)
        members = [PredictionVector(rng.integers(0, c, n), c)
                   for _ in range(int(rng.integers(1, 6)))]
        ref = majority_vote_loop([m.values.tolist() for m in members],
                                 truth.values.tolist())
        assert ensemble_accuracy(members, truth) == pytest.approx(ref, abs=1e-12)


def test_ensemble_accuracy_input_validation():
    truth = LabelVector(np.array([0, 1]), 2)
    p = PredictionVector(np.array([0, 1]), 2)
    with pytest.raises(ValidationError, match="PredictionVector members"):
        ensemble_accuracy([], truth)
    with pytest.raises(ValidationError, match="PredictionVector members"):
        ensemble_accuracy([p, np.zeros((2, 2))], truth)
    with pytest.raises(ValidationError, match="labels"):
        ensemble_accuracy([PredictionVector(np.array([0]), 2)], truth)


def test_mixed_class_widths_vote_correctly():
    # members disagree on label-space size; votes land in a shared table
    truth = LabelVector(np.array([0, 1, 2]), 3)
    narrow = PredictionVector(np.array([0, 1, 1]), 2)
    wide = PredictionVector(np.array([0, 1, 2]), 3)
    acc = ensemble_accuracy([narrow, wide, wide], truth)
    assert acc == 1.0


def test_batched_vote_equals_ensemble_accuracy_for_every_ensemble():
    # three classes over few samples makes vote ties common; members disagree
    # on their label-space size
    rng = np.random.default_rng(7)
    for trial in range(12):
        n = int(rng.integers(3, 30))
        truth = LabelVector(rng.integers(0, 4, n), 4)
        members = []
        for _ in range(int(rng.integers(2, 7))):
            c = int(rng.integers(2, 6))
            members.append(PredictionVector(rng.integers(0, min(c, 3), n), c))
        m = len(members)
        for k in range(1, m + 1):
            combos = np.array(list(itertools.combinations(range(m), k)))
            got = majority_vote_accuracy(members, truth, combos)
            loop = [majority_vote_loop([members[i].values.tolist() for i in row],
                                       truth.values.tolist()) for row in combos]
            assert got == pytest.approx(loop, abs=1e-12)


def assert_votes_match_loop(members, truth, combos):
    got = majority_vote_accuracy(members, truth, combos)
    loop = [majority_vote_loop([members[i].values.tolist() for i in row],
                               truth.values.tolist()) for row in combos]
    assert got.tolist() == loop


def test_batched_vote_chunks_agree_with_one_chunk(monkeypatch):
    rng = np.random.default_rng(8)
    truth = LabelVector(rng.integers(0, 3, 40), 3)
    members = [PredictionVector(rng.integers(0, 3, 40), 3) for _ in range(9)]
    combos = np.array(list(itertools.combinations(range(9), 4)))
    whole = majority_vote_accuracy(members, truth, combos)
    # a budget below one ensemble's table still votes one ensemble at a time
    monkeypatch.setattr("osborn.evaluation._VOTE_CELLS", 1)
    assert majority_vote_accuracy(members, truth, combos).tolist() == whole.tolist()
    assert_votes_match_loop(members, truth, combos)


def test_vote_keys_past_one_byte_match_loop():
    # class keys reach (k + 1)·width − 1, past a byte from k = 64 at width 4:
    # 64 members that all vote the truth give its class a key of 256 to 259
    rng = np.random.default_rng(9)
    truth = LabelVector(rng.integers(0, 4, 30), 4)
    same = PredictionVector(truth.values.copy(), 4)
    members = [same] * 66 + [PredictionVector(rng.integers(0, 4, 30), 4)
                             for _ in range(4)]
    for k in (63, 64, 70):
        combos = np.array([np.arange(k), np.arange(70 - k, 70),
                           rng.permutation(70)[:k]])
        assert_votes_match_loop(members, truth, combos)


def test_vote_truth_above_every_members_classes_is_never_a_hit():
    rng = np.random.default_rng(10)
    truth = LabelVector(rng.integers(0, 6, 50), 6)
    members = [PredictionVector(rng.integers(0, 3, 50), 3) for _ in range(5)]
    combos = np.array(list(itertools.permutations(range(5), 3)))
    assert_votes_match_loop(members, truth, combos)
    # every truth class from 4 to 299 against members of width 4: no class
    # offset may wrap round onto a winning key
    above = LabelVector(np.arange(4, 300), 300)
    members = [PredictionVector(np.zeros(296, dtype=int), 4)] * 3 + \
        [PredictionVector(rng.integers(0, 4, 296), 4)]
    combos = np.array(list(itertools.permutations(range(4), 3)))
    assert majority_vote_accuracy(members, above, combos).tolist() == [0.0] * len(combos)


def test_vote_all_way_ties_go_to_the_smallest_class():
    # sample s: member i votes (i + s) % 4, so pairs tie one to one and the
    # full ensemble gives each of the four classes one vote
    n, width = 8, 4
    members = [PredictionVector((i + np.arange(n)) % width, width) for i in range(width)]
    for k in (2, 4):
        combos = np.array(list(itertools.permutations(range(width), k)))
        for c in range(width):
            assert_votes_match_loop(members, LabelVector(np.full(n, c), width), combos)
    full = majority_vote_accuracy(members, LabelVector(np.zeros(n, dtype=int), width),
                                  [list(range(width))])
    assert full.tolist() == [1.0]


def test_vote_members_of_different_widths_match_loop():
    rng = np.random.default_rng(11)
    truth = LabelVector(rng.integers(0, 5, 40), 5)
    members = [PredictionVector(rng.integers(0, c, 40), c) for c in (1, 2, 3, 5, 2, 4)]
    for k in (1, 2, 3, 6):
        assert_votes_match_loop(members, truth,
                                np.array(list(itertools.permutations(range(6), k))))


def test_batched_vote_input_validation():
    truth = LabelVector(np.array([0, 1]), 2)
    p = PredictionVector(np.array([0, 1]), 2)
    with pytest.raises(ValidationError, match="PredictionVector"):
        majority_vote_accuracy([np.zeros((2, 2))], truth, [[0]])
    with pytest.raises(ValidationError, match="labels"):
        majority_vote_accuracy([PredictionVector(np.array([0]), 2)], truth, [[0]])
    with pytest.raises(ValidationError, match="2-d integer"):
        majority_vote_accuracy([p], truth, [0])
    with pytest.raises(ValidationError, match="does not exist"):
        majority_vote_accuracy([p], truth, [[1]])


# ---------------------------------------------------------------------------
# correlations
# ---------------------------------------------------------------------------


def test_pearson_hand_value_and_bounds():
    # centered x = (-1, 0, 1), y = (-1, 1, 0): r = 1 / (sqrt(2) sqrt(2))
    assert pearson([1, 2, 3], [1, 3, 2]) == pytest.approx(0.5, abs=1e-12)
    assert pearson([1, 2, 3], [10, 20, 30]) == 1.0
    assert pearson([1, 2, 3], [5, 0, -5]) == -1.0


def test_pearson_matches_loop_on_random_vectors():
    rng = np.random.default_rng(2)
    for _ in range(50):
        n = int(rng.integers(2, 50))
        x = rng.normal(size=n)
        y = rng.normal(size=n)
        assert pearson(x, y) == pytest.approx(
            pearson_loop(x.tolist(), y.tolist()), abs=1e-12)


def test_pearson_rejects_degenerate_inputs():
    with pytest.raises(ComputationError, match="zero-variance"):
        pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValidationError, match="at least 2"):
        pearson([1.0], [2.0])
    with pytest.raises(ValidationError, match="equal-length"):
        pearson([1.0, 2.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValidationError, match="non-finite"):
        pearson([1.0, np.nan], [1.0, 2.0])


def test_kendall_hand_value():
    # one discordant pair out of three
    assert kendall_tau([1, 2, 3], [1, 3, 2]) == pytest.approx(1 / 3, abs=1e-12)
    assert kendall_tau([1, 2, 3], [4, 5, 6]) == pytest.approx(1.0, abs=1e-12)
    assert kendall_tau([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0, abs=1e-12)


def test_kendall_matches_loop_with_and_without_ties():
    rng = np.random.default_rng(3)
    for trial in range(50):
        n = int(rng.integers(3, 50))
        if trial % 2:
            x = rng.normal(size=n)
            y = rng.normal(size=n)
        else:
            # integer grids force ties on both sides
            x = rng.integers(0, 4, n).astype(float)
            y = rng.integers(0, 4, n).astype(float)
            if np.all(x == x[0]) or np.all(y == y[0]):
                continue
        assert kendall_tau(x, y) == pytest.approx(
            kendall_tau_b_loop(x.tolist(), y.tolist()), abs=1e-12)


_VALUE = st.one_of(st.integers(0, 3).map(float),
                   st.floats(-10.0, 10.0, allow_nan=False))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.lists(st.tuples(_VALUE, _VALUE), min_size=2, max_size=120))
def test_kendall_and_average_ranks_equal_scipy_bit_for_bit(pairs):
    # scipy's tau-b after the clamp kendall_tau applies, and scipy's average
    # ranks of x and of -y (the weighted tau's ranking), on tied and untied
    # inputs
    x = np.array([p[0] for p in pairs])
    y = np.array([p[1] for p in pairs])
    for v in (x, -y):
        dense = np.unique(v, return_inverse=True)[1]
        assert np.array_equal(_average_ranks(dense), rankdata(v, method="average"))
    if np.all(x == x[0]) or np.all(y == y[0]):
        return
    ref = float(kendalltau(x, y, variant="b").statistic)
    if abs(abs(ref) - 1.0) < 1e-12:
        ref = math.copysign(1.0, ref)
    assert kendall_tau(x, y) == min(1.0, max(-1.0, ref))


_RANK = st.integers(min_value=0, max_value=4)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.tuples(_RANK, _RANK), min_size=1, max_size=80))
def test_net_concordance_matches_the_pair_loop(pairs):
    # few values on both sides: pairs tied in x only, in y only and in both
    # reach every tie term of the one-count identity, which untied alphas
    # (the bench pools') never do
    x = [p[0] for p in pairs]
    y = [p[1] for p in pairs]
    rx, ry = (np.unique(v, return_inverse=True)[1].astype(np.int64) for v in (x, y))
    assert _net_concordance(rx, ry).tolist() == net_concordance_loop(x, y)


@pytest.mark.parametrize("x_values, y_values", [(100, 3), (3, 100), (40, 40)])
def test_net_concordance_over_many_cells_matches_the_pair_loop(x_values, y_values):
    # hundreds of cells, each y value shared by many of them: the cells'
    # (ry, rx) order must keep rx order within each y value
    rng = np.random.default_rng(x_values)
    x = rng.integers(0, x_values, 400).tolist()
    y = rng.integers(0, y_values, 400).tolist()
    rx, ry = (np.unique(v, return_inverse=True)[1].astype(np.int64) for v in (x, y))
    assert _net_concordance(rx, ry).tolist() == net_concordance_loop(x, y)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.integers(min_value=0, max_value=300), min_size=1, max_size=100))
def test_earlier_smaller_matches_the_loop(values):
    assert _earlier_smaller(np.array(values)).tolist() == earlier_smaller_loop(values)


@pytest.mark.parametrize("top", [0, 1, 2, 3, 4, 7, 8, 255, 256, 2**16 - 1, 2**16,
                                 2**31 - 1])
def test_earlier_smaller_at_a_maximum_of_one_level_more_or_less(top):
    # a largest value of 2^j - 1 fills j bit levels and 2^j opens one more;
    # the largest value sits first, last and between repeats of itself
    rng = np.random.default_rng(top % 1000)
    values = rng.integers(0, top + 1, 60)
    values[[0, 30, 31, 59]] = top
    assert _earlier_smaller(values).tolist() == earlier_smaller_loop(values.tolist())
    assert _earlier_smaller(np.full(9, top)).tolist() == [0] * 9
    assert _earlier_smaller(np.array([top])).tolist() == [0]


def test_kendall_rejects_constant_input():
    with pytest.raises(ComputationError, match="constant"):
        kendall_tau([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])


def test_weighted_kendall_monotone_inputs_hit_exact_bounds():
    rng = np.random.default_rng(4)
    for _ in range(10):
        n = int(rng.integers(2, 30))
        y = rng.normal(size=n)
        order = np.argsort(y)
        x_up = np.empty(n)
        x_up[order] = np.arange(n, dtype=float)
        assert weighted_kendall_tau(x_up, y) == 1.0
        assert weighted_kendall_tau(-x_up, y) == -1.0


def test_weighted_kendall_matches_loop():
    rng = np.random.default_rng(5)
    for trial in range(52):
        # the last two inputs span several row blocks
        n = 600 if trial >= 50 else int(rng.integers(3, 40))
        if trial % 2:
            x = rng.normal(size=n)
            y = rng.normal(size=n)
        else:
            x = rng.integers(0, 5, n).astype(float)
            y = rng.integers(0, 5, n).astype(float)
            if np.all(x == x[0]) or np.all(y == y[0]):
                continue
        assert weighted_kendall_tau(x, y) == pytest.approx(
            weighted_kendall_loop(x.tolist(), y.tolist()), abs=1e-12)


_TIED = st.integers(min_value=0, max_value=3).map(float)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(_TIED, _TIED), min_size=2, max_size=60))
def test_weighted_kendall_matches_loop_under_heavy_ties(pairs):
    x = [p[0] for p in pairs]
    y = [p[1] for p in pairs]
    if len(set(x)) == 1 or len(set(y)) == 1:
        with pytest.raises(ComputationError, match="constant"):
            weighted_kendall_tau(x, y)
        return
    assert weighted_kendall_tau(x, y) == pytest.approx(
        weighted_kendall_loop(x, y), abs=1e-12)


def test_weighted_kendall_memory_is_linear_at_scale():
    # 50,000 rows: a pair table in row blocks of 128 would need 51 MB per
    # temporary; the O(N) form needs a few arrays of N entries
    rng = np.random.default_rng(9)
    n = 50_000
    x = rng.normal(size=n)
    y = np.round(x + rng.normal(size=n), 2)
    value, ratio = peak_ratio(lambda: weighted_kendall_tau(x, y), 24 * 2 ** 20)
    assert -1.0 <= value <= 1.0
    assert ratio < 1.0


def test_weighted_kendall_frozen_value():
    # four items, one swap among the top two: the disagreeing pair (0, 1) has
    # weight 1 + 1/2 of the 6.25 total, so num = 6.25 - 2 * 1.5 = 3.25 and
    # the statistic is 0.52, well below the unweighted 2/3
    x = [3.0, 4.0, 2.0, 1.0]
    y = [9.0, 7.0, 5.0, 3.0]
    got = weighted_kendall_tau(x, y)
    ref = weighted_kendall_loop(x, y)
    assert got == pytest.approx(ref, abs=1e-12)
    assert got == pytest.approx(0.52, abs=1e-12)
    assert kendall_tau(x, y) == pytest.approx(2 / 3, abs=1e-12)


def test_weighted_kendall_punishes_top_swaps_more():
    # same single swap, at the top vs at the bottom of the accuracy order
    y = [4.0, 3.0, 2.0, 1.0]
    top_swap = [3.0, 4.0, 2.0, 1.0]
    bottom_swap = [4.0, 3.0, 1.0, 2.0]
    assert weighted_kendall_tau(top_swap, y) < weighted_kendall_tau(bottom_swap, y)
    assert kendall_tau(top_swap, y) == pytest.approx(
        kendall_tau(bottom_swap, y), abs=1e-12)


# ---------------------------------------------------------------------------
# evaluate + report
# ---------------------------------------------------------------------------


def test_evaluate_uses_only_rows_with_accuracy():
    # NaN marks a row without a measured accuracy
    rep = evaluate([1.0, 2.0, 3.0, 4.0], [0.2, np.nan, 0.8, 0.9])
    assert rep.n_pairs == 3
    assert rep.pcc == pytest.approx(
        pearson([1.0, 3.0, 4.0], [0.2, 0.8, 0.9]), abs=1e-15)
    assert rep.kt == pytest.approx(1.0, abs=1e-12)
    assert rep.wkt == pytest.approx(1.0, abs=1e-12)
    assert evaluate([1.0, 2.0, 3.0, 4.0], [0.2, np.nan, 0.8, 0.7]) == \
        evaluate([1.0, 3.0, 4.0], [0.2, 0.8, 0.7])


def test_correlate_skips_rows_without_accuracy_like_evaluate(tmp_path):
    # a rankings row with an empty accuracy field reads back as NaN, and
    # evaluate leaves it out just as it leaves out a NaN in the arrays
    path = tmp_path / "rankings.csv"
    write_scores(["a", "b", "c", "d"], np.arange(4).reshape(4, 1),
                 [1.0, 2.0, 3.0, 4.0], [0.2, np.nan, 0.8, 0.7], path)
    _, alpha, accuracy = read_scores(path)
    assert np.isnan(accuracy[1])
    rep = evaluate(alpha, accuracy)
    assert rep == evaluate([1.0, 2.0, 3.0, 4.0], [0.2, np.nan, 0.8, 0.7])
    assert rep == evaluate([1.0, 3.0, 4.0], [0.2, 0.8, 0.7])
    assert rep.n_pairs == 3


def test_correlate_counts_concordance_once(monkeypatch):
    # both Kendall statistics come from one pass, and equal the standalone ones
    calls = []

    def counted(x, y):
        calls.append(None)
        return kendall_pair(x, y)

    kendall_pair = evaluation._kendall_pair
    monkeypatch.setattr(evaluation, "_kendall_pair", counted)
    rng = np.random.default_rng(6)
    alpha = rng.normal(size=200)
    accuracy = np.round(alpha + rng.normal(size=200), 1)
    rep = evaluate(alpha, accuracy)
    assert len(calls) == 1
    assert (rep.kt, rep.wkt) == (kendall_tau(alpha, accuracy),
                                 weighted_kendall_tau(alpha, accuracy))


def test_evaluate_needs_two_usable_rows():
    with pytest.raises(ValidationError, match="at least 2"):
        evaluate([1.0, 2.0], [0.5, np.nan])
    with pytest.raises(ValidationError, match="equal-length"):
        evaluate([1.0, 2.0], [0.5, 0.6, 0.7])


def test_write_report_format(tmp_path):
    rep = CorrelationReport(pcc=0.5, kt=0.25, wkt=0.125, n_pairs=6)
    p = tmp_path / "report.csv"
    write_report(rep, p)
    assert p.read_text() == (
        "metric,value\npcc,0.5\nkt,0.25\nwkt,0.125\nn_pairs,6\n"
    )
