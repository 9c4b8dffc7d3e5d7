"""Hand-made cases for the benchmark's own oracles.

    python3 -m pytest benchmark/test_oracle.py

The benchmark trusts these oracles to judge the program's rankings, APs
and chance levels, so each is pinned here to values worked out by hand
or by brute force, never to the program's output.
"""

import itertools
import math

import numpy as np
import pytest

import oracle

# two-dimensional points whose rank orders can be checked by eye
FIX_IDS = ["a0", "a1", "a2", "b3", "b4"]
FIX_EMB = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.1], [1.0, -0.75], [1.0, -0.2]])
FIX_LABELS = ["A", "A", "A", "B", "B"]
FIX_APS = {"a0": 5 / 6, "a1": 5 / 12, "a2": 1.0, "b3": 1.0, "b4": 0.5}


def test_five_point_fixture():
    got = oracle.leave_one_out(FIX_IDS, FIX_EMB, FIX_LABELS)
    for qid, want in FIX_APS.items():
        assert got["ap"][qid] == pytest.approx(want, abs=1e-12)
    assert got["micro_map"] == pytest.approx(0.75, abs=1e-12)
    assert got["macro_map"] == pytest.approx(0.75, abs=1e-12)
    assert got["top1"] == pytest.approx(3 / 5, abs=1e-12)
    assert got["queries"] == 5 and got["skipped_singletons"] == 0


def test_tie_broken_by_id_not_by_position():
    # "z1" and "m2" sit at the same distance from the query; "m2" sorts first
    ids = ["q0", "z1", "m2", "far3"]
    emb = np.array([[0.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [5.0, 0.0]])
    top = oracle.top_k(ids, emb, ["q0"], 3)["q0"]
    assert [i for i, _ in top] == ["m2", "z1", "far3"]
    assert [d for _, d in top] == [1.0, 1.0, 5.0]
    ranks = oracle.id_ranks(ids)
    assert oracle.ranked(oracle.distance_row(emb, 0), ranks, 0).tolist() == [2, 1, 3]


def test_tie_decides_ap():
    # the relevant "b" and the irrelevant "a" tie; id order puts "a" first
    ids = ["q", "b", "a"]
    emb = np.array([[0.0], [1.0], [-1.0]])
    got = oracle.leave_one_out(ids, emb, ["X", "X", "Y"])
    assert got["ap"]["q"] == pytest.approx(1 / 2, abs=1e-12)
    assert got["skipped_singletons"] == 1


def test_average_precision_by_hand():
    assert oracle.average_precision([True, False, True]) == pytest.approx((1 + 2 / 3) / 2)
    assert oracle.average_precision([False, False, True]) == pytest.approx(1 / 3)
    with pytest.raises(ValueError):
        oracle.average_precision([False, False])


@pytest.mark.parametrize("gallery,relevant", [(1, 1), (4, 1), (5, 2), (6, 3), (6, 6)])
def test_random_ap_matches_brute_force(gallery, relevant):
    flags = [True] * relevant + [False] * (gallery - relevant)
    aps = [oracle.average_precision(p) for p in itertools.permutations(flags)]
    assert oracle.random_ap(relevant, gallery) == pytest.approx(sum(aps) / len(aps), abs=1e-12)


def test_chance_map_from_label_frequencies():
    # classes of 3 and 2 among 5 items, plus one singleton that is never a query
    labels = ["A", "A", "A", "B", "B", "C"]
    want = (3 * oracle.random_ap(2, 5) + 2 * oracle.random_ap(1, 5)) / 5
    assert oracle.chance_map(labels) == pytest.approx(want, abs=1e-15)
    assert oracle.random_ap(1, 5) == pytest.approx(sum(1 / r for r in range(1, 6)) / 5)
    assert math.isclose(oracle.random_ap(5, 5), 1.0)
