"""Ranking metrics against hand-worked fixtures, and the Gram ranker against the exact path."""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mcretrieval import ShapeError, ValidationError, evaluation
from mcretrieval.cli import main
from mcretrieval.evaluation import (
    RetrievalReport,
    average_precision,
    evaluate,
    gathered_distances,
    mc_sweep,
    modality_ablation,
    ranked_galleries,
    write_report,
)
from mcretrieval.mining import label_codes, pairwise_distances
from mcretrieval.uncertainty import write_embeddings


class TestAveragePrecision:
    def test_hand_values(self):
        assert average_precision([1, 0, 0]) == pytest.approx(1.0)
        assert average_precision([0, 1]) == pytest.approx(0.5)
        assert average_precision([1, 0, 1]) == pytest.approx((1.0 + 2.0 / 3.0) / 2)
        assert average_precision([0, 0, 1, 1]) == pytest.approx((1 / 3 + 2 / 4) / 2)
        assert average_precision([1, 1, 1]) == pytest.approx(1.0)

    def test_all_relevant_is_perfect_any_length(self):
        for n in (1, 4, 9):
            assert average_precision([1] * n) == 1.0

    def test_requires_a_relevant_item(self):
        with pytest.raises(ValidationError):
            average_precision([0, 0, 0])


# five planar points whose leave-one-out rankings were worked out by hand
FIX_IDS = ["a0", "a1", "a2", "b3", "b4"]
FIX_EMB = np.array([
    [0.0, 0.0],
    [1.0, 0.0],
    [0.0, 1.1],
    [1.0, -0.75],
    [1.0, -0.2],
])
FIX_LABELS = ["A", "A", "A", "B", "B"]
FIX_APS = {"a0": 5 / 6, "a1": 5 / 12, "a2": 1.0, "b3": 1.0, "b4": 0.5}


class TestEvaluate:
    def test_hand_fixture_per_query(self):
        rep = evaluate(FIX_IDS, FIX_EMB, FIX_LABELS)
        got = {r["id"]: r["ap"] for r in rep.per_query}
        assert got == pytest.approx(FIX_APS)

    def test_hand_fixture_aggregates(self):
        rep = evaluate(FIX_IDS, FIX_EMB, FIX_LABELS)
        assert rep.micro_map == pytest.approx(0.75)
        assert rep.macro_map == pytest.approx(0.75)
        assert rep.top1 == pytest.approx(0.6)
        assert rep.top5 == pytest.approx(1.0)
        assert rep.queries == 5
        assert rep.skipped_singletons == 0

    def test_per_class_means(self):
        rep = evaluate(FIX_IDS, FIX_EMB, FIX_LABELS)
        assert rep.per_class["A"] == pytest.approx((5 / 6 + 5 / 12 + 1.0) / 3)
        assert rep.per_class["B"] == pytest.approx(0.75)

    def test_micro_equals_macro_when_balanced(self):
        rng = np.random.default_rng(0)
        emb = rng.normal(size=(12, 6))
        labels = ["x", "y", "z"] * 4
        rep = evaluate([f"i{k}" for k in range(12)], emb, labels)
        assert rep.micro_map == pytest.approx(np.mean([r["ap"] for r in rep.per_query]), abs=1e-12)
        # balanced classes: macro re-weights equal-size groups, same number
        assert rep.macro_map == pytest.approx(
            np.mean([rep.per_class[c] for c in ("x", "y", "z")]), abs=1e-12
        )

    def test_rotation_invariance(self):
        theta = 0.77
        rot = np.array([[np.cos(theta), -np.sin(theta)],
                        [np.sin(theta), np.cos(theta)]])
        a = evaluate(FIX_IDS, FIX_EMB, FIX_LABELS)
        b = evaluate(FIX_IDS, FIX_EMB @ rot.T, FIX_LABELS)
        assert a.micro_map == pytest.approx(b.micro_map, abs=1e-12)
        assert a.top1 == b.top1

    def test_singletons_skipped_but_kept_in_gallery(self):
        ids = ["a0", "a1", "lone"]
        emb = np.array([[0.0, 0.0], [0.1, 0.0], [0.05, 0.0]])
        rep = evaluate(ids, emb, ["A", "A", "Z"])
        assert rep.queries == 2
        assert rep.skipped_singletons == 1
        # the singleton sits between the pair, demoting each true match to rank 2
        assert rep.micro_map == pytest.approx(0.5)

    def test_tie_break_is_ascending_id(self):
        ids = ["q", "zz", "aa"]
        emb = np.array([[0.0], [1.0], [1.0]])
        rep = evaluate(ids, emb, ["A", "B", "A"])
        q = next(r for r in rep.per_query if r["id"] == "q")
        # both candidates at distance 1; "aa" must outrank "zz"
        assert q["ap"] == pytest.approx(1.0)

    def test_labels_and_ids_keep_python_equality(self):
        # labels 1 and 1.0 are one class and "1" another; ids 3 and "3" tie on the text "3",
        # so the earlier one ranks first. The expected report was computed with Python ==
        # on every label pair and a lexsort on the id strings.
        ids = [3, "3", "a", 2.5, "b", 7, "c", 1.0]
        labels = [1, "1", 1.0, "1", 2, 2.0, "2", 1]
        emb = np.array([[0.0, 1.0], [0.0, 1.0], [1.0, 0.0], [0.5, 0.5],
                        [0.0, 0.0], [1.0, 1.0], [0.5, 0.0], [0.0, 0.5]])
        rep = evaluate(ids, emb, labels)
        assert repr(rep.to_dict()) == (
            "{'micro_map': 0.2744897959183673, 'macro_map': 0.2617724867724867, 'top1': 0.0, "
            "'top5': 0.7142857142857143, 'queries': 7, 'skipped_singletons': 1, 'per_class': "
            "[{'class': 1, 'map': 0.3507936507936508}, {'class': 2, 'map': 0.14285714285714285}, "
            "{'class': '1', 'map': 0.29166666666666663}], 'config': {}}")
        assert repr(rep.per_query) == (
            "[{'id': 3, 'class': 1, 'ap': 0.39285714285714285}, "
            "{'id': '3', 'class': '1', 'ap': 0.3333333333333333}, "
            "{'id': 'a', 'class': 1.0, 'ap': 0.26666666666666666}, "
            "{'id': 2.5, 'class': '1', 'ap': 0.25}, "
            "{'id': 'b', 'class': 2, 'ap': 0.14285714285714285}, "
            "{'id': 7, 'class': 2.0, 'ap': 0.14285714285714285}, "
            "{'id': 1.0, 'class': 1, 'ap': 0.39285714285714285}]")

    def test_input_validation(self):
        with pytest.raises(ValidationError):
            evaluate(["a"], np.zeros((1, 2)), ["A"])
        with pytest.raises(ValidationError):
            evaluate(["a", "a"], np.zeros((2, 2)), ["A", "A"])
        with pytest.raises(ValidationError):
            evaluate(["a", "b"], np.zeros((2, 2)), ["A"])
        with pytest.raises(ValidationError):
            evaluate(["a", "b"], np.zeros((2, 2)), ["A", "B"])
        with pytest.raises(ShapeError):
            evaluate(["a", "b"], np.zeros(2), ["A", "A"])


def fake_embedded(mcs):
    """Deterministic stand-in for an embed_prefixes result at mcs: accuracy grows with mc."""
    rng = np.random.default_rng(7)
    protos = {"A": np.array([1.0, 0.0]), "B": np.array([0.0, 1.0])}
    labels = ["A", "A", "A", "B", "B", "B"]
    base_noise = rng.normal(size=(len(labels), 2))

    def embed_one(mc):
        scale = 1.2 / np.sqrt(mc) if mc else 1.2
        means = np.stack([protos[lab] for lab in labels]) + scale * base_noise
        return means, np.full_like(means, 1.0 / mc if mc else 0.0)

    return [f"i{k}" for k in range(len(labels))], [embed_one(mc) for mc in mcs], labels


class TestSweepAndAblation:
    def test_sweep_has_baseline_row_and_mc_rows(self):
        ids, embedded, labels = fake_embedded([0, 1, 4, 16])
        rows = mc_sweep(ids, [0, 1, 4, 16], embedded, labels)
        assert [r["mc"] for r in rows] == [0, 1, 4, 16]
        assert rows[0]["stochastic"] is False
        assert rows[0]["mean_variance"] == 0.0
        assert all(0.0 <= r["micro_map"] <= 1.0 for r in rows)

    def test_sweep_improves_with_passes_for_shrinking_noise(self):
        ids, embedded, labels = fake_embedded([0, 1, 4, 64])
        rows = mc_sweep(ids, [0, 1, 4, 64], embedded, labels)
        by_mc = {r["mc"]: r["micro_map"] for r in rows}
        assert by_mc[64] >= by_mc[1]
        assert by_mc[64] >= by_mc[0] - 1e-12

    def test_sweep_validation(self):
        ids, embedded, labels = fake_embedded([0, 2])
        with pytest.raises(ValidationError):
            mc_sweep(ids, [], [], labels)
        with pytest.raises(ValidationError):  # one (means, variances) short of the mcs
            mc_sweep(ids, [0, 2], embedded[:1], labels)

    def test_ablation_rows(self):
        labels = ["A", "A", "B", "B"]
        full = np.array([[0.0, 0.0], [0.1, 0.0], [1.0, 1.0], [1.1, 1.0]])
        ids = [f"i{k}" for k in range(4)]
        # single-modality view collapses the informative axis
        rows = modality_ablation([(None, ids, full), (["cam"], ids, full * np.array([1.0, 0.0]))], labels)
        assert rows[0]["modalities"] == "all"
        assert rows[1]["modalities"] == "cam"
        assert rows[0]["micro_map"] >= rows[1]["micro_map"]


class TestReportFile:
    def test_flat_table(self, tmp_path):
        path = tmp_path / "rows.json"
        write_report(path, [{"mc": 1, "v": 0.5}, {"mc": 2, "v": 0.75}])
        doc = json.loads(path.read_text())
        assert doc["columns"] == ["mc", "v"]
        assert doc["rows"] == [[1, 0.5], [2, 0.75]]

    def test_report_object(self, tmp_path):
        rep = evaluate(FIX_IDS, FIX_EMB, FIX_LABELS)
        path = tmp_path / "rep.json"
        write_report(path, rep)
        doc = json.loads(path.read_text())
        assert doc["micro_map"] == pytest.approx(0.75)
        assert doc["queries"] == 5

    def test_empty_rows_rejected(self, tmp_path):
        with pytest.raises(ValidationError):
            write_report(tmp_path / "x.json", [])


def exact_rankings(e, ids, queries):
    """The exact path: each query's distance row and the other items by lexsort on (distance, id text)."""
    _, text = np.unique([str(i) for i in ids], return_inverse=True)
    dist = pairwise_distances(e, queries)
    orders = [np.lexsort((text, row)) for row in dist]
    return [(row, order[order != q]) for row, q, order in zip(dist, queries, orders)]


def exact_report(ids, e, labels):
    """evaluate's report computed on the exact path's rankings."""
    codes = label_codes(labels)
    queries = np.flatnonzero(np.bincount(codes)[codes] >= 2)
    per_query, by_class, top1, top5 = [], {}, 0, 0
    for q, (_, order) in zip(queries, exact_rankings(e, ids, queries)):
        rel = codes[order] == codes[q]
        ap = average_precision(rel)
        per_query.append({"id": ids[q], "class": labels[q], "ap": ap})
        by_class.setdefault(labels[q], []).append(ap)
        top1 += bool(rel[0])
        top5 += bool(rel[:5].any())
    means = {lab: float(np.mean(aps)) for lab, aps in by_class.items()}
    return RetrievalReport(float(np.mean([r["ap"] for r in per_query])), float(np.mean(list(means.values()))),
                           top1 / len(queries), top5 / len(queries), per_query, means, len(queries),
                           len(ids) - len(queries))


def retrieve_stdout(ids, e, queries, k):
    """What `retrieve --k k` prints for the given query ids, through a written embeddings file."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "emb.jsonl"
        write_embeddings(path, ids, e, np.zeros_like(e), "goal", 0)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["retrieve", "--embeddings", str(path),
                         "--query-ids", ",".join(str(ids[q]) for q in queries), "--k", str(k)])
    assert code == 0
    return out.getvalue()


FAMILIES = ("ties", "duplicates", "near-ties", "scaled")


def family_embeddings(family, n, d, exp, seed):
    """n x d embeddings of one family, scaled by a power of two (exact, so ties survive it)."""
    rng = np.random.default_rng(seed)
    if family == "ties":  # coordinates from five values
        e = rng.integers(-2, 3, size=(n, d)) * 0.5
    elif family == "duplicates":  # at most n // 2 + 1 distinct points
        m = rng.integers(1, n // 2 + 2)
        e = rng.normal(size=(m, d))[rng.integers(0, m, size=n)]
    elif family == "near-ties":  # a few points, copies of them one ulp apart in some coordinates
        e = rng.normal(size=(max(1, n // 4), d))[rng.integers(0, max(1, n // 4), size=n)]
        flip = rng.random((n, d)) < 0.3
        e = np.where(flip, np.nextafter(e, np.where(rng.random((n, d)) < 0.5, -np.inf, np.inf)), e)
    else:  # row norms spread over ten decades
        e = rng.normal(size=(n, d)) * 10.0 ** rng.uniform(0, 10, size=(n, 1))
    top = np.abs(e).max()
    # d < 2**8, so coordinates below 2**506 keep squared norms under the 2**1021 limit
    return e * 2.0 ** (min(exp, 506 - math.frexp(top)[1]) if top else exp)


def family_ids(n, seed):
    """Ids whose text order differs from index order; 3 and "3" share a text when n >= 3."""
    names = [f"i{k}" for k in np.random.default_rng(seed).permutation(n)]
    return [3, "3", 2.5, *names[3:]] if n >= 3 else names


class TestCertifiedRanker:
    @settings(max_examples=120, deadline=None, database=None)
    @given(family=st.sampled_from(FAMILIES), n=st.integers(2, 60), d=st.integers(1, 140),
           exp=st.integers(-545, 500), seed=st.integers(0, 2**32 - 1))
    @example(family="near-ties", n=40, d=3, exp=-530, seed=1)  # squares in the subnormal range
    @example(family="scaled", n=60, d=140, exp=-520, seed=2)  # norms from 1e-150 up
    @example(family="scaled", n=30, d=7, exp=460, seed=3)  # norms up to 1e150
    @example(family="duplicates", n=2, d=1, exp=0, seed=4)
    def test_same_orders_reports_and_stdout_as_exact_path(self, family, n, d, exp, seed):
        e = family_embeddings(family, n, d, exp, seed)
        ids = family_ids(n, seed)
        labels = list(np.random.default_rng(seed + 1).integers(0, max(1, n // 3), size=n))
        labels[1] = labels[0]
        queries = np.arange(n)
        exact = exact_rankings(e, ids, queries)
        for got, (_, want) in zip(ranked_galleries(e, ids, queries), exact, strict=True):
            assert np.array_equal(got, want)
        got, want = evaluate(ids, e, labels), exact_report(ids, e, labels)
        assert repr(got.to_dict()) == repr(want.to_dict())
        assert repr(got.per_query) == repr(want.per_query)
        # the query "3" would name both 3 and "3", so retrieve asks for the others
        asked = [q for q in queries if [str(i) for i in ids].count(str(ids[q])) == 1]
        printed = "".join(f"{ids[q]}\t{rank}\t{ids[i]}\t{exact[q][0][i]:.6f}\n" for q in asked
                          for rank, i in enumerate(exact[q][1][:5], start=1))
        assert retrieve_stdout(ids, e, asked, 5) == printed

    def count_exact_calls(self, monkeypatch):
        calls = []
        real = evaluation.pairwise_distances
        monkeypatch.setattr(evaluation, "pairwise_distances", lambda *a: calls.append(a) or real(*a))
        return calls

    def test_duplicates_fall_back_to_exact_distances(self, monkeypatch):
        rng = np.random.default_rng(0)
        e = np.repeat(rng.normal(size=(40, 8)), 3, axis=0)
        ids, labels = [f"x{i}" for i in range(120)], [i % 4 for i in range(120)]
        want = exact_report(ids, e, labels)
        calls = self.count_exact_calls(monkeypatch)
        assert repr(evaluate(ids, e, labels).to_dict()) == repr(want.to_dict())
        assert len(calls) == 120  # every query has two copies of itself, and of each other point

    def test_unit_vectors_need_no_fallback(self, monkeypatch):
        rng = np.random.default_rng(1)
        e = rng.normal(size=(300, 32))
        e /= np.linalg.norm(e, axis=1, keepdims=True)
        ids, labels = [f"u{i}" for i in range(300)], [i % 7 for i in range(300)]
        want = exact_report(ids, e, labels)
        calls = self.count_exact_calls(monkeypatch)
        assert repr(evaluate(ids, e, labels).to_dict()) == repr(want.to_dict())
        assert calls == []

    @settings(max_examples=40, deadline=None, database=None)
    @given(n=st.integers(2, 400), d=st.integers(1, 300), seed=st.integers(0, 2**32 - 1))
    def test_gathered_distances_are_pairwise_distances_bits(self, n, d, seed):
        rng = np.random.default_rng(seed)
        e = rng.normal(size=(n, d)) * 10.0 ** rng.uniform(-3, 3, size=(n, 1))
        q = int(rng.integers(n))
        cols = rng.permutation(n)[: rng.integers(1, n + 1)]
        got = gathered_distances(e, q, cols)
        assert np.array_equal(got.view(np.int64), pairwise_distances(e, [q])[0, cols].view(np.int64))

    def test_squared_norm_limit(self):
        top = 2.0 ** 510  # [top, top] has squared norm 2**1021 exactly
        ok = np.array([[top, top], [-top, -top], [0.0, 1.0]])
        rep = evaluate(["a", "b", "c"], ok, ["A", "B", "A"])
        assert rep.queries == 2 and np.isfinite(rep.micro_map)
        over = ok.copy()
        over[1, 0] = -np.nextafter(top, np.inf)  # the next larger coordinate
        with pytest.raises(ValidationError, match="item b is too large"):
            evaluate(["a", "b", "c"], over, ["A", "B", "A"])
