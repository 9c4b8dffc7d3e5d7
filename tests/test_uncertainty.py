"""Monte Carlo embedding statistics and their serialization."""

import json

import numpy as np
import pytest

from mcretrieval import DISABLED, STOCHASTIC, DropoutSpec, ParseError, RngStream, ValidationError
from mcretrieval import uncertainty
from mcretrieval.model import ConditionalNet, ModalitySpec
from mcretrieval.rng import RowStreams
from mcretrieval.uncertainty import (
    ITEM_STREAM_STRIDE,
    aggregate_passes,
    dataset_uncertainty,
    embed_dataset,
    mc_embed,
    per_class_uncertainty,
    read_embeddings,
    write_embeddings,
)


def small_net(p=0.3):
    mods = [
        ModalitySpec("vec", "vector", 5),
        ModalitySpec("seq", "sequence", 4, hidden_dim=6, samples=2),
    ]
    return ConditionalNet(mods, ["goal", "stim"], embed_dim=8, dropout_rate=p, seed=11)


def payloads(rng, t=4):
    return {"vec": rng.normal(size=5), "seq": rng.normal(size=(t, 4))}


class TestAggregate:
    def test_mean_and_unbiased_variance(self):
        passes = np.array([[1.0, 2.0], [3.0, 6.0], [5.0, 4.0]])
        out = aggregate_passes(passes)
        np.testing.assert_allclose(out.mean, [3.0, 4.0])
        np.testing.assert_allclose(out.variance, [4.0, 4.0])
        assert out.mc_count == 3

    def test_single_pass_variance_zero(self):
        out = aggregate_passes(np.array([[0.5, -2.0]]))
        np.testing.assert_array_equal(out.variance, [0.0, 0.0])
        np.testing.assert_array_equal(out.mean, [0.5, -2.0])

    def test_pass_order_invariance_is_exact(self):
        rng = np.random.default_rng(0)
        passes = rng.normal(size=(50, 16))
        a = aggregate_passes(passes)
        for s in range(5):
            perm = np.random.default_rng(s).permutation(50)
            b = aggregate_passes(passes[perm])
            assert np.array_equal(a.mean, b.mean)
            assert np.array_equal(a.variance, b.variance)


class TestMcEmbed:
    def test_disabled_collapses_to_deterministic_pass(self):
        net = small_net()
        p = payloads(np.random.default_rng(1))
        direct = net.forward(p, "goal", DropoutSpec(net.dropout_rate, DISABLED)).data
        for mc in (1, 50):
            out = mc_embed(net, p, "goal", mc=mc, seed=4, mode=DISABLED)
            assert np.array_equal(out.mean, direct)
            assert np.array_equal(out.variance, np.zeros(8))

    def test_single_stochastic_pass(self):
        net = small_net()
        p = payloads(np.random.default_rng(2))
        out = mc_embed(net, p, "goal", mc=1, seed=9)
        assert np.array_equal(out.variance, np.zeros(8))
        assert out.mc_count == 1
        assert abs(np.linalg.norm(out.mean) - 1.0) < 1e-9

    def test_reproducible_from_seed(self):
        net = small_net()
        p = payloads(np.random.default_rng(3))
        a = mc_embed(net, p, "goal", mc=12, seed=7)
        b = mc_embed(net, p, "goal", mc=12, seed=7)
        assert np.array_equal(a.mean, b.mean)
        assert np.array_equal(a.variance, b.variance)
        c = mc_embed(net, p, "goal", mc=12, seed=8)
        assert not np.array_equal(a.mean, c.mean)

    def test_stochastic_spread_is_positive(self):
        net = small_net()
        p = payloads(np.random.default_rng(4))
        out = mc_embed(net, p, "goal", mc=20, seed=0)
        assert out.variance.max() > 0.0
        # averaged embedding drifts inside the ball unless renormalized
        assert np.linalg.norm(out.mean) < 1.0
        ren = mc_embed(net, p, "goal", mc=20, seed=0, renormalize=True)
        assert abs(np.linalg.norm(ren.mean) - 1.0) < 1e-9

    def test_mean_variance_shrinks_roughly_inverse_in_passes(self):
        # spread of the MC mean across repeats should fall near 1/n
        net = small_net()
        p = payloads(np.random.default_rng(5))
        reps = 40

        def spread(mc, base):
            means = [mc_embed(net, p, "goal", mc=mc, seed=base + 1000 * r).mean for r in range(reps)]
            return np.mean(np.var(np.stack(means), axis=0))

        ratio = spread(10, 1) / spread(40, 2)
        assert 2.5 < ratio < 6.0

    def test_argument_validation(self):
        net = small_net()
        p = payloads(np.random.default_rng(6))
        with pytest.raises(ValidationError):
            mc_embed(net, p, "goal", mc=0, seed=1)
        with pytest.raises(ValidationError):
            mc_embed(net, p, "goal", mc=5, seed=-1)


class TestDataset:
    def test_embeds_each_item_with_disjoint_stream_blocks(self):
        net = small_net()
        rng = np.random.default_rng(7)
        items = [(f"it{i}", payloads(rng)) for i in range(4)]
        ids, means, variances = embed_dataset(net, items, "goal", mc=3, seed=100)
        assert ids == ["it0", "it1", "it2", "it3"]
        assert means.shape == (4, 8) and variances.shape == (4, 8)
        # item i must reproduce a standalone call seeded at its block start
        solo = mc_embed(net, items[2][1], "goal", mc=3, seed=100 + 2 * ITEM_STREAM_STRIDE)
        assert np.array_equal(means[2], solo.mean)
        assert np.array_equal(variances[2], solo.variance)

    def test_raising_mc_only_appends_passes(self):
        # the per-item block start must not move with mc, so sweep points
        # at different mc share their early passes (common random numbers)
        net = small_net()
        rng = np.random.default_rng(17)
        items = [(f"it{i}", payloads(rng)) for i in range(3)]
        _, lo, _ = embed_dataset(net, items, "goal", mc=4, seed=5)
        _, hi, _ = embed_dataset(net, items, "goal", mc=6, seed=5)
        for i, (_, p) in enumerate(items):
            block = 5 + i * ITEM_STREAM_STRIDE
            assert np.array_equal(lo[i], mc_embed(net, p, "goal", mc=4, seed=block).mean)
            assert np.array_equal(hi[i], mc_embed(net, p, "goal", mc=6, seed=block).mean)

    def test_modality_filter(self):
        net = small_net()
        rng = np.random.default_rng(8)
        items = [("a", payloads(rng))]
        _, means, _ = embed_dataset(net, items, "goal", mc=1, seed=0, modalities=["vec"])
        only = mc_embed(net, {"vec": items[0][1]["vec"]}, "goal", mc=1, seed=0)
        assert np.array_equal(means[0], only.mean)
        with pytest.raises(ValidationError):
            embed_dataset(net, items, "goal", mc=1, seed=0, modalities=["seq_missing"])


def per_pass_oracle(net, items, notion, mc, seed):
    """Each pass as its own batch-of-one forward on RngStream(block, block + j)."""
    spec = DropoutSpec(net.dropout_rate, STOCHASTIC)
    means, variances = [], []
    for i, (_, p) in enumerate(items):
        block = seed + i * ITEM_STREAM_STRIDE
        agg = aggregate_passes(np.stack([net.forward(p, notion, spec, RngStream(block, block + j)).data
                                         for j in range(mc)]))
        means.append(agg.mean)
        variances.append(agg.variance)
    return np.array(means), np.array(variances)


BATCH_NETS = {
    "vector": ([ModalitySpec("v", "vector", 6)], True),
    "vector_hidden": ([ModalitySpec("v", "vector", 6, hidden_dim=5)], True),
    "sequence_cells": ([ModalitySpec("s", "sequence", 4, hidden_dim=6, samples=3, cells=2)], True),
    "unnormalized": ([ModalitySpec("v", "vector", 6, hidden_dim=5),
                      ModalitySpec("s", "sequence", 4, hidden_dim=6, samples=2)], False),
}


def batch_item(rng, mods, t):
    return {m.name: rng.normal(size=(t, m.input_dim) if m.kind == "sequence" else m.input_dim)
            for m in mods}


class TestBatchedPasses:
    @pytest.mark.parametrize("case", sorted(BATCH_NETS))
    def test_matches_per_pass_oracle(self, case):
        mods, normalize = BATCH_NETS[case]
        net = ConditionalNet(mods, ["goal"], embed_dim=7, dropout_rate=0.3, seed=4, normalize=normalize)
        rng = np.random.default_rng(12)
        items = [(f"it{i}", batch_item(rng, mods, t=2 + i)) for i in range(5)]
        ids, means, variances = embed_dataset(net, items, "goal", mc=9, seed=31)
        want_means, want_vars = per_pass_oracle(net, items, "goal", 9, 31)
        assert ids == [f"it{i}" for i in range(5)]
        np.testing.assert_allclose(means, want_means, rtol=0, atol=1e-12)
        np.testing.assert_allclose(variances, want_vars, rtol=0, atol=1e-12)
        assert variances.max() > 0

    def test_mixed_modality_sets_match_single_items(self):
        net = small_net()
        rng = np.random.default_rng(13)
        items = []
        for i in range(6):
            p = payloads(rng, t=3 + i)
            keep = [["vec", "seq"], ["vec"], ["seq"]][i % 3]
            items.append((f"it{i}", {k: p[k] for k in keep}))
        _, means, variances = embed_dataset(net, items, "goal", mc=4, seed=2)
        for i, (_, p) in enumerate(items):
            solo = mc_embed(net, p, "goal", mc=4, seed=2 + i * ITEM_STREAM_STRIDE)
            assert np.array_equal(means[i], solo.mean)
            assert np.array_equal(variances[i], solo.variance)

    def test_chunks_match_one_item_at_a_time(self, monkeypatch):
        net = small_net()
        rng = np.random.default_rng(14)
        items = [(f"it{i}", payloads(rng)) for i in range(7)]
        _, whole, whole_var = embed_dataset(net, items, "goal", mc=3, seed=8)
        # 7 rows per forward holds two items of 3 passes: 4 chunks, the last one item
        monkeypatch.setattr(uncertainty, "CHUNK_ROWS", 7)
        _, chunked, chunked_var = embed_dataset(net, items, "goal", mc=3, seed=8)
        assert np.array_equal(whole, chunked) and np.array_equal(whole_var, chunked_var)
        for i, (_, p) in enumerate(items):
            solo = mc_embed(net, p, "goal", mc=3, seed=8 + i * ITEM_STREAM_STRIDE)
            assert np.array_equal(chunked[i], solo.mean)
            assert np.array_equal(chunked_var[i], solo.variance)

    def test_rate_zero_stochastic_equals_disabled(self):
        net = small_net(p=0.0)
        rng = np.random.default_rng(15)
        items = [(f"it{i}", payloads(rng, t=3 + i)) for i in range(4)]
        _, sto, sto_var = embed_dataset(net, items, "goal", mc=1, seed=6, mode=STOCHASTIC)
        _, det, _ = embed_dataset(net, items, "goal", mc=1, seed=6, mode=DISABLED)
        assert np.array_equal(sto, det)
        assert not sto_var.any()
        # with more passes every row is still the deterministic forward
        batch = [p for _, p in items for _ in range(3)]
        streams = RowStreams(RngStream(6, 6 + j) for j in range(len(batch)))
        rows = net.forward_batch(batch, "goal", DropoutSpec(0.0, STOCHASTIC), streams).data
        base = net.forward_batch(batch, "goal", DropoutSpec(0.0, DISABLED)).data
        assert np.array_equal(rows, base)

    def test_checks_moved_from_mc_embed(self):
        net = small_net()
        p = payloads(np.random.default_rng(16))
        for bad in ({}, {"bogus": np.zeros(5)}):
            with pytest.raises(ValidationError):
                embed_dataset(net, [("a", p), ("b", bad)], "goal", mc=2, seed=0)
        with pytest.raises(ValidationError):
            embed_dataset(net, [("a", p)], "goal", mc=0, seed=0)
        with pytest.raises(ValidationError):
            embed_dataset(net, [("a", p)], "goal", mc=2, seed=-1)


class TestSummaries:
    def test_per_class_rows(self):
        variances = np.array([[0.2, 0.4], [0.4, 0.6], [1.0, 3.0]])
        rows = per_class_uncertainty(variances, ["a", "a", "b"])
        assert [r["class"] for r in rows] == ["a", "b"]
        a, b = rows
        assert a["size"] == 2 and b["size"] == 1
        assert a["uncertainty"] == pytest.approx(0.4)
        assert a["size_normalized"] == pytest.approx(0.2)
        assert b["uncertainty"] == pytest.approx(2.0)
        assert b["size_normalized"] == pytest.approx(2.0)

    def test_per_class_sorted_by_size_then_name(self):
        variances = np.ones((5, 2))
        rows = per_class_uncertainty(variances, ["z", "m", "m", "q", "z"])
        assert [r["class"] for r in rows] == ["m", "z", "q"]

    def test_dataset_uncertainty_normalizes_by_class_count(self):
        variances = np.array([[0.3, 0.5], [0.7, 0.9]])
        got = dataset_uncertainty(variances, ["x", "y"])
        assert got == pytest.approx(0.6 / 2)

    def test_label_length_mismatch(self):
        with pytest.raises(ValidationError):
            per_class_uncertainty(np.ones((3, 2)), ["a", "b"])


class TestSerialization:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(9)
        ids = ["q1", "q2", "q3"]
        means = rng.normal(size=(3, 4))
        variances = np.abs(rng.normal(size=(3, 4)))
        path = tmp_path / "emb.jsonl"
        write_embeddings(path, ids, means, variances, notion="goal", mc=17)
        out = read_embeddings(path)
        assert out.ids == ids
        assert out.notion == "goal" and out.mc == 17
        assert np.array_equal(out.means, means)
        assert np.array_equal(out.variances, variances)

    def test_parse_error_carries_line_number(self, tmp_path):
        path = tmp_path / "emb.jsonl"
        rng = np.random.default_rng(10)
        write_embeddings(path, ["a", "b"], rng.normal(size=(2, 3)), np.ones((2, 3)), "goal", 5)
        lines = path.read_text().splitlines()
        lines[1] = "{not json"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as exc:
            read_embeddings(path)
        assert exc.value.line == 2
        assert "emb.jsonl:2:" in str(exc.value)

    def test_missing_key_is_parse_error(self, tmp_path):
        path = tmp_path / "emb.jsonl"
        path.write_text('{"id": "a", "notion": "goal", "mc": 3, "mean": [1.0]}\n')
        with pytest.raises(ParseError) as exc:
            read_embeddings(path)
        assert exc.value.line == 1

    @pytest.mark.parametrize("field", ["mean", "variance"])
    def test_ragged_row_is_parse_error(self, tmp_path, field):
        path = tmp_path / "emb.jsonl"
        write_embeddings(path, ["a", "b", "c"], np.zeros((3, 3)), np.ones((3, 3)), "goal", 5)
        lines = path.read_text().splitlines()
        rec = json.loads(lines[2])
        rec[field] = rec[field][:2]
        lines[2] = json.dumps(rec)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as exc:
            read_embeddings(path)
        assert exc.value.line == 3

    def test_duplicate_id_is_parse_error(self, tmp_path):
        path = tmp_path / "emb.jsonl"
        write_embeddings(path, ["a", "b", "a"], np.zeros((3, 2)), np.ones((3, 2)), "goal", 5)
        with pytest.raises(ParseError, match="duplicate id 'a'") as exc:
            read_embeddings(path)
        assert exc.value.line == 3
