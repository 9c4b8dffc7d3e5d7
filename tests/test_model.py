"""Conditional network forward, masks, fusion, and checkpoints."""

import numpy as np
import pytest

from mcretrieval import (
    DISABLED,
    STOCHASTIC,
    DropoutSpec,
    RngStream,
    ShapeError,
    ValidationError,
)
from mcretrieval import autodiff
from mcretrieval.gradcheck import grad_check
from mcretrieval.losses import triplet_term
from mcretrieval.model import (
    ConditionalNet,
    ModalitySpec,
    load_checkpoint,
    sample_frame_indices,
    save_checkpoint,
)

DIS = DropoutSpec(0.1, DISABLED)


def small_net(normalize=True, p=0.1, seed=3):
    mods = [
        ModalitySpec("vec", "vector", 5),
        ModalitySpec("seq", "sequence", 4, hidden_dim=6, samples=2),
    ]
    return ConditionalNet(mods, ["goal", "stim"], embed_dim=8, dropout_rate=p, seed=seed, normalize=normalize)


def payloads(rng, t=3):
    return {"vec": rng.normal(size=5), "seq": rng.normal(size=(t, 4))}


def encode_oracle(net, name, payload):
    # small_net's encoder for one modality in numpy, dropout off
    pre = f"enc.{name}"
    w = {k: p.data for k, p in net.params.items() if k.startswith(pre)}
    if name == "vec":
        return payload @ w[f"{pre}.w0"] + w[f"{pre}.b0"]
    h = np.zeros(net.embed_dim)
    for t in sample_frame_indices(len(payload), 2, DIS, None):
        frame = np.tanh(payload[t] @ w[f"{pre}.frame.w"] + w[f"{pre}.frame.b"])
        h = np.tanh(frame @ w[f"{pre}.rnn.wx"] + h @ w[f"{pre}.rnn.wh"] + w[f"{pre}.rnn.b"])
    return h


class TestShapes:
    def test_sensor_like_dims(self):
        # 8-wide frames through an 8x128 encoder into a 128-unit recurrence
        m = ModalitySpec("can", "sequence", 8, hidden_dim=128, samples=3)
        net = ConditionalNet([m], ["goal"], embed_dim=128, dropout_rate=0.1, seed=0)
        out = net.forward({"can": np.random.default_rng(0).normal(size=(5, 8))}, "goal", DIS)
        assert out.data.shape == (128,)
        assert net.params["enc.can.frame.w"].data.shape == (8, 128)
        assert net.params["enc.can.rnn.wh"].data.shape == (128, 128)

    def test_grid_cells_shared_dense(self):
        # per-cell map shared across a 4-cell frame, outputs re-flattened
        m = ModalitySpec("cam", "sequence", 8, hidden_dim=12, samples=1, cells=4)
        net = ConditionalNet([m], ["goal"], embed_dim=6, dropout_rate=0.0, seed=1)
        frame = np.random.default_rng(2).normal(size=8)
        got = net._encode_frame(m, autodiff.Tensor(frame), DIS, None).data
        w = net.params["enc.cam.frame.w"].data
        b = net.params["enc.cam.frame.b"].data
        want = np.tanh((frame.reshape(4, 2) @ w + b).reshape(12))
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_vector_single_layer_is_affine(self):
        m = ModalitySpec("v", "vector", 3)
        net = ConditionalNet([m], ["goal"], embed_dim=3, dropout_rate=0.0, seed=0, normalize=False)
        w = net.params["enc.v.w0"]
        b = net.params["enc.v.b0"]
        w.data = np.eye(3)
        b.data = np.array([1.0, 0.0, -1.0])
        x = np.array([0.5, 2.0, 3.0])
        out = net.forward({"v": x}, "goal", DIS).data
        np.testing.assert_allclose(out, x + b.data, atol=1e-15)

    def test_payload_shape_errors(self):
        net = small_net()
        rng = np.random.default_rng(0)
        with pytest.raises(ShapeError):
            net.forward({"vec": rng.normal(size=6)}, "goal", DIS)
        with pytest.raises(ShapeError):
            net.forward({"seq": rng.normal(size=(3, 5))}, "goal", DIS)
        with pytest.raises(ValidationError):
            net.forward({}, "goal", DIS)
        with pytest.raises(ValidationError):
            net.forward(payloads(rng), "nope", DIS)
        with pytest.raises(ValidationError):
            net.forward({"bogus": rng.normal(size=5)}, "goal", DIS)


class TestFrameSampling:
    def test_disabled_is_deterministic_and_even(self):
        idx = sample_frame_indices(7, 3, DIS, None)
        assert idx.tolist() == [0, 3, 6]

    def test_full_length_sequences_use_all_frames_either_mode(self):
        sto = DropoutSpec(0.0, STOCHASTIC)
        assert sample_frame_indices(3, 3, DIS, None).tolist() == [0, 1, 2]
        assert sample_frame_indices(3, 3, sto, RngStream(0, 0)).tolist() == [0, 1, 2]

    def test_stochastic_sorted_no_replacement(self):
        sto = DropoutSpec(0.1, STOCHASTIC)
        for s in range(20):
            idx = sample_frame_indices(10, 4, sto, RngStream(1, s))
            assert len(set(idx.tolist())) == 4
            assert sorted(idx.tolist()) == idx.tolist()

    def test_short_sequence_samples_with_replacement(self):
        sto = DropoutSpec(0.1, STOCHASTIC)
        idx = sample_frame_indices(2, 5, sto, RngStream(2, 0))
        assert len(idx) == 5 and set(idx.tolist()) <= {0, 1}


class TestForward:
    def test_unit_norm_output(self):
        net = small_net()
        rng = np.random.default_rng(1)
        for _ in range(10):
            out = net.forward(payloads(rng), "goal", DIS).data
            assert abs(np.linalg.norm(out) - 1.0) < 1e-6

    def test_normalize_disabled(self):
        net = small_net(normalize=False)
        out = net.forward(payloads(np.random.default_rng(2)), "goal", DIS).data
        assert abs(np.linalg.norm(out) - 1.0) > 1e-6

    def test_disabled_forward_bit_reproducible(self):
        net = small_net()
        p = payloads(np.random.default_rng(3))
        a = net.forward(p, "goal", DIS).data
        b = net.forward(p, "goal", DIS).data
        assert np.array_equal(a, b)

    def test_stochastic_same_stream_reproducible(self):
        net = small_net()
        p = payloads(np.random.default_rng(4))
        spec = DropoutSpec(0.3, STOCHASTIC)
        a = net.forward(p, "goal", spec, RngStream(9, 4)).data
        b = net.forward(p, "goal", spec, RngStream(9, 4)).data
        assert np.array_equal(a, b)

    def test_rate_zero_stochastic_collapses_to_baseline(self):
        # frame grid and dropout must both turn deterministic at rate 0
        net = small_net(p=0.0)
        p = payloads(np.random.default_rng(5), t=9)
        spec = DropoutSpec(0.0, STOCHASTIC)
        a = net.forward(p, "goal", spec, RngStream(0, 0)).data
        b = net.forward(p, "goal", spec, RngStream(0, 7)).data
        base = net.forward(p, "goal", DropoutSpec(0.0, DISABLED)).data
        assert np.array_equal(a, b)
        assert np.array_equal(a, base)

    def test_missing_modality_excluded_from_mean(self):
        net = small_net()
        rng = np.random.default_rng(6)
        p = payloads(rng)
        e_vec = encode_oracle(net, "vec", p["vec"])
        only_vec = net.forward({"vec": p["vec"]}, "goal", DIS).data
        mask = np.maximum(net.params["mask.goal"].data, 0.0)
        want = e_vec * mask
        np.testing.assert_allclose(only_vec, want / np.linalg.norm(want), atol=1e-12)

    def test_fusion_is_mean_of_modalities(self):
        net = small_net(normalize=False)
        # make masks pass-through so the output is the fused vector itself
        net.params["mask.goal"].data = np.ones(8)
        rng = np.random.default_rng(7)
        p = payloads(rng)
        e1 = encode_oracle(net, "vec", p["vec"])
        e2 = encode_oracle(net, "seq", p["seq"])
        out = net.forward(p, "goal", DIS).data
        np.testing.assert_allclose(out, (e1 + e2) / 2.0, atol=1e-12)

    def test_fuse_permutation_invariant(self):
        net = small_net()
        rng = np.random.default_rng(8)
        a = autodiff.Tensor(rng.normal(size=8))
        b = autodiff.Tensor(rng.normal(size=8))
        np.testing.assert_allclose(net.fuse([a, b]).data, net.fuse([b, a]).data, atol=1e-15)


class TestMasks:
    def test_equal_masks_make_notions_indistinguishable(self):
        net = small_net()
        net.params["mask.stim"].data = net.params["mask.goal"].data.copy()
        p = payloads(np.random.default_rng(9))
        a = net.forward(p, "goal", DIS).data
        b = net.forward(p, "stim", DIS).data
        np.testing.assert_allclose(a, b, atol=1e-15)

    def test_disjoint_masks_give_orthogonal_embeddings(self):
        net = small_net()
        net.params["mask.goal"].data = np.array([1.0] * 4 + [0.0] * 4)
        net.params["mask.stim"].data = np.array([0.0] * 4 + [1.0] * 4)
        p = payloads(np.random.default_rng(10))
        a = net.forward(p, "goal", DIS).data
        b = net.forward(p, "stim", DIS).data
        assert abs(np.dot(a, b)) < 1e-12

    def test_negative_mask_entries_rectified_to_zero(self):
        net = small_net()
        net.params["mask.goal"].data = np.array([1.0, -5.0, 2.0, -1.0, 1.0, 1.0, -2.0, 1.0])
        out = net.forward(payloads(np.random.default_rng(11)), "goal", DIS).data
        assert out[1] == 0.0 and out[3] == 0.0 and out[6] == 0.0

    def test_mask_scale_invariance_under_normalization(self):
        net = small_net()
        p = payloads(np.random.default_rng(12))
        a = net.forward(p, "goal", DIS).data
        net.params["mask.goal"].data = net.params["mask.goal"].data * 7.0
        b = net.forward(p, "goal", DIS).data
        np.testing.assert_allclose(a, b, atol=1e-12)


class TestBatchPath:
    def test_matches_per_item_forward(self):
        net = small_net()
        rng = np.random.default_rng(13)
        batch = [payloads(rng, t=int(rng.integers(2, 6))) for _ in range(7)]
        got = net.forward_batch(batch, "goal", DIS).data
        want = np.stack([net.forward(p, "goal", DIS).data for p in batch])
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_batch_requires_common_modality(self):
        net = small_net()
        rng = np.random.default_rng(14)
        batch = [{"vec": rng.normal(size=5)}, {"seq": rng.normal(size=(3, 4))}]
        with pytest.raises(ValidationError):
            net.forward_batch(batch, "goal", DIS)


class TestGradients:
    def test_end_to_end_gradcheck(self):
        net = small_net(p=0.0)
        rng = np.random.default_rng(15)
        pls = [payloads(rng) for _ in range(3)]

        def f():
            a, p, n = (net.forward(x, "goal", DIS) for x in pls)
            return triplet_term(a, p, n, 0.5)

        report = grad_check(f, net.parameters())
        assert report.passed, report.per_param

    def test_gradcheck_with_frozen_stochastic_mask(self):
        net = small_net(p=0.2)
        rng = np.random.default_rng(16)
        pls = [payloads(rng) for _ in range(3)]
        spec = DropoutSpec(0.2, STOCHASTIC)

        def f():
            # same stream every call, so the dropout mask is a constant
            r = RngStream(21, 0)
            a, p, n = (net.forward(x, "goal", spec, r) for x in pls)
            return triplet_term(a, p, n, 0.5)

        report = grad_check(f, net.parameters())
        assert report.passed, report.per_param


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        net = small_net(seed=77)
        path = tmp_path / "net.ckpt"
        save_checkpoint(net, path)
        loaded = load_checkpoint(path)
        assert set(loaded.params) == set(net.params)
        for name in net.params:
            assert np.array_equal(loaded.params[name].data, net.params[name].data)
        p = payloads(np.random.default_rng(17))
        np.testing.assert_array_equal(
            net.forward(p, "stim", DIS).data, loaded.forward(p, "stim", DIS).data
        )

    def test_same_net_same_bytes(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        save_checkpoint(small_net(seed=5), a)
        save_checkpoint(small_net(seed=5), b)
        assert a.read_bytes() == b.read_bytes()

    def test_shape_mismatch_rejected(self, tmp_path):
        import json

        net = small_net()
        path = tmp_path / "net.ckpt"
        save_checkpoint(net, path)
        doc = json.loads(path.read_text())
        doc["params"]["mask.goal"]["shape"] = [9]
        doc["params"]["mask.goal"]["data"] = [1.0] * 9
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match="mask.goal"):
            load_checkpoint(path)

    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_text('{"format": "something-else"}')
        with pytest.raises(ValidationError):
            load_checkpoint(path)

    def test_init_reproducible_from_seed(self):
        a = small_net(seed=123)
        b = small_net(seed=123)
        for name in a.params:
            assert np.array_equal(a.params[name].data, b.params[name].data)
