"""End-to-end training loop behavior on small synthetic datasets."""

import gc
import logging

import numpy as np
import pytest

from mcretrieval import (
    Adam,
    DivergenceError,
    RngStream,
    Tensor,
    ValidationError,
    model,
    training,
)
from mcretrieval.config import RunConfig
from mcretrieval.data import ModalityFormat, synth_generate
from mcretrieval.evaluation import evaluate
from mcretrieval.mining import semi_hard_draw
from mcretrieval.model import load_checkpoint
from mcretrieval.training import _descend, build_net, train
from mcretrieval.uncertainty import embed_dataset


def easy_dataset(seed=0, items=36, sessions=4):
    return synth_generate(
        notions={"goal": 3, "stim": 2},
        items=items,
        modalities=[
            ModalityFormat("vec", "vector", dim=8),
            ModalityFormat("seq", "sequence", dim=5, frames=3),
        ],
        noise={"vec": {"goal": 0.05, "stim": 0.05}, "seq": {"goal": 0.05, "stim": 0.05}},
        seed=seed,
        sessions=sessions,
    )


def small_cfg(**over):
    base = dict(
        embed_dim=16, hidden_dim=16, epochs=8, lr=0.01,
        batch_size=64, triplet_cap=120, dropout=0.1, seed=1,
        p_classes=2, k_per_class=3, frame_samples=2,
    )
    base.update(over)
    base.setdefault("decay_start", base["epochs"] // 2)
    return RunConfig(**base)


def disabled_embeddings(net, ds, notion):
    ids, means, _ = embed_dataset(net, ds.items, notion, mc=0, seed=0)
    return ids, means


class TestBuildNet:
    def test_modalities_and_notions_wired_through(self):
        ds = easy_dataset()
        net = build_net(ds, small_cfg())
        names = {m.name for m in net.modalities}
        assert names == {"vec", "seq"}
        assert net.notions == ["goal", "stim"]
        assert net.params["mask.goal"].data.shape == (16,)

    def test_soft_margin_turns_normalization_off(self):
        ds = easy_dataset()
        assert build_net(ds, small_cfg()).normalize is True
        assert build_net(ds, small_cfg(loss="soft-margin")).normalize is False


class TestSemiHardLoop:
    def test_loss_falls_and_retrieval_improves(self):
        ds = easy_dataset()
        cfg = small_cfg()
        before_net = build_net(ds, cfg)
        ids, emb0 = disabled_embeddings(before_net, ds, "goal")
        map0 = evaluate(ids, emb0, ds.labels_for("goal")).micro_map

        result = train(ds, cfg)
        assert result.history[-1]["mean_loss"] < result.history[0]["mean_loss"]
        ids, emb1 = disabled_embeddings(result.net, ds, "goal")
        map1 = evaluate(ids, emb1, ds.labels_for("goal")).micro_map
        assert map1 > map0

    def test_both_notions_trained(self):
        ds = easy_dataset()
        result = train(ds, small_cfg(epochs=12))
        for notion in ("goal", "stim"):
            ids, emb = disabled_embeddings(result.net, ds, notion)
            rep = evaluate(ids, emb, ds.labels_for(notion))
            assert rep.micro_map > 0.5, notion

    def test_reproducible_checkpoints(self, tmp_path):
        ds = easy_dataset()
        cfg = small_cfg(epochs=3)
        train(ds, cfg, out_dir=tmp_path / "a")
        train(ds, cfg, out_dir=tmp_path / "b")
        ca = (tmp_path / "a" / "checkpoint.json").read_bytes()
        cb = (tmp_path / "b" / "checkpoint.json").read_bytes()
        assert ca == cb
        assert (tmp_path / "a" / "history.json").exists()

    def test_seed_changes_outcome(self, tmp_path):
        ds = easy_dataset()
        train(ds, small_cfg(epochs=2), out_dir=tmp_path / "a")
        train(ds, small_cfg(epochs=2, seed=2), out_dir=tmp_path / "b")
        assert (tmp_path / "a" / "checkpoint.json").read_bytes() != (
            tmp_path / "b" / "checkpoint.json"
        ).read_bytes()

    def test_checkpoint_file_matches_returned_net(self, tmp_path):
        ds = easy_dataset()
        result = train(ds, small_cfg(epochs=2), out_dir=tmp_path)
        loaded = load_checkpoint(tmp_path / "checkpoint.json")
        for name, p in result.net.params.items():
            assert np.array_equal(loaded.params[name].data, p.data)

    def test_checkpoint_written_once_without_temp_file(self, tmp_path, monkeypatch):
        saved = []

        def save(net, path):
            saved.append(path)
            return model.save_checkpoint(net, path)

        monkeypatch.setattr(training, "save_checkpoint", save)
        train(easy_dataset(), small_cfg(epochs=3), out_dir=tmp_path)
        assert saved == [tmp_path / "checkpoint.json"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["checkpoint.json", "history.json"]

    def test_sessionless_dataset_trains(self):
        ds = easy_dataset(sessions=0)
        result = train(ds, small_cfg(epochs=2))
        assert result.history[0]["steps"] >= 1

    def test_draw_without_triplets_warns_once_and_takes_no_step(self, monkeypatch):
        # the benchmark counts skips as WARNINGs on this logger and checks
        # steps + skipped == draws, looking semi_hard_draw up in training
        calls = []

        def draw(*args):
            calls.append(args)
            return None if len(calls) == 2 else semi_hard_draw(*args)

        monkeypatch.setattr(training, "semi_hard_draw", draw)
        records = []
        handler = logging.Handler(logging.WARNING)
        handler.emit = records.append
        logger = logging.getLogger("mcretrieval.training")
        logger.addHandler(handler)
        try:
            result = train(easy_dataset(), small_cfg(epochs=2))
        finally:
            logger.removeHandler(handler)
        assert len(records) == 1 and records[0].levelno == logging.WARNING
        assert sum(h["steps"] for h in result.history) + 1 == len(calls)

    def test_skipped_draw_passes_the_notion_on(self, monkeypatch):
        # the notion rotates with every draw, so a notion whose draw is skipped does not take the next one
        ds = easy_dataset()
        notions = []

        def draw(dist, labels, *args):
            notions.append(next(n for n in ds.notions if labels[0] in ds.classes[n]))
            return None if len(notions) in (1, 2, 5) else semi_hard_draw(dist, labels, *args)

        monkeypatch.setattr(training, "semi_hard_draw", draw)
        result = train(ds, small_cfg(epochs=3))
        assert len(notions) == 6
        assert notions == [ds.notions[d % 2] for d in range(len(notions))]
        assert sum(h["steps"] for h in result.history) == len(notions) - 3


class TestDescend:
    def setup_method(self):
        self.ds = easy_dataset()
        self.cfg = small_cfg()
        self.net = build_net(self.ds, self.cfg)
        self.opt = Adam(self.net.parameters(), lr=self.cfg.lr)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_non_finite_loss_raises_before_any_update(self):
        before = {name: p.data.copy() for name, p in self.net.params.items()}
        emb = Tensor(np.full((3, self.cfg.embed_dim), np.inf), requires_grad=True)
        with pytest.raises(DivergenceError, match="non-finite training loss"):
            _descend(self.net, self.opt, emb, np.array([[0, 1, 2]]), self.cfg, self.cfg.lr)
        for name, p in self.net.params.items():
            assert np.array_equal(p.data, before[name]), name

    def test_step_graph_freed_without_cycle_collector(self):
        payloads = [it.payloads for it in self.ds.items[:6]]
        gc.collect()
        gc.disable()
        try:
            emb = self.net.forward_batch(self.net.pack(payloads), np.arange(6), "goal", RngStream(1, 2))
            _descend(self.net, self.opt, emb, np.array([[0, 1, 2], [3, 4, 5]]), self.cfg, self.cfg.lr)
            del emb
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestBatchHardLoop:
    def test_loss_falls(self):
        ds = easy_dataset(items=40)
        cfg = small_cfg(miner="batch-hard", epochs=10, p_classes=2, k_per_class=4)
        result = train(ds, cfg)
        assert result.history[-1]["mean_loss"] < result.history[0]["mean_loss"]
        assert result.history[0]["steps"] == 40 // (2 * 4)

    def test_deficient_classes_surface_as_sampling_error(self):
        from mcretrieval import SamplingError

        ds = easy_dataset(items=12)
        cfg = small_cfg(miner="batch-hard", epochs=1, p_classes=3, k_per_class=6)
        with pytest.raises(SamplingError):
            train(ds, cfg)


class TestVariants:
    def test_soft_margin_trains_unnormalized(self):
        ds = easy_dataset()
        # margin-free hinges go quiet as soon as any gap opens, so this
        # variant needs noticeably more epochs than the unit-norm loss
        cfg = small_cfg(loss="soft-margin", epochs=40)
        ids, emb0 = disabled_embeddings(build_net(ds, cfg), ds, "goal")
        map0 = evaluate(ids, emb0, ds.labels_for("goal")).micro_map
        result = train(ds, cfg)
        ids, emb = disabled_embeddings(result.net, ds, "goal")
        norms = np.linalg.norm(emb, axis=1)
        assert not np.allclose(norms, 1.0)
        # the mined loss is not stationary across epochs; judge by retrieval
        assert evaluate(ids, emb, ds.labels_for("goal")).micro_map > map0

    def test_mask_l1_shrinks_gates(self):
        ds = easy_dataset()
        result = train(ds, small_cfg(mask_l1=0.05, epochs=6))
        post = sum(
            np.maximum(result.net.params[f"mask.{n}"].data, 0).sum() for n in ("goal", "stim")
        )
        assert post < 2 * 16  # both gates started fully open

    def test_weight_decay_limits_weight_growth(self):
        ds = easy_dataset()
        free = train(ds, small_cfg(epochs=6)).net
        decayed = train(ds, small_cfg(epochs=6, weight_decay=0.01)).net

        def wnorm(net):
            return sum(float(np.sum(w.data ** 2)) for w in net.weight_matrices())

        assert wnorm(decayed) < wnorm(free)

    def test_tiny_dataset_rejected(self):
        ds = easy_dataset()
        ds.items = ds.items[:1]
        with pytest.raises(ValidationError):
            train(ds, small_cfg())
