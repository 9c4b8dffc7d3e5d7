"""Joint conditional training over all notions of a dataset.

One training step consumes one mined triplet batch. Notions alternate
round-robin over draws: draw t of a run (a batch-hard step, or a
semi-hard draw, skipped or not) mines with the labels (and mask) of
notion t mod M, so a notion whose draws yield no triplet cannot starve
the others. Mining embeddings are computed without a mask source, so
without dropout; the gradient step itself runs stochastic forwards.
"""

import logging
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import autodiff
from .config import RunConfig, SOFT_MARGIN, TRIPLET, write_lines
from .data import DatasetFile
from .errors import DivergenceError, MiningError, ValidationError
from .losses import batch_objective, mask_penalty, triplet_batch_term
from .mining import (
    batch_hard_triplets,
    embed_in_chunks,
    pairwise_distances,
    pk_sample,
    semi_hard_draw,
    session_draws,
)
from .model import ConditionalNet, ModalitySpec, SEQUENCE, VECTOR, save_checkpoint
from .optim import Adam, lr_schedule
from .rng import RngStream

log = logging.getLogger(__name__)


@dataclass
class TrainResult:
    net: ConditionalNet
    history: list = field(default_factory=list)
    config: dict = field(default_factory=dict)


def build_net(dataset: DatasetFile, cfg: RunConfig, notions=None) -> ConditionalNet:
    """Instantiate the conditional network a dataset's header calls for.

    The soft-margin loss is defined on unnormalized embeddings, so that
    choice switches the output normalization off.
    """
    specs = []
    for m in dataset.modalities:
        if m.kind == VECTOR:
            specs.append(ModalitySpec(m.name, VECTOR, m.dim, hidden_dim=cfg.hidden_dim))
        else:
            specs.append(ModalitySpec(m.name, SEQUENCE, m.dim,
                                      hidden_dim=cfg.hidden_dim, samples=cfg.frame_samples))
    normalize = cfg.normalize and cfg.loss == TRIPLET
    return ConditionalNet(specs, list(notions or dataset.notions), cfg.embed_dim,
                          cfg.dropout, seed=cfg.seed, normalize=normalize)


def _descend(net, opt, emb, local_triplets, cfg, lr):
    """Objective on a [T, 3] batch of row indices into emb, then one Adam step; returns the loss."""
    margin = 0.0 if cfg.loss == SOFT_MARGIN else cfg.margin
    losses = triplet_batch_term(emb, local_triplets, margin)
    obj = batch_objective(losses, net.weight_matrices(), cfg.weight_decay)
    if cfg.mask_l1 > 0:
        obj = obj + mask_penalty(net.mask_parameters(), cfg.mask_l1)
    if not np.isfinite(obj.data):
        raise DivergenceError(f"non-finite training loss {float(obj.data)}")
    opt.zero_grad()
    obj.backward()
    opt.step(lr=lr)
    return float(obj.data)


def train(dataset: DatasetFile, cfg: RunConfig, out_dir=None, notions=None) -> TrainResult:
    """Run the full mining + optimization loop and return the trained net.

    notions restricts training (and the net's masks) to a subset, e.g.
    a specialized single-notion model. With out_dir set, checkpoint.json
    and history.json are written once each, after the last epoch, by
    config.write_lines. Fixed seed, fixed dataset: identical checkpoints
    across runs.
    """
    dataset.validate()
    if len(dataset.items) < 2:
        raise ValidationError("training needs at least two items")
    odd = [it.id for it in dataset.items if set(it.payloads) != set(dataset.items[0].payloads)]
    if odd:  # mining and triplet batches mix items, and a batch forward takes one modality set
        raise ValidationError(f"training needs one modality set; item {odd[0]} differs from item {dataset.items[0].id}")
    if notions is not None:
        unknown = sorted(set(notions) - set(dataset.notions))
        if unknown:
            raise ValidationError(f"unknown notions: {', '.join(unknown)}")
    net = build_net(dataset, cfg, notions=notions)
    packed = net.pack([it.payloads for it in dataset.items])
    opt = Adam(net.parameters(), lr=cfg.lr)
    labels = {n: dataset.labels_for(n) for n in net.notions}
    mine_rng_root = RngStream(cfg.seed, 1)
    drop_rng_root = RngStream(cfg.seed, 2)
    pk_rng_root = RngStream(cfg.seed, 3)
    out_dir = Path(out_dir) if out_dir is not None else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)

    history = []
    step = draws = 0  # draws: semi-hard draws so far, skipped ones too; it picks the notion
    for epoch in range(cfg.epochs):
        lr = lr_schedule(epoch, cfg.epochs, cfg.lr, cfg.decay_start)
        losses = []
        triplet_count = 0
        if cfg.miner == "batch-hard":
            steps = max(1, len(dataset.items) // (cfg.p_classes * cfg.k_per_class))
            for _ in range(steps):
                notion = net.notions[step % len(net.notions)]
                batch = pk_sample(labels[notion], cfg.p_classes, cfg.k_per_class,
                                  pk_rng_root.substream(step))
                emb = net.forward_batch(packed, batch.indices, notion, drop_rng_root.substream(step))
                local = batch_hard_triplets(emb.data, [labels[notion][i] for i in batch.indices])
                losses.append(_descend(net, opt, emb, local, cfg, lr))
                triplet_count += len(local)
                step += 1
        else:
            mine_rng = mine_rng_root.substream(epoch)
            for draw, items in enumerate(session_draws(len(dataset.items), dataset.sessions(),
                                                       cfg.sessions_per_draw, mine_rng)):
                notion = net.notions[draws % len(net.notions)]
                draws += 1

                def embed_fn(idxs):
                    with autodiff.no_grad():
                        return net.forward_batch(packed, idxs, notion).data

                dist = pairwise_distances(embed_in_chunks(items, embed_fn, cfg.batch_size))
                batch = semi_hard_draw(dist, [labels[notion][i] for i in items],
                                       cfg.triplet_cap, mine_rng)
                if batch is None:
                    log.warning("epoch %d: draw %d has no usable triplets; skipped", epoch, draw)
                    continue
                triplets = np.asarray(items, dtype=np.intp)[batch]
                uniq, local = np.unique(triplets, return_inverse=True)
                emb = net.forward_batch(packed, uniq, notion, drop_rng_root.substream(step))
                losses.append(_descend(net, opt, emb, local.reshape(-1, 3), cfg, lr))
                triplet_count += len(triplets)
                step += 1
        history.append({
            "epoch": epoch,
            "lr": lr,
            "steps": len(losses),
            "triplets": triplet_count,
            "mean_loss": float(np.mean(losses)) if losses else None,
        })
    if not step:
        raise MiningError("no optimizer step: every semi-hard draw had no usable triplet")
    if out_dir is not None:
        save_checkpoint(net, out_dir / "checkpoint.json")
        write_lines(out_dir / "history.json", [{"config": cfg.to_dict(), "epochs": history}])
    return TrainResult(net=net, history=history, config=cfg.to_dict())
