"""Triplet mining: PK batches, batch-hard selection, semi-hard session draws.

Mining is pure index arithmetic over a distance matrix; embeddings are
produced by a caller-supplied function so the mining schedule itself
stays independent of any particular network.
"""

from dataclasses import dataclass

import numpy as np

from .errors import MiningError, SamplingError, ShapeError, ValidationError
from .rng import RngStream


def pairwise_distances(embeddings, block: int = 512) -> np.ndarray:
    """Full Euclidean distance matrix; exactly symmetric with a zero diagonal."""
    e = np.asarray(embeddings, dtype=np.float64)
    if e.ndim != 2:
        raise ShapeError(f"embeddings must be [n, d], got {e.shape}")
    n = e.shape[0]
    out = np.empty((n, n))
    for lo in range(0, n, block):
        hi = min(lo + block, n)
        diff = e[lo:hi, None, :] - e[None, :, :]
        out[lo:hi] = np.sqrt(np.sum(diff * diff, axis=2))
    return out


@dataclass
class PkBatch:
    """Indices for a P-class, K-items-per-class batch."""

    indices: np.ndarray
    classes: list
    p: int
    k: int


def pk_sample(labels, p: int, k: int, rng: RngStream) -> PkBatch:
    """Draw P classes uniformly, then K items per class, all without replacement."""
    if p < 1 or k < 1:
        raise ValidationError(f"P and K must be positive, got P={p} K={k}")
    labels = list(labels)
    by_class = {}
    for i, lab in enumerate(labels):
        by_class.setdefault(lab, []).append(i)
    classes = sorted(by_class)
    eligible = [c for c in classes if len(by_class[c]) >= k]
    if len(eligible) < p:
        deficient = [c for c in classes if len(by_class[c]) < k]
        raise SamplingError(
            f"need {p} classes with >= {k} items, found {len(eligible)}"
            f" (deficient: {deficient})",
            deficient_classes=deficient,
        )
    chosen = [eligible[i] for i in rng.choice(len(eligible), size=p, replace=False)]
    picks = []
    for c in chosen:
        members = by_class[c]
        picks.extend(members[i] for i in rng.choice(len(members), size=k, replace=False))
    return PkBatch(indices=np.array(picks, dtype=np.intp), classes=chosen, p=p, k=k)


def batch_hard_triplets(embeddings, labels) -> np.ndarray:
    """Per anchor: farthest positive and nearest negative, ties to the lowest index.

    Anchors whose label has no second item are skipped; a batch with no
    usable anchor or with a single class cannot be mined.
    """
    labels = np.asarray(labels)
    d = pairwise_distances(embeddings)
    n = d.shape[0]
    if labels.shape != (n,):
        raise ShapeError(f"labels length {labels.shape} does not match {n} embeddings")
    if len(set(labels.tolist())) < 2:
        raise MiningError("batch-hard mining needs at least two classes in the batch")
    same = labels[:, None] == labels[None, :]
    eye = np.eye(n, dtype=bool)
    triplets = []
    for a in range(n):
        pos_mask = same[a] & ~eye[a]
        if not pos_mask.any():
            continue
        pos = int(np.argmax(np.where(pos_mask, d[a], -np.inf)))
        neg = int(np.argmin(np.where(~same[a], d[a], np.inf)))
        triplets.append((a, pos, neg))
    if not triplets:
        raise MiningError("every label in the batch is a singleton; no positive pairs exist")
    return np.array(triplets, dtype=np.intp)


def semi_hard_negative(dist_row, anchor_positive_dist: float, neg_mask) -> int:
    """Nearest negative farther than the positive; overall farthest as fallback.

    When a negative exists inside the margin window this picks it (it is
    the nearest one beyond the positive); ties resolve to the lowest index.
    Returns -1 when there are no negatives at all.
    """
    neg_idx = np.flatnonzero(neg_mask)
    if neg_idx.size == 0:
        return -1
    dists = dist_row[neg_idx]
    beyond = dists > anchor_positive_dist
    if beyond.any():
        cand_d = np.where(beyond, dists, np.inf)
        return int(neg_idx[np.argmin(cand_d)])
    return int(neg_idx[np.argmax(dists)])


@dataclass
class MiningEpochPlan:
    """Knobs for one semi-hard mining epoch."""

    sessions_per_draw: int = 3
    chunk_size: int = 512
    triplet_cap: int = 400
    synthetic_session_size: int = 40

    def __post_init__(self):
        if self.sessions_per_draw < 1 or self.chunk_size < 1 or self.triplet_cap < 1:
            raise ValidationError("mining plan values must be positive")
        if self.synthetic_session_size < 2:
            raise ValidationError("synthetic sessions need at least 2 items")


def session_draws(n_items: int, sessions, plan: MiningEpochPlan, rng: RngStream):
    """Yield one epoch's draws: the items of plan.sessions_per_draw sessions each.

    Each epoch visits every session exactly once. Without session ids,
    items are first partitioned into random pseudo-sessions of
    plan.synthetic_session_size; then the session order is drawn from
    rng. Both draws happen before the first yield.
    """
    if sessions is None:
        order = rng.permutation(n_items)
        size = plan.synthetic_session_size
        groups = [order[i : i + size].tolist() for i in range(0, n_items, size)]
    else:
        if len(sessions) != n_items:
            raise ValidationError(f"got {len(sessions)} session ids for {n_items} items")
        by_session = {}
        for i, s in enumerate(sessions):
            by_session.setdefault(s, []).append(i)
        groups = [by_session[key] for key in sorted(by_session, key=str)]
    order = rng.permutation(len(groups))
    for start in range(0, len(groups), plan.sessions_per_draw):
        yield [i for g in order[start : start + plan.sessions_per_draw] for i in groups[g]]


def semi_hard_draw(dist, labels, cap: int, rng: RngStream):
    """Capped semi-hard triplets (local indices) for one drawn item set.

    Builds every unordered positive pair (the earlier index acts as
    anchor), picks each pair's negative via semi_hard_negative, then
    shuffles and truncates to cap. Returns None when no pair has a
    usable negative.
    """
    labs = np.asarray(labels)
    same = labs[:, None] == labs[None, :]
    triplets = []
    for a in range(len(labs)):
        for p in range(a + 1, len(labs)):
            if not same[a, p]:
                continue
            neg = semi_hard_negative(dist[a], dist[a, p], ~same[a])
            if neg >= 0:
                triplets.append((a, p, neg))
    if not triplets:
        return None
    if len(triplets) > cap:
        rng.shuffle(triplets)
        triplets = triplets[:cap]
    return np.array(triplets, dtype=np.intp)


def embed_in_chunks(items, embed_fn, chunk_size: int) -> np.ndarray:
    chunks = [items[i : i + chunk_size] for i in range(0, len(items), chunk_size)]
    emb = np.concatenate([np.asarray(embed_fn(c), dtype=np.float64) for c in chunks])
    if emb.shape[0] != len(items):
        raise ShapeError("embed_fn returned a wrong number of rows")
    return emb
