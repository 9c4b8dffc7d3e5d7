"""Triplet mining: PK batches, batch-hard selection, semi-hard session draws.

Mining is pure index arithmetic over a distance matrix; embeddings are
produced by a caller-supplied function so the mining schedule itself
stays independent of any particular network.
"""

from dataclasses import dataclass

import numpy as np

from .errors import MiningError, SamplingError, ShapeError, ValidationError
from .rng import RngStream

# byte budget of one distance or mining temporary, whatever the gallery size
BLOCK_BYTES = 8 << 20


def row_blocks(count: int, row_bytes: int):
    """Slices over count rows, each block at most BLOCK_BYTES (one row at the least)."""
    step = max(1, BLOCK_BYTES // max(row_bytes, 1))
    return (slice(lo, lo + step) for lo in range(0, count, step))


def pairwise_distances(embeddings, rows=None) -> np.ndarray:
    """Euclidean distances from the given rows (default: all) to every row.

    A row has the same bits whichever rows are asked for; the full matrix
    is exactly symmetric with a zero diagonal.
    """
    e = np.asarray(embeddings, dtype=np.float64)
    if e.ndim != 2:
        raise ShapeError(f"embeddings must be [n, d], got {e.shape}")
    q = e if rows is None else e[np.asarray(rows, dtype=np.intp)]
    out = np.empty((q.shape[0], e.shape[0]))
    for blk in row_blocks(q.shape[0], e.size * 8):
        diff = q[blk, None, :] - e[None, :, :]
        out[blk] = np.sqrt(np.sum(diff * diff, axis=2))
    return out


def label_codes(labels) -> np.ndarray:
    """Integer class codes under Python equality (1 and 1.0 one class, "1" another), for the miners and evaluate."""
    codes = {}
    return np.array([codes.setdefault(lab, len(codes)) for lab in labels], dtype=np.intp)


def class_order(classes) -> list:
    """Classes sorted numbers first, then any other label by its text, so a mixed vocabulary still sorts."""
    return sorted(classes, key=lambda c: (0, c) if isinstance(c, (int, float)) else (1, str(c)))


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
    classes = class_order(by_class)
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
    labels = label_codes(labels)
    d = pairwise_distances(embeddings)
    n = d.shape[0]
    if labels.shape != (n,):
        raise ShapeError(f"labels length {labels.shape} does not match {n} embeddings")
    if not labels.any():  # every label got the first code
        raise MiningError("batch-hard mining needs at least two classes in the batch")
    pos_mask = labels[:, None] == labels[None, :]
    np.fill_diagonal(pos_mask, False)
    anchors = np.flatnonzero(pos_mask.any(axis=1))
    if not anchors.size:
        raise MiningError("every label in the batch is a singleton; no positive pairs exist")
    triplets = np.repeat(anchors[:, None], 3, axis=1)
    for blk in row_blocks(anchors.size, n * 8):
        a = anchors[blk]
        triplets[blk, 1] = np.argmax(np.where(pos_mask[a], d[a], -np.inf), axis=1)
        triplets[blk, 2] = np.argmin(np.where(labels[a, None] != labels, d[a], np.inf), axis=1)
    return triplets


def semi_hard_negative(dist_row, anchor_positive_dist: float, neg_mask) -> int:
    """Nearest negative farther than the positive, else the farthest; -1 without negatives.

    Ties resolve to the lowest index. This is one row of semi_hard_draw's rule.
    """
    row = np.asarray(dist_row, dtype=np.float64)[None]
    return int(_semi_hard_rows(row, anchor_positive_dist, np.asarray(neg_mask, dtype=bool)[None])[0])


def _semi_hard_rows(rows, anchor_positive_dist, neg_mask) -> np.ndarray:
    """semi_hard_negative for each row of [m, n] distances and negative masks."""
    beyond = neg_mask & (rows > np.reshape(anchor_positive_dist, (-1, 1)))
    near = np.argmin(np.where(beyond, rows, np.inf), axis=1)
    far = np.argmax(np.where(neg_mask, rows, -np.inf), axis=1)
    return np.where(beyond.any(axis=1), near, np.where(neg_mask.any(axis=1), far, -1))


# items per pseudo-session when a dataset has no session ids
SYNTHETIC_SESSION_SIZE = 40


def session_draws(n_items: int, sessions, sessions_per_draw: int, rng: RngStream):
    """Yield one epoch's draws: the items of sessions_per_draw sessions each.

    Each epoch visits every session exactly once. Without session ids,
    items are first partitioned into random pseudo-sessions of
    SYNTHETIC_SESSION_SIZE; then the session order is drawn from rng.
    Both draws happen before the first yield.
    """
    if sessions is None:
        order = rng.permutation(n_items)
        size = SYNTHETIC_SESSION_SIZE
        groups = [order[i : i + size].tolist() for i in range(0, n_items, size)]
    else:
        if len(sessions) != n_items:
            raise ValidationError(f"got {len(sessions)} session ids for {n_items} items")
        by_session = {}
        for i, s in enumerate(sessions):
            by_session.setdefault(s, []).append(i)
        groups = [by_session[key] for key in sorted(by_session, key=str)]
    order = rng.permutation(len(groups))
    for start in range(0, len(groups), sessions_per_draw):
        yield [i for g in order[start : start + sessions_per_draw] for i in groups[g]]


def semi_hard_draw(dist, labels, cap: int, rng: RngStream):
    """Capped semi-hard triplets (local indices) for one drawn item set.

    Takes every unordered positive pair in anchor-major order (the earlier
    index acts as anchor), picks each pair's negative by the
    semi_hard_negative rule, then keeps a random cap of them in random
    order. Returns None when no pair has a usable negative.
    """
    labs = label_codes(labels)
    same = labs[:, None] == labs[None, :]
    a, p = np.nonzero(np.triu(same, 1))
    neg = np.empty_like(a)
    for blk in row_blocks(a.size, len(labs) * 8):
        rows = a[blk]
        neg[blk] = _semi_hard_rows(dist[rows], dist[rows, p[blk]], ~same[rows])
    triplets = np.stack([a, p, neg], axis=1)[neg >= 0]
    if len(triplets) > cap:
        # the same draws, and the same order, as shuffling the rows themselves
        triplets = triplets[rng.permutation(len(triplets))[:cap]]
    return triplets if len(triplets) else None


def embed_in_chunks(items, embed_fn, chunk_size: int) -> np.ndarray:
    chunks = [items[i : i + chunk_size] for i in range(0, len(items), chunk_size)]
    emb = np.concatenate([np.asarray(embed_fn(c), dtype=np.float64) for c in chunks])
    if emb.shape[0] != len(items):
        raise ShapeError("embed_fn returned a wrong number of rows")
    return emb
