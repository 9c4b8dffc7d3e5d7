"""Leave-one-out retrieval evaluation.

Every item with at least one same-class partner queries the rest of the
set; rankings are by ascending embedding distance with item id as the
deterministic tie-break. Average precision is the non-interpolated kind:
the mean of precision-at-rank over the ranks that hold a relevant item.
"""

from dataclasses import dataclass, field

import numpy as np

from .config import write_lines
from .errors import ShapeError, ValidationError
from .mining import class_order, label_codes, pairwise_distances, row_blocks


def average_precision(relevance) -> float:
    """AP of one ranked list given binary relevance flags, best rank first."""
    ranks = np.flatnonzero(np.asarray(relevance, dtype=bool)) + 1
    if not ranks.size:
        raise ValidationError("average_precision needs at least one relevant item")
    return float(np.mean(np.arange(1, ranks.size + 1) / ranks))


@dataclass
class RetrievalReport:
    micro_map: float
    macro_map: float
    top1: float
    top5: float
    per_query: list = field(default_factory=list)
    per_class: dict = field(default_factory=dict)
    queries: int = 0
    skipped_singletons: int = 0
    config: dict = field(default_factory=dict)

    def to_dict(self):
        return {
            "micro_map": self.micro_map,
            "macro_map": self.macro_map,
            "top1": self.top1,
            "top5": self.top5,
            "queries": self.queries,
            "skipped_singletons": self.skipped_singletons,
            # rows, not an object: classes 1 and "1" are two classes but one JSON key
            "per_class": [{"class": c, "map": self.per_class[c]} for c in class_order(self.per_class)],
            "config": self.config,
        }


# squared norms up to 2**1021 keep every squared distance, and every sum behind one, finite
MAX_SQUARED_NORM = 2.0 ** 1021


def gathered_distances(embeddings, q, cols) -> np.ndarray:
    """Exact distances from item q to items cols: the bits of pairwise_distances(embeddings, [q])[0, cols]."""
    return pairwise_distances(embeddings[np.r_[q, cols]], [0])[0, 1:]


def ranked_galleries(embeddings, ids, queries):
    """Per query index: the other items by exact distance, ties by str(id), then index, bit for bit.

    A query block sorts by S = |q|^2 + |e|^2 - 2 q.e from one matmul, within r of the exact
    path's squared sum: r bounds both paths' rounding (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., 3.1 and 4.2), a sqrt margin (sums rounding to one distance tie) and
    underflow. Only runs of items whose S +- r intervals overlap get exact distances.
    """
    e = np.asarray(embeddings, dtype=np.float64)
    if e.ndim != 2:
        raise ShapeError(f"embeddings must be [n, d], got {e.shape}")
    n, d = e.shape
    with np.errstate(over="ignore", invalid="ignore"):
        norms = np.einsum("ij,ij->i", e, e)
    big = np.flatnonzero(~(norms <= MAX_SQUARED_NORM))  # NaN too
    if big.size:
        raise ValidationError(f"embedding of item {ids[big[0]]} is too large to rank (squared norm above 2**1021)")
    _, text = np.unique([str(i) for i in ids], return_inverse=True)  # ids 3 and "3" share one text
    rel = (8 * d + 64) * 2.0 ** -53  # 2 (gamma_(4d+10) + 11u): both paths' rounding, the sqrt margin, r's own
    floor = 16 * (d + 1) * np.finfo(np.float64).tiny  # 2**-1022 per product for underflow, even flushed
    for blk in row_blocks(len(queries), 10 * n * 8):  # ten [block, n] temporaries
        block = queries[blk]
        s = norms[block, None] + norms - 2 * (e[block] @ e.T)
        s[np.arange(len(block)), block] = -np.inf  # each query sorts first, alone, and is dropped
        order = np.argsort(s, axis=1)
        s = np.take_along_axis(s, order, axis=1)
        r = rel * (norms[block, None] + norms[order]) + floor
        hi = np.maximum.accumulate(s + r, axis=1)
        lo = np.minimum.accumulate((s - r)[:, ::-1], axis=1)[:, ::-1]
        # cut[:, t]: every item sorted before position t is strictly nearer than every one from t on
        cut = np.pad(hi[:, :-1] < lo[:, 1:], ((0, 0), (1, 1)), constant_values=True)
        alone = cut[:, :-1] & cut[:, 1:]
        for i in np.flatnonzero(~alone.all(axis=1)):
            pos = np.flatnonzero(~alone[i])
            cols, run = order[i, pos], np.cumsum(cut[i, :-1])[pos]
            order[i, pos] = cols[np.lexsort((cols, text[cols], gathered_distances(e, block[i], cols), run))]
        yield from order[:, 1:]


def evaluate(ids, embeddings, labels, config=None) -> RetrievalReport:
    """Leave-one-out mAP / top-k over one embedded dataset.

    Items whose class has no second member cannot be queries; they stay
    in the gallery and are counted in skipped_singletons.
    """
    ids = list(ids)
    labels = list(labels)
    embeddings = np.asarray(embeddings, dtype=np.float64)
    if not (len(ids) == len(labels) == embeddings.shape[0]):
        raise ValidationError("ids, labels, and embeddings must align")
    if len(set(ids)) != len(ids):
        raise ValidationError("item ids must be unique")
    if embeddings.shape[0] < 2:
        raise ValidationError("evaluation needs at least two items")

    codes = label_codes(labels)
    queries = np.flatnonzero(np.bincount(codes)[codes] >= 2)
    if not queries.size:
        raise ValidationError("no class has two members; nothing to evaluate")
    per_query, by_class = [], {}
    top1_hits = top5_hits = 0
    for q, order in zip(queries, ranked_galleries(embeddings, ids, queries)):
        rel = codes[order] == codes[q]
        ap = average_precision(rel)
        per_query.append({"id": ids[q], "class": labels[q], "ap": ap})
        by_class.setdefault(labels[q], []).append(ap)
        top1_hits += bool(rel[0])
        top5_hits += bool(rel[:5].any())

    class_means = {lab: float(np.mean(aps)) for lab, aps in by_class.items()}
    return RetrievalReport(
        micro_map=float(np.mean([r["ap"] for r in per_query])),
        macro_map=float(np.mean(list(class_means.values()))),
        top1=top1_hits / queries.size,
        top5=top5_hits / queries.size,
        per_query=per_query,
        per_class=class_means,
        queries=queries.size,
        skipped_singletons=len(ids) - len(queries),
        config=dict(config or {}),
    )


def mc_sweep(ids, mcs, embedded, labels):
    """One row per mc of (ids, embedded) = uncertainty.embed_prefixes(..., mcs, ...), in the order given.

    A sweep embeds once with mcs = [0, *mc_values]: the baseline row, then
    one per value, each averaged from a prefix of the same passes.
    """
    if not mcs or len(mcs) != len(embedded):
        raise ValidationError(f"mc_sweep needs one (means, variances) per mc, got {len(embedded)} for {list(mcs)}")
    rows = []
    for mc, (means, variances) in zip(mcs, embedded):
        rep = evaluate(ids, means, labels, config={"mc": mc})
        rows.append({"mc": mc, "stochastic": mc > 0, "micro_map": rep.micro_map,
                     "macro_map": rep.macro_map, "top1": rep.top1,
                     "mean_variance": float(np.mean(variances))})
    return rows


def modality_ablation(runs, labels):
    """One row per (subset, ids, means) of runs: the items embedded from that modality subset, None for all."""
    rows = []
    for subset, ids, means in runs:
        rep = evaluate(ids, means, labels,
                       config={"modalities": "all" if subset is None else list(subset)})
        rows.append({
            "modalities": "all" if subset is None else "+".join(subset),
            "micro_map": rep.micro_map,
            "macro_map": rep.macro_map,
            "top1": rep.top1,
            "queries": rep.queries,
        })
    return rows


def write_report(path, rows_or_report):
    """A report's dict, or rows as a flat JSON table: {"columns": [...], "rows": [[...], ...]}."""
    if isinstance(rows_or_report, RetrievalReport):
        doc = rows_or_report.to_dict()
    else:
        rows = list(rows_or_report)
        if not rows:
            raise ValidationError("nothing to report")
        columns = list(rows[0])
        doc = {"columns": columns,
               "rows": [[row[c] for c in columns] for row in rows]}
    write_lines(path, [doc])
