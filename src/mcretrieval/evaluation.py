"""Leave-one-out retrieval evaluation.

Every item with at least one same-class partner queries the rest of the
set; rankings are by ascending embedding distance with item id as the
deterministic tie-break. Average precision is the non-interpolated kind:
the mean of precision-at-rank over the ranks that hold a relevant item.
"""

from dataclasses import dataclass, field

import numpy as np

from .config import json_line
from .errors import ValidationError
from .mining import class_order, label_codes, pairwise_distances, row_blocks


def average_precision(relevance) -> float:
    """AP of one ranked list given binary relevance flags, best rank first."""
    relevance = np.asarray(relevance, dtype=bool)
    n_rel = int(relevance.sum())
    if n_rel == 0:
        raise ValidationError("average_precision needs at least one relevant item")
    ranks = np.flatnonzero(relevance) + 1
    hits = np.arange(1, n_rel + 1)
    return float(np.mean(hits / ranks))


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


def ranked_galleries(dist, ids, queries):
    """Per query index and its distance row: the other items by ascending distance, ties by str(id)."""
    # equal texts share a rank, and lexsort keeps their order by index
    _, rank = np.unique([str(i) for i in ids], return_inverse=True)
    for row, q in zip(dist, queries):
        order = np.lexsort((rank, row))
        yield order[order != q]


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
    per_query = []
    by_class = {}
    top1_hits = 0
    top5_hits = 0
    # one [block, n] distance matrix at a time, each under mining.BLOCK_BYTES
    for blk in row_blocks(len(queries), len(ids) * 8):
        block = queries[blk]
        dist = pairwise_distances(embeddings, block)
        for q, order in zip(block, ranked_galleries(dist, ids, block)):
            rel = codes[order] == codes[q]
            ap = average_precision(rel)
            per_query.append({"id": ids[q], "class": labels[q], "ap": ap})
            by_class.setdefault(labels[q], []).append(ap)
            top1_hits += bool(rel[0])
            top5_hits += bool(rel[:5].any())

    n_q = len(per_query)
    class_means = {lab: float(np.mean(aps)) for lab, aps in by_class.items()}
    return RetrievalReport(
        micro_map=float(np.mean([r["ap"] for r in per_query])),
        macro_map=float(np.mean(list(class_means.values()))),
        top1=top1_hits / n_q,
        top5=top5_hits / n_q,
        per_query=per_query,
        per_class=class_means,
        queries=n_q,
        skipped_singletons=len(ids) - len(queries),
        config=dict(config or {}),
    )


def mc_sweep(embed_fn, mc_values, labels):
    """Evaluate one dataset at the mc = 0 baseline and at each of mc_values, in the order given.

    embed_fn(mcs) -> (ids, [(means, variances) per value of mcs]) is called
    once, with mcs = [0, *mc_values]: uncertainty.embed_prefixes computes
    max(mc_values) passes per item once, plus the baseline, and every sweep
    point averages a prefix of the same passes. The caller fixes the seed.
    """
    mc_values = list(mc_values)
    if not mc_values:
        raise ValidationError("mc_sweep needs at least one mc value")
    if any(m < 1 for m in mc_values):
        raise ValidationError("mc values must be >= 1")
    mcs = [0, *mc_values]
    ids, embedded = embed_fn(mcs)
    rows = []
    for mc, (means, variances) in zip(mcs, embedded, strict=True):
        rep = evaluate(ids, means, labels, config={"mc": mc})
        rows.append({"mc": mc, "stochastic": mc > 0, "micro_map": rep.micro_map,
                     "macro_map": rep.macro_map, "top1": rep.top1,
                     "mean_variance": float(np.mean(variances))})
    return rows


def modality_ablation(embed_fn, subsets, labels):
    """Evaluate the same items under different modality subsets.

    embed_fn(subset or None) -> (ids, means, variances); None means all.
    """
    rows = []
    for subset in subsets:
        ids, means, _ = embed_fn(subset)
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
    with open(path, "w") as f:
        f.write(json_line(doc))
