"""Leave-one-out retrieval evaluation.

Every item with at least one same-class partner queries the rest of the
set; rankings are by ascending embedding distance with item id as the
deterministic tie-break. Average precision is the non-interpolated kind:
the mean of precision-at-rank over the ranks that hold a relevant item.
"""

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .mining import pairwise_distances


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
            "per_class": self.per_class,
            "config": self.config,
        }


def ranked_galleries(dist, ids, queries):
    """Per query index: the other items by ascending distance, ties by ascending str(id)."""
    keys = np.array([str(i) for i in ids])
    for q in queries:
        order = np.lexsort((keys, dist[q]))
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

    dist = pairwise_distances(embeddings)
    counts = {}
    for lab in labels:
        counts[lab] = counts.get(lab, 0) + 1

    queries = [q for q in range(len(ids)) if counts[labels[q]] >= 2]
    per_query = []
    by_class = {}
    top1_hits = 0
    top5_hits = 0
    for q, order in zip(queries, ranked_galleries(dist, ids, queries)):
        rel = [labels[i] == labels[q] for i in order]
        ap = average_precision(rel)
        per_query.append({"id": ids[q], "class": labels[q], "ap": ap})
        by_class.setdefault(labels[q], []).append(ap)
        if rel[0]:
            top1_hits += 1
        if any(rel[:5]):
            top5_hits += 1

    if not per_query:
        raise ValidationError("no class has two members; nothing to evaluate")

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


def mc_sweep(embed_fn, mc_values, labels, base_seed: int = 0):
    """Evaluate one dataset at several mc settings plus the dropout-off baseline.

    embed_fn(mc, seed, stochastic) -> (ids, means, variances). Every run
    reuses base_seed so sweep points share their random draws and differ
    only in how many passes are averaged.
    """
    mc_values = list(mc_values)
    if not mc_values:
        raise ValidationError("mc_sweep needs at least one mc value")
    if any(m < 1 for m in mc_values):
        raise ValidationError("mc values must be >= 1")
    rows = []
    ids, means, variances = embed_fn(1, base_seed, False)
    baseline = evaluate(ids, means, labels, config={"mc": 0, "mode": "disabled"})
    rows.append({"mc": 0, "stochastic": False, "micro_map": baseline.micro_map,
                 "macro_map": baseline.macro_map, "top1": baseline.top1,
                 "mean_variance": 0.0})
    for mc in mc_values:
        ids, means, variances = embed_fn(mc, base_seed, True)
        rep = evaluate(ids, means, labels, config={"mc": mc, "mode": "stochastic"})
        rows.append({"mc": mc, "stochastic": True, "micro_map": rep.micro_map,
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


def write_report(path, rows_or_report, columns=None):
    """Flat JSON table: {"columns": [...], "rows": [[...], ...]}."""
    if isinstance(rows_or_report, RetrievalReport):
        doc = rows_or_report.to_dict()
    else:
        rows = list(rows_or_report)
        if not rows:
            raise ValidationError("nothing to report")
        columns = columns or list(rows[0].keys())
        doc = {"columns": columns,
               "rows": [[row[c] for c in columns] for row in rows]}
    with open(path, "w") as f:
        json.dump(doc, f, sort_keys=True, separators=(",", ":"))
        f.write("\n")
