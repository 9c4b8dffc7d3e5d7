"""Reference computations the benchmark checks the program's outputs against.

These are written apart from the program on purpose: ranking is one
np.lexsort over (distance, id) and average precision is summed out by
hand, so a fault in the program's ranker or AP cannot hide behind the
same code. Only numpy is used.
"""

import numpy as np


def distance_row(embeddings, q):
    """Euclidean distances from row q to every row."""
    diff = embeddings - embeddings[q]
    return np.sqrt(np.sum(diff * diff, axis=1))


def id_ranks(ids):
    """Position of each id in ascending string order (the tie-break key)."""
    order = sorted(range(len(ids)), key=lambda i: str(ids[i]))
    ranks = np.empty(len(ids), dtype=np.intp)
    ranks[order] = np.arange(len(ids))
    return ranks


def ranked(dist_row, ranks, q):
    """Gallery order for query q: ascending distance, then ascending id; q left out."""
    order = np.lexsort((ranks, dist_row))
    return order[order != q]


def average_precision(relevant):
    """Mean over the relevant positions of (hits so far) / (rank)."""
    hits = 0
    total = 0.0
    for rank, rel in enumerate(relevant, start=1):
        if rel:
            hits += 1
            total += hits / rank
    if hits == 0:
        raise ValueError("average precision needs at least one relevant item")
    return total / hits


def leave_one_out(ids, embeddings, labels):
    """Per-query AP, micro and macro mAP, top-1 and top-5 over every non-singleton query."""
    embeddings = np.asarray(embeddings, dtype=np.float64)
    labels = list(labels)
    counts = {}
    for lab in labels:
        counts[lab] = counts.get(lab, 0) + 1
    ranks = id_ranks(ids)
    labs = np.array(labels, dtype=object)
    aps, by_class, top1, top5 = {}, {}, 0, 0
    for q in range(len(ids)):
        if counts[labels[q]] < 2:
            continue
        order = ranked(distance_row(embeddings, q), ranks, q)
        rel = (labs[order] == labels[q]).tolist()
        ap = average_precision(rel)
        aps[ids[q]] = ap
        by_class.setdefault(labels[q], []).append(ap)
        top1 += rel[0]
        top5 += any(rel[:5])
    n = len(aps)
    class_means = [sum(v) / len(v) for v in by_class.values()]
    return {
        "ap": aps,
        "micro_map": sum(aps.values()) / n,
        "macro_map": sum(class_means) / len(class_means),
        "top1": top1 / n,
        "top5": top5 / n,
        "queries": n,
        "skipped_singletons": len(ids) - n,
    }


def top_k(ids, embeddings, query_ids, k):
    """{query id: [(gallery id, distance), ...]} for the k nearest, ties by id."""
    embeddings = np.asarray(embeddings, dtype=np.float64)
    index = {item_id: i for i, item_id in enumerate(ids)}
    ranks = id_ranks(ids)
    out = {}
    for qid in query_ids:
        q = index[qid]
        dist = distance_row(embeddings, q)
        order = ranked(dist, ranks, q)[:k]
        out[qid] = [(ids[i], float(dist[i])) for i in order]
    return out


def random_ap(relevant, gallery):
    """Expected AP of a uniformly random order of `gallery` items, `relevant` of them relevant.

    A relevant item at rank r has, on average, (r - 1)(R - 1)/(N - 1)
    relevant items before it; averaging (1 + that) / r over r = 1..N gives
    (R - 1)/(N - 1) + (H_N / N) * (1 - (R - 1)/(N - 1)).
    """
    harmonic = sum(1.0 / r for r in range(1, gallery + 1))
    share = (relevant - 1) / (gallery - 1) if gallery > 1 else 1.0
    return share + harmonic / gallery * (1.0 - share)


def chance_map(labels):
    """Expected micro mAP of a random ranking, from label frequencies alone."""
    labels = list(labels)
    counts = {}
    for lab in labels:
        counts[lab] = counts.get(lab, 0) + 1
    aps = [random_ap(counts[lab] - 1, len(labels) - 1) for lab in labels if counts[lab] >= 2]
    return sum(aps) / len(aps)
