"""Monte Carlo dropout embeddings and uncertainty summaries.

An item's retrieval embedding is the per-dimension mean over mc
stochastic forward passes (kept raw, not re-normalized); the
per-dimension sample variance over the same passes is the model's
uncertainty about the item. mc = 0 is the deterministic baseline.
"""

from dataclasses import dataclass

import numpy as np

from . import autodiff
from .config import check_json_types, number_array, write_lines
from .data import at_line, check_id, json_lines
from .errors import ValidationError
from .rng import RowStreams


@dataclass
class McEmbedding:
    """Mean embedding, per-dimension variance, and the pass count behind them."""

    mean: np.ndarray
    variance: np.ndarray
    mc_count: int


def _ordered_sum(x: np.ndarray) -> np.ndarray:
    # summing each column in sorted order makes the reduction
    # independent of the order the passes arrived in
    return np.sum(np.sort(x, axis=-2), axis=-2)


def aggregate_passes(passes: np.ndarray) -> McEmbedding:
    """Two-pass mean and unbiased variance over the pass axis of [..., mc, d], invariant to pass order."""
    passes = np.asarray(passes, dtype=np.float64)
    mc = passes.shape[-2]
    mean = _ordered_sum(passes) / mc
    if mc == 1:
        return McEmbedding(mean=mean, variance=np.zeros_like(mean), mc_count=1)
    dev = passes - mean[..., None, :]
    var = _ordered_sum(dev * dev) / (mc - 1)
    return McEmbedding(mean=mean, variance=var, mc_count=mc)


def mc_embed(net, payloads, notion: str, mc: int, seed: int) -> McEmbedding:
    """Embed one item with mc dropout passes on streams seed..seed+mc-1.

    A one-item embed_dataset whose stream block starts at seed; at mc = 0
    the mean is the deterministic forward, bit for bit, with zero variance.
    """
    _, means, variances = embed_dataset(net, [(None, payloads)], notion, mc, seed)
    return McEmbedding(mean=means[0], variance=variances[0], mc_count=mc)


# per-item stream blocks are mc-independent so that raising mc only
# appends passes; sweep points then share their earlier draws
ITEM_STREAM_STRIDE = 1 << 20

# rows (item x pass) per batched forward, or one item's mc rows when mc
# is larger, since an item's passes are never split; this bounds a
# forward's temporaries, and RowStreams' word buffer (rng.RNG_BYTES)
CHUNK_ROWS = 1024


def embed_dataset(net, items, notion: str, mc: int, seed: int, modalities=None):
    """Embed every item with mc dropout passes: embed_prefixes at the one value mc.

    A sweep calls embed_prefixes once instead, which computes max(mc) passes
    per item, plus the mc = 0 baseline. Returns (ids, means [n, d], variances [n, d]).
    """
    ids, [(means, variances)] = embed_prefixes(net, items, notion, [mc], seed, modalities)
    return ids, means, variances


def embed_prefixes(net, items, notion: str, mc_values, seed: int, modalities=None):
    """Embed every item at each of mc_values; item i draws from the block seed + i*ITEM_STREAM_STRIDE.

    items are (id, payloads) pairs or objects with .id and .payloads.
    modalities, if given, names the modalities to use; every name must be
    one the net encodes. Items carrying the same modalities run together,
    whole items at a time, at most max(max(mc_values), CHUNK_ROWS) rows per
    no-grad forward. Pass j of item i is one row whose stream is keyed
    (b, b + j), b = seed + i*ITEM_STREAM_STRIDE, as RngStream(b, b + j) is,
    so each pass draws what it would draw alone, whatever mc is. So one run
    of max(mc_values) passes per item serves every positive value, each
    aggregated from its prefix of the chunk's rows; mc = 0, the baseline,
    runs one row per item and no mask source, so no dropout. Returns
    (ids, [(means [n, d], variances [n, d]) per value of mc_values, in order]).
    """
    mc_values = list(mc_values)
    if not mc_values or not all(0 <= mc <= ITEM_STREAM_STRIDE for mc in mc_values):
        raise ValidationError(f"mc values must lie in 0..{ITEM_STREAM_STRIDE}, got {mc_values}")
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")
    unknown = sorted(set(modalities or ()) - {m.name for m in net.modalities})
    if unknown:
        # a misspelt name must not quietly leave its modality out
        raise ValidationError(f"unknown modalities {unknown}; have {[m.name for m in net.modalities]}")
    ids, payload_list, groups = [], [], {}
    for i, item in enumerate(items):
        item_id, payloads = (item if isinstance(item, tuple) else (item.id, item.payloads))
        if modalities is not None:
            payloads = {k: v for k, v in payloads.items() if k in modalities}
            if not payloads:
                raise ValidationError(f"item {item_id} has none of the requested modalities")
        ids.append(item_id)
        payload_list.append(payloads)
        # a forward_batch takes rows of one modality set
        groups.setdefault(frozenset(payloads), []).append(i)
    packed = net.pack(payload_list)

    # one result per distinct value; a repeated value shares its arrays
    results = {mc: (np.empty((len(ids), net.embed_dim)), np.empty((len(ids), net.embed_dim)))
               for mc in mc_values}
    top = max(results)
    with autodiff.no_grad():
        # the sourceless baseline if 0 is asked for, then one stochastic run of top passes
        for run in sorted({0, top} & results.keys()):
            prefixes = [m for m in results if (m > 0) == (run > 0)]
            passes = max(run, 1)
            step = max(1, CHUNK_ROWS // passes)
            for members in groups.values():
                for start in range(0, len(members), step):
                    chunk = members[start:start + step]
                    rng = None
                    if run:
                        # the key of RngStream(b, b + j), which takes both modulo 2**64
                        blocks = [seed + i * ITEM_STREAM_STRIDE for i in chunk]
                        rng = RowStreams([(b % 2**64, (b + j) % 2**64) for b in blocks for j in range(run)])
                    out = net.forward_batch(packed, np.repeat(chunk, passes), notion, rng).data
                    out = out.reshape(len(chunk), passes, -1)
                    for m in prefixes:
                        means, variances = results[m]
                        agg = aggregate_passes(out[:, :max(m, 1)])
                        means[chunk], variances[chunk] = agg.mean, agg.variance
    return ids, [results[mc] for mc in mc_values]


def per_class_uncertainty(variances, labels):
    """Average scalar uncertainty per class, raw and size-normalized.

    Returns rows {class, size, uncertainty, size_normalized} ordered by
    descending class size (name as tie-break).
    """
    variances = np.asarray(variances)
    if len(variances) != len(labels):
        raise ValidationError(
            f"got {len(variances)} variance rows for {len(labels)} labels"
        )
    scalars = variances.mean(axis=1)
    by_class = {}
    for s, lab in zip(scalars, labels):
        by_class.setdefault(lab, []).append(float(s))
    rows = []
    for lab in sorted(by_class, key=lambda c: (-len(by_class[c]), str(c))):
        vals = by_class[lab]
        mean = sum(vals) / len(vals)
        rows.append({
            "class": lab,
            "size": len(vals),
            "uncertainty": mean,
            "size_normalized": mean / len(vals),
        })
    return rows


def dataset_uncertainty(variances, labels) -> float:
    """Mean scalar uncertainty over all items, normalized by the class count."""
    variances = np.asarray(variances)
    n_classes = len(set(labels))
    if n_classes == 0:
        raise ValidationError("dataset_uncertainty needs at least one labeled item")
    return float(variances.mean()) / n_classes


# --- embedding export ---


@dataclass
class EmbeddingFile:
    """In-memory view of one embeddings file."""

    ids: list
    means: np.ndarray
    variances: np.ndarray
    notion: str
    mc: int


def write_embeddings(path, ids, means, variances, notion: str, mc: int):
    """Line-delimited JSON, one record per item, full float64 round-trip, written with config.write_lines."""
    write_lines(path, ({
        "id": item_id,
        "notion": notion,
        "mc": mc,
        "mean": [float(x) for x in means[i]],
        "variance": [float(x) for x in variances[i]],
    } for i, item_id in enumerate(ids)))


def read_embeddings(path) -> EmbeddingFile:
    """Read a file written by write_embeddings; every malformed record is a ParseError with its line."""
    ids, means, variances = [], [], []
    seen = set()
    for lineno, rec in json_lines(path):
        with at_line(path, lineno):
            for key in ("id", "notion", "mc", "mean", "variance"):
                if key not in rec:
                    raise ValidationError(f"embedding record missing {key!r}")
            check_id(rec["id"], seen)
            check_json_types(EmbeddingFile, rec, "embedding record field")  # of its fields, rec has notion and mc
            if rec["mc"] < 0:
                raise ValidationError(f"embedding record mc must be >= 0, got {rec['mc']}")
            if not means:  # the first record sets the notion and mc every later one repeats
                notion, mc = rec["notion"], rec["mc"]
            elif rec["notion"] != notion or rec["mc"] != mc:
                raise ValidationError(f"record disagrees with file header: notion={rec['notion']!r} mc={rec['mc']}")
            mean, var = number_array(rec["mean"], "mean"), number_array(rec["variance"], "variance")
            want = means[0].shape if means else (mean.size,)
            if mean.shape != want or var.shape != want or not mean.size:
                raise ValidationError(f"mean {mean.shape} and variance {var.shape} must both be {want}, of width >= 1")
            if var.min() < 0.0:
                raise ValidationError("variance entries must be >= 0")
        ids.append(rec["id"])
        means.append(mean)
        variances.append(var)
    return EmbeddingFile(ids=ids, means=np.array(means), variances=np.array(variances),
                         notion=notion, mc=mc)
