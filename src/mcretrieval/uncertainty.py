"""Monte Carlo dropout embeddings and uncertainty summaries.

An item's retrieval embedding is the per-dimension mean over mc
stochastic forward passes (kept raw, not re-normalized, unless asked);
the per-dimension sample variance over the same passes is the model's
uncertainty about the item.
"""

import json
from dataclasses import dataclass

import numpy as np

from . import autodiff
from .autodiff import STOCHASTIC, DropoutSpec
from .errors import ParseError, ValidationError
from .rng import RngStream, RowStreams


@dataclass
class McEmbedding:
    """Mean embedding, per-dimension variance, and the pass count behind them."""

    mean: np.ndarray
    variance: np.ndarray
    mc_count: int


def _ordered_sum(x: np.ndarray) -> np.ndarray:
    # summing each column in sorted order makes the reduction
    # independent of the order the passes arrived in
    return np.sum(np.sort(x, axis=0), axis=0)


def aggregate_passes(passes: np.ndarray) -> McEmbedding:
    """Two-pass mean and unbiased variance, invariant to pass order."""
    passes = np.asarray(passes, dtype=np.float64)
    mc = passes.shape[0]
    mean = _ordered_sum(passes) / mc
    if mc == 1:
        return McEmbedding(mean=mean, variance=np.zeros_like(mean), mc_count=1)
    dev = passes - mean
    var = _ordered_sum(dev * dev) / (mc - 1)
    return McEmbedding(mean=mean, variance=var, mc_count=mc)


def mc_embed(net, payloads, notion: str, mc: int, seed: int,
             mode: str = STOCHASTIC, renormalize: bool = False) -> McEmbedding:
    """Embed one item with mc dropout passes on streams seed..seed+mc-1.

    A one-item embed_dataset whose stream block starts at seed. With
    dropout Disabled every pass is the same deterministic forward, which
    is returned bit-exactly as the mean with zero variance.
    """
    _, means, variances = embed_dataset(net, [(None, payloads)], notion, mc, seed, mode,
                                        renormalize=renormalize)
    return McEmbedding(mean=means[0], variance=variances[0], mc_count=mc)


# per-item stream blocks are mc-independent so that raising mc only
# appends passes; sweep points then share their earlier draws
ITEM_STREAM_STRIDE = 1 << 20

# rows (item x pass) per batched forward; bounds the memory of one call
CHUNK_ROWS = 2048


def embed_dataset(net, items, notion: str, mc: int, seed: int, mode: str = STOCHASTIC,
                  modalities=None, renormalize: bool = False):
    """Embed every item with mc dropout passes; item i draws from the block seed + i*ITEM_STREAM_STRIDE.

    items are (id, payloads) pairs or objects with .id and .payloads.
    Items carrying the same modalities run together, whole items at a
    time, CHUNK_ROWS rows per no-grad forward. Pass j of item i is one
    row with its own stream RngStream(b, b + j), b = seed + i*ITEM_STREAM_STRIDE,
    so each pass draws what it would draw alone; Disabled mode runs one
    row per item and no streams. Returns (ids, means [n, d], variances [n, d]).
    """
    if mc < 1:
        raise ValidationError(f"mc must be >= 1, got {mc}")
    if mc > ITEM_STREAM_STRIDE:
        raise ValidationError(f"mc must be <= {ITEM_STREAM_STRIDE}")
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")
    spec = DropoutSpec(net.dropout_rate, mode)
    ids, payload_list, groups = [], [], {}
    for i, item in enumerate(items):
        item_id, payloads = (item if isinstance(item, tuple) else (item.id, item.payloads))
        if modalities is not None:
            payloads = {k: v for k, v in payloads.items() if k in modalities}
            if not payloads:
                raise ValidationError(f"item {item_id} has none of the requested modalities")
        net.check_payloads(payloads)
        ids.append(item_id)
        payload_list.append(payloads)
        # forward_batch keeps only the modalities every row carries
        groups.setdefault(frozenset(payloads), []).append(i)

    passes = mc if spec.stochastic else 1
    step = max(1, CHUNK_ROWS // passes)
    means = np.empty((len(ids), net.embed_dim))
    variances = np.empty_like(means)
    with autodiff.no_grad():
        for members in groups.values():
            for start in range(0, len(members), step):
                chunk = members[start:start + step]
                batch = [payload_list[i] for i in chunk for _ in range(passes)]
                rng = None
                if spec.stochastic:
                    blocks = [seed + i * ITEM_STREAM_STRIDE for i in chunk]
                    rng = RowStreams(RngStream(b, b + j) for b in blocks for j in range(mc))
                out = net.forward_batch(batch, notion, spec, rng).data
                for i, rows in zip(chunk, out.reshape(len(chunk), passes, -1)):
                    agg = aggregate_passes(rows)
                    # a Disabled mean stays the deterministic forward, bit for bit
                    if renormalize and spec.stochastic:
                        agg.mean = agg.mean / max(float(np.linalg.norm(agg.mean)), 1e-12)
                    means[i], variances[i] = agg.mean, agg.variance
    return ids, means, variances


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
    """Line-delimited JSON, one record per item, full float64 round-trip."""
    with open(path, "w") as f:
        for i, item_id in enumerate(ids):
            rec = {
                "id": item_id,
                "notion": notion,
                "mc": mc,
                "mean": [float(x) for x in means[i]],
                "variance": [float(x) for x in variances[i]],
            }
            f.write(json.dumps(rec, sort_keys=True, separators=(",", ":")))
            f.write("\n")


def read_embeddings(path) -> EmbeddingFile:
    """Read a file written by write_embeddings; every malformed record is a ParseError with its line."""
    ids, means, variances = [], [], []
    seen = set()
    notion, mc = None, None
    with open(path) as f:
        for lineno, line in enumerate(f, start=1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as e:
                raise ParseError(str(e), path=str(path), line=lineno) from None
            if not isinstance(rec, dict):
                raise ParseError("embedding record must be a JSON object", path=str(path), line=lineno)
            for key in ("id", "notion", "mc", "mean", "variance"):
                if key not in rec:
                    raise ParseError(f"embedding record missing {key!r}", path=str(path), line=lineno)
            if isinstance(rec["id"], (list, dict)):
                raise ParseError(f"id must be a string or number, got {rec['id']!r}",
                                 path=str(path), line=lineno)
            if notion is None:
                notion, mc = rec["notion"], rec["mc"]
            elif rec["notion"] != notion or rec["mc"] != mc:
                raise ParseError(
                    f"record disagrees with file header: notion={rec['notion']!r} mc={rec['mc']}",
                    path=str(path), line=lineno,
                )
            if rec["id"] in seen:
                raise ParseError(f"duplicate id {rec['id']!r}", path=str(path), line=lineno)
            seen.add(rec["id"])
            try:
                mean = np.array(rec["mean"], dtype=np.float64)
                var = np.array(rec["variance"], dtype=np.float64)
            except (TypeError, ValueError) as e:
                raise ParseError(f"embedding values must be numbers: {e}", path=str(path), line=lineno) from None
            want = means[0].shape if means else (mean.size,)
            if mean.shape != want or var.shape != want:
                raise ParseError(f"mean {mean.shape} and variance {var.shape} must both be {want}",
                                 path=str(path), line=lineno)
            if not (np.isfinite(mean).all() and np.isfinite(var).all()):
                raise ParseError("embedding values must be finite", path=str(path), line=lineno)
            ids.append(rec["id"])
            means.append(mean)
            variances.append(var)
    if notion is None:
        raise ParseError("no embedding records found", path=str(path), line=1)
    return EmbeddingFile(ids=ids, means=np.array(means), variances=np.array(variances),
                         notion=notion, mc=mc)
