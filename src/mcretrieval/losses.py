"""Triplet losses recast as bounded regression targets.

The normalized triplet loss maps a triple of unit embeddings to
hinge(D(a, p) - D(a, n) + m), which lives in [0, 2 + m] because
Euclidean distances between unit vectors are bounded by 2. The k-tuplet
form chains the same hinge over consecutive members; the soft-margin
form drops both the margin and the unit-norm requirement (margin 0 on
unnormalized embeddings) and is bounded below only.
"""

import numpy as np

from . import autodiff
from .autodiff import Tensor, gather_rows, relu, rownorm, tmean, tsum
from .errors import ContractError, ShapeError, ValidationError

ORDERING_TOL = 1e-9


def _require_margin(m):
    if not (np.isfinite(m) and m >= 0.0):
        raise ValidationError(f"margin must be finite and >= 0, got {m}")


def triplet_batch_term(embeddings: Tensor, triplets, margin: float) -> Tensor:
    """Per-triplet hinge losses [T] for index triples into an embedding matrix."""
    _require_margin(margin)
    idx = np.asarray(triplets, dtype=np.intp)
    if idx.ndim != 2 or idx.shape[1] != 3:
        raise ShapeError(f"triplets must be a [T, 3] index array, got {idx.shape}")
    a = gather_rows(embeddings, idx[:, 0])
    p = gather_rows(embeddings, idx[:, 1])
    n = gather_rows(embeddings, idx[:, 2])
    d_ap = rownorm(a - p)
    d_an = rownorm(a - n)
    return relu(d_ap - d_an + margin)


def ktuplet_upper_bound(k: int, margin: float) -> float:
    """Range bound 2 + (k-2) * margin for a k-element tuple."""
    return 2.0 + (k - 2) * margin


def ktuplet_batch_term(embeddings: Tensor, tuples, margin: float) -> Tensor:
    """Per-tuple chained hinge losses [T] for index tuples (anchor, x1, ..., x_{k-1}).

    Sums triplet_batch_term over the links (0, j+1, j+2). Members after
    the anchor must be ordered by distance from it: x1 nearest, the last
    member farthest, with every interior member in between (ties
    tolerated up to 1e-9). For k = 3 this is triplet_batch_term itself.
    """
    idx = np.asarray(tuples, dtype=np.intp)
    if idx.ndim != 2:
        raise ShapeError(f"tuples must be a [T, k] index array, got {idx.shape}")
    k = idx.shape[1]
    if k < 3:
        raise ValidationError(f"a tuple needs at least 3 members, got {k}")
    if k >= 4:
        e = embeddings.data
        dists = np.linalg.norm(e[idx[:, :1]] - e[idx[:, 1:]], axis=2)
        lo, hi = dists[:, :1], dists[:, -1:]
        if np.any(lo > hi + ORDERING_TOL):
            raise ContractError("ordering violated: nearest member beyond the farthest")
        inner = dists[:, 1:-1]
        if np.any((inner + ORDERING_TOL < lo) | (inner > hi + ORDERING_TOL)):
            raise ContractError("ordering violated: an interior member lies outside [nearest, farthest]")
    total = triplet_batch_term(embeddings, idx[:, :3], margin)
    for j in range(1, k - 2):
        total = total + triplet_batch_term(embeddings, idx[:, [0, j + 1, j + 2]], margin)
    return total


def weight_penalty(params, lam: float) -> Tensor:
    """lam * sum of squared entries over the given weight parameters."""
    if lam < 0:
        raise ValidationError(f"weight penalty coefficient must be >= 0, got {lam}")
    total = Tensor(0.0)
    for w in params:
        total = total + tsum(autodiff.mul(w, w))
    return autodiff.mul(total, lam)


def mask_penalty(masks, coeff: float) -> Tensor:
    """coeff * sum of post-relu mask entries, an L1 push toward sparse gates."""
    if coeff < 0:
        raise ValidationError(f"mask penalty coefficient must be >= 0, got {coeff}")
    total = Tensor(0.0)
    for m in masks:
        total = total + tsum(relu(m))
    return autodiff.mul(total, coeff)


def batch_objective(losses: Tensor, params, lam: float = 0.0) -> Tensor:
    """Mean per-triplet loss plus lam * sum ||W||^2 over the weight parameters.

    losses is the 1-d tensor of per-triplet losses; gradients flow to
    embeddings and parameters.
    """
    if not isinstance(losses, Tensor) or losses.ndim != 1 or losses.data.size == 0:
        raise ShapeError("batch_objective needs a non-empty 1-d loss tensor")
    mean = tmean(losses)
    if lam == 0.0:
        return mean
    return mean + weight_penalty(params, lam)
