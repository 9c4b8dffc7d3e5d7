"""Triplet losses recast as bounded regression targets.

The normalized triplet loss maps a triple of unit embeddings to
hinge(D(a, p) - D(a, n) + m), which lives in [0, 2 + m] because
Euclidean distances between unit vectors are bounded by 2. The k-tuplet
form chains the same hinge over consecutive members; the soft-margin
form drops both the margin and the unit-norm requirement and is bounded
below only.
"""

from dataclasses import dataclass

import numpy as np

from . import autodiff
from .autodiff import Tensor, gather_rows, relu, rownorm, tmean, tsum
from .errors import ContractError, ShapeError, ValidationError

UNIT_NORM_TOL = 1e-6
ORDERING_TOL = 1e-9


@dataclass
class LossValue:
    """Scalar loss plus the gradient with respect to each input embedding."""

    value: float
    grads: list

    def __post_init__(self):
        if not np.isfinite(self.value) or self.value < 0.0:
            raise ContractError(f"loss value must be finite and non-negative, got {self.value}")


def _as_vector(x, what):
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ShapeError(f"{what} must be a 1-d embedding, got shape {x.shape}")
    return x


def _require_unit(x, what):
    n = np.linalg.norm(x)
    if abs(n - 1.0) > UNIT_NORM_TOL:
        raise ContractError(f"{what} must be unit-norm within {UNIT_NORM_TOL}, got norm {n}")


def _require_margin(m):
    if not (np.isfinite(m) and m >= 0.0):
        raise ValidationError(f"margin must be finite and >= 0, got {m}")


def _dist_grad(a, b):
    # distance plus d(dist)/da; the gradient at coincident points is zero
    diff = a - b
    d = float(np.sqrt(np.dot(diff, diff)))
    g = diff / d if d > 0.0 else np.zeros_like(diff)
    return d, g


def _hinge_term(anchor, near, far, margin):
    """hinge(D(anchor, near) - D(anchor, far) + margin) and its three gradients."""
    d_near, g_near = _dist_grad(anchor, near)
    d_far, g_far = _dist_grad(anchor, far)
    pre = d_near - d_far + margin
    if pre > 0.0:
        return pre, g_near - g_far, -g_near, g_far
    z = np.zeros_like(anchor)
    return 0.0, z, z, z


def triplet_regression(anchor, positive, negative, margin: float = 0.2) -> LossValue:
    """Bounded triplet loss on unit embeddings: hinge(D(a,p) - D(a,n) + margin)."""
    _require_margin(margin)
    a = _as_vector(anchor, "anchor")
    p = _as_vector(positive, "positive")
    n = _as_vector(negative, "negative")
    if not (a.shape == p.shape == n.shape):
        raise ShapeError(f"embeddings must share a dimension, got {a.shape}, {p.shape}, {n.shape}")
    for x, what in ((a, "anchor"), (p, "positive"), (n, "negative")):
        _require_unit(x, what)
    val, ga, gp, gn = _hinge_term(a, p, n, margin)
    return LossValue(val, [ga, gp, gn])


def ktuplet_upper_bound(k: int, margin: float) -> float:
    """Range bound 2 + (k-2) * margin for a k-element tuple."""
    return 2.0 + (k - 2) * margin


def ktuplet_loss(xs, margin: float = 0.2) -> LossValue:
    """Chained hinge loss over a tuple (anchor, x1, ..., x_{k-1}) of unit embeddings.

    Members after the anchor must be ordered by distance from it: x1
    nearest, the last member farthest, with every interior member in
    between (ties tolerated up to 1e-9). For k = 3 this reduces exactly
    to triplet_regression on the same three embeddings.
    """
    _require_margin(margin)
    xs = [_as_vector(x, f"member {i}") for i, x in enumerate(xs)]
    k = len(xs)
    if k < 3:
        raise ValidationError(f"a tuple needs at least 3 members, got {k}")
    dim = xs[0].shape
    for i, x in enumerate(xs):
        if x.shape != dim:
            raise ShapeError(f"member {i} has shape {x.shape}, expected {dim}")
        _require_unit(x, f"member {i}")
    dists = [float(np.linalg.norm(xs[0] - x)) for x in xs[1:]]
    if k >= 4:
        lo, hi = dists[0], dists[-1]
        if lo > hi + ORDERING_TOL:
            raise ContractError(f"ordering violated: nearest member at {lo} beyond farthest at {hi}")
        for j, d in enumerate(dists[1:-1], start=2):
            if d + ORDERING_TOL < lo or d > hi + ORDERING_TOL:
                raise ContractError(f"ordering violated: member {j} at distance {d} outside [{lo}, {hi}]")
    total = 0.0
    grads = [np.zeros_like(x) for x in xs]
    for j in range(k - 2):
        val, ga, gn, gf = _hinge_term(xs[0], xs[j + 1], xs[j + 2], margin)
        total += val
        grads[0] += ga
        grads[j + 1] += gn
        grads[j + 2] += gf
    return LossValue(total, grads)


def softmargin_triplet(anchor, positive, negative) -> LossValue:
    """Margin-free hinge loss hinge(D(a,p) - D(a,n)) on unconstrained embeddings."""
    a = _as_vector(anchor, "anchor")
    p = _as_vector(positive, "positive")
    n = _as_vector(negative, "negative")
    if not (a.shape == p.shape == n.shape):
        raise ShapeError(f"embeddings must share a dimension, got {a.shape}, {p.shape}, {n.shape}")
    val, ga, gp, gn = _hinge_term(a, p, n, 0.0)
    return LossValue(val, [ga, gp, gn])


# --- graph builders used by training and gradient checks ---


def triplet_term(anchor: Tensor, positive: Tensor, negative: Tensor, margin: float) -> Tensor:
    """Single triplet hinge as an autodiff expression."""
    _require_margin(margin)
    d_ap = autodiff.euclidean(anchor, positive)
    d_an = autodiff.euclidean(anchor, negative)
    return relu(d_ap - d_an + margin)


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
