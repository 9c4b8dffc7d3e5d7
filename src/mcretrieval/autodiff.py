"""Reverse-mode automatic differentiation over float64 arrays.

A Tensor wraps an ndarray and remembers how it was produced; calling
backward() on a scalar output walks the recorded graph once in reverse
topological order and accumulates gradients into every tensor that
requires them. All arithmetic is float64 throughout.
"""

import contextlib
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, ShapeError, ValidationError
from .rng import RngStream

_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Disable graph recording inside the block (inference fast path)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class Tensor:
    """A float64 array plus gradient bookkeeping."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = requires_grad
        self._backward = None
        self._parents = ()

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def backward(self):
        if self.data.size != 1:
            raise ContractError("backward() is only defined for a scalar output")
        # iterative postorder: the graph for a long training step can be deep
        topo = []
        visited = set()
        stack = [(self, False)]
        while stack:
            node, done = stack.pop()
            if done:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in visited:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is not None:
                node._backward(node)

    # operator sugar
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return mul(self, -1.0)

    def __sub__(self, other):
        return add(self, mul(_wrap(other), -1.0))

    def __rsub__(self, other):
        return add(_wrap(other), mul(self, -1.0))

    def __matmul__(self, other):
        return matmul(self, other)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


class Parameter(Tensor):
    """A named trainable tensor."""

    __slots__ = ("name",)

    def __init__(self, data, name: str):
        super().__init__(data, requires_grad=True)
        self.name = name

    def __repr__(self):
        return f"Parameter({self.name}, shape={self.data.shape})"


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _accum(t: Tensor, g: np.ndarray):
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    t.grad += g


def _node(data, parents, backward) -> Tensor:
    # backward(out) is handed its node rather than closing over it, so a
    # graph holds no reference cycle and refcounting frees it
    out = Tensor(data)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward
    return out


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    # reduce a gradient back to `shape` after numpy broadcasting
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, s in enumerate(shape):
        if s == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


def add(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    data = a.data + b.data

    def backward(out):
        if a.requires_grad:
            _accum(a, _unbroadcast(out.grad, a.data.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(out.grad, b.data.shape))

    return _node(data, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    data = a.data * b.data

    def backward(out):
        if a.requires_grad:
            _accum(a, _unbroadcast(out.grad * b.data, a.data.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(out.grad * a.data, b.data.shape))

    return _node(data, (a, b), backward)


def matmul(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    if b.data.ndim != 2:
        raise ShapeError(f"matmul expects a 2-d right operand, got {b.data.shape}")
    if a.data.ndim not in (1, 2):
        raise ShapeError(f"matmul expects a 1-d or 2-d left operand, got {a.data.shape}")
    if a.data.shape[-1] != b.data.shape[0]:
        raise ShapeError(f"matmul inner dims differ: {a.data.shape} @ {b.data.shape}")
    data = a.data @ b.data

    def backward(out):
        g = out.grad
        if a.requires_grad:
            _accum(a, g @ b.data.T)
        if b.requires_grad:
            _accum(b, np.outer(a.data, g) if a.data.ndim == 1 else a.data.T @ g)

    return _node(data, (a, b), backward)


def tanh(x) -> Tensor:
    x = _wrap(x)
    data = np.tanh(x.data)

    def backward(out):
        _accum(x, out.grad * (1.0 - out.data * out.data))

    return _node(data, (x,), backward)


def relu(x) -> Tensor:
    x = _wrap(x)
    data = np.maximum(x.data, 0.0)

    def backward(out):
        # subgradient at 0 is 0
        _accum(x, out.grad * (x.data > 0.0))

    return _node(data, (x,), backward)


def tsum(x) -> Tensor:
    x = _wrap(x)
    data = np.sum(x.data)

    def backward(out):
        _accum(x, np.broadcast_to(out.grad, x.data.shape).copy())

    return _node(data, (x,), backward)


def tmean(x) -> Tensor:
    x = _wrap(x)
    n = x.data.size
    data = np.sum(x.data) / n

    def backward(out):
        _accum(x, np.broadcast_to(out.grad / n, x.data.shape).copy())

    return _node(data, (x,), backward)


def reshape(x, shape) -> Tensor:
    x = _wrap(x)
    data = x.data.reshape(shape)

    def backward(out):
        _accum(x, out.grad.reshape(x.data.shape))

    return _node(data, (x,), backward)


def gather_rows(x, idx) -> Tensor:
    """Select rows idx (with repeats allowed) of a 2-d tensor."""
    x = _wrap(x)
    idx = np.asarray(idx, dtype=np.intp)
    if x.data.ndim != 2:
        raise ShapeError(f"gather_rows expects a 2-d tensor, got {x.data.shape}")
    data = x.data[idx]

    def backward(out):
        if x.grad is None:
            x.grad = np.zeros_like(x.data)
        np.add.at(x.grad, idx, out.grad)

    return _node(data, (x,), backward)


def rownorm(x) -> Tensor:
    """Row-wise Euclidean norms of a 2-d tensor; zero rows get zero gradient."""
    x = _wrap(x)
    if x.data.ndim != 2:
        raise ShapeError(f"rownorm expects a 2-d tensor, got {x.data.shape}")
    data = np.sqrt(np.sum(x.data * x.data, axis=1))

    def backward(out):
        safe = np.where(out.data > 0.0, out.data, 1.0)
        _accum(x, (out.grad * (out.data > 0.0) / safe)[:, None] * x.data)

    return _node(data, (x,), backward)


def l2_normalize(x, eps: float = 1e-12) -> Tensor:
    """Scale a vector (or each row of a matrix) to unit Euclidean norm.

    Inputs with norm below eps are divided by eps instead, so the zero
    vector maps to the zero vector rather than raising.
    """
    x = _wrap(x)
    if x.data.ndim not in (1, 2):
        raise ShapeError(f"l2_normalize expects a 1-d or 2-d tensor, got {x.data.shape}")
    n = np.sqrt(np.sum(x.data * x.data, axis=-1, keepdims=True))
    denom = np.maximum(n, eps)
    data = x.data / denom

    def backward(out):
        g = out.grad
        dot = np.sum(g * out.data, axis=-1, keepdims=True)
        active = n > eps
        _accum(x, np.where(active, (g - out.data * dot) / denom, g / denom))

    return _node(data, (x,), backward)


DISABLED = "disabled"
STOCHASTIC = "stochastic"


@dataclass(frozen=True)
class DropoutSpec:
    """Dropout rate plus mode; Disabled mode is an exact identity."""

    rate: float
    mode: str = DISABLED

    def __post_init__(self):
        if not (0.0 <= self.rate < 1.0):
            raise ValidationError(f"dropout rate must lie in [0, 1), got {self.rate}")
        if self.mode not in (DISABLED, STOCHASTIC):
            raise ValidationError(f"unknown dropout mode {self.mode!r}")

    @property
    def stochastic(self) -> bool:
        return self.mode == STOCHASTIC


def dropout_apply(x, spec: DropoutSpec, rng: RngStream = None) -> Tensor:
    """Inverted dropout: keep each unit with probability 1-rate, scale kept units by 1/(1-rate)."""
    x = _wrap(x)
    if not spec.stochastic:
        return x
    if rng is None:
        raise ValidationError("stochastic dropout needs an RngStream")
    keep = rng.uniform(x.data.shape) >= spec.rate
    scale = keep / (1.0 - spec.rate)
    data = x.data * scale

    def backward(out):
        _accum(x, out.grad * scale)

    return _node(data, (x,), backward)


def dense_forward(x, weight, bias) -> Tensor:
    """Affine layer x @ W + b for a single vector or a batch of rows."""
    x, weight, bias = _wrap(x), _wrap(weight), _wrap(bias)
    if weight.data.ndim != 2:
        raise ShapeError(f"dense weight must be 2-d, got {weight.data.shape}")
    if bias.data.shape != (weight.data.shape[1],):
        raise ShapeError(f"dense bias shape {bias.data.shape} does not match weight {weight.data.shape}")
    if x.data.shape[-1] != weight.data.shape[0]:
        raise ShapeError(f"dense input dim {x.data.shape[-1]} does not match weight rows {weight.data.shape[0]}")
    return add(matmul(x, weight), bias)


def rnn_steps(xs, w_in, w_rec, bias, spec: DropoutSpec = None, rng: RngStream = None) -> Tensor:
    """Elman recurrence h_t = tanh(W_x drop(x_t) + W_h h_{t-1} + b) over a list of step inputs.

    h_0 is zero; dropout sits on the input path only. Returns the final hidden state.
    """
    if not xs:
        raise ShapeError("rnn needs at least one step")
    hidden = w_rec.data.shape[0]
    if w_rec.data.shape != (hidden, hidden):
        raise ShapeError(f"recurrent weight must be square, got {w_rec.data.shape}")
    if w_in.data.shape[1] != hidden or bias.data.shape != (hidden,):
        raise ShapeError("rnn parameter shapes are inconsistent")
    first = _wrap(xs[0])
    lead = first.data.shape[:-1]  # () for a single item, (batch,) for a batch
    h = Tensor(np.zeros(lead + (hidden,)))
    for x in xs:
        x = _wrap(x)
        if spec is not None:
            x = dropout_apply(x, spec, rng)
        h = tanh(add(add(matmul(x, w_in), matmul(h, w_rec)), bias))
    return h

