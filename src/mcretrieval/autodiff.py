"""Reverse-mode automatic differentiation over float64 arrays.

A Tensor wraps an ndarray and remembers how it was produced; calling
backward() on a scalar output walks the recorded graph once in reverse
topological order and accumulates gradients into every tensor that
requires them. All arithmetic is float64 throughout.
"""

import contextlib

import numpy as np

from .errors import ContractError, ShapeError

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

    def __sub__(self, other):
        return add(self, mul(_wrap(other), -1.0))

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
        t.grad = g + 0.0  # a fresh array, and -0.0 stored as +0.0 as a zero start would
    else:
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


def affine(pairs, bias) -> Tensor:
    """x_1 @ W_1 + ... + x_k @ W_k + b, summed left to right, as one node.

    Each x is one vector or a batch of rows; each W is [rows, width] with
    b's width. Parents are (x_1, W_1, ..., x_k, W_k, b), so backward visits
    b first and then the pairs from last to first. That visit order fixes
    the order in which a shared weight's gradients sum, and so the
    trained bits: keep it.
    """
    pairs = [(_wrap(x), _wrap(w)) for x, w in pairs]
    bias = _wrap(bias)
    for x, w in pairs:
        if w.data.ndim != 2 or x.data.ndim not in (1, 2) or x.data.shape[-1] != w.data.shape[0] \
                or bias.data.shape != w.data.shape[1:]:
            raise ShapeError(f"affine expects x [.., n] @ W [n, m] + b [m], got {x.data.shape} @ "
                             f"{w.data.shape} + {bias.data.shape}")
    data = pairs[0][0].data @ pairs[0][1].data
    for x, w in pairs[1:]:
        data = data + x.data @ w.data
    data = data + bias.data

    def backward(out):
        g = out.grad
        if bias.requires_grad:
            _accum(bias, _unbroadcast(g, bias.data.shape))
        for x, w in pairs:
            if x.requires_grad:
                _accum(x, g @ w.data.T)
            if w.requires_grad:
                _accum(w, np.outer(x.data, g) if x.data.ndim == 1 else x.data.T @ g)

    return _node(data, [t for pair in pairs for t in pair] + [bias], backward)


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


def dropout_apply(x, rate: float, rng=None) -> Tensor:
    """Inverted dropout with masks drawn from rng; the identity when there is no rng.

    Keeps each unit with probability 1-rate and scales kept units by 1/(1-rate).
    """
    x = _wrap(x)
    if rng is None:
        return x
    keep = rng.uniform(x.data.shape) >= rate
    scale = keep / (1.0 - rate)
    data = x.data * scale

    def backward(out):
        _accum(x, out.grad * scale)

    return _node(data, (x,), backward)


def dense_forward(x, weight, bias) -> Tensor:
    """Affine layer x @ W + b for a single vector or a batch of rows."""
    return affine([(x, weight)], bias)


def rnn_steps(xs, w_in, w_rec, bias, rate: float = 0.0, rng=None) -> Tensor:
    """Elman recurrence h_t = tanh(W_x drop(x_t) + W_h h_{t-1} + b) over a list of step inputs.

    h_0 is zero, so step 1 is tanh(W_x drop(x_1) + b); dropout at rate, drawn from rng, sits on
    the input path only. Returns the final hidden state.
    """
    if not xs:
        raise ShapeError("rnn needs at least one step")
    bias = _wrap(bias)
    if w_rec.data.shape != 2 * bias.data.shape:  # affine checks W_x and b against each other
        raise ShapeError(f"recurrent weight must be [b, b] for a bias [b], got {w_rec.data.shape}, {bias.data.shape}")
    h = tanh(affine([(dropout_apply(xs[0], rate, rng), w_in)], bias))
    for x in xs[1:]:
        h = tanh(affine([(dropout_apply(x, rate, rng), w_in), (h, w_rec)], bias))
    return h

