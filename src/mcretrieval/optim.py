"""Adam optimizer and the linear-decay learning-rate schedule."""

import numpy as np

from .autodiff import Parameter
from .errors import DivergenceError, ValidationError


def lr_schedule(epoch: int, total_epochs: int, base_lr: float, decay_start: int) -> float:
    """Constant base_lr up to decay_start, then linear decay to 0 at total_epochs."""
    if not (0 <= epoch <= total_epochs):
        raise ValidationError(f"epoch {epoch} outside [0, {total_epochs}]")
    if not (0 <= decay_start < total_epochs):
        raise ValidationError(f"decay_start {decay_start} must lie in [0, total_epochs)")
    if epoch <= decay_start:
        return base_lr
    return base_lr * (total_epochs - epoch) / (total_epochs - decay_start)


class Adam:
    """Adam on the gradients backward() left in each parameter.

    Weight decay is not applied here; it enters the loss as a penalty term.
    """

    def __init__(self, params, lr: float = 0.01, betas=(0.9, 0.999), eps: float = 1e-8):
        self.params = [p for p in params]
        if not self.params:
            raise ValidationError("Adam needs at least one parameter")
        if lr <= 0 or eps <= 0:
            raise ValidationError(f"bad Adam hyperparameters lr={lr} eps={eps}")
        b1, b2 = betas
        if not (0.0 <= b1 < 1.0 and 0.0 <= b2 < 1.0):
            raise ValidationError(f"betas must lie in [0, 1), got {betas}")
        self.lr = lr
        self.b1, self.b2 = b1, b2
        self.eps = eps
        self.t = 0
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]

    def zero_grad(self):
        for p in self.params:
            p.grad = None

    def step(self, lr: float = None):
        lr = self.lr if lr is None else lr
        self.t += 1
        bc1 = 1.0 - self.b1 ** self.t
        bc2 = 1.0 - self.b2 ** self.t
        for p, m, v in zip(self.params, self._m, self._v):
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            if not np.all(np.isfinite(g)):
                name = p.name if isinstance(p, Parameter) else "<unnamed>"
                raise DivergenceError(f"non-finite gradient for parameter {name}")
            m *= self.b1
            m += (1.0 - self.b1) * g
            v *= self.b2
            v += (1.0 - self.b2) * (g * g)
            p.data -= lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)
