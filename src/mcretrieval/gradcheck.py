"""Central-finite-difference gradient checking."""

from dataclasses import dataclass, field

import numpy as np

from . import autodiff


@dataclass
class GradCheckReport:
    max_rel_error: float
    tol: float
    h: float
    per_param: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.max_rel_error < self.tol


def grad_check(f, params, h: float = 1e-5, tol: float = 1e-4) -> GradCheckReport:
    """Compare reverse-mode gradients of f() against central finite differences.

    f must be a deterministic scalar-valued closure over params (no mask
    source, or a stream rebuilt identically on every call so the mask is
    frozen). A failing check is a report outcome,
    not an exception.
    """
    params = list(params)
    for p in params:
        p.grad = None
    out = f()
    out.backward()
    analytic = [np.array(p.grad) if p.grad is not None else np.zeros_like(p.data) for p in params]

    per_param = {}
    worst = 0.0
    with autodiff.no_grad():
        for k, p in enumerate(params):
            flat = p.data.reshape(-1)
            ana = analytic[k].reshape(-1)
            err = 0.0
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                f_plus = float(f().data)
                flat[i] = orig - h
                f_minus = float(f().data)
                flat[i] = orig
                numeric = (f_plus - f_minus) / (2.0 * h)
                denom = max(abs(ana[i]), abs(numeric), 1e-6)
                err = max(err, abs(ana[i] - numeric) / denom)
            name = p.name if isinstance(p, autodiff.Parameter) else f"param{k}"
            per_param[name] = err
            worst = max(worst, err)
    return GradCheckReport(max_rel_error=worst, tol=tol, h=h, per_param=per_param)
