"""Conditional multi-modal retrieval embeddings with MC-dropout uncertainty."""

__version__ = "0.1.0"

from .autodiff import (
    Parameter,
    Tensor,
    dense_forward,
    dropout_apply,
    l2_normalize,
    no_grad,
)
from .errors import (
    ContractError,
    DivergenceError,
    McRetrievalError,
    MiningError,
    ParseError,
    SamplingError,
    ShapeError,
    ValidationError,
)
from .gradcheck import GradCheckReport, grad_check
from .optim import Adam, lr_schedule
from .rng import RngStream
