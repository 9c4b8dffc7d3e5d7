"""Run configuration with published defaults.

A config file is one flat JSON object; unknown keys are rejected so a
typo cannot silently fall back to a default. Every report echoes the
config it was produced under.
"""

import contextlib
import itertools
import json
import math
import os
import shutil
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .errors import ContractError, ParseError, ValidationError

BATCH_HARD = "batch-hard"
SEMI_HARD = "semi-hard"
TRIPLET = "triplet"
SOFT_MARGIN = "soft-margin"


@dataclass
class RunConfig:
    margin: float = 0.2
    dropout: float = 0.1
    embed_dim: int = 128
    mc: int = 50
    p_classes: int = 18
    k_per_class: int = 4
    batch_size: int = 512
    triplet_cap: int = 400
    epochs: int = 500
    lr: float = 0.01
    decay_start: int = 250
    weight_decay: float = 0.0
    mask_l1: float = 0.0
    miner: str = SEMI_HARD
    loss: str = TRIPLET
    seed: int = 0
    # model plumbing not tied to any published number
    hidden_dim: int = 128
    frame_samples: int = 3
    sessions_per_draw: int = 3
    normalize: bool = True

    def __post_init__(self):
        if self.margin < 0:
            raise ValidationError("margin must be >= 0")
        if not 0.0 <= self.dropout < 1.0:
            raise ValidationError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.embed_dim < 1 or self.hidden_dim < 1:
            raise ValidationError("embedding and hidden dims must be >= 1")
        if self.mc < 1:
            raise ValidationError("mc must be >= 1")
        if self.p_classes < 2 or self.k_per_class < 2:
            raise ValidationError("PK sampling needs P >= 2 and K >= 2")
        if self.batch_size < 1 or self.triplet_cap < 1:
            raise ValidationError("batch size and triplet cap must be >= 1")
        if self.epochs < 1:
            raise ValidationError("epochs must be >= 1")
        if not 0 <= self.decay_start < self.epochs:
            raise ValidationError("decay_start must lie in [0, epochs)")
        if self.lr <= 0:
            raise ValidationError("lr must be positive")
        if self.weight_decay < 0 or self.mask_l1 < 0:
            raise ValidationError("penalty coefficients must be >= 0")
        if self.miner not in (BATCH_HARD, SEMI_HARD):
            raise ValidationError(f"miner must be {BATCH_HARD!r} or {SEMI_HARD!r}")
        if self.loss not in (TRIPLET, SOFT_MARGIN):
            raise ValidationError(f"loss must be {TRIPLET!r} or {SOFT_MARGIN!r}")
        if self.seed < 0:
            raise ValidationError("seed must be >= 0")
        if self.frame_samples < 1 or self.sessions_per_draw < 1:
            raise ValidationError("frame_samples and sessions_per_draw must be >= 1")

    def to_dict(self) -> dict:
        return asdict(self)

    def replace(self, **changes) -> "RunConfig":
        d = self.to_dict()
        d.update(changes)
        return RunConfig(**d)


def load_config(path, overrides: dict | None = None) -> RunConfig:
    """Read a flat JSON config; overrides (e.g. CLI flags) win over the file.

    An unknown key, or a value whose JSON type does not match its field, is a ValidationError.
    """
    doc = load_json(path)
    if not isinstance(doc, dict):
        raise ParseError("config must be a JSON object", path=str(path), line=1)
    unknown = sorted(set(doc) - {f.name for f in fields(RunConfig)})
    if unknown:
        raise ValidationError(f"unknown config keys: {', '.join(unknown)}")
    if overrides:
        doc.update({k: v for k, v in overrides.items() if v is not None})
    return RunConfig(**check_json_types(RunConfig, doc, "config key"))


def load_json(path):
    """The JSON document in the file at path; malformed JSON or UTF-8 is a ParseError at its line."""
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except json.JSONDecodeError as e:
        raise ParseError(e.msg, path=str(path), line=e.lineno) from None
    except UnicodeDecodeError as e:  # json.load reads the whole file, so e.object holds all its bytes
        raise ParseError(f"not UTF-8: {e.reason}", path=str(path),
                         line=e.object.count(b"\n", 0, e.start) + 1) from None


def json_line(doc) -> str:
    """doc as one line of compact JSON with sorted keys, the layout of every document the program writes."""
    try:
        return json.dumps(doc, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n"
    except ValueError:  # NaN and Infinity are not JSON, and no reader of ours takes them
        raise ContractError("a non-finite number cannot be written as JSON") from None


def write_lines(path, docs):
    """Stream each doc as a json_line into PATH.tmp, then os.replace it onto path: the writer of every output file.

    On any error the tmp file goes and the error is re-raised, so path keeps its old bytes or stays absent.
    """
    if os.path.exists(path) and not os.path.isfile(path):  # a directory, device or FIFO is never replaced
        raise ValidationError(f"{path} is not a regular file")
    path = os.path.realpath(path)  # a symlink is written through, not replaced
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w") as f:
            f.writelines(map(json_line, docs))
        if os.path.exists(path):  # an existing file keeps its permission bits
            shutil.copymode(path, tmp)
        os.replace(tmp, path)
    except BaseException:  # a refused doc, a failed write or an interrupt alike
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def check_json_types(cls, doc: dict, what: str) -> dict:
    """doc, once each value in it has the JSON type of cls's field of that name; else a ValidationError.

    A bool field takes only a bool, an int field only an int, a float field any
    finite number, a str field a string; null only where the default is None.
    Keys that name no field are left to the caller.
    """
    for f in fields(cls):
        if f.name not in doc or doc[f.name] is None and f.default is None:
            continue
        value, want = doc[f.name], f.type
        # bool is an int subclass, so only a bool field may take one; a float field takes an int
        if isinstance(value, bool) != (want is bool) \
                or not isinstance(value, (int, float) if want is float else want) \
                or (want is float and not math.isfinite(value)):
            kind = "a finite number" if want is float else f"of type {want.__name__}"
            raise ValidationError(f"{what} {f.name!r} must be {kind}, got {value!r}")
    return doc


def number_array(raw, what: str) -> np.ndarray:
    """raw as a rectangular float64 array of finite JSON numbers (no bool or string), else a ValidationError."""
    try:
        arr = np.array(raw, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as e:
        raise ValidationError(f"{what} must be a rectangular array of numbers: {e}") from None
    elements = [raw]
    for _ in range(arr.ndim):
        elements = itertools.chain.from_iterable(elements)
    strays = set(map(type, elements)) - {int, float}
    if strays:
        raise ValidationError(f"{what} must hold only numbers, got a {min(t.__name__ for t in strays)}")
    if not np.isfinite(arr).all():
        raise ValidationError(f"{what} holds a non-finite number")
    return arr
