"""Conditional multi-modal embedding network.

Each modality is encoded to the shared embedding dimension, available
modality embeddings are fused by their mean, and a per-notion mask
(elementwise, rectified, initialized to one) gates the fused vector
before L2 normalization. Dropout sits in front of every weight layer;
the hidden-to-hidden path of the recurrence carries none.
"""

import functools
import json
import os
from dataclasses import dataclass

import numpy as np

from . import autodiff
from .autodiff import (
    DropoutSpec,
    Parameter,
    Tensor,
    dense_forward,
    dropout_apply,
    l2_normalize,
    relu,
    rnn_steps,
)
from .errors import ParseError, ShapeError, ValidationError
from .rng import RngStream

VECTOR = "vector"
SEQUENCE = "sequence"


@dataclass(frozen=True)
class ModalitySpec:
    """Shape and encoder layout for one input modality.

    Sequence payloads are [T, input_dim] frame stacks; samples frames are
    drawn per pass and fused by the recurrence. cells > 1 splits each
    frame into equal cells encoded by one shared dense map (a 1x1
    convolution over the cell grid) whose outputs are re-flattened.
    """

    name: str
    kind: str
    input_dim: int
    hidden_dim: int = None
    samples: int = 3
    cells: int = 1

    def __post_init__(self):
        if self.kind not in (VECTOR, SEQUENCE):
            raise ValidationError(f"modality kind must be vector or sequence, got {self.kind!r}")
        if self.input_dim < 1 or self.samples < 1 or self.cells < 1:
            raise ValidationError(f"bad dims for modality {self.name}")
        if self.kind == SEQUENCE and self.hidden_dim is None:
            raise ValidationError(f"sequence modality {self.name} needs hidden_dim")
        if self.cells > 1:
            if self.input_dim % self.cells or (self.hidden_dim or 0) % self.cells:
                raise ValidationError(f"cells must divide input and hidden dims for {self.name}")

    def to_dict(self):
        return {
            "name": self.name,
            "kind": self.kind,
            "input_dim": self.input_dim,
            "hidden_dim": self.hidden_dim,
            "samples": self.samples,
            "cells": self.cells,
        }


def sample_frame_indices(length: int, n: int, spec: DropoutSpec, rng: RngStream) -> np.ndarray:
    """Frame picks for one pass, ascending.

    Stochastic mode draws uniformly (without replacement when the
    sequence is long enough); Disabled mode is rng-free and picks evenly
    spaced frames so deterministic passes stay bit-reproducible. A zero
    dropout rate makes Stochastic a no-op, so it falls back to the same
    deterministic grid and the whole forward collapses to the baseline.
    """
    if length < 1:
        raise ValidationError("empty sequence payload")
    if not spec.stochastic or spec.rate == 0.0:
        return _frame_grid(length, n)
    return np.sort(rng.choice(length, size=n, replace=length < n)).astype(np.intp)


@functools.lru_cache(maxsize=4096)
def _frame_grid(length: int, n: int) -> np.ndarray:
    # read-only, because every caller shares the one cached array
    grid = np.round(np.linspace(0, length - 1, n)).astype(np.intp)
    grid.setflags(write=False)
    return grid


class ConditionalNet:
    """Multi-modal encoder with one retrieval mask per similarity notion."""

    def __init__(self, modalities, notions, embed_dim: int, dropout_rate: float,
                 seed: int = 0, normalize: bool = True, _init: bool = True):
        if not modalities:
            raise ValidationError("need at least one modality")
        if not notions:
            raise ValidationError("need at least one similarity notion")
        if len({m.name for m in modalities}) != len(list(modalities)):
            raise ValidationError("duplicate modality names")
        if len(set(notions)) != len(list(notions)):
            raise ValidationError("duplicate notion names")
        if embed_dim < 1:
            raise ValidationError(f"embed_dim must be positive, got {embed_dim}")
        DropoutSpec(dropout_rate)  # range check
        self.modalities = list(modalities)
        self.notions = list(notions)
        self.embed_dim = embed_dim
        self.dropout_rate = dropout_rate
        self.normalize = normalize
        self.seed = seed
        self.params = {}
        self._build(RngStream(seed, 0) if _init else None)

    def _add(self, name, shape, rng, fan_in=None):
        if rng is None or fan_in is None:
            data = np.zeros(shape)
        else:
            data = rng.normal(shape) / np.sqrt(fan_in)
        self.params[name] = Parameter(data, name)

    def _build(self, rng):
        d = self.embed_dim
        for m in self.modalities:
            pre = f"enc.{m.name}"
            if m.kind == VECTOR:
                if m.hidden_dim:
                    self._add(f"{pre}.w0", (m.input_dim, m.hidden_dim), rng, m.input_dim)
                    self._add(f"{pre}.b0", (m.hidden_dim,), rng)
                    self._add(f"{pre}.w1", (m.hidden_dim, d), rng, m.hidden_dim)
                    self._add(f"{pre}.b1", (d,), rng)
                else:
                    self._add(f"{pre}.w0", (m.input_dim, d), rng, m.input_dim)
                    self._add(f"{pre}.b0", (d,), rng)
            else:
                cin, cout = m.input_dim // m.cells, m.hidden_dim // m.cells
                self._add(f"{pre}.frame.w", (cin, cout), rng, cin)
                self._add(f"{pre}.frame.b", (cout,), rng)
                self._add(f"{pre}.rnn.wx", (m.hidden_dim, d), rng, m.hidden_dim)
                self._add(f"{pre}.rnn.wh", (d, d), rng, d)
                self._add(f"{pre}.rnn.b", (d,), rng)
        for s in self.notions:
            name = f"mask.{s}"
            self.params[name] = Parameter(np.ones(d), name)

    # --- parameter access ---

    def parameters(self):
        return list(self.params.values())

    def weight_matrices(self):
        """2-d weight parameters, the ones the L2 objective term covers."""
        return [p for p in self.params.values() if p.data.ndim == 2]

    def mask_parameters(self):
        return [self.params[f"mask.{s}"] for s in self.notions]

    # --- forward pieces ---

    def _spec_by_name(self, name):
        for m in self.modalities:
            if m.name == name:
                return m
        raise ValidationError(f"unknown modality {name!r}; have {[m.name for m in self.modalities]}")

    def _encode_vector(self, m, x, spec, rng):
        pre = f"enc.{m.name}"
        h = dropout_apply(x, spec, rng)
        h = dense_forward(h, self.params[f"{pre}.w0"], self.params[f"{pre}.b0"])
        if m.hidden_dim:
            h = autodiff.tanh(h)
            h = dropout_apply(h, spec, rng)
            h = dense_forward(h, self.params[f"{pre}.w1"], self.params[f"{pre}.b1"])
        return h

    def _encode_frame(self, m, x, spec, rng):
        # shared dense over cells; cells == 1 is a plain frame encoder
        pre = f"enc.{m.name}"
        lead = x.data.shape[:-1]
        h = dropout_apply(x, spec, rng)
        if m.cells > 1:
            h = autodiff.reshape(h, (-1, m.input_dim // m.cells))
        h = dense_forward(h, self.params[f"{pre}.frame.w"], self.params[f"{pre}.frame.b"])
        if m.cells > 1:
            h = autodiff.reshape(h, lead + (m.hidden_dim,))
        return autodiff.tanh(h)

    def _encode_sequence(self, m, frames, spec, rng):
        pre = f"enc.{m.name}"
        steps = [self._encode_frame(m, f, spec, rng) for f in frames]
        return rnn_steps(
            steps,
            self.params[f"{pre}.rnn.wx"],
            self.params[f"{pre}.rnn.wh"],
            self.params[f"{pre}.rnn.b"],
            spec,
            rng,
        )

    def check_payloads(self, payloads: dict):
        """An item needs at least one payload, each of a modality this net encodes."""
        if not payloads:
            raise ValidationError("item has no modality payloads")
        for name in payloads:
            self._spec_by_name(name)

    def fuse(self, embeddings) -> Tensor:
        """Mean over the available modality embeddings (absent ones excluded)."""
        if not embeddings:
            raise ValidationError("fuse needs at least one modality embedding")
        total = embeddings[0]
        for e in embeddings[1:]:
            total = total + e
        return autodiff.mul(total, 1.0 / len(embeddings))

    def apply_mask(self, fused: Tensor, notion: str) -> Tensor:
        """Gate by the notion's rectified mask, then normalize (if enabled)."""
        if notion not in self.notions:
            raise ValidationError(f"unknown notion {notion!r}; have {self.notions}")
        gated = autodiff.mul(fused, relu(self.params[f"mask.{notion}"]))
        return l2_normalize(gated) if self.normalize else gated

    def forward(self, payloads: dict, notion: str, spec: DropoutSpec, rng: RngStream = None) -> Tensor:
        """Embed one item under one notion: a batch of one, flattened to [embed_dim]."""
        self.check_payloads(payloads)
        return autodiff.reshape(self.forward_batch([payloads], notion, spec, rng), (self.embed_dim,))

    def forward_batch(self, payload_list, notion: str, spec: DropoutSpec, rng=None) -> Tensor:
        """Embed a batch of items sharing the same available modalities.

        Stacks payloads per time step. rng is the mask source: a single
        RngStream draws every mask for the whole batch, while RowStreams
        gives row r its masks and frame picks from stream r, exactly as
        a batch of one on that stream would draw them.
        """
        if not payload_list:
            raise ValidationError("empty batch")
        present = [m for m in self.modalities if all(m.name in p for p in payload_list)]
        if not present:
            raise ValidationError("no modality is present across the whole batch")
        embs = []
        for m in present:
            name = m.name
            if m.kind == VECTOR:
                x = np.array([np.asarray(p[name], dtype=np.float64) for p in payload_list])
                if x.shape[1:] != (m.input_dim,):
                    raise ShapeError(f"modality {name} expects [{m.input_dim}] payloads")
                embs.append(self._encode_vector(m, Tensor(x), spec, rng))
            else:
                picked = []
                for r, p in enumerate(payload_list):
                    seq = np.asarray(p[name], dtype=np.float64)
                    if seq.ndim != 2 or seq.shape[1] != m.input_dim:
                        raise ShapeError(f"modality {name} expects [T, {m.input_dim}] payloads")
                    row_rng = None if rng is None else rng.row(r)
                    idx = sample_frame_indices(seq.shape[0], m.samples, spec, row_rng)
                    picked.append(seq[idx])
                stacked = np.array(picked)  # [B, samples, input_dim]
                frames = [Tensor(stacked[:, t, :]) for t in range(m.samples)]
                embs.append(self._encode_sequence(m, frames, spec, rng))
        return self.apply_mask(self.fuse(embs), notion)

    # --- checkpoints ---

    def to_checkpoint(self) -> dict:
        return {
            "format": "mcretrieval-checkpoint-v1",
            "embed_dim": self.embed_dim,
            "dropout_rate": self.dropout_rate,
            "normalize": self.normalize,
            "seed": self.seed,
            "notions": self.notions,
            "modalities": [m.to_dict() for m in self.modalities],
            "params": {
                name: {"shape": list(p.data.shape), "data": p.data.reshape(-1).tolist()}
                for name, p in self.params.items()
            },
        }

    @classmethod
    def from_checkpoint(cls, doc: dict) -> "ConditionalNet":
        """Rebuild a saved net; a document of the wrong layout or types is a ValidationError."""
        if not isinstance(doc, dict):
            raise ValidationError("a checkpoint must be a JSON object")
        if doc.get("format") != "mcretrieval-checkpoint-v1":
            raise ValidationError(f"not a checkpoint document (format={doc.get('format')!r})")
        try:
            mods = [ModalitySpec(**m) for m in doc["modalities"]]
            net = cls(
                mods,
                doc["notions"],
                doc["embed_dim"],
                doc["dropout_rate"],
                seed=doc.get("seed", 0),
                normalize=doc["normalize"],
                _init=False,
            )
            stored = doc["params"]
            for name, p in net.params.items():
                if name not in stored:
                    raise ValidationError(f"checkpoint is missing parameter {name}")
                shape = tuple(stored[name]["shape"])
                if shape != p.data.shape:
                    raise ValidationError(
                        f"checkpoint parameter {name} has shape {shape}, expected {p.data.shape}"
                    )
                p.data = np.array(stored[name]["data"], dtype=np.float64).reshape(shape)
                if not np.isfinite(p.data).all():
                    raise ValidationError(f"checkpoint parameter {name} holds a non-finite number")
        except KeyError as e:
            raise ValidationError(f"checkpoint is missing key {e}") from None
        except (TypeError, ValueError) as e:
            raise ValidationError(f"malformed checkpoint: {e}") from None
        extra = set(stored) - set(net.params)
        if extra:
            raise ValidationError(f"checkpoint has unexpected parameters {sorted(extra)}")
        return net


def save_checkpoint(net: ConditionalNet, path):
    """Write a self-describing checkpoint atomically; identical nets produce identical bytes."""
    text = json.dumps(net.to_checkpoint(), sort_keys=True, separators=(",", ":")) + "\n"
    tmp = f"{path}.tmp"
    with open(tmp, "w") as f:
        f.write(text)
    os.replace(tmp, path)


def load_checkpoint(path) -> ConditionalNet:
    """Read a checkpoint; malformed JSON is a ParseError, a malformed document a ValidationError."""
    with open(path) as f:
        try:
            doc = json.load(f)
        except json.JSONDecodeError as e:
            raise ParseError(e.msg, path=str(path), line=e.lineno) from None
    return ConditionalNet.from_checkpoint(doc)
