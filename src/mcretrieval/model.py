"""Conditional multi-modal embedding network.

Each modality is encoded to the shared embedding dimension, available
modality embeddings are fused by their mean, and a per-notion mask
(elementwise, rectified, initialized to one) gates the fused vector
before L2 normalization. Dropout sits in front of every weight layer;
the hidden-to-hidden path of the recurrence carries none.
"""

from dataclasses import asdict, dataclass

import numpy as np

from . import autodiff
from .autodiff import (
    Parameter,
    Tensor,
    dense_forward,
    dropout_apply,
    l2_normalize,
    relu,
    rnn_steps,
)
from .config import check_json_types, load_json, number_array, write_lines
from .errors import ShapeError, ValidationError
from .rng import RngStream

VECTOR = "vector"
SEQUENCE = "sequence"


@dataclass(frozen=True)
class ModalitySpec:
    """Shape and encoder layout for one input modality.

    Sequence payloads are [T, input_dim] frame stacks; samples frames are
    drawn per pass and fused by the recurrence. cells is always 1, a
    frame encoded whole; checkpoints record it.
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
        if self.input_dim < 1 or self.samples < 1 or self.cells != 1:
            raise ValidationError(f"modality {self.name} needs input_dim >= 1, samples >= 1 and cells = 1")
        if self.kind == SEQUENCE and self.hidden_dim is None:
            raise ValidationError(f"sequence modality {self.name} needs hidden_dim")


def sample_frame_indices(lengths, n: int, rng=None) -> np.ndarray:
    """[rows, n] frame picks, each row ascending, one row per sequence length.

    With a mask source the picks are drawn uniformly (without replacement
    when the sequence is long enough) with one rng.frame_picks call;
    without one they are evenly spaced and rng-free, so deterministic
    passes stay bit-reproducible.
    """
    if np.min(lengths) < 1:
        raise ValidationError("empty sequence payload")
    if rng is not None:
        return rng.frame_picks(lengths, n)
    # np.round(np.linspace(0, L - 1, n)) per row: linspace's float operations, less its
    # exact endpoint, which only moves the last value by an ulp of the integer L - 1
    last = np.asarray(lengths, dtype=np.float64)[:, None] - 1
    return np.round(np.arange(n) * (last / max(n - 1, 1))).astype(np.intp)


@dataclass(frozen=True)
class _CheckpointScalars:  # the JSON types of a checkpoint's scalar fields, for check_json_types
    embed_dim: int
    dropout_rate: float
    normalize: bool
    seed: int = 0


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
        if not 0.0 <= dropout_rate < 1.0:
            raise ValidationError(f"dropout rate must lie in [0, 1), got {dropout_rate}")
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
                self._add(f"{pre}.frame.w", (m.input_dim, m.hidden_dim), rng, m.input_dim)
                self._add(f"{pre}.frame.b", (m.hidden_dim,), rng)
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

    def _encode_vector(self, m, x, rng):
        pre = f"enc.{m.name}"
        h = dropout_apply(x, self.dropout_rate, rng)
        h = dense_forward(h, self.params[f"{pre}.w0"], self.params[f"{pre}.b0"])
        if m.hidden_dim:
            h = autodiff.tanh(h)
            h = dropout_apply(h, self.dropout_rate, rng)
            h = dense_forward(h, self.params[f"{pre}.w1"], self.params[f"{pre}.b1"])
        return h

    def _encode_frame(self, m, x, rng):
        pre = f"enc.{m.name}"
        h = dropout_apply(x, self.dropout_rate, rng)
        return autodiff.tanh(dense_forward(h, self.params[f"{pre}.frame.w"], self.params[f"{pre}.frame.b"]))

    def _encode_sequence(self, m, frames, rng):
        pre = f"enc.{m.name}"
        steps = [self._encode_frame(m, f, rng) for f in frames]
        return rnn_steps(steps, self.params[f"{pre}.rnn.wx"], self.params[f"{pre}.rnn.wh"],
                         self.params[f"{pre}.rnn.b"], self.dropout_rate, rng)

    def _payload_rows(self, m, payload) -> np.ndarray:
        """One payload checked against its modality, as [T, input_dim] rows; a vector is one row."""
        x = np.asarray(payload, dtype=np.float64)
        shape = (m.input_dim,) if m.kind == VECTOR else ("T", m.input_dim)
        if x.ndim != len(shape) or x.shape[-1] != m.input_dim:
            raise ShapeError(f"modality {m.name} expects [{', '.join(map(str, shape))}] payloads")
        if not len(x):
            raise ValidationError("empty sequence payload")
        return x.reshape(-1, m.input_dim)

    def pack(self, payload_list) -> dict:
        """Check items' payloads against the net and stack each modality once, for forward_batch.

        An item needs at least one payload, each of a modality this net
        encodes. Returns {modality: (rows [sum T, input_dim], starts [items],
        lengths [items])}; an item without the modality has length 0.
        """
        names = [m.name for m in self.modalities]
        for payloads in payload_list:
            if not payloads:
                raise ValidationError("item has no modality payloads")
            unknown = [name for name in payloads if name not in names]
            if unknown:
                raise ValidationError(f"unknown modality {unknown[0]!r}; have {names}")
        packed = {}
        for m in self.modalities:
            none = np.empty((0, m.input_dim))
            arrays = [self._payload_rows(m, p[m.name]) if m.name in p else none for p in payload_list]
            lengths = np.array([len(x) for x in arrays], dtype=np.intp)
            packed[m.name] = (np.concatenate([none, *arrays]), np.cumsum(lengths) - lengths, lengths)
        return packed

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

    def forward(self, payloads: dict, notion: str, rng=None) -> Tensor:
        """Embed one item under one notion: a batch of one, flattened to [embed_dim]."""
        return autodiff.reshape(self.forward_batch(self.pack([payloads]), [0], notion, rng), (self.embed_dim,))

    def forward_batch(self, packed: dict, rows, notion: str, rng=None) -> Tensor:
        """Embed the pack's items at rows, gathered by index; rows may repeat, and must share modalities.

        Dropout, at the net's rate, runs exactly when rng, the mask source,
        is given: a single RngStream draws every mask and frame pick for
        the whole batch, row after row, while RowStreams gives row r its
        masks and frame picks from stream r, exactly as a batch of one on
        that stream would draw them. At rate 0 the source is dropped, so
        nothing is drawn and the forward is the deterministic one, bit for bit.
        """
        rng = rng if self.dropout_rate else None
        rows = np.asarray(rows, dtype=np.intp)
        if not len(rows):
            raise ValidationError("empty batch")
        has = np.array([packed[m.name][2][rows] > 0 for m in self.modalities])  # [modalities, rows]
        if (has != has[:, :1]).any():
            raise ValidationError("every row of a batch must carry the same modalities")
        present = [m for m, on in zip(self.modalities, has[:, 0]) if on]
        embs = []
        for m in present:
            data, starts, lengths = packed[m.name]
            if m.kind == VECTOR:
                embs.append(self._encode_vector(m, Tensor(data[starts[rows]]), rng))
            else:
                picks = sample_frame_indices(lengths[rows], m.samples, rng)
                stacked = data[starts[rows][:, None] + picks]  # [rows, samples, input_dim]
                frames = [Tensor(stacked[:, t, :]) for t in range(m.samples)]
                embs.append(self._encode_sequence(m, frames, rng))
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
            "modalities": [asdict(m) for m in self.modalities],
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
        check_json_types(_CheckpointScalars, doc, "checkpoint field")
        try:
            mods = [ModalitySpec(**check_json_types(ModalitySpec, m, "checkpoint modality field"))
                    for m in doc["modalities"]]
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
                p.data = number_array(stored[name]["data"], f"checkpoint parameter {name}").reshape(shape)
        except KeyError as e:
            raise ValidationError(f"checkpoint is missing key {e}") from None
        except (TypeError, ValueError) as e:
            raise ValidationError(f"malformed checkpoint: {e}") from None
        extra = set(stored) - set(net.params)
        if extra:
            raise ValidationError(f"checkpoint has unexpected parameters {sorted(extra)}")
        return net


def save_checkpoint(net: ConditionalNet, path):
    """Write a self-describing checkpoint with config.write_lines; identical nets produce identical bytes."""
    write_lines(path, [net.to_checkpoint()])


def load_checkpoint(path) -> ConditionalNet:
    """Read a checkpoint; malformed JSON or UTF-8 is a ParseError, a malformed document a ValidationError."""
    return ConditionalNet.from_checkpoint(load_json(path))
