"""Dataset file format and the synthetic multi-notion generator.

A dataset is line-delimited JSON: one header object, then one record
per item. Payloads are precomputed feature vectors (or frame stacks for
sequence modalities); labels are one class per notion per item.
"""

import json
import math
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

import numpy as np

from .config import check_json_types, json_line, number_array
from .errors import ParseError, ValidationError
from .model import SEQUENCE, VECTOR
from .rng import RngStream

DATASET_FORMAT = "mcretrieval-dataset-v1"


@dataclass(frozen=True)
class ModalityFormat:
    """Shape of one modality's payload as declared in a dataset header."""

    name: str
    kind: str
    dim: int
    frames: int = 1

    def __post_init__(self):
        if self.kind not in (VECTOR, SEQUENCE):
            raise ValidationError(f"unknown modality kind {self.kind!r}")
        if self.dim < 1:
            raise ValidationError(f"modality {self.name}: dim must be >= 1")
        if self.frames < 1:
            raise ValidationError(f"modality {self.name}: frames must be >= 1")
        if self.kind == VECTOR and self.frames != 1:
            raise ValidationError(f"vector modality {self.name} cannot have frames")


@dataclass
class Item:
    id: str
    labels: dict
    payloads: dict
    session: str | None = None


@dataclass
class DatasetFile:
    modalities: list
    notions: list
    classes: dict
    items: list = field(default_factory=list)

    @property
    def has_sessions(self) -> bool:
        return any(it.session is not None for it in self.items)

    def labels_for(self, notion: str) -> list:
        if notion not in self.notions:
            raise ValidationError(f"unknown notion {notion!r}")
        return [it.labels[notion] for it in self.items]

    def sessions(self):
        return [it.session for it in self.items] if self.has_sessions else None

    def modality(self, name: str) -> ModalityFormat:
        for m in self.modalities:
            if m.name == name:
                return m
        raise ValidationError(f"undeclared modality {name!r}")

    def validate(self):
        if len({m.name for m in self.modalities}) != len(self.modalities):
            raise ValidationError("duplicate modality names")
        seen = set()
        for it in self.items:
            self.check_item(it, seen)
        return self

    def check_item(self, it: Item, seen: set):
        """A ValidationError for its first bad id, session, label or payload, or for no payload; else seen gains its id."""
        check_id(it.id, seen)
        if it.session is not None and not is_name(it.session):  # None is no session
            raise ValidationError(f"item session must be a string or number, got {json.dumps(it.session)}")
        for notion in self.notions:
            label = it.labels.get(notion)
            if not is_name(label) or label not in self.classes[notion]:
                raise ValidationError(f"item {it.id}: bad label for {notion!r}")
        if not it.payloads:
            raise ValidationError(f"item {it.id} has no modality payloads")
        for name, payload in it.payloads.items():
            spec, shape = self.modality(name), np.shape(payload)
            if shape != (spec.dim,) if spec.kind == VECTOR else len(shape) != 2 or shape[1] != spec.dim:
                want = f"[{spec.dim}]" if spec.kind == VECTOR else f"[T, {spec.dim}]"
                raise ValidationError(f"item {it.id}: {name} payload must be {want}")


def is_name(value) -> bool:
    """Whether value may be an id, session, label or class name: a string or a finite number (no bool or null)."""
    return (isinstance(value, (str, int)) and not isinstance(value, bool)
            or isinstance(value, float) and math.isfinite(value))


def check_id(value, seen: set):
    """Add an item id to seen; an id is a name (is_name) that seen does not hold yet."""
    if not is_name(value):
        raise ValidationError(f"item id must be a string or number, got {json.dumps(value)}")
    if value in seen:
        raise ValidationError(f"duplicate id {value!r}")
    seen.add(value)


# --- serialization ---


def write_dataset(path, ds: DatasetFile):
    ds.validate()
    header = {
        "format": DATASET_FORMAT,
        "modalities": [asdict(m) for m in ds.modalities],
        "notions": list(ds.notions),
        "classes": {n: list(cs) for n, cs in ds.classes.items()},
        "sessions": ds.has_sessions,
    }
    with open(path, "w") as f:
        f.write(json_line(header))
        for it in ds.items:
            rec = {
                "id": it.id,
                "labels": it.labels,
                "payloads": {
                    name: np.asarray(p).tolist() for name, p in it.payloads.items()
                },
            }
            if it.session is not None:
                rec["session"] = it.session
            f.write(json_line(rec))


@contextmanager
def at_line(path, lineno: int):
    """Re-raise a ValidationError, JSON or UTF-8 decoding error from the block as a ParseError at path:lineno."""
    try:
        yield
    except (ValidationError, json.JSONDecodeError, UnicodeDecodeError) as e:
        raise ParseError(str(e), path=str(path), line=lineno) from None


def json_lines(path):
    """(line number, object) for each non-blank line; a line that is no JSON object, or no such line, is a ParseError."""
    empty = True
    with open(path, "rb") as f:  # bytes, so that a line that is not UTF-8 fails inside at_line
        for lineno, line in enumerate(f, start=1):
            if line.strip():
                with at_line(path, lineno):
                    rec = json.loads(line)
                    if not isinstance(rec, dict):
                        raise ValidationError("record must be a JSON object")
                empty = False
                yield lineno, rec
    if empty:
        with at_line(path, 1):
            raise ValidationError("no records in the file")


def read_dataset(path) -> DatasetFile:
    """Read a file written by write_dataset; every malformed line is a ParseError with its number."""
    records = json_lines(path)
    lineno, header = next(records)
    with at_line(path, lineno):
        if header.get("format") != DATASET_FORMAT:
            raise ValidationError(f"expected header with format={DATASET_FORMAT!r}")
        for key in ("modalities", "notions", "classes"):
            if key not in header:
                raise ValidationError(f"header missing {key!r}")
        if not isinstance(header.get("sessions", False), bool):
            raise ValidationError(f"header 'sessions' must be a bool, got {json.dumps(header['sessions'])}")
        notions, classes = header["notions"], header["classes"]
        if not (isinstance(notions, list) and all(isinstance(n, str) for n in notions)):
            raise ValidationError("'notions' must be a list of strings")
        if not (isinstance(classes, dict) and all(isinstance(cs, list) for cs in classes.values())
                and all(is_name(c) for cs in classes.values() for c in cs)):
            raise ValidationError("'classes' must be an object of lists of strings or numbers")
        if set(notions) != set(classes):
            raise ValidationError("notions and class vocabularies disagree")
        try:
            modalities = [ModalityFormat(**check_json_types(ModalityFormat, m, "modality field"))
                          for m in header["modalities"]]
            ds = DatasetFile(modalities, notions, classes).validate()
        except (TypeError, ValidationError) as e:
            raise ValidationError(f"bad modality declaration: {e}") from None

    seen = set()
    for lineno, rec in records:
        with at_line(path, lineno):
            for key in ("id", "labels", "payloads"):
                if key not in rec:
                    raise ValidationError(f"record missing {key!r}")
            for key in ("labels", "payloads"):
                if not isinstance(rec[key], dict):
                    raise ValidationError(f"{key!r} must be a JSON object")
            payloads = {name: number_array(raw, f"{name} payload") for name, raw in rec["payloads"].items()}
            # a null session is no session, as when the writer leaves the key out
            item = Item(rec["id"], rec["labels"], payloads, rec.get("session"))
            ds.check_item(item, seen)
        ds.items.append(item)
    return ds


# --- synthetic generator ---


def tail_counts(n_classes: int, n_items: int, tail: float):
    """Per-class item counts following a rank^-tail profile, each >= 2."""
    if n_classes < 2:
        raise ValidationError("need at least 2 classes per notion")
    if n_items < 2 * n_classes:
        raise ValidationError(
            f"{n_items} items cannot give {n_classes} classes 2 members each"
        )
    if not (math.isfinite(tail) and tail >= 0):
        raise ValidationError(f"tail must be a finite number >= 0, got {tail}")
    w = np.arange(1, n_classes + 1, dtype=np.float64) ** (-tail)
    counts = np.maximum(np.floor(w / w.sum() * n_items).astype(int), 2)
    i = 0
    while counts.sum() < n_items:
        counts[i % n_classes] += 1
        i += 1
    while counts.sum() > n_items:
        j = int(np.argmax(counts))
        counts[j] -= 1
    return counts


def synth_generate(notions: dict, items: int, modalities: list, noise: dict,
                   seed: int, tail: float = 0.0, sessions: int = 0) -> DatasetFile:
    """Draw a labeled multi-modal dataset from class prototypes plus noise.

    notions maps notion name -> class count; noise maps modality name ->
    notion name -> level. Each item independently draws one class per
    notion; each modality's payload sums, over notions, the class
    prototype attenuated by 1/(1+level) plus level-scaled Gaussian noise,
    so level 0 is a clean prototype and large levels drown the signal.
    Sequence modalities repeat the prototype part with fresh noise per
    frame. Same arguments, same bytes.
    """
    if items < 1:
        raise ValidationError("items must be >= 1")
    if seed < 0:
        raise ValidationError("seed must be >= 0")
    if not notions:
        raise ValidationError("need at least one notion")
    mod_names = {m.name for m in modalities}
    for name, levels in noise.items():
        if name not in mod_names:
            raise ValidationError(f"noise declared for unknown modality {name!r}")
        for notion, level in levels.items():
            if notion not in notions:
                raise ValidationError(f"noise declared for unknown notion {notion!r}")
            if level < 0:
                raise ValidationError("noise levels must be >= 0")

    notion_names = sorted(notions)
    classes = {n: [f"{n}{c}" for c in range(notions[n])] for n in notion_names}

    proto_rng = RngStream(seed, 0)
    label_rng = RngStream(seed, 1)
    noise_rng = RngStream(seed, 2)

    protos = {}
    for m in modalities:
        for n in notion_names:
            for c in classes[n]:
                v = proto_rng.normal(m.dim)
                protos[(m.name, n, c)] = v / np.linalg.norm(v)

    labels = {}
    for k, n in enumerate(notion_names):
        counts = tail_counts(notions[n], items, tail)
        pool = [classes[n][c] for c in range(notions[n]) for _ in range(counts[c])]
        label_rng.substream(k).shuffle(pool)
        labels[n] = pool

    out = []
    for i in range(items):
        payloads = {}
        for m in modalities:
            signal = np.zeros(m.dim)
            levels = noise.get(m.name, {})
            for n in notion_names:
                level = levels.get(n, 0.0)
                signal += protos[(m.name, n, labels[n][i])] / (1.0 + level)

            def noisy():
                x = signal.copy()
                for n in notion_names:
                    level = levels.get(n, 0.0)
                    g = noise_rng.normal(m.dim)
                    x += level * g / np.sqrt(m.dim)
                return x

            if m.kind == VECTOR:
                payloads[m.name] = noisy()
            else:
                payloads[m.name] = np.stack([noisy() for _ in range(m.frames)])
        session = f"sess{i * sessions // items}" if sessions > 0 else None
        out.append(Item(f"it{i:04d}", {n: labels[n][i] for n in notion_names},
                        payloads, session))
    return DatasetFile(list(modalities), notion_names, classes, out).validate()


# presets used by the CLI and the experiment scripts; items and seed stay
# caller-controlled, everything else is the named scenario
PRESETS = {
    "hdd-like": dict(
        notions={"goal": 10, "stimulus": 6},
        modalities=[
            ModalityFormat("camera", SEQUENCE, dim=16, frames=6),
            ModalityFormat("can", SEQUENCE, dim=8, frames=6),
        ],
        # goal is carried cleanly by both streams; the external stimulus is
        # the noisy notion, worst on the low-bandwidth sensor stream
        noise={
            "camera": {"goal": 0.0, "stimulus": 0.45},
            "can": {"goal": 0.0, "stimulus": 0.9},
        },
        tail=0.8,
        sessions=12,
    ),
    "noiseless": dict(
        notions={"goal": 4, "stimulus": 3},
        modalities=[
            ModalityFormat("vec", VECTOR, dim=10),
            ModalityFormat("seq", SEQUENCE, dim=6, frames=4),
        ],
        noise={},
        tail=0.0,
        sessions=4,
    ),
}


def preset_args(name: str) -> dict:
    if name not in PRESETS:
        raise ValidationError(f"unknown preset {name!r}; have {sorted(PRESETS)}")
    args = dict(PRESETS[name])
    args["modalities"] = list(args["modalities"])
    args["noise"] = {k: dict(v) for k, v in args["noise"].items()}
    return args
