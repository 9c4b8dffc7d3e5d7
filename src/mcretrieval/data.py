"""Dataset file format and the synthetic multi-notion generator.

A dataset is line-delimited JSON: one header object, then one record
per item. Payloads are precomputed feature vectors (or frame stacks for
sequence modalities); labels are one class per notion per item.
"""

import json
from dataclasses import dataclass, field

import numpy as np

from .config import check_json_types
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
        raise ValidationError(f"unknown modality {name!r}")

    def validate(self):
        names = {m.name for m in self.modalities}
        if len(names) != len(self.modalities):
            raise ValidationError("duplicate modality names")
        seen = set()
        for it in self.items:
            if it.id in seen:
                raise ValidationError(f"duplicate item id {it.id!r}")
            seen.add(it.id)
            for notion in self.notions:
                if it.labels.get(notion) not in self.classes[notion]:
                    raise ValidationError(f"item {it.id}: bad label for {notion!r}")
            for name, payload in it.payloads.items():
                spec = self.modality(name)
                payload = np.asarray(payload)
                if spec.kind == VECTOR:
                    if payload.shape != (spec.dim,):
                        raise ValidationError(f"item {it.id}: {name} payload must be [{spec.dim}]")
                elif payload.ndim != 2 or payload.shape[1] != spec.dim:
                    raise ValidationError(f"item {it.id}: {name} payload must be [T, {spec.dim}]")
        return self


# --- serialization ---


def write_dataset(path, ds: DatasetFile):
    ds.validate()
    header = {
        "format": DATASET_FORMAT,
        "modalities": [
            {"name": m.name, "kind": m.kind, "dim": m.dim, "frames": m.frames}
            for m in ds.modalities
        ],
        "notions": list(ds.notions),
        "classes": {n: list(cs) for n, cs in ds.classes.items()},
        "sessions": ds.has_sessions,
    }
    with open(path, "w") as f:
        f.write(json.dumps(header, sort_keys=True, separators=(",", ":")))
        f.write("\n")
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
            f.write(json.dumps(rec, sort_keys=True, separators=(",", ":")))
            f.write("\n")


def _parse_err(msg, path, line):
    raise ParseError(msg, path=str(path), line=line)


def read_dataset(path) -> DatasetFile:
    with open(path) as f:
        lines = f.read().splitlines()
    if not lines:
        _parse_err("empty dataset file", path, 1)
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as e:
        _parse_err(str(e), path, 1)
    if not isinstance(header, dict) or header.get("format") != DATASET_FORMAT:
        _parse_err(f"expected header with format={DATASET_FORMAT!r}", path, 1)
    for key in ("modalities", "notions", "classes"):
        if key not in header:
            _parse_err(f"header missing {key!r}", path, 1)
    try:
        docs = [check_json_types(ModalityFormat, m, "modality field") for m in header["modalities"]]
        modalities = [ModalityFormat(m["name"], m["kind"], m["dim"], m.get("frames", 1)) for m in docs]
        DatasetFile(modalities, [], {}).validate()  # duplicate names; there are no items yet
    except (KeyError, TypeError, ValidationError) as e:
        _parse_err(f"bad modality declaration: {e}", path, 1)
    notions, classes = header["notions"], header["classes"]
    if not (isinstance(notions, list) and all(isinstance(n, str) for n in notions)):
        _parse_err("'notions' must be a list of strings", path, 1)
    if not (isinstance(classes, dict) and all(isinstance(cs, list) for cs in classes.values())
            and not any(isinstance(c, (list, dict)) for cs in classes.values() for c in cs)):
        _parse_err("'classes' must be an object of lists of strings or numbers", path, 1)
    if set(notions) != set(classes):
        _parse_err("notions and class vocabularies disagree", path, 1)

    by_name = {m.name: m for m in modalities}
    items = []
    seen = set()
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as e:
            _parse_err(str(e), path, lineno)
        if not isinstance(rec, dict):
            _parse_err("record must be a JSON object", path, lineno)
        for key in ("id", "labels", "payloads"):
            if key not in rec:
                _parse_err(f"record missing {key!r}", path, lineno)
        # a null session is no session, as when the writer leaves the key out
        for key in ("id", "session"):
            if isinstance(rec.get(key), (bool, list, dict)) or key == "id" and rec[key] is None:
                _parse_err(f"item {key} must be a string or number, got {json.dumps(rec[key])}", path, lineno)
        if rec["id"] in seen:
            _parse_err(f"duplicate item id {rec['id']!r}", path, lineno)
        seen.add(rec["id"])
        for key in ("labels", "payloads"):
            if not isinstance(rec[key], dict):
                _parse_err(f"{key!r} must be a JSON object", path, lineno)
        for notion in notions:
            if rec["labels"].get(notion) not in classes[notion]:
                _parse_err(f"bad label for notion {notion!r}", path, lineno)
        payloads = {}
        for name, raw in rec["payloads"].items():
            spec = by_name.get(name)
            if spec is None:
                _parse_err(f"undeclared modality {name!r}", path, lineno)
            try:
                arr = np.array(raw, dtype=np.float64)
            except (TypeError, ValueError) as e:
                _parse_err(f"{name} payload must be a rectangular array of numbers: {e}", path, lineno)
            if spec.kind == VECTOR:
                if arr.shape != (spec.dim,):
                    _parse_err(f"{name} payload must have dim {spec.dim}", path, lineno)
            elif arr.ndim != 2 or arr.shape[1] != spec.dim:
                _parse_err(f"{name} payload must be [T, {spec.dim}]", path, lineno)
            if not np.isfinite(arr).all():
                _parse_err(f"{name} payload holds a non-finite number", path, lineno)
            payloads[name] = arr
        items.append(Item(rec["id"], rec["labels"], payloads, rec.get("session")))
    return DatasetFile(modalities, notions, classes, items)


# --- synthetic generator ---


def tail_counts(n_classes: int, n_items: int, tail: float):
    """Per-class item counts following a rank^-tail profile, each >= 2."""
    if n_classes < 2:
        raise ValidationError("need at least 2 classes per notion")
    if n_items < 2 * n_classes:
        raise ValidationError(
            f"{n_items} items cannot give {n_classes} classes 2 members each"
        )
    if tail < 0:
        raise ValidationError("tail must be >= 0")
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
