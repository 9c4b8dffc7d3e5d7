"""Mutated input files through the CLI: each ends in exit 2 or 3 with one stderr line.

Valid dataset, embeddings, checkpoint and config files are written once.
Each example applies one mutation a reader must reject and runs the
command that reads the mutated file:
- truncate a line inside its JSON value;
- change a value's JSON type;
- make a number array ragged;
- drop a key the format requires (a config has none: every key has a default);
- put NaN in place of a number.
A traceback, a numpy warning, exit 0 or a second stderr line fails the test.
"""

import contextlib
import functools
import io
import json
import tempfile
import warnings
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from mcretrieval.cli import main

CFG = {"embed_dim": 8, "hidden_dim": 8, "epochs": 2, "decay_start": 1, "batch_size": 64,
       "triplet_cap": 100, "seed": 1, "p_classes": 2, "k_per_class": 2, "frame_samples": 2}

ANY = ["x", 5, None, [], {}, True]
ITEM = ["x", None, [], {}, True]  # inside a number array; numpy alone would read True as 1.0
# ids and sessions may be strings or finite numbers; a null session means no session
IDS = [[], {}, True, False, None, float("inf")]
SESSIONS = [[], {}, True, False, float("nan")]

# (line, *path) patterns: "R" is any record line after a header, "*" any key
# or index, a tuple any of its keys; each with the replacements tried there
TYPED = {
    "dataset": [
        ((0, ("format", "modalities", "notions", "classes", "sessions")), ANY),
        ((0, "modalities", "*"), ANY),
        ((0, "modalities", "*", ("name", "kind", "dim", "frames")), ANY),
        ((0, ("notions", "classes"), "*"), ANY),
        ((0, "classes", "*", "*"), ANY),
        (("R", "id"), IDS),
        (("R", "session"), SESSIONS),
        (("R", ("labels", "payloads")), ANY),
        (("R", ("labels", "payloads"), "*"), ANY),
        (("R", "payloads", "*", "*"), ITEM),
        (("R", "payloads", "*", "*", "*"), ITEM),
    ],
    "embeddings": [
        (("*", "id"), IDS),
        (("*", ("notion", "mc", "mean", "variance")), ANY),
        (("*", ("mean", "variance"), "*"), ITEM),
    ],
    "checkpoint": [
        ((0, "*"), ANY),
        ((0, ("notions", "modalities", "params"), "*"), ANY),
        ((0, ("modalities", "params"), "*", "*"), ANY),
        ((0, "params", "*", ("shape", "data"), "*"), ITEM),
    ],
    "config": [((0, "*"), ANY)],
}

REQUIRED = {
    "dataset": [
        (0, ("format", "modalities", "notions", "classes")),
        (0, "modalities", "*", ("name", "kind", "dim")),
        (0, "classes", "*"),
        ("R", ("id", "labels", "payloads")),
        ("R", "labels", "*"),
    ],
    "embeddings": [("*", ("id", "notion", "mc", "mean", "variance"))],
    "checkpoint": [
        (0, ("format", "embed_dim", "dropout_rate", "normalize", "notions", "modalities", "params")),
        (0, "modalities", "*", ("name", "kind", "input_dim", "hidden_dim")),
        (0, "params", "*"),
        (0, "params", "*", ("shape", "data")),
    ],
    "config": [],
}


@functools.cache
def workspace():
    """One valid file of each kind, its parsed lines, and the command that reads it."""
    tmp = tempfile.TemporaryDirectory()
    root = Path(tmp.name)
    data, ckpt, emb, cfg = (root / n for n in ("data.jsonl", "run/checkpoint.json", "emb.jsonl", "cfg.json"))
    cfg.write_text(json.dumps(CFG))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["synth", "--preset", "noiseless", "--items", "24", "--out", str(data)]) == 0
        assert main(["train", "--dataset", str(data), "--config", str(cfg), "--out", str(root / "run")]) == 0
        assert main(["embed", "--dataset", str(data), "--checkpoint", str(ckpt), "--notion", "goal",
                     "--mc", "3", "--out", str(emb)]) == 0
    paths = {"dataset": data, "embeddings": emb, "checkpoint": ckpt, "config": cfg}
    commands = {
        "dataset": lambda bad: ["eval", "--dataset", bad, "--checkpoint", str(ckpt), "--notion", "goal",
                                "--mc", "2"],
        "embeddings": lambda bad: ["retrieve", "--embeddings", bad, "--query-ids", "it0000", "--k", "3"],
        "checkpoint": lambda bad: ["eval", "--dataset", str(data), "--checkpoint", bad, "--notion", "goal",
                                   "--mc", "2"],
        "config": lambda bad: ["train", "--dataset", str(data), "--config", bad, "--out", str(root / "bad_run")],
    }
    lines = {kind: p.read_text().splitlines() for kind, p in paths.items()}
    # holding tmp keeps the directory until the session ends
    return {"tmp": tmp, "root": root, "lines": lines, "commands": commands,
            "docs": {kind: [json.loads(line) for line in ls] for kind, ls in lines.items()}}


def walk(value, path=()):
    yield path, value
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield from walk(child, path + (key,))


def matches(pattern, line, path):
    head, *rest = pattern
    if not (line >= 1 if head == "R" else head in ("*", line)) or len(rest) != len(path):
        return False
    return all(p == "*" or k == p or isinstance(p, tuple) and k in p for p, k in zip(rest, path))


def lookup(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def json_kind(value):
    return "number" if isinstance(value, (int, float)) and not isinstance(value, bool) else type(value).__name__


def is_number_list(value):
    return isinstance(value, list) and value and all(json_kind(v) == "number" for v in value)


@functools.cache
def candidates(kind):
    """{op: [[(op, line, path), ...] per rule]} for one file, so that each rule is drawn as often as the next."""
    rules = {"truncate": [None], "type": [p for p, _ in TYPED[kind]], "drop": REQUIRED[kind],
             "ragged": [None], "nan": [None]}
    out = {op: [[] for _ in patterns] for op, patterns in rules.items()}
    for line, doc in enumerate(workspace()["docs"][kind]):
        out["truncate"][0].append(("truncate", line, ()))
        for path, value in walk(doc):
            for op in ("type", "drop"):
                for group, p in zip(out[op], rules[op]):
                    if matches(p, line, path):
                        group.append((op, line, path))
            if is_number_list(value):
                out["ragged"][0].append(("ragged", line, path))
            if json_kind(value) == "number":
                out["nan"][0].append(("nan", line, path))
    return {op: [g for g in groups if g] for op, groups in out.items() if any(groups)}


@st.composite
def mutations(draw):
    kind = draw(st.sampled_from(["dataset", "embeddings", "checkpoint", "config"]))
    ops = candidates(kind)
    groups = ops[draw(st.sampled_from(sorted(ops)))]
    op, line, path = draw(st.sampled_from(draw(st.sampled_from(groups))))
    value = float("nan") if op == "nan" else None
    if op == "truncate":
        value = draw(st.integers(1, len(workspace()["lines"][kind][line]) - 1))
    elif op == "type":
        old = lookup(workspace()["docs"][kind][line], path)
        pool = next(pool for p, pool in TYPED[kind] if matches(p, line, path))
        value = draw(st.sampled_from([v for v in pool if json_kind(v) != json_kind(old)]))
    elif op == "ragged":
        doc = workspace()["docs"][kind][line]
        old = lookup(doc, path)
        i = draw(st.integers(0, len(old) - 1))
        in_matrix = isinstance(lookup(doc, path[:-1]), list) and len(old) > 1
        # a row of a matrix may lose an element; any number list may nest one a level deeper
        value = old[:i] + old[i + 1:] if in_matrix and draw(st.booleans()) else old[:i] + [[old[i]]] + old[i + 1:]
    return kind, op, line, path, value


def mutated_text(kind, op, line, path, value):
    lines = list(workspace()["lines"][kind])
    if op == "truncate":
        return "\n".join(lines[:line] + [lines[line][:value]])
    doc = json.loads(lines[line])
    parent = lookup(doc, path[:-1])
    if op == "drop":
        del parent[path[-1]]
    elif path:
        parent[path[-1]] = value
    else:
        doc = value
    lines[line] = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return "\n".join(lines) + "\n"


@settings(max_examples=200, deadline=None, database=None)
@given(case=mutations())
@example(case=("dataset", "type", 0, ("modalities", 0, "name"), ["vec"]))
@example(case=("dataset", "set", 0, ("modalities", 0, "dim"), 2.5))
@example(case=("dataset", "type", 0, ("modalities", 0, "dim"), True))
@example(case=("dataset", "set", 0, ("modalities", 0, "name"), "seq"))  # a duplicate name
@example(case=("checkpoint", "set", 0, ("modalities", 1, "samples"), 2.0))
@example(case=("checkpoint", "type", 0, ("modalities", 1, "samples"), True))
@example(case=("checkpoint", "type", 0, ("normalize",), "no"))
@example(case=("embeddings", "type", 0, ("notion",), None))
@example(case=("dataset", "type", 1, ("id",), True))
@example(case=("dataset", "type", 2, ("id",), None))
@example(case=("dataset", "type", 1, ("session",), False))
@example(case=("embeddings", "type", 1, ("id",), False))
@example(case=("embeddings", "type", 0, ("id",), None))
@example(case=("dataset", "type", 1, ("payloads", "vec", 0), True))
@example(case=("dataset", "type", 2, ("payloads", "seq", 3, 5), True))
@example(case=("embeddings", "type", 0, ("mean", 0), True))
@example(case=("embeddings", "type", 1, ("variance", 2), False))
@example(case=("checkpoint", "type", 0, ("params", "mask.goal", "data", 0), True))
@example(case=("dataset", "type", 0, ("sessions",), "x"))
@example(case=("dataset", "type", 0, ("sessions",), 1))
@example(case=("dataset", "type", 1, ("id",), float("inf")))
@example(case=("dataset", "type", 2, ("session",), float("nan")))
@example(case=("embeddings", "type", 0, ("id",), float("inf")))
def test_mutated_file_exits_2_or_3_with_one_line(case):
    kind, op, line, path, value = case
    ws = workspace()
    bad = ws["root"] / f"bad_{kind}"
    bad.write_text(mutated_text(kind, op, line, path, value))
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy warning would be a second stderr line
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(ws["commands"][kind](str(bad)))
    assert code in (2, 3), f"exit {code} for {case}: {err.getvalue()!r}"
    assert err.getvalue().startswith("error[") and err.getvalue().count("\n") == 1, err.getvalue()
