"""Command-line pipeline: every subcommand, happy path and exit codes."""

import contextlib
import io
import json
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcretrieval import cli, training
from mcretrieval.cli import build_parser, main
from mcretrieval.evaluation import average_precision, evaluate
from mcretrieval.mining import semi_hard_draw, session_draws
from mcretrieval.uncertainty import embed_prefixes, read_embeddings, write_embeddings

FAST_CFG = {
    "embed_dim": 8, "hidden_dim": 8, "epochs": 3, "decay_start": 1,
    "batch_size": 64, "triplet_cap": 100, "seed": 1,
    "p_classes": 2, "k_per_class": 2, "frame_samples": 2,
}


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One synth + train shared by the command tests."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data.jsonl"
    cfg = root / "cfg.json"
    cfg.write_text(json.dumps(FAST_CFG))
    assert main(["synth", "--preset", "noiseless", "--items", "30",
                 "--seed", "0", "--out", str(data)]) == 0
    assert main(["train", "--dataset", str(data), "--config", str(cfg),
                 "--out", str(root / "run")]) == 0
    return {"root": root, "data": data, "cfg": cfg,
            "ckpt": root / "run" / "checkpoint.json"}


def relabel(src, dst, notion, rename):
    """Copy a dataset file with every class name of one notion passed through rename."""
    lines = src.read_text().splitlines()
    header = json.loads(lines[0])
    header["classes"][notion] = [rename(c) for c in header["classes"][notion]]
    recs = [json.loads(line) for line in lines[1:]]
    for rec in recs:
        rec["labels"][notion] = rename(rec["labels"][notion])
    dst.write_text("\n".join(json.dumps(r) for r in [header, *recs]) + "\n")
    return dst


def one_error_line(capsys, prefix, *says):
    err = capsys.readouterr().err
    assert err.startswith(prefix) and err.count("\n") == 1, err
    assert all(s in err for s in says), err


@settings(max_examples=10, deadline=None, database=None)
@given(cfg=st.fixed_dictionaries({
    "embed_dim": st.integers(2, 8), "hidden_dim": st.integers(2, 8),
    "dropout": st.sampled_from([0.0, 0.1, 0.4]), "frame_samples": st.integers(1, 4),
    "miner": st.sampled_from(["semi-hard", "batch-hard"]), "loss": st.sampled_from(["triplet", "soft-margin"]),
    "weight_decay": st.sampled_from([0.0, 1e-3]), "mask_l1": st.sampled_from([0.0, 1e-3]),
    "seed": st.integers(0, 2**63),
}), sessions=st.sampled_from(["0", "3"]), mc=st.integers(0, 4))
def test_same_seed_same_bytes_for_train_and_embed(cfg, sessions, mc):
    cfg = {**FAST_CFG, **cfg}
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        root = Path(tmp)
        data = root / "data.jsonl"
        (root / "cfg.json").write_text(json.dumps(cfg))
        assert main(["synth", "--preset", "noiseless", "--items", "24", "--sessions", sessions,
                     "--out", str(data)]) == 0
        for run in ("a", "b"):
            assert main(["train", "--dataset", str(data), "--config", str(root / "cfg.json"),
                         "--out", str(root / run)]) == 0
            assert main(["embed", "--dataset", str(data), "--checkpoint", str(root / run / "checkpoint.json"),
                         "--notion", "goal", "--mc", str(mc), "--seed", str(cfg["seed"]),
                         "--out", str(root / run / "emb.jsonl")]) == 0
        for name in ("checkpoint.json", "history.json", "emb.jsonl"):
            assert (root / "a" / name).read_bytes() == (root / "b" / name).read_bytes(), name


class TestSynth:
    def test_same_seed_same_bytes(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for out in (a, b):
            assert main(["synth", "--preset", "hdd-like", "--items", "40",
                         "--seed", "3", "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_unknown_preset_is_validation_error(self, tmp_path, capsys):
        code = main(["synth", "--preset", "noiseless", "--items", "0",
                     "--out", str(tmp_path / "x.jsonl")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error[validation]:")


    def test_negative_sessions_names_its_flag(self, tmp_path, capsys):
        out = tmp_path / "x.jsonl"
        assert main(["synth", "--preset", "noiseless", "--items", "30", "--sessions", "-3",
                     "--out", str(out)]) == 2
        one_error_line(capsys, "error[validation]:", "--sessions")
        assert not out.exists()


class TestTrain:
    def test_batch_hard_on_mixed_vocabulary(self, workspace, tmp_path):
        # goal classes become 0, "goal1", 2, "goal3": pk_sample must still order them
        data = relabel(workspace["data"], tmp_path / "mixed.jsonl", "goal",
                       lambda c: c if int(c[4:]) % 2 else int(c[4:]))
        cfg = tmp_path / "bh.json"
        cfg.write_text(json.dumps({**FAST_CFG, "miner": "batch-hard"}))
        assert main(["train", "--dataset", str(data), "--config", str(cfg),
                     "--out", str(tmp_path / "run")]) == 0

    def test_mixed_modality_sets_exit_before_training(self, workspace, tmp_path, capsys):
        # odd items lose their sequence, so mined batches would mix two modality sets
        lines = workspace["data"].read_text().splitlines()
        recs = [json.loads(line) for line in lines[1:]]
        for rec in recs[1::2]:
            del rec["payloads"]["seq"]
        data = tmp_path / "mixed.jsonl"
        data.write_text("\n".join([lines[0], *map(json.dumps, recs)]) + "\n")
        out = tmp_path / "run"
        assert main(["train", "--dataset", str(data), "--config", str(workspace["cfg"]),
                     "--out", str(out)]) == 2
        one_error_line(capsys, "error[validation]:", "one modality set", f"item {recs[1]['id']} differs")
        assert not out.exists()

    def test_run_with_no_step_exits_4_and_writes_no_file(self, workspace, tmp_path, capsys):
        # every item its own goal class: no semi-hard draw has a positive, so no step is taken
        data = tmp_path / "singletons.jsonl"
        lines = workspace["data"].read_text().splitlines()
        header, recs = json.loads(lines[0]), [json.loads(line) for line in lines[1:]]
        header["classes"]["goal"] = [rec["id"] for rec in recs]
        for rec in recs:
            rec["labels"]["goal"] = rec["id"]
        data.write_text("\n".join(json.dumps(r) for r in [header, *recs]) + "\n")
        out = tmp_path / "run"
        assert main(["train", "--dataset", str(data), "--config", str(workspace["cfg"]),
                     "--out", str(out)]) == 4
        one_error_line(capsys, "error[runtime]:", "no optimizer step")
        assert not any(out.iterdir())

    def test_last_epoch_without_a_step_records_null_mean_loss(self, workspace, tmp_path, capsys, monkeypatch):
        epochs = []

        def draws(*args):
            epochs.append(args)
            return session_draws(*args)

        monkeypatch.setattr(training, "session_draws", draws)
        monkeypatch.setattr(training, "semi_hard_draw", lambda *a: None if len(epochs) == 3 else semi_hard_draw(*a))
        out = tmp_path / "run"
        assert main(["train", "--dataset", str(workspace["data"]), "--config", str(workspace["cfg"]),
                     "--out", str(out)]) == 0
        assert "final mean loss none;" in capsys.readouterr().out
        # NaN is not JSON: the epoch that took no step has no mean loss
        doc = json.loads((out / "history.json").read_text(), parse_constant=pytest.fail)
        assert [e["steps"] > 0 for e in doc["epochs"]] == [True, True, False]
        assert doc["epochs"][2]["mean_loss"] is None

    def test_bad_dropout_exits_before_training(self, workspace, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({**FAST_CFG, "dropout": 1.0}))
        out = tmp_path / "run"
        code = main(["train", "--dataset", str(workspace["data"]),
                     "--config", str(cfg), "--out", str(out)])
        assert code == 2
        assert not out.exists()
        assert capsys.readouterr().err.startswith("error[validation]:")

    def test_unknown_config_key(self, workspace, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"epoks": 3}))
        code = main(["train", "--dataset", str(workspace["data"]),
                     "--config", str(cfg), "--out", str(tmp_path / "run")])
        assert code == 2
        assert "epoks" in capsys.readouterr().err

    def test_malformed_dataset_is_parse_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{broken\n")
        code = main(["train", "--dataset", str(bad), "--out", str(tmp_path / "run")])
        assert code == 3
        assert capsys.readouterr().err.startswith("error[parse]:")

    def test_infeasible_pk_is_runtime_error(self, workspace, tmp_path, capsys):
        cfg = tmp_path / "pk.json"
        cfg.write_text(json.dumps({**FAST_CFG, "miner": "batch-hard",
                                   "p_classes": 5, "k_per_class": 20}))
        code = main(["train", "--dataset", str(workspace["data"]),
                     "--config", str(cfg), "--out", str(tmp_path / "run")])
        assert code == 4
        assert capsys.readouterr().err.startswith("error[runtime]:")

    def test_divergence_exits_with_one_line(self, workspace, tmp_path, capsys):
        cfg = tmp_path / "hot.json"
        cfg.write_text(json.dumps({**FAST_CFG, "lr": 1e300}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy warning would be a second stderr line
            code = main(["train", "--dataset", str(workspace["data"]),
                         "--config", str(cfg), "--out", str(tmp_path / "run")])
        assert code == 4
        err = capsys.readouterr().err
        assert err.startswith("error[runtime]: non-finite training loss") and err.count("\n") == 1

    @pytest.mark.parametrize("header", [
        {"notions": 5}, {"classes": [1]}, {"classes": {"goal": 5, "stimulus": ["stimulus0"]}},
        {"sessions": "x"}, {"sessions": 1},
    ])
    def test_bad_header_types_exit_with_one_line(self, workspace, tmp_path, capsys, header):
        lines = workspace["data"].read_text().splitlines()
        lines[0] = json.dumps({**json.loads(lines[0]), **header})
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join(lines) + "\n")
        assert main(["train", "--dataset", str(bad), "--config", str(workspace["cfg"]),
                     "--out", str(tmp_path / "run")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error[parse]:") and "bad.jsonl:1:" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("case,line", [
        ("session_list", 3), ("label_list", 3), ("header_class_list", 1),
    ])
    def test_list_typed_names_exit_with_one_line(self, workspace, tmp_path, capsys, case, line):
        lines = workspace["data"].read_text().splitlines()
        header, rec = json.loads(lines[0]), json.loads(lines[2])
        if case == "session_list":
            rec["session"] = [rec["session"]]
        elif case == "label_list":
            rec["labels"]["goal"] = [rec["labels"]["goal"]]
        else:
            header["classes"]["goal"].append([1])
        lines[0], lines[2] = json.dumps(header), json.dumps(rec)
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join(lines) + "\n")
        assert main(["train", "--dataset", str(bad), "--config", str(workspace["cfg"]),
                     "--out", str(tmp_path / "run")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error[parse]:") and f"bad.jsonl:{line}:" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("field,value", [
        ("name", ["vec"]), ("dim", 2.5), ("dim", True), ("name", "seq"),
    ])
    def test_bad_modality_declaration_is_line_1(self, workspace, tmp_path, capsys, field, value):
        # ("name", "seq") repeats the second modality's name
        lines = workspace["data"].read_text().splitlines()
        header = json.loads(lines[0])
        header["modalities"][0][field] = value
        lines[0] = json.dumps(header)
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join(lines) + "\n")
        assert main(["eval", "--dataset", str(bad), "--checkpoint", str(workspace["ckpt"]),
                     "--notion", "goal", "--mc", "0"]) == 3
        one_error_line(capsys, "error[parse]:", "bad.jsonl:1:")

    def test_config_not_utf8_is_parse_error_at_its_line(self, workspace, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(json.dumps(FAST_CFG).encode() + b"\n\xff\n")
        assert main(["train", "--dataset", str(workspace["data"]), "--config", str(cfg),
                     "--out", str(tmp_path / "run")]) == 3
        one_error_line(capsys, "error[parse]:", "cfg.json:2:")

    @pytest.mark.parametrize("value", [
        {"epochs": "5"}, {"margin": None}, {"epochs": 5.5}, {"seed": 1.5}, {"normalize": "no"},
    ])
    def test_config_value_of_wrong_type_exits_with_one_line(self, workspace, tmp_path, capsys, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**FAST_CFG, **value}))
        assert main(["train", "--dataset", str(workspace["data"]), "--config", str(cfg),
                     "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error[validation]:") and next(iter(value)) in err
        assert err.count("\n") == 1


class TestEmbedRetrieve:
    def test_embed_writes_readable_file(self, workspace, capsys):
        out = workspace["root"] / "emb.jsonl"
        code = main(["embed", "--dataset", str(workspace["data"]),
                     "--checkpoint", str(workspace["ckpt"]),
                     "--notion", "goal", "--mc", "5", "--seed", "2",
                     "--out", str(out)])
        assert code == 0
        emb = read_embeddings(out)
        assert len(emb.ids) == 30 and emb.mc == 5
        assert emb.variances.max() > 0

    def test_embed_mc_zero_is_deterministic_baseline(self, workspace):
        outs = []
        for name in ("b1.jsonl", "b2.jsonl"):
            out = workspace["root"] / name
            assert main(["embed", "--dataset", str(workspace["data"]),
                         "--checkpoint", str(workspace["ckpt"]),
                         "--notion", "goal", "--mc", "0", "--out", str(out)]) == 0
            outs.append(read_embeddings(out))
        assert np.array_equal(outs[0].means, outs[1].means)
        assert outs[0].variances.max() == 0.0

    def test_embed_requires_out(self, workspace, capsys):
        code = main(["embed", "--dataset", str(workspace["data"]),
                     "--checkpoint", str(workspace["ckpt"]), "--notion", "goal"])
        assert code == 2
        one_error_line(capsys, "error[validation]:", "mcretrieval embed", "--out")
        with pytest.raises(SystemExit) as e:
            main(["embed", "--help"])
        assert e.value.code == 0

    def test_embed_of_no_items_exits_2(self, workspace, tmp_path, capsys):
        # an empty embeddings file is not one retrieve can read, so embed writes none
        empty = tmp_path / "empty.jsonl"
        empty.write_text(workspace["data"].read_text().splitlines()[0] + "\n")
        out = tmp_path / "e.jsonl"
        assert main(["embed", "--dataset", str(empty), "--checkpoint", str(workspace["ckpt"]),
                     "--notion", "goal", "--mc", "0", "--out", str(out)]) == 2
        one_error_line(capsys, "error[validation]:", "no items")
        assert not out.exists()

    def test_non_finite_embedding_is_one_runtime_line(self, workspace, tmp_path, capsys):
        # finite weights this large overflow the forward; NaN is not JSON, so embed writes no NaN
        doc = json.loads(workspace["ckpt"].read_text())
        for p in doc["params"].values():
            p["data"] = [1e300] * len(p["data"])
        ckpt = tmp_path / "huge.json"
        ckpt.write_text(json.dumps(doc))
        out = tmp_path / "e.jsonl"
        assert main(["embed", "--dataset", str(workspace["data"]), "--checkpoint", str(ckpt),
                     "--notion", "goal", "--mc", "0", "--out", str(out)]) == 4
        one_error_line(capsys, "error[runtime]:", "non-finite number")
        assert "NaN" not in out.read_text()

    def test_retrieve_prints_ranked_gallery(self, workspace, capsys):
        emb = workspace["root"] / "emb_r.jsonl"
        assert main(["embed", "--dataset", str(workspace["data"]),
                     "--checkpoint", str(workspace["ckpt"]),
                     "--notion", "goal", "--mc", "0", "--out", str(emb)]) == 0
        capsys.readouterr()
        assert main(["retrieve", "--embeddings", str(emb),
                     "--query-ids", "it0000,it0001", "--k", "3"]) == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l]
        assert len(lines) == 6
        first = lines[0].split("\t")
        assert first[0] == "it0000" and first[1] == "1"
        dists = [float(l.split("\t")[3]) for l in lines[:3]]
        assert dists == sorted(dists)

    def test_retrieve_unknown_id(self, workspace, capsys):
        emb = workspace["root"] / "emb_r.jsonl"
        code = main(["retrieve", "--embeddings", str(emb), "--query-ids", "ghost"])
        assert code == 2
        assert "ghost" in capsys.readouterr().err

    def test_retrieve_numeric_ids(self, tmp_path, capsys):
        path = tmp_path / "num.jsonl"
        means = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0], [3.0, 0.0]])
        write_embeddings(path, [3, 10, 2.5, "a"], means, np.zeros_like(means), "goal", 0)
        assert main(["retrieve", "--embeddings", str(path), "--query-ids", "3,2.5", "--k", "2"]) == 0
        rows = [line.split("\t") for line in capsys.readouterr().out.splitlines()]
        assert [(q, hit) for q, _, hit, _ in rows] == [("3", "10"), ("3", "2.5"), ("2.5", "3"), ("2.5", "10")]

    def test_retrieve_id_text_two_ids_share(self, tmp_path, capsys):
        # 3 and "3" are distinct, legal ids; the query text "3" names both
        path = tmp_path / "shared.jsonl"
        write_embeddings(path, [3, "3", "a"], np.eye(3), np.zeros((3, 3)), "goal", 0)
        assert main(["retrieve", "--embeddings", str(path), "--query-ids", "a,3"]) == 2
        one_error_line(capsys, "error[validation]:", "more than one item: 3")
        assert main(["retrieve", "--embeddings", str(path), "--query-ids", "a"]) == 0


    def test_retrieve_names_a_number_by_value(self, tmp_path, capsys):
        # the file spells 1e20, which the writer spells 1e+20; 1.50 is 1.5 by value
        path = tmp_path / "spelt.jsonl"
        write_embeddings(path, [1e20, 1.5, "a", 1], np.eye(4), np.zeros((4, 4)), "goal", 0)
        path.write_text(path.read_text().replace('"id":1e+20', '"id":1e20'))
        assert main(["retrieve", "--embeddings", str(path), "--query-ids", "1e20,1.50", "--k", "3"]) == 0
        rows = [line.split("\t") for line in capsys.readouterr().out.splitlines()]
        # all distances tie, so each query lists the other ids by text
        assert [(q, hit) for q, _, hit, _ in rows] == [
            ("1e20", "1"), ("1e20", "1.5"), ("1e20", "a"), ("1.50", "1"), ("1.50", "1e+20"), ("1.50", "a")]
        # a JSON true is no number, so it does not name the id 1
        assert main(["retrieve", "--embeddings", str(path), "--query-ids", "true"]) == 2
        one_error_line(capsys, "error[validation]:", "unknown query ids: true")


class TestRankingOverflow:
    def test_overflowing_embeddings_exit_2_naming_the_first_id(self, tmp_path, capsys):
        # b is 2e300 from a and c about 1e300, but both squared distances overflow
        path = tmp_path / "huge.jsonl"
        means = np.array([[1e300, 0.0], [-1e300, 0.0], [0.0, 1.0]])
        write_embeddings(path, ["a", "b", "c"], means, np.zeros_like(means), "goal", 0)
        assert main(["retrieve", "--embeddings", str(path), "--query-ids", "a", "--k", "3"]) == 2
        one_error_line(capsys, "error[validation]:", "item a is too large to rank")

    def test_squared_norm_limit_at_its_edge(self, tmp_path, capsys):
        top = 2.0 ** 510  # [top, top] has squared norm 2**1021, the largest accepted
        means = np.array([[top, top], [-top, -top], [0.0, 1.0]])
        path = tmp_path / "edge.jsonl"
        write_embeddings(path, ["a", "b", "c"], means, np.zeros_like(means), "goal", 0)
        assert main(["retrieve", "--embeddings", str(path), "--query-ids", "a,b", "--k", "2"]) == 0
        rows = [line.split("\t") for line in capsys.readouterr().out.splitlines()]
        assert [(q, hit) for q, _, hit, _ in rows] == [("a", "c"), ("a", "b"), ("b", "c"), ("b", "a")]
        dists = [float(d) for *_, d in rows]
        assert all(np.isfinite(dists)) and dists[1] == pytest.approx(2.0 ** 511.5)
        means[2, 1] = np.nextafter(top, np.inf)  # the smallest coordinate past the limit
        means[2, 0] = top
        write_embeddings(path, ["a", "b", "c"], means, np.zeros_like(means), "goal", 0)
        assert main(["retrieve", "--embeddings", str(path), "--query-ids", "a", "--k", "2"]) == 2
        one_error_line(capsys, "error[validation]:", "item c is too large to rank")


class TestRankersAgree:
    def test_retrieve_and_evaluate_break_distance_ties_by_id(self, tmp_path, capsys):
        # four items at exactly distance 1 from "q", listed out of id order
        ids = ["q", "d", "b", "c", "a", "e"]
        means = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0], [3.0, 0.0]])
        labels = ["A", "B", "B", "A", "A", "B"]
        path = tmp_path / "ties.jsonl"
        write_embeddings(path, ids, means, np.zeros_like(means), "goal", 0)
        assert main(["retrieve", "--embeddings", str(path),
                     "--query-ids", ",".join(ids), "--k", "5"]) == 0
        printed = {}
        for line in capsys.readouterr().out.splitlines():
            q, _, hit, _ = line.split("\t")
            printed.setdefault(q, []).append(hit)
        assert printed["q"] == ["a", "b", "c", "d", "e"]
        label = dict(zip(ids, labels))
        report = evaluate(ids, means, labels)
        for row in report.per_query:
            rel = [label[h] == row["class"] for h in printed[row["id"]]]
            assert row["ap"] == pytest.approx(average_precision(rel), abs=1e-15)


class TestEvalSweepUncertaintyAblate:
    def test_eval_writes_report(self, workspace, capsys):
        out = workspace["root"] / "report.json"
        code = main(["eval", "--dataset", str(workspace["data"]),
                     "--checkpoint", str(workspace["ckpt"]),
                     "--notion", "goal", "--mc", "4", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert 0.0 <= doc["micro_map"] <= 1.0
        assert doc["config"]["mc"] == 4
        assert "micro_map=" in capsys.readouterr().out

    @pytest.mark.parametrize("rename, classes", [
        (lambda c: c if int(c[4:]) % 2 else int(c[4:]), [0, 2, "goal1", "goal3"]),
        (lambda c: {"goal0": 1, "goal1": "1"}.get(c, c), [1, "1", "goal2", "goal3"]),
    ], ids=["mixed", "colliding"])
    def test_eval_report_has_one_row_per_class(self, workspace, tmp_path, capsys, rename, classes):
        # numbers and strings do not sort together, and 1 and "1" would share one JSON key
        data = relabel(workspace["data"], tmp_path / "relabeled.jsonl", "goal", rename)
        out = tmp_path / "report.json"
        assert main(["eval", "--dataset", str(data), "--checkpoint", str(workspace["ckpt"]),
                     "--notion", "goal", "--mc", "2", "--out", str(out)]) == 0
        rows = json.loads(out.read_text())["per_class"]
        assert [r["class"] for r in rows] == classes
        assert all(0.0 <= r["map"] <= 1.0 for r in rows)

    def test_eval_mc_defaults_to_50(self):
        args = build_parser().parse_args(
            ["eval", "--dataset", "d", "--checkpoint", "c", "--notion", "goal"])
        assert args.mc == 50

    def test_eval_unknown_notion(self, workspace, capsys):
        code = main(["eval", "--dataset", str(workspace["data"]),
                     "--checkpoint", str(workspace["ckpt"]), "--notion", "color"])
        assert code == 2

    def test_sweep_rows(self, workspace, capsys):
        out = workspace["root"] / "sweep.json"
        code = main(["sweep", "--dataset", str(workspace["data"]),
                     "--checkpoint", str(workspace["ckpt"]),
                     "--notion", "goal", "--mc-list", "1,4", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        mc_col = doc["columns"].index("mc")
        assert [r[mc_col] for r in doc["rows"]] == [0, 1, 4]

    def test_uncertainty_report(self, workspace, capsys):
        out = workspace["root"] / "unc.json"
        code = main(["uncertainty", "--dataset", str(workspace["data"]),
                     "--checkpoint", str(workspace["ckpt"]),
                     "--notion", "stimulus", "--mc", "6", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["dataset_uncertainty"] > 0
        assert len(doc["per_class"]) == 3
        sizes = [r["size"] for r in doc["per_class"]]
        assert sizes == sorted(sizes, reverse=True)

    def test_uncertainty_with_numeric_classes(self, workspace, tmp_path, capsys):
        data = relabel(workspace["data"], tmp_path / "int.jsonl", "stimulus",
                       lambda c: int(c[len("stimulus"):]))
        assert main(["uncertainty", "--dataset", str(data), "--checkpoint", str(workspace["ckpt"]),
                     "--notion", "stimulus", "--mc", "3"]) == 0
        out = capsys.readouterr().out
        assert out.count("class=") == 3 and "class=0 " in out

    @pytest.mark.parametrize("subset", ["", ","])
    def test_empty_subset_names_its_flag(self, workspace, capsys, subset):
        assert main(["ablate", "--dataset", str(workspace["data"]), "--checkpoint", str(workspace["ckpt"]),
                     "--notion", "goal", "--mc", "0", "--subsets", "all", subset]) == 2
        one_error_line(capsys, "error[validation]:", "--subsets")

    def test_uncertainty_needs_two_passes(self, workspace, capsys):
        code = main(["uncertainty", "--dataset", str(workspace["data"]),
                     "--checkpoint", str(workspace["ckpt"]),
                     "--notion", "goal", "--mc", "1"])
        assert code == 2

    @pytest.mark.parametrize("argv,flag,says", [
        (["sweep", "--mc-list", "1,x"], "--mc-list", "integers"),
        (["eval", "--mc", "-2"], "--mc", "must be >= 0"),
        (["embed", "--mc", "-1", "--out", "unused.json"], "--mc", "must be >= 0"),
        (["eval", "--mc", "abc"], "--mc", "invalid int value: 'abc'"),
        (["sweep", "--mc-list", ","], "--mc-list", "at least one mc value"),
        (["sweep", "--mc-list", "0,2"], "--mc-list", "must be >= 1"),
    ])
    def test_bad_mc_names_its_flag(self, workspace, capsys, argv, flag, says):
        code = main([argv[0], "--dataset", str(workspace["data"]),
                     "--checkpoint", str(workspace["ckpt"]), "--notion", "goal", *argv[1:]])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error[validation]:") and err.count("\n") == 1
        assert flag in err and says in err

    def test_sweep_embeds_once_in_the_given_order(self, workspace, monkeypatch):
        calls = []

        def counted(net, items, notion, mcs, seed):
            calls.append(list(mcs))
            return embed_prefixes(net, items, notion, mcs, seed)

        monkeypatch.setattr(cli, "embed_prefixes", counted)
        assert main(["sweep", "--dataset", str(workspace["data"]), "--checkpoint", str(workspace["ckpt"]),
                     "--notion", "goal", "--mc-list", "4,1,4,2"]) == 0
        assert calls == [[0, 4, 1, 4, 2]]

    @pytest.mark.parametrize("argv", [
        ["embed", "--mc", "0", "--out", "unused.json", "--modalities", ","],
        ["eval", "--mc", "0", "--modalities", " "],
        ["eval", "--mc", "0", "--modalities", ""],
    ])
    def test_empty_modalities_names_its_flag(self, workspace, capsys, argv):
        assert main([argv[0], "--dataset", str(workspace["data"]), "--checkpoint", str(workspace["ckpt"]),
                     "--notion", "goal", *argv[1:]]) == 2
        one_error_line(capsys, "error[validation]:", "--modalities")

    @pytest.mark.parametrize("argv", [
        ["eval", "--mc", "0", "--modalities", "vec,vce"],
        ["ablate", "--mc", "0", "--subsets", "all", "seq,sqe"],
    ])
    def test_unknown_modality_name_rejected(self, workspace, capsys, argv):
        code = main([argv[0], "--dataset", str(workspace["data"]),
                     "--checkpoint", str(workspace["ckpt"]), "--notion", "goal", *argv[1:]])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error[validation]:") and err.count("\n") == 1
        assert "unknown modalities" in err and ("vce" in err or "sqe" in err)

    def test_ablate_rows(self, workspace, capsys):
        out = workspace["root"] / "ablate.json"
        code = main(["ablate", "--dataset", str(workspace["data"]),
                     "--checkpoint", str(workspace["ckpt"]),
                     "--notion", "goal", "--mc", "0",
                     "--subsets", "all", "vec", "seq", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        mods = doc["rows"][0][doc["columns"].index("modalities")]
        assert mods == "all" and len(doc["rows"]) == 3

    @pytest.mark.parametrize("case,code", [
        ("truncated", 3), ("missing_key", 2), ("not_an_object", 2),
        ("wrong_dim_type", 2), ("wrong_param_type", 2), ("infinite_param", 2),
        ("float_samples", 2), ("bool_samples", 2), ("bool_param", 2), ("not_utf8", 3),
    ])
    def test_malformed_checkpoint_exits_with_one_line(self, workspace, tmp_path, capsys, case, code):
        text = workspace["ckpt"].read_text()
        doc = json.loads(text)
        bad = {
            "truncated": text[: len(text) // 2],
            "missing_key": json.dumps({"format": doc["format"]}),
            "not_an_object": json.dumps([doc]),
            "wrong_dim_type": json.dumps({**doc, "embed_dim": "wide"}),
            "wrong_param_type": json.dumps({**doc, "params": {
                k: {"shape": v["shape"], "data": "x"} for k, v in doc["params"].items()}}),
            "float_samples": json.dumps({**doc, "modalities": [
                {**m, "samples": 2.0} for m in doc["modalities"]]}),
            "bool_samples": json.dumps({**doc, "modalities": [
                {**m, "samples": True} for m in doc["modalities"]]}),
            "bool_param": json.dumps({**doc, "params": {
                k: {"shape": v["shape"], "data": [True, *v["data"][1:]]} for k, v in doc["params"].items()}}),
            "infinite_param": json.dumps({**doc, "params": {
                k: {"shape": v["shape"], "data": np.full(v["shape"], np.inf).tolist()}
                for k, v in doc["params"].items()}}),
            "not_utf8": b"\xff",
        }[case]
        ckpt = tmp_path / "ckpt.json"
        ckpt.write_bytes(bad if isinstance(bad, bytes) else bad.encode())
        assert main(["eval", "--dataset", str(workspace["data"]), "--checkpoint", str(ckpt),
                     "--notion", "goal", "--mc", "0"]) == code
        err = capsys.readouterr().err
        assert err.startswith("error[parse]:" if code == 3 else "error[validation]:")
        assert err.count("\n") == 1

    def test_checkpoint_with_a_cell_grid_exits_2(self, workspace, tmp_path, capsys):
        # a sequence encoder laid out for two cells per frame, with parameters of that layout
        doc = json.loads(workspace["ckpt"].read_text())
        seq = next(m for m in doc["modalities"] if m["kind"] == "sequence")
        seq["cells"] = 2
        pre = f"enc.{seq['name']}.frame"
        for name, shape in ((f"{pre}.w", [seq["input_dim"] // 2, seq["hidden_dim"] // 2]),
                            (f"{pre}.b", [seq["hidden_dim"] // 2])):
            doc["params"][name] = {"shape": shape, "data": [0.1] * int(np.prod(shape))}
        ckpt = tmp_path / "cells.json"
        ckpt.write_text(json.dumps(doc))
        assert main(["eval", "--dataset", str(workspace["data"]), "--checkpoint", str(ckpt),
                     "--notion", "goal", "--mc", "0"]) == 2
        one_error_line(capsys, "error[validation]:", "cells")

    @pytest.mark.parametrize("case", ["ragged_payload", "labels_list", "id_list", "nan_payload", "not_an_object"])
    def test_malformed_dataset_record_exits_with_one_line(self, workspace, tmp_path, capsys, case):
        lines = workspace["data"].read_text().splitlines()
        rec = json.loads(lines[2])
        if case == "ragged_payload":
            seq = next(k for k, v in rec["payloads"].items() if isinstance(v[0], list))
            rec["payloads"][seq][-1] = rec["payloads"][seq][-1][:-1]
        elif case == "labels_list":
            rec["labels"] = list(rec["labels"].values())
        elif case == "nan_payload":
            vec = next(k for k, v in rec["payloads"].items() if not isinstance(v[0], list))
            rec["payloads"][vec][0] = float("nan")
        elif case == "not_an_object":
            rec = [1, 2]
        else:
            rec["id"] = [rec["id"]]
        lines[2] = json.dumps(rec)
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join(lines) + "\n")
        assert main(["eval", "--dataset", str(bad), "--checkpoint", str(workspace["ckpt"]),
                     "--notion", "goal", "--mc", "0"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error[parse]:") and "bad.jsonl:3:" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("case,line", [
        ("label_true", 3), ("header_class_null", 1), ("header_class_true", 1),
    ])
    def test_bool_or_null_class_name_exits_with_one_line(self, workspace, tmp_path, capsys, case, line):
        # numeric classes 0..3, so that == alone would take a label true for class 1
        data = relabel(workspace["data"], tmp_path / "int.jsonl", "goal", lambda c: int(c[4:]))
        lines = data.read_text().splitlines()
        header, rec = json.loads(lines[0]), json.loads(lines[2])
        if case == "label_true":
            rec["labels"]["goal"] = True
        else:
            header["classes"]["goal"].append(None if case == "header_class_null" else True)
        lines[0], lines[2] = json.dumps(header), json.dumps(rec)
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join(lines) + "\n")
        assert main(["eval", "--dataset", str(bad), "--checkpoint", str(workspace["ckpt"]),
                     "--notion", "goal", "--mc", "0"]) == 3
        one_error_line(capsys, "error[parse]:", f"bad.jsonl:{line}:")

    def test_embeddings_id_list_exits_with_one_line(self, tmp_path, capsys):
        emb = tmp_path / "emb.jsonl"
        write_embeddings(emb, ["a", "b"], np.zeros((2, 3)), np.ones((2, 3)), "goal", 5)
        lines = emb.read_text().splitlines()
        rec = json.loads(lines[1])
        rec["id"] = ["b"]
        lines[1] = json.dumps(rec)
        emb.write_text("\n".join(lines) + "\n")
        assert main(["retrieve", "--embeddings", str(emb), "--query-ids", "a"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error[parse]:") and "emb.jsonl:2:" in err
        assert err.count("\n") == 1

    def test_embeddings_nan_mean_exits_with_one_line(self, tmp_path, capsys):
        emb = tmp_path / "emb.jsonl"
        write_embeddings(emb, ["a", "b"], np.zeros((2, 3)), np.ones((2, 3)), "goal", 5)
        lines = emb.read_text().splitlines()  # write_embeddings refuses NaN, so it goes in by hand
        rec = json.loads(lines[1])
        rec["mean"][0] = float("nan")
        lines[1] = json.dumps(rec)
        emb.write_text("\n".join(lines) + "\n")
        assert "NaN" in lines[1]
        assert main(["retrieve", "--embeddings", str(emb), "--query-ids", "a"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error[parse]:") and "emb.jsonl:2:" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("patch,line,says", [
        ({"mean": [], "variance": []}, 1, "width >= 1"),
        ({"mc": -3, "variance": [-1]}, 1, "mc must be >= 0"),
        ({"notion": 7, "mc": "x"}, 1, "'notion' must be of type str"),
        ({"mc": True}, 2, "'mc' must be of type int"),
        ({"variance": [-0.5]}, 2, "variance entries must be >= 0"),
    ], ids=["width_0", "mc_negative", "notion_not_str", "mc_bool", "variance_negative"])
    def test_embeddings_bad_header_or_variance_exits_with_one_line(self, tmp_path, capsys, patch, line, says):
        # patch every record from `line` on, so that later records agree with the bad one
        emb = tmp_path / "emb.jsonl"
        write_embeddings(emb, ["a", "b", "c"], np.array([[0.0], [1.0], [2.0]]), np.ones((3, 1)), "goal", 1)
        recs = [json.loads(text) for text in emb.read_text().splitlines()]
        emb.write_text("".join(json.dumps({**r, **patch} if i >= line - 1 else r) + "\n" for i, r in enumerate(recs)))
        assert main(["retrieve", "--embeddings", str(emb), "--query-ids", "a"]) == 3
        one_error_line(capsys, "error[parse]:", f"emb.jsonl:{line}:", says)

    @pytest.mark.parametrize("name,flags,code,says", [
        ("empty.jsonl", ["--query-ids", "a"], 3, "empty.jsonl:1: no records in the file"),
        ("emb.jsonl", ["--query-ids", "a", "--k", "0"], 2, "--k"),
        ("emb.jsonl", ["--query-ids", ","], 2, "--query-ids"),
    ], ids=["empty_file", "k_0", "no_query_ids"])
    def test_bad_retrieve_input_exits_with_one_line(self, tmp_path, capsys, name, flags, code, says):
        write_embeddings(tmp_path / "emb.jsonl", ["a", "b"], np.eye(2), np.zeros((2, 2)), "goal", 0)
        (tmp_path / "empty.jsonl").write_bytes(b"")
        assert main(["retrieve", "--embeddings", str(tmp_path / name), *flags]) == code
        one_error_line(capsys, "error[parse]:" if code == 3 else "error[validation]:", says)

    def test_missing_file_is_validation_exit(self, tmp_path, capsys):
        code = main(["eval", "--dataset", str(tmp_path / "nope.jsonl"),
                     "--checkpoint", str(tmp_path / "nope.json"), "--notion", "goal"])
        assert code == 2
