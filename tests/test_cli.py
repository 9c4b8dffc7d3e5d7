"""Command-line pipeline: every subcommand, happy path and exit codes."""

import json
import warnings

import numpy as np
import pytest

from mcretrieval.cli import build_parser, main
from mcretrieval.evaluation import average_precision, evaluate
from mcretrieval.uncertainty import read_embeddings, write_embeddings

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


class TestTrain:
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

    def test_uncertainty_needs_two_passes(self, workspace, capsys):
        code = main(["uncertainty", "--dataset", str(workspace["data"]),
                     "--checkpoint", str(workspace["ckpt"]),
                     "--notion", "goal", "--mc", "1"])
        assert code == 2

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
            "infinite_param": json.dumps({**doc, "params": {
                k: {"shape": v["shape"], "data": np.full(v["shape"], np.inf).tolist()}
                for k, v in doc["params"].items()}}),
        }[case]
        ckpt = tmp_path / "ckpt.json"
        ckpt.write_text(bad)
        assert main(["eval", "--dataset", str(workspace["data"]), "--checkpoint", str(ckpt),
                     "--notion", "goal", "--mc", "0"]) == code
        err = capsys.readouterr().err
        assert err.startswith("error[parse]:" if code == 3 else "error[validation]:")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("case", ["ragged_payload", "labels_list", "id_list", "nan_payload"])
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
        means = np.zeros((2, 3))
        means[1, 0] = np.nan
        write_embeddings(emb, ["a", "b"], means, np.ones((2, 3)), "goal", 5)
        assert main(["retrieve", "--embeddings", str(emb), "--query-ids", "a"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error[parse]:") and "emb.jsonl:2:" in err
        assert err.count("\n") == 1

    def test_missing_file_is_validation_exit(self, tmp_path, capsys):
        code = main(["eval", "--dataset", str(tmp_path / "nope.jsonl"),
                     "--checkpoint", str(tmp_path / "nope.json"), "--notion", "goal"])
        assert code == 2
