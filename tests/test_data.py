"""Dataset format round-trips and generator statistics."""

import json

import numpy as np
import pytest

from mcretrieval import ParseError, ValidationError
from mcretrieval.data import (
    DatasetFile,
    Item,
    ModalityFormat,
    preset_args,
    read_dataset,
    synth_generate,
    tail_counts,
    write_dataset,
)
from mcretrieval.evaluation import evaluate


def tiny_args(**over):
    args = dict(
        notions={"goal": 3, "stim": 2},
        items=14,
        modalities=[
            ModalityFormat("vec", "vector", dim=6),
            ModalityFormat("seq", "sequence", dim=4, frames=3),
        ],
        noise={"vec": {"goal": 0.1, "stim": 0.2}, "seq": {"goal": 0.3}},
        seed=5,
        sessions=3,
    )
    args.update(over)
    return args


class TestTailCounts:
    def test_flat_tail_is_even_split(self):
        counts = tail_counts(4, 20, 0.0)
        assert counts.sum() == 20
        assert counts.max() - counts.min() <= 1

    def test_tail_is_monotone_with_floor_two(self):
        counts = tail_counts(10, 60, 0.8)
        assert counts.sum() == 60
        assert counts.min() >= 2
        assert all(counts[i] >= counts[i + 1] for i in range(9))
        assert counts[0] > counts[-1]

    def test_degenerate_sizes_rejected(self):
        with pytest.raises(ValidationError):
            tail_counts(1, 10, 0.0)
        with pytest.raises(ValidationError):
            tail_counts(5, 9, 0.0)
        for tail in (-0.5, float("nan"), float("inf")):
            with pytest.raises(ValidationError, match="tail"):
                tail_counts(3, 10, tail)


class TestSynth:
    def test_shapes_labels_sessions(self):
        ds = synth_generate(**tiny_args())
        assert len(ds.items) == 14
        assert ds.notions == ["goal", "stim"]
        assert set(ds.classes["goal"]) == {"goal0", "goal1", "goal2"}
        for it in ds.items:
            assert it.payloads["vec"].shape == (6,)
            assert it.payloads["seq"].shape == (3, 4)
            assert it.labels["goal"] in ds.classes["goal"]
            assert it.session in {"sess0", "sess1", "sess2"}
        assert len({it.id for it in ds.items}) == 14

    def test_label_marginals_match_tail_counts(self):
        args = tiny_args(items=30, tail=0.6)
        ds = synth_generate(**args)
        want = tail_counts(3, 30, 0.6)
        got = sorted(
            (ds.labels_for("goal").count(c) for c in ds.classes["goal"]), reverse=True
        )
        assert got == sorted(want.tolist(), reverse=True)

    def test_same_seed_same_items(self):
        a = synth_generate(**tiny_args())
        b = synth_generate(**tiny_args())
        for x, y in zip(a.items, b.items):
            assert x.labels == y.labels
            for name in x.payloads:
                assert np.array_equal(x.payloads[name], y.payloads[name])
        c = synth_generate(**tiny_args(seed=6))
        assert any(
            not np.array_equal(x.payloads["vec"], y.payloads["vec"])
            for x, y in zip(a.items, c.items)
        )

    def test_noiseless_items_with_equal_label_pairs_coincide(self):
        ds = synth_generate(**tiny_args(noise={}, items=40))
        groups = {}
        for it in ds.items:
            groups.setdefault((it.labels["goal"], it.labels["stim"]), []).append(it)
        multi = [g for g in groups.values() if len(g) > 1]
        assert multi, "fixture should produce repeated label pairs"
        for g in multi:
            for other in g[1:]:
                assert np.array_equal(g[0].payloads["vec"], other.payloads["vec"])

    def test_noise_scale_controls_informativeness(self):
        # raw payloads as embeddings: a clean modality ranks its notion
        # nearly perfectly, a drowned one falls far behind
        args = tiny_args(
            items=40,
            sessions=0,
            modalities=[ModalityFormat("m1", "vector", 12), ModalityFormat("m2", "vector", 12)],
            noise={"m1": {"stim": 0.0}, "m2": {"stim": 50.0}},
            seed=9,
        )
        ds = synth_generate(**args)
        ids = [it.id for it in ds.items]
        labels = ds.labels_for("stim")
        clean = evaluate(ids, np.stack([it.payloads["m1"] for it in ds.items]), labels)
        noisy = evaluate(ids, np.stack([it.payloads["m2"] for it in ds.items]), labels)
        assert clean.micro_map > 0.9
        assert noisy.micro_map < clean.micro_map - 0.2

    def test_bad_arguments(self):
        with pytest.raises(ValidationError):
            synth_generate(**tiny_args(noise={"ghost": {"goal": 0.1}}))
        with pytest.raises(ValidationError):
            synth_generate(**tiny_args(noise={"vec": {"ghost": 0.1}}))
        with pytest.raises(ValidationError):
            synth_generate(**tiny_args(noise={"vec": {"goal": -1.0}}))
        with pytest.raises(ValidationError):
            synth_generate(**tiny_args(items=0))
        with pytest.raises(ValidationError):
            synth_generate(**tiny_args(notions={"goal": 1, "stim": 2}))

    def test_presets_generate(self):
        for name in ("hdd-like", "noiseless"):
            ds = synth_generate(items=60, seed=0, **preset_args(name))
            assert len(ds.items) == 60
        with pytest.raises(ValidationError):
            preset_args("nope")

    def test_preset_args_are_copies(self):
        a = preset_args("hdd-like")
        a["noise"]["camera"]["goal"] = 99.0
        assert preset_args("hdd-like")["noise"]["camera"]["goal"] != 99.0


class TestSerialization:
    def test_round_trip_field_for_field(self, tmp_path):
        ds = synth_generate(**tiny_args())
        path = tmp_path / "d.jsonl"
        write_dataset(path, ds)
        back = read_dataset(path)
        assert back.notions == ds.notions
        assert back.classes == ds.classes
        assert [m for m in back.modalities] == [m for m in ds.modalities]
        for a, b in zip(ds.items, back.items):
            assert a.id == b.id and a.labels == b.labels and a.session == b.session
            for name in a.payloads:
                assert np.array_equal(a.payloads[name], b.payloads[name])

    def test_same_seed_same_bytes(self, tmp_path):
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_dataset(p1, synth_generate(**tiny_args()))
        write_dataset(p2, synth_generate(**tiny_args()))
        assert p1.read_bytes() == p2.read_bytes()

    def test_sessionless_round_trip(self, tmp_path):
        ds = synth_generate(**tiny_args(sessions=0))
        assert not ds.has_sessions
        path = tmp_path / "d.jsonl"
        write_dataset(path, ds)
        assert read_dataset(path).sessions() is None

    def test_bool_or_null_ids_and_bool_sessions_rejected(self, tmp_path):
        import json

        path = tmp_path / "d.jsonl"
        write_dataset(path, synth_generate(**tiny_args()))
        lines = path.read_text().splitlines()
        for key, value in [("id", True), ("id", False), ("id", None), ("session", True), ("session", False)]:
            rec = json.loads(lines[2])
            rec[key] = value
            path.write_text("\n".join([lines[0], lines[1], json.dumps(rec)]) + "\n")
            with pytest.raises(ParseError, match=f"item {key} must be") as e:
                read_dataset(path)
            assert e.value.line == 3
        # a null session is no session, as when the key is left out
        rec = json.loads(lines[1])
        rec["session"] = None
        path.write_text("\n".join([lines[0], json.dumps(rec)]) + "\n")
        assert read_dataset(path).items[0].session is None

    def test_parse_errors_carry_line_numbers(self, tmp_path):
        ds = synth_generate(**tiny_args())
        path = tmp_path / "d.jsonl"
        write_dataset(path, ds)
        lines = path.read_text().splitlines()

        bad = tmp_path / "bad.jsonl"
        bad.write_text(lines[0] + "\n{oops\n")
        with pytest.raises(ParseError) as e:
            read_dataset(bad)
        assert e.value.line == 2

        bad.write_text("not a header\n")
        with pytest.raises(ParseError) as e:
            read_dataset(bad)
        assert e.value.line == 1

        bad.write_bytes(lines[0].encode() + b'\n{"id": "\xff"}\n')  # not UTF-8
        with pytest.raises(ParseError, match="utf-8") as e:
            read_dataset(bad)
        assert e.value.line == 2

        rec = lines[1].replace('"goal0"', '"goal9"').replace('"goal1"', '"goal9"').replace('"goal2"', '"goal9"')
        bad.write_text(lines[0] + "\n" + rec + "\n")
        with pytest.raises(ParseError, match="label"):
            read_dataset(bad)

        bad.write_text(lines[0] + "\n" + lines[1] + "\n" + lines[1] + "\n")
        with pytest.raises(ParseError) as e:
            read_dataset(bad)
        assert e.value.line == 3 and "duplicate" in str(e.value)

    def test_wrong_payload_dim_rejected(self, tmp_path):
        import json

        ds = synth_generate(**tiny_args())
        path = tmp_path / "d.jsonl"
        write_dataset(path, ds)
        lines = path.read_text().splitlines()
        rec = json.loads(lines[1])
        rec["payloads"]["vec"] = [1.0, 2.0]
        path.write_text(lines[0] + "\n" + json.dumps(rec) + "\n")
        with pytest.raises(ParseError) as e:
            read_dataset(path)
        assert e.value.line == 2

    def test_vector_modality_rejects_frames(self):
        with pytest.raises(ValidationError):
            ModalityFormat("v", "vector", dim=3, frames=2)
        with pytest.raises(ValidationError):
            ModalityFormat("v", "image", dim=3)

    def test_validate_catches_handbuilt_mistakes(self):
        mods = [ModalityFormat("v", "vector", 2)]
        ds = DatasetFile(mods, ["n"], {"n": ["a"]}, [
            Item("x", {"n": "a"}, {"v": np.zeros(2)}),
            Item("x", {"n": "a"}, {"v": np.zeros(2)}),
        ])
        with pytest.raises(ValidationError, match="duplicate"):
            ds.validate()

    @pytest.mark.parametrize("name,where", [("vec", (4,)), ("seq", (1, 2))])
    @pytest.mark.parametrize("flag", [True, False])
    def test_bool_in_payload_is_parse_error(self, tmp_path, name, where, flag):
        path = tmp_path / "d.jsonl"
        write_dataset(path, synth_generate(**tiny_args()))
        lines = path.read_text().splitlines()
        rec = json.loads(lines[2])
        row = rec["payloads"][name]
        for i in where[:-1]:
            row = row[i]
        row[where[-1]] = flag
        lines[2] = json.dumps(rec)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match=f"{name} payload must hold only numbers, got a bool") as e:
            read_dataset(path)
        assert e.value.line == 3

    @pytest.mark.parametrize("flag", ["x", 1, 0, None, [], {}])
    def test_header_sessions_flag_must_be_a_bool(self, tmp_path, flag):
        path = tmp_path / "d.jsonl"
        write_dataset(path, synth_generate(**tiny_args()))
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        header["sessions"] = flag
        path.write_text("\n".join([json.dumps(header), *lines[1:]]) + "\n")
        with pytest.raises(ParseError, match="header 'sessions' must be a bool") as e:
            read_dataset(path)
        assert e.value.line == 1
        # the flag may be left out
        del header["sessions"]
        path.write_text("\n".join([json.dumps(header), *lines[1:]]) + "\n")
        assert len(read_dataset(path).items) == 14

    @pytest.mark.parametrize("edit,says", [
        (lambda rec: rec["labels"].update(goal="goal9"), "bad label for 'goal'"),
        (lambda rec: rec["payloads"].update(img=[1.0]), "undeclared modality 'img'"),
        (lambda rec: rec["payloads"].update(vec=[1.0, 2.0]), r"vec payload must be \[6\]"),
        (lambda rec: rec["payloads"].update(seq=[[1.0, 2.0]] * 3), r"seq payload must be \[T, 4\]"),
        (lambda rec: rec.update(id="it0000"), "duplicate id 'it0000'"),
        (lambda rec: rec.update(payloads={}), "item it0001 has no modality payloads"),
    ], ids=["label", "undeclared_modality", "vector_dim", "sequence_width", "duplicate_id", "no_payloads"])
    def test_validate_and_reader_reject_the_same_mistakes(self, tmp_path, edit, says):
        ds = synth_generate(**tiny_args())
        path = tmp_path / "d.jsonl"
        write_dataset(path, ds)
        lines = path.read_text().splitlines()
        rec = json.loads(lines[2])  # the second item
        edit(rec)
        ds.items[1] = Item(rec["id"], rec["labels"], rec["payloads"], rec.get("session"))
        with pytest.raises(ValidationError, match=says):
            ds.validate()
        lines[2] = json.dumps(rec)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match=says) as e:
            read_dataset(path)
        assert e.value.line == 3
