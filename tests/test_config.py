import json

import pytest

from mcretrieval import ContractError, ParseError, ValidationError
from mcretrieval.config import RunConfig, json_line, load_config


class TestDefaults:
    def test_published_defaults(self):
        c = RunConfig()
        assert c.margin == 0.2
        assert c.mc == 50
        assert c.dropout == 0.1
        assert c.embed_dim == 128
        assert c.lr == 0.01
        assert c.decay_start == 250 and c.epochs == 500
        assert c.batch_size == 512
        assert c.triplet_cap == 400
        assert (c.p_classes, c.k_per_class) == (18, 4)
        assert c.weight_decay == 0.0

    def test_validation(self):
        with pytest.raises(ValidationError):
            RunConfig(dropout=1.0)
        with pytest.raises(ValidationError):
            RunConfig(dropout=-0.1)
        with pytest.raises(ValidationError):
            RunConfig(margin=-0.2)
        with pytest.raises(ValidationError):
            RunConfig(mc=0)
        with pytest.raises(ValidationError):
            RunConfig(decay_start=501)
        with pytest.raises(ValidationError):
            RunConfig(miner="hardest")
        with pytest.raises(ValidationError):
            RunConfig(loss="contrastive")

    def test_replace_revalidates(self):
        c = RunConfig().replace(mc=5)
        assert c.mc == 5 and c.margin == 0.2
        with pytest.raises(ValidationError):
            RunConfig().replace(dropout=2.0)


class TestFile:
    def test_load_with_overrides(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"mc": 10, "seed": 3}))
        c = load_config(p, overrides={"seed": 7, "mc": None})
        assert c.mc == 10 and c.seed == 7
        assert c.margin == 0.2

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"margn": 0.3}))
        with pytest.raises(ValidationError, match="margn"):
            load_config(p)

    def test_bad_json_is_parse_error(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text("{\n  broken\n}")
        with pytest.raises(ParseError) as e:
            load_config(p)
        assert e.value.line == 2

    def test_out_of_range_value_rejected_on_load(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"dropout": 1.5}))
        with pytest.raises(ValidationError):
            load_config(p)


def test_json_line_rejects_nan_and_infinity():
    # neither is JSON, so no document the program writes may hold one
    assert json_line({"b": 1.5, "a": [None]}) == '{"a":[null],"b":1.5}\n'
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ContractError, match="non-finite"):
            json_line({"mean_loss": bad})
