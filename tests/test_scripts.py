"""The experiment scripts run end to end on tiny arguments."""

import contextlib
import importlib.util
import io
import json
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(f"script_{name}", SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name,argv", [
    ("mc_convergence", ["--preset", "noiseless", "--notion", "goal", "--items", "40", "--epochs", "2",
                        "--reps", "2", "--mc", "1,2", "--probe-items", "2"]),
    ("run_study", ["--items", "60", "--seeds", "0", "--epochs", "2", "--mc-grid", "1,2"]),
])
def test_script_main_exits_0(name, argv, tmp_path):
    out = tmp_path / "study"
    with contextlib.redirect_stdout(io.StringIO()):
        code = load_script(name).main(argv + (["--out", str(out)] if name == "run_study" else []))
    assert code == 0
    if name == "run_study":
        summary = json.loads((out / "summary.json").read_text())
        assert summary["seeds"] == [0] and summary["mc_grid"] == [1, 2]
