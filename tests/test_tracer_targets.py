"""The benchmark tracer's wrap targets exist in the program.

benchmark/tracer.py replaces named functions (ConditionalNet.forward,
uncertainty.mc_embed, model.sample_frame_indices, ...) with timing
wrappers; renaming or deleting one of them would turn a traced
benchmark run into a KeyError. Installing and uninstalling the tracer
here catches that in the test suite.
"""

import importlib.util
from pathlib import Path

TRACER_PATH = Path(__file__).resolve().parents[1] / "benchmark" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("benchmark_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def wrap_sites(tracer):
    """Every (namespace, attribute) pair the tracer replaces."""
    return [site for sites in tracer.SPANS.values() for site in sites] + list(tracer.COUNTED.values())


def test_every_wrapped_name_exists():
    tracer = load_tracer()
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}" for owner, attr in wrap_sites(tracer)
               if attr not in owner.__dict__]
    assert not missing, f"tracer targets missing from the program: {missing}"


def test_install_then_uninstall_restores_every_function():
    tracer = load_tracer()
    sites = wrap_sites(tracer)
    before = {(id(owner), attr): owner.__dict__[attr] for owner, attr in sites}
    t = tracer.Tracer()
    t.install()
    try:
        wrapped = [(owner, attr) for owner, attr in sites
                   if owner.__dict__[attr] is before[(id(owner), attr)]]
        assert not wrapped, f"install left these unwrapped: {wrapped}"
    finally:
        t.uninstall()
    for owner, attr in sites:
        assert owner.__dict__[attr] is before[(id(owner), attr)]
