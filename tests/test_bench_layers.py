"""The benchmark's tracer wraps package functions by name from outside the
package; a refactor that moves or drops one of them must fail here, not only
under `bench/run.py --trace 1`."""

import importlib.util
from pathlib import Path

import pytest

LAYERS = Path(__file__).resolve().parents[1] / "bench" / "layers.py"


@pytest.fixture(scope="module")
def layers():
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves(layers):
    for name, owner, attr in layers.SPANS + layers.CALL_COUNTS:
        assert attr in owner.__dict__, f"{name}: {owner.__name__}.{attr} is gone"
        assert callable(owner.__dict__[attr]), name


def test_install_wraps_and_restores(layers):
    targets = layers.SPANS + layers.CALL_COUNTS
    originals = [owner.__dict__[attr] for _, owner, attr in targets]
    with layers.Tracer().installed():
        wrapped = [owner.__dict__[attr] for _, owner, attr in targets]
    assert all(w is not o for w, o in zip(wrapped, originals))
    assert all(owner.__dict__[attr] is o for (_, owner, attr), o in zip(targets, originals))
