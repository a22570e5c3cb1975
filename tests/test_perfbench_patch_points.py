"""The benchmark's tracer patches module attributes of the package; every one
of them must exist, so deleting one fails here and not only in a benchmark
run."""

import importlib
from pathlib import Path
from types import SimpleNamespace

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
MODULES = ("tensor", "layers", "model", "data", "train", "localize", "cli", "errors")


def test_tracer_installs_and_uninstalls_on_the_package(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    vf = SimpleNamespace(**{n: importlib.import_module(f"volformer.{n}") for n in MODULES})
    originals = {name: getattr(vf.tensor, name) for name in spans.GROUP_OF}
    tracer = spans.Tracer(vf)
    try:
        tracer.install()
    except Exception:
        tracer._patches.restore()  # leave no patch behind for the tests that follow
        raise
    assert all(getattr(vf.tensor, name) is not fn for name, fn in originals.items())
    tracer.uninstall()
    assert all(getattr(vf.tensor, name) is fn for name, fn in originals.items())
