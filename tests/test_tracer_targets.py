"""Every name the benchmark's tracer wraps exists in the package.

A traced name that a change moves or deletes reads ``null`` in the
benchmark's per-layer metrics; this finds it in the suite instead.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).parents[1] / "benchmarks" / "tracer.py"


def _tracer_targets(monkeypatch):
    spec = importlib.util.spec_from_file_location("benchmark_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module.TARGETS


def _resolves(module: str, attr: str) -> bool:
    """As the tracer looks a name up: ``Class.method`` in the class ``__dict__``."""
    home = importlib.import_module(module)
    if "." in attr:
        cls_name, meth = attr.split(".", 1)
        return meth in vars(getattr(home, cls_name, object))
    return getattr(home, attr, None) is not None


def test_every_traced_name_resolves_in_the_package(monkeypatch):
    targets = _tracer_targets(monkeypatch)
    assert targets
    missing = [name for name, module, attr, _ in targets if not _resolves(module, attr)]
    assert missing == []
