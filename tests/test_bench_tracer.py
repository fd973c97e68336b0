"""The benchmark's tracer patches edgegate functions and methods named by
strings in ``bench/tracer.py``. A rename or deletion under ``src/`` would
otherwise surface only when the benchmark runs."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracer = load_tracer()
    targets = [*tracer.SPANNED, *tracer.SETUP, *((m, p) for m, p, _ in tracer.COUNTED)]
    assert targets
    missing = []
    for module_name, path in targets:
        module = importlib.import_module(module_name)
        # Looked up as the tracer's _patch does: a method in its class's own
        # __dict__, a function as a module attribute.
        owner_name, _, attr = path.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name, None)
            found = owner is not None and attr in owner.__dict__
        else:
            found = callable(getattr(module, attr, None))
        if not found:
            missing.append(f"{module_name}:{path}")
    assert missing == []
