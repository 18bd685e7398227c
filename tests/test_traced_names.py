"""The benchmark's tracer wraps program functions by name, so every name it
lists must resolve: a rename fails here, not only in a traced benchmark run."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "flowbench" / "tracing.py"


def test_every_traced_name_resolves_to_a_callable():
    spec = importlib.util.spec_from_file_location("flowbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for module_name, path in tracing.TARGETS:
        try:
            owner = importlib.import_module(f"localflow.{module_name}")
        except ImportError:
            owner = None
        for part in path.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"localflow.{module_name}.{path}")
    assert not missing, f"traced names that are not callables of localflow: {missing}"
