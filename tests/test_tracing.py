"""The benchmark's tracer names weaklab functions by string; each must still exist."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_span_names_a_weaklab_function():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.SPANS
    missing = [
        f"{mod}.{fn}"
        for mod, names in tracing.SPANS.items()
        for fn in names
        if not callable(getattr(importlib.import_module(f"weaklab.{mod}"), fn, None))
    ]
    assert missing == []
