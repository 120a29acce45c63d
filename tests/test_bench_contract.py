"""Every name the benchmark tracer wraps must exist in vncat.

``bench/spans.py`` swaps each ``(module, attribute)`` of ``WRAPS`` for a
timed wrapper; a renamed or deleted attribute makes every traced benchmark
run fail, so the contract is checked here without running the benchmark.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_resolves():
    wraps = load_spans().WRAPS
    assert wraps
    missing = [
        (mod, attr)
        for mod, attr, _ in wraps
        if not callable(getattr(importlib.import_module(mod), attr, None))
    ]
    assert missing == []
