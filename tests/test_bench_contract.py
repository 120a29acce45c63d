"""What the benchmark uses of vncat must keep existing.

``bench/spans.py`` swaps each ``(module, attribute)`` of ``WRAPS`` for a
timed wrapper, and ``bench/run.py`` calls ``vncat.cli.run_scenario`` with
keyword arguments; a renamed or deleted attribute or keyword makes every
benchmark run fail, so the contract is checked here without running the
benchmark.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import vncat.cli

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


def test_run_scenario_takes_the_benchmark_keywords():
    # bench/run.py calls run_scenario(path, out, emit_bases=..., threads=1)
    sig = inspect.signature(vncat.cli.run_scenario)
    sig.bind("in.json", "out.json", emit_bases="full", threads=1)
