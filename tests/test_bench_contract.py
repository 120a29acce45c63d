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
import sys
from pathlib import Path

import vncat.cli

BENCH = Path(__file__).resolve().parents[1] / "bench"
SPANS = BENCH / "spans.py"


def load_bench(stem):
    """``bench/<stem>.py`` as a module, registered so that its dataclasses resolve."""
    name = f"bench_{stem}"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, BENCH / f"{stem}.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return sys.modules[name]


def load_spans():
    return load_bench("spans")


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


def test_run_scenario_accepts_every_benchmark_emit_mode():
    # run_scenario exits 2 on an emit_bases it does not know, which would
    # fail every run of the workload that asks for it
    workloads = load_bench("workloads")
    modes = {c.emit_bases for w in workloads.WORKLOADS for c in workloads.generate(w, 101, limit=1)}
    assert modes and all(vncat.cli._valid_emit(m) for m in modes)


def test_every_import_kept_for_the_benchmark_is_wrapped():
    # an import kept only so that bench/spans.py can wrap it must name a
    # (module, attribute) pair of WRAPS; once the wrapping goes, it is dead
    wrapped = {(mod, attr) for mod, attr, _ in load_spans().WRAPS}
    marker = "# noqa: F401  (wrapped by bench/spans.py)"
    kept = []
    for path in sorted((SPANS.parents[1] / "src" / "vncat").glob("*.py")):
        for line in path.read_text(encoding="utf-8").splitlines():
            if line.endswith(marker):
                names = line.split(" import ", 1)[1].split("#")[0]
                kept += [(f"vncat.{path.stem}", n.strip()) for n in names.split(",")]
    assert kept
    assert [pair for pair in kept if pair not in wrapped] == []
