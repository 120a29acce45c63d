"""Self-test of the benchmark on a tiny instance of every workload.

    python3 bench/selftest.py

For each workload, on its first template only, it checks that:

- the same seed writes the same scenario files, and another seed other ones;
- the run is correct: every report matches its frozen reference;
- count metrics repeat exactly between two traced runs of one seed;
- every metric of BENCHMARK.json is printed with its unit, and no other;
- a traced run puts back every name it wrapped.

Exits 0 and prints ``selftest ok`` when all hold.
"""

from __future__ import annotations

import importlib
import json
import sys
import tempfile
from pathlib import Path

import run  # first: fixes the BLAS thread count before numpy loads
import spans
import workloads

SEED = 3
TINY = 1  # templates per workload


def check(cond, message: str):
    if not cond:
        raise SystemExit(f"selftest FAILED: {message}")


def printed(result: dict) -> dict:
    """Metric name -> unit, read back from the printed lines."""
    lines = run.render(result)
    final = json.loads(lines[-1])
    check(set(final) == {"correct", "attempted", "failed", "metrics"}, "result keys")
    for name, m in final["metrics"].items():
        check(any(line.startswith(f"{name} ") and line.split()[2] == m["unit"]
                  for line in lines[:-1]), f"{name} not printed with its unit")
    return {name: m["unit"] for name, m in final["metrics"].items()}


def wrapped_names() -> dict:
    return {(m, a): getattr(importlib.import_module(m), a) for m, a, _ in spans.WRAPS}


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    want_e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    want_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    counts = [n for n, u in want_layer.items() if u != "s" and n != "trace.overhead_ratio"]

    run.import_vncat()
    before = wrapped_names()
    with spans.instrument(spans.Tracer()):
        during = wrapped_names()
    after = wrapped_names()
    check(all(during[k] is not before[k] for k in before), "a name was not wrapped")
    check(all(after[k] is before[k] for k in before), "a wrapped name was not restored")

    for workload in workloads.WORKLOADS:
        with tempfile.TemporaryDirectory() as tmp:
            a = workloads.write_cases(workloads.generate(workload, SEED, TINY), Path(tmp, "a"))
            b = workloads.write_cases(workloads.generate(workload, SEED, TINY), Path(tmp, "b"))
            c = workloads.write_cases(workloads.generate(workload, SEED + 1, TINY), Path(tmp, "c"))
            check([p.read_bytes() for p in a] == [p.read_bytes() for p in b],
                  f"{workload}: same seed, different scenarios")
            check([p.read_bytes() for p in a] != [p.read_bytes() for p in c],
                  f"{workload}: another seed, same scenarios")

        plain = run.measure(workload, SEED, 0, trace=False, limit=TINY)
        check(plain["correct"] and plain["failed"] == 0, f"{workload}: untraced run incorrect")
        check(printed(plain) == want_e2e, f"{workload}: end-to-end metrics differ from BENCHMARK.json")

        first = run.measure(workload, SEED, 0, trace=True, limit=TINY)
        second = run.measure(workload, SEED, 0, trace=True, limit=TINY)
        for result in (first, second):
            check(result["correct"] and result["failed"] == 0, f"{workload}: traced run incorrect")
            check(printed(result) == want_layer, f"{workload}: per-layer metrics differ from BENCHMARK.json")
        for name in counts:
            x, y = first["metrics"][name]["value"], second["metrics"][name]["value"]
            check(x == y, f"{workload}: {name} did not repeat ({x} vs {y})")
        print(f"{workload}: ok", flush=True)
    print("selftest ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
