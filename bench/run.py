"""Scenario-batch benchmark for vncat.

Run from the root of a checkout:

    python3 bench/run.py --workload closure --seed 1 --seconds 16 --trace 0

The run generates the workload's scenario files from the seed, imports
vncat from ``src/`` and calls ``vncat.cli.run_scenario`` on each file in
this one process, with BLAS held to one thread.  One untimed warm-up batch
fills caches; then the batch repeats until ``--seconds`` have passed.  The
golden scenarios run after the timed part.  Every report of every batch,
goldens included, is checked against the frozen ``references.json``: each
distinct report is verified once, after the timed part, and a report
byte-identical to it shares its verdict.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced batches and prints the per-layer metrics, with spans
recorded around calls into each vncat module (see ``spans.py``) and
written to ``.bench_out/`` when the run ends.  Every metric is printed on
its own line with its unit, then the environment, then one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.

Work sizes are per batch.  Time metrics are medians over the run's batches;
``setup_s`` (import vncat, generate and write the scenarios) is the median
of repeats made before and after the timed batches.  Every end-to-end time
is scaled to a reference machine speed by the probe of ``speed.py``, which
runs before each scenario of a timed batch, outside the scenario's time; the
raw batch times and probe times are kept in the result file beside the
metrics, and the raw ``wall_s`` is printed beside the scaled one.
"""

from __future__ import annotations

import os
import sys

# fixed before numpy is first imported: with one BLAS thread the process
# computes on one core at a time, so its timings do not depend on how many
# other cores happen to be free
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import ctypes
import glob
import hashlib
import importlib
import json
import math
import platform
import resource
import shutil
import statistics
import time
import traceback
from pathlib import Path

import numpy as np

import spans
import speed
import verify
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GOLDENS = ROOT / "scenarios"
OUT = ROOT / ".bench_out"

# set-up is timed this many times before the timed batches and as many
# after them, so its median sees the same machine as the batches do
SETUP_REPEATS = 7

# name -> unit; the same names and units as BENCHMARK.json
END_TO_END = {
    "wall_s": "s",
    "scenario_s_p50": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

PER_LAYER = {
    "commutant.self_s": "s",
    "commutant.commutant_self_s": "s",
    "commutant.commutant_calls": "count",
    "commutant.hom_pairs": "count",
    "commutant.span_basis_s": "s",
    "commutant.subspace_contains_s": "s",
    "linalg.nullspace_s": "s",
    "linalg.nullspace_calls": "count",
    "linalg.svd_rows_max": "rows",
    "linalg.svd_rows_sum": "rows",
    "linalg.svd_cols_sum": "cols",
    "linalg.svd_flops_est": "flop",
    "linalg.svd_input_bytes_max": "B",
    "linalg.kernel_keep_ratio": "ratio",
    "crossed.self_s": "s",
    "crossed.pi_embed_s": "s",
    "crossed.pi_embed_calls": "count",
    "crossed.covariance_residual_s": "s",
    "crossed.group_validate_s": "s",
    "crossed.rep_validate_s": "s",
    "causal.self_s": "s",
    "causal.check_causality_self_s": "s",
    "causal.spacelike_s": "s",
    "causal.spacelike_calls": "count",
    "causal.spacelike_hit_ratio": "ratio",
    "causal.check_isotony_s": "s",
    "category.interchange_residuals_s": "s",
    "category.interchange_residuals_calls": "count",
    "scenario.load_s": "s",
    "cli.self_s": "s",
    "cli.report_bytes": "B",
    "trace.wall_s": "s",
    "trace.overhead_ratio": "ratio",
}


def import_vncat():
    """Import vncat afresh, so each set-up repeat pays the import."""
    for name in [n for n in sys.modules if n == "vncat" or n.startswith("vncat.")]:
        del sys.modules[name]
    return importlib.import_module("vncat.cli")


def setup(workload: str, seed: int, limit, directory: Path):
    """Import vncat, generate and write the scenarios, SETUP_REPEATS times."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        cli = import_vncat()
        cases = workloads.generate(workload, seed, limit)
        paths = workloads.write_cases(cases, directory)
        times.append(time.perf_counter() - start)
    return cli, cases, paths, times


def run_one(cli, path: Path, out: Path, emit_bases: str) -> int:
    """Exit status of one scenario; -1 when vncat raised instead."""
    try:
        return cli.run_scenario(str(path), str(out), emit_bases=emit_bases, threads=1)
    except Exception:
        traceback.print_exc()
        return -1


def run_batch(cli, cases, paths, reports: Path, tracer=None, probes=None):
    """Run every case once: (batch seconds, per-scenario seconds, exit codes).

    With a ``probes`` list, the speed probe runs before each case and its
    times are appended there; the batch seconds leave them out.
    """
    times, codes = [], []
    for case, path in zip(cases, paths):
        out = reports / path.name
        if probes is not None:
            probes.append(speed.probe())
        start = time.perf_counter()
        if tracer is None:
            code = run_one(cli, path, out, case.emit_bases)
        else:
            tracer.set_scenario(case.sid)
            with tracer.span(spans.ROOT):
                code = run_one(cli, path, out, case.emit_bases)
            if code in (0, 1):
                tracer.count("report_bytes", out.stat().st_size)
        times.append(time.perf_counter() - start)
        codes.append(code)
    return math.fsum(times), times, codes


class Checker:
    """Records every report and verifies each distinct one against its reference.

    Reports are byte-reproducible, so a run is hashed as it ends and only
    new contents are kept aside; verifying them after the timed part keeps
    the check's own memory out of the measured peak.
    """

    def __init__(self, references: dict, keep: Path):
        self.references = references
        self.keep = keep
        keep.mkdir(parents=True, exist_ok=True)
        self.kept: dict = {}  # (sid, exit code, sha256) -> (case, copy of the report)
        self.runs: list[tuple] = []

    def record(self, case, code: int, report: Path):
        data = report.read_bytes() if code in (0, 1) else b""
        digest = (case.sid, code, hashlib.sha256(data).hexdigest())
        if digest not in self.kept:
            copy = self.keep / f"{len(self.kept)}.json"
            copy.write_bytes(data)
            self.kept[digest] = (case, copy)
        self.runs.append(digest)

    def record_batch(self, cases, paths, codes, reports: Path):
        for case, path, code in zip(cases, paths, codes):
            self.record(case, code, reports / path.name)

    def failures(self) -> int:
        """Number of recorded runs whose report differs from its reference."""
        bad = set()
        for digest, (case, copy) in self.kept.items():
            code = digest[1]
            expected = self.references.get(case.sid)
            if expected is None:
                problems = ["no frozen reference"]
            else:
                problems = verify.check_report(code, copy, expected, case)
            for p in problems:
                print(f"FAIL {case.sid}: {p}", file=sys.stderr)
            if problems:
                bad.add(digest)
        return sum(d in bad for d in self.runs)


def run_goldens(cli, checker: Checker, reports: Path):
    """Run the golden scenarios untimed and record them for checking."""
    for path in sorted(GOLDENS.glob("*.json")):
        out = reports / f"golden-{path.name}"
        code = run_one(cli, path, out, "dims")
        checker.record(workloads.Case(f"goldens/{path.stem}", {}), code, out)


def blas_info() -> dict:
    """OpenBLAS version and the thread count it reports, when it can be found."""
    info = {"blas": "unknown", "blas_threads": "unknown"}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{deps.get('name')} {deps.get('version')}"
    except (KeyError, TypeError):
        pass
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib_path in glob.glob(str(libdir / "lib*openblas*.so*")):
        lib = ctypes.CDLL(lib_path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["blas_threads"] = fn()
                return info
    return info


def environment(svd_bytes_max: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        **blas_info(),
        "largest_svd_input_bytes": svd_bytes_max,
    }


def measure(workload: str, seed: int, seconds: float, trace: bool, limit=None) -> dict:
    """One benchmark run; returns the result with metrics, checks and environment."""
    base = OUT / f"{workload}-seed{seed}"
    reports = base / "reports"
    reports.mkdir(parents=True, exist_ok=True)
    cli, cases, paths, setup_times = setup(workload, seed, limit, base / "scenarios")
    checker = Checker(verify.load_references(), base / "verify")

    # warm-up: traced, so that every run knows the counts
    tracer = spans.Tracer()
    with spans.instrument(tracer):
        _, _, codes = run_batch(cli, cases, paths, reports, tracer)
    checker.record_batch(cases, paths, codes, reports)

    walls, traced_walls, traced_batches, scenario_times = [], [], [], []
    raw_walls, probe_means, probes = [], [], []
    deadline = time.perf_counter() + seconds
    while True:
        batch_probes = []
        wall, times, codes = run_batch(cli, cases, paths, reports, probes=batch_probes)
        probe_means.append(statistics.fmean(batch_probes))
        scale = speed.REFERENCE_S / probe_means[-1]
        raw_walls.append(wall)
        probes += batch_probes
        walls.append(wall * scale)
        scenario_times += [t * scale for t in times]
        checker.record_batch(cases, paths, codes, reports)
        if trace:
            tracer.batch += 1
            with spans.instrument(tracer):
                wall, _, codes = run_batch(cli, cases, paths, reports, tracer)
            traced_walls.append(wall)
            traced_batches.append(tracer.batch)
            checker.record_batch(cases, paths, codes, reports)
        if time.perf_counter() >= deadline:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

    run_goldens(cli, checker, reports)
    setup_times += setup(workload, seed, limit, base / "setup-again")[3]
    attempted = len(checker.runs)
    failed = checker.failures()

    if trace:
        values = spans.layer_metrics(tracer, traced_batches)
        values["trace.wall_s"] = statistics.median(traced_walls)
        values["trace.overhead_ratio"] = values["trace.wall_s"] / statistics.median(raw_walls)
        units = PER_LAYER
    else:
        values = {
            "wall_s": statistics.median(walls),
            "scenario_s_p50": statistics.median(scenario_times),
            "peak_rss_mb": peak_rss_mb,
            "setup_s": statistics.median(setup_times) * speed.REFERENCE_S / statistics.median(probes),
        }
        units = END_TO_END
    warm = spans.layer_metrics(tracer, [0])
    result = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
        "samples": {"batch_walls": walls, "raw_batch_walls": raw_walls,
                    "raw_wall_s": statistics.median(raw_walls),
                    "probe_means": probe_means, "probe_s": statistics.median(probes),
                    "setup_times": setup_times,
                    "traced_walls": traced_walls,
                    "batches": len(walls), "scenarios": len(scenario_times),
                    "traced_batches": len(traced_walls), "scenarios_per_batch": len(cases)},
        "environment": environment(warm["linalg.svd_input_bytes_max"]),
    }
    tag = f"{workload}-seed{seed}-trace{int(trace)}"
    (OUT / f"{tag}.json").write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    if trace:
        tracer.write(OUT / f"{workload}-seed{seed}-spans.json",
                     {"workload": workload, "seed": seed, "traced_batches": traced_batches})
    if result["correct"]:
        shutil.rmtree(base)  # scenarios and reports stay only when a check failed
    return result


NOTES = {
    "wall_s": "  (at reference speed; raw {raw_wall_s:.6g} s, probe {probe_s:.4g} s)",
    "scenario_s_p50": "  (median of {scenarios} samples)",
    "linalg.svd_flops_est": "  (computed from matrix shapes, not measured)",
}

# layer groups whose share of the traced batch wall time is printed
SPLITS = {
    "commutant+linalg": ("commutant.self_s", "linalg.nullspace_s"),
    "causal+category": ("causal.self_s", "category.interchange_residuals_s"),
    "crossed": ("crossed.self_s",),
    "scenario": ("scenario.load_s",),
    "cli": ("cli.self_s",),
}


def render(result: dict) -> list[str]:
    """Human-readable lines, then the one-line JSON result."""
    s = result["samples"]
    lines = [
        f"workload {result['workload']} seed {result['seed']}: "
        f"{s['scenarios_per_batch']} scenarios per batch, {s['batches']} timed batches"
        + (f", {s['traced_batches']} traced" if result["trace"] else ""),
    ]
    for name, m in result["metrics"].items():
        extra = NOTES.get(name, "").format(**s)
        lines.append(f"{name} {m['value']:.6g} {m['unit']}{extra}")
    if result["trace"]:
        m = {k: v["value"] for k, v in result["metrics"].items()}
        for label, keys in SPLITS.items():
            share = sum(m[k] for k in keys) / m["trace.wall_s"]
            lines.append(f"share {label} {share:.3f} of trace.wall_s")
    lines.append(
        f"failed_frac {result['failed'] / result['attempted']:.6g} ratio"
        f"  ({result['failed']} of {result['attempted']} scenario runs)"
    )
    lines += [f"env {k} {v}" for k, v in result["environment"].items()]
    final = {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}
    lines.append(json.dumps(final))
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "vncat" / "__init__.py").is_file():
        print(f"bench: no vncat sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(render(result)))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
