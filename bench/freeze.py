"""Freeze the reduced reference reports in ``references.json``.

    python3 bench/freeze.py

Runs every template of every workload under two seeds, and the golden
scenarios, through the vncat in ``src/``, and writes their reduced reports
(exit status, verdicts, hom dims, violation counts).  A template whose
reduction differs between the seeds is an error: its answer would depend
on the seed, and no frozen reference could check it.

The references are the contract later kernel changes are checked against.
Re-freezing after such a change would hide exactly the differences the
benchmark exists to catch.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import run  # noqa: F401  (fixes the BLAS thread count before numpy loads)
import verify
import workloads

FREEZE_SEEDS = (0, 1)


def reduced(cli, path: Path, out: Path, emit: str) -> dict:
    code = run.run_one(cli, path, out, emit)
    report = json.loads(out.read_text(encoding="utf-8")) if code in (0, 1) else None
    return verify.reduce_report(code, report)


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    cli = run.import_vncat()
    refs: dict = {}
    with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
        tmp = Path(tmp)
        for workload in workloads.WORKLOADS:
            per_seed = []
            for seed in FREEZE_SEEDS:
                cases = workloads.generate(workload, seed)
                paths = workloads.write_cases(cases, tmp / f"{workload}-{seed}")
                per_seed.append({
                    c.sid: reduced(cli, p, tmp / f"out-{p.name}", c.emit_bases)
                    for c, p in zip(cases, paths)
                })
            for sid, red in per_seed[0].items():
                if per_seed[1][sid] != red:
                    print(f"{sid}: reduction depends on the seed", file=sys.stderr)
                    return 1
                print(sid, json.dumps(red)[:160])
            refs.update(per_seed[0])
        for path in sorted(run.GOLDENS.glob("*.json")):
            sid = f"goldens/{path.stem}"
            refs[sid] = reduced(cli, path, tmp / f"golden-{path.name}", "dims")
            print(sid, json.dumps(refs[sid])[:160])
    verify.REFERENCES.write_text(json.dumps(refs, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
