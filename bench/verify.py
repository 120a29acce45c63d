"""Checks of vncat reports against the frozen references.

A report is reduced to what the reference contract covers: the exit status,
and per command its verdict, hom dims, algebra dims and violation counts.
Residual values are left out, because the seed moves them while the
template fixes everything in the reduction.  Under ``--emit-bases full``
the spanned subspaces are checked too, in closed form rather than by bytes:
basis matrices may change so long as their spans do not.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

REFERENCES = Path(__file__).resolve().parent / "references.json"


def reduce_report(exit_code: int, report: dict | None) -> dict:
    """The parts of a report the frozen reference pins down."""
    out = {"exit": exit_code}
    if report is None:
        return out
    out["pass"] = report["pass"]
    results = []
    for r in report["results"]:
        red = {"command": r["command"], "pass": r["pass"]}
        if "dims" in r:
            red["dims"] = [[d["dom"], d["cod"], d["dim"]] for d in r["dims"]]
        if r["command"] == "vn-check":
            red["failures"] = [
                [f["dom"], f["cod"], f["dim"], f["closure_dim"]] for f in r["failures"]
            ]
        for key in ("dim", "endo_dim"):
            if key in r:
                red[key] = r[key]
        if r["command"] == "causality":
            red["isotony"] = [r["isotony"]["pass"], len(r["isotony"]["violations"])]
            red["causality"] = [r["causality"]["pass"], r["causality"]["violations"]]
        results.append(red)
    out["results"] = results
    return out


def load_references() -> dict:
    return json.loads(REFERENCES.read_text(encoding="utf-8"))


def _span_defects(report: dict, diagonal, tol: float) -> list[str]:
    """Where the emitted bases do not span M_{dD x dB} (x) {diag}'.

    An arrow B -> D interchanges with a diagonal unit generator exactly when
    each of its hidden blocks commutes with the diagonal, i.e. entry (i, j)
    of every block vanishes unless d_i == d_j.  A basis spans that subspace
    when it lies inside it, is orthonormal, and has its dimension.
    """
    d = np.asarray(diagonal)
    h = d.size
    allowed = np.isclose(d[:, None], d[None, :], rtol=0, atol=1e-12)
    per_block = int(allowed.sum())
    dims = {o["name"]: o["dim"] for o in report["scenario"]["objects"]}
    problems = []
    for entry in report["results"]:
        for hom in entry.get("bases", []):
            db, dd = dims[hom["dom"]], dims[hom["cod"]]
            mats = [np.array(m, dtype=float) for m in hom["matrices"]]
            where = f"{hom['dom']}->{hom['cod']}"
            if len(mats) != dd * db * per_block:
                problems.append(f"{where}: {len(mats)} basis arrows, want {dd * db * per_block}")
                continue
            vecs = np.array([(m[..., 0] + 1j * m[..., 1]).reshape(-1) for m in mats])
            blocks = vecs.reshape(len(mats), dd, h, db, h)
            leak = np.abs(blocks * ~allowed[None, None, :, None, :]).max(initial=0.0)
            gram = vecs.conj() @ vecs.T
            ortho = np.abs(gram - np.eye(len(mats))).max(initial=0.0)
            if leak > tol or ortho > 1e-8:
                problems.append(f"{where}: leaves the subspace by {leak:.2e}, gram error {ortho:.2e}")
    return problems


def check_report(exit_code: int, report_path: Path, expected: dict, case) -> list[str]:
    """Differences between one run and its reference; empty when it matches."""
    report = None
    if exit_code in (0, 1):
        report = json.loads(report_path.read_text(encoding="utf-8"))
    got = reduce_report(exit_code, report)
    problems = []
    if got != expected:
        problems.append(f"reduced report differs: got {json.dumps(got)}")
    if case.emit_bases == "full" and report is not None:
        problems += _span_defects(report, case.diagonal, 1e-7)
    return problems
