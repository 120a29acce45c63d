"""Scenario runner.

Reads a scenario JSON file, runs its commands in order, and writes a single
JSON report.  Exit status: 0 when every command passes, 1 when any command
reports failure, 2 on scenario validation or parse errors.  Reports are
deterministic byte for byte given the same scenario and flags; wall-clock
timings only appear behind --timings because they would break that.

A report is laid out exactly as ``json.dumps(report, indent=2)`` lays it
out, by one walk of the report that gives every value the stdlib encoder's
text (see ``_write_report``).  Basis matrices (``--emit-bases full``) are
the bulk of a report; each stack is rendered straight from its array, one
innermost row at a time, and written at its place and indent, never joined
into the rest of the text.  Every exact-zero row shares one rendered text,
and distinct values are sorted and formatted only among the non-zero parts.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from json.encoder import encode_basestring_ascii

from .category import central_defect, cstar_residuals, identity_arrow, pair_swap_family
from .commutant import (
    FinPremonCat,
    ObjectUniverse,
    commutant,
    double_commutant,
    endo_algebra,
    is_von_neumann,
    span_category,
)
from .causal import check_causality, check_isotony
from .crossed import CrossedContext, covariance_residuals, crossed_product
from .crossed import covariance_residual  # noqa: F401  (wrapped by bench/spans.py)
from .linalg import relative
from .scenario import MatrixJson, Scenario, ScenarioError, load_scenario

__all__ = ["main", "run_scenario"]

_DEFAULT_TOL = 1e-9


def _dims_json(cat: FinPremonCat) -> list:
    return [{"dom": d.name, "cod": c.name, "dim": n} for d, c, n in cat.dims()]


def _bases_json(cat: FinPremonCat) -> list:
    return [
        {"dom": d.name, "cod": c.name, "matrices": MatrixJson(cat.homs[(d, c)].mats)}
        for d, c in cat.universe.pairs()
    ]


def _attach_cat(entry: dict, cat: FinPremonCat, emit: str):
    if emit in ("dims", "full"):
        entry["dims"] = _dims_json(cat)
    if emit == "full":
        entry["bases"] = _bases_json(cat)


def _cmd_centre(sc: Scenario, tol: float, emit: str) -> dict:
    family = pair_swap_family(sc.ctx)
    cat = commutant(family, sc.universe, tol)
    arrows = cat.all_arrows()
    defects = [central_defect(f) for f in arrows]
    ok = all(relative(d, f.norm()) <= tol for d, f in zip(defects, arrows))
    entry = {"command": "centre", "pass": ok, "max_factor_defect": max(defects, default=0.0)}
    _attach_cat(entry, cat, emit)
    return entry


def _cmd_commutant(sc: Scenario, tol: float, emit: str) -> dict:
    cat = commutant(sc.generators, sc.universe, tol, auto_close=sc.dagger_close)
    entry = {"command": "commutant", "pass": True}
    _attach_cat(entry, cat, emit)
    return entry


def _cmd_double_commutant(sc: Scenario, tol: float, emit: str) -> dict:
    cat = double_commutant(sc.generators, sc.universe, tol, auto_close=sc.dagger_close)
    entry = {"command": "double-commutant", "pass": True}
    _attach_cat(entry, cat, emit)
    return entry


def _cmd_vn_check(sc: Scenario, tol: float, emit: str) -> dict:
    cat = span_category(sc.generators, sc.universe, tol)
    report = is_von_neumann(cat, tol)
    entry = {
        "command": "vn-check",
        "pass": report.passed,
        "failures": [
            {"dom": d.name, "cod": c.name, "dim": a, "closure_dim": b}
            for d, c, a, b in report.failures
        ],
    }
    _attach_cat(entry, cat, emit)
    return entry


def _cmd_endo_algebra(sc: Scenario, tol: float, emit: str) -> dict:
    unit_only = ObjectUniverse((sc.universe.unit,), sc.ctx)
    cat = double_commutant(sc.generators, unit_only, tol, auto_close=sc.dagger_close)
    basis = endo_algebra(cat)
    entry = {"command": "endo-algebra", "pass": True, "dim": len(basis)}
    if emit == "full":
        entry["basis"] = MatrixJson(basis)
    return entry


def _cmd_cstar_check(sc: Scenario, tol: float, emit: str) -> dict:
    gens = sc.generators
    pairs = [(s, t) for s in gens for t in gens if t.cod == s.dom]
    if not pairs:
        pairs = [(s, identity_arrow(s.dom, sc.ctx)) for s in gens]
    whisk = max(sc.universe.objects, key=lambda o: o.dim)
    keys = ("submult", "cstar_id", "whisker_left_norm", "whisker_right_norm")
    worst = {k: 0.0 for k in keys}
    scale = 0.0
    for s, t in pairs:
        res = cstar_residuals(s, t, whisk)
        for k in keys:
            worst[k] = max(worst[k], res[k])
        scale = max(scale, s.norm() * t.norm(), s.norm() ** 2)
    ok = all(relative(worst[k], scale) <= tol for k in keys)
    return {"command": "cstar-check", "pass": ok, "max_residuals": worst}


def _cmd_crossed_product(sc: Scenario, tol: float, emit: str) -> dict:
    cat = crossed_product(sc.generators, sc.rep, sc.universe, tol, auto_close=sc.dagger_close)
    entry = {
        "command": "crossed-product",
        "pass": True,
        "endo_dim": len(endo_algebra(cat)),
    }
    _attach_cat(entry, cat, emit)
    return entry


def _cmd_covariance(sc: Scenario, tol: float, emit: str) -> dict:
    cc = CrossedContext(sc.ctx, sc.group)
    worst = max(float(covariance_residuals(f, sc.rep, cc).max()) for f in sc.generators)
    scale = max(f.norm() for f in sc.generators)
    return {
        "command": "covariance",
        "pass": bool(relative(worst, scale) <= tol),
        "max_residual": worst,
    }


def _cone_json(cone) -> list:
    return [[cone.lo.t, cone.lo.x], [cone.hi.t, cone.hi.x]]


def _cmd_causality(sc: Scenario, tol: float, emit: str) -> dict:
    iso = check_isotony(sc.net, tol)
    cau = check_causality(sc.net, tol)
    worst = None
    if cau.worst is not None:
        ca, cb, r = cau.worst
        worst = {"cone_a": _cone_json(ca), "cone_b": _cone_json(cb), "residual": r}
    return {
        "command": "causality",
        "pass": iso.passed and cau.passed,
        "isotony": {
            "pass": iso.passed,
            "violations": [
                {
                    "inner": _cone_json(inner),
                    "outer": _cone_json(outer),
                    "dom": dom,
                    "cod": cod,
                }
                for inner, outer, dom, cod in iso.violations
            ],
        },
        "causality": {
            "pass": cau.passed,
            "max_residual": 0.0 if cau.worst is None else cau.worst[2],
            "worst": worst,
            "violations": len(cau.violations),
        },
    }


_RUNNERS = {
    "centre": _cmd_centre,
    "commutant": _cmd_commutant,
    "double-commutant": _cmd_double_commutant,
    "vn-check": _cmd_vn_check,
    "endo-algebra": _cmd_endo_algebra,
    "cstar-check": _cmd_cstar_check,
    "crossed-product": _cmd_crossed_product,
    "covariance": _cmd_covariance,
    "causality": _cmd_causality,
}


def _write_report(report: dict, write) -> None:
    """Write ``json.dumps(report, indent=2) + "\\n"``, MatrixJson holders as their lists.

    One walk of the report collects its text in a list.  At each holder the
    text so far goes to ``write``, then the holder's own text, so a basis
    text is never joined into the rest.
    """
    out: list = []
    _encode(report, 0, out, write)
    out.append("\n")
    write("".join(out))


def _float_text(x: float) -> str:
    """A float's text as the stdlib encoder gives it, NaN and infinities included."""
    if x != x:
        return "NaN"
    if x == math.inf:
        return "Infinity"
    if x == -math.inf:
        return "-Infinity"
    return float.__repr__(x)


# the texts of the JSON scalar types, in the stdlib encoder's order
_SCALAR_TEXT = {
    str: encode_basestring_ascii,
    type(None): lambda _: "null",
    bool: lambda b: "true" if b else "false",
    int: int.__repr__,
    float: _float_text,
}


def _encode(value, level: int, out: list, write) -> None:
    """Append the indented JSON of ``value``, nested ``level`` deep, to ``out``.

    Every value gets the stdlib encoder's text.  The exact scalar types are
    looked up first, and a subclass of one (np.float64, say), which can be
    no container, comes last and takes its first base in the stdlib's order.
    A MatrixJson holder's text (``MatrixJson.text``) is written straight to
    ``write``, after what ``out`` has collected so far.
    """
    text = _SCALAR_TEXT.get(type(value))
    if text is not None:
        out.append(text(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        nl = "\n" + "  " * (level + 1)
        sep = "," + nl
        out.append("[" + nl)
        _encode(value[0], level + 1, out, write)
        for item in value[1:]:
            out.append(sep)
            _encode(item, level + 1, out, write)
        out.append(nl[:-2] + "]")
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        nl = "\n" + "  " * (level + 1)
        prefix = "{" + nl
        for key, item in value.items():
            if type(key) is not str:
                key = _key_text(key)
            out.append(prefix + encode_basestring_ascii(key) + ": ")
            _encode(item, level + 1, out, write)
            prefix = "," + nl
        out.append(nl[:-2] + "}")
    elif isinstance(value, MatrixJson):
        write("".join(out))
        out.clear()
        write(value.text("  " * level))
    elif isinstance(value, (str, int, float)):
        out.append(_base_text(value))
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _base_text(value) -> str:
    """A JSON scalar's text, by its first base in the stdlib encoder's order."""
    return next(text for base, text in _SCALAR_TEXT.items() if isinstance(value, base))(value)


def _key_text(key) -> str:
    """A dict key as the stdlib encoder turns it into a string."""
    if isinstance(key, str):
        return key
    if key is None or isinstance(key, (int, float)):
        return _base_text(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def run_scenario(
    input_path: str,
    output_path: str | None = None,
    tol: float | None = None,
    emit_bases: str = "dims",
    threads: int = 1,
    timings: bool = False,
) -> int:
    """Run a scenario file and write the report; returns the exit status.

    ``threads`` is accepted for compatibility and has no effect.
    """
    try:
        sc = load_scenario(input_path)
        effective_tol = tol if tol is not None else (sc.tol if sc.tol is not None else _DEFAULT_TOL)

        results = []
        for cmd in sc.commands:
            start = time.perf_counter()
            try:
                entry = _RUNNERS[cmd](sc, effective_tol, emit_bases)
            except ValueError as e:
                # engine-level input rejection (e.g. generators not dagger-closed)
                raise ScenarioError(f"$.commands[{sc.commands.index(cmd)}]", str(e)) from None
            if timings:
                entry["wall_ms"] = round((time.perf_counter() - start) * 1e3, 3)
            results.append(entry)
    except ScenarioError as e:
        print(f"scenario error: {e}", file=sys.stderr)
        return 2

    report = {
        "schema": 1,
        "tol": effective_tol,
        "scenario": sc.normalized,
        "results": results,
        "pass": all(r["pass"] for r in results),
    }
    if output_path is None:
        _write_report(report, sys.stdout.write)
    else:
        with open(output_path, "w", encoding="utf-8") as fh:
            _write_report(report, fh.write)
    return 0 if report["pass"] else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="vncat",
        description="Run a scenario file through the hidden-factor category toolkit.",
    )
    ap.add_argument("--input", required=True, help="scenario JSON file")
    ap.add_argument("--output", default=None, help="report path (default: stdout)")
    ap.add_argument("--tol", type=float, default=None, help="override the scenario tolerance")
    ap.add_argument(
        "--emit-bases",
        choices=("none", "dims", "full"),
        default="dims",
        help="how much hom-space detail reports carry (default: dims)",
    )
    ap.add_argument(
        "--timings",
        action="store_true",
        help="add wall_ms per command (reports stop being byte-reproducible)",
    )
    args = ap.parse_args(argv)
    if args.tol is not None and not (0 < args.tol < 1):
        ap.error("--tol must be strictly between 0 and 1")
    return run_scenario(
        args.input,
        output_path=args.output,
        tol=args.tol,
        emit_bases=args.emit_bases,
        timings=args.timings,
    )


if __name__ == "__main__":
    sys.exit(main())
