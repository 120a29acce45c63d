"""Scenario runner.

Reads a scenario JSON file, runs its commands in order, and writes one JSON
report.  Exit status: 0 when every command passes, 1 when any fails, 2 on
a bad tol or emit_bases, on scenario validation or parse errors (a command
past its cost under this emit_bases among them) and when the report cannot
be written.
A report file is written over in place, not truncated first, then cut to the
length written; a failed write leaves it empty.  Until the cut, the old
report's last byte is NUL, so a run killed mid-write leaves text that does
not parse, never new text on a stale tail.  Devices and pipes are never cut.
Reports are deterministic byte for byte given the same scenario and flags;
wall-clock timings appear only behind --timings, as they would break that.

A report is laid out exactly as ``json.dumps(report, indent=2)`` lays it
out, by ``_encode``: one walk of the report that gives every value the
stdlib encoder's text, and the one owner of that layout.  It takes a
report's own value types (exact str, int, float, bool and None, lists,
str-keyed dicts and three holders) and raises TypeError on anything else.
The holders take their layout from it, as the text of a small skeleton
split at its holes (``_layout``): a net's echoed cone list and a causality
entry's isotony violations (``_RecordList``) and each echoed generator
matrix and rep stack (``_ListEcho``), each filled in by one format call,
and each basis stack of ``--emit-bases full``
(``MatrixJson``), rendered from the factor A of its hom M_{dD x dB} (x) A.
Each is written at its place, never joined into the rest of the report.
The writer emits ASCII bytes to a binary handle.  A's rows are formatted
once per report; each row of the stack is a zero prefix, A's row and a zero
suffix, each block row of zeros one shared piece, and whole matrices are
joined per write until they reach ``_CHUNK`` rows.  So no dense stack is
built, and past A's row texts (a dense stack's own) the writer holds one
chunk: a ``full`` run's memory grows with its factors, not its report text.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import math
import os
import stat
import sys
import time
from itertools import chain, product
from json.encoder import encode_basestring_ascii

import numpy as np

from .category import Arrow, central_defect, cstar_arrow_residuals, cstar_submult, identity_arrow
from .commutant import FinPremonCat, HiddenAlgebra, _tensor_view, _vn_report
from .commutant import span_category
from .commutant import commutant, double_commutant, is_von_neumann  # noqa: F401  (wrapped by bench/spans.py)
from .commutant import endo_algebra  # noqa: F401  (wrapped by bench/spans.py)
from .causal import check_causality, check_isotony
from .crossed import CrossedContext, covariance_residuals, crossed_product
from .crossed import covariance_residual  # noqa: F401  (wrapped by bench/spans.py)
from .linalg import within
from .scenario import Scenario, ScenarioError, _valid_tol, load_scenario

__all__ = ["main", "run_scenario"]

_DEFAULT_TOL = 1e-9
_CHUNK = 128  # basis-stack rows per write, in whole matrices: about 0.2 MB of an hdim-7 stack
_EMIT_BASES = ("none", "dims", "full")


def _valid_emit(emit) -> bool:
    """Whether ``emit`` is one of the report detail levels of ``_EMIT_BASES``."""
    return isinstance(emit, str) and emit in _EMIT_BASES


def _attach_cat(entry: dict, cat: FinPremonCat, emit: str) -> dict:
    if emit in ("dims", "full"):
        entry["dims"] = [{"dom": d.name, "cod": c.name, "dim": n} for d, c, n in cat.dims()]
    if emit == "full":
        entry["bases"], rows = [], {}  # the row texts of the one factor of _tensor_view's homs
        for d, c in cat.universe.pairs():  # a computed hom from its factor, a dense one whole
            f = cat.homs[(d, c)]
            stack = MatrixJson(f.mats) if f.factor is None else MatrixJson(f.factor, (c.dim, d.dim), rows)
            entry["bases"].append({"dom": d.name, "cod": c.name, "matrices": stack})
    return entry


def _cmd_centre(sc: Scenario, tol: float, emit: str, hidden: HiddenAlgebra) -> dict:
    # the commutant of End(H)'s off-diagonal matrix units (pair_swap_family's
    # blocks) is C 1_H at every h: s E_ij = E_ij s forces s_ii = s_jj and
    # every other entry of rows and columns i, j to 0.  Each arrow E_pq (x) a
    # has the defect and norm of a, so the unit endo-arrow a decides them all.
    h, unit = sc.ctx.hdim, sc.universe.unit
    cat = _tensor_view(sc.universe, np.eye(h, dtype=np.complex128)[None] / np.sqrt(h))
    a = Arrow(unit, unit, sc.ctx, cat.homs[(unit, unit)].factor[0])
    defect = central_defect(a)
    entry = {"command": "centre", "pass": bool(within(defect, a.norm, tol)), "max_factor_defect": defect}
    return _attach_cat(entry, cat, emit)


def _cmd_commutant(sc: Scenario, tol: float, emit: str, hidden: HiddenAlgebra) -> dict:
    cat = _tensor_view(sc.universe, hidden.checked(sc.dagger_close).commutant)
    return _attach_cat({"command": "commutant", "pass": True}, cat, emit)


def _cmd_double_commutant(sc: Scenario, tol: float, emit: str, hidden: HiddenAlgebra) -> dict:
    cat = _tensor_view(sc.universe, hidden.checked(sc.dagger_close).bicommutant)
    return _attach_cat({"command": "double-commutant", "pass": True}, cat, emit)


def _cmd_vn_check(sc: Scenario, tol: float, emit: str, hidden: HiddenAlgebra) -> dict:
    # the span category's closure is M (x) S'' of the run's always star-closed S
    cat = span_category(sc.generators, sc.universe, tol)
    report = _vn_report(cat, hidden.bicommutant)
    entry = {
        "command": "vn-check",
        "pass": report.passed,
        "failures": [
            {"dom": d.name, "cod": c.name, "dim": a, "closure_dim": b}
            for d, c, a, b in report.failures
        ],
    }
    return _attach_cat(entry, cat, emit)


def _cmd_endo_algebra(sc: Scenario, tol: float, emit: str, hidden: HiddenAlgebra) -> dict:
    basis = hidden.checked(sc.dagger_close).bicommutant  # the unit hom M_1 (x) S''
    entry = {"command": "endo-algebra", "pass": True, "dim": len(basis)}
    if emit == "full":
        entry["basis"] = MatrixJson(basis)
    return entry


def _cmd_cstar_check(sc: Scenario, tol: float, emit: str, hidden: HiddenAlgebra) -> dict:
    gens = sc.generators
    pairs = [(s, t) for s in gens for t in gens if t.cod == s.dom]
    pairs = pairs or [(s, identity_arrow(s.dom, sc.ctx)) for s in gens]
    whisk = max(sc.universe.objects, key=lambda o: o.dim)
    # a generator's own defects, whiskers included, once for each that leads a pair
    own = [cstar_arrow_residuals(s, whisk) for s in dict.fromkeys(s for s, _ in pairs)]
    worst = {"submult": max(cstar_submult(s, t) for s, t in pairs)}
    worst.update({k: max(res[k] for res in own) for k in own[0]})

    def scale():
        norm = {f: f.norm() for f in set().union(*pairs)}
        return max(max(norm[s] * norm[t], norm[s] ** 2) for s, t in pairs)

    ok = bool(within(list(worst.values()), scale, tol).all())
    return {"command": "cstar-check", "pass": ok, "max_residuals": worst}


def _cmd_crossed_product(sc: Scenario, tol: float, emit: str, hidden: HiddenAlgebra) -> dict:
    cat = crossed_product(sc.generators, sc.rep, sc.universe, tol, auto_close=sc.dagger_close)
    unit = cat.universe.unit
    entry = {"command": "crossed-product", "pass": True, "endo_dim": cat.homs[(unit, unit)].dim}
    return _attach_cat(entry, cat, emit)


def _cmd_covariance(sc: Scenario, tol: float, emit: str, hidden: HiddenAlgebra) -> dict:
    cc = CrossedContext(sc.ctx, sc.group)
    worst = max(float(covariance_residuals(f, sc.rep, cc).max()) for f in sc.generators)
    ok = within(worst, lambda: max(f.norm() for f in sc.generators), tol)
    return {
        "command": "covariance",
        "pass": bool(ok),
        "max_residual": worst,
    }


def _cmd_causality(sc: Scenario, tol: float, emit: str, hidden: HiddenAlgebra) -> dict:
    iso = check_isotony(sc.net, tol)
    cau = check_causality(sc.net, tol)
    worst = None
    if cau.worst is not None:
        ca, cb, r = cau.worst
        worst = {"cone_a": [list(ca.lo), list(ca.hi)], "cone_b": [list(cb.lo), list(cb.hi)], "residual": r}
    return {
        "command": "causality",
        "pass": iso.passed and cau.passed,
        "isotony": {
            "pass": iso.passed,
            "violations": _violation_list(iso.violations),
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


class MatrixJson:
    """Stands in a report for ``_matrix_json`` of the stack of kron(E_db, a), (d, b) on a grid, a in a factor.

    ``factor`` is a ``(k, r, c)`` stack A and ``grid`` is (dD, dB); the
    stack's matrices run over (d, b, a) in row-major order.  A dense stack,
    or one matrix, is its own factor on the 1 x 1 grid.  ``pieces`` renders
    the stack from A alone: each of its rows is A's row between a zero
    prefix and a zero suffix, each block row of zeros one piece, all shared
    objects, and whole matrices are joined per write until they reach
    ``_CHUNK`` rows.  A's row texts are built at its first write and kept in
    ``rows`` by depth, a dict that the holders of one factor share: each
    distinct float and entry is formatted once, each row joined once.
    """

    __slots__ = ("factor", "grid", "rows")

    def __init__(self, factor, grid=(1, 1), rows=None):
        self.factor, self.grid = np.asarray(factor, dtype=np.complex128), grid
        self.rows = {} if rows is None else rows

    def pieces(self, level: int):
        """The stack's indented JSON, nested ``level`` deep, as chunks of ASCII bytes."""
        a, (dd, db) = self.factor, self.grid
        k, r, c = (a if a.ndim == 3 else a[None]).shape
        shape = (dd * db * k, dd * r, db * c)[3 - a.ndim :]
        if 0 in shape:  # no leaves: _matrix_json of the zero stack
            yield _text(np.zeros(shape).tolist(), level).encode("ascii")
            return
        # the skeleton's head, text inside an entry, separators between
        # entries (s0), rows (s1) and matrices (sk), and its tail: the text
        # where w trailing axes wrap is piece 2**(w + 1), as entry 2**w is the first such
        head, inner, *_, tail = pieces = [p.encode("ascii") for p in _layout(_stack_of, a.ndim, level)]
        s0, s1, sk = (pieces[2 ** (w + 1)] for w in (0, 1, a.ndim - 1))
        if level not in self.rows:
            # parts by bit pattern, so -0.0 and NaN payloads stay apart
            floats, part = np.unique(np.ascontiguousarray(a).view(np.uint64), return_inverse=True)
            texts = [_float_text(x).encode("ascii") for x in floats.view(np.float64).tolist()]
            words = np.array(texts, dtype=object)
            entries, leaf = np.unique(part.reshape(-1, 2) @ [len(floats), 1], return_inverse=True)
            leaves = words[entries // len(floats)] + inner + words[entries % len(floats)]
            self.rows[level] = [s0.join(row) for row in leaves[leaf].reshape(-1, c).tolist()]
        rows, zero = self.rows[level], b"0.0" + inner + b"0.0"
        # Each row of A's block is led by its separator and a zero prefix,
        # then A's row and a zero suffix, in block column b; each zero block
        # row above or below it is one shared piece.  A matrix's first row is
        # led by sk, or by the head in the first matrix, not by s1.
        zb = (s1 + s0.join([zero] * (db * c))) * r
        zk = sk + zb[len(s1) :]
        pre = [(zero + s0) * (b * c) for b in range(db)]
        bands = [[s1 + p, None, (s0 + zero) * ((db - 1 - b) * c)] * r for b, p in enumerate(pre)]
        out, lead, count = [], head, 0
        for d, b, j in product(range(dd), range(db), range(k)):
            at = len(out)
            out += [zb] * d
            out += bands[b]
            out[at + d + 1 :: 3] = rows[j * r : j * r + r]
            out += [zb] * (dd - 1 - d)
            out[at] = zk if d else lead + pre[b]
            lead, count = sk, count + dd * r
            if count >= _CHUNK:
                yield b"".join(out)
                out, count = [], 0
        yield b"".join(out + [tail])


class _RecordList:
    """Stands in a report for a list of records: a net's echoed cones or its isotony violations.

    Record i is ``skeleton(keys[i])``, its holes filled from ``args`` in
    order: ints by ``%d``, names as their ``encode_basestring_ascii`` text.
    ``pieces`` joins one layout per key into the list's frame and fills the
    whole list by one format call.
    """

    __slots__ = ("skeleton", "keys", "args")

    def __init__(self, skeleton, keys: list, args: list):
        self.skeleton, self.keys, self.args = skeleton, keys, args

    def pieces(self, level: int) -> list:
        """The list's indented JSON, nested ``level`` deep, as one piece of ASCII bytes."""
        if not self.keys:
            return [b"[]"]
        layouts = {k: _format(self.skeleton, k, level + 1) for k in set(self.keys)}
        head, sep, tail = _layout(_stack_of, 0, level)
        return [((head + sep.join(map(layouts.__getitem__, self.keys)) + tail) % tuple(self.args)).encode("ascii")]


def _cone_echo(cones: list) -> _RecordList:
    """The net's echoed cone list, of ``{"lo", "hi", "generators"}`` dicts, keyed by name count."""
    enc = encode_basestring_ascii
    args = [v for c in cones for v in (*c["lo"], *c["hi"], *map(enc, c["generators"]))]
    return _RecordList(_cone_of, [len(c["generators"]) for c in cones], args)


def _violation_list(violations: tuple) -> _RecordList:
    """``IsotonyReport.violations``: (inner cone, outer cone, dom name, cod name) tuples."""
    enc = encode_basestring_ascii
    args = [v for i, o, d, c in violations for v in (*i.lo, *i.hi, *o.lo, *o.hi, enc(d), enc(c))]
    return _RecordList(_violation_of, [0] * len(violations), args)


class _ListEcho:
    """Stands in a report for an echoed matrix or stack of them: nested lists of ``[re, im]`` floats.

    ``pieces`` fills the layout of a hole skeleton of the same shape,
    memoized per shape and depth, by one format call with each part's
    ``float.__repr__``: echoed parts are finite, so that is the stdlib's text.
    """

    __slots__ = ("lists",)

    def __init__(self, lists: list):
        self.lists = lists

    def pieces(self, level: int) -> list:
        """The lists' indented JSON, nested ``level`` deep, as one piece of ASCII bytes."""
        shape, first, parts = (), self.lists, self.lists
        while type(first) is list:
            shape += (len(first),)
            first = first[0] if first else None
        for _ in shape[1:]:
            parts = chain.from_iterable(parts)
        return [(_format(_holes, shape, level) % tuple(map(float.__repr__, parts))).encode("ascii")]


def _echo(normalized: dict) -> dict:
    """``normalized`` with each echoed matrix and the rep stack as a ``_ListEcho``, and the net's cone list as a ``_RecordList``."""
    echo = dict(normalized)
    if "generators" in echo:
        echo["generators"] = [dict(g, matrix=_ListEcho(g["matrix"])) for g in echo["generators"]]
    if "rep" in echo:
        echo["rep"] = _ListEcho(echo["rep"])
    if "net" in echo:
        echo["net"] = dict(echo["net"], cones=_cone_echo(echo["net"]["cones"]))
    return echo


def _write_report(report: dict, write) -> None:
    """Write ``json.dumps(report, indent=2) + "\\n"`` as ASCII bytes, each holder as what it stands for.

    One walk of the report collects its text in a list.  At each holder the
    text so far goes to ``write``, then the holder's own chunks, a basis
    stack's of whole matrices and about ``_CHUNK`` rows each.
    A report without holders is one call.
    """
    write((_text(report, 0, write) + "\n").encode("ascii"))


def _float_text(x: float) -> str:
    """A float's text as the stdlib encoder gives it, NaN and infinities included."""
    if x != x:
        return "NaN"
    if x == math.inf:
        return "Infinity"
    if x == -math.inf:
        return "-Infinity"
    return float.__repr__(x)


class _Hole:
    """A skeleton's leaf, written as NUL, or as SOH for an int (``_INT``): every string escapes both."""


_HOLE, _INT = _Hole(), _Hole()

# the texts of the JSON scalar types, by exact type, and of a skeleton's hole
_SCALAR_TEXT = {
    str: encode_basestring_ascii,
    type(None): lambda _: "null",
    bool: lambda b: "true" if b else "false",
    int: int.__repr__,
    float: _float_text,
    _Hole: lambda hole: "\1" if hole is _INT else "\0",
}


def _stack_of(ndim: int) -> list:
    """A 2 x ... x 2 stack, ``ndim`` axes deep, of ``[hole, hole]`` entries."""
    return [_stack_of(ndim - 1)] * 2 if ndim else [_HOLE, _HOLE]


def _cone_of(names: int) -> dict:
    """An echoed cone with ``names`` generator names: int holes, then text holes."""
    return {"lo": [_INT, _INT], "hi": [_INT, _INT], "generators": [_HOLE] * names}


def _violation_of(_) -> dict:
    """An isotony violation: its cones' int holes, then text holes."""
    return {"inner": [[_INT, _INT]] * 2, "outer": [[_INT, _INT]] * 2, "dom": _HOLE, "cod": _HOLE}


def _holes(shape: tuple):
    """Nested lists of ``shape``, every leaf a hole."""
    return [_holes(shape[1:])] * shape[0] if shape else _HOLE


@functools.lru_cache(maxsize=64)
def _format(skeleton, n, level: int) -> str:
    """The text of ``skeleton(n)`` nested ``level`` deep as a format string: ``%s`` at text holes, ``%d`` at int holes.

    Echoed shapes vary more than ranks do, so this memo is bounded.
    """
    return _text(skeleton(n), level).replace("\0", "%s").replace("\1", "%d")


@functools.cache
def _layout(skeleton, n: int, level: int) -> tuple:
    """The text of ``skeleton(n)`` nested ``level`` deep, split at its holes.

    Reports hold few ranks, name counts and depths, so the memo stays small.
    """
    return tuple(_text(skeleton(n), level).split("\0"))


def _text(value, level: int, write=None) -> str:
    """The indented JSON of ``value`` nested ``level`` deep, past what its holders wrote."""
    out: list = []
    _encode(value, level, out, write)
    return "".join(out)


def _encode(value, level: int, out: list, write) -> None:
    """Append the indented JSON of ``value``, nested ``level`` deep, to ``out``.

    A report holds the exact scalar types of ``_SCALAR_TEXT``, lists, dicts
    with str keys and the three holders, and each gets the stdlib encoder's
    text.  A holder's pieces are written straight to ``write``, after what
    ``out`` has collected so far.
    Anything else raises TypeError.
    """
    text = _SCALAR_TEXT.get(type(value))
    if text is not None:
        out.append(text(value))
    elif type(value) is list:
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
    elif type(value) is dict:
        if not value:
            out.append("{}")
            return
        nl = "\n" + "  " * (level + 1)
        prefix = "{" + nl
        for key, item in value.items():
            out.append(prefix + encode_basestring_ascii(key) + ": ")
            _encode(item, level + 1, out, write)
            prefix = "," + nl
        out.append(nl[:-2] + "}")
    elif type(value) in (MatrixJson, _RecordList, _ListEcho):
        write("".join(out).encode("ascii"))
        out.clear()
        for chunk in value.pieces(level):
            write(chunk)
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _write_over(fd: int, report: dict) -> None:
    """Write ``report`` over a file's old bytes, then cut off the rest; devices and pipes are never cut."""
    st = os.fstat(fd)
    old = st.st_size if stat.S_ISREG(st.st_mode) else None
    try:
        if old:  # the old last byte turns NUL first: until the cut, no mix of old and new text parses
            os.lseek(fd, old - 1, os.SEEK_SET)
            os.write(fd, b"\0")
            os.lseek(fd, 0, os.SEEK_SET)
        with open(fd, "wb", closefd=False) as fh:
            _write_report(report, fh.write)
    except BaseException:
        if old is not None:
            with contextlib.suppress(OSError):
                os.ftruncate(fd, 0)
        raise
    if old:
        end = os.lseek(fd, 0, os.SEEK_CUR)
        if end < old:
            os.ftruncate(fd, end)


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
    if tol is not None and not _valid_tol(tol):
        print(f"tol must be strictly between 0 and 1, not {tol!r}", file=sys.stderr)
        return 2
    if not _valid_emit(emit_bases):
        modes = ", ".join(_EMIT_BASES)
        print(f"emit_bases must be one of {modes}, not {emit_bases!r}", file=sys.stderr)
        return 2
    try:
        sc = load_scenario(input_path, emit_bases)
        effective_tol = float(next(t for t in (tol, sc.tol, _DEFAULT_TOL) if t is not None))

        # the generators' hidden algebra, shared by this run's commands alone
        hidden = HiddenAlgebra(sc.generators, sc.ctx, effective_tol)
        results = []
        for i, cmd in enumerate(sc.commands):
            start = time.perf_counter()
            try:
                entry = _RUNNERS[cmd](sc, effective_tol, emit_bases, hidden)
            except ValueError as e:
                # engine-level input rejection (e.g. generators not dagger-closed)
                raise ScenarioError(f"$.commands[{i}]", str(e)) from None
            if timings:
                entry["wall_ms"] = round((time.perf_counter() - start) * 1e3, 3)
            results.append(entry)
    except ScenarioError as e:
        print(f"scenario error: {e}", file=sys.stderr)
        return 2

    report = {
        "schema": 1,
        "tol": effective_tol,
        "scenario": _echo(sc.normalized),
        "results": results,
        "pass": all(r["pass"] for r in results),
    }
    try:
        if output_path is None:
            sys.stdout.flush()  # what was printed before goes first
            _write_report(report, sys.stdout.buffer.write)
            sys.stdout.buffer.flush()
        else:
            # no O_TRUNC: an old report's blocks are written over, not freed and allocated again
            fd = os.open(output_path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
            try:
                _write_over(fd, report)
            except BaseException:
                with contextlib.suppress(OSError):
                    os.close(fd)
                raise
            os.close(fd)
    except OSError as e:
        print(f"cannot write report: {e}", file=sys.stderr)
        return 2
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
        choices=_EMIT_BASES,
        default="dims",
        help="how much hom-space detail reports carry (default: dims)",
    )
    ap.add_argument(
        "--timings",
        action="store_true",
        help="add wall_ms per command (reports stop being byte-reproducible)",
    )
    args = ap.parse_args(argv)
    if args.tol is not None and not _valid_tol(args.tol):
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
