"""Scenario files: JSON descriptions of a context, generators, and commands.

A scenario is a single JSON object.  Complex numbers are encoded as
``[re, im]`` pairs (bare reals are accepted on input and normalized), and
matrices as row-major nested lists.  ``parse_scenario`` validates the whole
document and raises ScenarioError with a path like ``generators[2].matrix``
pointing at the offending field, also when a command would cost more than
2**26 complex entries (``_cost_table``); ``load_scenario`` raises it at
``$`` for a file it cannot read, decode or parse.  ``Scenario.normalized``
is the canonical dict echoed into reports, written section by section as
each is validated, and a fixed point: parsing it gives it back.  This
module writes no report text; the echoed matrices are ``[re, im]`` lists
from ``_matrix_json``.

The generator matrices, the rep matrices and the net's cones are checked
whole-array: one set of types and of lengths per nesting level, then one
``np.array`` per matrix section for the values and their finiteness.  The
cones' constructors check causal order and the lattice bounds, and
duplicate cones show in the size of the cone dict.  Only a section that
fails is walked entry by entry or cone by cone, and that walk raises the
error with its path, so every message and its precedence is the walk's.

Top-level keys:
  schema (must be 1), hdim, tol?, dagger_close?, objects, universe?,
  generators?, group?, rep?, net?, commands.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass
from itertools import chain, repeat

import numpy as np

from .category import Arrow, Context, Obj
from .causal import CausalNet, DoubleCone, LatticeBounds
from .commutant import ObjectUniverse
from .crossed import FiniteGroup, UnitaryRep
from .linalg import is_integer

__all__ = ["ScenarioError", "Scenario", "parse_scenario", "load_scenario", "COMMANDS"]

COMMANDS = (
    "centre",
    "commutant",
    "double-commutant",
    "vn-check",
    "endo-algebra",
    "cstar-check",
    "crossed-product",
    "covariance",
    "causality",
)

_NEEDS_GENERATORS = {"cstar-check", "covariance"}
_NEEDS_REP = {"crossed-product", "covariance"}
_NEEDS_NET = {"causality"}
_MAX_ENTRIES = 2**26  # what one command may cost, in complex entries: 1 GiB


class ScenarioError(ValueError):
    """Validation failure; ``path`` anchors the offending field."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


@dataclass
class Scenario:
    ctx: Context
    tol: float | None
    dagger_close: bool
    universe: ObjectUniverse
    generators: list[Arrow]
    group: FiniteGroup | None
    rep: UnitaryRep | None
    net: CausalNet | None
    commands: list[str]
    normalized: dict


def load_scenario(path: str, emit_bases: str = "full") -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as e:
        raise ScenarioError("$", f"cannot read scenario file: {e}") from None
    except (ValueError, RecursionError) as e:  # not JSON, not UTF-8 or nested too deeply
        raise ScenarioError("$", f"not valid JSON: {e}") from None
    return parse_scenario(doc, emit_bases)


def _expect(cond: bool, path: str, message: str):
    if not cond:
        raise ScenarioError(path, message)


def _built(path: str, make, *args):
    """``make(*args)``, with its ValueError raised as a ScenarioError at ``path``."""
    try:
        return make(*args)
    except ValueError as e:
        raise ScenarioError(path, str(e)) from None


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _valid_tol(tol) -> bool:
    """Whether a tolerance, taken as a float, lies strictly between 0 and 1, which NaN does not."""
    try:
        return 0 < float(tol) < 1
    except (TypeError, ValueError, OverflowError):
        return False


def _get_int(doc, key, path, minimum=None):
    v = doc.get(key)
    _expect(is_integer(v), f"{path}.{key}", "must be an integer")
    v = operator.index(v)
    if minimum is not None:
        _expect(v >= minimum, f"{path}.{key}", f"must be >= {minimum}")
    return v


def _int_pair(v, path, message) -> list:
    _expect(isinstance(v, list) and len(v) == 2 and all(map(is_integer, v)), path, message)
    return list(map(operator.index, v))


def _parse_entry(v, path) -> complex:
    re_im = v if isinstance(v, list) and len(v) == 2 else [v, 0.0]
    if not all(map(_is_number, re_im)):
        raise ScenarioError(path, "matrix entries must be numbers or [re, im] pairs")
    try:
        return complex(float(re_im[0]), float(re_im[1]))
    except OverflowError:  # an integer past the float range: not finite
        return complex(np.inf)


def _walk_matrix(v, rows, cols, path) -> np.ndarray:
    """One matrix, entry by entry: the first bad field raises with its own path."""
    _expect(isinstance(v, list) and len(v) == rows, path, f"must be a list of {rows} rows")
    for i, row in enumerate(v):
        _expect(
            isinstance(row, list) and len(row) == cols,
            f"{path}[{i}]",
            f"must be a list of {cols} entries",
        )
    out = np.zeros((rows, cols), dtype=np.complex128)
    for i, row in enumerate(v):
        for j, entry in enumerate(row):
            out[i, j] = _parse_entry(entry, f"{path}[{i}][{j}]")
    _expect(bool(np.isfinite(out).all()), path, "matrix entries must be finite")
    return out


def _bulk_matrices(raws: list, shapes: list) -> list | None:
    """The matrices ``raws`` of the ``(rows, cols)`` ``shapes``, or None if any field is bad.

    Each level's types and lengths are checked as one set, and all number
    parts convert in one ``np.array``, so it accepts what ``_walk_matrix``
    accepts, with the same values (``-0.0`` kept); subclasses of list, int
    and float it leaves to the walk.
    """
    if not set(map(type, raws)) <= {list} or list(map(len, raws)) != [r for r, _ in shapes]:
        return None
    lines = list(chain.from_iterable(raws))
    widths = [c for r, c in shapes for _ in range(r)]
    if not set(map(type, lines)) <= {list} or list(map(len, lines)) != widths:
        return None
    pairs = [v if type(v) is list else [v, 0.0] for v in chain.from_iterable(lines)]
    parts = list(chain.from_iterable(pairs))
    if set(map(len, pairs)) - {2} or not set(map(type, parts)) <= {int, float}:
        return None
    try:
        flat = np.array(parts, dtype=np.float64).view(np.complex128)  # float() of each part
    except OverflowError:  # an integer past the float range: not finite
        return None
    if not np.isfinite(flat).all():
        return None
    at = np.cumsum([0] + [r * c for r, c in shapes]).tolist()
    return [flat[a:b].reshape(shape) for a, b, shape in zip(at, at[1:], shapes)]


def _parse_matrices(raws: list, shapes: list, paths: list) -> list:
    """The matrices ``raws`` of the ``(rows, cols)`` ``shapes``, found at ``paths``.

    The walk runs only when the whole-array check rejects the section, and
    then raises at the first bad field, with its path.
    """
    mats = _bulk_matrices(raws, shapes)
    if mats is None:
        mats = [_walk_matrix(v, r, c, p) for v, (r, c), p in zip(raws, shapes, paths)]
    return mats


def _walk_net(raw_cones: list, bounds: LatticeBounds, ctx: Context, generators: dict):
    """The net and its cones' echo, cone by cone: the first bad field raises with its path.

    Every per-cone check precedes the net's bounds check (at ``$.net``).
    """
    assignments = {}
    cones = []
    for i, c in enumerate(raw_cones):
        p = f"$.net.cones[{i}]"
        _expect(isinstance(c, dict), p, "must be an object")
        lo = _int_pair(c.get("lo"), f"{p}.lo", "must be [t, x] integers")
        hi = _int_pair(c.get("hi"), f"{p}.hi", "must be [t, x] integers")
        cone = _built(p, DoubleCone, lo, hi)
        _expect(cone not in assignments, p, "duplicate cone")
        cone_gens = c.get("generators", [])
        _expect(isinstance(cone_gens, list), f"{p}.generators", "must be a list of generator names")
        for j, gname in enumerate(cone_gens):
            _expect(
                isinstance(gname, str) and gname in generators,
                f"{p}.generators[{j}]",
                f"unknown generator name {gname!r}",
            )
        assignments[cone] = tuple(generators[gname] for gname in cone_gens)
        cones.append({"lo": list(lo), "hi": list(hi), "generators": list(cone_gens)})
    return _built("$.net", CausalNet, bounds, ctx, assignments), cones


def _bulk_net(raw_cones: list, bounds: LatticeBounds, ctx: Context, generators: dict):
    """What ``_walk_net`` gives, or None if any cone fails a check.

    The cones' field types and lengths are checked as one set per level;
    the constructors then check causal order and the lattice bounds, and
    the cone dict's size reveals duplicates.  Subclasses of dict, list, int
    and str are left to the walk.
    """
    if not set(map(type, raw_cones)) <= {dict}:
        return None
    los, his = (list(map(dict.get, raw_cones, repeat(key))) for key in ("lo", "hi"))
    names = list(map(dict.get, raw_cones, repeat("generators"), repeat([])))
    ends = los + his
    if not (set(map(type, ends)) | set(map(type, names)) <= {list} and set(map(len, ends)) <= {2}):
        return None
    named = list(chain.from_iterable(names))
    if not (set(map(type, named)) <= {str} and generators.keys() >= set(named)):
        return None
    if not set(map(type, chain.from_iterable(ends))) <= {int}:
        return None
    try:
        keys = list(zip(map(tuple, los), map(tuple, his)))  # CausalNet makes each a cone
        assignments = dict(zip(keys, [tuple(map(generators.__getitem__, ns)) for ns in names]))
        if len(assignments) < len(keys):  # a duplicate cone
            return None
        net = CausalNet(bounds, ctx, assignments)
    except ValueError:
        return None
    echo = [{"lo": a[:], "hi": b[:], "generators": ns[:]} for a, b, ns in zip(los, his, names)]
    return net, echo


def _matrix_json(m: np.ndarray) -> list:
    m = np.asarray(m, dtype=np.complex128)
    return np.stack([m.real, m.imag], axis=-1).tolist()


def _cost_table(h: int, universe: dict, objects: dict, shapes: list, order: int, cones: int, full: bool):
    """Each command's cost terms: (JSON path, complex entries, the message that rejects it).

    ``universe`` maps names to the universe's objects, ``objects`` to all of
    them in document order.  A term is what the command holds, or n**3 // 16
    for each n x n SVD or QR it runs.  A row lists its terms from the fewest
    sizes they grow with to the most, so the first past ``_MAX_ENTRIES``
    names the field to blame.
    """
    widest = max(universe.values(), key=lambda o: o.dim)
    obj = f"$.objects[{list(objects).index(widest.name)}].dim"
    n = widest.dim * max(map(max, shapes), default=0)  # the widest whisker's side
    homs = sum(o.dim**2 for o in universe.values()) ** 2  # every hom's entries per factor entry
    stacks = homs * h**4  # every hom's basis stack, for a factor of up to h^2 matrices
    text = 32 * full  # bounds the text a stack writes, 32 entries' bytes per entry; no dense copy is held
    held = max(1, text)  # a stack the command holds, written out or not
    products = order**3 * h**4  # the crossed product's |G| dim B <= |G| h^2 products, of side h |G|
    over = f"needs over {_MAX_ENTRIES} complex entries (1 GiB)"
    whiskered = f"cstar-check whiskers a generator into a {n} x {n} matrix, past the size budget"
    paired = f"{cones} cones make over {_MAX_ENTRIES // 32} cone pairs"
    # a hidden solve's QR chunk: at least 2**16 entries, and h^3 + h^2 by h^2 from four h^5 stacks
    chunk = max(4 * h**5, h**7 // 16, 2**16)
    solve = [("$.hdim", chunk, over)]
    return {
        # its factor is C 1; first the unit arrow's h x h temporaries and two
        # SVDs at most, its defect's and, if the bounds leave it open, its norm's
        "centre": [("$.hdim", max(h**3 // 8, 8 * h**2), over), (obj, held * homs * h**2, over)],
        "commutant": solve + [(obj, text * stacks, over)],
        "double-commutant": solve + [(obj, text * stacks, over)],
        "vn-check": solve,
        "endo-algebra": [("$.hdim", max(chunk, text * h**4), over)],
        "cstar-check": [(obj, sum((widest.dim * max(s)) ** 3 for s in shapes) // 16, whiskered)],
        "crossed-product": solve
        + [("$.group", held * products, over), (obj, text * order**3 * stacks, over)],
        "covariance": [("$.group", sum(order * (order * max(s)) ** 3 for s in shapes) // 16, over)],
        # 32 per cone pair (kernels, violation tuple); an interchange SVD of side m m' / h per generator pair
        "causality": [
            ("$.net.cones", 32 * (cones * (cones - 1) // 2), paired),
            ("$.generators", sum(max(s) ** 3 for s in shapes) ** 2 // (16 * h**3), over),
        ],
    }


def parse_scenario(doc, emit_bases: str = "full") -> Scenario:
    """Validate, build and echo each section of ``doc`` in one pass, then charge its commands."""
    _expect(isinstance(doc, dict), "$", "scenario must be a JSON object")
    _expect(is_integer(doc.get("schema")) and doc["schema"] == 1, "$.schema", "must be the integer 1")
    hdim = _get_int(doc, "hdim", "$", minimum=1)
    ctx = Context(hdim)
    normalized = {"schema": 1, "hdim": hdim}

    tol = doc.get("tol")
    if tol is not None:
        # checked first: float() overflows on an integer past the float range
        _expect(_is_number(tol) and _valid_tol(tol), "$.tol", "must be a number strictly between 0 and 1")
        tol = normalized["tol"] = float(tol)

    dagger_close = doc.get("dagger_close", False)
    _expect(isinstance(dagger_close, bool), "$.dagger_close", "must be a boolean")
    if dagger_close:
        normalized["dagger_close"] = True

    # objects
    raw_objects = doc.get("objects")
    _expect(
        isinstance(raw_objects, list) and raw_objects, "$.objects", "must be a non-empty list"
    )
    by_name: dict[str, Obj] = {}
    for i, o in enumerate(raw_objects):
        p = f"$.objects[{i}]"
        _expect(isinstance(o, dict), p, "must be an object with name and dim")
        name = o.get("name")
        _expect(isinstance(name, str) and name, f"{p}.name", "must be a non-empty string")
        _expect(name not in by_name, f"{p}.name", f"duplicate object name {name!r}")
        by_name[name] = Obj(name, _get_int(o, "dim", p, minimum=1))

    # universe (defaults to all objects, in order); a unit is appended if absent
    raw_universe = doc.get("universe", list(by_name))
    _expect(isinstance(raw_universe, list) and raw_universe, "$.universe", "must be a non-empty list")
    uni_objs: dict[str, Obj] = {}
    for i, name in enumerate(raw_universe):
        p = f"$.universe[{i}]"
        _expect(isinstance(name, str), p, "must be an object name")
        _expect(name in by_name, p, f"unknown object name {name!r}")
        _expect(name not in uni_objs, p, f"duplicate universe entry {name!r}")
        uni_objs[name] = by_name[name]
    if not any(o.dim == 1 for o in uni_objs.values()):
        unit = next((o for o in by_name.values() if o.dim == 1), None)
        if unit is None:
            _expect("I" not in by_name, "$.objects", "object 'I' must have dim 1 to serve as the unit")
            unit = by_name["I"] = Obj("I", 1)
        uni_objs[unit.name] = unit
    universe = ObjectUniverse(tuple(uni_objs.values()), ctx)
    normalized["objects"] = [{"name": o.name, "dim": o.dim} for o in by_name.values()]
    normalized["universe"] = list(uni_objs)

    # generators: each one's fields in turn, then every matrix at once
    raw_gens = doc.get("generators", [])
    _expect(isinstance(raw_gens, list), "$.generators", "must be a list")
    heads, shapes, paths = {}, [], []  # name -> (dom, cod); each matrix's (rows, cols) and path
    try:
        for i, g in enumerate(raw_gens):
            p = f"$.generators[{i}]"
            _expect(isinstance(g, dict), p, "must be an object")
            gname = g.get("name", f"g{i}")
            _expect(isinstance(gname, str) and gname, f"{p}.name", "must be a non-empty string")
            _expect(gname not in heads, f"{p}.name", f"duplicate generator name {gname!r}")
            for key in ("dom", "cod"):
                _expect(isinstance(g.get(key), str), f"{p}.{key}", "must be an object name")
                _expect(g[key] in by_name, f"{p}.{key}", f"unknown object name {g[key]!r}")
            heads[gname] = dom, cod = by_name[g["dom"]], by_name[g["cod"]]
            shapes.append((cod.dim * hdim, dom.dim * hdim))
            paths.append(f"{p}.matrix")
    except ScenarioError:
        # a bad matrix of an earlier generator is named first
        _parse_matrices([g.get("matrix") for g in raw_gens[: len(paths)]], shapes, paths)
        raise
    mats = _parse_matrices([g.get("matrix") for g in raw_gens], shapes, paths)
    generators: dict[str, Arrow] = {}
    normalized["generators"] = []
    for (gname, (dom, cod)), mat in zip(heads.items(), mats):
        generators[gname] = Arrow(dom, cod, ctx, mat)
        normalized["generators"].append(
            {"name": gname, "dom": dom.name, "cod": cod.name, "matrix": _matrix_json(mat)}
        )

    # group and representation
    group = None
    raw_group = doc.get("group")
    if raw_group is not None:
        _expect(isinstance(raw_group, dict), "$.group", "must be an object")
        elements = raw_group.get("elements")
        _expect(
            isinstance(elements, list)
            and elements
            and all(isinstance(e, str) and e for e in elements),
            "$.group.elements",
            "must be a non-empty list of non-empty strings",
        )
        table = raw_group.get("table")
        n = len(elements)
        _expect(
            isinstance(table, list)
            and len(table) == n
            and all(isinstance(r, list) and len(r) == n for r in table)
            # the entry types as one set, entry by entry only past exact ints
            and (set(map(type, chain(*table))) <= {int} or all(map(is_integer, chain(*table)))),
            "$.group.table",
            f"must be a {n} x {n} table of element indices",
        )
        group = _built("$.group", FiniteGroup, tuple(elements), tuple(tuple(r) for r in table))
        normalized["group"] = {
            "elements": list(group.elements),
            "table": [list(r) for r in group.table],
        }

    raw_rep = doc.get("rep")
    if raw_rep is not None:
        _expect(group is not None, "$.rep", "requires a group section")
        _expect(
            isinstance(raw_rep, list) and len(raw_rep) == group.order,
            "$.rep",
            "must list one matrix per group element, in element order",
        )
        paths = [f"$.rep[{i}]" for i in range(len(raw_rep))]
        rep_mats = _parse_matrices(raw_rep, [(hdim, hdim)] * len(paths), paths)
        normalized["rep"] = _matrix_json(rep_mats)

    # causal net
    net = None
    raw_net = doc.get("net")
    if raw_net is not None:
        _expect(isinstance(raw_net, dict), "$.net", "must be an object")
        rb = raw_net.get("bounds")
        _expect(isinstance(rb, dict), "$.net.bounds", "must be an object with t and x ranges")
        spans = {}
        for axis in ("t", "x"):
            p = f"$.net.bounds.{axis}"
            spans[axis] = _int_pair(rb.get(axis), p, "must be [lo, hi] integers")
            _expect(spans[axis][0] <= spans[axis][1], p, "lo must not exceed hi")
        raw_cones = raw_net.get("cones")
        _expect(isinstance(raw_cones, list), "$.net.cones", "must be a list")
        bounds = LatticeBounds(*spans["t"], *spans["x"])
        net, cones = _bulk_net(raw_cones, bounds, ctx, generators) or _walk_net(
            raw_cones, bounds, ctx, generators
        )
        normalized["net"] = {"bounds": {axis: list(v) for axis, v in spans.items()}, "cones": cones}

    # commands
    raw_commands = doc.get("commands")
    _expect(
        isinstance(raw_commands, list) and raw_commands,
        "$.commands",
        "must be a non-empty list",
    )
    listed = set()  # a command's entry is deterministic, so a repeat would only run it again
    for i, cmd in enumerate(raw_commands):
        p = f"$.commands[{i}]"
        _expect(isinstance(cmd, str), p, "must be a command name")
        _expect(cmd in COMMANDS, p, f"unknown command {cmd!r}; known: {', '.join(COMMANDS)}")
        _expect(cmd not in listed, p, f"duplicate command {cmd!r}")
        listed.add(cmd)
        if cmd in _NEEDS_GENERATORS:
            _expect(bool(generators), p, f"command {cmd!r} needs a non-empty generators section")
        if cmd in _NEEDS_REP:
            _expect(raw_rep is not None, p, f"command {cmd!r} needs group and rep sections")
        if cmd in _NEEDS_NET:
            _expect(net is not None, p, f"command {cmd!r} needs a net section")
    normalized["commands"] = list(raw_commands)

    order, cones = group.order if group else 1, len(net.assignments) if net else 0
    costs = _cost_table(hdim, uni_objs, by_name, shapes, order, cones, emit_bases == "full")
    for cmd in raw_commands:
        for path, entries, message in costs[cmd]:
            _expect(entries <= _MAX_ENTRIES, path, message)

    # after the charges, as the homomorphism law alone takes |G|^2 products
    rep = None if raw_rep is None else _built("$.rep", UnitaryRep, group, tuple(rep_mats))

    return Scenario(
        ctx=ctx,
        tol=tol,
        dagger_close=dagger_close,
        universe=universe,
        generators=list(generators.values()),
        group=group,
        rep=rep,
        net=net,
        commands=list(raw_commands),
        normalized=normalized,
    )
