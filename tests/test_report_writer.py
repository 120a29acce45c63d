"""Report layout: the writer's text is the stdlib's ``json.dumps(report, indent=2)``."""

import gc
import io
import json
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vncat import DoubleCone, Event, HomSubspace, parse_scenario, run_scenario
from vncat.cli import MatrixJson, _cone_echo, _ListEcho, _text, _violation_list, _write_report
from vncat.scenario import _matrix_json

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "scenarios"
GOLDENS = sorted(GOLDEN_DIR.glob("*.json"))


def assert_stdlib_layout(text):
    assert text == json.dumps(json.loads(text), indent=2) + "\n"


def place(leaf, path):
    """``leaf`` nested along ``path``: each step an array item or an object value."""
    doc = leaf
    for step in reversed(path):
        doc = [0.5, doc, "s"] if step == "item" else {"a": [], "m": doc, "z": {"k": 1}}
    return doc


def assert_matrix_text(m, path):
    out = io.BytesIO()
    _write_report(place(MatrixJson(m), path), out.write)
    assert out.getvalue() == (json.dumps(place(_matrix_json(m), path), indent=2) + "\n").encode()


def report_text(tmp_path, doc, emit):
    src = tmp_path / "scenario.json"
    src.write_text(json.dumps(doc))
    out = tmp_path / "report.json"
    assert run_scenario(str(src), str(out), emit_bases=emit) in (0, 1)
    return out.read_text(encoding="utf-8")


@pytest.mark.parametrize("emit", ["none", "dims", "full"])
@pytest.mark.parametrize("golden", GOLDENS, ids=lambda p: p.stem)
def test_golden_reports_have_stdlib_layout(tmp_path, golden, emit):
    out = tmp_path / "report.json"
    assert run_scenario(str(golden), str(out), emit_bases=emit) == 0
    assert_stdlib_layout(out.read_text(encoding="utf-8"))


def test_full_reports_have_stdlib_layout(tmp_path):
    objects = [{"name": "I", "dim": 1}, {"name": "X", "dim": 2}]
    # commutant of nothing: every hom is full
    text = report_text(tmp_path, {"schema": 1, "hdim": 2, "objects": objects, "commands": ["commutant"]}, "full")
    assert_stdlib_layout(text)
    # endo-algebra basis, and vn-check bases whose homs between I and X are empty
    doc = {
        "schema": 1,
        "hdim": 2,
        "objects": objects,
        "generators": [{"name": "z", "dom": "I", "cod": "I", "matrix": [[1, 0], [0, -1]]}],
        "commands": ["endo-algebra", "vn-check"],
    }
    text = report_text(tmp_path, doc, "full")
    assert_stdlib_layout(text)
    endo, vn = json.loads(text)["results"]
    assert len(endo["basis"]) == endo["dim"] > 0
    assert [] in [b["matrices"] for b in vn["bases"]]


def test_full_bases_sized_report_has_stdlib_layout(tmp_path):
    # one diagonal generator with repeated eigenvalues: its commutant puts
    # stacks of up to 81 matrices of 15 x 15 in the X3 -> X3 hom
    objects = [{"name": "I", "dim": 1}, {"name": "X2", "dim": 2}, {"name": "X3", "dim": 3}]
    diagonal = np.diag([2.5, -1.0, 2.5, 0.75, -1.0])
    doc = {
        "schema": 1,
        "hdim": 5,
        "objects": objects,
        "generators": [{"name": "d", "dom": "I", "cod": "I", "matrix": diagonal.tolist()}],
        "commands": ["commutant"],
    }
    text = report_text(tmp_path, doc, "full")
    assert_stdlib_layout(text)
    bases = {(b["dom"], b["cod"]): b["matrices"] for b in json.loads(text)["results"][0]["bases"]}
    stack = np.asarray(bases[("X3", "X3")])
    assert stack.shape == (81, 15, 15, 2)
    # matrix units tensored with hidden blocks: most rows are all zero, so
    # the report exercises the shared zero-row text
    zero_rows = (stack == 0).all(axis=(-2, -1))
    assert zero_rows.mean() > 0.9 and not zero_rows.all()


def h7_scenario(tmp_path):
    """The full_bases/h7 shape: a 20 MB ``full`` report, nearly all of it basis stacks."""
    objects = [{"name": "I", "dim": 1}, {"name": "X2", "dim": 2}, {"name": "X3", "dim": 3}]
    diagonal = np.diag([1.25, 2.5, 1.25, 1.25, 2.5, 1.25, 2.5])  # values repeated 4 and 3 times
    doc = {
        "schema": 1,
        "hdim": 7,
        "objects": objects,
        "generators": [{"name": "d", "dom": "I", "cod": "I", "matrix": diagonal.tolist()}],
        "commands": ["commutant"],
    }
    src = tmp_path / "scenario.json"
    src.write_text(json.dumps(doc))
    return src


def test_full_report_is_never_held_whole(tmp_path):
    src = h7_scenario(tmp_path)
    out = tmp_path / "report.json"
    assert run_scenario(str(src), str(out), emit_bases="full") == 0  # warm-up
    tracemalloc.start()
    try:
        code = run_scenario(str(src), str(out), emit_bases="full")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = out.stat().st_size
    assert code == 0 and size > 2**24
    assert peak < size / 2


def test_full_commutant_is_written_from_its_factor(tmp_path, monkeypatch):
    # no hom's dense stack is built: the writer holds A's text and one chunk
    # of rows (5.3 MB when every stack was built and walked, 0.76 MB from A)
    reads = []
    monkeypatch.setattr(HomSubspace, "mats", property(lambda hom: reads.append(hom)))
    src = h7_scenario(tmp_path)
    out = tmp_path / "report.json"
    assert run_scenario(str(src), str(out), emit_bases="full") == 0  # warm-up
    tracemalloc.start()
    try:
        code = run_scenario(str(src), str(out), emit_bases="full")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and reads == []
    assert peak < 1.5 * 2**20


def test_scenario_strings_cannot_forge_markers(tmp_path):
    names = ["\u0000m0", "\u0000", '"\\\u0000m1"', "\\u0000m2", "x\u0000" + "0" * 32, "é→∂\U0001d49c"]
    doc = {
        "schema": 1,
        "hdim": 2,
        "objects": [{"name": n, "dim": 1 + i % 2} for i, n in enumerate(names)],
        "generators": [
            {"name": f"\u0000m{i}\"{n}", "dom": n, "cod": n, "matrix": np.eye(2 * (1 + i % 2)).tolist()}
            for i, n in enumerate(names)
        ],
        "commands": ["commutant", "endo-algebra"],
    }
    text = report_text(tmp_path, doc, "full")
    assert_stdlib_layout(text)
    report = json.loads(text)
    assert [o["name"] for o in report["scenario"]["objects"]] == names
    assert [g["name"][0] for g in report["scenario"]["generators"]] == ["\u0000"] * len(names)
    assert len(report["results"][0]["bases"]) == len(names) ** 2


# generator names that need escaping, or that look like format directives
NAMES = st.text(min_size=1, max_size=4) | st.sampled_from(['"', "\\", "\0", "é→∂", "%s", "%(x)d", "%%"])
CORNERS = st.sampled_from([0, -40, 2**63, -(2**64), 2**64])


@st.composite
def net_docs(draw):
    """A net of distinct unit and larger cones near a corner that may sit past int64."""
    names = draw(st.lists(NAMES, min_size=1, max_size=4, unique=True))
    t0, x0 = draw(CORNERS), draw(CORNERS)
    cones = []
    for t, x in draw(st.lists(st.tuples(st.integers(0, 3), st.integers(-4, 4)), max_size=8, unique=True)):
        a, b = draw(st.integers(0, 1)), draw(st.integers(0, 1))
        gens = draw(st.lists(st.sampled_from(names), max_size=2, unique=True))
        cones.append({"lo": [t0 + t, x0 + x], "hi": [t0 + t + a + b, x0 + x + a - b], "generators": gens})
    return {
        "schema": 1,
        "hdim": 1,
        "objects": [{"name": "I", "dim": 1}],
        "generators": [{"name": n, "dom": "I", "cod": "I", "matrix": [[draw(st.integers(-3, 3))]]} for n in names],
        "net": {"bounds": {"t": [t0, t0 + 5], "x": [x0 - 5, x0 + 5]}, "cones": cones},
        "commands": ["causality"],
    }


PARTS = st.sampled_from([0, 1, -2, -0.0, 5e-324, 1.7976931348623157e308, 0.1, 1e16]) | st.floats(
    allow_nan=False, allow_infinity=False
)
ZERO = st.sampled_from([0, -0.0, 0.0, [0, 0], [-0.0, 0.0], [0.0, -0.0], 5e-324])


@st.composite
def matrix_docs(draw):
    """Generators of any entries, and C2 acting by a diagonal sign rep, spelt in every way."""
    h = draw(st.integers(1, 3))
    dims = {"I": 1, "A": 2}
    gens = []
    for name in draw(st.lists(NAMES, max_size=3, unique=True)):
        dom, cod = draw(st.sampled_from("IA")), draw(st.sampled_from("IA"))
        entries = PARTS | st.lists(PARTS, min_size=2, max_size=2)
        matrix = [[draw(entries) for _ in range(dims[dom] * h)] for _ in range(dims[cod] * h)]
        gens.append({"name": name, "dom": dom, "cod": cod, "matrix": matrix})
    signs = [[1] * h, draw(st.lists(st.sampled_from([1, -1]), min_size=h, max_size=h))]
    unit = {1: st.sampled_from([1, 1.0, [1, 0], [1, -0.0]]), -1: st.sampled_from([-1, -1.0, [-1, 0.0]])}
    rep = [[[draw(unit[s[i]]) if i == j else draw(ZERO) for j in range(h)] for i in range(h)] for s in signs]
    return {
        "schema": 1,
        "hdim": h,
        "objects": [{"name": n, "dim": d} for n, d in dims.items()],
        "universe": ["I"],
        "generators": gens,
        "group": {"elements": ["e", "s"], "table": [[0, 1], [1, 0]]},
        "rep": rep,
        "commands": ["centre"],
    }


@settings(max_examples=80, deadline=None)
@given(doc=net_docs() | matrix_docs())
def test_generated_reports_have_stdlib_layout(tmp_path_factory, doc):
    text = report_text(tmp_path_factory.mktemp("report"), doc, "dims")
    assert_stdlib_layout(text)
    # the echo holds the parsed values, -0.0 and ints past int64 included
    assert json.dumps(json.loads(text)["scenario"]) == json.dumps(parse_scenario(doc).normalized)


SPECIAL = [-0.0, 5e-324, 1e-5, 1e16, 1e22, 0.1 + 0.2]
entries = st.sampled_from(SPECIAL) | st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def matrices(draw):
    """A matrix up to 6x6 (1x1, 1xn and nx1 included) or a stack of 0-3 of them."""
    rows = draw(st.integers(1, 6))
    cols = draw(st.integers(1, 6))
    count = draw(st.sampled_from([None, 0, 1, 2, 3]))
    shape = (rows, cols) if count is None else (count, rows, cols)
    size = 2 * int(np.prod(shape))
    flat = draw(st.lists(entries, min_size=size, max_size=size))
    parts = np.array(flat, dtype=float).reshape(2, *shape)
    m = np.empty(shape, dtype=complex)
    m.real, m.imag = parts
    return m


@settings(max_examples=150, deadline=None)
@given(m=matrices(), path=st.lists(st.sampled_from(["item", "value"]), max_size=4))
def test_matrix_text_matches_stdlib_at_any_depth(m, path):
    assert_matrix_text(m, path)


EDGE = [0.0, -0.0, 5e-324, 1e16, 1e22, 0.1 + 0.2, float("nan"), -float("nan"), float("inf"), -float("inf")]


@pytest.mark.parametrize("shape", [(1, 1), (1, 7), (7, 1), (9, 1, 1), (4, 3, 5)])
@pytest.mark.parametrize("path", [[], ["value", "item", "value"]], ids=["top", "nested"])
def test_matrix_text_of_edge_values(shape, path):
    # the edge values in turn, repeated as often as the shape has room for,
    # shuffled by a fixed seed into both parts of the entries
    rng = np.random.default_rng(7)
    size = int(np.prod(shape))
    parts = np.array(EDGE * (2 * size // len(EDGE) + 1))[: 2 * size]
    rng.shuffle(parts)
    m = np.empty(shape, dtype=complex)
    m.real, m.imag = parts.reshape(2, *shape)
    assert_matrix_text(m, path)


NAN_BITS = [0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001, 0x7FF4000000000abc]


@st.composite
def sparse_matrices(draw):
    """A matrix or stack whose rows each hold only +0.0, a mix of -0.0 and
    +0.0, one finite non-zero part, or a NaN or an infinity among +0.0."""
    count = draw(st.integers(1, 4))
    cols = draw(st.integers(1, 7))
    shape = (count, cols) if draw(st.booleans()) else (count, draw(st.integers(1, 4)), cols)
    rows = []
    for _ in range(int(np.prod(shape[:-1]))):
        row = np.zeros(2 * cols)
        kind = draw(st.sampled_from(["zero", "negzero", "one", "special"]))
        if kind == "negzero":
            signs = draw(st.lists(st.booleans(), min_size=2 * cols, max_size=2 * cols).filter(any))
            row[np.array(signs)] = -0.0
        elif kind == "one":
            row[draw(st.integers(0, 2 * cols - 1))] = draw(st.floats(allow_nan=False, allow_infinity=False))
        elif kind == "special":
            bits = draw(st.sampled_from(NAN_BITS))
            special = draw(st.sampled_from([np.uint64(bits).view(np.float64), np.inf, -np.inf]))
            row[draw(st.integers(0, 2 * cols - 1))] = special
        rows.append(row)
    return np.array(rows).view(np.complex128).reshape(shape)


@settings(max_examples=150, deadline=None)
@given(m=sparse_matrices(), path=st.lists(st.sampled_from(["item", "value"]), max_size=4))
def test_sparse_matrix_text_matches_stdlib_at_any_depth(m, path):
    assert_matrix_text(m, path)


@pytest.mark.parametrize("shape", [(2, 0, 3), (2, 3, 0), (1, 0), (0, 2, 2)])
@pytest.mark.parametrize("path", [[], ["value", "item", "value"]], ids=["top", "nested"])
def test_matrix_text_of_empty_stacks(shape, path):
    assert_matrix_text(np.zeros(shape, dtype=complex), path)


def test_holders_at_mixed_depths_match_stdlib():
    # stacks of rank 2 and 3 and cone lists whose cones hold 0, 1 and 3
    # names, at depths 0-4 of one report, deepest first and then back up: a
    # layout kept under the wrong key would show at its second depth
    rng = np.random.default_rng(5)
    rank2 = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    rank3 = np.zeros((2, 3, 2), dtype=complex)
    rank3[1, 0, 1] = 0.5 - 2j
    cones = [
        {"lo": [0, 0], "hi": [1, 1], "generators": []},
        {"lo": [-3, 2**64], "hi": [9, 2**64], "generators": ["a%s"]},
        {"lo": [1, -1], "hi": [4, 0], "generators": ["\0b", '"q', "é→∂"]},
    ]
    paths = [["value", "item", "value"], ["item", "value"], ["value"], [], ["item"], ["item"] * 3]

    def report(stack, echo):
        leaves = [echo(cones), echo(cones[1:2]), echo([]), stack(rank2), stack(rank3), echo(cones[:1])]
        return [place(leaf, path) for path in paths for leaf in leaves]

    plain = report(_matrix_json, list)
    for tree, want in [
        (report(MatrixJson, _cone_echo), plain),
        (_cone_echo(cones), cones),
        (MatrixJson(rank3), _matrix_json(rank3)),
        ({"m": MatrixJson(rank2), "net": {"cones": _cone_echo(cones)}},
         {"m": _matrix_json(rank2), "net": {"cones": cones}}),
    ]:
        out = io.BytesIO()
        _write_report(tree, out.write)
        assert out.getvalue() == (json.dumps(want, indent=2) + "\n").encode()


# negative coordinates, coordinates past 2**63 and names that need escaping
ECHO_CONES = [
    {"lo": [0, 0], "hi": [1, 1], "generators": []},
    {"lo": [-3, -(2**64)], "hi": [9, -(2**64)], "generators": ["a%s%d"]},
    {"lo": [2**63, -1], "hi": [2**63 + 4, 0], "generators": ["\0b", '"q', "é→∂", "\\", "%"]},
]
_c = [DoubleCone(c["lo"], c["hi"]) for c in ECHO_CONES]
VIOLATIONS = ((_c[0], _c[2], "I", "%d"), (_c[1], _c[1], "\0x\n", "é→∂"), (_c[2], _c[0], '"H', "%s"))


def violation_json(violations):
    """What the causality entry would hold for ``violations`` as plain lists and dicts."""
    return [
        {"inner": [list(i.lo), list(i.hi)], "outer": [list(o.lo), list(o.hi)], "dom": d, "cod": c}
        for i, o, d, c in violations
    ]


@pytest.mark.parametrize("depth", range(5))
def test_cone_and_violation_lists_match_stdlib_at_depths_0_to_4(depth):
    path = ["item", "value", "item", "value"][:depth]
    for holder, plain in [
        (_cone_echo(ECHO_CONES), ECHO_CONES),
        (_cone_echo(ECHO_CONES[1:2]), ECHO_CONES[1:2]),
        (_cone_echo([]), []),
        (_violation_list(VIOLATIONS), violation_json(VIOLATIONS)),
        (_violation_list(VIOLATIONS[:1]), violation_json(VIOLATIONS[:1])),
        (_violation_list(()), []),
    ]:
        out = io.BytesIO()
        _write_report(place(holder, path), out.write)
        assert out.getvalue() == (json.dumps(place(plain, path), indent=2) + "\n").encode()
    # both lists in one report, the deeper first: a layout kept under the
    # wrong depth would show at the second
    tree = [place(_violation_list(VIOLATIONS), path), {"cones": _cone_echo(ECHO_CONES)}, _violation_list(VIOLATIONS)]
    plain = [place(violation_json(VIOLATIONS), path), {"cones": ECHO_CONES}, violation_json(VIOLATIONS)]
    out = io.BytesIO()
    _write_report(tree, out.write)
    assert out.getvalue() == (json.dumps(plain, indent=2) + "\n").encode()


ECHO_PARTS = [-0.0, 5e-324, 1e308, -1e308, 0.1 + 0.2, 1.0, 0.0, -2.5]


@pytest.mark.parametrize("shape", [(1, 1), (3, 2), (1, 1, 1), (4, 3, 3), (2, 1, 5)])
@pytest.mark.parametrize("path", [[], ["item"], ["value", "item", "value"], ["item"] * 3 + ["value"]])
def test_echoed_matrices_match_stdlib_at_any_depth(shape, path):
    # generator matrices are 2-D, a rep stack 3-D; every part is finite
    rng = np.random.default_rng(len(shape) + sum(shape))
    size = 2 * int(np.prod(shape))
    parts = np.array((ECHO_PARTS * size)[:size])
    rng.shuffle(parts)
    m = parts.view(np.complex128).reshape(shape)
    lists = _matrix_json(m)
    out = io.BytesIO()
    _write_report(place(_ListEcho(lists), path), out.write)
    assert out.getvalue() == (json.dumps(place(lists, path), indent=2) + "\n").encode()


def test_write_report_frees_every_stack():
    # dense stacks, and a factor that hom pairs share: the writer keeps no
    # reference to either, and the row text built from the factor once
    # lives on its holders, as bytes alone, and goes with them
    stack = np.arange(12, dtype=np.complex128).reshape(3, 2, 2)
    start = sys.getrefcount(stack)
    gc.disable()
    try:
        _write_report({"bases": [MatrixJson(stack), MatrixJson(stack)]}, io.BytesIO().write)
        assert sys.getrefcount(stack) == start
        rows = {}
        bases = [MatrixJson(stack, grid, rows) for grid in [(1, 1), (2, 3), (3, 2)]]
        start = sys.getrefcount(stack)
        _write_report({"bases": bases[:1]}, io.BytesIO().write)
        (built,) = rows.values()
        _write_report({"bases": bases}, io.BytesIO().write)
        assert sys.getrefcount(stack) == start
        assert list(rows.values()) == [built] and rows[2] is built
        assert {type(row) for row in built} == {bytes}
        del bases
        assert sys.getrefcount(rows) == 2  # this name's, and the call's
    finally:
        gc.enable()


def test_write_report_leaves_no_cycles():
    # the report's own structure is a tree, and the writer adds no cycle
    # that would keep its pieces alive until the cyclic collector runs
    stack = np.arange(8, dtype=np.complex128).reshape(2, 2, 2)
    rows = {}
    shared = [{"matrices": MatrixJson(stack, grid, rows)} for grid in [(1, 2), (2, 2), (2, 1)]]
    report = {
        "scenario": {"name": "x", "m": [[1.5, -0.0]]},
        "results": [{"basis": MatrixJson(stack)}, {"bases": shared}],
    }
    gc.collect()
    gc.disable()
    try:
        _write_report(report, io.BytesIO().write)
        assert rows and gc.collect() == 0
    finally:
        gc.enable()


def test_wide_grid_is_written_a_few_matrices_at_a_time():
    # whole matrices are joined until they reach _CHUNK rows, and each zero
    # block row is one shared piece: neither the chunks nor the writer's
    # own memory grow with the grid's dD^2 block rows of zeros
    a = np.ones((2, 2, 2), dtype=np.complex128)
    dd, k, r = 64, 2, 2
    matrix = len(_text(_matrix_json(kron_stack(a, dd, 1)[0]), 2))  # one matrix's text
    sizes = []
    tracemalloc.start()
    try:
        for chunk in MatrixJson(a, (dd, 1)).pieces(1):
            sizes.append(len(chunk))
            del chunk
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a matrix has dd r = 128 rows, so each is one write, and then the tail
    assert len(sizes) == dd * k + 1 and max(sizes) < 1.1 * matrix
    assert peak < 4 * matrix


def kron_stack(a, dd, db):
    """The dense stack kron(E_db, a), (d, b, a) row-major, each block placed, not multiplied."""
    k, r, c = a.shape
    mats = np.zeros((dd, db, k, dd * r, db * c), dtype=complex)
    for d in range(dd):
        for b in range(db):
            mats[d, b, :, d * r : (d + 1) * r, b * c : (b + 1) * c] = a
    return mats.reshape(-1, dd * r, db * c)


SPARSE_PARTS = [np.uint64(bits).view(np.float64) for bits in NAN_BITS] + [
    0.0, -0.0, 5e-324, np.inf, -np.inf, 0.1 + 0.2, -2.5,
]


@st.composite
def factors(draw):
    """A (k, r, c) factor, k 0-4 and sides 1-5, whose rows are each all zero or sparse."""
    k, r, c = draw(st.integers(0, 4)), draw(st.integers(1, 5)), draw(st.integers(1, 5))
    a = np.zeros((k * r, 2 * c))
    for row in a:
        if draw(st.booleans()):
            for i in draw(st.lists(st.integers(0, 2 * c - 1), min_size=1, max_size=3)):
                row[i] = draw(st.sampled_from(SPARSE_PARTS) | st.floats())
    return a.view(np.complex128).reshape(k, r, c)


@settings(max_examples=150, deadline=None)
@given(a=factors(), dd=st.integers(1, 3), db=st.integers(1, 3), depth=st.integers(0, 4), data=st.data())
def test_factor_text_matches_stdlib_of_its_dense_stack(a, dd, db, depth, data):
    path = data.draw(st.lists(st.sampled_from(["item", "value"]), min_size=depth, max_size=depth))
    out = io.BytesIO()
    _write_report(place(MatrixJson(a, (dd, db)), path), out.write)
    want = json.dumps(place(_matrix_json(kron_stack(a, dd, db)), path), indent=2) + "\n"
    assert out.getvalue() == want.encode()


STRINGS = st.text() | st.sampled_from(["", "\u0000", '"', "\\", '"\\\u0000"', "é→∂\U0001d49c", "\ud800"])
FLOATS = st.floats() | st.sampled_from([-0.0, float("nan"), float("inf"), -float("inf"), 5e-324, 1e16])
# what a report holds: exact JSON scalars, lists, and dicts with str keys
SCALARS = STRINGS | st.integers() | st.integers(2**64 - 2, 2**70) | st.booleans() | st.none() | FLOATS
TREES = st.recursive(
    SCALARS,
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(STRINGS, kids, max_size=4),
    max_leaves=40,
)


@settings(max_examples=300, deadline=None)
@given(tree=TREES)
def test_writer_matches_stdlib_on_any_tree(tree):
    out = io.BytesIO()
    _write_report(tree, out.write)
    assert out.getvalue() == (json.dumps(tree, indent=2) + "\n").encode()


@pytest.mark.parametrize(
    "bad",
    [object(), np.int64(3), np.bool_(True), {1, 2}, b"bytes"],
    ids=["object", "int64", "bool_", "set", "bytes"],
)
def test_writer_rejects_what_stdlib_rejects(bad):
    doc = {"ok": [1, "two"], "bad": [bad]}
    with pytest.raises(TypeError) as stdlib:
        json.dumps(doc, indent=2)
    with pytest.raises(TypeError) as ours:
        _write_report(doc, io.BytesIO().write)
    assert str(ours.value) == str(stdlib.value)


class Label(str):
    pass


@pytest.mark.parametrize(
    "bad",
    [np.float64(0.5), (1, "two"), Label("x"), {1: 0}, {(1, 2): 0}],
    ids=["float64", "tuple", "str-subclass", "int-key", "tuple-key"],
)
def test_writer_rejects_what_a_report_cannot_hold(bad):
    # the stdlib writes the first four; no report holds any of them
    with pytest.raises(TypeError):
        _write_report({"ok": [1, "two"], "bad": [bad]}, io.BytesIO().write)


def test_numpy_tol_writes_the_same_report(tmp_path):
    golden = GOLDEN_DIR / "commutant_basic.json"
    texts = []
    for tol in (1e-9, np.float64(1e-9)):
        out = tmp_path / "report.json"
        assert run_scenario(str(golden), str(out), tol=tol) == 0
        texts.append(out.read_bytes())
    assert texts[0] == texts[1]
