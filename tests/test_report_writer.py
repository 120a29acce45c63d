"""Report layout: the writer's text is the stdlib's ``json.dumps(report, indent=2)``."""

import gc
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vncat import run_scenario
from vncat.cli import _write_report
from vncat.scenario import MatrixJson, _matrix_json

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
    out = io.StringIO()
    _write_report(place(MatrixJson(m), path), out.write)
    assert out.getvalue() == json.dumps(place(_matrix_json(m), path), indent=2) + "\n"


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


def test_write_report_frees_every_stack():
    stack = np.arange(12, dtype=np.complex128).reshape(3, 2, 2)
    start = sys.getrefcount(stack)
    gc.disable()
    try:
        _write_report({"bases": [MatrixJson(stack), MatrixJson(stack)]}, io.StringIO().write)
        assert sys.getrefcount(stack) == start
    finally:
        gc.enable()


def test_write_report_leaves_no_cycles():
    # the report's own structure is a tree, and the writer adds no cycle
    # that would keep its pieces alive until the cyclic collector runs
    stack = np.arange(8, dtype=np.complex128).reshape(2, 2, 2)
    report = {"scenario": {"name": "x", "m": [[1.5, -0.0]]}, "results": [{"basis": MatrixJson(stack)}]}
    gc.collect()
    gc.disable()
    try:
        _write_report(report, io.StringIO().write)
        assert gc.collect() == 0
    finally:
        gc.enable()


STRINGS = st.text() | st.sampled_from(["", "\u0000", '"', "\\", '"\\\u0000"', "é→∂\U0001d49c", "\ud800"])
FLOATS = (
    st.floats()
    | st.sampled_from([-0.0, float("nan"), float("inf"), -float("inf"), 5e-324, 1e16])
    | st.floats().map(np.float64)
)


class Label(str):
    def __repr__(self):
        return "label"


class Count(int):
    def __repr__(self):
        return "count"


# subclasses get their base's text, whatever their own repr says
SUBCLASSED = STRINGS.map(Label) | st.integers().map(Count)
SCALARS = (
    STRINGS | st.integers() | st.integers(2**64 - 2, 2**70) | st.booleans() | st.none() | FLOATS | SUBCLASSED
)
KEYS = STRINGS | st.integers() | st.floats() | st.booleans() | st.none() | SUBCLASSED
TREES = st.recursive(
    SCALARS,
    lambda kids: st.lists(kids, max_size=4)
    | st.lists(kids, max_size=4).map(tuple)
    | st.dictionaries(KEYS, kids, max_size=4),
    max_leaves=40,
)


@settings(max_examples=300, deadline=None)
@given(tree=TREES)
def test_writer_matches_stdlib_on_any_tree(tree):
    out = io.StringIO()
    _write_report(tree, out.write)
    assert out.getvalue() == json.dumps(tree, indent=2) + "\n"


@pytest.mark.parametrize(
    "bad",
    [object(), np.int64(3), np.bool_(True), {1, 2}, {(1, 2): 0}, b"bytes"],
    ids=["object", "int64", "bool_", "set", "tuple-key", "bytes"],
)
def test_writer_rejects_what_stdlib_rejects(bad):
    doc = {"ok": [1, "two"], "bad": [bad]}
    with pytest.raises(TypeError) as stdlib:
        json.dumps(doc, indent=2)
    with pytest.raises(TypeError) as ours:
        _write_report(doc, io.StringIO().write)
    assert str(ours.value) == str(stdlib.value)
