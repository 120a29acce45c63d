import copy
import gc
import importlib
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vncat import Arrow, Context, LatticeBounds, ScenarioError, load_scenario, parse_scenario, run_scenario
from vncat import Obj, ObjectUniverse, classical_commutant, cli, cstar_residuals, double_commutant, pair_swap_family
from vncat import cyclic_group, regular_rep, scenario, symmetric_group
from vncat import crossed_product, dagger, is_von_neumann, span_category
from vncat.category import unit_obj
from vncat.commutant import HiddenAlgebra
from vncat.linalg import relative
from vncat.cli import main

category_module = importlib.import_module("vncat.category")
commutant_module = importlib.import_module("vncat.commutant")
GOLDEN_DIR = Path(__file__).resolve().parent.parent / "scenarios"
GOLDENS = sorted(GOLDEN_DIR.glob("*.json"))


def base_doc(**extra):
    doc = {
        "schema": 1,
        "hdim": 2,
        "objects": [{"name": "I", "dim": 1}],
        "commands": ["commutant"],
    }
    doc.update(extra)
    return doc


def src_env(**extra):
    """This environment with the package's source first on PYTHONPATH, plus ``extra``."""
    env = dict(os.environ, **extra)
    src = str(GOLDEN_DIR.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def write_doc(tmp_path, doc, name="scenario.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def test_goldens_exist():
    assert [p.name for p in GOLDENS] == [
        "centre_flip_pair.json",
        "commutant_basic.json",
        "diagonal_flip_crossed.json",
        "light_cones.json",
    ]


NET_BOUNDS = {"t": [0, 2], "x": [0, 0]}
CONE = {"lo": [0, 0], "hi": [1, 0]}
Z2_GROUP = {"elements": ["e", "s"], "table": [[0, 1], [1, 0]]}
# a generator whose 10**9 columns would take 16 GB before its one row is read
WIDE_GENERATOR = dict(
    hdim=1,
    objects=[{"name": "I", "dim": 1}, {"name": "A", "dim": 10**9}],
    generators=[{"dom": "A", "cod": "I", "matrix": [[0]]}],
)
OVER_SIZE = "needs over 67108864 complex entries (1 GiB)"


def unit_cones_doc(n):
    """Net and command sections of n unit cones two steps apart, checked for causality."""
    cones = [{"lo": [0, 2 * k], "hi": [1, 2 * k]} for k in range(n)]
    return dict(net={"bounds": {"t": [0, 1], "x": [0, 2 * n]}, "cones": cones}, commands=["causality"])


def cyclic_doc(n):
    """Group and trivial rep sections of C_n at hdim 1."""
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    return dict(hdim=1, group={"elements": [f"r{i}" for i in range(n)], "table": table}, rep=[[[1]]] * n)


# ``want`` is the error's path, or its whole text where that is pinned
@pytest.mark.parametrize(
    "mutate,want",
    [
        (lambda d: d.pop("schema"), "$.schema"),
        (lambda d: d.update(schema=2), "$.schema"),
        (lambda d: d.update(hdim=0), "$.hdim"),
        (lambda d: d.update(hdim="two"), "$.hdim"),
        (lambda d: d.update(tol=0), "$.tol"),
        (lambda d: d.update(tol=1.5), "$.tol"),
        (lambda d: d.update(dagger_close="yes"), "$.dagger_close"),
        (lambda d: d.update(objects=[]), "$.objects"),
        (lambda d: d.update(objects=[{"name": "I", "dim": 1}, {"name": "I", "dim": 2}]), "$.objects[1].name"),
        (lambda d: d.update(objects=[{"name": "I", "dim": 0}]), "$.objects[0].dim"),
        (lambda d: d.update(universe=["Q"]), "$.universe[0]"),
        (lambda d: d.update(universe=["I", "I"]), "$.universe[1]"),
        (lambda d: d.update(generators=[{"dom": "I", "cod": "Q", "matrix": [[1, 0], [0, 1]]}]), "$.generators[0].cod"),
        (lambda d: d.update(generators=[{"dom": "I", "cod": "I", "matrix": [[1, 0]]}]), "$.generators[0].matrix"),
        (lambda d: d.update(generators=[{"dom": "I", "cod": "I", "matrix": [[1, "x"], [0, 1]]}]), "$.generators[0].matrix[0][1]"),
        (lambda d: d.update(generators=[{"name": "a", "dom": "I", "cod": "I", "matrix": [[1, 0], [0, 1]]},
                                        {"name": "a", "dom": "I", "cod": "I", "matrix": [[1, 0], [0, 1]]}]), "$.generators[1].name"),
        (lambda d: d.update(group={"elements": ["e", "s"], "table": [[0, 1], [1, 1]]}), "$.group"),
        (lambda d: d.update(rep=[[[1, 0], [0, 1]]]), "$.rep"),
        (lambda d: d.update(commands=["warp"]), "$.commands[0]"),
        (lambda d: d.update(commands=["cstar-check"]), "$.commands[0]"),
        (lambda d: d.update(commands=["covariance"]), "$.commands[0]"),
        (lambda d: d.update(commands=["causality"]), "$.commands[0]"),
        pytest.param(
            lambda d: d.update(net={"bounds": {"t": [0], "x": [0, 0]}, "cones": []}),
            "$.net.bounds.t: must be [lo, hi] integers",
            id="net-bounds-not-a-pair",
        ),
        pytest.param(
            lambda d: d.update(net={"bounds": {"t": [2, 0], "x": [0, 0]}, "cones": []}),
            "$.net.bounds.t: lo must not exceed hi",
            id="net-bounds-lo-above-hi",
        ),
        pytest.param(
            lambda d: d.update(net={"bounds": NET_BOUNDS, "cones": [{"lo": [0, True], "hi": [1, 0]}]}),
            "$.net.cones[0].lo: must be [t, x] integers",
            id="net-cone-end-not-integers",
        ),
        pytest.param(
            lambda d: d.update(net={"bounds": NET_BOUNDS, "cones": [CONE, CONE]}),
            "$.net.cones[1]: duplicate cone",
            id="net-duplicate-cone",
        ),
        pytest.param(
            lambda d: d.update(net={"bounds": NET_BOUNDS, "cones": [dict(CONE, generators="a")]}),
            "$.net.cones[0].generators: must be a list of generator names",
            id="net-cone-generators-not-a-list",
        ),
        pytest.param(
            lambda d: d.update(net={"bounds": NET_BOUNDS, "cones": [{"lo": [0, 1.0], "hi": [1, 0]}]}),
            "$.net.cones[0].lo: must be [t, x] integers",
            id="net-cone-end-float",
        ),
        pytest.param(
            lambda d: d.update(net={"bounds": NET_BOUNDS, "cones": [CONE, {"lo": [1, 0], "hi": [2, True]}]}),
            "$.net.cones[1].hi",
            id="net-second-cone-end-bool",
        ),
        # every per-cone check precedes the net's bounds check
        pytest.param(
            lambda d: d.update(
                net={"bounds": NET_BOUNDS, "cones": [{"lo": [0, 0], "hi": [5, 0]}, {"lo": [0.5, 0], "hi": [1, 0]}]}
            ),
            "$.net.cones[1].lo",
            id="net-cone-field-before-bounds",
        ),
        pytest.param(
            lambda d: d.update(net={"bounds": NET_BOUNDS, "cones": [dict(CONE, generators=[1])]}),
            "$.net.cones[0].generators[0]: unknown generator name 1",
            id="net-cone-generator-not-a-name",
        ),
        # type errors win over finiteness, wherever they sit
        pytest.param(
            lambda d: d.update(generators=[{"dom": "I", "cod": "I", "matrix": [[10**400, 0], [0, "x"]]}]),
            "$.generators[0].matrix[1][1]: matrix entries must be numbers or [re, im] pairs",
            id="matrix-type-error-after-huge-int",
        ),
        pytest.param(
            lambda d: d.update(generators=[{"dom": "I", "cod": "I", "matrix": [[[1, True], 0], [0, 1]]}]),
            "$.generators[0].matrix[0][0]",
            id="matrix-pair-with-bool",
        ),
        pytest.param(
            lambda d: d.update(generators=[{"dom": "I", "cod": "I", "matrix": [[1, 0], [0, [1, 0, 0]]]}]),
            "$.generators[0].matrix[1][1]",
            id="matrix-three-part-entry",
        ),
        pytest.param(
            lambda d: d.update(group={"elements": ["e", ""], "table": [[0, 1], [1, 0]]}),
            "$.group.elements: must be a non-empty list of non-empty strings",
            id="group-empty-element-label",
        ),
        pytest.param(
            lambda d: d.update(group={"elements": ["e", "s"], "table": [[0, 1], [1]]}),
            "$.group.table: must be a 2 x 2 table of element indices",
            id="group-table-ragged",
        ),
        pytest.param(
            lambda d: d.update(group={"elements": ["e", "s"], "table": [[0, True], [1, 0]]}),
            "$.group.table: must be a 2 x 2 table of element indices",
            id="group-table-bool-entry",
        ),
        pytest.param(
            lambda d: d.update(universe=[]), "$.universe: must be a non-empty list", id="universe-empty"
        ),
        pytest.param(
            lambda d: d.update(generators={}), "$.generators: must be a list", id="generators-not-a-list"
        ),
        # JSON reads a 400-digit literal as an int, which float() and int64 cannot hold
        pytest.param(
            lambda d: d.update(tol=10**400),
            "$.tol: must be a number strictly between 0 and 1",
            id="tol-huge-int",
        ),
        pytest.param(
            lambda d: d.update(generators=[{"dom": "I", "cod": "I", "matrix": [[10**400, 0], [0, 1]]}]),
            "$.generators[0].matrix: matrix entries must be finite",
            id="matrix-huge-int-entry",
        ),
        pytest.param(
            lambda d: d.update(group=Z2_GROUP, rep=[[[1, 0], [0, 1]], [[0, [1, -10**400]], [1, 0]]]),
            "$.rep[1]: matrix entries must be finite",
            id="matrix-huge-int-pair-part",
        ),
        # finite entries whose products overflow: the NaN defects fail unitarity
        pytest.param(
            lambda d: d.update(group=Z2_GROUP, rep=[[[1, 0], [0, 1]], [[1e200, 0], [0, 1e200]]]),
            "$.rep: matrix for 's' is not unitary",
            id="rep-overflowing-products",
        ),
        pytest.param(
            lambda d: d.update(group={"elements": ["e", "s"], "table": [[0, 1], [1, 2**63]]}),
            "$.group: multiplication table entries must index elements",
            id="group-table-huge-int-entry",
        ),
        pytest.param(lambda d: d.update(schema=True), "$.schema: must be the integer 1", id="schema-bool"),
        pytest.param(lambda d: d.update(schema=1.0), "$.schema: must be the integer 1", id="schema-float"),
        pytest.param(
            lambda d: d.update(WIDE_GENERATOR),
            "$.generators[0].matrix[0]: must be a list of 1000000000 entries",
            id="matrix-rows-checked-before-allocation",
        ),
        # the engine's arrays are bounded before anything is allocated
        pytest.param(
            lambda d: d.update(objects=[{"name": "I", "dim": 1}, {"name": "A", "dim": 3000}]),
            "$.objects[1].dim: " + OVER_SIZE,
            id="size-object-dim",
        ),
        pytest.param(
            lambda d: d.update(objects=[{"name": "I", "dim": 1}, {"name": "A", "dim": 10**30}]),
            "$.objects[1].dim: " + OVER_SIZE,
            id="size-huge-object-dim",
        ),
        pytest.param(lambda d: d.update(hdim=100), "$.hdim: " + OVER_SIZE, id="size-hdim"),
        pytest.param(
            lambda d: d.update(cyclic_doc(500), commands=["crossed-product"]),
            "$.group: " + OVER_SIZE,
            id="size-group-order",
        ),
        # 2,049 cones make 2,098,176 cone pairs, just past 2**21
        pytest.param(
            lambda d: d.update(unit_cones_doc(2049)),
            "$.net.cones: 2049 cones make over 2097152 cone pairs",
            id="size-net-cone-pairs",
        ),
    ],
)
def test_parse_rejections_carry_paths(mutate, want):
    path = want.split(": ")[0]
    doc = base_doc()
    mutate(doc)
    with pytest.raises(ScenarioError) as exc:
        parse_scenario(doc)
    assert exc.value.path == path
    if want == path:
        assert str(exc.value).startswith(path + ": ")
    else:
        assert str(exc.value) == want


GOLDEN_DOCS = [json.loads(p.read_text()) for p in GOLDENS]
GOLDEN_NAMES = sorted(
    {o["name"] for d in GOLDEN_DOCS for o in d["objects"]}
    | {g["name"] for d in GOLDEN_DOCS for g in d.get("generators", [])}
)
DELETE = object()
# hostile values for any node: wrong types, edge numbers, names from other
# fields, and short containers
POOL = [
    None, True, False, 0, -1, 1.5, -0.0, float("inf"), 10**400, "", *GOLDEN_NAMES,
    [], [0], [1, 0], [0, 10**400], [[1, 0], [0, 1]], ["I", "I"], {}, {"name": "I", "dim": 1},
]


def node_paths(node, path=()):
    yield path
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from node_paths(child, path + (key,))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_parse_outcome_of_mutated_goldens(data):
    doc = copy.deepcopy(data.draw(st.sampled_from(GOLDEN_DOCS)))
    path = data.draw(st.sampled_from(list(node_paths(doc))))
    value = data.draw(st.sampled_from([DELETE, *POOL]))
    if not path:
        doc = None if value is DELETE else copy.deepcopy(value)
    else:
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if value is DELETE:
            del parent[path[-1]]
        else:
            parent[path[-1]] = copy.deepcopy(value)
    try:
        sc = parse_scenario(doc)
    except ScenarioError as e:
        assert e.path.startswith("$") and str(e).startswith(e.path + ": ")
    else:
        echo = json.dumps(sc.normalized)
        assert json.dumps(parse_scenario(json.loads(echo)).normalized) == echo


def test_group_rep_net_rejections():
    doc = base_doc(
        group={"elements": ["e", "s"], "table": [[0, 1], [1, 0]]},
        rep=[[[1, 0], [0, 1]], [[0, 2], [2, 0]]],
    )
    with pytest.raises(ScenarioError) as exc:
        parse_scenario(doc)
    assert exc.value.path == "$.rep"

    doc = base_doc(net={"bounds": {"t": [0, 1], "x": [0, 0]}, "cones": [
        {"lo": [0, 0], "hi": [5, 0], "generators": []}
    ]})
    with pytest.raises(ScenarioError) as exc:
        parse_scenario(doc)
    assert exc.value.path == "$.net"

    doc = base_doc(net={"bounds": {"t": [0, 2], "x": [0, 0]}, "cones": [
        {"lo": [1, 0], "hi": [0, 0], "generators": []}
    ]})
    with pytest.raises(ScenarioError) as exc:
        parse_scenario(doc)
    assert exc.value.path == "$.net.cones[0]"

    doc = base_doc(net={"bounds": {"t": [0, 2], "x": [0, 0]}, "cones": [
        {"lo": [0, 0], "hi": [1, 0], "generators": ["ghost"]}
    ]})
    with pytest.raises(ScenarioError) as exc:
        parse_scenario(doc)
    assert exc.value.path == "$.net.cones[0].generators[0]"


def test_cone_pair_bound_admits_2048_cones():
    # 2,048 cones make 2,096,128 cone pairs, within 2**21
    sc = parse_scenario(base_doc(**unit_cones_doc(2048)))
    assert len(sc.net.cones()) == 2048
    # the bound applies only when causality will compare the pairs
    big = base_doc(**unit_cones_doc(2049))
    big["commands"] = ["commutant"]
    assert len(parse_scenario(big).net.cones()) == 2049


def test_cone_coordinates_past_int64_parse_and_echo_exactly(tmp_path):
    t, x = 2**63, 2**64
    cones = [
        {"lo": [t, -x], "hi": [t + 1, -x], "generators": []},
        {"lo": [t, x], "hi": [t + 1, x], "generators": []},
    ]
    doc = base_doc(net={"bounds": {"t": [t, t + 2], "x": [-x, x]}, "cones": cones}, commands=["causality"])
    assert [(c.lo, c.hi) for c in parse_scenario(doc).net.cones()] == [
        ((t, -x), (t + 1, -x)),
        ((t, x), (t + 1, x)),
    ]
    out = tmp_path / "r.json"
    assert main(["--input", write_doc(tmp_path, doc), "--output", str(out)]) == 0
    assert json.loads(out.read_text())["scenario"]["net"]["cones"] == cones


def test_mixed_entries_echo_as_pairs(tmp_path):
    gens = [{"dom": "I", "cod": "I", "matrix": [[1, [0, 1]], [-0.0, 2]]}]
    doc = base_doc(dagger_close=True, generators=gens)
    want = "[[[1.0, 0.0], [0.0, 1.0]], [[-0.0, 0.0], [2.0, 0.0]]]"
    assert json.dumps(parse_scenario(doc).normalized["generators"][0]["matrix"]) == want
    out = tmp_path / "r.json"
    assert run_scenario(write_doc(tmp_path, doc), str(out)) == 0
    assert json.dumps(json.loads(out.read_text())["scenario"]["generators"][0]["matrix"]) == want


def test_unwritable_report_exits_2(tmp_path, capsys):
    out = tmp_path / "no" / "such" / "dir" / "r.json"
    assert main(["--input", str(GOLDEN_DIR / "commutant_basic.json"), "--output", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("cannot write report: ")
    assert "Traceback" not in captured.err
    assert captured.out == ""


BASIC = str(GOLDEN_DIR / "commutant_basic.json")


def fresh_report(tmp_path, emit_bases="dims"):
    """The report bytes ``run_scenario`` writes for the basic golden into a new file."""
    out = tmp_path / f"fresh_{emit_bases}.json"
    assert run_scenario(BASIC, str(out), emit_bases=emit_bases) == 0
    return out.read_bytes()


@pytest.mark.parametrize("old", ["a megabyte of x", "the full report"])
def test_report_over_a_longer_file_is_cut_to_length(tmp_path, old):
    out = tmp_path / "r.json"
    out.write_bytes(b"x" * 2**20 if old == "a megabyte of x" else fresh_report(tmp_path, "full"))
    assert run_scenario(BASIC, str(out)) == 0
    assert out.read_bytes() == fresh_report(tmp_path)


def test_longer_report_over_a_shorter_file(tmp_path):
    out = tmp_path / "r.json"
    assert run_scenario(BASIC, str(out), emit_bases="none") == 0
    assert run_scenario(BASIC, str(out), emit_bases="full") == 0
    assert out.read_bytes() == fresh_report(tmp_path, "full")


@pytest.mark.parametrize("mask", [0o002, 0o077])
def test_new_report_file_mode_follows_the_umask(tmp_path, mask):
    old = os.umask(mask)
    try:
        assert run_scenario(BASIC, str(tmp_path / "r.json")) == 0
        open(tmp_path / "plain", "w").close()
    finally:
        os.umask(old)
    assert os.stat(tmp_path / "r.json").st_mode == os.stat(tmp_path / "plain").st_mode


def test_report_to_dev_null(capsys):
    assert main(["--input", BASIC, "--output", os.devnull]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
@pytest.mark.parametrize("sized", [False, True])
def test_report_to_a_fifo_is_neither_seeked_nor_cut(tmp_path, monkeypatch, sized):
    new = fresh_report(tmp_path)
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        if sized:  # as where a pipe's st_size counts its unread bytes
            real = os.fstat
            monkeypatch.setattr(os, "fstat", lambda fd: os.stat_result(real(fd)[:6] + (5,) + real(fd)[7:]))
        assert run_scenario(BASIC, str(fifo)) == 0
        monkeypatch.undo()
        data = b"".join(iter(lambda: os.read(reader, 1 << 16), b""))
    finally:
        os.close(reader)
    assert data == new


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_report_to_a_full_device_exits_2(capsys):
    assert main(["--input", BASIC, "--output", "/dev/full"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("cannot write report: ")
    assert "Traceback" not in captured.err
    assert captured.out == ""


def test_failed_write_leaves_an_empty_file(tmp_path, monkeypatch, capsys):
    new = fresh_report(tmp_path)
    out = tmp_path / "r.json"
    out.write_bytes(fresh_report(tmp_path, "full"))

    def part_then_fail(report, write):
        write(new[: len(new) // 2])
        raise OSError("disk gone")

    monkeypatch.setattr(cli, "_write_report", part_then_fail)
    assert run_scenario(BASIC, str(out)) == 2
    assert capsys.readouterr().err == "cannot write report: disk gone\n"
    assert out.read_bytes() == b""


KILLED_MID_WRITE = """
import io, os, signal, sys
from vncat import cli

def head_then_die(report, write):
    text = io.BytesIO()
    real(report, text.write)
    write(text.getvalue()[:40])  # past the tol
    write.__self__.flush()
    os.kill(os.getpid(), signal.SIGKILL)

real, cli._write_report = cli._write_report, head_then_die
cli.run_scenario(sys.argv[1], sys.argv[2], tol=1e-8)
"""


@pytest.mark.skipif(not hasattr(signal, "SIGKILL"), reason="needs SIGKILL")
def test_run_killed_mid_write_leaves_no_report_that_parses(tmp_path):
    out = tmp_path / "r.json"
    assert run_scenario(BASIC, str(out), tol=1e-9) == 0
    old = out.read_bytes()
    run = subprocess.run([sys.executable, "-c", KILLED_MID_WRITE, BASIC, str(out)], env=src_env())
    assert run.returncode == -signal.SIGKILL
    mixed = out.read_bytes()
    assert len(mixed) == len(old) and mixed.endswith(b"\0")
    with pytest.raises(ValueError):
        json.loads(mixed)
    # but for its last byte, it would pass for a report with the new tol
    assert json.loads(mixed[:-1])["tol"] == 1e-8


def cstar_doc(dim):
    """cstar-check of a unit flip at hdim 2, whiskered by an object of ``dim``."""
    objects = [{"name": "I", "dim": 1}, {"name": "A", "dim": dim}]
    gens = [{"dom": "I", "cod": "I", "matrix": [[0, 1], [1, 0]]}]
    return base_doc(objects=objects, generators=gens, commands=["cstar-check"])


def test_cstar_check_past_the_size_budget_exits_2(tmp_path, capsys):
    # a 6000 x 6000 whisker: its SVD would run for minutes
    start = time.perf_counter()
    assert run_scenario(write_doc(tmp_path, cstar_doc(3000)), str(tmp_path / "r.json")) == 2
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert err == "scenario error: $.objects[1].dim: cstar-check whiskers a generator into a 6000 x 6000 matrix, past the size budget\n"


def test_cstar_check_size_budget_stops_at_1024():
    parse_scenario(cstar_doc(512))  # n = 1024
    with pytest.raises(ScenarioError) as exc:
        parse_scenario(cstar_doc(513))
    assert exc.value.path == "$.objects[1].dim"


def test_cstar_check_within_the_size_budget_runs(tmp_path):
    out = tmp_path / "r.json"
    assert run_scenario(write_doc(tmp_path, cstar_doc(300)), str(out)) == 0
    (result,) = json.loads(out.read_text())["results"]
    assert result["command"] == "cstar-check" and result["pass"] is True


def test_cstar_check_whiskers_each_generator_once(tmp_path, monkeypatch):
    # 4 composable generators make 16 pairs; each generator is whiskered
    # once, and the residuals are the maxima of cstar_residuals over the pairs
    rng = np.random.default_rng(4)
    mats = rng.standard_normal((4, 2, 2)) + 1j * rng.standard_normal((4, 2, 2))
    gens = [{"dom": "I", "cod": "I", "matrix": np.stack([m.real, m.imag], -1).tolist()} for m in mats]
    doc = dict(cstar_doc(40), generators=gens)
    calls = []
    whisker_left = category_module.whisker_left
    monkeypatch.setattr(category_module, "whisker_left", lambda *a: calls.append(a) or whisker_left(*a))
    out = tmp_path / "r.json"
    assert run_scenario(write_doc(tmp_path, doc), str(out)) == 0
    assert len(calls) == 4
    sc = parse_scenario(doc)
    whisk = max(sc.universe.objects, key=lambda o: o.dim)
    pairs = [cstar_residuals(s, t, whisk) for s in sc.generators for t in sc.generators]
    want = {k: max(res[k] for res in pairs) for k in pairs[0]}
    assert json.loads(out.read_text())["results"][0]["max_residuals"] == want


# Each command's cost row: a document just past the budget, the JSON path
# that rejection names, and the document at the budget's edge.  A command
# without a row fails test_every_command_has_a_cost_row.
def at_hdim(cmd, h):
    return base_doc(hdim=h, commands=[cmd])


def centre_doc(dim):
    """centre at hdim 2 over I and an object of ``dim``."""
    return base_doc(objects=[{"name": "I", "dim": 1}, {"name": "A", "dim": dim}], commands=["centre"])


UNIT_GENERATOR = [{"dom": "I", "cod": "I", "matrix": [[1]]}]
COST_ROWS = {
    # the (1 + n^2)^2 h^4 entries of every hom's stack at h = 2, n = 46 and 45
    "centre": (centre_doc(46), "$.objects[1].dim", centre_doc(45)),
    # h^7 / 16 for one QR chunk of a hidden solve
    "commutant": (at_hdim("commutant", 20), "$.hdim", at_hdim("commutant", 19)),
    "double-commutant": (at_hdim("double-commutant", 20), "$.hdim", at_hdim("double-commutant", 19)),
    "vn-check": (at_hdim("vn-check", 20), "$.hdim", at_hdim("vn-check", 19)),
    "endo-algebra": (at_hdim("endo-algebra", 20), "$.hdim", at_hdim("endo-algebra", 19)),
    # an n x n whisker's n^3 / 16, n = 1026 and 1024
    "cstar-check": (cstar_doc(513), "$.objects[1].dim", cstar_doc(512)),
    # the |G|^3 h^4 products at h = 1
    "crossed-product": (
        base_doc(**cyclic_doc(407), commands=["crossed-product"]),
        "$.group",
        base_doc(**cyclic_doc(406), commands=["crossed-product"]),
    ),
    # |G| SVDs of side |G| at h = 1, |G|^4 / 16
    "covariance": (
        base_doc(**cyclic_doc(182), generators=UNIT_GENERATOR, commands=["covariance"]),
        "$.group",
        base_doc(**cyclic_doc(181), generators=UNIT_GENERATOR, commands=["covariance"]),
    ),
    # 32 entries per cone pair
    "causality": (base_doc(**unit_cones_doc(2049)), "$.net.cones", base_doc(**unit_cones_doc(2048))),
}


@pytest.mark.parametrize("cmd", scenario.COMMANDS)
def test_every_command_has_a_cost_row(tmp_path, capsys, cmd):
    over, path, edge = COST_ROWS[cmd]
    assert over["commands"] == edge["commands"] == [cmd]
    start = time.perf_counter()
    assert run_scenario(write_doc(tmp_path, over), str(tmp_path / "r.json")) == 2
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().err.startswith(f"scenario error: {path}: ")
    parse_scenario(edge, "dims")


def test_double_commutant_of_nothing_solves_one_generic_pair(tmp_path):
    # S' = End(H): S'' = C 1 from one {x, x*} pair, not from the h^2 matrix
    # units of S' (over 5 s at h = 19 when solved from all of them)
    out = tmp_path / "r.json"
    path = write_doc(tmp_path, base_doc(hdim=19, commands=["double-commutant"]))
    start = time.perf_counter()
    assert run_scenario(path, str(out)) == 0
    assert time.perf_counter() - start < 1
    assert json.loads(out.read_text())["results"][0]["dims"] == [{"dom": "I", "cod": "I", "dim": 1}]


def causality_pair_doc(side):
    """causality of one generator of ``side`` at h = 1 on two spacelike cones."""
    objects = [{"name": "I", "dim": 1}, {"name": "A", "dim": side}]
    gens = [{"name": "a", "dom": "A", "cod": "A", "matrix": np.eye(side).tolist()}]
    cones = [{"lo": [0, 2 * k], "hi": [1, 2 * k], "generators": ["a"]} for k in range(2)]
    net = {"bounds": {"t": [0, 1], "x": [0, 2]}, "cones": cones}
    return base_doc(hdim=1, objects=objects, generators=gens, net=net, commands=["causality"])


def test_causality_charges_each_pair_of_generators(tmp_path, capsys):
    # the generator's pair with itself is an SVD of side m^2, charged m^6 / 16
    parse_scenario(causality_pair_doc(32), "dims")
    assert run_scenario(write_doc(tmp_path, causality_pair_doc(33)), str(tmp_path / "r.json")) == 2
    assert capsys.readouterr().err == "scenario error: $.generators: " + OVER_SIZE + "\n"


def universe_doc(hdim, dims, commands=("commutant",)):
    objects = [{"name": "I", "dim": 1}] + [{"name": f"X{d}", "dim": d} for d in dims]
    return base_doc(hdim=hdim, objects=objects, commands=list(commands))


@pytest.mark.parametrize(
    "doc,path",
    [
        pytest.param(universe_doc(2, [3000]), "$.objects[1].dim", id="size-object-dim"),
        pytest.param(universe_doc(2, [10**30]), "$.objects[1].dim", id="size-huge-object-dim"),
        pytest.param(
            universe_doc(4, [16, 24], ["commutant", "double-commutant", "endo-algebra"]),
            "$.objects[2].dim",
            id="dims-1-16-24",
        ),
    ],
)
def test_object_dims_are_charged_only_for_full_stacks(tmp_path, capsys, doc, path):
    # under dims a commutant's hom dims are arithmetic, whatever the objects
    scenario_path, out = write_doc(tmp_path, doc), tmp_path / "r.json"
    assert run_scenario(scenario_path, str(out), emit_bases="full") == 2
    assert capsys.readouterr().err == f"scenario error: {path}: {OVER_SIZE}\n"
    start = time.perf_counter()
    assert run_scenario(scenario_path, str(out), emit_bases="dims") == 0
    assert time.perf_counter() - start < 1
    sizes = {o["name"]: o["dim"] for o in doc["objects"]}
    h2 = doc["hdim"] ** 2  # no generators: S' is all of End(H)
    dims = json.loads(out.read_text())["results"][0]["dims"]
    assert all(d["dim"] == sizes[d["dom"]] * sizes[d["cod"]] * h2 for d in dims)


def test_s6_covariance_exits_2_before_checking_the_rep(tmp_path, capsys, monkeypatch):
    # a 2.5 MB scenario: 720 SVDs of 720 x 720 matrices ran for minutes,
    # and checking the rep's laws alone took most of a second
    monkeypatch.setattr(scenario, "UnitaryRep", lambda *a: pytest.fail("the rep's laws were checked"))
    g = symmetric_group(6)
    group = {"elements": list(g.elements), "table": [list(r) for r in g.table]}
    doc = base_doc(hdim=1, generators=UNIT_GENERATOR, group=group, rep=[[[1]]] * 720, commands=["covariance"])
    path = write_doc(tmp_path, doc)
    start = time.perf_counter()
    assert run_scenario(path, str(tmp_path / "r.json")) == 2
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().err == "scenario error: $.group: " + OVER_SIZE + "\n"


def random_cost_doc(rng, *cmds):
    """A small random scenario that runs ``cmds``, with a dagger-closed generator set."""
    h = int(rng.integers(1, 6))
    dims = [1] + sorted(rng.choice([2, 3, 4, 5], size=int(rng.integers(0, 3)), replace=False).tolist())
    objects = [{"name": f"X{i}", "dim": d} for i, d in enumerate(dims)]
    gens = []
    for k in range(int(rng.integers(1, 4))):
        dom, cod = rng.choice(len(dims), size=2)
        m = rng.standard_normal((dims[cod] * h, dims[dom] * h, 2))
        gens.append({"name": f"g{k}", "dom": f"X{dom}", "cod": f"X{cod}", "matrix": m.tolist()})
    doc = base_doc(hdim=h, objects=objects, generators=gens, dagger_close=True, commands=list(cmds))
    if {"crossed-product", "covariance"} & set(cmds):
        # C_n acting by the phases u(r^k) = diag(w^(k m_j))
        n = int(rng.integers(2, 5))
        phases = rng.integers(0, n, size=h)
        rep = [np.diag(np.exp(2j * np.pi * k * phases / n)) for k in range(n)]
        doc.update(cyclic_doc(n), hdim=h, rep=[np.stack([u.real, u.imag], -1).tolist() for u in rep])
    if "causality" in cmds:
        net = unit_cones_doc(int(rng.integers(2, 40)))["net"]
        for cone in net["cones"]:
            cone["generators"] = [g["name"] for g in gens if rng.random() < 0.5]
        doc["net"] = net
    return doc


def assert_estimate_bounds_the_peak(tmp_path, monkeypatch, doc, emit):
    """The peak of a run is at most 16 bytes per entry of its commands' charges, plus 1 MiB per command."""
    cmds = doc["commands"]
    charged = []
    table = scenario._cost_table
    monkeypatch.setattr(scenario, "_cost_table", lambda *a: charged.append(table(*a)) or table(*a))
    path, out = write_doc(tmp_path, doc), str(tmp_path / "r.json")
    assert run_scenario(path, out, emit_bases=emit) in (0, 1)  # warm-up
    tracemalloc.start()
    try:
        run_scenario(path, out, emit_bases=emit)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    estimate = sum(max(entries for _, entries, _ in charged[-1][cmd]) for cmd in cmds)
    assert peak <= 16 * estimate + 2**20 * len(cmds), (cmds, emit, estimate, peak)


@pytest.mark.parametrize(
    "doc,at",
    [
        (universe_doc(6, [2, 3], ["commutant", "commutant"]), 1),
        (base_doc(commands=["centre", "vn-check", "commutant", "vn-check", *["commutant"] * 1000]), 3),
    ],
)
def test_a_command_listed_twice_exits_2_at_its_second_listing(tmp_path, capsys, doc, at):
    # a command's entry is deterministic, so a repeat would only run it
    # again, and it was charged once: 32 commutants under full wrote 218 MiB
    path = write_doc(tmp_path, doc)
    start = time.perf_counter()
    assert run_scenario(path, str(tmp_path / "r.json"), emit_bases="full") == 2
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert err == f"scenario error: $.commands[{at}]: duplicate command {doc['commands'][at]!r}\n"


@pytest.mark.parametrize("cmd", scenario.COMMANDS)
def test_cost_estimate_bounds_the_peak_allocation(tmp_path, monkeypatch, cmd):
    rng = np.random.default_rng(list(map(ord, cmd)))
    for draw in range(6):
        emit = ("none", "dims", "full")[draw % 3]
        assert_estimate_bounds_the_peak(tmp_path, monkeypatch, random_cost_doc(rng, cmd), emit)


@pytest.mark.parametrize("draw", range(12))
def test_cost_estimates_bound_the_peak_of_several_commands(tmp_path, monkeypatch, draw):
    # the charges of distinct commands add up: each runs once, and its
    # entry is kept until the report is written
    rng = np.random.default_rng([draw, 25])
    cmds = rng.choice(scenario.COMMANDS, size=int(rng.integers(2, 5)), replace=False).tolist()
    emit = ("none", "dims", "full")[draw % 3]
    assert_estimate_bounds_the_peak(tmp_path, monkeypatch, random_cost_doc(rng, *cmds), emit)


def hermitian_unit_generator(rng, h):
    m = rng.standard_normal((h, h)) + 1j * rng.standard_normal((h, h))
    m += m.conj().T
    return [{"dom": "I", "cod": "I", "matrix": np.stack([m.real, m.imag], -1).tolist()}]


@pytest.mark.parametrize("cmd", ["commutant", "crossed-product"])
def test_cost_estimate_bounds_a_dense_full_report(tmp_path, monkeypatch, cmd):
    # a generic generator's S' is dense, and writing a dense basis stack
    # takes about 31 times the stack's own bytes
    rng = np.random.default_rng(7)
    if cmd == "commutant":
        doc = universe_doc(6, [4])
        doc["generators"] = hermitian_unit_generator(rng, 6)
    else:
        rep = [u.real.tolist() for u in regular_rep(cyclic_group(4)).mats]
        doc = base_doc(**dict(cyclic_doc(4), hdim=4, rep=rep), commands=[cmd])
        doc["generators"] = hermitian_unit_generator(rng, 4)
    assert_estimate_bounds_the_peak(tmp_path, monkeypatch, doc, "full")


@pytest.mark.parametrize("tol", [0.0, -1.0, 1.0, 5.0, float("nan"), "abc", 10**400])
def test_run_scenario_rejects_tol_outside_0_1(tmp_path, capsys, tol):
    out = tmp_path / "r.json"
    assert run_scenario(BASIC, str(out), tol=tol) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and repr(tol) in err
    assert "Traceback" not in err and "scenario error" not in err
    assert not out.exists()


@pytest.mark.parametrize("emit", ["everything", "", "DIMS", None, 1, ["dims"]])
def test_run_scenario_rejects_unknown_emit_bases(tmp_path, capsys, monkeypatch, emit):
    # rejected before the scenario is read, and the old report stays as it was
    monkeypatch.setattr(cli, "load_scenario", lambda path: pytest.fail("scenario was read"))
    out = tmp_path / "r.json"
    out.write_bytes(b"old report")
    assert run_scenario(BASIC, str(out), emit_bases=emit) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and repr(emit) in err and "none, dims, full" in err
    assert out.read_bytes() == b"old report"


@pytest.mark.parametrize("tol", [1e-9, np.float64(1e-9), "1e-9"])
def test_run_scenario_takes_a_float_like_tol(tmp_path, tol):
    out = tmp_path / "r.json"
    assert run_scenario(BASIC, str(out), tol=tol) == 0
    assert json.loads(out.read_text())["tol"] == 1e-9


def outcome(parse):
    """("ok", value) or ("error", path, message) of ``parse()``."""
    try:
        return ("ok", parse())
    except ScenarioError as e:
        return ("error", e.path, str(e))


# numbers the walk accepts, and values it rejects: bools, a 400-digit int,
# a string, None, 3-part and bad pairs, and lists in place of numbers
GOOD_PARTS = [0, 1, -3, 2**70, 0.5, -0.0, 5e-324, 1.7976931348623157e308]
GOOD_ENTRY = st.sampled_from(GOOD_PARTS) | st.floats(allow_nan=False, allow_infinity=False) | st.lists(
    st.sampled_from(GOOD_PARTS), min_size=2, max_size=2
)
# copied as drawn, since the edits below change lists in place
HOSTILE = st.sampled_from(
    [True, False, 10**400, -(10**400), "x", None, float("inf"), [1, True], [1, 0, 0], [10**400, 0], [], [[1]]]
).map(copy.deepcopy)
ENTRY = GOOD_ENTRY | HOSTILE


def damage(draw, items, hostile):
    """Apply 0-2 drawn edits inside the items of a list: replace, drop or add a value at any depth."""
    for _ in range(draw(st.integers(0, 2)) if items else 0):
        node = items[draw(st.integers(0, len(items) - 1))]
        while isinstance(node, list) and node and draw(st.booleans()):
            child = node[draw(st.integers(0, len(node) - 1))]
            if not isinstance(child, list):
                break
            node = child
        if not isinstance(node, list) or not node:
            continue
        k = draw(st.integers(0, len(node) - 1))
        edit = draw(st.sampled_from(["replace", "drop", "add"]))
        if edit == "replace":
            node[k] = draw(hostile)
        elif edit == "drop":
            del node[k]
        else:
            node.insert(k, copy.deepcopy(node[k]))


@st.composite
def matrix_sections(draw):
    """A section of 1-3 matrices of 1-3 x 1-3 entries, each shape its own, some damaged."""
    shapes = draw(st.lists(st.tuples(st.integers(1, 3), st.integers(1, 3)), min_size=1, max_size=3))
    entry = GOOD_ENTRY if draw(st.booleans()) else ENTRY
    section = [[[draw(entry) for _ in range(c)] for _ in range(r)] for r, c in shapes]
    damage(draw, section, HOSTILE)
    if draw(st.integers(0, 9)) == 0:
        section[draw(st.integers(0, len(section) - 1))] = draw(HOSTILE)
    return section, shapes


@settings(max_examples=400, deadline=None)
@given(matrix_sections())
def test_bulk_matrix_parse_matches_the_walk(case):
    raws, shapes = case
    paths = [f"$.m[{k}]" for k in range(len(raws))]
    walk = outcome(lambda: [scenario._walk_matrix(v, r, c, p) for v, (r, c), p in zip(raws, shapes, paths)])
    got = outcome(lambda: scenario._parse_matrices(raws, shapes, paths))
    if walk[0] == "error":
        assert got == walk
        return
    # the walk runs only on what the bulk check rejects: here nothing
    bulk = scenario._bulk_matrices(raws, shapes)
    assert bulk is not None and got[0] == "ok"
    for a, b in zip(bulk, walk[1]):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()  # -0.0 included


NET_CTX = Context(1)
NET_GENERATORS = {name: Arrow(unit_obj(), unit_obj(), NET_CTX, [[k + 1.0]]) for k, name in enumerate("ab")}
COORD_HOSTILE = st.sampled_from([True, 1.0, "1", None, 10**400, [0, 0, 0], [0], {}]).map(copy.deepcopy)


def _is_int_pair(v):
    return type(v) is list and len(v) == 2 and all(type(c) is int for c in v)


@st.composite
def cone_sections(draw):
    """Cones near a corner that may sit past int64, inside the bounds unless an edit moves them."""
    t0, x0 = draw(st.sampled_from([(0, 0), (2**63, -(2**64)), (-(2**64), 2**64), (5, -7)]))
    cones = []
    for _ in range(draw(st.integers(0, 5))):
        t, x = t0 + draw(st.integers(0, 3)), x0 + draw(st.integers(-3, 3))
        a, b = draw(st.integers(0, 2)), draw(st.integers(0, 2))
        cone = {"lo": [t, x], "hi": [t + a + b, x + a - b]}
        if draw(st.booleans()):
            cone["generators"] = draw(st.lists(st.sampled_from(["a", "b"]), max_size=2, unique=True))
        cones.append(cone)
    for _ in range(draw(st.integers(0, 2)) if cones else 0):
        cone = cones[draw(st.integers(0, len(cones) - 1))]
        edit = draw(st.sampled_from(["swap", "move", "duplicate", "end", "coordinate", "names", "name", "drop"]))
        if not (isinstance(cone, dict) and all(_is_int_pair(cone.get(end)) for end in ("lo", "hi"))):
            continue  # a cone that an earlier edit broke
        if edit == "swap":
            cone["lo"], cone["hi"] = cone["hi"], cone["lo"]
        elif edit == "move":
            cone["hi"] = [v + 20 for v in cone["hi"]]  # still ordered, but out of bounds
        elif edit == "duplicate":
            cones.append(copy.deepcopy(cone))
        elif edit == "end":
            cone[draw(st.sampled_from(["lo", "hi"]))] = draw(COORD_HOSTILE)
        elif edit == "coordinate":
            cone[draw(st.sampled_from(["lo", "hi"]))][draw(st.integers(0, 1))] = draw(COORD_HOSTILE)
        elif edit == "names":
            cone["generators"] = draw(st.sampled_from(["a", None, {"a": 1}]))
        elif edit == "name":
            cone["generators"] = ["a", draw(st.sampled_from(["zz", 1, None, ["a"], True]))]
        else:  # the cone itself
            cones[cones.index(cone)] = draw(st.sampled_from([None, [], "cone", {}]))
    bounds = LatticeBounds(t0, t0 + 8, x0 - 6, x0 + 6)
    return cones, bounds


@settings(max_examples=400, deadline=None)
@given(cone_sections())
def test_bulk_net_parse_matches_the_walk(case):
    raw_cones, bounds = case
    args = (raw_cones, bounds, NET_CTX, NET_GENERATORS)
    walk = outcome(lambda: scenario._walk_net(*args))
    got = outcome(lambda: scenario._bulk_net(*args) or scenario._walk_net(*args))
    if walk[0] == "error":
        assert got == walk
        return
    bulk = scenario._bulk_net(*args)
    assert bulk is not None and got[0] == "ok"
    (net, echo), (want, want_echo) = bulk, walk[1]
    assert echo == want_echo
    assert list(net.assignments.items()) == list(want.assignments.items())
    for a, b in zip(net._ends, want._ends):
        assert a.dtype == b.dtype and a.shape == b.shape and (a == b).all()


def test_load_scenario_file_errors(tmp_path):
    with pytest.raises(ScenarioError) as exc:
        load_scenario(str(tmp_path / "missing.json"))
    assert exc.value.path == "$"
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ScenarioError) as exc:
        load_scenario(str(bad))
    assert exc.value.path == "$"


@pytest.mark.parametrize(
    "raw",
    [json.dumps(base_doc(objects=[{"name": "@", "dim": 1}])).encode().replace(b"@", b"\xff"), b"[" * 100_000],
    ids=["undecodable-name", "deep-nesting"],
)
def test_unparseable_scenario_file_exits_2(tmp_path, capsys, raw):
    # a raw 0xff byte is no UTF-8, and 100,000 open brackets nest past the
    # recursion limit of json.load: both are scenario errors, not tracebacks
    src = tmp_path / "scenario.json"
    src.write_bytes(raw)
    capsys.readouterr()
    assert main(["--input", str(src), "--output", str(tmp_path / "r.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("scenario error: $:") and "Traceback" not in err


@pytest.mark.parametrize("golden", GOLDENS, ids=lambda p: p.stem)
def test_normalize_is_idempotent(golden):
    doc = json.loads(golden.read_text())
    once = parse_scenario(doc).normalized
    twice = parse_scenario(json.loads(json.dumps(once))).normalized
    assert once == twice


def test_unit_object_is_appended_when_missing():
    doc = base_doc(objects=[{"name": "Q", "dim": 2}])
    sc = parse_scenario(doc)
    assert sc.normalized["objects"] == [{"name": "Q", "dim": 2}, {"name": "I", "dim": 1}]
    assert sc.normalized["universe"] == ["Q", "I"]
    assert sc.universe.unit.name == "I"


def test_unit_append_prefers_existing_object():
    doc = base_doc(
        objects=[{"name": "Q", "dim": 2}, {"name": "unit", "dim": 1}],
        universe=["Q"],
    )
    sc = parse_scenario(doc)
    assert sc.normalized["universe"] == ["Q", "unit"]


def test_run_scenario_exit_codes(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert run_scenario(str(GOLDEN_DIR / "commutant_basic.json"), str(out)) == 0

    # nilpotent span fails vn-check -> exit 1
    failing = base_doc(
        generators=[{"name": "raise", "dom": "I", "cod": "I",
                     "matrix": [[0, 1], [0, 0]]},
                    {"name": "lower", "dom": "I", "cod": "I",
                     "matrix": [[0, 0], [1, 0]]}],
        commands=["vn-check"],
    )
    assert run_scenario(write_doc(tmp_path, failing), str(out)) == 1
    rep = json.loads(out.read_text())
    assert rep["pass"] is False
    assert rep["results"][0]["failures"] == [
        {"dom": "I", "cod": "I", "dim": 2, "closure_dim": 4}
    ]

    # broken scenario -> exit 2 with a stderr pointer
    broken = base_doc(hdim=-3)
    capsys.readouterr()
    assert run_scenario(write_doc(tmp_path, broken), str(out)) == 2
    err = capsys.readouterr().err
    assert "scenario error: $.hdim" in err


def test_engine_rejection_maps_to_exit_2(tmp_path, capsys):
    # non-self-adjoint generator without dagger_close: the engine refuses
    doc = base_doc(
        generators=[{"name": "n", "dom": "I", "cod": "I", "matrix": [[0, 1], [0, 0]]}],
        commands=["commutant"],
    )
    assert run_scenario(write_doc(tmp_path, doc), str(tmp_path / "r.json")) == 2
    assert "dagger-closed" in capsys.readouterr().err
    doc["dagger_close"] = True
    assert run_scenario(write_doc(tmp_path, doc), str(tmp_path / "r.json")) == 0


def test_report_envelope_and_dims(tmp_path):
    out = tmp_path / "report.json"
    assert run_scenario(str(GOLDEN_DIR / "commutant_basic.json"), str(out)) == 0
    rep = json.loads(out.read_text())
    assert rep["schema"] == 1
    assert rep["tol"] == 1e-9
    doc = json.loads((GOLDEN_DIR / "commutant_basic.json").read_text())
    assert rep["scenario"] == parse_scenario(doc).normalized
    cmds = [r["command"] for r in rep["results"]]
    assert cmds == ["commutant", "double-commutant", "vn-check", "endo-algebra", "cstar-check"]
    assert all(r["pass"] for r in rep["results"])
    comm = rep["results"][0]
    assert comm["dims"] == [{"dom": "I", "cod": "I", "dim": 2}]
    endo = rep["results"][3]
    assert endo["dim"] == 2 and "basis" not in endo


def test_crossed_golden_values(tmp_path):
    out = tmp_path / "report.json"
    assert run_scenario(str(GOLDEN_DIR / "diagonal_flip_crossed.json"), str(out)) == 0
    rep = json.loads(out.read_text())
    cov, crossed = rep["results"]
    assert cov["command"] == "covariance" and cov["max_residual"] == 0.0
    assert crossed["command"] == "crossed-product" and crossed["endo_dim"] == 4


def test_centre_golden_dims(tmp_path):
    out = tmp_path / "report.json"
    assert run_scenario(str(GOLDEN_DIR / "centre_flip_pair.json"), str(out)) == 0
    rep = json.loads(out.read_text())
    entry = rep["results"][0]
    assert entry["max_factor_defect"] <= 1e-9
    dims = {(d["dom"], d["cod"]): d["dim"] for d in entry["dims"]}
    sizes = {"I": 1, "A": 2, "B": 3}
    assert dims == {
        (a, b): sizes[a] * sizes[b] for a in sizes for b in sizes
    }


CENTRE_OBJECTS = [{"name": "I", "dim": 1}, {"name": "A", "dim": 2}, {"name": "B", "dim": 3}]


@pytest.mark.parametrize("h", range(1, 14))
def test_centre_solves_the_pair_swap_blocks(tmp_path, monkeypatch, h):
    # the oracle of the closed form: the hidden solve's S' of the pair-swap
    # family's blocks is C 1_H, written as I / sqrt(h); centre runs no solve
    blocks = commutant_module._blocks(pair_swap_family(Context(h)), h)
    solved = commutant_module._hidden_commutant(blocks, h, 1e-9)
    assert np.array_equal(solved, np.eye(h)[None] / np.sqrt(h))
    monkeypatch.setattr(commutant_module, "_hidden_commutant", None)
    doc = base_doc(hdim=h, objects=CENTRE_OBJECTS, commands=["centre"])
    out = tmp_path / "r.json"
    assert run_scenario(write_doc(tmp_path, doc), str(out)) == 0
    (entry,) = json.loads(out.read_text())["results"]
    sizes = {o["name"]: o["dim"] for o in CENTRE_OBJECTS}
    assert entry["pass"] is True and entry["max_factor_defect"] < 1e-15
    assert all(d["dim"] == sizes[d["dom"]] * sizes[d["cod"]] for d in entry["dims"])


def test_every_hidden_solve_is_a_hidden_algebra_property(tmp_path, monkeypatch):
    # S' and S'' have one owner: whatever asks for them, only the two
    # HiddenAlgebra properties call the solve
    owners = {getattr(HiddenAlgebra, name).func.__code__: name for name in ("commutant", "bicommutant")}
    callers = []
    solve = commutant_module._hidden_commutant

    def spied(*args):
        code = sys._getframe(1).f_code
        callers.append(owners.get(code, code.co_name))
        return solve(*args)

    monkeypatch.setattr(commutant_module, "_hidden_commutant", spied)
    out = str(tmp_path / "r.json")
    doc = base_doc(hdim=3, objects=CENTRE_OBJECTS, commands=["centre"])
    assert run_scenario(write_doc(tmp_path, doc), out) == 0
    ctx = Context(2)
    universe = ObjectUniverse((unit_obj(), Obj("A", 2)), ctx)
    f = Arrow(unit_obj(), Obj("A", 2), ctx, np.arange(8).reshape(4, 2))
    gens = [f, dagger(f)]
    commutant_module.commutant(gens, universe)
    double_commutant(gens, universe)
    is_von_neumann(span_category(gens, universe))
    crossed_product(gens, regular_rep(cyclic_group(2)), universe)
    for golden in GOLDENS:
        assert run_scenario(str(golden), out, emit_bases="full") in (0, 1)
    assert set(callers) == {"commutant", "bicommutant"}


def test_centre_builds_no_pair_swap_arrows(tmp_path):
    # the 28 pair-swap arrows of h = 8 (h^4 entries each), their daggers and
    # the span test over them took the run's peak to 11 MB
    path = write_doc(tmp_path, base_doc(hdim=8, objects=CENTRE_OBJECTS, commands=["centre"]))
    out = str(tmp_path / "r.json")
    assert run_scenario(path, out) == 0  # warm-up
    tracemalloc.start()
    try:
        code = run_scenario(path, out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and peak < 5 * 2**20


@pytest.mark.parametrize("emit", ["dims", "full"])
@pytest.mark.parametrize("golden", GOLDENS, ids=lambda p: p.stem)
def test_goldens_reproduce_across_processes(tmp_path, golden, emit):
    # str hashes are salted per process: a report that followed the order of
    # a set or a hash-keyed table would differ between the two seeds
    want = tmp_path / "in_process.json"
    assert run_scenario(str(golden), str(want), emit_bases=emit) == 0
    for seed in ("0", "1"):
        out = tmp_path / f"hashseed{seed}.json"
        argv = [sys.executable, "-m", "vncat", "--input", str(golden), "--output", str(out)]
        argv += ["--emit-bases", emit]
        assert subprocess.run(argv, env=src_env(PYTHONHASHSEED=seed)).returncode == 0
        assert out.read_bytes() == want.read_bytes()


@pytest.mark.parametrize("emit", ["none", "dims", "full"])
@pytest.mark.parametrize("golden", GOLDENS, ids=lambda p: p.stem)
def test_stdout_through_a_pipe_matches_the_report_file(tmp_path, golden, emit):
    out = tmp_path / "report.json"
    code = main(["--input", str(golden), "--output", str(out), "--emit-bases", emit])
    argv = [sys.executable, "-m", "vncat", "--input", str(golden), "--emit-bases", emit]
    run = subprocess.run(argv, env=src_env(), stdout=subprocess.PIPE)
    assert run.returncode == code
    assert run.stdout == out.read_bytes()


def test_causality_golden_report(tmp_path):
    out = tmp_path / "report.json"
    assert run_scenario(str(GOLDEN_DIR / "light_cones.json"), str(out)) == 0
    rep = json.loads(out.read_text())
    entry = rep["results"][0]
    assert entry["isotony"]["pass"] and entry["isotony"]["violations"] == []
    assert entry["causality"]["pass"]
    assert entry["causality"]["max_residual"] <= 1e-12
    assert entry["causality"]["violations"] == 0


def test_emit_bases_modes(tmp_path):
    src = str(GOLDEN_DIR / "commutant_basic.json")
    reports = {}
    for mode in ("none", "dims", "full"):
        out = tmp_path / f"{mode}.json"
        assert run_scenario(src, str(out), emit_bases=mode) == 0
        reports[mode] = json.loads(out.read_text())
    first = {m: r["results"][0] for m, r in reports.items()}
    assert "dims" not in first["none"] and "bases" not in first["none"]
    assert "dims" in first["dims"] and "bases" not in first["dims"]
    assert "dims" in first["full"] and "bases" in first["full"]
    block = first["full"]["bases"][0]
    assert block["dom"] == "I" and block["cod"] == "I"
    assert len(block["matrices"]) == 2
    entry = block["matrices"][0][0][0]
    assert isinstance(entry, list) and len(entry) == 2
    endo_full = reports["full"]["results"][3]
    assert len(endo_full["basis"]) == endo_full["dim"]


def tol_flip_doc():
    swap = [[0, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 0]]
    near = [[1, 0, 0, 0], [0, 1, 0.001, 0], [0, 0.001, 1, 0], [0, 0, 0, 1]]
    return {
        "schema": 1,
        "hdim": 2,
        "tol": 0.01,
        "objects": [{"name": "I", "dim": 1}, {"name": "H", "dim": 2}],
        "generators": [
            {"name": "hard", "dom": "H", "cod": "H", "matrix": swap},
            {"name": "soft", "dom": "H", "cod": "H", "matrix": near},
        ],
        "net": {
            "bounds": {"t": [0, 1], "x": [-3, 3]},
            "cones": [
                {"lo": [0, -3], "hi": [1, -3], "generators": ["hard"]},
                {"lo": [0, 3], "hi": [1, 3], "generators": ["soft"]},
            ],
        },
        "commands": ["causality"],
    }


def test_tol_override_flips_verdict(tmp_path):
    path = write_doc(tmp_path, tol_flip_doc())
    out = tmp_path / "r.json"
    assert run_scenario(path, str(out)) == 0  # scenario tol 1e-2
    assert run_scenario(path, str(out), tol=1e-4) == 1
    rep = json.loads(out.read_text())
    assert rep["tol"] == 1e-4
    res = rep["results"][0]["causality"]["max_residual"]
    assert 5e-4 < res < 2e-3


def test_tiny_generator_is_zero_for_every_command(tmp_path):
    # 1e-12 Z is below tol, so span, commutant and closure all read it as 0
    gen = {"dom": "I", "cod": "I", "matrix": [[1e-12, 0], [0, -1e-12]]}
    doc = base_doc(generators=[gen], commands=["commutant", "double-commutant", "vn-check"])
    out = tmp_path / "r.json"
    assert run_scenario(write_doc(tmp_path, doc), str(out)) == 1
    comm, closure, vn = json.loads(out.read_text())["results"]
    assert [d["dim"] for d in comm["dims"]] == [4]
    assert [d["dim"] for d in closure["dims"]] == [1]
    assert [d["dim"] for d in vn["dims"]] == [0]
    assert vn["failures"] == [{"dom": "I", "cod": "I", "dim": 0, "closure_dim": 1}]


def test_reports_are_byte_deterministic(tmp_path):
    for golden in GOLDENS:
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert run_scenario(str(golden), str(a)) == 0
        assert run_scenario(str(golden), str(b), threads=2) == 0
        assert a.read_bytes() == b.read_bytes()


def test_timings_flag_adds_wall_ms(tmp_path):
    out = tmp_path / "r.json"
    assert run_scenario(str(GOLDEN_DIR / "commutant_basic.json"), str(out), timings=True) == 0
    rep = json.loads(out.read_text())
    assert all("wall_ms" in r for r in rep["results"])
    assert run_scenario(str(GOLDEN_DIR / "commutant_basic.json"), str(out)) == 0
    rep = json.loads(out.read_text())
    assert all("wall_ms" not in r for r in rep["results"])


def test_stdout_is_the_default_sink(tmp_path, capsys):
    assert run_scenario(str(GOLDEN_DIR / "commutant_basic.json")) == 0
    printed = capsys.readouterr().out
    rep = json.loads(printed)
    assert rep["pass"] is True


def test_main_argument_validation(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["--input", "x.json", "--tol", "2"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["--input", "x.json", "--emit-bases", "everything"])
    assert exc.value.code == 2


def test_main_runs_scenarios(tmp_path):
    out = tmp_path / "r.json"
    code = main(["--input", str(GOLDEN_DIR / "light_cones.json"), "--output", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["pass"] is True
    # a 400-digit tolerance is a scenario error, not a traceback
    huge_tol = tmp_path / "huge_tol.json"
    huge_tol.write_text(json.dumps(base_doc(tol=10**400)))
    assert main(["--input", str(huge_tol), "--output", str(out)]) == 2
    # so are a 10**9-column generator, a universe too large to hold and a
    # causality net of over 2**21 cone pairs
    for doc in (base_doc(**WIDE_GENERATOR), base_doc(hdim=100), base_doc(**unit_cones_doc(2049))):
        assert main(["--input", write_doc(tmp_path, doc), "--output", str(out)]) == 2


def test_empty_generator_commutant_has_full_homs(tmp_path):
    doc = base_doc(objects=[{"name": "I", "dim": 1}, {"name": "A", "dim": 2}])
    out = tmp_path / "r.json"
    assert run_scenario(write_doc(tmp_path, doc), str(out)) == 0
    rep = json.loads(out.read_text())
    dims = {(d["dom"], d["cod"]): d["dim"] for d in rep["results"][0]["dims"]}
    sizes = {"I": 1, "A": 2}
    assert dims == {
        (a, b): (sizes[a] * 2) * (sizes[b] * 2) for a in sizes for b in sizes
    }


def test_subprocess_entry_points(tmp_path):
    # the child imports this checkout's package, installed or not
    env = dict(os.environ)
    src = str(GOLDEN_DIR.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    out = tmp_path / "r.json"
    run = subprocess.run(
        [sys.executable, "-m", "vncat", "--input", str(GOLDEN_DIR / "diagonal_flip_crossed.json"),
         "--output", str(out)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert run.returncode == 0, run.stderr
    assert json.loads(out.read_text())["pass"] is True

    bad = tmp_path / "broken.json"
    bad.write_text("{")
    run = subprocess.run(
        [sys.executable, "-m", "vncat", "--input", str(bad)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert run.returncode == 2
    assert "scenario error" in run.stderr


# -- one hidden algebra per run -------------------------------------------------


def matrix_json(m):
    return [[[float(v.real), float(v.imag)] for v in row] for row in np.asarray(m)]


def block_element(rng, blocks, u, hermitian=True):
    """A generic element of u ((+)_k M_{n_k} (x) 1_{m_k}) u*."""
    h = sum(n * m for n, m in blocks)
    out = np.zeros((h, h), dtype=complex)
    at = 0
    for n, m in blocks:
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        out[at : at + n * m, at : at + n * m] = np.kron(a + a.conj().T if hermitian else a, np.eye(m))
        at += n * m
    return u @ out @ u.conj().T


def closure_doc(rng, blocks, hermitian=True, **extra):
    """Two generators of one block algebra, on I and on I -> X2, for every closure command."""
    h = sum(n * m for n, m in blocks)
    q = np.linalg.qr(rng.standard_normal((h, h)) + 1j * rng.standard_normal((h, h)))[0]
    on_x2 = np.vstack([block_element(rng, blocks, q, hermitian) for _ in range(2)])
    doc = base_doc(
        hdim=h,
        objects=[{"name": "I", "dim": 1}, {"name": "X2", "dim": 2}],
        generators=[
            {"name": "a", "dom": "I", "cod": "I", "matrix": matrix_json(block_element(rng, blocks, q, hermitian))},
            {"name": "b", "dom": "I", "cod": "X2", "matrix": matrix_json(on_x2)},
            {"name": "b*", "dom": "X2", "cod": "I", "matrix": matrix_json(on_x2.conj().T)},
        ],
        commands=["commutant", "double-commutant", "vn-check", "endo-algebra"],
    )
    doc.update(extra)
    return doc


@pytest.mark.parametrize("hermitian", [True, False])
def test_closure_commands_share_one_check_and_two_solves(tmp_path, monkeypatch, hermitian):
    # commutant, double-commutant, vn-check and endo-algebra on one generator
    # set: one dagger check, one S' solve and one S'' solve for the whole run
    solves, checks = [], []
    solve, missing = commutant_module._hidden_commutant, commutant_module._missing_daggers

    def spied(mats, h, *args):
        solves.append(h)
        return solve(mats, h, *args)

    def checked(gens, *args):
        checks.append(len(gens))
        return missing(gens, *args)

    monkeypatch.setattr(commutant_module, "_hidden_commutant", spied)
    monkeypatch.setattr(commutant_module, "_missing_daggers", checked)
    doc = closure_doc(np.random.default_rng(5), [(1, 1), (2, 1)], hermitian, dagger_close=not hermitian)
    # three generators span less than M (x) S'', so vn-check fails: exit 1
    assert run_scenario(write_doc(tmp_path, doc), str(tmp_path / "r.json")) == 1
    assert solves == [3, 3]
    assert checks == [3]


def test_dagger_check_follows_command_order(tmp_path, capsys):
    # vn-check closes the set itself; a later command that may not is refused
    # at its own path, as if vn-check had not run
    gen = {"name": "n", "dom": "I", "cod": "I", "matrix": [[0, 1], [0, 0]]}
    out = tmp_path / "r.json"
    doc = base_doc(generators=[gen], commands=["vn-check", "commutant"])
    assert run_scenario(write_doc(tmp_path, doc), str(out)) == 2
    assert "scenario error: $.commands[1]: generator set is not dagger-closed" in capsys.readouterr().err
    doc["commands"] = ["vn-check"]
    assert run_scenario(write_doc(tmp_path, doc), str(out)) == 1
    failures = json.loads(out.read_text())["results"][0]["failures"]
    assert failures == [{"dom": "I", "cod": "I", "dim": 1, "closure_dim": 4}]


def test_runs_share_nothing_across_scenarios(tmp_path, monkeypatch):
    # scenarios A, B, A, B in one process, same hdim, different algebras: each
    # report is the one a lone process writes for that scenario, and each
    # run's hidden algebra is gone once the run returns, so no later
    # scenario (one at a reused address, say) can read it
    made = []

    def tracked(*args):
        hidden = HiddenAlgebra(*args)
        made.append(weakref.ref(hidden))
        return hidden

    monkeypatch.setattr(cli, "HiddenAlgebra", tracked)
    env = dict(os.environ)
    src = str(GOLDEN_DIR.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    paths, lone = [], []
    for name, blocks in (("a", [(1, 1)] * 3), ("b", [(1, 1), (2, 1)])):
        paths.append(write_doc(tmp_path, closure_doc(np.random.default_rng(6), blocks), f"{name}.json"))
        out = tmp_path / f"{name}.lone.json"
        run = subprocess.run(
            [sys.executable, "-m", "vncat", "--input", paths[-1], "--output", str(out), "--emit-bases", "full"],
            capture_output=True, text=True, env=env,
        )
        assert run.returncode == 1, run.stderr  # vn-check fails, as above
        lone.append(out.read_bytes())
    assert lone[0] != lone[1]
    for i in (0, 1, 0, 1):
        out = tmp_path / "shared.json"
        assert run_scenario(paths[i], str(out), emit_bases="full") == 1
        assert out.read_bytes() == lone[i]
        gc.collect()
        assert made[-1]() is None
    assert len(made) == 4


def star_closed_blocks(gens, h):
    """Every h x h block of every generator matrix, with its conjugate transpose."""
    blocks = [np.eye(h)]  # commutes with everything, so no commutant changes
    for m in gens:
        for y in range(0, len(m), h):
            for x in range(0, len(m[0]), h):
                blocks += [m[y : y + h, x : x + h], m[y : y + h, x : x + h].conj().T]
    return blocks


@settings(max_examples=40, deadline=None)
@given(
    blocks=st.sampled_from([[(1, 1)], [(1, 1)] * 2, [(2, 1)], [(1, 2)], [(1, 1)] * 3,
                            [(1, 1), (2, 1)], [(1, 1), (1, 2)], [(3, 1)], [(1, 3)]]),
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["closed", "open", "near", "closure"]),
    ends=st.lists(st.tuples(st.booleans(), st.booleans()), min_size=1, max_size=3),
    offset=st.sampled_from([1e-3, 1e-13]),
)
def test_vn_check_matches_the_classical_oracle(blocks, seed, kind, ends, offset):
    # vn-check reads its closure from the run's shared S''; the classical
    # route solves S' and S'' again from the star-closed blocks of the
    # generators, with no premonoidal machinery, and must give every
    # closure_dim and the verdict
    rng = np.random.default_rng(seed)
    h = sum(n * m for n, m in blocks)
    q = np.linalg.qr(rng.standard_normal((h, h)) + 1j * rng.standard_normal((h, h)))[0]
    dims = {"I": 1, "X2": 2}
    gens = []
    for dom, cod in (("X2" if a else "I", "X2" if b else "I") for a, b in ends):
        grid = [[block_element(rng, blocks, q, False) for _ in range(dims[dom])] for _ in range(dims[cod])]
        g = (dom, cod, np.block(grid))
        gens.append(g)
        if kind == "closed":
            gens.append((cod, dom, g[2].conj().T))
        elif kind == "near":  # a partner within ``offset`` of g
            gens.append((dom, cod, g[2] + offset * rng.standard_normal(g[2].shape)))
    if kind == "closure":  # every basis arrow of the double commutant: vn-check passes
        ctx, objs = Context(h), {n: Obj(n, d) for n, d in dims.items()}
        arrows = [Arrow(objs[d], objs[c], ctx, m) for d, c, m in gens]
        closed = double_commutant(arrows, ObjectUniverse(tuple(objs.values()), ctx), auto_close=True)
        gens = [(f.dom.name, f.cod.name, f.mat) for f in closed.all_arrows()]
    doc = base_doc(
        hdim=h,
        objects=[{"name": n, "dim": d} for n, d in dims.items()],
        generators=[{"dom": d, "cod": c, "matrix": matrix_json(m)} for d, c, m in gens],
        commands=["vn-check"],
    )
    second = classical_commutant(classical_commutant(star_closed_blocks([m for _, _, m in gens], h)))
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "s.json", Path(tmp) / "r.json"
        path.write_text(json.dumps(doc))
        code = run_scenario(str(path), str(out))
        result = json.loads(out.read_text())["results"][0]
    want = [
        {"dom": d["dom"], "cod": d["cod"], "dim": d["dim"], "closure_dim": closure}
        for d in result["dims"]
        for closure in [dims[d["dom"]] * dims[d["cod"]] * len(second)]
        if d["dim"] != closure
    ]
    assert result["failures"] == want
    assert result["pass"] == (not want)
    assert code == (0 if not want else 1)
    if kind == "closure":
        assert code == 0


def scaled_doc(size, rng):
    """hdim 3, objects I and A, a random f: I -> A of norm about ``size`` and its dagger, C3 by a conjugated rep."""
    w = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))[0]
    rep = [w @ m @ w.conj().T for m in regular_rep(cyclic_group(3)).mats]
    f = size * (rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3)))
    return base_doc(
        hdim=3,
        objects=[{"name": "I", "dim": 1}, {"name": "A", "dim": 2}],
        generators=[
            {"dom": "I", "cod": "A", "matrix": matrix_json(f)},
            {"dom": "A", "cod": "I", "matrix": matrix_json(f.conj().T)},
        ],
        group={"elements": ["e", "r1", "r2"], "table": [[(i + j) % 3 for j in range(3)] for i in range(3)]},
        rep=[matrix_json(m) for m in rep],
    )


TOL_SWEEP = np.geomspace(1e-16, 1e-2, 43).tolist()


@pytest.mark.parametrize("size", [1e-2, 1.0, 1e5])
def test_routed_command_verdicts_keep_the_relative_cut(size, monkeypatch):
    # every tol of the sweep: the verdict is relative(x, s) <= tol with the
    # scale the command had before its verdicts went through linalg.within;
    # at size 1e5 some tols pass a residual only by its scale
    sc = parse_scenario(scaled_doc(size, np.random.default_rng(int(size * 100))))
    gens = sc.generators
    norms = {f: f.norm() for f in gens}
    seen = []
    defect = cli.central_defect

    def recorded(f):
        seen.append(f)
        return defect(f)

    monkeypatch.setattr(cli, "central_defect", recorded)
    by_scale = 0
    for tol in TOL_SWEEP:
        cov = cli._cmd_covariance(sc, tol, "none", None)
        x = cov["max_residual"]
        assert cov["pass"] == (relative(x, max(norms.values())) <= tol)
        by_scale += cov["pass"] and x > tol
        cstar = cli._cmd_cstar_check(sc, tol, "none", None)
        pairs = [(s, t) for s in gens for t in gens if t.cod == s.dom]
        scale = max(max(norms[s] * norms[t], norms[s] ** 2) for s, t in pairs)
        assert cstar["pass"] == all(relative(w, scale) <= tol for w in cstar["max_residuals"].values())
        by_scale += cstar["pass"] and max(cstar["max_residuals"].values()) > tol
        seen.clear()
        centre = cli._cmd_centre(sc, tol, "none", None)
        assert centre["pass"] == all(relative(defect(f), f.norm()) <= tol for f in seen)
    if size > 1e3:
        assert by_scale > 0
    if size < 1:  # every scale is below 1, so relative(x, s) is x itself
        assert by_scale == 0


def test_a_passing_covariance_reads_no_arrow_norm(tmp_path, monkeypatch):
    def refuse(self):
        raise AssertionError("read an arrow's norm")

    monkeypatch.setattr(Arrow, "norm", refuse)
    doc = dict(scaled_doc(1.0, np.random.default_rng(3)), commands=["covariance"])
    out = tmp_path / "r.json"
    assert run_scenario(write_doc(tmp_path, doc), str(out)) == 0
    assert json.loads(out.read_text())["results"][0]["pass"] is True
