"""Seeded scenario generators for the benchmark workloads.

Every workload is a fixed list of templates.  A template pins down all that
the frozen reference depends on: hdim, universe, the block structure of the
generated algebra, group and representation kind, cone geometry, generator
kinds and commands.  The seed draws only what leaves that reference
unchanged:

- a Haar-random unitary change of basis of the hidden space;
- generic generator entries inside the template's structure;
- for nets, a lattice translation, a mirror image and the order of the cones.

So any seed is checked against the same frozen reduced reports
(``references.json``), and a held-out seed exercises new numbers with a
known answer.  Each workload's first template is a cheap one; ``limit``
keeps a prefix of the list for the self-test's tiny instances.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

WORKLOADS = ("closure", "crossed", "causal_net", "full_bases")


@dataclass(frozen=True)
class Case:
    """One generated scenario: its id, the document, and how to run it."""

    sid: str
    doc: dict
    emit_bases: str = "dims"
    # full_bases: the generator's diagonal, from which the spanned
    # subspaces are known in closed form
    diagonal: tuple = field(default=())


# -- random building blocks ----------------------------------------------------


def _cplx(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _unitary(rng, n):
    q, r = np.linalg.qr(_cplx(rng, (n, n)))
    d = np.diag(r)
    return q * (d / np.abs(d))


def _hermitian(rng, n):
    a = _cplx(rng, (n, n))
    return (a + a.conj().T) / 2


def _block_element(rng, blocks, hermitian):
    """Generic element of the algebra (+)_k M_{n_k} (x) I_{m_k}."""
    h = sum(n * m for n, m in blocks)
    out = np.zeros((h, h), dtype=np.complex128)
    at = 0
    for n, m in blocks:
        b = _hermitian(rng, n) if hermitian else _cplx(rng, (n, n))
        out[at : at + n * m, at : at + n * m] = np.kron(b, np.eye(m))
        at += n * m
    return out


def _matrix_json(m) -> list:
    return [[[float(v.real), float(v.imag)] for v in row] for row in np.asarray(m)]


def _objects(dims):
    return [{"name": "I" if d == 1 else f"X{d}", "dim": d} for d in dims]


def _unit_gen(name, mat):
    return {"name": name, "dom": "I", "cod": "I", "matrix": _matrix_json(mat)}


def _template_rng(workload: str, tid: str):
    """Fixed stream for template structure; independent of the workload seed."""
    return np.random.default_rng(zlib.crc32(f"{workload}/{tid}".encode()))


# -- closure: commutant / double commutant / vn-check / endo-algebra ---------

ALL_CLOSURE = ["commutant", "double-commutant", "vn-check", "endo-algebra"]

# (id, hdim, blocks [(n_k, m_k)], universe dims, generator count,
#  hermitian generators (else dagger_close), commands)
CLOSURE = (
    ("h3-u123", 3, [(1, 1), (1, 1), (1, 1)], (1, 2, 3), 2, True, ["commutant"]),
    ("h3-u12", 3, [(1, 1), (2, 1)], (1, 2), 2, True, ALL_CLOSURE),
    ("h4-u123", 4, [(2, 1), (1, 2)], (1, 2, 3), 2, True, ["commutant"]),
    ("h4-u12-close", 4, [(2, 1), (1, 2)], (1, 2), 2, False,
     ["commutant", "double-commutant", "vn-check"]),
    ("h6-u123", 6, [(3, 1), (1, 3)], (1, 2, 3), 2, True, ["commutant"]),
    ("h5-u12", 5, [(1, 3), (2, 1)], (1, 2), 2, True, ["commutant", "endo-algebra"]),
    ("h6-u12", 6, [(1, 2), (2, 1), (1, 2)], (1, 2), 2, True,
     ["commutant", "double-commutant"]),
)


def _closure(rng, limit):
    out = []
    for tid, h, blocks, dims, ngens, herm, cmds in CLOSURE[:limit]:
        u = _unitary(rng, h)
        gens = [
            _unit_gen(f"g{i}", u @ _block_element(rng, blocks, herm) @ u.conj().T)
            for i in range(ngens)
        ]
        doc = {"schema": 1, "hdim": h, "tol": 1e-9}
        if not herm:
            doc["dagger_close"] = True
        doc.update(objects=_objects(dims), generators=gens, commands=list(cmds))
        out.append(Case(f"closure/{tid}", doc))
    return out


# -- crossed: covariance and crossed-product ----------------------------------


def _cyclic(n):
    labels = ["e"] + [f"r{k}" for k in range(1, n)]
    return labels, [[(i + j) % n for j in range(n)] for i in range(n)]


def _symmetric(n):
    from itertools import permutations

    perms = sorted(permutations(range(n)))
    idx = {p: i for i, p in enumerate(perms)}
    labels = ["".join(map(str, p)) for p in perms]
    table = [[idx[tuple(p[q[i]] for i in range(n))] for q in perms] for p in perms]
    return labels, table


def _regular(table):
    n = len(table)
    mats = []
    for g in range(n):
        p = np.zeros((n, n), dtype=np.complex128)
        for j in range(n):
            p[table[g][j], j] = 1.0
        mats.append(p)
    return mats


# (id, group, rep kind, hdim, universe dims, commands); the enlarged hidden
# dimension hdim*|G| runs from 4 to 24
CROSSED = (
    ("c3-regular", ("C", 3), "regular", 3, (1,), ["covariance", "crossed-product"]),
    ("s3-trivial", ("S", 3), "trivial", 2, (1,), ["covariance", "crossed-product"]),
    ("c6-trivial", ("C", 6), "trivial", 3, (1,), ["crossed-product", "covariance"]),
    ("c2-regular-u12", ("C", 2), "regular", 2, (1, 2), ["covariance", "crossed-product"]),
    ("s4-trivial", ("S", 4), "trivial", 1, (1,), ["covariance"]),
    ("c5-trivial", ("C", 5), "trivial", 3, (1,), ["covariance", "crossed-product"]),
    ("c4-regular", ("C", 4), "regular", 4, (1,), ["covariance", "crossed-product"]),
)


def _crossed(rng, limit):
    out = []
    for tid, (kind, n), rep_kind, h, dims, cmds in CROSSED[:limit]:
        labels, table = _cyclic(n) if kind == "C" else _symmetric(n)
        v = _unitary(rng, h)
        if rep_kind == "regular":
            rep = [v @ p @ v.conj().T for p in _regular(table)]
        else:
            rep = [np.eye(h, dtype=np.complex128) for _ in labels]
        # a charge diagonal in the rotated basis, plus a generic observable
        charge = v @ np.diag(rng.standard_normal(h)) @ v.conj().T
        gens = [_unit_gen("charge", charge)]
        if h > 1:
            gens.append(_unit_gen("obs", _hermitian(rng, h)))
        doc = {
            "schema": 1,
            "hdim": h,
            "tol": 1e-9,
            "objects": _objects(dims),
            "generators": gens,
            "group": {"elements": labels, "table": table},
            "rep": [_matrix_json(m) for m in rep],
            "commands": list(cmds),
        }
        out.append(Case(f"crossed/{tid}", doc))
    return out


# -- causal_net: causality over nets of double cones at hdim 2 ---------------

# Generator kinds at hdim 2.  Arrows of kinds c and w are central and
# interchange with everything; z arrows are diagonal and commute with each
# other; x arrows are generic and interchange with neither z nor x.
_KINDS = {
    "c": ("I", "I"),
    "z": ("I", "I"),
    "x": ("I", "I"),
    "w": ("H", "H"),
}

# (id, cone count, time extent, half width, generator palette per kind,
#  share of large cones, chance of a cone carrying 0, 1 or 2 generators).
# Interchange checks grow with the product of the generator counts of
# spacelike pairs, so the large net carries few.
CAUSAL = (
    ("n60-pass", 60, 12, 14, {"c": 2, "z": 3, "w": 1}, 0.1, (0.3, 0.5, 0.2)),
    ("n120-mixed", 120, 16, 20, {"c": 2, "z": 3, "x": 2, "w": 1}, 0.1, (0.6, 0.35, 0.05)),
    ("n200-mixed", 200, 20, 26, {"c": 2, "z": 4, "x": 2, "w": 2}, 0.08, (0.8, 0.2, 0.0)),
)


def _cone_geometry(trng, count, tmax, half, large_share):
    """Distinct diamonds lo=(t, x), hi=(t+a+b, x+a-b) inside the bounds."""
    cones = []
    seen = set()
    while len(cones) < count:
        if trng.random() < large_share:
            a, b = (int(v) for v in trng.integers(2, 5, size=2))
        else:
            a, b = (int(v) for v in trng.integers(0, 2, size=2))
        t = int(trng.integers(0, tmax - (a + b) + 1))
        x = int(trng.integers(-half + b, half - a + 1))
        key = (t, x, a, b)
        if key in seen:
            continue
        seen.add(key)
        cones.append(((t, x), (t + a + b, x + a - b)))
    return cones


def _net_generators(rng, palette):
    gens = []
    for kind, count in palette.items():
        dom, cod = _KINDS[kind]
        for i in range(count):
            if kind == "c":
                m = (rng.standard_normal() + 1j * rng.standard_normal()) * np.eye(2)
            elif kind == "z":
                m = np.diag(rng.standard_normal(2))
            elif kind == "x":
                m = _hermitian(rng, 2)
            else:  # w: fhat (x) id_H on the object H of dim 2
                m = np.kron(_hermitian(rng, 2), np.eye(2))
            gens.append({"name": f"{kind}{i}", "dom": dom, "cod": cod, "matrix": _matrix_json(m)})
    return gens


def _causal(rng, limit):
    out = []
    for tid, count, tmax, half, palette, large_share, occupancy in CAUSAL[:limit]:
        trng = _template_rng("causal_net", tid)
        geometry = _cone_geometry(trng, count, tmax, half, large_share)
        names = [f"{k}{i}" for k, c in palette.items() for i in range(c)]
        assigned = [
            sorted(trng.choice(names, size=int(trng.choice(3, p=occupancy)), replace=False).tolist())
            for _ in geometry
        ]
        # seeded symmetries of the lattice that keep every causal relation
        dt, dx = (int(v) for v in rng.integers(-50, 51, size=2))
        sign = 1 if rng.random() < 0.5 else -1
        order = rng.permutation(count)
        cones = []
        for k in order:
            (t0, x0), (t1, x1) = geometry[k]
            cones.append(
                {
                    "lo": [t0 + dt, sign * x0 + dx],
                    "hi": [t1 + dt, sign * x1 + dx],
                    "generators": assigned[k],
                }
            )
        xb = sorted((sign * -half + dx, sign * half + dx))
        doc = {
            "schema": 1,
            "hdim": 2,
            "tol": 1e-8,
            "objects": [{"name": "I", "dim": 1}, {"name": "H", "dim": 2}],
            "generators": _net_generators(rng, palette),
            "net": {"bounds": {"t": [dt, tmax + dt], "x": xb}, "cones": cones},
            "commands": ["causality"],
        }
        out.append(Case(f"causal_net/{tid}", doc))
    return out


# -- full_bases: commutant of one diagonal generator, every basis emitted ----

# (id, hdim, multiplicities of the diagonal's distinct values)
FULL = (
    ("h6-split", 6, (2, 2, 1, 1)),
    ("h6", 6, (3, 3)),
    ("h7", 7, (4, 3)),
)


def _full(rng, limit):
    out = []
    for tid, h, mult in FULL[:limit]:
        values = rng.permutation(np.arange(1, len(mult) + 1)) + rng.uniform(-0.25, 0.25, len(mult))
        diagonal = rng.permutation(np.repeat(values, mult))
        doc = {
            "schema": 1,
            "hdim": h,
            "tol": 1e-9,
            "objects": _objects((1, 2, 3)),
            "generators": [_unit_gen("d", np.diag(diagonal))],
            "commands": ["commutant"],
        }
        out.append(Case(f"full_bases/{tid}", doc, "full", tuple(float(v) for v in diagonal)))
    return out


_GENERATORS = {
    "closure": _closure,
    "crossed": _crossed,
    "causal_net": _causal,
    "full_bases": _full,
}


def generate(workload: str, seed: int, limit: int | None = None) -> list[Case]:
    """The workload's scenarios for ``seed``; same seed, same documents."""
    rng = np.random.default_rng([zlib.crc32(workload.encode()), seed])
    return _GENERATORS[workload](rng, limit)


def write_cases(cases: list[Case], directory: Path) -> list[Path]:
    """Write each case as ``<directory>/<template>.json``; returns the paths."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for case in cases:
        p = directory / (case.sid.split("/", 1)[1] + ".json")
        p.write_text(json.dumps(case.doc), encoding="utf-8")
        paths.append(p)
    return paths
