"""Nets of generator sets over double cones in a 1+1 integer lattice.

Events are integer (t, x) points ordered by the light cone: p precedes q
when the time gap dominates the spatial gap.  A double cone is the set of
events between two comparable endpoints, so whether cones are spacelike or
nested follows from the endpoints.  A net assigns arrows to cones; isotony
asks nested cones to have nested spans, and causality asks every arrow pair
across spacelike cones to interchange, each pair measured once.

Both checks get the cone relations of all pairs at once by comparing the
stacked endpoints, a block of cone rows at a time (``linalg.batches``), the
rows of cones with arrows only.  A net stacks its endpoints once, when it is
built, in light-cone coordinates (t + x, t - x), where the causal order is
two comparisons.  Isotony decides each distinct (inner span, outer span)
pair of a hom once: a block's inner arrows against one outer span go through
one ``_in_span`` against its ``_span_range``, taken once per distinct outer
span; an empty span has no columns, so there their norms decide.  Causality
takes each block's spacelike mask once and hands the ordered arrow pairs that
occur to the stacked kernel ``interchange_norms``, one call per pair of block
shapes and batch, whose values equal ``interchange_residuals`` bit for bit; a
zero difference (a commuting pair) takes no SVD.  A cone pair's value is the
largest residual over its arrow pairs, 0.0 when either cone is empty.
``worst`` is the first pair with the largest value in ``combinations``
order, and None when no pair is spacelike; ``violations`` keep that order,
whatever the blocks.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, fields
from itertools import chain
from typing import NamedTuple

import numpy as np

from .category import Context, block_view, interchange_norms
from .category import interchange_residuals  # noqa: F401  (wrapped by bench/spans.py)
from .commutant import _in_span, _span_range, _vecs, group_by_hom
from .commutant import subspace_contains  # noqa: F401  (wrapped by bench/spans.py)
from .linalg import as_integer, batches, operator_norms, relative, within

__all__ = [
    "Event",
    "causal_leq",
    "DoubleCone",
    "LatticeBounds",
    "cone_events",
    "spacelike",
    "CausalNet",
    "IsotonyReport",
    "CausalityReport",
    "check_isotony",
    "check_causality",
]

class Event(NamedTuple):
    t: int
    x: int


def causal_leq(p: Event, q: Event) -> bool:
    """p can influence q: the time difference covers the spatial distance."""
    return q[0] - p[0] >= abs(q[1] - p[1])


@dataclass(frozen=True, init=False)
class DoubleCone:
    """All events between two causally comparable endpoints, each given as a (t, x) pair."""

    lo: Event
    hi: Event

    def __init__(self, lo, hi):
        (t0, x0), (t1, x1) = lo, hi
        if not type(t0) is type(x0) is type(t1) is type(x1) is int:  # exact ints need no conversion
            t0, x0, t1, x1 = map(as_integer, (t0, x0, t1, x1), ("cone coordinate t", "cone coordinate x") * 2)
        object.__setattr__(self, "lo", tuple.__new__(Event, (t0, x0)))  # Event(t0, x0), past its Python-level __new__
        object.__setattr__(self, "hi", tuple.__new__(Event, (t1, x1)))
        if t1 - t0 < abs(x1 - x0):  # not causal_leq(lo, hi)
            raise ValueError(f"cone endpoints are not causally ordered: {self.lo} -> {self.hi}")


@dataclass(frozen=True)
class LatticeBounds:
    tmin: int
    tmax: int
    xmin: int
    xmax: int

    def __post_init__(self):
        for f in fields(self):
            object.__setattr__(self, f.name, as_integer(getattr(self, f.name), f.name))
        if self.tmin > self.tmax or self.xmin > self.xmax:
            raise ValueError("empty lattice bounds")


def cone_events(cone: DoubleCone) -> list[Event]:
    """Integer events e with lo <= e <= hi in the causal order."""
    out = []
    for t in range(cone.lo[0], cone.hi[0] + 1):
        reach = t - cone.lo[0]
        back = cone.hi[0] - t
        xlo = max(cone.lo[1] - reach, cone.hi[1] - back)
        xhi = min(cone.lo[1] + reach, cone.hi[1] + back)
        for x in range(xlo, xhi + 1):
            out.append(Event(t, x))
    return out


def spacelike(c1: DoubleCone, c2: DoubleCone) -> bool:
    """No event of one cone can influence an event of the other.

    Some event of c1 precedes some event of c2 exactly when c1.lo precedes
    c2.hi, because lo <= p <= q <= hi.
    """
    return not (causal_leq(c1.lo, c2.hi) or causal_leq(c2.lo, c1.hi))


@dataclass(frozen=True)
class CausalNet:
    """Assignment of generator arrows to double cones inside fixed bounds."""

    bounds: LatticeBounds
    ctx: Context
    assignments: dict

    def __post_init__(self):
        (tmin, tmax, xmin, xmax), ctx = astuple(self.bounds), self.ctx
        norm = {}
        for k, (cone, arrows) in enumerate(self.assignments.items()):
            if not isinstance(cone, DoubleCone):
                cone = DoubleCone(*cone)
            (t0, x0), (t1, x1) = cone.lo, cone.hi  # t0 <= t1
            if not (tmin <= t0 and t1 <= tmax and xmin <= x0 <= xmax and xmin <= x1 <= xmax):
                raise ValueError(f"cone {cone.lo} -> {cone.hi} leaves the lattice bounds")
            norm[cone] = tuple(arrows)
            if len(norm) == k:  # a cone met before, under another key
                raise ValueError(f"duplicate cone {cone.lo} -> {cone.hi}")
        if any(a.ctx != ctx for a in set(chain.from_iterable(norm.values()))):  # each distinct arrow once
            raise ValueError("net arrows must share the net context")
        object.__setattr__(self, "assignments", norm)
        object.__setattr__(self, "_ends", _endpoints(list(norm)))

    def cones(self) -> list[DoubleCone]:
        return list(self.assignments.keys())


@dataclass(frozen=True)
class IsotonyReport:
    passed: bool
    # (inner cone, outer cone, offending dom name, cod name)
    violations: tuple = ()


@dataclass(frozen=True)
class CausalityReport:
    passed: bool
    worst: tuple | None = None  # (cone a, cone b, residual)
    violations: tuple = ()  # (cone a, cone b, residual) above tolerance


def _endpoints(cones: list[DoubleCone]) -> tuple[np.ndarray, np.ndarray]:
    """The cones' lo and hi events as (2, n) arrays of light-cone (t + x, t - x) rows.

    p <= q in the causal order exactly when both coordinates of p are at
    most those of q.  int64 while no coordinate can overflow, Python ints
    past that.
    """
    coords = [v for c in cones for v in (*c.lo, *c.hi)]
    dtype = np.int64 if max(map(abs, coords), default=0) < 2**61 else object
    t, x = np.array(coords, dtype=dtype).reshape(-1, 2, 2).T
    ends = np.stack([t + x, t - x])  # (u or v, lo or hi, cone)
    return ends[:, 0], ends[:, 1]


def _leq(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """``causal_leq`` broadcast over light-cone endpoint arrays, as a bool array."""
    return (p[0] <= q[0]) & (p[1] <= q[1])


def _spacelike_rows(lo: np.ndarray, hi: np.ndarray, rows: slice) -> np.ndarray:
    """(a, b) with a in ``rows`` and a < b, spacelike: a (len(rows), n) bool block."""
    a_lo, a_hi = lo[:, rows, None], hi[:, rows, None]
    apart = ~(_leq(a_lo, hi[:, None, :]) | _leq(lo[:, None, :], a_hi))
    return apart & (np.arange(lo.shape[1]) > np.arange(rows.start, rows.stop)[:, None])


def _nested_rows(lo: np.ndarray, hi: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """(inner, outer) with inner in ``rows``, an index array, and outer another cone holding it."""
    inside = _leq(lo[:, None, :], lo[:, rows, None]) & _leq(hi[:, rows, None], hi[:, None, :])
    inside[np.arange(len(rows)), rows] = False
    return inside


def check_isotony(net: CausalNet, tol: float = 1e-9) -> IsotonyReport:
    """Nested cones must carry nested generator spans, hom pair by hom pair."""
    cones, assigned = net.cones(), list(net.assignments.values())
    lo, hi = net._ends
    spans: dict = {}  # cone index -> {hom: arrows}, for the cones of nested pairs
    ranges: dict = {}  # (hom, outer arrows) -> orthonormal columns of their span
    contains: dict = {}  # (inner arrows, outer arrows) of one hom -> verdict
    violations = []
    full = np.flatnonzero(list(map(len, assigned)))  # an empty inner cone holds no span to check
    for part in batches(len(full), len(cones)):
        inner_idx, outer_idx = np.nonzero(_nested_rows(lo, hi, full[part]))
        pairs = list(zip(full[part][inner_idx].tolist(), outer_idx.tolist()))
        for c in set(chain.from_iterable(pairs)) - spans.keys():
            spans[c] = {hom: tuple(arrows) for hom, arrows in group_by_hom(assigned[c]).items()}
        undecided: dict = {}  # (hom, outer arrows) -> the inner arrows to decide against them
        for i, o in pairs:
            for hom, small in spans[i].items():
                big = spans[o].get(hom, ())
                if (small, big) not in contains:
                    undecided.setdefault((hom, big), {})[small] = None
        for (hom, big), smalls in undecided.items():
            cols = list(dict.fromkeys(chain.from_iterable(smalls)))  # each distinct inner arrow once
            vs = _vecs([a.mat for a in cols])
            if (hom, big) not in ranges:
                ranges[hom, big] = _span_range([a.mat for a in big], len(vs), tol)
            held = dict(zip(cols, _in_span(ranges[hom, big], vs, tol).tolist()))
            contains.update({(small, big): all(map(held.__getitem__, small)) for small in smalls})
        for i, o in pairs:
            for (dom, cod), small in spans[i].items():
                if not contains[small, spans[o].get((dom, cod), ())]:
                    violations.append((cones[i], cones[o], dom.name, cod.name))
    return IsotonyReport(not violations, tuple(violations))


def check_causality(net: CausalNet, tol: float = 1e-9) -> CausalityReport:
    """Every arrow pair across spacelike-separated cones must interchange."""
    cones, (lo, hi) = net.cones(), net._ends
    index: dict = {}  # distinct arrows, by identity
    members = [[index.setdefault(a, len(index)) for a in arrows] for arrows in net.assignments.values()]
    counts = np.array(list(map(len, members)), dtype=np.intp)
    full = np.flatnonzero(counts)  # a pair with an empty cone is worth 0.0: only cones with arrows are compared
    cone_of = np.fromiter(cones, dtype=object, count=len(cones))[full]
    counts, n, arrows = counts[full], len(full), list(index)
    flat = np.array([i for ids in members for i in ids], dtype=np.intp)
    incidence = np.zeros((n, len(arrows)))
    incidence[np.repeat(np.arange(n), counts), flat] = 1.0
    blocks = batches(n, max(n, len(flat)))  # a cone row's widest temporary
    # each block's spacelike mask, kept for both passes: one bool per pair of cones with arrows
    apart = [_spacelike_rows(lo[:, full], hi[:, full], rows) for rows in blocks]

    # ordered arrow pairs (f of the earlier cone, g of the later) that occur
    occurs = np.zeros((len(arrows), len(arrows)), dtype=bool)
    for rows, mask in zip(blocks, apart):
        occurs |= incidence[rows].T @ (mask @ incidence) > 0
    # the arrows of one block shape form one stack, and the pairs that occur
    # between two stacks are measured by the stacked kernel, in batches
    kinds: dict = {}  # matrix shape -> indices of its arrows
    for k, a in enumerate(arrows):
        kinds.setdefault(a.mat.shape, []).append(k)
    kind = np.empty(len(arrows), dtype=np.intp)
    slot = np.empty(len(arrows), dtype=np.intp)  # position in its stack
    norms = np.empty(len(arrows))
    stacks = []
    for t, ids in enumerate(kinds.values()):
        kind[ids] = t
        slot[ids] = np.arange(len(ids))
        mats = np.stack([arrows[k].mat for k in ids])
        norms[ids] = operator_norms(mats)
        stacks.append(block_view(mats, net.ctx.hdim))
    first, second = np.nonzero(occurs)
    first_kind, second_kind = kind[first], kind[second]
    residual = np.zeros(occurs.shape)
    for t, fs in enumerate(stacks):
        for u, gs in enumerate(stacks):
            pairs = np.flatnonzero((first_kind == t) & (second_kind == u))
            entries = fs[0].size * gs[0].size // net.ctx.hdim**2  # of one difference
            for part in batches(len(pairs), entries):
                i, j = first[pairs[part]], second[pairs[part]]
                values = interchange_norms(fs[slot[i]], gs[slot[j]])
                residual[i, j] = relative(values, norms[i] * norms[j])

    # a cone pair's worst value is its largest residual: maxima over each cone's run of ``flat``
    starts = np.cumsum(counts) - counts
    row_top = np.maximum.reduceat(residual[flat], starts, axis=0)
    worst = None
    violations = []
    for rows, mask in zip(blocks, apart):
        pair_top = np.maximum.reduceat(row_top[rows][:, flat], starts, axis=1)
        ia, ib = np.nonzero(mask)
        tops = pair_top[ia, ib]
        ia += rows.start
        if len(tops):
            k = int(tops.argmax())  # the first maximum, in combinations order
            if worst is None or tops[k] > worst[2]:
                worst = (cone_of[ia[k]], cone_of[ib[k]], float(tops[k]))
        bad = ~within(tops, 1.0, tol)  # the residuals are relative already
        violations += zip(cone_of[ia[bad]].tolist(), cone_of[ib[bad]].tolist(), tops[bad].tolist())
    if worst is None or worst[2] == 0.0:  # every pair is worth 0.0: the first spacelike pair of all cones
        for rows in batches(len(cones), len(cones)):
            ia, ib = np.nonzero(_spacelike_rows(lo, hi, rows))
            if len(ia):
                worst = (cones[rows.start + ia[0]], cones[ib[0]], 0.0)
                break
    return CausalityReport(not violations, worst, tuple(violations))
