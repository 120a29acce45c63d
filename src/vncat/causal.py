"""Nets of generator sets over double cones in a 1+1 integer lattice.

Events are integer (t, x) points ordered by the light cone: p precedes q
when the time gap dominates the spatial gap.  A double cone is the set of
events between two comparable endpoints, so whether cones are spacelike or
nested follows from the endpoints.  A net assigns arrows to cones; isotony
asks nested cones to have nested spans, and causality asks every arrow pair
across spacelike cones to interchange, each pair measured once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import combinations, permutations, product
from typing import NamedTuple

from .category import Arrow, Context, interchange_residuals
from .commutant import HomSubspace, group_by_hom, subspace_contains
from .linalg import relative

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


@dataclass(frozen=True)
class DoubleCone:
    """All events between two causally comparable endpoints."""

    lo: Event
    hi: Event

    def __post_init__(self):
        lo = Event(int(self.lo[0]), int(self.lo[1]))
        hi = Event(int(self.hi[0]), int(self.hi[1]))
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        if not causal_leq(lo, hi):
            raise ValueError(f"cone endpoints are not causally ordered: {lo} -> {hi}")


@dataclass(frozen=True)
class LatticeBounds:
    tmin: int
    tmax: int
    xmin: int
    xmax: int

    def __post_init__(self):
        if self.tmin > self.tmax or self.xmin > self.xmax:
            raise ValueError("empty lattice bounds")

    def contains(self, e: Event) -> bool:
        return self.tmin <= e[0] <= self.tmax and self.xmin <= e[1] <= self.xmax


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
        norm = {}
        for cone, arrows in self.assignments.items():
            if not isinstance(cone, DoubleCone):
                cone = DoubleCone(Event(*cone[0]), Event(*cone[1]))
            if not (self.bounds.contains(cone.lo) and self.bounds.contains(cone.hi)):
                raise ValueError(f"cone {cone.lo} -> {cone.hi} leaves the lattice bounds")
            arrows = tuple(arrows)
            for a in arrows:
                if a.ctx != self.ctx:
                    raise ValueError("net arrows must share the net context")
            norm[cone] = arrows
        object.__setattr__(self, "assignments", norm)

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


def check_isotony(net: CausalNet, tol: float = 1e-9) -> IsotonyReport:
    """Nested cones must carry nested generator spans, hom pair by hom pair."""
    cones = net.cones()
    spans = {c: group_by_hom(net.assignments[c]) for c in cones}
    violations = []
    for inner, outer in permutations(cones, 2):
        if not (causal_leq(outer.lo, inner.lo) and causal_leq(inner.hi, outer.hi)):
            continue
        for (dom, cod), arrows in spans[inner].items():
            small = HomSubspace(dom, cod, [a.mat for a in arrows])
            big = HomSubspace(dom, cod, [a.mat for a in spans[outer].get((dom, cod), ())])
            if not subspace_contains(big, small, tol):
                violations.append((inner, outer, dom.name, cod.name))
    return IsotonyReport(not violations, tuple(violations))


def check_causality(net: CausalNet, tol: float = 1e-9) -> CausalityReport:
    """Every arrow pair across spacelike-separated cones must interchange."""

    @cache
    def residual(f: Arrow, g: Arrow) -> float:
        return relative(interchange_residuals(f, g), f.norm() * g.norm())

    cones = net.cones()
    worst = None
    violations = []
    for ca, cb in combinations(cones, 2):
        if not spacelike(ca, cb):
            continue
        top = 0.0
        for f, g in product(net.assignments[ca], net.assignments[cb]):
            top = max(top, residual(f, g))
        if worst is None or top > worst[2]:
            worst = (ca, cb, top)
        if top > tol:
            violations.append((ca, cb, top))
    return CausalityReport(not violations, worst, tuple(violations))
