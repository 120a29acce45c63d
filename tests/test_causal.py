from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vncat import (
    Arrow,
    CausalNet,
    Context,
    DoubleCone,
    Event,
    LatticeBounds,
    Obj,
    causal_leq,
    central_arrow,
    check_causality,
    check_isotony,
    cone_events,
    pair_swap,
    spacelike,
)
from vncat import HomSubspace, causal, linalg, subspace_contains
from vncat.commutant import group_by_hom

CTX = Context(2)
I = Obj("I", 1)
BOUNDS = LatticeBounds(0, 4, -4, 4)


def all_events(trange, xrange_):
    return [Event(t, x) for t in trange for x in xrange_]


def test_causal_order_properties():
    pts = all_events(range(-2, 3), range(-2, 3))
    for p in pts:
        assert causal_leq(p, p)  # reflexive
        for q in pts:
            if causal_leq(p, q) and causal_leq(q, p):
                assert p == q  # antisymmetric
            for r in pts:
                if causal_leq(p, q) and causal_leq(q, r):
                    assert causal_leq(p, r)  # transitive


def test_causal_leq_examples():
    assert causal_leq(Event(0, 0), Event(2, 1))
    assert causal_leq(Event(0, 0), Event(1, -1))
    assert not causal_leq(Event(0, 0), Event(1, 2))
    assert not causal_leq(Event(2, 1), Event(0, 0))


def test_cone_requires_ordered_endpoints():
    DoubleCone(Event(0, 0), Event(2, 1))
    with pytest.raises(ValueError):
        DoubleCone(Event(0, 0), Event(1, 5))
    with pytest.raises(ValueError):
        DoubleCone(Event(3, 0), Event(0, 0))


def test_cone_events_hand_enumeration():
    # diamond between (0,0) and (2,0): base point, three middle, tip
    got = cone_events(DoubleCone(Event(0, 0), Event(2, 0)))
    assert got == [
        Event(0, 0),
        Event(1, -1),
        Event(1, 0),
        Event(1, 1),
        Event(2, 0),
    ]
    # degenerate cone is a single event
    assert cone_events(DoubleCone(Event(1, 3), Event(1, 3))) == [Event(1, 3)]
    # lightlike segment has no interior width
    seg = cone_events(DoubleCone(Event(0, 0), Event(2, 2)))
    assert seg == [Event(0, 0), Event(1, 1), Event(2, 2)]


def test_cone_events_brute_force():
    lo, hi = Event(0, -1), Event(3, 0)
    fast = set(cone_events(DoubleCone(lo, hi)))
    slow = {
        e
        for e in all_events(range(-1, 5), range(-5, 5))
        if causal_leq(lo, e) and causal_leq(e, hi)
    }
    assert fast == slow


def test_spacelike_pairs():
    left = DoubleCone(Event(0, -3), Event(1, -3))
    right = DoubleCone(Event(0, 3), Event(1, 3))
    assert spacelike(left, right)
    assert spacelike(right, left)
    # measured once and frozen: unit-width cones one step apart touch
    # through their corners, so they are not spacelike separated
    a = DoubleCone(Event(0, 0), Event(1, 0))
    b = DoubleCone(Event(0, 1), Event(1, 1))
    assert not spacelike(a, b)
    # a cone is never spacelike to itself
    assert not spacelike(a, a)
    # timelike nesting
    outer = DoubleCone(Event(0, 0), Event(4, 0))
    inner = DoubleCone(Event(1, 0), Event(2, 0))
    assert not spacelike(outer, inner)


def test_net_validation():
    f = pair_swap(0, 1, CTX)
    cone = DoubleCone(Event(0, 0), Event(1, 0))
    net = CausalNet(BOUNDS, CTX, {cone: [f]})
    assert net.cones() == [cone]
    with pytest.raises(ValueError):
        CausalNet(BOUNDS, CTX, {DoubleCone(Event(0, 0), Event(9, 0)): [f]})
    with pytest.raises(ValueError):
        CausalNet(BOUNDS, Context(3), {cone: [f]})
    # tuple endpoints are normalized into cones
    net2 = CausalNet(BOUNDS, CTX, {((0, 0), (1, 0)): [f]})
    assert net2.cones() == [cone]


def central(mat22, rng=None):
    return central_arrow(np.asarray(mat22, dtype=complex), I, I, CTX)


def test_isotony_pass_and_violation():
    inner = DoubleCone(Event(1, 0), Event(2, 0))
    outer = DoubleCone(Event(0, 0), Event(4, 0))
    f = central([[1.0]])
    g = central([[2.0]])
    ok = CausalNet(BOUNDS, CTX, {inner: [f], outer: [f, g]})
    rep = check_isotony(ok)
    assert rep.passed and rep.violations == ()

    h = pair_swap(0, 1, CTX)
    bad = CausalNet(BOUNDS, CTX, {inner: [h], outer: [f]})
    rep2 = check_isotony(bad)
    assert not rep2.passed
    (vi, vo, dname, cname) = rep2.violations[0]
    assert vi == inner and vo == outer
    assert (dname, cname) == ("H", "H")


def test_isotony_ignores_unrelated_cones():
    a = DoubleCone(Event(0, -3), Event(1, -3))
    b = DoubleCone(Event(0, 3), Event(1, 3))
    net = CausalNet(BOUNDS, CTX, {a: [pair_swap(0, 1, CTX)], b: [central([[1.0]])]})
    assert check_isotony(net).passed


def test_causality_pass_for_central_assignments():
    r = np.random.default_rng(0)
    a = DoubleCone(Event(0, -3), Event(1, -3))
    b = DoubleCone(Event(0, 3), Event(1, 3))
    net = CausalNet(
        BOUNDS,
        CTX,
        {a: [central(r.standard_normal((1, 1)))], b: [central(r.standard_normal((1, 1)))]},
    )
    rep = check_causality(net, 1e-8)
    assert rep.passed
    assert rep.worst is not None and rep.worst[2] <= 1e-12


def test_causality_flip():
    t = pair_swap(0, 1, CTX)
    a = DoubleCone(Event(0, -3), Event(1, -3))
    b = DoubleCone(Event(0, 3), Event(1, 3))
    bad = CausalNet(BOUNDS, CTX, {a: [t], b: [t]})
    rep = check_causality(bad, 1e-8)
    assert not rep.passed
    (ca, cb, res) = rep.violations[0]
    assert {ca, cb} == {a, b}
    assert res > 0.5

    # same offending pair in timelike-related cones is fine
    outer = DoubleCone(Event(0, 0), Event(4, 0))
    inner = DoubleCone(Event(1, 0), Event(2, 0))
    timelike = CausalNet(BOUNDS, CTX, {outer: [t], inner: [t]})
    rep2 = check_causality(timelike, 1e-8)
    assert rep2.passed
    assert rep2.worst is None  # no spacelike pair was ever tested


def test_causality_scale_is_relative():
    # huge central arrows still pass: residuals are judged against the norms
    big = central([[1e8]])
    a = DoubleCone(Event(0, -3), Event(1, -3))
    b = DoubleCone(Event(0, 3), Event(1, 3))
    net = CausalNet(BOUNDS, CTX, {a: [big], b: [big]})
    assert check_causality(net, 1e-8).passed


def test_causality_verdicts_at_the_cut_match_the_plain_comparison():
    # the verdicts go through linalg.within at scale 1: at tol equal to a
    # residual, and one ulp either side, the violations are those above tol
    r = np.random.default_rng(3)
    cones = [DoubleCone(Event(0, x), Event(1, x)) for x in range(-4, 5, 2)]
    net = CausalNet(BOUNDS, CTX, {c: [Arrow(I, I, CTX, r.standard_normal((2, 2)))] for c in cones})
    every = check_causality(net, 0.0).violations
    assert len(every) == 10 and len({res for _, _, res in every}) == 10
    for _, _, res in every:
        for tol in (np.nextafter(res, 0.0), res, np.nextafter(res, 1.0)):
            report = check_causality(net, tol)
            want = tuple(v for v in every if v[2] > tol)
            assert report.violations == want
            assert report.passed == (not want)
            assert report.worst == check_causality(net, 0.0).worst


def lattice_cones(tmax, xmax):
    events = all_events(range(tmax + 1), range(xmax + 1))
    return [DoubleCone(lo, hi) for lo in events for hi in events if causal_leq(lo, hi)]


def brute_spacelike(c1, c2):
    e2 = cone_events(c2)
    return not any(causal_leq(p, q) or causal_leq(q, p) for p in cone_events(c1) for q in e2)


def test_endpoint_rules_match_event_enumeration():
    cones = lattice_cones(4, 6)
    assert len(cones) == 315
    events = {c: set(cone_events(c)) for c in cones}
    spacelike_pairs = nested_pairs = 0
    for a in cones:
        for b in cones:
            apart = not any(
                causal_leq(p, q) or causal_leq(q, p) for p in events[a] for q in events[b]
            )
            assert spacelike(a, b) == apart, (a, b)
            inside = causal_leq(b.lo, a.lo) and causal_leq(a.hi, b.hi)
            assert inside == (events[a] <= events[b]), (a, b)
            spacelike_pairs += apart
            nested_pairs += inside
    assert (spacelike_pairs, nested_pairs) == (16856, 4300)


def causality_by_brute_force(net, tol):
    """Every arrow pair of every spacelike cone pair, measured afresh."""
    worst = None
    violations = []
    for ca, cb in combinations(net.cones(), 2):
        if not brute_spacelike(ca, cb):
            continue
        top = 0.0
        for f in net.assignments[ca]:
            for g in net.assignments[cb]:
                scale = max(1.0, f.norm() * g.norm())
                top = max(top, causal.interchange_residuals(f, g) / scale)
        if worst is None or top > worst[2]:
            worst = (ca, cb, top)
        if top > tol:
            violations.append((ca, cb, top))
    return causal.CausalityReport(not violations, worst, tuple(violations))


def isotony_by_brute_force(net, tol):
    """Containment of event sets decides which cone pairs are nested."""
    events = {c: set(cone_events(c)) for c in net.cones()}
    violations = []
    for inner in net.cones():
        for outer in net.cones():
            if inner is outer or not events[inner] <= events[outer]:
                continue
            outer_spans = group_by_hom(net.assignments[outer])
            for (dom, cod), arrows in group_by_hom(net.assignments[inner]).items():
                small = HomSubspace(dom, cod, [a.mat for a in arrows])
                big = HomSubspace(dom, cod, [a.mat for a in outer_spans.get((dom, cod), ())])
                if not subspace_contains(big, small, tol):
                    violations.append((inner, outer, dom.name, cod.name))
    return causal.IsotonyReport(not violations, tuple(violations))


@pytest.mark.parametrize("seed", range(4))
def test_net_checks_match_brute_force_on_random_nets(seed):
    r = np.random.default_rng(seed)
    palette = [central(r.standard_normal((1, 1))) for _ in range(2)]
    palette += [Arrow(I, I, CTX, np.diag(r.standard_normal(2))) for _ in range(2)]
    palette += [Arrow(I, I, CTX, r.standard_normal((2, 2)) * 10.0 ** r.integers(-1, 3))]
    cones = lattice_cones(4, 8)
    picks = r.choice(len(cones), size=12, replace=False)
    assignments = {}
    for k in picks:
        lo, hi = cones[k].lo, cones[k].hi
        cone = DoubleCone(Event(lo.t, lo.x - 4), Event(hi.t, hi.x - 4))
        chosen = r.choice(len(palette), size=r.integers(1, 4), replace=False)
        assignments[cone] = [palette[j] for j in chosen]
    net = CausalNet(BOUNDS, CTX, assignments)
    for tol in (1e-9, 0.5):
        assert check_causality(net, tol) == causality_by_brute_force(net, tol)
    assert check_isotony(net) == isotony_by_brute_force(net, 1e-9)


def test_causality_measures_each_arrow_pair_once(monkeypatch):
    pairs = counting_pairs(monkeypatch)
    f = pair_swap(0, 1, CTX)
    g = central([[2.0]])
    # unit cones two steps apart are pairwise spacelike
    cones = [DoubleCone(Event(0, 2 * k), Event(1, 2 * k)) for k in range(30)]
    assignments = {c: [(f, g)[k % 2]] for k, c in enumerate(cones)}
    net = CausalNet(LatticeBounds(0, 1, 0, 60), CTX, assignments)
    rep = check_causality(net, 1e-8)
    assert not rep.passed and len(rep.violations) == 15 * 14 // 2
    assert len(set(pairs)) == len(pairs)
    assert 1 <= len(pairs) <= 4


def counting_pairs(monkeypatch):
    """Patch ``causal.interchange_norms`` to log each pair it is handed; returns the log.

    A pair is logged as the bytes of its two block grids.
    """
    pairs = []
    measure = causal.interchange_norms

    def counted(fs, gs):
        pairs.extend((f.tobytes(), g.tobytes()) for f, g in zip(fs, gs))
        return measure(fs, gs)

    monkeypatch.setattr(causal, "interchange_norms", counted)
    return pairs


X = Obj("X", 2)
_r = np.random.default_rng(11)
CENTRAL_PALETTE = [central(_r.standard_normal((1, 1))) for _ in range(2)] + [
    central_arrow(_r.standard_normal((2, 1)), I, X, CTX)
]
PALETTE = CENTRAL_PALETTE + [
    Arrow(I, I, CTX, np.diag(_r.standard_normal(2))),
    Arrow(I, I, CTX, _r.standard_normal((2, 2)) * 10.0),
    pair_swap(0, 1, CTX),
    Arrow(I, X, CTX, _r.standard_normal((4, 2))),
]
# every diamond of a 5 x 9 patch of the lattice
CONE_POOL = [
    DoubleCone(Event(c.lo.t, c.lo.x - 4), Event(c.hi.t, c.hi.x - 4)) for c in lattice_cones(4, 8)
]


@settings(max_examples=40, deadline=None)
@given(
    picks=st.lists(st.integers(0, len(CONE_POOL) - 1), unique=True, max_size=10),
    data=st.data(),
    central_only=st.booleans(),
    offset=st.sampled_from([0, 2**61 - 6, -(2**70)]),
    entries=st.sampled_from([1, 40, linalg.CHUNK_ENTRIES]),
    tol=st.sampled_from([1e-9, 0.5]),
)
def test_net_checks_match_brute_force(picks, data, central_only, offset, entries, tol):
    # empty cones, arrows shared across cones, row-block boundaries inside
    # the net, batches of arrow pairs and coordinates past int64 differences
    # all agree with the oracles
    palette = CENTRAL_PALETTE if central_only else PALETTE
    arrows = st.lists(st.sampled_from(palette), max_size=3)
    assignments = {}
    for k in picks:
        lo, hi = CONE_POOL[k].lo, CONE_POOL[k].hi
        cone = DoubleCone(Event(lo.t + offset, lo.x + offset), Event(hi.t + offset, hi.x + offset))
        assignments[cone] = data.draw(arrows)
    bounds = LatticeBounds(offset, offset + 4, offset - 4, offset + 4)
    net = CausalNet(bounds, CTX, assignments)
    with mock.patch.object(linalg, "CHUNK_ENTRIES", entries):
        rep = check_causality(net, tol)
        assert rep == causality_by_brute_force(net, tol)
        assert check_isotony(net, tol) == isotony_by_brute_force(net, tol)
    apart = [(a, b) for a, b in combinations(net.cones(), 2) if spacelike(a, b)]
    if not apart:
        assert rep.worst is None
    elif central_only:
        # every residual is exactly 0.0: the tie goes to the first pair
        assert rep.worst == (*apart[0], 0.0)


def test_net_checks_on_empty_and_one_cone_nets():
    empty = CausalNet(BOUNDS, CTX, {})
    assert check_causality(empty) == causal.CausalityReport(True, None, ())
    assert check_isotony(empty) == causal.IsotonyReport(True, ())
    lone = CausalNet(BOUNDS, CTX, {DoubleCone(Event(0, 0), Event(2, 0)): [pair_swap(0, 1, CTX)]})
    assert check_causality(lone) == causal.CausalityReport(True, None, ())
    assert check_isotony(lone).passed


def test_net_without_spacelike_pairs_measures_nothing(monkeypatch):
    # nested and timelike cones with arrows: the stacks are built, no pair
    # occurs, and the kernel is never handed a pair
    pairs = counting_pairs(monkeypatch)
    swap = pair_swap(0, 1, CTX)
    net = CausalNet(
        BOUNDS,
        CTX,
        {
            DoubleCone(Event(0, 0), Event(4, 0)): [swap, central([[2.0]])],
            DoubleCone(Event(1, 0), Event(2, 0)): [swap],
            DoubleCone(Event(3, 0), Event(4, 1)): [Arrow(I, I, CTX, np.diag([1.0, -1.0]))],
        },
    )
    assert check_causality(net) == causal.CausalityReport(True, None, ())
    assert pairs == []
    empty = (np.zeros((0, 1, 1, 2, 2)), np.zeros((0, 2, 1, 2, 2)))
    assert causal.interchange_norms(*empty).shape == (0,)


def test_large_closed_form_net(monkeypatch):
    pairs = counting_pairs(monkeypatch)
    f = pair_swap(0, 1, CTX)
    g = central([[2.0]])
    # 600 unit cones two steps apart: every pair is spacelike, none nested,
    # and only the 300 swap cones fail against each other
    cones = [DoubleCone(Event(0, 2 * k), Event(1, 2 * k)) for k in range(600)]
    # blocks of 64 cone rows, so the checks cross block boundaries
    monkeypatch.setattr(linalg, "CHUNK_ENTRIES", 64 * len(cones))
    assert len(linalg.batches(len(cones), len(cones))) > 1
    assignments = {c: [(f, g)[k % 2]] for k, c in enumerate(cones)}
    net = CausalNet(LatticeBounds(0, 1, 0, 1200), CTX, assignments)
    rep = check_causality(net, 1e-8)
    assert len(rep.violations) == 300 * 299 // 2
    assert rep.worst[:2] == (cones[0], cones[2]) and rep.worst[2] > 0.5
    assert type(rep.worst[2]) is type(rep.violations[-1][2]) is float
    assert rep.violations[:2] == ((cones[0], cones[2], rep.worst[2]), (cones[0], cones[4], rep.worst[2]))
    assert len(pairs) <= 4
    assert check_isotony(net, 1e-8) == causal.IsotonyReport(True, ())
