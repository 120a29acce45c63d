import importlib
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from vncat import (
    Arrow,
    Context,
    HomSubspace,
    Obj,
    ObjectUniverse,
    central_factor,
    classical_commutant,
    commutant,
    crossed_product,
    cyclic_group,
    dagger,
    double_commutant,
    endo_algebra,
    generated_star_algebra,
    is_star_closed,
    is_von_neumann,
    ltimes,
    nullspace,
    pair_swap_family,
    regular_rep,
    rtimes,
    span_basis,
    span_category,
    standard_universe,
    star_closure,
    subspace_contains,
    subspace_equal,
)
from vncat.category import block_view
from vncat.commutant import HiddenAlgebra, _in_span, _vecs, _vn_report
from vncat.linalg import relative
from helpers import random_arrow, random_closed_set, random_matrix, random_unitary

commutant_module = importlib.import_module("vncat.commutant")

CTX = Context(2)
UNI = standard_universe(CTX)
I = UNI.unit
ONEOBJ = ObjectUniverse((Obj("I", 1),), CTX)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
NIL = np.array([[0, 1], [0, 0]], dtype=complex)


def test_universe_validation():
    with pytest.raises(ValueError):
        ObjectUniverse((), CTX)
    with pytest.raises(ValueError):
        ObjectUniverse((Obj("A", 2),), CTX)
    with pytest.raises(ValueError):
        ObjectUniverse((Obj("A", 1), Obj("A", 2)), CTX)
    assert UNI.unit.dim == 1
    assert len(UNI.pairs()) == len(UNI.objects) ** 2


def test_standard_universe_contents():
    dims = sorted(o.dim for o in UNI.objects)
    assert dims == [1, 2, 3]
    a = Obj("Q", 5)
    uni = standard_universe(CTX, gens=[random_arrow(np.random.default_rng(0), a, a, CTX)])
    assert any(o == a for o in uni.objects)


def test_span_basis_orthonormal_and_deterministic():
    r = np.random.default_rng(1)
    mats = [r.standard_normal((3, 3)) + 1j * r.standard_normal((3, 3)) for _ in range(2)]
    mats.append(mats[0] + 2 * mats[1])  # dependent
    b1 = span_basis(mats)
    b2 = span_basis([m.copy() for m in mats])
    assert len(b1) == 2
    for x in b1:
        assert_allclose(np.linalg.norm(x), 1.0, atol=1e-12)
        # phase convention: largest entry is real positive
        peak = x.flat[np.argmax(np.abs(x))]
        assert abs(peak.imag) < 1e-12 and peak.real > 0
    for x, y in zip(b1, b2):
        assert np.array_equal(x, y)
    assert span_basis([]) == []
    assert span_basis([np.zeros((2, 2))]) == []


def test_span_basis_cut_matches_nullspace():
    # a singular value counts as zero when sigma / max(1, sigma_max) <= tol,
    # however small sigma_max is
    z = np.diag([1.0, -1.0])
    assert span_basis([1e-12 * z]) == []
    assert nullspace(np.reshape(1e-12 * z, (4, 1))).shape == (1, 1)
    e11, e22 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
    assert len(span_basis([0.1 * e11, 5e-10 * e22], 1e-9)) == 1
    assert len(span_basis([0.1 * e11, 5e-9 * e22], 1e-9)) == 2


def test_star_closure_helpers():
    r = np.random.default_rng(2)
    g = random_arrow(r, I, I, CTX)
    assert not is_star_closed([g])
    closed = star_closure([g])
    assert is_star_closed(closed)
    assert len(closed) == 2
    # closed in span without being closed elementwise
    n = Arrow(I, I, CTX, NIL)
    mixed = [n, n + dagger(n)]
    assert is_star_closed(mixed)
    assert star_closure(mixed) == mixed
    # self-adjoint generator needs nothing
    sx = Arrow(I, I, CTX, SX)
    assert is_star_closed([sx])


def test_commutant_rejects_open_sets():
    r = np.random.default_rng(3)
    g = random_arrow(r, I, I, CTX)
    with pytest.raises(ValueError):
        commutant([g], UNI)
    commutant([g], UNI, auto_close=True)  # fine


def test_commutant_rejects_foreign_context():
    g = Arrow(I, I, Context(3), np.zeros((3, 3)))
    with pytest.raises(ValueError):
        commutant([g], UNI)


def test_empty_commutant_is_full():
    cat = commutant([], UNI)
    for d, c, n in cat.dims():
        assert n == (d.dim * CTX.hdim) * (c.dim * CTX.hdim)


def test_pair_swap_commutant_is_centre():
    cat = commutant(pair_swap_family(CTX), UNI)
    for d, c, n in cat.dims():
        assert n == d.dim * c.dim
        for m in cat.homs[(d, c)].mats:
            assert central_factor(Arrow(d, c, CTX, m), 1e-8) is not None


def test_double_commutant_of_nothing_is_centre():
    cat = double_commutant([], UNI)
    for d, c, n in cat.dims():
        assert n == d.dim * c.dim


def test_hidden_diagonal_generator_dims():
    # an endomorphism of the unit acting as diag(1, -1) on the hidden space
    # constrains every hom to (visible anything) x (diagonal hidden part)
    g = Arrow(I, I, CTX, np.diag([1.0, -1.0]))
    cat = commutant([g], UNI)
    for d, c, n in cat.dims():
        assert n == d.dim * c.dim * 2


def test_trivial_hidden_space_commutant_is_full():
    ctx1 = Context(1)
    uni = standard_universe(ctx1)
    g = Arrow(uni.unit, uni.unit, ctx1, np.array([[2.0]]))
    cat = commutant([g], uni)
    for d, c, n in cat.dims():
        assert n == d.dim * c.dim


def test_generators_inside_double_commutant():
    r = np.random.default_rng(5)
    gens = random_closed_set(r, UNI, 2)
    dc = double_commutant(gens, UNI)
    spanned = span_category(gens, UNI)
    for pair in UNI.pairs():
        assert subspace_contains(dc.homs[pair], spanned.homs[pair], 1e-8)


def test_commutant_of_generic_set_is_centre_and_triple_matches():
    r = np.random.default_rng(6)
    gens = random_closed_set(r, UNI, 2)
    first = commutant(gens, UNI)
    for d, c, n in first.dims():
        assert n == d.dim * c.dim
    second = commutant(first.all_arrows(), UNI)
    third = commutant(second.all_arrows(), UNI)
    for pair in UNI.pairs():
        assert subspace_equal(first.homs[pair], third.homs[pair], 1e-8)


def test_is_von_neumann_accepts_closures():
    cat = double_commutant([], UNI)
    rep = is_von_neumann(cat)
    assert rep.passed
    assert rep.failures == ()


def test_is_von_neumann_rejects_nilpotent_span():
    unit = ONEOBJ.unit
    n = Arrow(unit, unit, CTX, NIL)
    cat = span_category([n, dagger(n)], ONEOBJ)
    rep = is_von_neumann(cat)
    assert not rep.passed
    assert len(rep.failures) == 1
    d, c, have, want = rep.failures[0]
    assert (d, c, have, want) == (unit, unit, 2, 4)
    assert rep.closure.homs[(unit, unit)].dim == 4


def test_endo_algebra_matches_classical_star_algebra():
    r = np.random.default_rng(3)
    m = r.standard_normal((2, 2)) + 1j * r.standard_normal((2, 2))
    unit = ONEOBJ.unit
    dc = double_commutant([Arrow(unit, unit, CTX, m)], ONEOBJ, auto_close=True)
    engine = endo_algebra(dc)
    classical = generated_star_algebra([m])
    assert len(engine) == len(classical) == 4
    assert len(span_basis(list(engine) + classical)) == 4


def test_endo_algebra_universe_invariance():
    m = SX
    unit = ONEOBJ.unit
    small = double_commutant([Arrow(unit, unit, CTX, m)], ONEOBJ)
    big = double_commutant([Arrow(I, I, CTX, m)], UNI)
    es, eb = endo_algebra(small), endo_algebra(big)
    assert len(es) == len(eb)
    assert len(span_basis(list(es) + list(eb))) == len(es)


def test_engine_commutant_matches_classical_on_unit():
    unit = ONEOBJ.unit
    sx = Arrow(unit, unit, CTX, SX)
    cat = commutant([sx], ONEOBJ)
    assert cat.homs[(unit, unit)].dim == len(classical_commutant([SX])) == 2


def test_classical_commutant_oracles():
    assert len(classical_commutant([SX])) == 2
    assert len(classical_commutant([np.eye(3)])) == 9
    got = classical_commutant([np.diag([1.0, 2.0, 3.0])])
    assert len(got) == 3
    for b in got:
        assert_allclose(b, np.diag(np.diag(b)), atol=1e-12)
    with pytest.raises(ValueError):
        classical_commutant([])
    with pytest.raises(ValueError):
        classical_commutant([NIL])  # not star-closed


def test_generated_star_algebra_oracles():
    assert len(generated_star_algebra([NIL])) == 4
    assert len(generated_star_algebra([np.diag([1.0, 2.0])])) == 2
    # permutation generating the cyclic group algebra inside M_3
    p = np.roll(np.eye(3), 1, axis=0)
    assert len(generated_star_algebra([p])) == 3


def test_classical_double_commutant_cross_check():
    r = np.random.default_rng(8)
    m = r.standard_normal((3, 3)) + 1j * r.standard_normal((3, 3))
    alg = generated_star_algebra([m])
    dc = classical_commutant(classical_commutant([m, m.conj().T]))
    assert len(alg) == len(dc)
    assert len(span_basis(alg + dc)) == len(alg)


def test_commutant_runs_are_byte_identical():
    r = np.random.default_rng(10)
    gens = random_closed_set(r, UNI, 1)
    a = commutant(gens, UNI)
    b = commutant([Arrow(g.dom, g.cod, g.ctx, g.mat.copy()) for g in gens], UNI)
    for pair in UNI.pairs():
        assert np.array_equal(a.homs[pair].mats, b.homs[pair].mats)


def test_subspace_comparisons():
    r = np.random.default_rng(11)
    f = random_arrow(r, I, I, CTX)
    g = random_arrow(r, I, I, CTX)
    s2 = HomSubspace(I, I, [f.mat, g.mat])
    s1 = HomSubspace(I, I, [f.mat])
    s0 = HomSubspace(I, I, [])
    assert subspace_contains(s2, s1)
    assert not subspace_contains(s1, s2)
    assert subspace_contains(s1, s0)
    assert subspace_equal(s2, s2)
    other = HomSubspace(I, UNI.objects[1], [])
    with pytest.raises(ValueError):
        subspace_contains(s1, other)


def in_span_sequential(basis, m, tol):
    """Membership by projecting out one orthonormal basis matrix at a time."""
    v = m.reshape(-1, order="F")
    r = v.copy()
    for b in basis:
        bv = b.reshape(-1, order="F")
        r = r - bv * (bv.conj() @ r)
    return relative(np.linalg.norm(r), np.linalg.norm(v)) <= tol


def off_span(rng, basis, m, offset, tol):
    """``m`` plus a direction orthogonal to ``basis`` of Frobenius norm offset*tol*max(1, ||m||)."""
    e = random_matrix(rng, *m.shape)
    for b in basis:
        e -= b * np.vdot(b, e)
    return m + e * (offset * tol * max(1.0, np.linalg.norm(m)) / np.linalg.norm(e))


def test_batched_span_membership_matches_sequential_projection():
    # random spans, the empty one included, probed with zero matrices,
    # members, members pushed off the span by offsets near tol, and generic
    # matrices
    tol = 1e-9
    r = np.random.default_rng(13)
    offsets = (0.5, 0.9, 1.1, 2.0)
    seen = {True: 0, False: 0}
    for _ in range(60):
        rows, cols = (int(x) for x in r.integers(1, 5, size=2))
        k = int(r.integers(0, min(4, rows * cols - 1) + 1))
        span = [random_matrix(r, rows, cols) for _ in range(k)]
        basis = span_basis(span, tol)
        coeffs = r.standard_normal(k)
        member = sum((c * m for c, m in zip(coeffs, span)), np.zeros((rows, cols), dtype=complex))
        probes = [np.zeros((rows, cols)), member, random_matrix(r, rows, cols)]
        probes += [off_span(r, basis, member, o, tol) for o in offsets]
        q = _vecs(basis) if basis else np.zeros((rows * cols, 0))
        got = _in_span(q, _vecs(probes), tol)
        want = [in_span_sequential(basis, m, tol) for m in probes]
        assert got.tolist() == want
        assert want[0] and want[1] and not want[2]
        assert want[3:] == [o < 1 for o in offsets]
        for w in want:
            seen[w] += 1
    assert seen[True] and seen[False]


def missing_daggers_sequential(gens, tol):
    """The daggers each generator's flipped hom pair misses, tested one at a time."""
    spans: dict = {}
    for g in gens:
        spans.setdefault((g.dom, g.cod), []).append(g.mat)
    bases = {key: span_basis(mats, tol) for key, mats in spans.items()}
    return [
        dagger(g) for g in gens
        if not in_span_sequential(bases.get((g.cod, g.dom), []), dagger(g).mat, tol)
    ]


def test_missing_daggers_match_sequential_projection():
    # a zero arrow and arrows whose flipped hom pair has no generators at
    # all, beside partners that miss a dagger by offsets near tol
    tol = 1e-9
    r = np.random.default_rng(14)
    x2, x3 = Obj("X2", 2), Obj("X3", 3)
    zero = Arrow(I, x2, CTX, np.zeros((4, 2)))
    lonely = random_arrow(r, x3, I, CTX)
    for offset in (0.5, 0.9, 1.1, 2.0):
        f = random_arrow(r, I, x2, CTX)
        g = random_arrow(r, x2, x2, CTX)
        fd = dagger(f).mat
        partner = Arrow(x2, I, CTX, off_span(r, [fd / np.linalg.norm(fd)], fd, offset, tol))
        gens = [zero, f, lonely, g, partner, dagger(g)]
        got = star_closure(gens, tol)[len(gens):]
        want = missing_daggers_sequential(gens, tol)
        assert [(a.dom, a.cod) for a in got] == [(a.dom, a.cod) for a in want]
        assert all(np.array_equal(a.mat, b.mat) for a, b in zip(got, want))
        # the lonely arrow's dagger is always missing, the zero arrow's never;
        # f and the partner miss each other's daggers by the offset
        assert [a.cod for a in got] == ([I, x3, x2] if offset > 1 else [x3])


def test_missing_daggers_build_only_the_missing_arrows(monkeypatch):
    # the check reads each generator's conjugate transpose; an Arrow is made
    # for a dagger only when the span at the flipped pair misses it
    built = []
    monkeypatch.setattr(commutant_module, "dagger", lambda g: built.append(g) or dagger(g))
    r = np.random.default_rng(17)
    gens = random_closed_set(r, UNI, 3)
    assert is_star_closed(gens) and built == []
    lonely = random_arrow(r, I, Obj("X2", 2), CTX)
    missing = star_closure(gens + [lonely])[len(gens) + 1 :]
    assert built == [lonely] and len(missing) == 1
    assert np.array_equal(missing[0].mat, lonely.mat.conj().T)


def test_span_category_groups_by_hom():
    r = np.random.default_rng(12)
    x = next(o for o in UNI.objects if o.dim == 2)
    f = random_arrow(r, I, x, CTX)
    cat = span_category([f, 2 * f], UNI)
    assert cat.homs[(I, x)].dim == 1
    assert cat.homs[(x, I)].dim == 0
    assert cat.homs[(x, I)].mats.shape == (0, CTX.hdim, 2 * CTX.hdim)
    assert len(cat.all_arrows()) == 1


# -- hom spaces as read-only matrix stacks ---------------------------------------

FLIP = Arrow(I, I, CTX, np.diag([1.0, -1.0]))
PRODUCERS = {
    "commutant": lambda: commutant(random_closed_set(np.random.default_rng(13), UNI, 1), UNI),
    "double_commutant": lambda: double_commutant([FLIP], UNI),
    "crossed_product": lambda: crossed_product([FLIP], regular_rep(cyclic_group(2)), UNI),
    "span_category": lambda: span_category(random_closed_set(np.random.default_rng(14), UNI, 2), UNI),
}


@pytest.mark.parametrize("name", sorted(PRODUCERS))
def test_homs_are_read_only_stacks(name):
    cat = PRODUCERS[name]()
    h = cat.universe.ctx.hdim
    for d, c in cat.universe.pairs():
        sub = cat.homs[(d, c)]
        assert sub.mats.dtype == np.complex128
        assert sub.mats.shape == (sub.dim, c.dim * h, d.dim * h)
        assert not sub.mats.flags.writeable
    # all_arrows wraps the stacks bit for bit, in universe.pairs() order
    want = [(d, c, m) for d, c in cat.universe.pairs() for m in cat.homs[(d, c)].mats]
    got = cat.all_arrows()
    assert len(got) == len(want)
    for f, (d, c, m) in zip(got, want):
        assert (f.dom, f.cod) == (d, c)
        assert np.array_equal(f.mat, m)
    unit = cat.universe.unit
    assert endo_algebra(cat) is cat.homs[(unit, unit)].mats


def test_hom_subspace_stacks_without_touching_its_input():
    m = np.zeros((1, 2, 2))
    sub = HomSubspace(I, I, m)
    assert m.flags.writeable and not sub.mats.flags.writeable
    assert sub.mats.dtype == np.complex128 and sub.dim == 1
    assert HomSubspace(I, I, []).dim == 0
    # identity equality: dataclass == would compare the arrays and raise
    other = HomSubspace(I, I, m)
    assert sub == sub and sub != other


def _commutant_peak(dims):
    """tracemalloc peak of a commutant's dims() over a universe of the given object dims."""
    ctx = Context(4)
    uni = standard_universe(ctx, dims=dims)
    gens = random_closed_set(np.random.default_rng(15), ObjectUniverse((uni.unit,), ctx), 2)
    tracemalloc.start()
    try:
        got = commutant(gens, uni).dims()
        return tracemalloc.get_traced_memory()[1], got
    finally:
        tracemalloc.stop()


def test_commutant_dims_write_no_stacks():
    # hom(B, D) = M_{dD x dB} (x) S' has dim dD*dB*dim S' by arithmetic: the
    # dense stacks of objects of dims 8 and 16 (4 MB and more) are never built
    _commutant_peak((1, 2, 3))
    small, _ = _commutant_peak((1, 2, 3))
    big, dims = _commutant_peak((1, 8, 16))
    assert [n for _, _, n in dims] == [d * c * dims[0][2] for d in (1, 8, 16) for c in (1, 8, 16)]
    assert big <= small + 64 * 1024


def test_tensor_homs_read_as_kron_of_matrix_units():
    # each hom's stack, once read, is kron(E_db, s) over the matrix units
    # (row-major) and then the unit hom's basis s, entry for entry
    uni = standard_universe(CTX, dims=(1, 2))
    gens = random_closed_set(np.random.default_rng(16), uni, 1)
    for cat in (commutant(gens, uni), is_von_neumann(span_category(gens, uni)).closure):
        algebra = endo_algebra(cat)
        arrows = iter(cat.all_arrows())
        for d, c in uni.pairs():
            units = np.eye(c.dim * d.dim).reshape(c.dim * d.dim, c.dim, d.dim)
            want = np.array([np.kron(e, s) for e in units for s in algebra])
            assert cat.homs[(d, c)].dim == len(want)
            assert np.array_equal(cat.homs[(d, c)].mats, want)
            for m in want:
                f = next(arrows)
                assert (f.dom, f.cod) == (d, c) and np.array_equal(f.mat, m)


@settings(max_examples=60, deadline=None)
@given(
    h=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
    count=st.integers(0, 3),
    kind=st.sampled_from(["raw", "dagger_closed", "closure"]),
)
def test_is_von_neumann_dims_agree_with_subspace_comparison(h, seed, count, kind):
    ctx = Context(h)
    uni = standard_universe(ctx, dims=(1, 2))
    gens = random_closed_set(np.random.default_rng(seed), uni, count)
    if kind == "raw":
        gens = gens[::2]  # the random arrows without their daggers
    elif kind == "closure":
        gens = double_commutant(gens, uni).all_arrows()
    cat = span_category(gens, uni)
    rep = is_von_neumann(cat)
    failed = {(d, c) for d, c, _, _ in rep.failures}
    for pair in uni.pairs():
        a, b = cat.homs[pair], rep.closure.homs[pair]
        assert subspace_contains(b, a)
        assert (pair in failed) == (not subspace_equal(a, b))
    assert rep.passed == (not failed)
    if kind == "closure":
        assert rep.passed


def test_is_von_neumann_reads_factors_not_stacks():
    # S' = C + C + C for M_2 + 1 + 2 at h = 4: over objects of dims 8 and 16
    # the dense closure stacks would take hundreds of MB, the factors 0.1 MB
    ctx = Context(4)
    m = np.diag([0, 0, 1, 2]).astype(complex)
    m[:2, :2] = random_matrix(np.random.default_rng(15), 2, 2)
    uni = standard_universe(ctx, dims=(1, 8, 16))
    g = Arrow(uni.unit, uni.unit, ctx, m)
    cat = commutant([g, dagger(g)], uni)
    assert cat.dims()[0][2] == 3
    is_von_neumann(commutant([g, dagger(g)], standard_universe(ctx)))  # warm-up
    tracemalloc.start()
    try:
        start = time.perf_counter()
        rep = is_von_neumann(cat)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.passed and rep.closure.dims() == cat.dims()
    assert elapsed < 0.1 and peak < 5 * 2**20


def _polynomial_arrows(rng, uni, count):
    """Arrows whose hidden blocks are polynomials in one random x: no daggers,
    so S'' is C[x] without them and all of End(H) with them."""
    ctx, h = uni.ctx, uni.ctx.hdim
    powers = np.array([np.linalg.matrix_power(random_matrix(rng, h, h), k) for k in range(h)])
    out = []
    for _ in range(count):
        dom, cod = (uni.objects[i] for i in rng.integers(len(uni.objects), size=2))
        coeffs = random_matrix(rng, cod.dim * dom.dim, h).reshape(cod.dim, dom.dim, h)
        out.append(Arrow.from_blocks(dom, cod, ctx, np.einsum("cdk,kij->cdij", coeffs, powers)))
    return out


@settings(max_examples=40, deadline=None)
@given(
    h=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
    count=st.integers(0, 3),
    kind=st.sampled_from(["closed_span", "open_span", "polynomial_span", "commutant", "double_commutant"]),
)
def test_is_von_neumann_matches_the_all_arrows_route(h, seed, count, kind):
    # S read from factors and hom blocks with their conjugate transposes
    # spans what the blocks of every basis arrow and its missing dagger do
    ctx = Context(h)
    uni = standard_universe(ctx, dims=(1, 2))
    rng = np.random.default_rng(seed)
    gens = random_closed_set(rng, uni, count)
    cat = {
        "closed_span": lambda: span_category(gens, uni),
        "open_span": lambda: span_category(gens[::2], uni),
        "polynomial_span": lambda: span_category(_polynomial_arrows(rng, uni, count), uni),
        "commutant": lambda: commutant(gens, uni),
        "double_commutant": lambda: double_commutant(gens, uni),
    }[kind]()
    rep = is_von_neumann(cat)
    old = _vn_report(cat, HiddenAlgebra(cat.all_arrows(), ctx, 1e-9).bicommutant)
    assert (rep.passed, rep.failures) == (old.passed, old.failures)
    assert rep.closure.dims() == old.closure.dims()


# -- the block lemma behind the commutant kernel -------------------------------


def _hidden_blocks(f):
    """f's hidden blocks, indexed [cod index, dom index] -> h x h matrix."""
    h = f.ctx.hdim
    return f.mat.reshape(f.cod.dim, h, f.dom.dim, h).transpose(0, 2, 1, 3)


@pytest.mark.parametrize("h", [2, 3])
def test_interchange_defect_is_block_commutator(h):
    # ltimes(F, g) - rtimes(F, g) : B (x) X -> D (x) Y has ((d, y), (b, x))
    # entry g_yx F_db - F_db g_yx, read straight off the arrows' matrices
    ctx = Context(h)
    r = np.random.default_rng(20 + h)
    for _ in range(6):
        db, dd, dx, dy = (int(v) for v in r.integers(1, 4, size=4))
        F = random_arrow(r, Obj("B", db), Obj("D", dd), ctx)
        g = random_arrow(r, Obj("X", dx), Obj("Y", dy), ctx)
        fb, gb = _hidden_blocks(F), _hidden_blocks(g)
        want = np.zeros((dd, dy, h, db, dx, h), dtype=complex)
        for d in range(dd):
            for b in range(db):
                for y in range(dy):
                    for x in range(dx):
                        want[d, y, :, b, x, :] = gb[y, x] @ fb[d, b] - fb[d, b] @ gb[y, x]
        got = ltimes(F, g).mat - rtimes(F, g).mat
        assert_allclose(got, want.reshape(got.shape), atol=1e-12)


# (hdim, blocks (n_k, m_k) of A = (+)_k M_{n_k} (x) I_{m_k}); then
# dim A' = sum m_k^2 and dim A'' = dim A = sum n_k^2
BLOCK_ALGEBRAS = [
    (2, [(2, 1)]),
    (2, [(1, 2)]),
    (3, [(1, 1), (2, 1)]),
    (3, [(1, 1), (1, 2)]),
    (3, [(1, 1), (1, 1), (1, 1)]),
]


def _algebra_element(r, blocks, u):
    h = sum(n * m for n, m in blocks)
    out = np.zeros((h, h), dtype=complex)
    at = 0
    for n, m in blocks:
        out[at : at + n * m, at : at + n * m] = np.kron(
            r.standard_normal((n, n)) + 1j * r.standard_normal((n, n)), np.eye(m)
        )
        at += n * m
    return u @ out @ u.conj().T


@pytest.mark.parametrize("h,blocks", BLOCK_ALGEBRAS)
def test_commutant_dims_follow_block_structure(h, blocks):
    ctx = Context(h)
    uni = standard_universe(ctx)
    r = np.random.default_rng(40 + len(blocks) + h)
    q, _ = np.linalg.qr(r.standard_normal((h, h)) + 1j * r.standard_normal((h, h)))
    x, y = Obj("X", 2), Obj("Y", 3)
    gens = []
    for dom, cod in ((x, y), (uni.unit, x)):
        # the leading block is the identity, so only the other blocks carry A
        grid = [[_algebra_element(r, blocks, q) for _ in range(dom.dim)] for _ in range(cod.dim)]
        grid[0][0] = np.eye(h)
        mat = np.block(grid)
        g = Arrow(dom, cod, ctx, mat)
        gens.extend((g, dagger(g)))
    first = commutant(gens, uni)
    second = double_commutant(gens, uni)
    for d, c, n in first.dims():
        assert n == d.dim * c.dim * sum(m * m for _, m in blocks)
    for d, c, n in second.dims():
        assert n == d.dim * c.dim * sum(k * k for k, _ in blocks)


# -- invariance laws of the tolerance rule --------------------------------------


def _conjugated(mats, u):
    """Copy of a matrix stack with every hidden block conjugated by the unitary u."""
    out = np.array(mats, dtype=complex)
    blocks = block_view(out, len(u))
    blocks[...] = u @ blocks @ u.conj().T
    return out


@settings(max_examples=40, deadline=None)
@given(
    blocks=st.lists(st.tuples(st.integers(1, 2), st.integers(1, 2)), min_size=1, max_size=3).filter(
        lambda b: 2 <= sum(n * m for n, m in b) <= 4
    ),
    ends=st.lists(st.tuples(st.booleans(), st.booleans()), min_size=1, max_size=3),
    scale=st.floats(1e-3, 1e3),
    seed=st.integers(0, 2**32 - 1),
)
def test_invariance_laws(blocks, ends, scale, seed):
    # generic elements of A = (+)_k M_{n_k} (x) I_{m_k}, placed in every
    # hidden block of an arrow between objects of {I, X2}, with their daggers
    h = sum(n * m for n, m in blocks)
    ctx = Context(h)
    r = np.random.default_rng(seed)
    unit, x2 = Obj("I", 1), Obj("X2", 2)
    uni = ObjectUniverse((unit, x2), ctx)
    q = random_unitary(r, h)
    gens = []
    for dom, cod in ((x2 if a else unit, x2 if b else unit) for a, b in ends):
        grid = [[_algebra_element(r, blocks, q) for _ in range(dom.dim)] for _ in range(cod.dim)]
        g = Arrow(dom, cod, ctx, np.block(grid))
        gens.extend((g, dagger(g)))
    first = commutant(gens, uni)
    closure = double_commutant(gens, uni)

    # commutant(U S U*) = U S' U*
    u = random_unitary(r, h)
    turned = commutant([Arrow(g.dom, g.cod, ctx, _conjugated(g.mat, u)) for g in gens], uni)
    for d, c in uni.pairs():
        want = HomSubspace(d, c, _conjugated(first.homs[(d, c)].mats, u))
        assert subspace_equal(turned.homs[(d, c)], want)

    # scaling and generator order change no dimension
    moved = [Arrow(g.dom, g.cod, ctx, scale * g.mat) for g in reversed(gens)]
    assert commutant(moved, uni).dims() == first.dims()
    assert double_commutant(moved, uni).dims() == closure.dims()

    # the unit endomorphisms do not depend on the universe
    small = double_commutant(gens, ObjectUniverse((unit,), ctx))
    big = double_commutant(gens, ObjectUniverse((unit, x2, Obj("X3", 3)), ctx))
    assert np.array_equal(endo_algebra(small), endo_algebra(closure))
    assert np.array_equal(endo_algebra(big), endo_algebra(closure))

    # the double commutant is closed
    assert double_commutant(closure.all_arrows(), uni).dims() == closure.dims()


# -- the hidden solve: one QR per chunk, S'' from a generic pair ----------------

# blocks (n_k, m_k) of S = (+)_k M_{n_k} (x) 1_{m_k} at h = 2-8; S'' = S, of
# dim sum n_k^2.  The first is End(H), so S' = C 1; the second C 1, so S' = End(H)
GENERIC_ALGEBRAS = [
    [(3, 1)],
    [(1, 4)],
    [(1, 2)],
    [(2, 1)],
    [(1, 1), (1, 2)],
    [(2, 2)],
    [(1, 1), (2, 1), (1, 2)],
    [(1, 3), (3, 1)],
    [(2, 3)],
    [(1, 1)] * 5,
    [(1, 8)],
    [(2, 1), (1, 3), (3, 1)],
]


def _star_closed_elements(r, blocks, u, count):
    """``count`` elements of the block algebra in the basis ``u``, closed under dagger in span."""
    out = []
    while len(out) < count:
        a = _algebra_element(r, blocks, u)
        out += [a, a.conj().T] if count - len(out) > 1 else [a + a.conj().T]
    return np.array(out)


def _same_span(a, b):
    """Whether two orthonormal (k, h, h) bases span one subspace."""
    return len(a) == len(b) and bool(_in_span(_vecs(a), _vecs(b), 1e-9).all())


@pytest.mark.parametrize("blocks", GENERIC_ALGEBRAS, ids=str)
def test_bicommutant_from_a_generic_pair_equals_the_whole_solve(blocks):
    h = sum(n * m for n, m in blocks)
    r = np.random.default_rng(60 + h + len(blocks))
    s = _star_closed_elements(r, blocks, random_unitary(r, h), 4)
    hidden = HiddenAlgebra((), Context(h), 1e-9, lambda *_: s)
    whole = commutant_module._hidden_commutant(hidden.commutant, h, 1e-9)
    assert len(hidden.bicommutant) == sum(n * n for n, _ in blocks)
    assert _same_span(hidden.bicommutant, whole)


@pytest.mark.parametrize("rows,solves", [([0, 1, 2], 3), ([0, 0, 0], 5)], ids=["extra-pair", "fallback"])
def test_a_degenerate_generic_element_still_gives_the_bicommutant(monkeypatch, rows, solves):
    # S = C 1 at h = 3, so S' = End(H) with the matrix units as its basis and
    # S'' = C 1.  Coefficients that pick a matrix unit make x = E_ii, whose
    # {x, x*} commutant C (+) M_2 is too large: the check rejects it, and the
    # next pair (rows[1] generic) or the whole-basis solve gives S''
    h, solve, calls = 3, commutant_module._hidden_commutant, []
    generic = commutant_module._generic(h * h)
    units = np.eye(h * h, dtype=complex)
    coefficients = np.array([generic[i] if i else units[0] for i in rows])
    monkeypatch.setattr(commutant_module, "_generic", lambda k: coefficients)
    monkeypatch.setattr(commutant_module, "_hidden_commutant", lambda *a: calls.append(len(a[0])) or solve(*a))
    s = np.eye(h, dtype=complex)[None]
    hidden = HiddenAlgebra((), Context(h), 1e-9, lambda *_: s)
    assert len(hidden.commutant) == h * h
    assert _same_span(hidden.bicommutant, s)
    assert len(calls) == solves and calls[-1] == (h * h if solves == 5 else 4)


@pytest.mark.parametrize("h", [2, 3, 5, 7, 8])
def test_hidden_solve_across_chunk_boundaries_matches_classical(h):
    # 3h + 1 blocks: four of the h-block chunks of old, one chunk below h = 7
    r = np.random.default_rng(80 + h)
    blocks = [(1, 1), (1, h - 1)] if h > 2 else [(1, 1), (1, 1)]
    s = _star_closed_elements(r, blocks, random_unitary(r, h), 3 * h + 1)
    got = commutant_module._hidden_commutant(s, h, 1e-9)
    assert _same_span(got, np.array(classical_commutant(list(s))))


@pytest.mark.parametrize("h", [2, 3, 4])
def test_each_orbit_solve_takes_one_qr(monkeypatch, h):
    # the crossed product's orbit of 5h blocks goes through one QR; S' is
    # C 1, so the S'' solve's rows are exactly zero and take none
    qrs, solves = [], []
    qr, solve = np.linalg.qr, commutant_module._hidden_commutant
    monkeypatch.setattr(np.linalg, "qr", lambda *a, **k: qrs.append(1) or qr(*a, **k))

    def spied(mats, *rest):
        start = len(qrs)
        out = solve(mats, *rest)
        solves.append((len(mats), len(qrs) - start, len(out)))
        return out

    monkeypatch.setattr(commutant_module, "_hidden_commutant", spied)
    ctx = Context(h)
    universe = ObjectUniverse((Obj("I", 1),), ctx)
    gens = random_closed_set(np.random.default_rng(h), universe, 2)
    crossed_product(gens, regular_rep(cyclic_group(h)), universe)
    assert solves == [(5 * h, 1, 1), (1, 0, h * h)]
