import importlib
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from vncat import (
    Arrow,
    Context,
    CrossedContext,
    FiniteGroup,
    Obj,
    ObjectUniverse,
    UnitaryRep,
    act,
    classical_commutant,
    compose,
    covariance_residual,
    covariance_residuals,
    crossed_product,
    cyclic_group,
    dagger,
    double_commutant,
    endo_algebra,
    generated_star_algebra,
    is_star_closed,
    lambda_embed,
    operator_norm,
    pi_embed,
    regular_rep,
    span_basis,
    star_closure,
    subspace_equal,
    symmetric_group,
    trivial_group,
    trivial_rep,
    whisker_left,
)
from vncat import crossed, linalg
from helpers import conjugated_regular_rep, random_arrow, random_matrix, random_unitary

# the package exports the function ``commutant`` under the module's name
commutant_module = importlib.import_module("vncat.commutant")

BASE = Context(2)
I = Obj("I", 1)
Z2 = cyclic_group(2)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
FLIP_REP = UnitaryRep(Z2, (np.eye(2, dtype=complex), SX))
CC = CrossedContext(BASE, Z2)


def test_group_table_validation():
    FiniteGroup(("e", "a"), ((0, 1), (1, 0)))  # Z2, fine
    with pytest.raises(ValueError):
        FiniteGroup((), ())
    with pytest.raises(ValueError):
        FiniteGroup(("e", "e"), ((0, 1), (1, 0)))
    with pytest.raises(ValueError):
        FiniteGroup(("e", "a"), ((0, 1),))
    with pytest.raises(ValueError):
        FiniteGroup(("e", "a"), ((0, 1), (1, 2)))
    with pytest.raises(ValueError, match="entries must index elements"):
        FiniteGroup(("e", "a"), ((0, 1), (1, 2**63)))
    with pytest.raises(ValueError):
        # left-zero table, no two-sided identity
        FiniteGroup(("a", "b"), ((0, 0), (1, 1)))
    with pytest.raises(ValueError):
        # identity present but one row breaks associativity
        FiniteGroup(
            ("e", "a", "b"), ((0, 1, 2), (1, 0, 0), (2, 0, 0))
        )
    with pytest.raises(ValueError):
        # a * a = b * b = e and a, b absorb each other; (a b) b != a (b b),
        # and no failing triple has the first generator a in the middle
        FiniteGroup(
            ("e", "a", "b"), ((0, 1, 2), (1, 0, 2), (2, 2, 0))
        )


def test_symmetric_group_six_builds_quickly():
    start = time.perf_counter()
    s6 = symmetric_group(6)
    assert time.perf_counter() - start < 3.0
    assert s6.order == 720
    assert s6.elements[s6.identity] == "012345"
    # spot-check composition: the right factor acts first
    p, q = s6.index("102345"), s6.index("120345")
    assert s6.elements[s6.mul(p, q)] == "021345"
    assert all(s6.mul(g, s6.inverse(g)) == s6.identity for g in range(720))


def test_associativity_check_matches_brute_force():
    # Light's test over a generating set against the full O(n^3) loop, on
    # random tables that already have a two-sided identity and inverses
    r = np.random.default_rng(11)
    seen = {True: 0, False: 0}
    for _ in range(400):
        n = int(r.integers(2, 5))
        t = r.integers(0, n, size=(n, n))
        t[0] = np.arange(n)
        t[:, 0] = np.arange(n)
        if not ((t == 0) & (t.T == 0)).any(axis=1).all():
            continue
        assoc = all(
            t[t[i, j], k] == t[i, t[j, k]]
            for i in range(n)
            for j in range(n)
            for k in range(n)
        )
        labels = tuple(f"g{i}" for i in range(n))
        try:
            FiniteGroup(labels, t.tolist())
            built = True
        except ValueError:
            built = False
        assert built == assoc
        seen[assoc] += 1
    assert seen[True] and seen[False]


def test_symmetric_group_table_matches_composition_loop():
    from itertools import permutations

    for n in (3, 4):
        perms = sorted(permutations(range(n)))
        idx = {p: i for i, p in enumerate(perms)}
        want = tuple(
            tuple(idx[tuple(p[q[i]] for i in range(n))] for q in perms) for p in perms
        )
        assert symmetric_group(n).table == want


def test_group_constructors():
    assert trivial_group().order == 1
    c4 = cyclic_group(4)
    assert c4.order == 4
    assert c4.mul(1, 3) == 0
    assert c4.inverse(1) == 3
    s3 = symmetric_group(3)
    assert s3.order == 6
    # non-abelian witness
    assert any(s3.mul(i, j) != s3.mul(j, i) for i in range(6) for j in range(6))
    assert s3.elements[s3.identity] == "012"
    with pytest.raises(ValueError):
        cyclic_group(0)
    with pytest.raises(ValueError):
        symmetric_group(7)


def test_group_index_lookup():
    assert Z2.index("r1") == 1
    assert Z2.index(0) == 0
    with pytest.raises(ValueError):
        Z2.index("nope")
    with pytest.raises(ValueError):
        Z2.index(5)


BAD_INDICES = [1.7, 1.0, np.float64(1.0), True, np.True_, None, 1 + 0j]


def test_group_index_takes_integers_and_labels_only():
    c3 = cyclic_group(3)
    rep = regular_rep(c3)
    cc = CrossedContext(Context(3), c3)
    f = random_arrow(np.random.default_rng(8), I, I, cc.base)
    for g in (2, np.int64(2), np.uint8(2), "r2"):
        assert c3.index(g) == 2
        assert_array_equal(rep.mat(g), rep.mats[2])
        assert_array_equal(act(g, f, rep).mat, act(2, f, rep).mat)
        assert_array_equal(lambda_embed(g, cc).mat, lambda_embed(2, cc).mat)
    assert covariance_residuals(f, rep, cc, [np.int64(1), "r2"]).tolist() == covariance_residuals(
        f, rep, cc
    )[[1, 2]].tolist()
    calls = [
        c3.index,
        rep.mat,
        lambda g: act(g, f, rep),
        lambda g: lambda_embed(g, cc),
        lambda g: covariance_residuals(f, rep, cc, [g]),
    ]
    for g in BAD_INDICES:
        for call in calls:
            with pytest.raises(ValueError, match="label or an integer index"):
                call(g)


def test_rep_validation():
    UnitaryRep(Z2, (np.eye(2), SX))  # valid
    with pytest.raises(ValueError):
        UnitaryRep(Z2, (np.eye(2),))
    with pytest.raises(ValueError):
        UnitaryRep(Z2, (np.eye(2), 2 * SX))  # not unitary
    with pytest.raises(ValueError):
        UnitaryRep(Z2, (SX, np.eye(2)))  # identity slot wrong
    with pytest.raises(ValueError):
        # unitary matrices that break the multiplication table
        UnitaryRep(Z2, (np.eye(2), np.diag([1.0, 1j])))
    # 1e200 is finite, but its Gram product overflows to a NaN defect, which
    # must fail the verdict rather than slip past it, and without a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="matrix for 'r1' is not unitary"):
            UnitaryRep(Z2, (np.eye(2), 1e200 * np.eye(2)))
    # the escape hatch for negative controls
    bad = UnitaryRep(Z2, (np.eye(2), np.diag([1.0, 1j])), validate=False)
    assert bad.hdim == 2


def test_rep_validation_names_first_failing_pair():
    # a tiny phase on r2 keeps every matrix unitary but breaks r1 * r1 = r2,
    # the first failing pair in row-major order
    c3 = cyclic_group(3)
    mats = list(regular_rep(c3).mats)
    mats[2] = mats[2] * np.exp(1e-6j)
    with pytest.raises(ValueError, match=r"table at \('r1', 'r1'\)"):
        UnitaryRep(c3, tuple(mats))
    with pytest.raises(ValueError, match="matrix for 'r2' is not unitary"):
        UnitaryRep(c3, (mats[0], mats[1], 1.001 * mats[2]))


def rep_error_by_loop(group, mats):
    """The element-by-element validation, as the reference for the batched one."""
    eye = np.eye(len(mats[0]))
    for lbl, m in zip(group.elements, mats):
        if operator_norm(m.conj().T @ m - eye) > 1e-10 * max(1.0, operator_norm(m)):
            return f"matrix for {lbl!r} is not unitary"
    if operator_norm(mats[group.identity] - eye) > 1e-10:
        return "identity element must map to the identity matrix"
    for i in range(group.order):
        for j in range(group.order):
            want = mats[group.mul(i, j)]
            if operator_norm(mats[i] @ mats[j] - want) > 1e-10 * max(1.0, operator_norm(want)):
                return (
                    "matrices do not respect the multiplication table at "
                    f"({group.elements[i]!r}, {group.elements[j]!r})"
                )
    return None


def padded_rep(group, d, rng):
    """A rep of ``group`` on C^d, d >= |G|: the regular one plus trivial ones, twisted by a random unitary."""
    n = group.order
    w = random_unitary(rng, d)
    mats = []
    for g in range(n):
        p = np.eye(d, dtype=complex)
        p[:n, :n] = 0.0
        for j in range(n):
            p[group.mul(g, j), j] = 1.0
        mats.append(w @ p @ w.conj().T)
    return tuple(mats)


def test_rep_validation_matches_element_loop(monkeypatch):
    r = np.random.default_rng(5)
    cases = [(group, conjugated_regular_rep(group, r).mats) for group in (cyclic_group(4), symmetric_group(3))]
    # reps of hdim 8: the regular rep padded with trivial summands
    cases += [(group, padded_rep(group, 8, r)) for group in (cyclic_group(2), symmetric_group(3))]
    for group, base in cases:
        d = base[0].shape[0]
        for trial in range(30):
            mats = list(base)
            k = int(r.integers(group.order))
            kind = trial % 6
            if kind == 0:
                mats[k] = mats[k] * np.exp(1j * 10.0 ** -r.uniform(5, 12))
            elif kind == 1:
                mats[k] = mats[k] * (1.0 + 10.0 ** -r.uniform(5, 12))
            elif kind == 2:
                mats[k], mats[(k + 1) % group.order] = mats[(k + 1) % group.order], mats[k]
            elif kind == 3:
                # defects near the 1e-10 cut, on either side of it
                mats[k] = mats[k] * np.exp(1j * 10.0 ** -r.uniform(9.5, 10.5))
            elif kind == 4:
                # a rank-one phase defect near the cut
                v = random_unitary(r, d)[:, :1]
                phase = np.exp(1j * 10.0 ** -r.uniform(9.5, 10.5))
                mats[k] = mats[k] @ (np.eye(d) + (phase - 1) * (v @ v.conj().T))
            want = rep_error_by_loop(group, mats)
            if want is None:
                UnitaryRep(group, tuple(mats))
            else:
                with pytest.raises(ValueError) as err:
                    UnitaryRep(group, tuple(mats))
                assert str(err.value) == want
    # defects at fixed multiples of the 1e-10 cut, made of a rank-one
    # projection (Frobenius norm = operator norm) or of the identity
    # (Frobenius norm = sqrt(d) operator norm): a rank-one defect at most
    # half the cut passes by its Frobenius bound, every other by the SVD
    svds = []
    monkeypatch.setattr(linalg, "operator_norms", counted(linalg.operator_norms, svds))
    taken = set()
    for group, base in cases:
        d = base[0].shape[0]
        for c in (0.3, 0.49, 0.51, 0.99, 1.01, 3.0):
            eps = c * 1e-10
            v = random_unitary(r, d)[:, :1]
            for proj in (v @ v.conj().T, np.eye(d)):
                # a phase breaks only the table; a stretch by 1 + eps/2 breaks
                # unitarity by eps + eps^2/4
                for defect in (np.eye(d) + (np.exp(1j * eps) - 1) * proj, np.eye(d) + eps / 2 * proj):
                    mats = list(base)
                    k = int(r.integers(group.order))
                    mats[k] = mats[k] @ defect
                    want = rep_error_by_loop(group, mats)
                    before = len(svds)
                    if want is None:
                        UnitaryRep(group, tuple(mats))
                    else:
                        with pytest.raises(ValueError) as err:
                            UnitaryRep(group, tuple(mats))
                        assert str(err.value) == want
                    taken.add((want is None, len(svds) > before))
    assert taken == {(True, False), (True, True), (False, True)}


def counted(fn, calls):
    """``fn``, appending its first argument to ``calls`` on each call."""

    def wrapper(*args, **kwargs):
        calls.append(args[0])
        return fn(*args, **kwargs)

    return wrapper


SVD_HOME = getattr(np.linalg, "_linalg", None) or importlib.import_module("numpy.linalg.linalg")


def test_valid_reps_are_built_without_an_svd(monkeypatch):
    svds = []
    monkeypatch.setattr(np.linalg, "svd", counted(np.linalg.svd, svds))
    monkeypatch.setattr(SVD_HOME, "svd", counted(SVD_HOME.svd, svds))
    r = np.random.default_rng(13)
    for group in (cyclic_group(5), symmetric_group(3), symmetric_group(4)):
        regular_rep(group)
        trivial_rep(group, 3)
        conjugated_regular_rep(group, r)
        small_rep(group, r)
    assert svds == []
    # the same count sees the SVD of a rep whose defect the bound leaves open
    mats = list(regular_rep(Z2).mats)
    mats[1] = mats[1] * np.exp(3e-10j)
    with pytest.raises(ValueError, match="table"):
        UnitaryRep(Z2, tuple(mats))
    assert svds


def test_rep_validation_in_single_row_blocks_matches_element_loop(monkeypatch):
    # one table row per block, so failures lie past the first block too
    monkeypatch.setattr(linalg, "CHUNK_ENTRIES", 1)
    r = np.random.default_rng(6)
    for group in (cyclic_group(4), symmetric_group(3)):
        base = conjugated_regular_rep(group, r).mats
        for trial in range(12):
            mats = list(base)
            k = int(r.integers(group.order))
            mats[k] = mats[k] * np.exp(1j * 10.0 ** -r.uniform(5, 12))
            want = rep_error_by_loop(group, mats)
            if want is None:
                UnitaryRep(group, tuple(mats))
            else:
                with pytest.raises(ValueError) as err:
                    UnitaryRep(group, tuple(mats))
                assert str(err.value) == want


def test_rep_validation_memory_stays_within_row_blocks():
    # C46 by its regular rep: one (|G|, |G|, h, h) batch of the table check
    # would hold over 4x the entries a row block may
    n = 46
    group = cyclic_group(n)
    mats = tuple(np.roll(np.eye(n, dtype=complex), g, axis=0) for g in range(n))
    assert n * n * n * n >= 4 * linalg.CHUNK_ENTRIES
    tracemalloc.start()
    try:
        UnitaryRep(group, mats)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * linalg.CHUNK_ENTRIES * 16  # bytes; complex128 entries


def test_rep_constructors_are_valid():
    for grp in (trivial_group(), cyclic_group(3), symmetric_group(3)):
        trivial_rep(grp, 2)
        reg = regular_rep(grp)
        assert reg.hdim == grp.order
    r = np.random.default_rng(0)
    conjugated_regular_rep(symmetric_group(3), r)


def test_act_conjugates_hidden_factor():
    f = Arrow(I, I, BASE, np.diag([1.0, -1.0]))
    moved = act(1, f, FLIP_REP)
    assert_allclose(moved.mat, np.diag([-1.0, 1.0]))
    assert_allclose(act("e", f, FLIP_REP).mat, f.mat)
    assert_allclose(act(0, f, trivial_rep(Z2, 2)).mat, f.mat)
    # a random arrow between objects of dims 3 and 2, against u acting on
    # every hidden block at once: (1 (x) u) f (1 (x) u*)
    r = np.random.default_rng(3)
    rep = conjugated_regular_rep(Z2, r)
    g = random_arrow(r, Obj("A", 3), Obj("B", 2), BASE)
    u = rep.mat(1)
    want = np.kron(np.eye(2), u) @ g.mat @ np.kron(np.eye(3), u.conj().T)
    assert_allclose(act(1, g, rep).mat, want, atol=1e-12)


def test_act_is_functorial():
    r = np.random.default_rng(1)
    a = Obj("A", 2)
    f = random_arrow(r, I, a, BASE)
    g = random_arrow(r, a, I, BASE)
    lhs = act(1, compose(g, f), FLIP_REP)
    rhs = compose(act(1, g, FLIP_REP), act(1, f, FLIP_REP))
    assert_allclose(lhs.mat, rhs.mat, atol=1e-12)
    assert_allclose(act(1, dagger(f), FLIP_REP).mat, dagger(act(1, f, FLIP_REP)).mat, atol=1e-12)


def test_translation_laws_exact():
    s3 = symmetric_group(3)
    cc = CrossedContext(Context(1), s3)
    for g in range(s3.order):
        for h in range(s3.order):
            gh = compose(lambda_embed(g, cc), lambda_embed(h, cc))
            assert np.array_equal(gh.mat, lambda_embed(s3.mul(g, h), cc).mat)
        assert np.array_equal(
            dagger(lambda_embed(g, cc)).mat, lambda_embed(s3.inverse(g), cc).mat
        )


def test_pi_diagonal_oracle():
    f = Arrow(I, I, BASE, np.diag([1.0, -1.0]))
    assert_allclose(pi_embed(f, FLIP_REP, CC).mat, np.diag([1.0, -1.0, -1.0, 1.0]))


def test_pi_matches_fibrewise_formula():
    # independent entrywise route: block k of pi(f) is the hidden conjugation
    # of f by the unitary of k^-1, laid out on index (i*|G| + k)
    r = np.random.default_rng(2)
    f0 = r.standard_normal((2, 2)) + 1j * r.standard_normal((2, 2))
    f = Arrow(I, I, BASE, f0)
    got = pi_embed(f, FLIP_REP, CC).mat
    want = np.zeros((4, 4), dtype=complex)
    for k in range(2):
        u = FLIP_REP.mats[Z2.inverse(k)]
        acted = u @ f0 @ u.conj().T
        for a in range(2):
            for b in range(2):
                want[a * 2 + k, b * 2 + k] = acted[a, b]
    assert_allclose(got, want, atol=1e-12)


def test_pi_matches_kron_sum_on_non_unit_objects():
    # pi(f) = sum_k act(k^-1, f) (x) E_kk, with f: B -> D of dims 2 -> 3
    r = np.random.default_rng(4)
    s3 = symmetric_group(3)
    rep = conjugated_regular_rep(s3, r)
    base = Context(6)
    cc = CrossedContext(base, s3)
    f = random_arrow(r, Obj("B", 2), Obj("D", 3), base)
    want = np.zeros((3 * 6 * 6, 2 * 6 * 6), dtype=complex)
    for k in range(6):
        ekk = np.zeros((6, 6))
        ekk[k, k] = 1.0
        want += np.kron(act(s3.inverse(k), f, rep).mat, ekk)
    assert_allclose(pi_embed(f, rep, cc).mat, want, atol=1e-12)


def test_pi_preserves_compose_and_dagger():
    r = np.random.default_rng(3)
    s3 = symmetric_group(3)
    rep = conjugated_regular_rep(s3, r)
    base = Context(6)
    cc = CrossedContext(base, s3)
    a = Obj("A", 2)
    for _ in range(5):
        f = random_arrow(r, I, a, base)
        g = random_arrow(r, a, I, base)
        lhs = pi_embed(compose(g, f), rep, cc)
        rhs = compose(pi_embed(g, rep, cc), pi_embed(f, rep, cc))
        scale = max(1.0, lhs.norm())
        assert (lhs - rhs).norm() <= 1e-10 * scale
        assert (pi_embed(dagger(f), rep, cc) - dagger(pi_embed(f, rep, cc))).norm() <= 1e-10 * scale


def test_pi_rejects_mismatched_context():
    f = Arrow(I, I, Context(3), np.eye(3))
    with pytest.raises(ValueError):
        pi_embed(f, FLIP_REP, CC)


def test_covariance_holds_for_valid_reps():
    r = np.random.default_rng(4)
    a = Obj("A", 2)
    for rep, base in (
        (FLIP_REP, BASE),
        (conjugated_regular_rep(cyclic_group(3), r), Context(3)),
    ):
        cc = CrossedContext(base, rep.group)
        f = random_arrow(r, I, a, base)
        for g in range(rep.group.order):
            assert covariance_residual(g, f, rep, cc) <= 1e-10


def _covariance_by_conjugation(g, f, rep, cc):
    """The covariance defect with the right side built as (id (x) lam) pi(f) (id (x) lam)*."""
    lam = lambda_embed(g, cc)
    lhs = pi_embed(act(g, f, rep), rep, cc)
    conj_l = whisker_left(f.cod, lam)
    conj_r = dagger(whisker_left(f.dom, lam))
    rhs = compose(conj_l, compose(pi_embed(f, rep, cc), conj_r))
    return operator_norm(lhs.mat - rhs.mat)


def test_covariance_matches_conjugation_oracle():
    # permuting pi(f)'s fibres moves the same numbers the permutation
    # products do, so the two residuals agree to the last bit
    r = np.random.default_rng(11)
    objs = (I, Obj("A", 2), Obj("B", 3))
    for group in (cyclic_group(2), cyclic_group(3), symmetric_group(3), cyclic_group(4)):
        n = group.order
        regular = regular_rep(group)
        twist = [np.eye(n)] + [np.diag(np.exp(1j * r.uniform(0, 1, n)))] * (n - 1)
        reps = (
            trivial_rep(group, n),
            regular,
            conjugated_regular_rep(group, r),
            UnitaryRep(group, tuple(m @ t for m, t in zip(regular.mats, twist)), validate=False),
        )
        cc = CrossedContext(Context(n), group)
        for rep in reps:
            dom, cod = objs[r.integers(3)], objs[r.integers(3)]
            f = random_arrow(r, dom, cod, cc.base)
            for g in [*range(n), group.elements[-1]]:
                assert covariance_residual(g, f, rep, cc) == _covariance_by_conjugation(g, f, rep, cc)


def small_rep(group, rng):
    """A faithful rep by matrices smaller than |G|, in a random unitary basis.

    Cyclic groups rotate three phases; symmetric groups permute their points.
    """
    labels = group.elements
    if all(label.isdigit() for label in labels):
        perms = [np.eye(len(label))[:, [int(c) for c in label]] for label in labels]
    else:
        n = group.order
        perms = [np.diag(np.exp(2j * np.pi * k * np.arange(1, 4) / n)) for k in range(n)]
    w = random_unitary(rng, len(perms[0]))
    return UnitaryRep(group, tuple(w @ p @ w.conj().T for p in perms))


@pytest.mark.parametrize(
    "group",
    [*(cyclic_group(n) for n in range(2, 7)), symmetric_group(3), symmetric_group(4)],
    ids=["C2", "C3", "C4", "C5", "C6", "S3", "S4"],
)
def test_covariance_of_all_elements_matches_conjugation_oracle(group):
    r = np.random.default_rng(group.order)
    rep = small_rep(group, r)
    # the same matrices, each non-identity one twisted by a diagonal of phases
    twists = [np.diag(np.exp(1j * r.uniform(0.5, 2, rep.hdim))) for _ in rep.mats]
    mats = [m if g == group.identity else m @ t for g, (m, t) in enumerate(zip(rep.mats, twists))]
    broken = UnitaryRep(group, tuple(mats), validate=False)
    cc = CrossedContext(Context(rep.hdim), group)
    objs = (I, Obj("A", 2))
    for u in (rep, broken):
        for dom, cod in [(I, I), (objs[r.integers(2)], objs[1])]:
            f = random_arrow(r, dom, cod, cc.base)
            stacked = covariance_residuals(f, u, cc)
            assert stacked.tolist() == [_covariance_by_conjugation(g, f, u, cc) for g in range(group.order)]
            assert (stacked > 0.1).any() == (u is broken)


def test_covariance_batches_match_single_elements(monkeypatch):
    # one element per batch, then elements picked by label and index
    r = np.random.default_rng(3)
    group = symmetric_group(3)
    rep = conjugated_regular_rep(group, r)
    cc = CrossedContext(Context(group.order), group)
    f = random_arrow(r, I, Obj("A", 2), cc.base)
    whole = covariance_residuals(f, rep, cc)
    monkeypatch.setattr(linalg, "CHUNK_ENTRIES", 1)
    assert covariance_residuals(f, rep, cc).tolist() == whole.tolist()
    picked = [group.elements[4], 1, 4]
    assert covariance_residuals(f, rep, cc, picked).tolist() == whole[[4, 1, 4]].tolist()
    assert covariance_residuals(f, rep, cc, []).shape == (0,)


def test_covariance_detects_corrupted_rep():
    # measured once and frozen: seed-7 arrow against the diag(1, i)
    # corruption of the flip, which is unitary but not an involution
    r = np.random.default_rng(7)
    f0 = r.standard_normal((2, 2)) + 1j * r.standard_normal((2, 2))
    bad = UnitaryRep(Z2, (np.eye(2, dtype=complex), np.diag([1.0, 1j])), validate=False)
    res = covariance_residual(1, Arrow(I, I, BASE, f0), bad, CC)
    assert_allclose(res, 2.071339456697117, rtol=1e-9)
    assert res > 1e-3


def test_crossed_product_diagonal_by_flip():
    uni = ObjectUniverse((I,), BASE)
    f = Arrow(I, I, BASE, np.diag([1.0, -1.0]))
    crossed = crossed_product([f], FLIP_REP, uni)
    assert crossed.universe.ctx.hdim == 4
    assert crossed.homs[(I, I)].dim == 4
    # brute-force classical route over the explicit 4x4 images
    d = pi_embed(f, FLIP_REP, CC).mat
    p = lambda_embed(1, CC).mat
    brute = classical_commutant(classical_commutant([d, p]))
    assert len(brute) == 4
    engine = list(crossed.homs[(I, I)].mats)
    assert len(span_basis(engine + brute)) == 4
    alg = generated_star_algebra([d, p])
    assert len(alg) == 4


def test_trivial_group_crossed_product_matches_base():
    uni = ObjectUniverse((I,), BASE)
    r = np.random.default_rng(5)
    f = Arrow(I, I, BASE, r.standard_normal((2, 2)) + 1j * r.standard_normal((2, 2)))
    crossed = crossed_product([f], trivial_rep(trivial_group(), 2), uni, auto_close=True)
    plain = double_commutant([f], uni, auto_close=True)
    assert crossed.homs[(I, I)].dim == plain.homs[(I, I)].dim
    joint = list(crossed.homs[(I, I)].mats) + list(plain.homs[(I, I)].mats)
    assert len(span_basis(joint)) == plain.homs[(I, I)].dim


def test_empty_generators_give_group_algebra():
    s3 = symmetric_group(3)
    uni = ObjectUniverse((I,), Context(1))
    crossed = crossed_product([], trivial_rep(s3, 1), uni)
    assert crossed.homs[(I, I)].dim == s3.order


def test_crossed_product_checks_dimensions():
    uni = ObjectUniverse((I,), Context(3))
    with pytest.raises(ValueError):
        crossed_product([], FLIP_REP, uni)


# -- the enlarged-space route as the oracle for crossed_product ----------------

NOT_CLOSED = "generator set is not dagger-closed; pass auto_close=True to extend it"


def crossed_by_enlarged_commutant(gens, rep, universe, tol=1e-9, auto_close=False):
    """Double commutant of pi(gens) and lambda(G), solved on H (x) l2(G)."""
    cc = CrossedContext(universe.ctx, rep.group)
    embedded = [pi_embed(f, rep, cc) for f in gens]
    embedded += [lambda_embed(g, cc) for g in range(rep.group.order)]
    tilde = ObjectUniverse(universe.objects, cc.tilde)
    return double_commutant(embedded, tilde, tol, auto_close=auto_close)


def orbit_algebra_dim(gens, rep):
    """dim B by the classical route: the *-algebra of every hidden block of the orbit."""
    h = rep.hdim
    orbit = [act(g, f, rep) for g in range(rep.group.order) for f in gens]
    blocks = [b for f in orbit for b in f.blocks.reshape(-1, h, h)]
    return len(generated_star_algebra(blocks or [np.eye(h)]))


def block_element(rng, w, sizes):
    """w (M_n1 (+) M_n2 (+) ...) w* at a random point: a proper subalgebra of End(H)."""
    m = np.zeros((sum(sizes), sum(sizes)), dtype=complex)
    start = 0
    for n in sizes:
        m[start : start + n, start : start + n] = random_matrix(rng, n, n)
        start += n
    return w @ m @ w.conj().T


def block_generators(rng, ctx, w, sizes, pairs, auto_close):
    """Arrows on the given hom pairs whose hidden blocks all lie in one block algebra.

    Their daggers are appended unless ``auto_close`` is to add them.
    """
    gens = []
    for dom, cod in pairs:
        grid = np.array(
            [[block_element(rng, w, sizes) for _ in range(dom.dim)] for _ in range(cod.dim)]
        )
        f = Arrow.from_blocks(dom, cod, ctx, grid)
        gens += [f] if auto_close else [f, dagger(f)]
    return gens


X2 = Obj("X2", 2)
GROUPS = {
    "C2": Z2,
    "C3": cyclic_group(3),
    "C4": cyclic_group(4),
    "S3": symmetric_group(3),
    "S4": symmetric_group(4),
}
PAIRS = {"unit": [(I, I)], "non-unit": [(I, X2)], "both": [(I, I), (I, X2)]}

# (group, rep, hdim, generator hom pairs, auto_close); h*|G| stays at most
# 12 but for C4's regular reps (16) and S4 at hdim 1 (24), the slowest case
ORACLE_CASES = [
    ("C2", "trivial", 3, "unit", False),
    ("C2", "trivial", 6, "both", True),
    ("C2", "trivial", 4, "non-unit", False),
    ("C2", "regular", 2, "unit", False),
    ("C2", "regular", 2, "non-unit", True),
    ("C2", "conjugated", 2, "both", False),
    ("C2", "conjugated", 2, "unit", True),
    ("C3", "trivial", 2, "non-unit", False),
    ("C3", "trivial", 4, "both", True),
    ("C3", "regular", 3, "both", False),
    ("C3", "conjugated", 3, "non-unit", False),
    ("C3", "conjugated", 3, "unit", True),
    ("C4", "trivial", 3, "unit", False),
    ("C4", "trivial", 2, "both", True),
    ("C4", "regular", 4, "unit", True),
    ("C4", "conjugated", 4, "both", False),
    ("S3", "trivial", 2, "both", False),
    ("S3", "trivial", 1, "unit", True),
    ("S3", "trivial", 2, "non-unit", True),
    ("S4", "trivial", 1, "both", False),
]


@pytest.mark.parametrize("case", ORACLE_CASES, ids=lambda c: "-".join(map(str, c)))
def test_crossed_product_matches_enlarged_double_commutant(case):
    name, kind, h, pairs, auto_close = case
    group = GROUPS[name]
    rng = np.random.default_rng(ORACLE_CASES.index(case))
    if kind == "trivial":
        rep, w = trivial_rep(group, h), random_unitary(rng, h)
        cut = int(rng.integers(1, h)) if h > 1 else 1
        sizes = [cut, h - cut] if h > 1 else [1]
    else:
        # the regular rep permutes diagonals, so diagonal generators in the
        # basis that conjugates it keep the orbit algebra proper
        w = random_unitary(rng, h) if kind == "conjugated" else np.eye(h)
        rep = UnitaryRep(group, tuple(w @ m @ w.conj().T for m in regular_rep(group).mats))
        sizes = [1] * h
    ctx = Context(h)
    universe = ObjectUniverse((I, X2), ctx)
    gens = block_generators(rng, ctx, w, sizes, PAIRS[pairs], auto_close)
    new = crossed_product(gens, rep, universe, auto_close=auto_close)
    old = crossed_by_enlarged_commutant(gens, rep, universe, auto_close=auto_close)
    dim_b = orbit_algebra_dim(gens, rep)
    assert dim_b < h * h or h == 1
    for dom, cod in universe.pairs():
        assert new.homs[(dom, cod)].dim == old.homs[(dom, cod)].dim
        assert new.homs[(dom, cod)].dim == dom.dim * cod.dim * group.order * dim_b
        assert subspace_equal(new.homs[(dom, cod)], old.homs[(dom, cod)])
    stack = new.homs[(I, I)].mats.reshape(len(new.homs[(I, I)].mats), -1)
    assert_allclose(stack.conj() @ stack.T, np.eye(len(stack)), atol=1e-10)


def both_verdicts(gens, rep, universe, auto_close=False):
    """(dims or error message) of crossed_product and of the enlarged route."""
    out = []
    for route in (crossed_product, crossed_by_enlarged_commutant):
        try:
            out.append([d for _, _, d in route(gens, rep, universe, auto_close=auto_close).dims()])
        except ValueError as err:
            out.append(str(err))
    return out


def test_unit_plus_skew_is_closed_through_the_identity():
    # (1 + iH)* = 2*1 - (1 + iH): in the span only once the unit counts
    uni = ObjectUniverse((I, X2), BASE)
    f = Arrow(I, I, BASE, np.eye(2) + 1j * np.diag([1.0, -1.0]))
    rep = trivial_rep(Z2, 2)
    assert not is_star_closed([act(g, f, rep) for g in range(2)])
    new, old = both_verdicts([f], rep, uni)
    assert new == old == [2 * 2, 2 * 2 * 2, 2 * 2 * 2, 4 * 2 * 2]


def test_generic_generator_under_flip_is_rejected():
    uni = ObjectUniverse((I, X2), BASE)
    f = random_arrow(np.random.default_rng(8), I, I, BASE)
    assert both_verdicts([f], FLIP_REP, uni) == [NOT_CLOSED, NOT_CLOSED]
    with pytest.raises(ValueError, match="not dagger-closed"):
        crossed_product([f], FLIP_REP, uni)
    new, old = both_verdicts([f], FLIP_REP, uni, auto_close=True)
    assert new == old


def test_nilpotent_under_flip_is_rejected_though_its_orbit_is_closed():
    # the flip turns E12 into E21, so the orbit is dagger-closed; the
    # generator itself is not, and that is what decides
    uni = ObjectUniverse((I,), BASE)
    f = Arrow(I, I, BASE, [[0.0, 1.0], [0.0, 0.0]])
    assert is_star_closed([act(g, f, FLIP_REP) for g in range(2)])
    assert both_verdicts([f], FLIP_REP, uni) == [NOT_CLOSED, NOT_CLOSED]
    new, old = both_verdicts([f], FLIP_REP, uni, auto_close=True)
    assert new == old == [8]


@pytest.mark.parametrize("offset", [0.1, 10.0])
def test_near_tolerance_dagger_gets_the_enlarged_verdict(offset):
    # a partner that misses the dagger of f by offset*tol (Frobenius), with
    # ||f|| >= 1, where the base and enlarged residual bounds coincide
    tol = 1e-9
    r = np.random.default_rng(9)
    for rep in (FLIP_REP, conjugated_regular_rep(cyclic_group(3), r)):
        ctx = Context(rep.hdim)
        uni = ObjectUniverse((I, X2), ctx)
        f = random_arrow(r, I, X2, ctx)
        f = f * (1.5 / f.norm())
        fd = dagger(f).mat
        e = random_matrix(r, *fd.shape)
        e -= fd * (np.vdot(fd, e) / np.vdot(fd, fd))
        partner = Arrow(X2, I, ctx, fd + offset * tol * e / np.linalg.norm(e))
        new, old = both_verdicts([f, partner], rep, uni)
        assert new == old
        assert (new == NOT_CLOSED) == (offset > 1)
        new, old = both_verdicts([f, partner], rep, uni, auto_close=True)
        assert new == old


def test_crossed_product_solves_on_the_base_hidden_space(monkeypatch):
    # one S'' solve (S' then S'') on End(H) and one dagger check of the
    # generators per call, whatever the group order; the orbit is twisted
    # blocks, not arrows
    hdims, passes = [], []
    solve, missing = commutant_module._hidden_commutant, commutant_module._missing_daggers

    def spied(blocks, h, *args):
        hdims.append(h)
        return solve(blocks, h, *args)

    def passed(gens, *args):
        passes.append(len(gens))
        return missing(gens, *args)

    def refuse(*args, **kwargs):
        raise AssertionError("built an orbit Arrow")

    monkeypatch.setattr(commutant_module, "_hidden_commutant", spied)
    monkeypatch.setattr(commutant_module, "_missing_daggers", passed)
    monkeypatch.setattr(Arrow, "from_blocks", refuse)
    r = np.random.default_rng(10)
    rep = conjugated_regular_rep(cyclic_group(3), r)
    ctx = Context(3)
    uni = ObjectUniverse((I, X2), ctx)
    f = random_arrow(r, I, X2, ctx)
    for auto_close, gens in ((False, [f, dagger(f)]), (True, [f]), (False, [])):
        cat = crossed_product(gens, rep, uni, auto_close=auto_close)
        assert cat.universe.ctx.hdim == 9
    assert hdims == [3] * 6
    assert passes == [3, 2, 1]


REPS = {
    "trivial": lambda group, rng: trivial_rep(group, 2),
    "regular": lambda group, rng: regular_rep(group),
    "conjugated": conjugated_regular_rep,
}


def crossed_stack_by_products(gens, rep, universe, tol=1e-9):
    """The (I, I) stack pi(b) lambda(g) / sqrt(|G|) by enlarged matrix products.

    ``gens`` must be dagger-closed; B comes from the orbit as in ``crossed_product``.
    """
    cc = CrossedContext(universe.ctx, rep.group)
    n = rep.group.order
    unit = Arrow(I, I, cc.base, np.eye(cc.base.hdim))
    orbit = [act(g, f, rep) for f in [*gens, unit] for g in range(n)]
    closure = double_commutant(orbit, ObjectUniverse((I,), cc.base), tol, auto_close=True)
    pis = np.stack([pi_embed(Arrow(I, I, cc.base, b), rep, cc).mat for b in endo_algebra(closure)])
    return np.concatenate([pis @ lambda_embed(g, cc).mat for g in range(n)]) / np.sqrt(n)


@pytest.mark.parametrize("group", ["C3", "C4", "S3"])
@pytest.mark.parametrize("kind", sorted(REPS))
def test_crossed_product_stack_equals_enlarged_products(group, kind):
    # writing pi(b) lambda(g) by index moves the very numbers the
    # permutation products do: the two stacks agree entry for entry
    r = np.random.default_rng(7)
    rep = REPS[kind](GROUPS[group], r)
    ctx = Context(rep.hdim)
    uni = ObjectUniverse((I, X2), ctx)
    gens = star_closure([random_arrow(r, I, I, ctx), random_arrow(r, I, X2, ctx)])
    got = crossed_product(gens, rep, uni).homs[(I, I)].mats
    assert_array_equal(got, crossed_stack_by_products(gens, rep, uni))


def test_covariance_and_crossed_product_skip_the_enlarged_embeddings(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("embedded on the enlarged space")

    for name in ("pi_embed", "act", "lambda_embed"):
        monkeypatch.setattr(crossed, name, refuse)
    r = np.random.default_rng(12)
    rep = conjugated_regular_rep(symmetric_group(3), r)
    ctx = Context(rep.hdim)
    cc = CrossedContext(ctx, rep.group)
    f = random_arrow(r, I, X2, ctx)
    for g in range(rep.group.order):
        assert covariance_residual(g, f, rep, cc) <= 1e-10
    cat = crossed_product([f], rep, ObjectUniverse((I, X2), ctx), auto_close=True)
    assert cat.universe.ctx == cc.tilde


@pytest.mark.parametrize("group", ["C3", "S3"])
def test_crossed_product_orbit_is_per_generator_concatenation(group, monkeypatch):
    # the orbit is twisted in one call, then put in generator, g, block
    # order: the very array that a call per generator concatenates
    solved = []
    solve = commutant_module._hidden_commutant

    def spied(blocks, *args):
        solved.append(blocks)
        return solve(blocks, *args)

    monkeypatch.setattr(commutant_module, "_hidden_commutant", spied)
    r = np.random.default_rng(14)
    rep = conjugated_regular_rep(GROUPS[group], r)
    ctx = Context(rep.hdim)
    a, b = Obj("A", 2), Obj("B", 3)
    sparse = np.zeros((3 * ctx.hdim, 2 * ctx.hdim), dtype=complex)
    sparse[: ctx.hdim, ctx.hdim :] = random_matrix(r, ctx.hdim, ctx.hdim)  # one nonzero block of six
    zero = Arrow(I, a, ctx, np.zeros((2 * ctx.hdim, ctx.hdim)))
    gens = star_closure([random_arrow(r, I, I, ctx), random_arrow(r, a, b, ctx), Arrow(a, b, ctx, sparse), zero])
    crossed_product(gens, rep, ObjectUniverse((I, a, b), ctx))
    h = ctx.hdim
    unit = Arrow(I, I, ctx, np.eye(h))
    want = np.concatenate(
        [crossed._twist(rep._stack, commutant_module._blocks([f], h)).reshape(-1, h, h) for f in [*gens, unit]]
    )
    assert np.array_equal(solved[0], want)
