import numpy as np
import pytest
from numpy.testing import assert_allclose

from vncat import (
    Arrow,
    Context,
    Obj,
    arrow_close,
    central_arrow,
    central_defect,
    central_factor,
    compose,
    cstar_residuals,
    dagger,
    identity_arrow,
    interchange_residuals,
    kron,
    ltimes,
    operator_norm,
    pair_swap,
    pair_swap_family,
    rtimes,
    swap_perm,
    symmetry,
    tensor_obj,
    unit_obj,
    whisker_left,
    whisker_right,
)
from helpers import random_arrow

CTX = Context(2)
A = Obj("A", 2)
B = Obj("B", 3)
C = Obj("C", 2)


def rng():
    return np.random.default_rng(42)


def test_arrow_shape_validation():
    with pytest.raises(ValueError):
        Arrow(A, B, CTX, np.eye(4))
    Arrow(A, B, CTX, np.zeros((6, 4)))  # (cod.dim*h) x (dom.dim*h)


def test_arrow_matrix_is_frozen():
    f = identity_arrow(A, CTX)
    with pytest.raises(ValueError):
        f.mat[0, 0] = 5.0


def test_tensor_obj_elides_units():
    assert tensor_obj(unit_obj(), A) == A
    assert tensor_obj(A, unit_obj()) == A
    ab = tensor_obj(A, B)
    assert ab.dim == 6


def test_compose_and_identity():
    r = rng()
    f = random_arrow(r, A, B, CTX)
    g = random_arrow(r, B, C, CTX)
    gf = compose(g, f)
    assert gf.dom == A and gf.cod == C
    assert_allclose(gf.mat, g.mat @ f.mat)
    assert_allclose(compose(f, identity_arrow(A, CTX)).mat, f.mat)
    assert_allclose(compose(identity_arrow(B, CTX), f).mat, f.mat)
    with pytest.raises(ValueError):
        compose(f, g)


def test_dagger_laws():
    r = rng()
    f = random_arrow(r, A, B, CTX)
    g = random_arrow(r, B, C, CTX)
    assert_allclose(dagger(compose(g, f)).mat, compose(dagger(f), dagger(g)).mat)
    assert_allclose(dagger(dagger(f)).mat, f.mat)
    assert np.array_equal(
        dagger(identity_arrow(A, CTX)).mat, identity_arrow(A, CTX).mat
    )


def test_whisker_left_is_plain_kron():
    r = rng()
    f = random_arrow(r, A, B, CTX)
    wf = whisker_left(C, f)
    assert wf.dom == tensor_obj(C, A)
    assert np.array_equal(wf.mat, kron(np.eye(2), f.mat))
    # unit whiskering changes nothing
    assert np.array_equal(whisker_left(unit_obj(), f).mat, f.mat)
    assert np.array_equal(whisker_right(f, unit_obj()).mat, f.mat)


def test_whisker_right_on_basis_vectors():
    # f (x) id must act as f on the left slot while the right slot rides along
    r = rng()
    f = random_arrow(r, A, B, CTX)
    wf = whisker_right(f, C)
    h = CTX.hdim
    for i in range(A.dim):
        for k in range(C.dim):
            for j in range(h):
                v = np.zeros(A.dim * C.dim * h, dtype=complex)
                v[(i * C.dim + k) * h + j] = 1.0
                out = wf.mat @ v
                # expected: (f e_i h_j) (x) e_k placed into B (x) C (x) H
                fe = f.mat[:, i * h + j]
                want = np.zeros(B.dim * C.dim * h, dtype=complex)
                for y in range(B.dim):
                    for jj in range(h):
                        want[(y * C.dim + k) * h + jj] = fe[y * h + jj]
                assert_allclose(out, want, atol=1e-12)


def test_whisker_nesting_exact():
    r = rng()
    f = random_arrow(r, A, B, CTX)
    lhs = whisker_left(C, whisker_left(A, f))
    rhs = whisker_left(tensor_obj(C, A), f)
    assert np.array_equal(lhs.mat, rhs.mat)
    lhs2 = whisker_right(whisker_right(f, C), A)
    rhs2 = whisker_right(f, tensor_obj(C, A))
    assert_allclose(lhs2.mat, rhs2.mat, atol=1e-15)


def test_whisker_dagger_commute():
    r = rng()
    f = random_arrow(r, A, B, CTX)
    assert np.array_equal(dagger(whisker_left(C, f)).mat, whisker_left(C, dagger(f)).mat)
    assert_allclose(dagger(whisker_right(f, C)).mat, whisker_right(dagger(f), C).mat, atol=1e-15)


def test_whiskers_preserve_composition():
    r = rng()
    f = random_arrow(r, A, B, CTX)
    g = random_arrow(r, B, C, CTX)
    gf = compose(g, f)
    assert_allclose(
        whisker_left(C, gf).mat,
        compose(whisker_left(C, g), whisker_left(C, f)).mat,
        atol=1e-12,
    )
    assert_allclose(
        whisker_right(gf, C).mat,
        compose(whisker_right(g, C), whisker_right(f, C)).mat,
        atol=1e-12,
    )


def test_times_factorizations():
    r = rng()
    f = random_arrow(r, A, B, CTX)
    g = random_arrow(r, C, A, CTX)
    lt = ltimes(g, f)
    rt = rtimes(g, f)
    assert lt.dom == tensor_obj(C, A) and lt.cod == tensor_obj(A, B)
    assert_allclose(lt.mat, (whisker_left(A, f).mat) @ (whisker_right(g, A).mat))
    assert_allclose(rt.mat, (whisker_right(g, B).mat) @ (whisker_left(C, f).mat))


def test_times_bilinear():
    r = rng()
    f1 = random_arrow(r, A, B, CTX)
    f2 = random_arrow(r, A, B, CTX)
    g = random_arrow(r, C, A, CTX)
    s = 0.7 - 0.2j
    assert_allclose(
        ltimes(g, f1 + s * f2).mat,
        ltimes(g, f1).mat + s * ltimes(g, f2).mat,
        atol=1e-12,
    )
    assert_allclose(
        rtimes(g + s * g, f1).mat, (1 + s) * rtimes(g, f1).mat, atol=1e-12
    )


def test_central_arrows_interchange_exactly():
    r = rng()
    c = central_arrow(r.standard_normal((3, 2)), A, B, CTX)
    for _ in range(3):
        g = random_arrow(r, C, A, CTX)
        assert interchange_residuals(c, g) <= 1e-12


def test_exactly_central_arrows_give_exactly_zero():
    r = np.random.default_rng(4)
    for h in (1, 2, 3, 4):
        ctx = Context(h)
        for _ in range(20):
            a, b, c, d = (Obj(n, int(k)) for n, k in zip("abcd", r.integers(1, 4, size=4)))
            fhat = r.standard_normal((b.dim, a.dim)) + 1j * r.standard_normal((b.dim, a.dim))
            f = central_arrow(fhat, a, b, ctx)
            g = random_arrow(r, c, d, ctx)
            assert interchange_residuals(f, g) == 0.0 and interchange_residuals(g, f) == 0.0


def test_generic_arrows_do_not_interchange():
    r = np.random.default_rng(9)
    f = random_arrow(r, A, A, CTX)
    g = random_arrow(r, B, B, CTX)
    assert interchange_residuals(f, g) > 0.1


def test_pair_swap_matrix_and_baseline():
    t = pair_swap(0, 1, CTX)
    m = np.zeros((4, 4))
    m[2, 1] = m[1, 2] = 1.0
    assert np.array_equal(t.mat, m)
    assert np.array_equal(dagger(t).mat, t.mat)
    # measured once and frozen: the pair swap fails interchange against
    # itself with operator-norm defect exactly 1
    assert_allclose(interchange_residuals(t, t), 1.0, atol=1e-12)


def test_pair_swap_family_size():
    assert len(pair_swap_family(Context(1))) == 0
    assert len(pair_swap_family(Context(2))) == 1
    assert len(pair_swap_family(Context(3))) == 3
    with pytest.raises(ValueError):
        pair_swap(0, 0, CTX)
    with pytest.raises(ValueError):
        pair_swap(0, 1, Context(1))


def test_symmetry_is_central_permutation():
    s = symmetry(A, B, CTX)
    assert s.dom == tensor_obj(A, B) and s.cod == tensor_obj(B, A)
    assert central_factor(s) is not None
    assert_allclose(central_factor(s), swap_perm(A.dim, B.dim))
    # swapping with the unit is the identity
    s1 = symmetry(unit_obj(), A, CTX)
    assert np.array_equal(s1.mat, identity_arrow(A, CTX).mat)
    back = compose(symmetry(B, A, CTX), s)
    assert np.array_equal(back.mat, identity_arrow(tensor_obj(A, B), CTX).mat)


def test_central_factor_roundtrip_and_refusal():
    r = rng()
    fhat = r.standard_normal((3, 2)) + 1j * r.standard_normal((3, 2))
    c = central_arrow(fhat, A, B, CTX)
    assert_allclose(central_factor(c), fhat, atol=1e-12)
    assert central_defect(c) <= 1e-12
    assert central_factor(pair_swap(0, 1, CTX)) is None


def test_central_factor_trivial_hidden():
    ctx1 = Context(1)
    r = rng()
    f = random_arrow(r, A, B, ctx1)
    assert_allclose(central_factor(f), f.mat)
    assert central_defect(f) == 0.0


@pytest.mark.parametrize("seed", range(4))
def test_cstar_residuals_vanish(seed):
    r = np.random.default_rng(seed)
    t = random_arrow(r, A, B, CTX)
    s = random_arrow(r, B, C, CTX)
    res = cstar_residuals(s, t, B)
    for v in res.values():
        assert v <= 1e-10


def test_arrow_algebra_ops():
    r = rng()
    f = random_arrow(r, A, B, CTX)
    g = random_arrow(r, A, B, CTX)
    assert_allclose((f + g).mat, f.mat + g.mat)
    assert_allclose((f - g).mat, f.mat - g.mat)
    assert_allclose((2j * f).mat, 2j * f.mat)
    assert_allclose((-f).mat, -f.mat)
    h = random_arrow(r, B, A, CTX)
    with pytest.raises(ValueError):
        f + h


def test_arrow_close():
    r = rng()
    f = random_arrow(r, A, B, CTX)
    assert arrow_close(f, f + 1e-12 * f, 1e-9)
    assert not arrow_close(f, 2 * f, 1e-9)
    g = random_arrow(r, B, A, CTX)
    assert not arrow_close(f, g)


def test_operator_norm_alias():
    r = rng()
    f = random_arrow(r, A, B, CTX)
    assert_allclose(f.norm(), operator_norm(f.mat))


def test_interchange_residuals_agree_by_swap_conjugation():
    r = np.random.default_rng(17)
    objs = (unit_obj(), Obj("A", 2), Obj("B", 3))
    for h in (1, 2, 3):
        ctx = Context(h)
        for _ in range(30):
            a, b, c, d = (objs[i] for i in r.integers(len(objs), size=4))
            f = random_arrow(r, a, b, ctx)
            g = random_arrow(r, c, d, ctx)
            s = symmetry(f.cod, g.cod, ctx)
            s_in = symmetry(g.dom, f.dom, ctx)
            assert_allclose(compose(s, compose(ltimes(f, g), s_in)).mat, rtimes(g, f).mat, atol=1e-12)
            assert_allclose(compose(s, compose(rtimes(f, g), s_in)).mat, ltimes(g, f).mat, atol=1e-12)
            # one value, from the block commutators, for both bracketings
            za = operator_norm(ltimes(f, g).mat - rtimes(f, g).mat)
            zb = operator_norm(ltimes(g, f).mat - rtimes(g, f).mat)
            z = interchange_residuals(f, g)
            scale = max(za, zb, f.norm() * g.norm())
            assert abs(z - za) <= 1e-12 * scale and abs(z - zb) <= 1e-12 * scale


def test_interchange_residuals_need_one_context():
    r = np.random.default_rng(5)
    f = random_arrow(r, A, A, Context(2))
    g = random_arrow(r, A, A, Context(3))
    with pytest.raises(ValueError, match="context mismatch"):
        interchange_residuals(f, g)


def _old_whisker_right(f, a):
    """f (x) id_a as the swap-conjugated left whisker, the formula before blocks."""
    h = f.ctx.hdim
    left = kron(swap_perm(a.dim, f.cod.dim), np.eye(h))
    right = kron(swap_perm(f.dom.dim, a.dim), np.eye(h))
    return left @ kron(np.eye(a.dim), f.mat) @ right


def test_block_view_round_trip_and_layout():
    r = np.random.default_rng(11)
    for h in (1, 2, 3):
        ctx = Context(h)
        for dd, db in ((1, 1), (2, 3), (3, 1)):
            f = random_arrow(r, Obj("X", db), Obj("Y", dd), ctx)
            assert f.blocks.shape == (dd, db, h, h)
            back = Arrow.from_blocks(f.dom, f.cod, ctx, f.blocks)
            assert np.array_equal(back.mat, f.mat)
            for d, b in np.ndindex(dd, db):
                block = f.mat[d * h : (d + 1) * h, b * h : (b + 1) * h]
                assert np.array_equal(f.blocks[d, b], block)


def test_block_view_is_read_only():
    f = random_arrow(rng(), A, B, CTX)
    assert not f.blocks.flags.writeable
    with pytest.raises(ValueError):
        f.blocks[0, 0, 0, 0] = 5.0


def test_whisker_right_matches_swap_conjugation():
    r = np.random.default_rng(23)
    for h in (1, 2, 3):
        ctx = Context(h)
        for dd, db, n in np.ndindex(3, 3, 3):
            f = random_arrow(r, Obj("X", db + 1), Obj("Y", dd + 1), ctx)
            a = Obj("W", n + 1)
            assert np.array_equal(whisker_right(f, a).mat, _old_whisker_right(f, a))
