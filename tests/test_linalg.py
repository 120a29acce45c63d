import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from vncat import (
    Arrow,
    Context,
    Obj,
    arrow_close,
    central_defect,
    central_factor,
    kron,
    nullspace,
    operator_norm,
    swap_perm,
)
from vncat import linalg
from vncat.linalg import relative, within


def test_kron_entry_layout():
    a = np.array([[1, 2], [3, 4]], dtype=complex)
    b = np.array([[0, 5], [6, 7], [8, 9]], dtype=complex)
    k = kron(a, b)
    assert k.shape == (6, 4)
    for i in range(2):
        for j in range(2):
            for r in range(3):
                for c in range(2):
                    assert k[i * 3 + r, j * 2 + c] == a[i, j] * b[r, c]


def test_kron_mixed_with_identity():
    rng = np.random.default_rng(3)
    m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    assert_allclose(kron(np.eye(1), m), m)
    assert np.array_equal(kron(np.eye(2), m)[3:, :3], np.zeros((3, 3)))


def test_swap_perm_images():
    # column i*n+j carries the one at row j*m+i
    s = swap_perm(2, 3)
    hit = [int(np.argmax(s[:, col].real)) for col in range(6)]
    assert hit == [0, 2, 4, 1, 3, 5]
    # so basis vector e_i (x) e_j lands on e_j (x) e_i
    v = np.zeros(6)
    v[1 * 3 + 2] = 1.0  # e_1 (x) e_2 of C^2 (x) C^3
    w = s @ v
    assert w[2 * 2 + 1] == 1.0 and np.count_nonzero(w) == 1


def test_swap_perm_inverse_exact():
    for m, n in [(1, 1), (1, 4), (2, 3), (3, 3), (4, 2)]:
        left = swap_perm(n, m) @ swap_perm(m, n)
        assert np.array_equal(left, np.eye(m * n, dtype=complex))


def test_swap_perm_trivial_factor_is_identity():
    assert np.array_equal(swap_perm(1, 5), np.eye(5, dtype=complex))
    assert np.array_equal(swap_perm(5, 1), np.eye(5, dtype=complex))


def test_nullspace_known_kernel():
    a = np.array([[1.0, 1.0], [2.0, 2.0]], dtype=complex)
    ns = nullspace(a)
    assert ns.shape == (2, 1)
    assert_allclose(a @ ns[:, 0], 0, atol=1e-12)


def test_nullspace_zero_matrix_full_basis():
    assert np.array_equal(nullspace(np.zeros((3, 4))), np.eye(4, dtype=complex))


def test_nullspace_wide_matrix():
    # fewer rows than columns: the kernel must still be complete
    a = np.array([[1.0, 2.0, 3.0]], dtype=complex)
    ns = nullspace(a)
    assert ns.shape == (3, 2)
    assert_allclose(a @ ns, 0, atol=1e-12)
    assert_allclose(ns.conj().T @ ns, np.eye(2), atol=1e-12)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_nullspace_residual_and_orthonormality(seed):
    rng = np.random.default_rng(seed)
    rows, cols, rank = 8, 6, 3
    a = (rng.standard_normal((rows, rank)) + 1j * rng.standard_normal((rows, rank))) @ (
        rng.standard_normal((rank, cols)) + 1j * rng.standard_normal((rank, cols))
    )
    tol = 1e-9
    ns = nullspace(a, tol)
    assert ns.shape[1] == cols - rank
    smax = operator_norm(a)
    for i in range(ns.shape[1]):
        assert np.linalg.norm(a @ ns[:, i]) <= 10 * tol * smax
    assert_allclose(ns.conj().T @ ns, np.eye(ns.shape[1]), atol=1e-12)


def test_nullspace_absolute_floor():
    # numerically-zero matrix: a relative cut alone would see noise as
    # structure, the floor of tol reads it as zero
    a = np.full((4, 4), 1e-16, dtype=complex)
    assert nullspace(a, 1e-9).shape[1] == 4


def test_operator_norm_matches_svd():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
    assert_allclose(operator_norm(a), np.linalg.svd(a, compute_uv=False)[0])


# The identity factor of a bare matrix: wrap it as an arrow and read fhat back.


def test_factor_out_identity_recovers():
    rng = np.random.default_rng(7)
    fhat = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    a = Arrow(Obj("X", 2), Obj("Y", 3), Context(4), kron(fhat, np.eye(4)))
    got = central_factor(a)
    assert got is not None
    assert_allclose(got, fhat, atol=1e-12)


def test_factor_out_identity_rejects_swap():
    # the full swap on C^2 (x) C^2 is not of the form fhat (x) id; its best
    # approximation is eye/2 at operator-norm distance 3/2
    x = Obj("X", 2)
    s = Arrow(x, x, Context(2), swap_perm(2, 2))
    assert central_factor(s) is None
    assert_allclose(central_defect(s), 1.5, atol=1e-12)


def test_factor_out_identity_trivial_hidden_dim():
    rng = np.random.default_rng(11)
    a = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    f = Arrow(Obj("X", 2), Obj("Y", 3), Context(1), a)
    assert_allclose(central_factor(f), a)
    assert central_defect(f) == 0.0


# The verdict predicate: within(x, s, tol) is relative(x, s) <= tol, whichever
# bound decides it.  Defects are drawn as tol times a factor up to 3 max(1, s),
# so x <= tol, tol < x <= tol max(1, s) (passed by the scale alone) and
# x > tol max(1, s) all occur.

TOLS = st.floats(-12, -2).map(lambda e: 10.0**e)
SCALES = st.one_of(st.just(0.0), st.floats(-3, 8).map(lambda e: 10.0**e))
FACTORS = st.one_of(
    st.sampled_from([0.0, 0.5, 1.0, 2.0]),
    st.floats(0, 3, allow_nan=False),
)


@settings(max_examples=300, deadline=None)
@given(tol=TOLS, s=SCALES, factor=FACTORS, callable_scale=st.booleans())
def test_within_equals_the_relative_cut(tol, s, factor, callable_scale):
    x = factor * tol * max(1.0, s)
    scale = (lambda: s) if callable_scale else s
    assert bool(within(x, scale, tol)) == bool(relative(x, s) <= tol)


@settings(max_examples=200, deadline=None)
@given(
    tol=TOLS,
    s=SCALES,
    factor=FACTORS,
    rank_one=st.booleans(),
    shape=st.tuples(st.integers(1, 5), st.integers(1, 5)),
    seed=st.integers(0, 2**32 - 1),
)
def test_within_on_defect_matrices_equals_the_relative_cut(tol, s, factor, rank_one, shape, seed):
    # rank one: Frobenius norm = operator norm; full: Frobenius up to sqrt(min(shape)) times more
    rng = np.random.default_rng(seed)
    m = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    if rank_one:
        m = np.outer(m[:, 0], m[0])
    m *= factor * tol * max(1.0, s) / operator_norm(m)
    want = relative(operator_norm(m), s) <= tol
    assert bool(within(None, s, tol, mats=m)) == want
    assert within(None, np.full(3, s), tol, mats=np.stack([m, 0 * m, m])).tolist() == [want, True, want]


def test_within_takes_an_svd_only_where_the_frobenius_bound_is_open(monkeypatch):
    taken = []
    norms = linalg.operator_norms

    def counted(stack):
        taken.append(len(stack))
        return norms(stack)

    monkeypatch.setattr(linalg, "operator_norms", counted)
    v = np.zeros((4, 4), dtype=complex)
    v[0, 0] = 1.0
    tol = 1e-9
    stack = np.stack([0.49 * tol * v, 0.51 * tol * v, 0.3 * tol * np.eye(4), 2 * tol * v])
    assert within(None, 1.0, tol, mats=stack).tolist() == [True, True, True, False]
    assert taken == [3]
    # an overflowing Frobenius sum leaves its matrix to the SVD; a non-finite entry fails
    big = np.full((2, 2), 1e200, dtype=complex)
    assert within(None, 1e200, 1e-9, mats=np.stack([big, big])).tolist() == [False, False]
    assert within(None, 1e220, 1e-9, mats=np.stack([big, np.full((2, 2), np.inf)])).tolist() == [True, False]


def test_within_computes_the_scale_only_when_a_bound_leaves_a_verdict_open():
    def refuse():
        raise AssertionError("computed the scale")

    assert within([0.0, 1e-9], refuse, 1e-9).all()
    assert within(None, refuse, 1e-9, mats=np.full((2, 3, 3), 1e-10)).all()
    assert within(2e-9, lambda: 3.0, 1e-9)
    assert not within(np.nan, lambda: 3.0, 1e-9)


@pytest.mark.parametrize("factor", [0.3, 0.49, 0.51, 0.99, 1.01, 3.0, 30.0, 1e6])
@pytest.mark.parametrize("size", [1e-3, 1.0, 1e4])
def test_central_factor_and_arrow_close_keep_the_relative_cut(factor, size):
    # defects of factor * tol on arrows of norm about size: past 1 the scale
    # alone passes some, and a full-rank defect has a Frobenius norm 2x its
    # operator norm, so both bounds and the SVD decide some verdicts
    rng = np.random.default_rng(int(factor * 100) + int(size))
    tol = 1e-9
    x = Obj("X", 2)
    ctx = Context(2)
    base = size * kron(rng.standard_normal((2, 2)), np.eye(2))
    for noise in (np.diag([1.0, 0, 0, 0]), np.diag([1.0, -1.0, 1.0, -1.0])):
        f = Arrow(x, x, ctx, base + factor * tol * noise)
        old = relative(central_defect(f), f.norm()) <= tol
        assert (central_factor(f, tol) is not None) == old
        g = Arrow(x, x, ctx, base)
        old = relative(operator_norm(f.mat - g.mat), max(f.norm(), g.norm())) <= tol
        assert arrow_close(f, g, tol) == old
