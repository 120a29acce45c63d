"""Premonoidal category of finite-dimensional Hilbert spaces over a hidden factor.

An arrow X -> Y is a complex matrix acting on X (x) H for a fixed hidden
space H of dimension ``hdim``; composition is matrix product and the dagger
is the conjugate transpose.  The tensor X (x) A on objects is honest, but on
arrows only the two whiskerings exist, and the interchange law fails in
general.  Arrows for which it never fails are exactly those of the form
``fhat (x) id_H``, and ``central_factor`` recovers ``fhat``.

Basis convention: lexicographic with the left factor major, so the basis
vector ``e_i (x) h_j`` of X (x) H sits at index ``i*hdim + j``.  Unit and
associativity isomorphisms are identities in this encoding (dim-1 factors
are elided when forming tensor objects).

Block layout: an arrow X -> Y is a Y.dim x X.dim grid of hidden blocks
f_yx = ``mat[y*hdim:(y+1)*hdim, x*hdim:(x+1)*hdim]`` in End(H).  Other
modules see it only through ``block_view``, the read-only ``Arrow.blocks``
view of shape ``(Y.dim, X.dim, hdim, hdim)`` and ``Arrow.from_blocks``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import as_matrix, kron, operator_norm, operator_norms, swap_perm, within

__all__ = [
    "Context",
    "Obj",
    "Arrow",
    "unit_obj",
    "tensor_obj",
    "identity_arrow",
    "central_arrow",
    "compose",
    "dagger",
    "whisker_left",
    "whisker_right",
    "rtimes",
    "ltimes",
    "interchange_norms",
    "interchange_residuals",
    "symmetry",
    "pair_swap",
    "pair_swap_family",
    "central_factor",
    "central_defect",
    "cstar_residuals",
    "cstar_submult",
    "cstar_arrow_residuals",
    "arrow_close",
]


@dataclass(frozen=True)
class Context:
    """Fixes the hidden space dimension shared by every arrow."""

    hdim: int

    def __post_init__(self):
        if self.hdim < 1:
            raise ValueError("hdim must be a positive integer")


@dataclass(frozen=True)
class Obj:
    """A named finite-dimensional space; equality is by (name, dim)."""

    name: str
    dim: int

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"object {self.name!r} needs dim >= 1")


def unit_obj() -> Obj:
    return Obj("I", 1)


def tensor_obj(a: Obj, b: Obj) -> Obj:
    """Tensor product object; dim-1 factors are elided (strict unit)."""
    if a.dim == 1:
        return b
    if b.dim == 1:
        return a
    return Obj(f"{a.name}*{b.name}", a.dim * b.dim)


@dataclass(frozen=True, eq=False)
class Arrow:
    """An arrow dom -> cod: a (cod.dim*hdim) x (dom.dim*hdim) matrix."""

    dom: Obj
    cod: Obj
    ctx: Context
    mat: np.ndarray

    def __post_init__(self):
        m = as_matrix(self.mat)
        want = (self.cod.dim * self.ctx.hdim, self.dom.dim * self.ctx.hdim)
        if m.shape != want:
            raise ValueError(
                f"arrow {self.dom.name} -> {self.cod.name} needs shape {want}, got {m.shape}"
            )
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "mat", m)

    @property
    def blocks(self) -> np.ndarray:
        """Read-only ``(cod.dim, dom.dim, h, h)`` view: ``blocks[d, b]`` is f_db."""
        return block_view(self.mat, self.ctx.hdim)

    @classmethod
    def from_blocks(cls, dom: Obj, cod: Obj, ctx: Context, blocks) -> "Arrow":
        """The arrow whose ``blocks`` are ``blocks``."""
        mat = np.zeros((cod.dim * ctx.hdim, dom.dim * ctx.hdim), dtype=np.complex128)
        block_view(mat, ctx.hdim)[...] = blocks
        return cls(dom, cod, ctx, mat)

    def norm(self) -> float:
        return operator_norm(self.mat)

    def __add__(self, other: "Arrow") -> "Arrow":
        _same_hom(self, other)
        return Arrow(self.dom, self.cod, self.ctx, self.mat + other.mat)

    def __sub__(self, other: "Arrow") -> "Arrow":
        _same_hom(self, other)
        return Arrow(self.dom, self.cod, self.ctx, self.mat - other.mat)

    def __mul__(self, scalar) -> "Arrow":
        return Arrow(self.dom, self.cod, self.ctx, self.mat * complex(scalar))

    __rmul__ = __mul__

    def __neg__(self) -> "Arrow":
        return self * (-1.0)


def block_view(mats: np.ndarray, h: int) -> np.ndarray:
    """Stacked ``(..., rows*h, cols*h)`` matrices as a ``(..., rows, cols, h, h)`` view."""
    *lead, m, n = mats.shape
    return mats.reshape(*lead, m // h, h, n // h, h).swapaxes(-3, -2)


def _same_hom(f: Arrow, g: Arrow):
    if f.ctx != g.ctx or f.dom != g.dom or f.cod != g.cod:
        raise ValueError("arrows live in different hom spaces")


def identity_arrow(a: Obj, ctx: Context) -> Arrow:
    return Arrow(a, a, ctx, np.eye(a.dim * ctx.hdim, dtype=np.complex128))


def central_arrow(fhat, dom: Obj, cod: Obj, ctx: Context) -> Arrow:
    """The arrow ``fhat (x) id_H`` for a plain cod.dim x dom.dim matrix."""
    m = as_matrix(fhat)
    if m.shape != (cod.dim, dom.dim):
        raise ValueError(f"expected shape {(cod.dim, dom.dim)}, got {m.shape}")
    return Arrow(dom, cod, ctx, kron(m, np.eye(ctx.hdim)))


def compose(g: Arrow, f: Arrow) -> Arrow:
    """g after f."""
    if f.ctx != g.ctx:
        raise ValueError("context mismatch")
    if f.cod != g.dom:
        raise ValueError(f"cannot compose: {f.cod} != {g.dom}")
    return Arrow(f.dom, g.cod, f.ctx, g.mat @ f.mat)


def dagger(f: Arrow) -> Arrow:
    return Arrow(f.cod, f.dom, f.ctx, f.mat.conj().T)


def whisker_left(a: Obj, f: Arrow) -> Arrow:
    """id_a (x) f : a (x) dom -> a (x) cod."""
    return Arrow(
        tensor_obj(a, f.dom),
        tensor_obj(a, f.cod),
        f.ctx,
        kron(np.eye(a.dim), f.mat),
    )


def whisker_right(f: Arrow, a: Obj) -> Arrow:
    """f (x) id_a : dom (x) a -> cod (x) a.

    Block ((c, i), (b, j)) is f_cb when i == j and zero otherwise.
    """
    h, n = f.ctx.hdim, a.dim
    dom, cod = tensor_obj(f.dom, a), tensor_obj(f.cod, a)
    blocks = np.zeros((f.cod.dim, n, f.dom.dim, n, h, h), dtype=np.complex128)
    blocks[:, range(n), :, range(n)] = f.blocks
    return Arrow.from_blocks(dom, cod, f.ctx, blocks.reshape(cod.dim, dom.dim, h, h))


def ltimes(g: Arrow, f: Arrow) -> Arrow:
    """g |x f: g runs first on the left factor, then f on the right factor."""
    return compose(whisker_left(g.cod, f), whisker_right(g, f.dom))


def rtimes(g: Arrow, f: Arrow) -> Arrow:
    """g x| f: f runs first on the right factor, then g on the left factor."""
    return compose(whisker_right(g, f.cod), whisker_left(g.dom, f))


def interchange_norms(fs: np.ndarray, gs: np.ndarray) -> np.ndarray:
    """``interchange_residuals`` of each pair of two stacks of block grids.

    ``fs`` is an ``(n, dD, dB, h, h)`` stack of the blocks of arrows f_m
    and ``gs`` an ``(n, dY, dX, h, h)`` stack of arrows g_m; entry m of
    the result is ||f_m |x g_m - f_m x| g_m||.  Both bracketings are block
    grids with rows (d, y) and columns (b, x): f |x g has blocks g_yx f_db
    and f x| g has f_db g_yx, so the difference is the grid of
    commutators.  einsum forms both products with the same roundings when
    f is central (blocks c 1), so such an f gives exactly 0.  Conjugating
    by the object swap, a natural unitary, exchanges the two bracketings,
    so the norm is symmetric in f and g.
    """
    n, dd, db, h, _ = fs.shape
    _, dy, dx, _, _ = gs.shape
    diff = np.einsum("nyxij,ndbjk->ndyibxk", gs, fs)
    diff -= np.einsum("ndbij,nyxjk->ndyibxk", fs, gs)
    return operator_norms(diff.reshape(n, dd * dy * h, db * dx * h))


def interchange_residuals(f: Arrow, g: Arrow) -> float:
    """Operator norm ||f |x g - f x| g||: ``interchange_norms`` of one pair."""
    if f.ctx != g.ctx:
        raise ValueError("context mismatch")
    return float(interchange_norms(f.blocks[None], g.blocks[None])[0])


def symmetry(a: Obj, b: Obj, ctx: Context) -> Arrow:
    """The swap a (x) b -> b (x) a as a central permutation arrow."""
    return central_arrow(swap_perm(a.dim, b.dim), tensor_obj(a, b), tensor_obj(b, a), ctx)


def pair_swap(i: int, j: int, ctx: Context) -> Arrow:
    """Rank-two partial swap on the hidden object: the canonical non-central arrow.

    Sends h_i (x) h_j and h_j (x) h_i to each other and kills every other
    basis vector.  Self-adjoint.  Requires hdim >= 2 and i != j.
    """
    h = ctx.hdim
    if h < 2:
        raise ValueError("pair_swap needs hdim >= 2")
    if not (0 <= i < h and 0 <= j < h) or i == j:
        raise ValueError("pair_swap needs distinct indices inside the hidden basis")
    hobj = Obj("H", h)
    m = np.zeros((h * h, h * h), dtype=np.complex128)
    m[j * h + i, i * h + j] = 1.0
    m[i * h + j, j * h + i] = 1.0
    return Arrow(hobj, hobj, ctx, m)


def pair_swap_family(ctx: Context) -> list[Arrow]:
    """All pair_swap(i, j) with i < j; empty at hdim 1.

    The commutant of this family is exactly the central slice at every hom
    pair, which is what makes it the canonical centrality probe.
    """
    h = ctx.hdim
    return [pair_swap(i, j, ctx) for i in range(h) for j in range(i + 1, h)]


def _central_part(f: Arrow):
    """(fhat, f - fhat (x) id_H) for fhat the normalized trace of each hidden block.

    That fhat (x) id_H is the orthogonal projection of f onto the central slice.
    """
    h = f.ctx.hdim
    fhat = np.trace(f.blocks, axis1=2, axis2=3) / h
    return fhat, f.mat - kron(fhat, np.eye(h))


def central_factor(f: Arrow, tol: float = 1e-9):
    """The visible factor fhat with f = fhat (x) id_H, or None.

    fhat is returned when ``relative(central_defect(f), ||f||) <= tol``.
    """
    fhat, diff = _central_part(f)
    return fhat if within(None, f.norm, tol, mats=diff) else None


def central_defect(f: Arrow) -> float:
    """Operator-norm distance from f to the nearest fhat (x) id_H."""
    return operator_norm(_central_part(f)[1])


def cstar_residuals(s: Arrow, t: Arrow, a: Obj) -> dict[str, float]:
    """The C*-identity defects of composable s, t, zero in exact arithmetic: the pair's, then s's own."""
    return {"submult": cstar_submult(s, t), **cstar_arrow_residuals(s, a)}


def cstar_submult(s: Arrow, t: Arrow) -> float:
    """max(0, ||s.t|| - ||s||*||t||) for composable s, t."""
    return max(0.0, compose(s, t).norm() - s.norm() * t.norm())


def cstar_arrow_residuals(s: Arrow, a: Obj) -> dict[str, float]:
    """s's own defects: cstar_id | ||s*.s|| - ||s||^2 |; whisker_*_norm | ||a (x) s|| - ||s|| | per side."""
    ns = s.norm()
    return {
        "cstar_id": abs(compose(dagger(s), s).norm() - ns * ns),
        "whisker_left_norm": abs(whisker_left(a, s).norm() - ns),
        "whisker_right_norm": abs(whisker_right(s, a).norm() - ns),
    }


def arrow_close(f: Arrow, g: Arrow, tol: float = 1e-9) -> bool:
    """Same hom space and operator-norm distance within tol (relative)."""
    if f.ctx != g.ctx or f.dom != g.dom or f.cod != g.cod:
        return False
    return bool(within(None, lambda: max(f.norm(), g.norm()), tol, mats=f.mat - g.mat))
