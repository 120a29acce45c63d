"""Commutants and double commutants over a finite object universe.

An arrow B -> D is a dD x dB grid of hidden blocks F_db in End(H), read
through ``Arrow.blocks``.  Both bracketings of F with a generator
g: X -> Y are block matrices whose ((d, y), (b, x)) entries are F_db g_yx
and g_yx F_db, so F interchanges with g exactly when every block of F
commutes with every block of g.  The commutant of a generator set is
therefore M_{dD x dB} (x) S' at every hom pair, where S is the set of all
generator blocks and S' its classical commutant in End(H); the double
commutant is M_{dD x dB} (x) S''.  S' is the kernel of one stacked linear
system, found by SVD.

Bases of S' are orthonormal in the trace inner product, ordered by the SVD
and phase-normalized so the largest-magnitude entry of each basis matrix is
real positive; the basis of hom(B, D) is kron(E_db, s) over the matrix
units E_db (row-major) and the basis elements s.  Identical inputs
therefore produce identical bases.

A hom space reads as a ``(k, dD*h, dB*h)`` stack of basis matrices,
``HomSubspace.mats``.  A computed category holds only the algebra A of
each hom M_{dD x dB} (x) A, so its dims are arithmetic and a stack is
written when first read; ``FinPremonCat.all_arrows`` wraps it as ``Arrow``
objects.  ``HiddenAlgebra`` solves one set's S' and S'' at most once each.

Generator sets must be closed under dagger.  Closure is checked at the
level of spans (the commutant only sees the span), so a computed basis of
a dagger-closed subspace passes even when no individual basis arrow is the
dagger of another.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .category import Arrow, Context, Obj, block_view, dagger
from .linalg import as_matrix, cut_rank, kron, nullspace, within

__all__ = [
    "ObjectUniverse",
    "HomSubspace",
    "FinPremonCat",
    "HiddenAlgebra",
    "standard_universe",
    "span_category",
    "span_basis",
    "star_closure",
    "is_star_closed",
    "commutant",
    "double_commutant",
    "VnReport",
    "is_von_neumann",
    "subspace_contains",
    "subspace_equal",
    "endo_algebra",
    "classical_commutant",
    "generated_star_algebra",
]


@dataclass(frozen=True)
class ObjectUniverse:
    """Finite list of objects closed over by the engine; must hold a unit."""

    objects: tuple[Obj, ...]
    ctx: Context

    def __post_init__(self):
        object.__setattr__(self, "objects", tuple(self.objects))
        if not self.objects:
            raise ValueError("universe needs at least one object")
        names = [o.name for o in self.objects]
        if len(set(names)) != len(names):
            raise ValueError("universe object names must be unique")
        if not any(o.dim == 1 for o in self.objects):
            raise ValueError("universe must contain a unit object of dim 1")

    @property
    def unit(self) -> Obj:
        return next(o for o in self.objects if o.dim == 1)

    def pairs(self):
        return [(a, b) for a in self.objects for b in self.objects]


def span_category(gens: Sequence[Arrow], universe: ObjectUniverse, tol: float = 1e-9) -> FinPremonCat:
    """Category whose hom spaces are the spans of the given arrows."""
    _check_context(gens, universe.ctx)
    by_pair = group_by_hom(gens)
    h = universe.ctx.hdim
    homs = {}
    for d, c in universe.pairs():
        basis = span_basis([a.mat for a in by_pair.get((d, c), [])], tol)
        mats = np.array(basis, dtype=np.complex128).reshape(-1, c.dim * h, d.dim * h)
        homs[(d, c)] = HomSubspace(d, c, mats)
    return FinPremonCat(universe, homs)


def standard_universe(ctx: Context, dims=(1, 2, 3), gens: Sequence[Arrow] = ()) -> ObjectUniverse:
    """Universe with one object per default dim plus all generator endpoints."""
    objs: list[Obj] = []
    names: set[str] = set()
    for g in gens:
        for o in (g.dom, g.cod):
            if o.name not in names:
                objs.append(o)
                names.add(o.name)
    for d in sorted(set(dims)):
        if any(o.dim == d for o in objs):
            continue
        name = "I" if d == 1 else f"X{d}"
        if name in names:
            name = f"U{d}"
        objs.append(Obj(name, d))
        names.add(name)
    if not any(o.dim == 1 for o in objs):
        objs.append(Obj("I", 1))
    objs.sort(key=lambda o: (o.dim, o.name))
    return ObjectUniverse(tuple(objs), ctx)


class HomSubspace:
    """The span of ``mats``, a read-only ``(dim, cod.dim*h, dom.dim*h)`` complex128 stack.

    ``mats`` is given (a sequence is stacked, an empty one is the zero
    subspace), or it is M_{cod.dim x dom.dim} (x) span(``factor``) for a
    ``(k, h, h)`` algebra, written as kron(E_db, a) when first read.
    """

    def __init__(self, dom: Obj, cod: Obj, mats=(), *, factor: np.ndarray | None = None):
        self.dom, self.cod, self.factor = dom, cod, factor
        if factor is None:
            self.mats = np.asarray(mats, dtype=np.complex128).view()
            self.mats.setflags(write=False)
        self.dim = len(self.mats) if factor is None else cod.dim * dom.dim * len(factor)

    @cached_property
    def mats(self) -> np.ndarray:
        (k, _, h), dd, db = self.factor.shape, self.cod.dim, self.dom.dim
        d, b = np.indices((dd, db)).reshape(2, -1)
        mats = np.zeros((dd * db * k, dd * h, db * h), dtype=np.complex128)
        block_view(mats.reshape(dd, db, k, dd * h, db * h), h)[d, b, :, d, b] = self.factor
        mats.setflags(write=False)
        return mats


@dataclass(frozen=True)
class FinPremonCat:
    """Hom subspaces for every ordered pair of universe objects."""

    universe: ObjectUniverse
    homs: dict

    def dims(self) -> list[tuple[Obj, Obj, int]]:
        return [(d, c, self.homs[(d, c)].dim) for d, c in self.universe.pairs()]

    def all_arrows(self) -> list[Arrow]:
        """Every basis matrix as an Arrow, hom pair by hom pair in ``universe.pairs()`` order."""
        ctx = self.universe.ctx
        return [
            Arrow(d, c, ctx, m) for d, c in self.universe.pairs() for m in self.homs[(d, c)].mats
        ]


# -- vec helpers (column stacking everywhere) --------------------------------


def _vecs(mats) -> np.ndarray:
    """The vec of each matrix of a ``(k, rows, cols)`` stack, as the k columns of the result."""
    mats = np.asarray(mats, dtype=np.complex128)
    return mats.transpose(0, 2, 1).reshape(len(mats), -1).T


def _unvecs(cols: np.ndarray, rows: int, ncols: int) -> np.ndarray:
    """Inverse of ``_vecs``: the columns of ``cols`` as a ``(k, rows, ncols)`` stack."""
    return np.ascontiguousarray(cols.T.reshape(-1, ncols, rows).transpose(0, 2, 1))


def _phase_normalize(q: np.ndarray) -> np.ndarray:
    """Scale each (nonzero) column so its largest-magnitude entry is real positive.

    The entry's magnitude is ``hypot`` of its parts, the value ``abs``
    gives for a single complex number.
    """
    a = q[np.argmax(np.abs(q), axis=0), np.arange(q.shape[1])]
    return q * (a.conj() / np.hypot(a.real, a.imag))


def _range(cols: np.ndarray, tol: float) -> np.ndarray:
    """Orthonormal columns spanning the columns of ``cols``, cut like ``nullspace``."""
    u, s, _ = np.linalg.svd(cols, full_matrices=False)
    return u[:, : cut_rank(s, tol)]


def span_basis(mats: Sequence[np.ndarray], tol: float = 1e-9) -> list[np.ndarray]:
    """Orthonormal basis (trace inner product) for the span of ``mats``, cut like ``nullspace``."""
    mats = [as_matrix(m) for m in mats]
    if not mats:
        return []
    shape = mats[0].shape
    if any(m.shape != shape for m in mats):
        raise ValueError("span_basis needs matrices of a single shape")
    return list(_unvecs(_phase_normalize(_range(_vecs(mats), tol)), *shape))


def _in_span(q: np.ndarray, vs: np.ndarray, tol: float) -> np.ndarray:
    """Per column v of ``vs``: whether v lies in the span of the orthonormal columns ``q``.

    The residual r = v - Q Q* v must satisfy ``relative(||r||, ||v||) <= tol``.
    """
    r = vs - q @ (q.conj().T @ vs)
    return within(np.linalg.norm(r, axis=0), lambda: np.linalg.norm(vs, axis=0), tol)


def _spanned(span, mats, tol: float) -> np.ndarray:
    """Per matrix of ``mats``: whether it lies in the span of ``span`` (empty: the zero space)."""
    vs = _vecs(mats)
    return _in_span(_range(_vecs(span), tol) if len(span) else vs[:, :0], vs, tol)


def group_by_hom(arrows: Sequence[Arrow]) -> dict:
    """{(dom, cod): [arrows of that hom pair, in input order]}."""
    table: dict = {}
    for a in arrows:
        table.setdefault((a.dom, a.cod), []).append(a)
    return table


# -- dagger closure of generator sets -----------------------------------------


def _missing_daggers(gens: Sequence[Arrow], tol: float) -> list[Arrow]:
    """The daggers, in generator order, that the span at their hom pair misses.

    Each hom pair's daggers are tested together, against the span of the
    generators at that pair (the zero subspace when there are none).
    """
    spans, missing = group_by_hom(gens), set()
    for (b, d), gs in spans.items():
        inside = _spanned([f.mat for f in spans.get((d, b), [])], [g.mat.conj().T for g in gs], tol)
        missing.update(g for g, ok in zip(gs, inside) if not ok)
    return [dagger(g) for g in gens if g in missing]


def is_star_closed(gens: Sequence[Arrow], tol: float = 1e-9) -> bool:
    """True when each generator's dagger lies in the span at the flipped pair."""
    return not _missing_daggers(gens, tol)


def star_closure(gens: Sequence[Arrow], tol: float = 1e-9) -> list[Arrow]:
    """Extend ``gens`` with whatever daggers their spans are missing."""
    return list(gens) + _missing_daggers(gens, tol)


# -- the hidden algebra ---------------------------------------------------------


def _check_context(gens: Sequence[Arrow], ctx: Context):
    for g in gens:
        if g.ctx != ctx:
            raise ValueError("generator context differs from the universe context")


def _blocks(gens: Sequence[Arrow], h: int) -> np.ndarray:
    """Every nonzero h x h hidden block of every generator, as a (k, h, h) stack."""
    return _nonzero([g.blocks for g in gens], h)


def _nonzero(stacks, h: int) -> np.ndarray:
    """The nonzero matrices of ``(..., h, h)`` stacks, as one (k, h, h) stack."""
    parts = [s.reshape(-1, h, h) for s in stacks]
    blocks = np.concatenate([np.zeros((0, h, h), dtype=np.complex128), *parts])
    return blocks[blocks.any(axis=(1, 2))]


def _hidden_commutant(mats: np.ndarray, h: int, tol: float) -> np.ndarray:
    """Basis (k, h, h) of {s in End(H) : s m = m s for every m in ``mats``}.

    On column-stacked s, vec(s m) = (m.T (x) I) vec(s) and vec(m s) =
    (I (x) m) vec(s); the basis is the kernel of those rows stacked over
    every m, with no rows at all leaving the whole of End(H).  The stack is
    taken h matrices at a time and kept as its triangular QR factor, which
    has the stack's singular values and kernel in at most h^2 rows, so
    memory stays O(h^5) however many matrices come in.
    """
    eye = np.eye(h)
    r = np.zeros((0, h * h), dtype=np.complex128)
    for start in range(0, len(mats), h):
        chunk = mats[start : start + h]
        rows = np.einsum("kba,ij->kaibj", chunk, eye) - np.einsum("ab,kij->kaibj", eye, chunk)
        r = np.linalg.qr(np.vstack([r, rows.reshape(-1, h * h)]), mode="r")
    kern = _phase_normalize(nullspace(r, tol))
    return _unvecs(kern, h, h)


class HiddenAlgebra:
    """The star-closed hidden blocks S of one generator set, with S' and S'' solved once each.

    ``blocks_of`` reads S from the generators and the daggers their spans
    miss, whether or not ``checked`` lets the set through.  Each part is
    computed when first read, and kept by this value alone.
    """

    def __init__(self, gens: Sequence[Arrow], ctx: Context, tol: float, blocks_of=_blocks):
        self.gens, self.h, self.tol, self.blocks_of = list(gens), ctx.hdim, tol, blocks_of
        _check_context(self.gens, ctx)

    @cached_property
    def missing(self) -> list[Arrow]:
        return _missing_daggers(self.gens, self.tol)

    def checked(self, auto_close: bool) -> HiddenAlgebra:
        """This value, if no dagger is missing or ``auto_close`` lets S add them."""
        if self.missing and not auto_close:
            raise ValueError("generator set is not dagger-closed; pass auto_close=True to extend it")
        return self

    @cached_property
    def blocks(self) -> np.ndarray:
        return self.blocks_of(self.gens + self.missing, self.h)

    @cached_property
    def commutant(self) -> np.ndarray:
        """Basis (k, h, h) of S'."""
        return _hidden_commutant(self.blocks, self.h, self.tol)

    @cached_property
    def bicommutant(self) -> np.ndarray:
        """Basis (k, h, h) of S'': S is dagger-closed, so S' is too and S'' = (S')'."""
        return _hidden_commutant(self.commutant, self.h, self.tol)


def _tensor_view(universe: ObjectUniverse, algebra: np.ndarray) -> FinPremonCat:
    """Category with hom(B, D) = M_{dD x dB} (x) span(algebra) at every pair."""
    homs = {(d, c): HomSubspace(d, c, factor=algebra) for d, c in universe.pairs()}
    return FinPremonCat(universe, homs)


def commutant(
    gens: Sequence[Arrow],
    universe: ObjectUniverse,
    tol: float = 1e-9,
    *,
    auto_close: bool = False,
) -> FinPremonCat:
    """Arrows between universe objects that interchange with every generator.

    ``gens`` must be dagger-closed up to span; pass ``auto_close=True`` to
    have the missing daggers appended instead of rejected.  The empty set
    yields the full hom space at every pair.
    """
    hidden = HiddenAlgebra(gens, universe.ctx, tol).checked(auto_close)
    return _tensor_view(universe, hidden.commutant)


def double_commutant(
    gens: Sequence[Arrow],
    universe: ObjectUniverse,
    tol: float = 1e-9,
    *,
    auto_close: bool = False,
) -> FinPremonCat:
    """Commutant of the commutant; always contains the span of ``gens``."""
    hidden = HiddenAlgebra(gens, universe.ctx, tol).checked(auto_close)
    return _tensor_view(universe, hidden.bicommutant)


@dataclass(frozen=True)
class VnReport:
    passed: bool
    failures: tuple[tuple[Obj, Obj, int, int], ...]
    closure: FinPremonCat


def is_von_neumann(cat: FinPremonCat, tol: float = 1e-9) -> VnReport:
    """Whether ``cat`` equals its own double commutant pair by pair.

    S is every nonzero hidden block of each hom (read from its factor when it
    has one) and its conjugate transpose, which is a dagger's block: spans
    need not be self-adjoint, and those that are not fail the comparison.
    An arrow lies in the double commutant of a set holding it, so each hom is
    inside its closure and the two are equal exactly when their dims are.
    """
    h = cat.universe.ctx.hdim
    homs = cat.homs.values()
    s = _nonzero([block_view(hom.mats, h) if hom.factor is None else hom.factor for hom in homs], h)
    s = np.concatenate([s, s.conj().transpose(0, 2, 1)])
    return _vn_report(cat, _hidden_commutant(_hidden_commutant(s, h, tol), h, tol))


def _vn_report(cat: FinPremonCat, bicommutant: np.ndarray) -> VnReport:
    """``cat`` against M (x) S'', from any set whose star-closed blocks span what its arrows' do.

    A commutant sees only the span of the blocks, so any such set has the same S''.
    """
    closure = _tensor_view(cat.universe, bicommutant)
    dims = zip(cat.dims(), closure.dims())  # both in universe.pairs() order
    failures = tuple((d, c, a, b) for (d, c, a), (_, _, b) in dims if a != b)
    return VnReport(not failures, failures, closure)


# -- subspace comparisons ------------------------------------------------------


def subspace_contains(a: HomSubspace, b: HomSubspace, tol: float = 1e-9) -> bool:
    """True when span(b) is inside span(a); hom pairs must match."""
    if a.dom != b.dom or a.cod != b.cod:
        raise ValueError("subspaces live on different hom pairs")
    return b.dim == 0 or bool(_spanned(a.mats, b.mats, tol).all())


def subspace_equal(a: HomSubspace, b: HomSubspace, tol: float = 1e-9) -> bool:
    return subspace_contains(a, b, tol) and subspace_contains(b, a, tol)


def endo_algebra(cat: FinPremonCat) -> np.ndarray:
    """The unit endomorphism basis: a read-only ``(k, h, h)`` stack of hidden-space matrices."""
    unit = cat.universe.unit
    return cat.homs[(unit, unit)].mats


# -- classical matrix-algebra oracles -----------------------------------------
#
# Independent route used by tests: ordinary commutants of square matrices,
# with no premonoidal machinery involved.


def classical_commutant(mats: Sequence[np.ndarray], tol: float = 1e-9) -> list[np.ndarray]:
    """Basis of {s : s m = m s for all m}; input must be star-closed in span."""
    mats = [as_matrix(m) for m in mats]
    if not mats:
        raise ValueError("classical_commutant needs at least one matrix")
    n = mats[0].shape[0]
    if any(m.shape != (n, n) for m in mats):
        raise ValueError("classical_commutant needs square matrices of one size")
    if not _spanned(mats, [m.conj().T for m in mats], tol).all():
        raise ValueError("matrix list is not closed under conjugate transpose")
    eye = np.eye(n)
    rows = [kron(m.T, eye) - kron(eye, m) for m in mats]
    kern = nullspace(np.vstack(rows), tol)
    return list(_unvecs(_phase_normalize(kern), n, n))


def generated_star_algebra(mats: Sequence[np.ndarray], tol: float = 1e-9) -> list[np.ndarray]:
    """Basis of the unital *-algebra generated by ``mats`` (fixed point of products)."""
    mats = [as_matrix(m) for m in mats]
    if not mats:
        raise ValueError("generated_star_algebra needs at least one matrix")
    n = mats[0].shape[0]
    if any(m.shape != (n, n) for m in mats):
        raise ValueError("generated_star_algebra needs square matrices of one size")
    basis = span_basis(
        [np.eye(n, dtype=np.complex128)] + mats + [m.conj().T for m in mats], tol
    )
    while True:
        products = [a @ b for a in basis for b in basis]
        grown = span_basis(basis + products, tol)
        if len(grown) == len(basis):
            return grown
        basis = grown
