"""Discrete crossed products by finite group actions on the hidden factor.

A unitary representation of a finite group G on the hidden space H acts on
arrows by conjugation of the hidden factor.  The crossed product lives on
H (x) l2(G) and is span pi(B) lambda(G): lambda(G) are the left regular
translations, pi embeds arrows fibrewise twisted by the action, and B is
S'' in End(H) for the G-orbit S of the generators' hidden blocks, each
twisted by every u(g).  Only the generators meet the dagger check: the orbit
of a dagger-closed set is dagger-closed.

Basis convention on the enlarged hidden space: index ``i*|G| + k`` for
``h_i (x) delta_k`` (hidden factor major, group minor).

Covariance and the crossed product are computed from End(H)-sized fibres.
Fibre k of pi(f) is the hidden blocks of f conjugated by u(k^-1), and
pi(b) lambda(g) is fibre k placed at row group k and column group g^-1 k,
so no product is formed on H (x) l2(G).  That space appears only in the
covariance SVD, taken of the enlarged block-diagonal difference so that
residuals stay bit-identical to the conjugation formula.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from itertools import permutations, repeat

import numpy as np

from .category import Arrow, Context, unit_obj
from .commutant import FinPremonCat, HiddenAlgebra, ObjectUniverse, _blocks, _tensor_view
from .commutant import double_commutant  # noqa: F401  (wrapped by bench/spans.py)
from .linalg import as_integer, as_matrix, batches, is_integer, kron, operator_norms, within

__all__ = [
    "FiniteGroup",
    "trivial_group",
    "cyclic_group",
    "symmetric_group",
    "UnitaryRep",
    "trivial_rep",
    "regular_rep",
    "CrossedContext",
    "act",
    "lambda_embed",
    "pi_embed",
    "covariance_residual",
    "covariance_residuals",
    "crossed_product",
]


@dataclass(frozen=True)
class FiniteGroup:
    """Finite group as labelled elements with a multiplication table.

    ``table[i][j]`` is the index of ``elements[i] * elements[j]``.  The
    constructor checks closure shape, a two-sided identity, inverses, and
    associativity, so a bad table never gets further than construction.
    """

    elements: tuple[str, ...]
    table: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "elements", tuple(self.elements))
        what = repeat("a multiplication table entry")
        object.__setattr__(self, "table", tuple(tuple(map(as_integer, r, what)) for r in self.table))
        n = len(self.elements)
        if n == 0:
            raise ValueError("group needs at least one element")
        if len(set(self.elements)) != n:
            raise ValueError("group element labels must be distinct")
        if len(self.table) != n or any(len(r) != n for r in self.table):
            raise ValueError("multiplication table must be square of the element count")
        try:
            t = np.array(self.table, dtype=np.int64).reshape(n, n)
            in_range = t.min() >= 0 and t.max() < n
        except OverflowError:  # an entry past the int64 range
            in_range = False
        if not in_range:
            raise ValueError("multiplication table entries must index elements")
        ar = np.arange(n)
        two_sided = (t == ar[None, :]).all(axis=1) & (t == ar[:, None]).all(axis=0)
        if not two_sided.any():
            raise ValueError("multiplication table has no two-sided identity")
        ident = int(np.argmax(two_sided))
        object.__setattr__(self, "_identity", ident)
        inverts = (t == ident) & (t.T == ident)
        lacking = np.flatnonzero(~inverts.any(axis=1))
        if lacking.size:
            raise ValueError(f"element {self.elements[lacking[0]]!r} has no inverse")
        inverse = inverts.argmax(axis=1)
        object.__setattr__(self, "_inverse", tuple(int(j) for j in inverse))
        t.setflags(write=False)
        object.__setattr__(self, "_table", t)
        object.__setattr__(self, "_quotients", t[inverse])  # [g, k] = g^-1 k
        # Light's test: (x a) y = x (a y) for every x, y and every a of a
        # generating set makes the whole table associative, because the
        # elements a passing it are closed under multiplication
        for a in _generating_set(t, ident):
            if not np.array_equal(t[t[:, a]], t[:, t[a]]):
                raise ValueError("multiplication table is not associative")

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def identity(self) -> int:
        return self._identity

    def mul(self, i: int, j: int) -> int:
        return self.table[i][j]

    def inverse(self, i: int) -> int:
        return self._inverse[i]

    def index(self, g) -> int:
        """Accepts an element label or an integer index (a numpy integer too); returns the index."""
        if isinstance(g, str):
            try:
                return self.elements.index(g)
            except ValueError:
                raise ValueError(f"unknown group element {g!r}") from None
        if not is_integer(g):
            raise ValueError(f"group element must be a label or an integer index, not {g!r}")
        i = operator.index(g)
        if not (0 <= i < self.order):
            raise ValueError(f"group element index {i} out of range")
        return i


def trivial_group() -> FiniteGroup:
    return FiniteGroup(("e",), ((0,),))


def cyclic_group(n: int) -> FiniteGroup:
    n = as_integer(n, "a cyclic group's order")
    if n < 1:
        raise ValueError("cyclic group needs n >= 1")
    labels = tuple("e" if k == 0 else f"r{k}" for k in range(n))
    table = tuple(tuple((i + j) % n for j in range(n)) for i in range(n))
    return FiniteGroup(labels, table)


def symmetric_group(n: int) -> FiniteGroup:
    """Permutations of n points; composition applies the right factor first."""
    n = as_integer(n, "a symmetric group's degree")
    if not 1 <= n <= 6:
        raise ValueError("symmetric group supported for 1 <= n <= 6")
    perms = np.array(sorted(permutations(range(n))), dtype=np.int64).reshape(-1, n)
    labels = tuple("".join(str(v) for v in p) for p in perms)
    # (p q)(i) = p(q(i)) for every pair; a permutation's base-n code is
    # increasing in the lexicographic order of the sorted list
    products = perms[:, perms]
    weights = n ** np.arange(n - 1, -1, -1)
    table = np.searchsorted(perms @ weights, products @ weights)
    return FiniteGroup(labels, table.tolist())


def _generating_set(t: np.ndarray, ident: int) -> list[int]:
    """Greedy generators of the table: each element not yet reached by products.

    The identity passes Light's test by itself, so it counts as reached.
    """
    reached = np.zeros(len(t), dtype=bool)
    reached[ident] = True
    gens = []
    for a in range(len(t)):
        if reached[a]:
            continue
        gens.append(a)
        reached[a] = True
        while True:
            idx = np.flatnonzero(reached)
            grown = reached.copy()
            grown[t[np.ix_(idx, idx)]] = True
            if (grown == reached).all():
                break
            reached = grown
    return gens


@dataclass(frozen=True)
class UnitaryRep:
    """Unitary matrices indexed like the group elements.

    Validation checks unitarity, the identity, and the homomorphism law on
    all element pairs at the fixed tolerance 1e-10, the last a block of
    table rows at a time (one row at least) so that a temporary holds at
    most ``linalg.CHUNK_ENTRIES`` entries; ``validate=False`` skips those
    checks and exists for negative controls that need a deliberately broken
    family.
    """

    group: FiniteGroup
    mats: tuple[np.ndarray, ...]
    validate: bool = True

    def __post_init__(self):
        mats = tuple(as_matrix(m) for m in self.mats)
        if len(mats) != self.group.order:
            raise ValueError("need exactly one matrix per group element")
        d = mats[0].shape[0]
        if any(m.shape != (d, d) for m in mats):
            raise ValueError("representation matrices must be square of one size")
        stack = np.stack(mats)
        stack.setflags(write=False)
        object.__setattr__(self, "_stack", stack)
        object.__setattr__(self, "mats", tuple(stack))
        # u(k^-1) at index k: the unitaries the fibres of pi are twisted by
        inverses = [self.group.inverse(k) for k in range(self.group.order)]
        object.__setattr__(self, "_inverse_stack", stack[inverses])
        if self.validate:
            self._check_laws()

    @np.errstate(over="ignore", invalid="ignore")  # the verdicts below handle inf and NaN
    def _check_laws(self):
        """Unitarity, the identity, then the table row by row, first failure named.

        Each verdict is ``linalg.within``'s, so a valid rep takes no SVD; the
        operator norms that scale the relative defects are taken only when
        some defect is left open.
        """
        stack, group = self._stack, self.group
        n, d = len(stack), self.hdim
        eye = np.eye(d)
        norms = functools.cache(lambda: operator_norms(stack))
        # each matrix's unitarity defect, then the identity's, whose scale is ||1|| = 1
        first = np.concatenate([stack.conj().swapaxes(1, 2) @ stack, stack[group.identity, None]]) - eye
        bad = np.flatnonzero(~within(None, lambda: np.append(norms(), 1.0), 1e-10, mats=first))
        if bad.size and bad[0] < n:
            raise ValueError(f"matrix for {group.elements[bad[0]]!r} is not unitary")
        if bad.size:
            raise ValueError("identity element must map to the identity matrix")
        table = group._table
        for rows in batches(n, n * d * d):
            block = table[rows]
            diff = stack[rows, None] @ stack
            diff -= stack[block]
            bad = np.flatnonzero(~within(None, lambda: norms()[block], 1e-10, mats=diff))
            if bad.size:
                i, j = divmod(int(bad[0]), n)
                raise ValueError(
                    "matrices do not respect the multiplication table at "
                    f"({group.elements[rows.start + i]!r}, {group.elements[j]!r})"
                )

    @property
    def hdim(self) -> int:
        return self.mats[0].shape[0]

    def mat(self, g) -> np.ndarray:
        return self.mats[self.group.index(g)]


def trivial_rep(group: FiniteGroup, hdim: int) -> UnitaryRep:
    eye = np.eye(hdim, dtype=np.complex128)
    return UnitaryRep(group, tuple(eye for _ in range(group.order)))


def regular_rep(group: FiniteGroup) -> UnitaryRep:
    """Left regular representation by exact permutation matrices."""
    return UnitaryRep(group, tuple(_translation(group, g) for g in range(group.order)))


def _translation(group: FiniteGroup, g: int) -> np.ndarray:
    """The permutation matrix of left multiplication by ``g``: a one at (g j, j) for every j."""
    n = group.order
    p = np.zeros((n, n), dtype=np.complex128)
    p[group._table[g], np.arange(n)] = 1.0
    return p


@dataclass(frozen=True)
class CrossedContext:
    """Base context plus acting group; ``tilde`` is the enlarged context."""

    base: Context
    group: FiniteGroup

    @property
    def tilde(self) -> Context:
        return Context(self.base.hdim * self.group.order)


def _check_rep(rep: UnitaryRep, ctx: Context):
    if rep.hdim != ctx.hdim:
        raise ValueError("representation dimension differs from the hidden dimension")


def _check_crossed(f: Arrow, rep: UnitaryRep, cc: CrossedContext):
    if f.ctx != cc.base:
        raise ValueError("arrow context differs from the crossed base context")
    _check_rep(rep, cc.base)
    if rep.group is not cc.group and rep.group != cc.group:
        raise ValueError("representation group differs from the crossed group")


def _twist(us: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """``u @ blocks @ u*`` for each u of the ``(n, h, h)`` stack ``us``, stacked over u.

    ``blocks`` is a ``(..., h, h)`` stack of hidden blocks.  Every
    conjugation of the hidden factor in this module is this product.
    """
    u = us.reshape(len(us), *(1,) * (blocks.ndim - 2), *us.shape[1:])
    return u @ blocks @ u.conj().swapaxes(-1, -2)


def _fibres(rep: UnitaryRep, blocks: np.ndarray) -> np.ndarray:
    """The fibres of pi: ``u(k^-1) blocks u(k^-1)*`` for every group index k, stacked over k."""
    return _twist(rep._inverse_stack, blocks)


def _enlarged(fibres: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Block matrices on H (x) l2(G) made of an ``(n, dD, dB, h, h)`` stack ``fibres``.

    Matrix m of the ``(len(cols), dD*h*n, dB*h*n)`` result holds fibre k
    at row group k and column group ``cols[m, k]``, and zeros elsewhere.
    An ``(len(cols), n, dD, dB, h, h)`` ``fibres`` gives matrix m its own
    fibres ``fibres[m]``.
    """
    *_, n, dd, db, h, _ = fibres.shape
    out = np.zeros((len(cols), dd, h, n, db, h, n), dtype=np.complex128)
    out[np.arange(len(cols))[:, None], :, :, np.arange(n), :, :, cols] = fibres.swapaxes(-3, -2)
    return out.reshape(len(cols), dd * h * n, db * h * n)


def act(g, f: Arrow, rep: UnitaryRep) -> Arrow:
    """Conjugate the hidden factor of ``f`` by the unitary of ``g``."""
    _check_rep(rep, f.ctx)
    g = rep.group.index(g)
    return Arrow.from_blocks(f.dom, f.cod, f.ctx, _twist(rep._stack[g : g + 1], f.blocks)[0])


def lambda_embed(g, cc: CrossedContext) -> Arrow:
    """Left translation by ``g`` as a unit endo-arrow of the enlarged context."""
    mat = kron(np.eye(cc.base.hdim), _translation(cc.group, cc.group.index(g)))
    return Arrow(unit_obj(), unit_obj(), cc.tilde, mat)


def pi_embed(f: Arrow, rep: UnitaryRep, cc: CrossedContext) -> Arrow:
    """Fibrewise twisted copy of ``f`` on the enlarged hidden space.

    The fibre over group index k carries ``act(k^-1, f)``; restricted to
    unit endo-arrows this is the classical formula sending the section
    ``zeta`` to ``g -> (g^-1 . a)(zeta(g))``.
    """
    _check_crossed(f, rep, cc)
    diagonal = np.arange(cc.group.order)[None]
    return Arrow(f.dom, f.cod, cc.tilde, _enlarged(_fibres(rep, f.blocks), diagonal)[0])


def covariance_residuals(
    f: Arrow, rep: UnitaryRep, cc: CrossedContext, elements=None
) -> np.ndarray:
    """``covariance_residual(g, f, rep, cc)`` for each g of ``elements``, default all of G.

    The elements are measured together, a batch at a time, each by the SVD
    of its own enlarged difference, so every value is bit-identical to the
    one-element call.
    """
    _check_crossed(f, rep, cc)
    group = cc.group
    n = group.order
    if elements is None:
        picked = np.arange(n)
    else:
        picked = np.array([group.index(g) for g in elements], dtype=np.intp)
    # [m, k] = g_m^-1 k: fibre k of the right side is fibre g_m^-1 k of pi(f)
    src = group._quotients[picked]
    fibres = _fibres(rep, f.blocks)
    out = np.empty(len(picked))
    for part in batches(len(picked), n * n * f.mat.size):
        moved = _twist(rep._stack[picked[part]], f.blocks)  # the blocks of act(g, f), per g
        diff = _fibres(rep, moved).swapaxes(0, 1) - fibres[src[part]]
        diagonal = np.broadcast_to(np.arange(n), (len(diff), n))
        out[part] = operator_norms(_enlarged(diff, diagonal))
    return out


def covariance_residual(g, f: Arrow, rep: UnitaryRep, cc: CrossedContext) -> float:
    """Operator-norm defect of pi(g . f) = (id (x) lam(g)) pi(f) (id (x) lam(g))*.

    Conjugating by lam(g) moves the fibre over k to g k, so the right side is
    pi(f) with fibre k replaced by fibre g^-1 k.  Both sides are block
    diagonal; their difference is formed fibre by fibre and measured on the
    enlarged space.  Zero (to rounding) for every valid representation;
    breaks visibly when the representation fails the homomorphism law.
    """
    return float(covariance_residuals(f, rep, cc, [g])[0])


def crossed_product(
    gens,
    rep: UnitaryRep,
    universe: ObjectUniverse,
    tol: float = 1e-9,
    *,
    auto_close: bool = False,
) -> FinPremonCat:
    """span{pi(b) lambda(g)} over the input objects, on the enlarged context.

    B = S'' in End(H), S the hidden blocks of the generators and the unit twisted by every
    u(g).  Only the generators and the unit meet the dagger check: u(g) b* u(g)* is the
    dagger of u(g) b u(g)*.  Distinct g fill disjoint fibres, so hom(B, D) has dim
    dD*dB*|G|*dim B.  pi(b) lambda(g) puts fibre k of pi(b) at row group k, column group g^-1 k.
    """
    _check_rep(rep, universe.ctx)
    cc = CrossedContext(universe.ctx, rep.group)
    group, h = rep.group, cc.base.hdim
    gens = list(gens) + [Arrow(unit_obj(), unit_obj(), cc.base, np.eye(h))]

    def orbit(fs, h):  # generator-major, then g, then block: the order the QR chunks follow
        parts = [_blocks([f], h) for f in fs]
        twisted = _twist(rep._stack, np.concatenate(parts))  # g-major: one call for the orbit
        ends = np.cumsum([len(p) for p in parts])[:-1]
        return np.concatenate([t.reshape(-1, h, h) for t in np.split(twisted, ends, axis=1)])

    algebra = HiddenAlgebra(gens, cc.base, tol, orbit).checked(auto_close).bicommutant
    n, dim_b = group.order, len(algebra)
    # the algebra as one dim_b x 1 column of blocks: each enlarged matrix
    # splits row-wise into the dim_b matrices pi(b) lambda(g) of one g
    fibres = _fibres(rep, algebra[:, None]) / np.sqrt(n)
    products = _enlarged(fibres, group._quotients).reshape(n * dim_b, cc.tilde.hdim, cc.tilde.hdim)
    return _tensor_view(ObjectUniverse(universe.objects, cc.tilde), products)
