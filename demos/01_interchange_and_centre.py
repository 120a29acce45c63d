"""Where the interchange law breaks, and which arrows never break it.

Arrows here are matrices acting on a visible space tensored with a hidden
factor H that every composition threads through.  Tensoring two arrows can
be bracketed two ways (left factor first, or right factor first); the two
brackets disagree as soon as both arrows touch the hidden factor.
"""

import numpy as np

from vncat import (
    Arrow,
    Context,
    Obj,
    central_arrow,
    central_factor,
    commutant,
    interchange_residuals,
    ltimes,
    pair_swap,
    pair_swap_family,
    rtimes,
    standard_universe,
)

ctx = Context(2)  # a qubit-sized hidden factor
A = Obj("A", 2)
B = Obj("B", 2)
rng = np.random.default_rng(0)

# two ordinary random arrows, both entangled with the hidden factor
f = Arrow(A, A, ctx, rng.standard_normal((4, 4)))
g = Arrow(B, B, ctx, rng.standard_normal((4, 4)))

lt = ltimes(f, g)
rt = rtimes(f, g)
print("f |x g  and  f x| g  act on the same spaces:", lt.dom == rt.dom, lt.cod == rt.cod)
print("but differ in norm by", np.linalg.norm(lt.mat - rt.mat))
print("interchange residual (f vs g):", interchange_residuals(f, g))

# a central arrow leaves the hidden factor alone, so both brackets agree
c = central_arrow(rng.standard_normal((2, 2)), A, A, ctx)
print("\ncentral arrow residual against g:", interchange_residuals(c, g))
print("its visible factor is recovered exactly:")
print(np.round(central_factor(c), 6))

# the canonical non-central probe: swap two hidden basis directions
t = pair_swap(0, 1, ctx)
print("\npair swap residual against itself:", interchange_residuals(t, t))

# the commutant of the full swap family is exactly the central slice:
# every hom pair collapses from (dimX*2)*(dimY*2) dimensions to dimX*dimY
uni = standard_universe(ctx)
centre = commutant(pair_swap_family(ctx), uni)
print("\ncommutant of the swap family, hom dimensions:")
for d, c_, n in centre.dims():
    print(f"  {d.name} -> {c_.name}: {n}   (full space would be {d.dim * 2 * c_.dim * 2})")
print("every basis arrow factors through the identity on H:",
      all(central_factor(a) is not None for a in centre.all_arrows()))
