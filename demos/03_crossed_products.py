"""Crossed products: letting a finite group act on the hidden factor.

A unitary representation of a finite group G conjugates the hidden factor
of every arrow.  The crossed product enlarges H to H (x) l2(G), embeds the
original generators fibrewise (twisted by the action) together with the
group translations, and is spanned by pi(b) lambda(g): b runs over the
*-algebra B that the G-orbit of the generators generates in End(H), so its
dimension is |G| * dim B.
"""

import numpy as np

from vncat import (
    Arrow,
    Context,
    CrossedContext,
    Obj,
    ObjectUniverse,
    UnitaryRep,
    act,
    covariance_residual,
    crossed_product,
    cyclic_group,
    lambda_embed,
    pi_embed,
)

z2 = cyclic_group(2)
ctx = Context(2)
cc = CrossedContext(ctx, z2)
I = Obj("I", 1)

# the flip representation swaps the two hidden directions
sx = np.array([[0.0, 1.0], [1.0, 0.0]])
rep = UnitaryRep(z2, (np.eye(2), sx))

# one generator: a hidden charge observable
charge = Arrow(I, I, ctx, np.diag([1.0, -1.0]))
print("acting with the flip negates the charge:")
print(np.real(act(1, charge, rep).mat))

# the two embeddings into the enlarged context (hidden dim 2*2 = 4)
print("\npi(charge) =", np.real(np.diag(pi_embed(charge, rep, cc).mat)), "(diagonal)")
print("lambda(flip) block structure:")
print(np.real(lambda_embed(1, cc).mat))

# the covariance equation ties the two embeddings together
for g in range(z2.order):
    print(f"covariance residual at element {z2.elements[g]!r}:",
          covariance_residual(g, charge, rep, cc))

# the crossed product: diagonal algebra + flip grows to dimension 4,
# even though the diagonal algebra alone closes at dimension 2
uni = ObjectUniverse((I,), ctx)
crossed = crossed_product([charge], rep, uni)
print("\ncrossed product endo dimension:", crossed.homs[(I, I)].dim)

# sanity: the trivial group changes nothing
from vncat import double_commutant, trivial_group, trivial_rep

plain = double_commutant([charge], uni)
still = crossed_product([charge], trivial_rep(trivial_group(), 2), uni)
print("trivial group keeps the dimension at",
      still.homs[(I, I)].dim, "=", plain.homs[(I, I)].dim)
