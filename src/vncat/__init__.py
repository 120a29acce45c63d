"""Finite-dimensional hidden-factor categories: commutants, crossed products, causal nets.

Arrows between finite-dimensional spaces carry an extra hidden tensor
factor that composition threads through, which breaks the interchange law
between the two whiskerings.  This package computes with that failure:
centres, commutants and double commutants over finite object universes,
crossed products by finite group actions, and interchange-based causality
checks for nets of generators on a 1+1 lattice.
"""

from .linalg import kron, swap_perm, nullspace, operator_norm
from .category import (
    Context,
    Obj,
    Arrow,
    unit_obj,
    tensor_obj,
    identity_arrow,
    central_arrow,
    compose,
    dagger,
    whisker_left,
    whisker_right,
    rtimes,
    ltimes,
    interchange_norms,
    interchange_residuals,
    symmetry,
    pair_swap,
    pair_swap_family,
    central_factor,
    central_defect,
    cstar_residuals,
    arrow_close,
)
from .commutant import (
    ObjectUniverse,
    HomSubspace,
    FinPremonCat,
    standard_universe,
    span_category,
    span_basis,
    star_closure,
    is_star_closed,
    commutant,
    double_commutant,
    VnReport,
    is_von_neumann,
    subspace_contains,
    subspace_equal,
    endo_algebra,
    classical_commutant,
    generated_star_algebra,
)
from .crossed import (
    FiniteGroup,
    trivial_group,
    cyclic_group,
    symmetric_group,
    UnitaryRep,
    trivial_rep,
    regular_rep,
    CrossedContext,
    act,
    lambda_embed,
    pi_embed,
    covariance_residual,
    covariance_residuals,
    crossed_product,
)
from .causal import (
    Event,
    causal_leq,
    DoubleCone,
    LatticeBounds,
    cone_events,
    spacelike,
    CausalNet,
    IsotonyReport,
    CausalityReport,
    check_isotony,
    check_causality,
)
from .scenario import Scenario, ScenarioError, parse_scenario, load_scenario
from .cli import run_scenario

__version__ = "0.1.0"
