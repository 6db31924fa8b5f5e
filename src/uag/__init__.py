"""Equation geometry over finite many-sorted algebras.

Points are homomorphisms from a finitely generated term algebra into a fixed
finite algebra; equation sets and point sets close against each other through
the usual kernel correspondence. On top of that sit coordinate algebras,
closure comparisons, clause derivation systems, and a Halmos-style set
semantics for first-order formulas over finite models.
"""

from .algebras import (
    FiniteAlgebra,
    GROUP_SIG,
    RING_SIG,
    SEMILATTICE_SIG,
    chain_semilattice,
    cyclic_group,
    enumerate_homs,
    enumerate_points,
    inferred_context,
    klein_four,
    mod_ring,
    product,
    quotient,
    satisfies_identity,
    subalgebra_generated,
    symmetric_group_3,
    unit_algebra,
    vee_semilattice,
)
from .config import CapExceeded, get_cap
from .congruences import (
    FinitePartitionCongruence,
    GroundCongruence,
    KernelCongruence,
    LazyMeetKernel,
    PairSet,
    ground_closure,
    h_ker,
    kernel_leq,
    kernel_of_point,
    meet_kernels,
    unit_kernel,
    unit_partition,
)
from .geometry import (
    CoordinateAlgebra,
    Equivalent,
    Inconclusive,
    NotEquivalent,
    VarietyIso,
    act_endo_variety,
    all_closed_point_sets,
    closure_pairs,
    closure_variety,
    congruence_of,
    coordinate_algebra,
    faithful_solvable,
    geometric_equiv,
    morphism_check,
    nullstellensatz_check,
    point_closure,
    pointwise_closed,
    presentation_pairs,
    separating_pair,
    variety_iso,
    variety_of,
    variety_of_kernel,
    verbal_variety,
)
from .logic import (
    And,
    Eq,
    Exists,
    Model,
    Not,
    Or,
    Rel,
    RelSignature,
    eval_formula,
    exists_f,
    exists_set,
    filter_generated,
    fo_closure_member,
    fo_variety,
    forall_f,
    forall_set,
    fundamental_check,
    halmos_axiom_violations,
    is_filter,
    is_open,
    is_positive,
    los_check,
    open_variety_check,
    restrict_submodel,
    subst_formula,
    substitution_theorem_check,
    ultrapower_model,
)
from .rules import (
    Clause,
    SaturationBounds,
    derive_closure,
    holds_clause,
    identity,
    pseudo,
    quasi,
    soundness_check,
    universal,
)
from .sexpr import SexprError, Workspace, load_workspace, print_formula
from .spaces import GeoContext, PointSet
from .terms import (
    Signature,
    Substitution,
    VarContext,
    app,
    apply_subst,
    render,
    term_depth,
    term_key,
    term_size,
    var,
)

__version__ = "0.1.0"
