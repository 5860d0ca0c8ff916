"""Exact arithmetic for the crystal of Lakshmibai-Seshadri paths of
shape L1 - L2 over a rank-2 hyperbolic generalized Cartan matrix."""

from .cartan import GCM, LAMBDA, Weight, dominance_class, pairing, simple_reflect, simple_root
from .explicit import (
    ExplicitPath,
    e_explicit,
    enumerate_explicit,
    f_explicit,
    fe_explicit,
    from_ls_path,
    to_ls_path,
    validate_explicit,
)
from .oracle import (
    CheckResult,
    OracleBoundError,
    SearchBounds,
    VerificationReport,
    check_classification,
    check_connectedness,
    check_crystal_axioms,
    check_operator_equivalence,
    check_straight_through_lambda,
    check_structure,
    dist,
    enumerate_ls_paths,
    is_ls_path_oracle,
    sigma_chain_exists,
    sigma_chain_lengths,
)
from .paths import (
    LSPath,
    e_generic,
    e_max,
    epsilon,
    f_generic,
    f_max,
    fe_generic,
    h_function,
    phi,
    straight_path,
    weight,
)
from .weyl import (
    IDENTITY,
    WeylElement,
    apply_weyl,
    hasse_neighbors,
    orbit_weight,
    positive_roots_recurrence,
    positive_roots_weyl,
    pq_table,
    reflect_by_root,
    root_pairing,
    window_elements,
    x,
    y,
)
