"""Exact and numeric toolkit for the six-vertex model with domain wall
boundary conditions: dual-route partition functions, operator-identity
verification, and the linear functional relation with its solved
coefficient tables."""

from .scalar import (
    EXACT,
    FLOAT,
    Backend,
    CheckOutcome,
    LaurentPoly,
    RationalFunction,
    VarId,
    backend_of,
    leading_coeff,
    parse_poly,
    poly_derivative,
    poly_eval,
    q_var,
    u_var,
    w_var,
)
from .vertex import Weights, build_L, build_R, check_yang_baxter, weights_of
from .monodromy import (
    Monodromy,
    apply_block,
    build_monodromy,
    check_commutation,
    check_rtt,
    check_triangular,
    dual_vacuum,
    vacuum,
)
from .partition import (
    EdgeConvention,
    LatticeConfig,
    count_configs,
    standard_symbolic_params,
    z_algebraic,
    z_enumerate,
)
from .functional import (
    ExpansionCoeffs,
    FunctionalInput,
    check_b_nilpotency,
    check_cbb_expansion,
    check_fz,
    expansion_coeffs,
    functional_residual,
    omission_coeff,
    substitution_coeff,
)
from .asymptotics import asymptotic_norm, f_top, p_operator, q_factorial
from .solver import (
    CoefficientTable,
    h_table_from_z,
    homogeneous_ode_residual,
    homogeneous_partition_polynomial,
    phi_polynomials,
    solve_fz,
    verify_h_table,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
