"""sievekit: weighted-sieve toolkit for almost-prime values of products
of linear forms -- local densities, the sieve delay ODE, moment
asymptotics, Selberg/Richert weight systems with an exactly verifiable
decomposition, bound tables and an empirical Omega counter."""

from .arithmetic import (
    LinearSystem,
    arithmetic_tables,
    build_system,
    discriminant,
    f_values,
    from_offsets,
    H_sum,
    is_admissible,
    omega_L,
    parse_tuple_spec,
    rho,
    V_product,
)
from .bounds import (
    BoundRow,
    SieveParameters,
    choose_params,
    r_bound_explicit,
    r_bound_numeric,
    table,
)
from .delay_ode import (
    CKappa,
    JFunction,
    SaddleParams,
    c_kappa,
    saddle_j_prime,
    solve_j,
    tail_check,
)
from .moments import (
    MomentReport,
    RatioReport,
    SievePolynomial,
    digamma,
    log_gamma,
    main_integrals,
    moment_J1,
    moment_J2,
    ratios,
    upper_incomplete_gamma,
)
from .search import (
    OmegaHistogram,
    count_at_most,
    density_report,
    omega_profile,
)
from .weights import (
    G_sum,
    LambdaSystem,
    RichertWeights,
    SieveInstance,
    build_lambda_system,
    decompose,
    error_bound_analytic,
    lambda_from_zeta,
    richert_a,
    zeta_from_lambda,
    zeta_from_poly,
)

__version__ = "0.1.0"
