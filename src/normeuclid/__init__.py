"""normeuclid: explicit bounds for the sphere-packing criterion for
norm-Euclidean number fields, plus Dedekind zeta machinery for cyclotomic
fields.

Subpackages by theme:

* specfun    foundation numerics (gamma-family functions, Hurwitz zeta)
* rogers     two-sided explicit bounds for the Rogers packing constant
* lenstra    criterion thresholds, GRH discriminant bounds, the crossing
             degree where they collide
* cyclozeta  Dirichlet characters, L-functions, cyclotomic zeta values and
             scans
* zimmert    digamma series bounds and the minimal-ideal-norm inequalities
* cli        command-line front end (``normeuclid ...``)
"""

from .specfun import (
    BracketError,
    CONSTANTS,
    Constants,
    ConvergenceError,
    DomainError,
    Evaluation,
    PoleError,
    digamma,
    hurwitz_zeta,
    hurwitz_zeta_ds,
    log_gamma,
    riemann_zeta,
)
from .rogers import (
    RogersContext,
    RogersErrorConstants,
    c_poly,
    central_integral,
    error_constants,
    f_lower,
    leech_gap,
    sigma_lower_log,
    sigma_upper_log,
    u_threshold,
)
from .lenstra import (
    CriterionVerdict,
    NotFoundError,
    criterion_check,
    delta1_star_log,
    delta2_star_log,
    find_crossing,
    lenstra_disc_cap,
    main_gap,
    poitou_grh_lower,
    remark_condition,
    uncond_lower_main,
)
from .cyclozeta import (
    ComplexEvaluation,
    DirichletCharacter,
    ScanRow,
    UnitGroupStructure,
    char_rotation,
    char_value,
    characters,
    conjugate_character,
    cyclo_disc_log,
    cyclo_signature,
    dirichlet_l,
    euler_phi,
    min_proper_ideal_norm,
    scan,
    scan_row,
    threshold_check,
    unit_group,
    zeta_cyclotomic,
    zeta_cyclotomic_logderiv,
)
from .zimmert import (
    ZimmertTerms,
    f_terms,
    min_norm_check,
    satz4_check,
    zeta_lenstra_threshold,
)

__version__ = "0.1.0"
