"""katailab: desk-scale experiments on level sets of multiplicative functions,
orthogonality criteria for bounded sequences, and equidistribution along
arithmetic sets."""

from .constants import BudgetError, Constant, as_constant, rational
from .sieve import FactorSieve, build_sieve, factorize
from . import functions
from .levelsets import (
    Abundant,
    Deficient,
    GenericLevel,
    Intersection,
    IntervalSetMod1,
    KFree,
    LevelSet,
    OmegaMod,
    OmegaRot,
    PhiRatioBelow,
    Squarefree,
    TauMod,
    concentration_scan,
    empirical_density,
    enumerate_members,
    first_members,
)
from .meanvalues import (
    empirical_cdf,
    empirical_mean,
    euler_product_mean,
    halasz_series,
    mean_with_product,
    seminorm_l1,
    three_series,
)
from .orthogonality import (
    BoundedSequence,
    ConstantSequence,
    LinearExponential,
    PolynomialExponential,
    TableSequence,
    katai_correlation,
    orthogonality_sum,
    turan_kubilius_variance,
)
from .equidist import (
    HardyFunction,
    Mod1Sequence,
    ergodic_weyl_test,
    floor_sequence,
    fractional_parts_along,
    log_gamma,
    log_power,
    polynomial,
    power,
    pq_dilation_check,
    star_discrepancy,
    t_log_t,
    t_over_log_t,
    total_ergodicity_test,
    ud_test,
    weyl_sum,
)

__version__ = "0.1.0"
