"""Ruin and level-reaching probabilities under FGM-dependent claims.

The package solves risk models in which each claim amount depends on the
inter-claim time that precedes it through an FGM copula:

* closed-form survival probabilities for exponential (compound Poisson)
  and Erlang(2) inter-claim times, by transform inversion,
* the probability of reaching a surplus level before ruin,
* Monte Carlo benchmarks for all of the above.
"""

from .classical import ClassicalSolution, classical_lt, solve_phi0, survival_classical
from .erlang import (
    DEFAULT_ELIMINATION,
    DEFAULT_SIGN_VARIANT,
    ErlangSolution,
    GrowthElimination,
    SignVariant,
    VariantReport,
    VariantRow,
    erlang_lt,
    select_sign_variant,
    sign_variant_report,
    solve_delta0,
    survival_erlang2,
)
from .errors import (
    ConditioningError,
    InputError,
    LoadingError,
    RuinModelError,
    StructuralError,
    UnsupportedStructureError,
)
from .max_surplus import ChiSolution, chi, chi_characteristic, solve_chi, xi
from .model import (
    Erlang2,
    ExpClaim,
    ExpPoisson,
    FgmParam,
    ModelSpec,
    fgm_cdf,
    fgm_density,
    joint_density,
    h_aux,
    k_aux,
)
from .simulate import (
    SimEstimate,
    estimate_reach_prob,
    estimate_survival,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "FgmParam",
    "ExpClaim",
    "ExpPoisson",
    "Erlang2",
    "ModelSpec",
    "fgm_cdf",
    "fgm_density",
    "joint_density",
    "h_aux",
    "k_aux",
    "ClassicalSolution",
    "classical_lt",
    "solve_phi0",
    "survival_classical",
    "SignVariant",
    "DEFAULT_SIGN_VARIANT",
    "GrowthElimination",
    "DEFAULT_ELIMINATION",
    "ErlangSolution",
    "VariantRow",
    "VariantReport",
    "erlang_lt",
    "solve_delta0",
    "survival_erlang2",
    "sign_variant_report",
    "select_sign_variant",
    "ChiSolution",
    "chi_characteristic",
    "solve_chi",
    "chi",
    "xi",
    "SimEstimate",
    "estimate_reach_prob",
    "estimate_survival",
    "RuinModelError",
    "InputError",
    "LoadingError",
    "StructuralError",
    "UnsupportedStructureError",
    "ConditioningError",
]
