"""Exact multivariate hook-length formulas for labelled forests.

The package verifies, with exact rational-function arithmetic, that the sum
of multivariate permutation weights over the linear extensions of a
recursively labelled forest equals a Frobenius-twisted hook product, along
with the q- and (q,t)-specializations (the Björner–Wachs inv and maj hook
formulas) and the free-quasisymmetric-function morphism picture.
"""

from .combinat import (
    DualForestPoset,
    ForestPoset,
    Permutation,
    SubsetK,
    count_linear_extensions,
    descents,
    dual_forest_stats,
    enumerate_dual_forests,
    enumerate_rl_forests,
    extension_stat_counts,
    inv,
    inv_poset,
    linear_extensions,
    maj,
    parabolic_factorization,
    set_of_grassmannian,
    subset_to_partition,
    subtree_data,
    tree_pair_stats,
    validate_recursively_labelled,
)
from .fqsym import (
    FQSymElem,
    check_pbt_morphism,
    check_phimaj_morphism,
    concat_forests,
    f_of_poset,
    fqsym_mul,
    gamma_dual_forest,
    gamma_extension_sum,
    gamma_perm,
    phi_inv,
    phi_maj,
    ppartition_series,
    verify_bw_maj,
)
from .parsing import ParseError, parse_polynomial, parse_ratfunc
from .qanalog import (
    SkewElem,
    binomial,
    bracket,
    bracket_factorial,
    divided_power,
    skew_add,
    skew_equal,
    skew_mul,
)
from .ratfunc import (
    DivisionByZeroError,
    Monomial,
    Polynomial,
    RatFunc,
    frobenius,
    poly_add,
    poly_mul,
    rf_add,
    rf_div,
    rf_equal,
    rf_frobenius,
    rf_inv,
    rf_mul,
    rf_to_canonical_string,
)
from .specialize import (
    ExponentBoundError,
    SizeBoundError,
    SpecializationError,
    UniPoly,
    UniRatFunc,
    q_bracket,
    q_factorial,
    spec_q,
    spec_qt,
    verify_bw_inv,
)
from .weights import (
    H_of_forest,
    L_of_forest,
    NotRecursivelyLabelledError,
    inv_via_tree,
    wt_perm_recursive,
    wt_perm_tree,
    wt_subset,
)

__version__ = "0.1.0"
