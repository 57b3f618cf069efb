"""Exact combinatorics of the noncrossing basis for noncommutative SL(2)
invariants of binary forms, with cross-checked dimension series."""

from .brackets import (
    BracketExpression,
    BracketMonomial,
    VanishingBracketError,
    from_pairs,
    pluecker_step,
    to_noncrossing,
)
from .freeprob import (
    CumulantSequence,
    MomentSequence,
    cumulants_from_moments,
    moments_from_cumulants,
    psi_mixed_moment,
    psi_orthogonality,
)
from .group_action import (
    GroupElement,
    SymPowerMatrix,
    act,
    default_witnesses,
    is_invariant,
    random_group_element,
    random_witnesses,
    sym_power,
)
from .hilbert import (
    DimensionSeries,
    IntPolynomial,
    MethodComparison,
    chebyshev_poly,
    compare_methods,
    dims_by_chebyshev,
    dims_by_enumeration,
    dims_by_quadrature,
)
from .partitions import (
    PairPartition,
    SetPartition,
    catalan,
    count_m_partite_nc_pairings,
    enumerate_m_partite_nc_pairings,
    enumerate_nc,
    is_m_partite,
    is_noncrossing,
    leq,
    nc_moebius,
    one_partition,
    thicken,
    unthicken,
    zero_partition,
)
from .symbolic import (
    NcPolynomial,
    iter_noncrossing_basis,
    leading_term,
    noncrossing_basis,
    predicted_leading_word,
    restitution,
)

__version__ = "0.1.0"
