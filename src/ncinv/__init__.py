"""Exact combinatorics of the noncrossing basis for noncommutative SL(2)
invariants of binary forms, with cross-checked dimension series.

Importing the package loads none of its modules.  Each name below, and each
module as an attribute (``ncinv.partitions``), is imported on first use
(PEP 562).
"""

_EXPORTS = {
    "brackets": ("BracketExpression", "BracketMonomial", "VanishingBracketError",
                 "from_pairs", "pluecker_step", "to_noncrossing"),
    "freeprob": ("CumulantSequence", "MomentSequence", "cumulants_from_moments",
                 "moments_from_cumulants", "psi_mixed_moment", "psi_orthogonality"),
    "group_action": ("GroupElement", "act", "default_witnesses", "is_invariant",
                     "random_group_element", "random_witnesses", "sym_power"),
    "hilbert": ("DimensionSeries", "MethodComparison", "compare_methods", "dims_by_chebyshev",
                "dims_by_enumeration", "dims_by_quadrature"),
    "partitions": ("PairPartition", "SetPartition", "catalan",
                   "enumerate_m_partite_nc_pairings", "enumerate_nc", "is_m_partite",
                   "is_noncrossing", "leq", "nc_moebius", "one_partition", "thicken",
                   "unthicken", "zero_partition"),
    "symbolic": ("NcPolynomial", "iter_noncrossing_basis", "leading_term",
                 "noncrossing_basis", "predicted_leading_word", "restitution"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

# The names and the modules, as ``from ncinv import *`` bound when they were
# imported eagerly.
__all__ = [*_HOME, *_EXPORTS]

__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _HOME and name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # __import__, unlike importlib.import_module, is timed by python -X importtime.
    module = __import__(f"{__name__}.{_HOME.get(name, name)}", fromlist=["*"])
    if name in _EXPORTS:
        return module  # the import binds it here as well
    value = globals()[name] = getattr(module, name)  # later lookups do not come here
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
