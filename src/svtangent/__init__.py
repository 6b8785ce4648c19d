"""Exact toric models of tangential varieties of Segre-Veronese varieties.

Builds the affine semigroup model attached to parameters (k, a, b), decides
smoothness, normality, Cohen-Macaulayness and Gorensteinness by exact
lattice-point computations, and compares the verdicts against the
closed-form classification table.

The exports are resolved on first use (PEP 562), so importing one
submodule, say `svtangent.classify`, loads only what it runs.
"""

import importlib

# `classify` names both a submodule and the function it exports.  Importing
# the submodule here, before any caller can, leaves the package attribute
# the function; it loads what `classify` runs and nothing else.
from .classify import classify

_EXPORTS = {
    "classify": "ClassificationReport ExpectedVerdicts SweepSummary classify expected_verdicts "
    "normalized_grid sweep",
    "hoatrung": "CMVerdict GorensteinResult SFMembershipResult build_profiles cm_verdict "
    "gj_empty gorenstein_witness s_prime_equals_s sf_member",
    "lattice": "Sublattice integer_kernel",
    "membership": "SemigroupMembership find_holes is_normal is_smooth",
    "model": "AffineSemigroup FacetId SVParams build_semigroup facet_list",
    "simplicial": "AbstractComplex LabeledComplex",
    "toricideal": "BinomialRelation enumerate_binomials format_relation parse_complex_file "
    "parse_relation relation_lattice verify_relation",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}
_SUBMODULES = {*_EXPORTS, "cli", "regions", "workedcases"}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name in _MODULE_OF:
        value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
