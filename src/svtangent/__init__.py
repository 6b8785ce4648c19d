"""Exact toric models of tangential varieties of Segre-Veronese varieties.

Builds the affine semigroup model attached to parameters (k, a, b), decides
smoothness, normality, Cohen-Macaulayness and Gorensteinness by exact
lattice-point computations, and compares the verdicts against the
closed-form classification table.
"""

from .classify import (
    ClassificationReport,
    ExpectedVerdicts,
    SweepSummary,
    classify,
    expected_verdicts,
    normalized_grid,
    sweep,
)
from .hoatrung import (
    CMVerdict,
    GorensteinResult,
    SFMembershipResult,
    build_profiles,
    cm_verdict,
    gj_empty,
    gorenstein_witness,
    s_prime_equals_s,
    sf_member,
)
from .lattice import Sublattice, integer_kernel
from .membership import (
    SemigroupMembership,
    find_holes,
    is_normal,
    is_smooth,
)
from .model import (
    AffineSemigroup,
    FacetId,
    SVParams,
    build_semigroup,
    facet_list,
)
from .simplicial import AbstractComplex, LabeledComplex
from .toricideal import (
    BinomialRelation,
    enumerate_binomials,
    format_relation,
    parse_complex_file,
    parse_relation,
    relation_lattice,
    verify_relation,
)

__all__ = [
    "AbstractComplex",
    "AffineSemigroup",
    "BinomialRelation",
    "CMVerdict",
    "ClassificationReport",
    "ExpectedVerdicts",
    "FacetId",
    "GorensteinResult",
    "LabeledComplex",
    "SFMembershipResult",
    "SVParams",
    "SemigroupMembership",
    "Sublattice",
    "SweepSummary",
    "build_profiles",
    "build_semigroup",
    "classify",
    "cm_verdict",
    "enumerate_binomials",
    "expected_verdicts",
    "facet_list",
    "find_holes",
    "format_relation",
    "gj_empty",
    "gorenstein_witness",
    "integer_kernel",
    "is_normal",
    "is_smooth",
    "normalized_grid",
    "parse_complex_file",
    "parse_relation",
    "relation_lattice",
    "s_prime_equals_s",
    "sf_member",
    "sweep",
    "verify_relation",
]
