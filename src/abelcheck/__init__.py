"""Symbolic classification of abelian groups built from uniform blocks,
with an exhaustive finite-group oracle for cross-validation."""

__version__ = "0.1.0"

from .characteristics import (
    CHAR_Q,
    CHAR_Z,
    INF,
    Characteristic,
    equivalent,
    is_homogeneous,
    localization_char,
)
from .deciders import (
    DecisionReport,
    EvidenceRow,
    in_pure_injectivity_domain_of_witness,
    is_poor,
    is_pure_split,
    pi_poor_necessary,
    witness_truncation,
    witness_truncation_without_unit_layer,
)
from .errors import (
    AbelcheckError,
    BoundExceeded,
    IllDefinedHom,
    InternalConsistencyError,
    NonTorsionFreeInput,
    NotASubgroup,
    NotCoprime,
    ParseError,
)
from .finite import (
    FiniteAbelianGroup,
    Subgroup,
    element_height,
    enumerate_subgroups,
    hom_extends,
    hom_extends_bruteforce,
    is_direct_summand,
    is_pure_split_finite,
    is_pure_subgroup,
    is_relatively_injective,
    is_relatively_pure_injective,
    isomorphism_classes_of_order,
    isomorphism_classes_upto,
    localization_hom_image,
    quotient,
)
from .groups import (
    OMEGA,
    CanonicalGroup,
    CyclicAtom,
    FixedExponent,
    GroupDescriptor,
    LocalShape,
    PrimeFamily,
    PruferAll,
    PruferAtom,
    RationalAtom,
    TowerAtom,
    UnboundedTower,
    ZERO_GROUP,
    canonicalize,
    direct_sum,
    group_of,
    structural_predicates,
    torsion_free_rank,
)
from .parser import parse, render
from .snf import smith_normal_form

__all__ = [name for name in dir() if not name.startswith("_")]
