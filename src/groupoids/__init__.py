"""Finite groupoids with compatible group structure: validators,
constructions, substructure checks, and an exact affine-plane model.

Everything works on explicit finite tables over string tokens, so every
check is exhaustive and every failure comes with a concrete witness.
"""

from .affine import (
    QuadReport,
    Vec2,
    aff_eval,
    aff_parallelograms,
    aff_product,
    aff_verify,
)
from .construct import (
    direct_product_group_groupoids,
    direct_product_groupoids,
    direct_product_groups,
    group_as_single_unit_groupoid,
    group_pair_groupoid,
    null_group_groupoid,
    null_groupoid,
    pair_groupoid,
    single_unit_group_groupoid,
)
from .core import (
    FiniteGroupoid,
    Morphism,
    composable,
    conjugation_iso,
    fiber,
    is_transitive,
    isotropy_group,
    structure_identities,
    validate_groupoid,
    validate_morphism,
)
from .fileformat import (
    DuplicateDeclaration,
    MorphismSpec,
    ParseError,
    StructureFile,
    StructureSyntaxError,
    UnknownIdentifier,
    emit_structure_file,
    load_morphism,
    load_structure_file,
    parse_structure_file,
)
from .grouptable import (
    GroupTable,
    cyclic_group,
    element_order,
    find_isomorphism,
    is_commutative,
    is_group_hom,
    noncommuting_pair,
    pair_token,
    symmetric_group,
    trivial_group,
    validate_group,
)
from .overlay import (
    GroupGroupoid,
    check_derived_identities,
    check_group_groupoid,
    check_interchange,
    reconstruct_from_group,
    structural_report,
    validate_gg_morphism,
)
from .report import (
    DomainMismatch,
    EmptySet,
    GroupoidError,
    InternalCheckFailed,
    InvalidGroup,
    InvalidInput,
    MalformedStructure,
    MalformedTable,
    NonCommutativeGroup,
    NotComposable,
    NotSubset,
    Note,
    ReportBuilder,
    UnknownArrow,
    UnknownObject,
    ValidationReport,
    Violation,
)
from .sub import (
    SubStructure,
    anchor_morphism,
    check_group_subgroupoid,
    check_subgroupoid,
    isotropy_bundle,
    unit_fiber_subgroups,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # tables
    "GroupTable", "pair_token", "validate_group", "is_group_hom",
    "is_commutative", "noncommuting_pair", "element_order", "find_isomorphism",
    "trivial_group", "cyclic_group", "symmetric_group", "direct_product_groups",
    # groupoids
    "FiniteGroupoid", "validate_groupoid", "composable", "fiber",
    "isotropy_group", "is_transitive", "conjugation_iso", "structure_identities",
    "Morphism", "validate_morphism",
    # group overlay
    "GroupGroupoid", "structural_report", "check_interchange",
    "check_group_groupoid", "check_derived_identities", "reconstruct_from_group",
    "validate_gg_morphism",
    # constructions
    "null_groupoid", "pair_groupoid", "group_as_single_unit_groupoid",
    "direct_product_groupoids", "null_group_groupoid",
    "single_unit_group_groupoid", "group_pair_groupoid",
    "direct_product_group_groupoids",
    # substructures
    "SubStructure", "check_subgroupoid", "check_group_subgroupoid",
    "isotropy_bundle", "unit_fiber_subgroups", "anchor_morphism",
    # affine model
    "Vec2", "aff_eval", "aff_product", "aff_verify", "aff_parallelograms",
    "QuadReport",
    # files
    "StructureFile", "MorphismSpec", "parse_structure_file",
    "emit_structure_file", "load_structure_file", "load_morphism",
    "ParseError", "StructureSyntaxError", "UnknownIdentifier",
    "DuplicateDeclaration",
    # reports and errors
    "ValidationReport", "Violation", "Note", "ReportBuilder",
    "GroupoidError", "MalformedStructure", "MalformedTable", "UnknownObject",
    "UnknownArrow", "EmptySet", "InvalidGroup", "InvalidInput",
    "NonCommutativeGroup", "NotComposable", "DomainMismatch", "NotSubset",
    "InternalCheckFailed",
]
