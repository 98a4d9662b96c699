"""Finite groupoids with compatible group structure: validators,
constructions, substructure checks, and an exact affine-plane model.

Everything works on explicit finite tables over string tokens, so every
check is exhaustive and every failure comes with a concrete witness.

Each exported name is loaded from its module the first time it is used
(PEP 562), so ``import groupoids`` itself imports no submodule.
"""

from importlib import import_module

__version__ = "0.1.0"

# module -> the names it exports here
_EXPORTS = {
    "grouptable": (
        "GroupTable", "pair_token", "validate_group", "is_group_hom",
        "is_commutative", "noncommuting_pair", "element_order", "find_isomorphism",
        "trivial_group", "cyclic_group", "symmetric_group",
    ),
    "core": (
        "FiniteGroupoid", "validate_groupoid", "composable", "fiber",
        "isotropy_group", "is_transitive", "conjugation_iso", "structure_identities",
        "Morphism", "validate_morphism",
    ),
    "overlay": (
        "GroupGroupoid", "structural_report", "check_interchange",
        "check_group_groupoid", "check_derived_identities", "reconstruct_from_group",
        "validate_gg_morphism",
    ),
    "construct": (
        "direct_product_groups", "null_groupoid", "pair_groupoid",
        "group_as_single_unit_groupoid", "direct_product_groupoids", "null_group_groupoid",
        "single_unit_group_groupoid", "group_pair_groupoid", "direct_product_group_groupoids",
    ),
    "sub": (
        "SubStructure", "check_subgroupoid", "check_group_subgroupoid",
        "isotropy_bundle", "unit_fiber_subgroups", "anchor_morphism",
    ),
    "affine": (
        "Vec2", "aff_eval", "aff_product", "aff_verify", "aff_parallelograms", "QuadReport",
    ),
    "fileformat": (
        "StructureFile", "MorphismSpec", "parse_structure_file",
        "emit_structure_file", "load_structure_file", "load_morphism",
        "ParseError", "StructureSyntaxError", "UnknownIdentifier", "DuplicateDeclaration",
    ),
    "report": (
        "ValidationReport", "Violation", "Note", "ReportBuilder",
        "GroupoidError", "MalformedStructure", "MalformedTable", "UnknownObject",
        "UnknownArrow", "EmptySet", "InvalidGroup", "InvalidInput",
        "NonCommutativeGroup", "NotComposable", "DomainMismatch", "NotSubset",
        "InternalCheckFailed",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_HOME]


def __getattr__(name: str):
    """Import the home module of an exported name (or a submodule of the
    table) on first use, and keep the result as a plain global."""
    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
