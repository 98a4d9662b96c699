"""Shape is checked once, when a structure is built, and never by a validator."""

import sys

import pytest

import groupoids.core as core
import groupoids.grouptable as grouptable
from groupoids import (
    FiniteGroupoid,
    GroupGroupoid,
    GroupTable,
    MalformedStructure,
    Morphism,
    SubStructure,
    anchor_morphism,
    check_derived_identities,
    check_group_groupoid,
    check_group_subgroupoid,
    check_interchange,
    check_subgroupoid,
    composable,
    conjugation_iso,
    cyclic_group,
    direct_product_groups,
    fiber,
    group_pair_groupoid,
    is_transitive,
    isotropy_bundle,
    isotropy_group,
    null_group_groupoid,
    reconstruct_from_group,
    structural_report,
    structure_identities,
    symmetric_group,
    unit_fiber_subgroups,
    validate_gg_morphism,
    validate_group,
    validate_groupoid,
    validate_morphism,
)
from groupoids.core import _null, _pair, _product, _single_unit

GP = group_pair_groupoid(cyclic_group(2))
EVERYTHING = SubStructure(GP.base.arrows, GP.base.objects)


def lacking_a_source() -> FiniteGroupoid:
    g = GP.base
    src = {x: u for x, u in g.src.items() if x != "(0|1)"}
    return FiniteGroupoid(g.objects, g.arrows, src, g.tgt, g.unit, g.inv, g.prod)


def gg_lacking_a_source() -> GroupGroupoid:
    return GroupGroupoid(lacking_a_source(), GP.arrow_group, GP.object_group)


def identity(g: FiniteGroupoid, target: FiniteGroupoid) -> Morphism:
    return Morphism(g, target, {x: x for x in g.arrows}, {u: u for u in g.objects})


# each of these reads src without checking it first, so only the constructor
# stands between a missing entry and a KeyError
LACKING_A_SOURCE = {
    "composable": lambda: composable(lacking_a_source(), "(0|0)", "(0|1)"),
    "fiber": lambda: fiber(lacking_a_source(), "source", "0"),
    "isotropy_group": lambda: isotropy_group(lacking_a_source(), "0"),
    "is_transitive": lambda: is_transitive(lacking_a_source()),
    "conjugation_iso": lambda: conjugation_iso(lacking_a_source(), "(0|1)"),
    "validate_morphism": lambda: validate_morphism(identity(lacking_a_source(), GP.base)),
    "check_subgroupoid": lambda: check_subgroupoid(lacking_a_source(), EVERYTHING),
    "check_group_subgroupoid": lambda: check_group_subgroupoid(gg_lacking_a_source(), EVERYTHING),
    "isotropy_bundle": lambda: isotropy_bundle(gg_lacking_a_source()),
    "unit_fiber_subgroups": lambda: unit_fiber_subgroups(gg_lacking_a_source()),
    "anchor_morphism": lambda: anchor_morphism(gg_lacking_a_source()),
}


@pytest.mark.parametrize("name", sorted(LACKING_A_SOURCE))
def test_a_map_that_is_not_total_is_malformed_not_a_key_error(name):
    with pytest.raises(MalformedStructure, match="src must be total on the arrow set"):
        LACKING_A_SOURCE[name]()


@pytest.fixture()
def shape_checks(monkeypatch):
    """Counts of the groupoid and table shape checks run while the test runs,
    wherever in the package they are called from."""
    counts = {"groupoid": 0, "table": 0}
    modules = [m for name, m in sys.modules.items() if name.startswith("groupoids")]
    for kind, check in (("groupoid", core.check_wellformed),
                        ("table", grouptable.check_table_wellformed)):
        def run(structure, kind=kind, check=check):
            counts[kind] += 1
            check(structure)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is check:
                    monkeypatch.setattr(module, attr, run)
    return counts


def test_the_anchor_checks_only_the_target_it_builds(shape_checks):
    gg = null_group_groupoid(symmetric_group(3))
    shape_checks.update(groupoid=0, table=0)
    anchor_morphism(gg)
    # the pair groupoid on the object group, its target; the source structure
    # and its tables, which the def32 gate reads, are not checked again
    assert shape_checks == {"groupoid": 1, "table": 0}


VALIDATORS = {
    "check_group_groupoid": lambda gg: check_group_groupoid(gg, mode="both"),
    "check_derived_identities": check_derived_identities,
    "reconstruct_from_group": reconstruct_from_group,
    "structure_identities": lambda gg: structure_identities(gg.base),
    "validate_groupoid": lambda gg: validate_groupoid(gg.base),
    "validate_group": lambda gg: validate_group(gg.arrow_group),
    "structural_report": structural_report,
    "check_interchange": check_interchange,
    "validate_gg_morphism": lambda gg: validate_gg_morphism(identity(gg.base, gg.base), gg, gg),
}


@pytest.mark.parametrize("name", sorted(VALIDATORS))
def test_validators_do_not_check_the_shape_of_their_input(name, corpus, shape_checks):
    for gg in corpus.values():
        assert VALIDATORS[name](gg).valid
    # structure_identities builds one isotropy group per object of a
    # transitive groupoid, and each new table is checked once
    isotropy = sum(len(gg.base.objects) for gg in corpus.values() if is_transitive(gg.base))
    tables = isotropy if name == "structure_identities" else 0
    assert shape_checks == {"groupoid": 0, "table": tables}


def checked(g: FiniteGroupoid) -> FiniteGroupoid:
    return FiniteGroupoid(g.objects, g.arrows, g.src, g.tgt, g.unit, g.inv, g.prod)


def test_each_builder_equals_the_checked_construction(corpus):
    built = []
    for gg in corpus.values():
        built += [_null(gg.base.objects), _pair(gg.base.objects), _single_unit(gg.arrow_group)]
        built += [_product(gg.base, other.base) for other in corpus.values()]
    for g in built:
        twin = checked(g)
        assert g == twin
        assert list(vars(g)) == list(vars(twin))  # same fields, in the same order
    for gg in corpus.values():
        table = direct_product_groups(gg.arrow_group, gg.object_group)
        twin = GroupTable(table.elements, table.op, table.identity, table.inverse)
        assert table == twin
        assert list(vars(table)) == list(vars(twin))
