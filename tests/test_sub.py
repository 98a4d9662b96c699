import pytest

from groupoids import (
    GroupGroupoid,
    GroupTable,
    InternalCheckFailed,
    MalformedStructure,
    NotSubset,
    SubStructure,
    anchor_morphism,
    check_group_subgroupoid,
    check_subgroupoid,
    cyclic_group,
    direct_product_groups,
    group_pair_groupoid,
    isotropy_bundle,
    null_group_groupoid,
    pair_groupoid,
    pair_token,
    single_unit_group_groupoid,
    symmetric_group,
    trivial_group,
    unit_fiber_subgroups,
    validate_gg_morphism,
)


def test_full_substructure_is_a_subgroupoid():
    g = pair_groupoid(["a", "b", "c"])
    assert check_subgroupoid(g, SubStructure(g.arrows, g.objects)).valid


def test_restriction_to_two_objects():
    g = pair_groupoid(["a", "b", "c"])
    arrows = frozenset({"(a|a)", "(a|b)", "(b|a)", "(b|b)"})
    assert check_subgroupoid(g, SubStructure(arrows, frozenset({"a", "b"}))).valid


def test_missing_inverse_is_flagged():
    g = pair_groupoid(["a", "b"])
    s = SubStructure(frozenset({"(a|a)", "(a|b)", "(b|b)"}), frozenset({"a", "b"}))
    report = check_subgroupoid(g, s)
    assert not report.valid
    assert "inverse-closed" in report.rules()


def test_missing_product_is_flagged():
    g = pair_groupoid(["a", "b"])
    s = SubStructure(
        frozenset({"(a|b)", "(b|a)", "(a|a)", "(b|b)"}) - {"(a|a)"},
        frozenset({"a", "b"}),
    )
    report = check_subgroupoid(g, s)
    assert not report.valid
    assert "product-closed" in report.rules()


def test_object_cover_must_match_endpoints():
    g = pair_groupoid(["a", "b"])
    s = SubStructure(frozenset({"(a|a)"}), frozenset({"a", "b"}))
    report = check_subgroupoid(g, s)
    assert not report.valid
    assert "source-image" in report.rules()


def test_empty_candidates_are_violations_not_errors():
    g = pair_groupoid(["a", "b"])
    report = check_subgroupoid(g, SubStructure(frozenset(), frozenset()))
    assert {"nonempty-arrows", "nonempty-objects"} <= set(report.rules())


def test_foreign_tokens_are_errors():
    g = pair_groupoid(["a", "b"])
    with pytest.raises(NotSubset):
        check_subgroupoid(g, SubStructure(frozenset({"zz"}), frozenset({"a"})))
    with pytest.raises(NotSubset):
        check_subgroupoid(g, SubStructure(frozenset({"(a|a)"}), frozenset({"q"})))


def test_group_subgroupoid_needs_group_closure():
    gg = group_pair_groupoid(cyclic_group(4))
    partial = SubStructure(frozenset({"(0|0)", "(1|1)"}), frozenset({"0", "1"}))
    report = check_group_subgroupoid(gg, partial)
    assert not report.valid
    assert "arrow-subgroup-op-closed" in report.rules()
    whole_diagonal = SubStructure(
        frozenset(pair_token(str(i), str(i)) for i in range(4)),
        frozenset(str(i) for i in range(4)),
    )
    assert check_group_subgroupoid(gg, whole_diagonal).valid


def test_group_subgroupoid_names_each_negation_that_escapes():
    # on a finite subset closure under + already implies closure under
    # negation, so -inverse-closed only adds witnesses to a failing verdict
    gg = group_pair_groupoid(cyclic_group(4))
    partial = SubStructure(frozenset({"(0|0)", "(1|1)"}), frozenset({"0", "1"}))
    report = check_group_subgroupoid(gg, partial)
    found = [(v.rule, v.witness, v.message) for v in report.violations
             if v.rule.endswith("-inverse-closed")]
    assert found == [
        ("arrow-subgroup-inverse-closed", ("(1|1)",), "negation (3|3) escapes the subset"),
        ("object-subgroup-inverse-closed", ("1",), "negation 3 escapes the subset"),
    ]


def test_isotropy_bundle_of_group_pair():
    gg = group_pair_groupoid(cyclic_group(4))
    bundle = isotropy_bundle(gg)
    assert bundle.arrows == frozenset(pair_token(str(i), str(i)) for i in range(4))
    assert bundle.objects == gg.base.objects


def test_isotropy_bundle_of_null_is_everything():
    gg = null_group_groupoid(cyclic_group(3))
    bundle = isotropy_bundle(gg)
    assert bundle.arrows == gg.base.arrows


def test_unit_fibers_of_group_pair():
    gg = group_pair_groupoid(cyclic_group(3))
    src_fiber, tgt_fiber, loops = unit_fiber_subgroups(gg)
    assert src_fiber == frozenset(pair_token("0", str(i)) for i in range(3))
    assert tgt_fiber == frozenset(pair_token(str(i), "0") for i in range(3))
    assert loops == frozenset({"(0|0)"})


def test_unit_fibers_of_single_unit_cover_everything():
    gg = single_unit_group_groupoid(cyclic_group(4))
    src_fiber, tgt_fiber, loops = unit_fiber_subgroups(gg)
    assert src_fiber == tgt_fiber == loops == gg.base.arrows


def test_anchor_morphism_values():
    gg = null_group_groupoid(cyclic_group(2))
    m = anchor_morphism(gg)
    assert m.f == {"0": "(0|0)", "1": "(1|1)"}
    assert m.f0 == {"0": "0", "1": "1"}


def test_anchor_morphism_on_group_pair_is_identity_shaped():
    gg = group_pair_groupoid(cyclic_group(2))
    m = anchor_morphism(gg)
    assert m.f == {x: x for x in gg.base.arrows}
    assert validate_gg_morphism(m, gg, group_pair_groupoid(gg.object_group)).valid


def test_an_arrow_with_an_endpoint_outside_the_object_subset_is_reported():
    g = pair_groupoid(["a", "b"])
    report = check_subgroupoid(g, SubStructure(frozenset({"(a|a)", "(b|b)"}), frozenset({"a"})))
    assert [(v.rule, v.witness, v.message) for v in report.violations] == [
        ("source-image", ("b",), "an arrow's endpoint falls outside the object subset"),
        ("target-image", ("b",), "an arrow's endpoint falls outside the object subset"),
    ]


def test_anchor_refuses_a_structure_that_fails_def32(s3_control):
    # single-unit S_3: src and tgt are additive, but interchange fails
    with pytest.raises(InternalCheckFailed) as err:
        anchor_morphism(s3_control)
    assert str(err.value) == "invalid group-groupoid: def32:interchange at 012,021,102,012"


def test_anchor_names_the_broken_entry_of_the_object_table():
    gg = group_pair_groupoid(cyclic_group(3))
    o = gg.object_group
    broken = GroupTable(o.elements, {**o.op, ("0", "2"): "zz"}, o.identity, o.inverse)
    with pytest.raises(InternalCheckFailed) as err:
        anchor_morphism(GroupGroupoid(gg.base, gg.arrow_group, broken))
    assert str(err.value) == "invalid group-groupoid: object-group:closure at 0,2,zz"


def test_a_table_over_the_wrong_set_is_malformed_not_a_key_error():
    gg = group_pair_groupoid(cyclic_group(2))
    with pytest.raises(MalformedStructure, match="arrow group"):
        GroupGroupoid(
            gg.base, direct_product_groups(cyclic_group(2), trivial_group("0")), gg.object_group
        )


def test_anchor_of_null_s4_finishes():
    # the target group-pair S_4 has 576 arrows and ~1.9e8 interchange
    # quadruples, which only the interchange certificate keeps affordable
    gg = null_group_groupoid(symmetric_group(4))
    m = anchor_morphism(gg)  # raises unless the result is a valid morphism
    assert m.f == {x: pair_token(x, x) for x in gg.base.arrows}
    assert m.f0 == {u: u for u in gg.base.objects}
