import random
from dataclasses import fields, replace

import pytest

import groupoids.core as core
import groupoids.grouptable as grouptable
import groupoids.overlay as overlay
from conftest import build_corpus, sums
from groupoids import (
    GroupGroupoid,
    FiniteGroupoid,
    InternalCheckFailed,
    MalformedStructure,
    Morphism,
    Note,
    check_derived_identities,
    check_group_groupoid,
    check_interchange,
    cyclic_group,
    group_pair_groupoid,
    null_group_groupoid,
    reconstruct_from_group,
    single_unit_group_groupoid,
    structural_report,
    symmetric_group,
    unit_fiber_subgroups,
    validate_gg_morphism,
)


def mutate_base(gg, field, key, value):
    g = gg.base
    fields = dict(objects=g.objects, arrows=g.arrows, src=dict(g.src), tgt=dict(g.tgt),
                  unit=dict(g.unit), inv=dict(g.inv), prod=dict(g.prod))
    fields[field][key] = value
    return GroupGroupoid(FiniteGroupoid(**fields), gg.arrow_group, gg.object_group)


def mutate_table(gg, which, field, key, value):
    """gg with one op or inverse entry of its arrow_group or object_group replaced."""
    table = getattr(gg, which)
    changed = replace(table, **{field: {**getattr(table, field), key: value}})
    return replace(gg, **{which: changed})


def test_both_modes_pass_on_group_pair():
    gg = group_pair_groupoid(cyclic_group(3))
    report = check_group_groupoid(gg, mode="both")
    assert report.valid
    verdicts = {n.rule: n.message for n in report.notes if n.status == "info"}
    assert verdicts == {"def31": "verdict pass", "def32": "verdict pass"}


def test_single_mode_reports():
    gg = null_group_groupoid(cyclic_group(2))
    assert check_group_groupoid(gg, mode="def31").valid
    assert check_group_groupoid(gg, mode="def32").valid
    with pytest.raises(ValueError):
        check_group_groupoid(gg, mode="def99")


def test_interchange_on_valid_structure():
    gg = group_pair_groupoid(cyclic_group(2))
    assert check_interchange(gg).valid


OUTSIDE_CARRIER_BASES = (
    group_pair_groupoid(cyclic_group(4)),
    group_pair_groupoid(cyclic_group(5)),
    group_pair_groupoid(symmetric_group(3)),
    null_group_groupoid(symmetric_group(4)),
    single_unit_group_groupoid(cyclic_group(16)),
)


@pytest.mark.parametrize("seed", range(5))
def test_interchange_reports_a_sum_outside_the_arrow_group(seed):
    # one arrow-group sum set to a token that is no element, which only the
    # API can do; check_group_groupoid gates this, a direct call must too
    rng = random.Random(seed)
    for gg in OUTSIDE_CARRIER_BASES:
        key = rng.choice(sorted(gg.arrow_group.op))
        report = check_interchange(mutate_table(gg, "arrow_group", "op", key, "zz-outside"))
        assert [(v.rule, v.witness) for v in report.violations] == [
            ("arrow-group:closure", (*key, "zz-outside"))
        ]
        assert report.notes == (
            Note("interchange", "skipped", "a group table has a product outside its element set"),
        )


# the outside-carrier entries that the mutants benchmark draws at seeds 0-4,
# one per base of OUTSIDE_CARRIER_BASES, and how unit_fiber_subgroups refuses
# those that lie in a unit fiber
OUTSIDE_CARRIER_KEYS = (
    (("(2|3)", "(1|3)"), ("(4|1)", "(4|0)"), ("(201|012)", "(201|021)"), ("0123", "2103"),
     ("4", "14")),
    (("(1|2)", "(2|3)"), ("(1|4)", "(1|4)"), ("(201|012)", "(012|012)"), ("1230", "1203"),
     ("4", "4")),
    (("(0|1)", "(0|2)"), ("(4|0)", "(2|4)"), ("(210|021)", "(210|021)"), ("2130", "1203"),
     ("8", "12")),
    (("(3|3)", "(0|0)"), ("(1|1)", "(0|4)"), ("(012|021)", "(201|120)"), ("2130", "2103"),
     ("3", "4")),
    (("(3|0)", "(3|1)"), ("(1|3)", "(3|4)"), ("(120|201)", "(012|102)"), ("2013", "1302"),
     ("13", "10")),
)
UNIT_FIBER_REFUSALS = {
    ("4", "14"): "source-fiber-op-closed at 4,14",
    ("4", "4"): "source-fiber-op-closed at 4,4",
    ("8", "12"): "source-fiber-op-closed at 8,12",
    ("3", "4"): "source-fiber-op-closed at 3,4",
    ("13", "10"): "source-fiber-op-closed at 13,10",
    ("(201|012)", "(012|012)"): "target-fiber-op-closed at (201|012),(012|012)",
    ("(0|1)", "(0|2)"): "source-fiber-op-closed at (0|1),(0|2)",
}


@pytest.mark.parametrize("seed", range(5))
def test_unit_fiber_subgroups_refuses_a_sum_outside_the_arrow_group(seed):
    # unit_fiber_subgroups runs the unit isotropy report with no closure gate,
    # so a sum outside the arrow group reaches its rows as None
    for gg, key in zip(OUTSIDE_CARRIER_BASES, OUTSIDE_CARRIER_KEYS[seed]):
        mutant = mutate_table(gg, "arrow_group", "op", key, "zz-outside")
        if key not in UNIT_FIBER_REFUSALS:
            unit_fiber_subgroups(mutant)
            continue
        with pytest.raises(InternalCheckFailed) as refused:
            unit_fiber_subgroups(mutant)
        assert str(refused.value) == ("invalid group-groupoid: unit fibers are not subgroups: "
                                      + UNIT_FIBER_REFUSALS[key])
        if len(gg.base.objects) == 1:  # every arrow is a loop at the identity object
            report = overlay.unit_isotropy_report(mutant, "product", "inverse")
            assert [v.message.endswith("= zz-outside") for v in report.by_rule("product")] == [True]


def test_interchange_witness_on_s3_overlay(s3_control):
    report = check_interchange(s3_control)
    assert not report.valid
    first = report.violations[0]
    assert first.rule == "interchange"
    assert first.witness == ("012", "021", "102", "012")
    assert "but" in first.message


def test_s3_overlay_fails_both_definitions(s3_control):
    report = check_group_groupoid(s3_control, mode="both")
    assert not report.valid
    verdicts = {n.rule: n.message for n in report.notes if n.status == "info"}
    assert verdicts == {"def31": "verdict fail", "def32": "verdict fail"}
    assert any(v.rule == "def32:interchange" for v in report.violations)
    assert any(v.rule.startswith("def31:") for v in report.violations)


def test_verdicts_agree_on_a_broken_table():
    gg = group_pair_groupoid(cyclic_group(2))
    bad = mutate_base(gg, "prod", ("(0|1)", "(1|0)"), "(0|1)")
    report = check_group_groupoid(bad, mode="both")
    assert not report.valid
    verdicts = {n.rule: n.message for n in report.notes if n.status == "info"}
    assert verdicts == {"def31": "verdict fail", "def32": "verdict fail"}


def test_def31_and_def32_read_one_integer_view(monkeypatch):
    # mode both builds the base's integer view once, for the structural
    # report, and def31 and def32 read it; the group-groupoid holds no view
    gg = mutate_base(single_unit_group_groupoid(cyclic_group(4)), "prod", ("1", "1"), "3")
    built = []
    view = core._IntegerView
    monkeypatch.setattr(core, "_IntegerView",
                        lambda *parts: built.append(view(*parts)) or built[-1])
    assert not check_group_groupoid(gg, mode="both").valid
    assert len(built) == 1 and core._integer_view(gg.base) is built[0]
    assert not hasattr(gg, "_view")
    # the views are no fields: fields, equality and repr are those of a fresh structure
    assert [f.name for f in fields(gg.base)] == [
        "objects", "arrows", "src", "tgt", "unit", "inv", "prod"]
    assert [f.name for f in fields(gg.arrow_group)] == ["elements", "op", "identity", "inverse"]
    fresh = GroupGroupoid(replace(gg.base), replace(gg.arrow_group), replace(gg.object_group))
    assert fresh.base._view is None and gg.base._view is not None
    assert fresh == gg and repr(fresh) == repr(gg) and "_view" not in repr(gg)


def test_def31_skips_identity_and_negation_on_a_clean_structure_and_addition(
        monkeypatch, s3_control, klein_control):
    # on a clean structure with a clean addition both maps are morphisms by
    # theorem; the two controls fail addition's M2, so both maps are checked
    checked = []
    validate = overlay.validate_morphism
    monkeypatch.setattr(overlay, "validate_morphism",
                        lambda m: checked.append(m) or validate(m))
    for gg in build_corpus().values():
        assert check_group_groupoid(gg, mode="def31").valid
    assert checked == []
    for gg in (s3_control, klein_control):
        report = check_group_groupoid(gg, mode="def31")
        assert "def31:add-map:M2-product" in report.rules()
    assert len(checked) == 4


def test_structural_report_prefixes():
    gg = group_pair_groupoid(cyclic_group(2))
    bad = mutate_base(gg, "prod", ("(0|1)", "(1|0)"), "(0|1)")
    report = structural_report(bad)
    assert not report.valid
    assert all(
        v.rule.startswith(("base:", "arrow-group:", "object-group:"))
        for v in report.violations
    )


def test_wellformedness_mismatch_is_an_error():
    gg = group_pair_groupoid(cyclic_group(2))
    with pytest.raises(MalformedStructure):
        structural_report(GroupGroupoid(gg.base, cyclic_group(4), gg.object_group))


def test_derived_identities_on_commutative_member():
    gg = group_pair_groupoid(cyclic_group(3))
    report = check_derived_identities(gg)
    assert report.valid
    assert not any(n.rule == "negation-distributes" for n in report.notes)


def test_negation_distribution_not_applicable_for_s3():
    report = check_derived_identities(null_group_groupoid(symmetric_group(3)))
    assert report.valid
    notes = [n for n in report.notes if n.rule == "negation-distributes"]
    assert len(notes) == 1
    assert notes[0].status == "not-applicable"
    assert "021" in notes[0].message and "102" in notes[0].message


def test_reconstruction_matches_stored_tables():
    gg = group_pair_groupoid(cyclic_group(3))
    assert reconstruct_from_group(gg).valid
    # spot check the algebra behind it: x.y = x + (-unit(tgt x)) + y
    a, g = gg.arrow_group, gg.base
    x, y = "(1|2)", "(2|0)"
    assert a.mul(x, a.inverse[g.unit[g.tgt[x]]], y) == "(1|0)"
    assert g.prod[(x, y)] == "(1|0)"
    # and inv(x) = unit(src x) + (-x) + unit(tgt x)
    assert a.mul(g.unit[g.src[x]], a.inverse[x], g.unit[g.tgt[x]]) == "(2|1)"
    assert g.inv[x] == "(2|1)"


def test_reconstruction_flags_a_tampered_product():
    gg = group_pair_groupoid(cyclic_group(2))
    bad = mutate_base(gg, "prod", ("(0|1)", "(1|0)"), "(0|1)")
    report = reconstruct_from_group(bad)
    assert not report.valid
    assert "product-reconstruction" in report.rules()


def test_additivity_violations_appear_under_def32():
    # per structure map: group order, mutated entry and value, rule, violation
    # count, and the first witness with its message
    cases = [
        (2, "src", "(0|1)", "1", "source-additive", 6, ("(0|1)", "(1|0)"),
         "src((0|1)+(1|0)) = 1 but src((0|1))+src((1|0)) = 0"),
        (2, "tgt", "(0|1)", "0", "target-additive", 6, ("(0|1)", "(1|0)"),
         "tgt((0|1)+(1|0)) = 1 but tgt((0|1))+tgt((1|0)) = 0"),
        (2, "inv", "(0|1)", "(0|1)", "inversion-additive", 6, ("(0|1)", "(1|0)"),
         "inv((0|1)+(1|0)) = (1|1) but inv((0|1))+inv((1|0)) = (0|0)"),
        (3, "unit", "1", "(1|2)", "unit-additive", 4, ("1", "1"),
         "unit(1+1) = (2|2) but unit(1)+unit(1) = (2|1)"),
    ]
    for order, field, key, value, rule, count, witness, message in cases:
        bad = mutate_base(group_pair_groupoid(cyclic_group(order)), field, key, value)
        report = check_group_groupoid(bad, mode="def32")
        assert not report.valid
        found = [(v.witness, v.message) for v in report.by_rule("def32:" + rule)]
        assert len(found) == count
        assert found[0] == (witness, message)
        derived = check_derived_identities(bad).by_rule(rule)
        assert [(v.witness, v.message) for v in derived] == found


def test_gg_morphism_identity_is_valid():
    gg = group_pair_groupoid(cyclic_group(2))
    m = Morphism(
        gg.base, gg.base,
        {x: x for x in gg.base.arrows},
        {u: u for u in gg.base.objects},
    )
    assert validate_gg_morphism(m, gg, gg).valid


def test_gg_morphism_doubling_on_null_z4():
    gg = null_group_groupoid(cyclic_group(4))
    double = {"0": "0", "1": "2", "2": "0", "3": "2"}
    m = Morphism(gg.base, gg.base, dict(double), dict(double))
    assert validate_gg_morphism(m, gg, gg).valid


def test_gg_morphism_rejects_nonadditive_map():
    gg = null_group_groupoid(cyclic_group(4))
    swap12 = {"0": "0", "1": "2", "2": "1", "3": "3"}
    m = Morphism(gg.base, gg.base, dict(swap12), dict(swap12))
    report = validate_gg_morphism(m, gg, gg)
    assert not report.valid
    for name in ("f", "f0"):
        found = report.by_rule(f"{name}-additive")
        assert len(found) == 7
        assert found[0].witness == ("1", "1")
        assert found[0].message == f"{name}(1+1) = 1 but {name}(1)+{name}(1) = 0"


def test_gg_morphism_endpoint_mismatch_is_an_error():
    from groupoids import DomainMismatch

    a = null_group_groupoid(cyclic_group(2))
    b = null_group_groupoid(cyclic_group(3))
    m = Morphism(a.base, a.base, {"0": "0", "1": "1"}, {"0": "0", "1": "1"})
    with pytest.raises(DomainMismatch):
        validate_gg_morphism(m, a, b)


@pytest.mark.parametrize(
    "field, key, value, rule, witness, message, fiber_rule",
    [
        ("prod", ("1", "1"), "0", "isotropy-product-is-addition", ("1", "1"),
         "1.1 = 0 but 1+1 = 2", "unit-isotropy-product at 1,1"),
        ("inv", "1", "1", "isotropy-inverse-is-negation", ("1",),
         "inv(1) = 1 but -1 = 2", "unit-isotropy-inverse at 1"),
    ],
    ids=["product", "inverse"],
)
def test_unit_isotropy_agreement_messages(field, key, value, rule, witness, message,
                                          fiber_rule):
    bad = mutate_base(single_unit_group_groupoid(cyclic_group(3)), field, key, value)
    found = check_derived_identities(bad).by_rule(rule)
    assert [(v.witness, v.message) for v in found] == [(witness, message)]
    with pytest.raises(InternalCheckFailed) as err:
        unit_fiber_subgroups(bad)
    assert str(err.value) == (
        f"invalid group-groupoid: unit fibers are not subgroups: {fiber_rule}"
    )


def test_klein_addition_on_single_unit_z4_fails_interchange(klein_control):
    from groupoids.overlay import _addition_certificate, _interchange_certificate

    assert structural_report(klein_control).valid
    assert not _interchange_certificate(klein_control)
    assert not _addition_certificate(klein_control)
    exhaustive = check_interchange(klein_control).violations
    assert len(exhaustive) == 96
    report = check_group_groupoid(klein_control, mode="both")
    assert report.rules() == ("def31:add-map:M2-product", "def32:interchange")
    assert [v.witness for v in report.by_rule("def32:interchange")] == [
        v.witness for v in exhaustive
    ]
    verdicts = {n.rule: n.message for n in report.notes if n.status == "info"}
    assert verdicts == {"def31": "verdict fail", "def32": "verdict fail"}


DERIVED_BASES = {
    "group-pair Z2": lambda: group_pair_groupoid(cyclic_group(2)),
    "group-pair Z3": lambda: group_pair_groupoid(cyclic_group(3)),
    "null Z3": lambda: null_group_groupoid(cyclic_group(3)),
}

# one single-entry mutant per derived-identity rule whose output no other test
# pins: base, mutated part, field, key, value, rule, violation count, and the
# first witness with its message
DERIVED_CASES = [
    ("null Z3", "base", "prod", ("1", "1"), "0", "negation-product-compat", 2,
     ("1", "1"), "(-1).(-1) = 2 but -(1.1) = 0"),
    ("group-pair Z2", "base", "src", "(0|0)", "1", "identity-arrow-endpoints", 1,
     ("(0|0)",), "identity arrow has endpoints (1,0), expected (0,0)"),
    ("group-pair Z2", "base", "unit", "0", "(0|1)", "unit-of-identity", 1,
     ("0",), "unit(0) = (0|1), expected (0|0)"),
    ("group-pair Z2", "base", "inv", "(0|0)", "(0|1)", "inversion-fixes-identity", 1,
     ("(0|0)",), "inv((0|0)) = (0|1)"),
    ("group-pair Z3", "base", "src", "(0|1)", "1", "source-of-negation", 2,
     ("(0|1)",), "src(-(0|1)) = 0 but -src((0|1)) = 2"),
    ("group-pair Z3", "base", "tgt", "(0|1)", "2", "target-of-negation", 2,
     ("(0|1)",), "tgt(-(0|1)) = 2 but -tgt((0|1)) = 1"),
    ("group-pair Z3", "base", "inv", "(0|1)", "(0|0)", "inversion-of-negation", 2,
     ("(0|1)",), "inv(-(0|1)) = (2|0) but -inv((0|1)) = (0|0)"),
    ("group-pair Z3", "base", "unit", "1", "(0|0)", "unit-of-negation", 2,
     ("1",), "unit(-1) = (2|2) but -unit(1) = (0|0)"),
    ("group-pair Z2", "arrow_group", "inverse", "(0|1)", "(0|0)", "negation-involution", 1,
     ("(0|1)",), "-(-(0|1)) = (0|0)"),
    ("group-pair Z3", "arrow_group", "op", ("(1|2)", "(2|1)"), "(0|1)",
     "negation-antidistributes", 1,
     ("(1|2)", "(2|1)"), "-((1|2)+(2|1)) != (-(2|1))+(-(1|2))"),
    ("group-pair Z3", "arrow_group", "op", ("(1|2)", "(1|2)"), "(0|1)",
     "negation-distributes", 2,
     ("(1|2)", "(1|2)"), "-((1|2)+(1|2)) != (-(1|2))+(-(1|2))"),
    ("group-pair Z2", "base", "src", "(1|1)", "0", "identity-left-neutral", 1,
     ("(1|1)",), "(0|0).(1|1) = None"),
    ("group-pair Z2", "base", "tgt", "(1|1)", "0", "identity-right-neutral", 1,
     ("(1|1)",), "(1|1).(0|0) = None"),
    ("group-pair Z2", "base", "prod", ("(0|1)", "(1|0)"), "(0|1)", "shift-by-source-fiber", 2,
     ("(0|1)", "(1|0)", "(0|1)"), "x.(y+t) = (0|1) but (x.y)+t = (0|0)"),
    ("group-pair Z2", "base", "prod", ("(0|1)", "(1|0)"), "(0|1)", "shift-by-target-fiber", 2,
     ("(0|1)", "(1|0)", "(1|0)"), "(x+z).y = (1|0) but (x.y)+z = (1|1)"),
]


@pytest.mark.parametrize(
    "base, where, field, key, value, rule, count, witness, message",
    DERIVED_CASES,
    ids=[case[5] for case in DERIVED_CASES],
)
def test_derived_identity_messages(base, where, field, key, value, rule, count, witness,
                                   message):
    gg = DERIVED_BASES[base]()
    if where == "base":
        bad = mutate_base(gg, field, key, value)
    else:
        bad = mutate_table(gg, where, field, key, value)
    found = check_derived_identities(bad).by_rule(rule)
    assert len(found) == count
    assert (found[0].witness, found[0].message) == (witness, message)


@pytest.mark.parametrize("gg", list(build_corpus().values()), ids=list(build_corpus()))
def test_every_kernel_member_is_a_sum_of_the_kernel_generating_set(gg):
    view, table = core._integer_view(gg.base), grouptable._rows(gg.arrow_group)
    e0 = grouptable._rows(gg.object_group).identity
    for kernel in (view.starts[e0], [z for z, d in enumerate(view.tgt) if d == e0]):
        generators = grouptable._table_generators(table, kernel)
        assert set(generators) <= set(kernel) <= sums(table.rows, generators)


def test_the_shift_certificate_refuses_a_rewired_single_unit_z4():
    # 1.1 stored as 3: 1.(1+1) = 1.2 = 3 but (1.1)+1 = 0, and (1+1).1 = 3 too
    gg = mutate_base(single_unit_group_groupoid(cyclic_group(4)), "prod", ("1", "1"), "3")
    stored = [pair for pair in core._integer_view(gg.base).pairs if pair[2] != -1]
    columns = [[pair[i] for pair in stored] for i in range(3)]
    for side in ("source", "target"):
        assert not overlay._shifts_on_generators(gg, columns, side, [0, 1, 2, 3])
    report = check_derived_identities(gg)
    for rule in ("shift-by-source-fiber", "shift-by-target-fiber"):
        assert ("1", "1", "1") in {v.witness for v in report.by_rule(rule)}


def test_the_shift_certificate_refuses_a_product_stored_off_a_composable_pair(monkeypatch):
    # Z_6 over Z_2: arrows 0-3 leave object 0, 4 and 5 leave object 1, all
    # enter 0, and x.y = x+y is stored for y <= 4, so x.4 is stored off a
    # composable pair and x.5 not at all.  t = 1 generates ker src = {0,..,3}
    # and shifts every composable pair, yet x.(3+2) = x.5 is not stored
    # while (x.3)+2 = x+5: checking t = 1 alone would miss it
    arrows, A = [str(i) for i in range(6)], cyclic_group(6)
    base = FiniteGroupoid(
        frozenset({"0", "1"}), frozenset(arrows), {x: "0" if x < "4" else "1" for x in arrows},
        dict.fromkeys(arrows, "0"), {"0": "0", "1": "4"}, dict(A.inverse),
        {(x, y): A.op[(x, y)] for x in arrows for y in arrows if y != "5"},
    )
    gg = GroupGroupoid(base, A, cyclic_group(2))
    view = core._integer_view(base)
    stored = [pair for pair in view.pairs if pair[2] != -1]
    columns = [[pair[i] for pair in stored] for i in range(3)]
    assert overlay._shifts_on_generators(gg, columns, "source", [1]) is False
    report = check_derived_identities(gg)
    assert ("0", "3", "2") in {v.witness for v in report.by_rule("shift-by-source-fiber")}
    monkeypatch.setattr(overlay, "_shifts_on_generators", lambda *args: False)
    assert check_derived_identities(gg).to_dict() == report.to_dict()
