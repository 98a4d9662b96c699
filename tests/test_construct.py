import itertools
from dataclasses import replace

import pytest

from groupoids import (
    EmptySet,
    GroupTable,
    InvalidGroup,
    InvalidInput,
    MalformedStructure,
    NonCommutativeGroup,
    anchor_morphism,
    check_group_groupoid,
    cyclic_group,
    direct_product_group_groupoids,
    direct_product_groupoids,
    direct_product_groups,
    emit_structure_file,
    group_as_single_unit_groupoid,
    group_pair_groupoid,
    is_transitive,
    isotropy_group,
    noncommuting_pair,
    null_group_groupoid,
    null_groupoid,
    pair_groupoid,
    single_unit_group_groupoid,
    symmetric_group,
    trivial_group,
    validate_gg_morphism,
    validate_group,
    validate_groupoid,
)
from groupoids.grouptable import pair_token_table


def test_null_groupoid_counts():
    g = null_groupoid(["u", "v", "w"])
    assert len(g.objects) == len(g.arrows) == 3
    assert len(g.prod) == 3
    with pytest.raises(EmptySet):
        null_groupoid([])


def test_pair_groupoids_small_sizes():
    for n in range(1, 6):
        objs = [f"o{i}" for i in range(n)]
        g = pair_groupoid(objs)
        assert len(g.arrows) == n * n
        assert validate_groupoid(g).valid
        assert is_transitive(g)
        for u in objs:
            assert len(isotropy_group(g, u).elements) == 1


def test_single_unit_groupoid_from_table():
    g = group_as_single_unit_groupoid(symmetric_group(3))
    assert len(g.objects) == 1
    assert len(g.arrows) == 6
    assert validate_groupoid(g).valid
    assert len(g.prod) == 36


def test_direct_product_groupoids():
    g = direct_product_groupoids(pair_groupoid(["a", "b"]), null_groupoid(["u", "v"]))
    assert len(g.objects) == 4
    assert len(g.arrows) == 8
    assert len(g.prod) == 16
    assert g.prod[("((a|b)|u)", "((b|a)|u)")] == "((a|a)|u)"
    assert validate_groupoid(g).valid


def test_product_factors_with_a_bar_in_a_token_are_refused():
    # "(a|b|c)" would stand for both ("a|b", "c") and ("a", "b|c")
    with pytest.raises(MalformedStructure, match=r"bad identifier 'a\|b'"):
        direct_product_groupoids(null_groupoid(["a|b", "a"]), null_groupoid(["c", "b|c"]))


def test_null_group_groupoid():
    gg = null_group_groupoid(cyclic_group(2))
    assert gg.base.arrows == frozenset({"0", "1"})
    assert gg.arrow_group.op == gg.object_group.op
    assert check_group_groupoid(gg).valid


def test_single_unit_group_groupoid_needs_commutativity():
    gg = single_unit_group_groupoid(cyclic_group(4))
    assert check_group_groupoid(gg).valid
    assert gg.object_group.elements == frozenset({"0"})
    with pytest.raises(NonCommutativeGroup) as info:
        single_unit_group_groupoid(symmetric_group(3))
    assert info.value.witness == ("021", "102")


def test_group_pair_groupoid_shape():
    gg = group_pair_groupoid(cyclic_group(3))
    assert len(gg.base.arrows) == 9
    assert gg.arrow_group.mul("(1|2)", "(2|2)") == "(0|1)"
    assert gg.object_group.elements == frozenset({"0", "1", "2"})
    assert check_group_groupoid(gg).valid


def test_direct_product_group_groupoids_and_projections():
    a = group_pair_groupoid(cyclic_group(2))
    b = null_group_groupoid(cyclic_group(2))
    product, left, right = direct_product_group_groupoids(a, b)
    assert len(product.base.arrows) == 8
    assert len(product.base.objects) == 4
    assert check_group_groupoid(product).valid
    assert left.f["((0|1)|1)"] == "(0|1)"
    assert right.f["((0|1)|1)"] == "1"
    assert left.f0["(1|0)"] == "1"
    assert validate_gg_morphism(left, product, a).valid
    assert validate_gg_morphism(right, product, b).valid


def test_product_rejects_invalid_factor(s3_control):
    good = null_group_groupoid(cyclic_group(2))
    with pytest.raises(InvalidInput):
        direct_product_group_groupoids(s3_control, good)
    pair = pair_groupoid(["u", "v"])
    broken = replace(pair, inv={**pair.inv, "(u|v)": "(u|u)"})
    with pytest.raises(InvalidInput):
        direct_product_groupoids(pair, broken)


def test_constructors_reject_broken_tables(monkeypatch):
    def refuse(gg, mode):
        raise AssertionError("a constructor built from a table that is not a group")

    # the input table is refused before any structure is built and checked
    monkeypatch.setattr("groupoids.construct.check_group_groupoid", refuse)
    z3 = cyclic_group(3)
    op = dict(z3.op)
    op[("1", "1")] = "1"
    broken = GroupTable(z3.elements, op, z3.identity, z3.inverse)
    message = "^not a group: associativity at 1,1,2$"
    with pytest.raises(InvalidGroup, match=message):
        null_group_groupoid(broken)
    with pytest.raises(InvalidGroup, match=message):
        group_pair_groupoid(broken)
    s3 = symmetric_group(3)
    op = dict(s3.op)
    op[("021", "021")] = "021"
    message = "^not a group: associativity at 021,021,102$"
    with pytest.raises(InvalidGroup, match=message):  # broken first, non-commutative second
        single_unit_group_groupoid(GroupTable(s3.elements, op, s3.identity, s3.inverse))


def test_constructors_check_their_output_in_def32_only(monkeypatch):
    # a constructor runs no checker on what it built, in either definition:
    # only a product validates its two input factors
    def refuse(gg):
        raise AssertionError("a constructor ran def31")

    monkeypatch.setattr("groupoids.overlay._morphism_based_report", refuse)
    calls = []

    def counted(g, **kwargs):
        calls.append(g)
        return validate_groupoid(g, **kwargs)

    for module in ("groupoids.construct", "groupoids.overlay"):
        monkeypatch.setattr(f"{module}.validate_groupoid", counted)
    z2 = cyclic_group(2)

    def checks(build) -> int:
        calls.clear()
        build()
        return len(calls)

    assert checks(lambda: null_groupoid(["u", "v"])) == 0
    assert checks(lambda: pair_groupoid(["u", "v"])) == 0
    assert checks(lambda: group_as_single_unit_groupoid(z2)) == 0
    assert checks(lambda: null_group_groupoid(z2)) == 0
    assert checks(lambda: single_unit_group_groupoid(cyclic_group(4))) == 0
    assert checks(lambda: group_pair_groupoid(z2)) == 0
    pair = group_pair_groupoid(z2)
    assert checks(lambda: direct_product_groupoids(pair.base, pair.base)) == 2
    assert checks(lambda: direct_product_group_groupoids(pair, null_group_groupoid(z2))) == 2
    assert checks(lambda: anchor_morphism(pair)) == 0


def test_constructors_check_their_input_table_once_up_front(monkeypatch):
    calls = []

    def counted(table):
        calls.append(table)
        return validate_group(table)

    for module in ("groupoids.construct", "groupoids.overlay"):
        monkeypatch.setattr(f"{module}.validate_group", counted)
    z4 = cyclic_group(4)

    def checks(build) -> int:
        calls.clear()
        build(z4)
        return len(calls)

    # the gate is the only check: nothing validates the groups of what was built
    assert checks(null_group_groupoid) == 1
    assert checks(group_pair_groupoid) == 1
    assert checks(single_unit_group_groupoid) == 1
    assert checks(group_as_single_unit_groupoid) == 1


def test_constructor_rejects_its_own_invalid_output(monkeypatch):
    # a constructor returns what its builder made, so a damaged builder shows
    # in the check of the output, not in the constructor
    def damaged(a, b):
        table = direct_product_groups(a, b)
        key = sorted(table.op)[-1]
        other = next(x for x in sorted(table.elements) if x != table.op[key])
        return GroupTable(table.elements, {**table.op, key: other}, table.identity,
                          table.inverse)

    monkeypatch.setattr("groupoids.construct.direct_product_groups", damaged)
    gg = group_pair_groupoid(cyclic_group(3))
    assert not check_group_groupoid(gg, mode="both").valid


def four_loop_product(a: GroupTable, b: GroupTable) -> GroupTable:
    """The group product written out as its own loop over both tables: the
    reference the one-object case of the groupoid product must equal."""
    tok = pair_token_table(a.elements, b.elements)
    op = {}
    inverse = {}
    for x1 in a.elements:
        for y1 in b.elements:
            inverse[tok[x1][y1]] = tok[a.inverse[x1]][b.inverse[y1]]
            for x2 in a.elements:
                for y2 in b.elements:
                    op[(tok[x1][y1], tok[x2][y2])] = tok[a.op[(x1, x2)]][b.op[(y1, y2)]]
    elements = frozenset(tok[x][y] for x in a.elements for y in b.elements)
    return GroupTable(elements, op, tok[a.identity][b.identity], inverse)


def klein() -> GroupTable:
    return four_loop_product(cyclic_group(2), cyclic_group(2))


@pytest.mark.parametrize("a, b", [
    (symmetric_group(3), symmetric_group(3)),
    (symmetric_group(4), cyclic_group(2)),
    (klein(), symmetric_group(3)),
    (trivial_group(), symmetric_group(3)),
    (cyclic_group(3), trivial_group("0")),
    (trivial_group(), trivial_group()),
], ids=["S3xS3", "S4xZ2", "(Z2xZ2)xS3", "1xS3", "Z3x1", "1x1"])
def test_the_group_product_equals_the_four_loop_reference(a, b):
    product = direct_product_groups(a, b)
    reference = four_loop_product(a, b)
    assert product == reference
    assert emit_structure_file(product) == emit_structure_file(reference)


def test_the_group_product_refuses_a_factor_that_is_not_closed():
    z3 = cyclic_group(3)
    open_z3 = GroupTable(z3.elements, {**z3.op, ("0", "2"): "zz"}, z3.identity, z3.inverse)
    for a, b in ((open_z3, z3), (z3, open_z3)):
        with pytest.raises(InvalidInput, match="closure at 0,2,zz"):
            direct_product_groups(a, b)


@pytest.fixture(scope="module")
def family():
    """Every public constructor's output over small groups and object sets:
    (groupoids, group-groupoids), each named by how it was built.  The product
    groups are the four-loop reference's, so a fault in direct_product_groups
    shows in the outputs, not in the inputs."""
    z2 = cyclic_group(2)
    groups = {"1": trivial_group(), **{f"Z{n}": cyclic_group(n) for n in range(1, 9)},
              "S3": symmetric_group(3), "Z2xZ2": klein(),
              "Z2xZ4": four_loop_product(z2, cyclic_group(4)),
              "Z2xS3": four_loop_product(z2, symmetric_group(3))}
    groupoids = {f"single({n})": group_as_single_unit_groupoid(t) for n, t in groups.items()}
    for n in (1, 2, 3, 5):
        objects = [f"o{i}" for i in range(n)]
        groupoids[f"null({n})"] = null_groupoid(objects)
        groupoids[f"pair({n})"] = pair_groupoid(objects)
    ggs = {}
    for name, t in groups.items():
        ggs[f"null({name})"] = null_group_groupoid(t)
        ggs[f"group_pair({name})"] = group_pair_groupoid(t)
        if noncommuting_pair(t) is None:
            ggs[f"single_unit({name})"] = single_unit_group_groupoid(t)
    return groupoids, ggs


def test_every_constructor_output_is_valid_in_both_definitions(family):
    groupoids, ggs = family
    assert len(groupoids) == 21 and len(ggs) == 37
    for name, g in groupoids.items():
        assert validate_groupoid(g).valid, name
    for name, gg in ggs.items():
        assert validate_groupoid(gg.base).valid, name
        assert check_group_groupoid(gg, mode="both").valid, name


def test_every_small_product_and_its_projections_are_valid(family):
    # every ordered pair of outputs whose product has at most 16 arrows
    groupoids, ggs = family
    built = 0
    for (m, g), (n, k) in itertools.product(groupoids.items(), repeat=2):
        if len(g.arrows) * len(k.arrows) <= 16:
            assert validate_groupoid(direct_product_groupoids(g, k)).valid, (m, n)
            built += 1
    for (m, a), (n, b) in itertools.product(ggs.items(), repeat=2):
        if len(a.base.arrows) * len(b.base.arrows) <= 16:
            gg, left, right = direct_product_group_groupoids(a, b)
            assert validate_groupoid(gg.base).valid, (m, n)
            assert check_group_groupoid(gg, mode="both").valid, (m, n)
            assert validate_gg_morphism(left, gg, a).valid, (m, n)
            assert validate_gg_morphism(right, gg, b).valid, (m, n)
            built += 1
    assert built == 229 + 457
