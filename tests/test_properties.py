"""Property-based checks: the validators accept everything the constructors
build, the two compatibility definitions agree on arbitrary mutations, and
the exact-arithmetic model satisfies its laws at arbitrary rational points."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from groupoids import (
    GroupGroupoid,
    GroupTable,
    FiniteGroupoid,
    InternalCheckFailed,
    InvalidGroup,
    Morphism,
    NotComposable,
    ValidationReport,
    Vec2,
    aff_eval,
    aff_parallelograms,
    aff_product,
    anchor_morphism,
    check_derived_identities,
    check_group_groupoid,
    cyclic_group,
    direct_product_group_groupoids,
    direct_product_groups,
    emit_structure_file,
    fiber,
    group_pair_groupoid,
    null_group_groupoid,
    parse_structure_file,
    reconstruct_from_group,
    single_unit_group_groupoid,
    structure_identities,
    symmetric_group,
    trivial_group,
    unit_fiber_subgroups,
    validate_gg_morphism,
    validate_group,
    validate_groupoid,
)

import groupoids.grouptable as grouptable
import groupoids.overlay as overlay
from conftest import (
    build_corpus,
    klein_on_z4_control,
    s3_single_unit_control,
)

ABELIAN_TABLES = (
    trivial_group(),
    cyclic_group(2),
    cyclic_group(3),
    cyclic_group(4),
    cyclic_group(5),
    cyclic_group(6),
    direct_product_groups(cyclic_group(2), cyclic_group(2)),
    direct_product_groups(cyclic_group(2), cyclic_group(3)),
)
ALL_TABLES = ABELIAN_TABLES + (symmetric_group(3),)

CORPUS = tuple(build_corpus().values())
CONTROLS = (s3_single_unit_control(), klein_on_z4_control())


SHAPES = {
    "null": (null_group_groupoid, ALL_TABLES),
    "single_unit": (single_unit_group_groupoid, ABELIAN_TABLES),
    "group_pair": (group_pair_groupoid, ALL_TABLES),
}
FACTORS = [(shape, table) for shape, (_, tables) in SHAPES.items() for table in tables]


def _size(factor) -> tuple[int, int]:
    """(arrows, objects) of a factor, known without building it."""
    shape, table = factor
    n = len(table.elements)
    return {"null": (n, n), "single_unit": (n, 1), "group_pair": (n * n, n)}[shape]


# pairs whose product has at most 18 arrows and 6 objects; the object count
# sets the cost of anchor_morphism, which builds group-pair on the object group
PRODUCT_FACTORS = [
    (p, q)
    for p in FACTORS
    for q in FACTORS
    if _size(p)[0] * _size(q)[0] <= 18 and _size(p)[1] * _size(q)[1] <= 6
]


def _build(factor) -> GroupGroupoid:
    shape, table = factor
    return SHAPES[shape][0](table)


@st.composite
def constructed(draw) -> tuple[GroupGroupoid, list]:
    """A constructor's output, with (projection, factor) pairs for a product."""
    shape = draw(st.sampled_from((*SHAPES, "product")))
    if shape != "product":
        tables = SHAPES[shape][1]
        return _build((shape, draw(st.sampled_from(tables)))), []
    a, b = (_build(f) for f in draw(st.sampled_from(PRODUCT_FACTORS)))
    product, left, right = direct_product_group_groupoids(a, b)
    return product, [(left, a), (right, b)]


def group_groupoids():
    return constructed().map(lambda case: case[0])


@st.composite
def mutated(draw) -> GroupGroupoid:
    """One stored entry of a valid structure, overwritten within its carrier."""
    gg = draw(st.sampled_from(CORPUS))
    g = gg.base
    arrows = sorted(g.arrows)
    objects = sorted(g.objects)
    field = draw(st.sampled_from(
        ("prod", "inv", "src", "unit", "arrow_op", "arrow_inv", "object_op")
    ))
    base, arrow_group, object_group = g, gg.arrow_group, gg.object_group
    if field == "prod":
        table = dict(g.prod)
        key = draw(st.sampled_from(sorted(table)))
        table[key] = draw(st.sampled_from(arrows))
        base = FiniteGroupoid(g.objects, g.arrows, g.src, g.tgt, g.unit, g.inv, table)
    elif field == "inv":
        table = dict(g.inv)
        table[draw(st.sampled_from(arrows))] = draw(st.sampled_from(arrows))
        base = FiniteGroupoid(g.objects, g.arrows, g.src, g.tgt, g.unit, table, g.prod)
    elif field == "src":
        table = dict(g.src)
        table[draw(st.sampled_from(arrows))] = draw(st.sampled_from(objects))
        base = FiniteGroupoid(g.objects, g.arrows, table, g.tgt, g.unit, g.inv, g.prod)
    elif field == "unit":
        table = dict(g.unit)
        table[draw(st.sampled_from(objects))] = draw(st.sampled_from(arrows))
        base = FiniteGroupoid(g.objects, g.arrows, g.src, g.tgt, table, g.inv, g.prod)
    elif field == "arrow_op":
        table = dict(arrow_group.op)
        key = draw(st.sampled_from(sorted(table)))
        table[key] = draw(st.sampled_from(arrows))
        arrow_group = type(arrow_group)(
            arrow_group.elements, table, arrow_group.identity, arrow_group.inverse
        )
    elif field == "arrow_inv":
        table = dict(arrow_group.inverse)
        table[draw(st.sampled_from(arrows))] = draw(st.sampled_from(arrows))
        arrow_group = type(arrow_group)(
            arrow_group.elements, arrow_group.op, arrow_group.identity, table
        )
    else:
        table = dict(object_group.op)
        key = draw(st.sampled_from(sorted(table)))
        table[key] = draw(st.sampled_from(objects))
        object_group = type(object_group)(
            object_group.elements, table, object_group.identity, object_group.inverse
        )
    return GroupGroupoid(base, arrow_group, object_group)


@st.composite
def outside_carrier(draw) -> tuple[GroupGroupoid, str, tuple[str, str]]:
    """One arrow-op or object-op entry of a valid structure set to a fresh
    token, which only the API can do: the file parser refuses it."""
    gg = draw(st.sampled_from(CORPUS))
    which = draw(st.sampled_from(("arrow", "object")))
    table = gg.arrow_group if which == "arrow" else gg.object_group
    key = draw(st.sampled_from(sorted(table.op)))
    fresh = type(table)(table.elements, {**table.op, key: "zz-fresh"}, table.identity,
                        table.inverse)
    if which == "arrow":
        return GroupGroupoid(gg.base, fresh, gg.object_group), which, key
    return GroupGroupoid(gg.base, gg.arrow_group, fresh), which, key


def names(report, key) -> bool:
    return any(set(key) <= set(v.witness) for v in report.violations)


@given(outside_carrier())
@settings(max_examples=60, deadline=None)
def test_products_outside_the_carrier_are_reported_not_raised(case):
    gg, which, key = case
    for mode in ("def31", "def32", "both"):
        report = check_group_groupoid(gg, mode=mode)
        assert not report.valid and names(report, key)
    report = check_derived_identities(gg)
    assert not report.valid and names(report, key)
    report = reconstruct_from_group(gg)
    assert isinstance(report, ValidationReport)
    if which == "arrow":  # the only table reconstruction reads
        assert not report.valid and names(report, key)
    identity = Morphism(gg.base, gg.base, {x: x for x in gg.base.arrows},
                        {u: u for u in gg.base.objects})
    report = validate_gg_morphism(identity, gg, gg)
    assert not report.valid and names(report, key)
    with pytest.raises((InternalCheckFailed, InvalidGroup)):
        anchor_morphism(gg)


@given(st.one_of(st.sampled_from(CORPUS), mutated()))
@settings(max_examples=150, deadline=None)
def test_fiber_index_matches_the_exhaustive_scan(gg):
    g = gg.base
    arrows = sorted(g.arrows)
    assert list(g.composable_pairs()) == [
        (x, y) for x in arrows for y in arrows if g.tgt[x] == g.src[y]
    ]
    for side, mapping in (("source", g.src), ("target", g.tgt)):
        for u in sorted(g.objects):
            scan = [x for x in arrows if mapping[x] == u]
            assert fiber(g, side, u) == frozenset(scan)
            assert g.fibers.get((side, u), ()) == tuple(scan)


@given(constructed())
@settings(max_examples=40, deadline=None)
def test_constructed_structures_satisfy_everything(case):
    # constructors check their output in def32 only; def31 is cross-checked here
    gg, projections = case
    assert validate_groupoid(gg.base).valid
    assert structure_identities(gg.base).valid
    assert check_group_groupoid(gg, mode="both").valid
    assert check_derived_identities(gg).valid
    assert reconstruct_from_group(gg).valid
    anchor_morphism(gg)  # raises if it fails its own validation
    unit_fiber_subgroups(gg)
    for m, factor in projections:
        assert validate_gg_morphism(m, gg, factor).valid


@given(mutated())
@settings(max_examples=150, deadline=None)
def test_definitions_agree_on_arbitrary_mutations(gg):
    # mode "both" raises InternalCheckFailed on any verdict disagreement
    try:
        check_group_groupoid(gg, mode="both")
    except InternalCheckFailed as exc:  # pragma: no cover - the property itself
        raise AssertionError(f"definitions disagreed: {exc}") from exc


@given(mutated())
@settings(max_examples=150, deadline=None)
def test_identity_checks_report_and_never_raise(gg):
    for report in (
        structure_identities(gg.base),
        check_derived_identities(gg),
        reconstruct_from_group(gg),
    ):
        assert isinstance(report, ValidationReport)


def _certified_reports(gg: GroupGroupoid) -> list:
    reports = [check_group_groupoid(gg, mode=mode) for mode in ("def31", "def32", "both")]
    reports += [validate_group(gg.arrow_group), validate_group(gg.object_group)]
    return [report.to_dict() for report in reports]


@given(st.one_of(st.sampled_from(CORPUS + CONTROLS), mutated()))
@settings(max_examples=120, deadline=None)
def test_certificates_only_accept(gg):
    # with both certificates refusing, every law is enumerated in full
    fast = _certified_reports(gg)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(grouptable, "_associativity_certificate", lambda table: False)
        mp.setattr(overlay, "_interchange_certificate", lambda gg: False)
        assert _certified_reports(gg) == fast


class _CountingOp(dict):
    lookups = 0

    def __getitem__(self, key):
        self.lookups += 1
        return super().__getitem__(key)


@pytest.mark.parametrize("gg", CORPUS + (group_pair_groupoid(symmetric_group(3)),))
def test_valid_input_takes_the_fast_paths(gg, monkeypatch):
    def exhaustive(gg):
        raise AssertionError("check_interchange ran on valid input")

    monkeypatch.setattr(overlay, "check_interchange", exhaustive)
    assert check_group_groupoid(gg, mode="def32").valid
    assert check_group_groupoid(gg, mode="both").valid
    a = gg.arrow_group
    counted = GroupTable(a.elements, _CountingOp(a.op), a.identity, a.inverse)
    assert validate_group(counted).valid
    m = len(a.elements)
    # building the index table reads each entry once; the identity and
    # inverse laws read 4 per element; the triple loop would read 4 m^3
    assert counted.op.lookups <= m * m + 4 * m


@given(group_groupoids())
@settings(max_examples=25, deadline=None)
def test_file_round_trip(gg):
    sf = parse_structure_file(emit_structure_file(gg))
    assert sf.structure == gg
    base_sf = parse_structure_file(emit_structure_file(gg.base))
    assert base_sf.structure == gg.base


rationals = st.fractions(min_value=-40, max_value=40, max_denominator=24)
points = st.builds(Vec2, rationals, rationals)


@given(points)
def test_affine_unit_and_inverse_laws(x):
    left_unit = aff_eval("eps", aff_eval("alpha", x))
    right_unit = aff_eval("eps", aff_eval("beta", x))
    assert aff_product(left_unit, x) == x
    assert aff_product(x, right_unit) == x
    xi = aff_eval("inv", x)
    assert aff_product(x, xi) == left_unit
    assert aff_product(xi, x) == right_unit
    assert aff_eval("inv", xi) == x


def chain_after(x, free):
    # the unique arrow with source beta(x) and the given second coordinate
    return Vec2(x.x1 + x.x2 - 2 * free, free)


@given(points, rationals, rationals)
def test_affine_associativity(x, s, t):
    y = chain_after(x, s)
    z = chain_after(y, t)
    assert aff_product(aff_product(x, y), z) == aff_product(x, aff_product(y, z))


@given(points, rationals, points, rationals)
def test_affine_interchange(x, s, z, t):
    y = chain_after(x, s)
    w = chain_after(z, t)
    lhs = aff_product(x, y) + aff_product(z, w)
    rhs = aff_product(x + z, y + w)
    assert lhs == rhs


@given(points, points)
def test_affine_composability_is_exactly_the_alignment_condition(x, y):
    aligned = y.x1 + 2 * y.x2 == x.x1 + x.x2
    try:
        aff_product(x, y)
        composed = True
    except NotComposable:
        composed = False
    assert composed == aligned


@given(rationals, rationals, rationals)
def test_quad_family_a_theorems_hold_everywhere(a, b, c):
    q = aff_parallelograms("A", (a, b, c))
    assert q.degenerate == (c == 0)
    assert q.is_parallelogram == (c != 0)
    if not q.degenerate:
        assert q.slopes == (Fraction(-1, 2), Fraction(-1, 2))
        assert q.squared_lengths == (5 * c * c, 5 * c * c)


@given(rationals, rationals)
def test_quad_family_b_theorems_hold_everywhere(x1, x2):
    q = aff_parallelograms("B", (x1, x2))
    assert q.degenerate == (x2 == 0)
    assert q.is_parallelogram == (x2 != 0)
    if not q.degenerate:
        assert q.squared_lengths == (5 * x2 * x2, 5 * x2 * x2)
