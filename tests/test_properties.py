"""Property-based checks: the validators accept everything the constructors
build, the two compatibility definitions agree on arbitrary mutations, and
the exact-arithmetic model satisfies its laws at arbitrary rational points."""

from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from groupoids import (
    GroupGroupoid,
    GroupTable,
    FiniteGroupoid,
    InternalCheckFailed,
    InvalidGroup,
    Morphism,
    NotComposable,
    ReportBuilder,
    ValidationReport,
    Vec2,
    aff_eval,
    aff_parallelograms,
    aff_product,
    anchor_morphism,
    check_derived_identities,
    check_group_groupoid,
    check_interchange,
    cyclic_group,
    direct_product_group_groupoids,
    direct_product_groups,
    emit_structure_file,
    fiber,
    find_isomorphism,
    group_as_single_unit_groupoid,
    group_pair_groupoid,
    is_transitive,
    isotropy_group,
    noncommuting_pair,
    null_group_groupoid,
    pair_token,
    parse_structure_file,
    reconstruct_from_group,
    single_unit_group_groupoid,
    structural_report,
    structure_identities,
    symmetric_group,
    trivial_group,
    unit_fiber_subgroups,
    validate_gg_morphism,
    validate_group,
    validate_groupoid,
    validate_morphism,
)

import groupoids.core as core
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
# sets the cost of checking the anchor, whose target is group-pair on the
# object group, with |O|^4 entries in its arrow table
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


def _rewirable(gg: GroupGroupoid) -> list:
    """(x, y, w) for each stored x.y and arrow w != x.y with its source and target."""
    g = gg.base
    return [
        (x, y, w)
        for (x, y), xy in sorted(g.prod.items())
        for w in sorted(g.arrows)
        if w != xy and (g.src[w], g.tgt[w]) == (g.src[xy], g.tgt[xy])
    ]


@st.composite
def rewired(draw) -> GroupGroupoid:
    """One stored product x.y of a valid structure rewritten to another arrow
    with the same source and target: G1-source and G1-target stay clean, so
    only associativity and the layers above can see it."""
    gg = draw(st.sampled_from([gg for gg in CORPUS + CONTROLS if _rewirable(gg)]))
    x, y, w = draw(st.sampled_from(_rewirable(gg)))
    g = gg.base
    prod = {**g.prod, (x, y): w}
    base = FiniteGroupoid(g.objects, g.arrows, g.src, g.tgt, g.unit, g.inv, prod)
    return GroupGroupoid(base, gg.arrow_group, gg.object_group)


@st.composite
def scrambled(draw) -> GroupGroupoid:
    """A valid structure whose arrow table, object table or both are renamed by
    a drawn bijection: both stay groups and the base stays, but they rarely
    stay compatible, so these reach the certificates and their fallbacks."""
    gg = draw(st.sampled_from(CORPUS))
    which = draw(st.sampled_from(("arrow", "object", "both")))

    def renamed(table: GroupTable) -> GroupTable:
        old = sorted(table.elements)
        r = dict(zip(old, draw(st.permutations(old))))
        return GroupTable(
            table.elements,
            {(r[x], r[y]): r[z] for (x, y), z in table.op.items()},
            r[table.identity],
            {r[x]: r[y] for x, y in table.inverse.items()},
        )

    arrow_group, object_group = gg.arrow_group, gg.object_group
    if which != "object":
        arrow_group = renamed(arrow_group)
    if which != "arrow":
        object_group = renamed(object_group)
    return GroupGroupoid(gg.base, arrow_group, object_group)


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


def relabelled_z(n: int, s: dict[int, int]) -> GroupGroupoid:
    """Single-unit Z_n whose arrow group is Z_n relabelled by the permutation
    s, over the trivial object group.  When s fixes 0 and commutes with
    negation, the arrow group is a group with Z_n's identity and negation,
    so the structural report, additivity and addition's pointwise laws are
    all clean; yet by Eckmann-Hilton (two operations with a common unit that
    interchange coincide) interchange holds only if s is an automorphism."""
    z = cyclic_group(n)
    op = {(str(s[i]), str(s[j])): str(s[(i + j) % n]) for i in range(n) for j in range(n)}
    arrow_group = GroupTable(z.elements, op, "0", {str(s[i]): str(s[-i % n]) for i in range(n)})
    return GroupGroupoid(group_as_single_unit_groupoid(z), arrow_group, trivial_group("0"))


@st.composite
def eckmann_hilton(draw, sizes=(5, 7, 8, 9, 10, 11, 12)) -> GroupGroupoid:
    """relabelled_z for n in sizes and a drawn s that fixes 0 (and n/2),
    commutes with negation and is no automorphism: these reach the refusing
    certificates and the M2 and interchange enumerations on input that
    passes everything else.  Z_6 is left out, since each such s of it is
    an automorphism."""
    n = draw(st.sampled_from(sizes))
    half = range(1, (n + 1) // 2)  # one of each pair {x, -x} with x != -x
    images = draw(st.permutations(half))
    flips = draw(st.lists(st.booleans(), min_size=len(half), max_size=len(half)))
    s = {0: 0} if n % 2 else {0: 0, n // 2: n // 2}
    for x, image, flip in zip(half, images, flips):
        s[x] = n - image if flip else image
        s[n - x] = n - s[x]
    assume(any(s[x] != s[1] * x % n for x in range(n)))
    return relabelled_z(n, s)


def assert_in_report_order(report) -> None:
    """Violations sorted by (rule, witness, message), with the key spelled out
    so the order does not rest on the entry class's own comparison."""
    by_fields = sorted(report.violations, key=lambda v: (v.rule, v.witness, v.message))
    assert report.violations == tuple(by_fields)


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
    report = validate_gg_morphism(_identity_map(gg), gg, gg)
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
    report = validate_groupoid(g)
    view = core._integer_view(g)
    for side, mapping, numbered in (("source", g.src, view.starts), ("target", g.tgt, view.ends)):
        for i, u in enumerate(sorted(g.objects)):
            scan = [x for x in arrows if mapping[x] == u]
            assert fiber(g, side, u) == frozenset(scan)
            assert g.fibers.get((side, u), ()) == tuple(scan)
            assert [view.arrows[x] for x in numbered[i]] == scan
            if not scan:
                # the unit axiom asks for unit(u): u -> u, so a map that misses u
                # always comes with a unit-endpoints violation at u
                assert (u,) in {v.witness for v in report.by_rule(f"{side}-surjective")}
                assert (u, g.unit[u]) in {v.witness for v in report.by_rule("unit-endpoints")}


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
    anchor = anchor_morphism(gg)  # returned unchecked, a morphism by theorem
    assert validate_gg_morphism(anchor, gg, group_pair_groupoid(gg.object_group)).valid
    unit_fiber_subgroups(gg)
    for m, factor in projections:
        assert validate_gg_morphism(m, gg, factor).valid


@given(mutated())
@settings(max_examples=150, deadline=None)
def test_definitions_agree_on_arbitrary_mutations(gg):
    # mode "both" raises InternalCheckFailed on any verdict disagreement
    try:
        report = check_group_groupoid(gg, mode="both")
    except InternalCheckFailed as exc:  # pragma: no cover - the property itself
        raise AssertionError(f"definitions disagreed: {exc}") from exc
    assert_in_report_order(report)


@given(mutated())
@settings(max_examples=150, deadline=None)
def test_identity_checks_report_and_never_raise(gg):
    for report in (
        structure_identities(gg.base),
        check_derived_identities(gg),
        reconstruct_from_group(gg),
    ):
        assert isinstance(report, ValidationReport)
        assert_in_report_order(report)


def _fresh(gg: GroupGroupoid) -> GroupGroupoid:
    """A copy with fresh maps, so that no view or verdict cached on gg carries over."""
    g, a, o = gg.base, gg.arrow_group, gg.object_group
    base = FiniteGroupoid(g.objects, g.arrows, dict(g.src), dict(g.tgt), dict(g.unit),
                          dict(g.inv), dict(g.prod))
    return GroupGroupoid(base, *(GroupTable(t.elements, dict(t.op), t.identity, dict(t.inverse))
                                 for t in (a, o)))


def _identity_map(gg: GroupGroupoid) -> Morphism:
    return Morphism(gg.base, gg.base, {x: x for x in gg.base.arrows},
                    {u: u for u in gg.base.objects})


def _certified_reports(gg: GroupGroupoid) -> list:
    gg = _fresh(gg)
    reports = [check_group_groupoid(gg, mode=mode) for mode in ("def31", "def32", "both")]
    reports += [check_derived_identities(gg), validate_gg_morphism(_identity_map(gg), gg, gg)]
    reports += [validate_group(gg.arrow_group), validate_group(gg.object_group)]
    reports += [structure_identities(gg.base)]  # its isotropy tables go through validate_group
    return [report.to_dict() for report in reports]


def _refuse(*args) -> bool:
    return False


# the enumerations behind the certificates that are not their law's own loop,
# which no valid input reaches
ENUMERATIONS = (
    (overlay, "check_interchange"),
    (overlay, "_addition_products"),
)
# the one test of every generator certificate, then the certificates that are
# not their law's own loop
CERTIFICATES = (
    (grouptable, "_certifies"),
    (overlay, "_interchange_certificate"),
    (overlay, "_addition_certificate"),
    (overlay, "_identity_and_negation_certificate"),
)


# Z_n with n <= 8 only: each such draw lists all n^4 failing quadruples in
# three modes, with and without the certificates, about 0.7 s at n = 12
@given(st.one_of(st.sampled_from(CORPUS + CONTROLS), mutated(), scrambled(), rewired(),
                 eckmann_hilton(sizes=(5, 7, 8))))
@settings(max_examples=160, deadline=None)
def test_certificates_only_accept(gg):
    # with every certificate refusing, every law is enumerated in full
    fast = _certified_reports(gg)
    with pytest.MonkeyPatch.context() as mp:
        for module, name in CERTIFICATES:
            mp.setattr(module, name, _refuse)
        assert _certified_reports(gg) == fast


def test_both_certificates_refuse_a_relabelled_z5():
    # s = (1 2)(3 4) fixes 0 and commutes with negation, and is no automorphism
    gg = relabelled_z(5, {0: 0, 1: 2, 2: 1, 3: 4, 4: 3})
    assert structural_report(gg).valid and overlay._additivity_report(gg).valid
    assert overlay._addition_pointwise(gg).valid
    assert not overlay._addition_certificate(gg) and not overlay._interchange_certificate(gg)
    report = check_group_groupoid(gg, mode="both")  # raises on a disagreement
    assert Counter(v.rule for v in report.violations) == {
        "def31:add-map:M2-product": 384, "def32:interchange": 384,
    }


@given(st.one_of(st.sampled_from(CORPUS + CONTROLS), mutated(), scrambled(), rewired()))
@settings(max_examples=200, deadline=None)
def test_the_addition_certificate_forces_the_reconstruction_formula(gg):
    # on a valid structure whose addition passes the pointwise morphism laws,
    # (d) alone gives x.y = x - unit(tgt x) + y, from which (c) follows
    eligible = structural_report(gg).valid and overlay._addition_pointwise(gg).valid
    if eligible and overlay._addition_certificate(gg):
        assert not reconstruct_from_group(gg).by_rule("product-reconstruction")


def _interchange_by_four_loops(gg: GroupGroupoid) -> ValidationReport:
    """The interchange law by four nested loops over the token tables: the
    reference that check_interchange must reproduce."""
    g = gg.base
    add = gg.arrow_group.op
    rb = ReportBuilder()
    pairs = [p for p in g.composable_pairs() if p in g.prod]
    for x, y in pairs:
        for z, t in pairs:
            xz = add[(x, z)]
            yt = add[(y, t)]
            combined = g.prod.get((xz, yt))
            if combined is None:
                rb.violation(
                    "interchange", (x, y, z, t), f"({xz},{yt}) is not composable"
                )
                continue
            lhs = add[(g.prod[(x, y)], g.prod[(z, t)])]
            if lhs != combined:
                rb.violation(
                    "interchange",
                    (x, y, z, t),
                    f"(x.y)+(z.t) = {lhs} but (x+z).(y+t) = {combined}",
                )
    return rb.build()


def _associativity_by_three_loops(prod, elements, composable) -> list:
    """(x.y).z against x.(y.z) by three nested loops over a token table, for
    the composable triples, skipping a missing product: the reference that
    the associativity loop of validate_group and validate_groupoid must
    reproduce, as (witness, message) in report order."""
    out = []
    for x in elements:
        for y in (y for y in elements if composable(x, y)):
            for z in (z for z in elements if composable(y, z)):
                left = prod.get((prod.get((x, y)), z))
                right = prod.get((x, prod.get((y, z))))
                if left is not None and right is not None and left != right:
                    out.append(((x, y, z), f"({x}.{y}).{z} = {left} but {x}.({y}.{z}) = {right}"))
    return sorted(out)


def _addition_on_the_doubled_groupoid(gg: GroupGroupoid) -> ValidationReport:
    """validate_morphism on addition from the doubled groupoid G x G: the
    reference that def31's enumeration must reproduce."""
    addition = Morphism(
        source=core._product(gg.base, gg.base),
        target=gg.base,
        f={pair_token(x, y): z for (x, y), z in gg.arrow_group.op.items()},
        f0={pair_token(u, v): w for (u, v), w in gg.object_group.op.items()},
    )
    return validate_morphism(addition)


def _assert_enumerations_match_their_references(gg: GroupGroupoid) -> None:
    enumerated = ReportBuilder()  # def31's add-map section with the certificate refusing
    enumerated.absorb(overlay._addition_pointwise(gg))
    enumerated.absorb(overlay._addition_products(gg))
    assert enumerated.build().to_dict() == _addition_on_the_doubled_groupoid(gg).to_dict()
    assert check_interchange(gg).to_dict() == _interchange_by_four_loops(gg).to_dict()


def _with_source(gg: GroupGroupoid, x: str, u: str) -> GroupGroupoid:
    g = gg.base
    base = FiniteGroupoid(g.objects, g.arrows, {**g.src, x: u}, g.tgt, g.unit, g.inv, g.prod)
    return GroupGroupoid(base, gg.arrow_group, gg.object_group)


def _without_product(gg: GroupGroupoid, pair: tuple[str, str]) -> GroupGroupoid:
    g = gg.base
    prod = {k: v for k, v in g.prod.items() if k != pair}
    base = FiniteGroupoid(g.objects, g.arrows, g.src, g.tgt, g.unit, g.inv, prod)
    return GroupGroupoid(base, gg.arrow_group, gg.object_group)


_GP_S3 = group_pair_groupoid(symmetric_group(3))
_SU_Z16 = single_unit_group_groupoid(cyclic_group(16))
# composable pairs without a stored product, whose images may be missing: a
# shortcut that skips a row equal to its expected values drops their
# "images (...) are not composable" violations
UNSTORED_COMPOSABLE = [
    _with_source(_GP_S3, "(021|102)", "120"),
    _with_source(_GP_S3, "(012|012)", "210"),
    _without_product(_SU_Z16, ("3", "5")),
    _without_product(_SU_Z16, ("0", "0")),
]


@pytest.mark.parametrize("gg", UNSTORED_COMPOSABLE)
def test_enumerations_match_their_references_on_unstored_composable_pairs(gg):
    g = gg.base
    assert any(p not in g.prod for p in g.composable_pairs())
    _assert_enumerations_match_their_references(gg)
    report = check_group_groupoid(gg, mode="def31")
    assert any(v.message.endswith("are not composable") for v in report.violations)


def test_structure_identities_leave_the_gate_rules_to_validate_groupoid():
    # missing products, and products and a unit arrow with a moved source:
    # validate_groupoid reports them, and structure_identities does not restate them
    gate = set()
    for gg in UNSTORED_COMPOSABLE:
        gate.update(validate_groupoid(gg.base).rules())
        assert not {"product-undefined", "product-source", "product-target",
                    "unit-section"}.intersection(structure_identities(gg.base).rules())
    assert {"domain-missing", "G1-source", "unit-endpoints"} <= gate


@given(st.one_of(st.sampled_from(CORPUS + CONTROLS), mutated(), scrambled(), rewired()))
@settings(max_examples=80, deadline=None)
def test_enumerations_match_their_references(gg):
    _assert_enumerations_match_their_references(gg)


@given(rewired())
@settings(max_examples=40, deadline=None)
def test_rewired_products_keep_their_endpoints(gg):
    report = validate_groupoid(gg.base)
    assert not report.valid
    assert not report.by_rule("G1-source") and not report.by_rule("G1-target")


@given(st.one_of(st.sampled_from(CORPUS + CONTROLS + tuple(UNSTORED_COMPOSABLE)), mutated(),
                 scrambled(), rewired()))
@settings(max_examples=120, deadline=None)
def test_associativity_matches_its_reference(gg):
    g = gg.base
    found = [(v.witness, v.message) for v in validate_groupoid(g).by_rule("G1-assoc")]
    assert found == _associativity_by_three_loops(
        g.prod, sorted(g.arrows), lambda x, y: g.tgt[x] == g.src[y]
    )
    with pytest.MonkeyPatch.context() as mp:
        # Light's test off, so that the loop runs on associative tables too
        mp.setattr(grouptable, "_associative_generators", lambda table: ())
        for table in (gg.arrow_group, gg.object_group):
            report = validate_group(table)
            found = [(v.witness, v.message) for v in report.by_rule("associativity")]
            assert found == _associativity_by_three_loops(
                table.op, sorted(table.elements), lambda x, y: True
            )


def _structure_identities_by_tokens(g: FiniteGroupoid) -> ValidationReport:
    """structure_identities by loops over the token maps: the reference that
    its reading of the integer view must reproduce."""
    rb = ReportBuilder()
    for x, y in g.composable_pairs():
        z = g.prod.get((x, y))
        if z is None:
            continue
        want = g.prod.get((g.inv[y], g.inv[x]))
        if want is None or g.inv[z] != want:
            rb.violation("product-inverse-reversal", (x, y),
                         f"inv({x}.{y}) = {g.inv[z]} but inv({y}).inv({x}) = {want}")
    for x in sorted(g.arrows):
        xi = g.inv[x]
        if g.src[xi] != g.tgt[x] or g.tgt[xi] != g.src[x]:
            rb.violation("inverse-endpoints", (x,), f"inv({x}) has endpoints "
                         f"({g.src[xi]},{g.tgt[xi]}), expected ({g.tgt[x]},{g.src[x]})")
        if g.inv[xi] != x:
            rb.violation("inversion-involution", (x,), f"inv(inv({x})) = {g.inv[xi]}")
    objects = sorted(g.objects)
    for u in objects:
        e = g.unit[u]
        if g.prod.get((e, e)) != e:
            rb.violation("unit-idempotent", (u,), f"unit({u}).unit({u}) != unit({u})")
        if g.inv[e] != e:
            rb.violation("unit-self-inverse", (u,), f"inv(unit({u})) = {g.inv[e]}")
    if not is_transitive(g):
        rb.note("isotropy-isomorphic", "not-applicable", "groupoid is not transitive")
        return rb.build()
    tables = {}
    for u in objects:
        try:
            tables[u] = isotropy_group(g, u)
        except InternalCheckFailed as exc:
            rb.violation("isotropy-isomorphic", (u,), str(exc))
    if len(tables) == len(objects):
        for u in objects[1:]:
            if find_isomorphism(tables[objects[0]], tables[u]) is None:
                rb.violation("isotropy-isomorphic", (objects[0], u),
                             "isotropy groups are not isomorphic")
    return rb.build()


def _unit_isotropy_by_tokens(gg: GroupGroupoid, product_rule: str,
                             inverse_rule: str) -> ValidationReport:
    """unit_isotropy_report by two loops over the token maps, with no closure
    gate: a sum outside the arrow group is compared as its token."""
    g, A = gg.base, gg.arrow_group
    e0 = gg.object_group.identity
    loops = [x for x in g.fibers.get(("source", e0), ()) if g.tgt[x] == e0]
    rb = ReportBuilder()
    for x in loops:
        for y in loops:
            product, total = g.prod.get((x, y)), A.op[(x, y)]
            if product != total:
                rb.violation(product_rule, (x, y), f"{x}.{y} = {product} but {x}+{y} = {total}")
        if g.inv[x] != A.inverse[x]:
            rb.violation(inverse_rule, (x,), f"inv({x}) = {g.inv[x]} but -{x} = {A.inverse[x]}")
    return rb.build()


def _reconstruction_by_tokens(gg: GroupGroupoid) -> ValidationReport:
    """reconstruct_from_group by loops over the token maps."""
    g, A = gg.base, gg.arrow_group
    rb = ReportBuilder()
    if not grouptable.closure_gate(rb, "reconstruction", {"arrow-group:": A}):
        return rb.build()
    for x, y in g.composable_pairs():
        stored = g.prod.get((x, y))
        rebuilt = A.mul(x, A.inverse[g.unit[g.tgt[x]]], y)
        if stored != rebuilt:
            shown = stored if stored is not None else "nothing"
            rb.violation("product-reconstruction", (x, y), f"stored {shown}, recomputed {rebuilt}")
    for x in sorted(g.arrows):
        rebuilt = A.mul(g.unit[g.src[x]], A.inverse[x], g.unit[g.tgt[x]])
        if g.inv[x] != rebuilt:
            rb.violation("inverse-reconstruction", (x,), f"stored {g.inv[x]}, recomputed {rebuilt}")
    return rb.build()


def _derived_identities_by_tokens(gg: GroupGroupoid) -> ValidationReport:
    """check_derived_identities by loops over the token maps."""
    g, A, O = gg.base, gg.arrow_group, gg.object_group
    e, e0, neg = A.identity, O.identity, A.inverse
    rb = ReportBuilder()
    tables = {"arrow-group:": A, "object-group:": O}
    if not grouptable.closure_gate(rb, "derived-identities", tables):
        return rb.build()
    rb.absorb(overlay._additivity_report(gg))

    stored = [p for p in g.composable_pairs() if p in g.prod]
    for x, y in stored:
        lhs, rhs = g.prod.get((neg[x], neg[y])), neg[g.prod[(x, y)]]
        if lhs is None or lhs != rhs:
            rb.violation("negation-product-compat", (x, y),
                         f"(-{x}).(-{y}) = {lhs} but -({x}.{y}) = {rhs}")

    if g.src[e] != e0 or g.tgt[e] != e0:
        rb.violation("identity-arrow-endpoints", (e,), "identity arrow has endpoints "
                     f"({g.src[e]},{g.tgt[e]}), expected ({e0},{e0})")
    if g.unit[e0] != e:
        rb.violation("unit-of-identity", (e0,), f"unit({e0}) = {g.unit[e0]}, expected {e}")
    if g.inv[e] != e:
        rb.violation("inversion-fixes-identity", (e,), f"inv({e}) = {g.inv[e]}")

    for word, name, h, dom, cod in (("source", "src", g.src, A, O), ("target", "tgt", g.tgt, A, O),
                                    ("inversion", "inv", g.inv, A, A),
                                    ("unit", "unit", g.unit, O, A)):
        for x, nx in dom.inverse.items():
            lhs, rhs = h[nx], cod.inverse[h[x]]
            if lhs != rhs:
                rb.violation(f"{word}-of-negation", (x,),
                             f"{name}(-{x}) = {lhs} but -{name}({x}) = {rhs}")
    for x, nx in neg.items():
        if neg[nx] != x:
            rb.violation("negation-involution", (x,), f"-(-{x}) = {neg[nx]}")

    witness, which = noncommuting_pair(A), "arrow group"
    if witness is None:
        witness, which = noncommuting_pair(O), "object group"
    if witness is not None:
        rb.note("negation-distributes", "not-applicable",
                f"{which} is not commutative (witness {witness[0]},{witness[1]})")
    for (x, y), s in A.op.items():
        ns, nx, ny = neg[s], neg[x], neg[y]
        if ns != A.op[(ny, nx)]:
            rb.violation("negation-antidistributes", (x, y), f"-({x}+{y}) != (-{y})+(-{x})")
        if witness is None and ns != A.op[(nx, ny)]:
            rb.violation("negation-distributes", (x, y), f"-({x}+{y}) != (-{x})+(-{y})")

    src_fiber = g.fibers.get(("source", e0), ())
    tgt_fiber = g.fibers.get(("target", e0), ())
    for y in src_fiber:
        if g.prod.get((e, y)) != y:
            rb.violation("identity-left-neutral", (y,), f"{e}.{y} = {g.prod.get((e, y))}")
    for x in tgt_fiber:
        if g.prod.get((x, e)) != x:
            rb.violation("identity-right-neutral", (x,), f"{x}.{e} = {g.prod.get((x, e))}")

    for x, y in stored:
        xy = g.prod[(x, y)]
        for t in src_fiber:
            lhs = g.prod.get((x, A.op[(y, t)]))
            if lhs is None or lhs != A.op[(xy, t)]:
                rb.violation("shift-by-source-fiber", (x, y, t),
                             f"x.(y+t) = {lhs} but (x.y)+t = {A.op[(xy, t)]}")
        for z in tgt_fiber:
            lhs = g.prod.get((A.op[(x, z)], y))
            if lhs is None or lhs != A.op[(xy, z)]:
                rb.violation("shift-by-target-fiber", (x, y, z),
                             f"(x+z).y = {lhs} but (x.y)+z = {A.op[(xy, z)]}")

    rb.absorb(_unit_isotropy_by_tokens(gg, "isotropy-product-is-addition",
                                       "isotropy-inverse-is-negation"))
    return rb.build()


@given(st.one_of(st.sampled_from(CORPUS + CONTROLS + tuple(UNSTORED_COMPOSABLE)), mutated(),
                 scrambled(), rewired(), eckmann_hilton(),
                 outside_carrier().map(lambda case: case[0])))
@settings(max_examples=150, deadline=None)
def test_identity_checks_match_their_token_references(gg):
    # the loops over the token maps that the integer views replaced
    assert check_derived_identities(gg).to_dict() == _derived_identities_by_tokens(gg).to_dict()
    assert reconstruct_from_group(gg).to_dict() == _reconstruction_by_tokens(gg).to_dict()
    assert (structure_identities(gg.base).to_dict()
            == _structure_identities_by_tokens(gg.base).to_dict())
    rules = ("unit-isotropy-product", "unit-isotropy-inverse")
    assert (overlay.unit_isotropy_report(gg, *rules).to_dict()
            == _unit_isotropy_by_tokens(gg, *rules).to_dict())


class _CountingOp(dict):
    lookups = 0

    def __getitem__(self, key):
        self.lookups += 1
        return super().__getitem__(key)


def _recording_generating_sets(monkeypatch) -> list[list[int]]:
    """Every generating set that _generating_set builds from here on."""
    built, build = [], grouptable._generating_set

    def generating_set(*args):
        generators = build(*args)
        built.append(generators)
        return generators

    for module in (grouptable, core):
        monkeypatch.setattr(module, "_generating_set", generating_set)
    return built


@pytest.mark.parametrize("gg", CORPUS + (group_pair_groupoid(symmetric_group(3)),))
def test_valid_input_takes_the_fast_paths(gg, monkeypatch):
    # every certificate accepts valid input, so no enumeration behind one
    # runs, and each generator certificate is handed a set that
    # _generating_set built, so the fork never runs a loop on every member
    def enumerated(*args):
        raise AssertionError("an enumeration ran on valid input")

    built, certify = _recording_generating_sets(monkeypatch), grouptable._certifies

    def certifies(loop, generators):
        assert generators and list(generators) in built, "a certificate got no generating set"
        assert certify(loop, generators), "a generator certificate refused valid input"
        return True

    for module, name in ENUMERATIONS:
        monkeypatch.setattr(module, name, enumerated)
    monkeypatch.setattr(grouptable, "_certifies", certifies)
    gg = _fresh(gg)
    for mode in ("def31", "def32", "both"):
        assert check_group_groupoid(gg, mode=mode).valid
    assert check_derived_identities(gg).valid
    assert validate_gg_morphism(_identity_map(gg), gg, gg).valid
    a = gg.arrow_group
    counted = GroupTable(a.elements, _CountingOp(a.op), a.identity, a.inverse)
    assert validate_group(counted).valid
    m = len(a.elements)
    # building the index table reads each entry once; the identity and
    # inverse laws read 4 per element; the triple loop would read 4 m^3
    assert counted.op.lookups <= m * m + 4 * m


@pytest.mark.parametrize("gg", CORPUS, ids=list(build_corpus()))
def test_every_generating_set_is_handed_to_the_certificate_test(gg, monkeypatch):
    # a generator certificate that ran its loop on a generating set outside
    # grouptable._certifies would escape the switch that
    # test_certificates_only_accept turns; find_isomorphism's search builds
    # no set of its own, and runs on the one Light's test was handed
    built, certify = _recording_generating_sets(monkeypatch), grouptable._certifies
    handed = []

    def certifies(loop, generators):
        handed.append(id(generators))
        return certify(loop, generators)

    monkeypatch.setattr(grouptable, "_certifies", certifies)
    _certified_reports(gg)
    assert built
    assert [s for s in built if id(s) not in handed] == []


@given(mutated())
@settings(max_examples=60, deadline=None)
def test_refused_input_never_builds_the_doubled_groupoid(gg):
    def doubled(g, k):
        raise AssertionError("def31 built the doubled groupoid")

    assert not hasattr(overlay, "_product")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "_product", doubled)
        for mode in ("def31", "def32", "both"):
            check_group_groupoid(gg, mode=mode)


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
