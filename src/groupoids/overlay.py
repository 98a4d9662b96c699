"""Group-groupoids: a groupoid whose arrows and objects also carry group laws.

The compatibility between the two layers can be decided two independent ways:

* mode ``def31``: ask whether addition G x G -> G, the identity element
  (from a one-point groupoid) and negation are groupoid morphisms.  The
  identity and negation go through the generic morphism validator, unless a
  clean structure and a clean addition make them morphisms by theorem.  The
  instances of that validator on addition are read off G's own tables, so
  the doubled groupoid G x G is never built: the pointwise ones unless the
  homomorphism certificate accepts them first (they say that src, tgt, inv
  and unit are additive), the M2 ones unless, on an otherwise valid
  structure, an exact certificate (the bifunctor lemma, 2*A^2 row lookups)
  accepts them first;
* mode ``def32``: check by direct enumeration that source, target, unit and
  inversion respect addition, plus the interchange law
  (x.y) + (z.t) = (x+z).(y+t); the homomorphism certificate may accept
  additivity first, and on an otherwise valid structure an exact
  certificate may accept interchange first.

A certificate may only accept; when it refuses, the enumeration runs
unchanged, so reports are the same either way.  The homomorphism and shift
certificates are their laws' own loops (grouptable._nonadditive,
_unshifted) run on a generating set, through the one fork of the generator
certificates (grouptable._on_generators).  Every law but the morphism
validators' is read off the integer views of the base (core._integer_view)
and of the two tables (grouptable._rows), each built once, which number the
arrows and the objects alike, a row of C-level lookups at a time; tokens
only name witnesses.  The two P^2 enumerations have one shape: per
composable pair (x, y), a row of (x+z).(y+t) against (x.y)+(z.t).  def32
walks the stored pairs, def31 all of them; the loops are separate, so
def31 stays independent of def32.

The two procedures provably agree on every input, including broken ones, and
mode ``both`` runs them side by side and treats disagreement as a fatal bug.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import repeat
from operator import getitem, itemgetter
from typing import Iterator

from .core import (
    FiniteGroupoid,
    Morphism,
    _integer_view,
    _null,
    validate_groupoid,
    validate_morphism,
)
from .grouptable import (
    GroupTable,
    _associative_generators,
    _mismatches,
    _nonadditive,
    _on_generators,
    _rows,
    _table_generators,
    additivity_report,
    closure_gate,
    noncommuting_pair,
    pair_token,
    skip_past_closure,
    validate_group,
)
from .report import (
    DomainMismatch,
    InternalCheckFailed,
    MalformedStructure,
    ReportBuilder,
    ValidationReport,
)

__all__ = [
    "GroupGroupoid",
    "MODES",
    "structural_report",
    "check_interchange",
    "check_group_groupoid",
    "check_derived_identities",
    "unit_isotropy_report",
    "reconstruct_from_group",
    "validate_gg_morphism",
]

MODES = ("def31", "def32", "both")

# the source of def31's identity map, built and checked once
_ONE_POINT = _null(frozenset(["*"]))


@dataclass(frozen=True)
class GroupGroupoid:
    """A groupoid plus group tables on its arrow and object sets.

    The tables must be defined on exactly the arrow/object token sets
    (MalformedStructure at construction otherwise); the compatibility laws
    are check_group_groupoid's business.
    """

    base: FiniteGroupoid
    arrow_group: GroupTable
    object_group: GroupTable

    def __post_init__(self) -> None:
        if self.arrow_group.elements != self.base.arrows:
            raise MalformedStructure("arrow group must be defined on exactly the arrow set")
        if self.object_group.elements != self.base.objects:
            raise MalformedStructure("object group must be defined on exactly the object set")


def structural_report(gg: GroupGroupoid) -> ValidationReport:
    """Groupoid axioms on the base plus group axioms on both tables."""
    rb = ReportBuilder()
    rb.absorb(validate_groupoid(gg.base), prefix="base:")
    rb.absorb(validate_group(gg.arrow_group), prefix="arrow-group:")
    rb.absorb(validate_group(gg.object_group), prefix="object-group:")
    return rb.build()


def _interchange_rows(add: list, prod: list, pairs: list, table: list) -> Iterator[tuple]:
    """(x, y, row of (x+z).(y+t), row of table[x.y][z.t]) over every (z, t,
    z.t) in pairs, for each (x, y, x.y) in pairs where the two rows differ.
    Each row is one C-level step over rows built per arrow w: prod's row at
    w+z, w+t and table[w][z.t], in O(A*P) memory for A arrows, P pairs."""
    zs, ts, zts = ([pair[i] for pair in pairs] for i in range(3))
    through = [list(map(prod.__getitem__, map(row.__getitem__, zs))) for row in add]
    plus_t = [list(map(row.__getitem__, ts)) for row in add]
    wanted = [list(map(row.__getitem__, zts)) for row in table]
    for x, y, xy in pairs:
        row = list(map(getitem, through[x], plus_t[y]))
        if row != wanted[xy]:
            yield x, y, row, wanted[xy]


def check_interchange(gg: GroupGroupoid) -> ValidationReport:
    """Exhaustive interchange law over all pairs of stored composable pairs;
    def32's enumeration and the reference its certificate is tested against.

    On the integer views: for each stored composable pair (x, y), one row of
    C-level lookups gives (x+z).(y+t) and (x.y)+(z.t) for every stored
    composable (z, t) (_interchange_rows), and only the positions where they
    differ (or the former is not stored) come back to Python.  Costs P^2
    row steps for P stored composable pairs.  A product outside the arrow
    group's element set is reported as closure only.
    """
    rb = ReportBuilder()
    if not closure_gate(rb, "interchange", {"arrow-group:": gg.arrow_group}):
        return rb.build()
    view, add = _integer_view(gg.base), _rows(gg.arrow_group).rows
    arrows, prod = view.arrows, view.prod
    pairs = [pair for pair in view.pairs if pair[2] != -1]
    for x, y, combined, lhs in _interchange_rows(add, prod, pairs, add):
        for j in _mismatches(combined, lhs):
            z, t, _ = pairs[j]
            witness = (arrows[x], arrows[y], arrows[z], arrows[t])
            if combined[j] == -1:
                xz, yt = arrows[add[x][z]], arrows[add[y][t]]
                rb.violation("interchange", witness, f"({xz},{yt}) is not composable")
            else:
                rb.violation("interchange", witness, f"(x.y)+(z.t) = {arrows[lhs[j]]} "
                             f"but (x+z).(y+t) = {arrows[combined[j]]}")
    return rb.build()


def _structure_maps(gg: GroupGroupoid) -> tuple:
    """Source, target, inversion, unit: (word, name, map, domain, codomain, map on the views)."""
    g, view = gg.base, _integer_view(gg.base)
    A, O = gg.arrow_group, gg.object_group
    return (
        ("source", "src", g.src, A, O, view.src),
        ("target", "tgt", g.tgt, A, O, view.tgt),
        ("inversion", "inv", g.inv, A, A, view.inv),
        ("unit", "unit", g.unit, O, A, view.unit),
    )


def _additivity_report(gg: GroupGroupoid) -> ValidationReport:
    """Each of the four structure maps must be a group homomorphism."""
    rb = ReportBuilder()
    for word, name, h, dom, cod, _ in _structure_maps(gg):
        rb.absorb(additivity_report(f"{word}-additive", name, h, dom, cod))
    return rb.build()


def _misreconstructed(gg: GroupGroupoid) -> Iterator[tuple[int, int, int, int]]:
    """(x, y, stored x.y or -1, x - unit(tgt x) + y) on the integer views,
    for every composable pair where the two differ, in sorted order; the
    arrow group must be closed.  Per arrow x, the two rows over the source
    fiber of tgt x are read in C."""
    view, (_, _, add, neg, _) = _integer_view(gg.base), _rows(gg.arrow_group)
    for x, (row, b) in enumerate(zip(view.prod, view.tgt)):
        ys, shifted = view.starts[b], add[add[x][neg[view.unit[b]]]]
        stored, rebuilt = list(map(row.__getitem__, ys)), list(map(shifted.__getitem__, ys))
        for j in _mismatches(stored, rebuilt):
            yield x, ys[j], stored[j], rebuilt[j]


def _interchange_certificate(gg: GroupGroupoid) -> bool:
    """True only if the interchange law holds; assumes the structural report
    and the additivity report are both clean.

    Theorem (the cat^1-group / crossed-module correspondence; Brown & Spencer
    1976, Loday 1982): given those, interchange holds if x.y equals
    x - unit(tgt x) + y on every composable pair (reconstruct_from_group's
    rule, read off _misreconstructed) and every element of ker src
    commutes with every element of ker tgt.  Proof: for composable
    (x, y) and (z, t) with b = tgt x and d = tgt z, (x+z, y+t) is composable
    because src and tgt are additive, and the formula with unit(b+d) =
    unit(b) + unit(d) turns interchange into a + c == c + a for
    a = -unit(b) + y in ker src and c = z - unit(d) in ker tgt.

    False proves nothing; the caller then runs check_interchange.  Costs one
    step per composable pair plus |ker src| * |ker tgt|.
    """
    if next(_misreconstructed(gg), None) is not None:
        return False
    view, add = _integer_view(gg.base), _rows(gg.arrow_group).rows
    e0 = _rows(gg.object_group).identity
    ker_tgt = view.ends[e0]
    # per a in ker src, the row of a+c against the column of c+a
    return all(
        list(map(add[a].__getitem__, ker_tgt))
        == list(map(getitem, map(add.__getitem__, ker_tgt), repeat(a)))
        for a in view.starts[e0]
    )


def _def32_report(gg: GroupGroupoid, structure_valid: bool) -> ValidationReport:
    """Additivity of the four structure maps, then interchange: accepted by
    _interchange_certificate when everything else is clean, else enumerated."""
    additivity = _additivity_report(gg)
    if structure_valid and additivity.valid and _interchange_certificate(gg):
        return additivity
    rb = ReportBuilder()
    rb.absorb(additivity)
    rb.absorb(check_interchange(gg))
    return rb.build()


def _addition_pointwise(gg: GroupGroupoid) -> ValidationReport:
    """The pointwise instances of validate_morphism(addition: G x G -> G),
    read off G's own tables; the arrow and object groups must be closed.

    G x G has the arrows (x|z) and objects (u|v) with componentwise structure
    maps, and stores (x|z).(y|t) exactly when G stores x.y and z.t; pair
    tokens of distinct pairs of identifiers are distinct.  So its pointwise
    instances are M1 and inverse compatibility per arrow pair (x, z) and
    unit compatibility per object pair (u, v), with validate_morphism's
    rules, witnesses and messages; _addition_products has the M2 instances.
    Each law says that a structure map h (src, tgt, inv or unit) is
    additive: the additivity loop (grouptable._nonadditive) reads it, on
    the rows of a generating set when the homomorphism certificate may
    accept it, else a row at a time over every element of the integer
    views, 3*A^2 + O^2 row steps in all.
    """
    arrows, objects, src, tgt, inv, unit, *_ = _integer_view(gg.base)
    A, O = gg.arrow_group, gg.object_group
    token = cache(pair_token)
    rb = ReportBuilder()
    for rule, h, dom, cod, pair_names, names, text in (
        ("M1-source", src, A, O, arrows, objects, "src(f({a})) = {hs} but f0(src({a})) = {sh}"),
        ("M1-target", tgt, A, O, arrows, objects, "tgt(f({a})) = {hs} but f0(tgt({a})) = {sh}"),
        ("inverse-compatibility", inv, A, A, arrows, arrows,
         "f(inv({a})) = {sh} but inv(f({a})) = {hs}"),
        ("unit-compatibility", unit, O, A, objects, arrows,
         "f(unit({a})) = {sh} but unit(f0({a})) = {hs}"),
    ):
        # hs is h(x+z), sh is h(x)+h(z)
        for x, z, hs, sh in _nonadditive(h, dom, cod):
            a = token(pair_names[x], pair_names[z])
            rb.violation(rule, (a,), text.format(a=a, hs=names[hs], sh=names[sh]))
    return rb.build()


def _addition_products(gg: GroupGroupoid) -> ValidationReport:
    """The M2 instances of validate_morphism(addition: G x G -> G), one per
    pair of composable pairs (x, y), (z, t) of G, stored or not, read off G's
    own tables as _addition_pointwise reads the others.

    (x|z).(y|t) has the image (x+z).(y+t), and the product (x.y|z.t) the
    image (x.y)+(z.t), or the pad where it is not stored.  The pairs are
    walked as check_interchange walks them, one row of the two per (x, y)
    (_interchange_rows); an unstored x.y or z.t is -1, which reads a None
    pad that no image equals, so an unstored composable pair always comes
    back, since its image may be missing (-1).  Costs P_c^2 row steps for
    P_c composable pairs, in O(A*P_c) extra memory; the arrow group must be
    closed.
    """
    view, add = _integer_view(gg.base), _rows(gg.arrow_group).rows
    arrows, pairs = view.arrows, view.pairs
    token = cache(pair_token)
    rb = ReportBuilder()
    padded = [[*row, None] for row in add] + [[None] * (len(add) + 1)]
    for x, y, images, lhs in _interchange_rows(add, view.prod, pairs, padded):
        for j in _mismatches(images, lhs):
            (z, t, _), image, want = pairs[j], images[j], lhs[j]
            a, c = token(arrows[x], arrows[z]), token(arrows[y], arrows[t])
            if image == -1:
                message = f"images ({arrows[add[x][z]]},{arrows[add[y][t]]}) are not composable"
            elif want is not None:
                message = f"f({a}.{c}) = {arrows[want]} but f({a}).f({c}) = {arrows[image]}"
            else:
                continue
            rb.violation("M2-product", (a, c), message)
    return rb.build()


def _addition_certificate(gg: GroupGroupoid) -> bool:
    """True only if addition G x G -> G preserves every product (M2);
    assumes the structural report (a valid base, two valid group tables) and
    _addition_pointwise are clean, so that src, tgt and unit are additive.

    Theorem (the bifunctor lemma; Mac Lane, Categories for the Working
    Mathematician, II.3 Prop. 1): given that, addition preserves every
    product exactly when
    (d) for every x: a->b and z: c->d, x+z = (x+1_c).(1_b+z) = (1_a+z).(x+1_d).
    Write F(x,z) = x+z.  Only if: (x|1_c).(1_b|z) = (x|z) = (1_a|z).(x|1_d)
    in G x G, so each equation of (d) is an M2 instance.  If, in three steps.
    First, x.y = x - 1_b + y on every composable pair x: a->b, y: b->e:
    z = -1_b + y has src z = -b + b = e0, the identity object, since src is
    additive, and 1_e0 is the identity arrow, since unit is; so (d) at
    (x, z) reads x + z = x.(1_b + z) = x.y.  Second, (c): for every object
    c, (x+1_c).(y+1_c) = (x.y)+1_c and (1_c+x).(1_c+y) = 1_c+(x.y), by that
    formula on the composable pairs (x+1_c, y+1_c) and (1_c+x, 1_c+y) with
    unit(b+c) = 1_b + 1_c and unit(c+b) = 1_c + 1_b.  Third, M2: for
    composable (x, y), (z, t) with y: b->e, z: c->d, t: d->f, (d) and (c)
    give F(x.y, z.t) = F(x,1_c).F(y,1_c).F(1_e,z).F(1_e,t) and
    F(x,z).F(y,t) = F(x,1_c).F(1_b,z).F(y,1_d).F(1_e,t); the middle factors
    F(y,1_c).F(1_e,z) and F(1_b,z).F(y,1_d) both equal F(y,z) by (d).
    Additive src and tgt make every product here composable, and the base
    makes it associative.

    Only morphism facts are used, never def32's additivity or interchange,
    so def31 stays independent of def32.  False proves nothing; the caller
    then enumerates every instance with _addition_products.  Costs 2*A^2
    row lookups in C for A arrows.
    """
    view, add = _integer_view(gg.base), _rows(gg.arrow_group).rows
    src, tgt, unit, row_at = view.src, view.tgt, view.unit, view.prod.__getitem__
    at_src, at_tgt = [unit[c] for c in src], [unit[d] for d in tgt]
    # per x: a->b, the rows of (x+1_c).(1_b+z) and (1_a+z).(x+1_d) over z: c->d
    return all(
        list(map(getitem, map(row_at, map(row.__getitem__, at_src)), add[unit[b]])) == row
        == list(map(getitem, map(row_at, add[unit[a]]), map(row.__getitem__, at_tgt)))
        for row, a, b in zip(add, src, tgt)
    )


def _identity_and_negation_certificate(structure_valid: bool, addition_valid: bool) -> bool:
    """True only if the identity and negation maps are groupoid morphisms:
    given a clean structural report and a clean addition G x G -> G, they are.

    Proof.  Addition's pointwise laws say that src, tgt, unit and inv are
    additive, so they are group homomorphisms: src(e) = tgt(e) = e0,
    unit(e0) = e, inv(e) = e, and each commutes with negation.  The first
    three give every law of the identity map from the one-point groupoid:
    M1, e.e = unit(e0).e = e for M2, unit and inverse compatibility.  The
    last gives negation's M1, unit and inverse compatibility, and makes
    (-x, -y) composable with every composable (x, y).  Then ((x|-x), (y|-y))
    is a composable pair of G x G, and addition's M2 instance on it reads
    (x.y) + ((-x).(-y)) = (x-x).(y-y) = e.e = e, so (-x).(-y) = -(x.y),
    which is negation's M2.
    """
    return structure_valid and addition_valid


def _morphism_based_report(gg: GroupGroupoid, structure_valid: bool) -> ValidationReport:
    """Addition, the identity and negation as groupoid morphisms.  Addition's
    pointwise instances are certified or enumerated (_addition_pointwise);
    on a valid structure with those clean, _addition_certificate may accept
    its M2 instances, and otherwise _addition_products enumerates them.
    The identity and negation maps go through validate_morphism unless
    _identity_and_negation_certificate accepts them."""
    g, point = gg.base, "*"
    rb = ReportBuilder()
    pointwise = _addition_pointwise(gg)
    rb.absorb(pointwise, prefix="add-map:")
    addition_valid = pointwise.valid
    if not (structure_valid and pointwise.valid and _addition_certificate(gg)):
        products = _addition_products(gg)
        rb.absorb(products, prefix="add-map:")
        addition_valid = addition_valid and products.valid
    if _identity_and_negation_certificate(structure_valid, addition_valid):
        return rb.build()
    identity = Morphism(_ONE_POINT, g, {point: gg.arrow_group.identity},
                        {point: gg.object_group.identity})
    negation = Morphism(g, g, dict(gg.arrow_group.inverse), dict(gg.object_group.inverse))
    rb.absorb(validate_morphism(identity), prefix="identity-map:")
    rb.absorb(validate_morphism(negation), prefix="negation-map:")
    return rb.build()


def check_group_groupoid(gg: GroupGroupoid, mode: str = "both") -> ValidationReport:
    """Decide whether the group layers are compatible with the groupoid.

    Both decision procedures include the structural report (base groupoid
    axioms plus group axioms) in their verdict.  In mode 'both' the two
    verdicts are compared and a mismatch raises InternalCheckFailed, since the
    procedures are provably equivalent.  When a group table has a product
    outside its element set, both procedures are skipped and fail.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {', '.join(MODES)}")
    common = structural_report(gg)
    closed = not {"arrow-group:closure", "object-group:closure"}.intersection(common.rules())
    rb = ReportBuilder()
    rb.absorb(common)
    sections = {
        "def31": lambda: _morphism_based_report(gg, common.valid),
        "def32": lambda: _def32_report(gg, common.valid),
    }
    verdicts: dict[str, bool] = {}
    for name in sections if mode == "both" else (mode,):
        if not closed:
            skip_past_closure(rb, name)
            verdicts[name] = False
            continue
        report = sections[name]()
        verdicts[name] = common.valid and report.valid
        rb.absorb(report, prefix=f"{name}:")
    for name in sorted(verdicts):
        rb.note(name, "info", "verdict pass" if verdicts[name] else "verdict fail")
    if mode == "both" and verdicts["def31"] != verdicts["def32"]:
        raise InternalCheckFailed(
            "the two decision procedures disagree: "
            f"def31={'pass' if verdicts['def31'] else 'fail'} "
            f"def32={'pass' if verdicts['def32'] else 'fail'}"
        )
    return rb.build()


def _shifted(gg: GroupGroupoid, columns: list, side: str, t: int) -> tuple[list, list]:
    """Over the stored pairs (x, y, x.y), given as three columns: x.(y+t)
    (side 'source') or (x+t).y (side 'target'), and (x.y)+t, as two lists
    read in C; a product that is not stored reads -1."""
    (xs, ys, xys), prod = columns, _integer_view(gg.base).prod
    plus = list(map(itemgetter(t), _rows(gg.arrow_group).rows))  # w+t per arrow w
    if side == "source":
        shifted = map(getitem, map(prod.__getitem__, xs), map(plus.__getitem__, ys))
    else:
        shifted = map(getitem, map(prod.__getitem__, map(plus.__getitem__, xs)), ys)
    return list(shifted), list(map(plus.__getitem__, xys))


def _unshifted(gg: GroupGroupoid, columns: list, side: str, kernel: list
               ) -> Iterator[tuple[int, int, int, int]]:
    """(j, t, shifted, (x.y)+t) for each stored pair j = (x, y, x.y) of the
    columns and each t in kernel where the shift law of that side fails
    (_shifted), one column over the stored pairs per t: x.(y+t) must be
    stored and equal (x.y)+t (side 'source'), or (x+t).y (side 'target').
    The one loop of the shift laws, run through the fork
    (grouptable._on_generators) on a generating set of the kernel
    (grouptable._table_generators) when the theorem below applies, else on
    every member.  A generator costs a column over the stored pairs, read
    in C.

    Theorem: if the arrow group is associative, the t by which every stored
    pair obeys the law are closed under +, so a generating set of the kernel
    (_generating_set) is enough.  Proof (side 'source'; 'target' is its
    mirror image): for two such a, b and a stored pair (x, y), (x, y+a) is
    stored with x.(y+a) = (x.y)+a, so (x, (y+a)+b) is stored with
    x.((y+a)+b) = (x.(y+a))+b = ((x.y)+a)+b, which associativity makes
    x.(y+(a+b)) = (x.y)+(a+b).  The step from (x, y+a) to (x, (y+a)+b)
    needs the stored pair (x, y+a) among the columns, so the loop gets no
    generating set unless every stored product is on a composable pair;
    Light's test (_associative_generators) proves the arrow group
    associative.
    """
    def loop(ts: list) -> Iterator[tuple[int, int, int, int]]:
        for t in ts:
            lhs, rhs = _shifted(gg, columns, side, t)
            if lhs != rhs:
                for j in _mismatches(lhs, rhs):
                    yield j, t, lhs[j], rhs[j]

    certified = len(columns[0]) == len(gg.base.prod) and _associative_generators(gg.arrow_group)
    generators = certified and _table_generators(_rows(gg.arrow_group), kernel)
    return _on_generators(loop, generators, kernel)


def check_derived_identities(gg: GroupGroupoid) -> ValidationReport:
    """Exhaustively verify the identities a valid group-groupoid must satisfy.

    The four structure maps (_structure_maps) respecting addition and
    negation, compatibility of negation with the partial product, endpoints
    and unit of the group identity, negation being an antihomomorphic
    involution (plain distribution is checked only when both groups are
    commutative, otherwise reported not-applicable with a witness),
    neutrality and translation laws on the unit fibers, and the unit-object
    isotropy group agreeing with addition.
    A product outside its group's element set is reported as closure only.

    Read off the integer views of the base and the two tables, which number
    the arrows and the objects alike; tokens are looked up only to name a
    witness.  Negation's compatibility is one column over the stored pairs,
    antidistribution one row per arrow, each compared in C.  Each shift law
    is one column over the stored pairs per member of ker src or ker tgt
    (_unshifted), run on a generating set of the kernel by its certificate
    and on every member when that refuses.
    """
    A, O = gg.arrow_group, gg.object_group
    rb = ReportBuilder()
    if not closure_gate(rb, "derived-identities", {"arrow-group:": A, "object-group:": O}):
        return rb.build()
    rb.absorb(_additivity_report(gg))
    arrows, objects, src, tgt, inv, unit, prod, starts, ends, pairs = _integer_view(gg.base)
    (_, _, add, neg, e), e0, E, E0 = _rows(A), _rows(O).identity, A.identity, O.identity
    names = [*arrows, None]  # an unstored product, -1, prints None
    ker_src, ker_tgt = starts[e0], ends[e0]
    stored = [pair for pair in pairs if pair[2] != -1]
    columns = [[pair[i] for pair in stored] for i in range(3)]  # x, y and x.y
    xs, ys, xys = columns

    negated = list(map(getitem, map(prod.__getitem__, map(neg.__getitem__, xs)),
                       map(neg.__getitem__, ys)))  # (-x).(-y) per stored pair
    for j in _mismatches(negated, map(neg.__getitem__, xys)):
        a, b = arrows[xs[j]], arrows[ys[j]]
        rb.violation("negation-product-compat", (a, b), f"(-{a}).(-{b}) = "
                     f"{names[negated[j]]} but -({a}.{b}) = {arrows[neg[xys[j]]]}")
    for side, kernel, rule, text in (
        ("source", ker_src, "shift-by-source-fiber", "x.(y+t) = {} but (x.y)+t = {}"),
        ("target", ker_tgt, "shift-by-target-fiber", "(x+z).y = {} but (x.y)+z = {}"),
    ):
        for j, t, lhs, rhs in _unshifted(gg, columns, side, kernel):
            rb.violation(rule, (arrows[xs[j]], arrows[ys[j]], arrows[t]),
                         text.format(names[lhs], arrows[rhs]))

    if src[e] != e0 or tgt[e] != e0:
        rb.violation("identity-arrow-endpoints", (E,), "identity arrow has endpoints "
                     f"({objects[src[e]]},{objects[tgt[e]]}), expected ({E0},{E0})")
    if unit[e0] != e:
        rb.violation("unit-of-identity", (E0,), f"unit({E0}) = {arrows[unit[e0]]}, expected {E}")
    if inv[e] != e:
        rb.violation("inversion-fixes-identity", (E,), f"inv({E}) = {arrows[inv[e]]}")

    for word, name, _, dom, cod, h in _structure_maps(gg):
        (dnames, _, _, dneg, _), (cnames, _, _, cneg, _) = _rows(dom), _rows(cod)
        for x in _mismatches(map(h.__getitem__, dneg), map(cneg.__getitem__, h)):
            rb.violation(f"{word}-of-negation", (dnames[x],), f"{name}(-{dnames[x]}) = "
                         f"{cnames[h[dneg[x]]]} but -{name}({dnames[x]}) = {cnames[cneg[h[x]]]}")
    for x in _mismatches(map(neg.__getitem__, neg), range(len(neg))):
        rb.violation("negation-involution", (arrows[x],),
                     f"-(-{arrows[x]}) = {arrows[neg[neg[x]]]}")

    witness = None
    for which, table in (("arrow group", A), ("object group", O)):
        rows = _rows(table).rows
        if list(map(tuple, rows)) != list(zip(*rows)):  # not commutative: name the first pair
            witness = noncommuting_pair(table)
            rb.note("negation-distributes", "not-applicable",
                    f"{which} is not commutative (witness {witness[0]},{witness[1]})")
            break
    sums = list(zip(*add))  # sums[y][w] is w+y
    for x, row in enumerate(add):
        # -(x+y) against (-y)+(-x), the column of -x read at -y
        for y in _mismatches(map(neg.__getitem__, row), map(sums[neg[x]].__getitem__, neg)):
            a, b = arrows[x], arrows[y]
            rb.violation("negation-antidistributes", (a, b), f"-({a}+{b}) != (-{b})+(-{a})")
            if witness is None:  # both groups commute, so (-y)+(-x) is (-x)+(-y)
                rb.violation("negation-distributes", (a, b), f"-({a}+{b}) != (-{a})+(-{b})")

    for y in ker_src:
        if prod[e][y] != y:
            rb.violation("identity-left-neutral", (arrows[y],),
                         f"{E}.{arrows[y]} = {names[prod[e][y]]}")
    for x in ker_tgt:
        if prod[x][e] != x:
            rb.violation("identity-right-neutral", (arrows[x],),
                         f"{arrows[x]}.{E} = {names[prod[x][e]]}")

    rb.absorb(unit_isotropy_report(gg, "isotropy-product-is-addition",
                                   "isotropy-inverse-is-negation"))
    return rb.build()


def unit_isotropy_report(gg: GroupGroupoid, product_rule: str,
                         inverse_rule: str) -> ValidationReport:
    """The loops at the identity object compose by addition and invert by
    negation, per loop a row of products against a row of sums on the
    integer views.  It runs without a closure gate (unit_fiber_subgroups):
    a sum outside the arrow group is None in its row, which differs from
    every product, and its token is read from the table for the message."""
    view, (_, _, add, neg, _) = _integer_view(gg.base), _rows(gg.arrow_group)
    arrows, names, e0 = view.arrows, [*view.arrows, None], _rows(gg.object_group).identity
    loops = [x for x in view.starts[e0] if view.tgt[x] == e0]
    rb = ReportBuilder()
    for x in loops:
        a, products = arrows[x], list(map(view.prod[x].__getitem__, loops))
        for j in _mismatches(products, map(add[x].__getitem__, loops)):
            b = arrows[loops[j]]
            rb.violation(product_rule, (a, b), f"{a}.{b} = {names[products[j]]} "
                         f"but {a}+{b} = {gg.arrow_group.op[(a, b)]}")
        if view.inv[x] != neg[x]:
            rb.violation(inverse_rule, (a,),
                         f"inv({a}) = {arrows[view.inv[x]]} but -{a} = {arrows[neg[x]]}")
    return rb.build()


def reconstruct_from_group(gg: GroupGroupoid) -> ValidationReport:
    """Recompute the partial product and the inversion from the group layer.

    For every composable pair, x.y must be stored and equal
    x + (-unit(tgt(x))) + y (_misreconstructed), and for every arrow,
    inv(x) must equal unit(src(x)) + (-x) + unit(tgt(x)); both comparisons
    are exact, on the integer views, and tokens name the witnesses only.  A
    product outside the arrow group's element set is reported as closure
    only.
    """
    rb = ReportBuilder()
    if not closure_gate(rb, "reconstruction", {"arrow-group:": gg.arrow_group}):
        return rb.build()
    view, (_, _, add, neg, _) = _integer_view(gg.base), _rows(gg.arrow_group)
    arrows, names = view.arrows, [*view.arrows, "nothing"]
    for x, y, stored, rebuilt in _misreconstructed(gg):
        rb.violation("product-reconstruction", (arrows[x], arrows[y]),
                     f"stored {names[stored]}, recomputed {arrows[rebuilt]}")
    for x, (u, v, xi) in enumerate(zip(view.src, view.tgt, view.inv)):
        rebuilt = add[add[view.unit[u]][neg[x]]][view.unit[v]]
        if xi != rebuilt:
            rb.violation("inverse-reconstruction", (arrows[x],),
                         f"stored {arrows[xi]}, recomputed {arrows[rebuilt]}")
    return rb.build()


def validate_gg_morphism(
    m: Morphism, a: GroupGroupoid, b: GroupGroupoid
) -> ValidationReport:
    """A group-groupoid morphism: groupoid morphism whose maps are also additive.

    A product outside the source's element sets is reported as closure, and
    additivity is then skipped.
    """
    if m.source != a.base or m.target != b.base:
        raise DomainMismatch("morphism endpoints are not the bases of the given structures")
    A, O = a.arrow_group, a.object_group
    rb = ReportBuilder()
    closed = closure_gate(rb, "additivity", {"arrow-group:": A, "object-group:": O})
    rb.absorb(validate_morphism(m))
    if closed:
        rb.absorb(additivity_report("f-additive", "f", m.f, A, b.arrow_group))
        rb.absorb(additivity_report("f0-additive", "f0", m.f0, O, b.object_group))
    return rb.build()
