"""The acceptance battery.

One test per criterion, each printing a single pass/fail line (visible with
pytest -s; the per-test PASSED/FAILED status mirrors it).  Everything here
runs at desk scale with exact arithmetic and zero tolerance.
"""

import json
import subprocess
import sys
import time
from contextlib import contextmanager
from fractions import Fraction

from groupoids import (
    GroupGroupoid,
    FiniteGroupoid,
    GroupTable,
    Morphism,
    aff_parallelograms,
    aff_verify,
    anchor_morphism,
    check_derived_identities,
    check_group_groupoid,
    cyclic_group,
    direct_product_group_groupoids,
    emit_structure_file,
    group_pair_groupoid,
    isotropy_bundle,
    isotropy_group,
    is_transitive,
    null_group_groupoid,
    pair_groupoid,
    reconstruct_from_group,
    unit_fiber_subgroups,
    validate_gg_morphism,
    validate_groupoid,
    validate_morphism,
)

from conftest import build_corpus, s3_single_unit_control

CORPUS = build_corpus()
MUTATIONS_WANTED = 20


@contextmanager
def criterion(num: int, name: str):
    try:
        yield
    except BaseException:
        print(f"criterion {num:2d} ({name}): FAIL")
        raise
    print(f"criterion {num:2d} ({name}): PASS")


def verdicts(report) -> dict[str, str]:
    return {n.rule: n.message for n in report.notes if n.status == "info"}


# ---------------------------------------------------------------- mutation


def all_single_entry_mutations(gg: GroupGroupoid) -> list[GroupGroupoid]:
    """Every structure obtained by rewriting one stored entry to a different
    value inside the same carrier, in a fixed deterministic order."""
    g = gg.base
    arrows = sorted(g.arrows)
    objects = sorted(g.objects)
    out: list[GroupGroupoid] = []

    def with_base(**overrides):
        fields = dict(objects=g.objects, arrows=g.arrows, src=g.src, tgt=g.tgt,
                      unit=g.unit, inv=g.inv, prod=g.prod)
        fields.update(overrides)
        return GroupGroupoid(FiniteGroupoid(**fields), gg.arrow_group, gg.object_group)

    def with_table(which: str, **overrides):
        table = gg.arrow_group if which == "arrow" else gg.object_group
        fields = dict(elements=table.elements, op=table.op,
                      identity=table.identity, inverse=table.inverse)
        fields.update(overrides)
        replaced = GroupTable(**fields)
        if which == "arrow":
            return GroupGroupoid(g, replaced, gg.object_group)
        return GroupGroupoid(g, gg.arrow_group, replaced)

    for key in sorted(g.prod):
        for alt in arrows:
            if alt != g.prod[key]:
                out.append(with_base(prod={**g.prod, key: alt}))
    for x in arrows:
        for alt in arrows:
            if alt != g.inv[x]:
                out.append(with_base(inv={**g.inv, x: alt}))
    for which, carrier in (("arrow", arrows), ("object", objects)):
        table = gg.arrow_group if which == "arrow" else gg.object_group
        for key in sorted(table.op):
            for alt in carrier:
                if alt != table.op[key]:
                    out.append(with_table(which, op={**table.op, key: alt}))
        for x in carrier:
            for alt in carrier:
                if alt != table.inverse[x]:
                    out.append(with_table(which, inverse={**table.inverse, x: alt}))
    return out


def mutation_sample(gg: GroupGroupoid) -> list[GroupGroupoid]:
    """At least MUTATIONS_WANTED mutations, or every possible one if the
    structure is too small to offer that many (then the check is exhaustive)."""
    everything = all_single_entry_mutations(gg)
    if len(everything) <= MUTATIONS_WANTED:
        return everything
    step = len(everything) / MUTATIONS_WANTED
    return [everything[int(i * step)] for i in range(MUTATIONS_WANTED)]


# --------------------------------------------------------------- criteria


def test_c01_definition_equivalence_and_mutations():
    with criterion(1, "definition equivalence"):
        started = time.monotonic()
        for name, gg in CORPUS.items():
            report = check_group_groupoid(gg, mode="both")
            assert report.valid, name
            assert verdicts(report) == {"def31": "verdict pass",
                                        "def32": "verdict pass"}, name
            chosen = mutation_sample(gg)
            assert len(chosen) >= min(MUTATIONS_WANTED,
                                      len(all_single_entry_mutations(gg)))
            for bad in chosen:
                mutated_report = check_group_groupoid(bad, mode="both")
                assert not mutated_report.valid, name
                assert verdicts(mutated_report) == {
                    "def31": "verdict fail", "def32": "verdict fail"
                }, name
        elapsed = time.monotonic() - started
        assert elapsed < 10.0, f"mutation battery took {elapsed:.1f}s"


def test_c02_reconstruction_is_bit_exact():
    with criterion(2, "reconstruction"):
        for name, gg in CORPUS.items():
            report = reconstruct_from_group(gg)
            assert report.valid, (name, report.violations[:3])


def test_c03_derived_identities_with_commutativity_boundary():
    with criterion(3, "derived identities"):
        for name, gg in CORPUS.items():
            report = check_derived_identities(gg)
            assert report.valid, (name, report.violations[:3])
            skipped = [n for n in report.notes
                       if n.rule == "negation-distributes"
                       and n.status == "not-applicable"]
            if name == "null(S3)":
                assert len(skipped) == 1, name
            else:
                assert not skipped, name


def test_c04_substructures_and_their_orders():
    with criterion(4, "substructures"):
        for name, gg in CORPUS.items():
            bundle = isotropy_bundle(gg)           # raises if any check fails
            src_fiber, tgt_fiber, loops = unit_fiber_subgroups(gg)
            assert loops == src_fiber & tgt_fiber, name
            assert bundle.objects == gg.base.objects, name
        for n in (2, 3, 4):
            gg = CORPUS[f"group_pair(Z{n})"]
            assert len(isotropy_bundle(gg).arrows) == n
            src_fiber, _, _ = unit_fiber_subgroups(gg)
            assert len(src_fiber) == n


def test_c05_anchor_is_always_a_morphism():
    with criterion(5, "anchor morphism"):
        for name, gg in CORPUS.items():
            m = anchor_morphism(gg)
            target = group_pair_groupoid(gg.object_group)
            assert validate_gg_morphism(m, gg, target).valid, name


def test_c06_noncommutative_single_unit_is_rejected_with_witness():
    with criterion(6, "negative control"):
        control = s3_single_unit_control()
        report = check_group_groupoid(control, mode="both")
        assert not report.valid
        assert verdicts(report) == {"def31": "verdict fail",
                                    "def32": "verdict fail"}
        witnesses = [v for v in report.violations if v.rule == "def32:interchange"]
        assert witnesses, "no interchange violation reported"
        assert all(len(v.witness) == 4 for v in witnesses)


def test_c07_affine_model_exact_values():
    with criterion(7, "affine example"):
        report = aff_verify()
        assert report.valid and len(report.violations) == 0

        qa = aff_parallelograms("A", (Fraction(1), Fraction(0), Fraction(1)))
        half = Fraction(1, 2)
        assert qa.midpoint_13 == qa.midpoint_24
        assert (qa.midpoint_13.x1, qa.midpoint_13.x2) == (half, Fraction(1))
        assert qa.slopes == (Fraction(-1, 2), Fraction(-1, 2))
        assert qa.squared_lengths == (Fraction(5), Fraction(5))

        qb = aff_parallelograms("B", (Fraction(1), Fraction(1)))
        assert qb.midpoint_13 == qb.midpoint_24
        assert (qb.midpoint_13.x1, qb.midpoint_13.x2) == (Fraction(5, 2), Fraction(0))


def test_c08_pair_groupoids_up_to_five_objects():
    with criterion(8, "pair groupoids"):
        for n in range(1, 6):
            objs = [f"o{i}" for i in range(n)]
            g = pair_groupoid(objs)
            assert validate_groupoid(g).valid, n
            assert is_transitive(g), n
            for u in objs:
                assert len(isotropy_group(g, u).elements) == 1, (n, u)


def accepted_morphisms() -> list[tuple[str, Morphism]]:
    """Every morphism this suite accepts somewhere, rebuilt in one place."""
    found: list[tuple[str, Morphism]] = []
    for name, gg in CORPUS.items():
        found.append((f"anchor[{name}]", anchor_morphism(gg)))
        g = gg.base
        found.append((
            f"identity[{name}]",
            Morphism(g, g, {x: x for x in g.arrows}, {u: u for u in g.objects}),
        ))
    product, left, right = direct_product_group_groupoids(
        group_pair_groupoid(cyclic_group(2)), null_group_groupoid(cyclic_group(2))
    )
    found.append(("projection-left", left))
    found.append(("projection-right", right))
    big = pair_groupoid(["a", "b", "c"])
    small = pair_groupoid(["a", "b"])
    inclusion = Morphism(
        small, big,
        {x: x for x in small.arrows},
        {u: u for u in small.objects},
    )
    found.append(("pair-inclusion", inclusion))
    return found


def test_c09_accepted_morphisms_satisfy_consequences():
    with criterion(9, "morphism consequences"):
        checked = 0
        for name, m in accepted_morphisms():
            assert validate_morphism(m).valid, name
            src, dst = m.source, m.target
            for u in sorted(src.objects):
                assert m.f[src.unit[u]] == dst.unit[m.f0[u]], (name, u)
            for x in sorted(src.arrows):
                assert m.f[src.inv[x]] == dst.inv[m.f[x]], (name, x)
            checked += 1
        assert checked >= 10


def run_cli(args: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "groupoids", *args],
        capture_output=True,
    )


def test_c10_cli_exit_codes_and_determinism(tmp_path):
    with criterion(10, "cli determinism"):
        valid = tmp_path / "pairZ2.gpd"
        valid.write_bytes(
            emit_structure_file(group_pair_groupoid(cyclic_group(2))).encode()
        )
        control = tmp_path / "s3-single-unit.gpd"
        control.write_bytes(emit_structure_file(s3_single_unit_control()).encode())
        broken = tmp_path / "broken.gpd"
        broken.write_bytes(b"kind: groupoid\nobjects: u\narrows: x\nsource: x=q\n")

        checks = [
            (["validate", str(valid)], 0),
            (["check", str(valid), "--mode", "both"], 0),
            (["check", str(control), "--mode", "both"], 1),
            (["validate", str(broken)], 2),
            (["check", str(control), "--mode", "both", "--format", "machine"], 1),
        ]
        for args, expected in checks:
            first = run_cli(args)
            second = run_cli(args)
            assert first.returncode == expected, (args, first.stderr)
            assert second.returncode == expected
            assert first.stdout == second.stdout, args

        # the machine report mirrors the in-process one
        payload = json.loads(run_cli(checks[-1][0]).stdout)
        assert payload["valid"] is False
        assert any(v["rule"] == "def32:interchange" for v in payload["violations"])
