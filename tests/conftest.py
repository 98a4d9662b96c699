from typing import NamedTuple

import pytest

import groupoids.grouptable as grouptable
from groupoids import (
    GroupGroupoid,
    GroupTable,
    cyclic_group,
    direct_product_group_groupoids,
    direct_product_groups,
    group_as_single_unit_groupoid,
    group_pair_groupoid,
    null_group_groupoid,
    single_unit_group_groupoid,
    symmetric_group,
    trivial_group,
)


def build_corpus() -> dict[str, GroupGroupoid]:
    """The standard examples every exhaustive check runs over.

    Spans both degenerate shapes (all-loop, single-object), the generic
    transitive shape, a direct product, and one non-commutative base.
    """
    z2 = cyclic_group(2)
    z3 = cyclic_group(3)
    z4 = cyclic_group(4)
    klein = direct_product_groups(z2, z2)
    s3 = symmetric_group(3)
    product, _, _ = direct_product_group_groupoids(
        group_pair_groupoid(z2), null_group_groupoid(z2)
    )
    return {
        "null(Z2)": null_group_groupoid(z2),
        "null(S3)": null_group_groupoid(s3),
        "single_unit(Z2)": single_unit_group_groupoid(z2),
        "single_unit(Z4)": single_unit_group_groupoid(z4),
        "single_unit(Z2xZ2)": single_unit_group_groupoid(klein),
        "group_pair(Z2)": group_pair_groupoid(z2),
        "group_pair(Z3)": group_pair_groupoid(z3),
        "group_pair(Z4)": group_pair_groupoid(z4),
        "group_pair(Z2)xnull(Z2)": product,
    }


def s3_single_unit_control() -> GroupGroupoid:
    """Single-unit overlay on a non-commutative group; must fail interchange.

    The constructor refuses this input, so assemble the pieces directly.
    """
    s3 = symmetric_group(3)
    return GroupGroupoid(
        base=group_as_single_unit_groupoid(s3),
        arrow_group=s3,
        object_group=trivial_group(s3.identity),
    )


def klein_on_z4_control() -> GroupGroupoid:
    """Single-unit Z4 whose addition is the Klein group on the same tokens.

    x+y is the bitwise xor of the digits.  Z4's negation swaps 1 and 3, a
    Klein automorphism, so the structural and additivity reports pass, yet
    interchange fails (Eckmann-Hilton: two operations with a common unit
    that interchange coincide).  The x.y == x - unit(tgt x) + y half of the
    interchange certificate is what rejects it.
    """
    z4 = cyclic_group(4)
    toks = sorted(z4.elements)
    klein = GroupTable(
        z4.elements,
        {(x, y): str(int(x) ^ int(y)) for x in toks for y in toks},
        "0",
        {x: x for x in toks},
    )
    return GroupGroupoid(
        base=group_as_single_unit_groupoid(z4),
        arrow_group=klein,
        object_group=trivial_group("0"),
    )


def nonassociative_z4_table() -> GroupTable:
    """Z4 with 2+3 set to 0: closed, identity and inverse laws hold, but
    (1+1)+3 = 0 while 1+(1+3) = 1, so Light's test must reject it."""
    z4 = cyclic_group(4)
    return GroupTable(z4.elements, {**z4.op, ("2", "3"): "0"}, z4.identity, z4.inverse)


def sums(rows: list, generators: list) -> set:
    """Every sum of one or more generators under a table's index rows, by a
    closure of its own: the reference for grouptable._generating_set."""
    reached, todo = set(generators), list(generators)
    while todo:
        w = todo.pop()
        for s in generators:
            if rows[w][s] not in reached:
                reached.add(rows[w][s])
                todo.append(rows[w][s])
    return reached


@pytest.fixture(scope="session")
def corpus() -> dict[str, GroupGroupoid]:
    return build_corpus()


@pytest.fixture(scope="session")
def s3_control() -> GroupGroupoid:
    return s3_single_unit_control()


@pytest.fixture(scope="session")
def klein_control() -> GroupGroupoid:
    return klein_on_z4_control()


@pytest.fixture(scope="session")
def nonassociative_table() -> GroupTable:
    return nonassociative_z4_table()


class CertificateRun(NamedTuple):
    """One run of the test of the generator certificates: the generating set
    it was handed, and whether it accepted."""

    generators: list
    accepted: bool


@pytest.fixture
def certificate_runs(monkeypatch) -> list[CertificateRun]:
    """Every run of grouptable._certifies from here on, in order."""
    runs: list[CertificateRun] = []
    certifies = grouptable._certifies

    def recorded(loop, generators):
        accepted = certifies(loop, generators)
        runs.append(CertificateRun(list(generators or ()), accepted))
        return accepted

    monkeypatch.setattr(grouptable, "_certifies", recorded)
    return runs
