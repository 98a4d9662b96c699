"""The report types: entry order, absorbing, conversion and immutability,
and one large report pinned byte for byte."""

import hashlib
import json
import operator
import random

import pytest

from groupoids import (
    GroupGroupoid,
    GroupTable,
    InvalidInput,
    Note,
    ReportBuilder,
    ValidationReport,
    Violation,
    check_group_groupoid,
    cyclic_group,
    group_pair_groupoid,
)


def test_build_orders_by_rule_then_witness_then_message():
    rb = ReportBuilder()
    rb.violation("b", ("x",), "m")
    rb.violation("a", ("y",), "m")
    rb.violation("a", ("x", "z"), "m")
    rb.violation("a", ("x",), "n")
    rb.violation("a", ("x",), "m")
    rb.note("b", "info", "m")
    rb.note("a", "skipped", "n")
    rb.note("a", "info", "n")
    rb.note("a", "info", "m")
    report = rb.build()
    assert report.violations == (
        Violation("a", ("x",), "m"),  # only the message differs from the next
        Violation("a", ("x",), "n"),
        Violation("a", ("x", "z"), "m"),  # only the witness differs from the first
        Violation("a", ("y",), "m"),
        Violation("b", ("x",), "m"),
    )
    assert report.notes == (
        Note("a", "info", "m"),
        Note("a", "info", "n"),
        Note("a", "skipped", "n"),
        Note("b", "info", "m"),
    )


def _inner() -> ValidationReport:
    rb = ReportBuilder()
    rb.violation("assoc", ("x", "y"), "x.y differs")
    rb.violation("assoc", ("y", "x"), "y.x differs")
    rb.note("check", "skipped", "no products")
    return rb.build()


def test_a_prefixed_absorb_renames_the_rule_only():
    inner = _inner()
    rb = ReportBuilder()
    rb.absorb(inner, "outer:")
    report = rb.build()
    assert report.violations == (
        Violation("outer:assoc", ("x", "y"), "x.y differs"),
        Violation("outer:assoc", ("y", "x"), "y.x differs"),
    )
    assert report.notes == (Note("outer:check", "skipped", "no products"),)
    # one renamed rule string, shared by its violations
    assert report.violations[0].rule is report.violations[1].rule
    assert inner == _inner()  # the absorbed report is left as it was


def test_an_unprefixed_absorb_keeps_the_very_same_entries():
    inner = _inner()
    rb = ReportBuilder()
    rb.absorb(inner)
    report = rb.build()
    assert len(report.violations) == 2
    assert all(map(operator.is_, report.violations, inner.violations))
    assert report.notes[0] is inner.notes[0]


def test_witness_items_are_converted_with_str():
    rb = ReportBuilder()
    rb.violation("r", iter([1, "a", None]), "m")
    assert rb.build().violations[0].witness == ("1", "a", "None")


def test_require_rules_by_rule_and_to_dict():
    rb = ReportBuilder()
    rb.violation("b", ("y",), "second")
    rb.violation("a", ("x", "z"), "first")
    rb.violation("b", ("x",), "third")
    rb.note("a", "info", "remark")
    report = rb.build()
    assert not report.valid
    assert report.rules() == ("a", "b")
    assert report.by_rule("b") == (Violation("b", ("x",), "third"),
                                   Violation("b", ("y",), "second"))
    with pytest.raises(InvalidInput, match=r"^broken: a at x,z$"):
        report.require(InvalidInput, "broken")
    assert report.to_dict() == {
        "valid": False,
        "violations": [
            {"rule": "a", "witness": ["x", "z"], "message": "first"},
            {"rule": "b", "witness": ["x"], "message": "third"},
            {"rule": "b", "witness": ["y"], "message": "second"},
        ],
        "notes": [{"rule": "a", "status": "info", "message": "remark"}],
    }
    empty = ReportBuilder().build()
    assert empty.valid and empty.rules() == ()
    empty.require(InvalidInput, "never raised")
    assert empty.to_dict() == {"valid": True, "violations": [], "notes": []}


def test_entries_are_hashable_and_immutable():
    v = Violation("r", ("x",), "m")
    n = Note("r", "info", "m")
    assert len({v, Violation("r", ("x",), "m"), n, Note("r", "info", "m")}) == 2
    assert repr(v) == "Violation(rule='r', witness=('x',), message='m')"
    for entry, field in ((v, "rule"), (v, "witness"), (n, "status")):
        with pytest.raises(AttributeError):
            setattr(entry, field, "changed")
    assert not hasattr(v, "__dict__") and not hasattr(n, "__dict__")
    assert Violation._fields == ("rule", "witness", "message")
    assert Note._fields == ("rule", "status", "message")


# def31's fallback and def32's interchange list every failing pair, and mode
# "both" nests both reports under prefixes; digests of
# json.dumps(report.to_dict(), sort_keys=True)
LARGE_REPORTS = {
    "def31": (16934, "7c6f46bf4d828a2857822d2c57df5b17d2a80a051a1b02fd2e0774b08742860a"),
    "def32": (16744, "bf9f5a0c894184e2fcba4d89206f3a9c65471dcc7e9f763332a2bf54e5043033"),
    "both": (33678, "e80e1f0acaced64340dbf24ced6428696215bf2347b334397b165bc95598f943"),
}


def _relabelled_group_pair(n: int, seed: int) -> GroupGroupoid:
    """Group-pair Z_n with its arrow table renamed by a seeded shuffle: both
    tables stay groups and the base stays, but the two no longer fit."""
    gg = group_pair_groupoid(cyclic_group(n))
    table = gg.arrow_group
    old = sorted(table.elements)
    new = old[:]
    random.Random(seed).shuffle(new)
    r = dict(zip(old, new))
    renamed = GroupTable(
        table.elements,
        {(r[x], r[y]): r[z] for (x, y), z in table.op.items()},
        r[table.identity],
        {r[x]: r[y] for x, y in table.inverse.items()},
    )
    return GroupGroupoid(gg.base, renamed, gg.object_group)


def test_a_large_report_is_pinned_byte_for_byte():
    gg = _relabelled_group_pair(5, 3)
    for mode, (count, digest) in LARGE_REPORTS.items():
        report = check_group_groupoid(gg, mode=mode)
        assert len(report.violations) == count, mode
        data = json.dumps(report.to_dict(), sort_keys=True).encode()
        assert hashlib.sha256(data).hexdigest() == digest, mode
