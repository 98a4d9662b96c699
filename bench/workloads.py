"""The three benchmark workloads, their seeded inputs and their correctness gates.

Every operation carries its own gate.  The expected verdict comes from how
the operation's input was built (a paper construction must PASS, a
single-entry mutant must FAIL with a witness naming the mutated entry),
never from what the program printed.

Workloads (all closed loops with one client, single-threaded):

* ``cli-pair-ladder``: one CLI session per group spec, each command a
  process of its own.  Small rungs are dominated by start-up, parse and
  render; the top rung by constructor re-verification, the def31 pair scan
  and the double build in ``anchor``.
* ``dense-loops``: API calls on valid structures where every pair composes
  (single-unit) or only units do (null).  A fiber index can save nothing
  here, so it is the no-change side for that optimisation.
* ``mutants``: API calls on seeded single-entry mutations in modes def31,
  def32 and both.  Every input is invalid, so any fast certificate has to
  fall back to full enumeration and reports are large.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import groupoids as G
from groupoids import FiniteGroupoid, GroupGroupoid, GroupTable

# The one known crash (ROADMAP item 5): a mutant whose arrow-group op value
# lies outside the carrier raises one of these instead of returning a report.
# That raise counts as a failed operation but not as a wrong answer; a raise
# on any other operation, or another exception here, is a wrong answer.
KNOWN_DEFECT_KIND = "outside-carrier"
KNOWN_DEFECT_RAISES = (KeyError, G.DomainMismatch)


@dataclass(frozen=True)
class Op:
    """One timed operation of a pass.

    ``call`` is the timed part.  It receives the session context, a dict
    shared by the operations with the same ``label`` within one pass, which
    ``prepare`` (untimed) may fill first.  ``check`` returns None when the
    result meets the expectation and a one-line reason otherwise; ``render``
    gives the bytes whose digest must repeat across passes.
    """

    name: str
    label: str
    kind: str
    call: Callable[[dict], object]
    check: Callable[[object], str | None]
    render: Callable[[object], bytes]
    prepare: Callable[[dict], None] | None = None


@dataclass(frozen=True)
class OpResult:
    name: str
    seconds: float
    problem: str | None
    digest: str
    known_defect: bool = False  # the problem is the known crash, not a wrong answer


def run_op(op: Op, ctx: dict, clock) -> OpResult:
    if op.prepare is not None:
        op.prepare(ctx)
    t0 = clock()
    try:
        out = op.call(ctx)
    except Exception as exc:  # an operation that raises is a failure, never an abort
        seconds = clock() - t0
        text = f"{type(exc).__name__}: {exc}"
        disagreement = "disagree" in str(exc)
        problem = ("disagreement: " if disagreement else "raised ") + text
        known = (op.kind == KNOWN_DEFECT_KIND and isinstance(exc, KNOWN_DEFECT_RAISES)
                 and not disagreement)
        return OpResult(op.name, seconds, problem, _sha(text.encode()), known)
    seconds = clock() - t0
    try:
        return OpResult(op.name, seconds, op.check(out), _sha(op.render(out)))
    except (ValueError, KeyError, OSError) as exc:
        return OpResult(op.name, seconds, f"unreadable output: {exc!r}", "")


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# ------------------------------------------------------------------ reports


def _report_bytes(report) -> bytes:
    return json.dumps(report.to_dict(), sort_keys=True).encode()


def expect_report(valid: bool, tokens: tuple[str, ...] = (), modes: tuple[str, ...] = ()):
    """Gate for a ValidationReport.

    ``tokens``: some violation witness must contain all of them.  ``modes``:
    the report must carry a matching ``verdict`` info note for each.
    """

    def check(report) -> str | None:
        if report.valid != valid:
            return f"verdict {'PASS' if report.valid else 'FAIL'}, expected " + (
                "PASS" if valid else "FAIL"
            )
        want = "verdict pass" if valid else "verdict fail"
        notes = {n.rule: n.message for n in report.notes if n.status == "info"}
        for mode in modes:
            if notes.get(mode) != want:
                return f"note {mode} is {notes.get(mode)!r}, expected {want!r}"
        if tokens and not any(set(tokens) <= set(v.witness) for v in report.violations):
            return f"no witness names the mutated entry {tokens}"
        return None

    return check


# ------------------------------------------------------------- cli-pair-ladder

# cyclic:3 is dominated by start-up, cyclic:6 by the checking work; each
# cyclic:7 session alone takes as long as this whole ladder, which would leave
# a run of the default length fewer than three passes
LADDER = ("cyclic:3", "cyclic:6")
LADDER_EXTRA = ("symmetric:3", "cyclic:2*cyclic:2")
TINY_LADDER = ("cyclic:2", "cyclic:3")
AFFINE_KINDS = ("verify", "A", "B")


def rung_label(spec: str) -> str:
    """cyclic:7 -> c7, symmetric:3 -> s3, cyclic:2*cyclic:2 -> c2xc2."""
    return "x".join(part[0] + part.partition(":")[2] for part in spec.split("*"))


def group_order(spec: str) -> int:
    order = 1
    for part in spec.split("*"):
        name, _, arg = part.partition(":")
        n = int(arg)
        order *= {"cyclic": n, "symmetric": math.factorial(n)}[name]
    return order


@dataclass(frozen=True)
class CliResult:
    code: int
    stdout: bytes
    stderr: bytes


class SubprocessCli:
    """Runs ``python -m groupoids`` as a child process, one at a time."""

    def __init__(self, root: str, workdir: str):
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))

    def argv(self, args: list[str]) -> list[str]:
        return [sys.executable, "-s", "-m", "groupoids", *args]

    def __call__(self, args: list[str]) -> CliResult:
        proc = subprocess.run(
            self.argv(args), cwd=self.workdir, env=self.env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, check=False,
        )
        return CliResult(proc.returncode, proc.stdout, proc.stderr)


class InProcessCli:
    """Replays a command through ``groupoids.cli.run_command`` (traced runs)."""

    def __call__(self, args: list[str]) -> CliResult:
        from groupoids import cli

        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.run_command(args)
        return CliResult(code, out.getvalue().encode(), err.getvalue().encode())


def _cli_problem(res: CliResult, want_code: int) -> str | None:
    if res.code == want_code:
        return None
    if res.code == 1 and b"disagree" in res.stderr:
        return "disagreement: " + res.stderr.decode(errors="replace").strip()
    tail = res.stderr.decode(errors="replace").strip().splitlines()[-1:] or [""]
    return f"exit {res.code}, expected {want_code}: {tail[0]}"


def expect_first_line(first: str):
    def check(res: CliResult) -> str | None:
        bad = _cli_problem(res, 0)
        if bad:
            return bad
        got = res.stdout.decode().split("\n", 1)[0]
        return None if got == first else f"first line {got!r}, expected {first!r}"

    return check


def expect_machine_pass(res: CliResult) -> str | None:
    bad = _cli_problem(res, 0)
    if bad:
        return bad
    doc = json.loads(res.stdout)
    return None if doc["valid"] is True else "machine report is not valid"


def expect_bundle(loops: int, objects: int):
    def check(res: CliResult) -> str | None:
        bad = _cli_problem(res, 0)
        if bad:
            return bad
        lines = dict(line.split(": ", 1) for line in res.stdout.decode().splitlines())
        got = (len(lines["arrows"].split()), len(lines["objects"].split()))
        want = (loops, objects)
        return None if got == want else f"bundle sizes {got}, expected {want}"

    return check


def expect_exit0(res: CliResult) -> str | None:
    return _cli_problem(res, 0)


def _cli_bytes(res: CliResult) -> bytes:
    return res.stdout


def _rational(rng: random.Random) -> str:
    # positive only: argparse would read "-1/2" as an option
    return str(Fraction(rng.randint(1, 60), rng.randint(1, 9)))


def ladder_ops(cli, workdir: str, rng: random.Random, tiny: bool = False) -> list[Op]:
    """One session per rung, in a seeded order; each session starts by
    constructing its file, so no session depends on another."""
    specs = list(TINY_LADDER if tiny else LADDER + LADDER_EXTRA)
    rng.shuffle(specs)
    ops: list[Op] = []
    for i, spec in enumerate(specs):
        label = rung_label(spec)
        path = os.path.join(workdir, f"pair-{label}.gpd")
        n = group_order(spec)

        def op(kind, args, check, render=_cli_bytes, suffix=""):
            name = f"{label}/{kind}{suffix}"
            ops.append(Op(name, label, kind, lambda ctx, a=args: cli(a), check, render))

        def construct_bytes(res: CliResult, path=path) -> bytes:
            with open(path, "rb") as handle:
                return res.stdout + handle.read()

        op("construct", ["construct", "group-pair", "--group", spec, "--output", path],
           expect_exit0, construct_bytes)
        op("validate", ["validate", path], expect_first_line("PASS"))
        op("check", ["check", path, "--mode", "both"], expect_first_line("PASS"), suffix="-both")
        op("check", ["check", path, "--mode", "def31"], expect_first_line("PASS"), suffix="-def31")
        op("check", ["check", path, "--mode", "def32", "--format", "machine"],
           expect_machine_pass, suffix="-def32")
        op("identities", ["identities", path], expect_first_line("PASS"))
        op("reconstruct", ["reconstruct", path], expect_first_line("PASS"))
        op("anchor", ["anchor", path], expect_first_line("PASS"))
        op("isotropy", ["isotropy", path, "--bundle"], expect_bundle(n, n))
        # one affine call per session, the kinds taken in turn
        kind = AFFINE_KINDS[i % len(AFFINE_KINDS)]
        if kind == "verify":
            samples, seed = rng.randint(150, 250), rng.randint(0, 10**6)
            op("affine-verify", ["affine", "verify", "--samples", str(samples), "--seed", str(seed)],
               expect_first_line("PASS"))
        elif kind == "A":
            a, b, c = (_rational(rng) for _ in range(3))
            op("affine-quad", ["affine", "quad", "--kind", "A", "--params", a, b, c],
               expect_first_line("kind A: parallelogram"), suffix="-A")
        else:
            x1 = _rational(rng)
            x2 = "0" if rng.random() < 0.25 else _rational(rng)
            op("affine-quad", ["affine", "quad", "--kind", "B", "--params", x1, x2],
               expect_first_line("kind B: " + ("degenerate" if x2 == "0" else "parallelogram")),
               suffix="-B")
    return ops


# ---------------------------------------------------------------- dense-loops


def relabel(gg: GroupGroupoid, rng: random.Random) -> GroupGroupoid:
    """An isomorphic copy with every token renamed by one seeded bijection.

    The copy is valid exactly when the original is; only names, and so every
    sorted iteration order, change with the seed.
    """
    toks = sorted(gg.base.objects | gg.base.arrows)
    names = [f"t{i:04d}" for i in range(len(toks))]
    rng.shuffle(names)
    r = dict(zip(toks, names))
    g = gg.base

    def table(t: GroupTable) -> GroupTable:
        return GroupTable(
            frozenset(r[x] for x in t.elements),
            {(r[x], r[y]): r[z] for (x, y), z in t.op.items()},
            r[t.identity],
            {r[x]: r[y] for x, y in t.inverse.items()},
        )

    base = FiniteGroupoid(
        objects=frozenset(r[u] for u in g.objects),
        arrows=frozenset(r[x] for x in g.arrows),
        src={r[x]: r[u] for x, u in g.src.items()},
        tgt={r[x]: r[u] for x, u in g.tgt.items()},
        unit={r[u]: r[x] for u, x in g.unit.items()},
        inv={r[x]: r[y] for x, y in g.inv.items()},
        prod={(r[x], r[y]): r[z] for (x, y), z in g.prod.items()},
    )
    return GroupGroupoid(base, table(gg.arrow_group), table(gg.object_group))


def dense_structures(tiny: bool = False) -> dict[str, GroupGroupoid]:
    """Valid inputs where composability is total (single-unit) or trivial (null),
    two direct products, and non-abelian valid input (S_3, S_4)."""
    z = G.cyclic_group
    if tiny:
        return {
            "su-z4": G.single_unit_group_groupoid(z(4)),
            "null-s3": G.null_group_groupoid(G.symmetric_group(3)),
        }
    z2 = z(2)
    z2_4 = G.direct_product_groups(
        G.direct_product_groups(z2, z2), G.direct_product_groups(z2, z2)
    )
    prod_a, _, _ = G.direct_product_group_groupoids(
        G.group_pair_groupoid(z2), G.null_group_groupoid(G.symmetric_group(3))
    )
    prod_b, _, _ = G.direct_product_group_groupoids(
        G.single_unit_group_groupoid(z(4)), G.group_pair_groupoid(z(3))
    )
    return {
        "su-z24": G.single_unit_group_groupoid(z(24)),
        "su-z2^4": G.single_unit_group_groupoid(z2_4),
        "null-s3": G.null_group_groupoid(G.symmetric_group(3)),
        "null-s4": G.null_group_groupoid(G.symmetric_group(4)),
        "null-z12": G.null_group_groupoid(z(12)),
        "gp-z2*null-s3": prod_a,
        "su-z4*gp-z3": prod_b,
    }


def dense_setup(rng: random.Random, tiny: bool = False) -> dict[str, tuple[str, int]]:
    """label -> (file text, expected loop count).

    The order stays fixed: shuffling it moved the small operations' share
    of the pass by about 10% from seed to seed, while relabelling alone
    leaves the cost of every operation the same.
    """
    out = {}
    for label, gg in dense_structures(tiny).items():
        gg = relabel(gg, rng)
        loops = sum(1 for x in gg.base.arrows if gg.base.src[x] == gg.base.tgt[x])
        out[label] = (G.emit_structure_file(gg), loops)
    return out


def expect_bundle_size(loops: int):
    def check(s) -> str | None:
        got = len(s.arrows)
        return None if got == loops else f"bundle has {got} loops, expected {loops}"

    return check


def _bundle_bytes(s) -> bytes:
    return json.dumps([sorted(s.arrows), sorted(s.objects)]).encode()


def dense_ops(inputs: dict[str, tuple[str, int]]) -> list[Op]:
    """Per structure: parse fresh from text, then the five checks on the result.

    Parsing every pass gives each pass new objects, so any per-structure
    cache starts cold, as it does for a user loading a file.
    """
    ops: list[Op] = []
    for label, (text, loops) in inputs.items():
        def add(kind, call, check, render=_report_bytes):
            ops.append(Op(f"{label}/{kind}", label, kind, call, check, render))

        def parse(ctx, text=text):
            ctx["gg"] = G.parse_structure_file(text).structure
            return ctx["gg"]

        def round_trip(gg, text=text) -> str | None:
            same = G.emit_structure_file(gg) == text
            return None if same else "emitting the parsed structure changed the text"

        add("parse", parse, round_trip, lambda gg: G.emit_structure_file(gg).encode())
        add("check_group_groupoid", lambda ctx: G.check_group_groupoid(ctx["gg"], mode="both"),
            expect_report(True, modes=("def31", "def32")))
        add("check_derived_identities", lambda ctx: G.check_derived_identities(ctx["gg"]),
            expect_report(True))
        add("reconstruct_from_group", lambda ctx: G.reconstruct_from_group(ctx["gg"]),
            expect_report(True))
        add("structure_identities", lambda ctx: G.structure_identities(ctx["gg"].base),
            expect_report(True))
        add("isotropy_bundle", lambda ctx: G.isotropy_bundle(ctx["gg"]),
            expect_bundle_size(loops), _bundle_bytes)
    return ops


# -------------------------------------------------------------------- mutants

MUTATION_CLASSES = ("product", "arrow-op", "object-op", "source", "inverse", "outside-carrier")
MODES = ("def31", "def32", "both")
OUTSIDE = "zz-outside"


def mutant_bases(tiny: bool = False) -> dict[str, GroupGroupoid]:
    z = G.cyclic_group
    if tiny:
        return {"gp-z3": G.group_pair_groupoid(z(3)), "su-z4": G.single_unit_group_groupoid(z(4))}
    return {
        "gp-z4": G.group_pair_groupoid(z(4)),
        "gp-z5": G.group_pair_groupoid(z(5)),
        "gp-s3": G.group_pair_groupoid(G.symmetric_group(3)),
        "null-s4": G.null_group_groupoid(G.symmetric_group(4)),
        "su-z16": G.single_unit_group_groupoid(z(16)),
    }


@dataclass(frozen=True)
class Mutant:
    """A single-entry rewrite of a valid structure.

    ``outside-carrier`` writes an arrow-group op value that is not an
    element; the file parser refuses that, so it is reachable only through
    the API.  The mutated entry's key tokens must show up in some witness.
    """

    base: GroupGroupoid
    cls: str
    key: tuple[str, ...]
    value: str

    def build(self) -> GroupGroupoid:
        """A fresh copy, so no cache from an earlier operation carries over."""
        g, A, O = self.base.base, self.base.arrow_group, self.base.object_group
        fields = dict(objects=g.objects, arrows=g.arrows, src=dict(g.src), tgt=dict(g.tgt),
                      unit=dict(g.unit), inv=dict(g.inv), prod=dict(g.prod))
        a_op, o_op = dict(A.op), dict(O.op)
        if self.cls == "product":
            fields["prod"][self.key] = self.value
        elif self.cls in ("arrow-op", "outside-carrier"):
            a_op[self.key] = self.value
        elif self.cls == "object-op":
            o_op[self.key] = self.value
        elif self.cls == "source":
            fields["src"][self.key[0]] = self.value
        else:
            fields["inv"][self.key[0]] = self.value
        return GroupGroupoid(
            FiniteGroupoid(**fields),
            GroupTable(A.elements, a_op, A.identity, dict(A.inverse)),
            GroupTable(O.elements, o_op, O.identity, dict(O.inverse)),
        )


def _other(rng: random.Random, carrier, current: str) -> str | None:
    choices = sorted(set(carrier) - {current})
    return rng.choice(choices) if choices else None


def make_mutant(gg: GroupGroupoid, cls: str, rng: random.Random) -> Mutant | None:
    """One seeded mutant of class ``cls``, or None when the carrier leaves no
    other value (source and object-group op on a one-object structure)."""
    g = gg.base
    arrows, objects = sorted(g.arrows), sorted(g.objects)
    if cls == "product":
        key = rng.choice(sorted(g.prod))
        value = _other(rng, arrows, g.prod[key])
    elif cls in ("arrow-op", "outside-carrier"):
        key = rng.choice(sorted(gg.arrow_group.op))
        value = OUTSIDE if cls == "outside-carrier" else _other(rng, arrows, gg.arrow_group.op[key])
    elif cls == "object-op":
        key = rng.choice(sorted(gg.object_group.op))
        value = _other(rng, objects, gg.object_group.op[key])
    elif cls == "source":
        key = (rng.choice(arrows),)
        value = _other(rng, objects, g.src[key[0]])
    else:
        key = (rng.choice(arrows),)
        value = _other(rng, arrows, g.inv[key[0]])
    return None if value is None else Mutant(gg, cls, key, value)


def mutants_setup(rng: random.Random, tiny: bool = False) -> list[tuple[str, Mutant]]:
    out = []
    for label, gg in mutant_bases(tiny).items():
        for cls in MUTATION_CLASSES:
            m = make_mutant(gg, cls, rng)
            if m is not None:
                out.append((label, m))
    return out


def mutant_ops(mutants: list[tuple[str, Mutant]]) -> list[Op]:
    ops = []
    for i, (label, m) in enumerate(mutants):
        for mode in MODES:
            def prepare(ctx, m=m):
                ctx["gg"] = m.build()

            expect = expect_report(False, m.key, ("def31", "def32") if mode == "both" else (mode,))
            ops.append(Op(
                f"{label}/{m.cls}#{i}/{mode}", label, m.cls,
                lambda ctx, mode=mode: G.check_group_groupoid(ctx["gg"], mode=mode),
                expect, _report_bytes, prepare,
            ))
    return ops
