"""Traced runs: spans around the public functions of each layer, from outside.

The tracer replaces each public function listed in ``TARGETS`` by a wrapper
in every ``groupoids`` module that holds it, including modules that imported
it by name (``overlay.validate_morphism``, ``cli.group_pair_groupoid``) and
the late import of ``construct.direct_product_groupoids`` inside def31,
which reads the module attribute at call time.  Nothing under ``src/`` is
changed and the originals are put back afterwards.

A span records name, start, end, parent span and the id of the benchmark
operation it ran under.  Its self time is its duration minus the time its
child spans cover, including the time spent computing their instance
counts.  Instance counts come from structure sizes, never from counters in
the program:

* ``grouptable.validate_group``: m^3 associativity triples;
* ``core.validate_groupoid``: defined pairs x A scanned for associativity,
  against the sum over defined pairs of the target's source fiber (useful);
* ``core.validate_morphism``: A^2 pairs scanned against P composable pairs
  of the source; its required instances are P + A.  On the doubled
  groupoid of group-pair Z_n, A = n^4 and P = n^6, so P/A^2 = 1/n^2;
* ``overlay.check_interchange``: P^2 quadruples.

Which end-to-end metric each layer metric should move, on which workload:

* ``cli.startup_ms``, ``fileformat.*``: ``op_p50_ms`` on cli-pair-ladder.
* ``grouptable.validate_group``: ``pass_s`` on dense-loops and cli-pair-ladder.
* ``core.*`` and ``core.composable_pairs.useful_ratio``: ``pass_s`` and
  ``op_p90_ms`` on cli-pair-ladder; no change on the single-unit inputs of
  dense-loops, where the ratio is already 1.
* ``overlay.check_interchange``: ``pass_s`` on dense-loops and
  cli-pair-ladder; no worsening on mutants.
* ``construct.*``, ``construct.verify_share``: ``pass_s`` on cli-pair-ladder
  and ``setup_s`` wherever set-up uses constructors.
* ``sub.anchor_morphism``, ``sub.anchor_target_builds``: ``op_p90_ms`` on
  cli-pair-ladder.
* ``report.build``, ``report.violations``: ``pass_s`` on mutants.
* ``affine.aff_verify``: a small share of cli-pair-ladder.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter
from dataclasses import dataclass, field

from workloads import LADDER, LADDER_EXTRA, rung_label


def _composable(g) -> int:
    """P: pairs (x, y) with tgt x = src y, counted from fiber sizes in O(A)."""
    out_deg = Counter(g.src.values())
    return sum(out_deg[g.tgt[x]] for x in g.arrows)


def _defined(g) -> list[tuple[str, str]]:
    return [
        (x, y) for (x, y) in g.prod
        if x in g.tgt and y in g.src and g.tgt[x] == g.src[y]
    ]


def _count_group(table) -> dict:
    m = len(table.elements)
    return {"triples": m**3, "instances": m**3}


def _count_groupoid(g, **_) -> dict:
    out_deg = Counter(g.src.values())
    defined = _defined(g)
    useful = sum(out_deg[g.tgt[y]] for _, y in defined)
    return {"assoc_scanned": len(defined) * len(g.arrows), "assoc_useful": useful,
            "instances": useful}


def _count_morphism(m) -> dict:
    a = len(m.source.arrows)
    p = _composable(m.source)
    return {"pairs_scanned": a * a, "pairs_composable": p, "instances": p + a}


def _count_interchange(gg) -> dict:
    p = len(_defined(gg.base))
    return {"quadruples": p * p, "instances": p * p}


def _count_parse(text) -> dict:
    return {"bytes": len(text.encode())}


def _count_verify(samples, seed) -> dict:
    return {"samples": samples}


# (module, attribute, span name, count before the call, count from the result)
TARGETS = (
    ("groupoids.cli", "run_command", "cli.run_command", None, None),
    ("groupoids.fileformat", "parse_structure_file", "fileformat.parse_structure_file",
     _count_parse, None),
    ("groupoids.fileformat", "emit_structure_file", "fileformat.emit_structure_file",
     None, lambda text: {"bytes": len(text.encode())}),
    ("groupoids.grouptable", "validate_group", "grouptable.validate_group", _count_group, None),
    ("groupoids.core", "validate_groupoid", "core.validate_groupoid", _count_groupoid, None),
    ("groupoids.core", "validate_morphism", "core.validate_morphism", _count_morphism, None),
    ("groupoids.core", "structure_identities", "core.structure_identities", None, None),
    ("groupoids.overlay", "check_group_groupoid", "overlay.check_group_groupoid", None, None),
    ("groupoids.overlay", "structural_report", "overlay.structural_report", None, None),
    ("groupoids.overlay", "check_interchange", "overlay.check_interchange",
     _count_interchange, None),
    ("groupoids.overlay", "check_derived_identities", "overlay.check_derived_identities",
     None, None),
    ("groupoids.overlay", "reconstruct_from_group", "overlay.reconstruct_from_group", None, None),
    ("groupoids.overlay", "validate_gg_morphism", "overlay.validate_gg_morphism", None, None),
    ("groupoids.construct", "group_pair_groupoid", "construct.group_pair_groupoid", None, None),
    ("groupoids.construct", "direct_product_group_groupoids",
     "construct.direct_product_group_groupoids", None, None),
    ("groupoids.construct", "direct_product_groupoids", "construct.direct_product_groupoids",
     None, None),
    ("groupoids.sub", "anchor_morphism", "sub.anchor_morphism", None, None),
    ("groupoids.sub", "isotropy_bundle", "sub.isotropy_bundle", None, None),
    ("groupoids.report", "ReportBuilder.build", "report.build",
     None, lambda report: {"violations": len(report.violations)}),
    ("groupoids.affine", "aff_verify", "affine.aff_verify", _count_verify, None),
)
SPAN_NAMES = tuple(t[2] for t in TARGETS)
# span name -> ((count key, unit), ...) reported as "<span>.<key>"
COUNTED = {
    "fileformat.parse_structure_file": (("bytes", "B"),),
    "fileformat.emit_structure_file": (("bytes", "B"),),
    "grouptable.validate_group": (("triples", "count"),),
    "core.validate_groupoid": (("assoc_scanned", "count"), ("assoc_useful", "count")),
    "core.validate_morphism": (("pairs_scanned", "count"), ("pairs_composable", "count")),
    "overlay.check_interchange": (("quadruples", "count"),),
    "affine.aff_verify": (("samples", "count"),),
}
PER_INSTANCE = ("grouptable.validate_group", "core.validate_groupoid",
                "core.validate_morphism", "overlay.check_interchange")
CONSTRUCTORS = ("construct.group_pair_groupoid", "construct.direct_product_group_groupoids")
DEF31_PARTS = ("construct.direct_product_groupoids", "core.validate_morphism")
RUNGS = tuple(rung_label(spec) for spec in LADDER + LADDER_EXTRA)


@dataclass
class Span:
    name: str
    parent: "Span | None"
    op: str
    start: float = 0.0
    end: float = 0.0
    pre: float = 0.0  # time spent counting instances before the call
    child: float = 0.0  # time covered by child spans, their counting included
    error: bool = False
    counts: dict = field(default_factory=dict)

    @property
    def total(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.total - self.child


class Tracer:
    """Patches the layer functions while active; collects spans in memory."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.op = ""
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, before, after):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t_pre = time.perf_counter()
            span = Span(name, tracer.stack[-1] if tracer.stack else None, tracer.op)
            if before is not None:
                try:
                    span.counts.update(before(*args, **kwargs))
                except (KeyError, TypeError, AttributeError):
                    pass  # malformed input: the wrapped call reports it, uncounted
            tracer.stack.append(span)
            span.start = time.perf_counter()
            span.pre = span.start - t_pre
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = time.perf_counter()
                tracer.stack.pop()
                if span.parent is not None:
                    span.parent.child += span.total + span.pre
                tracer.spans.append(span)
            if after is not None:
                span.counts.update(after(result))
            return result

        return wrapper

    def __enter__(self) -> "Tracer":
        homes = [importlib.import_module(t[0]) for t in TARGETS]
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "groupoids" or n.startswith("groupoids.")) and m is not None]
        for home, (_, attr, span_name, before, after) in zip(homes, TARGETS):
            if "." in attr:  # a method: patch the class attribute
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                orig = cls.__dict__[meth]
                self._restore.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(span_name, orig, before, after))
                continue
            orig = getattr(home, attr)
            wrapper = self._wrap(span_name, orig, before, after)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is orig:
                        self._restore.append((module, key, orig))
                        setattr(module, key, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for owner, key, orig in reversed(self._restore):
            setattr(owner, key, orig)
        self._restore.clear()

    def write(self, path: str) -> None:
        ids = {id(s): i for i, s in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as handle:
            for i, s in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": i, "name": s.name, "start": s.start, "end": s.end,
                    "parent": ids.get(id(s.parent)), "op": s.op,
                    "self_s": s.self_time, "error": s.error, "counts": s.counts,
                }, sort_keys=True) + "\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _ns_per_instance(spans: list[Span], name: str) -> float:
    chosen = [s for s in spans if s.name == name]
    return _ratio(sum(s.total for s in chosen) * 1e9,
                  sum(s.counts.get("instances", 0) for s in chosen))


def layer_metrics(spans: list[Span], op_kind: dict[str, str], labels: dict[str, dict],
                  startup_ms: float, overhead: float) -> dict[str, tuple[float, str]]:
    """Every per-layer metric, name -> (value, unit); 0 where a layer did not run.

    ``labels`` is the :func:`by_label` table of the same spans."""
    out: dict[str, tuple[float, str]] = {}
    by_name: dict[str, list[Span]] = {n: [] for n in SPAN_NAMES}
    for s in spans:
        by_name[s.name].append(s)
    for name in SPAN_NAMES:
        chosen = by_name[name]
        out[f"{name}.calls"] = (len(chosen), "count")
        out[f"{name}.total_s"] = (sum(s.total for s in chosen), "s")
        out[f"{name}.self_s"] = (sum(s.self_time for s in chosen), "s")
        out[f"{name}.errors"] = (sum(s.error for s in chosen), "count")
        for key, unit in COUNTED.get(name, ()):
            out[f"{name}.{key}"] = (sum(s.counts.get(key, 0) for s in chosen), unit)
    out["report.violations"] = (sum(s.counts.get("violations", 0) for s in by_name["report.build"]),
                                "count")

    morph = [s for s in by_name["core.validate_morphism"] if "pairs_scanned" in s.counts]
    out["core.composable_pairs.useful_ratio"] = (
        _ratio(sum(s.counts["pairs_composable"] for s in morph),
               sum(s.counts["pairs_scanned"] for s in morph)), "ratio")
    ratios = [s.counts["pairs_composable"] / s.counts["pairs_scanned"]
              for s in morph if s.counts["pairs_scanned"] > 1]
    out["core.composable_pairs.useful_ratio.min"] = (min(ratios, default=0.0), "ratio")
    out["core.composable_pairs.useful_ratio.max"] = (max(ratios, default=0.0), "ratio")

    out["overlay.def31_s"] = (sum(
        s.total for s in spans
        if s.name in DEF31_PARTS and s.parent is not None
        and s.parent.name == "overlay.check_group_groupoid"), "s")
    verify = sum(s.total for s in by_name["overlay.check_group_groupoid"]
                 if s.parent is not None and s.parent.name in CONSTRUCTORS)
    outer = sum(s.total for n in CONSTRUCTORS for s in by_name[n] if not _under(s, CONSTRUCTORS))
    out["construct.verify_share"] = (_ratio(verify, outer), "ratio")
    anchors = [op for op, kind in op_kind.items() if kind == "anchor"]
    builds = sum(1 for s in by_name["construct.group_pair_groupoid"]
                 if op_kind.get(s.op) == "anchor")
    out["sub.anchor_target_builds"] = (_ratio(builds, len(anchors)), "count")

    out["cli.startup_ms"] = (startup_ms, "ms")
    out["trace.overhead_frac"] = (overhead, "ratio")
    for name in PER_INSTANCE:
        out[f"{name}.ns_per_instance"] = (_ns_per_instance(spans, name), "ns")
    for rung in RUNGS:
        for name in PER_INSTANCE:
            cost = labels.get(rung, {}).get(name, {}).get("ns_per_instance", 0.0)
            out[f"rung.{rung}.{name}.ns_per_instance"] = (cost, "ns")
    return out


def _under(span: Span, names) -> bool:
    p = span.parent
    while p is not None:
        if p.name in names:
            return True
        p = p.parent
    return False


def by_label(spans: list[Span], op_label: dict[str, str]) -> dict[str, dict]:
    """Per input structure (or rung): instances and cost of the counted layers,
    and P/A^2 of its largest validate_morphism scan."""
    table: dict[str, dict] = {}
    for label in sorted(set(op_label.values())):
        mine = [s for s in spans if op_label.get(s.op) == label]
        row = {}
        for name in PER_INSTANCE:
            chosen = [s for s in mine if s.name == name]
            row[name] = {
                "total_s": sum(s.total for s in chosen),
                "instances": sum(s.counts.get("instances", 0) for s in chosen),
                "ns_per_instance": _ns_per_instance(chosen, name),
            }
        morph = [s for s in mine
                 if s.name == "core.validate_morphism" and "pairs_scanned" in s.counts]
        if morph:
            big = max(morph, key=lambda s: s.counts["pairs_scanned"])
            row["largest_scan"] = {
                "pairs_scanned": big.counts["pairs_scanned"],
                "pairs_composable": big.counts["pairs_composable"],
                "useful_ratio": big.counts["pairs_composable"] / big.counts["pairs_scanned"],
            }
        table[label] = row
    return table
