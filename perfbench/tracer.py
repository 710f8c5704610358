"""Spans around the public functions of each scclab layer, recorded from outside.

The tracer never edits the program.  For every target function it builds a
wrapper and, while installed, puts the wrapper in place of every reference
to the original that lives in an scclab module namespace or in a
module-level dict (dispatch tables such as ``io_cli._IDENTIFY_ROUTES``).
Calls between modules and inside a module both go through those
references, so each call opens a span.

A span records its name, label, start, end, parent span and operation id.
Spans are kept in memory and written out once the run ends; the per-layer
table is derived from them by self time (a span's duration minus the time
its child spans cover).

A public target that no longer exists raises ``MissingTargetError``: a
refactor then fails the traced run loudly instead of silently leaving
numbers unattributed.  Private helpers are optional; when one is gone its
time lands in its caller's span and the name is listed in ``missing``.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

#: The seven axioms whose cost dominates; every other AxiomId, the suites
#: and the revealed-structure derivations add up in ``axioms.other.s``.
MAIN_AXIOMS = ("IIS", "IIS_O", "REL_ADD", "ADDITIVITY", "REL_ADD_1", "REL_ADD_2", "PIIS")

# span kinds
OP = "op"
AXIOM_BY_ARG = "axiom-by-arg"  # run_axiom: the AxiomId is its second argument
AXIOM_BY_REPORT = "axiom-by-report"  # check functions: the returned report names it
PLAIN = "plain"

#: (module, function, span name, kind).  Names starting with "_" are optional.
TARGETS: tuple[tuple[str, str, str, str], ...] = (
    ("scclab.axioms", "run_axiom", "axioms.check", AXIOM_BY_ARG),
    ("scclab.axioms", "check_iis", "axioms.check", AXIOM_BY_REPORT),
    ("scclab.axioms", "check_relative_additivity", "axioms.check", AXIOM_BY_REPORT),
    ("scclab.axioms", "check_additivity", "axioms.check", AXIOM_BY_REPORT),
    ("scclab.axioms", "check_positivity", "axioms.check", AXIOM_BY_REPORT),
    ("scclab.axioms", "check_piis", "axioms.check", AXIOM_BY_REPORT),
    ("scclab.axioms", "check_paf", "axioms.check", AXIOM_BY_REPORT),
    ("scclab.axioms", "check_full_support", "axioms.check", AXIOM_BY_REPORT),
    ("scclab.axioms", "check_special", "axioms.check", AXIOM_BY_REPORT),
    ("scclab.axioms", "_rel_add_scan", "axioms.check", AXIOM_BY_REPORT),
    ("scclab.axioms", "_rel_add_adjusted", "axioms.check", AXIOM_BY_REPORT),
    ("scclab.axioms", "_distinct_constraints_report", "axioms.check", AXIOM_BY_REPORT),
    ("scclab.axioms", "_partition_report", "axioms.check", AXIOM_BY_REPORT),
    ("scclab.axioms", "full_battery", "axioms.suite", PLAIN),
    ("scclab.axioms", "check_rrm_suite", "axioms.suite", PLAIN),
    ("scclab.axioms", "check_nsc_structure", "axioms.suite", PLAIN),
    ("scclab.axioms", "derive_revealed_constraints", "axioms.derive", PLAIN),
    ("scclab.axioms", "derive_revealed_nests", "axioms.derive", PLAIN),
    ("scclab.identify", "identify_logit", "identify", PLAIN),
    ("scclab.identify", "identify_rcg", "identify", PLAIN),
    ("scclab.identify", "identify_ic", "identify", PLAIN),
    ("scclab.identify", "identify_rrm", "identify", PLAIN),
    ("scclab.identify", "identify_nsc", "identify", PLAIN),
    ("scclab.classify", "classify", "classify", PLAIN),
    ("scclab.classify", "verify_relationships", "classify.relationships", PLAIN),
    ("scclab.models", "generate_scc", "models.generate", PLAIN),
    ("scclab.fuzz", "sample_params", "fuzz.sample", PLAIN),
    ("scclab.fuzz", "fuzz_characterization", "fuzz.harness", PLAIN),
    ("scclab.fuzz", "fuzz_relationships", "fuzz.harness", PLAIN),
    ("scclab.io_cli", "_load_json", "io_cli.load", PLAIN),
    ("scclab.io_cli", "parse_scc", "io_cli.parse", PLAIN),
    ("scclab.io_cli", "parse_params", "io_cli.parse", PLAIN),
    ("scclab.io_cli", "_emit", "io_cli.emit", PLAIN),
    ("scclab.io_cli", "report_to_json", "io_cli.emit", PLAIN),
    ("scclab.io_cli", "classification_to_json", "io_cli.emit", PLAIN),
    ("scclab.io_cli", "recovery_to_json", "io_cli.emit", PLAIN),
    ("scclab.io_cli", "summary_to_json", "io_cli.emit", PLAIN),
    ("scclab.core", "validate_scc", "core.validate", PLAIN),
)

#: Per-layer metrics in report order, with units.  Values are per traced pass.
LAYER_METRICS: tuple[tuple[str, str], ...] = (
    *((f"axioms.{a}.s", "s") for a in MAIN_AXIOMS),
    *((f"axioms.{a}.checked", "count") for a in MAIN_AXIOMS),
    ("axioms.other.s", "s"),
    ("axioms.runs", "count"),
    ("axioms.repeat_runs", "count"),
    ("axioms.derive_calls", "count"),
    ("identify.s", "s"),
    ("identify.attempts", "count"),
    ("identify.failed_attempts", "count"),
    ("classify.s", "s"),
    ("classify.relationships_s", "s"),
    ("models.generate_s", "s"),
    ("models.generate_calls", "count"),
    ("fuzz.sample_s", "s"),
    ("fuzz.harness_s", "s"),
    ("io_cli.load_s", "s"),
    ("io_cli.parse_s", "s"),
    ("io_cli.emit_s", "s"),
    ("core.validate_s", "s"),
    ("trace.unattributed_s", "s"),
    ("trace.attributed_frac", "ratio"),
    ("trace.overhead_s", "s"),
)

# span name -> metric that collects its self time (axiom checks are mapped by label)
_SELF_TIME_METRIC = {
    "axioms.suite": "axioms.other.s",
    "axioms.derive": "axioms.other.s",
    "identify": "identify.s",
    "classify": "classify.s",
    "classify.relationships": "classify.relationships_s",
    "models.generate": "models.generate_s",
    "fuzz.sample": "fuzz.sample_s",
    "fuzz.harness": "fuzz.harness_s",
    "io_cli.load": "io_cli.load_s",
    "io_cli.parse": "io_cli.parse_s",
    "io_cli.emit": "io_cli.emit_s",
    "core.validate": "core.validate_s",
    OP: "trace.unattributed_s",
}


class MissingTargetError(RuntimeError):
    """A public function the tracer wraps is no longer defined."""


@dataclass
class Span:
    id: int
    name: str
    parent: Optional[int]
    op: int
    start: float
    end: float = 0.0
    label: str = ""
    attrs: dict[str, Any] = field(default_factory=dict)
    child_time: float = 0.0

    @property
    def self_time(self) -> float:
        return self.end - self.start - self.child_time

    def to_json(self) -> dict:
        return {
            "id": self.id,
            "name": self.name,
            "label": self.label,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "op": self.op,
            "attrs": self.attrs,
        }


class Tracer:
    """Records spans while installed; a call outside any operation is not recorded."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._stack: list[Span] = []
        self._op: Optional[int] = None
        self._op_sccs: dict[int, Any] = {}  # id -> SCC, held so ids are not reused
        self._seen: set[tuple[int, int, str]] = set()
        self._patches: list[tuple[Any, str, Any]] = []

    # -- spans ------------------------------------------------------------

    def _open(self, name: str, label: str = "") -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(
            id=len(self.spans),
            name=name,
            parent=parent.id if parent else None,
            op=self._op if self._op is not None else -1,
            start=time.perf_counter(),
            label=label,
        )
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()
        if self._stack:
            self._stack[-1].child_time += span.end - span.start

    @contextmanager
    def operation(self, op_id: int, label: str, attrs: dict[str, Any]):
        """The root span of one CLI command."""
        self._op = op_id
        span = self._open(OP, label)
        span.attrs.update(attrs)
        try:
            yield
        finally:
            self._close(span)
            self._op = None
            self._op_sccs.clear()
            self._seen.clear()

    def _in_axiom(self) -> bool:
        return any(s.attrs.get("axiom_span") for s in self._stack)

    def _wrap(self, fn: Callable, name: str, kind: str) -> Callable:
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer._op is None:
                return fn(*args, **kwargs)
            outermost = kind in (AXIOM_BY_ARG, AXIOM_BY_REPORT) and not tracer._in_axiom()
            label = ""
            if kind == AXIOM_BY_ARG:
                axiom = args[1] if len(args) > 1 else kwargs["axiom"]
                label = axiom.value
            span = tracer._open(name, label)
            if kind != PLAIN:
                span.attrs["axiom_span"] = True
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.attrs["error"] = type(exc).__name__
                tracer._close(span)
                raise
            if kind == AXIOM_BY_REPORT:
                span.label = result.axiom.value
            if outermost:
                tracer._count_evaluation(span, args[0], result)
            tracer._close(span)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _count_evaluation(self, span: Span, scc: Any, report: Any) -> None:
        self._op_sccs[id(scc)] = scc
        key = (span.op, id(scc), span.label)
        span.attrs["evaluation"] = True
        span.attrs["checked"] = report.instances_checked
        if key in self._seen:
            span.attrs["repeat"] = True
        self._seen.add(key)

    # -- installation ------------------------------------------------------

    @contextmanager
    def installed(self):
        """Swap wrappers in for every reference to each target, then restore."""
        modules = {name: mod for name, mod in sys.modules.items() if name.startswith("scclab")}
        originals: dict[int, Callable] = {}
        wrappers: dict[int, Callable] = {}
        self.missing = []
        for module_name, func_name, span_name, kind in TARGETS:
            module = modules.get(module_name)
            fn = getattr(module, func_name, None) if module is not None else None
            if fn is None:
                if not func_name.startswith("_"):
                    raise MissingTargetError(
                        f"{module_name}.{func_name} is gone; update perfbench/tracer.py"
                    )
                self.missing.append(f"{module_name}.{func_name}")
                continue
            originals[id(fn)] = fn
            wrappers[id(fn)] = self._wrap(fn, span_name, kind)
        for module in modules.values():
            namespace = vars(module)
            for key, value in list(namespace.items()):
                if id(value) in wrappers and value is originals[id(value)]:
                    self._patch(namespace, key, wrappers[id(value)])
                elif isinstance(value, dict) and not key.startswith("__"):
                    for inner_key, inner in list(value.items()):
                        if id(inner) in wrappers and inner is originals[id(inner)]:
                            self._patch(value, inner_key, wrappers[id(inner)])
        try:
            yield self
        finally:
            for container, key, original in reversed(self._patches):
                container[key] = original
            self._patches = []

    def _patch(self, container: dict, key: Any, wrapper: Callable) -> None:
        self._patches.append((container, key, container[key]))
        container[key] = wrapper

    # -- output ------------------------------------------------------------

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.to_json(), sort_keys=True) + "\n")


def layer_table(
    spans: list[Span], scales: dict[int, float], traced_passes: int, traced_wall: float
) -> dict[str, float]:
    """Per-layer metrics per traced pass, derived from the recorded spans.

    Self times are multiplied by their operation's entry in ``scales``;
    ``traced_wall`` is the traced passes' summed operation time on the same
    scale.  The caller adds ``trace.overhead_s``.
    """
    totals: dict[str, float] = {name: 0.0 for name, _ in LAYER_METRICS}
    for span in spans:
        if span.op < 0:
            continue
        self_time = span.self_time * scales.get(span.op, 1.0)
        if span.name == "axioms.check":
            key = f"axioms.{span.label}.s"
            totals[key if key in totals else "axioms.other.s"] += self_time
            if span.attrs.get("evaluation"):
                totals["axioms.runs"] += 1
                totals["axioms.repeat_runs"] += 1 if span.attrs.get("repeat") else 0
                checked_key = f"axioms.{span.label}.checked"
                if checked_key in totals:
                    totals[checked_key] += span.attrs["checked"]
            continue
        totals[_SELF_TIME_METRIC[span.name]] += self_time
        if span.name == "axioms.derive":
            totals["axioms.derive_calls"] += 1
        elif span.name == "identify":
            totals["identify.attempts"] += 1
            totals["identify.failed_attempts"] += 1 if "error" in span.attrs else 0
        elif span.name == "models.generate":
            totals["models.generate_calls"] += 1
    passes = max(traced_passes, 1)
    table = {name: value / passes for name, value in totals.items()}
    table["trace.attributed_frac"] = (
        1.0 - totals["trace.unattributed_s"] / traced_wall if traced_wall > 0 else 0.0
    )
    return table

