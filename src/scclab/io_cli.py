"""File formats, count-based estimation, and the command-line front end.

External artifacts are label-based (bitmasks never leak into files) and
probabilities travel as strings — "num/den" or a bare integer for exact
values, a decimal/exponent literal for float values — because JSON numbers
cannot carry rationals.  Serialization is canonical: sorted keys, menus and
collections in ascending mask order, zero rows omitted.  Identical inputs
therefore produce byte-identical output.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, NamedTuple, Optional, Sequence

from .axioms import (
    WITNESS_CAP,
    AxiomId,
    AxiomReport,
    Witness,
    cached_report,
    full_battery,
)
from .classify import HOLDS, ClassificationReport, classify
from .core import (
    DEFAULT_TOL,
    MixedFormatError,
    PreconditionFailedError,
    Prob,
    SCC,
    SchemaError,
    ScclabError,
    ShapeError,
    ToleranceConfig,
    Universe,
    ZeroTotalMenuError,
    is_positive,
    validate_scc,
)
from .fuzz import ALL_VARIANTS, FuzzSummary, fuzz_characterization, fuzz_relationships
from .identify import RECOVERIES, RecoveryResult
from .models import (
    EMPTY_CAPABLE,
    PARAMS_TYPES,
    ArAttribute,
    Aspect,
    ModelSpec,
    ModelTag,
    generate_scc,
    menu_row,
)

# ---------------------------------------------------------------------------
# probability literals


def parse_prob_literal(text: str) -> tuple[Prob, bool]:
    """Parse a probability string into ``(value, is_exact)``.

    "num/den" and bare integers are exact; any literal containing a decimal
    point or exponent is a float.  Everything else is a schema error.
    """
    token = text.strip()
    try:
        if "/" in token:
            return Fraction(token), True
        if any(c in token for c in ".eE"):
            value = float(token)
            if not math.isfinite(value):
                raise ValueError("not finite")
            return value, False
        return Fraction(int(token)), True
    except (ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"invalid probability literal {text!r}: {exc}") from None


def format_prob(value: Prob) -> str:
    if isinstance(value, Fraction):
        return str(value)
    # repr of a float always carries a '.' or exponent, so it parses back
    # into float mode
    return repr(float(value))


# ---------------------------------------------------------------------------
# SCC documents


def _require_type(value: Any, kind: type, context: str) -> Any:
    if not isinstance(value, kind) or isinstance(value, bool) and kind is not bool:
        raise SchemaError(f"{context}: expected {kind.__name__}")
    return value


def _labels_from_arg(text: str) -> list[str]:
    return [s for s in (part.strip() for part in text.split(",")) if s]


def _mask_from_labels(
    universe: Universe, labels: Any, context: str, allow_empty: bool = True
) -> int:
    if not isinstance(labels, list) or not all(isinstance(s, str) for s in labels):
        raise SchemaError(f"{context}: expected a list of label strings")
    try:
        mask = universe.mask_of(labels)
    except ShapeError as exc:
        raise SchemaError(f"{context}: {exc}") from None
    if mask == 0 and not allow_empty:
        raise SchemaError(f"{context}: must be non-empty")
    return mask


def _parse_universe(items: Any) -> Universe:
    if not isinstance(items, list) or not all(isinstance(s, str) for s in items):
        raise SchemaError("items: expected a list of label strings")
    try:
        return Universe.from_labels(items)
    except ShapeError as exc:
        raise SchemaError(f"items: {exc}") from None


def parse_scc(document: Any, tol: ToleranceConfig = DEFAULT_TOL) -> SCC:
    """Build an SCC from a parsed JSON document.

    The SCC is exact iff every probability is rational-formatted; mixing
    rational and decimal literals in one document is rejected.  The result
    must pass validation, otherwise the violation list is reported as a
    schema error.
    """
    _require_type(document, dict, "document")
    if "items" not in document:
        raise SchemaError("document: missing 'items'")
    universe = _parse_universe(document["items"])
    allows_empty = document.get("allows_empty", False)
    if not isinstance(allows_empty, bool):
        raise SchemaError("allows_empty: expected a boolean")
    menus_field = _require_type(document.get("menus", []), list, "menus")

    rows: dict[int, dict[int, Prob]] = {}
    saw_exact = saw_float = False
    for mi, entry in enumerate(menus_field):
        context = f"menus[{mi}]"
        _require_type(entry, dict, context)
        menu = _mask_from_labels(
            universe, entry.get("menu"), f"{context}.menu", allow_empty=False
        )
        if menu in rows:
            raise SchemaError(f"{context}: duplicate menu {universe.labels_of(menu)}")
        row: dict[int, Prob] = {}
        cells = _require_type(entry.get("rows", []), list, f"{context}.rows")
        for ri, cell in enumerate(cells):
            cell_context = f"{context}.rows[{ri}]"
            _require_type(cell, dict, cell_context)
            collection = _mask_from_labels(
                universe, cell.get("set"), f"{cell_context}.set"
            )
            if collection in row:
                raise SchemaError(
                    f"{cell_context}: duplicate set {universe.labels_of(collection)}"
                )
            literal = cell.get("p")
            if not isinstance(literal, str):
                raise SchemaError(f"{cell_context}.p: expected a string")
            value, exact = parse_prob_literal(literal)
            saw_exact |= exact
            saw_float |= not exact
            row[collection] = value
        rows[menu] = row
    if saw_exact and saw_float:
        raise MixedFormatError(
            "document mixes rational and decimal probability literals"
        )

    scc = SCC(universe, rows, allows_empty=allows_empty, exact=not saw_float)
    violations = validate_scc(scc, tol)
    if violations:
        details = "; ".join(
            f"[{v.property_id}] menu {universe.labels_of(v.menu)}: {v.detail}"
            for v in violations[:5]
        )
        raise SchemaError(f"dataset fails validation ({len(violations)} issue(s)): {details}")
    return scc


def scc_to_document(scc: SCC, tol: ToleranceConfig = DEFAULT_TOL) -> dict:
    """Canonical JSON document for an SCC (zero rows omitted)."""
    universe = scc.universe
    menus = []
    for menu in scc.menus():
        cells = [
            {"set": list(universe.labels_of(t)), "p": format_prob(v)}
            for t, v in sorted(scc.rows[menu].items())
            if is_positive(scc, v, tol)
        ]
        menus.append({"menu": list(universe.labels_of(menu)), "rows": cells})
    return {
        "items": list(universe.items),
        "allows_empty": scc.allows_empty,
        "menus": menus,
    }


# ---------------------------------------------------------------------------
# parameter documents


class _Codec(NamedTuple):
    """The document format of one params field, in both directions.

    ``parse(universe, raw, context)`` turns the field's JSON value into its
    params value, naming ``context`` in errors; ``dump(universe, value)``
    writes it back.  ``default`` stands in for a missing key.
    """

    parse: Callable[[Universe, Any, str], Any]
    dump: Callable[[Universe, Any], Any]
    default: Any = None


def _scalar(kind: type, noun: str, parse: Callable, dump: Callable) -> _Codec:
    def parse_raw(universe: Universe, raw: Any, context: str) -> Any:
        if not isinstance(raw, kind) or isinstance(raw, bool):
            raise SchemaError(f"{context}: expected {noun}")
        return parse(raw)

    return _Codec(parse_raw, lambda universe, value: dump(value))


def _prob(noun: str) -> _Codec:
    """A probability literal; ``noun`` is the expected type named in errors."""
    return _scalar(str, noun, lambda raw: parse_prob_literal(raw)[0], format_prob)


def _optional(codec: _Codec) -> _Codec:
    """A field that may be missing or null; None is not written back."""
    return _Codec(
        lambda u, raw, context: None if raw is None else codec.parse(u, raw, context),
        lambda u, value: None if value is None else codec.dump(u, value),
    )


def _label_set(allow_empty: bool) -> _Codec:
    return _Codec(
        lambda u, raw, context: _mask_from_labels(u, raw, context, allow_empty),
        lambda u, mask: list(u.labels_of(mask)),
    )


def _keyed(value: _Codec, by_item: bool) -> _Codec:
    """A JSON object keyed by comma-joined labels: a collection, stored as
    its mask, or with ``by_item`` a single item, stored as its index."""

    def parse(universe: Universe, raw: Any, context: str) -> dict:
        _require_type(raw, dict, context)
        out = {}
        for key, entry in raw.items():
            parsed = value.parse(universe, entry, f"{context}[{key!r}]")
            try:
                mask = universe.mask_of(_labels_from_arg(key))
            except ShapeError as exc:
                raise SchemaError(f"{context}[{key!r}]: {exc}") from None
            if by_item and mask.bit_count() != 1:
                raise SchemaError(f"{context}: keys must be single items")
            out[mask.bit_length() - 1 if by_item else mask] = parsed
        return out

    def dump(universe: Universe, mapping: dict) -> dict:
        return {
            ",".join(universe.labels_of(1 << k if by_item else k)):
                value.dump(universe, v)
            for k, v in sorted(mapping.items())
        }

    return _Codec(parse, dump, {})


def _list(element: _Codec) -> _Codec:
    def parse(universe: Universe, raw: Any, context: str) -> tuple:
        _require_type(raw, list, context)
        return tuple(
            element.parse(universe, e, f"{context}[{i}]") for i, e in enumerate(raw)
        )

    return _Codec(parse, lambda u, values: [element.dump(u, v) for v in values], [])


def _record(cls: type, fields: dict[str, _Codec]) -> _Codec:
    """A JSON object whose keys are field names of the dataclass ``cls``.
    Fields are parsed in the order of ``fields``."""

    def parse(universe: Universe, raw: Any, context: str) -> Any:
        _require_type(raw, dict, context)
        return cls(**{
            name: codec.parse(universe, raw.get(name, codec.default), f"{context}.{name}")
            for name, codec in fields.items()
        })

    def dump(universe: Universe, value: Any) -> dict:
        out = {
            name: codec.dump(universe, getattr(value, name))
            for name, codec in fields.items()
        }
        return {name: raw for name, raw in out.items() if raw is not None}

    return _Codec(parse, dump)


_PROB = _prob("str")
_WEIGHTS = _keyed(_prob("a string literal"), by_item=False)
_ITEM_WEIGHTS = _keyed(_prob("a string literal"), by_item=True)
_CARRIER = _label_set(allow_empty=False)
_INT = _scalar(int, "an integer", int, int)
_NESTS = _list(_CARRIER)  # in document order: nested logit pairs exponents by index

#: The params codec of each model: a record over its ``PARAMS_TYPES`` class.
_PARAMS_CODECS: dict[ModelTag, _Codec] = {
    model: _record(PARAMS_TYPES[model], fields)
    for model, fields in {
        ModelTag.LOGIT: {"weights": _WEIGHTS, "empty_weight": _optional(_PROB)},
        ModelTag.RCG: {"mass": _WEIGHTS},
        ModelTag.IC: {"inclusion": _ITEM_WEIGHTS},
        ModelTag.EBA: {
            "attributes": _list(_record(Aspect, {"weight": _PROB, "carrier": _CARRIER}))
        },
        ModelTag.AR: {
            "attributes": _list(_record(ArAttribute, {
                "weight": _PROB,
                "carrier": _CARRIER,
                "item_values": _keyed(_INT, by_item=True),
            }))
        },
        ModelTag.RRM: {
            "salience": _ITEM_WEIGHTS,
            "constraints": _keyed(_label_set(allow_empty=True), by_item=True),
        },
        ModelTag.NSC: {"nests": _NESTS, "nest_weights": _WEIGHTS},
        ModelTag.NESTED_LOGIT: {
            "nests": _NESTS, "utilities": _ITEM_WEIGHTS, "exponents": _list(_PROB)
        },
    }.items()
}


def parse_params(document: Any) -> tuple[ModelSpec, Universe]:
    """Build a validated ModelSpec (and its universe) from a JSON document."""
    _require_type(document, dict, "document")
    for field in ("model", "items", "params"):
        if field not in document:
            raise SchemaError(f"document: missing {field!r}")
    try:
        model = ModelTag(_require_type(document["model"], str, "model"))
    except ValueError:
        raise SchemaError(f"model: unknown tag {document['model']!r}") from None
    universe = _parse_universe(document["items"])
    empty_variant = document.get("empty_variant", False)
    if not isinstance(empty_variant, bool):
        raise SchemaError("empty_variant: expected a boolean")
    params = _PARAMS_CODECS[model].parse(universe, document["params"], "params")
    spec = ModelSpec(model, params, empty_variant)
    spec.validate(universe)
    return spec, universe


def params_to_document(spec: ModelSpec, universe: Universe) -> dict:
    """Canonical JSON document for a parameter bundle."""
    return {
        "model": spec.model.value,
        "items": list(universe.items),
        "empty_variant": spec.empty_variant,
        "params": _PARAMS_CODECS[spec.model].dump(universe, spec.params),
    }


# ---------------------------------------------------------------------------
# report serialization


def witness_to_json(witness: Witness, universe: Universe) -> dict:
    return {
        "axiom": witness.axiom.value,
        "bindings": {
            name: list(universe.labels_of(mask))
            for name, mask in sorted(witness.bindings.items())
        },
        "lhs": None if witness.lhs is None else format_prob(witness.lhs),
        "rhs": None if witness.rhs is None else format_prob(witness.rhs),
    }


def report_to_json(report: AxiomReport, universe: Universe) -> dict:
    return {
        "axiom": report.axiom.value,
        "holds": report.holds,
        "witnesses": [witness_to_json(w, universe) for w in report.witnesses],
        "instances_checked": report.instances_checked,
        "instances_vacuous": report.instances_vacuous,
        "mode": report.arithmetic_mode,
    }


def classification_to_json(report: ClassificationReport) -> dict:
    return {
        "membership": {
            name: {
                "status": verdict.status,
                "failing_axioms": [a.value for a in verdict.failing_axioms],
            }
            for name, verdict in report.membership.items()
        },
        "special": dict(report.special),
        "relationship_violations": list(report.relationship_violations),
        "assumption_flags": list(report.assumption_flags),
    }


def recovery_to_json(result: RecoveryResult, universe: Universe) -> dict:
    document = params_to_document(result.model_spec, universe)
    document["round_trip_exact"] = result.round_trip_exact
    document["normalization_note"] = result.normalization_note
    return document


def summary_to_json(summary: FuzzSummary) -> dict:
    return {
        "suite": summary.suite,
        "trials": summary.trials,
        "ok": summary.ok,
        "failures": [
            {
                "seed": f.seed,
                "model": f.model,
                "n": f.n,
                "empty_variant": f.empty_variant,
                "stage": f.stage,
                "detail": f.detail,
            }
            for f in summary.failures
        ],
    }


# ---------------------------------------------------------------------------
# counts tables


@dataclass(frozen=True)
class CountsTable:
    """Accumulated observation counts per (menu, collection) pair.

    The universe is inferred from the labels appearing in menus; duplicate
    rows accumulate.
    """

    universe: Universe
    counts: dict[tuple[int, int], int]


def parse_counts(text: str) -> CountsTable:
    """Parse a `menu;set;count` CSV (fields are comma-separated label lists)."""
    reader = csv.reader(io.StringIO(text), delimiter=";")
    try:
        header = next(reader)
    except StopIteration:
        raise SchemaError("counts table is empty") from None
    if [h.strip() for h in header] != ["menu", "set", "count"]:
        raise SchemaError("counts table must start with header 'menu;set;count'")

    raw: list[tuple[int, list[str], list[str], int]] = []
    labels: set[str] = set()
    for record in reader:
        line_no = reader.line_num  # a quoted field may span file lines
        if not record or (len(record) == 1 and not record[0].strip()):
            continue
        if len(record) != 3:
            raise SchemaError(f"line {line_no}: expected 3 fields, got {len(record)}")
        menu_labels = _labels_from_arg(record[0])
        set_labels = _labels_from_arg(record[1])
        if not menu_labels:
            raise SchemaError(f"line {line_no}: menu must be non-empty")
        try:
            count = int(record[2].strip())
        except ValueError:
            raise SchemaError(
                f"line {line_no}: count must be an integer, got {record[2]!r}"
            ) from None
        if count < 0:
            raise SchemaError(f"line {line_no}: count must be non-negative")
        labels.update(menu_labels)
        raw.append((line_no, menu_labels, set_labels, count))

    universe = Universe.from_labels(sorted(labels))
    counts: dict[tuple[int, int], int] = {}
    for line_no, menu_labels, set_labels, count in raw:
        try:
            menu = universe.mask_of(menu_labels)
            collection = universe.mask_of(set_labels)
        except ShapeError as exc:
            raise SchemaError(f"line {line_no}: {exc}") from None
        if collection & ~menu:
            raise SchemaError(
                f"line {line_no}: set "
                f"{universe.labels_of(collection)} is not contained in menu "
                f"{universe.labels_of(menu)}"
            )
        key = (menu, collection)
        counts[key] = counts.get(key, 0) + count
    return CountsTable(universe, counts)


def estimate_from_counts(table: CountsTable) -> SCC:
    """Per-menu frequencies as a float-mode SCC.

    Menus absent from the table are absent from the SCC; a menu whose counts
    sum to zero is an error.  The empty collection is allowed iff some row
    mentions it.
    """
    totals: dict[int, int] = {}
    for (menu, _), count in table.counts.items():
        totals[menu] = totals.get(menu, 0) + count
    for menu, total in sorted(totals.items()):
        if total == 0:
            raise ZeroTotalMenuError(
                f"menu {table.universe.labels_of(menu)} has zero total count"
            )
    allows_empty = any(collection == 0 for (_, collection) in table.counts)
    rows: dict[int, dict[int, Prob]] = {menu: {} for menu in totals}
    for (menu, collection), count in table.counts.items():
        if count > 0:
            rows[menu][collection] = count / totals[menu]
    return SCC(table.universe, rows, allows_empty=allows_empty, exact=False)


# ---------------------------------------------------------------------------
# command-line front end

_EXIT_OK = 0
_EXIT_FINDINGS = 1
_EXIT_USAGE = 2


def _emit(payload: Any, output: Optional[str]) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if output and output != "-":
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return handle.read()
        except UnicodeDecodeError as exc:
            raise SchemaError(f"{path}: not valid UTF-8 ({exc})") from None


def _load_json(path: str) -> Any:
    try:
        return json.loads(_read_text(path))
    except (json.JSONDecodeError, RecursionError) as exc:
        raise SchemaError(f"{path}: not valid JSON ({exc})") from None


def _tolerance(args: argparse.Namespace) -> ToleranceConfig:
    tol = getattr(args, "tol", None)
    if tol is None:
        return DEFAULT_TOL
    if not 0 < tol < math.inf:
        raise SchemaError(f"--tol must be positive and finite, got {tol}")
    return ToleranceConfig(eps_eq=tol)


def _parse_axiom_list(text: str) -> list[AxiomId]:
    out = []
    for token in _labels_from_arg(text):
        try:
            out.append(AxiomId(token.upper()))
        except ValueError:
            raise SchemaError(f"unknown axiom {token!r}") from None
    if not out:
        raise SchemaError("no axioms requested")
    return out


def _parse_variant(token: str) -> tuple[ModelTag, bool]:
    name, empty = (token[:-2], True) if token.endswith("_o") else (token, False)
    try:
        return ModelTag(name), empty
    except ValueError:
        raise SchemaError(f"unknown model tag {token!r}") from None


def _cmd_gen(args: argparse.Namespace) -> int:
    spec, universe = parse_params(_load_json(args.params))
    if args.model is not None:
        tag, flagged_empty = _parse_variant(args.model)
        if tag is not spec.model:
            raise SchemaError(
                f"--model {args.model} disagrees with params file "
                f"({spec.model.value})"
            )
        if flagged_empty:
            args.empty = True
    if args.empty and not spec.empty_variant:
        spec = ModelSpec(spec.model, spec.params, empty_variant=True)
        spec.validate(universe)
    scc = generate_scc(spec, universe)
    _emit(scc_to_document(scc), args.output)
    return _EXIT_OK


def _cmd_eval(args: argparse.Namespace) -> int:
    spec, universe = parse_params(_load_json(args.params))
    menu = universe.mask_of(_labels_from_arg(args.menu))
    if menu == 0:
        raise SchemaError("--menu must be non-empty")
    row = menu_row(spec, menu)
    if args.collection is None:
        payload: Any = {
            "menu": list(universe.labels_of(menu)),
            "rows": [
                {"set": list(universe.labels_of(t)), "p": format_prob(v)}
                for t, v in sorted(row.items())
            ],
        }
    else:
        collection = universe.mask_of(_labels_from_arg(args.collection))
        if collection & ~menu:
            raise SchemaError("--set must be contained in --menu")
        if collection == 0 and not spec.empty_variant:
            raise SchemaError(
                "--set may be empty only for an empty-collection variant"
            )
        zero: Prob = Fraction(0) if spec.is_exact() else 0.0
        payload = {
            "menu": list(universe.labels_of(menu)),
            "set": list(universe.labels_of(collection)),
            "p": format_prob(row.get(collection, zero)),
        }
    _emit(payload, args.output)
    return _EXIT_OK


def _cmd_check(args: argparse.Namespace) -> int:
    tol = _tolerance(args)
    if args.witness_cap < 1:
        raise SchemaError(f"--witness-cap must be at least 1, got {args.witness_cap}")
    scc = parse_scc(_load_json(args.scc), tol)
    if args.axioms.strip().lower() == "all":
        reports = full_battery(scc, tol, cap=args.witness_cap)
    else:
        reports = [
            cached_report(scc, axiom, tol, cap=args.witness_cap)
            for axiom in _parse_axiom_list(args.axioms)
        ]
    _emit({"reports": [report_to_json(r, scc.universe) for r in reports]}, args.output)
    return _EXIT_OK if all(r.holds for r in reports) else _EXIT_FINDINGS


_AUTO_ORDER = ("logit", "rcg", "ic", "rrm", "nsc")


def _cmd_identify(args: argparse.Namespace) -> int:
    tol = _tolerance(args)
    scc = parse_scc(_load_json(args.scc), tol)
    token = args.model.strip().lower()
    if token == "auto":
        attempts = []
        for name in _AUTO_ORDER:
            try:
                result = RECOVERIES[name](scc, tol=tol)
            except ScclabError as exc:
                attempts.append({"model": name, "error": str(exc)})
                continue
            payload = recovery_to_json(result, scc.universe)
            payload["identified"] = True
            _emit(payload, args.output)
            return _EXIT_OK
        _emit({"identified": False, "attempts": attempts}, args.output)
        return _EXIT_FINDINGS
    empty = token.endswith("_o")
    model = token[:-2] if empty else token
    if model not in RECOVERIES or (empty and model not in EMPTY_CAPABLE):
        raise SchemaError(f"unknown identification target {args.model!r}")
    try:
        if empty:
            result = RECOVERIES[model](scc, empty_variant=True, tol=tol)
        else:
            result = RECOVERIES[model](scc, tol=tol)
    except PreconditionFailedError as exc:
        payload = {"identified": False, "error": str(exc)}
        if exc.report is not None:
            payload["precondition"] = report_to_json(exc.report, scc.universe)
        _emit(payload, args.output)
        return _EXIT_FINDINGS
    payload = recovery_to_json(result, scc.universe)
    payload["identified"] = True
    _emit(payload, args.output)
    return _EXIT_OK


def _cmd_classify(args: argparse.Namespace) -> int:
    tol = _tolerance(args)
    scc = parse_scc(_load_json(args.scc), tol)
    report = classify(scc, tol=tol)
    _emit(classification_to_json(report), args.output)
    any_membership = any(v.status == HOLDS for v in report.membership.values())
    ok = any_membership and not report.relationship_violations
    return _EXIT_OK if ok else _EXIT_FINDINGS


def _cmd_fuzz(args: argparse.Namespace) -> int:
    try:
        n_values = [int(tok) for tok in _labels_from_arg(args.n)]
    except ValueError:
        raise SchemaError(f"--n must list integers, got {args.n!r}") from None
    if not n_values:
        raise SchemaError("--n must list at least one universe size")
    if args.trials < 1:
        raise SchemaError(f"--trials must be at least 1, got {args.trials}")
    token = args.model.strip().lower()
    summaries: list[FuzzSummary] = []
    if token == "all":
        for index, (model, empty) in enumerate(ALL_VARIANTS):
            summaries.append(
                fuzz_characterization(
                    model, args.trials, n_values, args.seed + index,
                    empty_variant=empty,
                )
            )
        summaries.append(
            fuzz_relationships(args.trials, n_values, args.seed + len(ALL_VARIANTS))
        )
    elif token == "relationships":
        summaries.append(fuzz_relationships(args.trials, n_values, args.seed))
    else:
        model, empty = _parse_variant(token)
        summaries.append(
            fuzz_characterization(
                model, args.trials, n_values, args.seed, empty_variant=empty
            )
        )
    _emit({"summaries": [summary_to_json(s) for s in summaries]}, args.output)
    return _EXIT_OK if all(s.ok for s in summaries) else _EXIT_FINDINGS


def _cmd_estimate(args: argparse.Namespace) -> int:
    scc = estimate_from_counts(parse_counts(_read_text(args.counts)))
    _emit(scc_to_document(scc), args.output)
    return _EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scclab",
        description=(
            "Exact laboratory for stochastic choice correspondences: generate "
            "model datasets, check axioms, recover parameters, classify."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate an SCC from a parameter bundle")
    gen.add_argument("--model", help="model tag (cross-checked against the file)")
    gen.add_argument("--params", required=True, help="parameter JSON file")
    gen.add_argument("--empty", action="store_true",
                     help="use the empty-collection variant")
    gen.add_argument("-o", "--output", help="output file (default stdout)")

    ev = sub.add_parser("eval", help="evaluate one menu row or one probability")
    ev.add_argument("--params", required=True, help="parameter JSON file")
    ev.add_argument("--menu", required=True, help="comma-separated labels")
    ev.add_argument("--set", dest="collection", help="comma-separated labels")
    ev.add_argument("-o", "--output")

    check = sub.add_parser("check", help="run axiom checks on a dataset")
    check.add_argument("scc", help="SCC JSON file")
    check.add_argument("--axioms", required=True,
                       help="comma-separated axiom ids, or 'all'")
    check.add_argument("--tol", type=float, help="equality tolerance (float mode)")
    check.add_argument("--witness-cap", type=int, default=WITNESS_CAP)
    check.add_argument("-o", "--output")

    ident = sub.add_parser("identify", help="recover model parameters")
    ident.add_argument("scc", help="SCC JSON file")
    ident.add_argument("--model", required=True, help="model tag or 'auto'")
    ident.add_argument("--tol", type=float)
    ident.add_argument("-o", "--output")

    cls = sub.add_parser("classify", help="full membership classification")
    cls.add_argument("scc", help="SCC JSON file")
    cls.add_argument("--tol", type=float)
    cls.add_argument("-o", "--output")

    fz = sub.add_parser("fuzz", help="seeded property sweeps")
    fz.add_argument("--model", required=True,
                    help="model tag, tag_o, 'relationships', or 'all'")
    fz.add_argument("--trials", type=int, required=True)
    fz.add_argument("--n", default="3,4", help="comma-separated universe sizes")
    fz.add_argument("--seed", type=int, required=True)
    fz.add_argument("-o", "--output")

    est = sub.add_parser("estimate", help="frequencies from a counts CSV")
    est.add_argument("counts", help="counts CSV file (menu;set;count)")
    est.add_argument("-o", "--output")

    return parser


_DISPATCH = {
    "gen": _cmd_gen,
    "eval": _cmd_eval,
    "check": _cmd_check,
    "identify": _cmd_identify,
    "classify": _cmd_classify,
    "fuzz": _cmd_fuzz,
    "estimate": _cmd_estimate,
}

# Built once: parse_args leaves it unchanged, and building it costs about
# 2 ms (argparse formatters and gettext lookups), a share of every command.
_PARSER = _build_parser()


def cli_main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else _EXIT_USAGE
    try:
        return _DISPATCH[args.command](args)
    except ScclabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_USAGE


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
