"""File formats, count-based estimation, and the command-line front end.

External artifacts are label-based (bitmasks never leak into files) and
probabilities travel as strings — "num/den" or a bare integer for exact
values, a decimal/exponent literal for float values — because JSON numbers
cannot carry rationals.  Serialization is canonical: sorted keys, menus and
collections in ascending mask order, zero rows omitted.  Identical inputs
therefore produce byte-identical output.  Every command writes through one
printer, whose bytes are those of ``json.dumps(payload, indent=2,
sort_keys=True)``, and an SCC document is written one menu at a time.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from contextlib import nullcontext
from dataclasses import asdict, dataclass
from fractions import Fraction
from functools import lru_cache
from json.encoder import encode_basestring_ascii as _encode
from typing import Any, Callable, Iterator, NamedTuple, Optional, Sequence, Union

from .axioms import (
    CHARACTERIZING_AXIOMS,
    SELF_CHARACTERIZED,
    WITNESS_CAP,
    AxiomId,
    AxiomReport,
    Witness,
    cached_report,
    cached_scaled_rows,
    characterizing_axioms,
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
    WrongVariantError,
    ZeroTotalMenuError,
    is_positive,
    lowest_terms,
    require_complete,
    validate_rows,
)
from .fuzz import ALL_VARIANTS, FuzzSummary, fuzz_characterization, fuzz_relationships
from .identify import RECOVERIES, RecoveryResult
from .models import (
    PARAMS_TYPES,
    ArAttribute,
    Aspect,
    ModelSpec,
    ModelTag,
    evaluate,
    generate_scc,
    menu_row,
    parse_variant,
)

# ---------------------------------------------------------------------------
# probability literals


def _literal(text: str) -> Union[tuple[int, int], float]:
    """A probability string as a ``(numerator, denominator)`` pair of ints,
    the denominator positive, if it is exact, or as a float.

    "num/den" and bare integers are exact; any literal containing a decimal
    point or exponent is a float.  Everything else is a schema error.  A
    "num/den" or an integer of plain ASCII digits is read with ``int``, and
    the pair is not reduced; any other exact literal reaches ``Fraction``'s
    own parser (or, for an integer, ``int``'s), which decides its value or
    its error, as it does for a zero denominator.  :func:`parse_scc` reads
    the common spellings itself and hands this the rest, and every refusal.
    """
    token = text.strip()
    num, slash, den = token.partition("/")
    try:
        if slash and token.isascii() and num.isdigit() and den.isdigit():
            pair = int(num), int(den)
            if not pair[1]:
                Fraction(*pair)  # raises the ZeroDivisionError quoted below
            return pair
        if slash:
            value = Fraction(token)
            return value.numerator, value.denominator
        if any(c in token for c in ".eE"):
            value = float(token)
            if not math.isfinite(value):
                raise ValueError("not finite")
            return value
        return int(token), 1
    except (ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"invalid probability literal {text!r}: {exc}") from None


def parse_prob_literal(text: str) -> tuple[Prob, bool]:
    """Parse a probability string into ``(value, is_exact)``, an exact value
    as a Fraction (see :func:`_literal`)."""
    value = _literal(text)
    if isinstance(value, tuple):
        return Fraction(*value), True
    return value, False


def _exact_literal(numerator: int, denominator: int) -> str:
    """An exact value in lowest terms as it is written: "num/den", or the
    bare integer when den is 1, as ``str(Fraction)`` writes it."""
    return f"{numerator}/{denominator}" if denominator != 1 else str(numerator)


def format_prob(value: Prob) -> str:
    if isinstance(value, Fraction):
        return _exact_literal(*value.as_integer_ratio())
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


def parse_scc(document: Any) -> SCC:
    """Build an SCC from a parsed JSON document.

    The SCC is exact iff every probability is rational-formatted; mixing
    rational and decimal literals in one document is rejected.  A literal
    is decoded where it is read, an ASCII "num/den" or bare integer with a
    nonzero denominator as a pair of ints and one with a "." and no "/" as a
    finite float; any other, or one ``int`` or ``float`` refuses, goes to
    :func:`_literal`.  The rows are decided on the pairs and scaled by
    :func:`~scclab.core.validate_rows`, so no Fraction is built: the SCC's
    Fraction rows are built from its scaled rows when read
    (:class:`~scclab.core.FractionRows`).  The rows must pass validation,
    otherwise the violation list is reported as a schema error.
    """
    _require_type(document, dict, "document")
    if "items" not in document:
        raise SchemaError("document: missing 'items'")
    universe = _parse_universe(document["items"])
    allows_empty = document.get("allows_empty", False)
    if not isinstance(allows_empty, bool):
        raise SchemaError("allows_empty: expected a boolean")
    menus_field = _require_type(document.get("menus", []), list, "menus")
    sets: dict[tuple, int] = {}  # the mask of each collection label list accepted

    rows: dict[int, dict[int, Any]] = {}
    isfinite = math.isfinite
    for mi, entry in enumerate(menus_field):
        context = f"menus[{mi}]"
        _require_type(entry, dict, context)
        labels = entry.get("menu")
        try:  # as a cell's set below; an empty list takes _mask_from_labels' refusal
            menu = sets[tuple(labels) if isinstance(labels, list) and labels else None]
        except (KeyError, TypeError):
            menu = _mask_from_labels(universe, labels, f"{context}.menu", allow_empty=False)
            sets[tuple(labels)] = menu
        if menu in rows:
            raise SchemaError(f"{context}: duplicate menu {universe.labels_of(menu)}")
        row: dict[int, Any] = {}
        cells = _require_type(entry.get("rows", []), list, f"{context}.rows")
        # a cell's context is built only for its error: _require_type's rule
        # for a dict, which no bool passes, is isinstance alone
        for ri, cell in enumerate(cells):
            if not isinstance(cell, dict):
                raise SchemaError(f"{context}.rows[{ri}]: expected dict")
            labels = cell.get("set")
            try:  # a list seen before; KeyError if unseen, TypeError if unhashable
                collection = sets[tuple(labels) if isinstance(labels, list) else None]
            except (KeyError, TypeError):
                collection = _mask_from_labels(universe, labels, f"{context}.rows[{ri}].set")
                sets[tuple(labels)] = collection
            if collection in row:
                raise SchemaError(
                    f"{context}.rows[{ri}]: duplicate set {universe.labels_of(collection)}"
                )
            literal = cell.get("p")
            if not isinstance(literal, str):
                raise SchemaError(f"{context}.rows[{ri}].p: expected a string")
            try:  # the common spellings decoded here; _literal reads or refuses the rest
                if "." in literal and "/" not in literal:
                    value = float(literal)
                    if not isfinite(value):
                        raise ValueError
                else:  # "num/den", or a bare integer over 1
                    num, slash, den = literal.partition("/")
                    if not (literal.isascii() and num.isdigit() and (den.isdigit() or not slash)):
                        raise ValueError
                    value = int(num), int(den or 1)
                    if not value[1]:
                        raise ValueError
            except ValueError:
                value = _literal(literal)
            row[collection] = value
        rows[menu] = row
    # the mode of the first value: a document that mixes modes fails validation
    exact = isinstance(next((v for row in rows.values() for v in row.values()), ()), tuple)
    violations, scaled = validate_rows(rows, universe.full_mask, allows_empty, exact)
    if violations:
        if len({type(v) for row in rows.values() for v in row.values()}) > 1:
            raise MixedFormatError("document mixes rational and decimal probability literals")
        details = "; ".join(
            f"[{v.property_id}] menu {universe.labels_of(v.menu)}: {v.detail}"
            for v in violations[:5]
        )
        raise SchemaError(f"dataset fails validation ({len(violations)} issue(s)): {details}")
    if scaled is None:
        return SCC(universe, rows, allows_empty=allows_empty, exact=False)
    return SCC.from_scaled(universe, *scaled, allows_empty)


class _Memo(dict):
    """A dict that fills a missing key with ``make(key)``."""

    def __init__(self, make: Callable[[Any], Any]):
        super().__init__()
        self.make = make

    def __missing__(self, key: Any) -> Any:
        value = self[key] = self.make(key)
        return value


@lru_cache(maxsize=16)
def _labels(universe: Universe) -> _Memo:
    """The one memo of a universe's label tuple of each mask."""
    return _Memo(universe.labels_of)


def _menus(scc: SCC) -> Iterator[tuple[int, list[tuple[int, str]]]]:
    """An SCC document's menus, the one statement of what it records: each
    menu in ascending mask order, with its positive cells (zero support
    omitted) as ``(collection, literal)`` pairs in ascending collection
    order.  The cells are read from :func:`~scclab.axioms.cached_scaled_rows`:
    an exact cell is written in lowest terms (:func:`~scclab.core.lowest_terms`)
    and a float cell by :func:`format_prob`.  Both :func:`scc_to_document`
    and :func:`_scc_chunks` read it."""
    rows, dens = cached_scaled_rows(scc)
    for menu in scc.menus():
        cells = sorted((t, c) for t, c in rows[menu].items() if is_positive(scc, c))
        if scc.exact:
            yield menu, [(t, _exact_literal(n, d)) for t, n, d in lowest_terms(cells, dens[menu])]
        else:
            yield menu, [(t, format_prob(p)) for t, p in cells]


def scc_to_document(scc: SCC) -> dict:
    """Canonical JSON document for an SCC (cells that are zero support
    omitted); the CLI writes the same document menu by menu (:func:`_emit`)."""
    labels = _labels(scc.universe)
    return {
        "items": list(scc.universe.items),
        "allows_empty": scc.allows_empty,
        "menus": [
            {
                "menu": list(labels[menu]),
                "rows": [{"set": list(labels[t]), "p": p} for t, p in cells],
            }
            for menu, cells in _menus(scc)
        ],
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
    labels = _labels(universe)
    return {
        "axiom": witness.axiom.value,
        "bindings": {
            name: list(labels[mask]) for name, mask in sorted(witness.bindings.items())
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
        "failures": [asdict(f) for f in summary.failures],
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


def _csv_records(reader: Any) -> Iterator[list[str]]:
    """The reader's records; a line it cannot read (a field past the csv
    module's size limit, say) is a SchemaError naming the line."""
    try:
        yield from reader
    except csv.Error as exc:
        raise SchemaError(f"line {reader.line_num}: {exc}") from None


def parse_counts(text: str) -> CountsTable:
    """Parse a `menu;set;count` CSV (fields are comma-separated label lists)."""
    reader = csv.reader(io.StringIO(text), delimiter=";")
    records = _csv_records(reader)
    try:
        header = next(records)
    except StopIteration:
        raise SchemaError("counts table is empty") from None
    if [h.strip() for h in header] != ["menu", "set", "count"]:
        raise SchemaError("counts table must start with header 'menu;set;count'")

    raw: list[tuple[int, list[str], list[str], int]] = []
    labels: set[str] = set()
    for record in records:
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
# JSON output: one printer, and SCC documents written menu by menu


#: The line break and indent that open a line at each depth, made once.
_INDENT = _Memo(lambda depth: "\n" + "  " * depth)
_SCALARS = json.JSONEncoder()


def _print(value: Any, depth: int, out: list[str]) -> None:
    """Append to ``out`` the text of ``value`` (str-keyed dicts, lists and
    tuples of JSON values) at nesting ``depth``, as
    ``json.dumps(value, indent=2, sort_keys=True)`` writes it: strings and
    keys through the stdlib's C ``encode_basestring_ascii``, ints by
    ``int.__repr__`` as the stdlib does, and any other scalar (a float, say)
    by the stdlib encoder itself."""
    if isinstance(value, str):
        out.append(_encode(value))
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = _INDENT[depth + 1]
        lead = "{" + inner
        for key, item in sorted(value.items()):
            out.append(f"{lead}{_encode(key)}: ")
            _print(item, depth + 1, out)
            lead = "," + inner
        out.append(_INDENT[depth] + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = _INDENT[depth + 1]
        try:  # a list of strings, a label list say, in one join
            out.append(f"[{inner}{(',' + inner).join(map(_encode, value))}{_INDENT[depth]}]")
            return
        except TypeError:  # an item that is not a string
            pass
        lead = "[" + inner
        for item in value:
            out.append(lead)
            _print(item, depth + 1, out)
            lead = "," + inner
        out.append(_INDENT[depth] + "]")
    elif value is None or value is True or value is False:
        out.append("null" if value is None else "true" if value else "false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    else:
        out.append(_SCALARS.encode(value))


def _text(value: Any, depth: int = 0) -> str:
    out: list[str] = []
    _print(value, depth, out)
    return "".join(out)


def _scc_chunks(scc: SCC) -> Iterator[str]:
    """The text of ``scc_to_document(scc)`` as :func:`_print` writes it, one
    chunk per menu of :func:`_menus`: each collection's label list is
    printed once, and no chunk holds more than one menu's text."""
    universe = scc.universe
    labels = _labels(universe)
    sets = _Memo(lambda t: _text(labels[t], 5))  # a cell's "set" sits at depth 5
    i1, i2, i3, i4, i5 = (_INDENT[d] for d in range(1, 6))
    yield (
        f'{{{i1}"allows_empty": {_text(scc.allows_empty)},'
        f'{i1}"items": {_text(universe.items, 1)},{i1}"menus": ['
    )
    lead = i2
    for menu, cells in _menus(scc):
        rows = f",{i4}".join(
            f'{{{i5}"p": {_encode(p)},{i5}"set": {sets[t]}{i4}}}' for t, p in cells
        )
        rows = f"[{i4}{rows}{i3}]" if cells else "[]"
        yield f'{lead}{{{i3}"menu": {_text(labels[menu], 3)},{i3}"rows": {rows}{i2}}}'
        lead = "," + i2
    yield ("]" if lead == i2 else i1 + "]") + "\n}"


def _emit(payload: Any, output: Optional[str]) -> None:
    """The one writer of command output: ``payload`` and a newline, written
    to the file ``output`` or to stdout (None or "-") as
    ``json.dumps(payload, indent=2, sort_keys=True)`` writes it.  An SCC is
    written as its document, :func:`scc_to_document`, one menu at a time,
    so no text or document of a whole SCC is held."""
    chunks = _scc_chunks(payload) if isinstance(payload, SCC) else [_text(payload)]
    to_file = output and output != "-"
    with open(output, "w", encoding="utf-8") if to_file else nullcontext(sys.stdout) as handle:
        for chunk in chunks:
            handle.write(chunk)
        handle.write("\n")


# ---------------------------------------------------------------------------
# command-line front end

_EXIT_OK = 0
_EXIT_FINDINGS = 1
_EXIT_USAGE = 2


def _read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return handle.read()
        except UnicodeDecodeError as exc:
            raise SchemaError(f"{path}: not valid UTF-8 ({exc})") from None


def _load_json(path: str) -> Any:
    # ValueError covers JSONDecodeError and a number past Python's digit limit
    try:
        return json.loads(_read_text(path))
    except (ValueError, RecursionError) as exc:
        raise SchemaError(f"{path}: not valid JSON ({exc})") from None


def _tolerance(args: argparse.Namespace) -> ToleranceConfig:
    try:
        return DEFAULT_TOL if args.tol is None else ToleranceConfig(eps_eq=args.tol)
    except ValueError:
        raise SchemaError(f"--tol must be positive and finite, got {args.tol}") from None


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


def _cmd_gen(args: argparse.Namespace) -> int:
    spec, universe = parse_params(_load_json(args.params))
    _emit(generate_scc(spec, universe), args.output)
    return _EXIT_OK


def _cmd_eval(args: argparse.Namespace) -> int:
    spec, universe = parse_params(_load_json(args.params))
    menu = universe.mask_of(_labels_from_arg(args.menu))
    payload: Any = {"menu": list(universe.labels_of(menu))}
    if args.collection is None:
        payload["rows"] = [
            {"set": list(universe.labels_of(t)), "p": format_prob(v)}
            for t, v in sorted(menu_row(spec, universe, menu).items())
        ]
    else:
        collection = universe.mask_of(_labels_from_arg(args.collection))
        payload["set"] = list(universe.labels_of(collection))
        payload["p"] = format_prob(evaluate(spec, universe, collection, menu))
    _emit(payload, args.output)
    return _EXIT_OK


def _cmd_check(args: argparse.Namespace) -> int:
    tol = _tolerance(args)
    if args.witness_cap < 1:
        raise SchemaError(f"--witness-cap must be at least 1, got {args.witness_cap}")
    scc = parse_scc(_load_json(args.scc))
    if args.axioms.strip().lower() == "all":
        reports = full_battery(scc, tol, cap=args.witness_cap)
    else:
        reports = [
            cached_report(scc, axiom, tol, cap=args.witness_cap)
            for axiom in _parse_axiom_list(args.axioms)
        ]
    _emit({"reports": [report_to_json(r, scc.universe) for r in reports]}, args.output)
    return _EXIT_OK if all(r.holds for r in reports) else _EXIT_FINDINGS


def _cmd_identify(args: argparse.Namespace) -> int:
    tol = _tolerance(args)
    scc = parse_scc(_load_json(args.scc))
    token = args.model.strip().lower()
    if token == "auto":
        require_complete(scc)
        attempts = []
        for model in SELF_CHARACTERIZED:
            try:
                result = RECOVERIES[model](scc, tol=tol)
                break
            except ScclabError as exc:
                attempts.append({"model": model.value, "error": str(exc)})
        else:
            _emit({"identified": False, "attempts": attempts}, args.output)
            return _EXIT_FINDINGS
    else:
        try:
            target = parse_variant(token)
        except SchemaError:
            target = None
        if target not in CHARACTERIZING_AXIOMS:
            raise SchemaError(f"unknown identification target {args.model!r}")
        model, empty = target
        if empty and not scc.allows_empty:
            raise WrongVariantError(
                "requested variant does not match the SCC's empty-collection flag"
            )
        # eba, ar and nested_logit recover through rcg and nsc: refuse the tag asked for
        characterizing_axioms(model, scc.allows_empty)
        try:
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
    scc = parse_scc(_load_json(args.scc))
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
    if token == "all":
        suites = [*ALL_VARIANTS, "relationships"]
    elif token == "relationships":
        suites = [token]
    else:
        suites = [parse_variant(token)]
    summaries = [
        fuzz_relationships(args.trials, n_values, seed)
        if suite == "relationships"
        else fuzz_characterization(suite[0], args.trials, n_values, seed, suite[1])
        for seed, suite in enumerate(suites, start=args.seed)
    ]
    _emit({"summaries": [summary_to_json(s) for s in summaries]}, args.output)
    return _EXIT_OK if all(s.ok for s in summaries) else _EXIT_FINDINGS


def _cmd_estimate(args: argparse.Namespace) -> int:
    _emit(estimate_from_counts(parse_counts(_read_text(args.counts))), args.output)
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
    gen.add_argument("--params", required=True, help="parameter JSON file")
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
    ident.add_argument("--tol", type=float, help="equality tolerance (float mode)")
    ident.add_argument("-o", "--output")

    cls = sub.add_parser("classify", help="full membership classification")
    cls.add_argument("scc", help="SCC JSON file")
    cls.add_argument("--tol", type=float, help="equality tolerance (float mode)")
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
    except (ScclabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_USAGE
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return _EXIT_USAGE


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
