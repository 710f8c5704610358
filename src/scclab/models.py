"""Parameter bundles and exact evaluators for the eight parametric models.

Every model induces a stochastic choice correspondence over a universe; the
evaluators here compute single probabilities, and :func:`generate_scc` builds
the complete SCC (one row per menu/collection pair in the model's support).

All arithmetic is exact (Fractions) unless a nested-logit bundle carries a
non-integer exponent, in which case evaluation degrades to float mode and the
generated SCC records that in ``mode_notes``.

Empty-collection variants exist for three models and are selected with an
``empty_variant`` flag rather than separate classes: the set-weight (logit)
model extends its normalizer over the empty collection, the random-category
model drops its normalizer, and the independent-inclusion model drops its
conditioning on a non-empty draw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Union

from .core import (
    SCC,
    InvalidParamsError,
    MissingWeightError,
    Prob,
    ShapeError,
    Universe,
    bits,
    nonempty_submasks,
)

Weight = Union[Fraction, float]


class ModelTag(str, Enum):
    LOGIT = "logit"
    RCG = "rcg"
    IC = "ic"
    EBA = "eba"
    AR = "ar"
    RRM = "rrm"
    NSC = "nsc"
    NESTED_LOGIT = "nested_logit"


#: Models that have an empty-collection variant.
EMPTY_CAPABLE = frozenset({ModelTag.LOGIT, ModelTag.RCG, ModelTag.IC})


def _require_subset(collection: int, menu: int) -> None:
    if collection & ~menu:
        raise ShapeError("collection is not a subset of the menu")


def _is_exact(value: Weight) -> bool:
    return isinstance(value, (Fraction, int))


def _div(num: Weight, den: Weight) -> Weight:
    """Division that never silently drops into floats: int/int stays exact."""
    if _is_exact(num) and _is_exact(den):
        return Fraction(num) / Fraction(den)
    return num / den


def _sums_to_one(total: Weight) -> bool:
    """Exact totals must equal 1; float totals get a small rounding margin."""
    if _is_exact(total):
        return total == 1
    return math.isclose(total, 1.0, rel_tol=1e-9, abs_tol=1e-9)


@dataclass(frozen=True)
class LogitParams:
    """Set-weight model: each non-empty collection T carries a weight.

    mu(T, S) = weight(T) / sum of weight(T') over non-empty T' in S.  The
    empty-collection variant extends the sum over T' = empty as well, which
    requires the explicit ``empty_weight`` (the standard bundle never defines
    a weight for the empty collection, so it must be supplied, not guessed).
    """

    weights: dict[int, Weight]
    empty_weight: Weight | None = None

    def validate(self, universe: Universe, empty_variant: bool = False) -> None:
        full = universe.full_mask
        expected = (1 << universe.n) - 1
        if len(self.weights) != expected:
            raise MissingWeightError(
                f"set weights must cover all {expected} non-empty collections, "
                f"got {len(self.weights)}"
            )
        for coll, w in self.weights.items():
            if coll == 0 or coll & ~full:
                raise InvalidParamsError(f"invalid collection key {coll}")
            if w <= 0:
                raise InvalidParamsError(f"weight of collection {coll} must be positive")
        if empty_variant:
            if self.empty_weight is None:
                raise MissingWeightError(
                    "empty-collection variant requires an explicit empty_weight"
                )
            if self.empty_weight < 0:
                raise InvalidParamsError("empty_weight must be non-negative")

    def is_exact(self) -> bool:
        return all(_is_exact(w) for w in self.weights.values()) and (
            self.empty_weight is None or _is_exact(self.empty_weight)
        )


@dataclass(frozen=True)
class RCGParams:
    """Random-category model: a probability distribution over categories.

    A category C is drawn with probability mass(C) and the choice is C
    intersected with the menu.  The standard variant conditions on a
    non-empty intersection; the empty variant does not, so the empty
    collection absorbs the mass of categories disjoint from the menu.
    """

    mass: dict[int, Weight]

    def validate(self, universe: Universe, empty_variant: bool = False) -> None:
        full = universe.full_mask
        covered = 0
        total: Weight = Fraction(0)
        for cat, m in self.mass.items():
            if cat == 0 or cat & ~full:
                raise InvalidParamsError(f"invalid category key {cat}")
            if m <= 0:
                raise InvalidParamsError(f"mass of category {cat} must be positive")
            covered |= cat
            total = total + m
        if not _sums_to_one(total):
            raise InvalidParamsError(f"category masses must sum to 1, got {total}")
        if covered != full:
            missing = universe.labels_of(full & ~covered)
            raise InvalidParamsError(f"items {missing} belong to no category")

    def is_exact(self) -> bool:
        return all(_is_exact(m) for m in self.mass.values())


@dataclass(frozen=True)
class ICParams:
    """Independent-inclusion model: each item enters the chosen collection
    independently with its own inclusion probability in (0, 1).

    The standard variant conditions on the drawn collection being non-empty;
    the empty variant reports the raw product probabilities.
    """

    inclusion: dict[int, Weight]

    def validate(self, universe: Universe, empty_variant: bool = False) -> None:
        if sorted(self.inclusion) != list(range(universe.n)):
            raise InvalidParamsError(
                "inclusion probabilities must be defined for every item index"
            )
        for i, g in self.inclusion.items():
            if not (0 < g < 1):
                raise InvalidParamsError(
                    f"inclusion probability of item {i} must lie strictly in (0, 1)"
                )

    def is_exact(self) -> bool:
        return all(_is_exact(g) for g in self.inclusion.values())


@dataclass(frozen=True)
class Aspect:
    """One attribute: an attention weight and the set of items carrying it."""

    weight: Weight
    carrier: int


@dataclass(frozen=True)
class EBAParams:
    """Elimination-by-aspects (static): an attribute is drawn by weight and
    the choice is its carrier intersected with the menu, conditioned on that
    intersection being non-empty.  Weights sum to 1; every item carries at
    least one attribute.
    """

    attributes: tuple[Aspect, ...]

    def validate(self, universe: Universe) -> None:
        if not self.attributes:
            raise InvalidParamsError("at least one attribute required")
        full = universe.full_mask
        covered = 0
        total: Weight = Fraction(0)
        for a in self.attributes:
            if a.carrier == 0 or a.carrier & ~full:
                raise InvalidParamsError(f"invalid carrier {a.carrier}")
            if a.weight <= 0:
                raise InvalidParamsError("attribute weights must be positive")
            covered |= a.carrier
            total = total + a.weight
        if not _sums_to_one(total):
            raise InvalidParamsError(f"attribute weights must sum to 1, got {total}")
        if covered != full:
            missing = universe.labels_of(full & ~covered)
            raise InvalidParamsError(f"items {missing} carry no attribute")

    def is_exact(self) -> bool:
        return all(_is_exact(a.weight) for a in self.attributes)


@dataclass(frozen=True)
class ArAttribute:
    """One attribute of the two-stage attribute rule.

    ``item_values`` assigns a positive natural number to exactly the items of
    the carrier (off-carrier values are implicitly zero).
    """

    weight: Weight
    carrier: int
    item_values: dict[int, int]


@dataclass(frozen=True)
class ARParams:
    """Two-stage attribute rule.

    First stage: an attribute is drawn with probability proportional to its
    weight among attributes with a non-empty feasible carrier, and the chosen
    collection is carrier-intersect-menu.  Second stage: an item is drawn
    from the collection proportionally to its value on the drawn attribute.
    """

    attributes: tuple[ArAttribute, ...]

    def validate(self, universe: Universe) -> None:
        if not self.attributes:
            raise InvalidParamsError("at least one attribute required")
        full = universe.full_mask
        covered = 0
        for a in self.attributes:
            if a.carrier == 0 or a.carrier & ~full:
                raise InvalidParamsError(f"invalid carrier {a.carrier}")
            if a.weight <= 0:
                raise InvalidParamsError("attribute weights must be positive")
            if sorted(a.item_values) != list(bits(a.carrier)):
                raise InvalidParamsError(
                    "item values must be defined exactly on the carrier items"
                )
            for value in a.item_values.values():
                if not isinstance(value, int) or value < 1:
                    raise InvalidParamsError("item values must be positive integers")
            covered |= a.carrier
        if covered != full:
            missing = universe.labels_of(full & ~covered)
            raise InvalidParamsError(f"items {missing} carry no attribute")

    def is_exact(self) -> bool:
        return all(_is_exact(a.weight) for a in self.attributes)


@dataclass(frozen=True)
class RRMParams:
    """Random-reference model: a reference item x is drawn proportionally to
    its salience, and the choice is x's constraint set intersected with the
    menu.  Every constraint set contains its own item; constraint sets of
    distinct items are distinct.
    """

    salience: dict[int, Weight]
    constraints: dict[int, int]

    def validate(self, universe: Universe) -> None:
        idx = list(range(universe.n))
        if sorted(self.salience) != idx or sorted(self.constraints) != idx:
            raise InvalidParamsError(
                "salience and constraint set must be defined for every item"
            )
        full = universe.full_mask
        seen: dict[int, int] = {}
        for i in idx:
            if self.salience[i] <= 0:
                raise InvalidParamsError(f"salience of item {i} must be positive")
            q = self.constraints[i]
            if q & ~full:
                raise InvalidParamsError(f"constraint set of item {i} leaves the universe")
            if not q & (1 << i):
                raise InvalidParamsError(f"constraint set of item {i} must contain it")
            if q in seen:
                raise InvalidParamsError(
                    f"items {seen[q]} and {i} share the same constraint set"
                )
            seen[q] = i

    def is_exact(self) -> bool:
        return all(_is_exact(s) for s in self.salience.values())


def _validate_partition(nests: tuple[int, ...], universe: Universe) -> None:
    """Nests must be non-empty, pairwise disjoint, and cover the grand set."""
    full = universe.full_mask
    union = 0
    for nest in nests:
        if nest == 0 or nest & ~full:
            raise InvalidParamsError(f"invalid nest {nest}")
        if union & nest:
            raise InvalidParamsError("nests must be pairwise disjoint")
        union |= nest
    if union != full:
        raise InvalidParamsError("nests must cover the grand set")


@dataclass(frozen=True)
class NSCParams:
    """Nested stochastic choice: the grand set is partitioned into nests; a
    nest is drawn proportionally to the weight of its feasible part and the
    choice is that feasible part.

    ``nest_weights`` must cover every non-empty subset of each nest (those
    are the only collections whose weight is ever read; the weight of the
    empty set is zero by convention and never stored).
    """

    nests: tuple[int, ...]
    nest_weights: dict[int, Weight]

    def validate(self, universe: Universe) -> None:
        _validate_partition(self.nests, universe)
        for nest in self.nests:
            for part in nonempty_submasks(nest):
                w = self.nest_weights.get(part)
                if w is None:
                    raise MissingWeightError(
                        f"missing weight for nest subset {universe.labels_of(part)}"
                    )
                if w <= 0:
                    raise InvalidParamsError(
                        f"weight of {universe.labels_of(part)} must be positive"
                    )

    def is_exact(self) -> bool:
        return all(_is_exact(w) for w in self.nest_weights.values())


@dataclass(frozen=True)
class NestedLogitParams:
    """Nested logit: a nested stochastic choice whose weight function is
    induced by item utilities, weight(T) = (sum of v(x) for x in T) ** eta_i
    for T inside nest i.  Integer exponents keep evaluation exact; any
    non-integer exponent forces float mode.
    """

    nests: tuple[int, ...]
    utilities: dict[int, Weight]
    exponents: tuple[Weight, ...]

    def validate(self, universe: Universe) -> None:
        _validate_partition(self.nests, universe)
        if len(self.exponents) != len(self.nests):
            raise InvalidParamsError("one exponent per nest required")
        if sorted(self.utilities) != list(range(universe.n)):
            raise InvalidParamsError("utilities must be defined for every item")
        for v in self.utilities.values():
            if v <= 0:
                raise InvalidParamsError("utilities must be positive")
        for e in self.exponents:
            if e <= 0:
                raise InvalidParamsError("exponents must be positive")

    def is_exact(self) -> bool:
        """True iff utilities are rational and every exponent is an integer
        (the only case where the induced weights stay exact)."""
        return self.integer_exponents() and all(
            _is_exact(v) for v in self.utilities.values()
        )

    def integer_exponents(self) -> bool:
        """True iff every exponent is an integer, whatever its numeric type."""
        return all(
            isinstance(e, int)
            or (isinstance(e, Fraction) and e.denominator == 1)
            or (isinstance(e, float) and e.is_integer())
            for e in self.exponents
        )

    def induced_weight(self, part: int, nest_index: int, exact: bool) -> Weight:
        total: Weight = Fraction(0) if exact else 0.0
        for i in bits(part):
            v = self.utilities[i]
            total = total + (v if exact else float(v))
        e = self.exponents[nest_index]
        if exact:
            return total ** int(e)
        return float(total) ** float(e)


AnyParams = Union[
    LogitParams,
    RCGParams,
    ICParams,
    EBAParams,
    ARParams,
    RRMParams,
    NSCParams,
    NestedLogitParams,
]

_PARAMS_TYPES: dict[ModelTag, type] = {
    ModelTag.LOGIT: LogitParams,
    ModelTag.RCG: RCGParams,
    ModelTag.IC: ICParams,
    ModelTag.EBA: EBAParams,
    ModelTag.AR: ARParams,
    ModelTag.RRM: RRMParams,
    ModelTag.NSC: NSCParams,
    ModelTag.NESTED_LOGIT: NestedLogitParams,
}


@dataclass(frozen=True)
class ModelSpec:
    """A tagged parameter bundle, optionally flagged as the empty-collection
    variant (valid for the logit, random-category, and independent-inclusion
    models only)."""

    model: ModelTag
    params: AnyParams
    empty_variant: bool = False

    def validate(self, universe: Universe) -> None:
        expected = _PARAMS_TYPES[self.model]
        if not isinstance(self.params, expected):
            raise InvalidParamsError(
                f"model {self.model.value} expects {expected.__name__}, "
                f"got {type(self.params).__name__}"
            )
        if self.empty_variant and self.model not in EMPTY_CAPABLE:
            raise InvalidParamsError(
                f"model {self.model.value} has no empty-collection variant"
            )
        if self.model in EMPTY_CAPABLE:
            self.params.validate(universe, self.empty_variant)
        else:
            self.params.validate(universe)

    def is_exact(self) -> bool:
        """True iff evaluation of this bundle stays in exact arithmetic."""
        return self.params.is_exact()


def _logit_row(params: LogitParams, menu: int, empty_variant: bool) -> dict[int, Weight]:
    collections = nonempty_submasks(menu)
    try:
        den: Weight = sum(params.weights[t] for t in collections)
    except KeyError as exc:
        raise MissingWeightError(f"no weight for collection {exc.args[0]}") from None
    row: dict[int, Weight] = {}
    if empty_variant:
        den = den + params.empty_weight
        if params.empty_weight > 0:
            row[0] = _div(params.empty_weight, den)
    for t in collections:
        row[t] = _div(params.weights[t], den)
    return row


def _rcg_row(params: RCGParams, menu: int, empty_variant: bool) -> dict[int, Weight]:
    acc: dict[int, Weight] = {}
    for cat, m in params.mass.items():
        t = cat & menu
        acc[t] = acc.get(t, Fraction(0)) + m
    if empty_variant:
        return {t: p for t, p in acc.items() if p > 0}
    acc.pop(0, None)
    den = sum(acc.values())
    return {t: _div(p, den) for t, p in acc.items()}


def _ic_row(params: ICParams, menu: int, empty_variant: bool) -> dict[int, Weight]:
    members = list(bits(menu))
    none_mass: Weight = Fraction(1)
    for i in members:
        none_mass = none_mass * (1 - params.inclusion[i])
    row: dict[int, Weight] = {}
    for t in nonempty_submasks(menu):
        p: Weight = Fraction(1)
        for i in members:
            g = params.inclusion[i]
            p = p * (g if t & (1 << i) else 1 - g)
        row[t] = p
    if empty_variant:
        row[0] = none_mass
        return row
    den = 1 - none_mass
    return {t: _div(p, den) for t, p in row.items()}


def _weighted_intersections(
    pairs: list[tuple[Weight, int]], menu: int
) -> tuple[dict[int, Weight], Weight]:
    """Pool weights by carrier-intersect-menu; return (buckets, live total)."""
    acc: dict[int, Weight] = {}
    live: Weight = Fraction(0)
    for weight, carrier in pairs:
        t = carrier & menu
        if t:
            acc[t] = acc.get(t, Fraction(0)) + weight
            live = live + weight
    return acc, live


def _attribute_row(params: Union[EBAParams, ARParams], menu: int) -> dict[int, Weight]:
    """Collection row of both attribute models (the two-stage rule's first stage)."""
    acc, live = _weighted_intersections(
        [(a.weight, a.carrier) for a in params.attributes], menu
    )
    return {t: _div(w, live) for t, w in acc.items()}


def _rrm_row(params: RRMParams, menu: int) -> dict[int, Weight]:
    acc: dict[int, Weight] = {}
    den: Weight = Fraction(0)
    for i in bits(menu):
        s = params.salience[i]
        den = den + s
        t = params.constraints[i] & menu
        acc[t] = acc.get(t, Fraction(0)) + s
    return {t: _div(w, den) for t, w in acc.items()}


def _nsc_row(params: NSCParams, menu: int) -> dict[int, Weight]:
    acc: dict[int, Weight] = {}
    den: Weight = Fraction(0)
    for nest in params.nests:
        part = nest & menu
        if part:
            w = params.nest_weights[part]
            acc[part] = w
            den = den + w
    return {t: _div(w, den) for t, w in acc.items()}


def _nl_row(params: NestedLogitParams, menu: int, exact: bool) -> dict[int, Weight]:
    acc: dict[int, Weight] = {}
    den: Weight = Fraction(0) if exact else 0.0
    for idx, nest in enumerate(params.nests):
        part = nest & menu
        if part:
            w = params.induced_weight(part, idx, exact)
            acc[part] = w
            den = den + w
    return {t: _div(w, den) for t, w in acc.items()}


def menu_row(spec: ModelSpec, menu: int) -> dict[int, Weight]:
    """The full probability row of ``menu`` under an already-validated spec."""
    if menu == 0:
        raise ShapeError("menu must be non-empty")
    p = spec.params
    if spec.model is ModelTag.LOGIT:
        return _logit_row(p, menu, spec.empty_variant)
    if spec.model is ModelTag.RCG:
        return _rcg_row(p, menu, spec.empty_variant)
    if spec.model is ModelTag.IC:
        return _ic_row(p, menu, spec.empty_variant)
    if spec.model in (ModelTag.EBA, ModelTag.AR):
        return _attribute_row(p, menu)
    if spec.model is ModelTag.RRM:
        return _rrm_row(p, menu)
    if spec.model is ModelTag.NSC:
        return _nsc_row(p, menu)
    if spec.model is ModelTag.NESTED_LOGIT:
        return _nl_row(p, menu, spec.is_exact())
    raise InvalidParamsError(f"unknown model tag {spec.model}")


def _eval(spec: ModelSpec, universe: Universe, collection: int, menu: int) -> Weight:
    spec.validate(universe)
    _require_subset(collection, menu)
    if collection == 0 and not spec.empty_variant:
        raise ShapeError("empty collection requires the empty-collection variant")
    exact = spec.is_exact()
    row = menu_row(spec, menu)
    value = row.get(collection)
    if value is None:
        return Fraction(0) if exact else 0.0
    return Fraction(value) if exact else float(value)


def eval_logit(
    params: LogitParams,
    universe: Universe,
    collection: int,
    menu: int,
    empty_variant: bool = False,
) -> Weight:
    return _eval(ModelSpec(ModelTag.LOGIT, params, empty_variant), universe, collection, menu)


def eval_rcg(
    params: RCGParams,
    universe: Universe,
    collection: int,
    menu: int,
    empty_variant: bool = False,
) -> Weight:
    return _eval(ModelSpec(ModelTag.RCG, params, empty_variant), universe, collection, menu)


def eval_ic(
    params: ICParams,
    universe: Universe,
    collection: int,
    menu: int,
    empty_variant: bool = False,
) -> Weight:
    return _eval(ModelSpec(ModelTag.IC, params, empty_variant), universe, collection, menu)


def eval_eba(params: EBAParams, universe: Universe, collection: int, menu: int) -> Weight:
    return _eval(ModelSpec(ModelTag.EBA, params), universe, collection, menu)


def eval_ar_first_stage(
    params: ARParams, universe: Universe, collection: int, menu: int
) -> Weight:
    """First-stage probability that ``collection`` is the considered set."""
    return _eval(ModelSpec(ModelTag.AR, params), universe, collection, menu)


def eval_rrm(params: RRMParams, universe: Universe, collection: int, menu: int) -> Weight:
    return _eval(ModelSpec(ModelTag.RRM, params), universe, collection, menu)


def eval_nsc(params: NSCParams, universe: Universe, collection: int, menu: int) -> Weight:
    return _eval(ModelSpec(ModelTag.NSC, params), universe, collection, menu)


def eval_nested_logit(
    params: NestedLogitParams, universe: Universe, collection: int, menu: int
) -> Weight:
    return _eval(ModelSpec(ModelTag.NESTED_LOGIT, params), universe, collection, menu)


def eval_ar_item(
    params: ARParams, universe: Universe, item: int, menu: int
) -> tuple[Weight, dict[int, tuple[Weight, Weight]]]:
    """Item-level choice probability and its two-stage decomposition.

    Returns (p, decomposition) where p is the probability that ``item`` is
    the final choice from ``menu``, computed directly from the one-shot
    formula, and decomposition maps each first-stage collection T in the
    support to (mu(T, menu), rho(item | T)): the probability T is considered
    and the conditional probability the item is picked from it.  The exact
    identity p == sum of mu * rho over the support holds by construction and
    is enforced here.
    """
    params.validate(universe)
    bit = 1 << item
    if not menu & bit:
        raise ShapeError("item must belong to the menu")

    live: Weight = Fraction(0)
    groups: dict[int, list[ArAttribute]] = {}
    for a in params.attributes:
        t = a.carrier & menu
        if t:
            live = live + a.weight
            groups.setdefault(t, []).append(a)

    # One-shot formula: draw an attribute among the feasible ones, then an
    # item proportionally to its value on that attribute within the menu.
    p: Weight = Fraction(0)
    for t, attrs in groups.items():
        for a in attrs:
            value_total = sum(a.item_values[i] for i in bits(t))
            item_value = a.item_values.get(item, 0) if a.carrier & bit else 0
            if item_value:
                p = p + _div(a.weight, live) * Fraction(item_value, value_total)

    decomposition: dict[int, tuple[Weight, Weight]] = {}
    for t, attrs in sorted(groups.items()):
        group_weight = sum(a.weight for a in attrs)
        mu = _div(group_weight, live)
        rho: Weight = Fraction(0)
        if t & bit:
            for a in attrs:
                value_total = sum(a.item_values[i] for i in bits(t))
                item_value = a.item_values.get(item, 0)
                if item_value:
                    rho = rho + _div(a.weight, group_weight) * Fraction(item_value, value_total)
        decomposition[t] = (mu, rho)

    recombined = sum(mu * rho for mu, rho in decomposition.values())
    if _is_exact(p) and _is_exact(recombined):
        assert p == recombined, (
            "two-stage decomposition must reproduce the one-shot probability"
        )
    return p, decomposition


def generate_scc(spec: ModelSpec, universe: Universe) -> SCC:
    """The complete SCC induced by a parameter bundle.

    One row per (menu, collection) pair in the model's support; exact mode
    unless the bundle itself forces floats.  The result always satisfies the
    three defining SCC properties by construction.
    """
    spec.validate(universe)
    exact = spec.is_exact()
    coerce = Fraction if exact else float
    rows: dict[int, dict[int, Prob]] = {}
    for menu in range(1, universe.full_mask + 1):
        row = menu_row(spec, menu)
        rows[menu] = {t: coerce(p) for t, p in sorted(row.items()) if p > 0}
    notes: tuple[str, ...] = ()
    params = spec.params
    if isinstance(params, NestedLogitParams) and not params.integer_exponents():
        notes = ("non-integer nest exponent: evaluated in float mode",)
    return SCC(
        universe=universe,
        rows=rows,
        allows_empty=spec.empty_variant,
        exact=exact,
        mode_notes=notes,
    )
