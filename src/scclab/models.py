"""Parameter bundles and exact evaluators for the eight parametric models.

Every model induces a stochastic choice correspondence over a universe, a
rule that gives each menu a probability for each collection.  A model is a
:class:`ModelSpec` (tag, params, empty-variant flag); :func:`evaluate` gives
one probability, :func:`menu_row` one menu's row, and :func:`generate_scc`
the complete SCC (one row per menu/collection pair in the model's support).
:func:`eval_ar_item` gives the item-level probability of the two-stage
attribute rule with its decomposition over the first stage.

A bundle is in exact mode (Fractions) when its weights, masses, rates,
saliences or utilities are all rational (``int`` or ``Fraction``) and, for
nested logit, every exponent is integer-valued, whatever its type: an
exponent of ``2.0`` keeps a bundle of rational utilities exact.  Otherwise
the whole bundle is in float mode, and a non-integer exponent is recorded
in the generated SCC's ``mode_notes``.  Rows are put in their bundle's
mode in one place, ``_menu_rows``, behind :func:`menu_row`,
:func:`generate_scc` and the round trip of ``scclab.identify``.  It
divides and coerces only float rows: an exact bundle's weights are scaled
to ints once per dataset, and each kernel row's integer masses are reduced
once, by their gcd, to the integer row the exact axiom checks compare.
Fractions are built from those rows, one per cell, only where a caller
asks for probabilities.

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
from typing import Callable, Iterable, Iterator, Union

from .core import (
    SCC,
    InvalidParamsError,
    MissingWeightError,
    SchemaError,
    ShapeError,
    Universe,
    bits,
    nonempty_submasks,
    reduce_row,
    scale_row,
    sums_to_one,
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


def variant_name(model: ModelTag, empty_variant: bool) -> str:
    """A model variant's name: its tag, with "_o" for the empty-collection variant."""
    return model.value + ("_o" if empty_variant else "")


def parse_variant(name: str) -> tuple[ModelTag, bool]:
    """The (model, empty-variant flag) that ``name`` spells, read as
    :func:`variant_name` writes it; SchemaError for an unknown tag."""
    tag, empty = (name[:-2], True) if name.endswith("_o") else (name, False)
    try:
        return ModelTag(tag), empty
    except ValueError:
        raise SchemaError(f"unknown model tag {name!r}") from None


def _is_exact(value: Weight) -> bool:
    return isinstance(value, (Fraction, int))


def _div(num: Weight, den: Weight) -> Weight:
    """Division that never silently drops into floats: int/int is a Fraction."""
    if isinstance(num, int) and isinstance(den, int):
        return Fraction(num, den)
    return num / den


def _validate_draws(
    draws: list[tuple[Weight, int]], universe: Universe, noun: str, normalized: bool
) -> None:
    """The (weight, set) family of a set-draw model: every set non-empty and
    inside the universe, every weight positive, the sets covering the
    universe and, if ``normalized``, the weights summing to 1 (exact ones
    in ints, by :func:`_scaled`, so no Fraction is built)."""
    full = universe.full_mask
    covered = 0
    for weight, drawn in draws:
        if drawn == 0 or drawn & ~full:
            raise InvalidParamsError(f"invalid {noun} {drawn}")
        if weight <= 0:
            labels = universe.labels_of(drawn)
            raise InvalidParamsError(f"weight of {noun} {labels} must be positive")
        covered |= drawn
    if normalized:
        weights = dict(enumerate(weight for weight, _ in draws))
        exact = all(map(_is_exact, weights.values()))
        masses, den = _scaled(weights, exact)
        total = sum(masses.values())
        if not (total == den if exact else sums_to_one(total)):
            raise InvalidParamsError(f"{noun} weights must sum to 1, got {sum(weights.values())}")
    if covered != full:
        missing = universe.labels_of(full & ~covered)
        raise InvalidParamsError(f"items {missing} belong to no {noun}")


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

    def validate(self, universe: Universe) -> None:
        draws = [(m, cat) for cat, m in self.mass.items()]
        _validate_draws(draws, universe, "category", normalized=True)

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

    def validate(self, universe: Universe) -> None:
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
        draws = [(a.weight, a.carrier) for a in self.attributes]
        _validate_draws(draws, universe, "carrier", normalized=True)

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
        draws = [(a.weight, a.carrier) for a in self.attributes]
        _validate_draws(draws, universe, "carrier", normalized=False)
        for a in self.attributes:
            if sorted(a.item_values) != list(bits(a.carrier)):
                raise InvalidParamsError(
                    "item values must be defined exactly on the carrier items"
                )
            for value in a.item_values.values():
                if not isinstance(value, int) or value < 1:
                    raise InvalidParamsError("item values must be positive integers")

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


#: The largest bit size validation admits for a nested-logit sum of utilities
#: and its power: exact powers stay small, float ones inside the float range.
MAX_POWER_BITS = 1000


def _subset_sum_bits(values: list[Weight], exact: bool) -> float:
    """A bound on the bit size of every sum of a non-empty subset of the
    positive ``values``: numerator plus denominator bits if exact, else the
    binary order of magnitude (taken exactly, so it cannot overflow)."""
    fractions = [Fraction(v) for v in values]
    total = sum(fractions)
    if exact:
        den = math.lcm(*(v.denominator for v in fractions))
        return math.ceil(total * den).bit_length() + den.bit_length()
    return max(
        abs(math.log2(v.numerator) - math.log2(v.denominator))
        for v in (total, min(fractions))
    )


@dataclass(frozen=True)
class NestedLogitParams:
    """Nested logit: a nested stochastic choice whose weight function is
    induced by item utilities, weight(T) = (sum of v(x) for x in T) ** eta_i
    for T inside nest i.  Integer-valued exponents, of any numeric type
    (``2.0`` included), keep a bundle of rational utilities exact; any
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
        exact = self.is_exact()
        for i, (nest, e) in enumerate(zip(self.nests, self.exponents)):
            size = _subset_sum_bits([self.utilities[x] for x in bits(nest)], exact)
            if max(e, 1) * size > MAX_POWER_BITS:
                raise InvalidParamsError(
                    f"params.exponents[{i}]: {e} raises sums of utilities to "
                    f"powers of more than {MAX_POWER_BITS} bits"
                )

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

    def induced_weights(self, exact: bool) -> dict[int, Weight]:
        """The weight of every non-empty part of every nest, in floats or,
        if exact, as ints over one scale: with the utilities over their lcm
        L (:func:`scale_row`) and E the largest exponent, a part's sum to
        its nest's exponent e, times L^(E - e)."""
        if exact:
            utilities, scale = scale_row(self.utilities)
            powers = [int(e) for e in self.exponents]
        else:
            utilities, scale = {i: float(v) for i, v in self.utilities.items()}, 1
            powers = [float(e) for e in self.exponents]
        top = max(powers)
        return {
            part: sum(map(utilities.__getitem__, bits(part))) ** e * scale ** (top - e)
            for nest, e in zip(self.nests, powers)
            for part in nonempty_submasks(nest)
        }


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

#: The params class of each model, checked by ModelSpec.validate.
PARAMS_TYPES: dict[ModelTag, type] = {
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
        expected = PARAMS_TYPES[self.model]
        if not isinstance(self.params, expected):
            raise InvalidParamsError(
                f"model {self.model.value} expects {expected.__name__}, "
                f"got {type(self.params).__name__}"
            )
        if self.empty_variant and self.model not in EMPTY_CAPABLE:
            raise InvalidParamsError(
                f"model {self.model.value} has no empty-collection variant"
            )
        if self.model is ModelTag.LOGIT:
            self.params.validate(universe, self.empty_variant)
        else:
            self.params.validate(universe)

    def is_exact(self) -> bool:
        """True iff evaluation of this bundle stays in exact arithmetic."""
        return self.params.is_exact()


def _drawn_row(
    draws: Iterable[tuple[Weight, int]], menu: int, over: Weight | None = None
) -> tuple[dict[int, Weight], Weight]:
    """The row of a model that draws a weighted set and chooses its trace on
    the menu: the (weight, set) draws pooled by trace, over a denominator.
    The empty-collection variant's is ``over``, the draws' scale; otherwise
    (``over`` None) the empty trace is dropped and the denominator is the
    total weight of the draws with a non-empty trace."""
    acc: dict[int, Weight] = {}
    live: Weight = 0
    for weight, drawn in draws:
        t = drawn & menu
        # a first weight is kept as it is: adding it to Fraction(0) gives the
        # same value and bits but costs a Fraction addition per trace
        acc[t] = acc[t] + weight if t in acc else weight
        if t:
            live = live + weight
    if over is not None:
        return acc, over
    acc.pop(0, None)
    return acc, live


#: A model's rows as a function of the menu, prepared once per dataset: each
#: row as its cells' masses over their common denominator, ints if exact.
_MenuRows = Callable[[int], tuple[dict[int, Weight], Weight]]


def _scaled(weights: dict[int, Weight], exact: bool) -> tuple[dict[int, Weight], Weight]:
    """Exact weights as ints over the lcm of their denominators, with that
    lcm (:func:`scale_row`); float-mode weights as they are, over 1."""
    return scale_row(weights) if exact else (weights, 1)


def _logit_rows(spec: ModelSpec, exact: bool) -> _MenuRows:
    """mu(T, S) = w(T) over the sum of w over S's collections, the empty
    one's (key 0) included in the empty-collection variant."""
    empty = {0: spec.params.empty_weight} if spec.empty_variant else {}
    w, _ = _scaled({**spec.params.weights, **empty}, exact)

    def row(menu: int) -> tuple[dict[int, Weight], Weight]:
        collections = nonempty_submasks(menu)
        den = sum(map(w.__getitem__, collections))
        if spec.empty_variant:
            den = den + w[0]
            collections = [0] * (w[0] > 0) + collections
        return {t: w[t] for t in collections}, den

    return row


def _ic_rows(spec: ModelSpec, exact: bool) -> _MenuRows:
    """Each rate g = a/b as the factors (a, b - a) over b if exact, else as
    (g, 1 - g) over 1.  A menu's cells grow by its items in ascending order,
    one product per cell, over the product of the bases (less the empty
    draw's mass in the standard variant)."""
    factors = {
        i: (g.numerator, g.denominator - g.numerator, g.denominator) if exact else (g, 1 - g, 1)
        for i, g in spec.params.inclusion.items()
    }

    def row(menu: int) -> tuple[dict[int, Weight], Weight]:
        cells, base = {0: 1}, 1
        for i in bits(menu):
            yes, no, b = factors[i]
            grown = {t: p * no for t, p in cells.items()}
            grown.update((t | 1 << i, p * yes) for t, p in cells.items())
            cells, base = grown, base * b
        if not spec.empty_variant:
            base = base - cells.pop(0)
        return cells, base

    return row


def _draw_rows(
    spec: ModelSpec, exact: bool, weights: dict[int, Weight],
    draws: Callable[[dict[int, Weight], int], Iterable[tuple[Weight, int]]],
) -> _MenuRows:
    """The rows of a draw model whose ``draws`` on a menu read its
    ``weights``, scaled once (rcg's empty-collection variant over the scale)."""
    scaled, scale = _scaled(weights, exact)
    over = scale if spec.empty_variant else None
    return lambda menu: _drawn_row(draws(scaled, menu), menu, over)


def _nest_rows(spec: ModelSpec, exact: bool, weights: dict[int, Weight]) -> _MenuRows:
    """Draw the nests that meet the menu, each by its feasible part's weight."""
    nests = spec.params.nests
    return _draw_rows(
        spec, exact, weights, lambda w, menu: ((w[n & menu], n) for n in nests if n & menu)
    )


def _attribute_rows(spec: ModelSpec, exact: bool) -> _MenuRows:
    weights = dict(enumerate(a.weight for a in spec.params.attributes))
    carriers = [a.carrier for a in spec.params.attributes]
    return _draw_rows(spec, exact, weights, lambda w, menu: zip(w.values(), carriers))


#: The rows of each model, prepared from the spec and the bundle's mode.
_MENU_ROWS: dict[ModelTag, Callable[[ModelSpec, bool], _MenuRows]] = {
    ModelTag.LOGIT: _logit_rows,
    ModelTag.RCG: lambda spec, exact: _draw_rows(
        spec, exact, spec.params.mass, lambda w, menu: zip(w.values(), w)
    ),
    ModelTag.IC: _ic_rows,
    ModelTag.EBA: _attribute_rows,
    ModelTag.AR: _attribute_rows,
    ModelTag.RRM: lambda spec, exact: _draw_rows(
        spec, exact, spec.params.salience,
        lambda w, menu: ((w[x], spec.params.constraints[x]) for x in bits(menu)),
    ),
    ModelTag.NSC: lambda spec, exact: _nest_rows(spec, exact, spec.params.nest_weights),
    ModelTag.NESTED_LOGIT: lambda spec, exact: _nest_rows(
        spec, exact, spec.params.induced_weights(exact)
    ),
}


def _require_menu(menu: int, universe: Universe) -> None:
    if not 0 < menu <= universe.full_mask:
        raise ShapeError("menu must be a non-empty subset of the universe")


def _menu_rows(
    spec: ModelSpec, menus: Iterable[int]
) -> tuple[bool, Iterator[tuple[dict[int, Weight], Weight]]]:
    """The bundle's arithmetic mode (True if exact), decided once, and the
    row of each of ``menus`` under an already-validated spec in that mode,
    as cells over a denominator: if exact, the kernel's integer masses
    reduced by :func:`reduce_row`, the row's :func:`scale_row` form, and
    otherwise float probabilities, divided and coerced here, over 1.  Each
    menu must be a non-empty subset of the universe; the callers pass
    ``range(1, full_mask + 1)`` or, through :func:`menu_row`, one checked
    menu.  A float row whose denominator rounds to 0, or that does not sum
    to 1 as when weights overflow, is refused with InvalidParamsError."""
    exact = spec.is_exact()
    row_of = _MENU_ROWS[spec.model](spec, exact)

    def rows() -> Iterator[tuple[dict[int, Weight], Weight]]:
        for menu in menus:
            cells, den = row_of(menu)
            if exact:
                yield reduce_row(cells, den)
                continue
            if not den:
                raise InvalidParamsError("float arithmetic rounds a row's denominator to 0")
            row = {t: float(_div(p, den)) for t, p in cells.items()}
            if not sums_to_one(sum(row.values())):
                raise InvalidParamsError(
                    f"weights overflow float arithmetic: a row sums to {sum(row.values())!r}, not 1"
                )
            yield row, 1

    return exact, rows()


def menu_row(spec: ModelSpec, universe: Universe, menu: int) -> dict[int, Weight]:
    """The full probability row of ``menu``, in the bundle's arithmetic mode
    (see :func:`_menu_rows`).  The spec is validated first, so a bad bundle
    raises InvalidParamsError, and then the menu, which must be a non-empty
    subset of the universe, else ShapeError."""
    spec.validate(universe)
    _require_menu(menu, universe)
    exact, rows = _menu_rows(spec, (menu,))
    cells, den = next(rows)
    return {t: Fraction(c, den) for t, c in cells.items()} if exact else cells


def evaluate(spec: ModelSpec, universe: Universe, collection: int, menu: int) -> Weight:
    """The probability that ``collection`` is chosen from ``menu`` under
    ``spec``.  The menu must be a non-empty subset of the universe and the
    collection a subset of the menu, else ShapeError."""
    row = menu_row(spec, universe, menu)
    if collection & ~menu:
        raise ShapeError("collection is not a subset of the menu")
    if collection == 0 and not spec.empty_variant:
        raise ShapeError("empty collection requires the empty-collection variant")
    # the cells share the bundle's mode, so any of them times 0 is its zero
    return row.get(collection, 0 * next(iter(row.values())))


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
    _require_menu(menu, universe)
    if not 0 <= item < universe.n:
        raise ShapeError(f"item {item} is not an item of the universe")
    bit = 1 << item
    if not menu & bit:
        raise ShapeError("item must belong to the menu")

    # Sums start at the bundle's own zero, so a float bundle's stay floats,
    # its menu total too where only its rational weights meet the menu.
    zero: Weight = Fraction(0) if params.is_exact() else 0.0
    draws = [(a.weight, a.carrier) for a in params.attributes]
    pooled, live = _drawn_row(draws, menu)
    live = live + zero
    mu = {t: _div(w, live) for t, w in pooled.items()}

    # One-shot formula: draw an attribute among the feasible ones, then an
    # item proportionally to its value on that attribute within the menu.
    # Traces go in first-occurrence order, attributes in document order.
    p = zero
    rho: dict[int, Weight] = dict.fromkeys(mu, p)
    for t in mu:
        if not t & bit:
            continue
        for a in params.attributes:
            if a.carrier & menu == t:
                share = Fraction(
                    a.item_values[item], sum(a.item_values[i] for i in bits(t))
                )
                p = p + _div(a.weight, live) * share
                rho[t] = rho[t] + _div(a.weight, pooled[t]) * share

    decomposition = {t: (mu[t], rho[t]) for t in sorted(mu)}
    recombined = sum(m * r for m, r in decomposition.values())
    if _is_exact(p) and _is_exact(recombined):
        assert p == recombined, (
            "two-stage decomposition must reproduce the one-shot probability"
        )
    return p, decomposition


def generate_scc(spec: ModelSpec, universe: Universe) -> SCC:
    """The complete SCC induced by a parameter bundle.

    One row per (menu, collection) pair in the model's support; exact mode
    unless the bundle itself forces floats.  The result always satisfies the
    three defining SCC properties: by construction in exact mode, and in
    float mode by refusing a bundle whose weights overflow.  An exact SCC
    holds the kernels' reduced integer rows (:meth:`SCC.from_scaled`), the
    form :func:`~scclab.core.validate_rows` gives a parsed one, so no
    Fraction is built until a row is read and the axiom checks never scale
    it again.
    """
    spec.validate(universe)
    menus = range(1, universe.full_mask + 1)
    exact, menu_rows = _menu_rows(spec, menus)
    rows: dict[int, dict[int, Weight]] = {}
    dens = {}
    for menu, (cells, den) in zip(menus, menu_rows):
        # no kernel yields a negative cell, so truthiness drops the zero ones
        rows[menu] = {t: c for t, c in sorted(cells.items()) if c}
        dens[menu] = den
    if exact:
        return SCC.from_scaled(universe, rows, dens, spec.empty_variant)
    notes: tuple[str, ...] = ()
    params = spec.params
    if isinstance(params, NestedLogitParams) and not params.integer_exponents():
        notes = ("non-integer nest exponent: evaluated in float mode",)
    return SCC(
        universe=universe,
        rows=rows,
        allows_empty=spec.empty_variant,
        exact=False,
        mode_notes=notes,
    )
