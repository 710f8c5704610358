"""Canonical data model for stochastic choice correspondences.

A stochastic choice correspondence (SCC) assigns to every menu S (a non-empty
subset of a finite grand set X) a probability distribution over the subsets of
S, called collections.  ``mu(T, S)`` is the probability that collection T is
chosen when the menu is S.

Representation choices made here and relied on everywhere else:

* Items live in a :class:`Universe` whose labels are sorted lexicographically;
  item i corresponds to bit i of every mask.
* Menus and collections are plain ``int`` bitmasks.
* Probabilities are exact by default, and an exact SCC read from a document
  or generated from a model holds one row form: integer rows over their
  common denominators (:func:`scale_row`'s form), behind a
  :class:`FractionRows` mapping that builds a menu's
  :class:`fractions.Fraction` row only when it is read.  Library callers may
  pass a dict of Fraction rows instead.  An SCC may run in float mode
  (``exact=False``), in which case support and row sums follow the fixed
  rules :data:`EPS_ZERO` and :data:`EPS_SUM`, and equations go through a
  :class:`ToleranceConfig`.
* Row storage is sparse: a pair (T, S) with no recorded row has probability
  zero.  Only menus present in ``rows`` belong to the domain.
* The three defining properties of a row are stated once, by
  :func:`validate_rows`, on ``int`` pairs in exact mode.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from operator import or_
from typing import Any, Iterable, Iterator, Optional, Union

Prob = Union[Fraction, float]

#: Hard cap on universe size (bitmasks are machine words, enumeration is
#: exponential).  Exhaustive axiom checks grow exponentially with n: data
#: the certificates settle checks in seconds at n = 11, other data costs more.
MAX_ITEMS = 16

_DEFAULT_LABELS = "abcdefghijklmnop"

_ZERO, _ONE = Fraction(0), Fraction(1)  # exact mode's, shared: Fractions are immutable


class ScclabError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(ScclabError):
    """A mask pair violates containment (T not a subset of S, or similar)."""


class MenuAbsentError(ScclabError):
    """A lookup referenced a menu that is not part of the SCC domain."""


class IncompleteDatasetError(ScclabError):
    """An operation requiring a complete SCC was given a partial one."""


class WrongVariantError(ScclabError):
    """An empty-collection operation was applied to the wrong SCC variant."""


class MissingBinaryMenuError(ScclabError):
    """Revealed-constraint derivation needs a binary menu that is absent."""


class MissingWeightError(ScclabError):
    """A model evaluation referenced a parameter value that was not supplied."""


class InvalidParamsError(ScclabError):
    """A parameter bundle violates its model's invariants."""


class MissingAttributesError(ScclabError):
    """An attribute-based check was run without an attribute context."""


class InfeasibleStructureError(ScclabError):
    """A random-generation config asks for a structure that cannot exist."""


class SchemaError(ScclabError):
    """An external document does not match the expected schema."""


class MixedFormatError(SchemaError):
    """A document mixes exact rational and float probability literals."""


class ZeroTotalMenuError(ScclabError):
    """A counts table has a menu whose counts sum to zero."""


class PreconditionFailedError(ScclabError):
    """A recovery was refused because its characterizing axioms fail.

    ``report`` carries the violated axiom's report when the failure was
    detected by an axiom check, and is None for structural refusals (for
    example a recovered parameter bundle that violates its own invariants).
    """

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


def popcount(mask: int) -> int:
    return mask.bit_count()


def bits(mask: int) -> Iterator[int]:
    """Yield the set bit indices of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def submasks(mask: int) -> list[int]:
    """All submasks of ``mask`` including 0, in ascending numeric order."""
    out = []
    sub = mask
    while True:
        out.append(sub)
        if sub == 0:
            break
        sub = (sub - 1) & mask
    out.reverse()
    return out


def nonempty_submasks(mask: int) -> list[int]:
    """Non-empty submasks of ``mask`` in ascending numeric order."""
    return submasks(mask)[1:]


@dataclass(frozen=True)
class Universe:
    """An ordered finite set of item labels.

    Labels are stored sorted lexicographically; item i maps to bit i of every
    mask used with this universe.  A label is non-empty and has no ',' and no
    leading or trailing whitespace, so that a comma-separated list names it.
    """

    items: tuple[str, ...]

    def __post_init__(self):
        if not (1 <= len(self.items) <= MAX_ITEMS):
            raise ShapeError(
                f"universe must contain between 1 and {MAX_ITEMS} items, "
                f"got {len(self.items)}"
            )
        if len(set(self.items)) != len(self.items):
            raise ShapeError("universe labels must be pairwise distinct")
        for label in self.items:
            if not label or "," in label or label != label.strip():
                raise ShapeError(
                    f"label {label!r} must be non-empty, with no ',' and no outer whitespace"
                )
        object.__setattr__(self, "items", tuple(sorted(self.items)))

    @classmethod
    def from_labels(cls, labels: Iterable[str]) -> "Universe":
        return cls(tuple(labels))

    @classmethod
    def default(cls, n: int) -> "Universe":
        """A universe of ``n`` single-letter labels a, b, c, ..."""
        if not (1 <= n <= MAX_ITEMS):
            raise ShapeError(f"n must be between 1 and {MAX_ITEMS}, got {n}")
        return cls(tuple(_DEFAULT_LABELS[:n]))

    @property
    def n(self) -> int:
        return len(self.items)

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def index(self, label: str) -> int:
        try:
            return self.items.index(label)
        except ValueError:
            raise ShapeError(f"unknown item label {label!r}") from None

    def mask_of(self, labels: Iterable[str]) -> int:
        mask = 0
        for label in labels:
            bit = 1 << self.index(label)
            if mask & bit:
                raise ShapeError(f"duplicate item label {label!r}")
            mask |= bit
        return mask

    def labels_of(self, mask: int) -> tuple[str, ...]:
        if mask < 0 or mask > self.full_mask:
            raise ShapeError(f"mask {mask} outside universe of {self.n} items")
        return tuple(self.items[i] for i in bits(mask))


#: Float values at or below this count as zero support (and a float cell may
#: lie this far outside [0, 1]); a property of the dataset, not a tolerance.
EPS_ZERO = 1e-12

#: The allowed deviation of a float row sum from 1.
EPS_SUM = 1e-9


@dataclass(frozen=True)
class ToleranceConfig:
    """The equality tolerance of float-mode SCCs; ignored in exact mode.

    eps_eq: relative (and absolute floor) tolerance for equality of
            probabilities and of cross-multiplied products.
    """

    eps_eq: float = 1e-9

    def __post_init__(self):
        if not 0 < self.eps_eq < math.inf:
            raise ValueError(f"eps_eq must be positive and finite, got {self.eps_eq}")


DEFAULT_TOL = ToleranceConfig()


#: The memo key of the scaled rows (see ``axioms.cached_scaled_rows``).
SCALED_ROWS = ("scaled_rows",)


class FractionRows(Mapping):
    """The rows of an exact SCC held in their scaled form: ``cells[menu]``
    maps each collection to its integer numerator over ``dens[menu]``.

    A read-only mapping menu -> {collection -> Fraction} that builds a
    menu's Fraction row the first time that menu is read, and keeps it.  It
    equals, and has the repr of, the dict of those rows.
    """

    __slots__ = ("cells", "dens", "_built")

    def __init__(self, cells: dict[int, dict[int, int]], dens: dict[int, int]):
        self.cells, self.dens = cells, dens
        self._built: dict[int, dict[int, Fraction]] = {}

    def __getitem__(self, menu: int) -> dict[int, Fraction]:
        row = self._built.get(menu)
        if row is None:
            den = self.dens[menu]
            row = self._built[menu] = {t: Fraction(c, den) for t, c in self.cells[menu].items()}
        return row

    def __contains__(self, menu: object) -> bool:
        return menu in self.cells

    def __iter__(self) -> Iterator[int]:
        return iter(self.cells)

    def __len__(self) -> int:
        return len(self.cells)

    def __repr__(self) -> str:
        return repr(dict(self.items()))


@dataclass(frozen=True)
class SCC:
    """A stochastic choice correspondence with sparse row storage.

    rows maps menu mask -> {collection mask -> probability}: a dict, or for
    an exact SCC built by :meth:`from_scaled` a :class:`FractionRows` over
    its integer rows.  The domain is exactly the set of menus present in
    ``rows``.  ``allows_empty`` marks the
    empty-collection variant, in which T = 0 rows may be recorded.
    ``mode_notes`` records arithmetic-mode degradations (for example a
    nested-logit bundle with a non-integer exponent forcing float mode).
    ``memo`` holds results derived from the rows (axiom reports, revealed
    structure, and the scaled integer rows the exact ratio checks compare)
    so each is computed once; :meth:`from_scaled` and :func:`validate_scc`
    fill the scaled rows of a clean exact SCC.  Rows must therefore not be
    changed after construction.
    """

    universe: Universe
    rows: Mapping[int, dict[int, Prob]]
    allows_empty: bool = False
    exact: bool = True
    mode_notes: tuple[str, ...] = field(default_factory=tuple)
    memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @classmethod
    def from_scaled(cls, universe: Universe, cells: dict, dens: dict, allows_empty: bool) -> SCC:
        """The exact SCC of clean scaled rows (see :class:`FractionRows`),
        which its memo keeps as the rows the exact checks compare."""
        scc = cls(universe, FractionRows(cells, dens), allows_empty)
        scc.memo[SCALED_ROWS] = cells, dens
        return scc

    @property
    def arithmetic_mode(self) -> str:
        return "exact" if self.exact else "float"

    def zero(self) -> Prob:
        return _ZERO if self.exact else 0.0

    def one(self) -> Prob:
        return _ONE if self.exact else 1.0

    def menus(self) -> list[int]:
        """Menus of the domain in ascending mask order."""
        return sorted(self.rows)

    def is_complete(self) -> bool:
        """True iff every non-empty subset of the grand set is a menu."""
        full = self.universe.full_mask
        return len(self.rows) == full and all(0 < s <= full for s in self.rows)


@dataclass(frozen=True)
class Violation:
    """One defect found by validate_scc.

    property_id is "i" (range), "ii" (row sum), or "iii" (shape), matching
    the three defining properties of an SCC; "storage" flags values whose
    type contradicts the SCC's declared arithmetic mode.
    """

    property_id: str
    menu: int
    detail: str


def require_complete(scc: SCC) -> None:
    if not scc.is_complete():
        missing = (1 << scc.universe.n) - 1 - len(scc.rows)
        raise IncompleteDatasetError(
            f"operation requires a complete SCC; {missing} menu(s) absent"
        )


def scale_row(row: dict[int, Fraction]) -> tuple[dict[int, int], int]:
    """An exact row's (or weight map's) values as integer numerators over
    their least common denominator, and that denominator: the package's one
    scaling of exact values to ints."""
    return _over_lcm({t: (p.numerator, p.denominator) for t, p in row.items()})


def reduce_row(cells: dict[int, int], den: int) -> tuple[dict[int, int], int]:
    """Integer masses over a common denominator, divided by the gcd of all
    of them: the :func:`scale_row` form of the row of Fractions they give,
    since lcm_t(den / gcd(c_t, den)) = den / gcd(den, c_1, ...), found
    without building a Fraction.  A row whose gcd is 1 is returned as it is."""
    g = math.gcd(den, *cells.values())
    if g == 1:
        return cells, den
    return {t: c // g for t, c in cells.items()}, den // g


def lowest_terms(cells: Iterable[tuple[int, int]], den: int) -> Iterator[tuple[int, int, int]]:
    """Each cell ``(t, c)`` of a scaled row over ``den`` as ``(t, num, d)``,
    where num/d is c/den in lowest terms: the numerator and denominator of
    the Fraction a :class:`FractionRows` would build, found with one gcd."""
    for t, c in cells:
        g = math.gcd(c, den)
        yield t, c // g, den // g


def _over_lcm(row: dict[int, tuple[int, int]]) -> tuple[dict[int, int], int]:
    """(numerator, denominator) pairs as numerators over the lcm of the
    denominators, with that lcm: the body of :func:`scale_row`, which the
    row rule calls on the pairs of a document's literals.  :func:`reduce_row`
    makes it the :func:`scale_row` form of pairs not in lowest terms."""
    den = math.lcm(*[d for _, d in row.values()])
    return {t: n * (den // d) for t, (n, d) in row.items()}, den


def sums_to_one(total: float) -> bool:
    """The package's one "sums to 1" rule for a float total: it lies within
    :data:`EPS_SUM` of 1.  Exact totals are compared in ints, as
    :func:`scale_row` numerators against their denominator."""
    return abs(total - 1.0) <= EPS_SUM


def _row_violations(
    menu: int, row: dict[int, Any], full: int, allows_empty: bool, exact: bool
) -> tuple[list[Violation], Optional[tuple[dict[int, int], int]]]:
    """The defects of one row, and an exact row's scaled form over the cells
    that are not skipped as defects.

    Exact values are (numerator, denominator) pairs of ints, with a positive
    denominator, and are decided on ints: a value lies in [0, 1] when
    0 <= numerator <= denominator, and the row sums to 1 when its numerators
    over their lcm sum to that lcm.  A clean row is decided by whole-row
    tests, a float row's on its types, extremes and total, and only a row
    that fails them takes the per-cell loop that names its defects (the
    tests take a third off ``parse_scc`` on exact logit data of 12 items
    and a fifth on float data of 7); a Fraction is built only for a
    defect's message.  A value of the other mode (not a pair, or a Fraction
    in float mode) is a storage defect.
    """
    if not 0 < menu <= full:
        return [Violation("iii", menu, "menu must be a non-empty subset of the grand set")], None
    values = row.values()
    if (allows_empty or 0 not in row) and not reduce(or_, row, 0) & ~menu:
        if exact:
            try:
                cells, den = _over_lcm(row)
            except TypeError:  # a value that is not a pair
                pass
            else:
                if sum(cells.values()) == den and min(cells.values()) >= 0:
                    return [], reduce_row(cells, den)
        elif {*map(type, values)} == {float} and (
            -EPS_ZERO <= min(values) <= max(values) <= 1 + EPS_ZERO
        ):
            total = 0.0
            for coll in sorted(row):  # the order of the loop below, for its rounding
                total += row[coll]
            if sums_to_one(total):
                return [], None
    violations = []
    kept = {}
    for coll in sorted(row):
        value = row[coll]
        if isinstance(value, (tuple, Fraction)) != exact:
            mode, kind = ("exact", "non-rational") if exact else ("float", "rational")
            found = "storage", f"{mode}-mode SCC stores a {kind} value for collection {coll}"
        elif coll & ~menu:
            found = "iii", f"collection {coll} is not a subset of its menu"
        elif coll == 0 and not allows_empty:
            found = "iii", "empty collection recorded on a standard SCC"
        elif 0 <= value[0] <= value[1] if exact else -EPS_ZERO <= value <= 1 + EPS_ZERO:
            kept[coll] = value
            continue
        else:
            shown = Fraction(*value) if exact else value
            found = "i", f"probability {shown} of collection {coll} outside [0, 1]"
        violations.append(Violation(found[0], menu, found[1]))
    scaled = None
    if exact:
        # the whole row, in its stored order, when no cell was skipped
        scaled = reduce_row(*_over_lcm(row if len(kept) == len(row) else kept))
        total = sum(scaled[0].values())
        unit = total == scaled[1]
    else:
        total = 0.0
        for p in kept.values():
            total += p
        unit = sums_to_one(total)
    if not unit:
        shown = Fraction(total, scaled[1]) if exact else total
        violations.append(Violation("ii", menu, f"row sums to {shown}, not 1"))
    return violations, scaled


def validate_rows(
    rows: Mapping[int, dict[int, Any]], full: int, allows_empty: bool, exact: bool
) -> tuple[list[Violation], Optional[tuple[dict, dict]]]:
    """The defects of a table of rows (see :func:`validate_scc`), menu by
    menu in ascending order, and for a clean exact table its scaled rows,
    in the table's order, with their denominators (else None).  Exact values
    are (numerator, denominator) pairs of ints with a positive denominator,
    as ``parse_scc`` reads them; float values are floats."""
    violations = []
    cells, dens = {}, {}
    for menu, row in rows.items():
        found, scaled = _row_violations(menu, row, full, allows_empty, exact)
        violations += found
        if scaled is not None:
            cells[menu], dens[menu] = scaled
    if violations:
        violations.sort(key=lambda v: v.menu)  # stable: each menu's own order stays
        return violations, None
    return violations, (cells, dens) if exact else None


def validate_scc(scc: SCC) -> list[Violation]:
    """Check the three defining properties of an SCC.

    (i)  every recorded probability lies in [0, 1];
    (ii) every menu's recorded probabilities sum to 1;
    (iii) rows are recorded only for collections contained in their menu
          (and only non-empty ones unless the SCC allows empty collections).

    Returns an empty list iff the SCC is clean.  Violations are data, not
    errors: each names the offending menu and the failed property.  The
    rules are :func:`validate_rows`', which decides each exact value on its
    numerator and denominator, read from its Fraction (a
    :class:`FractionRows` SCC's too); a clean exact SCC keeps its scaled
    rows in its memo, unless it holds them already.
    """
    rows = scc.rows
    if scc.exact:  # None, no pair, for a value that is not a Fraction
        rows = {
            menu: {
                t: (p.numerator, p.denominator) if isinstance(p, Fraction) else None
                for t, p in row.items()
            }
            for menu, row in rows.items()
        }
    violations, scaled = validate_rows(rows, scc.universe.full_mask, scc.allows_empty, scc.exact)
    if scaled is not None:
        scc.memo.setdefault(SCALED_ROWS, scaled)
    return violations


def prob_lookup(scc: SCC, collection: int, menu: int) -> Prob:
    """The probability of ``collection`` at ``menu``; zero if unrecorded.

    Raises MenuAbsentError if the menu is not in the domain and ShapeError if
    the collection is not contained in the menu (that probability is enforced
    to be zero, never stored, so looking it up is a caller bug).
    """
    try:
        row = scc.rows[menu]
    except KeyError:
        raise MenuAbsentError(
            f"menu {scc.universe.labels_of(menu) if menu <= scc.universe.full_mask else menu}"
            " is not in the SCC domain"
        ) from None
    if collection & ~menu:
        raise ShapeError("collection is not a subset of the menu")
    return row.get(collection, scc.zero())


def is_zero(scc: SCC, p: Prob) -> bool:
    """Support test: exact zero, or at most :data:`EPS_ZERO` in float mode."""
    if scc.exact:
        return p == 0
    return p <= EPS_ZERO


def is_positive(scc: SCC, p: Prob) -> bool:
    return not is_zero(scc, p)


def probs_equal(scc: SCC, a: Prob, b: Prob, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Equality of probabilities or of products of probabilities.

    Exact mode compares bit-exactly.  Float mode uses eps_eq both as a
    relative tolerance and as an absolute floor, so near-zero products do not
    demand impossible relative precision.
    """
    if scc.exact:
        return a == b
    return math.isclose(a, b, rel_tol=tol.eps_eq, abs_tol=tol.eps_eq)

