"""Canonical data model for stochastic choice correspondences.

A stochastic choice correspondence (SCC) assigns to every menu S (a non-empty
subset of a finite grand set X) a probability distribution over the subsets of
S, called collections.  ``mu(T, S)`` is the probability that collection T is
chosen when the menu is S.

Representation choices made here and relied on everywhere else:

* Items live in a :class:`Universe` whose labels are sorted lexicographically;
  item i corresponds to bit i of every mask.
* Menus and collections are plain ``int`` bitmasks.
* Probabilities are exact :class:`fractions.Fraction` values by default; an
  SCC may instead run in float mode (``exact=False``), in which case all
  comparisons go through a :class:`ToleranceConfig`.
* Row storage is sparse: a pair (T, S) with no recorded row has probability
  zero.  Only menus present in ``rows`` belong to the domain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator, Union

Prob = Union[Fraction, float]

#: Hard cap on universe size (bitmasks are machine words, enumeration is
#: exponential).  Exhaustive axiom checks are intended for n <= 8.
MAX_ITEMS = 16

_DEFAULT_LABELS = "abcdefghijklmnop"


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
    mask used with this universe.
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


@dataclass(frozen=True)
class ToleranceConfig:
    """Comparison tolerances for float-mode SCCs; ignored in exact mode.

    eps_eq:   relative (and absolute floor) tolerance for equality of
              probabilities and of cross-multiplied products.
    eps_zero: values at or below this threshold count as zero support.
    eps_sum:  allowed deviation of a menu's row sum from 1.
    """

    eps_eq: float = 1e-9
    eps_zero: float = 1e-12
    eps_sum: float = 1e-9

    def __post_init__(self):
        for name in ("eps_eq", "eps_zero", "eps_sum"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be strictly positive")


DEFAULT_TOL = ToleranceConfig()


@dataclass(frozen=True)
class SCC:
    """A stochastic choice correspondence with sparse row storage.

    rows maps menu mask -> {collection mask -> probability}.  The domain is
    exactly the set of menus present in ``rows``.  ``allows_empty`` marks the
    empty-collection variant, in which T = 0 rows may be recorded.
    ``mode_notes`` records arithmetic-mode degradations (for example a
    nested-logit bundle with a non-integer exponent forcing float mode).
    ``memo`` holds results derived from the rows (axiom reports, revealed
    structure, and the scaled integer rows the exact ratio checks compare)
    so each is computed once; rows must therefore not be changed after
    construction.
    """

    universe: Universe
    rows: dict[int, dict[int, Prob]]
    allows_empty: bool = False
    exact: bool = True
    mode_notes: tuple[str, ...] = field(default_factory=tuple)
    memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def domain(self) -> frozenset[int]:
        return frozenset(self.rows)

    @property
    def arithmetic_mode(self) -> str:
        return "exact" if self.exact else "float"

    def zero(self) -> Prob:
        return Fraction(0) if self.exact else 0.0

    def one(self) -> Prob:
        return Fraction(1) if self.exact else 1.0

    def menus(self) -> list[int]:
        """Menus of the domain in ascending mask order."""
        return sorted(self.rows)

    def is_complete(self) -> bool:
        """True iff every non-empty subset of the grand set is a menu."""
        return len(self.rows) == (1 << self.universe.n) - 1 and all(
            0 < s <= self.universe.full_mask for s in self.rows
        )


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


def validate_scc(scc: SCC, tol: ToleranceConfig = DEFAULT_TOL) -> list[Violation]:
    """Check the three defining properties of an SCC.

    (i)  every recorded probability lies in [0, 1];
    (ii) every menu's recorded probabilities sum to 1;
    (iii) rows are recorded only for collections contained in their menu
          (and only non-empty ones unless the SCC allows empty collections).

    Returns an empty list iff the SCC is clean.  Violations are data, not
    errors: each names the offending menu and the failed property.
    """
    violations = []
    full = scc.universe.full_mask
    for menu in sorted(scc.rows):
        row = scc.rows[menu]
        if menu == 0 or menu > full:
            violations.append(
                Violation("iii", menu, "menu must be a non-empty subset of the grand set")
            )
            continue
        total = Fraction(0) if scc.exact else 0.0
        for coll in sorted(row):
            p = row[coll]
            if scc.exact and not isinstance(p, Fraction):
                violations.append(
                    Violation(
                        "storage",
                        menu,
                        f"exact-mode SCC stores a non-rational value for collection {coll}",
                    )
                )
                continue
            if not scc.exact and isinstance(p, Fraction):
                violations.append(
                    Violation(
                        "storage",
                        menu,
                        f"float-mode SCC stores a rational value for collection {coll}",
                    )
                )
                continue
            if coll & ~menu:
                violations.append(
                    Violation(
                        "iii",
                        menu,
                        f"collection {coll} is not a subset of its menu",
                    )
                )
                continue
            if coll == 0 and not scc.allows_empty:
                violations.append(
                    Violation("iii", menu, "empty collection recorded on a standard SCC")
                )
                continue
            if scc.exact:
                in_range = 0 <= p <= 1
            else:
                in_range = -tol.eps_zero <= p <= 1 + tol.eps_zero
            if not in_range:
                violations.append(
                    Violation("i", menu, f"probability {p} of collection {coll} outside [0, 1]")
                )
                continue
            total += p
        if scc.exact:
            sums_to_one = total == 1
        else:
            sums_to_one = abs(total - 1.0) <= tol.eps_sum
        if not sums_to_one:
            violations.append(Violation("ii", menu, f"row sums to {total}, not 1"))
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


def is_zero(scc: SCC, p: Prob, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Support test: exact zero, or at most eps_zero in float mode."""
    if scc.exact:
        return p == 0
    return p <= tol.eps_zero


def is_positive(scc: SCC, p: Prob, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    return not is_zero(scc, p, tol)


def probs_equal(scc: SCC, a: Prob, b: Prob, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Equality of probabilities or of products of probabilities.

    Exact mode compares bit-exactly.  Float mode uses eps_eq both as a
    relative tolerance and as an absolute floor, so near-zero products do not
    demand impossible relative precision.
    """
    if scc.exact:
        return a == b
    return math.isclose(a, b, rel_tol=tol.eps_eq, abs_tol=tol.eps_eq)


def support(scc: SCC, menu: int, tol: ToleranceConfig = DEFAULT_TOL) -> list[int]:
    """Collections with positive probability at ``menu``, ascending."""
    row = scc.rows[menu]
    return sorted(c for c, p in row.items() if is_positive(scc, p, tol))


def is_full_support(scc: SCC, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """True iff every non-empty T contained in every menu has mu(T, S) > 0.

    Requires a complete SCC.  The empty collection is never part of the
    full-support condition, even on empty-collection variants.
    """
    require_complete(scc)
    for menu, row in scc.rows.items():
        needed = (1 << popcount(menu)) - 1
        positive = sum(
            1 for c, p in row.items() if c != 0 and is_positive(scc, p, tol)
        )
        if positive != needed:
            return False
    return True
