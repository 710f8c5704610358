"""Decision procedures for the behavioral postulates, with counterexample
witnesses.

Every check returns an :class:`AxiomReport`.  Conventions shared by all of
them:

* Enumeration is sequential and lexicographic on bitmasks (menus ascending,
  then items ascending, then collections ascending), so reports are
  deterministic for a fixed SCC and tolerance.
* Every check opens one frame, :class:`_Collector`, before it reads the
  data: it refuses an incomplete SCC (IncompleteDatasetError), then a
  witness cap below 1 (ValueError), and it makes the report.  A check is
  its counts plus a lazy stream of violation bindings in enumeration
  order, which it hands to :meth:`_Collector.extend`, the one place that
  reads the cap: it pulls nothing once ``cap`` witnesses are recorded, so
  no comparison is made past the cap.  A stream prepares a unit (its
  marginal, its certificate) only when it reaches it; IIS and PIIS merge
  their lists' streams by :func:`_merged`, which starts each so.
* ``instances_checked`` counts the guarded instances of the domain, those
  whose guard holds; ``instances_vacuous`` counts those whose guard is
  unmet.  Their sum is the domain size.  Instances that are trivially true
  by symmetry (identical menus, identical collections) are not in the
  domain; per-check docstrings state the domain, and :data:`AXIOMS` its
  size, as ``domain``, except where that depends on the data: PIIS,
  REL_ADD_2 and PARTITION count their own.  Where the registry states the
  size, a check gives the frame the one count it finds, or none when
  nothing is vacuous, and the frame fills in the other as the rest of the
  domain.  A check may certify "holds", and compare instances one by one
  only where its certificate fails; the counts are the same.  The
  grand-row certificate of :func:`_grand_row` settles IIS, IIS_O and PIIS
  on full-support data, in exact and float mode; the marginal certificate
  of :func:`_marginal_certificate` settles REL_ADD and REL_ADD_1 on rows
  that are multiples of the grand row's marginals, as random-choice-set
  data are, in exact and float mode; :func:`_proportional`
  certifies the grand row's rows and the units of IIS (a list of the
  co-occurrence index, or a menu pair), REL_ADD and REL_ADD_1 in both
  modes, exactly in exact mode and under :func:`_unit_limit` in float mode.
* Every (S, x) scan of :func:`_removals` compares only the collections
  recorded in row S\\x or in row S, merged onto S\\x by :func:`_marginal`
  where the postulate sums mu(T,S) + mu(T u x,S): both sides are zero at
  any other, where every equation and support test holds.  So no scan
  lists the subsets of S\\x.
* Ratio postulates are decided by cross-multiplication, never division, so
  exact mode involves no rounding and zero denominators need no special
  cases.  In exact mode they cross-multiply the integer rows of
  :func:`cached_scaled_rows`.
* A witness's ``lhs``/``rhs`` are its axiom's ``sides`` at its bindings,
  computed from the SCC's own rows, and recorded nowhere else: an
  equation's two sides as written (divisions are performed there only when
  the guards make them well defined), the offending probability of a
  support condition and the zero it demands, or nothing (POS1, DISTINCT_Q,
  PARTITION).
* Witness bindings are bitmasks under descriptive keys ("S", "S_prime", "x",
  "y", "T", "T_prime", "T_star_1", ...).  Item-valued bindings are 1-bit
  masks.  Every witness is self-certifying: :func:`recheck_witness`
  re-derives the violated condition from the raw rows (for an equation
  axiom, that its two sides differ) and compares the recorded values with
  ``sides`` there.

:data:`AXIOMS` holds each axiom's check, applicability, equation ``sides``
and witness ``recheck`` (see :class:`AxiomSpec`); :data:`CHARACTERIZING_AXIOMS`
maps every model variant to the axioms that characterize it; the suites,
classification, identification and the fuzz harness all read these two
tables.  :func:`run_axiom` always evaluates; :func:`cached_report` keeps
each report in the SCC's memo, so a dataset is decided once per tolerance
and witness cap, and :func:`_grand_row` and :func:`_marginal_certificate`
their certificates once per tolerance.  Support is a property of the
data, not of a tolerance: the ``cached_revealed_*`` functions,
:func:`cached_scaled_rows`, :func:`_positive_rows` and
:func:`_cooccurrence` keep the revealed structure, the scaled rows, the
positivity table and, on sparse data, the co-occurrence index of IIS and
PIIS there once per SCC.
:func:`characterizing_axioms` is the one refusal of a model with no
variant for a dataset's empty-collection flag.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cache, lru_cache, partial, reduce
from heapq import heappop, heappush
from itertools import chain, combinations, product, repeat
from operator import eq, mul, or_, sub, truediv
from typing import Any, Callable, Collection, Iterable, Iterator, NamedTuple, Optional, Sequence

from .core import (
    SCC,
    DEFAULT_TOL,
    MAX_ITEMS,
    SCALED_ROWS,
    MenuAbsentError,
    MissingAttributesError,
    MissingBinaryMenuError,
    Prob,
    ShapeError,
    ToleranceConfig,
    WrongVariantError,
    bits,
    is_positive,
    is_zero,
    nonempty_submasks,
    popcount,
    prob_lookup,
    probs_equal,
    require_complete,
    scale_row,
    submasks,
)
from .models import ModelTag

#: Default cap on the number of witnesses kept per report.
WITNESS_CAP = 10

#: What a witness records at some bindings (an equation's two sides, or a
#: structural axiom's values, None where it has none); None where a guard fails.
Sides = Optional[tuple[Optional[Prob], Optional[Prob]]]


class AxiomId(str, Enum):
    IIS = "IIS"
    IIS_O = "IIS_O"
    REL_ADD = "REL_ADD"
    ADDITIVITY = "ADDITIVITY"
    POS1 = "POS1"
    POS2 = "POS2"
    DISTINCT_Q = "DISTINCT_Q"
    POS3 = "POS3"
    REL_ADD_1 = "REL_ADD_1"
    REL_ADD_2 = "REL_ADD_2"
    PIIS = "PIIS"
    PARTITION = "PARTITION"
    POS4 = "POS4"
    PAF = "PAF"
    FULL_SUPPORT = "FULL_SUPPORT"
    DET_FULL_CHOICE = "DET_FULL_CHOICE"
    SINGLETON = "SINGLETON"


@dataclass(frozen=True)
class Witness:
    """One concrete violation of an axiom.

    ``bindings`` instantiates the violated quantifier (masks keyed by role).
    ``lhs``/``rhs`` are its axiom's ``sides`` there: the two sides of the
    violated equation, or a structural axiom's values, None where it has none.
    """

    axiom: AxiomId
    bindings: dict[str, int]
    lhs: Optional[Prob] = None
    rhs: Optional[Prob] = None


@dataclass(frozen=True)
class AxiomReport:
    """Verdict of one axiom check.

    holds is true iff no violation exists (equivalently: witnesses is empty;
    the witness list is capped, but a capped list is never empty when a
    violation exists).
    """

    axiom: AxiomId
    holds: bool
    witnesses: tuple[Witness, ...]
    instances_checked: int
    instances_vacuous: int
    arithmetic_mode: str


class _Collector:
    """The frame of one check: it refuses an incomplete SCC, then a cap
    below 1, records violations by :meth:`extend`, the one place that reads
    the cap, and reports the counts.  The verdict holds iff nothing is
    recorded: a cap of at least 1 records the first violation."""

    def __init__(self, scc: SCC, axiom: AxiomId, cap: int):
        require_complete(scc)
        if cap < 1:
            raise ValueError("witness cap must be at least 1")
        self.scc = scc
        self.axiom = axiom
        self.cap = cap
        self.witnesses: list[Witness] = []

    def extend(self, violations: Iterable[dict[str, int]]):
        """Record the bindings of ``violations``, a lazy stream in
        enumeration order, each with its lhs/rhs computed from the SCC's
        rows by the axiom's ``sides``, and pull none once ``cap`` are
        recorded: the counts never depend on the rest."""
        room = range(self.cap - len(self.witnesses))  # a range takes any int cap
        for _, bindings in zip(room, violations):
            sides = AXIOMS[self.axiom].sides(self.scc, bindings)
            self.witnesses.append(Witness(self.axiom, bindings, *sides))

    def report(self, checked: Optional[int] = None, vacuous: int = 0) -> AxiomReport:
        """The report, with whichever count the registry's ``domain`` fixes
        filled in as the rest of the domain; with no count given, nothing
        is vacuous."""
        domain = AXIOMS[self.axiom].domain
        if domain is not None:
            size = domain(self.scc.universe.n, self.scc.allows_empty)
            if checked is None:
                checked = size - vacuous
            vacuous = size - checked
        return AxiomReport(
            axiom=self.axiom,
            holds=not self.witnesses,
            witnesses=tuple(self.witnesses),
            instances_checked=checked,
            instances_vacuous=vacuous,
            arithmetic_mode=self.scc.arithmetic_mode,
        )


def _positive_rows(scc: SCC) -> dict[int, dict[int, Prob]]:
    """Per menu, the sub-row of strictly positive entries of
    :func:`cached_scaled_rows` under :func:`is_positive`, built once per SCC:
    the one support test of a cell in the scans.  Only the reference paths
    and one test of sums, support transfer's, call :func:`is_zero`
    themselves.  A row whose least value is positive and that holds no 0
    (an unvalidated exact row may hold a negative beside a 0) is held
    itself, not copied, so nothing may write to the table's rows.  ``min``
    skips NaN cells, which are positive, unless the first is NaN; then the
    row is copied."""
    return _memoized(
        scc,
        ("positive_rows",),
        lambda: {
            menu: row
            if low == low and is_positive(scc, low) and 0 not in row.values()
            else {t: p for t, p in row.items() if is_positive(scc, p)}
            for menu, row in cached_scaled_rows(scc)[0].items()
            for low in (min(row.values(), default=1),)
        },
    )


def _memoized(scc: SCC, key: tuple, compute: Callable[[], Any]) -> Any:
    """``compute()``, stored in the SCC's memo under ``key`` on first use."""
    if key not in scc.memo:
        scc.memo[key] = compute()
    return scc.memo[key]


def cached_scaled_rows(scc: SCC) -> tuple[dict[int, dict[int, Prob]], dict[int, Prob]]:
    """The rows the ratio checks compare, and each row's denominator.

    In exact mode each row is its entries' integer numerators over their
    least common denominator (:func:`scale_row`), the fraction-free idea of
    Bareiss (1968).  A comparison with one factor from each row involved on
    both sides scales both sides alike, so its verdict is unchanged and it
    runs in ``int`` arithmetic; a side lacking some row's factor is
    multiplied by that row's denominator.  In float mode the rows are
    ``scc.rows`` unchanged, over denominators of 1.0, so a product with
    one is the same float and costs a float product.  An exact SCC that
    ``parse_scc`` or :func:`~scclab.models.generate_scc` built holds these
    rows as its one row form (:meth:`~scclab.core.SCC.from_scaled`), and
    :func:`~scclab.core.validate_scc` leaves a clean dict-built one's in
    the memo, so only an unvalidated dict-built SCC is scaled here.
    """

    def scale():
        if not scc.exact:
            return scc.rows, dict.fromkeys(scc.rows, 1.0)
        rows, dens = {}, {}
        for menu, row in scc.rows.items():
            rows[menu], dens[menu] = scale_row(row)
        return rows, dens

    return _memoized(scc, SCALED_ROWS, scale)


class _GrandRow(NamedTuple):
    """What :func:`_grand_row` decides about a complete SCC.

    ``empty``: the empty collection is positive in every menu (True), in
    none (False) or in some (None).  ``proportional``: every non-empty
    collection of every menu is positive, no other collection but the empty
    one is recorded, and :func:`_proportional` certifies every row against
    the grand-set row on its menu's collections, the empty one included
    when ``empty`` is True: exactly in exact mode, and in float mode within
    the unit limit of :func:`_unit_limit`.
    """

    empty: Optional[bool]
    proportional: bool

    def certifies(self, axiom: AxiomId) -> bool:
        """Whether the certificate settles IIS, IIS_O or PIIS as holding:
        IIS_O guards on the empty collection too, and PIIS needs every menu
        to have the same kind of positive collections."""
        if axiom is AxiomId.IIS_O:
            return self.proportional and self.empty is True
        if axiom is AxiomId.PIIS:
            return self.proportional and self.empty is not None
        return self.proportional


def _grand_row(scc: SCC, tol: ToleranceConfig) -> _GrandRow:
    """The grand-row certificate of a complete SCC, decided once per tolerance.

    If every collection a check guards on is positive in every menu and each
    row is proportional to the grand-set row g, mu(T,S) = c_S g(T), then
    every IIS equation and every PIIS chain telescopes, so IIS, IIS_O and
    PIIS hold with every guard met: Luce's (1959) ratio scale for set choice.
    Each menu is tested with one :func:`_proportional` on its row and g, in
    both modes, on the rows of :func:`cached_scaled_rows`.  The support scan
    stops at the first menu that misses or zeroes a non-empty collection.
    """
    return _memoized(scc, ("grand_row", tol), lambda: _decide_grand_row(scc, tol))


#: The float entries that :func:`_proportional` accepts: no ratio of two of
#: them and no product of three leaves the normal range, and no valid cell
#: (at most 1 + ``EPS_ZERO``) or two-cell sum of REL_ADD reaches the top.
_FLOAT_RANGE = (2.0**-340, 1 + 2.0**-10)

#: Unit roundoff of IEEE double precision, rounding to nearest.
_UNIT_ROUNDOFF = Fraction(1, 2**53)


def _decide_grand_row(scc: SCC, tol: ToleranceConfig) -> _GrandRow:
    rows = cached_scaled_rows(scc)[0]
    pos = _positive_rows(scc)
    menus = scc.menus()
    empties = 0
    for s in menus:
        row, positive = rows[s], pos[s]
        subs = nonempty_submasks(s)
        if not all(map(positive.__contains__, subs)) or len(row) > len(subs) + (0 in row):
            return _GrandRow(None, False)
        empties += 0 in positive
    empty = True if empties == len(menus) else False if empties == 0 else None
    family = submasks if empty else nonempty_submasks
    grand = rows[scc.universe.full_mask]
    # the grand row first, set against itself, which tests its range
    for s in reversed(menus):
        subs = family(s)
        us = list(map(grand.__getitem__, subs))
        vs = list(map(rows[s].__getitem__, subs))
        if not _proportional(scc, us, vs, tol):
            return _GrandRow(empty, False)
    return _GrandRow(empty, True)


def _float_certified(spread: Prob, top: float, eps_eq: float) -> bool:
    """Whether every float comparison of the IIS and PIIS scans must pass on
    rows whose computed spread, the largest fl(max r / min r) over the rows
    of their ratios r = fl(mu(T,S) / g(T)) to the grand row, is ``spread``,
    and whose largest entry is ``top``.

    The proof follows Higham, *Accuracy and Stability of Numerical
    Algorithms* (2nd ed., 2002), sections 2.2 and 3.1, with unit roundoff
    u = 2^-53 and gamma_k = k u / (1 - k u).  Every entry lies in
    ``_FLOAT_RANGE``, so each division and multiplication below is exact up
    to a factor 1 + d with |d| <= u.

    1. A computed ratio is r(1 + d), so a row's exact spread is at most
       R = spread (1 + u) / (1 - u)^2.
    2. Each comparison of the scans sets one product of k entries against
       another: k = 2 in IIS and PIIS stage 1, k = 3 in stage 3.  Writing
       mu(T,S) = g(T) r_S(T), the g factors cancel, and the quotient of the
       two exact products is a product of k quotients r_S(T)/r_S(T') taken
       within one row each, so it lies in [R^-k, R^k].  Each computed
       product carries a factor 1 + theta with |theta| <= gamma_(k-1), so
       the quotient of the computed ones lies within a factor
       Q_k = R^k (1 + gamma_(k-1)) / (1 - gamma_(k-1)) of 1, and each is at
       most top^k (1 + gamma_(k-1)).  Their difference is at most the
       larger times 1 - 1/Q_k, so at most
       E_k = top^k (1 + gamma_(k-1)) (Q_k - 1).
    3. The scans round that difference once more and pass it when it is at
       most ``eps_eq``: the absolute floor of :func:`probs_equal`, and the
       test of :func:`_chain_scan`.  So (1 + u) max(E_2, E_3) <= eps_eq
       suffices.  It is evaluated in exact rationals, so the test adds no
       rounding of its own.
    4. A unit of :func:`_proportional` sets one row ``vs`` against one
       row ``us``, with ratios r_T = fl(v_T / u_T); ``us`` is g in the
       grand-row certificate.  Any unit's comparison sets u_T v_T' against
       u_T' v_T, whose exact quotient r_T' / r_T is in [R^-1, R], inside
       the [R^-2, R^2] of step 2, so E_2 bounds it, conservatively.
       The bound grows with ``spread`` and ``top``, so one call, that of
       :func:`_unit_limit` at the widened spread of a marginal walk's
       (S, x) unit, confirms every unit at or below both.
    """
    if not spread < math.inf:  # math.isfinite would float() a Fraction past the range
        return False
    u = _UNIT_ROUNDOFF
    rho = Fraction(spread) * (1 + u) / (1 - u) ** 2
    worst = Fraction(0)
    for k in (2, 3):
        gamma = (k - 1) * u / (1 - (k - 1) * u)
        q = rho**k * (1 + gamma) / (1 - gamma)
        worst = max(worst, Fraction(top) ** k * (1 + gamma) * (q - 1))
    return (1 + u) * worst <= eps_eq


@lru_cache(maxsize=None)
def _unit_limit(eps_eq: float) -> float:
    """The largest computed spread L of a float unit that
    :func:`_proportional` certifies under ``eps_eq``, derived once per
    tolerance: 1 + eps_eq/8, or 0.0 where the one :func:`_float_certified`
    call refuses, as rounding alone can exceed eps_eq.  The call is made
    at the top of ``_FLOAT_RANGE`` and at the spread L^2 W, in exact
    rationals, which covers both kinds of unit the limit passes.

    A single unit of computed spread at most L: L <= L^2 W, and the bound
    grows with the spread.

    An (S, x) unit of an SCC whose menus the marginal walk passed, each
    row within L of its computed marginal G'_S.  With u and gamma_k as in
    :func:`_float_certified`, G_S the exact marginal and n at most
    ``MAX_ITEMS``:

    1. A menu's exact ratios mu(T,S) / G'_S(T) spread by at most
       R_L = L (1 + u) / (1 - u)^2 (step 1 there).
    2. G'_S is n - |S| merges of the grand row's non-negative cells, so
       G'_S(T) = G_S(T) (1 + theta) with |theta| <= gamma_(n-|S|)
       (Higham, section 3.1), and mu(T,S) / G_S(T) spreads by at most
       R_L (1 + gamma_(n-|S|)) / (1 - gamma_(n-|S|)).
    3. In an (S, x) unit, mu(T,S) + mu(T u x,S) over
       G_(S\\x)(T) = G_S(T) + G_S(T u x) lies between the two cells'
       ratios to G_S, and is rounded once.  Row S\\x is step 2 at
       n - |S| + 1 <= n - 1.  As (1 + gamma_k)(1 + u) <= 1 + gamma_(k+1),
       the unit's exact spread is at most
       R_L^2 ((1 + gamma_(n-1)) / (1 - gamma_(n-1)))^2, which is
       L^2 W (1 + u) / (1 - u)^2 with the widening
       W = ((1 + gamma_(n-1)) / (1 - gamma_(n-1)))^2 (1 + u) / (1 - u)^2:
       the exact spread step 1 of :func:`_float_certified` allows at L^2 W.
       Step 4 there bounds each of the unit's comparisons: its columns are
       zero in both rows or in neither, its cells lie in ``_FLOAT_RANGE``,
       as the walk tested them, and its two-cell sums of a valid row stay
       below the range's top.
    """
    u = _UNIT_ROUNDOFF
    gamma = (MAX_ITEMS - 1) * u / (1 - (MAX_ITEMS - 1) * u)
    widening = (1 + u) / (1 - u) ** 2 * ((1 + gamma) / (1 - gamma)) ** 2
    limit = 1 + eps_eq / 8
    spread = Fraction(limit) ** 2 * widening
    return limit if _float_certified(spread, _FLOAT_RANGE[1], eps_eq) else 0.0


def _proportional(
    scc: SCC, us: Sequence[Prob], vs: Sequence[Prob], tol: ToleranceConfig
) -> bool:
    """Whether every comparison u_T v_T' = u_T' v_T between two columns of
    the 2 x m matrix with rows ``us`` and ``vs`` must pass: the one test of a
    unit's proportionality, in both modes.

    Exact mode: :func:`_rank_one`.  Float mode drops the columns that are
    zero in both rows, which compare 0.0 with 0.0, and refuses a column with
    one zero and any entry not finite or outside ``_FLOAT_RANGE``.
    It certifies the rest when the spread of their ratios v_T / u_T is at
    most the one float limit, :func:`_unit_limit`, whose bound covers a
    unit of any scan and every (S, x) unit of a marginal walk that passes.
    """
    if scc.exact:
        return _rank_one(us, vs)
    limit = _unit_limit(tol.eps_eq)
    if not limit:
        return False
    if 0 in us or 0 in vs:
        kept = [(u, v) for u, v in zip(us, vs) if u or v]
        us, vs = [u for u, _ in kept], [v for _, v in kept]
    if not us:
        return True
    (low, high), entries = _FLOAT_RANGE, [*us, *vs]
    if not (math.isfinite(sum(entries)) and low <= min(entries) and max(entries) <= high):
        return False
    ratios = list(map(truediv, vs, us))
    return max(ratios) / min(ratios) <= limit


def cached_revealed_constraints(scc: SCC) -> dict[int, int]:
    """:func:`derive_revealed_constraints`, derived once per SCC."""
    return _memoized(scc, ("constraints",), lambda: derive_revealed_constraints(scc))


def cached_revealed_nests(scc: SCC) -> list[int]:
    """:func:`derive_revealed_nests`, derived once per SCC."""
    return _memoized(scc, ("nests",), lambda: derive_revealed_nests(scc))


def _removals(
    rows: dict[int, dict[int, Prob]],
) -> Iterator[tuple[int, int, int, dict[int, Prob], dict[int, Prob]]]:
    """(S, x, S\\x, row of S, row of S\\x) for every menu S of two or more items
    and every item x of S (as a 1-bit mask), menus and items ascending, read
    from ``rows`` (a complete SCC's rows, or their scaled form)."""
    for s in sorted(rows):
        if popcount(s) < 2:
            continue
        row_s = rows[s]
        for x in bits(s):
            xbit = 1 << x
            yield s, xbit, s & ~xbit, row_s, rows[s & ~xbit]


def check_full_support(
    scc: SCC, tol: ToleranceConfig = DEFAULT_TOL, cap: int = WITNESS_CAP
) -> AxiomReport:
    """Every non-empty collection of every menu has positive probability.

    Domain: all (T, S) with non-empty T contained in menu S, which has size
    3^n - 2^n on a complete SCC.  No guards, so nothing is vacuous.  The
    rows are compared with the achievable family, every non-empty subset of
    S, by :func:`_support_shape_report`.
    """
    return _support_shape_report(scc, cap, AxiomId.FULL_SUPPORT)


def _rank_one(us: Sequence[Prob], vs: Sequence[Prob]) -> bool:
    """True iff the 2 x m matrix with rows ``us`` and ``vs`` has rank at most
    one: every column is proportional to the first nonzero one.  Exact
    arithmetic only, where proportionality is transitive."""
    for u0, v0 in zip(us, vs):
        if u0 or v0:
            return all(map(eq, map(mul, us, repeat(v0)), map(mul, repeat(u0), vs)))
    return True


def check_iis(
    scc: SCC,
    tol: ToleranceConfig = DEFAULT_TOL,
    empty_variant: bool = False,
    cap: int = WITNESS_CAP,
) -> AxiomReport:
    """Menu-independence of relative collection probabilities.

    mu(T,S) * mu(T',S') = mu(T',S) * mu(T,S') for collections T, T' available
    in both menus.  The standard form guards on all four probabilities being
    positive (both ratios well defined and positive) and is symmetric in both
    the menu pair and the collection pair, so the domain is unordered menu
    pairs S < S' times unordered collection pairs T < T' over non-empty
    subsets of the intersection.

    The empty-collection form (``empty_variant=True``) admits T, T' = empty
    and guards only the two denominators mu(T',S) > 0 and mu(T',S') > 0; the
    guard is asymmetric in (T, T'), so ordered collection pairs are
    enumerated.  Running it on a standard SCC is permitted: empty-collection
    probabilities are identically zero there, which strengthens the check
    rather than breaking it.

    Counts per menu pair, with k collections positive in both menus (the
    empty one excluded in the standard form) and m = 2^|S n S'| - 1: C(k,2)
    checked and C(m,2) - C(k,2) vacuous, or k*m and (m+1-k)*m in the
    empty-collection form; the vacuous count is the rest of the domain.
    Equivalently, a pair T < T' of the standard form positive together in
    m menus, a list of the co-occurrence index :func:`_cooccurrence`, holds
    C(m,2) checked instances.  When the grand-row certificate of
    :func:`_grand_row` holds, every guard does, so the report is "holds"
    with the whole domain checked.  Otherwise :func:`_iis_scan` decides:
    the standard form certifies a list only when its stream is reached, the
    empty-collection form reads a per-menu tally of shared collections.
    """
    axiom = AxiomId.IIS_O if empty_variant else AxiomId.IIS
    out = _Collector(scc, axiom, cap)
    if _grand_row(scc, tol).certifies(axiom):
        return out.report()
    return out.report(_iis_scan(scc, tol, out, empty_variant))


def _iis_scan(
    scc: SCC, tol: ToleranceConfig, out: _Collector, empty_variant: bool
) -> int:
    """Both IIS forms; returns the instances checked.

    The standard form reads the co-occurrence index :func:`_cooccurrence`:
    each list of m menus counts C(m,2), with no certificate, and
    :func:`_merged` merges the lists' streams of :func:`_iis_violations`,
    each certified when started, into one stream in the order
    (S, S', T, T') of a scan menu pair by menu pair, so no list whose first
    menu follows the cap-th witness's S is certified.  It does so on dense
    data too, where the index has more entries than there are menu pairs
    and is dropped after the check.

    The empty-collection form consumes, in menu order, the list of menus
    where each collection is positive: at menu S, a tally of the later S'
    sharing k of its positive collections counts k * (2^|S n S'| - 1) per
    S', and S's pairs go to the frame as one stream.  In it,
    :func:`_proportional` certifies each (S, S'), in either mode, on its two
    rows over the cells of either row inside S n S' (T is zero in both menus
    elsewhere, so both sides are), and only the pairs it refuses are
    compared, directly where there is one comparison, which costs less."""
    if not empty_variant:
        index = _cooccurrence(scc)
        units = (
            (cells[0], _iis_violations(scc, tol, t, t2, cells))
            for (t, t2), cells in index.items()
            if t and len(cells) > 3
        )
        out.extend(
            {"T": t, "T_prime": t2, "S": s, "S_prime": s2}
            for s, s2, t, t2 in _merged(units)
        )
        return sum(math.comb(len(cells) // 3, 2) for (t, _), cells in index.items() if t)
    checked = 0
    pos = _positive_rows(scc)
    rows = cached_scaled_rows(scc)[0]

    def violations(s: int, shared: Counter[int]) -> Iterator[dict[str, int]]:
        for s2 in sorted(filter(s.__and__, shared)):
            inter, row_s, row_s2 = s & s2, rows[s], rows[s2]
            subs = sorted({t for row in (row_s, row_s2) for t in row if t & inter == t})
            if shared[s2] * ((1 << inter.bit_count()) - 1) > 1:
                columns = [list(map(r.get, subs, repeat(0))) for r in (row_s, row_s2)]
                if _proportional(scc, *columns, tol):
                    continue
            for t, t2 in product(subs, sorted(pos[s].keys() & pos[s2].keys())):
                if t2 == t:
                    continue
                lhs = row_s.get(t, 0) * row_s2[t2]
                rhs = row_s[t2] * row_s2.get(t, 0)
                if not probs_equal(scc, lhs, rhs, tol):
                    yield {"T": t, "T_prime": t2, "S": s, "S_prime": s2}

    menus = scc.menus()
    later: dict[int, list[int]] = {}  # descending: the menu reached is last
    for s in reversed(menus):
        for t in pos[s]:
            later.setdefault(t, []).append(s)
    for s in menus:
        shared: Counter[int] = Counter()
        for t in pos[s]:
            later[t].pop()
            shared.update(later[t])
        sizes = map((1).__lshift__, map(int.bit_count, map(s.__and__, shared)))
        checked += sum(map(mul, shared.values(), sizes)) - sum(shared.values())
        out.extend(violations(s, shared))
    return checked


def _cooccurrence(scc: SCC) -> dict[tuple[int, int], list[Prob]]:
    """The co-occurrence index, built from :func:`_positive_rows`: for each
    pair of collections A < B positive together in some menu (the empty one
    included), the flat list S, mu(A,S), mu(B,S), S', ... of the menus where
    both are positive, ascending, each with its two cells.  The pairs are in
    the order of their first menu, then A, then B.  It is the one
    enumeration of co-occurring positive pairs, which IIS's standard form
    and PIIS stage 1 read, and it has sum_S C(k_S,2) entries over the k_S
    positive collections of each menu S.  The SCC's memo keeps it where
    that is no more than the menu pairs, as on sparse data; a denser index,
    up to about 5^n/2 entries, is built for each reader and dropped."""

    def build():
        index: dict[tuple[int, int], list[Prob]] = {}
        for s in scc.menus():
            for (a, pa), (b, pb) in combinations(sorted(pos[s].items()), 2):
                index.setdefault((a, b), []).extend((s, pa, pb))
        return index

    pos = _positive_rows(scc)
    if sum(math.comb(len(row), 2) for row in pos.values()) > math.comb(len(pos), 2):
        return build()
    return _memoized(scc, ("cooccurrence",), build)


def _iis_violations(
    scc: SCC, tol: ToleranceConfig, t: int, t2: int, cells: list[Prob]
) -> Iterator[tuple[int, int, int, int]]:
    """(S, S', T, T') for each menu pair S < S' of the co-occurrence list
    ``cells`` of T < T' where mu(T,S) * mu(T',S') = mu(T',S) * mu(T,S')
    fails, in order.  A list of three or more menus is certified first, by
    :func:`_proportional` when the stream starts; one of two is compared."""
    if len(cells) > 6 and _proportional(scc, cells[1::3], cells[2::3], tol):
        return
    entries = zip(cells[0::3], cells[1::3], cells[2::3])
    for (s, u, v), (s2, u2, v2) in combinations(entries, 2):
        if not probs_equal(scc, u * v2, v * u2, tol):
            yield s, s2, t, t2


def _merged(units: Iterable[tuple[int, Iterator[tuple]]]) -> Iterator[tuple]:
    """The items of the streams of ``units``, each a first menu and a lazy
    ascending stream of distinct tuples led by menus no earlier than it,
    merged in order.  The units come in order of first menu, as the lists
    of :func:`_cooccurrence` do, and a stream is started only when no
    pending item comes before its first menu.  It never reads the cap."""
    heap: list[tuple[tuple, int, Iterator[tuple]]] = []
    for order, (first, stream) in enumerate(chain(units, [(math.inf, iter(()))])):
        while heap and heap[0][0][0] < first:
            item, rank, rest = heappop(heap)
            yield item
            item = next(rest, None)
            if item is not None:
                heappush(heap, (item, rank, rest))
        item = next(stream, None)
        if item is not None:
            heappush(heap, (item, order, stream))


def _iis_sides(scc: SCC, b: dict[str, int], empty_variant: bool) -> Sides:
    """mu(T,S) * mu(T',S') and mu(T',S) * mu(T,S'), or None unless the
    probabilities :func:`check_iis` guards on are positive."""
    s, s2, t, t2 = b["S"], b["S_prime"], b["T"], b["T_prime"]
    mu_t_s = prob_lookup(scc, t, s)
    mu_t_s2 = prob_lookup(scc, t, s2)
    mu_t2_s = prob_lookup(scc, t2, s)
    mu_t2_s2 = prob_lookup(scc, t2, s2)
    guards = [mu_t2_s, mu_t2_s2]
    if not empty_variant:
        guards += [mu_t_s, mu_t_s2]
    if any(is_zero(scc, g) for g in guards):
        return None
    return mu_t_s * mu_t2_s2, mu_t2_s * mu_t_s2


def _marginal_certificate(scc: SCC, tol: ToleranceConfig) -> bool:
    """Whether every menu's row is a multiple of the grand row's marginal on
    it, so that every unit of REL_ADD and REL_ADD_1 is rank one: the
    random-choice-set representation, in which each row is the trace on its
    menu of one distribution over sets, rescaled.  It is decided once per
    SCC and tolerance, in both modes.

    Let g be the grand-set row and G_S its marginal on menu S,
    G_S(T) = sum of g(D) over the D with D n S = T.

    1. Suppose mu(T,S) = c_S G_S(T) for every menu S and every non-empty
       T in S, where c_S may be 0.
    2. For x in S and non-empty T in S\\x, T and T u x are non-empty, and
       the D with D n S equal to T or to T u x are those with
       D n (S\\x) = T.  So mu(T,S) + mu(T u x,S) = c_S G_{S\\x}(T).
    3. By step 1, mu(T,S\\x) = c_{S\\x} G_{S\\x}(T).  Both rows of the
       (S, x) unit are multiples of G_{S\\x} on its columns, so the unit
       is rank one and every REL_ADD instance of it holds.
    4. A REL_ADD_1 unit is its REL_ADD unit less one column, so it is
       rank one too.

    Each menu is tested by :func:`_proportional` on G_S and its row of
    :func:`cached_scaled_rows`, the row the scans compare, over the
    non-empty T recorded in either, ascending: exactly in exact mode, and
    in float mode under the one limit of :func:`_unit_limit`, whose bound
    covers every (S, x) unit of a walk that passes, where no comparison of
    the scans can fail.  Rank one there is step 1 unless G_S is zero on every
    non-empty T while the positivity table holds one in the row, so such
    a menu refuses.  The walk is depth-first from the grand set, each
    menu reached once by removing items in descending order, and
    G_{S\\y} is :func:`_marginal` of G_S onto S\\y.  G starts from the
    positive cells of g, so sparse data costs its support, and only the
    marginals of one chain of menus are alive at a time.
    """
    return _memoized(scc, ("marginals", tol), lambda: _decide_marginals(scc, tol))


def _marginal(cells: dict[int, Prob], xbit: int) -> dict[int, Prob]:
    """The one merge of a row or marginal ``cells`` of menu S onto S\\x: each
    T is added into T\\x, so T holds mu(T,S) + mu(T u x,S) wherever one of
    the two is recorded, and only there; the empty result is dropped, and a
    caller that needs it adds it."""
    merged: dict[int, Prob] = {}
    keep = ~xbit
    for t, p in cells.items():
        if t := t & keep:
            merged[t] = merged[t] + p if t in merged else p
    return merged


def _decide_marginals(scc: SCC, tol: ToleranceConfig) -> bool:
    rows, pos = cached_scaled_rows(scc)[0], _positive_rows(scc)

    def holds(s: int, marginal: dict[int, Prob], below: int) -> bool:
        row, positive = rows[s], pos[s]
        if not marginal and len(positive) > (0 in positive):
            return False
        subs = sorted((marginal.keys() | row.keys()) - {0})
        us, vs = (list(map(cells.get, subs, repeat(0))) for cells in (marginal, row))
        if not _proportional(scc, us, vs, tol):
            return False
        if s.bit_count() < 2:
            return True
        for y in bits(s & ((1 << below) - 1)):
            if not holds(s & ~(1 << y), _marginal(marginal, 1 << y), y):
                return False
        return True

    full = scc.universe.full_mask
    grand = {t: g for t, g in pos[full].items() if t}
    return holds(full, grand, scc.universe.n)


def _rel_add_scan(
    scc: SCC, tol: ToleranceConfig, cap: int, axiom: AxiomId
) -> AxiomReport:
    """Shared scan for relative additivity and its constraint-aware variant.

    Domain: menus S with at least two items, items x in S, unordered pairs of
    distinct non-empty collections T < T' contained in S minus x (identical
    pairs hold trivially and are not enumerated).  For REL_ADD_1, instances
    touching the revealed constraint set of x restricted to S minus x are
    vacuous instead of checked.

    Counts per (S, x), with m = 2^|S\\x| - 1: C(m,2) checked, or C(m-1,2)
    checked and m-1 vacuous for REL_ADD_1 with a non-empty excluded set,
    the pairs touching it: :func:`_rel_add_counts` counts them in closed
    form, as REL_ADD_2's checked pairs where every menu meets its P, and
    the rest of the domain is checked.  When :func:`_marginal_certificate`
    holds, in either mode, every unit is rank one (within the unit limit
    in float mode) and no (S, x) is visited.  Otherwise the (S, x) go to
    the frame as one stream, in which :func:`_proportional` certifies an
    (S, x), in either mode, on row S\\x and row S's :func:`_marginal`, over
    the non-empty T recorded in either, the excluded one left out, and only
    those that fail it are scanned.
    """
    out = _Collector(scc, axiom, cap)
    constraints = (
        cached_revealed_constraints(scc) if axiom is AxiomId.REL_ADD_1 else None
    )
    n = scc.universe.n
    vacuous = _rel_add_counts(n, constraints, (1 << n) - 1)[0] if constraints else 0

    def violations() -> Iterator[dict[str, int]]:
        for s, xbit, rest, row_s, row_rest in _removals(cached_scaled_rows(scc)[0]):
            sums = _marginal(row_s, xbit)
            excluded = constraints[xbit.bit_length() - 1] & rest if constraints else 0
            subs = sorted((sums.keys() | row_rest.keys()) - {0, excluded})
            us = list(map(row_rest.get, subs, repeat(0)))
            vs = list(map(sums.get, subs, repeat(0)))
            if _proportional(scc, us, vs, tol):
                continue
            for (t, u, v), (t2, u2, v2) in combinations(zip(subs, us, vs), 2):
                if not probs_equal(scc, u * v2, u2 * v, tol):
                    yield {"S": s, "x": xbit, "T": t, "T_prime": t2}

    if not _marginal_certificate(scc, tol):
        out.extend(violations())
    return out.report(vacuous=vacuous)


def check_relative_additivity(
    scc: SCC, tol: ToleranceConfig = DEFAULT_TOL, cap: int = WITNESS_CAP
) -> AxiomReport:
    """Removing an item rescales all pair-sum probabilities uniformly.

    mu(T, S\\x) * [mu(T',S) + mu(T' u x, S)] = mu(T', S\\x) * [mu(T,S) +
    mu(T u x, S)] for every menu S, item x in S, and distinct non-empty
    T, T' contained in S\\x.  No guards: zero probabilities participate.
    Where every row is a multiple of the grand row's marginal on its menu
    (:func:`_marginal_certificate`: exactly in exact mode, within its
    proven limit in float mode), the report is "holds" with the whole
    domain checked and no (S, x) visited; otherwise
    :func:`_rel_add_scan` certifies or scans each (S, x) on the T recorded
    in row S\\x or in row S's :func:`_marginal`.
    """
    return _rel_add_scan(scc, tol, cap, AxiomId.REL_ADD)


def _rel_add_sides(scc: SCC, b: dict[str, int], axiom: AxiomId) -> Sides:
    """The equation of REL_ADD, REL_ADD_1 and REL_ADD_2 as
    :func:`_rel_add_adjusted` states it, adj(x,S) = 0 but in REL_ADD_2.  None
    where a guard fails: REL_ADD_1 keeps T and T' off Q(x) n S\\x; REL_ADD_2
    binds T to it and needs a positive adjustment denominator, the sum of
    the positive mu(Q(y),X) over y in S."""
    s, xbit, t, t2 = b["S"], b["x"], b["T"], b["T_prime"]
    rest = s & ~xbit
    adj = scc.zero()
    if axiom is not AxiomId.REL_ADD:
        revealed = cached_revealed_constraints(scc)
        x = next(bits(xbit))
        if axiom is AxiomId.REL_ADD_1 and revealed[x] & rest in (t, t2):
            return None
        if axiom is AxiomId.REL_ADD_2:
            full = scc.universe.full_mask
            cells = (prob_lookup(scc, revealed[y], full) for y in bits(s))
            denom = sum((p for p in cells if is_positive(scc, p)), scc.zero())
            if revealed[x] & rest != t or t == 0 or t2 == t or is_zero(scc, denom):
                return None
            adj = prob_lookup(scc, revealed[x], full) / denom
    lhs = prob_lookup(scc, t, rest) * (
        prob_lookup(scc, t2, s) + prob_lookup(scc, t2 | xbit, s)
    )
    rhs = prob_lookup(scc, t2, rest) * (
        prob_lookup(scc, t, s) + prob_lookup(scc, t | xbit, s) - adj
    )
    return lhs, rhs


def check_additivity(
    scc: SCC, tol: ToleranceConfig = DEFAULT_TOL, cap: int = WITNESS_CAP
) -> AxiomReport:
    """Exact mass splitting for empty-collection SCCs.

    mu(T, S\\x) = mu(T,S) + mu(T u x, S) for every menu S, x in S, and every
    T contained in S\\x including the empty collection (stated in rearranged
    sum form; the postulate is usually written as a difference).  Only
    empty-collection SCCs qualify.  The domain has n 3^(n-1) instances, of
    which the n at singleton menus (where S\\x is not a menu) are vacuous.
    Per (S, x), row S\\x is compared with row S's :func:`_marginal` and
    the empty collection's mu(empty,S) + mu({x},S), which the marginal
    drops, on the rows of :func:`cached_scaled_rows`, each side times the
    other row's denominator (1.0 in float mode), in one stream.
    """
    out = _Collector(scc, AxiomId.ADDITIVITY, cap)
    if not scc.allows_empty:
        raise WrongVariantError(
            "additivity is a postulate on empty-collection SCCs; "
            "this SCC does not allow the empty collection"
        )
    rows, dens = cached_scaled_rows(scc)

    def violations() -> Iterator[dict[str, int]]:
        for s, xbit, rest, row_s, row_rest in _removals(rows):
            den_s, den_rest = dens[s], dens[rest]
            sums = _marginal(row_s, xbit)
            sums[0] = row_s.get(0, 0) + row_s.get(xbit, 0)
            for t in sorted(sums.keys() | row_rest.keys()):
                lhs = row_rest.get(t, 0) * den_s
                if not probs_equal(scc, lhs, sums.get(t, 0) * den_rest, tol):
                    yield {"S": s, "x": xbit, "T": t}

    out.extend(violations())
    return out.report(vacuous=scc.universe.n)


def _additivity_sides(scc: SCC, b: dict[str, int]) -> Sides:
    s, xbit, t = b["S"], b["x"], b["T"]
    rest = s & ~xbit
    if rest == 0:
        return None
    return prob_lookup(scc, t, rest), prob_lookup(scc, t, s) + prob_lookup(scc, t | xbit, s)


def derive_revealed_constraints(scc: SCC) -> dict[int, int]:
    """Constraint sets revealed by binary-menu zeros.

    Item y belongs to the revealed constraint set of x (besides x itself)
    exactly when x is never chosen alone against y: mu({x}, {x,y}) = 0.
    Needs every binary menu; completeness is otherwise not required.
    """
    n = scc.universe.n
    pos = _positive_rows(scc)
    revealed: dict[int, int] = {}
    for x in range(n):
        xbit = 1 << x
        mask = xbit
        for y in range(n):
            if y == x:
                continue
            pair = xbit | (1 << y)
            if pair not in pos:
                raise MissingBinaryMenuError(
                    f"binary menu {scc.universe.labels_of(pair)} is absent"
                )
            if xbit not in pos[pair]:
                mask |= 1 << y
        revealed[x] = mask
    return revealed


def derive_revealed_nests(scc: SCC) -> list[int]:
    """Support of the grand-set row, ascending: the nests revealed by data."""
    row = _positive_rows(scc).get(scc.universe.full_mask)
    if row is None:
        raise MenuAbsentError("grand-set row required to derive revealed nests")
    return sorted(row.keys() - {0})


def _support_shape_report(
    scc: SCC, cap: int, axiom: AxiomId, attributes: Optional[Sequence[int]] = None
) -> AxiomReport:
    """Shared scan for full support and the kind-2/3/4 positivity postulates.

    Each states: mu(T,S) > 0 iff T is in the achievable family of S (see
    :func:`_achievable`).  The quantifier ranges over all non-empty T
    contained in S, a domain of size 3^n - 2^n, which the registry states,
    so the count comes first; violations are located by comparing the
    support of each row with the achievable family, menu by menu, in one
    stream.
    """
    out = _Collector(scc, axiom, cap)
    achievable_of = _achievable(scc, axiom, attributes)
    pos = _positive_rows(scc)

    def violations() -> Iterator[dict[str, int]]:
        for menu in scc.menus():
            achievable, sup = achievable_of(menu), pos[menu].keys() - {0}
            for t in sorted(sup - achievable) + sorted(achievable - sup):
                yield {"T": t, "S": menu}

    out.extend(violations())
    return out.report()


def check_positivity(
    scc: SCC,
    kind: int,
    tol: ToleranceConfig = DEFAULT_TOL,
    attributes: Optional[Sequence[int]] = None,
    cap: int = WITNESS_CAP,
) -> AxiomReport:
    """The four positivity postulates.

    kind 1: every item of every menu appears in some positively chosen
            collection (domain: all (S, x), size n * 2^(n-1)).
    kind 2: support equals the trace of exogenous attribute carriers
            (requires ``attributes``: carrier masks).
    kind 3: support equals the trace of revealed constraint sets.
    kind 4: support equals the trace of revealed nests.

    Kinds 2-4 quantify over all non-empty T contained in S (see
    :func:`_support_shape_report`).
    """
    if kind == 1:
        out = _Collector(scc, AxiomId.POS1, cap)
        pos = _positive_rows(scc)
        out.extend(
            {"x": 1 << x, "S": menu}
            for menu in scc.menus()
            for x in bits(menu & ~reduce(or_, pos[menu], 0))
        )
        return out.report()
    if kind in (2, 3, 4):
        return _support_shape_report(scc, cap, AxiomId(f"POS{kind}"), attributes)
    raise ValueError(f"positivity kind must be 1, 2, 3, or 4, got {kind}")


def _achievable(
    scc: SCC, axiom: AxiomId, attributes: Optional[Sequence[int]]
) -> Callable[[int], set[int]]:
    """The achievable family of a support-shape postulate as a function of
    the menu S: every non-empty subset of S for FULL_SUPPORT, and for POS2,
    POS3 and POS4 the non-empty traces on S of the attribute carriers, of
    the revealed constraint sets of S's items, or of the revealed nests."""
    if axiom is AxiomId.FULL_SUPPORT:
        return lambda menu: set(nonempty_submasks(menu))
    if axiom is AxiomId.POS3:
        revealed = cached_revealed_constraints(scc)
        return lambda menu: {revealed[x] & menu for x in bits(menu)}
    if axiom is AxiomId.POS2:
        if attributes is None:
            raise MissingAttributesError(
                "kind-2 positivity needs exogenous attribute carriers"
            )
        generators = list(attributes)
    else:
        generators = cached_revealed_nests(scc)
    return lambda menu: {g & menu for g in generators if g & menu}


def _recheck_pos1(scc: SCC, witness: Witness, tol: ToleranceConfig) -> bool:
    b = witness.bindings
    return not any(
        t & b["x"] and is_positive(scc, p) for t, p in scc.rows[b["S"]].items()
    )


def _recheck_support_shape(
    scc: SCC,
    witness: Witness,
    tol: ToleranceConfig,
    attributes: Optional[Sequence[int]] = None,
) -> bool:
    """(T, S) is positive exactly when T is not achievable at S."""
    s, t = witness.bindings["S"], witness.bindings["T"]
    achievable = _achievable(scc, witness.axiom, attributes)(s)
    return is_positive(scc, prob_lookup(scc, t, s)) != (t in achievable)


def _support_shape_sides(scc: SCC, b: dict[str, int]) -> Sides:
    """What a POS2-POS4 or FULL_SUPPORT witness records: mu(T,S)."""
    return prob_lookup(scc, b["T"], b["S"]), None


def _distinct_constraints_report(
    scc: SCC, tol: ToleranceConfig, cap: int
) -> AxiomReport:
    """No two items may reveal the same constraint set (n-choose-2 pairs)."""
    out = _Collector(scc, AxiomId.DISTINCT_Q, cap)
    revealed = cached_revealed_constraints(scc)
    out.extend(
        {"x": 1 << x, "y": 1 << y}
        for x, y in combinations(range(scc.universe.n), 2)
        if revealed[x] == revealed[y]
    )
    return out.report()


def _recheck_distinct_q(scc: SCC, witness: Witness, tol: ToleranceConfig) -> bool:
    revealed = cached_revealed_constraints(scc)
    b = witness.bindings
    return revealed[next(bits(b["x"]))] == revealed[next(bits(b["y"]))]


def _rel_add_adjusted(scc: SCC, tol: ToleranceConfig, cap: int) -> AxiomReport:
    """Relative additivity at the revealed constraint set, with adjustment.

    For T = (revealed constraint set of x) n (S\\x), when non-empty, and every
    other non-empty T' contained in S\\x:

        mu(T,S\\x) * [mu(T',S) + mu(T' u x,S)]
            = mu(T',S\\x) * [mu(T,S) + mu(T u x,S) - adj(x,S)]

    where adj(x,S) = mu(Q(x),X) / sum over y in S of mu(Q(y),X), read from
    grand-set rows (Q = revealed constraint sets).  Both sides are scaled
    by :func:`_adjustment`: exact mode clears the adjustment's denominator,
    and float mode compares the equation as written, as its ``sides`` do.
    The denominator sums only the positive cells of :func:`_positive_rows`,
    once per S, so it is positive exactly when S meets P, the items y with
    Q(y) positive in X.  An (S, x) is vacuous where T is empty or S misses
    P, and :func:`_rel_add_counts` counts both kinds in closed form.  One
    stream walks :func:`_removals`, skips the vacuous units, merges row S
    onto S\\x (:func:`_marginal`) only for a checked one, and compares,
    ascending, only the T' recorded in row S\\x or in that marginal: at
    any other T' both sides are zero, so it holds.
    """
    out = _Collector(scc, AxiomId.REL_ADD_2, cap)
    revealed = cached_revealed_constraints(scc)
    rows, dens = cached_scaled_rows(scc)
    full = scc.universe.full_mask
    row_full, positive = rows[full], _positive_rows(scc)[full]
    support = sum(1 << y for y, q in revealed.items() if q in positive)
    adj_denom = cache(lambda s: sum(row_full[revealed[y]] for y in bits(s) if support >> y & 1))

    def violations() -> Iterator[dict[str, int]]:
        for s, xbit, rest, row_s, row_rest in _removals(rows):
            q = revealed[xbit.bit_length() - 1]
            t = q & rest
            if not (t and s & support):
                continue
            sums = _marginal(row_s, xbit)
            num = row_full.get(q, 0) * dens[s]
            scale, shift = _adjustment(scc, num, adj_denom(s))
            lhs_factor = scale * row_rest.get(t, 0)
            rhs_factor = scale * sums.get(t, 0) - shift
            for t2 in sorted((sums.keys() | row_rest.keys()) - {0, t}):
                lhs = lhs_factor * sums.get(t2, 0)
                if not probs_equal(scc, lhs, row_rest.get(t2, 0) * rhs_factor, tol):
                    yield {"S": s, "x": xbit, "T": t, "T_prime": t2}

    out.extend(violations())
    return out.report(*_rel_add_counts(scc.universe.n, revealed, support))


def _adjustment(scc: SCC, num: Prob, denom: Prob) -> tuple[Prob, Prob]:
    """REL_ADD_2's adjustment adj(x,S) = num / denom, with ``num`` on row S's
    scale, as (scale, shift): the scan compares scale mu(T,S\\x) [mu(T',S) +
    mu(T' u x,S)] with mu(T',S\\x) [scale (mu(T,S) + mu(T u x,S)) - shift].
    Exact mode clears the denominator, (denom, num), so the comparison stays
    in ``int``s.  Float mode divides, (1.0, num / denom), so it compares the
    products that :func:`_rel_add_sides` computes, bit for bit, since the
    absolute floor of :func:`probs_equal` does not scale with denom, which
    can exceed 1."""
    if scc.exact:
        return denom, num
    return 1.0, num / denom


def check_rrm_suite(
    scc: SCC, tol: ToleranceConfig = DEFAULT_TOL, cap: int = WITNESS_CAP
) -> list[AxiomReport]:
    """The four-postulate random-reference suite, in order:

    distinct revealed constraint sets; kind-3 positivity; relative additivity
    away from the revealed constraint set; adjusted relative additivity at
    the revealed constraint set.
    """
    return [
        cached_report(scc, axiom, tol, cap=cap)
        for axiom in CHARACTERIZING_AXIOMS[(ModelTag.RRM, False)]
    ]


def _chain_bindings(t: int, t2: int, *chains: tuple[int, int, int]) -> dict[str, int]:
    """The eight PIIS bindings of two chains from T to T', each (T*, S, S')."""
    bindings = {"T": t, "T_prime": t2}
    for tag, (star, s, sp) in zip("12", chains):
        bindings.update({f"T_star_{tag}": star, f"S_{tag}": s, f"S_prime_{tag}": sp})
    return bindings


#: PIIS's ratio table (num, den, menu): num[a][b], den[a][b] and menu[a][b]
#: are mu(a,S0), mu(b,S0) and S0 at the first menu S0 of a co-occurring pair.
_Ratios = tuple[dict[int, dict[int, Prob]], dict[int, dict[int, Prob]], dict[int, dict[int, int]]]


def check_piis(
    scc: SCC, tol: ToleranceConfig = DEFAULT_TOL, cap: int = WITNESS_CAP
) -> AxiomReport:
    """Path-independence of relative collection probabilities.

    For each ordered pair (T, T'), every two-step chain value
    mu(T,S)/mu(T*,S) * mu(T*,S')/mu(T',S') — over all intermediates T* and
    menus S, S' making all four probabilities positive — must be the same.

    Decision procedure (complete, in three stages):

    1. Per-pair ratio constancy: for collections A, B jointly positive in
       several menus, mu(A,S)/mu(B,S) must not depend on S.  A failure is
       already a chain conflict (take T* = T' = B), reported as such.  The
       pairs and their menus are the lists of the co-occurrence index
       :func:`_cooccurrence`, which IIS reads too: a list of m menus counts
       its m - 1 later menus, each compared with the first by
       :func:`_ratio_conflicts`, and :func:`_merged` merges the conflicts
       into one stream in the order of a scan menu by menu (menu, then A,
       then B), starting a list only when it reaches the list's first menu.
       The index's keys give the co-occurrence graph; an empty index ends
       the scan here, and past a clean stage 1 each list's first menu
       gives the pair's ratio, read once into one table, :data:`_Ratios`.
    2. If stage 1 is clean, each co-occurring pair has one well-defined
       ratio.  In exact mode :func:`_fit_potential` fits a multiplicative
       potential over the co-occurrence graph; if every edge ratio matches
       it, compared in the index's order, a certificate, all chain values
       telescope and the postulate holds outright.
    3. Otherwise (and in float mode unless the grand-row certificate holds,
       since a long telescoping product would accumulate error), chain
       values are compared pairwise across intermediates by
       :func:`_chain_scan`.  It scans each unordered pair once: the
       comparisons of (T', T) multiply the same numbers as those of (T, T')
       with the two sides swapped, and both multiplication and
       ``probs_equal`` are symmetric, so the mirror pair has the same
       verdicts bit for bit.

    The domain is defined by these stages, so ``instances_checked`` counts
    the instances of the stages run: the repeated co-occurrences of stage 1,
    read off the index before any comparison, the potential's edges up to
    the first inconsistent one, and the chain comparisons of ordered pairs
    in stage 3 (each unordered pair counts twice).  ``instances_vacuous``
    counts ordered pairs of distinct support collections admitting no chain
    at all, twice the unordered pairs :func:`_distant_pairs` counts on the
    neighbour bitsets, whatever stage 1 finds.

    When the grand-row certificate of :func:`_grand_row` holds, every stage
    would pass, so the report is "holds", nothing is vacuous, and the counts
    of the stages that would run are summed in closed form.  With k_S
    positive collections in menu S and N in the grand set, every pair of
    collections co-occurs there: stage 1 repeats sum_S C(k_S,2) - C(N,2)
    pairs, and then exact mode checks the C(N,2) edges of the potential,
    float mode the 2 C(N,2) (N-2) chain comparisons of stage 3.
    """
    out = _Collector(scc, AxiomId.PIIS, cap)
    grand = _grand_row(scc, tol)
    if grand.certifies(AxiomId.PIIS):
        n = scc.universe.n
        k = [(1 << size) - (not grand.empty) for size in range(n + 1)]
        pairs = sum(math.comb(n, size) * math.comb(k[size], 2) for size in range(1, n + 1))
        edges_x = math.comb(k[n], 2)
        checked = pairs if scc.exact else pairs - edges_x + 2 * edges_x * (k[n] - 2)
        return out.report(checked)
    pos = _positive_rows(scc)
    index = _cooccurrence(scc)

    # Stage 1: ratio constancy per unordered co-occurring pair.
    checked = sum(len(cells) // 3 - 1 for cells in index.values())
    conflicts = (
        (cells[0], _ratio_conflicts(scc, tol, a, b, cells))
        for (a, b), cells in index.items()
        if len(cells) > 3
    )
    out.extend(
        _chain_bindings(a, b, (b, s0, s0), (b, s, s)) for s, a, b, s0 in _merged(conflicts)
    )

    # The co-occurrence graph, and the ratio table of stages 2 and 3 (_Ratios).
    support_colls = sorted({c for row in pos.values() for c in row})
    neighbors: dict[int, set[int]] = {c: set() for c in support_colls}
    for a, b in index:
        neighbors[a].add(b)
        neighbors[b].add(a)
    vacuous = 2 * _distant_pairs(support_colls, neighbors)
    if out.witnesses or not index:
        return out.report(checked, vacuous)
    table: _Ratios = tuple({c: {} for c in support_colls} for _ in range(3))
    num, den, menu = table
    for (a, b), cells in index.items():
        s0, pa, pb = cells[:3]
        num[a][b] = den[b][a] = pa
        den[a][b] = num[b][a] = pb
        menu[a][b] = menu[b][a] = s0

    # Stage 2 (exact mode): a multiplicative potential.
    if scc.exact:
        fits, compared = _fit_potential(support_colls, index, table)
        checked += compared
        if fits:
            return out.report(checked, vacuous)

    # Stage 3: direct chain comparison.
    checked += _chain_scan(scc, tol, out, support_colls, neighbors, table)
    return out.report(checked, vacuous)


def _distant_pairs(colls: list[int], neighbors: dict[int, set[int]]) -> int:
    """The unordered pairs of ``colls`` more than two steps apart in the
    co-occurrence graph ``neighbors``: C(N,2) less the later collections
    that each reaches through the union of its own neighbour bitset and
    its neighbours', sum deg^2 unions.  A collection adjacent to every
    other, as on dense data, takes its bitset without reading its
    neighbours, and one whose neighbours cover every later one takes no
    union."""
    size = len(colls)
    everyone = (1 << size) - 1
    bit = {c: 1 << i for i, c in enumerate(colls)}
    near: dict[int, int] = {}
    for c, ns in neighbors.items():
        if len(ns) == size - 1:
            near[c] = everyone ^ bit[c]
        else:
            near[c] = sum(map(bit.__getitem__, ns))
    within = 0
    for i, t in enumerate(colls):
        later = everyone >> (i + 1) << (i + 1)
        reach = near[t] & later
        for mid in neighbors[t]:
            if reach == later:
                break
            reach |= near[mid] & later
        within += reach.bit_count()
    return math.comb(size, 2) - within


def _ratio_conflicts(
    scc: SCC, tol: ToleranceConfig, a: int, b: int, cells: list[Prob]
) -> Iterator[tuple[int, int, int, int]]:
    """(S, A, B, S0) for each later menu S of the co-occurrence list ``cells``
    of A < B where mu(A,S)/mu(B,S) differs from the ratio at its first menu
    S0, compared as mu(A,S) mu(B,S0) against mu(B,S) mu(A,S0), in menu order."""
    s0, pa0, pb0 = cells[:3]
    for s, pa, pb in zip(cells[3::3], cells[4::3], cells[5::3]):
        if not probs_equal(scc, pa * pb0, pb * pa0, tol):
            yield s, a, b, s0


def _fit_potential(
    colls: list[int], pairs: Collection[tuple[int, int]], table: _Ratios
) -> tuple[bool, int]:
    """PIIS stage 2 (exact mode): a multiplicative potential over each
    component of the graph of ``table``, each value kept as a numerator and
    denominator of row values with no division.  Returns whether the ratio
    of every pair of ``pairs``, in order, matches it, and the pairs compared
    up to the first that does not."""
    num, den, _ = table
    # phi(c) = potential[c][0] / potential[c][1]
    potential: dict[int, tuple[Prob, Prob]] = {}
    for root in colls:
        if root in potential:
            continue
        potential[root] = (1, 1)
        queue = [root]
        while queue:
            cur = queue.pop()
            phi_num, phi_den = potential[cur]
            for nxt in sorted(num[cur]):
                if nxt in potential:
                    continue
                # ratio(cur,nxt) = phi(cur)/phi(nxt)
                potential[nxt] = (phi_num * den[cur][nxt], phi_den * num[cur][nxt])
                queue.append(nxt)
    for compared, (a, b) in enumerate(pairs, 1):
        (a_num, a_den), (b_num, b_den) = potential[a], potential[b]
        if a_num * den[a][b] * b_den != b_num * num[a][b] * a_den:
            return False, compared
    return True, len(pairs)


def _chain_scan(
    scc: SCC,
    tol: ToleranceConfig,
    out: _Collector,
    colls: list[int],
    neighbors: dict[int, set[int]],
    table: _Ratios,
) -> int:
    """PIIS stage 3: per pair (T, T'), the chain through each common
    neighbour T* against a reference, the edge T-T' itself or else the chain
    through the least T*, read off ``table`` and its graph ``neighbors``.
    Returns the comparisons of ordered pairs.

    Each unordered pair is scanned once, its products computed in C in the
    association the replay uses, lhs = ref_num * (d1*d2) and
    rhs = (n1*n2) * ref_den.  A float pair whose largest difference is
    within ``eps_eq`` passes (the ``abs_tol`` branch of ``math.isclose``).
    Any other pair is replayed per ordered pair in enumeration order, in
    one stream to the frame, where ``probs_equal`` decides and the
    witnesses' bindings are built.
    """
    num, den, menu = table
    checked = 0
    suspects: list[tuple[int, int]] = []
    for i, t in enumerate(colls):
        nt = neighbors[t]
        n1, d1 = num[t].__getitem__, den[t].__getitem__
        for t2 in colls[i + 1 :]:
            mids = nt & neighbors[t2]
            # ratio(mid, t2) = den[t2][mid] / num[t2][mid]
            n2, d2 = den[t2].__getitem__, num[t2].__getitem__
            if t2 in nt:
                ref_num, ref_den = n1(t2), d1(t2)
            elif len(mids) > 1:
                mids = sorted(mids)
                first = mids.pop(0)
                ref_num, ref_den = n1(first) * n2(first), d1(first) * d2(first)
            else:
                continue
            checked += 2 * len(mids)
            lhs = map(mul, repeat(ref_num), map(mul, map(d1, mids), map(d2, mids)))
            rhs = map(mul, map(mul, map(n1, mids), map(n2, mids)), repeat(ref_den))
            if scc.exact:
                agree = all(map(eq, lhs, rhs))
            else:
                agree = max(map(abs, map(sub, lhs, rhs)), default=0.0) <= tol.eps_eq
            if not agree:
                suspects += [(t, t2), (t2, t)]

    def violations() -> Iterator[dict[str, int]]:
        for t, t2 in sorted(suspects):
            values: list[tuple[Prob, Prob, tuple[int, int, int]]] = []
            if t2 in neighbors[t]:
                s0 = menu[t][t2]
                # chains through T* = T' (and T* = T) reduce to the edge ratio
                values.append((num[t][t2], den[t][t2], (t2, s0, s0)))
            for mid in sorted(neighbors[t] & neighbors[t2]):
                via = (mid, menu[t][mid], menu[mid][t2])
                values.append((num[t][mid] * num[mid][t2], den[t][mid] * den[mid][t2], via))
            (ref_num, ref_den, ref), *others = values
            for n, d, via in others:
                if not probs_equal(scc, ref_num * d, n * ref_den, tol):
                    yield _chain_bindings(t, t2, ref, via)

    out.extend(violations())
    return checked


def _piis_sides(scc: SCC, b: dict[str, int]) -> Sides:
    """The values of chains 1 and 2 from T to T', or None unless all their
    probabilities are positive."""
    sides = []
    for tag in ("1", "2"):
        star = b[f"T_star_{tag}"]
        s = b[f"S_{tag}"]
        sp = b[f"S_prime_{tag}"]
        num1 = prob_lookup(scc, b["T"], s)
        den1 = prob_lookup(scc, star, s)
        num2 = prob_lookup(scc, star, sp)
        den2 = prob_lookup(scc, b["T_prime"], sp)
        if any(is_zero(scc, v) for v in (num1, den1, num2, den2)):
            return None
        sides.append(num1 * num2 / (den1 * den2))
    return sides[0], sides[1]


def _partition_report(scc: SCC, tol: ToleranceConfig, cap: int) -> AxiomReport:
    """Revealed nests must be pairwise disjoint and cover the grand set.

    Domain: one disjointness instance per nest pair plus one coverage
    instance.  Coverage failures bind the uncovered items under "uncovered".
    The count is fixed, and the overlapping pairs, then the coverage
    failure, go to the frame as one stream.
    """
    out = _Collector(scc, AxiomId.PARTITION, cap)
    nests = cached_revealed_nests(scc)
    uncovered = scc.universe.full_mask & ~reduce(or_, nests, 0)
    overlaps = ({"T": t, "T_prime": t2} for t, t2 in combinations(nests, 2) if t & t2)
    out.extend(chain(overlaps, [{"uncovered": uncovered}] if uncovered else []))
    return out.report(len(nests) * (len(nests) - 1) // 2 + 1)


def _recheck_partition(scc: SCC, witness: Witness, tol: ToleranceConfig) -> bool:
    b = witness.bindings
    nests = cached_revealed_nests(scc)
    if "uncovered" in b:
        union = 0
        for nest in nests:
            union |= nest
        return scc.universe.full_mask & ~union == b["uncovered"]
    return b["T"] in nests and b["T_prime"] in nests and bool(b["T"] & b["T_prime"])


def check_nsc_structure(
    scc: SCC, tol: ToleranceConfig = DEFAULT_TOL, cap: int = WITNESS_CAP
) -> list[AxiomReport]:
    """The nested-choice trio: path-independence, revealed-nest partition,
    kind-4 positivity."""
    return [
        cached_report(scc, axiom, tol, cap=cap)
        for axiom in CHARACTERIZING_AXIOMS[(ModelTag.NSC, False)]
    ]


def check_paf(
    scc: SCC, tol: ToleranceConfig = DEFAULT_TOL, cap: int = WITNESS_CAP
) -> AxiomReport:
    """Probabilistic attention filter.

    If item x is never chosen alone from S (mu({x},S) = 0), dropping x must
    not move the probability of any collection still chosen on both sides:
    mu(T,S) = mu(T,S\\x) whenever both are positive.  Domain: all (S, x, T)
    with non-empty T contained in S\\x, n (3^(n-1) - 2^(n-1)) instances; only
    those meeting the three-part guard in :func:`_positive_rows` are
    checked, and the rest are vacuous.  The guarded T are counted first;
    then one stream walks the units of a zero x, finds the guarded T of
    each only when it reaches it, and compares them on the rows of
    :func:`cached_scaled_rows`, each side times the other row's
    denominator.  Assumes a valid SCC, as :func:`_iis_scan` does.
    """
    out = _Collector(scc, AxiomId.PAF, cap)
    pos = _positive_rows(scc)
    rows, dens = cached_scaled_rows(scc)
    checked, units = 0, []  # the units whose x is never chosen alone from S
    for s, xbit, rest, row_s, row_rest in _removals(rows):
        if xbit not in pos[s]:
            checked += len((pos[s].keys() & pos[rest].keys()) - {0})
            units.append((s, xbit, rest, row_s, row_rest))
    out.extend(
        {"S": s, "x": xbit, "T": t}
        for s, xbit, rest, row_s, row_rest in units
        for t in sorted((pos[s].keys() & pos[rest].keys()) - {0})
        if not probs_equal(scc, row_s[t] * dens[rest], row_rest[t] * dens[s], tol)
    )
    return out.report(checked)


def _paf_sides(scc: SCC, b: dict[str, int]) -> Sides:
    s, xbit, t = b["S"], b["x"], b["T"]
    lhs = prob_lookup(scc, t, s)
    rhs = prob_lookup(scc, t, s & ~xbit)
    gate = is_zero(scc, prob_lookup(scc, xbit, s))
    if not (gate and is_positive(scc, lhs) and is_positive(scc, rhs)):
        return None
    return lhs, rhs


def check_special(
    scc: SCC,
    kind: AxiomId,
    tol: ToleranceConfig = DEFAULT_TOL,
    cap: int = WITNESS_CAP,
) -> AxiomReport:
    """Deterministic-full-choice and singleton-representation tests.

    DET_FULL_CHOICE: mu(S,S) = 1 for every menu (one instance per menu),
    read as the scaled cell of S against its row's denominator.

    SINGLETON, clause (i): every singleton is chosen with positive
    probability from every menu, and no other collection ever is (on
    empty-collection SCCs the empty collection counts as "other").
    Clause (ii): singleton probability ratios are menu-independent, decided
    by cross-multiplying each menu containing a pair {x,y} against the
    binary menu {x,y} as reference.  Nothing is vacuous, and violations
    are located through row supports, clause (i) then (ii), in one stream.
    """
    if kind is AxiomId.DET_FULL_CHOICE:
        out = _Collector(scc, AxiomId.DET_FULL_CHOICE, cap)
        rows, dens = cached_scaled_rows(scc)
        out.extend(
            {"S": menu}
            for menu in scc.menus()
            if not probs_equal(scc, rows[menu].get(menu, 0), dens[menu], tol)
        )
        return out.report()
    if kind is not AxiomId.SINGLETON:
        raise ValueError(f"check_special handles DET_FULL_CHOICE and SINGLETON, got {kind}")

    out = _Collector(scc, AxiomId.SINGLETON, cap)
    pos = _positive_rows(scc)
    rows = cached_scaled_rows(scc)[0]

    def violations() -> Iterator[dict[str, int]]:
        # clause (i): positive singletons, nothing else positive
        for menu in scc.menus():
            sup = pos[menu]
            for x in bits(menu):
                if (1 << x) not in sup:
                    yield {"x": 1 << x, "S": menu}
            for t in sorted(sup):
                if popcount(t) != 1:
                    yield {"T": t, "S": menu}
        # clause (ii): ratio stability against the binary reference menu
        for x, y in combinations(range(scc.universe.n), 2):
            xbit, ybit = 1 << x, 1 << y
            ref = xbit | ybit
            ref_x = rows[ref].get(xbit, 0)
            ref_y = rows[ref].get(ybit, 0)
            for extra in nonempty_submasks(scc.universe.full_mask & ~ref):
                menu = ref | extra
                lhs = rows[menu].get(xbit, 0) * ref_y
                rhs = ref_x * rows[menu].get(ybit, 0)
                if not probs_equal(scc, lhs, rhs, tol):
                    yield {"x": xbit, "y": ybit, "S": menu, "S_prime": ref}

    out.extend(violations())
    return out.report()


def _det_full_choice_sides(scc: SCC, b: dict[str, int]) -> Sides:
    return prob_lookup(scc, b["S"], b["S"]), scc.one()


def _singleton_sides(scc: SCC, b: dict[str, int]) -> Sides:
    """SINGLETON clause (ii) at menu S against the reference menu S'; for
    clause (i), the zero an unchosen singleton x records, or mu(T,S) of
    another collection chosen and the zero it should be."""
    if "y" in b:
        xbit, ybit, s, ref = b["x"], b["y"], b["S"], b["S_prime"]
        lhs = prob_lookup(scc, xbit, s) * prob_lookup(scc, ybit, ref)
        rhs = prob_lookup(scc, xbit, ref) * prob_lookup(scc, ybit, s)
        return lhs, rhs
    if "x" in b:
        return scc.zero(), None
    return prob_lookup(scc, b["T"], b["S"]), scc.zero()


def _recheck_singleton(scc: SCC, witness: Witness, tol: ToleranceConfig) -> bool:
    """Clause (ii) witnesses bind x, y, S and S' and are rechecked by their
    sides; clause (i) binds (x, S), a singleton never chosen, or (T, S),
    another collection chosen."""
    b = witness.bindings
    if set(b) == {"x", "y", "S", "S_prime"}:
        return _recheck_sides(scc, witness, tol)
    if set(b) == {"x", "S"}:
        return is_zero(scc, prob_lookup(scc, b["x"], b["S"]))
    if set(b) == {"T", "S"}:
        return popcount(b["T"]) != 1 and is_positive(scc, prob_lookup(scc, b["T"], b["S"]))
    return False


def monotonicity_violations(
    scc: SCC, tol: ToleranceConfig = DEFAULT_TOL
) -> list[dict]:
    """Instances where enlarging the menu raises a collection's probability.

    Relative additivity implies mu(T,S) <= mu(T,S\\x) for every x in S and
    non-empty T contained in S\\x; the returned dicts carry the offending
    bindings and both values.  (Exact mode compares exactly; float mode
    allows eps_eq slack.)  Only the T recorded in row S or in row S\\x of
    :func:`cached_scaled_rows` are compared, each side times the other
    row's denominator: any other T is zero on both sides (a float cell of
    row S\\x may be recorded below zero, so its T are compared too).
    """
    require_complete(scc)
    rows, dens = cached_scaled_rows(scc)
    offenders = []
    for s, xbit, rest, row_s, row_rest in _removals(rows):
        for t in sorted({t for row in (row_s, row_rest) for t in row if t and t & rest == t}):
            larger, smaller = row_s.get(t, 0) * dens[rest], row_rest.get(t, 0) * dens[s]
            if larger > smaller and not probs_equal(scc, larger, smaller, tol):
                lhs, rhs = prob_lookup(scc, t, s), prob_lookup(scc, t, rest)
                offenders.append({"S": s, "x": xbit, "T": t, "lhs": lhs, "rhs": rhs})
    return offenders


def support_transfer_violations(scc: SCC) -> list[dict]:
    """Instances where menu shrinkage changes a collection's support status.

    Expected under positivity-1 plus relative additivity: for x in S and
    non-empty T contained in S\\x, mu(T,S\\x) = 0 iff mu(T,S) + mu(T u x, S)
    = 0.  Violations carry the direction that failed ("zero_spreads" when a
    zero at the smaller menu meets positive mass at the larger one,
    "support_drops" for the converse): per (S, x), the T, ascending, where
    row S\\x's positive collections (:func:`_positive_rows`) and the positive
    sums of row S's :func:`_marginal` differ; the sums are tested themselves,
    as zero-support float cells may add up to a positive sum.
    """
    require_complete(scc)
    pos = _positive_rows(scc)
    offenders = []
    for s, xbit, rest, row_s, _ in _removals(cached_scaled_rows(scc)[0]):
        summed = {t for t, p in _marginal(row_s, xbit).items() if is_positive(scc, p)}
        for t in sorted(summed ^ (pos[rest].keys() - {0})):
            direction = "zero_spreads" if t in summed else "support_drops"
            offenders.append({"S": s, "x": xbit, "T": t, "direction": direction})
    return offenders


def recheck_witness(
    scc: SCC,
    witness: Witness,
    tol: ToleranceConfig = DEFAULT_TOL,
    attributes: Optional[Sequence[int]] = None,
) -> bool:
    """True iff the witness still certifies a genuine violation on ``scc``:
    its axiom's ``recheck`` re-derives the violated condition (kind-2
    positivity needs the same ``attributes`` context the original check
    used), and its recorded lhs/rhs are the axiom's ``sides`` there.
    Bindings that miss a role, bind an item role (x, y) to other than one
    item, or name a menu outside the domain or a collection outside its
    menu certify nothing."""
    spec = AXIOMS[witness.axiom]
    context = {"attributes": attributes} if spec.needs_attributes else {}
    if any(popcount(witness.bindings.get(role, 1)) != 1 for role in ("x", "y")):
        return False
    try:
        return spec.recheck(scc, witness, tol, **context) and _records(
            scc, witness, spec.sides(scc, witness.bindings), tol
        )
    except (KeyError, MenuAbsentError, ShapeError):
        return False


def _recheck_sides(scc: SCC, witness: Witness, tol: ToleranceConfig) -> bool:
    """An equation witness: its bindings satisfy the axiom's guards and the
    sides recomputed there differ."""
    sides = AXIOMS[witness.axiom].sides(scc, witness.bindings)
    return sides is not None and not probs_equal(scc, *sides, tol)


def _records(scc: SCC, witness: Witness, values: Sides, tol: ToleranceConfig) -> bool:
    """True iff the witness's lhs and rhs, where recorded, equal ``values``,
    its axiom's ``sides`` at its bindings (a value recorded where ``sides``
    has None is forged)."""
    return all(
        recorded is None or (value is not None and probs_equal(scc, value, recorded, tol))
        for value, recorded in zip(values, (witness.lhs, witness.rhs))
    )


class AxiomSpec(NamedTuple):
    """One registry entry: the ``check`` that decides an axiom, called as
    ``check(scc, tol=..., cap=...)`` plus ``attributes=...`` when it needs
    them; the ``sides(scc, bindings)`` that every witness records as its
    ``lhs``/``rhs``, which :func:`recheck_witness` compares them with: an
    equation's two sides (the scans decide on their own arithmetic and call
    it only to record a witness), a structural axiom's values, or none by
    default; the ``recheck`` that re-derives the violated condition; the
    SCCs on which :func:`full_battery` runs it; and, where n items and the
    empty-collection flag e fix the domain, its size ``domain(n, e)``,
    every report's checked plus vacuous count."""

    check: Callable[..., AxiomReport]
    sides: Callable[[SCC, dict[str, int]], Sides] = lambda scc, bindings: (None, None)
    recheck: Callable[..., bool] = _recheck_sides
    empty_only: bool = False  # runs only on empty-collection SCCs
    needs_attributes: bool = False  # runs only when attribute carriers are given
    domain: Optional[Callable[[int, bool], int]] = None

    def applies(self, scc: SCC, attributes: Optional[Sequence[int]]) -> bool:
        return (scc.allows_empty or not self.empty_only) and (
            attributes is not None or not self.needs_attributes
        )


def _rel_add_domain(n: int, e: bool) -> int:  # REL_ADD and REL_ADD_1
    return n * (5 ** (n - 1) - 3**n + 2**n) // 2


def _rel_add_counts(n: int, constraints: dict[int, int], support: int) -> tuple[int, int]:
    """REL_ADD_2's checked and vacuous counts where its adjustment
    denominator is positive at the menus that meet the mask ``support``, P.
    Per x, the unit R = S\\x in A = X\\x has 2^|R| - 1 instances, less one
    where R meets Q(x), all checked where it meets Q(x) and S meets P.  As
    G(Z) = 3^|Z| - 2^(|Z|+1) sums 2^|R| - 2 over the R in Z, the checked
    count is G(A) - G(A\\Q(x)), less G(C) - G(C\\Q(x)) with C = A\\P where x
    is not in P; the domain is G(A) + 2^|A\\Q(x)|."""

    def g(zone: int) -> int:
        return 3 ** zone.bit_count() - 2 ** (zone.bit_count() + 1)

    checked = domain = 0
    for x, q in constraints.items():
        a = ((1 << n) - 1) & ~(1 << x)
        c = 0 if support >> x & 1 else a & ~support  # where S can miss P
        domain += g(a) + 2 ** (a & ~q).bit_count()
        checked += g(a) - g(a & ~q) - g(c) + g(c & ~q)
    return checked, domain - checked


def _support_domain(n: int, e: bool) -> int:
    return 3**n - 2**n


#: The registry fields that POS2-POS4 and FULL_SUPPORT share.
_SUPPORT_SHAPE = dict(
    sides=_support_shape_sides, recheck=_recheck_support_shape, domain=_support_domain
)


#: The axiom registry, in declaration order.
AXIOMS: dict[AxiomId, AxiomSpec] = {
    AxiomId.IIS: AxiomSpec(
        partial(check_iis, empty_variant=False),
        partial(_iis_sides, empty_variant=False),
        domain=lambda n, e: (7**n - 4 * 5**n + 2 * 4**n + 3 ** (n + 1) - 2 ** (n + 1)) // 4,
    ),
    AxiomId.IIS_O: AxiomSpec(
        partial(check_iis, empty_variant=True),
        partial(_iis_sides, empty_variant=True),
        empty_only=True,
        domain=lambda n, e: (7**n - 2 * 5**n + 3**n) // 2,
    ),
    AxiomId.REL_ADD: AxiomSpec(
        check_relative_additivity,
        partial(_rel_add_sides, axiom=AxiomId.REL_ADD),
        domain=_rel_add_domain,
    ),
    AxiomId.ADDITIVITY: AxiomSpec(
        check_additivity,
        _additivity_sides,
        empty_only=True,
        domain=lambda n, e: n * 3 ** (n - 1),
    ),
    AxiomId.POS1: AxiomSpec(
        partial(check_positivity, kind=1),
        recheck=_recheck_pos1,
        domain=lambda n, e: n * 2 ** (n - 1),
    ),
    AxiomId.POS2: AxiomSpec(
        partial(check_positivity, kind=2), needs_attributes=True, **_SUPPORT_SHAPE
    ),
    AxiomId.DISTINCT_Q: AxiomSpec(
        _distinct_constraints_report,
        recheck=_recheck_distinct_q,
        domain=lambda n, e: n * (n - 1) // 2,
    ),
    AxiomId.POS3: AxiomSpec(partial(check_positivity, kind=3), **_SUPPORT_SHAPE),
    AxiomId.REL_ADD_1: AxiomSpec(
        partial(_rel_add_scan, axiom=AxiomId.REL_ADD_1),
        partial(_rel_add_sides, axiom=AxiomId.REL_ADD_1),
        domain=_rel_add_domain,
    ),
    AxiomId.REL_ADD_2: AxiomSpec(
        _rel_add_adjusted, partial(_rel_add_sides, axiom=AxiomId.REL_ADD_2)
    ),
    AxiomId.PIIS: AxiomSpec(check_piis, _piis_sides),
    AxiomId.PARTITION: AxiomSpec(_partition_report, recheck=_recheck_partition),
    AxiomId.POS4: AxiomSpec(partial(check_positivity, kind=4), **_SUPPORT_SHAPE),
    AxiomId.PAF: AxiomSpec(
        check_paf, _paf_sides, domain=lambda n, e: n * (3 ** (n - 1) - 2 ** (n - 1))
    ),
    AxiomId.FULL_SUPPORT: AxiomSpec(check_full_support, **_SUPPORT_SHAPE),
    AxiomId.DET_FULL_CHOICE: AxiomSpec(
        partial(check_special, kind=AxiomId.DET_FULL_CHOICE),
        _det_full_choice_sides,
        domain=lambda n, e: 2**n - 1,
    ),
    AxiomId.SINGLETON: AxiomSpec(
        partial(check_special, kind=AxiomId.SINGLETON),
        _singleton_sides,
        _recheck_singleton,
        # the last term is clause (ii)'s C(n,2) (2^(n-2) - 1), kept an int at n = 1
        domain=lambda n, e: 3**n - 2**n + e * (2**n - 1) + n * (n - 1) * (2**n - 4) // 8,
    ),
}

#: Axiom sets that characterize each (model, empty-variant) combination.
#: Attribute-based models are checked against their own carriers.
CHARACTERIZING_AXIOMS: dict[tuple[ModelTag, bool], tuple[AxiomId, ...]] = {
    (ModelTag.LOGIT, False): (AxiomId.IIS, AxiomId.FULL_SUPPORT),
    (ModelTag.RCG, False): (AxiomId.POS1, AxiomId.REL_ADD),
    (ModelTag.IC, False): (AxiomId.IIS, AxiomId.REL_ADD, AxiomId.FULL_SUPPORT),
    (ModelTag.EBA, False): (AxiomId.POS2, AxiomId.REL_ADD),
    (ModelTag.AR, False): (AxiomId.POS2, AxiomId.REL_ADD),
    (ModelTag.RRM, False): (
        AxiomId.DISTINCT_Q,
        AxiomId.POS3,
        AxiomId.REL_ADD_1,
        AxiomId.REL_ADD_2,
    ),
    (ModelTag.NSC, False): (AxiomId.PIIS, AxiomId.PARTITION, AxiomId.POS4),
    (ModelTag.NESTED_LOGIT, False): (
        AxiomId.PIIS,
        AxiomId.PARTITION,
        AxiomId.POS4,
    ),
    (ModelTag.LOGIT, True): (AxiomId.IIS_O, AxiomId.FULL_SUPPORT),
    (ModelTag.RCG, True): (AxiomId.ADDITIVITY,),
    (ModelTag.IC, True): (AxiomId.IIS_O, AxiomId.ADDITIVITY),
}

#: The standard models whose own axioms decide their membership, in the
#: order classification lists them and ``identify --model auto`` tries them;
#: eba, ar and nested_logit are read through rcg and nsc.
SELF_CHARACTERIZED = (ModelTag.LOGIT, ModelTag.RCG, ModelTag.IC, ModelTag.RRM, ModelTag.NSC)


def characterizing_axioms(model: ModelTag, allows_empty: bool) -> tuple[AxiomId, ...]:
    """The axioms that characterize ``model`` on data whose empty-collection
    flag is ``allows_empty``; WrongVariantError if it has no such variant."""
    try:
        return CHARACTERIZING_AXIOMS[(model, allows_empty)]
    except KeyError:
        raise WrongVariantError(f"{model.value} has no empty-collection variant") from None


def run_axiom(
    scc: SCC,
    axiom: AxiomId,
    tol: ToleranceConfig = DEFAULT_TOL,
    attributes: Optional[Sequence[int]] = None,
    cap: int = WITNESS_CAP,
) -> AxiomReport:
    """Evaluate a single axiom check by id; see :func:`cached_report` to reuse
    a report already made on the same SCC."""
    spec = AXIOMS[AxiomId(axiom)]
    context = {"attributes": attributes} if spec.needs_attributes else {}
    return spec.check(scc, tol=tol, cap=cap, **context)


def cached_report(
    scc: SCC,
    axiom: AxiomId,
    tol: ToleranceConfig = DEFAULT_TOL,
    attributes: Optional[Sequence[int]] = None,
    cap: int = WITNESS_CAP,
) -> AxiomReport:
    """:func:`run_axiom`, evaluated once per SCC, tolerance and witness cap.

    Only the memo key of a check that reads ``attributes`` carries them.
    """
    key: tuple = (axiom, tol, cap)
    if AXIOMS[axiom].needs_attributes and attributes is not None:
        key += (tuple(attributes),)
    return _memoized(scc, key, lambda: run_axiom(scc, axiom, tol, attributes, cap))


def full_battery(
    scc: SCC,
    tol: ToleranceConfig = DEFAULT_TOL,
    attributes: Optional[Sequence[int]] = None,
    cap: int = WITNESS_CAP,
) -> list[AxiomReport]:
    """Every applicable axiom check, in declaration order.

    Empty-collection postulates run only on empty-collection SCCs; kind-2
    positivity runs only when attribute carriers are supplied.
    """
    return [
        cached_report(scc, axiom, tol, attributes, cap)
        for axiom, spec in AXIOMS.items()
        if spec.applies(scc, attributes)
    ]
