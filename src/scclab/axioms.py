"""Decision procedures for the behavioral postulates, with counterexample
witnesses.

Every check returns an :class:`AxiomReport`.  Conventions shared by all of
them:

* Enumeration is sequential and lexicographic on bitmasks (menus ascending,
  then items ascending, then collections ascending), so reports are
  deterministic for a fixed SCC and tolerance.
* ``instances_checked`` counts equality/support comparisons the decision
  procedure actually performed; ``instances_vacuous`` counts enumerated
  instances skipped because a guard was unmet.  Their sum is the enumerated
  domain size.  Instances that are trivially true by symmetry (identical
  menus, identical collections) are not enumerated at all; per-check
  docstrings state the domain.
* Ratio postulates are decided by cross-multiplication, never division, so
  exact mode involves no rounding and zero denominators need no special
  cases.  In exact mode they cross-multiply the integer rows of
  :func:`cached_scaled_rows`.  Reported ``lhs``/``rhs`` values are the two
  sides of the postulate as written, computed from the SCC's own rows
  (divisions are performed there only when the guards make them well
  defined).
* Witness bindings are bitmasks under descriptive keys ("S", "S_prime", "x",
  "y", "T", "T_prime", "T_star_1", ...).  Item-valued bindings are 1-bit
  masks.  Every witness is self-certifying: :func:`recheck_witness`
  re-evaluates the postulate at the bindings and confirms the violation.

:data:`AXIOMS` maps every axiom to its check, its applicability and how its
witnesses are rechecked, and :data:`CHARACTERIZING_AXIOMS` maps every model variant to the axioms that
characterize it; the suites, classification, identification and the fuzz
harness all read these two tables.  :func:`run_axiom` always evaluates;
:func:`cached_report` and the ``cached_revealed_*`` functions keep each
result in the SCC's memo, so a dataset is decided once per tolerance and
witness cap; :func:`cached_scaled_rows` keeps the scaled rows there too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import partial
from itertools import combinations
from typing import Any, Callable, Iterator, NamedTuple, Optional, Sequence

from .core import (
    SCC,
    DEFAULT_TOL,
    MenuAbsentError,
    MissingAttributesError,
    MissingBinaryMenuError,
    Prob,
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
    submasks,
)
from .models import ModelTag

#: Default cap on the number of witnesses kept per report.
WITNESS_CAP = 10


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
    ``lhs``/``rhs`` are the two sides of the violated equation; they are None
    for purely structural axioms (existence/distinctness conditions), whose
    violations are certified by re-derivation instead.
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
    """Accumulates witnesses up to a cap; the verdict tracks all violations."""

    def __init__(self, axiom: AxiomId, cap: int):
        if cap < 1:
            raise ValueError("witness cap must be at least 1")
        self.axiom = axiom
        self.cap = cap
        self.witnesses: list[Witness] = []
        self.clean = True

    def add(self, bindings: dict[str, int], lhs: Optional[Prob], rhs: Optional[Prob]):
        self.clean = False
        if len(self.witnesses) < self.cap:
            self.witnesses.append(Witness(self.axiom, bindings, lhs, rhs))

    def add_equation(self, scc: SCC, bindings: dict[str, int], tol: ToleranceConfig):
        """Record a violation of an equation axiom; under the cap, its sides
        are recomputed from the SCC's rows by :func:`_recheck_equation`."""
        self.clean = False
        if len(self.witnesses) < self.cap:
            witness = Witness(self.axiom, bindings)
            self.witnesses.append(
                Witness(self.axiom, bindings, *_recheck_equation(scc, witness, tol))
            )

    def report(self, scc: SCC, checked: int, vacuous: int) -> AxiomReport:
        return AxiomReport(
            axiom=self.axiom,
            holds=self.clean,
            witnesses=tuple(self.witnesses),
            instances_checked=checked,
            instances_vacuous=vacuous,
            arithmetic_mode=scc.arithmetic_mode,
        )


def _positive_rows(scc: SCC, tol: ToleranceConfig) -> dict[int, dict[int, Prob]]:
    """Per menu, the sub-row of strictly positive entries of
    :func:`cached_scaled_rows` (mode-aware)."""
    return {
        menu: {t: p for t, p in row.items() if is_positive(scc, p, tol)}
        for menu, row in cached_scaled_rows(scc)[0].items()
    }


def _memoized(scc: SCC, key: tuple, compute: Callable[[], Any]) -> Any:
    """``compute()``, stored in the SCC's memo under ``key`` on first use."""
    if key not in scc.memo:
        scc.memo[key] = compute()
    return scc.memo[key]


def cached_scaled_rows(scc: SCC) -> tuple[dict[int, dict[int, Prob]], dict[int, Prob]]:
    """The rows the ratio checks compare, and each row's denominator.

    In exact mode each row is its entries' integer numerators over their
    least common denominator, the fraction-free idea of Bareiss (1968).  A
    comparison with one factor from each row involved on both sides scales
    both sides alike, so its verdict is unchanged and it runs in ``int``
    arithmetic; a side lacking some row's factor is multiplied by that row's
    denominator.  In float mode the rows are ``scc.rows`` unchanged, with
    unit denominators.
    """
    return _memoized(scc, ("scaled_rows",), lambda: _scale_rows(scc))


def _scale_rows(scc: SCC) -> tuple[dict[int, dict[int, Prob]], dict[int, Prob]]:
    if not scc.exact:
        return scc.rows, dict.fromkeys(scc.rows, 1)
    rows, dens = {}, {}
    for menu, row in scc.rows.items():
        den = math.lcm(*(p.denominator for p in row.values()))
        rows[menu] = {t: p.numerator * (den // p.denominator) for t, p in row.items()}
        dens[menu] = den
    return rows, dens


def cached_revealed_constraints(
    scc: SCC, tol: ToleranceConfig = DEFAULT_TOL
) -> dict[int, int]:
    """:func:`derive_revealed_constraints`, derived once per SCC and tolerance."""
    return _memoized(
        scc, ("constraints", tol), lambda: derive_revealed_constraints(scc, tol)
    )


def cached_revealed_nests(scc: SCC, tol: ToleranceConfig = DEFAULT_TOL) -> list[int]:
    """:func:`derive_revealed_nests`, derived once per SCC and tolerance."""
    return _memoized(scc, ("nests", tol), lambda: derive_revealed_nests(scc, tol))


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
    3^n - 2^n on a complete SCC.  No guards, so nothing is vacuous.
    """
    require_complete(scc)
    n = scc.universe.n
    out = _Collector(AxiomId.FULL_SUPPORT, cap)
    for menu in scc.menus():
        row = scc.rows[menu]
        for t in nonempty_submasks(menu):
            p = row.get(t, scc.zero())
            if is_zero(scc, p, tol):
                out.add({"T": t, "S": menu}, p, None)
    return out.report(scc, 3**n - 2**n, 0)


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
    """
    require_complete(scc)
    axiom = AxiomId.IIS_O if empty_variant else AxiomId.IIS
    out = _Collector(axiom, cap)
    rows = cached_scaled_rows(scc)[0]
    pos = _positive_rows(scc, tol)
    menus = scc.menus()
    checked = 0
    vacuous = 0
    for i, s in enumerate(menus):
        row_s, pos_s = rows[s], pos[s]
        for s2 in menus[i + 1 :]:
            inter = s & s2
            row_s2, pos_s2 = rows[s2], pos[s2]
            if empty_variant:
                subs = submasks(inter)
                for t in subs:
                    for t2 in subs:
                        if t2 == t:
                            continue
                        if t2 not in pos_s or t2 not in pos_s2:
                            vacuous += 1
                            continue
                        checked += 1
                        lhs = row_s.get(t, 0) * pos_s2[t2]
                        rhs = pos_s[t2] * row_s2.get(t, 0)
                        if not probs_equal(scc, lhs, rhs, tol):
                            out.add_equation(
                                scc,
                                {"T": t, "T_prime": t2, "S": s, "S_prime": s2},
                                tol,
                            )
            else:
                subs = nonempty_submasks(inter)
                for a_idx in range(len(subs)):
                    t = subs[a_idx]
                    t_in_s = t in pos_s
                    t_in_s2 = t in pos_s2
                    for b_idx in range(a_idx + 1, len(subs)):
                        t2 = subs[b_idx]
                        if not (
                            t_in_s and t_in_s2 and t2 in pos_s and t2 in pos_s2
                        ):
                            vacuous += 1
                            continue
                        checked += 1
                        lhs = pos_s[t] * pos_s2[t2]
                        rhs = pos_s[t2] * pos_s2[t]
                        if not probs_equal(scc, lhs, rhs, tol):
                            out.add_equation(
                                scc,
                                {"T": t, "T_prime": t2, "S": s, "S_prime": s2},
                                tol,
                            )
    return out.report(scc, checked, vacuous)


def _rel_add_scan(
    scc: SCC, tol: ToleranceConfig, cap: int, axiom: AxiomId
) -> AxiomReport:
    """Shared scan for relative additivity and its constraint-aware variant.

    Domain: menus S with at least two items, items x in S, unordered pairs of
    distinct non-empty collections T < T' contained in S minus x (identical
    pairs hold trivially and are not enumerated).  For REL_ADD_1, instances
    touching the revealed constraint set of x restricted to S minus x are
    vacuous instead of checked.
    """
    require_complete(scc)
    constraints = (
        cached_revealed_constraints(scc, tol) if axiom is AxiomId.REL_ADD_1 else None
    )
    out = _Collector(axiom, cap)
    checked = 0
    vacuous = 0
    for s, xbit, rest, row_s, row_rest in _removals(cached_scaled_rows(scc)[0]):
        x = xbit.bit_length() - 1
        excluded = constraints[x] & rest if constraints is not None else None
        subs = nonempty_submasks(rest)
        pair_sum = {t: row_s.get(t, 0) + row_s.get(t | xbit, 0) for t in subs}
        for a_idx in range(len(subs)):
            t = subs[a_idx]
            for b_idx in range(a_idx + 1, len(subs)):
                t2 = subs[b_idx]
                if excluded is not None and excluded in (t, t2):
                    vacuous += 1
                    continue
                checked += 1
                lhs = row_rest.get(t, 0) * pair_sum[t2]
                rhs = row_rest.get(t2, 0) * pair_sum[t]
                if not probs_equal(scc, lhs, rhs, tol):
                    out.add_equation(
                        scc, {"S": s, "x": xbit, "T": t, "T_prime": t2}, tol
                    )
    return out.report(scc, checked, vacuous)


def check_relative_additivity(
    scc: SCC, tol: ToleranceConfig = DEFAULT_TOL, cap: int = WITNESS_CAP
) -> AxiomReport:
    """Removing an item rescales all pair-sum probabilities uniformly.

    mu(T, S\\x) * [mu(T',S) + mu(T' u x, S)] = mu(T', S\\x) * [mu(T,S) +
    mu(T u x, S)] for every menu S, item x in S, and distinct non-empty
    T, T' contained in S\\x.  No guards: zero probabilities participate.
    """
    return _rel_add_scan(scc, tol, cap, AxiomId.REL_ADD)


def check_additivity(
    scc: SCC, tol: ToleranceConfig = DEFAULT_TOL, cap: int = WITNESS_CAP
) -> AxiomReport:
    """Exact mass splitting for empty-collection SCCs.

    mu(T, S\\x) = mu(T,S) + mu(T u x, S) for every menu S, x in S, and every
    T contained in S\\x including the empty collection (stated in rearranged
    sum form; the postulate is usually written as a difference).  Only
    empty-collection SCCs qualify; instances at singleton menus (where S\\x
    is not a menu) are vacuous.
    """
    require_complete(scc)
    if not scc.allows_empty:
        raise WrongVariantError(
            "additivity is a postulate on empty-collection SCCs; "
            "this SCC does not allow the empty collection"
        )
    out = _Collector(AxiomId.ADDITIVITY, cap)
    zero = scc.zero()
    checked = 0
    for s, xbit, rest, row_s, row_rest in _removals(scc.rows):
        for t in submasks(rest):
            checked += 1
            lhs = row_rest.get(t, zero)
            rhs = row_s.get(t, zero) + row_s.get(t | xbit, zero)
            if not probs_equal(scc, lhs, rhs, tol):
                out.add({"S": s, "x": xbit, "T": t}, lhs, rhs)
    # each singleton menu's lone T = empty instance is vacuous: S\x is not a menu
    return out.report(scc, checked, scc.universe.n)


def derive_revealed_constraints(
    scc: SCC, tol: ToleranceConfig = DEFAULT_TOL
) -> dict[int, int]:
    """Constraint sets revealed by binary-menu zeros.

    Item y belongs to the revealed constraint set of x (besides x itself)
    exactly when x is never chosen alone against y: mu({x}, {x,y}) = 0.
    Needs every binary menu; completeness is otherwise not required.
    """
    n = scc.universe.n
    revealed: dict[int, int] = {}
    for x in range(n):
        xbit = 1 << x
        mask = xbit
        for y in range(n):
            if y == x:
                continue
            pair = xbit | (1 << y)
            if pair not in scc.rows:
                raise MissingBinaryMenuError(
                    f"binary menu {scc.universe.labels_of(pair)} is absent"
                )
            if is_zero(scc, prob_lookup(scc, xbit, pair), tol):
                mask |= 1 << y
        revealed[x] = mask
    return revealed


def derive_revealed_nests(scc: SCC, tol: ToleranceConfig = DEFAULT_TOL) -> list[int]:
    """Support of the grand-set row, ascending: the nests revealed by data."""
    full = scc.universe.full_mask
    if full not in scc.rows:
        raise MenuAbsentError("grand-set row required to derive revealed nests")
    return sorted(
        t
        for t, p in scc.rows[full].items()
        if t != 0 and is_positive(scc, p, tol)
    )


def _support_shape_report(
    scc: SCC,
    tol: ToleranceConfig,
    cap: int,
    axiom: AxiomId,
    achievable_of,
) -> AxiomReport:
    """Shared scan for the kind-2/3/4 positivity postulates.

    Each states: mu(T,S) > 0 iff T is achievable as (generator n S) for some
    generator set (attribute carrier / revealed constraint set / revealed
    nest).  The quantifier ranges over all non-empty T contained in S, a
    domain of size 3^n - 2^n; violations are located by comparing the support
    of each row with the achievable family, so the count is arithmetic.
    """
    out = _Collector(axiom, cap)
    pos = _positive_rows(scc, tol)
    for menu in scc.menus():
        achievable = achievable_of(menu)
        sup = set(pos[menu])
        sup.discard(0)
        for t in sorted(sup - achievable):
            out.add({"T": t, "S": menu}, prob_lookup(scc, t, menu), None)
        for t in sorted(achievable - sup):
            out.add({"T": t, "S": menu}, prob_lookup(scc, t, menu), None)
    n = scc.universe.n
    return out.report(scc, 3**n - 2**n, 0)


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
    require_complete(scc)
    if kind == 1:
        out = _Collector(AxiomId.POS1, cap)
        pos = _positive_rows(scc, tol)
        checked = 0
        for menu in scc.menus():
            covered = 0
            for t in pos[menu]:
                covered |= t
            for x in bits(menu):
                checked += 1
                if not covered & (1 << x):
                    out.add({"x": 1 << x, "S": menu}, None, None)
        return out.report(scc, checked, 0)
    if kind == 2:
        if attributes is None:
            raise MissingAttributesError(
                "kind-2 positivity needs exogenous attribute carriers"
            )
        carriers = list(attributes)
        return _support_shape_report(
            scc,
            tol,
            cap,
            AxiomId.POS2,
            lambda menu: {c & menu for c in carriers if c & menu},
        )
    if kind == 3:
        revealed = cached_revealed_constraints(scc, tol)
        return _support_shape_report(
            scc,
            tol,
            cap,
            AxiomId.POS3,
            lambda menu: {revealed[x] & menu for x in bits(menu)},
        )
    if kind == 4:
        nests = cached_revealed_nests(scc, tol)
        return _support_shape_report(
            scc,
            tol,
            cap,
            AxiomId.POS4,
            lambda menu: {nest & menu for nest in nests if nest & menu},
        )
    raise ValueError(f"positivity kind must be 1, 2, 3, or 4, got {kind}")


def _distinct_constraints_report(
    scc: SCC, tol: ToleranceConfig, cap: int
) -> AxiomReport:
    """No two items may reveal the same constraint set (n-choose-2 pairs)."""
    require_complete(scc)
    revealed = cached_revealed_constraints(scc, tol)
    out = _Collector(AxiomId.DISTINCT_Q, cap)
    n = scc.universe.n
    for x, y in combinations(range(n), 2):
        if revealed[x] == revealed[y]:
            out.add({"x": 1 << x, "y": 1 << y}, None, None)
    return out.report(scc, n * (n - 1) // 2, 0)


def _rel_add_adjusted(scc: SCC, tol: ToleranceConfig, cap: int) -> AxiomReport:
    """Relative additivity at the revealed constraint set, with adjustment.

    For T = (revealed constraint set of x) n (S\\x), when non-empty, and every
    other non-empty T' contained in S\\x:

        mu(T,S\\x) * [mu(T',S) + mu(T' u x,S)]
            = mu(T',S\\x) * [mu(T,S) + mu(T u x,S) - adj(x,S)]

    where adj(x,S) = mu(Q(x),X) / sum over y in S of mu(Q(y),X), read from
    grand-set rows (Q = revealed constraint sets).  Decided after clearing
    the denominator; on scaled rows the adjustment term, which lacks a
    factor from row S, is multiplied by row S's denominator.  Vacuous
    instances: T empty, or zero adjustment denominator.
    """
    require_complete(scc)
    revealed = cached_revealed_constraints(scc, tol)
    out = _Collector(AxiomId.REL_ADD_2, cap)
    rows, dens = cached_scaled_rows(scc)
    row_full = rows[scc.universe.full_mask]
    checked = 0
    vacuous = 0
    for s in scc.menus():
        if popcount(s) < 2:
            continue
        row_s = rows[s]
        denom = 0
        for y in bits(s):
            denom = denom + row_full.get(revealed[y], 0)
        denom_ok = is_positive(scc, denom, tol)
        for x in bits(s):
            xbit = 1 << x
            rest = s & ~xbit
            t = revealed[x] & rest
            others = [t2 for t2 in nonempty_submasks(rest) if t2 != t]
            if t == 0 or not denom_ok:
                vacuous += len(others)
                continue
            row_rest = rows[rest]
            adj_num = row_full.get(revealed[x], 0) * dens[s]
            t_sum = row_s.get(t, 0) + row_s.get(t | xbit, 0)
            mu_t_rest = row_rest.get(t, 0)
            for t2 in others:
                checked += 1
                t2_sum = row_s.get(t2, 0) + row_s.get(t2 | xbit, 0)
                mu_t2_rest = row_rest.get(t2, 0)
                cleared_lhs = denom * mu_t_rest * t2_sum + adj_num * mu_t2_rest
                cleared_rhs = denom * mu_t2_rest * t_sum
                if not probs_equal(scc, cleared_lhs, cleared_rhs, tol):
                    out.add_equation(
                        scc, {"S": s, "x": xbit, "T": t, "T_prime": t2}, tol
                    )
    return out.report(scc, checked, vacuous)


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


def _chain_witness(
    scc: SCC,
    t: int,
    t2: int,
    first: tuple[Prob, Prob, int, int, int],
    second: tuple[Prob, Prob, int, int, int],
) -> tuple[dict[str, int], Prob, Prob]:
    """Bindings and chain values of two chains; exact values are Fractions
    even when the chains were built from scaled integer rows."""
    ratio = Fraction if scc.exact else (lambda num, den: num / den)
    num1, den1, star1, s1, sp1 = first
    num2, den2, star2, s2, sp2 = second
    bindings = {
        "T": t,
        "T_prime": t2,
        "T_star_1": star1,
        "S_1": s1,
        "S_prime_1": sp1,
        "T_star_2": star2,
        "S_2": s2,
        "S_prime_2": sp2,
    }
    return bindings, ratio(num1, den1), ratio(num2, den2)


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
       already a chain conflict (take T* = T' = B), reported as such.
    2. If stage 1 is clean, each co-occurring pair has one well-defined
       ratio.  In exact mode a multiplicative potential is fitted over the
       co-occurrence graph; if every edge ratio matches the potential, all
       chain values telescope and the postulate holds outright.
    3. Otherwise (and always in float mode, where a long telescoping product
       would accumulate error), chain values are compared pairwise per
       ordered pair across intermediates.

    ``instances_checked`` counts the comparisons the procedure performed
    (ratio-constancy checks, potential edge verifications, chain
    comparisons); ``instances_vacuous`` counts ordered pairs of distinct
    support collections admitting no chain at all.
    """
    require_complete(scc)
    out = _Collector(AxiomId.PIIS, cap)
    pos = _positive_rows(scc, tol)
    checked = 0

    # Stage 1: ratio constancy per unordered co-occurring pair.
    edges: dict[tuple[int, int], tuple[Prob, Prob, int]] = {}
    for s in scc.menus():
        colls = sorted(pos[s])
        row = pos[s]
        for i in range(len(colls)):
            a = colls[i]
            pa = row[a]
            for j in range(i + 1, len(colls)):
                b = colls[j]
                pb = row[b]
                rec = edges.get((a, b))
                if rec is None:
                    edges[(a, b)] = (pa, pb, s)
                    continue
                pa0, pb0, s0 = rec
                checked += 1
                if not probs_equal(scc, pa * pb0, pb * pa0, tol):
                    bindings, lhs, rhs = _chain_witness(
                        scc, a, b, (pa0, pb0, b, s0, s0), (pa, pb, b, s, s)
                    )
                    out.add(bindings, lhs, rhs)

    support_colls = sorted({c for row in pos.values() for c in row})
    neighbors: dict[int, set[int]] = {c: set() for c in support_colls}
    for a, b in edges:
        neighbors[a].add(b)
        neighbors[b].add(a)
    vacuous = sum(
        1
        for t in support_colls
        for t2 in support_colls
        if t != t2 and t2 not in neighbors[t] and not (neighbors[t] & neighbors[t2])
    )
    if not out.clean:
        return out.report(scc, checked, vacuous)

    def edge(a: int, b: int) -> tuple[Prob, Prob, int]:
        """Oriented ratio mu(a,.)/mu(b,.) with its canonical menu."""
        if a < b:
            num, den, s0 = edges[(a, b)]
            return num, den, s0
        den, num, s0 = edges[(b, a)]
        return num, den, s0

    # Stage 2 (exact mode): multiplicative potential over each component.
    if scc.exact:
        potential: dict[int, Fraction] = {}
        for root in support_colls:
            if root in potential:
                continue
            potential[root] = Fraction(1)
            queue = [root]
            while queue:
                cur = queue.pop()
                for nxt in sorted(neighbors[cur]):
                    if nxt in potential:
                        continue
                    num, den, _ = edge(cur, nxt)
                    # ratio(cur,nxt) = phi(cur)/phi(nxt)
                    potential[nxt] = potential[cur] * den / num
                    queue.append(nxt)
        consistent = True
        for (a, b), (num, den, _) in edges.items():
            checked += 1
            if potential[a] * den != potential[b] * num:
                consistent = False
                break
        if consistent:
            return out.report(scc, checked, vacuous)

    # Stage 3: direct chain comparison per ordered pair.
    for t in support_colls:
        nt = neighbors[t]
        for t2 in support_colls:
            if t2 == t:
                continue
            values: list[tuple[Prob, Prob, int, int, int]] = []
            if t2 in nt:
                num, den, s0 = edge(t, t2)
                # chains through T* = T' (and T* = T) reduce to the edge ratio
                values.append((num, den, t2, s0, s0))
            for mid in sorted(nt & neighbors[t2]):
                n1, d1, s1 = edge(t, mid)
                n2, d2, s2 = edge(mid, t2)
                values.append((n1 * n2, d1 * d2, mid, s1, s2))
            for other in values[1:]:
                checked += 1
                ref = values[0]
                if not probs_equal(scc, ref[0] * other[1], other[0] * ref[1], tol):
                    bindings, lhs, rhs = _chain_witness(scc, t, t2, ref, other)
                    out.add(bindings, lhs, rhs)
    return out.report(scc, checked, vacuous)


def _partition_report(scc: SCC, tol: ToleranceConfig, cap: int) -> AxiomReport:
    """Revealed nests must be pairwise disjoint and cover the grand set.

    Domain: one disjointness instance per nest pair plus one coverage
    instance.  Coverage failures bind the uncovered items under "uncovered".
    """
    require_complete(scc)
    out = _Collector(AxiomId.PARTITION, cap)
    nests = cached_revealed_nests(scc, tol)
    for i in range(len(nests)):
        for j in range(i + 1, len(nests)):
            if nests[i] & nests[j]:
                out.add({"T": nests[i], "T_prime": nests[j]}, None, None)
    union = 0
    for nest in nests:
        union |= nest
    uncovered = scc.universe.full_mask & ~union
    if uncovered:
        out.add({"uncovered": uncovered}, None, None)
    return out.report(scc, len(nests) * (len(nests) - 1) // 2 + 1, 0)


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
    with non-empty T contained in S\\x; instances failing the three-part
    guard are vacuous.
    """
    require_complete(scc)
    out = _Collector(AxiomId.PAF, cap)
    zero = scc.zero()
    checked = 0
    vacuous = 0
    for s, xbit, rest, row_s, row_rest in _removals(scc.rows):
        gate = is_zero(scc, row_s.get(xbit, zero), tol)
        for t in nonempty_submasks(rest):
            lhs = row_s.get(t, zero)
            rhs = row_rest.get(t, zero)
            if not (
                gate
                and is_positive(scc, lhs, tol)
                and is_positive(scc, rhs, tol)
            ):
                vacuous += 1
                continue
            checked += 1
            if not probs_equal(scc, lhs, rhs, tol):
                out.add({"S": s, "x": xbit, "T": t}, lhs, rhs)
    return out.report(scc, checked, vacuous)


def check_special(
    scc: SCC,
    kind: AxiomId,
    tol: ToleranceConfig = DEFAULT_TOL,
    cap: int = WITNESS_CAP,
) -> AxiomReport:
    """Deterministic-full-choice and singleton-representation tests.

    DET_FULL_CHOICE: mu(S,S) = 1 for every menu (one instance per menu).

    SINGLETON, clause (i): every singleton is chosen with positive
    probability from every menu, and no other collection ever is (on
    empty-collection SCCs the empty collection counts as "other").
    Clause (ii): singleton probability ratios are menu-independent, decided
    by cross-multiplying each menu containing a pair {x,y} against the
    binary menu {x,y} as reference.  Counts are arithmetic over the stated
    domains; violations are located through row supports.
    """
    require_complete(scc)
    n = scc.universe.n
    if kind is AxiomId.DET_FULL_CHOICE:
        out = _Collector(AxiomId.DET_FULL_CHOICE, cap)
        for menu in scc.menus():
            p = prob_lookup(scc, menu, menu)
            if not probs_equal(scc, p, scc.one(), tol):
                out.add({"S": menu}, p, scc.one())
        return out.report(scc, (1 << n) - 1, 0)
    if kind is not AxiomId.SINGLETON:
        raise ValueError(f"check_special handles DET_FULL_CHOICE and SINGLETON, got {kind}")

    out = _Collector(AxiomId.SINGLETON, cap)
    pos = _positive_rows(scc, tol)
    # clause (i): positive singletons, nothing else positive
    for menu in scc.menus():
        sup = pos[menu]
        for x in bits(menu):
            if (1 << x) not in sup:
                out.add({"x": 1 << x, "S": menu}, scc.zero(), None)
        for t in sorted(sup):
            if popcount(t) != 1:
                out.add({"T": t, "S": menu}, scc.rows[menu][t], scc.zero())
    # clause (i) spans all non-empty (T, S) pairs: positivity demands on the
    # singletons, zero demands on everything else
    checked = 3**n - 2**n
    if scc.allows_empty:
        checked += (1 << n) - 1  # one empty-collection zero demand per menu
    # clause (ii): ratio stability against the binary reference menu
    rows = cached_scaled_rows(scc)[0]
    for x, y in combinations(range(n), 2):
        xbit, ybit = 1 << x, 1 << y
        ref = xbit | ybit
        ref_x = rows[ref].get(xbit, 0)
        ref_y = rows[ref].get(ybit, 0)
        for menu in scc.menus():
            if menu & ref != ref or menu == ref:
                continue
            checked += 1
            lhs = rows[menu].get(xbit, 0) * ref_y
            rhs = ref_x * rows[menu].get(ybit, 0)
            if not probs_equal(scc, lhs, rhs, tol):
                out.add_equation(
                    scc, {"x": xbit, "y": ybit, "S": menu, "S_prime": ref}, tol
                )
    return out.report(scc, checked, 0)


def monotonicity_violations(
    scc: SCC, tol: ToleranceConfig = DEFAULT_TOL
) -> list[dict]:
    """Instances where enlarging the menu raises a collection's probability.

    Relative additivity implies mu(T,S) <= mu(T,S\\x) for every x in S and
    non-empty T contained in S\\x; the returned dicts carry the offending
    bindings and both values.  (Exact mode compares exactly; float mode
    allows eps_eq slack.)
    """
    require_complete(scc)
    zero = scc.zero()
    offenders = []
    for s, xbit, rest, row_s, row_rest in _removals(scc.rows):
        for t in nonempty_submasks(rest):
            larger = row_s.get(t, zero)
            smaller = row_rest.get(t, zero)
            if larger > smaller and not probs_equal(scc, larger, smaller, tol):
                offenders.append(
                    {"S": s, "x": xbit, "T": t, "lhs": larger, "rhs": smaller}
                )
    return offenders


def support_transfer_violations(
    scc: SCC, tol: ToleranceConfig = DEFAULT_TOL
) -> list[dict]:
    """Instances where menu shrinkage changes a collection's support status.

    Expected under positivity-1 plus relative additivity: for x in S and
    non-empty T contained in S\\x, mu(T,S\\x) = 0 iff mu(T,S) + mu(T u x, S)
    = 0.  Violations carry the direction that failed ("zero_spreads" when a
    zero at the smaller menu meets positive mass at the larger one,
    "support_drops" for the converse).
    """
    require_complete(scc)
    zero = scc.zero()
    offenders = []
    for s, xbit, rest, row_s, row_rest in _removals(scc.rows):
        for t in nonempty_submasks(rest):
            small = row_rest.get(t, zero)
            pair = row_s.get(t, zero) + row_s.get(t | xbit, zero)
            small_zero = is_zero(scc, small, tol)
            pair_zero = is_zero(scc, pair, tol)
            if small_zero and not pair_zero:
                offenders.append(
                    {"S": s, "x": xbit, "T": t, "direction": "zero_spreads"}
                )
            elif not small_zero and pair_zero:
                offenders.append(
                    {"S": s, "x": xbit, "T": t, "direction": "support_drops"}
                )
    return offenders


def _recheck_equation(
    scc: SCC, witness: Witness, tol: ToleranceConfig
) -> Optional[tuple[Prob, Prob]]:
    """Recompute both sides of an equation axiom at the witness bindings.

    Returns None when the bindings do not satisfy the axiom's guards (the
    witness is then bogus); otherwise the freshly computed (lhs, rhs).
    """
    b = witness.bindings
    ax = witness.axiom
    zero = scc.zero()
    if ax in (AxiomId.IIS, AxiomId.IIS_O):
        s, s2, t, t2 = b["S"], b["S_prime"], b["T"], b["T_prime"]
        mu_t_s = prob_lookup(scc, t, s)
        mu_t_s2 = prob_lookup(scc, t, s2)
        mu_t2_s = prob_lookup(scc, t2, s)
        mu_t2_s2 = prob_lookup(scc, t2, s2)
        guards = [mu_t2_s, mu_t2_s2]
        if ax is AxiomId.IIS:
            guards += [mu_t_s, mu_t_s2]
        if any(is_zero(scc, g, tol) for g in guards):
            return None
        return mu_t_s * mu_t2_s2, mu_t2_s * mu_t_s2
    if ax in (AxiomId.REL_ADD, AxiomId.REL_ADD_1):
        s, xbit, t, t2 = b["S"], b["x"], b["T"], b["T_prime"]
        rest = s & ~xbit
        if ax is AxiomId.REL_ADD_1:
            excluded = cached_revealed_constraints(scc, tol)[next(bits(xbit))] & rest
            if excluded in (t, t2):
                return None
        lhs = prob_lookup(scc, t, rest) * (
            prob_lookup(scc, t2, s) + prob_lookup(scc, t2 | xbit, s)
        )
        rhs = prob_lookup(scc, t2, rest) * (
            prob_lookup(scc, t, s) + prob_lookup(scc, t | xbit, s)
        )
        return lhs, rhs
    if ax is AxiomId.REL_ADD_2:
        s, xbit, t, t2 = b["S"], b["x"], b["T"], b["T_prime"]
        rest = s & ~xbit
        revealed = cached_revealed_constraints(scc, tol)
        x = next(bits(xbit))
        if revealed[x] & rest != t or t == 0 or t2 == t:
            return None
        full = scc.universe.full_mask
        denom = zero
        for y in bits(s):
            denom = denom + prob_lookup(scc, revealed[y], full)
        if is_zero(scc, denom, tol):
            return None
        adj = prob_lookup(scc, revealed[x], full) / denom
        lhs = prob_lookup(scc, t, rest) * (
            prob_lookup(scc, t2, s) + prob_lookup(scc, t2 | xbit, s)
        )
        rhs = prob_lookup(scc, t2, rest) * (
            prob_lookup(scc, t, s) + prob_lookup(scc, t | xbit, s) - adj
        )
        return lhs, rhs
    if ax is AxiomId.ADDITIVITY:
        s, xbit, t = b["S"], b["x"], b["T"]
        rest = s & ~xbit
        if rest == 0:
            return None
        lhs = prob_lookup(scc, t, rest)
        rhs = prob_lookup(scc, t, s) + prob_lookup(scc, t | xbit, s)
        return lhs, rhs
    if ax is AxiomId.PIIS:
        sides = []
        for tag in ("1", "2"):
            star = b[f"T_star_{tag}"]
            s = b[f"S_{tag}"]
            sp = b[f"S_prime_{tag}"]
            num1 = prob_lookup(scc, b["T"], s)
            den1 = prob_lookup(scc, star, s)
            num2 = prob_lookup(scc, star, sp)
            den2 = prob_lookup(scc, b["T_prime"], sp)
            if any(is_zero(scc, v, tol) for v in (num1, den1, num2, den2)):
                return None
            sides.append(num1 * num2 / (den1 * den2))
        return sides[0], sides[1]
    if ax is AxiomId.PAF:
        s, xbit, t = b["S"], b["x"], b["T"]
        rest = s & ~xbit
        lhs = prob_lookup(scc, t, s)
        rhs = prob_lookup(scc, t, rest)
        if not (
            is_zero(scc, prob_lookup(scc, xbit, s), tol)
            and is_positive(scc, lhs, tol)
            and is_positive(scc, rhs, tol)
        ):
            return None
        return lhs, rhs
    if ax is AxiomId.DET_FULL_CHOICE:
        s = b["S"]
        return prob_lookup(scc, s, s), scc.one()
    if ax is AxiomId.SINGLETON and set(b) == {"x", "y", "S", "S_prime"}:
        xbit, ybit, s, ref = b["x"], b["y"], b["S"], b["S_prime"]
        lhs = prob_lookup(scc, xbit, s) * prob_lookup(scc, ybit, ref)
        rhs = prob_lookup(scc, xbit, ref) * prob_lookup(scc, ybit, s)
        return lhs, rhs
    return None


def recheck_witness(
    scc: SCC,
    witness: Witness,
    tol: ToleranceConfig = DEFAULT_TOL,
    attributes: Optional[Sequence[int]] = None,
) -> bool:
    """True iff the witness still certifies a genuine violation on ``scc``.

    Equation witnesses must satisfy their guards, reproduce the recorded
    lhs/rhs, and the sides must differ.  Structural witnesses are confirmed
    by re-deriving the violated condition (kind-2 positivity needs the same
    ``attributes`` context the original check used).
    """
    b = witness.bindings
    ax = witness.axiom
    if AXIOMS[ax].structural or (
        ax is AxiomId.SINGLETON and set(b) != {"x", "y", "S", "S_prime"}
    ):
        return _recheck_structural(scc, witness, tol, attributes)
    sides = _recheck_equation(scc, witness, tol)
    if sides is None:
        return False
    lhs, rhs = sides
    if probs_equal(scc, lhs, rhs, tol):
        return False
    if witness.lhs is not None and not probs_equal(scc, lhs, witness.lhs, tol):
        return False
    if witness.rhs is not None and not probs_equal(scc, rhs, witness.rhs, tol):
        return False
    return True


def _recheck_structural(
    scc: SCC,
    witness: Witness,
    tol: ToleranceConfig,
    attributes: Optional[Sequence[int]],
) -> bool:
    b = witness.bindings
    ax = witness.axiom
    if ax is AxiomId.POS1:
        s = b["S"]
        return not any(
            t & b["x"] and is_positive(scc, p, tol)
            for t, p in scc.rows[s].items()
        )
    if ax in (AxiomId.POS2, AxiomId.POS3, AxiomId.POS4):
        s, t = b["S"], b["T"]
        if ax is AxiomId.POS2:
            if attributes is None:
                raise MissingAttributesError(
                    "rechecking a kind-2 positivity witness needs the carriers"
                )
            achievable = {c & s for c in attributes if c & s}
        elif ax is AxiomId.POS3:
            revealed = cached_revealed_constraints(scc, tol)
            achievable = {revealed[x] & s for x in bits(s)}
        else:
            achievable = {
                nest & s for nest in cached_revealed_nests(scc, tol) if nest & s
            }
        positive = is_positive(scc, prob_lookup(scc, t, s), tol)
        return positive != (t in achievable)
    if ax is AxiomId.DISTINCT_Q:
        revealed = cached_revealed_constraints(scc, tol)
        return revealed[next(bits(b["x"]))] == revealed[next(bits(b["y"]))]
    if ax is AxiomId.PARTITION:
        nests = cached_revealed_nests(scc, tol)
        if "uncovered" in b:
            union = 0
            for nest in nests:
                union |= nest
            return scc.universe.full_mask & ~union == b["uncovered"]
        return (
            b["T"] in nests
            and b["T_prime"] in nests
            and bool(b["T"] & b["T_prime"])
        )
    if ax is AxiomId.FULL_SUPPORT:
        return is_zero(scc, prob_lookup(scc, b["T"], b["S"]), tol)
    if ax is AxiomId.SINGLETON:
        if set(b) == {"x", "S"}:
            return is_zero(scc, prob_lookup(scc, b["x"], b["S"]), tol)
        if set(b) == {"T", "S"}:
            return popcount(b["T"]) != 1 and is_positive(
                scc, prob_lookup(scc, b["T"], b["S"]), tol
            )
    return False


class AxiomSpec(NamedTuple):
    """One registry entry: the check that decides an axiom, called as
    ``check(scc, tol=..., cap=...)`` plus ``attributes=...`` when it needs
    them, the SCCs on which :func:`full_battery` runs it, and how
    :func:`recheck_witness` confirms its witnesses."""

    check: Callable[..., AxiomReport]
    empty_only: bool = False  # runs only on empty-collection SCCs
    needs_attributes: bool = False  # runs only when attribute carriers are given
    structural: bool = False  # witnesses are re-derived, not recomputed sides

    def applies(self, scc: SCC, attributes: Optional[Sequence[int]]) -> bool:
        return (scc.allows_empty or not self.empty_only) and (
            attributes is not None or not self.needs_attributes
        )


#: The axiom registry, in declaration order.
AXIOMS: dict[AxiomId, AxiomSpec] = {
    AxiomId.IIS: AxiomSpec(partial(check_iis, empty_variant=False)),
    AxiomId.IIS_O: AxiomSpec(partial(check_iis, empty_variant=True), empty_only=True),
    AxiomId.REL_ADD: AxiomSpec(check_relative_additivity),
    AxiomId.ADDITIVITY: AxiomSpec(check_additivity, empty_only=True),
    AxiomId.POS1: AxiomSpec(partial(check_positivity, kind=1), structural=True),
    AxiomId.POS2: AxiomSpec(
        partial(check_positivity, kind=2), needs_attributes=True, structural=True
    ),
    AxiomId.DISTINCT_Q: AxiomSpec(_distinct_constraints_report, structural=True),
    AxiomId.POS3: AxiomSpec(partial(check_positivity, kind=3), structural=True),
    AxiomId.REL_ADD_1: AxiomSpec(partial(_rel_add_scan, axiom=AxiomId.REL_ADD_1)),
    AxiomId.REL_ADD_2: AxiomSpec(_rel_add_adjusted),
    AxiomId.PIIS: AxiomSpec(check_piis),
    AxiomId.PARTITION: AxiomSpec(_partition_report, structural=True),
    AxiomId.POS4: AxiomSpec(partial(check_positivity, kind=4), structural=True),
    AxiomId.PAF: AxiomSpec(check_paf),
    AxiomId.FULL_SUPPORT: AxiomSpec(check_full_support, structural=True),
    AxiomId.DET_FULL_CHOICE: AxiomSpec(
        partial(check_special, kind=AxiomId.DET_FULL_CHOICE)
    ),
    AxiomId.SINGLETON: AxiomSpec(partial(check_special, kind=AxiomId.SINGLETON)),
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
