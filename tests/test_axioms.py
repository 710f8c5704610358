"""Axiom checks against hand-derived oracles on small universes.

The reference dataset is the worked two-nest example over {a,b,c}
(nests {a,b} | {c}, weights 1, 2, 4 | 3), whose violating instances of
relative additivity and the attention-filter condition were derived by
hand, fraction by fraction.
"""

import hashlib
import math
import random
import sys
import timeit
import tracemalloc
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from functools import partial, reduce
from itertools import combinations, cycle, product
from operator import or_

import pytest

from scclab.core import (
    DEFAULT_TOL,
    MAX_ITEMS,
    IncompleteDatasetError,
    MenuAbsentError,
    MissingAttributesError,
    MissingBinaryMenuError,
    SCC,
    ToleranceConfig,
    Universe,
    WrongVariantError,
    bits,
    is_positive,
    is_zero,
    nonempty_submasks,
    popcount,
    prob_lookup,
    probs_equal,
    submasks,
)
import scclab.axioms
from scclab.axioms import (
    AXIOMS,
    CHARACTERIZING_AXIOMS,
    WITNESS_CAP,
    AxiomId,
    Witness,
    AxiomReport,
    _GrandRow,
    _chain_bindings,
    _grand_row,
    cached_report,
    cached_revealed_constraints,
    cached_revealed_nests,
    cached_scaled_rows,
    characterizing_axioms,
    check_additivity,
    check_full_support,
    check_iis,
    check_nsc_structure,
    check_paf,
    check_piis,
    check_positivity,
    check_relative_additivity,
    check_rrm_suite,
    check_special,
    derive_revealed_constraints,
    derive_revealed_nests,
    full_battery,
    monotonicity_violations,
    recheck_witness,
    run_axiom,
    support_transfer_violations,
)
from scclab.fuzz import (
    ALL_VARIANTS,
    GenConfig,
    _carriers_of,
    _trials,
    sample_params,
    sample_singleton_params,
)
from scclab.io_cli import parse_scc, scc_to_document
from scclab.models import (
    EBAParams,
    Aspect,
    ICParams,
    LogitParams,
    ModelSpec,
    ModelTag,
    NSCParams,
    RCGParams,
    RRMParams,
    generate_scc,
)

F = Fraction
U3 = Universe.default(3)
A, B, C, AB, AC, BC, ABC = 1, 2, 4, 3, 5, 6, 7

NSC_EXAMPLE = ModelSpec(
    ModelTag.NSC, NSCParams((AB, C), {A: F(1), B: F(2), AB: F(4), C: F(3)})
)


@pytest.fixture(scope="module")
def nsc_scc():
    return generate_scc(NSC_EXAMPLE, U3)


@pytest.fixture(scope="module")
def logit_scc():
    weights = {A: F(4), B: F(2), C: F(1), AB: F(3), AC: F(2), BC: F(5), ABC: F(7)}
    return generate_scc(ModelSpec(ModelTag.LOGIT, LogitParams(weights)), U3)


@pytest.fixture(scope="module")
def ic_scc():
    params = ICParams({0: F(1, 2), 1: F(1, 3), 2: F(2, 3)})
    return generate_scc(ModelSpec(ModelTag.IC, params), U3)


class TestIIS:
    """Ratio independence across menus, unordered pairs, positivity guard."""

    def test_holds_on_logit(self, logit_scc):
        report = check_iis(logit_scc)
        assert report.holds and not report.witnesses
        assert report.instances_vacuous == 0

    def test_vacuous_on_nsc_example(self, nsc_scc):
        report = check_iis(nsc_scc)
        assert report.holds
        assert report.instances_checked == 0
        assert report.instances_vacuous == 9

    def test_perturbed_logit_witness_names_perturbed_menu(self, logit_scc):
        rows = {menu: dict(row) for menu, row in logit_scc.rows.items()}
        # swap two probabilities in menu {a,b}; the row still sums to 1 but
        # its ratios now disagree with every other menu
        rows[AB][A], rows[AB][B] = rows[AB][B], rows[AB][A]
        perturbed = SCC(U3, rows)
        report = check_iis(perturbed)
        assert not report.holds
        for witness in report.witnesses:
            assert AB in (witness.bindings["S"], witness.bindings["S_prime"])
            assert recheck_witness(perturbed, witness)

    def test_ordered_variant_on_standard_data(self, logit_scc):
        # the ordered-pair variant runs gracefully on a standard SCC and is
        # strictly stronger; logit data satisfies it
        report = check_iis(logit_scc, empty_variant=True)
        assert report.axiom is AxiomId.IIS_O
        assert report.holds
        assert report.instances_checked > check_iis(logit_scc).instances_checked


class TestRelativeAdditivity:
    def test_holds_on_rcg(self):
        params = RCGParams({AB: F(1, 2), C: F(1, 4), ABC: F(1, 4)})
        scc = generate_scc(ModelSpec(ModelTag.RCG, params), U3)
        report = check_relative_additivity(scc)
        assert report.holds
        assert report.instances_vacuous == 0

    def test_nsc_example_witnesses(self, nsc_scc):
        report = check_relative_additivity(nsc_scc)
        assert not report.holds
        first, second = report.witnesses[:2]
        assert first.bindings == {"S": ABC, "x": A, "T": B, "T_prime": C}
        assert (first.lhs, first.rhs) == (F(6, 35), F(12, 35))
        # the advertised counterexample: S = X, x = b, T = {a}, T' = {c}
        assert second.bindings == {"S": ABC, "x": B, "T": A, "T_prime": C}
        assert (second.lhs, second.rhs) == (F(3, 28), F(12, 28))
        for witness in report.witnesses:
            assert recheck_witness(nsc_scc, witness)

    def test_no_guard_so_nothing_vacuous(self, nsc_scc):
        report = check_relative_additivity(nsc_scc)
        assert report.instances_vacuous == 0


class TestAdditivity:
    """Empty-collection additivity: removal splits mass exactly."""

    def test_holds_on_rcg_empty_variant(self):
        params = RCGParams({AB: F(1, 2), C: F(1, 2)})
        scc = generate_scc(ModelSpec(ModelTag.RCG, params, empty_variant=True), U3)
        report = check_additivity(scc)
        assert report.holds
        # singleton menus cannot drop an item: one vacuous instance each
        assert report.instances_vacuous == 3

    def test_rejected_on_standard_scc(self, logit_scc):
        with pytest.raises(WrongVariantError):
            check_additivity(logit_scc)

    def test_fails_on_doctored_rows(self):
        params = RCGParams({AB: F(1, 2), C: F(1, 2)})
        scc = generate_scc(ModelSpec(ModelTag.RCG, params, empty_variant=True), U3)
        rows = {menu: dict(row) for menu, row in scc.rows.items()}
        rows[A] = {0: F(1, 4), A: F(3, 4)}
        doctored = SCC(U3, rows, allows_empty=True)
        report = check_additivity(doctored)
        assert not report.holds
        assert all(recheck_witness(doctored, w) for w in report.witnesses)


class TestPositivity:
    def test_kind1_holds_on_rcg(self):
        params = RCGParams({AB: F(1, 2), C: F(1, 4), ABC: F(1, 4)})
        scc = generate_scc(ModelSpec(ModelTag.RCG, params), U3)
        report = check_positivity(scc, 1)
        assert report.holds
        assert report.instances_checked == 12  # sum of |S| over menus

    def test_kind1_failure_witness(self):
        rows = {
            1: {1: F(1)}, 2: {2: F(1)}, 3: {2: F(1)},
        }
        scc = SCC(Universe.default(2), rows)
        report = check_positivity(scc, 1)
        assert not report.holds
        assert report.witnesses[0].bindings == {"x": A, "S": AB}
        assert recheck_witness(scc, report.witnesses[0])

    def test_kind2_needs_attributes(self, nsc_scc):
        with pytest.raises(MissingAttributesError):
            check_positivity(nsc_scc, 2)

    def test_kind2_on_eba(self):
        params = EBAParams((Aspect(F(3, 5), AB), Aspect(F(2, 5), C)))
        scc = generate_scc(ModelSpec(ModelTag.EBA, params), U3)
        report = check_positivity(scc, 2, attributes=[AB, C])
        assert report.holds
        assert report.instances_checked == 3**3 - 2**3
        # the wrong attribute family is detected
        assert not check_positivity(scc, 2, attributes=[ABC]).holds

    def test_kind4_on_nsc(self, nsc_scc):
        report = check_positivity(nsc_scc, 4)
        assert report.holds
        assert report.instances_checked == 3**3 - 2**3


class TestRevealedStructure:
    def test_revealed_constraints_recover_q(self):
        params = RRMParams({0: F(1), 1: F(2), 2: F(3)}, {0: AB, 1: B, 2: BC})
        scc = generate_scc(ModelSpec(ModelTag.RRM, params), U3)
        assert derive_revealed_constraints(scc) == {0: AB, 1: B, 2: BC}

    def test_revealed_nests_ascending(self, nsc_scc):
        assert derive_revealed_nests(nsc_scc) == [AB, C]

    def test_rrm_suite_holds_on_rrm(self):
        params = RRMParams({0: F(1), 1: F(2), 2: F(3)}, {0: AB, 1: B, 2: BC})
        scc = generate_scc(ModelSpec(ModelTag.RRM, params), U3)
        reports = check_rrm_suite(scc)
        assert [r.axiom for r in reports] == [
            AxiomId.DISTINCT_Q,
            AxiomId.POS3,
            AxiomId.REL_ADD_1,
            AxiomId.REL_ADD_2,
        ]
        assert all(r.holds for r in reports)

    def test_distinct_q_fails_on_nsc_example(self, nsc_scc):
        reports = {r.axiom: r for r in check_rrm_suite(nsc_scc)}
        report = reports[AxiomId.DISTINCT_Q]
        assert not report.holds
        # both items of the first nest reveal the same constraint set
        witness = report.witnesses[0]
        assert witness.bindings["x"] == A and witness.bindings["y"] == B
        assert recheck_witness(nsc_scc, witness)

    def test_nsc_structure_trio(self, nsc_scc):
        reports = check_nsc_structure(nsc_scc)
        assert [r.axiom for r in reports] == [
            AxiomId.PIIS,
            AxiomId.PARTITION,
            AxiomId.POS4,
        ]
        assert all(r.holds for r in reports)
        piis, partition, _ = reports
        assert piis.instances_checked == 3  # one potential check per edge
        assert partition.instances_checked == 2  # one disjointness pair + coverage

    def test_partition_stops_once_the_cap_is_full(self, monkeypatch):
        # on full-support data every pair of the 255 nests overlaps; the
        # count is C(255, 2) + 1 whichever pairs are scanned
        spec = sample_params(GenConfig(8, ModelTag.LOGIT, seed=5300))
        scc = generate_scc(spec, Universe.default(8))
        cached_revealed_nests(scc)
        recorded = _recordings(monkeypatch)
        report = scclab.axioms._partition_report(scc, DEFAULT_TOL, 10)
        assert not report.holds and len(report.witnesses) == 10
        assert report.instances_checked == 255 * 254 // 2 + 1
        assert len(recorded) == 10


class TestPIIS:
    def test_holds_on_full_support_logit(self, logit_scc):
        assert check_piis(logit_scc).holds

    def test_chain_conflict_detected(self, logit_scc):
        rows = {menu: dict(row) for menu, row in logit_scc.rows.items()}
        rows[AB][A], rows[AB][B] = rows[AB][B], rows[AB][A]
        perturbed = SCC(U3, rows)
        report = check_piis(perturbed)
        assert not report.holds
        assert all(recheck_witness(perturbed, w) for w in report.witnesses)

    @pytest.mark.parametrize("model", [ModelTag.NSC, ModelTag.NESTED_LOGIT])
    @pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
    def test_no_cooccurring_pair_runs_no_later_stage(self, monkeypatch, model, exact):
        """One nest at n = 7: each menu has one positive collection, so no
        pair co-occurs.  Nothing is checked, all 127 * 126 ordered pairs of
        support collections are vacuous, and neither the potential nor the
        chain scan runs."""
        base = generate_scc(sample_params(GenConfig(7, model, seed=1)), Universe.default(7))
        scc = base if exact else SCC(base.universe, _copy_rows(base, False), exact=False)

        def refused(*args):
            raise AssertionError("a stage past stage 1 ran")

        monkeypatch.setattr(scclab.axioms, "_fit_potential", refused)
        monkeypatch.setattr(scclab.axioms, "_chain_scan", refused)
        report = check_piis(scc)
        assert not scclab.axioms._cooccurrence(scc)
        assert report.holds and not report.witnesses
        assert (report.instances_checked, report.instances_vacuous) == (0, 127 * 126)


def _edge(edges, a, b):
    """Oriented ratio mu(a,.)/mu(b,.) with its canonical menu, from
    ``edges``, which maps each pair a < b to (mu(a,S0), mu(b,S0), S0)."""
    if a < b:
        num, den, s0 = edges[(a, b)]
        return num, den, s0
    den, num, s0 = edges[(b, a)]
    return num, den, s0


def _graph(colls, edges):
    """The neighbour sets of ``colls`` under the pairs of ``edges``."""
    near = {t: set() for t in colls}
    for a, b in edges:
        near[a].add(b)
        near[b].add(a)
    return near


def _ordered_chain_scan(scc, tol, out, colls, neighbors, table, *, reached):
    """PIIS stage 3 as one scan over ordered pairs, the oracle for
    ``_chain_scan``; ``reached`` records (exact mode, found a failure).
    It reads each pair's ratio at its first menu off the co-occurrence
    index, not off the module's ``table`` and ``neighbors``."""
    index = scclab.axioms._cooccurrence(scc)
    edges = {pair: (cells[1], cells[2], cells[0]) for pair, cells in index.items()}
    neighbors = _graph(colls, edges)
    checked, found = 0, []
    for t in colls:
        for t2 in colls:
            if t2 == t:
                continue
            values = []
            if t2 in neighbors[t]:
                num, den, s0 = _edge(edges, t, t2)
                values.append((num, den, (t2, s0, s0)))
            for mid in sorted(neighbors[t] & neighbors[t2]):
                n1, d1, s1 = _edge(edges, t, mid)
                n2, d2, s2 = _edge(edges, mid, t2)
                values.append((n1 * n2, d1 * d2, (mid, s1, s2)))
            for num, den, chain in values[1:]:
                checked += 1
                ref_num, ref_den, ref = values[0]
                if not probs_equal(scc, ref_num * den, num * ref_den, tol):
                    found.append(_chain_bindings(t, t2, ref, chain))
    reached.append((scc.exact, not out.witnesses and bool(found)))
    out.extend(found)
    return checked


def _piis_cases():
    """A full-support float logit at n = 6, and a seeded fuzz corpus at
    n = 3..5 over every variant, exact and float, each dataset unchanged or
    with one cell scaled."""
    spec = sample_params(GenConfig(6, ModelTag.LOGIT, seed=3100))
    logit = generate_scc(spec, Universe.default(6))
    cases = [("logit-n6", SCC(logit.universe, _copy_rows(logit, False), exact=False))]
    rng = random.Random(3100)
    for index in range(132):
        model, empty = ALL_VARIANTS[index % len(ALL_VARIANTS)]
        n = 3 + index % 3
        config = GenConfig(n, model, seed=3100 + index, empty_variant=empty)
        base = generate_scc(sample_params(config), Universe.default(n))
        for exact in (True, False):
            rows = _copy_rows(base, exact)
            factor = rng.choice((None, 1.5, 0.7, 1 + 1e-6, 1 + 1e-10))
            if factor is not None:
                menu = rng.choice(sorted(rows))
                cell = rng.choice(sorted(rows[menu]))
                rows[menu][cell] *= F(factor) if exact else factor
            name = f"{model.value}{'_o' if empty else ''}-n{n}-{index}-{exact}-{factor}"
            cases.append((name, SCC(base.universe, rows, base.allows_empty, exact)))
    return cases


def _copy_rows(scc, exact):
    cast = F if exact else float
    return {m: {t: cast(p) for t, p in row.items()} for m, row in scc.rows.items()}


#: A grand-row certificate that never holds: patched in, every check runs
#: the path it runs where the certificate fails.
NO_CERTIFICATE = _GrandRow(None, False)


@pytest.fixture(scope="module")
def piis_runs():
    """check_piis per case and tolerance without the grand-row certificate,
    so that full-support data reaches the stages too, and the same with the
    ordered-pair oracle patched in as stage 3."""
    runs, reached = [], []
    oracle = partial(_ordered_chain_scan, reached=reached)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(scclab.axioms, "_grand_row", lambda scc, tol: NO_CERTIFICATE)
        for name, scc in _piis_cases():
            for tol in (DEFAULT_TOL, ToleranceConfig(eps_eq=1e-2)):
                fast = check_piis(scc, tol)
                with pytest.MonkeyPatch.context() as inner:
                    inner.setattr(scclab.axioms, "_chain_scan", oracle)
                    slow = check_piis(scc, tol)
                runs.append((name, scc, tol, fast, slow))
    return runs, reached


class TestPIISChainScan:
    def test_reports_match_the_ordered_scan(self, piis_runs):
        runs, _ = piis_runs
        for name, _, tol, fast, slow in runs:
            case = (name, tol.eps_eq)
            assert fast.holds == slow.holds, case
            assert fast.witnesses == slow.witnesses, case
            assert fast.instances_checked == slow.instances_checked, case
            assert fast.instances_vacuous == slow.instances_vacuous, case
            assert fast == slow, case

    def test_witnesses_recheck(self, piis_runs):
        runs, _ = piis_runs
        for name, scc, tol, fast, _ in runs:
            for witness in fast.witnesses:
                assert recheck_witness(scc, witness, tol), (name, witness)

    def test_vacuous_counts_ordered_pairs(self, piis_runs):
        runs, _ = piis_runs
        assert any(fast.instances_vacuous for _, _, _, fast, _ in runs)
        for name, scc, tol, fast, _ in runs:
            pos = [
                {t for t, p in row.items() if is_positive(scc, p)}
                for row in scc.rows.values()
            ]
            colls = set().union(*pos)
            near = {t: set().union(*(s for s in pos if t in s)) - {t} for t in colls}
            vacuous = sum(
                1
                for t in colls
                for t2 in colls
                if t != t2 and t2 not in near[t] and not near[t] & near[t2]
            )
            assert fast.instances_vacuous == vacuous, (name, tol.eps_eq)

    def test_corpus_reaches_stage3_failures(self, piis_runs):
        runs, reached = piis_runs
        # float mode always reaches stage 3 once stage 1 is clean; exact mode
        # reaches it only when the stage-2 potential is inconsistent
        assert (False, True) in reached
        assert any(exact for exact, _ in reached)
        assert any(not fast.holds for _, scc, _, fast, _ in runs if not scc.exact)
        assert all(fast.holds for name, _, _, fast, _ in runs if name == "logit-n6")


def _reference_bindings(scc, axiom):
    """Every instance of an equation axiom's domain as bindings, in the order
    its docstring states: menus S < S' then T then T' for the IIS forms, and
    S, x in S, then T (and T') for the forms over (S, x, S\\x)."""
    menus = scc.menus()
    if axiom is AxiomId.DET_FULL_CHOICE:
        yield from ({"S": s} for s in menus)
    elif axiom in (AxiomId.IIS, AxiomId.IIS_O):
        for s, s2 in combinations(menus, 2):
            subs = submasks(s & s2)
            if axiom is AxiomId.IIS_O:
                pairs = ((t, t2) for t in subs for t2 in subs if t2 != t)
            else:
                pairs = combinations(subs[1:], 2)
            for t, t2 in pairs:
                yield {"T": t, "T_prime": t2, "S": s, "S_prime": s2}
    else:
        rel_add_2 = axiom is AxiomId.REL_ADD_2
        revealed = cached_revealed_constraints(scc) if rel_add_2 else None
        for s in menus:
            for x in bits(s):
                xbit, rest = 1 << x, s & ~(1 << x)
                if axiom is AxiomId.ADDITIVITY:
                    yield from ({"S": s, "x": xbit, "T": t} for t in submasks(rest))
                elif axiom is AxiomId.PAF:
                    yield from ({"S": s, "x": xbit, "T": t} for t in submasks(rest)[1:])
                elif axiom is AxiomId.REL_ADD_2:
                    t = revealed[x] & rest
                    for t2 in submasks(rest)[1:]:
                        if t2 != t:
                            yield {"S": s, "x": xbit, "T": t, "T_prime": t2}
                else:
                    for t, t2 in combinations(submasks(rest)[1:], 2):
                        yield {"S": s, "x": xbit, "T": t, "T_prime": t2}


def _revealed_nests(scc):
    """The non-empty collections positive in the grand-set row, ascending."""
    full = scc.universe.full_mask
    return [t for t in submasks(full)[1:] if is_positive(scc, prob_lookup(scc, t, full))]


def _generators(scc, axiom, attributes, s):
    """The generators of a support-shape postulate at menu S, as its
    docstring states them: every non-empty collection (FULL_SUPPORT), the
    attribute carriers (POS2), the revealed constraint sets of S's items,
    x with every y such that mu({x}, {x,y}) is zero (POS3), or the revealed
    nests (POS4)."""
    if axiom is AxiomId.FULL_SUPPORT:
        return submasks(scc.universe.full_mask)[1:]
    if axiom is AxiomId.POS2:
        return attributes
    if axiom is AxiomId.POS4:
        return _revealed_nests(scc)
    constraint_sets = []
    for x in bits(s):
        q = 1 << x
        for y in range(scc.universe.n):
            if not is_positive(scc, prob_lookup(scc, 1 << x, (1 << x) | (1 << y))):
                q |= 1 << y
        constraint_sets.append(q)
    return constraint_sets


def _structural_reference(scc, axiom, attributes):
    """(witnesses, checked) of POS1, PARTITION or a support-shape postulate
    from its definition.  POS1: an item x of S is a witness when no positive
    collection of S contains it, over the sum of |S| instances.  Support
    shape: T is achievable on S when some generator g has g n S = T, and a
    non-empty T is a witness at S when it is positive exactly where it is
    not achievable.  A menu lists its positive unachievable collections
    first, then its achievable zero ones."""
    full = scc.universe.full_mask
    if axiom is AxiomId.POS1:
        witnesses = [
            Witness(axiom, {"x": 1 << x, "S": s})
            for s in scc.menus()
            for x in bits(s)
            if not any(
                t >> x & 1 and is_positive(scc, prob_lookup(scc, t, s)) for t in submasks(s)
            )
        ]
        return witnesses, sum(s.bit_count() for s in scc.menus())
    if axiom is AxiomId.PARTITION:
        nests = _revealed_nests(scc)
        witnesses = [
            Witness(axiom, {"T": t, "T_prime": t2}) for t, t2 in combinations(nests, 2) if t & t2
        ]
        uncovered = full & ~reduce(or_, nests, 0)
        if uncovered:
            witnesses.append(Witness(axiom, {"uncovered": uncovered}))
        return witnesses, len(nests) * (len(nests) - 1) // 2 + 1
    witnesses = []
    for s in scc.menus():
        achievable = {g & s for g in _generators(scc, axiom, attributes, s)}
        marked = {
            t: is_positive(scc, prob_lookup(scc, t, s)) for t in submasks(s)[1:]
        }
        for positive in (True, False):
            witnesses += [
                Witness(axiom, {"T": t, "S": s}, prob_lookup(scc, t, s))
                for t, shown in marked.items()
                if shown is positive and (t in achievable) is not positive
            ]
    n = scc.universe.n
    return witnesses, 3**n - 2**n


#: The reference's reports with at most WITNESS_CAP witnesses, under the
#: digest of the dataset's repr, the axiom, the tolerance and, for a
#: structural axiom, the attribute carriers: the differential fixtures,
#: which build their corpora anew and share cases, decide each once.
_REFERENCES = {}


def _reference(scc, axiom, tol=DEFAULT_TOL, cap=WITNESS_CAP, attributes=None):
    """An axiom decided from its definition, its witnesses cut to ``cap``
    (at most WITNESS_CAP), decided once per dataset's contents through
    ``_REFERENCES``."""
    assert 1 <= cap <= WITNESS_CAP
    carriers = tuple(attributes) if attributes is not None and axiom in STRUCTURAL_AXIOMS else None
    digest = hashlib.blake2b(repr(scc).encode(), digest_size=16).digest()
    key = (digest, axiom, tol, carriers)
    if key not in _REFERENCES:
        _REFERENCES[key] = _decide_reference(scc, axiom, tol, attributes)
    whole = _REFERENCES[key]
    return replace(whole, witnesses=whole.witnesses[:cap])


def _decide_reference(scc, axiom, tol, attributes, cap=WITNESS_CAP):
    """An axiom decided from its definition.  At every instance of an
    equation axiom, its ``sides`` are None (vacuous) or two values, which
    make a witness when they differ; a structural axiom goes through
    :func:`_structural_reference`.  The oracle for the checks' counts,
    verdicts and witnesses."""
    if axiom in STRUCTURAL_AXIOMS:
        witnesses, checked = _structural_reference(scc, axiom, attributes)
        return AxiomReport(
            axiom, not witnesses, tuple(witnesses[:cap]), checked, 0, scc.arithmetic_mode
        )
    witnesses, checked, vacuous = [], 0, 0
    for bindings in _reference_bindings(scc, axiom):
        sides = AXIOMS[axiom].sides(scc, bindings)
        if sides is None:
            vacuous += 1
            continue
        checked += 1
        if not probs_equal(scc, *sides, tol):
            witnesses.append(Witness(axiom, bindings, *sides))
    return AxiomReport(
        axiom, not witnesses, tuple(witnesses[:cap]), checked, vacuous, scc.arithmetic_mode
    )


#: The equation axioms the reference decides; for the four with a rank-one
#: certificate, the bindings naming its unit (a menu pair, or an (S, x)).
REFERENCE_AXIOMS = {
    AxiomId.IIS: ("S", "S_prime"),
    AxiomId.IIS_O: ("S", "S_prime"),
    AxiomId.REL_ADD: ("S", "x"),
    AxiomId.REL_ADD_1: ("S", "x"),
    AxiomId.REL_ADD_2: None,
    AxiomId.ADDITIVITY: None,
    AxiomId.PAF: None,
    AxiomId.DET_FULL_CHOICE: None,
}

#: The structural axioms the reference decides.
STRUCTURAL_AXIOMS = (
    AxiomId.POS1,
    AxiomId.POS2,
    AxiomId.POS3,
    AxiomId.POS4,
    AxiomId.FULL_SUPPORT,
    AxiomId.PARTITION,
)


#: The axioms whose domain the universe and the empty-collection flag fix,
#: so that the registry states its size in closed form.
DOMAIN_AXIOMS = {
    AxiomId.IIS,
    AxiomId.IIS_O,
    AxiomId.REL_ADD,
    AxiomId.REL_ADD_1,
    AxiomId.ADDITIVITY,
    AxiomId.POS1,
    AxiomId.POS2,
    AxiomId.POS3,
    AxiomId.POS4,
    AxiomId.FULL_SUPPORT,
    AxiomId.DISTINCT_Q,
    AxiomId.PAF,
    AxiomId.DET_FULL_CHOICE,
    AxiomId.SINGLETON,
}


def _subsets(mask):
    """Every subset of ``mask``, ascending, the empty one first."""
    return [t for t in range(mask + 1) if t & mask == t]


def _instances(axiom, n, allows_empty):
    """Every instance of an axiom's domain on a complete SCC of n items,
    enumerated from the quantifier its check's docstring states."""
    menus = range(1, 1 << n)
    removals = [(s, x, s & ~(1 << x)) for s in menus for x in range(n) if s >> x & 1]
    if axiom is AxiomId.IIS:
        # menus S < S', collections T < T' non-empty in S n S'
        for s, s2 in combinations(menus, 2):
            yield from combinations(_subsets(s & s2)[1:], 2)
    elif axiom is AxiomId.IIS_O:
        # menus S < S', ordered distinct T, T' in S n S', the empty one included
        for s, s2 in combinations(menus, 2):
            subs = _subsets(s & s2)
            yield from ((t, t2) for t in subs for t2 in subs if t2 != t)
    elif axiom in (AxiomId.REL_ADD, AxiomId.REL_ADD_1):
        # S, x in S, non-empty T < T' in S\x
        for _, _, rest in removals:
            yield from combinations(_subsets(rest)[1:], 2)
    elif axiom is AxiomId.ADDITIVITY:
        # S, x in S, T in S\x, the empty one included
        yield from ((s, x, t) for s, x, rest in removals for t in _subsets(rest))
    elif axiom is AxiomId.PAF:
        # S, x in S, non-empty T in S\x
        yield from ((s, x, t) for s, x, rest in removals for t in _subsets(rest)[1:])
    elif axiom is AxiomId.POS1:
        yield from removals  # S, x in S
    elif axiom is AxiomId.DISTINCT_Q:
        yield from combinations(range(n), 2)  # items x < y
    elif axiom is AxiomId.DET_FULL_CHOICE:
        yield from menus
    elif axiom is AxiomId.SINGLETON:
        # clause (i): (T, S), T empty only where allowed; clause (ii): items
        # x < y and a menu S other than {x, y} containing both
        yield from ((t, s) for s in menus for t in _subsets(s) if t or allows_empty)
        for x, y in combinations(range(n), 2):
            pair = 1 << x | 1 << y
            yield from ((x, y, s) for s in menus if s & pair == pair and s != pair)
    else:
        # the support shapes: S, non-empty T in S
        yield from ((t, s) for s in menus for t in _subsets(s)[1:])


class TestDomains:
    def test_the_registry_states_these_domains(self):
        assert {axiom for axiom, spec in AXIOMS.items() if spec.domain} == DOMAIN_AXIOMS

    def test_closed_forms_count_the_quantifiers(self):
        for axiom in DOMAIN_AXIOMS:
            for n in range(1, 7):
                for allows_empty in (False, True):
                    size = AXIOMS[axiom].domain(n, allows_empty)
                    case = (axiom, n, allows_empty)
                    assert type(size) is int, case
                    assert size == sum(1 for _ in _instances(axiom, n, allows_empty)), case

    def test_rel_add_1_vacuous_count_is_the_closed_form(self):
        """Against the pairs that touch each (S, x)'s excluded collection
        Q(x) n S\\x: every family of constraint sets Q(x) (each holding x)
        at n = 1..3, and seeded ones at n = 4..7.  The closed form is
        REL_ADD_2's checked count where every menu meets its support P."""
        rng = random.Random(5400)

        def touching(n, constraints):
            return sum(
                (1 << (s & ~(1 << x)).bit_count()) - 2
                for s in range(1, 1 << n)
                if s.bit_count() > 1
                for x in bits(s)
                if constraints[x] & s & ~(1 << x)
            )

        families = [
            (n, dict(enumerate(qs)))
            for n in (1, 2, 3)
            for qs in product(*[[q for q in range(1 << n) if q >> x & 1] for x in range(n)])
        ]
        families += [
            (n, {x: rng.randrange(1 << n) | 1 << x for x in range(n)})
            for n in (4, 5, 6, 7)
            for _ in range(20)
        ]
        for n, constraints in families:
            closed = scclab.axioms._rel_add_counts(n, constraints, (1 << n) - 1)[0]
            assert closed == touching(n, constraints), (n, constraints)

    def test_rel_add_2_counts_are_the_closed_form(self):
        """Against REL_ADD_2's (S, x) units counted one by one, each of
        2^|S\\x| - 1 instances less one where T = Q(x) n S\\x is non-empty,
        checked where T is non-empty and S meets the support P: every family
        of constraint sets at n = 1..3 with every P, and seeded ones at
        n = 4..7."""
        rng = random.Random(5401)

        def units(n, constraints, support):
            checked = vacuous = 0
            for s in range(1, 1 << n):
                for x in bits(s) if s.bit_count() > 1 else ():
                    t = constraints[x] & s & ~(1 << x)
                    size = (1 << (s & ~(1 << x)).bit_count()) - 1 - (t != 0)
                    if t and s & support:
                        checked += size
                    else:
                        vacuous += size
            return checked, vacuous

        families = [
            (n, dict(enumerate(qs)), support)
            for n in (1, 2, 3)
            for qs in product(*[[q for q in range(1 << n) if q >> x & 1] for x in range(n)])
            for support in range(1 << n)
        ]
        families += [
            (n, {x: rng.randrange(1 << n) | 1 << x for x in range(n)}, rng.randrange(1 << n))
            for n in (4, 5, 6, 7)
            for _ in range(20)
        ]
        for n, constraints, support in families:
            closed = scclab.axioms._rel_add_counts(n, constraints, support)
            assert closed == units(n, constraints, support), (n, constraints, support)


def _ratio_cases():
    """(name, scc, the generating bundle's attribute carriers or None):
    every variant at n = 3..5, exact and float, unchanged and with one cell
    scaled or zeroed; both IIS forms run on every one of them."""
    rng = random.Random(4100)
    cases = []
    for index, (model, empty) in enumerate(ALL_VARIANTS):
        for n in (3, 4, 5):
            config = GenConfig(n, model, seed=4100 + 3 * index + n, empty_variant=empty)
            spec = sample_params(config)
            base = generate_scc(spec, Universe.default(n))
            for exact in (True, False):
                for factor in (None, rng.choice((1.5, 0.7, 0))):
                    rows = _copy_rows(base, exact)
                    if factor is not None:
                        wide = [m for m in sorted(rows) if len(rows[m]) > 1]
                        menu = rng.choice(wide or sorted(rows))
                        cell = rng.choice(sorted(rows[menu]))
                        rows[menu][cell] *= F(factor) if exact else factor
                    name = f"{model.value}{'_o' if empty else ''}-n{n}-{exact}-{factor}"
                    scc = SCC(base.universe, rows, base.allows_empty, exact)
                    cases.append((name, scc, _carriers_of(spec)))
    return cases


def _compared(scc, axiom, attributes):
    """Whether ``run_axiom`` must match the reference: wherever the axiom
    applies, POS2 with the generating bundle's carriers, and IIS_O on
    standard data too."""
    return AXIOMS[axiom].applies(scc, attributes) or axiom is AxiomId.IIS_O


def _reference_runs(cases, axioms):
    """(case, scc, axiom, cap, run_axiom's report, the reference's report,
    attribute carriers) for each (name, scc, carriers) of ``cases`` and each
    of ``axioms`` compared there, at caps 1 and 10; the reference runs once,
    its cap-1 report the cap-10 one cut to the first witness."""
    runs = []
    for name, scc, attributes in cases:
        for axiom in axioms:
            if not _compared(scc, axiom, attributes):
                continue
            reference = _reference(scc, axiom, cap=10, attributes=attributes)
            for cap in (1, 10):
                fast = run_axiom(scc, axiom, attributes=attributes, cap=cap)
                cut = replace(reference, witnesses=reference.witnesses[:cap])
                runs.append((name, scc, axiom, cap, fast, cut, attributes))
    return runs


@pytest.fixture(scope="module")
def ratio_runs():
    """Every axiom the reference decides, and the structural ones, on the
    ratio corpus."""
    return _reference_runs(_ratio_cases(), (*REFERENCE_AXIOMS, *STRUCTURAL_AXIOMS))


class TestRatioCertificates:
    def test_reports_match_the_reference(self, ratio_runs):
        for name, _, axiom, cap, fast, slow, _ in ratio_runs:
            case = (name, axiom, cap)
            assert fast.holds == slow.holds, case
            assert fast.witnesses == slow.witnesses, case
            assert fast.instances_checked == slow.instances_checked, case
            assert fast.instances_vacuous == slow.instances_vacuous, case
            assert fast == slow, case

    def test_witnesses_recheck(self, ratio_runs):
        for name, scc, axiom, _, fast, _, attributes in ratio_runs:
            for witness in fast.witnesses:
                assert recheck_witness(scc, witness, attributes=attributes), (name, witness)

    def test_counts_fill_the_closed_form_domain(self, ratio_runs):
        tested = set()
        for name, scc, axiom, _, fast, _, _ in ratio_runs:
            if axiom not in DOMAIN_AXIOMS:
                continue
            tested.add(axiom)
            domain = AXIOMS[axiom].domain(scc.universe.n, scc.allows_empty)
            assert fast.instances_checked + fast.instances_vacuous == domain, (name, axiom)
            if not REFERENCE_AXIOMS.get(axiom):
                continue
            # every collection of every menu positive, the empty one included
            # where allowed; IIS_O on a standard SCC leaves T' = empty vacuous
            full = all(
                len(row) == (1 << m.bit_count()) - (not scc.allows_empty)
                and all(p > 0 for p in row.values())
                for m, row in scc.rows.items()
            )
            if full and (scc.allows_empty or axiom is not AxiomId.IIS_O):
                assert fast.instances_vacuous == 0, (name, axiom)
        # the reference decides neither DISTINCT_Q nor SINGLETON
        assert tested == DOMAIN_AXIOMS - {AxiomId.DISTINCT_Q, AxiomId.SINGLETON}

    def test_float_rel_add_2_compares_its_sides(self):
        """Float nested logit at n = 5 under eps_eq = 1e-2, where the
        adjustment denominator reaches past 1: the scan compares the
        equation as its sides state it, not both sides times that
        denominator, so its report is the reference's and every witness
        rechecks."""
        spec = sample_params(GenConfig(5, ModelTag.NESTED_LOGIT, seed=8570))
        rows = _copy_rows(generate_scc(spec, Universe.default(5)), False)
        scc = SCC(Universe.default(5), rows, exact=False)
        revealed = cached_revealed_constraints(scc)
        grand = scc.rows[scc.universe.full_mask]
        assert sum(grand.get(q, 0) for q in revealed.values()) > 1
        tol = ToleranceConfig(eps_eq=1e-2)
        whole = _reference(scc, AxiomId.REL_ADD_2, tol, cap=10)
        assert not whole.holds
        for cap in (1, 10):
            report = run_axiom(scc, AxiomId.REL_ADD_2, tol, cap=cap)
            assert report == replace(whole, witnesses=whole.witnesses[:cap]), cap
            assert all(recheck_witness(scc, w, tol) for w in report.witnesses), cap

    def test_corpus_reaches_every_path(self, ratio_runs, unit_runs):
        for axiom in STRUCTURAL_AXIOMS:
            # every structural axiom holds somewhere and fails somewhere
            for exact in (True, False):
                verdicts = {
                    r.holds
                    for _, scc, ax, _, r, _, _ in ratio_runs
                    if ax is axiom and scc.exact is exact
                }
                assert verdicts == {True, False}, (axiom, exact)
        for axiom, unit in REFERENCE_AXIOMS.items():
            # every axiom fails somewhere, in each mode it is compared in
            for exact in (True, False):
                assert any(
                    not r.holds
                    for _, scc, ax, _, r, _, _ in ratio_runs
                    if ax is axiom and scc.exact is exact
                ), (axiom, exact)
            if not unit:
                continue
            for exact in (True, False):
                runs = [
                    (cap, fast)
                    for _, scc, ax, cap, fast, _, _ in ratio_runs
                    if ax is axiom and scc.exact is exact
                ]
                # the certificate settles "holds" with instances checked ...
                assert any(r.holds and r.instances_checked for _, r in runs), (axiom, exact)
                # ... fails, so the pair is scanned ...
                assert any(not r.holds for _, r in runs), (axiom, exact)
                # ... and at cap 1 a later failing unit is skipped
                assert any(
                    len({tuple(w.bindings[k] for k in unit) for w in r.witnesses}) > 1
                    for cap, r in runs
                    if cap == 10
                ), (axiom, exact)
            # in float mode the unit certificate itself settles "holds" and
            # refuses a unit that is then scanned, on the ratio corpus alone
            ratio = [run for run in unit_runs if not run[0].startswith("full-")]
            assert any(
                r.holds and r.instances_checked and certified
                for _, _, _, ax, _, r, certified, _, _ in ratio
                if ax is axiom
            ), axiom
            assert any(
                not r.holds and refused
                for _, _, _, ax, _, r, _, refused, _ in ratio
                if ax is axiom
            ), axiom


def _rel_add_2_document(grand):
    """A float SCC over {a, b, c}, parsed from its document, whose revealed
    constraint sets are Q(a) = {a, b}, Q(b) = {b} and Q(c) = {c}, so that
    REL_ADD_2 has one unit with instances, (S, x) = ({a, b, c}, a) with
    T = {b}, and whose grand row takes the literals ``grand`` on {a, b},
    {b} and {c}, beside fixed cells that bring its sum to 1."""
    rows = {
        "a": {"a": "1.0"},
        "b": {"b": "1.0"},
        "c": {"c": "1.0"},
        "ab": {"b": "1.0"},
        "ac": {"a": "0.5", "c": "0.5"},
        "bc": {"b": "0.5", "c": "0.5"},
        "abc": {"a": "0.3", "ac": "0.2", "bc": "0.2", "abc": "0.3", **grand},
    }
    menus = [
        {"menu": list(menu), "rows": [{"set": list(t), "p": p} for t, p in row.items()]}
        for menu, row in rows.items()
    ]
    return parse_scc({"items": ["a", "b", "c"], "allows_empty": False, "menus": menus})


class TestRelAdd2Support:
    """REL_ADD_2's adjustment denominator sums the positive mu(Q(y),X) of
    the positivity table over y in S, so the unit whose menu meets no such
    y is vacuous, and the check, its closed-form counts, its sides and the
    reference agree on float cells near the support threshold.  The other
    units' 11 instances are vacuous, as their T is empty."""

    UNIT = {"S": 0b111, "x": 0b001, "T": 0b010}

    def test_zero_support_cells_adding_past_eps_zero_are_vacuous(self):
        """Q(a) and Q(b) at 8e-13 each, whose sum passes EPS_ZERO, and Q(c)
        unrecorded: no Q(y) is positive, so the unit's two instances are
        vacuous, and no witness at them rechecks."""
        scc = _rel_add_2_document({"ab": "8e-13", "b": "8e-13"})
        assert cached_revealed_constraints(scc) == {0: AB, 1: B, 2: C}
        assert is_positive(scc, 8e-13 + 8e-13)
        for cap in (1, 10):
            report = run_axiom(scc, AxiomId.REL_ADD_2, cap=cap)
            assert report == _reference(scc, AxiomId.REL_ADD_2, cap=cap), cap
            assert report.holds and report.instances_checked == 0
            assert report.instances_vacuous == 13
        for t2 in (C, BC):
            forged = Witness(AxiomId.REL_ADD_2, {**self.UNIT, "T_prime": t2}, 0.0, 1.0)
            assert not recheck_witness(scc, forged), t2

    def test_a_positive_cell_beside_negative_ones_is_checked(self):
        """Q(b) at 2e-12 beside Q(a) and Q(c) at -1e-12, which sum to 0.0:
        the denominator is 2e-12, so the unit is checked, its adjustment
        divides by no zero, and both instances fail and recheck."""
        scc = _rel_add_2_document({"ab": "-1e-12", "b": "2e-12", "c": "-1e-12"})
        assert cached_revealed_constraints(scc) == {0: AB, 1: B, 2: C}
        assert -1e-12 + 2e-12 + -1e-12 == 0.0
        for cap in (1, 10):
            report = run_axiom(scc, AxiomId.REL_ADD_2, cap=cap)
            assert report == _reference(scc, AxiomId.REL_ADD_2, cap=cap), cap
            assert report.instances_checked == 2 and report.instances_vacuous == 11
            assert [w.bindings["T_prime"] for w in report.witnesses] == [C, BC][:cap]
            assert all(recheck_witness(scc, w) for w in report.witnesses), cap


#: Literals of zero-support cells, per exact mode: the last two floats are
#: positive, but below the support threshold.
ZERO_LITERALS = {True: ("0", "0/3", "-0"), False: ("0.0", "-0.0", "1e-13", "1e-300")}


def _recorded_zero_cases():
    """(name, scc, carriers): every variant at n = 4, exact and float,
    parsed from its document with a zero-support cell, the literals of
    ZERO_LITERALS in turn, on each collection the document does not record
    (the empty one only on empty-collection data)."""
    universe = Universe.default(4)
    cases = []
    for index, (model, empty) in enumerate(ALL_VARIANTS):
        spec = sample_params(GenConfig(4, model, seed=7400 + index, empty_variant=empty))
        base = generate_scc(spec, universe)
        for exact in (True, False):
            document = scc_to_document(SCC(universe, _copy_rows(base, exact), empty, exact))
            literals = cycle(ZERO_LITERALS[exact])
            for entry in document["menus"]:
                menu = universe.mask_of(entry["menu"])
                recorded = {universe.mask_of(cell["set"]) for cell in entry["rows"]}
                for t in submasks(menu) if empty else nonempty_submasks(menu):
                    if t not in recorded:
                        cell = {"set": list(universe.labels_of(t)), "p": next(literals)}
                        entry["rows"].append(cell)
            name = f"{model.value}{'_o' if empty else ''}-n4-{exact}"
            cases.append((name, parse_scc(document), _carriers_of(spec)))
    return cases


#: The tolerances the recorded-zero corpus is decided at, per exact mode.
ZERO_CELL_TOLS = {
    True: (DEFAULT_TOL,),
    False: (DEFAULT_TOL, ToleranceConfig(eps_eq=1e-6), ToleranceConfig(eps_eq=1e-2)),
}


@pytest.fixture(scope="module")
def recorded_zero_runs():
    """(case, scc, tol, cap, run_axiom's report, the reference's report,
    carriers): every equation axiom the reference decides, at each of
    ZERO_CELL_TOLS, and the structural ones, on the recorded-zero corpus,
    at caps 1 and 10."""
    runs = []
    for name, scc, carriers in _recorded_zero_cases():
        for tol in ZERO_CELL_TOLS[scc.exact]:
            axioms = [*REFERENCE_AXIOMS, *(STRUCTURAL_AXIOMS if tol is DEFAULT_TOL else ())]
            for axiom in axioms:
                if not _compared(scc, axiom, carriers):
                    continue
                whole = _reference(scc, axiom, tol, cap=10, attributes=carriers)
                for cap in (1, 10):
                    fast = run_axiom(scc, axiom, tol, attributes=carriers, cap=cap)
                    cut = replace(whole, witnesses=whole.witnesses[:cap])
                    runs.append((name, scc, tol, cap, fast, cut, carriers))
    return runs


class TestRecordedZeroCells:
    """Zero-support cells that a document records, read through the scans."""

    def test_reports_match_the_reference(self, recorded_zero_runs):
        for name, _, tol, cap, fast, slow, _ in recorded_zero_runs:
            case = (name, fast.axiom, tol.eps_eq, cap)
            assert fast.holds == slow.holds, case
            assert fast.witnesses == slow.witnesses, case
            assert fast.instances_checked == slow.instances_checked, case
            assert fast.instances_vacuous == slow.instances_vacuous, case
            assert fast == slow, case

    def test_witnesses_recheck(self, recorded_zero_runs):
        for name, scc, tol, _, fast, _, carriers in recorded_zero_runs:
            for witness in fast.witnesses:
                assert recheck_witness(scc, witness, tol, carriers), (name, witness)

    def test_corpus_records_every_literal_and_fails_somewhere(self, recorded_zero_runs):
        """Each literal of ZERO_LITERALS is recorded in the rows the scans
        read, and in each mode some equation axiom fails."""
        cases = {id(scc): scc for _, scc, *_ in recorded_zero_runs}
        for exact in (True, False):
            zeros = {
                repr(p)
                for scc in cases.values()
                if scc.exact is exact
                for row in cached_scaled_rows(scc)[0].values()
                for p in row.values()
                if not is_positive(scc, p)
            }
            assert zeros == ({"0"} if exact else {"0.0", "-0.0", "1e-13", "1e-300"}), exact
            assert any(
                not fast.holds and fast.axiom in REFERENCE_AXIOMS
                for _, scc, _, _, fast, _, _ in recorded_zero_runs
                if scc.exact is exact
            ), exact


#: The variants that draw a weighted set and choose its trace on the menu,
#: whose rows are sparse, each with a seed at n = 6 where IIS and PIIS hold
#: with instances checked (rcg, rrm, nsc, nested_logit) or fail on several
#: pairs of collections (rcg_o, eba, ar).
SET_DRAWS = {
    (ModelTag.RCG, False): 6114,
    (ModelTag.RCG, True): 6102,
    (ModelTag.EBA, False): 6126,
    (ModelTag.AR, False): 6105,
    (ModelTag.RRM, False): 6128,
    (ModelTag.NSC, False): 6104,
    (ModelTag.NESTED_LOGIT, False): 6102,
}


def _sparse_cases():
    """(name, scc): each set-draw variant at n = 6, exact and float, as
    sampled and with one cell scaled or zeroed."""
    rng = random.Random(6100)
    cases = []
    for (model, empty), seed in SET_DRAWS.items():
        config = GenConfig(6, model, seed=seed, empty_variant=empty)
        base = generate_scc(sample_params(config), Universe.default(6))
        for exact in (True, False):
            for factor in (None, rng.choice((1.5, 0.7, 0))):
                rows = _copy_rows(base, exact)
                if factor is not None:
                    menu = rng.choice([m for m in sorted(rows) if len(rows[m]) > 1])
                    cell = rng.choice(sorted(rows[menu]))
                    rows[menu][cell] *= F(factor) if exact else factor
                name = f"{model.value}{'_o' if empty else ''}-n6-{exact}-{factor}"
                cases.append((name, SCC(base.universe, rows, base.allows_empty, exact)))
    return cases


def _menu_major_piis(scc, tol, cap):
    """PIIS with stage 1 scanned menu by menu, as its docstring states it:
    each pair of a menu's positive collections against the pair's first
    menu, then the vacuous pairs from their definition and the module's
    stages 2 and 3 on the first menus' ratios.  The oracle for stage 1 on
    the co-occurrence index, where the grand-row certificate fails."""
    out = scclab.axioms._Collector(scc, AxiomId.PIIS, cap)
    pos = scclab.axioms._positive_rows(scc)
    checked, edges, conflicts = 0, {}, []
    for s in scc.menus():
        for (a, pa), (b, pb) in combinations(sorted(pos[s].items()), 2):
            if (a, b) not in edges:
                edges[a, b] = (pa, pb, s)
                continue
            pa0, pb0, s0 = edges[a, b]
            checked += 1
            if not probs_equal(scc, pa * pb0, pb * pa0, tol):
                conflicts.append(_chain_bindings(a, b, (b, s0, s0), (b, s, s)))
    out.extend(conflicts)
    colls = sorted({t for row in pos.values() for t in row})
    near = _graph(colls, edges)
    # the module's ratio table, num[a][b], den[a][b] and menu[a][b], from edges
    table = tuple({t: {} for t in colls} for _ in range(3))
    for a in colls:
        for b in near[a]:
            for part, value in zip(table, _edge(edges, a, b)):
                part[a][b] = value
    vacuous = sum(
        1
        for t in colls
        for t2 in colls
        if t != t2 and t2 not in near[t] and not near[t] & near[t2]
    )
    if not out.witnesses and scc.exact:
        fits, compared = scclab.axioms._fit_potential(colls, edges, table)
        checked += compared
        if fits:
            return out.report(checked, vacuous)
    if not out.witnesses:
        checked += scclab.axioms._chain_scan(scc, tol, out, colls, near, table)
    return out.report(checked, vacuous)


def _index_sizes(scc):
    """(the co-occurrence index's entries, sum_S C(k_S,2); the menu pairs).
    The SCC's memo keeps the index only where the first is no larger."""
    pos = scclab.axioms._positive_rows(scc)
    return sum(math.comb(len(row), 2) for row in pos.values()), math.comb(len(scc.rows), 2)


def _singleton_rcg_o(n, exact):
    """rcg_o on n items with one singleton category per item, item i of mass
    (i+1)/(n(n+1)/2): the empty collection is positive in every menu but the
    grand set, as an outside option that most menus give mass to."""
    total = n * (n + 1) // 2
    mass = {1 << i: F(i + 1, total) if exact else (i + 1) / total for i in range(n)}
    spec = ModelSpec(ModelTag.RCG, RCGParams(mass), empty_variant=True)
    return generate_scc(spec, Universe.default(n))


def _unweighted_abc_logit_o(exact):
    """logit_o at n = 5 (seed 905) with the weight of {a,b,c} set to 0: its
    cell dropped from every menu that holds it and those rows renormalised."""
    spec = sample_params(GenConfig(5, ModelTag.LOGIT, seed=905, empty_variant=True))
    base = generate_scc(spec, Universe.default(5))
    rows = _copy_rows(base, exact)
    for menu, row in rows.items():
        if row.pop(ABC, None) is not None:
            total = sum(row.values())
            rows[menu] = {t: p / total for t, p in row.items()}
    return SCC(base.universe, rows, allows_empty=True, exact=exact)


def _iis_o_cases():
    """(name, scc): the empty-collection cases that only IIS_O reads, exact
    and float: the singleton rcg_o at n = 5-7, which fails, and the logit_o
    without {a,b,c}, which holds though the grand-row certificate refuses."""
    cases = []
    for exact in (True, False):
        cases += [(f"singleton-rcg_o-n{n}-{exact}", _singleton_rcg_o(n, exact)) for n in (5, 6, 7)]
        cases.append((f"logit_o-no-abc-{exact}", _unweighted_abc_logit_o(exact)))
    return cases


@pytest.fixture(scope="module")
def sparse_runs():
    """(case, scc, axiom, cap, run_axiom's report, the oracle's report): IIS
    against the reference and PIIS against the menu-major scan on the sparse
    corpus, and IIS_O against the reference on its empty-collection cases,
    its unchanged exact standard ones and :func:`_iis_o_cases`, at caps 1
    and 10."""
    runs, cases = [], []
    for name, scc in _sparse_cases():
        axioms = [AxiomId.IIS, AxiomId.PIIS]
        if scc.allows_empty or scc.exact and name.endswith("None"):
            axioms.append(AxiomId.IIS_O)
        cases.append((name, scc, axioms))
    cases += [(name, scc, [AxiomId.IIS_O]) for name, scc in _iis_o_cases()]
    for name, scc, axioms in cases:
        assert not _grand_row(scc, DEFAULT_TOL).proportional, name
        for axiom in axioms:
            whole = None if axiom is AxiomId.PIIS else _reference(scc, axiom, cap=10)
            for cap in (1, 10):
                slow = (
                    _menu_major_piis(scc, DEFAULT_TOL, cap)
                    if whole is None
                    else replace(whole, witnesses=whole.witnesses[:cap])
                )
                runs.append((name, scc, axiom, cap, run_axiom(scc, axiom, cap=cap), slow))
    return runs


def _zeroed_logit(n, seed, size, cell=min):
    """Exact logit at n items with one cell of the first menu of ``size``
    items dropped, ``cell`` of its collections, and that row renormalised."""
    spec = sample_params(GenConfig(n, ModelTag.LOGIT, seed=seed))
    base = generate_scc(spec, Universe.default(n))
    rows = _copy_rows(base, True)
    menu = next(m for m in sorted(rows) if m.bit_count() == size)
    del rows[menu][cell(rows[menu])]
    total = sum(rows[menu].values())
    rows[menu] = {t: p / total for t, p in rows[menu].items()}
    return SCC(base.universe, rows, exact=True)


def _count_table_reads(monkeypatch, scc):
    """The menus whose row of the positivity table is read from here on,
    in order, as a list that fills as the scans run."""
    reads = []

    class Counted(dict):
        def __getitem__(self, menu):
            reads.append(menu)
            return super().__getitem__(menu)

    table = Counted(scclab.axioms._positive_rows(scc))
    monkeypatch.setattr(scclab.axioms, "_positive_rows", lambda _: table)
    return reads


class TestCooccurrenceIndex:
    """IIS and PIIS stage 1 on the co-occurrence index, and IIS_O's per-menu
    tally of the later menus that share a positive collection."""

    def test_reports_match_the_oracle(self, sparse_runs):
        for name, _, axiom, cap, fast, slow in sparse_runs:
            case = (name, axiom, cap)
            assert fast.holds == slow.holds, case
            assert fast.witnesses == slow.witnesses, case
            assert fast.instances_checked == slow.instances_checked, case
            assert fast.instances_vacuous == slow.instances_vacuous, case
            assert fast == slow, case

    def test_witnesses_recheck(self, sparse_runs):
        for name, scc, _, _, fast, _ in sparse_runs:
            for witness in fast.witnesses:
                assert recheck_witness(scc, witness), (name, witness)

    def test_corpus_reaches_every_path(self, sparse_runs):
        for axiom in (AxiomId.IIS, AxiomId.IIS_O, AxiomId.PIIS):
            for exact in (True, False):
                runs = [
                    (cap, r)
                    for _, scc, ax, cap, r, _ in sparse_runs
                    if ax is axiom and scc.exact is exact
                ]
                if axiom is not AxiomId.IIS_O:
                    assert any(r.holds and r.instances_checked for _, r in runs), (axiom, exact)
                # at cap 1 a later failing pair of collections is skipped
                assert any(
                    len({(w.bindings["T"], w.bindings["T_prime"]) for w in r.witnesses}) > 1
                    for cap, r in runs
                    if cap == 10
                ), (axiom, exact)

    def test_iis_o_draws_t_from_every_recorded_cell(self):
        # mu({b},{a,b}) = 1e-13 is recorded but not positive, and {b} is absent
        # from {a,b,c}; under a tolerance below it, T = {b} against T' = {a}
        # breaks the equation, so T is drawn from the recorded cells
        spec = sample_params(GenConfig(3, ModelTag.LOGIT, seed=6200, empty_variant=True))
        rows = _copy_rows(generate_scc(spec, U3), False)
        rows[AB][B] = 1e-13
        del rows[ABC][B]
        scc = SCC(U3, rows, allows_empty=True, exact=False)
        tol = ToleranceConfig(eps_eq=1e-20)
        report = check_iis(scc, tol, empty_variant=True)
        assert report == _reference(scc, AxiomId.IIS_O, tol)
        assert {"T": B, "T_prime": A, "S": AB, "S_prime": ABC} in [
            w.bindings for w in report.witnesses
        ]

    def test_iis_visits_no_menu_pair_outside_the_index(self, monkeypatch):
        # exact rcg at n = 8: 2,873 index entries against 32,385 menu pairs
        spec = sample_params(GenConfig(8, ModelTag.RCG, seed=908))
        scc = generate_scc(spec, Universe.default(8))
        assert _index_sizes(scc) == (2873, 32385)
        _grand_row(scc, DEFAULT_TOL)
        reads = _count_table_reads(monkeypatch, scc)
        products = []
        for name in ("__mul__", "__rmul__", "__truediv__", "__rtruediv__"):

            def counted(a, b, _original=getattr(F, name)):
                products.append(a)
                return _original(a, b)

            monkeypatch.setattr(F, name, counted)
        report = check_iis(scc, cap=10)
        assert not report.holds and len(report.witnesses) == 10
        assert report.instances_checked == 17766
        # the index reads each menu's positive cells once, and nothing else does
        assert reads == scc.menus()
        # the comparisons multiply ints: only the witnesses' two sides are Fractions
        assert len(products) == 2 * len(report.witnesses)

    def test_iis_o_corpus_covers_an_outside_option_and_a_refused_certificate(
        self, sparse_runs
    ):
        reports = {
            (name, cap): fast
            for name, _, axiom, cap, fast, _ in sparse_runs
            if axiom is AxiomId.IIS_O
        }
        for exact in (True, False):
            # the empty collection is positive in 30 of the 31 menus at n = 5
            scc = _singleton_rcg_o(5, exact)
            assert sum(0 in row for row in scclab.axioms._positive_rows(scc).values()) == 30
            for n in (5, 6, 7):
                report = reports[f"singleton-rcg_o-n{n}-{exact}", 10]
                assert not report.holds and len(report.witnesses) == 10, (n, exact)
            report = reports[f"logit_o-no-abc-{exact}", 10]
            assert report.holds, exact
            assert (report.instances_checked, report.instances_vacuous) == (5342, 58), exact

    def test_iis_o_visits_only_the_menu_pairs_that_share_a_collection(self, monkeypatch):
        # exact rcg_o at n = 7: 6,641 of the 8,001 menu pairs share a positive
        # collection, and the others have nothing guarded
        spec = sample_params(GenConfig(7, ModelTag.RCG, seed=907, empty_variant=True))
        scc = generate_scc(spec, Universe.default(7))
        pos = scclab.axioms._positive_rows(scc)
        sharing = [
            (s, s2) for s, s2 in combinations(scc.menus(), 2) if pos[s].keys() & pos[s2].keys()
        ]
        assert len(sharing) == 6641
        _grand_row(scc, DEFAULT_TOL)
        reads = _count_table_reads(monkeypatch, scc)
        report = check_iis(scc, empty_variant=True)
        assert not report.holds and report.instances_checked == 59394
        # the cap fills at menu {a}, after six pairs that _proportional refuses
        compared = [(A, AB), (A, AC), (A, ABC), (A, 9), (A, 11), (A, 17)]
        witnessed = [(w.bindings["S"], w.bindings["S_prime"]) for w in report.witnesses]
        assert list(dict.fromkeys(witnessed)) == compared
        # one read per menu to list each collection's menus, one per menu for
        # its tally, and two per pair compared while the cap is open
        menus = scc.menus()
        pairs = [menu for pair in compared for menu in pair]
        assert reads == menus[::-1] + [A] + pairs + menus[1:]

    def test_a_dense_index_is_dropped_after_each_check(self):
        # exact logit at n = 7 with one cell of a 6-item menu zeroed: the
        # certificate refuses it, and its index, 35,848 entries against 8,001
        # menu pairs, is built for each check and not kept in the memo
        scc = _zeroed_logit(7, 907, 6)
        assert _index_sizes(scc) == (35848, 8001)
        assert not _grand_row(scc, DEFAULT_TOL).proportional
        scclab.axioms.cached_scaled_rows(scc)
        for check in (check_iis, check_piis):
            tracemalloc.start()
            try:
                report = check(scc)
                held, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert report.holds and report.instances_checked, check
            assert held < peak / 10, (check, held, peak)

    def test_iis_o_builds_nothing_per_menu_pair(self):
        # the singleton rcg_o at n = 8: 255 menus and 1,278 positive cells,
        # where the empty collection alone is shared by 32,131 menu pairs
        scc = _singleton_rcg_o(8, True)
        assert sum(map(len, scclab.axioms._positive_rows(scc).values())) == 1278
        _grand_row(scc, DEFAULT_TOL)
        tracemalloc.start()
        try:
            report = check_iis(scc, empty_variant=True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert not report.holds and report.instances_checked == 695822
        assert peak < 256 * 1024, peak


def _moved_mass(scc):
    """(copy, menu): exact ``scc`` with half of the second positive
    non-empty cell of its last menu of n - 1 items that has two moved to
    the first, so that the row still sums to 1."""
    rows = _copy_rows(scc, True)
    size = scc.universe.n - 1
    menu = next(
        m
        for m in sorted(rows, reverse=True)
        if m.bit_count() == size and len(rows[m].keys() - {0}) > 1
    )
    first, second = [t for t in sorted(rows[menu]) if t][:2]
    rows[menu][first] += rows[menu][second] / 2
    rows[menu][second] /= 2
    return SCC(scc.universe, rows, scc.allows_empty, exact=True), menu


def _marginal(scc, s):
    """The grand row's marginal on menu S from its definition: G_S(T), the
    sum of mu(D, X) over the D with D n S = T, for each non-empty T."""
    marginal = {}
    for d, p in scc.rows[scc.universe.full_mask].items():
        if d & s:
            marginal[d & s] = marginal.get(d & s, 0) + p
    return marginal


#: The noise of the marginal certificate's noisy float copies: at the
#: default tolerance, the first leaves copies of random-choice-set data
#: within the certificate's limit, 1 + eps_eq/8, and the second puts most
#: of them beyond it.
MARGINAL_NOISE = (1e-12, 1e-10)


def _noisy(scc, sigma, rng):
    """A float copy of ``scc`` with each cell scaled by 1 + N(0, sigma) and
    each row renormalised."""
    rows = {}
    for menu, row in scc.rows.items():
        noisy = {t: p * (1 + rng.gauss(0, sigma)) for t, p in row.items()}
        total = sum(noisy.values())
        rows[menu] = {t: p / total for t, p in noisy.items()}
    return SCC(scc.universe, rows, scc.allows_empty, exact=False)


def _marginal_cases():
    """(name, scc, moved menu or None): the cases of the ratio and sparse
    corpora, exact and float, a moved-mass copy (:func:`_moved_mass`) of
    each unperturbed exact sparse one, and a noisy copy (:func:`_noisy`) of
    each unperturbed float one at each sigma of MARGINAL_NOISE."""
    cases = [(name, scc, None) for name, scc, _ in _ratio_cases()]
    for name, scc in _sparse_cases():
        cases.append((name, scc, None))
        if scc.exact and name.endswith("None"):
            cases.append((f"{name}-moved", *_moved_mass(scc)))
    rng = random.Random(5400)
    for name, scc, _ in list(cases):
        if not scc.exact and name.endswith("None"):
            for sigma in MARGINAL_NOISE:
                cases.append((f"{name}-noise{sigma}", _noisy(scc, sigma, rng), None))
    return cases


@pytest.fixture(scope="module")
def marginal_runs():
    """(case, scc, moved menu, certified, axiom, cap, report, refused,
    reference): REL_ADD and REL_ADD_1 through ``run_axiom``, the same with
    the marginal certificate patched to refuse, and the reference, on
    :func:`_marginal_cases` at caps 1 and 10, at the default tolerance."""
    runs = []
    for name, scc, moved in _marginal_cases():
        certified = scclab.axioms._marginal_certificate(scc, DEFAULT_TOL)
        for axiom in (AxiomId.REL_ADD, AxiomId.REL_ADD_1):
            whole = _reference(scc, axiom, cap=10)
            for cap in (1, 10):
                report = run_axiom(scc, axiom, cap=cap)
                with pytest.MonkeyPatch.context() as patch:
                    patch.setattr(scclab.axioms, "_marginal_certificate", lambda *_: False)
                    refused = run_axiom(scc, axiom, cap=cap)
                reference = replace(whole, witnesses=whole.witnesses[:cap])
                runs.append((name, scc, moved, certified, axiom, cap, report, refused, reference))
    return runs


class TestMarginalCertificate:
    """REL_ADD and REL_ADD_1 settled by the grand row's marginals, in exact
    and float mode, and the per-unit scan where they refuse."""

    def test_reports_match_the_reference(self, marginal_runs):
        for name, _, _, _, axiom, cap, report, refused, reference in marginal_runs:
            case = (name, axiom, cap)
            assert refused == reference, case
            assert report == reference, case

    def test_corpus_reaches_both_sides(self, marginal_runs):
        for axiom in (AxiomId.REL_ADD, AxiomId.REL_ADD_1):
            for sparse in (True, False):
                verdicts = {
                    (certified, report.holds)
                    for name, scc, _, certified, ax, _, report, _, _ in marginal_runs
                    if ax is axiom and ("-n6-" in name) is sparse and scc.exact
                }
                # certified data holds, and refused data reaches the scan
                assert {(True, True), (False, False)} <= verdicts, (axiom, sparse)
                # REL_ADD_1 holds unit by unit on rrm data, which it refuses
                assert ((False, True) in verdicts) is (axiom is AxiomId.REL_ADD_1), (axiom, sparse)

    def test_moved_mass_is_refused_at_its_menu(self, marginal_runs, monkeypatch):
        certified = {name: ok for name, _, _, ok, *_ in marginal_runs}
        moved = {name: (scc, menu) for name, scc, menu, *_ in marginal_runs if menu}
        assert len(moved) == len(SET_DRAWS)
        refused = 0
        for name, (scc, menu) in moved.items():
            if not certified[name.removesuffix("-moved")]:
                continue
            with monkeypatch.context() as patch:
                reads = _count_table_reads(patch, scc)
                assert not scclab.axioms._decide_marginals(scc, DEFAULT_TOL), name
            # the walk stops at the menu whose row no longer fits its marginal
            assert reads[-1] == menu, name
            refused += 1
        assert refused == 4  # rcg, rcg_o, eba and ar

    def test_float_copies_are_certified_where_exact_ones_are(self):
        verdicts = {}
        for name, scc in _sparse_cases():
            if name.endswith("None"):
                certified = scclab.axioms._marginal_certificate(scc, DEFAULT_TOL)
                verdicts.setdefault(name.split("-")[0], set()).add((scc.exact, certified))
        assert verdicts == {
            **{model: {(True, True), (False, True)} for model in ("rcg", "rcg_o", "eba", "ar")},
            **{model: {(True, False), (False, False)} for model in ("rrm", "nsc", "nested_logit")},
        }

    def test_noise_reaches_both_sides_of_the_limit(self, marginal_runs):
        """Among the noisy copies of float data that the certificate
        settles, the small noise keeps copies within its limit, and the
        large noise keeps a few there and puts the rest beyond it, where
        the scan decides."""
        certified = {name: ok for name, _, _, ok, *_ in marginal_runs}
        verdicts = {}
        for sigma in MARGINAL_NOISE:
            suffix = f"-noise{sigma}"
            verdicts[sigma] = {
                ok
                for name, ok in certified.items()
                if name.endswith(suffix) and certified[name.removesuffix(suffix)]
            }
        small, large = MARGINAL_NOISE
        assert True in verdicts[small] and verdicts[large] == {True, False}

    def test_certificate_is_kept_per_tolerance(self, monkeypatch):
        """Float ic data is certified at eps_eq 1e-9; at 1e-16, where no
        unit limit exists, the same SCC's walk refuses, and the reports are
        the scan's."""
        base = generate_scc(sample_params(GenConfig(5, ModelTag.IC, seed=5405)), Universe.default(5))
        scc = SCC(base.universe, _copy_rows(base, False), exact=False)
        loose, tight = ToleranceConfig(eps_eq=1e-9), ToleranceConfig(eps_eq=1e-16)
        assert scclab.axioms._unit_limit(tight.eps_eq) == 0.0
        assert scclab.axioms._marginal_certificate(scc, loose)
        assert not scclab.axioms._marginal_certificate(scc, tight)
        for axiom in (AxiomId.REL_ADD, AxiomId.REL_ADD_1):
            report = run_axiom(scc, axiom, tight)
            with monkeypatch.context() as patch:
                patch.setattr(scclab.axioms, "_marginal_certificate", lambda *_: False)
                assert report == run_axiom(scc, axiom, tight), axiom

    @pytest.mark.parametrize("cell", ["5e-13", "0.0", "-5e-13"])
    def test_walk_reads_the_cells_the_scan_compares(self, cell):
        """A float cell at or below EPS_ZERO, which the positivity table
        drops, recorded at {a,b} in row {a,b}, where the grand row's
        marginal is zero: the walk refuses wherever the cell is not 0.0,
        and at eps_eq 2e-13 the scan finds it against mu({a},{a,b,c})."""
        document = {
            "items": ["a", "b", "c"],
            "menus": [
                {"menu": list(menu), "rows": [{"set": list(t), "p": p} for t, p in cells]}
                for menu, cells in [
                    ("a", [("a", "1.0")]),
                    ("b", [("b", "1.0")]),
                    ("c", [("c", "1.0")]),
                    ("ab", [("a", "0.8571428571428571"), ("b", "0.14285714285714285"), ("ab", cell)]),
                    ("ac", [("a", "0.8571428571428571"), ("c", "0.14285714285714285")]),
                    ("bc", [("b", "0.5"), ("c", "0.5")]),
                    ("abc", [("a", "0.75"), ("b", "0.125"), ("c", "0.125")]),
                ]
            ],
        }
        scc = parse_scc(document)
        assert scclab.axioms._positive_rows(scc)[AB].keys() == {A, B}
        for tol in (DEFAULT_TOL, ToleranceConfig(eps_eq=2e-13)):
            certified = scclab.axioms._marginal_certificate(scc, tol)
            assert certified is (cell == "0.0"), tol
            for axiom in (AxiomId.REL_ADD, AxiomId.REL_ADD_1):
                whole = _reference(scc, axiom, tol, cap=10)
                assert whole.holds is (certified or tol is DEFAULT_TOL), (tol, axiom)
                for cap in (1, 10):
                    report = run_axiom(scc, axiom, tol, cap=cap)
                    assert report == replace(whole, witnesses=whole.witnesses[:cap])

    def test_a_vanishing_marginal_under_a_positive_row_is_refused(self):
        """Over {a, b, c, d}, the grand row chooses {a}, so the marginals on
        the menus without a vanish on every non-empty collection.  Those
        rows choose the empty collection, but {b, c} and {b, c, d} choose
        {b} and {c} in different ratios, which breaks REL_ADD at
        ({b, c, d}, d).  Every row is rank one against its marginal, so the
        guard alone refuses."""
        a, b, c, d = 1, 2, 4, 8
        half, quarter = F(1, 2), F(1, 4)
        rows = {s: {a: F(1)} if s & a else {0: F(1)} for s in range(1, 16)}
        rows[b | c] = {b: half, c: half}
        rows[b | c | d] = {b: quarter, c: 3 * quarter}
        scc = SCC(Universe.default(4), rows, allows_empty=True)
        for s in scc.menus():
            marginal = _marginal(scc, s)
            subs = sorted(marginal.keys() | rows[s].keys() - {0})
            us = [marginal.get(t, 0) for t in subs]
            vs = [rows[s].get(t, 0) for t in subs]
            assert scclab.axioms._proportional(scc, us, vs, DEFAULT_TOL), s
        assert not _marginal(scc, b | c) and not _marginal(scc, b | c | d)
        assert not scclab.axioms._marginal_certificate(scc, DEFAULT_TOL)
        report = check_relative_additivity(scc)
        assert report == _reference(scc, AxiomId.REL_ADD)
        assert [w.bindings for w in report.witnesses] == [
            {"S": b | c | d, "x": d, "T": b, "T_prime": c}
        ]
        # a vanishing marginal under a row on the empty collection alone is
        # the multiple 0, so with those two rows there the certificate holds
        rows[b | c] = rows[b | c | d] = {0: F(1)}
        scc = SCC(Universe.default(4), rows, allows_empty=True)
        assert scclab.axioms._marginal_certificate(scc, DEFAULT_TOL)
        assert check_relative_additivity(scc) == _reference(scc, AxiomId.REL_ADD)

    def test_walk_reads_each_menu_once(self, monkeypatch):
        """The walk reads the grand row for its marginal, then reaches each
        menu once from the grand set, on certified data, where it visits
        them all."""
        spec = sample_params(GenConfig(6, ModelTag.RCG, seed=SET_DRAWS[ModelTag.RCG, False]))
        scc = generate_scc(spec, Universe.default(6))
        reads = _count_table_reads(monkeypatch, scc)
        assert scclab.axioms._decide_marginals(scc, DEFAULT_TOL)
        assert reads[:2] == [scc.universe.full_mask] * 2
        assert sorted(reads[1:]) == scc.menus()

    def test_walk_keeps_one_chain_of_marginals(self):
        """Exact ic at n = 9: the walk's peak stays below a quarter of the
        memory of the scaled rows' dicts alone, without their values."""
        scc = generate_scc(sample_params(GenConfig(9, ModelTag.IC, seed=909)), Universe.default(9))
        rows = cached_scaled_rows(scc)[0]
        scclab.axioms._positive_rows(scc)
        tracemalloc.start()
        try:
            copied = {menu: dict(row) for menu, row in rows.items()}
            size, _ = tracemalloc.get_traced_memory()
            del copied
            tracemalloc.reset_peak()
            base, _ = tracemalloc.get_traced_memory()
            assert scclab.axioms._decide_marginals(scc, DEFAULT_TOL)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - base < size / 4, (peak - base, size)

    def test_certified_rows_fit_their_marginals(self, marginal_runs):
        """Where the certificate holds, each menu's row is a multiple of
        the grand row's marginal on it, as :func:`_marginal` defines it."""
        certified = {name: scc for name, scc, _, ok, *_ in marginal_runs if ok and scc.exact}
        assert certified
        for name, scc in certified.items():
            for s in scc.menus():
                marginal = _marginal(scc, s)
                row = {t: p for t, p in scc.rows[s].items() if t and p}
                if not row:
                    continue
                scale = sum(row.values()) / sum(marginal.values())
                assert row == {t: g * scale for t, g in marginal.items()}, (name, s)


def _cooccurrence_graph(scc):
    """PIIS's support collections and their neighbours in the co-occurrence
    graph, as check_piis builds them."""
    pos = scclab.axioms._positive_rows(scc)
    colls = sorted({c for row in pos.values() for c in row})
    neighbors = {c: set() for c in colls}
    for a, b in scclab.axioms._cooccurrence(scc):
        neighbors[a].add(b)
        neighbors[b].add(a)
    return colls, neighbors


def _pairwise_distant(colls, neighbors):
    """The pairs of collections neither adjacent nor with a common neighbour,
    each pair tested with one set intersection."""
    return sum(
        1
        for i, t in enumerate(colls)
        for t2 in colls[i + 1 :]
        if t2 not in neighbors[t] and not neighbors[t] & neighbors[t2]
    )


class TestDistantPairs:
    """PIIS's vacuous count on neighbour bitsets against the pairwise test."""

    def test_bitsets_count_the_pairwise_test(self):
        # the sparse corpus, rrm and nsc data with distant pairs, and dense
        # data with one cell zeroed: in a 7-item menu, where the grand row
        # makes every pair adjacent, or the largest proper collection of the
        # grand row, so that half the collections miss one neighbour
        cases = [scc for _, scc in _sparse_cases()]
        for model, n in ((ModelTag.RRM, 7), (ModelTag.NSC, 6)):
            spec = sample_params(GenConfig(n, model, seed=900 + n))
            cases.append(generate_scc(spec, Universe.default(n)))
        cases += [_zeroed_logit(8, 908, 7), _zeroed_logit(6, 906, 6, cell=lambda row: 62)]
        counts = []
        for scc in cases:
            colls, neighbors = _cooccurrence_graph(scc)
            count = scclab.axioms._distant_pairs(colls, neighbors)
            assert count == _pairwise_distant(colls, neighbors)
            counts.append(count)
        assert any(counts) and not all(counts)

    def test_dense_data_reads_no_neighbour_set_for_its_bitsets(self):
        # every pair adjacent: each collection's bitset is everyone but
        # itself, and its scan reads at most one neighbour before it stops
        colls, neighbors = _cooccurrence_graph(_zeroed_logit(8, 908, 7))
        read = []

        class Counted(set):
            def __iter__(self):
                for item in set.__iter__(self):
                    read.append(item)
                    yield item

        counted = {c: Counted(ns) for c, ns in neighbors.items()}
        assert scclab.axioms._distant_pairs(colls, counted) == 0
        assert len(read) <= len(colls)

    def test_dense_data_is_not_slower(self):
        # exact logit at n = 8 with one cell of a 7-item menu zeroed: 255
        # support collections, every pair adjacent
        colls, neighbors = _cooccurrence_graph(_zeroed_logit(8, 908, 7))
        assert len(colls) == 255

        def fastest(count):
            return min(timeit.repeat(partial(count, colls, neighbors), number=1, repeat=7))

        assert fastest(scclab.axioms._distant_pairs) <= fastest(_pairwise_distant)


def _singleton_cases():
    """(name, scc) for SINGLETON: singleton data at n = 3..5, exact and
    float, as sampled and with the first item's cell of every menu of three
    or more items scaled by 3/2, so that clause (ii) fails often; and
    logit data, which fails clause (i) at every menu of two or more items."""
    cases = []
    for n in (3, 4, 5):
        base = generate_scc(sample_singleton_params(n, seed=5400 + n), Universe.default(n))
        logit_spec = sample_params(GenConfig(n, ModelTag.LOGIT, seed=5400 + n))
        logit = generate_scc(logit_spec, base.universe)
        for exact in (True, False):
            rows = _copy_rows(base, exact)
            cases.append((f"singleton-n{n}-{exact}", SCC(base.universe, rows, exact=exact)))
            drifted = _copy_rows(base, exact)
            for menu, row in drifted.items():
                if menu.bit_count() > 2:
                    low = menu & -menu
                    row[low] *= F(3, 2) if exact else 1.5
            cases.append((f"drifted-n{n}-{exact}", SCC(base.universe, drifted, exact=exact)))
            rows = _copy_rows(logit, exact)
            cases.append((f"logit-n{n}-{exact}", SCC(base.universe, rows, exact=exact)))
    return cases


def _listed_submasks(monkeypatch):
    """The masks whose non-empty submasks scclab.axioms lists from here on,
    in order, as a list that fills as the scans run."""
    listed = []
    submasks_of = scclab.axioms.nonempty_submasks
    monkeypatch.setattr(
        scclab.axioms, "nonempty_submasks", lambda mask: listed.append(mask) or submasks_of(mask)
    )
    return listed


def _listed_marginals(monkeypatch, scc):
    """The (S, x) whose row S scclab.axioms merges onto S\\x by _marginal
    from here on, in order, as a list that fills as the scans run."""
    listed = []
    menu_of = {id(row): s for s, row in cached_scaled_rows(scc)[0].items()}
    marginal = scclab.axioms._marginal
    monkeypatch.setattr(
        scclab.axioms,
        "_marginal",
        lambda cells, xbit: listed.append((menu_of.get(id(cells)), xbit)) or marginal(cells, xbit),
    )
    return listed


def _recordings(monkeypatch, events=None):
    """The bindings that the checks hand their frames from here on, in
    order, each listed as _Collector.extend pulls it from a check's stream
    (and noted as "witness" in ``events`` when given): the recordings."""
    recorded = []
    extend = scclab.axioms._Collector.extend

    def pulled(violations):
        for bindings in violations:
            recorded.append(bindings)
            if events is not None:
                events.append("witness")
            yield bindings

    monkeypatch.setattr(
        scclab.axioms._Collector, "extend", lambda out, violations: extend(out, pulled(violations))
    )
    return recorded


def _compare_events(monkeypatch):
    """The probs_equal calls ("compare") and recorded witnesses ("witness")
    of scclab.axioms from here on, in order."""
    events = []
    probs_equal_of = scclab.axioms.probs_equal

    def compared(*args):
        events.append("compare")
        return probs_equal_of(*args)

    monkeypatch.setattr(scclab.axioms, "probs_equal", compared)
    _recordings(monkeypatch, events)
    return events


class TestCapFullExits:
    """ADDITIVITY on the scaled rows, and the checks whose counts the
    registry fixes that stop once the cap is full."""

    @pytest.mark.parametrize("axiom", [AxiomId.IIS, AxiomId.PIIS])
    @pytest.mark.parametrize(
        "model,empty", [(ModelTag.RCG, False), (ModelTag.NSC, False), (ModelTag.RCG, True)]
    )
    def test_a_cap_past_sys_maxsize_is_read_as_any_other(self, axiom, model, empty):
        """IIS and PIIS stage 1 stop their merged witness streams on the
        collector's cap, which may exceed the largest index: on the rcg
        data, which fail, and on the nsc data, which hold."""
        spec = sample_params(GenConfig(5, model, seed=3, empty_variant=empty))
        scc = generate_scc(spec, Universe.default(5))
        report = run_axiom(scc, axiom, cap=sys.maxsize + 1)
        assert report.holds is (model is ModelTag.NSC)
        assert report == run_axiom(scc, axiom, cap=10**6)

    @pytest.mark.parametrize("cap", [1, 10])
    def test_additivity_matches_the_reference(self, cap):
        """The exact and float empty-collection copies of the full-support
        corpus, one cell perturbed or none."""
        seen = set()
        for name, _, scc in _full_support_cases():
            if not scc.allows_empty:
                continue
            report = check_additivity(scc, cap=cap)
            reference = _reference(scc, AxiomId.ADDITIVITY, cap=cap)
            assert report.holds == reference.holds, name
            assert report.witnesses == reference.witnesses, name
            assert report.instances_checked == reference.instances_checked, name
            assert report.instances_vacuous == reference.instances_vacuous, name
            assert report == reference, name
            seen.add((scc.exact, report.holds, len(report.witnesses) == cap))
        # in each mode it holds somewhere and fails with the cap full somewhere
        for exact in (True, False):
            assert {(exact, True, False), (exact, False, True)} <= seen, exact

    def test_singleton_stops_with_the_same_report(self):
        """At caps 1 and 10 the report is the uncapped one cut to the cap,
        with both clauses filling a cap of 10 somewhere."""
        filled = set()
        for name, scc in _singleton_cases():
            whole = check_special(scc, AxiomId.SINGLETON, cap=10**6)
            for cap in (1, 10):
                report = check_special(scc, AxiomId.SINGLETON, cap=cap)
                assert report == replace(whole, witnesses=whole.witnesses[:cap]), (name, cap)
                if len(report.witnesses) == 10:
                    filled.add(frozenset(report.witnesses[-1].bindings))
        assert filled == {frozenset({"T", "S"}), frozenset({"x", "y", "S", "S_prime"})}
        assert any(check_special(scc, AxiomId.SINGLETON).holds for _, scc in _singleton_cases())

    @pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
    def test_det_full_choice_stops_once_the_cap_is_full(self, monkeypatch, exact):
        """Logit at n = 6 fails at each of its 57 menus of two or more items:
        no comparison follows the cap-th witness, the report is the uncapped
        one cut to the cap, and the count is the registry's, one per menu."""
        scc = generate_scc(sample_params(GenConfig(6, ModelTag.LOGIT, seed=906)), Universe.default(6))
        if not exact:
            rows = {m: {t: float(p) for t, p in row.items()} for m, row in scc.rows.items()}
            scc = SCC(scc.universe, rows, exact=False)
        whole = run_axiom(scc, AxiomId.DET_FULL_CHOICE, cap=10**6)
        assert len(whole.witnesses) == 57 and whole.instances_checked == 63
        events = _compare_events(monkeypatch)
        report = run_axiom(scc, AxiomId.DET_FULL_CHOICE, cap=10)
        assert report == replace(whole, witnesses=whole.witnesses[:10])
        assert events.count("witness") == 10 and events[-1] == "witness"

    @pytest.mark.parametrize(
        "model, axiom", [(ModelTag.LOGIT, AxiomId.POS3), (ModelTag.RCG, AxiomId.FULL_SUPPORT)]
    )
    def test_support_shapes_stop_once_the_cap_is_full(self, monkeypatch, model, axiom):
        """The achievable family is built for the menus up to the cap-th
        witness's and for no later one; the count is the registry's."""
        scc = generate_scc(sample_params(GenConfig(8, model, seed=908)), Universe.default(8))
        whole = run_axiom(scc, axiom, cap=10**6)
        read = []
        achievable = scclab.axioms._achievable

        def counted(*args):
            family = achievable(*args)
            return lambda menu: read.append(menu) or family(menu)

        monkeypatch.setattr(scclab.axioms, "_achievable", counted)
        report = run_axiom(scc, axiom, cap=10)
        assert report == replace(whole, witnesses=whole.witnesses[:10])
        menus = scc.menus()
        last = menus.index(report.witnesses[-1].bindings["S"])
        assert read == menus[: last + 1] and last + 1 < len(menus)

    def test_rel_add_2_lists_only_checked_units_under_the_cap(self, monkeypatch):
        """Exact rcg at n = 8: the T' of an (S, x) are listed, by one
        _marginal call on row S, only when its instances are checked and
        the cap is not yet full; a vacuous unit, one with T empty or a zero
        adjustment denominator, is counted without them; and no comparison
        follows the cap-th witness."""
        scc = generate_scc(sample_params(GenConfig(8, ModelTag.RCG, seed=5301)), Universe.default(8))
        whole = run_axiom(scc, AxiomId.REL_ADD_2, cap=10**6)
        listed, events = _listed_marginals(monkeypatch, scc), _compare_events(monkeypatch)
        report = run_axiom(scc, AxiomId.REL_ADD_2, cap=10)
        assert report == replace(whole, witnesses=whole.witnesses[:10])
        assert events.count("witness") == 10 and events[-1] == "witness"
        revealed = cached_revealed_constraints(scc)
        full = scc.universe.full_mask
        last = report.witnesses[-1].bindings
        units = []  # (S, x, S\x, whether checked), in scan order, to the last witness's
        for s in scc.menus():
            for x in bits(s) if s.bit_count() > 1 else ():
                rest = s & ~(1 << x)
                denom = sum(prob_lookup(scc, revealed[y], full) for y in bits(s))
                units.append((s, 1 << x, rest, bool(revealed[x] & rest) and denom > 0))
        end = units.index((last["S"], last["x"], last["S"] & ~last["x"], True)) + 1
        assert listed == [(s, x) for s, x, _, checked in units[:end] if checked]
        # vacuous units come before the cap fills, and checked ones after it
        assert not all(checked for *_, checked in units[:end])
        assert any(checked for *_, checked in units[end:])

    def test_rel_add_2_compares_only_the_recorded_collections(self, monkeypatch):
        """Exact rrm at n = 9, uncapped: a checked (S, x) makes at most
        |row S| + |row S\\x| comparisons, not one per subset of S\\x, and
        none is made outside a listed unit."""
        scc = generate_scc(sample_params(GenConfig(9, ModelTag.RRM, seed=909)), Universe.default(9))
        rows = cached_scaled_rows(scc)[0]
        listed, compared = _listed_marginals(monkeypatch, scc), []
        probs_equal_of = scclab.axioms.probs_equal
        monkeypatch.setattr(
            scclab.axioms,
            "probs_equal",
            lambda *args: compared.append(len(listed)) or probs_equal_of(*args),
        )
        report = run_axiom(scc, AxiomId.REL_ADD_2, cap=10**6)
        assert report.holds and report.instances_checked > 5 * len(compared) > 0
        per_unit = [compared.count(unit) for unit in range(len(listed) + 1)]
        assert per_unit[0] == 0
        for (s, x), count in zip(listed, per_unit[1:]):
            assert count <= len(rows[s]) + len(rows[s & ~x]), (s, x)

    def test_rel_add_2_sums_each_adjustment_denominator_once(self, monkeypatch):
        """Exact rrm at n = 9, uncapped, with the tables built first: the
        items of a menu of two or more are listed at most twice, once for
        its (S, x) and once for its adjustment denominator, not once per x."""
        scc = generate_scc(sample_params(GenConfig(9, ModelTag.RRM, seed=909)), Universe.default(9))
        cached_revealed_constraints(scc)
        whole = run_axiom(scc, AxiomId.REL_ADD_2, cap=10**6)
        listed = []
        bits_of = scclab.axioms.bits
        monkeypatch.setattr(scclab.axioms, "bits", lambda mask: listed.append(mask) or bits_of(mask))
        assert run_axiom(scc, AxiomId.REL_ADD_2, cap=10**6) == whole
        menus = [s for s in scc.menus() if s.bit_count() > 1]
        assert set(listed) <= set(menus) and max(Counter(listed).values()) <= 2
        assert len(menus) < len(listed) <= 2 * len(menus)

    @pytest.mark.parametrize("axiom", [AxiomId.REL_ADD, AxiomId.REL_ADD_1])
    def test_rel_add_lists_no_subset_once_the_cap_is_full(self, monkeypatch, axiom):
        """Exact logit at n = 7: row S is merged onto S\\x by one _marginal
        call for each (S, x), in scan order, up to the cap-th witness's, and
        for no later one; no subset of S\\x is listed, and no comparison
        follows that witness."""
        scc = generate_scc(sample_params(GenConfig(7, ModelTag.LOGIT, seed=907)), Universe.default(7))
        whole = run_axiom(scc, axiom, cap=10**6)
        listed, events = _listed_marginals(monkeypatch, scc), _compare_events(monkeypatch)
        subsets = _listed_submasks(monkeypatch)
        report = run_axiom(scc, axiom, cap=10)
        assert report == replace(whole, witnesses=whole.witnesses[:10])
        assert events.count("witness") == 10 and events[-1] == "witness"
        units = [(s, 1 << x) for s in scc.menus() if s.bit_count() > 1 for x in bits(s)]
        last = report.witnesses[-1].bindings
        end = units.index((last["S"], last["x"])) + 1
        assert listed == units[:end] and end < len(units)
        assert subsets == []

    @pytest.mark.parametrize(
        "model, axiom", [(ModelTag.RRM, AxiomId.REL_ADD_1), (ModelTag.RCG, AxiomId.ADDITIVITY)]
    )
    def test_rel_add_1_and_additivity_compare_only_the_recorded_collections(
        self, monkeypatch, model, axiom
    ):
        """Exact rrm and rcg_o at n = 9, uncapped: every (S, x) is merged by
        one _marginal call and compares at most |row S| + |row S\\x|
        columns, plus one for the empty collection, not one per subset of
        S\\x; the report is the subset loop's."""
        empty = axiom is AxiomId.ADDITIVITY
        spec = sample_params(GenConfig(9, model, seed=909, empty_variant=empty))
        scc = generate_scc(spec, Universe.default(9))
        whole = run_axiom(scc, axiom, cap=10**6)
        assert [w.bindings for w in whole.witnesses] == _subset_loop(scc, axiom)
        rows = cached_scaled_rows(scc)[0]
        listed, columns = _listed_marginals(monkeypatch, scc), Counter()
        if empty:
            probs_equal_of = scclab.axioms.probs_equal

            def counted(*args):
                columns[len(listed)] += 1
                return probs_equal_of(*args)

            monkeypatch.setattr(scclab.axioms, "probs_equal", counted)
        else:
            proportional = scclab.axioms._proportional

            def counted(scc, us, vs, tol):
                columns[len(listed)] += len(us)
                return proportional(scc, us, vs, tol)

            monkeypatch.setattr(scclab.axioms, "_proportional", counted)
        assert run_axiom(scc, axiom, cap=10**6) == whole
        units = [(s, 1 << x) for s in scc.menus() if s.bit_count() > 1 for x in bits(s)]
        assert listed == units and columns[0] == 0
        subsets = 0
        for unit, (s, x) in enumerate(listed, 1):
            assert columns[unit] <= len(rows[s]) + len(rows[s & ~x]) + empty, (s, x)
            subsets += 1 << (s & ~x).bit_count()
        assert 2 * sum(columns.values()) < subsets

    @pytest.mark.parametrize("axiom", [AxiomId.REL_ADD, AxiomId.REL_ADD_1])
    def test_rel_add_takes_no_step_under_the_certificate(self, monkeypatch, axiom):
        """Exact rcg at n = 7, which the marginal certificate settles: no
        (S, x) is visited, and the report is the one the scan gives with
        the certificate refused."""
        scc = generate_scc(sample_params(GenConfig(7, ModelTag.RCG, seed=907)), Universe.default(7))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(scclab.axioms, "_marginal_certificate", lambda *_: False)
            scanned = run_axiom(scc, axiom, cap=10)
        steps = []
        removals = scclab.axioms._removals

        def counted(rows):
            for step in removals(rows):
                steps.append(step[:2])
                yield step

        monkeypatch.setattr(scclab.axioms, "_removals", counted)
        report = run_axiom(scc, axiom, cap=10)
        assert report == scanned and report.holds
        assert bool(report.instances_vacuous) is (axiom is AxiomId.REL_ADD_1)
        assert steps == []

    @pytest.mark.parametrize("cap", [1, 10])
    def test_paf_compares_nothing_once_the_cap_is_full(self, monkeypatch, cap):
        """Exact rcg at n = 8, where the first witness's (S, x) has later
        guarded collections: no probs_equal call follows the cap-th witness,
        and the guarded instances after it are counted."""
        scc = generate_scc(sample_params(GenConfig(8, ModelTag.RCG, seed=908)), Universe.default(8))
        whole = check_paf(scc, cap=10**6)
        events = _compare_events(monkeypatch)
        report = check_paf(scc, cap=cap)
        assert report == replace(whole, witnesses=whole.witnesses[:cap])
        assert events.count("witness") == cap and events[-1] == "witness"
        assert events.count("compare") < report.instances_checked


def _scaled_logit(n):
    """Exact logit at n items (seed 900 + n) with one cell of its 11th menu
    scaled by 3/2: the grand-row certificate refuses, and IIS and PIIS
    stage 1 fail first at a pair of menus whose later one is that menu."""
    base = generate_scc(sample_params(GenConfig(n, ModelTag.LOGIT, seed=900 + n)), Universe.default(n))
    rows = _copy_rows(base, True)
    menu = sorted(rows)[10]
    rows[menu][min(rows[menu])] *= F(3, 2)
    return SCC(base.universe, rows, exact=True)


class TestLazyMerge:
    """IIS's standard form and PIIS stage 1 merge the streams of the
    co-occurrence lists lazily: at cap 1 no list whose first menu comes
    after the witness's menu is certified or compared, and the report is
    the uncapped one cut to the cap."""

    @pytest.mark.parametrize("n", [6, 7])
    def test_iis_certifies_only_the_lists_up_to_its_witness(self, monkeypatch, n):
        scc = _scaled_logit(n)
        whole = run_axiom(scc, AxiomId.IIS, cap=10**6)
        assert not _grand_row(scc, DEFAULT_TOL).proportional
        lists = [
            (cells[0], tuple(cells[1::3]), tuple(cells[2::3]))
            for (t, _), cells in scclab.axioms._cooccurrence(scc).items()
            if t and len(cells) > 6
        ]
        certified = []
        proportional = scclab.axioms._proportional

        def counted(scc, us, vs, tol):
            certified.append((tuple(us), tuple(vs)))
            return proportional(scc, us, vs, tol)

        monkeypatch.setattr(scclab.axioms, "_proportional", counted)
        report = run_axiom(scc, AxiomId.IIS, cap=1)
        assert report == replace(whole, witnesses=whole.witnesses[:1])
        last = report.witnesses[0].bindings["S"]
        reached = [(us, vs) for first, us, vs in lists if first <= last]
        assert certified and set(certified) <= set(reached)
        assert len(certified) <= len(reached) < len(lists)

    @pytest.mark.parametrize("n", [6, 7])
    def test_piis_compares_only_the_lists_up_to_its_witness(self, monkeypatch, n):
        scc = _scaled_logit(n)
        whole = run_axiom(scc, AxiomId.PIIS, cap=10**6)
        firsts = [
            cells[0] for cells in scclab.axioms._cooccurrence(scc).values() if len(cells) > 3
        ]
        started = []
        ratio_conflicts = scclab.axioms._ratio_conflicts

        def counted(scc, tol, a, b, cells):
            started.append(cells[0])
            yield from ratio_conflicts(scc, tol, a, b, cells)

        monkeypatch.setattr(scclab.axioms, "_ratio_conflicts", counted)
        report = run_axiom(scc, AxiomId.PIIS, cap=1)
        assert report == replace(whole, witnesses=whole.witnesses[:1])
        last = report.witnesses[0].bindings["S_2"]
        assert started and max(started) <= last
        assert len(started) < len(firsts)


#: The scans that count first and stop once the cap is full, whose every
#: instance the reference decides.
CAPPED_AXIOMS = (
    AxiomId.FULL_SUPPORT,
    AxiomId.POS3,
    AxiomId.POS4,
    AxiomId.REL_ADD,
    AxiomId.REL_ADD_1,
    AxiomId.REL_ADD_2,
    AxiomId.PAF,
)


@pytest.fixture(scope="module")
def capped_runs():
    """The runs of :func:`_reference_runs` for CAPPED_AXIOMS, under the
    name of their corpus: the full-support corpus and the sparse corpus of
    TestCooccurrenceIndex."""
    corpora = {
        "full-support": [(name, scc, None) for name, _, scc in _full_support_cases()],
        "sparse": [(name, scc, None) for name, scc in _sparse_cases()],
    }
    return {corpus: _reference_runs(cases, CAPPED_AXIOMS) for corpus, cases in corpora.items()}


def _dropped_column_cases():
    """(name, scc, (S, x, T')): rrm at n = 4 (seeds 0-4) and nsc (seed 0),
    exact and float, with the first checked REL_ADD_2 unit (S, x) of a
    three-item S that has a T' recorded at S\\x and in row S's marginal
    losing that marginal: mu(T',S) and mu(T' u x,S) move onto mu(S,S)."""
    universe = Universe.default(4)
    cases = []
    for model, seed in [*((ModelTag.RRM, seed) for seed in range(5)), (ModelTag.NSC, 0)]:
        base = generate_scc(sample_params(GenConfig(4, model, seed=seed)), universe)
        revealed = cached_revealed_constraints(base)
        s, xbit, t2 = next(
            (s, 1 << x, t2)
            for s in base.menus()
            if s.bit_count() == 3
            for x in bits(s)
            if revealed[x] & s & ~(1 << x)
            for t2 in sorted(base.rows[s & ~(1 << x)])
            if t2 not in (0, revealed[x] & s & ~(1 << x))
            and (t2 in base.rows[s] or t2 | 1 << x in base.rows[s])
        )
        for exact in (True, False):
            rows = _copy_rows(base, exact)
            moved = rows[s].pop(t2, 0) + rows[s].pop(t2 | xbit, 0)
            rows[s][s] = rows[s].get(s, 0) + moved
            cases.append((f"{model.value}-{seed}-{exact}", SCC(universe, rows, exact=exact), (s, xbit, t2)))
    return cases


class TestCappedScans:
    def test_rel_add_2_compares_the_collections_of_row_s_less_x(self):
        """A T' positive at S\\x but unrecorded in row S's marginal is
        compared: its witness is reported as the reference reports it (in
        all but rrm seed 1, where mu(T,S) + mu(T u x,S) = adj(x,S), so both
        sides are 0)."""
        reported = 0
        for name, scc, (s, xbit, t2) in _dropped_column_cases():
            whole = _reference(scc, AxiomId.REL_ADD_2, cap=10)
            for cap in (1, 10):
                report = run_axiom(scc, AxiomId.REL_ADD_2, cap=cap)
                assert report == replace(whole, witnesses=whole.witnesses[:cap]), (name, cap)
            bindings = [(w.bindings["S"], w.bindings["x"], w.bindings["T_prime"]) for w in whole.witnesses]
            reported += (s, xbit, t2) in bindings
            assert all(recheck_witness(scc, w) for w in whole.witnesses), name
        assert reported == 10

    def test_reports_match_the_reference(self, capped_runs):
        for runs in capped_runs.values():
            for name, _, axiom, cap, fast, slow, _ in runs:
                assert fast == slow, (name, axiom, cap)

    def test_each_corpus_fills_every_cap(self, capped_runs):
        """Each axiom fills the cap in each corpus and each mode it is
        compared in, so every exit is taken; a cap of 10 fills somewhere."""
        filled = {
            (corpus, axiom, scc.exact, cap)
            for corpus, runs in capped_runs.items()
            for _, scc, axiom, cap, fast, _, _ in runs
            if len(fast.witnesses) == cap
        }
        for corpus in ("full-support", "sparse"):
            for axiom in CAPPED_AXIOMS:
                for exact in (True, False):
                    assert (corpus, axiom, exact, 1) in filled, (corpus, axiom, exact)
        assert {axiom for _, axiom, _, cap in filled if cap == 10} == set(CAPPED_AXIOMS)


#: The perturbations of the full-support corpus: one cell scaled, or zeroed.
PERTURBATIONS = (1.5, 1 + 1e-6, 1 + 1e-10, 0)


def _full_support_cases():
    """(name, change, scc): full-support logit, ic, logit_o and ic_o at
    n = 3..6, exact and float, unchanged (change None), and at n = 3..5 with
    one cell T of a menu of two or more cells scaled by each factor of
    PERTURBATIONS (change (factor, T)).  The cell mu(X, X) is left alone: X
    is chosen only from X, so scaling it changes no ratio that IIS or PIIS
    compares."""
    rng = random.Random(5100)
    cases = []
    for model in (ModelTag.LOGIT, ModelTag.IC):
        for empty in (False, True):
            for n in (3, 4, 5, 6):
                config = GenConfig(n, model, seed=5100 + n, empty_variant=empty)
                base = generate_scc(sample_params(config), Universe.default(n))
                for exact in (True, False):
                    for factor in (None, *PERTURBATIONS) if n < 6 else (None,):
                        rows = _copy_rows(base, exact)
                        change = None
                        if factor is not None:
                            menu = rng.choice([m for m in sorted(rows) if len(rows[m]) > 1])
                            cell = rng.choice([t for t in rows[menu] if t != 2**n - 1])
                            rows[menu][cell] *= F(factor) if exact else factor
                            change = (factor, cell)
                        name = f"full-{model.value}{'_o' if empty else ''}-n{n}-{exact}-{factor}"
                        cases.append((name, change, SCC(base.universe, rows, empty, exact)))
    return cases


@pytest.fixture(scope="module")
def grand_row_runs():
    """(case, change, scc, tol, certificate, axiom, cap, report, fallback):
    IIS, IIS_O, PIIS and FULL_SUPPORT through ``run_axiom``, and the same
    with the certificate patched to fail, on the ratio and PIIS corpora and
    the full-support corpus, at two tolerances and caps 1 and 10 (the
    cap-1 fallback is the cap-10 one cut to its first witness).  IIS_O runs
    on standard data in the full-support corpus only."""
    cases = [(name, None, scc) for name, scc, *_ in _ratio_cases() + _piis_cases()]
    runs = []
    for name, change, scc in cases + _full_support_cases():
        axioms = [AxiomId.IIS, AxiomId.PIIS, AxiomId.FULL_SUPPORT]
        if scc.allows_empty or name.startswith("full-"):
            axioms.append(AxiomId.IIS_O)
        for tol in (DEFAULT_TOL, ToleranceConfig(eps_eq=1e-2)):
            certificate = _grand_row(scc, tol)
            for axiom in axioms:
                with pytest.MonkeyPatch.context() as patch:
                    patch.setattr(scclab.axioms, "_grand_row", lambda *_: NO_CERTIFICATE)
                    fallback = run_axiom(scc, axiom, tol, cap=10)
                for cap in (1, 10):
                    fast = run_axiom(scc, axiom, tol, cap=cap)
                    slow = replace(fallback, witnesses=fallback.witnesses[:cap])
                    runs.append((name, change, scc, tol, certificate, axiom, cap, fast, slow))
    return runs


class TestGrandRowCertificate:
    def test_reports_match_the_fallback(self, grand_row_runs):
        for name, _, _, tol, _, axiom, cap, fast, slow in grand_row_runs:
            case = (name, tol.eps_eq, axiom, cap)
            assert fast.holds == slow.holds, case
            assert fast.witnesses == slow.witnesses, case
            assert fast.instances_checked == slow.instances_checked, case
            assert fast.instances_vacuous == slow.instances_vacuous, case
            assert fast == slow, case

    def test_full_support_data_is_certified(self, grand_row_runs):
        plain = {
            (name, tol.eps_eq): (scc, certificate)
            for name, change, scc, tol, certificate, *_ in grand_row_runs
            if name.startswith("full-") and change is None
        }
        assert len(plain) == 4 * 4 * 2 * 2  # variants, n = 3..6, modes, tolerances
        for case, (scc, certificate) in plain.items():
            assert certificate == _GrandRow(scc.allows_empty, True), case
            assert certificate.certifies(AxiomId.IIS), case
            assert certificate.certifies(AxiomId.PIIS), case
            assert certificate.certifies(AxiomId.IIS_O) is scc.allows_empty, case

    def test_perturbed_copies_reach_the_fallback(self, grand_row_runs):
        seen = set()
        for name, change, scc, tol, certificate, *_ in grand_row_runs:
            if change is None or tol != DEFAULT_TOL:
                continue
            factor, cell = change
            seen.add((scc.exact, factor))
            case = (name, cell)
            # a float cell off by 1e-10 moves no comparison past eps_eq = 1e-9
            passes = not scc.exact and factor == 1 + 1e-10
            if factor == 0 and cell == 0:
                # IIS does not guard on the empty collection; the others do
                assert certificate.empty is None and certificate.proportional, case
                assert certificate.certifies(AxiomId.IIS), case
            else:
                assert certificate.proportional is passes, case
                assert certificate.empty is (scc.allows_empty if factor else None), case
            assert certificate.certifies(AxiomId.PIIS) is passes, case
            assert certificate.certifies(AxiomId.IIS_O) is (passes and scc.allows_empty), case
        assert seen == {(exact, f) for exact in (True, False) for f in PERTURBATIONS}

    def test_corpus_reaches_both_branches(self, grand_row_runs):
        for axiom in (AxiomId.IIS, AxiomId.IIS_O, AxiomId.PIIS):
            for exact in (True, False):
                verdicts = {
                    (certificate.certifies(axiom), fast.holds)
                    for _, _, scc, _, certificate, ax, _, fast, _ in grand_row_runs
                    if ax is axiom and scc.exact is exact
                }
                assert {(True, True), (False, True), (False, False)} <= verdicts, axiom

    def test_decided_once_per_tolerance(self, monkeypatch):
        spec = sample_params(GenConfig(4, ModelTag.LOGIT, seed=5200, empty_variant=True))
        scc = generate_scc(spec, Universe.default(4))
        calls = []
        decide = scclab.axioms._decide_grand_row

        def counted(scc, tol):
            calls.append(tol)
            return decide(scc, tol)

        monkeypatch.setattr(scclab.axioms, "_decide_grand_row", counted)
        readers = (AxiomId.IIS, AxiomId.IIS_O, AxiomId.PIIS, AxiomId.FULL_SUPPORT)
        for tol in (DEFAULT_TOL, DEFAULT_TOL, ToleranceConfig(eps_eq=1e-2)):
            reports = [r for r in full_battery(scc, tol) if r.axiom in readers]
            assert len(reports) == 4 and all(r.holds for r in reports)
        assert calls == [DEFAULT_TOL, ToleranceConfig(eps_eq=1e-2)]

    def test_float_bound_is_refused_past_eps_eq(self):
        # rows equal to the grand row up to rounding pass; a spread of 1e-6
        # puts a two-entry product 1e-6 away, past eps_eq = 1e-9
        assert scclab.axioms._float_certified(1.0, 1.0, 1e-9)
        assert scclab.axioms._float_certified(1 + 1e-10, 1.0, 1e-9)
        assert not scclab.axioms._float_certified(1 + 1e-6, 1.0, 1e-9)
        assert scclab.axioms._float_certified(1 + 1e-6, 1.0, 1e-2)
        assert not scclab.axioms._float_certified(float("inf"), 1.0, 1e-2)
        assert not scclab.axioms._float_certified(math.nan, 1.0, 1e-2)
        # PIIS stage 3 multiplies three entries: a spread of 1 + 4e-10 moves
        # its products by about 1.2e-9, two-entry ones by only 8e-10
        assert scclab.axioms._float_certified(1 + 3e-10, 1.0, 1e-9)
        assert not scclab.axioms._float_certified(1 + 4e-10, 1.0, 1e-9)
        # and the entries' size scales the products: 2^3 * 3e-10 > 1e-9
        assert not scclab.axioms._float_certified(1 + 1e-10, 2.0, 1e-9)


#: The float range of the global grand-row bound below, whose top admitted
#: entries up to 1.5.
GLOBAL_BOUND_RANGE = (2.0**-340, 1.5)


def _global_bound(scc, tol):
    """The float grand-row certificate as one global bound, the oracle of
    the certificate's rows: the support scan of :func:`_grand_row`, then
    the largest spread of any row's ratios to the grand row and the largest
    entry, confirmed together by one ``_float_certified`` call."""
    rows, pos, menus = scc.rows, scclab.axioms._positive_rows(scc), scc.menus()
    for s in menus:
        subs = nonempty_submasks(s)
        if not all(t in pos[s] for t in subs) or len(rows[s]) > len(subs) + (0 in rows[s]):
            return _GrandRow(None, False)
    empties = sum(0 in pos[s] for s in menus)
    empty = True if empties == len(menus) else False if empties == 0 else None
    family = submasks if empty else nonempty_submasks
    grand = rows[scc.universe.full_mask]
    low, high = GLOBAL_BOUND_RANGE
    spread, top = 1.0, 0.0
    for s in reversed(menus):
        vs = [rows[s][t] for t in family(s)]
        if not (math.isfinite(sum(vs)) and low <= min(vs) and max(vs) <= high):
            return _GrandRow(empty, False)
        ratios = [v / grand[t] for t, v in zip(family(s), vs)]
        spread = max(spread, max(ratios) / min(ratios))
        top = max(top, max(vs))
    return _GrandRow(empty, scclab.axioms._float_certified(spread, top, tol.eps_eq))


class TestGrandRowUnits:
    """The grand-row certificate is one :func:`_proportional` unit per
    menu, under the one unit limit."""

    def test_float_rows_match_the_global_bound(self):
        """On the float cases of the full-support, ratio and PIIS corpora,
        the certificate holds exactly where the global bound does: never
        where it refuses (the unit limit is inside it), and wherever it
        holds, the cell off by 1 + 1e-10 included."""
        cases = [(name, scc) for name, _, scc in _full_support_cases()]
        cases += [(name, scc) for name, scc, _ in _ratio_cases()] + _piis_cases()
        verdicts = set()
        for name, scc in cases:
            if scc.exact:
                continue
            for tol in UNIT_TOLERANCES:
                oracle = _global_bound(scc, tol)
                assert _grand_row(scc, tol) == oracle, (name, tol.eps_eq)
                verdicts.add((tol.eps_eq, oracle.proportional, str(1 + 1e-10) in name))
        for eps_eq in (1e-9, 1e-2):
            assert {(eps_eq, True, False), (eps_eq, False, False), (eps_eq, True, True)} <= verdicts

    @pytest.mark.parametrize("exact", [True, False])
    def test_one_unit_per_menu(self, monkeypatch, exact):
        base = generate_scc(sample_params(GenConfig(4, ModelTag.LOGIT, seed=5200)), Universe.default(4))
        scc = SCC(base.universe, _copy_rows(base, exact), exact=exact)
        proportional = scclab.axioms._proportional
        units = []

        def counted(scc, us, vs, tol):
            units.append(len(us))
            return proportional(scc, us, vs, tol)

        monkeypatch.setattr(scclab.axioms, "_proportional", counted)
        assert _grand_row(scc, DEFAULT_TOL) == _GrandRow(False, True)
        assert units == [(1 << popcount(s)) - 1 for s in reversed(scc.menus())]


#: The tolerances of the float unit runs, and the noise of the noisy float
#: copies: each level puts units on both sides of the unit limit,
#: 1 + eps_eq/8, of the tolerance in its place.
UNIT_TOLERANCES = (ToleranceConfig(eps_eq=1e-9), ToleranceConfig(eps_eq=1e-2))
NOISE = (1e-11, 1e-4)


def _float_unit_cases():
    """(name, scc): the float copies of the ratio and full-support corpora,
    and a noisy copy (:func:`_noisy`) of each unperturbed float
    full-support case at n = 3..5 for each sigma of NOISE."""
    rng = random.Random(5300)
    cases = [(name, scc) for name, scc, _ in _ratio_cases() if not scc.exact]
    for name, change, scc in _full_support_cases():
        if scc.exact:
            continue
        cases.append((name, scc))
        if change is not None or scc.universe.n > 5:
            continue
        for sigma in NOISE:
            cases.append((f"{name}-noise{sigma}", _noisy(scc, sigma, rng)))
    return cases


@pytest.fixture(scope="module")
def unit_runs():
    """(case, scc, tol, axiom, cap, report, certified, refused, scanned):
    IIS, IIS_O, REL_ADD and REL_ADD_1 through ``run_axiom`` on the float
    unit cases, at each of UNIT_TOLERANCES and caps 1 and 10, with the
    number of units :func:`_proportional` certified and refused, and the
    report with its float branch patched to refuse every unit, so that each
    unit is scanned."""
    proportional = scclab.axioms._proportional
    axioms = (AxiomId.IIS, AxiomId.IIS_O, AxiomId.REL_ADD, AxiomId.REL_ADD_1)
    runs = []
    for name, scc in _float_unit_cases():
        for tol in UNIT_TOLERANCES:
            for axiom in axioms:
                if not _compared(scc, axiom, None):
                    continue
                for cap in (1, 10):
                    verdicts = []

                    def counted(*args):
                        verdicts.append(proportional(*args))
                        return verdicts[-1]

                    with pytest.MonkeyPatch.context() as patch:
                        patch.setattr(scclab.axioms, "_proportional", counted)
                        report = run_axiom(scc, axiom, tol, cap=cap)
                        patch.setattr(
                            scclab.axioms,
                            "_proportional",
                            lambda scc, *args: scc.exact and proportional(scc, *args),
                        )
                        scanned = run_axiom(scc, axiom, tol, cap=cap)
                    certified = verdicts.count(True)
                    refused = len(verdicts) - certified
                    runs.append(
                        (name, scc, tol, axiom, cap, report, certified, refused, scanned)
                    )
    return runs


class TestFloatUnitCertificate:
    def test_reports_match_the_scan(self, unit_runs):
        for name, _, tol, axiom, cap, report, _, _, scanned in unit_runs:
            case = (name, tol.eps_eq, axiom, cap)
            assert report.holds == scanned.holds, case
            assert report.witnesses == scanned.witnesses, case
            assert report.instances_checked == scanned.instances_checked, case
            assert report.instances_vacuous == scanned.instances_vacuous, case
            assert report == scanned, case

    def test_witnesses_recheck(self, unit_runs):
        for name, scc, tol, axiom, _, report, *_ in unit_runs:
            for witness in report.witnesses:
                assert recheck_witness(scc, witness, tol), (name, tol.eps_eq, witness)

    def test_corpus_reaches_both_verdicts(self, unit_runs):
        for tol, sigma in zip(UNIT_TOLERANCES, NOISE):
            for axiom in (AxiomId.IIS, AxiomId.IIS_O, AxiomId.REL_ADD, AxiomId.REL_ADD_1):
                runs = [run for run in unit_runs if run[2] == tol and run[3] is axiom]
                assert any(certified for *_, certified, _, _ in runs), (tol, axiom)
                assert any(refused for *_, refused, _ in runs), (tol, axiom)
            # the noise near this tolerance's limit gets units on both sides of it
            noisy = [
                (certified, refused)
                for name, _, t, _, _, _, certified, refused, _ in unit_runs
                if t == tol and name.endswith(f"-noise{sigma}")
            ]
            assert any(c for c, _ in noisy) and any(r for _, r in noisy), tol


#: A float unit: a 2 x 3 matrix whose rows are proportional up to rounding.
UNIT = ([0.5, 0.25, 0.125], [0.3, 0.15, 0.075])


def _walk_spread(eps_eq):
    """L^2 W of :func:`_unit_limit` for L = 1 + eps_eq/8, in exact
    rationals: the widening W of a unit of two menus, each widened by the
    rounding of a marginal of up to MAX_ITEMS - 1 merges."""
    u, merges = Fraction(1, 2**53), MAX_ITEMS - 1
    gamma = merges * u / (1 - merges * u)
    widening = ((1 + gamma) / (1 - gamma)) ** 2 * (1 + u) / (1 - u) ** 2
    return Fraction(1 + eps_eq / 8) ** 2 * widening


class TestUnitLimit:
    @staticmethod
    def proportional(us, vs, eps_eq=1e-9):
        scc = SCC(Universe.default(1), {1: {1: 1.0}}, exact=False)
        return scclab.axioms._proportional(scc, us, vs, ToleranceConfig(eps_eq=eps_eq))

    def test_limit_is_certified(self):
        """The one float limit L, 1 + eps_eq/8, certifies a single unit of
        spread L at the range top."""
        top = scclab.axioms._FLOAT_RANGE[1]
        assert top == 1 + 2**-10
        for eps_eq in (m * 10.0**-k for k in range(1, 13) for m in (1, 2, 5)):
            limit = scclab.axioms._unit_limit(eps_eq)
            assert limit == 1 + eps_eq / 8, eps_eq
            assert scclab.axioms._float_certified(limit, top, eps_eq), eps_eq
            assert self.proportional(*UNIT, eps_eq)

    def test_marginal_limit_is_certified(self, monkeypatch):
        """The same limit L against the bound the marginal walk needs: two
        menus' exact spreads, each widened by the rounding of a marginal of
        up to MAX_ITEMS - 1 merges, within the exact spread of L^2 W, which
        is confirmed at the range top; 0.0 wherever that bound fails; and a
        refusal where the limit is 0.0."""
        top = scclab.axioms._FLOAT_RANGE[1]
        u, merges = Fraction(1, 2**53), MAX_ITEMS - 1
        gamma = merges * u / (1 - merges * u)

        def exact(spread):
            return Fraction(spread) * (1 + u) / (1 - u) ** 2

        for eps_eq in (m * 10.0**-k for k in range(1, 13) for m in (1, 2, 5)):
            limit = scclab.axioms._unit_limit(eps_eq)
            assert limit == 1 + eps_eq / 8, eps_eq
            widened = (exact(limit) * (1 + gamma) / (1 - gamma)) ** 2
            assert widened <= exact(_walk_spread(eps_eq)), eps_eq
            assert scclab.axioms._float_certified(_walk_spread(eps_eq), top, eps_eq), eps_eq
        for eps_eq in (m * 10.0**-k for k in range(0, 18) for m in (1, 2, 5)):
            if not scclab.axioms._float_certified(_walk_spread(eps_eq), top, eps_eq):
                assert scclab.axioms._unit_limit(eps_eq) == 0.0, eps_eq
                assert not self.proportional(*UNIT, eps_eq)
        assert self.proportional(*UNIT, DEFAULT_TOL.eps_eq)
        monkeypatch.setattr(scclab.axioms, "_unit_limit", lambda _: 0.0)
        assert not self.proportional(*UNIT, DEFAULT_TOL.eps_eq)

    def test_no_unit_where_rounding_exceeds_eps_eq(self):
        assert scclab.axioms._unit_limit(1e-16) == 0.0
        assert not self.proportional([0.5, 0.5], [0.5, 0.5], 1e-16)

    @pytest.mark.parametrize("eps_eq", [1.0, 1e200, sys.float_info.max])
    def test_no_unit_at_a_wide_tolerance(self, eps_eq):
        # L^2 W is a Fraction past the float range from eps_eq near 1e155:
        # refused, with no conversion to float on the way
        assert scclab.axioms._unit_limit(eps_eq) == 0.0
        assert not self.proportional(*UNIT, eps_eq)

    def test_derived_once_per_tolerance(self, monkeypatch):
        base = generate_scc(sample_params(GenConfig(4, ModelTag.IC, seed=5200)), Universe.default(4))
        scc = SCC(base.universe, _copy_rows(base, False), exact=False)
        calls = []
        certified = scclab.axioms._float_certified

        def counted(spread, top, eps_eq):
            calls.append((spread, top, eps_eq))
            return certified(spread, top, eps_eq)

        monkeypatch.setattr(scclab.axioms, "_float_certified", counted)
        scclab.axioms._unit_limit.cache_clear()
        try:
            tolerances = (ToleranceConfig(eps_eq=3e-9), ToleranceConfig(eps_eq=3e-9),
                          ToleranceConfig(eps_eq=3e-3))
            for tol in tolerances:
                for axiom in (AxiomId.REL_ADD, AxiomId.REL_ADD_1):
                    assert run_axiom(scc, axiom, tol).holds
        finally:
            scclab.axioms._unit_limit.cache_clear()
        top = scclab.axioms._FLOAT_RANGE[1]
        assert calls == [(_walk_spread(3e-9), top, 3e-9), (_walk_spread(3e-3), top, 3e-3)]

    def test_zero_columns(self):
        # a column zero in both rows compares 0.0 with 0.0, so it is dropped
        assert self.proportional([0.5, 0.0, 0.25], [0.3, 0.0, 0.15])
        assert self.proportional([0, 0.0], [0.0, 0])
        # a column zero in one row refuses the certificate
        assert not self.proportional([0.5, 0.0, 0.25], [0.3, 1e-300, 0.15])
        assert not self.proportional([0.5, 0.25, 0.25], [0.3, 0.15, 0.0])

    @pytest.mark.parametrize("entry", [math.inf, math.nan, 2.0**-400, -0.25, 1.75])
    def test_entries_out_of_range(self, entry):
        for row in (0, 1):
            for column in (0, 2):
                unit = [list(UNIT[0]), list(UNIT[1])]
                unit[row][column] = entry
                assert not self.proportional(*unit), (row, column)

    def test_rows_scaled_out_of_range(self):
        # a row scaled by a power of two keeps its ratios equal, so only the
        # range refuses it: below or above _FLOAT_RANGE
        us, vs = UNIT
        for scale in (2.0**-400, 8.0):
            assert not self.proportional(us, [v * scale for v in vs]), scale
            assert not self.proportional([u * scale for u in us], vs), scale
        assert self.proportional(us, [v * 2.0**-300 for v in vs])
        assert self.proportional([u * 2.0 for u in us], vs)

    def test_spread_one_ulp_above_the_limit(self):
        # 0.5 s / 0.5 is s exactly, so the unit's computed spread is s
        limit = scclab.axioms._unit_limit(DEFAULT_TOL.eps_eq)
        assert self.proportional([0.5, 0.5], [0.5, 0.5 * limit])
        assert not self.proportional([0.5, 0.5], [0.5, 0.5 * math.nextafter(limit, 2)])


#: The tolerances where the one limit's coverage differs from the grand
#: row's former limit, 1 + eps_eq/3.2: units are certified at 0.2 and 0.5,
#: where that limit refused them, and none at 5e-14, where it certified.
COVERAGE_TOLERANCES = tuple(ToleranceConfig(eps_eq=e) for e in (0.2, 0.5, 5e-14))


@pytest.fixture(scope="module")
def coverage_runs():
    """(case, scc, tol, report, certified, refused): ``full_battery`` on a
    float copy of every variant at n = 4..6 at each of COVERAGE_TOLERANCES,
    with the number of units :func:`_proportional` certified, and the
    battery on a second copy with the grand-row and marginal certificates
    and :func:`_proportional` patched to refuse, so that every unit is
    scanned."""
    proportional = scclab.axioms._proportional
    runs = []
    for index, (model, empty) in enumerate(ALL_VARIANTS):
        for n in (4, 5, 6):
            config = GenConfig(n, model, seed=5600 + 3 * index + n, empty_variant=empty)
            base = generate_scc(sample_params(config), Universe.default(n))
            name = f"{model.value}{'_o' if empty else ''}-n{n}"
            for tol in COVERAGE_TOLERANCES:
                scc, copy = (
                    SCC(base.universe, _copy_rows(base, False), empty, exact=False)
                    for _ in range(2)
                )
                verdicts = []

                def counted(*args):
                    verdicts.append(proportional(*args))
                    return verdicts[-1]

                with pytest.MonkeyPatch.context() as patch:
                    patch.setattr(scclab.axioms, "_proportional", counted)
                    report = full_battery(scc, tol)
                    patch.setattr(scclab.axioms, "_proportional", lambda *_: False)
                    patch.setattr(scclab.axioms, "_grand_row", lambda *_: NO_CERTIFICATE)
                    patch.setattr(scclab.axioms, "_marginal_certificate", lambda *_: False)
                    refused = full_battery(copy, tol)
                runs.append((name, scc, tol, report, verdicts.count(True), refused))
    return runs


class TestLimitCoverage:
    """The battery where the one float limit certifies what the former unit
    limit did not, and where it no longer certifies: the same reports as
    with every certificate refused."""

    def test_battery_matches_the_refused_certificates(self, coverage_runs):
        for name, _, tol, report, _, refused in coverage_runs:
            assert report == refused, (name, tol.eps_eq)

    def test_witnesses_recheck(self, coverage_runs):
        for name, scc, tol, report, *_ in coverage_runs:
            for witness in (w for r in report for w in r.witnesses):
                assert recheck_witness(scc, witness, tol), (name, tol.eps_eq, witness)

    def test_certified_units_are_reached(self, coverage_runs):
        certified = Counter()
        for _, _, tol, _, count, _ in coverage_runs:
            certified[tol.eps_eq] += count
        assert certified[0.2] and certified[0.5]
        assert certified[5e-14] == 0 and scclab.axioms._unit_limit(5e-14) == 0.0


class TestPAF:
    def test_nsc_example_witnesses(self, nsc_scc):
        report = check_paf(nsc_scc)
        assert not report.holds
        assert report.instances_checked == 2
        assert report.instances_vacuous == 13
        first, second = report.witnesses
        assert first.bindings == {"S": ABC, "x": A, "T": C}
        assert (first.lhs, first.rhs) == (F(3, 7), F(3, 5))
        # the advertised counterexample: 3/7 against 3/4
        assert second.bindings == {"S": ABC, "x": B, "T": C}
        assert (second.lhs, second.rhs) == (F(3, 7), F(3, 4))
        assert all(recheck_witness(nsc_scc, w) for w in report.witnesses)

    def test_vacuous_on_full_support(self, logit_scc):
        report = check_paf(logit_scc)
        assert report.holds
        assert report.instances_checked == 0

    def test_reads_the_positivity_table(self, monkeypatch):
        """The scan tests no cell for support: its gate and guard come from
        the positivity table, built before counting, and only the sides of a
        recorded witness test cells (one is_zero and two is_positive each).
        Under a cap that never fills, each checked instance is one
        comparison."""
        calls = []
        for name in ("is_zero", "is_positive", "probs_equal"):

            def counted(*args, _name=name, _original=getattr(scclab.axioms, name)):
                calls.append(_name)
                return _original(*args)

            monkeypatch.setattr(scclab.axioms, name, counted)
        universe = Universe.default(8)
        verdicts = set()
        for model, seed in ((ModelTag.LOGIT, 5300), (ModelTag.RCG, 5300), (ModelTag.RCG, 5301)):
            scc = generate_scc(sample_params(GenConfig(8, model, seed=seed)), universe)
            scclab.axioms._positive_rows(scc)
            calls.clear()
            report = check_paf(scc, cap=10**6)
            support = calls.count("is_zero") + calls.count("is_positive")
            assert support == 3 * len(report.witnesses), (model, seed)
            assert calls.count("probs_equal") == report.instances_checked, (model, seed)
            verdicts.add((model, report.holds, report.instances_checked > 0))
        # full support leaves every instance vacuous; sparse data both holds
        # and fails on instances it checks
        assert verdicts == {
            (ModelTag.LOGIT, True, False),
            (ModelTag.RCG, True, True),
            (ModelTag.RCG, False, True),
        }


class TestSpecialClasses:
    def test_full_support(self, logit_scc, nsc_scc):
        assert check_full_support(logit_scc).holds
        report = check_full_support(nsc_scc)
        assert not report.holds
        witness = report.witnesses[0]
        assert witness.bindings["T"] & ~witness.bindings["S"] == 0
        assert recheck_witness(nsc_scc, witness)

    def test_det_full_choice(self):
        params = NSCParams((ABC,), {t: F(1) for t in range(1, 8)})
        scc = generate_scc(ModelSpec(ModelTag.NSC, params), U3)
        assert check_special(scc, AxiomId.DET_FULL_CHOICE).holds
        assert not check_special(scc, AxiomId.SINGLETON).holds

    def test_singleton_structure(self):
        params = RRMParams({0: F(2), 1: F(3), 2: F(5)}, {0: A, 1: B, 2: C})
        scc = generate_scc(ModelSpec(ModelTag.RRM, params), U3)
        assert check_special(scc, AxiomId.SINGLETON).holds
        assert not check_special(scc, AxiomId.DET_FULL_CHOICE).holds

    def test_singleton_ratio_violation(self):
        # singletons only, but the relative weights drift across menus
        rows = {
            1: {1: F(1)}, 2: {2: F(1)}, 4: {4: F(1)},
            3: {1: F(1, 2), 2: F(1, 2)},
            5: {1: F(1, 2), 4: F(1, 2)},
            6: {2: F(1, 2), 4: F(1, 2)},
            7: {1: F(1, 2), 2: F(1, 4), 4: F(1, 4)},
        }
        scc = SCC(U3, rows)
        report = check_special(scc, AxiomId.SINGLETON)
        assert not report.holds
        ratio_witnesses = [
            w for w in report.witnesses if set(w.bindings) == {"x", "y", "S", "S_prime"}
        ]
        assert ratio_witnesses
        assert all(recheck_witness(scc, w) for w in ratio_witnesses)


def _support_transfer_loop(scc):
    """The subset loop support_transfer_violations ran before it read the
    positivity table: every non-empty T of every S\\x, tested on the
    SCC's own rows (Fractions or floats)."""
    zero = scc.zero()
    offenders = []
    for s in scc.menus():
        for x in bits(s) if s.bit_count() > 1 else ():
            xbit = 1 << x
            row_s, row_rest = scc.rows[s], scc.rows[s & ~xbit]
            for t in nonempty_submasks(s & ~xbit):
                small_zero = is_zero(scc, row_rest.get(t, zero))
                pair_zero = is_zero(scc, row_s.get(t, zero) + row_s.get(t | xbit, zero))
                if small_zero and not pair_zero:
                    offenders.append({"S": s, "x": xbit, "T": t, "direction": "zero_spreads"})
                elif not small_zero and pair_zero:
                    offenders.append({"S": s, "x": xbit, "T": t, "direction": "support_drops"})
    return offenders


def _monotonicity_loop(scc, tol):
    """The subset loop monotonicity_violations ran before it read the
    scaled rows: every non-empty T of every S\\x, compared on the SCC's
    own rows (Fractions or floats)."""
    zero = scc.zero()
    offenders = []
    for s in scc.menus():
        for x in bits(s) if s.bit_count() > 1 else ():
            xbit = 1 << x
            row_s, row_rest = scc.rows[s], scc.rows[s & ~xbit]
            for t in nonempty_submasks(s & ~xbit):
                larger, smaller = row_s.get(t, zero), row_rest.get(t, zero)
                if larger > smaller and not probs_equal(scc, larger, smaller, tol):
                    offenders.append({"S": s, "x": xbit, "T": t, "lhs": larger, "rhs": smaller})
    return offenders


def _subset_loop(scc, axiom, tol=DEFAULT_TOL):
    """The bindings of every violation of REL_ADD_1 or ADDITIVITY, in scan
    order, from the loops those scans ran before they read row S's
    marginal: every subset of S\\x, compared on the scaled rows, with a
    REL_ADD_1 unit certified by _proportional on all its columns."""
    rows, dens = cached_scaled_rows(scc)
    revealed = cached_revealed_constraints(scc)
    found = []
    for s in scc.menus():
        for x in bits(s) if s.bit_count() > 1 else ():
            xbit, rest = 1 << x, s & ~(1 << x)
            row_s, row_rest = rows[s], rows[rest]
            if axiom is AxiomId.ADDITIVITY:
                for t in submasks(rest):
                    lhs = row_rest.get(t, 0) * dens[s]
                    rhs = (row_s.get(t, 0) + row_s.get(t | xbit, 0)) * dens[rest]
                    if not probs_equal(scc, lhs, rhs, tol):
                        found.append({"S": s, "x": xbit, "T": t})
                continue
            subs = [t for t in nonempty_submasks(rest) if t != revealed[x] & rest]
            us = [row_rest.get(t, 0) for t in subs]
            vs = [row_s.get(t, 0) + row_s.get(t | xbit, 0) for t in subs]
            if scclab.axioms._proportional(scc, us, vs, tol):
                continue
            for (t, u, v), (t2, u2, v2) in combinations(zip(subs, us, vs), 2):
                if not probs_equal(scc, u * v2, u2 * v, tol):
                    found.append({"S": s, "x": xbit, "T": t, "T_prime": t2})
    return found


def _zeroed_cell(scc, rng):
    """A copy of ``scc`` with one positive cell of a random menu of two or
    more positive cells zeroed and that row renormalised; None where no
    menu has two."""
    rows = {m: dict(row) for m, row in scc.rows.items()}
    menus = [m for m in sorted(rows) if sum(map(bool, rows[m].values())) > 1]
    if not menus:
        return None
    menu = rng.choice(menus)
    rows[menu][rng.choice(sorted(t for t, p in rows[menu].items() if p))] *= 0
    total = sum(rows[menu].values())
    rows[menu] = {t: p / total for t, p in rows[menu].items()}
    return SCC(scc.universe, rows, scc.allows_empty, scc.exact)


def _support_transfer_cases():
    """(name, scc): every variant at n = 3..6, exact and float: as
    generated, with one cell zeroed (:func:`_zeroed_cell`), and parsed
    from its document with a zero-support cell, "0" exact and "0.0" or
    "7e-13" float, on each collection it does not record."""
    rng = random.Random(5400)
    cases = []
    for n in range(3, 7):
        universe = Universe.default(n)
        for index, (model, empty) in enumerate(ALL_VARIANTS):
            spec = sample_params(GenConfig(n, model, seed=5400 + 20 * n + index, empty_variant=empty))
            base = generate_scc(spec, universe)
            for exact in (True, False):
                name = f"{model.value}{'_o' if empty else ''}-n{n}-{exact}"
                scc = SCC(universe, _copy_rows(base, exact), empty, exact)
                document = scc_to_document(scc)
                literals = cycle(("0",) if exact else ("0.0", "7e-13"))
                for entry in document["menus"]:
                    menu = universe.mask_of(entry["menu"])
                    recorded = {universe.mask_of(cell["set"]) for cell in entry["rows"]}
                    for t in submasks(menu) if empty else nonempty_submasks(menu):
                        if t not in recorded:
                            entry["rows"].append({"set": list(universe.labels_of(t)), "p": next(literals)})
                cases += [
                    (name, scc),
                    (f"{name}-zeroed", _zeroed_cell(scc, rng)),
                    (f"{name}-recorded", parse_scc(document)),
                ]
    return [(name, scc) for name, scc in cases if scc is not None]


class TestDerivedConsequences:
    """Monotonicity and the support-transfer property as diagnostics."""

    def test_support_transfer_matches_the_subset_loop(self):
        found = set()
        for name, scc in _support_transfer_cases():
            offenders = support_transfer_violations(scc)
            assert offenders == _support_transfer_loop(scc), name
            found |= {(scc.exact, v["direction"]) for v in offenders}
        # both directions are reached in both modes
        assert found == set(product((True, False), ("zero_spreads", "support_drops")))

    def test_float_cells_below_support_add_up_past_it(self):
        """Two recorded cells of 7e-13, each below the support threshold,
        sum to positive mass at {a} where {a} is unchosen at {a}."""
        rows = {A: {0: 1.0}, B: {B: 1.0}, AB: {A: 7e-13, AB: 7e-13, B: 1 - 1.4e-12}}
        scc = SCC(Universe.default(2), rows, allows_empty=True, exact=False)
        found = support_transfer_violations(scc)
        assert found == _support_transfer_loop(scc)
        assert {"S": AB, "x": B, "T": A, "direction": "zero_spreads"} in found

    def test_monotonicity_matches_the_subset_loop(self):
        """The support-transfer corpus at three tolerances: the same
        offenders in the same order, with values of the same types."""
        found = set()
        for name, scc in _support_transfer_cases():
            for eps in (1e-9, 1e-2, 1e-15):
                tol = ToleranceConfig(eps_eq=eps)
                offenders, oracle = monotonicity_violations(scc, tol), _monotonicity_loop(scc, tol)
                assert offenders == oracle, (name, eps)
                types = [[type(v) for v in entry.values()] for entry in offenders]
                assert types == [[type(v) for v in entry.values()] for entry in oracle], (name, eps)
                found.add((scc.exact, bool(offenders)))
        # each mode has clean cases and cases with offenders
        assert found == set(product((True, False), (True, False)))

    def test_monotonicity_compares_row_s_less_x_below_zero(self):
        """A float cell of row S\\x recorded below zero, at a collection
        that row S does not record: 0 at {a,b,c} exceeds -5e-13 at {a,b}."""
        document = {
            "items": ["a", "b", "c"],
            "menus": [
                {"menu": list(menu), "rows": [{"set": list(t), "p": p} for t, p in cells]}
                for menu, cells in [
                    ("a", [("a", "1.0")]),
                    ("b", [("b", "1.0")]),
                    ("c", [("c", "1.0")]),
                    ("ab", [("a", "-5e-13"), ("b", "1.0000000000005")]),
                    ("ac", [("a", "0.5"), ("c", "0.5")]),
                    ("bc", [("b", "0.5"), ("c", "0.5")]),
                    ("abc", [("b", "0.5"), ("c", "0.5")]),
                ]
            ],
        }
        scc = parse_scc(document)
        tol = ToleranceConfig(eps_eq=1e-15)
        found = monotonicity_violations(scc, tol)
        assert found == _monotonicity_loop(scc, tol)
        entry = next(v for v in found if (v["S"], v["x"], v["T"]) == (ABC, C, A))
        assert entry["lhs"] == 0.0 and entry["rhs"] == -5e-13
        assert type(entry["lhs"]) is float and type(entry["rhs"]) is float

    def test_clean_on_rel_add_data(self, ic_scc):
        assert monotonicity_violations(ic_scc) == []
        assert support_transfer_violations(ic_scc) == []

    def test_monotonicity_violation_found(self):
        rows = {
            1: {1: F(1)}, 2: {2: F(1)}, 4: {4: F(1)},
            3: {1: F(1, 4), 2: F(1, 4), 3: F(1, 2)},
            5: {1: F(1, 2), 4: F(1, 4), 5: F(1, 4)},
            6: {2: F(1, 3), 4: F(1, 3), 6: F(1, 3)},
            7: {1: F(1, 2), 3: F(1, 4), 7: F(1, 4)},
        }
        scc = SCC(U3, rows)
        found = monotonicity_violations(scc)
        assert found
        entry = next(v for v in found if v["S"] == ABC and v["x"] == C and v["T"] == A)
        assert entry["lhs"] == F(1, 2) and entry["rhs"] == F(1, 4)

    def test_support_transfer_directions(self):
        rows = {
            1: {1: F(1)}, 2: {2: F(1)}, 4: {4: F(1)},
            3: {3: F(1)},
            5: {1: F(1, 2), 4: F(1, 2)},
            6: {2: F(1, 2), 4: F(1, 2)},
            7: {1: F(1, 3), 4: F(2, 3)},
        }
        scc = SCC(U3, rows)
        found = support_transfer_violations(scc)
        directions = {v["direction"] for v in found}
        assert directions == {"zero_spreads", "support_drops"}
        # {a} is unchosen at {a,b} yet chosen once c arrives...
        assert any(
            v["direction"] == "zero_spreads"
            and (v["S"], v["x"], v["T"]) == (ABC, C, A)
            for v in found
        )
        # ...while {a,b} is chosen at {a,b} but loses all mass under X
        assert any(
            v["direction"] == "support_drops"
            and (v["S"], v["x"], v["T"]) == (ABC, C, AB)
            for v in found
        )


class TestRecheck:
    def test_tampered_bindings_rejected(self, nsc_scc):
        report = check_relative_additivity(nsc_scc)
        genuine = report.witnesses[1]
        # same menus, different second collection: the equation holds there
        fake = Witness(
            genuine.axiom,
            {"S": ABC, "x": B, "T": A, "T_prime": AC},
            genuine.lhs,
            genuine.rhs,
        )
        assert not recheck_witness(nsc_scc, fake)

    def test_tampered_sides_rejected(self, nsc_scc):
        report = check_relative_additivity(nsc_scc)
        genuine = report.witnesses[1]
        fake = Witness(genuine.axiom, dict(genuine.bindings), F(1, 2), genuine.rhs)
        assert not recheck_witness(nsc_scc, fake)

    def test_all_battery_witnesses_genuine(self, nsc_scc, logit_scc):
        for scc in (nsc_scc, logit_scc):
            for report in full_battery(scc):
                for witness in report.witnesses:
                    assert recheck_witness(scc, witness), report.axiom


def _recheck_cases():
    """(name, SCC, carriers): every variant at n = 3, exact and float, with
    one cell scaled by 3/2 or zeroed.  Models without attributes get the
    singleton carriers, so kind-2 positivity runs on every case."""
    cases = []
    for index, (model, empty) in enumerate(ALL_VARIANTS):
        spec = sample_params(GenConfig(3, model, seed=5100 + index, empty_variant=empty))
        base = generate_scc(spec, U3)
        attributes = getattr(spec.params, "attributes", None)
        carriers = [a.carrier for a in attributes] if attributes else [A, B, C]
        for exact in (True, False):
            for menu, cell, factor in ((ABC, A, F(3, 2)), (A, A, 0), (ABC, C, 0)):
                rows = _copy_rows(base, exact)
                if cell in rows[menu]:
                    rows[menu][cell] *= factor if exact else float(factor)
                name = f"{model.value}{'_o' if empty else ''}-{exact}-{menu}-{cell}-{factor}"
                cases.append((name, SCC(U3, rows, base.allows_empty, exact), carriers))
    return cases


@pytest.fixture(scope="module")
def recheck_runs():
    """(case, SCC, carriers, report) for every applicable axiom of every case,
    each report listing every witness."""
    return [
        (name, scc, carriers, run_axiom(scc, axiom, attributes=carriers, cap=10**6))
        for name, scc, carriers in _recheck_cases()
        for axiom, spec in AXIOMS.items()
        if spec.applies(scc, carriers)
    ]


def _moved(report, bindings, key, candidates):
    """``bindings`` with ``key`` moved to the first candidate that the check
    does not flag together with the other bindings; None if it flags all."""
    rest = {k: v for k, v in bindings.items() if k != key}
    flagged = {
        w.bindings[key]
        for w in report.witnesses
        if set(w.bindings) == set(bindings)
        and all(w.bindings[k] == v for k, v in rest.items())
    }
    return next(({**rest, key: c} for c in candidates if c not in flagged), None)


def _items(mask):
    return [item for item in (A, B, C) if item & mask]


def _tamper_singleton(report, b):
    if "y" in b:
        return {**b, "S": b["S_prime"]}  # one menu on both sides
    if "x" in b:
        return _moved(report, b, "x", _items(b["S"]))
    return _moved(report, b, "T", submasks(b["S"])[1:])


def _tamper_partition(report, b):
    if "uncovered" in b:
        return {"uncovered": 0}
    return _moved(report, b, "T_prime", range(b["T"] + 1, 8))


#: Per axiom, witness bindings moved to where a guard fails or the postulate
#: holds: equation axioms by making both sides alike, structural axioms by
#: moving one binding to a value the (complete) check does not flag.
TAMPERS = {
    AxiomId.IIS: lambda report, b: {**b, "S_prime": b["S"]},
    AxiomId.IIS_O: lambda report, b: {**b, "S_prime": b["S"]},
    AxiomId.REL_ADD: lambda report, b: {**b, "T_prime": b["T"]},
    AxiomId.ADDITIVITY: lambda report, b: {**b, "S": b["x"]},  # S\x is no menu
    AxiomId.POS1: lambda report, b: _moved(report, b, "x", _items(b["S"])),
    AxiomId.POS2: lambda report, b: _moved(report, b, "T", submasks(b["S"])[1:]),
    AxiomId.DISTINCT_Q: lambda report, b: _moved(
        report, b, "y", [y for y in (A, B, C) if y > b["x"]]
    ),
    AxiomId.POS3: lambda report, b: _moved(report, b, "T", submasks(b["S"])[1:]),
    AxiomId.REL_ADD_1: lambda report, b: {**b, "T_prime": b["T"]},
    # T must be the revealed constraint set, so swapping T and T' breaks the guard
    AxiomId.REL_ADD_2: lambda report, b: {**b, "T": b["T_prime"], "T_prime": b["T"]},
    AxiomId.PIIS: lambda report, b: {
        **b, "T_star_2": b["T_star_1"], "S_2": b["S_1"], "S_prime_2": b["S_prime_1"]
    },
    AxiomId.PARTITION: _tamper_partition,
    AxiomId.POS4: lambda report, b: _moved(report, b, "T", submasks(b["S"])[1:]),
    AxiomId.PAF: lambda report, b: _moved(report, b, "T", submasks(b["S"] & ~b["x"])[1:]),
    AxiomId.FULL_SUPPORT: lambda report, b: _moved(report, b, "T", submasks(b["S"])[1:]),
    AxiomId.DET_FULL_CHOICE: lambda report, b: _moved(report, b, "S", range(1, 8)),
    AxiomId.SINGLETON: _tamper_singleton,
}

#: Axioms whose witnesses record a probability at their bindings: both sides
#: of an equation, or the offending probability of a support condition.  The
#: recheck recomputes every recorded value; the other axioms record none, and
#: a value given to one of their witnesses is forged.
RECORDING_AXIOMS = set(AxiomId) - {AxiomId.POS1, AxiomId.DISTINCT_Q, AxiomId.PARTITION}


class TestRecheckEveryAxiom:
    """Every registry entry's recheck, on witnesses of perturbed datasets."""

    def test_corpus_reaches_every_axiom_and_shape(self, recheck_runs):
        shapes = {
            (report.axiom, frozenset(w.bindings))
            for _, _, _, report in recheck_runs
            for w in report.witnesses
        }
        assert {axiom for axiom, _ in shapes} == set(AxiomId)
        assert {keys for axiom, keys in shapes if axiom is AxiomId.SINGLETON} == {
            frozenset({"x", "S"}), frozenset({"T", "S"}), frozenset({"x", "y", "S", "S_prime"})
        }
        assert frozenset({"uncovered"}) in {k for a, k in shapes if a is AxiomId.PARTITION}

    def test_genuine_witnesses_pass(self, recheck_runs):
        for name, scc, carriers, report in recheck_runs:
            for witness in report.witnesses:
                assert recheck_witness(scc, witness, attributes=carriers), (name, witness)

    def test_tampered_lhs_rejected(self, recheck_runs):
        """A recorded lhs moved by 1/2 is refused, and so is an lhs or an
        rhs given to a witness of an axiom that records no value."""
        reached = set()
        for name, scc, carriers, report in recheck_runs:
            half = F(1, 2) if scc.exact else 0.5
            for witness in report.witnesses:
                if witness.lhs is None:
                    assert witness.axiom not in RECORDING_AXIOMS
                    fakes = (replace(witness, lhs=half), replace(witness, rhs=half))
                else:
                    fakes = (replace(witness, lhs=witness.lhs + half),)
                for fake in fakes:
                    assert not recheck_witness(scc, fake, attributes=carriers), (name, fake)
                reached.add((witness.axiom, frozenset(witness.bindings)))
        assert {axiom for axiom, _ in reached} == set(AxiomId)
        assert len({k for a, k in reached if a is AxiomId.SINGLETON}) == 3

    def test_forged_values_of_hand_picked_witnesses_rejected(self):
        """POS1 on two items whose {a, b} row is {b: 1}, DISTINCT_Q on nsc
        and PARTITION on rrm at n = 4 (seed 0): each witness is reported and
        rechecks, and with lhs 1/2 it does not."""
        two = SCC(Universe.default(2), {A: {A: F(1)}, B: {B: F(1)}, AB: {B: F(1)}})
        cases = [(two, Witness(AxiomId.POS1, {"x": A, "S": AB}))]
        for model, axiom, bindings in (
            (ModelTag.NSC, AxiomId.DISTINCT_Q, {"x": A, "y": B}),
            (ModelTag.RRM, AxiomId.PARTITION, {"T": A, "T_prime": AB}),
        ):
            scc = generate_scc(sample_params(GenConfig(4, model, seed=0)), Universe.default(4))
            cases.append((scc, Witness(axiom, bindings)))
        for scc, witness in cases:
            assert witness in run_axiom(scc, witness.axiom, cap=10**6).witnesses
            assert recheck_witness(scc, witness), witness
            assert not recheck_witness(scc, replace(witness, lhs=F(1, 2))), witness

    def test_tampered_bindings_rejected(self, recheck_runs):
        reached = set()
        for name, scc, carriers, report in recheck_runs:
            for witness in report.witnesses:
                bindings = TAMPERS[witness.axiom](report, witness.bindings)
                if bindings is None:
                    continue
                assert bindings != witness.bindings
                # no recorded sides, so only the bindings can fail the recheck
                fake = Witness(witness.axiom, bindings)
                assert not recheck_witness(scc, fake, attributes=carriers), (name, fake)
                reached.add((witness.axiom, frozenset(witness.bindings)))
        assert {axiom for axiom, _ in reached} == set(AxiomId)
        assert len({k for a, k in reached if a is AxiomId.SINGLETON}) == 3
        assert len({k for a, k in reached if a is AxiomId.PARTITION}) == 2

    def test_malformed_bindings_rejected(self, nsc_scc):
        rel_add = check_relative_additivity(nsc_scc).witnesses[0]
        distinct_q = run_axiom(nsc_scc, AxiomId.DISTINCT_Q).witnesses[0]
        b, q = rel_add.bindings, distinct_q.bindings
        for witness, bindings in (
            (rel_add, {**b, "T": b["x"]}),  # T leaves S\x
            (rel_add, {k: v for k, v in b.items() if k != "T"}),  # T missing
            (rel_add, {**b, "S": 0}),  # S\x is no menu
            (rel_add, {**b, "x": 0}),  # x is no item
            (distinct_q, {**q, "x": 0}),
            (distinct_q, {**q, "y": ABC}),
        ):
            fake = Witness(witness.axiom, bindings, witness.lhs, witness.rhs)
            assert recheck_witness(nsc_scc, fake) is False, bindings


class TestOneCapExit:
    """Every check hands its frame lazy streams of violations, and only
    _Collector.extend stops at the witness cap."""

    @pytest.mark.parametrize("cap", [1, 2, 10])
    def test_the_frame_records_only_the_witnesses(self, monkeypatch, recheck_runs, cap):
        """Every applicable check on the recheck corpus: the frame pulls
        exactly the witnesses it reports from the check's streams, and the
        report is the uncapped one cut to the cap."""
        recorded = _recordings(monkeypatch)
        cut = set()
        for name, scc, carriers, whole in recheck_runs:
            recorded.clear()
            report = run_axiom(scc, whole.axiom, attributes=carriers, cap=cap)
            case = (name, whole.axiom, cap)
            assert recorded == [w.bindings for w in report.witnesses], case
            assert report == replace(whole, witnesses=whole.witnesses[:cap]), case
            if len(whole.witnesses) > cap:
                cut.add(whole.axiom)
        # at each cap, the witnesses of checks that once recorded past it are cut
        assert {AxiomId.ADDITIVITY, AxiomId.IIS_O, AxiomId.SINGLETON} <= cut

    def test_extend_pulls_nothing_past_the_cap(self, nsc_scc):
        """Each stream fails if it is pulled once more than it holds: a
        frame of cap 2 takes both of one stream and pulls nothing from the
        next; one of cap 3 takes a stream of one, then two of the next."""
        pairs = [{"x": A, "y": B}, {"x": A, "y": C}, {"x": B, "y": C}]

        def stream(*violations):
            yield from violations
            raise AssertionError("a violation was pulled past the cap")

        for cap, streams in (
            (2, [stream(*pairs[:2]), stream(pairs[2])]),
            (3, [iter(pairs[:1]), stream(*pairs[1:]), stream(pairs[0])]),
        ):
            out = scclab.axioms._Collector(nsc_scc, AxiomId.DISTINCT_Q, cap)
            for violations in streams:
                out.extend(violations)
            report = out.report()
            assert not report.holds
            assert report.witnesses == tuple(Witness(AxiomId.DISTINCT_Q, b) for b in pairs[:cap])


class TestDispatcherAndBattery:
    def test_run_axiom_covers_every_id(self, nsc_scc):
        for axiom in AxiomId:
            if axiom in (AxiomId.IIS_O, AxiomId.ADDITIVITY):
                continue  # empty-collection postulates
            if axiom is AxiomId.POS2:
                report = run_axiom(nsc_scc, axiom, attributes=[AB, C])
            else:
                report = run_axiom(nsc_scc, axiom)
            assert report.axiom is axiom

    def test_battery_order_and_applicability(self, nsc_scc):
        reports = full_battery(nsc_scc)
        axioms = [r.axiom for r in reports]
        assert AxiomId.IIS_O not in axioms and AxiomId.ADDITIVITY not in axioms
        assert AxiomId.POS2 not in axioms
        assert axioms == sorted(axioms, key=list(AxiomId).index)
        with_attrs = full_battery(nsc_scc, attributes=[AB, C])
        assert AxiomId.POS2 in [r.axiom for r in with_attrs]

    def test_battery_on_empty_variant(self):
        params = RCGParams({AB: F(1, 2), C: F(1, 2)})
        scc = generate_scc(ModelSpec(ModelTag.RCG, params, empty_variant=True), U3)
        axioms = [r.axiom for r in full_battery(scc)]
        assert AxiomId.IIS_O in axioms and AxiomId.ADDITIVITY in axioms

    def test_characterizing_axioms_reads_the_table_or_refuses(self):
        assert len(CHARACTERIZING_AXIOMS) == 11
        for (model, empty), axioms in CHARACTERIZING_AXIOMS.items():
            assert characterizing_axioms(model, empty) is axioms
        with pytest.raises(WrongVariantError) as refusal:
            characterizing_axioms(ModelTag.RRM, True)
        assert str(refusal.value) == "rrm has no empty-collection variant"

    def test_witness_cap(self, nsc_scc):
        report = check_relative_additivity(nsc_scc, cap=1)
        assert not report.holds
        assert len(report.witnesses) == 1
        # the verdict and instance counts are unaffected by the cap
        full = check_relative_additivity(nsc_scc)
        assert report.instances_checked == full.instances_checked


#: The roles of each axiom's bindings that its instances treat alike, so
#: that a relabelling may swap them in the enumeration's order: the items of
#: a pair are compared as a set.
SYMMETRIC_ROLES = {
    AxiomId.IIS: (("T", "T_prime"), ("S", "S_prime")),
    AxiomId.IIS_O: (("S", "S_prime"),),
    AxiomId.REL_ADD: (("T", "T_prime"),),
    AxiomId.REL_ADD_1: (("T", "T_prime"),),
    AxiomId.PARTITION: (("T", "T_prime"),),
    AxiomId.DISTINCT_Q: (("x", "y"),),
    AxiomId.SINGLETON: (("x", "y"),),
}


def _relabelled(mask, perm):
    """``mask`` with item i renamed perm[i]."""
    return sum(1 << perm[i] for i in bits(mask))


def _relabelling_cases():
    """(name, scc, carriers, relabelled scc, its carriers, permutation): the
    first two criterion-2 bundles of each variant (seeds 2000 + index) at
    n = 3 and 4 and the first at n = 5, as generated and with a third of a
    cell's mass moved to the next cell inside a middle menu, exact and
    float, each beside a copy under a random relabelling of its items."""
    rng = random.Random(2900)
    cases = []
    for index, (model, empty) in enumerate(ALL_VARIANTS):
        first, second = (seed for _, seed, _ in _trials(2000 + index, 2, [3, 4]))
        for seed, n in [(first, 3), (second, 3), (first, 4), (second, 4), (first, 5)]:
            spec = sample_params(GenConfig(n, model, seed, empty))
            base = generate_scc(spec, Universe.default(n))
            carriers = _carriers_of(spec)
            perm = rng.sample(range(n), n)
            moved = _copy_rows(base, True)
            menus = [m for m in sorted(moved) if len(moved[m]) > 1]
            row = moved[menus[len(menus) // 2]]
            a, b = sorted(row)[:2]
            row[a], row[b] = row[a] - row[a] / 3, row[b] + row[a] / 3
            for shape, rows in (("clean", _copy_rows(base, True)), ("moved", moved)):
                for exact in (True, False):
                    cast = F if exact else float
                    cells = {m: {t: cast(p) for t, p in r.items()} for m, r in rows.items()}
                    other = {
                        _relabelled(m, perm): {_relabelled(t, perm): p for t, p in r.items()}
                        for m, r in cells.items()
                    }
                    cases.append((
                        f"{model.value}{'_o' if empty else ''}-n{n}-{seed}-{shape}-{exact}",
                        SCC(base.universe, cells, empty, exact),
                        carriers,
                        SCC(base.universe, other, empty, exact),
                        [_relabelled(c, perm) for c in carriers] if carriers else None,
                        perm,
                    ))
    return cases


class TestRelabelling:
    def test_reports_map_under_a_relabelling(self):
        """The postulates name no item, so a relabelling maps each instance
        to an instance: every uncapped report of the battery keeps its
        verdict, its counts and its number of witnesses, and its witnesses
        map onto the relabelled copy's, up to SYMMETRIC_ROLES.  Exempt:
        PIIS's checked count, which stage 2 stops at the first inconsistent
        edge in an order the labels fix, and its witness chains, whose
        references, and so which chains and how many are reported, depend
        on the order of the collections; its verdict and vacuous count are
        compared."""
        compared = Counter()
        for name, scc, carriers, other, other_carriers, perm in _relabelling_cases():
            reports = full_battery(scc, attributes=carriers, cap=10**6)
            mapped = full_battery(other, attributes=other_carriers, cap=10**6)
            for report, image in zip(reports, mapped, strict=True):
                axiom, case = report.axiom, (name, report.axiom)
                assert image.axiom is axiom and image.holds == report.holds, case
                assert image.instances_vacuous == report.instances_vacuous, case
                compared[axiom, report.holds] += 1
                if axiom is AxiomId.PIIS:
                    continue
                assert image.instances_checked == report.instances_checked, case
                assert len(image.witnesses) == len(report.witnesses), case

                def canonical(bindings, perm=None):
                    b = {k: _relabelled(v, perm) if perm else v for k, v in bindings.items()}
                    for pair in SYMMETRIC_ROLES.get(axiom, ()):
                        if all(role in b for role in pair):
                            b.update(zip(pair, sorted(b[role] for role in pair)))
                    return tuple(sorted(b.items()))

                witnesses = Counter(canonical(w.bindings, perm) for w in report.witnesses)
                assert witnesses == Counter(canonical(w.bindings) for w in image.witnesses), case
        # every axiom of the battery is compared, and all but POS1 and POS2,
        # which moved mass leaves holding, also fail somewhere
        failing = {axiom for axiom, holds in compared if not holds}
        assert {axiom for axiom, _ in compared} == set(AxiomId)
        assert failing == set(AxiomId) - {AxiomId.POS1, AxiomId.POS2}


FRAME_ATTRIBUTES = (AB, C)

#: Every registry entry through run_axiom, and every public check by name,
#: each called as ``check(scc, cap=...)``.
FRAMED = {
    **{
        f"run_axiom_{axiom.value}": partial(
            run_axiom, axiom=axiom, attributes=FRAME_ATTRIBUTES
        )
        for axiom in AXIOMS
    },
    "check_full_support": check_full_support,
    "check_iis": check_iis,
    "check_iis_o": partial(check_iis, empty_variant=True),
    "check_relative_additivity": check_relative_additivity,
    "check_additivity": check_additivity,
    **{
        f"check_positivity_{kind}": partial(
            check_positivity, kind=kind, attributes=FRAME_ATTRIBUTES
        )
        for kind in (1, 2, 3, 4)
    },
    "check_piis": check_piis,
    "check_paf": check_paf,
    "check_special_det": partial(check_special, kind=AxiomId.DET_FULL_CHOICE),
    "check_special_singleton": partial(check_special, kind=AxiomId.SINGLETON),
    "check_rrm_suite": check_rrm_suite,
    "check_nsc_structure": check_nsc_structure,
}


@pytest.mark.parametrize("name", FRAMED)
class TestFrame:
    """Every check, through the registry or by its public name, refuses an
    incomplete SCC and a witness cap below 1.  The data allow the empty
    collection, so that every check applies."""

    @staticmethod
    def _complete():
        params = RCGParams({AB: F(1, 2), C: F(1, 2)})
        return generate_scc(ModelSpec(ModelTag.RCG, params, empty_variant=True), U3)

    def test_incomplete_scc_is_refused(self, name):
        rows = dict(self._complete().rows)
        del rows[AB]
        with pytest.raises(IncompleteDatasetError):
            FRAMED[name](SCC(U3, rows, allows_empty=True))

    def test_cap_below_one_is_refused(self, name):
        with pytest.raises(ValueError, match="witness cap must be at least 1"):
            FRAMED[name](self._complete(), cap=0)


class TestMemo:
    def test_reports_are_reused_and_run_axiom_recomputes(self, nsc_scc):
        scc = SCC(U3, nsc_scc.rows)
        assert cached_report(scc, AxiomId.IIS) is cached_report(scc, AxiomId.IIS)
        assert run_axiom(scc, AxiomId.IIS) is not cached_report(scc, AxiomId.IIS)

    def test_cap_is_part_of_the_key(self, nsc_scc):
        scc = SCC(U3, nsc_scc.rows)
        assert len(cached_report(scc, AxiomId.REL_ADD, cap=1).witnesses) == 1
        assert len(cached_report(scc, AxiomId.REL_ADD).witnesses) > 1

    def test_revealed_structure_derived_once_per_battery(self, nsc_scc, monkeypatch):
        calls = []

        def counting(name):
            original = getattr(scclab.axioms, name)

            def counted(*args):
                calls.append(name)
                return original(*args)

            return counted

        for name in ("derive_revealed_constraints", "derive_revealed_nests"):
            monkeypatch.setattr(scclab.axioms, name, counting(name))
        scc = SCC(U3, nsc_scc.rows)
        full_battery(scc)
        for report in full_battery(scc):
            for witness in report.witnesses:
                assert recheck_witness(scc, witness)
        assert sorted(calls) == ["derive_revealed_constraints", "derive_revealed_nests"]

    def test_positivity_table_built_once_per_scc(self, nsc_scc, monkeypatch):
        spec = sample_params(GenConfig(4, ModelTag.LOGIT, seed=5200))
        logit = generate_scc(spec, Universe.default(4))
        tables = []
        build = scclab.axioms._positive_rows

        def recorded(scc):
            tables.append((scc, build(scc)))
            return tables[-1][1]

        monkeypatch.setattr(scclab.axioms, "_positive_rows", recorded)
        coarse = ToleranceConfig(eps_eq=1e-2)
        for data in (SCC(U3, nsc_scc.rows), logit):
            for tol in (DEFAULT_TOL, DEFAULT_TOL, coarse):
                full_battery(data, tol, attributes=[AB, C] if data.universe.n == 3 else None)
        # every reader of one SCC, at every tolerance, gets the one table built for it
        built = {}
        for scc, table in tables:
            built.setdefault(id(scc), set()).add(id(table))
        assert len(built) == 2  # two SCCs
        assert all(len(ids) == 1 for ids in built.values())
        assert len(set().union(*built.values())) == 2  # and only for them
        assert len(tables) > len(built)  # the table has several readers

    @pytest.mark.parametrize(
        "row,exact",
        [
            (row, exact)
            for row in (
                {1: 0.5, 2: 0.25, 3: 0.25},
                {1: 0, 2: -0.5, 3: 1.5},
                {1: -0.5, 2: 0, 3: 1.5},
                {1: 1e-12, 2: 0.5, 3: 0.5},
                {1: -1e-13, 2: 0.5, 3: 0.5},
                {},
            )
            for exact in (True, False)
        ]
        + [
            ({1: math.nan, 2: 0, 3: 1}, False),
            ({1: 0, 2: math.nan, 3: 1}, False),
            ({1: 0.5, 2: math.nan, 3: 0.5}, False),
            ({1: math.nan, 2: 0.5, 3: 0.5}, False),
        ],
    )
    def test_positivity_table_is_the_filtered_rows(self, row, exact):
        """On an unvalidated dict-built SCC the table is each scaled row
        filtered by is_positive, with a 0 beside a negative or a NaN cell
        too, and a row it holds itself loses nothing."""
        value = Fraction if exact else float
        cells = {t: value(p) for t, p in row.items()}
        scc = SCC(Universe.default(2), {1: {1: value(1)}, 2: {2: value(1)}, 3: cells}, exact=exact)
        rows = cached_scaled_rows(scc)[0]
        table = scclab.axioms._positive_rows(scc)
        assert table == {
            menu: {t: p for t, p in row.items() if is_positive(scc, p)}
            for menu, row in rows.items()
        }
        held = {menu for menu, row in rows.items() if table[menu] is row}
        assert held >= {1, 2}
        assert all(len(table[menu]) == len(rows[menu]) for menu in held)

    def test_support_structure_built_once_per_scc(self, nsc_scc, monkeypatch):
        """The revealed constraints, the revealed nests and the positivity
        table are properties of the data: each is built once per SCC, at
        any equality tolerance; the grand-row certificate reads eps_eq."""
        rows = {m: {t: float(p) for t, p in row.items()} for m, row in nsc_scc.rows.items()}
        rows[AB] = {A: 1e-11, AB: 1 - 1e-11}  # positive: above EPS_ZERO
        scc = SCC(U3, rows, exact=False)
        built = []
        memoized = scclab.axioms._memoized

        def recorded(scc, key, compute):
            return memoized(scc, key, lambda: built.append(key[0]) or compute())

        monkeypatch.setattr(scclab.axioms, "_memoized", recorded)
        for tol in (DEFAULT_TOL, ToleranceConfig(eps_eq=1e-2)):
            for report in full_battery(scc, tol, attributes=[AB, C]):
                for witness in report.witnesses:
                    assert recheck_witness(scc, witness, tol, [AB, C])
        for key in ("constraints", "nests", "positive_rows"):
            assert built.count(key) == 1, key
        assert built.count("grand_row") == 2
        assert cached_revealed_constraints(scc) == derive_revealed_constraints(scc)
        assert cached_revealed_constraints(scc)[0] == A  # b is no constraint of a


def _kernel_cases():
    """(name, SCC, attribute carriers): the criterion-2 fuzz bundles of all
    eleven variants at n = 4 and 5, and a logit dataset at n = 6 whose
    relative additivity fails far more often than the witness cap."""
    cases = []
    for index, (model, empty) in enumerate(ALL_VARIANTS):
        for n in (4, 5):
            config = GenConfig(n, model, seed=2000 + index, empty_variant=empty)
            spec = sample_params(config)
            attributes = getattr(spec.params, "attributes", None)
            carriers = [a.carrier for a in attributes] if attributes else None
            name = f"{model.value}{'_o' if empty else ''}-n{n}"
            cases.append((name, generate_scc(spec, Universe.default(n)), carriers))
    spec = sample_params(GenConfig(6, ModelTag.LOGIT, seed=2000))
    cases.append(("logit-n6", generate_scc(spec, Universe.default(6)), None))
    return cases


def _battery(scc, attributes):
    return [
        run_axiom(scc, axiom, attributes=attributes)
        for axiom, spec in AXIOMS.items()
        if spec.applies(scc, attributes)
    ]


@pytest.fixture(scope="module")
def kernel_runs():
    """Every applicable check per case, on the scaled integer rows and on the
    Fraction rows themselves (the accessor patched to return ``scc.rows``)."""
    runs = []
    for name, scc, carriers in _kernel_cases():
        kernel = _battery(scc, carriers)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(
                scclab.axioms,
                "cached_scaled_rows",
                lambda scc: (scc.rows, dict.fromkeys(scc.rows, 1)),
            )
            oracle = _battery(scc, carriers)
        runs.append((name, scc, carriers, kernel, oracle))
    return runs


class TestScaledRows:
    def test_reports_match_the_fraction_path(self, kernel_runs):
        for name, _, _, kernel, oracle in kernel_runs:
            for fast, slow in zip(kernel, oracle, strict=True):
                assert fast.holds == slow.holds, (name, fast.axiom)
                assert fast.witnesses == slow.witnesses, (name, fast.axiom)
                assert fast.instances_checked == slow.instances_checked, (name, fast.axiom)
                assert fast.instances_vacuous == slow.instances_vacuous, (name, fast.axiom)
                assert fast == slow, (name, fast.axiom)

    def test_witnesses_recheck(self, kernel_runs):
        for name, scc, carriers, kernel, _ in kernel_runs:
            for report in kernel:
                for witness in report.witnesses:
                    assert recheck_witness(scc, witness, attributes=carriers), (
                        name,
                        witness,
                    )

    def test_exact_witness_sides_are_fractions(self, kernel_runs):
        # format_prob writes an int as "3.0", so an int side would corrupt JSON
        kinds = set()
        for name, _, _, kernel, _ in kernel_runs:
            for report in kernel:
                for witness in report.witnesses:
                    kinds.add((report.axiom, frozenset(witness.bindings)))
                    for side in (witness.lhs, witness.rhs):
                        assert side is None or type(side) is Fraction, (name, witness)
        assert any(axiom is AxiomId.PIIS for axiom, _ in kinds)
        assert (AxiomId.SINGLETON, frozenset({"T", "S"})) in kinds

    def test_inputs_reach_past_the_cap(self, kernel_runs):
        name, scc, _, kernel, _ = kernel_runs[-1]
        rel_add = next(r for r in kernel if r.axiom is AxiomId.REL_ADD)
        assert len(rel_add.witnesses) == WITNESS_CAP
        longer = run_axiom(scc, AxiomId.REL_ADD, cap=10 * WITNESS_CAP)
        assert len(longer.witnesses) == 10 * WITNESS_CAP

    def test_float_rows_are_not_scaled(self, logit_scc):
        rows = {m: {t: float(p) for t, p in row.items()} for m, row in logit_scc.rows.items()}
        scc = SCC(U3, rows, exact=False)
        assert cached_scaled_rows(scc)[0] is scc.rows


#: Two items, each binary row one half: complete, with mu({a,b}, {a,b}) = 0.
HALVES = SCC(Universe.default(2), {A: {A: F(1)}, B: {B: F(1)}, AB: {A: F(1, 2), B: F(1, 2)}})
#: Two items and no binary menu, so no grand set either.
SINGLETONS = SCC(Universe.default(2), {A: {A: F(1)}, B: {B: F(1)}})

#: Calls no other test makes: (call, the error it raises and its message,
#: or False for a witness that recheck_witness must refuse).
UNREACHED = {
    "positivity_kind_5": (
        lambda: check_positivity(HALVES, kind=5),
        (ValueError, "positivity kind must be 1, 2, 3, or 4, got 5"),
    ),
    "special_pos1": (
        lambda: check_special(HALVES, AxiomId.POS1),
        (ValueError, "check_special handles DET_FULL_CHOICE and SINGLETON"),
    ),
    "constraints_without_binary_menu": (
        lambda: derive_revealed_constraints(SINGLETONS),
        (MissingBinaryMenuError, "binary menu .* is absent"),
    ),
    "nests_without_grand_set": (
        lambda: derive_revealed_nests(SINGLETONS),
        (MenuAbsentError, "grand-set row required"),
    ),
    # chain 1 passes through mu({a,b}, {a,b}) = 0
    "piis_chain_through_a_zero_cell": (
        lambda: recheck_witness(HALVES, Witness(AxiomId.PIIS, _chain_bindings(A, B, (AB, AB, AB), (B, AB, AB)))),
        False,
    ),
    # no clause of SINGLETON binds T, S and y
    "singleton_foreign_bindings": (
        lambda: recheck_witness(HALVES, Witness(AxiomId.SINGLETON, {"T": AB, "S": AB, "y": B})),
        False,
    ),
}


@pytest.mark.parametrize("call,outcome", UNREACHED.values(), ids=UNREACHED.keys())
def test_unreached_refusals(call, outcome):
    if outcome is False:
        assert call() is False
        return
    error, message = outcome
    with pytest.raises(error, match=message):
        call()
