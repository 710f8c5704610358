"""Axiom checks against hand-derived oracles on small universes.

The reference dataset is the worked two-nest example over {a,b,c}
(nests {a,b} | {c}, weights 1, 2, 4 | 3), whose violating instances of
relative additivity and the attention-filter condition were derived by
hand, fraction by fraction.
"""

from fractions import Fraction

import pytest

from scclab.core import (
    DEFAULT_TOL,
    MissingAttributesError,
    SCC,
    ToleranceConfig,
    Universe,
    WrongVariantError,
)
import scclab.axioms
from scclab.axioms import (
    AXIOMS,
    WITNESS_CAP,
    AxiomId,
    Witness,
    cached_report,
    cached_revealed_constraints,
    cached_scaled_rows,
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
from scclab.fuzz import ALL_VARIANTS, GenConfig, sample_params
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


class TestDerivedConsequences:
    """Monotonicity and the support-transfer property as diagnostics."""

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

    def test_witness_cap(self, nsc_scc):
        report = check_relative_additivity(nsc_scc, cap=1)
        assert not report.holds
        assert len(report.witnesses) == 1
        # the verdict and instance counts are unaffected by the cap
        full = check_relative_additivity(nsc_scc)
        assert report.instances_checked == full.instances_checked


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

    def test_tolerance_is_part_of_the_revealed_key(self, nsc_scc):
        rows = {m: {t: float(p) for t, p in row.items()} for m, row in nsc_scc.rows.items()}
        rows[AB] = {A: 1e-11, AB: 1 - 1e-11}
        scc = SCC(U3, rows, exact=False)
        coarse = ToleranceConfig(eps_zero=1e-10)
        fine, coarse_q = (derive_revealed_constraints(scc, t) for t in (DEFAULT_TOL, coarse))
        assert fine != coarse_q
        assert cached_revealed_constraints(scc, DEFAULT_TOL) == fine
        assert cached_revealed_constraints(scc, coarse) == coarse_q


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
