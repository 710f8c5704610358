"""Membership classification and cross-model consistency checks."""

from fractions import Fraction

import pytest

from scclab.axioms import AxiomId
from scclab.core import SCC, ToleranceConfig, Universe
from scclab.classify import (
    FAILS,
    HOLDS,
    MEMBERSHIP_KEYS,
    NOT_APPLICABLE,
    NOT_DECIDED,
    REL_IC_DECOMPOSITION,
    REL_REFERENCE_EXCLUSION,
    SMALL_UNIVERSE_FLAG,
    ClassificationReport,
    MembershipVerdict,
    classify,
    verify_relationships,
)
from scclab.models import (
    Aspect,
    EBAParams,
    ICParams,
    LogitParams,
    ModelSpec,
    ModelTag,
    NSCParams,
    RRMParams,
    generate_scc,
)

F = Fraction
U2 = Universe.default(2)
U3 = Universe.default(3)
A, B, C, AB, AC, BC, ABC = 1, 2, 4, 3, 5, 6, 7


@pytest.fixture(scope="module")
def nsc_report():
    spec = ModelSpec(
        ModelTag.NSC, NSCParams((AB, C), {A: F(1), B: F(2), AB: F(4), C: F(3)})
    )
    return classify(generate_scc(spec, U3))


@pytest.fixture(scope="module")
def ic_scc():
    spec = ModelSpec(ModelTag.IC, ICParams({0: F(1, 2), 1: F(1, 3), 2: F(2, 3)}))
    return generate_scc(spec, U3)


@pytest.fixture(scope="module")
def ic_report(ic_scc):
    return classify(ic_scc)


def doctored(report, **overrides):
    membership = dict(report.membership)
    for key, status in overrides.items():
        membership[key] = MembershipVerdict(status)
    return ClassificationReport(membership, dict(report.special), (), ())


class TestReportShape:
    def test_twelve_keys_in_declared_order(self):
        assert len(MEMBERSHIP_KEYS) == 12
        assert MEMBERSHIP_KEYS[:4] == ("logit", "rcg", "ic", "eba")
        assert MEMBERSHIP_KEYS[-3:] == ("logit_o", "rcg_o", "ic_o")

    def test_every_key_gets_a_verdict(self, ic_report):
        assert set(ic_report.membership) == set(MEMBERSHIP_KEYS)

    def test_special_flags_present(self, ic_report):
        assert set(ic_report.special) == {
            "DET_FULL_CHOICE",
            "SINGLETON",
            "PAF",
            "NEST_INVARIANT",
        }


class TestStandardClassification:
    def test_nested_example(self, nsc_report):
        m = nsc_report.membership
        assert m["nsc"].status == HOLDS
        for key in ("logit", "rcg", "ic", "rrm"):
            assert m[key].status == FAILS, key
        assert m[key].failing_axioms  # failures name the broken axioms
        # power-form weights cannot be settled from finite rational data
        assert m["nested_logit"].status == NOT_DECIDED
        assert m["logit_o"].status == NOT_APPLICABLE
        assert not nsc_report.relationship_violations

    def test_independent_inclusion_is_in_the_product_family(self, ic_report):
        m = ic_report.membership
        for key in ("logit", "rcg", "ic", "eba", "ar"):
            assert m[key].status == HOLDS, key
        assert m["nsc"].status == FAILS
        assert not ic_report.relationship_violations

    def test_special_flags_on_full_support_data(self, ic_report):
        assert ic_report.special["SINGLETON"] is False
        assert ic_report.special["NEST_INVARIANT"] is False
        assert ic_report.special["PAF"] is True  # vacuous: nothing ever drops out

    def test_exogenous_attributes(self):
        spec = ModelSpec(
            ModelTag.EBA,
            EBAParams((Aspect(F(3, 5), AB), Aspect(F(2, 5), C))),
        )
        scc = generate_scc(spec, U3)
        report = classify(scc, attributes=[AB, C])
        assert report.membership["eba_exogenous"].status == HOLDS
        wrong = classify(scc, attributes=[ABC])
        assert wrong.membership["eba_exogenous"].status == FAILS

    def test_exogenous_membership_needs_attributes(self, ic_report):
        assert ic_report.membership["eba_exogenous"].status == NOT_APPLICABLE


class TestTargetedClasses:
    def test_singleton_representation(self):
        params = RRMParams({0: F(1), 1: F(2), 2: F(3)}, {0: A, 1: B, 2: C})
        report = classify(generate_scc(ModelSpec(ModelTag.RRM, params), U3))
        assert report.special["SINGLETON"] is True
        for key in ("rrm", "nsc", "rcg", "nested_logit"):
            assert report.membership[key].status == HOLDS, key
        assert not report.relationship_violations

    def test_nest_invariant_representation(self):
        params = NSCParams((AB, C), {A: F(2), B: F(2), AB: F(2), C: F(5)})
        report = classify(generate_scc(ModelSpec(ModelTag.NSC, params), U3))
        assert report.special["NEST_INVARIANT"] is True
        assert report.membership["nsc"].status == HOLDS
        assert report.membership["rcg"].status == HOLDS
        assert not report.relationship_violations


class TestEmptyVariantClassification:
    def test_only_variant_keys_decided(self):
        params = ICParams({0: F(1, 2), 1: F(1, 3)})
        scc = generate_scc(ModelSpec(ModelTag.IC, params, empty_variant=True), U2)
        report = classify(scc)
        m = report.membership
        assert m["ic_o"].status == HOLDS
        assert m["logit_o"].status == HOLDS
        assert m["rcg_o"].status == HOLDS
        for key in MEMBERSHIP_KEYS[:-3]:
            assert m[key].status == NOT_APPLICABLE, key
        assert report.special["NEST_INVARIANT"] is False
        assert not report.relationship_violations


class TestSmallUniverse:
    def test_two_item_universe_is_flagged(self):
        params = LogitParams({A: F(2), B: F(1), AB: F(1)})
        report = classify(generate_scc(ModelSpec(ModelTag.LOGIT, params), U2))
        assert report.assumption_flags == (SMALL_UNIVERSE_FLAG,)
        assert not report.relationship_violations

    def test_three_item_universe_is_not(self, ic_report):
        assert ic_report.assumption_flags == ()


class TestRelationshipVerification:
    def test_clean_on_library_generated_data(self, ic_report, nsc_report):
        assert verify_relationships(ic_report) == []
        assert verify_relationships(nsc_report) == []

    def test_flags_fabricated_decomposition_break(self, ic_report):
        # ic cannot hold while the set-weight membership fails
        report = doctored(ic_report, logit=FAILS)
        assert REL_IC_DECOMPOSITION in verify_relationships(report)

    def test_flags_fabricated_exclusion_break(self, nsc_report):
        # nested data has restricted support, so full-support models are out
        report = doctored(nsc_report, logit=HOLDS)
        assert REL_REFERENCE_EXCLUSION in verify_relationships(report)

    def test_undecided_memberships_are_skipped(self, ic_report):
        membership = dict(ic_report.membership)
        membership["rrm"] = MembershipVerdict(FAILS)
        special = dict(ic_report.special, SINGLETON=True)
        decided = ClassificationReport(membership, special, (), ())
        fired = verify_relationships(decided)
        assert any("singleton" in name for name in fired)
        membership["rrm"] = MembershipVerdict(NOT_DECIDED)
        skipped = ClassificationReport(dict(membership), special, (), ())
        assert not any("rrm" in name for name in verify_relationships(skipped))


def _nudged_float_logit() -> SCC:
    """Float logit data with one binary-menu ratio off by about 1e-6."""
    weights = {A: F(4), B: F(2), C: F(1), AB: F(3), AC: F(2), BC: F(5), ABC: F(7)}
    exact = generate_scc(ModelSpec(ModelTag.LOGIT, LogitParams(weights)), U3)
    rows = {m: {t: float(p) for t, p in row.items()} for m, row in exact.rows.items()}
    rows[AB][A] += 1e-6
    rows[AB][B] -= 1e-6
    return SCC(U3, rows, exact=False)


class TestMemoizedClassification:
    def test_tolerance_is_part_of_the_key(self):
        loose, tight = ToleranceConfig(eps_eq=1e-3), ToleranceConfig()
        scc = _nudged_float_logit()
        reused = [classify(scc, tol=loose), classify(scc, tol=tight)]
        fresh = [classify(_nudged_float_logit(), tol=t) for t in (loose, tight)]
        assert reused == fresh
        assert reused[0].membership["logit"].holds
        assert not reused[1].membership["logit"].holds

    def test_attributes_are_part_of_the_key(self):
        spec = ModelSpec(
            ModelTag.EBA, EBAParams((Aspect(F(1, 2), AB), Aspect(F(1, 2), BC)))
        )
        scc = generate_scc(spec, U3)
        assert classify(scc).membership["eba_exogenous"].status == NOT_APPLICABLE
        own = classify(scc, attributes=[AB, BC]).membership["eba_exogenous"]
        assert own.status == HOLDS
        other = classify(scc, attributes=[A, B, C]).membership["eba_exogenous"]
        assert other == MembershipVerdict(FAILS, (AxiomId.POS2,))
