"""Model evaluators: hand-derived fixtures, validation, and equivalences."""

from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from scclab.core import (
    SCALED_ROWS,
    InvalidParamsError,
    MissingWeightError,
    ShapeError,
    Universe,
    bits,
    nonempty_submasks,
    reduce_row,
    scale_row,
    validate_scc,
)
from scclab.fuzz import ALL_VARIANTS, GenConfig, sample_params
from scclab.models import (
    _MENU_ROWS,
    ARParams,
    ArAttribute,
    Aspect,
    EBAParams,
    ICParams,
    LogitParams,
    ModelSpec,
    ModelTag,
    NSCParams,
    NestedLogitParams,
    RCGParams,
    RRMParams,
    eval_ar_item,
    evaluate,
    generate_scc,
    menu_row,
)

F = Fraction
U2 = Universe.default(2)
U3 = Universe.default(3)

# masks over {a, b, c}
A, B, C = 1, 2, 4
AB, AC, BC, ABC = 3, 5, 6, 7

# the worked NSC bundle: nests {a,b} | {c} with weights 1, 2, 4 | 3
NSC_EXAMPLE = NSCParams((AB, C), {A: F(1), B: F(2), AB: F(4), C: F(3)})


def logit_fixture():
    return LogitParams({A: F(2), B: F(1), AB: F(1)})


LOGIT_FIXTURE = ModelSpec(ModelTag.LOGIT, logit_fixture())


class TestLogit:
    def test_uniform_weights(self):
        spec = ModelSpec(ModelTag.LOGIT, LogitParams({A: F(1), B: F(1), AB: F(1)}))
        assert evaluate(spec, U2, A, AB) == F(1, 3)

    def test_fixture_row(self):
        assert evaluate(LOGIT_FIXTURE, U2, A, AB) == F(1, 2)
        assert evaluate(LOGIT_FIXTURE, U2, B, AB) == F(1, 4)
        assert evaluate(LOGIT_FIXTURE, U2, AB, AB) == F(1, 4)

    def test_single_collection_menu(self):
        assert evaluate(LOGIT_FIXTURE, U2, A, A) == F(1)

    def test_non_subset_rejected(self):
        with pytest.raises(ShapeError):
            evaluate(LOGIT_FIXTURE, U2, AB, A)

    def test_missing_weight(self):
        with pytest.raises(MissingWeightError):
            ModelSpec(ModelTag.LOGIT, LogitParams({A: F(1)})).validate(U2)

    def test_empty_variant_needs_empty_weight(self):
        with pytest.raises(MissingWeightError):
            ModelSpec(ModelTag.LOGIT, logit_fixture(), empty_variant=True).validate(U2)

    def test_empty_variant_denominator(self):
        params = LogitParams({A: F(2), B: F(1), AB: F(1)}, empty_weight=F(4))
        spec = ModelSpec(ModelTag.LOGIT, params, empty_variant=True)
        assert evaluate(spec, U2, A, AB) == F(1, 4)
        assert evaluate(spec, U2, 0, AB) == F(1, 2)

    def test_empty_collection_without_variant(self):
        with pytest.raises(ShapeError):
            evaluate(LOGIT_FIXTURE, U2, 0, AB)


class TestRCG:
    def test_fixture_row(self):
        params = RCGParams({AB: F(1, 2), C: F(1, 4), ABC: F(1, 4)})
        spec = ModelSpec(ModelTag.RCG, params)
        assert evaluate(spec, U3, A, AC) == F(1, 2)
        assert evaluate(spec, U3, C, AC) == F(1, 4)
        assert evaluate(spec, U3, AC, AC) == F(1, 4)

    def test_renormalization(self):
        # only one category meets the menu; its conditional probability is 1
        spec = ModelSpec(ModelTag.RCG, RCGParams({B: F(1, 2), AB: F(1, 2)}))
        assert evaluate(spec, U2, A, A) == F(1)

    def test_empty_variant_unnormalized(self):
        params = RCGParams({AB: F(1, 2), C: F(1, 2)})
        spec = ModelSpec(ModelTag.RCG, params, empty_variant=True)
        assert evaluate(spec, U3, 0, A) == F(1, 2)
        assert evaluate(spec, U3, A, A) == F(1, 2)

    def test_coverage_required(self):
        with pytest.raises(InvalidParamsError):
            ModelSpec(ModelTag.RCG, RCGParams({A: F(1)})).validate(U2)

    def test_mass_must_sum_to_one(self):
        with pytest.raises(InvalidParamsError):
            ModelSpec(ModelTag.RCG, RCGParams({AB: F(1, 2), C: F(1, 4)})).validate(U3)


class TestIC:
    def test_symmetric(self):
        spec = ModelSpec(ModelTag.IC, ICParams({0: F(1, 2), 1: F(1, 2)}))
        for t in (A, B, AB):
            assert evaluate(spec, U2, t, AB) == F(1, 3)

    def test_fixture_row(self):
        spec = ModelSpec(ModelTag.IC, ICParams({0: F(1, 2), 1: F(1, 3)}))
        assert evaluate(spec, U2, A, AB) == F(1, 2)
        assert evaluate(spec, U2, B, AB) == F(1, 4)
        assert evaluate(spec, U2, AB, AB) == F(1, 4)

    def test_empty_variant_bernoulli(self):
        params = ICParams({0: F(1, 2), 1: F(1, 3)})
        spec = ModelSpec(ModelTag.IC, params, empty_variant=True)
        assert evaluate(spec, U2, 0, A) == F(1, 2)
        assert evaluate(spec, U2, A, A) == F(1, 2)

    def test_open_unit_interval_enforced(self):
        with pytest.raises(InvalidParamsError):
            ModelSpec(ModelTag.IC, ICParams({0: F(1), 1: F(1, 2)})).validate(U2)
        with pytest.raises(InvalidParamsError):
            ModelSpec(ModelTag.IC, ICParams({0: F(0), 1: F(1, 2)})).validate(U2)

    def test_menu_row_validates_the_bundle(self):
        # items 1 and 2 have no inclusion probability
        spec = ModelSpec(ModelTag.IC, ICParams({0: F(1, 2)}))
        with pytest.raises(InvalidParamsError):
            menu_row(spec, U3, ABC)


class TestEBA:
    PARAMS = EBAParams((Aspect(F(3, 5), AB), Aspect(F(2, 5), C)))
    SPEC = ModelSpec(ModelTag.EBA, PARAMS)

    def test_fixture_row(self):
        assert evaluate(self.SPEC, U3, A, AC) == F(3, 5)
        assert evaluate(self.SPEC, U3, C, AC) == F(2, 5)

    def test_dead_attribute_renormalizes(self):
        assert evaluate(self.SPEC, U3, A, A) == F(1)

    def test_weights_sum_to_one(self):
        bad = EBAParams((Aspect(F(1, 2), AB), Aspect(F(1, 4), C)))
        with pytest.raises(InvalidParamsError):
            ModelSpec(ModelTag.EBA, bad).validate(U3)

    def test_no_empty_variant(self):
        with pytest.raises(InvalidParamsError):
            ModelSpec(ModelTag.EBA, self.PARAMS, empty_variant=True).validate(U3)


class TestAR:
    PARAMS = ARParams(
        (
            ArAttribute(F(1), AB, {0: 1, 1: 2}),
            ArAttribute(F(1), C, {2: 1}),
        )
    )

    def test_first_stage_fixture(self):
        spec = ModelSpec(ModelTag.AR, self.PARAMS)
        assert evaluate(spec, U3, AB, ABC) == F(1, 2)
        assert evaluate(spec, U3, C, ABC) == F(1, 2)

    def test_identical_carriers_pool(self):
        params = ARParams(
            (ArAttribute(F(1), A, {0: 1}), ArAttribute(F(2), A, {0: 3}))
        )
        spec = ModelSpec(ModelTag.AR, params)
        assert evaluate(spec, Universe.default(1), A, A) == F(1)

    def test_item_fixture(self):
        p_a, decomp_a = eval_ar_item(self.PARAMS, U3, 0, ABC)
        p_b, _ = eval_ar_item(self.PARAMS, U3, 1, ABC)
        p_c, _ = eval_ar_item(self.PARAMS, U3, 2, ABC)
        assert (p_a, p_b, p_c) == (F(1, 6), F(1, 3), F(1, 2))
        mu, rho = decomp_a[AB]
        assert mu == F(1, 2) and rho == F(1, 3)
        assert mu * rho == F(1, 6)

    def test_int_weights_stay_exact(self):
        """Int weights 1 and 2: every probability eval_ar_item and menu_row
        return is a Fraction, so the decomposition's exact check runs, and
        it recombines exactly (a float rho would skip that check)."""
        params = ARParams((ArAttribute(1, AB, {0: 1, 1: 2}), ArAttribute(2, BC, {1: 1, 2: 3})))
        spec = ModelSpec(ModelTag.AR, params)
        for menu in (AB, BC, ABC):
            assert all(type(p) is Fraction for p in menu_row(spec, U3, menu).values())
            for item in bits(menu):
                p, decomposition = eval_ar_item(params, U3, item, menu)
                values = [p, *(v for pair in decomposition.values() for v in pair)]
                assert all(type(v) is Fraction for v in values), (menu, item)
                assert p == sum(mu * rho for mu, rho in decomposition.values())

    def test_item_identity(self):
        # p(x, S) equals the mu-weighted second-stage mixture, exactly
        for menu in nonempty_submasks(ABC):
            for x in range(3):
                if not menu & (1 << x):
                    continue
                p, decomp = eval_ar_item(self.PARAMS, U3, x, menu)
                assert p == sum(mu * rho for mu, rho in decomp.values())

    def test_second_stage_normalizes(self):
        _, decomp = eval_ar_item(self.PARAMS, U3, 0, ABC)
        for t, (mu, _) in decomp.items():
            if mu > 0:
                total = sum(
                    eval_ar_item(self.PARAMS, U3, y, ABC)[1][t][1]
                    for y in range(3)
                    if t & (1 << y)
                )
                assert total == 1

    def test_item_values_must_match_carrier(self):
        with pytest.raises(InvalidParamsError):
            ModelSpec(
                ModelTag.AR, ARParams((ArAttribute(F(1), AB, {0: 1}),))
            ).validate(U2)


class TestRRM:
    # grand set {x, y}: y is always appealing, x only from itself
    U = Universe.from_labels(["x", "y"])
    PARAMS = RRMParams({0: F(1), 1: F(1)}, {0: 3, 1: 2})
    SPEC = ModelSpec(ModelTag.RRM, PARAMS)

    def test_reference_table_row(self):
        assert evaluate(self.SPEC, self.U, 3, 3) == F(1, 2)
        assert evaluate(self.SPEC, self.U, 2, 3) == F(1, 2)
        assert evaluate(self.SPEC, self.U, 1, 3) == F(0)

    def test_identity_constraints_give_singleton_weights(self):
        params = RRMParams({0: F(2), 1: F(3), 2: F(5)}, {0: A, 1: B, 2: C})
        spec = ModelSpec(ModelTag.RRM, params)
        assert evaluate(spec, U3, A, ABC) == F(2, 10)
        assert evaluate(spec, U3, B, AC | B) == F(3, 10)
        assert evaluate(spec, U3, C, BC) == F(5, 8)

    def test_singleton_menu(self):
        assert evaluate(self.SPEC, self.U, 1, 1) == F(1)

    def test_constraints_must_be_distinct(self):
        with pytest.raises(InvalidParamsError):
            ModelSpec(
                ModelTag.RRM, RRMParams({0: F(1), 1: F(1)}, {0: 3, 1: 3})
            ).validate(U2)

    def test_reference_must_belong(self):
        with pytest.raises(InvalidParamsError):
            ModelSpec(
                ModelTag.RRM, RRMParams({0: F(1), 1: F(1)}, {0: 2, 1: 3})
            ).validate(U2)


class TestNSC:
    def test_example_rows(self):
        spec = ModelSpec(ModelTag.NSC, NSC_EXAMPLE)
        assert evaluate(spec, U3, A, AC) == F(1, 4)
        assert evaluate(spec, U3, C, AC) == F(3, 4)
        assert evaluate(spec, U3, AB, ABC) == F(4, 7)
        assert evaluate(spec, U3, C, ABC) == F(3, 7)
        assert evaluate(spec, U3, B, BC) == F(2, 5)

    def test_single_nest_is_deterministic_full_choice(self):
        params = NSCParams((ABC,), {t: F(1) for t in nonempty_submasks(ABC)})
        spec = ModelSpec(ModelTag.NSC, params)
        for menu in nonempty_submasks(ABC):
            assert evaluate(spec, U3, menu, menu) == F(1)

    def test_partition_required(self):
        with pytest.raises(InvalidParamsError):
            ModelSpec(
                ModelTag.NSC, NSCParams((AB, BC), {t: F(1) for t in range(1, 8)})
            ).validate(U3)
        with pytest.raises(InvalidParamsError):
            ModelSpec(
                ModelTag.NSC, NSCParams((AB,), {A: F(1), B: F(1), AB: F(1)})
            ).validate(U3)

    def test_weight_needed_on_every_nest_subset(self):
        with pytest.raises(MissingWeightError):
            ModelSpec(
                ModelTag.NSC, NSCParams((AB, C), {AB: F(1), C: F(1)})
            ).validate(U3)


class TestNestedLogit:
    PARAMS = NestedLogitParams((AB, C), {0: F(1), 1: F(1), 2: F(3)}, (F(2), F(1)))

    def test_power_weights(self):
        spec = ModelSpec(ModelTag.NESTED_LOGIT, self.PARAMS)
        assert evaluate(spec, U3, AB, ABC) == F(4, 7)
        assert evaluate(spec, U3, C, ABC) == F(3, 7)

    def test_exponent_one_additive(self):
        params = NestedLogitParams((AB, C), {0: F(1), 1: F(2), 2: F(3)}, (F(1), F(1)))
        spec = ModelSpec(ModelTag.NESTED_LOGIT, params)
        assert evaluate(spec, U3, AB, ABC) == F(1, 2)

    def test_rational_utilities_over_unequal_exponents(self):
        # {a,b} weighs (1/2 + 1/3)^2 = 25/36 against 3/4 = 27/36 for {c};
        # an exponent of 2.0 is an integer, so the bundle stays exact
        params = NestedLogitParams((AB, C), {0: F(1, 2), 1: F(1, 3), 2: F(3, 4)}, (2.0, 1))
        spec = ModelSpec(ModelTag.NESTED_LOGIT, params)
        assert evaluate(spec, U3, AB, ABC) == F(25, 52)
        assert evaluate(spec, U3, A, AC) == F(1, 4)
        scc = generate_scc(spec, U3)
        assert scc.exact and scc.rows == {m: _nl_row(params, m, True) for m in range(1, 8)}

    def test_integer_exponents_stay_exact(self):
        scc = generate_scc(ModelSpec(ModelTag.NESTED_LOGIT, self.PARAMS), U3)
        assert scc.exact and scc.mode_notes == ()

    def test_mode_note_names_only_an_exponent_fallback(self):
        float_logit = LogitParams({A: 0.5, B: 0.25, AB: 0.25})
        scc = generate_scc(ModelSpec(ModelTag.LOGIT, float_logit), U2)
        assert not scc.exact and scc.mode_notes == ()
        float_utilities = NestedLogitParams((AB, C), {0: 1.0, 1: 1.0, 2: 3.0}, (2, 1))
        scc = generate_scc(ModelSpec(ModelTag.NESTED_LOGIT, float_utilities), U3)
        assert not scc.exact and scc.mode_notes == ()
        fractional = NestedLogitParams((AB, C), {0: F(1), 1: F(1), 2: F(3)}, (F(3, 2), 1))
        scc = generate_scc(ModelSpec(ModelTag.NESTED_LOGIT, fractional), U3)
        assert scc.mode_notes == ("non-integer nest exponent: evaluated in float mode",)

    def test_non_integer_exponent_degrades_to_float(self):
        params = NestedLogitParams(
            (AB, C), {0: F(1), 1: F(1), 2: F(3)}, (F(3, 2), F(1))
        )
        scc = generate_scc(ModelSpec(ModelTag.NESTED_LOGIT, params), U3)
        assert not scc.exact
        assert scc.arithmetic_mode == "float"
        assert any("float" in note for note in scc.mode_notes)
        assert scc.rows[ABC][AB] == pytest.approx(2.0**1.5 / (2.0**1.5 + 3.0))


OUTSIDE_UNIVERSE = {
    "rcg_menu_past_full": lambda: evaluate(
        ModelSpec(ModelTag.RCG, RCGParams({AB: F(1, 2), C: F(1, 4), ABC: F(1, 4)})),
        U3, A, 0b1001,
    ),
    "nsc_negative_menu": lambda: evaluate(ModelSpec(ModelTag.NSC, NSC_EXAMPLE), U3, C, -4),
    "ic_menu_past_full": lambda: evaluate(
        ModelSpec(ModelTag.IC, ICParams({0: F(1, 2), 1: F(1, 3), 2: F(2, 3)})),
        U3, 0b1000, 0b1000,
    ),
    "rrm_menu_past_full": lambda: evaluate(
        ModelSpec(ModelTag.RRM, RRMParams({0: F(1), 1: F(2), 2: F(3)}, {0: 3, 1: 2, 2: 6})),
        U3, 0b1000, 0b1000,
    ),
    "ar_item_past_n": lambda: eval_ar_item(TestAR.PARAMS, U3, 3, 0b1001),
    "ar_item_negative": lambda: eval_ar_item(TestAR.PARAMS, U3, -1, ABC),
    "row_negative_menu": lambda: menu_row(ModelSpec(ModelTag.NSC, NSC_EXAMPLE), U3, -1),
    "ic_row_past_full": lambda: menu_row(
        ModelSpec(ModelTag.IC, ICParams({0: F(1, 2), 1: F(1, 3), 2: F(2, 3)})), U3, 0b1000
    ),
    "rcg_row_past_full": lambda: menu_row(
        ModelSpec(ModelTag.RCG, RCGParams({AB: F(1, 2), C: F(1, 4), ABC: F(1, 4)})),
        U3, 0b1001,
    ),
}


@pytest.mark.parametrize("call", OUTSIDE_UNIVERSE.values(), ids=OUTSIDE_UNIVERSE.keys())
def test_menu_or_item_outside_universe_rejected(call):
    with pytest.raises(ShapeError):
        call()


def _logit_weights(key=ABC, weight=F(1)):
    """Weight 1 on each non-empty collection over {a,b,c} but {a,b,c}, and
    ``weight`` on ``key``."""
    return {**dict.fromkeys(nonempty_submasks(ABC)[:-1], F(1)), key: weight}


#: Bundles and calls that validation refuses, with the error and message.
REFUSED = {
    "draws_empty_set": (
        lambda: RCGParams({0: F(1, 2), ABC: F(1, 2)}).validate(U3),
        InvalidParamsError, "invalid category 0",
    ),
    "draws_outside_universe": (
        lambda: RCGParams({0b1001: F(1, 2), ABC: F(1, 2)}).validate(U3),
        InvalidParamsError, "invalid category 9",
    ),
    "draws_nonpositive_weight": (
        lambda: RCGParams({AB: F(0), ABC: F(1)}).validate(U3),
        InvalidParamsError, r"weight of category \('a', 'b'\) must be positive",
    ),
    "logit_empty_key": (
        lambda: LogitParams(_logit_weights(key=0)).validate(U3),
        InvalidParamsError, "invalid collection key 0",
    ),
    "logit_key_outside_universe": (
        lambda: LogitParams(_logit_weights(key=0b1000)).validate(U3),
        InvalidParamsError, "invalid collection key 8",
    ),
    "logit_nonpositive_weight": (
        lambda: LogitParams(_logit_weights(weight=F(0))).validate(U3),
        InvalidParamsError, "weight of collection 7 must be positive",
    ),
    "logit_negative_empty_weight": (
        lambda: LogitParams(_logit_weights(), F(-1)).validate(U3, empty_variant=True),
        InvalidParamsError, "empty_weight must be non-negative",
    ),
    "eba_no_attributes": (
        lambda: EBAParams(()).validate(U3),
        InvalidParamsError, "at least one attribute required",
    ),
    "ar_no_attributes": (
        lambda: ARParams(()).validate(U3),
        InvalidParamsError, "at least one attribute required",
    ),
    "ar_zero_item_value": (
        lambda: ARParams((ArAttribute(F(1), ABC, {0: 1, 1: 0, 2: 1}),)).validate(U3),
        InvalidParamsError, "item values must be positive integers",
    ),
    "ar_fractional_item_value": (
        lambda: ARParams((ArAttribute(F(1), ABC, {0: 1, 1: 1.5, 2: 1}),)).validate(U3),
        InvalidParamsError, "item values must be positive integers",
    ),
    "rrm_item_missing": (
        lambda: RRMParams({0: F(1), 1: F(1)}, {0: A, 1: B}).validate(U3),
        InvalidParamsError, "salience and constraint set must be defined for every item",
    ),
    "rrm_nonpositive_salience": (
        lambda: RRMParams({0: F(1), 1: F(0), 2: F(1)}, {0: A, 1: B, 2: C}).validate(U3),
        InvalidParamsError, "salience of item 1 must be positive",
    ),
    "rrm_constraint_leaves_universe": (
        lambda: RRMParams({0: F(1), 1: F(1), 2: F(1)}, {0: 0b1001, 1: B, 2: C}).validate(U3),
        InvalidParamsError, "constraint set of item 0 leaves the universe",
    ),
    "partition_empty_nest": (
        lambda: NSCParams((0, ABC), {t: F(1) for t in nonempty_submasks(ABC)}).validate(U3),
        InvalidParamsError, "invalid nest 0",
    ),
    "partition_nest_outside_universe": (
        lambda: NSCParams((AB, 0b1100), NSC_EXAMPLE.nest_weights).validate(U3),
        InvalidParamsError, "invalid nest 12",
    ),
    "nsc_nonpositive_weight": (
        lambda: NSCParams((AB, C), {**NSC_EXAMPLE.nest_weights, B: F(0)}).validate(U3),
        InvalidParamsError, r"weight of \('b',\) must be positive",
    ),
    "nested_logit_exponent_count": (
        lambda: NestedLogitParams((AB, C), {0: 1, 1: 1, 2: 1}, (1,)).validate(U3),
        InvalidParamsError, "one exponent per nest required",
    ),
    "nested_logit_missing_utility": (
        lambda: NestedLogitParams((AB, C), {0: 1, 1: 1}, (1, 1)).validate(U3),
        InvalidParamsError, "utilities must be defined for every item",
    ),
    "nested_logit_nonpositive_utility": (
        lambda: NestedLogitParams((AB, C), {0: 1, 1: 0, 2: 1}, (1, 1)).validate(U3),
        InvalidParamsError, "utilities must be positive",
    ),
    "nested_logit_nonpositive_exponent": (
        lambda: NestedLogitParams((AB, C), {0: 1, 1: 1, 2: 1}, (1, 0)).validate(U3),
        InvalidParamsError, "exponents must be positive",
    ),
    "spec_wrong_params_class": (
        lambda: ModelSpec(ModelTag.RCG, logit_fixture()).validate(U2),
        InvalidParamsError, "model rcg expects RCGParams, got LogitParams",
    ),
    "ar_item_outside_menu": (
        lambda: eval_ar_item(TestAR.PARAMS, U3, 2, AB),
        ShapeError, "item must belong to the menu",
    ),
}


@pytest.mark.parametrize("call,error,message", REFUSED.values(), ids=REFUSED.keys())
def test_invalid_bundles_and_calls_are_refused(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_one_menu_message_names_no_bitmask():
    messages = set()
    for call in (
        lambda menu: menu_row(LOGIT_FIXTURE, U2, menu),
        lambda menu: evaluate(LOGIT_FIXTURE, U2, A, menu),
    ):
        for menu in (0, -1, 0b100):
            with pytest.raises(ShapeError) as err:
                call(menu)
            messages.add(str(err.value))
    assert messages == {"menu must be a non-empty subset of the universe"}


def test_nested_logit_mode_is_decided_per_dataset(monkeypatch):
    """generate_scc decides a nested-logit bundle's mode once per dataset, at
    n=5 (31 menus) as at n=3 (7 menus), and the SCC's flag is that decision."""
    calls = []
    is_exact = ModelSpec.is_exact

    def counted(spec):
        calls.append(spec)
        return is_exact(spec)

    monkeypatch.setattr(ModelSpec, "is_exact", counted)
    for n in (3, 5):
        spec = sample_params(GenConfig(n, ModelTag.NESTED_LOGIT, seed=800 + n))
        calls.clear()
        scc = generate_scc(spec, Universe.default(n))
        assert len(calls) == 1
        assert scc.exact is is_exact(spec)


class TestGenerateScc:
    """generate_scc yields complete, validation-clean datasets."""

    def test_uniform_ic(self):
        params = ICParams({i: F(1, 2) for i in range(3)})
        scc = generate_scc(ModelSpec(ModelTag.IC, params), U3)
        assert scc.is_complete()
        for menu in scc.menus():
            values = set(scc.rows[menu].values())
            assert len(values) == 1  # uniform over non-empty subsets

    def test_float_denominator_rounding_to_zero_is_refused(self):
        """A float ic rate of 1e-17 leaves the standard variant's
        denominator 1 - (1 - g) at 0.0 on the menu {a}."""
        spec = ModelSpec(ModelTag.IC, ICParams({0: 1e-17, 1: 0.5}))
        with pytest.raises(InvalidParamsError, match="denominator to 0"):
            generate_scc(spec, U2)
        with pytest.raises(InvalidParamsError, match="denominator to 0"):
            menu_row(spec, U2, A)
        # a menu whose denominator stays positive keeps its row
        assert menu_row(spec, U2, AB) == {A: 1e-17, B: 1.0, AB: 1e-17}

    def test_nsc_example_support_size(self):
        scc = generate_scc(ModelSpec(ModelTag.NSC, NSC_EXAMPLE), U3)
        assert validate_scc(scc) == []
        for menu in scc.menus():
            live_nests = sum(1 for nest in (AB, C) if nest & menu)
            assert len(scc.rows[menu]) == live_nests

    def test_rrm_table_row(self):
        u = Universe.from_labels(["x", "y"])
        spec = ModelSpec(ModelTag.RRM, TestRRM.PARAMS)
        scc = generate_scc(spec, u)
        assert scc.rows[3] == {2: F(1, 2), 3: F(1, 2)}

    def test_empty_variant_rows(self):
        params = RCGParams({AB: F(1, 2), C: F(1, 2)})
        scc = generate_scc(ModelSpec(ModelTag.RCG, params, empty_variant=True), U3)
        assert scc.allows_empty
        assert scc.rows[A] == {0: F(1, 2), A: F(1, 2)}
        assert validate_scc(scc) == []

    def test_every_model_validates_clean(self):
        specs = [
            ModelSpec(ModelTag.LOGIT, LogitParams({t: F(1 + t) for t in range(1, 8)})),
            ModelSpec(ModelTag.RCG, RCGParams({AB: F(1, 2), C: F(1, 4), ABC: F(1, 4)})),
            ModelSpec(ModelTag.IC, ICParams({0: F(1, 2), 1: F(1, 3), 2: F(2, 3)})),
            ModelSpec(ModelTag.EBA, TestEBA.PARAMS),
            ModelSpec(ModelTag.AR, TestAR.PARAMS),
            ModelSpec(ModelTag.RRM, RRMParams({0: F(1), 1: F(2), 2: F(3)}, {0: 3, 1: 2, 2: 6})),
            ModelSpec(ModelTag.NSC, NSC_EXAMPLE),
            ModelSpec(ModelTag.NESTED_LOGIT, TestNestedLogit.PARAMS),
        ]
        for spec in specs:
            scc = generate_scc(spec, U3)
            assert scc.is_complete()
            assert validate_scc(scc) == []

    def test_menu_row_matches_eval(self):
        row = menu_row(ModelSpec(ModelTag.NSC, NSC_EXAMPLE), U3, AC)
        assert row == {A: F(1, 4), C: F(3, 4)}


# ---------------------------------------------------------------------------
# extensional equivalences between model families

grid_fraction = st.fractions(
    min_value=F(1, 16), max_value=F(4), max_denominator=16
)


def normalize(values):
    total = sum(values)
    return [v / total for v in values]


@st.composite
def aspect_bundles(draw):
    """Random aspect systems over three items, coverage guaranteed."""
    k = draw(st.integers(min_value=1, max_value=4))
    carriers = [draw(st.integers(min_value=1, max_value=7)) for _ in range(k)]
    covered = 0
    for c in carriers:
        covered |= c
    carriers.extend(1 << i for i in range(3) if not covered & (1 << i))
    raw = [draw(grid_fraction) for _ in carriers]
    weights = normalize(raw)
    return tuple(Aspect(w, c) for w, c in zip(weights, carriers))


class TestEquivalences:
    """The extensional identities connecting the model families."""

    @given(aspect_bundles())
    @settings(max_examples=60, deadline=None)
    def test_eba_equals_induced_rcg(self, aspects):
        mass: dict[int, Fraction] = {}
        for aspect in aspects:
            mass[aspect.carrier] = mass.get(aspect.carrier, F(0)) + aspect.weight
        left = generate_scc(ModelSpec(ModelTag.EBA, EBAParams(aspects)), U3)
        right = generate_scc(ModelSpec(ModelTag.RCG, RCGParams(mass)), U3)
        assert left.rows == right.rows

    @given(aspect_bundles(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_ar_first_stage_equals_eba(self, aspects, data):
        attrs = tuple(
            ArAttribute(
                a.weight,
                a.carrier,
                {
                    i: data.draw(st.integers(min_value=1, max_value=9))
                    for i in range(3)
                    if a.carrier & (1 << i)
                },
            )
            for a in aspects
        )
        left = generate_scc(ModelSpec(ModelTag.AR, ARParams(attrs)), U3)
        right = generate_scc(ModelSpec(ModelTag.EBA, EBAParams(aspects)), U3)
        assert left.rows == right.rows

    @given(st.lists(st.fractions(min_value=F(1, 10), max_value=F(9, 10), max_denominator=10), min_size=3, max_size=3))
    @settings(max_examples=60, deadline=None)
    def test_ic_equals_product_form_logit(self, gammas):
        ic = ICParams(dict(enumerate(gammas)))
        weights = {}
        for t in nonempty_submasks(7):
            w = F(1)
            for i in range(3):
                w *= gammas[i] if t & (1 << i) else 1 - gammas[i]
            weights[t] = w
        left = generate_scc(ModelSpec(ModelTag.IC, ic), U3)
        right = generate_scc(ModelSpec(ModelTag.LOGIT, LogitParams(weights)), U3)
        assert left.rows == right.rows

    def test_nested_logit_is_nsc_with_induced_weights(self):
        params = TestNestedLogit.PARAMS
        induced = {A: F(1), B: F(1), AB: F(4), C: F(3)}
        left = generate_scc(ModelSpec(ModelTag.NESTED_LOGIT, params), U3)
        right = generate_scc(ModelSpec(ModelTag.NSC, NSCParams((AB, C), induced)), U3)
        assert left.rows == right.rows


class TestMonotonicity:
    """Adding an alternative weakly lowers each surviving collection's odds."""

    @pytest.mark.parametrize(
        "spec",
        [
            ModelSpec(ModelTag.RCG, RCGParams({AB: F(1, 2), C: F(1, 4), ABC: F(1, 4)})),
            ModelSpec(ModelTag.IC, ICParams({0: F(1, 2), 1: F(1, 3), 2: F(3, 4)})),
            ModelSpec(ModelTag.EBA, TestEBA.PARAMS),
            ModelSpec(ModelTag.AR, TestAR.PARAMS),
        ],
        ids=["rcg", "ic", "eba", "ar"],
    )
    def test_category_style_models_are_monotone(self, spec):
        scc = generate_scc(spec, U3)
        for menu in scc.menus():
            for x in range(3):
                bit = 1 << x
                if not menu & bit or menu == bit:
                    continue
                smaller = menu & ~bit
                for t in nonempty_submasks(smaller):
                    assert scc.rows[menu].get(t, F(0)) <= scc.rows[smaller].get(t, F(0))


# ---------------------------------------------------------------------------
# the row kernels against the per-model rows they replaced


def _div(num, den):
    if isinstance(num, (Fraction, int)) and isinstance(den, (Fraction, int)):
        return Fraction(num) / Fraction(den)
    return num / den


def _logit_row(params, menu, empty_variant):
    collections = nonempty_submasks(menu)
    den = sum(params.weights[t] for t in collections)
    row = {}
    if empty_variant:
        den = den + params.empty_weight
        if params.empty_weight > 0:
            row[0] = _div(params.empty_weight, den)
    for t in collections:
        row[t] = _div(params.weights[t], den)
    return row


def _ic_row(params, menu, empty_variant):
    members = list(bits(menu))
    none_mass = Fraction(1)
    for i in members:
        none_mass = none_mass * (1 - params.inclusion[i])
    row = {}
    for t in nonempty_submasks(menu):
        p = Fraction(1)
        for i in members:
            g = params.inclusion[i]
            p = p * (g if t & (1 << i) else 1 - g)
        row[t] = p
    if empty_variant:
        row[0] = none_mass
        return row
    den = 1 - none_mass
    return {t: _div(p, den) for t, p in row.items()}


def _rcg_row(params, menu, empty_variant):
    acc = {}
    for cat, m in params.mass.items():
        t = cat & menu
        acc[t] = acc.get(t, Fraction(0)) + m
    if empty_variant:
        return {t: p for t, p in acc.items() if p > 0}
    acc.pop(0, None)
    den = sum(acc.values())
    return {t: _div(p, den) for t, p in acc.items()}


def _weighted_intersections(pairs, menu):
    acc = {}
    live = Fraction(0)
    for weight, carrier in pairs:
        t = carrier & menu
        if t:
            acc[t] = acc.get(t, Fraction(0)) + weight
            live = live + weight
    return acc, live


def _attribute_row(params, menu):
    acc, live = _weighted_intersections(
        [(a.weight, a.carrier) for a in params.attributes], menu
    )
    return {t: _div(w, live) for t, w in acc.items()}


def _rrm_row(params, menu):
    acc = {}
    den = Fraction(0)
    for i in bits(menu):
        s = params.salience[i]
        den = den + s
        t = params.constraints[i] & menu
        acc[t] = acc.get(t, Fraction(0)) + s
    return {t: _div(w, den) for t, w in acc.items()}


def _nsc_row(params, menu):
    acc = {}
    den = Fraction(0)
    for nest in params.nests:
        part = nest & menu
        if part:
            w = params.nest_weights[part]
            acc[part] = w
            den = den + w
    return {t: _div(w, den) for t, w in acc.items()}


def _induced_weight(params, part, nest_index, exact):
    total = Fraction(0) if exact else 0.0
    for i in bits(part):
        v = params.utilities[i]
        total = total + (v if exact else float(v))
    e = params.exponents[nest_index]
    if exact:
        return total ** int(e)
    return float(total) ** float(e)


def _nl_row(params, menu, exact):
    acc = {}
    den = Fraction(0) if exact else 0.0
    for idx, nest in enumerate(params.nests):
        part = nest & menu
        if part:
            w = _induced_weight(params, part, idx, exact)
            acc[part] = w
            den = den + w
    return {t: _div(w, den) for t, w in acc.items()}


#: Per model: the replaced row (as oracle) and a float copy of a bundle.
ORACLES = {
    ModelTag.LOGIT: (
        lambda spec, menu: _logit_row(spec.params, menu, spec.empty_variant),
        lambda p: LogitParams(
            {t: float(w) for t, w in p.weights.items()},
            None if p.empty_weight is None else float(p.empty_weight),
        ),
    ),
    ModelTag.IC: (
        lambda spec, menu: _ic_row(spec.params, menu, spec.empty_variant),
        lambda p: ICParams({x: float(g) for x, g in p.inclusion.items()}),
    ),
    ModelTag.RCG: (
        lambda spec, menu: _rcg_row(spec.params, menu, spec.empty_variant),
        lambda p: RCGParams({c: float(m) for c, m in p.mass.items()}),
    ),
    ModelTag.EBA: (
        lambda spec, menu: _attribute_row(spec.params, menu),
        lambda p: EBAParams(tuple(Aspect(float(a.weight), a.carrier) for a in p.attributes)),
    ),
    ModelTag.AR: (
        lambda spec, menu: _attribute_row(spec.params, menu),
        lambda p: ARParams(
            tuple(ArAttribute(float(a.weight), a.carrier, a.item_values) for a in p.attributes)
        ),
    ),
    ModelTag.RRM: (
        lambda spec, menu: _rrm_row(spec.params, menu),
        lambda p: RRMParams({x: float(s) for x, s in p.salience.items()}, p.constraints),
    ),
    ModelTag.NSC: (
        lambda spec, menu: _nsc_row(spec.params, menu),
        lambda p: NSCParams(p.nests, {t: float(w) for t, w in p.nest_weights.items()}),
    ),
    ModelTag.NESTED_LOGIT: (
        lambda spec, menu: _nl_row(spec.params, menu, spec.is_exact()),
        lambda p: NestedLogitParams(
            p.nests, {x: float(v) for x, v in p.utilities.items()}, p.exponents
        ),
    ),
}

KERNEL_VARIANTS = [(model, False) for model in ORACLES] + [
    (model, True) for model in (ModelTag.LOGIT, ModelTag.RCG, ModelTag.IC)
]


def _recovered_logit(params, seed):
    """Sampled logit weights over their total, as a recovery writes them, so
    that exact weights have denominators and float sums round; seed 0 gets a
    zero empty weight, which its rows leave out."""
    empty = params.empty_weight
    if empty is not None and seed == 0:
        empty = 0
    total = sum(params.weights.values()) + (empty or 0)
    return LogitParams(
        {t: F(w, total) for t, w in params.weights.items()},
        None if empty is None else F(empty, total),
    )


def _kernel_bundles(model, empty):
    """(exact spec, its float copy, universe) of fuzz bundles at n = 2..6."""
    for n in range(2, 7):
        for seed in range(4):
            spec = sample_params(GenConfig(n, model, seed=700 + seed, empty_variant=empty))
            if model is ModelTag.LOGIT:
                spec = ModelSpec(model, _recovered_logit(spec.params, seed), empty)
            floated = ModelSpec(model, ORACLES[model][1](spec.params), empty)
            assert not floated.is_exact()
            yield spec, floated, Universe.default(n)


class TestDrawnRowKernel:
    @pytest.mark.parametrize(
        "model, empty", KERNEL_VARIANTS, ids=[m.value + "_o" * e for m, e in KERNEL_VARIANTS]
    )
    def test_rows_match_the_replaced_rows(self, model, empty):
        oracle = ORACLES[model][0]
        for spec, floated, universe in _kernel_bundles(model, empty):
            for menu in range(1, universe.full_mask + 1):
                assert menu_row(spec, universe, menu) == oracle(spec, menu)
                if model is not ModelTag.RCG or empty:
                    # bit-identical, not merely close
                    assert menu_row(floated, universe, menu) == oracle(floated, menu)

    @pytest.mark.parametrize("empty", [False, True], ids=["standard", "empty"])
    def test_mixed_bundles_match_the_replaced_rows(self, empty):
        """Bundles mixing Fraction and float literals run in float mode, on
        the replaced rows' operands in their order of operations."""
        mixed = {
            ModelTag.LOGIT: lambda p: LogitParams(
                {t: float(w) if t & 1 else w for t, w in p.weights.items()}, p.empty_weight
            ),
            ModelTag.IC: _first_rate_floated,
        }
        for model, copy in mixed.items():
            for spec, _, universe in _kernel_bundles(model, empty):
                spec = ModelSpec(model, copy(spec.params), empty)
                assert not spec.is_exact()
                for menu in range(1, universe.full_mask + 1):
                    expected = {t: float(p) for t, p in ORACLES[model][0](spec, menu).items()}
                    assert menu_row(spec, universe, menu) == expected

    def test_float_rcg_rows_are_float_eba_rows(self):
        for _, floated, universe in _kernel_bundles(ModelTag.RCG, False):
            aspects = tuple(Aspect(m, c) for c, m in floated.params.mass.items())
            eba = ModelSpec(ModelTag.EBA, EBAParams(aspects))
            for menu in range(1, universe.full_mask + 1):
                assert menu_row(floated, universe, menu) == menu_row(eba, universe, menu)


def test_exact_rows_cost_no_fraction_arithmetic_per_cell(monkeypatch):
    """Exact kernels compute in ints and build each cell once: generating an
    n=6 dataset takes fewer Fraction operations than it has menus."""
    universe = Universe.default(6)
    specs = [
        sample_params(GenConfig(6, model, seed=1700, empty_variant=empty))
        for model, empty in ALL_VARIANTS
    ]
    assert len(specs) == 11
    calls = []
    for op in ("add", "sub", "mul", "truediv"):
        for name in (f"__{op}__", f"__r{op}__"):

            def counted(a, b, _original=getattr(Fraction, name)):
                calls.append(a)
                return _original(a, b)

            monkeypatch.setattr(Fraction, name, counted)
    for spec in specs:
        calls.clear()
        assert generate_scc(spec, universe).exact
        assert len(calls) < universe.full_mask, (spec.model, spec.empty_variant)


@pytest.mark.parametrize(
    "model, empty", ALL_VARIANTS, ids=[m.value + "_o" * e for m, e in ALL_VARIANTS]
)
def test_generated_memo_is_the_scaled_rows(model, empty):
    """The reduced rows generate_scc leaves in its memo are scale_row of its
    rows, numerators, denominators and cell order, at n = 1..6."""
    for n in range(1, 7):
        universe = Universe.default(n)
        for seed in range(3):
            spec = sample_params(GenConfig(n, model, seed=1900 + seed, empty_variant=empty))
            scc = generate_scc(spec, universe)
            assert scc.exact
            rows, dens = scc.memo[SCALED_ROWS]
            assert rows.keys() == scc.rows.keys()
            for menu, row in scc.rows.items():
                assert (rows[menu], dens[menu]) == scale_row(row), (n, seed, menu)
                assert list(rows[menu]) == list(row)


@pytest.mark.parametrize("empty", [False, True], ids=["standard", "empty"])
def test_reduced_rows_with_zero_cells_are_scaled_rows(monkeypatch, empty):
    """An inclusion rate of 1, outside the model, zeroes every cell without
    its item: reduce_row of each kernel row, zero cells kept, is scale_row
    of its Fractions, and generate_scc's memo, zero cells dropped, is
    scale_row of its rows."""
    spec = ModelSpec(ModelTag.IC, ICParams({0: F(1), 1: F(1, 3), 2: F(2, 5)}), empty)
    kernel = _MENU_ROWS[ModelTag.IC](spec, True)
    zeros = 0
    for menu in range(1, U3.full_mask + 1):
        cells, den = kernel(menu)
        zeros += list(cells.values()).count(0)
        assert reduce_row(cells, den) == scale_row({t: F(c, den) for t, c in cells.items()})
    assert zeros
    monkeypatch.setattr(ICParams, "validate", lambda self, universe: None)
    scc = generate_scc(spec, U3)
    rows, dens = scc.memo[SCALED_ROWS]
    for menu, row in scc.rows.items():
        assert (rows[menu], dens[menu]) == scale_row(row)


# ---------------------------------------------------------------------------
# eval_ar_item on the kernel against its hand-pooled form


def _ar_item_oracle(params, item, menu):
    bit = 1 << item
    live = Fraction(0)
    groups = {}
    for a in params.attributes:
        t = a.carrier & menu
        if t:
            live = live + a.weight
            groups.setdefault(t, []).append(a)
    zero = Fraction(0) if params.is_exact() else 0.0
    p = zero
    for t, attrs in groups.items():
        for a in attrs:
            value_total = sum(a.item_values[i] for i in bits(t))
            item_value = a.item_values.get(item, 0) if a.carrier & bit else 0
            if item_value:
                p = p + _div(a.weight, live) * Fraction(item_value, value_total)
    decomposition = {}
    for t, attrs in sorted(groups.items()):
        group_weight = sum(a.weight for a in attrs)
        mu = _div(group_weight, live)
        rho = zero
        if t & bit:
            for a in attrs:
                value_total = sum(a.item_values[i] for i in bits(t))
                item_value = a.item_values.get(item, 0)
                if item_value:
                    rho = rho + _div(a.weight, group_weight) * Fraction(item_value, value_total)
        decomposition[t] = (mu, rho)
    return p, decomposition


@pytest.mark.parametrize("n", range(1, 7))
def test_ar_item_matches_hand_pooled(n):
    universe = Universe.default(n)
    to_float = ORACLES[ModelTag.AR][1]
    for seed in range(40):
        exact = sample_params(GenConfig(n, ModelTag.AR, seed=seed)).params
        for params in (exact, to_float(exact)):
            for menu in range(1, 1 << n):
                for x in bits(menu):
                    got = eval_ar_item(params, universe, x, menu)
                    # repr: the same values of the same types, bit for bit
                    assert repr(got) == repr(_ar_item_oracle(params, x, menu))


# ---------------------------------------------------------------------------
# one arithmetic mode per bundle, whichever function reads it

def _first_rate_floated(p):
    """An ic bundle mixing literal kinds: only item 0's rate is a float."""
    return ICParams({x: float(g) if x == 0 else g for x, g in p.inclusion.items()})


def _last_weight_floated(p):
    """An ar bundle mixing literal kinds: only the last attribute's weight is
    a float, so the menus that its carrier misses meet rational weights only."""
    *rational, last = p.attributes
    return ARParams((*rational, replace(last, weight=float(last.weight))))


#: The mixed ar bundle on {a, b, c}: a float weight on {c} alone.
MIXED_AR = ARParams(
    (ArAttribute(F(1, 2), A | B, {0: 1, 1: 2}), ArAttribute(0.5, C, {2: 3}))
)


def _mode_bundles():
    """(spec, universe, mode) for fuzz bundles of all eleven variants at
    n = 1..4: exact, as float copies and, for ic and ar, with one float
    rate or weight among rationals; and MIXED_AR."""
    mixers = {ModelTag.IC: _first_rate_floated, ModelTag.AR: _last_weight_floated}
    for model, empty in ALL_VARIANTS:
        for n in range(1, 5):
            universe = Universe.default(n)
            spec = sample_params(GenConfig(n, model, seed=900 + n, empty_variant=empty))
            yield spec, universe, Fraction
            yield ModelSpec(model, ORACLES[model][1](spec.params), empty), universe, float
            if model in mixers:
                mixed = mixers[model](spec.params)
                yield ModelSpec(model, mixed, empty), universe, float
    yield ModelSpec(ModelTag.AR, MIXED_AR), U3, float


def test_row_evaluate_and_dataset_share_the_mode():
    """menu_row, evaluate and generate_scc agree cell for cell, in type as
    well as value, and every cell is in the bundle's mode, as is every value
    eval_ar_item gives for an ar bundle."""
    for spec, universe, mode in _mode_bundles():
        scc = generate_scc(spec, universe)
        assert scc.exact == (mode is Fraction)
        for menu in range(1, universe.full_mask + 1):
            row = menu_row(spec, universe, menu)
            assert {type(p) for p in row.values()} == {mode}, (spec, menu)
            kept = {t: p for t, p in sorted(row.items()) if p > 0}
            assert repr(scc.rows[menu]) == repr(kept), (spec, menu)
            start = 0 if spec.empty_variant else 1
            for t in range(start, menu + 1):
                if t & ~menu:
                    continue
                value = evaluate(spec, universe, t, menu)
                assert repr(value) == repr(row.get(t, mode(0))), (spec, menu, t)
            if spec.model is ModelTag.AR:
                for x in bits(menu):
                    p, decomposition = eval_ar_item(spec.params, universe, x, menu)
                    values = [p, *(v for pair in decomposition.values() for v in pair)]
                    assert {type(v) for v in values} == {mode}, (spec, menu, x)


def _sign_bundles():
    """(spec, universe) of the fuzz corpus, exact and float, at n = 1..6,
    and a float logit bundle whose cell for a on {a, b} underflows to 0."""
    for model, empty in ALL_VARIANTS:
        for n in range(1, 7):
            universe = Universe.default(n)
            for seed in range(3):
                spec = sample_params(GenConfig(n, model, seed=seed, empty_variant=empty))
                yield spec, universe
                yield ModelSpec(model, ORACLES[model][1](spec.params), empty), universe
    yield ModelSpec(ModelTag.LOGIT, LogitParams({A: 1e-200, B: 1e200, AB: 1.0})), U2


def test_generated_cells_are_never_negative():
    """generate_scc drops zero cells on their truthiness, so it relies on no
    kernel yielding a negative cell: its rows are those of a ``p > 0``
    filter."""
    dropped = 0
    for spec, universe in _sign_bundles():
        scc = generate_scc(spec, universe)
        for menu in range(1, universe.full_mask + 1):
            row = menu_row(spec, universe, menu)
            assert all(p >= 0 for p in row.values()), (spec, menu)
            positive = {t: p for t, p in sorted(row.items()) if p > 0}
            assert repr(scc.rows[menu]) == repr(positive), (spec, menu)
            dropped += len(row) - len(positive)
    assert dropped == 1
