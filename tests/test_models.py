"""Model evaluators: hand-derived fixtures, validation, and equivalences."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from scclab.core import (
    InvalidParamsError,
    MissingWeightError,
    ShapeError,
    Universe,
    bits,
    nonempty_submasks,
    validate_scc,
)
from scclab.fuzz import GenConfig, sample_params
from scclab.models import (
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
}


@pytest.mark.parametrize("call", OUTSIDE_UNIVERSE.values(), ids=OUTSIDE_UNIVERSE.keys())
def test_menu_or_item_outside_universe_rejected(call):
    with pytest.raises(ShapeError):
        call()


class TestGenerateScc:
    """generate_scc yields complete, validation-clean datasets."""

    def test_uniform_ic(self):
        params = ICParams({i: F(1, 2) for i in range(3)})
        scc = generate_scc(ModelSpec(ModelTag.IC, params), U3)
        assert scc.is_complete()
        for menu in scc.menus():
            values = set(scc.rows[menu].values())
            assert len(values) == 1  # uniform over non-empty subsets

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
        row = menu_row(ModelSpec(ModelTag.NSC, NSC_EXAMPLE), AC)
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
# the draw-and-trace kernel against the per-model rows it replaced


def _div(num, den):
    if isinstance(num, (Fraction, int)) and isinstance(den, (Fraction, int)):
        return Fraction(num) / Fraction(den)
    return num / den


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


def _nl_row(params, menu, exact):
    acc = {}
    den = Fraction(0) if exact else 0.0
    for idx, nest in enumerate(params.nests):
        part = nest & menu
        if part:
            w = params.induced_weight(part, idx, exact)
            acc[part] = w
            den = den + w
    return {t: _div(w, den) for t, w in acc.items()}


#: Per set-draw model: the replaced row (as oracle) and a float copy of a bundle.
ORACLES = {
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

KERNEL_VARIANTS = [(model, False) for model in ORACLES] + [(ModelTag.RCG, True)]


def _kernel_bundles(model, empty):
    """(exact spec, its float copy, menus) of fuzz bundles at n = 2..6."""
    for n in range(2, 7):
        for seed in range(4):
            spec = sample_params(GenConfig(n, model, seed=700 + seed, empty_variant=empty))
            floated = ModelSpec(model, ORACLES[model][1](spec.params), empty)
            assert not floated.is_exact()
            yield spec, floated, range(1, 1 << n)


class TestDrawnRowKernel:
    @pytest.mark.parametrize(
        "model, empty", KERNEL_VARIANTS, ids=[m.value + "_o" * e for m, e in KERNEL_VARIANTS]
    )
    def test_rows_match_the_replaced_rows(self, model, empty):
        oracle = ORACLES[model][0]
        for spec, floated, menus in _kernel_bundles(model, empty):
            for menu in menus:
                assert menu_row(spec, menu) == oracle(spec, menu)
                if model is not ModelTag.RCG or empty:
                    # bit-identical, not merely close
                    assert menu_row(floated, menu) == oracle(floated, menu)

    def test_float_rcg_rows_are_float_eba_rows(self):
        for _, floated, menus in _kernel_bundles(ModelTag.RCG, False):
            aspects = tuple(Aspect(m, c) for c, m in floated.params.mass.items())
            eba = ModelSpec(ModelTag.EBA, EBAParams(aspects))
            for menu in menus:
                assert menu_row(floated, menu) == menu_row(eba, menu)


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
    p = Fraction(0)
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
        rho = Fraction(0)
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
