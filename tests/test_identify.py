"""Constructive parameter recovery and round-trip verification."""

from fractions import Fraction

import pytest

from scclab.core import (
    DEFAULT_TOL,
    InvalidParamsError,
    MissingWeightError,
    PreconditionFailedError,
    SCC,
    Universe,
    WrongVariantError,
    probs_equal,
    validate_scc,
)
from scclab.axioms import SELF_CHARACTERIZED, AxiomId, cached_scaled_rows, run_axiom
from scclab.fuzz import ALL_VARIANTS, GenConfig, sample_params
from scclab.identify import (
    RECOVERIES,
    _finish,
    identify_ic,
    identify_logit,
    identify_nsc,
    identify_rcg,
    identify_rrm,
)
from scclab.models import (
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
U2 = Universe.default(2)
U3 = Universe.default(3)
A, B, C, AB, AC, BC, ABC = 1, 2, 4, 3, 5, 6, 7


class TestLogitRecovery:
    def test_grand_row_normalization(self):
        params = LogitParams({A: F(2), B: F(1), AB: F(1)})
        scc = generate_scc(ModelSpec(ModelTag.LOGIT, params), U2)
        result = identify_logit(scc)
        assert result.model_spec.model is ModelTag.LOGIT
        assert result.round_trip_exact
        assert result.model_spec.params.weights == {A: F(1, 2), B: F(1, 4), AB: F(1, 4)}
        assert generate_scc(result.model_spec, U2).rows == scc.rows

    def test_scaling_invariance(self):
        small = LogitParams({A: F(2), B: F(1), AB: F(1)})
        scaled = LogitParams({A: F(6), B: F(3), AB: F(3)})
        r1 = identify_logit(generate_scc(ModelSpec(ModelTag.LOGIT, small), U2))
        r2 = identify_logit(generate_scc(ModelSpec(ModelTag.LOGIT, scaled), U2))
        assert r1.model_spec.params.weights == r2.model_spec.params.weights

    def test_precondition_failure_carries_report(self):
        nsc = ModelSpec(
            ModelTag.NSC, NSCParams((AB, C), {A: F(1), B: F(2), AB: F(4), C: F(3)})
        )
        scc = generate_scc(nsc, U3)
        with pytest.raises(PreconditionFailedError) as err:
            identify_logit(scc)
        assert err.value.report is not None
        assert err.value.report.axiom is AxiomId.FULL_SUPPORT
        assert err.value.report.witnesses

    def test_empty_variant_recovers_empty_weight(self):
        params = LogitParams({A: F(2), B: F(1), AB: F(1)}, empty_weight=F(4))
        scc = generate_scc(ModelSpec(ModelTag.LOGIT, params, empty_variant=True), U2)
        result = identify_logit(scc)
        assert result.model_spec.empty_variant
        assert result.model_spec.params.empty_weight == F(1, 2)
        assert result.round_trip_exact


class TestRCGRecovery:
    def test_mass_from_grand_row(self):
        params = RCGParams({AB: F(1, 2), C: F(1, 4), ABC: F(1, 4)})
        scc = generate_scc(ModelSpec(ModelTag.RCG, params), U3)
        result = identify_rcg(scc)
        assert result.model_spec.params.mass == params.mass
        assert result.round_trip_exact

    def test_empty_variant_mass(self):
        params = RCGParams({AB: F(1, 2), C: F(1, 2)})
        scc = generate_scc(ModelSpec(ModelTag.RCG, params, empty_variant=True), U3)
        result = identify_rcg(scc)
        assert result.model_spec.empty_variant
        assert result.model_spec.params.mass == params.mass

    def test_always_empty_dataset_refused(self):
        # additivity holds, but no category bundle reproduces "always empty":
        # categories must cover the grand set, so recovery refuses
        rows = {
            menu: {0: F(1)} for menu in range(1, 8)
        }
        scc = SCC(U3, rows, allows_empty=True)
        with pytest.raises(PreconditionFailedError):
            identify_rcg(scc)

    def test_invalid_recovered_bundle_refused(self):
        # additivity holds on one item, but the grand-set row leaves half its
        # mass on the empty collection, so the categories sum to 1/2
        scc = SCC(Universe.default(1), {A: {0: F(1, 2), A: F(1, 2)}}, allows_empty=True)
        with pytest.raises(PreconditionFailedError) as err:
            identify_rcg(scc)
        assert str(err.value) == (
            "recovered parameters are not a valid bundle: "
            "category weights must sum to 1, got 1/2"
        )
        assert err.value.report is None

    def test_rejects_on_failed_postulate(self):
        nsc = ModelSpec(
            ModelTag.NSC, NSCParams((AB, C), {A: F(1), B: F(2), AB: F(4), C: F(3)})
        )
        scc = generate_scc(nsc, U3)
        with pytest.raises(PreconditionFailedError) as err:
            identify_rcg(scc)
        assert err.value.report.axiom is AxiomId.REL_ADD


class TestICRecovery:
    def test_gamma_formula(self):
        params = ICParams({0: F(1, 2), 1: F(1, 3)})
        scc = generate_scc(ModelSpec(ModelTag.IC, params), U2)
        result = identify_ic(scc)
        assert result.model_spec.params.inclusion == {0: F(1, 2), 1: F(1, 3)}
        assert result.round_trip_exact

    def test_three_item_round_trip(self):
        params = ICParams({0: F(1, 2), 1: F(1, 3), 2: F(2, 3)})
        scc = generate_scc(ModelSpec(ModelTag.IC, params), U3)
        result = identify_ic(scc)
        assert result.model_spec.params.inclusion == params.inclusion

    def test_interlock_with_logit_and_rcg(self):
        # on IC data the set-weight and category recoveries coincide:
        # both return the grand-set row
        params = ICParams({0: F(1, 2), 1: F(1, 3), 2: F(2, 3)})
        scc = generate_scc(ModelSpec(ModelTag.IC, params), U3)
        logit_weights = identify_logit(scc).model_spec.params.weights
        rcg_mass = identify_rcg(scc).model_spec.params.mass
        assert logit_weights == rcg_mass

    def test_one_item_universe(self):
        # standard data on one item is the row {x: 1} at every rate, so the
        # rate is not identified and 1/2 is emitted; the empty-collection
        # form reads X\x as the empty collection and recovers the rate
        for gamma in (F(1, 3), 1 / 3):
            for empty, rate, note in ((False, F(1, 2), "not identified"), (True, gamma, "ratios")):
                spec = ModelSpec(ModelTag.IC, ICParams({0: gamma}), empty_variant=empty)
                result = RECOVERIES[ModelTag.IC](generate_scc(spec, Universe.default(1)))
                assert result.model_spec.params.inclusion == {0: rate}
                assert result.model_spec.empty_variant is empty
                assert result.round_trip_exact is isinstance(gamma, F)
                assert note in result.normalization_note

    def test_empty_variant(self):
        params = ICParams({0: F(1, 2), 1: F(1, 3)})
        scc = generate_scc(ModelSpec(ModelTag.IC, params, empty_variant=True), U2)
        result = identify_ic(scc)
        assert result.model_spec.empty_variant
        assert result.model_spec.params.inclusion == params.inclusion
        assert result.round_trip_exact


class TestRRMRecovery:
    def test_reference_table_bundle(self):
        u = Universe.from_labels(["x", "y"])
        params = RRMParams({0: F(1), 1: F(1)}, {0: 3, 1: 2})
        scc = generate_scc(ModelSpec(ModelTag.RRM, params), u)
        result = identify_rrm(scc)
        recovered = result.model_spec.params
        assert recovered.constraints == {0: 3, 1: 2}
        # salience is recovered up to scale; here both weights are equal
        assert recovered.salience[0] == recovered.salience[1]
        assert result.round_trip_exact

    def test_three_item_bundle(self):
        params = RRMParams({0: F(1), 1: F(2), 2: F(3)}, {0: AB, 1: B, 2: BC})
        scc = generate_scc(ModelSpec(ModelTag.RRM, params), U3)
        result = identify_rrm(scc)
        recovered = result.model_spec.params
        assert recovered.constraints == params.constraints
        # ratios of salience match the input bundle
        assert recovered.salience[1] * 1 == recovered.salience[0] * 2
        assert recovered.salience[2] * 1 == recovered.salience[0] * 3

    def test_salience_scaling_invariance(self):
        base = RRMParams({0: F(1), 1: F(2), 2: F(3)}, {0: AB, 1: B, 2: BC})
        scaled = RRMParams({0: F(5), 1: F(10), 2: F(15)}, {0: AB, 1: B, 2: BC})
        r1 = identify_rrm(generate_scc(ModelSpec(ModelTag.RRM, base), U3))
        r2 = identify_rrm(generate_scc(ModelSpec(ModelTag.RRM, scaled), U3))
        assert r1.model_spec.params == r2.model_spec.params

    def test_refuses_non_rrm_data(self):
        params = ICParams({0: F(1, 2), 1: F(1, 3), 2: F(2, 3)})
        scc = generate_scc(ModelSpec(ModelTag.IC, params), U3)
        with pytest.raises(PreconditionFailedError):
            identify_rrm(scc)

    def test_empty_collection_data_is_refused(self):
        # rrm has no empty-collection variant, so such data has no verdict
        params = LogitParams({A: F(2), B: F(1), AB: F(1)}, empty_weight=F(4))
        scc = generate_scc(ModelSpec(ModelTag.LOGIT, params, empty_variant=True), U2)
        with pytest.raises(WrongVariantError, match="rrm has no empty-collection"):
            identify_rrm(scc)


class TestNSCRecovery:
    EXAMPLE = ModelSpec(
        ModelTag.NSC, NSCParams((AB, C), {A: F(1), B: F(2), AB: F(4), C: F(3)})
    )

    def test_example_weights_recovered(self):
        scc = generate_scc(self.EXAMPLE, U3)
        result = identify_nsc(scc)
        recovered = result.model_spec.params
        assert recovered.nests == (AB, C)
        assert recovered.nest_weights == {A: F(1), B: F(2), AB: F(4), C: F(3)}
        assert result.round_trip_exact

    def test_sigma_scaling_invariance(self):
        scaled = ModelSpec(
            ModelTag.NSC,
            NSCParams((AB, C), {A: F(7), B: F(14), AB: F(28), C: F(21)}),
        )
        r1 = identify_nsc(generate_scc(self.EXAMPLE, U3))
        r2 = identify_nsc(generate_scc(scaled, U3))
        assert r1.model_spec.params == r2.model_spec.params

    def test_empty_collection_data_is_refused(self):
        # every menu chooses itself: standard nsc data, but flagged as the
        # empty-collection variant, which nsc does not have
        rows = {menu: {menu: F(1)} for menu in range(1, 8)}
        scc = SCC(U3, rows, allows_empty=True)
        with pytest.raises(WrongVariantError, match="nsc has no empty-collection"):
            identify_nsc(scc)
        assert identify_nsc(SCC(U3, rows)).round_trip_exact

    def test_single_nest_degenerate(self):
        params = NSCParams((ABC,), {t: F(5) for t in range(1, 8)})
        scc = generate_scc(ModelSpec(ModelTag.NSC, params), U3)
        result = identify_nsc(scc)
        recovered = result.model_spec.params
        assert recovered.nests == (ABC,)
        assert set(recovered.nest_weights.values()) == {F(1)}
        assert result.round_trip_exact

    def test_refuses_full_support_data(self):
        weights = {t: F(1 + t) for t in range(1, 8)}
        scc = generate_scc(ModelSpec(ModelTag.LOGIT, LogitParams(weights)), U3)
        with pytest.raises(PreconditionFailedError):
            identify_nsc(scc)


def _criterion_2_datasets():
    """(model, exact SCC, its float copy): the criterion-2 fuzz bundles of
    every variant at n = 3 and 4, with each cell of the float copy written
    as the nearest float."""
    for index, (model, empty) in enumerate(ALL_VARIANTS):
        for n in (3, 4):
            spec = sample_params(GenConfig(n, model, seed=2000 + index, empty_variant=empty))
            scc = generate_scc(spec, Universe.default(n))
            rows = {m: {t: float(p) for t, p in row.items()} for m, row in scc.rows.items()}
            yield model, scc, SCC(scc.universe, rows, allows_empty=empty, exact=False)


CRITERION_2 = list(_criterion_2_datasets())


@pytest.mark.parametrize(
    "model, scc, floated",
    CRITERION_2,
    ids=[f"{m.value}{'_o' * s.allows_empty}-n{s.universe.n}" for m, s, _ in CRITERION_2],
)
def test_recovery_reports_the_dataset_mode(model, scc, floated):
    """Every recoverable variant identifies from its exact dataset with an
    exact round trip and from the float copy within eps_eq, each bundle in
    its dataset's mode."""
    for data, exact in ((scc, True), (floated, False)):
        result = RECOVERIES[model](data)
        assert result.round_trip_exact is exact
        assert result.model_spec.is_exact() is exact
        assert generate_scc(result.model_spec, data.universe).exact is exact


class TestExactRoundTrip:
    """_finish on exact data: the recovered bundle's reduced integer rows
    against the dataset's scaled rows."""

    def test_recorded_zero_cell_is_accepted(self):
        spec = ModelSpec(ModelTag.NSC, NSCParams((AB, C), {A: F(1), B: F(2), AB: F(4), C: F(3)}))
        scc = generate_scc(spec, U3)
        assert AC not in scc.rows[ABC]
        zeroed = SCC(U3, {**scc.rows, ABC: {**scc.rows[ABC], AC: F(0)}})
        assert validate_scc(zeroed) == []
        assert cached_scaled_rows(zeroed)[0][ABC][AC] == 0
        assert _finish(zeroed, spec, "", DEFAULT_TOL).round_trip_exact
        assert identify_nsc(zeroed).round_trip_exact

    def test_moved_cell_is_refused(self):
        spec = sample_params(GenConfig(3, ModelTag.LOGIT, seed=2100))
        row = generate_scc(spec, U3).rows[AB]
        assert row[A] != row[B]
        moved = SCC(U3, {**generate_scc(spec, U3).rows, AB: {**row, A: row[B], B: row[A]}})
        assert validate_scc(moved) == []
        with pytest.raises(PreconditionFailedError) as err:
            _finish(moved, spec, "", DEFAULT_TOL)
        assert str(err.value) == "recovered parameters do not reproduce the dataset"
        assert err.value.report is None
        # the same integer row over another denominator is another row
        halved = SCC(U3, {**generate_scc(spec, U3).rows, A: {A: F(1, 2)}})
        with pytest.raises(PreconditionFailedError, match="do not reproduce"):
            _finish(halved, spec, "", DEFAULT_TOL)

    def test_invalid_bundle_is_refused(self):
        scc = generate_scc(sample_params(GenConfig(3, ModelTag.LOGIT, seed=2100)), U3)
        bundle = ModelSpec(ModelTag.LOGIT, LogitParams({A: F(1), B: F(1), AB: F(1)}))
        with pytest.raises(PreconditionFailedError) as err:
            _finish(scc, bundle, "", DEFAULT_TOL)
        assert str(err.value) == (
            "recovered parameters are not a valid bundle: "
            "set weights must cover all 7 non-empty collections, got 3"
        )
        assert err.value.report is None


class TestFloatRoundTrip:
    """_finish on float data: the recovered bundle's float rows against the
    dataset's rows within eps_eq."""

    def test_recorded_zero_cell_is_accepted(self):
        weights = {A: 1.0, B: 2.0, AB: 4.0, C: 3.0}
        spec = ModelSpec(ModelTag.NSC, NSCParams((AB, C), weights))
        scc = generate_scc(spec, U3)
        assert not scc.exact and AC not in scc.rows[ABC]
        zeroed = SCC(U3, {**scc.rows, ABC: {**scc.rows[ABC], AC: 0.0}}, exact=False)
        assert validate_scc(zeroed) == []
        assert _finish(zeroed, spec, "", DEFAULT_TOL).round_trip_exact is False
        assert identify_nsc(zeroed).round_trip_exact is False

    @staticmethod
    def _logit():
        """TestExactRoundTrip's logit bundle with float weights."""
        weights = sample_params(GenConfig(3, ModelTag.LOGIT, seed=2100)).params.weights
        return ModelSpec(ModelTag.LOGIT, LogitParams({t: float(w) for t, w in weights.items()}))

    def test_moved_cell_is_refused(self):
        spec = self._logit()
        rows = generate_scc(spec, U3).rows
        row = rows[AB]
        assert row[A] != row[B]
        moved = SCC(U3, {**rows, AB: {**row, A: row[B], B: row[A]}}, exact=False)
        assert validate_scc(moved) == []
        with pytest.raises(PreconditionFailedError) as err:
            _finish(moved, spec, "", DEFAULT_TOL)
        assert str(err.value) == "recovered parameters do not reproduce the dataset"
        assert err.value.report is None

    def test_invalid_bundle_is_refused(self):
        scc = generate_scc(self._logit(), U3)
        bundle = ModelSpec(ModelTag.LOGIT, LogitParams({A: 1.0, B: 1.0, AB: 1.0}))
        with pytest.raises(PreconditionFailedError) as err:
            _finish(scc, bundle, "", DEFAULT_TOL)
        assert str(err.value) == (
            "recovered parameters are not a valid bundle: "
            "set weights must cover all 7 non-empty collections, got 3"
        )
        assert err.value.report is None

    def test_overflowing_bundle_is_refused(self):
        """The overflow of a float bundle's row is raised while the rows are
        read, inside the round trip, and refuses the bundle as invalid."""
        rows = {A: {A: 1.0}, B: {B: 1.0}, AB: dict.fromkeys((A, B, AB), 1 / 3)}
        scc = SCC(U2, rows, exact=False)
        bundle = ModelSpec(ModelTag.LOGIT, LogitParams(dict.fromkeys((A, B, AB), 1e308)))
        with pytest.raises(PreconditionFailedError) as err:
            _finish(scc, bundle, "", DEFAULT_TOL)
        assert str(err.value) == (
            "recovered parameters are not a valid bundle: "
            "weights overflow float arithmetic: a row sums to 0.0, not 1"
        )


def _regenerated_verdict(scc, spec, tol=DEFAULT_TOL):
    """Oracle: the float round trip that regenerated the whole SCC and
    compared it with the dataset cell by cell within eps_eq, a cell recorded
    on one side only against 0.0.  None if the bundle reproduces the data,
    else the refusal's message."""
    try:
        regen = generate_scc(spec, scc.universe)
    except (InvalidParamsError, MissingWeightError) as exc:
        return f"recovered parameters are not a valid bundle: {exc}"
    for menu, row in scc.rows.items():
        new = regen.rows[menu]
        for t in set(row) | set(new):
            if not probs_equal(scc, row.get(t, 0.0), new.get(t, 0.0), tol):
                return "recovered parameters do not reproduce the dataset"
    return None


def _finish_verdict(scc, spec):
    try:
        _finish(scc, spec, "", DEFAULT_TOL)
    except PreconditionFailedError as exc:
        return str(exc)
    return None


def _scaled_cell(scc, menu, factor):
    """A float copy of ``scc`` with the largest cell of ``menu`` scaled."""
    row = scc.rows[menu]
    t = max(row, key=row.__getitem__)
    rows = {**scc.rows, menu: {**row, t: row[t] * factor}}
    return SCC(scc.universe, rows, allows_empty=scc.allows_empty, exact=False)


def _float_sweep():
    """(dataset, bundle) pairs on float data.

    Each criterion-2 float copy goes with the bundle recovered from it,
    unchanged and with the largest cell of the grand-set row or of the menu
    {a, b} scaled by 1 +- k * eps_eq.  Three datasets whose cells are the
    ints 0 and 1 go with the exact bundle recovered from the first.  Last
    come an invalid exact bundle and a float bundle that overflows."""
    eps = DEFAULT_TOL.eps_eq
    factors = [1 + sign * k * eps for k in (0.5, 2, 10) for sign in (1, -1)]
    for model, _, floated in CRITERION_2:
        spec = RECOVERIES[model](floated).model_spec
        yield floated, spec
        for menu in (floated.universe.full_mask, AB):
            for factor in factors:
                yield _scaled_cell(floated, menu, factor), spec
    ints = [
        {A: {A: 1}, B: {B: 1}, AB: {AB: 1}},
        {A: {A: 1}, B: {B: 1}, AB: {AB: 1, A: 0, B: 0}},
        {A: {A: 1}, B: {B: 1}, AB: {A: 1}},
    ]
    int_sccs = [SCC(U2, rows, exact=False) for rows in ints]
    recovered = identify_rcg(int_sccs[0])
    assert recovered.model_spec.is_exact() and not recovered.round_trip_exact
    for scc in int_sccs:
        assert validate_scc(scc) == []
        yield scc, recovered.model_spec
    # an exact category family that misses item b, on data that never picks b
    only_a = SCC(U2, {A: {A: 1, 0: 0}, B: {0: 1}, AB: {A: 1}}, allows_empty=True, exact=False)
    yield only_a, ModelSpec(ModelTag.RCG, RCGParams({A: 1}), True)
    # a float bundle whose row of {a} differs from the data's and whose row
    # of {a, b} overflows: the overflow decides, wherever its row is
    rows = {A: {0: 0.25, A: 0.75}, B: {0: 0.5, B: 0.5}, AB: {0: 1.0}}
    uneven = SCC(U2, rows, allows_empty=True, exact=False)
    big = LogitParams(dict.fromkeys((A, B, AB), 5e307), 5e307)
    yield uneven, ModelSpec(ModelTag.LOGIT, big, True)


def test_float_round_trip_agrees_with_regeneration():
    """On float data, comparing the bundle's rows with the dataset's gives
    the verdict and the message of regenerating the SCC and comparing it."""
    verdicts = []
    for scc, spec in _float_sweep():
        verdict = _finish_verdict(scc, spec)
        assert verdict == _regenerated_verdict(scc, spec), (scc, spec)
        verdicts.append(verdict)
    assert None in verdicts
    assert "recovered parameters do not reproduce the dataset" in verdicts
    assert any(v and "not a valid bundle" in v for v in verdicts)


SELF_VARIANTS = [(m, e) for m, e in ALL_VARIANTS if m in SELF_CHARACTERIZED]


@pytest.mark.parametrize(
    "model, empty", SELF_VARIANTS, ids=[m.value + "_o" * e for m, e in SELF_VARIANTS]
)
def test_exact_round_trip_builds_no_fraction(monkeypatch, model, empty):
    """The exact round trip of a self-characterized model at n = 6, bundle
    validation included, constructs no Fraction."""
    scc = generate_scc(
        sample_params(GenConfig(6, model, seed=2200, empty_variant=empty)), Universe.default(6)
    )
    result = RECOVERIES[model](scc)
    built = []
    original = Fraction.__new__

    def counted(cls, *args, **kwargs):
        built.append(args)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counted))
    finished = _finish(scc, result.model_spec, result.normalization_note, DEFAULT_TOL)
    monkeypatch.undo()
    assert finished == result
    assert built == []


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
def test_ic_refuses_a_dataset_that_chooses_nothing(exact):
    """Two items, the empty collection chosen from every menu: IIS_O and
    ADDITIVITY hold, so the gate passes, but no inclusion rate is defined."""
    one = F(1) if exact else 1.0
    scc = SCC(U2, {A: {0: one}, B: {0: one}, AB: {0: one}}, allows_empty=True, exact=exact)
    for axiom in (AxiomId.IIS_O, AxiomId.ADDITIVITY):
        assert run_axiom(scc, axiom).holds, axiom
    with pytest.raises(PreconditionFailedError, match="inclusion probabilities are undefined$"):
        identify_ic(scc)
