"""Randomized self-tests: parameter sampling and characterization fuzzing."""

import dataclasses
import json
from fractions import Fraction

import pytest

from scclab import fuzz
from scclab.axioms import AxiomId, AxiomReport
from scclab.classify import (
    FAILS,
    REL_IC_DECOMPOSITION,
    REL_RRM_RCG_SINGLETON,
    MembershipVerdict,
    classify,
)
from scclab.core import (
    SCC,
    InfeasibleStructureError,
    InvalidParamsError,
    PreconditionFailedError,
    Universe,
)
from scclab.fuzz import (
    ALL_VARIANTS,
    CHARACTERIZING_AXIOMS,
    FuzzFailure,
    GenConfig,
    fuzz_characterization,
    fuzz_relationships,
    sample_nest_invariant_params,
    sample_params,
    sample_singleton_params,
)
from scclab.io_cli import cli_main
from scclab.models import EMPTY_CAPABLE, ModelTag, generate_scc

F = Fraction


class TestCharacterizingTable:
    def test_covers_eleven_variants(self):
        assert len(ALL_VARIANTS) == 11
        standard = [m for m, empty in ALL_VARIANTS if not empty]
        assert len(standard) == 8
        assert {m for m, empty in ALL_VARIANTS if empty} == {
            ModelTag.LOGIT,
            ModelTag.RCG,
            ModelTag.IC,
        }
        # models cannot import axioms, so this keeps the two lists together
        assert {m for m, empty in CHARACTERIZING_AXIOMS if empty} == EMPTY_CAPABLE

    def test_known_bundles(self):
        assert CHARACTERIZING_AXIOMS[(ModelTag.LOGIT, False)] == (
            AxiomId.IIS,
            AxiomId.FULL_SUPPORT,
        )
        assert AxiomId.ADDITIVITY in CHARACTERIZING_AXIOMS[(ModelTag.RCG, True)]
        assert AxiomId.PIIS in CHARACTERIZING_AXIOMS[(ModelTag.NSC, False)]


class TestSampling:
    def test_inclusion_rates_live_in_open_interval(self):
        spec = sample_params(GenConfig(3, ModelTag.IC, seed=1))
        assert spec.model is ModelTag.IC
        for rate in spec.params.inclusion.values():
            assert 0 < rate < 1

    def test_constraint_sets_distinct_and_reflexive(self):
        spec = sample_params(GenConfig(4, ModelTag.RRM, seed=7))
        q = spec.params.constraints
        assert len(set(q.values())) == len(q)
        for item, constraint in q.items():
            assert constraint & (1 << item)

    def test_nest_partition_counts(self):
        spec = sample_params(GenConfig(3, ModelTag.NSC, seed=2))
        nests = spec.params.nests
        assert 1 <= len(nests) <= 3
        union = 0
        for nest in nests:
            assert union & nest == 0
            union |= nest
        assert union == 0b111

    def test_sampled_bundles_generate_valid_data(self):
        for model, empty in ALL_VARIANTS:
            spec = sample_params(GenConfig(3, model, seed=11, empty_variant=empty))
            scc = generate_scc(spec, Universe.default(3))
            assert scc.allows_empty == empty

    def test_determinism(self):
        a = sample_params(GenConfig(4, ModelTag.EBA, seed=9))
        b = sample_params(GenConfig(4, ModelTag.EBA, seed=9))
        assert a == b


class TestSamplingErrors:
    def test_empty_variant_needs_capable_model(self):
        for model in (ModelTag.EBA, ModelTag.AR, ModelTag.RRM, ModelTag.NSC,
                      ModelTag.NESTED_LOGIT):
            message = f"model {model.value} has no empty-collection variant"
            with pytest.raises(InvalidParamsError, match=f"^{message}$"):
                sample_params(GenConfig(3, model, seed=0, empty_variant=True))

    def test_saturated_constraints_are_infeasible(self, monkeypatch):
        # every constraint set is the whole universe, so no draw is distinct
        monkeypatch.setattr(fuzz, "CONSTRAINT_DENSITY", 1.0)
        with pytest.raises(InfeasibleStructureError, match="density 1.0$"):
            sample_params(GenConfig(3, ModelTag.RRM, seed=0))

    @pytest.mark.parametrize(
        "call,message",
        [
            (lambda: GenConfig(0, ModelTag.RCG, seed=0), "universe size must be positive"),
            (lambda: sample_params(GenConfig(3, "rcg", seed=0)), "unknown model tag rcg"),
        ],
        ids=["empty-universe", "str-model"],
    )
    def test_invalid_configs_are_refused(self, call, message):
        with pytest.raises(InvalidParamsError, match=f"^{message}$"):
            call()

    def test_nest_count_above_universe(self):
        # the nest-invariant sampler asks for at least two nests
        with pytest.raises(InfeasibleStructureError):
            sample_nest_invariant_params(1, seed=0)


class TestTargetedSamplers:
    def test_singleton_sampler(self):
        spec = sample_singleton_params(4, seed=3)
        scc = generate_scc(spec, Universe.default(4))
        for menu, row in scc.rows.items():
            assert all(t.bit_count() == 1 for t in row)

    def test_nest_invariant_sampler(self):
        spec = sample_nest_invariant_params(4, seed=3)
        weights = spec.params.nest_weights
        for nest in spec.params.nests:
            values = {w for t, w in weights.items() if t & ~nest == 0}
            assert len(values) == 1


class TestFuzzRuns:
    def test_characterization_suite_passes(self):
        summary = fuzz_characterization(ModelTag.LOGIT, trials=8, n_range=[3], seed=5)
        assert summary.ok
        assert summary.trials == 8
        assert summary.failures == ()

    def test_characterization_is_deterministic(self):
        run = lambda: fuzz_characterization(
            ModelTag.NSC, trials=5, n_range=[3, 4], seed=13
        )
        assert run() == run()

    def test_empty_variant_suite_passes(self):
        summary = fuzz_characterization(
            ModelTag.RCG, trials=6, n_range=[3], seed=21, empty_variant=True
        )
        assert summary.ok

    def test_relationship_suite_passes(self):
        summary = fuzz_relationships(trials=10, n_range=[3], seed=17)
        assert summary.ok
        assert summary.trials == 10

    def test_relationships_respect_the_small_universe_flag(self):
        # classify checks no relationship below three items
        assert fuzz_relationships(trials=30, n_range=[1, 2], seed=0).ok

    @pytest.mark.parametrize("model", ["ic", "ic_o"])
    def test_one_item_inclusion_suites_pass(self, tmp_path, model):
        # one-item ic data recovers: at rate 1/2 in the standard form, where
        # the rate is not identified, and from the grand row in the _o form
        summary = fuzz_characterization(ModelTag.IC, 4, [1], 0, model == "ic_o")
        assert summary.ok and summary.suite == f"characterization:{model}"
        out = tmp_path / "fuzz.json"
        argv = ["fuzz", "--model", model, "--trials", "4", "--n", "1", "--seed", "0"]
        assert cli_main([*argv, "-o", str(out)]) == 0
        assert json.loads(out.read_text())["summaries"][0]["ok"] is True

    def test_corrupted_rows_fail_at_necessity(self, monkeypatch):
        def corrupted(spec, universe):
            rows = {m: dict(row) for m, row in generate_scc(spec, universe).rows.items()}
            a, b = 0b01, 0b10
            shift = min(rows[a | b][a], rows[a | b][b]) / 2
            rows[a | b][a] += shift
            rows[a | b][b] -= shift
            return SCC(universe, rows)

        monkeypatch.setattr("scclab.fuzz.generate_scc", corrupted)
        summary = fuzz_characterization(ModelTag.LOGIT, trials=3, n_range=[3], seed=5)
        assert len(summary.failures) == 3
        for failure in summary.failures:
            assert failure.stage == "necessity"
            assert failure.detail.startswith("IIS failed with ")


def _refuse(scc):
    raise PreconditionFailedError("recovery refused")


def _failing_report(scc, axiom, **kwargs):
    return AxiomReport(axiom, False, (), 0, 0, "exact")


def _ic_fails(scc, **kwargs):
    report = classify(scc, **kwargs)
    failing = MembershipVerdict(FAILS, (AxiomId.ADDITIVITY,))
    return dataclasses.replace(report, membership={**report.membership, "ic": failing})


def _nothing_holds(scc, **kwargs):
    report = classify(scc, **kwargs)
    failing = MembershipVerdict(FAILS, (AxiomId.IIS,))
    return dataclasses.replace(report, membership=dict.fromkeys(report.membership, failing))


def _violations(scc, **kwargs):
    violations = (REL_IC_DECOMPOSITION, REL_RRM_RCG_SINGLETON)
    return dataclasses.replace(classify(scc, **kwargs), relationship_violations=violations)


_PROBE_DETAIL = (
    "set-weight bundle satisfying relative additivity is not classified as "
    "independent inclusion"
)
_VIOLATIONS = f"{REL_IC_DECOMPOSITION}, {REL_RRM_RCG_SINGLETON}"
_FAILURE_KEYS = ("seed", "model", "n", "empty_variant", "stage", "detail")

# Each stage forced by one patch of scclab.fuzz: (attribute, replacement),
# the fuzz arguments (model, trials, sizes, seed), and the failures as
# (seed, model, n, empty_variant, stage, detail).
FORCED_STAGES = {
    "identification": (
        ("RECOVERIES", {**fuzz.RECOVERIES, ModelTag.LOGIT: _refuse}),
        ("logit", 2, "2,3", 5),
        [
            (4712128852136459333, "logit", 3, False, "identification",
             "PreconditionFailedError: recovery refused"),
            (12736496262939004471, "logit", 2, False, "identification",
             "PreconditionFailedError: recovery refused"),
        ],
    ),
    "probe-relative-additivity": (
        ("cached_report", _failing_report),
        ("relationships", 5, "3", 5),
        [
            (8652796568164751743, "logit-product-form", 3, False, "probe",
             "product-form weights should satisfy relative additivity"),
        ],
    ),
    "probe-independent-inclusion": (
        ("classify", _ic_fails),
        ("relationships", 5, "2,3", 5),
        [(8652796568164751743, "logit-product-form", 2, False, "probe", _PROBE_DETAIL)],
    ),
    "membership": (
        ("classify", _nothing_holds),
        ("relationships", 4, "2,3", 5),
        [
            (4712128852136459333, "ic", 3, True, "membership",
             "generated SCC not classified as ic_o: ['IIS']"),
            (9777509567454608800, "nested_logit", 2, False, "membership",
             "generated SCC not classified as nested_logit: ['IIS']"),
            (17401859983685269623, "ic", 2, True, "membership",
             "generated SCC not classified as ic_o: ['IIS']"),
            (16618680901832163640, "rcg", 2, False, "membership",
             "generated SCC not classified as rcg: ['IIS']"),
        ],
    ),
    "relationships": (
        ("classify", _violations),
        ("relationships", 4, "2,3", 5),
        [
            (4712128852136459333, "ic", 3, True, "relationships", _VIOLATIONS),
            (9777509567454608800, "nested_logit", 2, False, "relationships", _VIOLATIONS),
            (17401859983685269623, "ic", 2, True, "relationships", _VIOLATIONS),
            (16618680901832163640, "rcg", 2, False, "relationships", _VIOLATIONS),
        ],
    ),
}


@pytest.mark.parametrize("stage", FORCED_STAGES)
class TestForcedFailures:
    """Every failure stage a sweep reports, forced by a patch: the records
    carry the trial's reproducer seed, its model, size and flag, and the
    stage's own detail."""

    def test_summary_records(self, monkeypatch, stage):
        (name, replacement), (model, trials, sizes, seed), expected = FORCED_STAGES[stage]
        monkeypatch.setattr(fuzz, name, replacement)
        n_range = [int(n) for n in sizes.split(",")]
        if model == "relationships":
            summary = fuzz_relationships(trials, n_range, seed)
        else:
            summary = fuzz_characterization(ModelTag(model), trials, n_range, seed)
        assert summary.failures == tuple(FuzzFailure(*record) for record in expected)
        assert not summary.ok

    def test_cli_records(self, monkeypatch, tmp_path, stage):
        (name, replacement), (model, trials, sizes, seed), expected = FORCED_STAGES[stage]
        monkeypatch.setattr(fuzz, name, replacement)
        out = tmp_path / "fuzz.json"
        argv = ["fuzz", "--model", model, "--trials", str(trials), "--n", sizes,
                "--seed", str(seed), "-o", str(out)]
        assert cli_main(argv) == 1
        (summary,) = json.loads(out.read_text())["summaries"]
        assert summary["ok"] is False
        assert summary["trials"] == trials
        assert summary["failures"] == [dict(zip(_FAILURE_KEYS, r)) for r in expected]
