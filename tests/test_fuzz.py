"""Randomized self-tests: parameter sampling and characterization fuzzing."""

from fractions import Fraction

import pytest

from scclab.axioms import AxiomId
from scclab.core import SCC, InfeasibleStructureError, InvalidParamsError, Universe
from scclab.fuzz import (
    ALL_VARIANTS,
    CHARACTERIZING_AXIOMS,
    GenConfig,
    fuzz_characterization,
    fuzz_relationships,
    sample_nest_invariant_params,
    sample_params,
    sample_singleton_params,
)
from scclab.models import ModelTag, generate_scc

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
        with pytest.raises(InvalidParamsError):
            sample_params(GenConfig(3, ModelTag.EBA, seed=0, empty_variant=True))

    def test_saturated_constraints_are_infeasible(self):
        config = GenConfig(3, ModelTag.RRM, seed=0, constraint_density=1.0)
        with pytest.raises(InfeasibleStructureError):
            sample_params(config)

    def test_nest_count_above_universe(self):
        config = GenConfig(3, ModelTag.NSC, seed=0, nest_count=(4, 5))
        with pytest.raises(InfeasibleStructureError):
            sample_params(config)

    def test_bad_grid(self):
        with pytest.raises(InvalidParamsError):
            GenConfig(3, ModelTag.LOGIT, seed=0, rational_grid=0)


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
