"""Bitmask utilities, universes, and SCC storage/validation."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from scclab.axioms import check_full_support
from scclab.core import (
    IncompleteDatasetError,
    MenuAbsentError,
    SCC,
    ShapeError,
    ToleranceConfig,
    Universe,
    bits,
    is_positive,
    is_zero,
    nonempty_submasks,
    popcount,
    prob_lookup,
    probs_equal,
    require_complete,
    submasks,
    validate_scc,
)

F = Fraction


def make_scc(rows, n=2, allows_empty=False, exact=True):
    return SCC(Universe.default(n), rows, allows_empty=allows_empty, exact=exact)


# the 2-item complete SCC used throughout: menu {a,b} splits 1/2, 1/4, 1/4
GOOD_ROWS = {
    1: {1: F(1)},
    2: {2: F(1)},
    3: {1: F(1, 2), 2: F(1, 4), 3: F(1, 4)},
}


class TestBitHelpers:
    """popcount / bits / submasks agree with brute force."""

    def test_popcount(self):
        assert popcount(0) == 0
        assert popcount(0b1011) == 3

    def test_bits_ascending(self):
        assert list(bits(0b10110)) == [1, 2, 4]

    def test_submasks_ascending_and_complete(self):
        assert list(submasks(0b101)) == [0, 1, 4, 5]
        assert list(nonempty_submasks(0b101)) == [1, 4, 5]

    @given(st.integers(min_value=0, max_value=2**10 - 1))
    def test_submask_count(self, mask):
        subs = list(submasks(mask))
        assert len(subs) == 2 ** popcount(mask)
        assert subs == sorted(subs)
        assert all(s & ~mask == 0 for s in subs)


class TestUniverse:
    def test_labels_sorted_and_indexed(self):
        u = Universe.from_labels(["c", "a", "b"])
        assert u.items == ("a", "b", "c")
        assert u.index("b") == 1
        assert u.full_mask == 0b111

    def test_mask_label_round_trip(self):
        u = Universe.default(4)
        mask = u.mask_of(["a", "c"])
        assert mask == 0b101
        assert u.labels_of(mask) == ("a", "c")

    def test_duplicate_label_in_mask_rejected(self):
        u = Universe.default(3)
        with pytest.raises(ShapeError):
            u.mask_of(["a", "a"])

    def test_unknown_label_rejected(self):
        u = Universe.default(2)
        with pytest.raises(ShapeError):
            u.index("z")

    def test_duplicate_universe_labels_rejected(self):
        with pytest.raises(ShapeError):
            Universe.from_labels(["a", "a"])

    def test_size_bounds(self):
        with pytest.raises(ShapeError):
            Universe.default(0)
        with pytest.raises(ShapeError):
            Universe.default(17)


class TestToleranceConfig:
    def test_positive_required(self):
        with pytest.raises(ValueError):
            ToleranceConfig(eps_eq=0.0)
        with pytest.raises(ValueError):
            ToleranceConfig(eps_zero=-1e-9)


class TestValidation:
    """validate_scc flags exactly the defined dataset defects."""

    def test_clean(self):
        assert validate_scc(make_scc(GOOD_ROWS)) == []

    def test_row_sum_off(self):
        rows = {1: {1: F(1)}, 2: {2: F(1)}, 3: {1: F(1, 2), 2: F(2, 5)}}
        bad = [v for v in validate_scc(make_scc(rows)) if v.property_id == "ii"]
        assert len(bad) == 1 and bad[0].menu == 3

    def test_out_of_range(self):
        rows = {1: {1: F(3, 2)}}
        bad = validate_scc(make_scc(rows))
        assert any(v.property_id == "i" for v in bad)

    def test_non_subset_storage(self):
        rows = dict(GOOD_ROWS)
        rows[1] = {1: F(1, 2), 3: F(1, 2)}  # {a,b} recorded under menu {a}
        assert any(v.property_id == "iii" for v in validate_scc(make_scc(rows)))

    def test_empty_collection_needs_flag(self):
        rows = {1: {0: F(1, 2), 1: F(1, 2)}}
        assert any(v.property_id == "iii" for v in validate_scc(make_scc(rows)))
        assert validate_scc(make_scc(rows, allows_empty=True)) == []

    def test_mode_mismatch_is_storage_defect(self):
        def storage(scc):
            return [v.detail for v in validate_scc(scc) if v.property_id == "storage"]

        assert storage(make_scc({1: {1: 1.0}})) == [
            "exact-mode SCC stores a non-rational value for collection 1"
        ]
        assert storage(make_scc({1: {1: F(1)}}, exact=False)) == [
            "float-mode SCC stores a rational value for collection 1"
        ]

    def test_float_mode_slack(self):
        # a row summing to 1 within eps_sum is clean in float mode
        rows = {1: {1: 1.0}, 2: {2: 1.0}, 3: {1: 0.5000000001, 2: 0.4999999999}}
        assert validate_scc(make_scc(rows, exact=False)) == []


class TestLookupAndSupport:
    def test_prob_lookup_present_and_missing(self):
        scc = make_scc(GOOD_ROWS)
        assert prob_lookup(scc, 1, 3) == F(1, 2)
        assert prob_lookup(scc, 2, 2) == F(1)
        # unrecorded pair inside the domain reads as zero
        assert prob_lookup(scc, 1, 1) == F(1)
        assert prob_lookup(scc, 0, 3) == 0

    def test_prob_lookup_menu_absent(self):
        scc = make_scc({3: GOOD_ROWS[3]})
        with pytest.raises(MenuAbsentError):
            prob_lookup(scc, 1, 1)

    def test_prob_lookup_non_subset(self):
        scc = make_scc(GOOD_ROWS)
        with pytest.raises(ShapeError):
            prob_lookup(scc, 3, 1)

    def test_zero_positive_equal_float_mode(self):
        scc = make_scc({1: {1: 1.0}}, exact=False)
        assert is_zero(scc, 1e-13)
        assert is_positive(scc, 1e-3)
        assert probs_equal(scc, 0.1 + 0.2, 0.3)
        assert not probs_equal(scc, 0.30001, 0.3)


class TestCompleteness:
    def test_complete(self):
        scc = make_scc(GOOD_ROWS)
        assert scc.is_complete()
        require_complete(scc)

    def test_incomplete(self):
        scc = make_scc({3: GOOD_ROWS[3]})
        assert not scc.is_complete()
        with pytest.raises(IncompleteDatasetError):
            require_complete(scc)

    def test_full_support(self):
        assert check_full_support(make_scc(GOOD_ROWS)).holds
        rows = {1: {1: F(1)}, 2: {2: F(1)}, 3: {1: F(1, 2), 3: F(1, 2)}}
        assert not check_full_support(make_scc(rows)).holds

    def test_full_support_ignores_empty_collection(self):
        rows = {
            1: {0: F(1, 2), 1: F(1, 2)},
            2: {0: F(1, 2), 2: F(1, 2)},
            3: {0: F(1, 4), 1: F(1, 4), 2: F(1, 4), 3: F(1, 4)},
        }
        assert check_full_support(make_scc(rows, allows_empty=True)).holds

    def test_arithmetic_mode_labels(self):
        assert make_scc(GOOD_ROWS).arithmetic_mode == "exact"
        assert make_scc({1: {1: 1.0}}, exact=False).arithmetic_mode == "float"
