"""Bitmask utilities, universes, and SCC storage/validation."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import scclab.axioms
import scclab.core
from scclab.axioms import cached_scaled_rows, check_full_support
from scclab.core import (
    IncompleteDatasetError,
    MenuAbsentError,
    SCALED_ROWS,
    SCC,
    ShapeError,
    ToleranceConfig,
    Universe,
    Violation,
    bits,
    is_positive,
    is_zero,
    nonempty_submasks,
    popcount,
    prob_lookup,
    probs_equal,
    require_complete,
    scale_row,
    submasks,
    validate_scc,
)
from scclab.fuzz import GenConfig, sample_params
from scclab.models import ModelTag, generate_scc

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

    @pytest.mark.parametrize(
        "labels", [["a,b", "c"], [" x", "y"], ["", "z"], ["x\t", "y"]], ids=repr
    )
    def test_unnameable_labels_rejected(self, labels):
        """A label list is split on ',' and each part stripped, so a label
        that is empty, holds ',' or is padded by whitespace is refused."""
        with pytest.raises(ShapeError, match="must be non-empty, with no ','"):
            Universe.from_labels(labels)

    def test_inner_space_and_unicode_labels_accepted(self):
        assert Universe.from_labels(["New York", "é"]).items == ("New York", "é")

    def test_size_bounds(self):
        with pytest.raises(ShapeError):
            Universe.default(0)
        with pytest.raises(ShapeError):
            Universe.default(17)

    @pytest.mark.parametrize(
        "call,message",
        [
            (lambda: Universe.from_labels([]), "between 1 and 16 items, got 0"),
            (
                lambda: Universe.from_labels([f"x{i}" for i in range(17)]),
                "between 1 and 16 items, got 17",
            ),
            (lambda: Universe.default(3).labels_of(-1), "mask -1 outside universe of 3"),
            (lambda: Universe.default(3).labels_of(8), "mask 8 outside universe of 3"),
        ],
        ids=["no-labels", "17-labels", "negative-mask", "mask-past-full"],
    )
    def test_out_of_range_is_refused(self, call, message):
        with pytest.raises(ShapeError, match=message):
            call()


class TestToleranceConfig:
    def test_positive_required(self):
        with pytest.raises(ValueError):
            ToleranceConfig(eps_eq=0.0)

    @pytest.mark.parametrize("eps_eq", [math.nan, math.inf, -math.inf, -1e-9])
    def test_finite_required(self, eps_eq):
        # the CLI refuses such a --tol itself; a library caller meets this
        with pytest.raises(ValueError, match="positive and finite"):
            ToleranceConfig(eps_eq=eps_eq)

    def test_smallest_and_largest_accepted(self):
        for eps_eq in (5e-324, 1e-9, 1.0, 1.7976931348623157e308):
            assert ToleranceConfig(eps_eq=eps_eq).eps_eq == eps_eq


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
        # a (numerator, denominator) pair is how the rule reads a Fraction,
        # not a value an SCC may store
        assert storage(make_scc({1: {1: (1, 1)}})) == [
            "exact-mode SCC stores a non-rational value for collection 1"
        ]

    def test_float_mode_slack(self):
        # a row summing to 1 within EPS_SUM is clean in float mode
        rows = {1: {1: 1.0}, 2: {2: 1.0}, 3: {1: 0.5000000001, 2: 0.4999999999}}
        assert validate_scc(make_scc(rows, exact=False)) == []


def _fraction_validation(scc):
    """validate_scc as it read before exact rows were scaled: each row's
    Fraction sum, and Fraction comparisons for the range."""
    violations = []
    full = scc.universe.full_mask
    for menu in sorted(scc.rows):
        row = scc.rows[menu]
        if menu == 0 or menu > full:
            violations.append(
                Violation("iii", menu, "menu must be a non-empty subset of the grand set")
            )
            continue
        total = Fraction(0) if scc.exact else 0.0
        for coll in sorted(row):
            p = row[coll]
            if isinstance(p, Fraction) != scc.exact:
                mode, kind = ("exact", "non-rational") if scc.exact else ("float", "rational")
                message = f"{mode}-mode SCC stores a {kind} value for collection {coll}"
                violations.append(Violation("storage", menu, message))
                continue
            if coll & ~menu:
                violations.append(
                    Violation("iii", menu, f"collection {coll} is not a subset of its menu")
                )
                continue
            if coll == 0 and not scc.allows_empty:
                violations.append(
                    Violation("iii", menu, "empty collection recorded on a standard SCC")
                )
                continue
            if scc.exact:
                in_range = 0 <= p <= 1
            else:
                in_range = -scclab.core.EPS_ZERO <= p <= 1 + scclab.core.EPS_ZERO
            if not in_range:
                violations.append(
                    Violation("i", menu, f"probability {p} of collection {coll} outside [0, 1]")
                )
                continue
            total += p
        if scc.exact:
            sums_to_one = total == 1
        else:
            sums_to_one = abs(total - 1.0) <= scclab.core.EPS_SUM
        if not sums_to_one:
            violations.append(Violation("ii", menu, f"row sums to {total}, not 1"))
    return violations


def _swap(value, exact):
    """The value in the other arithmetic mode."""
    return float(value) if exact else Fraction(value)


#: name -> (change to a copy of 3-item rows, the property ids it must raise
#: on a standard SCC); values are built in the SCC's mode by ``num``.
CORRUPTIONS = {
    "clean": (lambda rows, num, exact: None, []),
    "scaled": (lambda rows, num, exact: rows[7].update({1: rows[7][1] * num(3, 2)}), ["ii"]),
    "negative": (lambda rows, num, exact: rows[6].update({2: -rows[6][2]}), ["i", "ii"]),
    # a negative cell whose row still sums to 1
    "offset": (
        lambda rows, num, exact: rows[6].update({2: -rows[6][2], 6: rows[6][6] + 2 * rows[6][2]}),
        ["i", "ii"],
    ),
    "above_one": (lambda rows, num, exact: rows[3].update({1: num(2)}), ["i", "ii"]),
    "non_subset": (lambda rows, num, exact: rows[1].update({3: rows[1].pop(1)}), ["iii", "ii"]),
    "empty_collection": (lambda rows, num, exact: rows[5].update({0: rows[5].pop(5)}),
                         ["iii", "ii"]),
    "storage": (lambda rows, num, exact: rows[7].update({2: _swap(rows[7][2], exact)}),
                ["storage", "ii"]),
    "bad_menu": (lambda rows, num, exact: rows.update({0: {0: num(1)}, 8: {8: num(1)}}),
                 ["iii", "iii"]),
    "several": (
        lambda rows, num, exact: (
            rows[7].update({2: _swap(rows[7][2], exact), 3: num(-1, 4)}),
            rows[2].update({3: num(1, 2)}),
        ),
        ["iii", "storage", "i", "ii"],
    ),
}


def _validation_case(corruption, exact, allows_empty, reverse):
    """A 3-item logit dataset with one corruption, in either mode and
    variant, its menus and cells stored in ascending or descending order."""
    spec = sample_params(GenConfig(3, ModelTag.LOGIT, seed=3, empty_variant=allows_empty))
    rows = {
        menu: {t: p if exact else float(p) for t, p in row.items()}
        for menu, row in generate_scc(spec, Universe.default(3)).rows.items()
    }
    CORRUPTIONS[corruption][0](rows, Fraction if exact else lambda a, b=1: a / b, exact)
    rows = {m: dict(sorted(rows[m].items(), reverse=reverse)) for m in sorted(rows, reverse=reverse)}
    return make_scc(rows, n=3, allows_empty=allows_empty, exact=exact)


#: name -> (menu, its float row, the property ids it must raise) on the
#: 2-item SCC whose other menus hold 1.0: int and Fraction cells, cells that
#: are not finite, cells at -EPS_ZERO and 1 + EPS_ZERO and one float past
#: each, and totals at 1 + EPS_SUM and 1 - EPS_SUM (the last float within
#: it, as the += loop sums 0.5 and the rest) and one float past each, and a
#: total whose verdict depends on the order of the sum.
FLOAT_EDGES = {
    "int-cells": (3, {1: 0, 2: 1, 3: 0}, []),
    "fraction": (3, {1: F(1, 2), 2: 0.25, 3: 0.25}, ["storage", "ii"]),
    "nan-first": (3, {1: math.nan, 2: 0.5, 3: 0.5}, ["i"]),
    "nan-later": (3, {1: 0.5, 2: math.nan, 3: 0.5}, ["i"]),
    "inf": (3, {1: 0.5, 2: 0.5, 3: math.inf}, ["i"]),
    "minus-inf": (3, {1: -math.inf, 2: 0.5, 3: 0.5}, ["i"]),
    "at-minus-eps-zero": (3, {1: -1e-12, 2: 0.5, 3: 0.5}, []),
    "past-minus-eps-zero": (3, {1: math.nextafter(-1e-12, -1), 2: 0.5, 3: 0.5}, ["i"]),
    "at-one-plus-eps-zero": (1, {1: 1 + 1e-12}, []),
    "past-one-plus-eps-zero": (1, {1: math.nextafter(1 + 1e-12, 2)}, ["i", "ii"]),
    "at-one-plus-eps-sum": (3, {1: 0.5, 2: math.nextafter(1 + 1e-9, 0) - 0.5}, []),
    "past-one-plus-eps-sum": (3, {1: 0.5, 2: (1 + 1e-9) - 0.5}, ["ii"]),
    "at-one-minus-eps-sum": (3, {1: 0.5, 2: (1 - 1e-9) - 0.5}, []),
    "past-one-minus-eps-sum": (3, {1: 0.5, 2: math.nextafter(1 - 1e-9, 0) - 0.5}, ["ii"]),
    # past 1 + EPS_SUM summed in ascending order of collections, within it
    # summed in descending order
    "order": (3, {1: 0.5, 2: 0.45385922552849384, 3: 0.04614077547150608}, ["ii"]),
}


class TestValidationAgainstFractions:
    """validate_scc returns the Fraction loop's violations, and only a clean
    exact SCC leaves its scaled rows in the memo."""

    @pytest.mark.parametrize("corruption", list(CORRUPTIONS))
    @pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
    @pytest.mark.parametrize("allows_empty", [False, True], ids=["standard", "empty"])
    @pytest.mark.parametrize("reverse", [False, True], ids=["ascending", "descending"])
    def test_same_violations(self, corruption, exact, allows_empty, reverse):
        scc = _validation_case(corruption, exact, allows_empty, reverse)
        found = validate_scc(scc)
        assert found == _fraction_validation(scc)
        if not allows_empty or corruption != "empty_collection":
            assert [v.property_id for v in found] == CORRUPTIONS[corruption][1]
        if found or not exact:
            assert scc.memo == {}

    @pytest.mark.parametrize("edge", list(FLOAT_EDGES))
    @pytest.mark.parametrize("reverse", [False, True], ids=["ascending", "descending"])
    def test_float_edges(self, edge, reverse):
        """A float row is clean by the whole-row test exactly when the
        per-cell loop finds nothing, whatever the order of its cells."""
        menu, row, expected = FLOAT_EDGES[edge]
        assert (scclab.core.EPS_ZERO, scclab.core.EPS_SUM) == (1e-12, 1e-9)
        rows = {1: {1: 1.0}, 2: {2: 1.0}, menu: dict(sorted(row.items(), reverse=reverse))}
        scc = make_scc(rows, exact=False)
        found = validate_scc(scc)
        assert found == _fraction_validation(scc)
        assert [v.property_id for v in found] == expected

    def test_skipped_cells_are_left_out_of_the_row_sum(self):
        scc = _validation_case("negative", True, False, False)
        total = sum(scc.rows[6].values()) - scc.rows[6][2]
        assert validate_scc(scc)[-1].detail == f"row sums to {total}, not 1"

    @pytest.mark.parametrize(
        "corruption", [c for c in CORRUPTIONS if c not in ("storage", "several")]
    )
    def test_integer_rows_get_the_violations_of_their_fractions(self, corruption):
        """An SCC held as integer rows (SCC.from_scaled) gets the violations
        of its dict-built copy, and a clean one keeps the scaled rows it
        holds."""
        copy = _validation_case(corruption, True, False, False)
        scaled = {menu: scale_row(row) for menu, row in copy.rows.items()}
        cells = {menu: c for menu, (c, _) in scaled.items()}
        scc = SCC.from_scaled(copy.universe, cells, {m: d for m, (_, d) in scaled.items()}, False)
        held = scc.memo[SCALED_ROWS]
        assert validate_scc(scc) == validate_scc(copy)
        assert scc.memo[SCALED_ROWS] is held

    @pytest.mark.parametrize("allows_empty", [False, True], ids=["standard", "empty"])
    @pytest.mark.parametrize("reverse", [False, True], ids=["ascending", "descending"])
    def test_clean_memo_is_a_fresh_scaling(self, monkeypatch, allows_empty, reverse):
        scc = _validation_case("clean", True, allows_empty, reverse)
        fresh = _validation_case("clean", True, allows_empty, reverse)
        assert validate_scc(scc) == []
        expected = cached_scaled_rows(fresh)
        monkeypatch.setattr(scclab.axioms, "scale_row", None)  # no second scaling
        rows, dens = cached_scaled_rows(scc)
        assert (rows, dens) == expected
        assert list(rows) == list(expected[0]) == list(scc.rows)
        assert all(list(rows[m]) == list(scc.rows[m]) for m in rows)


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
