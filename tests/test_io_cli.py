"""JSON document handling, counts estimation, and the command-line front end."""

import copy
import csv
import io
import json
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import scclab
import scclab.axioms
from scclab.core import (
    EPS_ZERO,
    SCC,
    MixedFormatError,
    SchemaError,
    ScclabError,
    Universe,
    ZeroTotalMenuError,
    is_positive,
    submasks,
    validate_rows,
    validate_scc,
)
from scclab.fuzz import ALL_VARIANTS, GenConfig, sample_params
from scclab.io_cli import (
    _emit,
    _literal,
    _mask_from_labels,
    _parse_universe,
    _require_type,
    _text,
    cli_main,
    estimate_from_counts,
    format_prob,
    params_to_document,
    parse_counts,
    parse_params,
    parse_prob_literal,
    parse_scc,
    scc_to_document,
)
from scclab.models import (
    ICParams,
    LogitParams,
    ModelSpec,
    ModelTag,
    NSCParams,
    generate_scc,
)
from test_golden_outputs import FLOAT_LITERALS, LITERALS

F = Fraction
A, B, C, AB, AC, BC, ABC = 1, 2, 4, 3, 5, 6, 7

NSC_SPEC = ModelSpec(
    ModelTag.NSC, NSCParams((AB, C), {A: F(1), B: F(2), AB: F(4), C: F(3)})
)


def nsc_document():
    scc = generate_scc(NSC_SPEC, Universe.default(3))
    return scc_to_document(scc)


def logit3_scc():
    """Exact logit data over {a,b,c} with full support."""
    weights = {A: F(4), B: F(2), C: F(1), AB: F(3), AC: F(2), BC: F(5), ABC: F(7)}
    return generate_scc(ModelSpec(ModelTag.LOGIT, LogitParams(weights)), Universe.default(3))


def logit_params_document():
    spec = ModelSpec(ModelTag.LOGIT, LogitParams({A: F(2), B: F(1), AB: F(1)}))
    return params_to_document(spec, Universe.default(2))


class TestProbLiterals:
    def test_rational_literals_are_exact(self):
        assert parse_prob_literal("1/2") == (F(1, 2), True)
        assert parse_prob_literal(" 3 ") == (F(3), True)
        assert parse_prob_literal("0") == (F(0), True)

    def test_decimal_literals_are_float(self):
        value, exact = parse_prob_literal("0.25")
        assert value == 0.25 and not exact
        value, exact = parse_prob_literal("1e-3")
        assert value == 0.001 and not exact

    def test_format_round_trip(self):
        for value in (F(7, 12), F(1), 0.125, 0.3):
            parsed, exact = parse_prob_literal(format_prob(value))
            assert parsed == value
            assert exact == isinstance(value, Fraction)

    @pytest.mark.parametrize("bad", ["", "one half", "nan", "1/0", "2//3", "1e999"])
    def test_junk_is_rejected(self, bad):
        with pytest.raises(SchemaError):
            parse_prob_literal(bad)


def _fraction_literal(text):
    """The literal parser before its ASCII-digit path: every "num/den"
    through ``Fraction``'s own parser."""
    token = text.strip()
    try:
        if "/" in token:
            return Fraction(token), True
        if any(c in token for c in ".eE"):
            return float(token), False
        return Fraction(int(token)), True
    except (ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"invalid probability literal {text!r}: {exc}") from None


def _outcome(parse, text):
    try:
        return repr(parse(text))
    except SchemaError as exc:
        return f"SchemaError: {exc}"


@pytest.mark.parametrize(
    "token",
    ["+1/2", "-1/2", " 1/2 ", "1 / 2", "1/-2", "1_0/3", "0010/0020", "1/0", "1/00",
     "/2", "1/", "", "\u0663/\u0664", "3/6", "12", "\u00b2/3", "1/2/3", "1.5/2"],
)
def test_literals_read_as_fractions_parser_reads_them(token):
    assert _outcome(parse_prob_literal, token) == _outcome(_fraction_literal, token)


class TestLabelMasks:
    """A label list the parser accepted once is looked up, not rebuilt; a
    later malformed list is still refused with its own message."""

    @staticmethod
    def document(bad_set=None, bad_menu=None, reordered=False):
        row = [
            {"set": [], "p": "1/4"},
            {"set": ["a", "b"], "p": "1/4"},
            {"set": ["a"], "p": "1/2"},
        ]
        if reordered:
            row.append({"set": ["b", "a"], "p": "0"})
        menus = [
            {"menu": ["a"], "rows": [{"set": ["a"], "p": "1"}]},
            {"menu": ["a", "b"], "rows": row},
        ]
        if bad_set is not None:
            menus.append({"menu": ["b"], "rows": [{"set": bad_set, "p": "1"}]})
        if bad_menu is not None:
            menus.append({"menu": bad_menu, "rows": []})
        return {"items": ["a", "b"], "allows_empty": True, "menus": menus}

    def test_accepted_lists_parse(self):
        assert parse_scc(self.document()).rows == {
            A: {A: F(1)}, AB: {0: F(1, 4), AB: F(1, 4), A: F(1, 2)}
        }

    @pytest.mark.parametrize(
        "bad,message",
        [
            ("ab", "expected a list of label strings"),
            (["a", 1], "expected a list of label strings"),
            (["a", ["b"]], "expected a list of label strings"),
            (["a", {"b": 1}], "expected a list of label strings"),
            (["a", "z"], "unknown item label 'z'"),
            (["a", "a"], "duplicate item label 'a'"),
        ],
        ids=["string", "non-string", "unhashable-list", "unhashable-dict", "unknown",
             "duplicate"],
    )
    def test_malformed_sets_keep_their_messages(self, bad, message):
        with pytest.raises(SchemaError) as exc:
            parse_scc(self.document(bad_set=bad))
        assert str(exc.value) == f"menus[2].rows[0].set: {message}"
        with pytest.raises(SchemaError) as exc:
            parse_scc(self.document(bad_menu=bad))
        assert str(exc.value) == f"menus[2].menu: {message}"

    def test_a_set_in_another_order_is_a_duplicate(self):
        with pytest.raises(SchemaError) as exc:
            parse_scc(self.document(reordered=True))
        assert str(exc.value) == "menus[1].rows[3]: duplicate set ('a', 'b')"

    def test_an_empty_menu_is_refused_after_an_empty_set(self):
        with pytest.raises(SchemaError) as exc:
            parse_scc(self.document(bad_menu=[]))
        assert str(exc.value) == "menus[2].menu: must be non-empty"

    @pytest.mark.parametrize(
        "cell,message",
        [
            (["a"], "menus[1].rows[3]: expected dict"),
            (True, "menus[1].rows[3]: expected dict"),
            ({"set": ["b"]}, "menus[1].rows[3].p: expected a string"),
            ({"set": ["b"], "p": 0.5}, "menus[1].rows[3].p: expected a string"),
            ({"set": ["b"], "p": True}, "menus[1].rows[3].p: expected a string"),
        ],
        ids=["list", "bool", "no-p", "number-p", "bool-p"],
    )
    def test_malformed_cells_keep_their_messages(self, cell, message):
        document = self.document()
        document["menus"][1]["rows"].append(cell)
        with pytest.raises(SchemaError) as exc:
            parse_scc(document)
        assert str(exc.value) == message


class TestSccDocuments:
    def test_document_round_trip(self):
        scc = generate_scc(NSC_SPEC, Universe.default(3))
        doc = nsc_document()
        parsed = parse_scc(doc)
        assert parsed == scc
        assert scc_to_document(parsed) == doc  # canonical form is a fixed point

    def test_exact_literals_are_scaled_as_the_fractions_they_spell(self):
        """Unreduced, zero-padded, signed and padded literals read as their
        Fractions, and the parsed SCC's scaled rows are the scale_row form
        that validate_scc leaves for the dict-built copy, in the same order."""
        doc = {
            "items": ["a", "b"],
            "menus": [
                {"menu": ["a", "b"], "rows": [
                    {"set": ["a", "b"], "p": "06/08"},
                    {"set": ["a"], "p": "2/8"},
                    {"set": ["b"], "p": "-0/5"},
                ]},
                {"menu": ["a"], "rows": [{"set": ["a"], "p": "2/2"}]},
                {"menu": ["b"], "rows": [{"set": ["b"], "p": " +3/3 "}]},
            ],
        }
        scc = parse_scc(doc)
        rows = {AB: {AB: F(3, 4), A: F(1, 4), B: F(0)}, A: {A: F(1)}, B: {B: F(1)}}
        assert repr(dict(scc.rows.items())) == repr(rows)
        copy = SCC(scc.universe, rows)
        assert validate_scc(copy) == []
        scaled = scclab.axioms.cached_scaled_rows(scc)
        assert scaled == ({AB: {AB: 3, A: 1, B: 0}, A: {A: 1}, B: {B: 1}}, {AB: 4, A: 1, B: 1})
        assert repr(scaled) == repr(scclab.axioms.cached_scaled_rows(copy))

    def test_float_documents_parse_inexact(self):
        doc = {
            "items": ["a", "b"],
            "menus": [
                {"menu": ["a"], "rows": [{"set": ["a"], "p": "1.0"}]},
                {"menu": ["b"], "rows": [{"set": ["b"], "p": "1.0"}]},
                {
                    "menu": ["a", "b"],
                    "rows": [
                        {"set": ["a"], "p": "0.5"},
                        {"set": ["b"], "p": "0.25"},
                        {"set": ["a", "b"], "p": "0.25"},
                    ],
                },
            ],
        }
        scc = parse_scc(doc)
        assert not scc.exact
        assert scc.rows[AB][A] == 0.5

    def test_mixed_literals_rejected(self):
        doc = {
            "items": ["a", "b"],
            "menus": [
                {
                    "menu": ["a", "b"],
                    "rows": [
                        {"set": ["a"], "p": "1/2"},
                        {"set": ["b"], "p": "0.5"},
                    ],
                }
            ],
        }
        with pytest.raises(MixedFormatError):
            parse_scc(doc)

    def test_row_sum_failure_is_reported(self):
        doc = {
            "items": ["a", "b"],
            "menus": [
                {
                    "menu": ["a", "b"],
                    "rows": [
                        {"set": ["a"], "p": "1/2"},
                        {"set": ["b"], "p": "2/5"},
                    ],
                }
            ],
        }
        with pytest.raises(SchemaError, match="validation"):
            parse_scc(doc)

    def test_duplicate_menu_rejected(self):
        entry = {"menu": ["a"], "rows": [{"set": ["a"], "p": "1"}]}
        doc = {"items": ["a", "b"], "menus": [entry, dict(entry)]}
        with pytest.raises(SchemaError, match="duplicate menu"):
            parse_scc(doc)

    def test_empty_set_needs_flag(self):
        doc = {
            "items": ["a", "b"],
            "menus": [
                {
                    "menu": ["a"],
                    "rows": [{"set": [], "p": "1/2"}, {"set": ["a"], "p": "1/2"}],
                }
            ],
        }
        with pytest.raises(SchemaError):
            parse_scc(doc)
        fixed = dict(doc, allows_empty=True)
        assert parse_scc(fixed).allows_empty

    def test_missing_items_rejected(self):
        with pytest.raises(SchemaError, match="items"):
            parse_scc({"menus": []})


class TestParamsDocuments:
    @pytest.mark.parametrize("model,empty", ALL_VARIANTS)
    def test_every_bundle_round_trips(self, model, empty):
        spec = sample_params(GenConfig(3, model, seed=31, empty_variant=empty))
        universe = Universe.default(3)
        doc = params_to_document(spec, universe)
        parsed_spec, parsed_universe = parse_params(doc)
        assert parsed_spec == spec
        assert parsed_universe == universe
        assert params_to_document(parsed_spec, parsed_universe) == doc
        # an unset empty_weight is left out, not written as null
        assert None not in doc["params"].values()

    @pytest.mark.parametrize(
        "model,path,bad,prefix",
        [
            (ModelTag.LOGIT, ("weights", "a"), 2, "params.weights['a']"),
            (ModelTag.LOGIT, ("empty_weight",), 1, "params.empty_weight"),
            (ModelTag.IC, ("inclusion", "a"), 0.5, "params.inclusion['a']"),
            (ModelTag.RRM, ("constraints", "a"), "a", "params.constraints['a']"),
            (ModelTag.AR, ("attributes", 0, "item_values"), {"a": "1"},
             "params.attributes[0].item_values['a']"),
            (ModelTag.NSC, ("nests", 0), "a", "params.nests[0]"),
            (ModelTag.NESTED_LOGIT, ("exponents", 0), 1, "params.exponents[0]"),
            (ModelTag.EBA, ("attributes", 0), ["a"], "params.attributes[0]"),
        ],
    )
    def test_wrong_typed_field_names_it(self, model, path, bad, prefix):
        spec = sample_params(GenConfig(3, model, seed=31))
        doc = params_to_document(spec, Universe.default(3))
        target = doc["params"]
        for step in path[:-1]:
            target = target[step]
        target[path[-1]] = bad
        with pytest.raises(SchemaError) as info:
            parse_params(doc)
        assert str(info.value).startswith(prefix + ": expected")

    def test_reference_constraint_table(self):
        doc = {
            "model": "rrm",
            "items": ["x", "y"],
            "params": {
                "salience": {"x": "1", "y": "1"},
                "constraints": {"x": ["x", "y"], "y": ["y"]},
            },
        }
        spec, universe = parse_params(doc)
        scc = generate_scc(spec, universe)
        assert scc.rows[0b11] == {0b11: F(1, 2), 0b10: F(1, 2)}

    def test_unknown_model_tag(self):
        doc = dict(logit_params_document(), model="mystery")
        with pytest.raises(SchemaError, match="unknown tag"):
            parse_params(doc)

    def test_item_keyed_maps_reject_multi_labels(self):
        doc = {
            "model": "ic",
            "items": ["a", "b"],
            "params": {"inclusion": {"a,b": "1/2", "b": "1/3"}},
        }
        with pytest.raises(SchemaError):
            parse_params(doc)


#: Labels that a comma-separated label list cannot name.
UNNAMEABLE = [["a,b", "c"], [" x", "y"], ["", "z"], ["x\t", "y"]]


class TestUnnameableLabels:
    """A universe's labels must be nameable in a label list, which is split
    on ',' with each part stripped: in a dataset, a params document and on
    the command line, other labels are a schema error naming the items."""

    @staticmethod
    def documents(labels):
        scc = {
            "items": labels,
            "menus": [{"menu": [labels[0]], "rows": [{"set": [labels[0]], "p": "1"}]}],
        }
        params = {
            "model": "logit",
            "items": labels,
            "params": {"weights": {label: "1" for label in labels}},
        }
        return scc, params

    @pytest.mark.parametrize("labels", UNNAMEABLE, ids=repr)
    def test_parsers_refuse_them(self, labels):
        for document, parse in zip(self.documents(labels), (parse_scc, parse_params)):
            with pytest.raises(SchemaError, match=r"^items: label .* must be non-empty"):
                parse(document)

    @pytest.mark.parametrize("labels", UNNAMEABLE, ids=repr)
    def test_cli_exits_2_with_one_error_line(self, tmp_path, capsys, labels):
        scc, params = self.documents(labels)
        for name, document, argv in (
            ("scc.json", scc, ["check", "--axioms", "all"]),
            ("params.json", params, ["gen", "--params"]),
        ):
            path = tmp_path / name
            path.write_text(json.dumps(document))
            assert cli_main([*argv, str(path)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: items: label ")
            assert captured.err.count("\n") == 1


class TestCountsTables:
    def test_frequencies(self):
        text = "menu;set;count\na,b;a;50\na,b;b;25\na,b;a,b;25\n"
        scc = estimate_from_counts(parse_counts(text))
        assert not scc.exact
        assert scc.rows[0b11] == {0b01: 0.5, 0b10: 0.25, 0b11: 0.25}

    def test_duplicates_accumulate(self):
        text = "menu;set;count\na,b;a;30\na,b;a;20\na,b;b;50\n"
        table = parse_counts(text)
        assert table.counts[(0b11, 0b01)] == 50

    def test_universe_inferred_from_menus(self):
        table = parse_counts("menu;set;count\nb,c;b;1\na;a;1\n")
        assert table.universe.items == ("a", "b", "c")

    def test_header_required(self):
        with pytest.raises(SchemaError, match="header"):
            parse_counts("menu,set,count\na;a;1\n")

    def test_set_outside_menu(self):
        with pytest.raises(SchemaError, match="not contained"):
            parse_counts("menu;set;count\na,b;a;1\nb;a,b;1\n")

    @pytest.mark.parametrize(
        "rows, message",
        [
            # one row, a blank line, then the bad row on file line 4
            ("a,b;a;1\n\na;a;x\n", "line 4: count must be an integer"),
            ("a,b;a;1\n\nb;a,b;1\n", "line 4: set ('a', 'b') is not contained in menu ('b',)"),
            ("a,b;a;1\n\na;z;1\n", "line 4: unknown item label 'z'"),
            # a quoted menu over file lines 2 and 3
            ('"a,\nb";a;1\na;a;x\n', "line 4: count must be an integer"),
        ],
        ids=["bad_count", "set_outside_menu", "unknown_label", "quoted_newline"],
    )
    def test_errors_name_the_file_line(self, rows, message):
        with pytest.raises(SchemaError) as info:
            parse_counts("menu;set;count\n" + rows)
        assert str(info.value).startswith(message)

    def test_zero_total_menu(self):
        table = parse_counts("menu;set;count\na;a;0\n")
        with pytest.raises(ZeroTotalMenuError):
            estimate_from_counts(table)

    def test_empty_set_row_enables_empty_collection(self):
        text = "menu;set;count\na;a;3\na;;1\n"
        scc = estimate_from_counts(parse_counts(text))
        assert scc.allows_empty
        assert scc.rows[0b1] == {0b1: 0.75, 0: 0.25}


class TestCli:
    def run(self, tmp_path, *argv):
        out = tmp_path / "out.json"
        code = cli_main([*argv, "-o", str(out)])
        payload = json.loads(out.read_text()) if out.exists() else None
        return code, payload

    @pytest.fixture()
    def params_path(self, tmp_path):
        path = tmp_path / "logit.json"
        path.write_text(json.dumps(logit_params_document()))
        return str(path)

    @pytest.fixture()
    def nsc_path(self, tmp_path):
        path = tmp_path / "nsc.json"
        path.write_text(json.dumps(nsc_document()))
        return str(path)

    def test_gen_and_check(self, tmp_path, params_path):
        code, doc = self.run(tmp_path, "gen", "--params", params_path)
        assert code == 0
        scc_path = tmp_path / "scc.json"
        scc_path.write_text(json.dumps(doc))
        code, result = self.run(
            tmp_path, "check", str(scc_path), "--axioms", "iis,full_support"
        )
        assert code == 0
        assert all(r["holds"] for r in result["reports"])

    def test_check_all_covers_applicable_axioms(self, tmp_path, params_path):
        _, doc = self.run(tmp_path, "gen", "--params", params_path)
        scc_path = tmp_path / "scc.json"
        scc_path.write_text(json.dumps(doc))
        code, result = self.run(tmp_path, "check", str(scc_path), "--axioms", "all")
        names = [r["axiom"] for r in result["reports"]]
        # standard data without attribute carriers: 14 of the 17 checks apply
        assert len(names) == 14
        assert "IIS_O" not in names and "POS2" not in names
        by_name = {r["axiom"]: r for r in result["reports"]}
        assert by_name["IIS"]["holds"] and by_name["FULL_SUPPORT"]["holds"]
        # no single dataset satisfies every model's axioms, so findings exit
        assert code == 1

    @pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
    def test_check_takes_the_grand_row_certificate(self, tmp_path, monkeypatch, capsys, exact):
        """On full-support logit data at n=6, ``check`` reaches neither the
        IIS pair scan nor PIIS stages 2 and 3: patched to raise, they leave
        the output and exit code of the path without the certificate."""
        scc = generate_scc(sample_params(GenConfig(6, ModelTag.LOGIT, seed=5300)), Universe.default(6))
        if not exact:
            rows = {m: {t: float(p) for t, p in row.items()} for m, row in scc.rows.items()}
            scc = SCC(scc.universe, rows, exact=False)
        path = tmp_path / "logit.json"
        path.write_text(json.dumps(scc_to_document(scc)))

        def run(axioms):
            code = cli_main(["check", str(path), "--axioms", axioms])
            return code, capsys.readouterr()

        fails = scclab.axioms._GrandRow(None, False)
        with monkeypatch.context() as patch:
            patch.setattr(scclab.axioms, "_grand_row", lambda scc, tol: fails)
            expected = {axioms: run(axioms) for axioms in ("all", "iis,piis,full_support")}

        def unreachable(*args, **kwargs):
            raise AssertionError("the grand-row certificate should have decided")

        for name in ("_iis_scan", "_fit_potential", "_chain_scan"):
            monkeypatch.setattr(scclab.axioms, name, unreachable)
        for axioms, outcome in expected.items():
            assert run(axioms) == outcome, axioms
        assert expected["iis,piis,full_support"][0] == 0
        # logit data violates relative additivity, so the whole battery has findings
        assert expected["all"][0] == 1

    def test_gen_reads_the_variant_from_the_document(self, tmp_path):
        document = {**logit_params_document(), "empty_variant": True}
        document["params"]["empty_weight"] = "4"
        path = tmp_path / "logit_o.json"
        path.write_text(json.dumps(document))
        code, doc = self.run(tmp_path, "gen", "--params", str(path))
        assert code == 0 and doc["allows_empty"] is True

    def test_gen_takes_only_the_params_document(self, capsys):
        assert cli_main(["gen", "--help"]) == 0
        usage = capsys.readouterr().out.splitlines()[0]
        assert usage == "usage: scclab gen [-h] --params PARAMS [-o OUTPUT]"

    def test_eval_single_probability(self, tmp_path, params_path):
        code, payload = self.run(
            tmp_path, "eval", "--params", params_path, "--menu", "a,b", "--set", "a"
        )
        assert code == 0
        assert payload == {"menu": ["a", "b"], "set": ["a"], "p": "1/2"}

    def test_eval_prints_what_gen_writes_on_mixed_literals(self, tmp_path):
        # one rational and one decimal rate: the bundle is in float mode, even
        # on the menu {a}, whose row reads only the rational rate
        document = {
            "model": "ic",
            "items": ["a", "b"],
            "params": {"inclusion": {"a": "1/2", "b": "0.25"}},
        }
        path = tmp_path / "mixed.json"
        path.write_text(json.dumps(document))
        _, scc = self.run(tmp_path, "gen", "--params", str(path))
        for entry in scc["menus"]:
            menu = ",".join(entry["menu"])
            _, row = self.run(tmp_path, "eval", "--params", str(path), "--menu", menu)
            assert row["rows"] == entry["rows"]
            for cell in entry["rows"]:
                _, single = self.run(
                    tmp_path, "eval", "--params", str(path), "--menu", menu,
                    "--set", ",".join(cell["set"]),
                )
                assert single["p"] == cell["p"]
        assert scc["menus"][0]["rows"] == [{"set": ["a"], "p": "1.0"}]

    @pytest.mark.parametrize(
        "menu,collection",
        [("a", "b"), ("a,b", ""), ("", None), ("", "a")],
        ids=["set-outside-menu", "empty-set", "empty-menu", "empty-menu-with-set"],
    )
    def test_eval_shape_errors_are_usage_errors(
        self, tmp_path, capsys, params_path, menu, collection
    ):
        argv = ["eval", "--params", params_path, "--menu", menu]
        code, payload = self.run(
            tmp_path, *argv, *(["--set", collection] if collection is not None else [])
        )
        assert (code, payload) == (2, None)
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_eval_empty_menu_has_one_message(self, tmp_path, capsys, params_path):
        errors = []
        for extra in ([], ["--set", "a"]):
            code, _ = self.run(tmp_path, "eval", "--params", params_path, "--menu", "", *extra)
            assert code == 2
            errors.append(capsys.readouterr().err)
        assert errors == ["error: menu must be a non-empty subset of the universe\n"] * 2

    @pytest.mark.parametrize(
        "nests,exponents",
        [([["c"], ["a", "b"]], ["1", "2"]), ([["a", "b"], ["c"]], ["2", "1"])],
        ids=["descending", "ascending"],
    )
    def test_eval_keeps_each_exponent_with_its_nest(self, tmp_path, nests, exponents):
        # weights 3^2 = 9 for {a,b} against 3^1 = 3 for {c}, in either order
        document = {
            "model": "nested_logit",
            "items": ["a", "b", "c"],
            "params": {
                "nests": nests,
                "utilities": {"a": "1", "b": "2", "c": "3"},
                "exponents": exponents,
            },
        }
        path = tmp_path / "nl.json"
        path.write_text(json.dumps(document))
        code, payload = self.run(
            tmp_path, "eval", "--params", str(path), "--menu", "a,b,c", "--set", "a,b"
        )
        assert code == 0
        assert payload["p"] == "3/4"

    def test_gen_keeps_a_float_integer_exponent_exact(self, tmp_path):
        # "2.0" is a float literal but an integer exponent, so a bundle of
        # rational utilities stays exact: {a,b} weighs (1/2 + 1)^2 = 9/4
        # against 3 for {c}
        document = {
            "model": "nested_logit",
            "items": ["a", "b", "c"],
            "params": {
                "nests": [["a", "b"], ["c"]],
                "utilities": {"a": "1/2", "b": "1", "c": "3"},
                "exponents": ["2.0", "1"],
            },
        }
        path = tmp_path / "nl.json"
        path.write_text(json.dumps(document))
        code, payload = self.run(tmp_path, "gen", "--params", str(path))
        assert code == 0
        grand = payload["menus"][-1]
        assert grand["menu"] == ["a", "b", "c"]
        assert grand["rows"] == [{"set": ["a", "b"], "p": "3/7"}, {"set": ["c"], "p": "4/7"}]
        literals = [cell["p"] for menu in payload["menus"] for cell in menu["rows"]]
        assert not any("." in p or "e" in p for p in literals)

    def test_check_reports_findings(self, tmp_path, nsc_path):
        code, result = self.run(tmp_path, "check", nsc_path, "--axioms", "rel_add")
        assert code == 1
        report = result["reports"][0]
        assert report["axiom"] == "REL_ADD" and not report["holds"]
        assert report["witnesses"][0]["bindings"]["S"] == ["a", "b", "c"]

    def test_unknown_axiom_is_usage_error(self, tmp_path, nsc_path):
        code, _ = self.run(tmp_path, "check", nsc_path, "--axioms", "zorp")
        assert code == 2

    def test_tol_reaches_the_checks(self, tmp_path):
        # float logit data with one binary-menu ratio off by about 1e-6
        exact = logit3_scc()
        rows = {m: {t: float(p) for t, p in row.items()} for m, row in exact.rows.items()}
        rows[AB][A] += 1e-6
        rows[AB][B] -= 1e-6
        path = tmp_path / "nudged.json"
        path.write_text(json.dumps(scc_to_document(SCC(exact.universe, rows, exact=False))))
        argv = ["check", str(path), "--axioms", "iis"]
        code, default = self.run(tmp_path, *argv)
        assert code == 1 and not default["reports"][0]["holds"]
        code, loose = self.run(tmp_path, *argv, "--tol", "1e-3")
        assert code == 0 and loose["reports"][0]["holds"]

    def test_output_goes_to_stdout_without_o(self, tmp_path, nsc_path, capsys):
        assert cli_main(["check", nsc_path, "--axioms", "rel_add"]) == 1
        written = capsys.readouterr().out
        _, payload = self.run(tmp_path, "check", nsc_path, "--axioms", "rel_add")
        assert json.loads(written) == payload
        assert written == json.dumps(payload, indent=2, sort_keys=True) + "\n"

    def test_missing_input_file_is_usage_error(self, tmp_path, capsys):
        missing = str(tmp_path / "absent.json")
        assert cli_main(["classify", missing]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and missing in err

    def test_out_of_memory_is_one_error_line(self, nsc_path, capsys, monkeypatch):
        def exhausted(*_, **__):
            raise MemoryError

        monkeypatch.setattr(scclab.io_cli, "full_battery", exhausted)
        assert cli_main(["check", nsc_path, "--axioms", "all"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: out of memory\n" and captured.out == ""

    def test_identify_success(self, tmp_path, nsc_path):
        code, payload = self.run(tmp_path, "identify", nsc_path, "--model", "nsc")
        assert code == 0
        assert payload["identified"] and payload["round_trip_exact"]
        assert payload["params"]["nest_weights"] == {
            "a": "1", "b": "2", "a,b": "4", "c": "3"
        }

    def test_identify_precondition_failure(self, tmp_path, nsc_path):
        code, payload = self.run(tmp_path, "identify", nsc_path, "--model", "logit")
        assert code == 1
        assert payload["identified"] is False
        assert payload["precondition"]["axiom"] == "FULL_SUPPORT"

    def test_identify_auto(self, tmp_path, nsc_path):
        code, payload = self.run(tmp_path, "identify", nsc_path, "--model", "auto")
        assert code == 0
        assert payload["model"] == "nsc"

    def test_identify_auto_lists_every_failed_attempt(self, tmp_path):
        # logit data with two binary-menu probabilities swapped fits no family
        scc = logit3_scc()
        rows = {m: dict(row) for m, row in scc.rows.items()}
        rows[AB][A], rows[AB][B] = rows[AB][B], rows[AB][A]
        path = tmp_path / "swapped.json"
        path.write_text(json.dumps(scc_to_document(SCC(scc.universe, rows))))
        code, payload = self.run(tmp_path, "identify", str(path), "--model", "auto")
        assert code == 1 and payload["identified"] is False
        assert [a["model"] for a in payload["attempts"]] == [
            "logit", "rcg", "ic", "rrm", "nsc"
        ]

    def test_identify_auto_refuses_an_incomplete_dataset(self, tmp_path, capsys):
        path = tmp_path / "incomplete.json"
        path.write_text(json.dumps({
            "items": ["a", "b", "c"],
            "menus": [{"menu": ["a"], "rows": [{"set": ["a"], "p": "1"}]}],
        }))
        commands = (["identify", "--model", "auto"], ["classify"], ["check", "--axioms", "iis"])
        for command in commands:
            code, payload = self.run(tmp_path, command[0], str(path), *command[1:])
            assert code == 2 and payload is None, command
            assert capsys.readouterr().err == (
                "error: operation requires a complete SCC; 6 menu(s) absent\n"
            ), command

    @pytest.mark.parametrize("model", ["ic", "ic_o"])
    def test_identify_one_item_inclusion(self, tmp_path, model):
        # one item: the standard rate is not identified and 1/2 is emitted;
        # the empty-collection form recovers the rate from the grand row
        empty = model == "ic_o"
        spec = ModelSpec(ModelTag.IC, ICParams({0: Fraction(1, 3)}), empty_variant=empty)
        path = tmp_path / f"{model}.json"
        path.write_text(json.dumps(scc_to_document(generate_scc(spec, Universe.default(1)))))
        code, payload = self.run(tmp_path, "identify", str(path), "--model", model)
        assert code == 0 and payload["identified"] and payload["model"] == "ic"
        assert payload["params"] == {"inclusion": {"a": "1/3" if empty else "1/2"}}
        assert payload["empty_variant"] is empty

    def test_identify_refuses_an_invalid_recovered_bundle(self, tmp_path):
        path = tmp_path / "half_empty.json"
        path.write_text(json.dumps({
            "items": ["a"],
            "allows_empty": True,
            "menus": [
                {"menu": ["a"], "rows": [{"set": [], "p": "1/2"}, {"set": ["a"], "p": "1/2"}]}
            ],
        }))
        code, payload = self.run(tmp_path, "identify", str(path), "--model", "rcg_o")
        assert code == 1
        assert payload == {
            "identified": False,
            "error": "recovered parameters are not a valid bundle: "
            "category weights must sum to 1, got 1/2",
        }

    def test_identify_ic_o_on_a_dataset_that_chooses_nothing(self, tmp_path):
        path = tmp_path / "nothing.json"
        path.write_text(json.dumps({
            "items": ["a", "b"],
            "allows_empty": True,
            "menus": [{"menu": menu, "rows": [{"set": [], "p": "1"}]}
                      for menu in (["a"], ["b"], ["a", "b"])],
        }))
        code, payload = self.run(tmp_path, "identify", str(path), "--model", "ic_o")
        assert code == 1
        assert payload["identified"] is False
        assert payload["error"].endswith("inclusion probabilities are undefined")

    @pytest.fixture()
    def logit_o_path(self, tmp_path):
        params = LogitParams({A: F(2), B: F(1), AB: F(1)}, empty_weight=F(4))
        scc = generate_scc(
            ModelSpec(ModelTag.LOGIT, params, empty_variant=True), Universe.default(2)
        )
        path = tmp_path / "logit_o.json"
        path.write_text(json.dumps(scc_to_document(scc)))
        return str(path)

    def test_identify_empty_variant_on_standard_data(self, tmp_path, nsc_path, capsys):
        code, payload = self.run(tmp_path, "identify", nsc_path, "--model", "logit_o")
        assert code == 2 and payload is None
        assert capsys.readouterr().err == (
            "error: requested variant does not match the SCC's "
            "empty-collection flag\n"
        )

    @pytest.mark.parametrize("model", ["eba", "ar", "rrm", "nsc", "nested_logit"])
    def test_identify_model_without_empty_variant(
        self, tmp_path, logit_o_path, capsys, model
    ):
        code, payload = self.run(tmp_path, "identify", logit_o_path, "--model", model)
        assert code == 2 and payload is None
        assert capsys.readouterr().err == (
            f"error: {model} has no empty-collection variant\n"
        )

    def test_identify_reads_the_variant_from_the_data(self, tmp_path, logit_o_path):
        for model in ("logit", "logit_o"):
            code, payload = self.run(
                tmp_path, "identify", logit_o_path, "--model", model
            )
            assert code == 0 and payload["empty_variant"]

    @pytest.mark.parametrize("model", ["foo", "eba_o"])
    def test_identify_unknown_target(self, tmp_path, nsc_path, capsys, model):
        code, _ = self.run(tmp_path, "identify", nsc_path, "--model", model)
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: unknown identification target {model!r}\n"
        )

    def test_classify(self, tmp_path, nsc_path):
        code, payload = self.run(tmp_path, "classify", nsc_path)
        assert code == 0
        assert payload["membership"]["nsc"]["status"] == "holds"
        assert payload["relationship_violations"] == []

    def test_fuzz_smoke(self, tmp_path):
        code, payload = self.run(
            tmp_path, "fuzz", "--model", "logit", "--trials", "2",
            "--n", "3", "--seed", "4",
        )
        assert code == 0
        assert payload["summaries"][0]["ok"]

    @pytest.mark.parametrize("model", ["all", "relationships"])
    def test_fuzz_suites(self, tmp_path, model):
        code, payload = self.run(
            tmp_path, "fuzz", "--model", model, "--trials", "1", "--n", "3", "--seed", "4"
        )
        assert code == 0
        suites = [s["suite"] for s in payload["summaries"]]
        assert suites[-1] == "relationships"
        assert len(suites) == (len(ALL_VARIANTS) + 1 if model == "all" else 1)
        assert all(s["ok"] and s["trials"] == 1 for s in payload["summaries"])

    def test_estimate(self, tmp_path):
        counts = tmp_path / "counts.csv"
        counts.write_text("menu;set;count\na,b;a;50\na,b;b;25\na,b;a,b;25\n")
        code, doc = self.run(tmp_path, "estimate", str(counts))
        assert code == 0
        (entry,) = doc["menus"]
        assert {"set": ["a"], "p": "0.5"} in entry["rows"]

    def test_malformed_json_is_usage_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _ = self.run(tmp_path, "classify", str(bad))
        assert code == 2

    def test_no_command_is_usage_error(self):
        assert cli_main([]) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "SCC", "--axioms", "all", "--tol", "-1"],
            ["check", "SCC", "--axioms", "all", "--tol", "nan"],
            ["check", "SCC", "--axioms", "all", "--witness-cap", "0"],
            ["check", "SCC", "--axioms", "all", "--tol", "inf"],
            ["fuzz", "--model", "logit", "--trials", "1", "--n", "x", "--seed", "0"],
            ["fuzz", "--model", "logit", "--trials", "-1", "--n", "3", "--seed", "0"],
        ],
    )
    def test_bad_option_value_is_usage_error(self, nsc_path, capsys, argv):
        """Each exits 2 with an error line; a bad --tol's line is pinned in full."""
        assert cli_main([nsc_path if a == "SCC" else a for a in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        if "--tol" in argv:
            shown = {"-1": "-1.0", "nan": "nan", "inf": "inf"}[argv[-1]]
            assert err == f"error: --tol must be positive and finite, got {shown}\n"

    @pytest.mark.parametrize(
        "command,name,content,message",
        [
            ("check", "rows.json",
             b'{"items": ["a"], "menus": [{"menu": ["a"], "rows": 5}]}',
             "menus[0].rows: expected list"),
            ("check", "latin1.json", b'{"items": ["\xe9"], "menus": []}',
             "FILE: not valid UTF-8 ("),
            ("estimate", "latin1.csv", b"menu;set;count\n\xe9;\xe9;1\n",
             "FILE: not valid UTF-8 ("),
            ("classify", "deep.json", b"[" * 50_000, "FILE: not valid JSON ("),
            # Python's own limits: integer digits, and the csv field size
            ("check", "number.json",
             b'{"items": ["a"], "allows_empty": ' + b"9" * 5000 + b"}",
             "FILE: not valid JSON (Exceeds the limit (4300 digits)"),
            ("estimate", "field.csv",
             b"menu;set;count\na;a;1\na;" + b"a" * 131_073 + b";1\n",
             "line 3: field larger than field limit (131072)"),
        ],
        ids=["rows-not-a-list", "json-not-utf8", "csv-not-utf8", "json-too-deep",
             "json-long-number", "csv-long-field"],
    )
    def test_malformed_file_is_usage_error(
        self, tmp_path, capsys, command, name, content, message
    ):
        path = tmp_path / name
        path.write_bytes(content)
        argv = [command, str(path)] + (["--axioms", "all"] if command == "check" else [])
        assert cli_main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: " + message.replace("FILE", str(path)))
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "model,params,message,command",
        [
            ("nested_logit", {"exponents": ["1000000000"]}, "params.exponents[0]: ", "gen"),
            ("nested_logit", {"exponents": ["1e300"]}, "params.exponents[0]: ", "gen"),
            ("nested_logit", {"exponents": ["1000000000000.5"]}, "params.exponents[0]: ",
             "gen"),
            ("logit", {"weights": {"a": "1.5e308", "b": "1.5e308", "a,b": "1.5e308"}},
             "weights overflow float arithmetic", "gen"),
            ("logit", {"weights": {"a": "1.5e308", "b": "1.5e308", "a,b": "1.5e308"}},
             "weights overflow float arithmetic", "eval"),
        ],
        ids=[
            "exact-exponent",
            "float-integral-exponent",
            "float-exponent",
            "float-weights",
            "float-weights-eval",
        ],
    )
    def test_malformed_params_are_usage_errors(
        self, tmp_path, capsys, model, params, message, command
    ):
        nests = {"nests": [["a", "b"]], "utilities": {"a": "2", "b": "1/3"}}
        document = {
            "model": model,
            "items": ["a", "b"],
            "params": {**nests, **params} if model == "nested_logit" else params,
        }
        path = tmp_path / "params.json"
        path.write_text(json.dumps(document))
        menu = ["--menu", "a,b"] if command == "eval" else []
        assert cli_main([command, "--params", str(path), *menu]) == 2
        assert capsys.readouterr().err.startswith("error: " + message)

    @pytest.mark.parametrize("command", ["gen", "eval"])
    def test_float_ic_denominator_rounding_to_zero_is_a_usage_error(
        self, tmp_path, capsys, command
    ):
        """An inclusion rate of 1e-17 leaves the standard variant's
        denominator 1 - (1 - g) at 0.0 on the menu {a}: refused, not a
        traceback."""
        document = {"model": "ic", "items": ["a", "b"],
                    "params": {"inclusion": {"a": "1e-17", "b": "0.5"}}}
        path = tmp_path / "params.json"
        path.write_text(json.dumps(document))
        menu = ["--menu", "a"] if command == "eval" else []
        assert cli_main([command, "--params", str(path), *menu]) == 2
        err = capsys.readouterr().err
        assert err == "error: float arithmetic rounds a row's denominator to 0\n"

    @pytest.mark.parametrize(
        "argv,content,message",
        [
            (
                ["gen", "--params", "FILE"],
                {"model": "rcg", "items": ["a", "b"], "params": {"mass": {"a,z": "1"}}},
                "params.mass['a,z']: unknown item label 'z'",
            ),
            (
                ["gen", "--params", "FILE"],
                {"model": "rcg", "items": ["a", "b"]},
                "document: missing 'params'",
            ),
            (
                ["gen", "--params", "FILE"],
                {"model": "rcg", "items": ["a"], "params": {"mass": {"a": "1"}},
                 "empty_variant": "yes"},
                "empty_variant: expected a boolean",
            ),
            (["estimate", "FILE"], "menu;set;count\n;a;1\n", "line 2: menu must be non-empty"),
            (["check", "FILE", "--axioms", ","], nsc_document(), "no axioms requested"),
            (
                ["fuzz", "--model", "logit", "--trials", "1", "--n", ",", "--seed", "0"],
                None,
                "--n must list at least one universe size",
            ),
        ],
        ids=["unknown-key-label", "missing-field", "non-boolean-variant", "empty-counts-menu",
             "no-axioms", "no-universe-sizes"],
    )
    def test_refusals_are_usage_errors(self, tmp_path, capsys, argv, content, message):
        path = tmp_path / "input"
        if content is not None:
            path.write_text(content if isinstance(content, str) else json.dumps(content))
        assert cli_main([str(path) if a == "FILE" else a for a in argv]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {message}\n"

    def test_a_witness_cap_past_sys_maxsize_is_read(self, tmp_path, capsys):
        """A cap above sys.maxsize reaches the merged witness streams of IIS
        and PIIS stage 1: the reports of a cap of 10**6, exit 1, and nothing
        on stderr."""
        scc = generate_scc(sample_params(GenConfig(5, ModelTag.RCG, seed=3)), Universe.default(5))
        path = tmp_path / "rcg.json"
        path.write_text(json.dumps(scc_to_document(scc)))
        argv = ["check", str(path), "--axioms", "all", "--witness-cap"]
        assert cli_main([*argv, "99999999999999999999"]) == 1
        huge = capsys.readouterr()
        assert huge.err == ""
        assert cli_main([*argv, str(10**6)]) == 1
        assert capsys.readouterr().out == huge.out

    def test_package_runs_as_a_module(self):
        src = os.path.dirname(os.path.dirname(scclab.__file__))
        done = subprocess.run(
            [sys.executable, "-m", "scclab", "--help"],
            capture_output=True,
            env={**os.environ, "PYTHONPATH": src},
            timeout=60,
        )
        assert done.returncode == 0
        assert done.stderr == b""
        assert done.stdout.startswith(b"usage: ")

    def test_output_is_deterministic(self, tmp_path, nsc_path):
        first = tmp_path / "first.json"
        second = tmp_path / "second.json"
        assert cli_main(["classify", nsc_path, "-o", str(first)]) == 0
        assert cli_main(["classify", nsc_path, "-o", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()


def _dumped(payload):
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _reference_document(scc):
    """An SCC's document as it was built from the Fraction or float rows
    themselves: each cell that is_positive keeps, written by str(Fraction)
    or repr(float)."""
    universe = scc.universe
    return {
        "items": list(universe.items),
        "allows_empty": scc.allows_empty,
        "menus": [
            {
                "menu": list(universe.labels_of(menu)),
                "rows": [
                    {"set": list(universe.labels_of(t)), "p": str(v) if scc.exact else repr(v)}
                    for t, v in sorted(scc.rows[menu].items())
                    if is_positive(scc, v)
                ],
            }
            for menu in sorted(scc.rows)
        ],
    }


def _counts_text(scc):
    """A counts CSV of the SCC's scaled numerators, written by csv itself."""
    rows, _ = scclab.axioms.cached_scaled_rows(scc)
    universe = scc.universe
    buffer = io.StringIO()
    writer = csv.writer(buffer, delimiter=";", lineterminator="\n")
    writer.writerow(["menu", "set", "count"])
    for menu, row in sorted(rows.items()):
        for t, count in sorted(row.items()):
            writer.writerow([",".join(universe.labels_of(m)) for m in (menu, t)] + [count])
    return buffer.getvalue()


#: Labels that JSON escapes: non-ASCII, a space, a quote, a backslash, a tab.
ESCAPED_LABELS = ["\u00e9", "New York", 'q"x', "b\\s", "t\tab"]


class TestOnePrinter:
    """Every command writes through io_cli._emit, whose bytes are those of
    json.dumps(payload, indent=2, sort_keys=True); gen and estimate write
    the SCC's document menu by menu."""

    @settings(max_examples=200, deadline=None)
    @given(
        st.recursive(
            st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
            lambda inner: st.lists(inner)
            | st.tuples(inner, inner)
            | st.dictionaries(st.text(), inner),
            max_leaves=30,
        )
    )
    def test_the_printer_writes_the_bytes_of_json_dumps(self, value):
        assert _text(value) == json.dumps(value, indent=2, sort_keys=True)

    def test_escaped_labels_are_written_as_json_dumps_writes_them(self, tmp_path, capsys):
        universe = Universe.from_labels(ESCAPED_LABELS)
        spec = sample_params(GenConfig(5, ModelTag.LOGIT, seed=41))
        params = tmp_path / "params.json"
        params.write_text(json.dumps(params_to_document(spec, universe)))
        scc_path = tmp_path / "scc.json"
        counts = tmp_path / "counts.csv"
        counts.write_text(_counts_text(generate_scc(spec, universe)), encoding="utf-8")
        menu, collection = ",".join(ESCAPED_LABELS[:3]), ",".join(ESCAPED_LABELS[1:3])
        runs = [
            (["gen", "--params", str(params)], {0}),
            (["check", str(scc_path), "--axioms", "all"], {1}),
            (["classify", str(scc_path)], {0, 1}),
            (["identify", str(scc_path), "--model", "auto"], {0}),
            (["eval", "--params", str(params), "--menu", menu], {0}),
            (["eval", "--params", str(params), "--menu", menu, "--set", collection], {0}),
            (["estimate", str(counts)], {0}),
        ]
        for argv, codes in runs:
            assert cli_main(argv) in codes, argv
            captured = capsys.readouterr()
            assert captured.err == ""
            out = captured.out
            assert out == _dumped(json.loads(out)), argv
            assert out.isascii(), argv
            assert ("\\u00e9" in out) == (argv[0] != "classify"), argv  # classify names no items
            if argv[0] == "gen":
                scc_path.write_text(out)
            if argv[0] == "check":  # witnesses name escaped labels
                witnesses = [w for r in json.loads(out)["reports"] for w in r["witnesses"]]
                assert witnesses and 'q\\"x' in out and "t\\tab" in out

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_streamed_sccs_are_their_documents_bytes(self, tmp_path, n):
        """gen, estimate and _emit write json.dumps of scc_to_document, and
        that document is the one read off the Fraction or float rows: float
        cells at or below EPS_ZERO and exact zeros omitted, an exact cell
        that is a whole number written "1"."""
        universe = Universe.default(n)
        params, out = tmp_path / "params.json", tmp_path / "out.json"
        counts = tmp_path / "counts.csv"
        for index, (model, empty) in enumerate(ALL_VARIANTS):
            spec = sample_params(GenConfig(n, model, seed=4100 + 20 * n + index, empty_variant=empty))
            generated = generate_scc(spec, universe)
            params.write_text(json.dumps(params_to_document(spec, universe)))
            assert cli_main(["gen", "--params", str(params), "-o", str(out)]) == 0
            document = scc_to_document(generated)
            assert document == _reference_document(generated)
            assert out.read_text() == _dumped(document)
            if not empty:  # a singleton menu's one cell
                assert '"p": "1"' in out.read_text()

            counts.write_text(_counts_text(generated))
            assert cli_main(["estimate", str(counts), "-o", str(out)]) == 0
            estimated = estimate_from_counts(parse_counts(counts.read_text()))
            assert out.read_text() == _dumped(scc_to_document(estimated))
            assert scc_to_document(estimated) == _reference_document(estimated)

            full = universe.full_mask
            for exact in (True, False):
                rows = {
                    m: {t: p if exact else float(p) for t, p in row.items()}
                    for m, row in generated.rows.items()
                }
                unrecorded = [t for t in submasks(full) if t not in rows[full]]
                assert unrecorded or empty  # standard data never records the empty set
                for t, p in zip(unrecorded, (F(0), F(0, 7)) if exact else (EPS_ZERO, 1e-300)):
                    rows[full][t] = p
                scc = SCC(universe, rows, empty, exact)
                _emit(scc, str(out))
                assert scc_to_document(scc) == _reference_document(scc)
                assert out.read_text() == _dumped(_reference_document(scc))

    def test_gen_holds_neither_the_document_nor_its_text(self, tmp_path):
        """gen of an exact logit bundle at n = 9 peaks under tracemalloc below
        3/4 of the size of the file it writes (about 0.57 when written menu
        by menu; a writer that builds the document and its text peaks at
        about 11 times the size)."""
        spec = sample_params(GenConfig(9, ModelTag.LOGIT, seed=909))
        params, out = tmp_path / "params.json", tmp_path / "scc.json"
        params.write_text(json.dumps(params_to_document(spec, Universe.default(9))))
        tracemalloc.start()
        try:
            assert cli_main(["gen", "--params", str(params), "-o", str(out)]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.75 * out.stat().st_size


# ---------------------------------------------------------------------------
# the reader against its per-literal form


def _reference_parse(document):
    """parse_scc as it read before literals were decoded where they are
    read: every literal through _literal, every menu label list through
    _mask_from_labels."""
    _require_type(document, dict, "document")
    if "items" not in document:
        raise SchemaError("document: missing 'items'")
    universe = _parse_universe(document["items"])
    allows_empty = document.get("allows_empty", False)
    if not isinstance(allows_empty, bool):
        raise SchemaError("allows_empty: expected a boolean")
    menus_field = _require_type(document.get("menus", []), list, "menus")
    sets = {}
    rows = {}
    saw_exact = saw_float = False
    for mi, entry in enumerate(menus_field):
        context = f"menus[{mi}]"
        _require_type(entry, dict, context)
        menu = _mask_from_labels(universe, entry.get("menu"), f"{context}.menu", allow_empty=False)
        if menu in rows:
            raise SchemaError(f"{context}: duplicate menu {universe.labels_of(menu)}")
        row = {}
        cells = _require_type(entry.get("rows", []), list, f"{context}.rows")
        for ri, cell in enumerate(cells):
            if not isinstance(cell, dict):
                raise SchemaError(f"{context}.rows[{ri}]: expected dict")
            labels = cell.get("set")
            try:
                collection = sets[tuple(labels) if isinstance(labels, list) else None]
            except (KeyError, TypeError):
                collection = _mask_from_labels(universe, labels, f"{context}.rows[{ri}].set")
                sets[tuple(labels)] = collection
            if collection in row:
                raise SchemaError(
                    f"{context}.rows[{ri}]: duplicate set {universe.labels_of(collection)}"
                )
            literal = cell.get("p")
            if not isinstance(literal, str):
                raise SchemaError(f"{context}.rows[{ri}].p: expected a string")
            value = row[collection] = _literal(literal)
            if isinstance(value, tuple):
                saw_exact = True
            else:
                saw_float = True
        rows[menu] = row
    if saw_exact and saw_float:
        raise MixedFormatError("document mixes rational and decimal probability literals")
    violations, scaled = validate_rows(rows, universe.full_mask, allows_empty, not saw_float)
    if violations:
        details = "; ".join(
            f"[{v.property_id}] menu {universe.labels_of(v.menu)}: {v.detail}"
            for v in violations[:5]
        )
        raise SchemaError(f"dataset fails validation ({len(violations)} issue(s)): {details}")
    if scaled is None:
        return SCC(universe, rows, allows_empty=allows_empty, exact=False)
    return SCC.from_scaled(universe, *scaled, allows_empty)


def _read(parse, document):
    """What ``parse`` makes of a document: the SCC's rows, its scaled rows
    with their denominators, its mode and its variant, each in its order and
    types, or the class and text of the error it raises."""
    try:
        scc = parse(document)
    except ScclabError as exc:
        return type(exc), str(exc)
    scaled = scclab.axioms.cached_scaled_rows(scc)
    return repr(dict(scc.rows.items())), repr(scaled), scc.exact, scc.allows_empty


def _float_document(document):
    """The document with every literal written as its nearest float's."""
    for entry in document["menus"]:
        for cell in entry["rows"]:
            cell["p"] = repr(float(Fraction(cell["p"])))
    return document


def _reader_documents(n, index):
    """A variant at n items as an exact and as a float document, each
    followed by its copy with every row's cells in descending order."""
    model, empty = ALL_VARIANTS[index]
    spec = sample_params(GenConfig(n, model, seed=4300 + 20 * n + index, empty_variant=empty))
    exact = scc_to_document(generate_scc(spec, Universe.default(n)))
    for document in (exact, _float_document(copy.deepcopy(exact))):
        yield document
        reverse = copy.deepcopy(document)
        for entry in reverse["menus"]:
            entry["rows"].reverse()
        yield reverse


#: Bare integers: zero, one, zero-padded, out of range, non-ASCII, and past
#: the digit limit of an int-string conversion.
BARE_INTEGERS = ("0", "1", "00", "01", "2", "١", "1" * 5000)


def _structural_edits(document):
    """The document with a field of the wrong type, a duplicate set or
    menu, an unknown label, an empty menu or a bad literal before a
    duplicate set in its row, each under a name."""
    cell = ("menus", -1, "rows", 0)
    edits = {
        "p-number": (cell + ("p",), 0.5),
        "p-list": (cell + ("p",), ["1/2"]),
        "p-missing": (cell + ("p",), None),
        "set-string": (cell + ("set",), "a"),
        "set-number": (cell + ("set",), 1),
        "set-nested": (cell + ("set",), ["a", ["b"]]),
        "set-unknown": (cell + ("set",), ["z"]),
        "rows-dict": (("menus", -1, "rows"), {}),
        "rows-string": (("menus", -1, "rows"), "x"),
        "cell-list": (cell, ["a"]),
        "menu-string": (("menus", -1, "menu"), "a"),
        "menu-number": (("menus", -1, "menu"), 3),
        "menu-nested": (("menus", -1, "menu"), [["a"]]),
        "menu-unknown": (("menus", -1, "menu"), ["a", "z"]),
        "menu-empty": (("menus", -1, "menu"), []),
        "menus-dict": (("menus",), {}),
    }
    for name, (path, value) in edits.items():
        edited = copy.deepcopy(document)
        *steps, key = path
        parent = edited
        for step in steps:
            parent = parent[step]
        parent[key] = value
        yield name, edited
    edited = copy.deepcopy(document)
    edited["menus"][-1]["rows"].append(copy.deepcopy(edited["menus"][-1]["rows"][0]))
    yield "duplicate-set", edited
    edited = copy.deepcopy(document)
    edited["menus"].append(copy.deepcopy(edited["menus"][0]))
    yield "duplicate-menu", edited
    edited = copy.deepcopy(document)
    row = edited["menus"][-1]["rows"]
    row.insert(0, {"set": row[0]["set"], "p": "x"})
    yield "bad-literal-before-duplicate-set", edited


class TestReaderAgainstReference:
    """parse_scc builds the SCC _reference_parse builds, or raises its error
    with its text: on every variant's exact and float documents, with a cell
    set to an edge of either literal path or to a bare integer, and with a
    structural defect."""

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    @pytest.mark.parametrize(
        "index", range(len(ALL_VARIANTS)),
        ids=[f"{model.value}{'_o' * empty}" for model, empty in ALL_VARIANTS],
    )
    def test_same_scc_or_error(self, n, index):
        for document in _reader_documents(n, index):
            read = _read(parse_scc, document)
            assert read == _read(_reference_parse, document)
            assert not isinstance(read[0], type)  # every generated document reads
            middle = document["menus"][len(document["menus"]) // 2]["rows"][0]
            for literal in (*LITERALS, *FLOAT_LITERALS, *BARE_INTEGERS):
                middle["p"], kept = literal, middle["p"]
                assert _read(parse_scc, document) == _read(_reference_parse, document), literal
                middle["p"] = kept
            for edit, edited in _structural_edits(document):
                assert _read(parse_scc, edited) == _read(_reference_parse, edited), edit

    def test_bare_integer_rows_read_as_exact(self):
        document = {
            "items": ["a", "b"],
            "menus": [
                {"menu": ["a"], "rows": [{"set": ["a"], "p": "1"}]},
                {"menu": ["b"], "rows": [{"set": ["b"], "p": "01"}]},
                {"menu": ["a", "b"], "rows": [{"set": ["a"], "p": "0"}, {"set": ["b"], "p": "1"}]},
            ],
        }
        assert _read(parse_scc, document) == _read(_reference_parse, document)
        assert parse_scc(document).rows == {A: {A: F(1)}, B: {B: F(1)}, AB: {A: F(0), B: F(1)}}
