"""JSON document handling, counts estimation, and the command-line front end."""

import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import scclab
from scclab.core import (
    MixedFormatError,
    SchemaError,
    Universe,
    ZeroTotalMenuError,
)
from scclab.fuzz import ALL_VARIANTS, GenConfig, sample_params
from scclab.io_cli import (
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
    LogitParams,
    ModelSpec,
    ModelTag,
    NSCParams,
    generate_scc,
)

F = Fraction
A, B, C, AB, AC, BC, ABC = 1, 2, 4, 3, 5, 6, 7

NSC_SPEC = ModelSpec(
    ModelTag.NSC, NSCParams((AB, C), {A: F(1), B: F(2), AB: F(4), C: F(3)})
)


def nsc_document():
    scc = generate_scc(NSC_SPEC, Universe.default(3))
    return scc_to_document(scc)


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


class TestSccDocuments:
    def test_document_round_trip(self):
        scc = generate_scc(NSC_SPEC, Universe.default(3))
        doc = nsc_document()
        parsed = parse_scc(doc)
        assert parsed == scc
        assert scc_to_document(parsed) == doc  # canonical form is a fixed point

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

    def test_gen_model_cross_check(self, tmp_path, params_path):
        code, _ = self.run(tmp_path, "gen", "--params", params_path, "--model", "rcg")
        assert code == 2

    def test_eval_single_probability(self, tmp_path, params_path):
        code, payload = self.run(
            tmp_path, "eval", "--params", params_path, "--menu", "a,b", "--set", "a"
        )
        assert code == 0
        assert payload == {"menu": ["a", "b"], "set": ["a"], "p": "1/2"}

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

    def test_check_reports_findings(self, tmp_path, nsc_path):
        code, result = self.run(tmp_path, "check", nsc_path, "--axioms", "rel_add")
        assert code == 1
        report = result["reports"][0]
        assert report["axiom"] == "REL_ADD" and not report["holds"]
        assert report["witnesses"][0]["bindings"]["S"] == ["a", "b", "c"]

    def test_unknown_axiom_is_usage_error(self, tmp_path, nsc_path):
        code, _ = self.run(tmp_path, "check", nsc_path, "--axioms", "zorp")
        assert code == 2

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
        assert cli_main([nsc_path if a == "SCC" else a for a in argv]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize(
        "command,name,content",
        [
            ("check", "rows.json",
             b'{"items": ["a"], "menus": [{"menu": ["a"], "rows": 5}]}'),
            ("check", "latin1.json", b'{"items": ["\xe9"], "menus": []}'),
            ("estimate", "latin1.csv", b"menu;set;count\n\xe9;\xe9;1\n"),
            ("classify", "deep.json", b"[" * 50_000),
        ],
        ids=["rows-not-a-list", "json-not-utf8", "csv-not-utf8", "json-too-deep"],
    )
    def test_malformed_file_is_usage_error(self, tmp_path, capsys, command, name, content):
        path = tmp_path / name
        path.write_bytes(content)
        argv = [command, str(path)] + (["--axioms", "all"] if command == "check" else [])
        assert cli_main(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")

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
