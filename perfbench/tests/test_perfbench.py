"""Tests of the benchmark itself: seeded fixtures, the gate, the tracer.

    python3 -m unittest discover -s perfbench/tests
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import shutil
import sys
import tempfile
import unittest
from unittest import mock

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from gate import Gate  # noqa: E402
from run import DEFAULT_SEED, OUT, Run, execute, import_program, load_pins  # noqa: E402
import run as run_module  # noqa: E402
from tracer import TARGETS, MissingTargetError, Tracer, layer_table  # noqa: E402
import tracer as tracer_module  # noqa: E402
from workloads import build_pass, build_warmup, fixture_digest  # noqa: E402


class BenchTestCase(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.prog = import_program()

    def setUp(self):
        os.makedirs(OUT, exist_ok=True)
        self.workdir = tempfile.mkdtemp(prefix="test-", dir=OUT)
        self.addCleanup(shutil.rmtree, self.workdir, True)

    def small_op(self, workload: str, seed: int = 1):
        op = build_warmup(self.prog, workload, seed, 0, self.workdir)
        rc, error, _ = execute(self.prog, op)
        return op, rc, error

    def rewrite(self, op, edit):
        with open(op.output, encoding="utf-8") as handle:
            payload = json.load(handle)
        edit(payload)
        with open(op.output, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)


class FixtureTest(BenchTestCase):
    def test_same_seed_same_inputs(self):
        first = fixture_digest(build_pass(self.prog, "analyze", 7, 2, self.workdir))
        second = fixture_digest(build_pass(self.prog, "analyze", 7, 2, self.workdir))
        self.assertEqual(first, second)

    def test_seed_and_pass_change_inputs(self):
        base = fixture_digest(build_pass(self.prog, "check-exact", 7, 0, self.workdir))
        other_seed = fixture_digest(build_pass(self.prog, "check-exact", 8, 0, self.workdir))
        other_pass = fixture_digest(build_pass(self.prog, "check-exact", 7, 1, self.workdir))
        self.assertEqual(len({base, other_seed, other_pass}), 3)

    def test_default_seed_matches_pin(self):
        pins = load_pins()["fixture_digests"]
        for workload in ("check-float", "fuzz"):
            ops = build_pass(self.prog, workload, DEFAULT_SEED, 0, self.workdir)
            self.assertEqual(fixture_digest(ops), pins[workload], workload)

    def test_float_twin_reads_as_float(self):
        ops = build_pass(self.prog, "check-float", 3, 0, self.workdir)
        with open(ops[0].argv[1], encoding="utf-8") as handle:
            scc = self.prog.io_cli.parse_scc(json.load(handle))
        self.assertFalse(scc.exact)


class GateTest(BenchTestCase):
    def test_clean_outputs_pass(self):
        for workload in ("check-exact", "check-float", "analyze", "fuzz"):
            op, rc, error = self.small_op(workload)
            self.assertEqual(Gate(self.prog).check_op(op, rc, error), [], workload)

    def test_exit_code_two_and_errors_fail(self):
        op, rc, _ = self.small_op("check-exact")
        gate = Gate(self.prog)
        self.assertTrue(gate.check_op(op, 2, None))
        self.assertTrue(gate.check_op(op, rc, "ValueError: boom"))

    def test_exit_code_must_match_verdicts(self):
        op, rc, error = self.small_op("check-exact")
        self.assertTrue(Gate(self.prog).check_op(op, 1 - rc, error))

    def test_corrupted_witness_fails(self):
        op, rc, error = self.small_op("check-exact")

        def corrupt(payload):
            for report in payload["reports"]:
                for w in report["witnesses"]:
                    if w["lhs"] is not None:
                        w["lhs"] = "1/7919"
                        return
            raise AssertionError("no equation witness to corrupt")

        self.rewrite(op, corrupt)
        reasons = Gate(self.prog).check_op(op, rc, error)
        self.assertTrue(any("recheck" in r for r in reasons), reasons)

    def test_flipped_verdict_fails(self):
        op, rc, error = self.small_op("check-exact")

        def flip(payload):
            payload["reports"][0]["holds"] = not payload["reports"][0]["holds"]

        self.rewrite(op, flip)
        self.assertTrue(Gate(self.prog).check_op(op, rc, error))

    def test_float_verdicts_must_match_exact(self):
        op, rc, error = self.small_op("check-float")
        with open(op.output, encoding="utf-8") as handle:
            reports = json.load(handle)["reports"]
        exact = Gate(self.prog).exact_verdicts(op.dataset, reports)
        scc = self.prog.io_cli.parse_scc(op.dataset.document)
        self.assertEqual(exact, {r.axiom.value: r.holds for r in self.prog.axioms.full_battery(scc)})
        op.dataset.exact_verdicts = {axiom: not holds for axiom, holds in exact.items()}
        reasons = Gate(self.prog).check_op(op, rc, error)
        self.assertTrue(any("float verdicts" in r for r in reasons), reasons)

    def test_wrong_identified_parameters_fail(self):
        op = build_pass(self.prog, "analyze", 1, 0, self.workdir)[1]  # identify on rcg
        rc, error, _ = execute(self.prog, op)

        def perturb(payload):
            mass = payload["params"]["mass"]
            first, second = sorted(mass)[:2]
            mass[first], mass[second] = mass[second], mass[first]

        self.assertEqual(Gate(self.prog).check_op(op, rc, error), [])
        self.rewrite(op, perturb)
        reasons = Gate(self.prog).check_op(op, rc, error)
        self.assertTrue(any("reproduce" in r for r in reasons), reasons)

    def test_misclassified_dataset_fails(self):
        op, rc, error = self.small_op("analyze")

        def demote(payload):
            payload["membership"]["rcg"]["status"] = "fails"

        self.rewrite(op, demote)
        self.assertTrue(Gate(self.prog).check_op(op, rc, error))

    def test_failed_fuzz_summary_fails(self):
        op, rc, error = self.small_op("fuzz")

        def fail(payload):
            payload["summaries"][0]["ok"] = False

        self.rewrite(op, fail)
        self.assertTrue(Gate(self.prog).check_op(op, rc, error))

    def test_pinned_verdicts_are_checked(self):
        op, rc, error = self.small_op("check-exact")
        gate = Gate(self.prog)
        gate.pinned = {op.dataset.label: {"IIS": True}}
        reasons = gate.check_op(op, rc, error)
        self.assertTrue(any("pin" in r for r in reasons), reasons)


class PinCheckTest(BenchTestCase):
    def test_wrong_verdict_fails_the_pin_check(self):
        run = Run(argparse.Namespace(workload="check-exact", seed=5, seconds=0, trace=0))
        run.workdir = self.workdir
        run.prog, run.gate = self.prog, Gate(self.prog)
        full_pass = run_module.build_pass

        def sparse_datasets(*args):  # the three n=6 datasets keep the test quick
            return full_pass(*args)[-3:]

        with mock.patch.object(run_module, "build_pass", sparse_datasets):
            _, _, failures = run.check_pins()
            self.assertEqual(failures, [])
            label = sparse_datasets(self.prog, "check-exact", DEFAULT_SEED, 0, self.workdir)[0].dataset.label
            run.pins = copy.deepcopy(run.pins)
            run.pins["verdicts"][label]["IIS"] = not run.pins["verdicts"][label]["IIS"]
            _, _, failures = run.check_pins()
        self.assertEqual(len(failures), 1, failures)
        self.assertTrue(any("pin" in r for r in failures[0]["reasons"]), failures)


class TracerTest(BenchTestCase):
    def test_spans_cover_the_operation(self):
        op = build_pass(self.prog, "analyze", 1, 0, self.workdir)[0]
        tracer = Tracer()
        with tracer.installed():
            with tracer.operation(1, op.kind, {"command": op.kind}):
                rc, error, latency = execute(self.prog, op)
        self.assertEqual(tracer.missing, [])
        self.assertIsNone(error)
        table = layer_table(tracer.spans, {}, 1, latency)
        self.assertGreater(table["trace.attributed_frac"], 0.95)
        self.assertGreater(table["axioms.REL_ADD.s"], 0)
        self.assertGreater(table["axioms.runs"], 0)
        self.assertGreater(table["classify.relationships_s"], 0)
        # the wrappers are gone once uninstalled
        self.assertIs(self.prog.io_cli.classify, self.prog.classify.classify)
        self.assertFalse(hasattr(self.prog.classify.classify, "__wrapped__"))

    def test_missing_public_target_fails_loudly(self):
        original = tracer_module.TARGETS
        tracer_module.TARGETS = TARGETS + (("scclab.axioms", "no_such_check", "axioms.check", "plain"),)
        try:
            with self.assertRaises(MissingTargetError):
                with Tracer().installed():
                    pass
        finally:
            tracer_module.TARGETS = original


if __name__ == "__main__":
    unittest.main()
