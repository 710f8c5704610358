"""Run one scclab benchmark workload in this process and print its metrics.

    python3 perfbench/run.py --workload check-exact --seed 1 --seconds 15 --trace 0

The program is imported from ``src/`` next to this directory and driven
in-process through ``scclab.io_cli.cli_main``: a closed loop with one
client, where each command starts when the previous one has returned.  A
pass is the workload's fixed list of commands on datasets generated for
that pass; passes repeat, each on fresh datasets, until the measurement
loop has run for ``--seconds``.  The correctness gate (gate.py) checks
every command once its pass is done, outside the timed region, and a pin
check against pins.json ends every run.

With ``--trace 0`` the last line of output carries the end-to-end metrics;
with ``--trace 1`` it carries the per-layer metrics (tracer.py), and each
pass runs once traced and once untraced.  Each run also writes a result file (and,
when traced, its spans) under ``perfbench/out/``.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from fractions import Fraction
from types import SimpleNamespace
from typing import Any, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
PINS = os.path.join(HERE, "pins.json")

from gate import Gate  # noqa: E402
from tracer import LAYER_METRICS, Tracer, layer_table  # noqa: E402
from workloads import WORKLOADS, Op, build_pass, build_warmup, fixture_digest  # noqa: E402

DEFAULT_SEED = 0
SETUP_ROUNDS = 5
#: How long ``probe()`` takes at the reference speed (close to its fastest on
#: a 2.1 GHz Xeon vCPU under CPython 3.11).  The machine this benchmark was
#: built on runs the same code up to 1.8 times slower from one minute to the
#: next; scaling every interval by the probes around it removes most of that.
REFERENCE_S = 0.0035
MODULES = ("core", "models", "axioms", "identify", "classify", "fuzz", "io_cli")

END_TO_END = (
    ("wall_s", "s"),
    ("op_p50_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


class SetupError(RuntimeError):
    """The program cannot be loaded from this checkout."""


def import_program() -> SimpleNamespace:
    """A fresh import of every scclab module, from this checkout's ``src/``."""
    if not os.path.isfile(os.path.join(SRC, "scclab", "__init__.py")):
        raise SetupError(f"no scclab package under {SRC}")
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    for name in [m for m in sys.modules if m == "scclab" or m.startswith("scclab.")]:
        del sys.modules[name]
    prog = SimpleNamespace(
        **{name: importlib.import_module(f"scclab.{name}") for name in MODULES}
    )
    if not os.path.abspath(prog.core.__file__).startswith(SRC + os.sep):
        raise SetupError(f"scclab was imported from {prog.core.__file__}, not {SRC}")
    return prog


def execute(prog: Any, op: Op) -> tuple[Optional[int], Optional[str], float]:
    """Run one command; returns (exit code, error, seconds)."""
    start = time.perf_counter()
    try:
        rc, error = prog.io_cli.cli_main(op.argv), None
    except Exception:  # a traceback is a failed operation, not a crashed run
        rc, error = None, traceback.format_exc().strip().splitlines()[-1]
        traceback.print_exc(file=sys.stderr)
    return rc, error, time.perf_counter() - start


def git_revision(root: str) -> str:
    """HEAD of the checkout, read without starting git; "unknown" outside a repository."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def load_pins() -> dict:
    with open(PINS, encoding="utf-8") as handle:
        return json.load(handle)


def probe() -> float:
    """The machine's current speed: median time of five runs of a fixed stdlib loop."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        total, seen = Fraction(0), {}
        for i in range(1, 700):
            total += Fraction(i, i + 1) * Fraction(i + 2, i + 3)
            seen[i] = total
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class Run:
    """One workload run: set-up, timed passes, gate, metrics.

    Every timed interval is bracketed by ``probe()`` calls and reported at
    the reference speed: raw seconds times REFERENCE_S over the mean of the
    two probes.  Raw seconds go to the result file as well.
    """

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.pins = load_pins()
        self.workdir = os.path.join(OUT, f"work-{os.getpid()}")
        self.tracer = Tracer()
        # pass times, scaled and raw
        self.walls: dict[str, list[float]] = {"untraced": [], "traced": []}
        self.raw_walls: dict[str, list[float]] = {"untraced": [], "traced": []}
        self.latencies: list[float] = []  # untraced commands, scaled
        self.raw_latencies: list[float] = []
        self.scales: dict[int, float] = {}  # operation id -> speed scale
        self.setup_rounds: list[float] = []  # scaled
        self.raw_setup_rounds: list[float] = []
        self.failures: list[dict] = []
        self.attempted = 0
        self.op_id = 0
        self.rss_mb: Optional[float] = None  # peak RSS after the first pass's commands

    def setup(self) -> list[Op]:
        """Import, generate and write the first pass, warm up: several rounds."""
        before = probe()
        for round_index in range(SETUP_ROUNDS):
            start = time.perf_counter()
            self.prog = import_program()
            passdir = self._passdir(0)
            ops = build_pass(self.prog, self.args.workload, self.args.seed, 0, passdir)
            warmup = build_warmup(self.prog, self.args.workload, self.args.seed, round_index, passdir)
            execute(self.prog, warmup)
            elapsed = time.perf_counter() - start
            after = probe()
            self.raw_setup_rounds.append(elapsed)
            self.setup_rounds.append(elapsed * 2 * REFERENCE_S / (before + after))
            before = after
        self.gate = Gate(self.prog)
        return ops

    def _passdir(self, pass_index: int) -> str:
        path = os.path.join(self.workdir, f"p{pass_index}")
        os.makedirs(path, exist_ok=True)
        return path

    def measure(self, ops: list[Op]) -> None:
        """Run passes until the loop (commands and gate) has taken --seconds.

        In a traced run each pass runs twice on the same datasets: traced
        first, so no layer number is warmed by a repeat, then untraced as the
        reference for ``trace.overhead_s``.
        """
        args = self.args
        start = time.perf_counter()
        pass_index = 0
        while True:
            if args.trace:
                with self.tracer.installed():
                    self._run_pass(ops, traced=True)
            self._run_pass(ops, traced=False)
            shutil.rmtree(self._passdir(pass_index))
            pass_index += 1
            if time.perf_counter() - start >= args.seconds:
                return
            ops = build_pass(self.prog, args.workload, args.seed, pass_index, self._passdir(pass_index))

    def _run_pass(self, ops: list[Op], traced: bool) -> None:
        """Run the pass's commands, then gate them all.

        The gate waits until the pass is done, so that ``peak_rss_mb``, read
        after the first pass's commands, holds none of the gate's own work.
        """
        raw = scaled = 0.0
        results = []
        before = probe()
        for op in ops:
            op_id, rc, error, latency = self._run_op(op, traced)
            results.append((op_id, op, rc, error))
            after = probe()
            scale = 2 * REFERENCE_S / (before + after)
            self.scales[self.op_id] = scale
            raw += latency
            scaled += latency * scale
            if not traced:
                self.raw_latencies.append(latency)
                self.latencies.append(latency * scale)
            before = after
        kind = "traced" if traced else "untraced"
        self.raw_walls[kind].append(raw)
        self.walls[kind].append(scaled)
        if self.rss_mb is None:
            self.rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        for op_id, op, rc, error in results:
            self.attempted += 1
            reasons = self.gate.check_op(op, rc, error)
            if reasons:
                self.failures.append({"op": op_id, "argv": op.argv[:-2], "reasons": reasons[:5]})

    def _run_op(self, op: Op, traced: bool) -> tuple[int, Optional[int], Optional[str], float]:
        """Run one command, timed; returns (operation id, exit code, error, latency)."""
        if os.path.exists(op.output):
            os.remove(op.output)
        gc.collect()
        self.op_id += 1
        attrs = {"command": op.kind, "dataset": op.dataset.label if op.dataset else op.variant}
        if traced:
            with self.tracer.operation(self.op_id, op.kind, attrs):
                rc, error, latency = execute(self.prog, op)
        else:
            rc, error, latency = execute(self.prog, op)
        return self.op_id, rc, error, latency

    def check_pins(self) -> tuple[str, bool, list[dict]]:
        """Regenerate the default seed's first pass and check it against pins.json.

        Runs after the measurement, whatever the seed: the fixture digest
        must match its pin, and every command on an exact dataset runs
        again, untimed, through the gate with the pinned verdict vectors, so
        a wrong verdict that no witness or characterizing axiom exposes is
        still caught.  Float datasets are skipped: the gate already compares
        their verdicts with exact ones in every pass.  Returns (digest,
        digest matches, failed commands).
        """
        path = os.path.join(self.workdir, "pins")
        os.makedirs(path, exist_ok=True)
        ops = build_pass(self.prog, self.args.workload, DEFAULT_SEED, 0, path)
        digest = fixture_digest(ops)
        self.gate.pinned = self.pins["verdicts"]
        failures = []
        for op in ops:
            if op.dataset is not None and not op.dataset.float_mode:
                self.op_id += 1
                rc, error, _ = execute(self.prog, op)
                reasons = self.gate.check_op(op, rc, error)
                if reasons:
                    failures.append({"op": self.op_id, "argv": op.argv[:-2], "reasons": reasons[:5]})
        return digest, digest == self.pins["fixture_digests"][self.args.workload], failures

    def end_to_end(self) -> dict[str, float]:
        return {
            "wall_s": statistics.median(self.walls["untraced"]),
            "op_p50_s": statistics.median(self.latencies),
            "setup_s": statistics.median(self.setup_rounds),
            "peak_rss_mb": self.rss_mb,
        }

    def raw_end_to_end(self) -> dict[str, float]:
        return {
            "wall_s": statistics.median(self.raw_walls["untraced"]),
            "op_p50_s": statistics.median(self.raw_latencies),
            "setup_s": statistics.median(self.raw_setup_rounds),
        }

    def per_layer(self) -> dict[str, float]:
        traced = self.walls["traced"]
        table = layer_table(self.tracer.spans, self.scales, len(traced), sum(traced))
        table["trace.overhead_s"] = statistics.median(traced) - statistics.median(self.walls["untraced"])
        return table


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    load_before = os.getloadavg()
    run = Run(args)
    try:
        ops = run.setup()
    except (SetupError, ImportError) as exc:
        print(f"error: cannot load the program: {exc}", file=sys.stderr)
        shutil.rmtree(run.workdir, ignore_errors=True)
        return 2
    try:
        run.measure(ops)
        digest, digest_ok, pin_failures = run.check_pins()
    finally:
        shutil.rmtree(run.workdir, ignore_errors=True)

    failed = len(run.failures)
    e2e = run.end_to_end()
    layers = run.per_layer() if args.trace else {}
    units = dict(END_TO_END + LAYER_METRICS)
    reported = layers if args.trace else e2e
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_revision": git_revision(ROOT),
        "loadavg_before": load_before,
        "loadavg_after": os.getloadavg(),
        "ops_per_pass": len(ops),
        "passes": {kind: len(walls) for kind, walls in run.walls.items()},
        "attempted": run.attempted,
        "failed": failed,
        "failed_frac": failed / run.attempted,
        "failures": run.failures[:20],
        "fixture_digest": digest,
        "fixture_digest_ok": digest_ok,
        "pin_failures": pin_failures,
        "reference_s": REFERENCE_S,
        "setup_rounds_s": run.setup_rounds,
        "pass_walls_s": run.walls,
        "op_latencies_s": run.latencies,
        "raw_setup_rounds_s": run.raw_setup_rounds,
        "raw_pass_walls_s": run.raw_walls,
        "end_to_end": e2e,
        "raw_end_to_end": run.raw_end_to_end(),
        "per_layer": layers,
        "tracer_missing": run.tracer.missing,
    }
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    if args.trace:
        run.tracer.write(stem + ".spans.jsonl")

    if not digest_ok:
        print("error: fixture digest differs from pins.json: the generated inputs changed",
              file=sys.stderr)
    for failure in pin_failures[:5]:
        print(f"pin check: {' '.join(failure['argv'])}: {failure['reasons']}", file=sys.stderr)
    for failure in run.failures[:5]:
        print(f"failed op {failure['op']} {' '.join(failure['argv'])}: {failure['reasons']}",
              file=sys.stderr)
    for name, value in reported.items():
        print(f"{args.workload} {name} = {value:.6g} {units[name]}")
    print(f"{args.workload} failed_frac = {failed / run.attempted:.6g} "
          f"({failed} of {run.attempted} operations)")
    print(json.dumps({
        "correct": failed == 0 and digest_ok and not pin_failures,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in reported.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
