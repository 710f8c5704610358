"""Regenerate pins.json: the default seed's fixture digests and verdict vectors.

    python3 perfbench/pins.py

Run this only when a change to the program is meant to change the generated
inputs or a verdict, and say so in the change; the gate compares every run
against these pins.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

from run import DEFAULT_SEED, OUT, PINS, execute, import_program
from workloads import WORKLOADS, build_pass, fixture_digest


def verdict_vector(op, payload: dict) -> tuple[str, dict]:
    label = op.dataset.label
    if op.kind == "check":
        return label, {r["axiom"]: r["holds"] for r in payload["reports"]}
    if op.kind == "classify":
        return f"{label}:classify", {k: v["status"] for k, v in payload["membership"].items()}
    return f"{label}:identify", {"model": payload["model"]}


def main() -> int:
    prog = import_program()
    workdir = os.path.join(OUT, f"pins-{os.getpid()}")
    digests, verdicts = {}, {}
    try:
        for workload in WORKLOADS:
            os.makedirs(workdir, exist_ok=True)
            ops = build_pass(prog, workload, DEFAULT_SEED, 0, workdir)
            digests[workload] = fixture_digest(ops)
            if workload in ("check-exact", "analyze"):
                for op in ops:
                    rc, error, _ = execute(prog, op)
                    if error is not None or rc not in (0, 1):
                        raise SystemExit(f"{op.argv}: exit {rc} {error}")
                    with open(op.output, encoding="utf-8") as handle:
                        key, vector = verdict_vector(op, json.load(handle))
                    verdicts[key] = vector
            shutil.rmtree(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(PINS, "w", encoding="utf-8") as handle:
        json.dump({"seed": DEFAULT_SEED, "fixture_digests": digests, "verdicts": verdicts},
                  handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {PINS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
