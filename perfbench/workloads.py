"""The four workloads: their datasets, their command lists, and seeded fixtures.

Every input is derived from the workload seed, the pass index and the
dataset's label, so the same seed gives the same inputs and no dataset
repeats within a run.  Datasets come from the program's own
``sample_params`` and ``generate_scc``; ``fixture_digest`` pins them.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Optional

#: (model variant, universe size).  A "_o" suffix is the empty-collection variant.
CHECK_SETS = (
    ("logit", 7), ("ic", 7), ("rcg", 7), ("rrm", 7), ("nsc", 7), ("nested_logit", 7),
    ("logit_o", 6), ("rcg_o", 6), ("ic_o", 6),
)
ANALYZE_SETS = (
    ("rcg", 7), ("eba", 7), ("ar", 7), ("rrm", 7), ("nsc", 7), ("nested_logit", 7),
    ("logit", 6), ("ic", 6), ("logit_o", 6), ("rcg_o", 6), ("ic_o", 6),
)
FUZZ_VARIANTS = (
    "logit", "rcg", "ic", "eba", "ar", "rrm", "nsc", "nested_logit",
    "logit_o", "rcg_o", "ic_o",
)
FUZZ_TRIALS = 25
FUZZ_SIZES = "4,5"
WARMUP_N = 4

WORKLOADS = ("check-exact", "check-float", "analyze", "fuzz")


@dataclass
class Dataset:
    """One generated SCC document, written to disk for the CLI to read."""

    label: str  # variant, e.g. "logit_o"
    document: dict  # exact document
    path: str = ""  # the file the operation reads (decimal literals in float mode)
    float_mode: bool = False
    exact_verdicts: Optional[dict[str, bool]] = None  # filled in by the gate

    @property
    def model(self) -> str:
        return self.label[:-2] if self.label.endswith("_o") else self.label

    @property
    def empty_variant(self) -> bool:
        return self.label.endswith("_o")


@dataclass
class Op:
    """One CLI command.  ``argv`` ends with ``-o <output>``."""

    kind: str  # check | classify | identify | fuzz
    argv: list[str]
    output: str
    dataset: Optional[Dataset] = None
    variant: str = ""


def derive_seed(*parts: Any) -> int:
    """A 63-bit seed that depends only on ``parts`` (string seeding is stable)."""
    return random.Random("/".join(str(p) for p in parts)).getrandbits(63)


def make_document(prog: Any, label: str, n: int, seed: int) -> dict:
    """The canonical exact document of one sampled bundle."""
    model = label[:-2] if label.endswith("_o") else label
    spec = prog.fuzz.sample_params(
        prog.fuzz.GenConfig(
            n=n,
            model=prog.models.ModelTag(model),
            seed=seed,
            empty_variant=label.endswith("_o"),
        )
    )
    scc = prog.models.generate_scc(spec, prog.core.Universe.default(n))
    return prog.io_cli.scc_to_document(scc)


def to_float_document(document: dict) -> dict:
    """The same dataset with every probability written as a decimal literal."""
    return {
        **document,
        "menus": [
            {
                "menu": entry["menu"],
                "rows": [
                    {"set": cell["set"], "p": repr(float(Fraction(cell["p"])))}
                    for cell in entry["rows"]
                ],
            }
            for entry in document["menus"]
        ],
    }


def _write(path: str, document: dict) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle)


def dataset_sets(workload: str) -> tuple[tuple[str, int], ...]:
    if workload in ("check-exact", "check-float"):
        return CHECK_SETS
    if workload == "analyze":
        return ANALYZE_SETS
    return ()


def build_pass(prog: Any, workload: str, seed: int, pass_index: int, workdir: str) -> list[Op]:
    """Generate, write and return the operations of one pass."""
    float_mode = workload == "check-float"
    ops: list[Op] = []
    if workload == "fuzz":
        for variant in (*FUZZ_VARIANTS, "relationships"):
            output = os.path.join(workdir, f"p{pass_index}-fuzz-{variant}.out.json")
            fuzz_seed = derive_seed(seed, pass_index, "fuzz", variant)
            argv = [
                "fuzz", "--model", variant, "--trials", str(FUZZ_TRIALS),
                "--n", FUZZ_SIZES, "--seed", str(fuzz_seed), "-o", output,
            ]
            ops.append(Op("fuzz", argv, output, variant=variant))
        return ops
    for label, n in dataset_sets(workload):
        document = make_document(prog, label, n, derive_seed(seed, pass_index, label, n))
        ops.extend(_dataset_ops(workload, label, n, document, f"p{pass_index}-{label}", workdir, float_mode))
    return ops


def _dataset_ops(
    workload: str, label: str, n: int, document: dict, stem: str, workdir: str, float_mode: bool
) -> list[Op]:
    exact_path = os.path.join(workdir, f"{stem}.json")
    _write(exact_path, document)
    path = exact_path
    if float_mode:
        path = os.path.join(workdir, f"{stem}.float.json")
        _write(path, to_float_document(document))
    dataset = Dataset(label, document, path, float_mode)
    if workload == "analyze":
        commands = [("classify", []), ("identify", ["--model", "auto"])]
    else:
        commands = [("check", ["--axioms", "all"])]
    ops = []
    for kind, extra in commands:
        output = os.path.join(workdir, f"{stem}.{kind}.out.json")
        ops.append(Op(kind, [kind, path, *extra, "-o", output], output, dataset=dataset))
    return ops


def build_warmup(prog: Any, workload: str, seed: int, round_index: int, workdir: str) -> Op:
    """A small untimed operation of the workload's own command kind."""
    if workload == "fuzz":
        output = os.path.join(workdir, f"warmup{round_index}.out.json")
        fuzz_seed = derive_seed(seed, "warmup", round_index)
        argv = ["fuzz", "--model", "logit", "--trials", "2", "--n", "3", "--seed", str(fuzz_seed), "-o", output]
        return Op("fuzz", argv, output, variant="logit")
    label = dataset_sets(workload)[0][0]
    document = make_document(prog, label, WARMUP_N, derive_seed(seed, "warmup", round_index))
    return _dataset_ops(
        workload, label, WARMUP_N, document, f"warmup{round_index}", workdir,
        workload == "check-float",
    )[0]


def fixture_digest(ops: list[Op]) -> str:
    """sha256 over the pass's command lines (paths stripped) and input documents."""
    digest = hashlib.sha256()
    for op in ops:
        argv = [os.path.basename(a) for a in op.argv]
        digest.update(json.dumps(argv).encode())
        if op.dataset is not None:
            digest.update(json.dumps(op.dataset.document, sort_keys=True).encode())
    return digest.hexdigest()
