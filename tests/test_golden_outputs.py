"""Byte-identity gate: the CLI's outputs on fixed datasets, pinned by digest.

Each of the eleven model variants is sampled at n = 4, and each set-draw
variant (rcg, rcg_o, nsc, rrm, eba, nested_logit) at n = 7, whose sparse
rows the grand-row certificate cannot settle; each is written as an exact
and as a float document.  One more dataset is exact logit at n = 6 with one
cell of a five-item menu zeroed and its row renormalised, which the
grand-row certificate refuses.  On each, ``cli_main`` runs ``check --axioms
all`` at witness caps 10 and 1, ``classify`` and ``identify --model auto``;
one SHA-256 digest per dataset covers every exit code, stdout and stderr.
A change meant to keep every output must keep every digest.  Run this file
as a script to print the table for a change that moves outputs on purpose.
"""

import contextlib
import hashlib
import io
import json
import sys
from fractions import Fraction

from scclab.core import Universe
from scclab.fuzz import ALL_VARIANTS, GenConfig, sample_params
from scclab.io_cli import cli_main, scc_to_document
from scclab.models import ModelTag, generate_scc

N = 4
#: The set-draw variants sampled at n = SPARSE_N, as (model, empty variant).
SPARSE = (
    (ModelTag.RCG, False),
    (ModelTag.RCG, True),
    (ModelTag.NSC, False),
    (ModelTag.RRM, False),
    (ModelTag.EBA, False),
    (ModelTag.NESTED_LOGIT, False),
)
SPARSE_N = 7
COMMANDS = (
    ["check", "--axioms", "all"],
    ["check", "--axioms", "all", "--witness-cap", "1"],
    ["classify"],
    ["identify", "--model", "auto"],
)

#: Digests per dataset, "<model>/<standard|empty>/<exact|float>" at n = N,
#: prefixed with "n7/" at n = SPARSE_N, and the zeroed-cell logit.
GOLDEN = {
    "logit/standard/exact": "035bae87b40ba1ba66b7c703d448e2f59bdf9c2b1c044b52b2c745bd962f6207",
    "logit/standard/float": "84b514a0ae7e17d4042e11dd30de84e15c865b8400341f6b064c3182dd69390e",
    "rcg/standard/exact": "ba5ac2390dc2405956ce694210245fbdc847bd38c71727aaebe5f6515c5b90c4",
    "rcg/standard/float": "739f938521b202fcc41657ab0c6f65258a7da2b653d7e55873bb37213cb32a3b",
    "ic/standard/exact": "c1909656f89287ab1c603ad764a85873f75cc05a65e4dcec2e110ab5c82ac463",
    "ic/standard/float": "f44fbdfc9f63f693b72fe34c10377472d6264c2e487b92718cf170d3b3aed810",
    "eba/standard/exact": "7a3c5b776441da8cf9a0fb09712596f7299fd5811d195f507394fbed7e7071c2",
    "eba/standard/float": "995c0b2b29c05ae044709c3f746e346cb9273f6cf0a636a86cb25779999404ae",
    "ar/standard/exact": "23129df00d74d24ccc947ca8a2fd7b8b8c300a9c145c1b9c5faa81bf5df09ebd",
    "ar/standard/float": "b1032506977defe7b27fc3d014d5e6b86c123af2bccfc5500afae20bd02ad133",
    "rrm/standard/exact": "a9c254ffab3114a188d7771ba3db0c4ab55f2f31d7cb44a8161aa4bb83750861",
    "rrm/standard/float": "4363a2b72c638121c3064273892cba86b915bf09a3af077b608d8007e2b8fb9a",
    "nsc/standard/exact": "fad42426dd02f3f268bd5b3079266590968eba03f82241868361049e350c272d",
    "nsc/standard/float": "e7e8fb7aa12f0f7f6f42e8ab844250bb373fb1ae799600f07a3487846231117b",
    "nested_logit/standard/exact": "9aaacae30af711c688b3cf3ed06b2fe30943127e7567902dc038c5d37c7dd2ce",
    "nested_logit/standard/float": "9f97347cdb1343e6cb365314bec24de5de086bb282f4c2d7987ea55266b68c04",
    "logit/empty/exact": "9bc798d8023717c5add2310e4da463cf3a215d7c98879e8146dbb4d4658f5077",
    "logit/empty/float": "441e7b057956756dcb112ad26f7342a4ba74e5e18caac0aac82730ff5e2056ea",
    "rcg/empty/exact": "2b67f79bb56cd975289aa6c5b7d2881d08475e1aadc33d61bcbae642cea94eeb",
    "rcg/empty/float": "6ca23fa4045f3bc5255bf4c1a7be4aede91596c51d334c812754dcbe729379dd",
    "ic/empty/exact": "94d50ad1668a89a4452aed6c1924f0a12ad69f7cffcb7cc876f30790d0604214",
    "ic/empty/float": "58f166d1dc6b390ad673e318dc98b80ae6c43172dd139b60fbb98c33628b6e49",
    "n7/rcg/standard/exact": "c594005613d68ce1b45762c1133ece90f5c6f30fc2d04755adfc3b36f98b0f59",
    "n7/rcg/standard/float": "76006d7705653da1aa61f74439f901bc078f78038245aae1a71514e95433e16c",
    "n7/rcg/empty/exact": "110e3339aa4cbbe96c06e02e4f830f68f8c0d808e2447aa594ce033d479edda3",
    "n7/rcg/empty/float": "942a20a4dd561d551bfdcf7006b116d935aeb55d338af004c5b74910b9c43572",
    "n7/nsc/standard/exact": "b3f2ceedace479417d4535ddc4f4e52ad6d71490d12132aec524a4b40959641f",
    "n7/nsc/standard/float": "1c6e290c84a30d5452e6c97518ebcd0ca92ef22478f55ac8206da7f66b611d05",
    "n7/rrm/standard/exact": "ae00b7948e0d1455ca17598e34f7fbd101a65ac2bb3445ec1dfd3d49a5480197",
    "n7/rrm/standard/float": "37be2285e942771454802f78adc9ba34ca507ba70a3fabb654b80f614a468a60",
    "n7/eba/standard/exact": "59634f34da4885a9fb46d064ca01b27eae65eb79f2b3acac3426bab36549fa5f",
    "n7/eba/standard/float": "918dbf430bd42637a4c7f29a8651f9f8eb6c48f57f4eb4635231165bac778327",
    "n7/nested_logit/standard/exact": "e8ebc8f64d92402001fd10025c7b3844c1267758fb2427f70a0731d8784ac07e",
    "n7/nested_logit/standard/float": "909bab5a91f724884edece14e2bc067939185896e9ad45328a9617b2d0ce1b18",
    "n6/logit/standard/exact-zeroed": "ebefdbef151137e09df96ee72c154edb1fe96544c2ac1bbb74eac7a4752babd7",
}


def _float_copy(exact: dict) -> dict:
    """The document with every cell written as the nearest float's literal."""
    return {
        **exact,
        "menus": [
            {
                "menu": entry["menu"],
                "rows": [
                    {"set": cell["set"], "p": repr(float(Fraction(cell["p"])))}
                    for cell in entry["rows"]
                ],
            }
            for entry in exact["menus"]
        ],
    }


def _document(model: ModelTag, empty: bool, n: int, seed: int) -> dict:
    spec = sample_params(GenConfig(n, model, seed=seed, empty_variant=empty))
    return scc_to_document(generate_scc(spec, Universe.default(n)))


def _zeroed_logit() -> dict:
    """Exact logit at n = 6 with the first cell of the first five-item menu
    zeroed (dropped) and that row renormalised."""
    document = _document(ModelTag.LOGIT, False, 6, 4300)
    entry = next(e for e in document["menus"] if len(e["menu"]) == 5)
    kept = entry["rows"][1:]
    total = sum(Fraction(cell["p"]) for cell in kept)
    entry["rows"] = [{**cell, "p": str(Fraction(cell["p"]) / total)} for cell in kept]
    return document


def _documents():
    """Each dataset of the corpus under its name."""
    for index, (model, empty) in enumerate(ALL_VARIANTS):
        exact = _document(model, empty, N, 4100 + index)
        name = f"{model.value}/{'empty' if empty else 'standard'}"
        yield f"{name}/exact", exact
        yield f"{name}/float", _float_copy(exact)
    for index, (model, empty) in enumerate(SPARSE):
        exact = _document(model, empty, SPARSE_N, 4200 + index)
        name = f"n{SPARSE_N}/{model.value}/{'empty' if empty else 'standard'}"
        yield f"{name}/exact", exact
        yield f"{name}/float", _float_copy(exact)
    yield "n6/logit/standard/exact-zeroed", _zeroed_logit()


def _digest(path) -> str:
    """The digest of every command's exit code, stdout and stderr on ``path``,
    with the path itself written as "DATA"."""
    digest = hashlib.sha256()
    for command in COMMANDS:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_main([command[0], str(path), *command[1:]])
        record = [code, out.getvalue(), err.getvalue()]
        digest.update(json.dumps(record).replace(str(path), "DATA").encode())
    return digest.hexdigest()


def _digests(directory) -> dict[str, str]:
    table = {}
    for name, document in _documents():
        path = directory / "data.json"
        path.write_text(json.dumps(document))
        table[name] = _digest(path)
    return table


def test_outputs_match_the_pinned_digests(tmp_path):
    assert _digests(tmp_path) == GOLDEN


if __name__ == "__main__":
    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as directory:
        for name, value in _digests(Path(directory)).items():
            sys.stdout.write(f'    "{name}": "{value}",\n')
