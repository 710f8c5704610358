"""Byte-identity gate: the CLI's outputs on fixed datasets, pinned by digest.

Each of the eleven model variants is sampled at n = 4, and each set-draw
variant (rcg, rcg_o, nsc, rrm, eba, nested_logit) at n = 7, whose sparse
rows the grand-row certificate cannot settle; each is written as an exact
and as a float document.  One more dataset is exact logit at n = 6 with one
cell of a five-item menu zeroed and its row renormalised, which the
grand-row certificate refuses.  The full-support variants (logit, ic,
logit_o, ic_o) are sampled at n = 6 as exact documents, on which POS3,
REL_ADD and REL_ADD_1 fill the witness cap, and logit and logit_o also as
noisy float documents, each cell times 1 + N(0, 1e-3) and the row
renormalised.  On each, ``cli_main`` runs ``check --axioms all`` at witness
caps 10 and 1, ``classify`` and ``identify --model auto``, and on a noisy
document the same four commands again with ``--tol 1e-2``, under a digest
of its own; one SHA-256 digest per dataset covers every exit code, stdout
and stderr.  Three more exact documents at n = 6 run the two ``check``
commands alone: eba and ar, which the marginal certificate of REL_ADD
settles, and rcg with mass moved between two cells of one menu, which it
refuses.  One more digest covers ``check --axioms all`` on a corpus of
29 documents that the CLI refuses with exit code 2: no JSON, a wrong type
or label, a bad literal, a row that fails validation or a missing menu.
Another covers the same command on 22 documents that put a probability
literal at an edge of the integer literal path into a cell, where it is
refused or fails validation, and one more covers it on 34 documents that
put a literal at an edge of the float literal path into a cell of the
float copy of the same document.  ``gen`` runs on a parameter bundle of each
of the eleven variants at n = 4 and each set-draw variant at n = 7, each
written as an exact and as a float bundle, under a digest of its own; one
more digest covers ``estimate`` on a seeded corpus of counts tables,
six of which it refuses.
A change meant to keep every output must keep every digest.
Run this file as a script to print the table for a change that moves
outputs on purpose.
"""

import contextlib
import hashlib
import io
import json
import random
import sys
from fractions import Fraction

from scclab.core import SCC, Universe
from scclab.fuzz import ALL_VARIANTS, GenConfig, sample_params
from scclab.io_cli import cli_main, params_to_document, parse_scc, scc_to_document
from scclab.models import ModelTag, generate_scc, menu_row

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
#: The full-support variants sampled at n = DENSE_N, and those of them
#: also written as noisy float documents.
DENSE = (
    (ModelTag.LOGIT, False),
    (ModelTag.IC, False),
    (ModelTag.LOGIT, True),
    (ModelTag.IC, True),
)
NOISY = ((ModelTag.LOGIT, False), (ModelTag.LOGIT, True))
DENSE_N = 6
COMMANDS = (
    ["check", "--axioms", "all"],
    ["check", "--axioms", "all", "--witness-cap", "1"],
    ["classify"],
    ["identify", "--model", "auto"],
)
#: The documents that run the two ``check`` commands alone.
CHECKED = ("n6/eba/standard/exact", "n6/ar/standard/exact", "n6/rcg/standard/exact-moved")
LOOSE = ["--tol", "1e-2"]

#: Digests per dataset, "<model>/<standard|empty>/<exact|float>" at n = N,
#: prefixed with "n7/" at n = SPARSE_N and "n6/" at n = DENSE_N (the noisy
#: documents under "noisy" and, with --tol 1e-2, "noisy-tol-1e-2"), the
#: zeroed-cell logit, the CHECKED documents, the ``gen`` bundles under
#: "gen/", the counts corpus and the two malformed-document corpora.
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
    "n6/logit/standard/exact": "df0097b2bcd367ff430bd3c30be9796e3f350107e33411217678424c93889f91",
    "n6/logit/standard/noisy": "c84d0f19feb66022b8f7d47e51237bcb1bef5b8291ebd53a5c1d6c67877a69d2",
    "n6/logit/standard/noisy-tol-1e-2": "849c4db7c6d4d5dae8c739a69cd64b936b8a5b3b4f387fb1379c7c7fcd70418c",
    "n6/ic/standard/exact": "a8c25a7bbfa7b60c039d2398d14bb0583df7f798650853867393bf3171de875f",
    "n6/logit/empty/exact": "064635ba46db0b8f6700140340976fbe9af6530c197aff555bed7558d0e28ffd",
    "n6/logit/empty/noisy": "6e93e5583e630a45ede168d2496457809de635312cc81c223f502fe0bbb2d39f",
    "n6/logit/empty/noisy-tol-1e-2": "a5368255372232b7a2026154e476f1babb48aaa5d3f24ed36b278bd63f3c1709",
    "n6/ic/empty/exact": "a69fd564d717f8159198eed06451899f5a7353abf2f4c81473045c810a718834",
    "n6/eba/standard/exact": "a98dab636a5803564cc328ad8553a4a8ec33f8b359ed7742d90f8972baad9a55",
    "n6/ar/standard/exact": "0aa5cbe956ebc981963aed08ba5f791a64005618fbdf5327c60986e2bbb6220c",
    "n6/rcg/standard/exact-moved": "9046461f1bd8a5122f89ff2c9110cc5bda312d3b2ca3afa57a8eb5e7e200ee29",
    "gen/logit/standard/exact": "75e512536bf94162af69bdaa7103f5741d042eb93adc5afe856c4d62e5daa8a8",
    "gen/logit/standard/float": "4a0eaf85a184adfc6c64ed948c1c4f6075173e7b84014cd31ea6969e9a82bb2b",
    "gen/rcg/standard/exact": "d6a859cb6636dca1075a9bcf3a3553b57841e9596575175a01b52e552693aa48",
    "gen/rcg/standard/float": "36532ab6e92001507bed5cfb690e801e8e416357a814d4056177ff4cfb40b3f7",
    "gen/ic/standard/exact": "0cad3c43346196a5cc31330bb973bb708979fcb433e0628dc8eaae76fe85323d",
    "gen/ic/standard/float": "4d6296e24c88014e46acfa426f8e2a9f8bab43633046cf56d250bf18048ab8f3",
    "gen/eba/standard/exact": "c9d26aa8466809503df029b766423ef4d826b537c1b88ce73363973d0dff7921",
    "gen/eba/standard/float": "76ad9c315049876d978ec5b8e9b8de031731800c196bc0d263c7c465c9419a30",
    "gen/ar/standard/exact": "af4677d0394de3f2544d096882831aab0fc3edb98cdfde82aaad988d61f8b311",
    "gen/ar/standard/float": "3cbd4fa79c430e63db0ad9fa0e2d6d5f31b9774e0126013d4ff1a70dd6b29001",
    "gen/rrm/standard/exact": "ed3cbbb32c69ae2385d59da58b3b0a25b47fbc9ff7f278ae2e4330fa69b72343",
    "gen/rrm/standard/float": "447cc48c9e43d4f8de008a230c6e1351e238065550732821967b1c809279ab01",
    "gen/nsc/standard/exact": "e2e3cce1f0ff219f0389e8aa49c6fdfe17167b27d32bbc08dbf2c9605d6d8801",
    "gen/nsc/standard/float": "21baa7c5f24d084c7ebb57c3634e2849d09a82ba2c506f80a0e800da3af226d1",
    "gen/nested_logit/standard/exact": "797709e53d04833bc948a5fc4259629b3ffacef6385665a359cfeb8f59ac88de",
    "gen/nested_logit/standard/float": "53934d21671481c9c806b56472128e4f787e490ec70d80bab480b0ebaa5a7428",
    "gen/logit/empty/exact": "ea257e55e2ca136f43abb8f0cafac963fbd3f4fcde487262df46c5412010b2fa",
    "gen/logit/empty/float": "f6f2f898b6278498595db05a83fbe88e528e414e6050956553896a3d5272e0fc",
    "gen/rcg/empty/exact": "ad787bbba337036bf705945164f71693cd8158ae33e5f8b3f92eaf95220f9ab0",
    "gen/rcg/empty/float": "42b160b859ab93ddcfd2fecd64ec18256ca99911b777e382a4d103e085f0b6c3",
    "gen/ic/empty/exact": "7eebbd8d73b107190788b9bd957025ba7bda2cfe9f63d7d2640a5343c81e0e95",
    "gen/ic/empty/float": "36ee02d221c48b4731959e96220ce9c4090c53762651d2ea385786ecdba581d7",
    "gen/n7/rcg/standard/exact": "7ad7a16753ccb8714f27e774e242c1e271d6e47799da372a453bd13c4d26ce53",
    "gen/n7/rcg/standard/float": "5d0d0f63d2bbf3c6116e1c502600cad58dd53242d96f3b708418f98b3e0b0926",
    "gen/n7/rcg/empty/exact": "9649dc1202d4ddc2b6c4ddeeed8d7b1d1ee2adb0f632d5dd0dacf52fdc6d2432",
    "gen/n7/rcg/empty/float": "7ab576dcb6de3ff3aef25f1112b1e50c223a79c8081f0e08b99b37212f6b4612",
    "gen/n7/nsc/standard/exact": "208711c3ce3765835544b0d4f967d29cfc43ad2bc8828937d56824d5adeb5686",
    "gen/n7/nsc/standard/float": "0487a24c03e1bb7e5f0c96885dbcad712c9c597d78caa893967329508341c354",
    "gen/n7/rrm/standard/exact": "e68623f49e6c4926ace7250ee66fac2de7ad116d40032dfce8ad839bca9b91f9",
    "gen/n7/rrm/standard/float": "0ef5c984fdef81ca383d6a6db9f5ab3da6a0df0f87fc5f9ba1e04fd8bd168bd7",
    "gen/n7/eba/standard/exact": "89d35afd8681cb9c77f123405c80fa7965c2f696ea918380393edf8dd7cd6861",
    "gen/n7/eba/standard/float": "d8217a2f1f05619237c0dc4534a2fc7c109f357cdb374031b981b2d0e09a3e28",
    "gen/n7/nested_logit/standard/exact": "092cdda96817c50ee1e3994f5c2a5b7afbebfe5f269e33836171d2295fb47600",
    "gen/n7/nested_logit/standard/float": "123c4e5ac6fbe46fa29f8992b44efbb177df7e9ad65f3c4c69c4afbe5d7126ac",
    "estimate": "ee20da77b8c3521104084a1709ad9a327276cd1d32fa66004e38aba98b62c183",
    "malformed": "2fe64d9ba07ee5b39220a3124e159007390f6c7c6a9c07e3b3085bec1fbcdf4d",
    "malformed-literals": "0df2b2bdd64b329862ab4462f3fbde46e14045ebfe1a9c280900a6f4664252b8",
    "malformed-float-literals": "2d929488699d68c1b45dcfc87fca236a709e0bdcec6e2439d094a629a0f6a025",
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


def _moved_rcg() -> dict:
    """Exact rcg at n = 6 with half of the second non-empty cell of the
    last five-item menu that has two moved to the first, so that the row
    still sums to 1."""
    document = _document(ModelTag.RCG, False, 6, 4602)
    entry = next(
        e
        for e in reversed(document["menus"])
        if len(e["menu"]) == 5 and sum(1 for cell in e["rows"] if cell["set"]) > 1
    )
    first, second = [cell for cell in entry["rows"] if cell["set"]][:2]
    half = Fraction(second["p"]) / 2
    first["p"] = str(Fraction(first["p"]) + half)
    second["p"] = str(half)
    return document


def _noisy_copy(exact: dict, seed: int) -> dict:
    """The document with every cell times 1 + N(0, 1e-3) and each row
    renormalised, written as float literals."""
    rng = random.Random(seed)
    menus = []
    for entry in exact["menus"]:
        cells = [float(Fraction(cell["p"])) * (1 + rng.gauss(0, 1e-3)) for cell in entry["rows"]]
        total = sum(cells)
        rows = [{"set": c["set"], "p": repr(p / total)} for c, p in zip(entry["rows"], cells)]
        menus.append({"menu": entry["menu"], "rows": rows})
    return {**exact, "menus": menus}


#: Edits of a valid exact logit document at n = 2, whose menus are {a},
#: {b} and {a, b}: the path to a value and the value put there, or DROP to
#: remove it.  Each breaks one rule of the format, of validation or of
#: completeness.
DROP = object()
EDITS = (
    ("items", DROP),
    ("items", "ab"),
    ("items", ["a", "a"]),
    ("allows_empty", "no"),
    ("menus", {}),
    ("menus", 0, ["a"]),
    ("menus", 0, "menu", ["z"]),
    ("menus", 0, "menu", []),
    ("menus", 1, "menu", ["a"]),
    ("menus", 0, DROP),
    ("menus", 2, "rows", 0, "a"),
    ("menus", 2, "rows", 0, "set", [1]),
    ("menus", 2, "rows", 0, "set", []),
    ("menus", 2, "rows", 1, "set", ["a"]),
    ("menus", 0, "rows", 0, "set", ["b"]),
    ("menus", 2, "rows", 0, "p", 0.5),
    ("menus", 2, "rows", 0, "p", "half"),
    ("menus", 2, "rows", 0, "p", "1/0"),
    ("menus", 2, "rows", 0, "p", "nan"),
    ("menus", 2, "rows", 0, "p", "-1/2"),
    ("menus", 2, "rows", 0, "p", "3/2"),
    ("menus", 2, "rows", 0, "p", "0.5"),
    ("menus", 2, "rows", 0, "p", "1" * 5000),
    ("menus", 2, "rows", 2, DROP),
)


#: CPython's default limit on the digits of an int-string conversion, which
#: the two 5,000-digit numbers of the malformed corpus exceed.  The corpus
#: runs under it whatever limit the interpreter was started with, since the
#: CLI's refusal quotes the error; Python 3.10.0-3.10.6 has no limit, and
#: there the corpus is not digested.
DIGIT_LIMIT = 4300

#: Probability literals at the edges of the integer literal path: valid
#: values with a reducible, zero-padded, signed or padded spelling or with
#: non-ASCII digits, a zero denominator, values outside [0, 1], a second
#: slash and a numerator one digit past DIGIT_LIMIT.  Each is put in the
#: one cell of {a}, where every value but 1 fails the row sum, and in the
#: first cell of {a, b}, where it meets the row's other denominators.
LITERALS = (
    "2/4", "01/02", "0/0", "1/0", "3/2", "-1/2", "+1/2", " 1/2 ",
    "１/２", "1/2/3", "1" * (DIGIT_LIMIT + 1) + "/2",
)
LITERAL_CELLS = (("menus", 0, "rows", 0, "p"), ("menus", 2, "rows", 0, "p"))

#: Float literals at the edges of the float literal path, put in the same
#: cells of the float copy of the document: padded, abbreviated, exponent,
#: underscored and non-ASCII spellings of 0.5, a negative zero, an underflow
#: to 0, values that overflow or are not finite, a 5,001-digit mantissa, a
#: hexadecimal float and a slash with a decimal point.
FLOAT_LITERALS = (
    " 0.5 ", ".5", "5.", "5e-1", "5E-1", "0.5e0", "1_0.5", "\u0660.\u0665", "0.5\u00a0",
    "-0.0", "1e-400", "1e400", "nan", "inf", "1" * 5000 + ".0", "0x1p-1", "1/2.",
)


@contextlib.contextmanager
def _digit_limit():
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(DIGIT_LIMIT)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(before)


def _edited(path: tuple, value, as_float: bool = False) -> bytes:
    """The valid n = 2 document, or with ``as_float`` its float copy, with
    ``value`` put at ``path``, or with the entry there removed if ``value``
    is DROP."""
    document = _document(ModelTag.LOGIT, False, 2, 4500)
    if as_float:
        document = _float_copy(document)
    *steps, key = path
    parent = document
    for step in steps:
        parent = parent[step]
    if value is DROP:
        del parent[key]
    else:
        parent[key] = value
    return json.dumps(document).encode()


def _malformed() -> list[bytes]:
    """File contents that the CLI must refuse: bytes that are no JSON
    document, then the valid document under each of EDITS."""
    corpus = [b"", b"{", b"[]", b'{"items": ["\xff"]}', b"1" * 5000]
    return corpus + [_edited(tuple(path), value) for *path, value in EDITS]


def _literal_edges() -> list[bytes]:
    """The valid document with each of LITERALS in each of LITERAL_CELLS."""
    return [_edited(cell, literal) for literal in LITERALS for cell in LITERAL_CELLS]


def _float_literal_edges() -> list[bytes]:
    """The float copy of the valid document with each of FLOAT_LITERALS in
    each of LITERAL_CELLS."""
    return [_edited(cell, literal, True) for literal in FLOAT_LITERALS for cell in LITERAL_CELLS]


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
    for index, (model, empty) in enumerate(DENSE):
        exact = _document(model, empty, DENSE_N, 4400 + index)
        name = f"n{DENSE_N}/{model.value}/{'empty' if empty else 'standard'}"
        yield f"{name}/exact", exact
        if (model, empty) in NOISY:
            yield f"{name}/noisy", _noisy_copy(exact, 4400 + index)
    yield CHECKED[0], _document(ModelTag.EBA, False, 6, 4600)
    yield CHECKED[1], _document(ModelTag.AR, False, 6, 4601)
    yield CHECKED[2], _moved_rcg()


def _float_params(value):
    """A params document's value with every number literal written as the
    nearest float's literal; labels and integer item values are kept."""
    if isinstance(value, dict):
        return {key: _float_params(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_float_params(item) for item in value]
    if isinstance(value, str):
        try:
            return repr(float(Fraction(value)))
        except ValueError:
            return value
    return value


def _params():
    """Each parameter bundle of the ``gen`` corpus under its name: the
    eleven variants at n = N and the SPARSE variants at n = SPARSE_N, as
    exact and as float bundles.  The seeds give nsc and nested_logit more
    than one nest at both sizes; one nest chooses each whole menu."""
    variants = [(N, model, empty, 4802 + index) for index, (model, empty) in enumerate(ALL_VARIANTS)]
    variants += [(SPARSE_N, model, empty, 4902 + index) for index, (model, empty) in enumerate(SPARSE)]
    for n, model, empty, seed in variants:
        spec = sample_params(GenConfig(n, model, seed=seed, empty_variant=empty))
        exact = params_to_document(spec, Universe.default(n))
        name = f"gen/{'' if n == N else f'n{n}/'}{model.value}/{'empty' if empty else 'standard'}"
        yield f"{name}/exact", exact
        yield f"{name}/float", {**exact, "params": _float_params(exact["params"])}


def _counts_table(rng: random.Random, n: int, empty: bool) -> list[str]:
    """The lines of a counts table over n items: every collection of every
    menu (the empty one too if ``empty``) with a count that is 0 one time
    in three and otherwise 1..50, the menu's first count at least 1."""
    labels = Universe.default(n).labels_of
    lines = []
    for menu in range(1, 1 << n):
        collections = [t for t in range(1 << n) if t & menu == t and (t or empty)]
        for index, t in enumerate(collections):
            count = 0 if index and rng.random() < 1 / 3 else rng.randint(1, 50)
            lines.append(f"{','.join(labels(menu))};{','.join(labels(t))};{count}")
    return lines


def _counts_corpus() -> list[str]:
    """CSV texts for ``estimate``: seeded tables at n = 2..4, with and
    without the empty collection, then one shuffled with duplicated rows
    and a quoted field, one missing a menu, and six that it refuses."""
    rng = random.Random(5000)
    header = "menu;set;count"
    tables = [_counts_table(rng, n, empty) for n, empty in ((2, False), (3, False), (3, True), (4, False))]
    shuffled = tables[1] + tables[1][::3]
    rng.shuffle(shuffled)
    shuffled[0] = '"{}";{};{}'.format(*shuffled[0].split(";"))
    texts = ["\n".join([header, *lines]) + "\n" for lines in [*tables, shuffled, tables[3][1:]]]
    texts += [
        "",
        "menu,set,count\na;a;1\n",
        f"{header}\na;a\n",
        f"{header}\na,b;a;-1\na,b;b;2\n",
        f"{header}\na;b;1\nb;b;1\n",
        f"{header}\na;a;0\nb;b;3\n",
    ]
    return texts


def _record(argv: list[str], path) -> bytes:
    """The exit code, stdout and stderr of ``cli_main(argv)``, with
    ``path`` written as "DATA"."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    record = [code, out.getvalue(), err.getvalue()]
    return json.dumps(record).replace(str(path), "DATA").encode()


def _digest(digest, path, commands) -> None:
    """Add each command's record on ``path`` to ``digest``."""
    for command in commands:
        digest.update(_record([command[0], str(path), *command[1:]], path))


def _digests(directory) -> dict[str, str]:
    table = {}
    path = directory / "data.json"
    for name, document in _documents():
        path.write_text(json.dumps(document))
        runs = {name: COMMANDS[:2] if name in CHECKED else COMMANDS}
        if name.endswith("/noisy"):
            runs[f"{name}-tol-1e-2"] = [[*command, *LOOSE] for command in COMMANDS]
        for key, commands in runs.items():
            digest = hashlib.sha256()
            _digest(digest, path, commands)
            table[key] = digest.hexdigest()
    for name, document in _params():
        path.write_text(json.dumps(document))
        table[name] = hashlib.sha256(_record(["gen", "--params", str(path)], path)).hexdigest()
    digest = hashlib.sha256()
    for text in _counts_corpus():
        path.write_text(text)
        _digest(digest, path, [["estimate"]])
    table["estimate"] = digest.hexdigest()
    digest = hashlib.sha256()
    for content in _float_literal_edges():
        path.write_bytes(content)
        _digest(digest, path, COMMANDS[:1])
    table["malformed-float-literals"] = digest.hexdigest()
    if not hasattr(sys, "set_int_max_str_digits"):
        return table
    for key, corpus in (("malformed", _malformed()), ("malformed-literals", _literal_edges())):
        digest = hashlib.sha256()
        with _digit_limit():
            for content in corpus:
                path.write_bytes(content)
                _digest(digest, path, COMMANDS[:1])
        table[key] = digest.hexdigest()
    return table


def test_outputs_match_the_pinned_digests(tmp_path):
    table = _digests(tmp_path)
    assert table == {name: GOLDEN[name] for name in table}
    assert table.keys() >= GOLDEN.keys() - {"malformed", "malformed-literals"}



# ---------------------------------------------------------------------------
# exact rows are held scaled and read as the Fraction rows they stand for


@contextlib.contextmanager
def _counted_fractions():
    """A one-element list that counts the Fractions built inside the block."""
    count = [0]
    original = vars(Fraction)["__new__"]

    def counting(cls, *args, **kwargs):
        count[0] += 1
        return original.__func__(cls, *args, **kwargs)

    Fraction.__new__ = staticmethod(counting)
    try:
        yield count
    finally:
        Fraction.__new__ = original


def _document_rows(document: dict) -> dict:
    """A document's rows with each literal read as a float if it has a
    decimal point or exponent, else as a Fraction, in document order."""
    universe = Universe.from_labels(document["items"])
    return {
        universe.mask_of(entry["menu"]): {
            universe.mask_of(cell["set"]): (
                float if any(c in cell["p"] for c in ".eE") else Fraction
            )(cell["p"])
            for cell in entry["rows"]
        }
        for entry in document["menus"]
    }


def _reads_as(scc: SCC, eager: dict) -> None:
    """The SCC's rows read as ``eager``, value, type and order, and the SCC
    equals and has the repr of the SCC built from ``eager``."""
    assert repr(dict(scc.rows.items())) == repr(eager)
    assert dict(scc.rows.items()) == eager
    copy = SCC(scc.universe, eager, scc.allows_empty, scc.exact, scc.mode_notes)
    assert scc == copy and copy == scc
    assert repr(scc) == repr(copy)


def _fuzz_bundles():
    """(spec, universe) of every variant at n = 1..7 from fuzz seeds."""
    for model, empty in ALL_VARIANTS:
        for n in range(1, 8):
            spec = sample_params(GenConfig(n, model, seed=4700 + n, empty_variant=empty))
            yield spec, Universe.default(n)


def test_parsed_rows_read_as_the_documents_fractions():
    """Every document of the corpus and every fuzz dataset at n = 1..7,
    parsed: no Fraction is built until a row is read, and the rows then
    read as each literal's Fraction (or float) in document order."""
    documents = [document for _, document in _documents()]
    documents += [scc_to_document(generate_scc(*bundle)) for bundle in _fuzz_bundles()]
    exact = 0
    for document in documents:
        document = json.loads(json.dumps(document))
        with _counted_fractions() as built:
            scc = parse_scc(document)
            assert len(scc.rows) == len(document["menus"])
            assert all(menu in scc.rows for menu in scc.menus())
        assert built == [0]
        exact += scc.exact
        _reads_as(scc, _document_rows(document))
    assert 0 < exact < len(documents)


def test_generated_rows_read_as_the_kernel_fractions():
    """Every fuzz dataset at n = 1..7, generated: no Fraction is built but
    by the bundle's own validation until a row is read, and the rows then
    read as ``menu_row``'s non-zero cells in ascending order."""
    for spec, universe in _fuzz_bundles():
        with _counted_fractions() as validating:
            spec.validate(universe)
        with _counted_fractions() as built:
            scc = generate_scc(spec, universe)
        assert built == validating
        eager = {
            menu: {t: p for t, p in sorted(menu_row(spec, universe, menu).items()) if p}
            for menu in range(1, universe.full_mask + 1)
        }
        _reads_as(scc, eager)


if __name__ == "__main__":
    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as directory:
        for name, value in _digests(Path(directory)).items():
            sys.stdout.write(f'    "{name}": "{value}",\n')
