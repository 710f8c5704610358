"""The package's public surface: each export comes from its home module."""

import ast
import inspect
import math
from dataclasses import fields
from functools import cache
from pathlib import Path

import scclab
from scclab import axioms, core, io_cli, models
from scclab.classify import classify
from scclab.core import SCC, InvalidParamsError, ToleranceConfig, Universe
from scclab.fuzz import (
    GenConfig,
    fuzz_characterization,
    fuzz_relationships,
    sample_nest_invariant_params,
    sample_singleton_params,
)
from scclab.identify import RECOVERIES

PACKAGE = Path(scclab.__file__).parent


@cache
def _tree(module: str) -> ast.Module:
    """The syntax tree of one of the package's modules, parsed once."""
    return ast.parse((PACKAGE / f"{module}.py").read_text())


@cache
def _defined_names(module: str) -> set[str]:
    """Top-level names a module binds itself, not through an import."""
    names = set()
    for node in _tree(module).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names


def test_each_export_is_imported_from_its_defining_module():
    tree = _tree("__init__")
    misplaced = [
        f"{alias.name} from .{node.module}"
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
        if alias.name not in _defined_names(node.module)
    ]
    assert misplaced == []


def test_every_recovery_takes_the_dataset_and_a_tolerance():
    for model, recovery in RECOVERIES.items():
        assert list(inspect.signature(recovery).parameters) == ["scc", "tol"], model


def test_sampling_and_classification_take_only_what_callers_set():
    assert [f.name for f in fields(GenConfig)] == ["n", "model", "seed", "empty_variant"]
    expected = {
        fuzz_characterization: ["model", "trials", "n_range", "seed", "empty_variant"],
        fuzz_relationships: ["trials", "n_range", "seed"],
        sample_singleton_params: ["n", "seed"],
        sample_nest_invariant_params: ["n", "seed"],
        classify: ["scc", "tol", "attributes"],
        # only the logit bundle reads the empty-collection flag
        models.RCGParams.validate: ["self", "universe"],
        models.ICParams.validate: ["self", "universe"],
    }
    for function, names in expected.items():
        assert list(inspect.signature(function).parameters) == names, function


@cache
def _scoped_nodes() -> list[tuple[str, ast.AST]]:
    """Every node of the package's modules, walked once, with the qualified
    name of the function or class holding it (the module's name for a node
    outside any; a definition holds itself)."""
    scoped = []
    for path in sorted(PACKAGE.glob("*.py")):
        stack = [(path.stem, _tree(path.stem))]
        while stack:
            scope, node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                scope = f"{scope}.{node.name}"
            scoped.append((scope, node))
            stack += [(scope, child) for child in ast.iter_child_nodes(node)]
    return scoped


def _holders(match) -> set[str]:
    """The qualified names of the functions holding a node that ``match``
    accepts (the module's name for a node outside any function)."""
    return {scope for scope, node in _scoped_nodes() if match(node)}


def _worded(text: str) -> set[str]:
    return _holders(
        lambda node: isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and text in node.value
    )


def _within(holders: set[str], scopes: set[str]) -> set[str]:
    """The ``holders`` that are one of ``scopes`` or nested inside one."""
    return {h for h in holders if any(h == s or h.startswith(f"{s}.") for s in scopes)}


def _callers(name: str) -> set[str]:
    return _holders(
        lambda node: isinstance(node, ast.Call)
        and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    )


def test_each_shared_rule_is_stated_in_one_module():
    # the support and row-sum thresholds are read only by the rules in scclab.core
    readers = _holders(
        lambda node: isinstance(node, ast.Name) and node.id in ("EPS_ZERO", "EPS_SUM")
        or isinstance(node, ast.Attribute) and node.attr in ("EPS_ZERO", "EPS_SUM")
    )
    assert readers == {"core", "core._row_violations", "core.is_zero", "core.sums_to_one"}
    # a float total "sums to 1" by one rule, for datasets and for model bundles;
    # the one other float closeness test is the equality of probs_equal
    assert _callers("sums_to_one") == {
        "core._row_violations",
        "models._validate_draws",
        "models._menu_rows.rows",
    }
    assert _callers("isclose") == {"core.probs_equal"}
    # a dataset's missing variant is refused by scclab.axioms alone; a params
    # document naming a variant its model lacks is refused where it is checked
    assert _worded("has no empty-collection variant") == {
        "axioms.characterizing_axioms",
        "models.ModelSpec.validate",
    }
    # exact values are put over their lcm by scclab.core._over_lcm alone, on
    # (numerator, denominator) pairs: the one row rule's, and those of the
    # Fractions of scale_row, which the ratio checks' memo of a dict-built
    # SCC, the model kernels (whose weights are also summed so by
    # _validate_draws) and nested logit's induced weights call; the bundle
    # size bound reads only the lcm of its weights' denominators
    assert _callers("lcm") == {"core._over_lcm", "models._subset_sum_bits"}
    assert _callers("scale_row") == {
        "axioms.cached_scaled_rows.scale",
        "models._scaled",
        "models.NestedLogitParams.induced_weights",
    }
    assert _callers("_over_lcm") == {"core.scale_row", "core._row_violations"}
    # integer masses over a common multiple of their denominators become
    # that form by one gcd reduction, scclab.core.reduce_row, called once
    # per row by the one mode decision of the kernels and by the row rule;
    # a written cell is put in lowest terms by scclab.core.lowest_terms
    assert _callers("gcd") == {"core.reduce_row", "core.lowest_terms"}
    assert _callers("lowest_terms") == {"io_cli._menus"}
    assert _callers("reduce_row") == {"models._menu_rows.rows", "core._row_violations"}


def test_fraction_rows_are_built_only_when_read():
    """An exact SCC read from a document or generated from a bundle holds
    its scaled rows: parse_scc and generate_scc build it with
    SCC.from_scaled, whose rows are a core.FractionRows, the one place in
    scclab.core that builds a Fraction row; the row rule builds one only
    for a defect's message.  Neither builder calls Fraction or
    validate_scc, which reads an SCC's Fractions."""
    assert _callers("from_scaled") == {"io_cli.parse_scc", "models.generate_scc"}
    assert _callers("FractionRows") == {"core.SCC.from_scaled"}
    builders = _callers("Fraction")
    assert {h for h in builders if h.startswith("core.")} == {
        "core.FractionRows.__getitem__",
        "core._row_violations",
    }
    assert not builders & {
        "io_cli.parse_scc",
        "models.generate_scc",
        "models._menu_rows.rows",
        "core.validate_rows",
        "core.SCC.from_scaled",
    }
    assert _callers("validate_rows") == {"core.validate_scc", "io_cli.parse_scc"}
    assert not _callers("validate_scc")


def test_one_round_trip_compares_kernel_rows_with_scaled_rows():
    """_finish takes one path in both modes: it validates the bundle and
    calls _reproduces, which compares the kernels' rows (_menu_rows) with
    the dataset's cached_scaled_rows, so no SCC is regenerated (nor is
    generate_scc imported) and no Fraction row of either is read."""
    finish = next(
        node
        for node in _tree("identify").body
        if isinstance(node, ast.FunctionDef) and node.name == "_finish"
    )
    tests = [
        node.test if isinstance(node, (ast.If, ast.IfExp)) else node
        for node in ast.walk(finish)
        if isinstance(node, (ast.If, ast.IfExp, ast.BoolOp))
    ]
    assert not [n for t in tests for n in ast.walk(t) if getattr(n, "attr", None) == "exact"]
    calls = [c.func for c in ast.walk(finish) if isinstance(c, ast.Call)]
    assert {getattr(f, "id", None) or f.attr for f in calls} == {
        "validate",
        "_reproduces",
        "PreconditionFailedError",
        "RecoveryResult",
    }
    assert not {h for h in _callers("generate_scc") if h.startswith("identify")}
    assert not hasattr(scclab.identify, "generate_scc")
    assert _callers("_menu_rows") == {
        "models.menu_row",
        "models.generate_scc",
        "identify._reproduces",
    }
    assert {h for h in _callers("cached_scaled_rows") if h.startswith("identify")} == {
        "identify._reproduces"
    }
    row_readers = _holders(lambda node: isinstance(node, ast.Attribute) and node.attr == "rows")
    assert {h for h in row_readers if h.startswith("identify")} == {
        "identify.identify_logit",
        "identify.identify_rcg",
        "identify.identify_ic",
        "identify.identify_rrm",
        "identify.identify_nsc.ratio",
    }


def test_proportionality_is_decided_by_one_rule():
    """Exact rank one and the float unit limit are read only inside
    axioms._proportional, which every unit certificate calls: IIS's on a
    list of the co-occurrence index, in _iis_violations when the merged
    stream starts the list, or, in the empty-collection form, on a menu
    pair of a menu's tally in _iis_scan, and the grand-row and marginal
    certificates on each menu.  The float range is read by it and by the
    unit limit, the one float limit, whose one _float_certified call is the
    one float confirmation; every caller passes the same four arguments,
    so no caller picks a limit of its own.
    The scans and the certificates that call it, and the helpers
    that compare what it refuses or enumerate what it certifies, leave the
    mode to it and to probs_equal."""
    readers = _holders(lambda node: isinstance(node, ast.Name) and node.id == "_rank_one")
    assert readers == {"axioms._proportional"}
    limits = _holders(lambda node: isinstance(node, ast.Name) and node.id == "_unit_limit")
    assert limits == {"axioms._proportional"}
    parameters = inspect.signature(axioms._proportional).parameters
    assert list(parameters) == ["scc", "us", "vs", "tol"]
    ranged = _holders(
        lambda node: isinstance(node, ast.Name)
        and node.id == "_FLOAT_RANGE"
        and isinstance(node.ctx, ast.Load)
    )
    assert ranged == {"axioms._proportional", "axioms._unit_limit"}
    assert _callers("_float_certified") == {"axioms._unit_limit"}
    scans = {
        "axioms._iis_violations",
        "axioms._iis_scan.violations",
        "axioms._rel_add_scan",
        "axioms._rel_add_scan.violations",
        "axioms._decide_grand_row",
    }
    certificates = {"axioms._decide_marginals.holds"}
    assert _callers("_proportional") == (scans | certificates) - {"axioms._rel_add_scan"}
    helpers = {
        "axioms._cooccurrence",
        "axioms._cooccurrence.build",
        "axioms._iis_violations",
        "axioms._ratio_conflicts",
    }
    mode_tests = _holders(lambda node: isinstance(node, ast.Attribute) and node.attr == "exact")
    assert not mode_tests & (scans | helpers | {"axioms._decide_marginals"})


def test_scans_leave_the_mode_to_the_certificates():
    """_rel_add_scan reads the marginal certificate, which runs one walk in
    both modes.  No scan of IIS or of the REL_ADD family, nor either
    certificate, tests the mode; the places in scclab.axioms that do are
    the scaled rows, _proportional, REL_ADD_2's adjustment, and PIIS's
    exact-only stage 2 and float tolerance in stage 3."""
    assert _callers("_marginal_certificate") == {"axioms._rel_add_scan"}
    assert _callers("_decide_marginals") == {"axioms._marginal_certificate"}
    mode_tests = _holders(lambda node: isinstance(node, ast.Attribute) and node.attr == "exact")
    assert {holder for holder in mode_tests if holder.startswith("axioms.")} == {
        "axioms.cached_scaled_rows.scale",
        "axioms._proportional",
        "axioms._adjustment",
        "axioms.check_piis",
        "axioms._chain_scan",
    }


def test_cooccurring_pairs_are_enumerated_once():
    """The co-occurrence index, axioms._cooccurrence, is the one enumeration
    of the pairs of a menu's positive collections in scclab.axioms:
    check_piis reads it for stage 1, and check_iis through _iis_scan for
    the standard form; the empty-collection form tallies each menu's
    partners from per-collection menu lists as its scan reaches the menu.
    Neither check walks the menus itself."""
    assert _callers("_cooccurrence") == {"axioms._iis_scan", "axioms.check_piis"}
    row_pairs = _holders(
        lambda node: isinstance(node, ast.Call)
        and getattr(node.func, "id", None) == "combinations"
        and "pos[" in ast.unparse(node.args[0])
    )
    assert row_pairs == {"axioms._cooccurrence.build"}
    walkers = _callers("menus") | _callers("combinations")
    assert not walkers & {"axioms.check_iis", "axioms.check_piis"}


def test_piis_reads_one_ratio_table():
    """check_piis reads the co-occurrence index once, where stage 1 is
    clean, into one oriented ratio table, num[a][b], den[a][b] and
    menu[a][b] (the neighbour sets come from the index's keys); its
    stages 2 and 3 take the table and build none of their own (stage 2's
    one dict is its potential), and no helper orients a pair's ratio
    apart from it."""
    assert not hasattr(axioms, "_edge")
    fillers = _holders(
        lambda node: isinstance(node, ast.Subscript)
        and isinstance(node.ctx, ast.Store)
        and isinstance(node.value, ast.Subscript)
        and getattr(node.value.value, "id", None) in ("num", "den", "menu")
    )
    assert {h for h in fillers if h.startswith("axioms.")} == {"axioms.check_piis"}
    for stage, built in ((axioms._fit_potential, ["potential"]), (axioms._chain_scan, [])):
        node = next(n for n in _tree("axioms").body if getattr(n, "name", None) == stage.__name__)
        assigned = [
            ast.unparse(target)
            for a in ast.walk(node)
            if isinstance(a, (ast.Assign, ast.AnnAssign))
            and isinstance(a.value, (ast.Dict, ast.DictComp, ast.SetComp))
            for target in (a.targets if isinstance(a, ast.Assign) else [a.target])
        ]
        assert assigned == built, stage.__name__
        assert list(inspect.signature(stage).parameters)[-1] == "table", stage.__name__


def test_one_marginal_onto_a_menu_less_x():
    """axioms._marginal is the one merge of a row or marginal of S onto
    S\\x: the marginal certificate builds each child's marginal with it,
    and REL_ADD, REL_ADD_1, ADDITIVITY, REL_ADD_2 and support transfer set
    it against row S\\x, the first four in the streams of violations they
    hand their frames.  No scan over axioms._removals, nor a stream inside
    one, lists the subsets of S\\x, and the marginal's scans read the
    scaled rows, not SCC.rows."""
    scans = {
        "axioms._rel_add_scan.violations",
        "axioms.check_additivity.violations",
        "axioms._rel_add_adjusted.violations",
        "axioms.support_transfer_violations",
    }
    assert _callers("_marginal") == scans | {"axioms._decide_marginals.holds"}
    removal_scans = _callers("_removals")
    assert _within(scans, removal_scans) == scans
    assert not _within(_callers("submasks") | _callers("nonempty_submasks"), removal_scans)
    row_readers = _holders(lambda node: isinstance(node, ast.Attribute) and node.attr == "rows")
    assert not row_readers & scans


def test_scans_read_one_row_form():
    """Every scan in scclab.axioms reads the rows of cached_scaled_rows:
    SCC.rows is read there only by that conversion and by the reference
    path _recheck_pos1 (that no scan over axioms._removals lists subsets is
    pinned by test_one_marginal_onto_a_menu_less_x)."""
    row_readers = _holders(lambda node: isinstance(node, ast.Attribute) and node.attr == "rows")
    assert {h for h in row_readers if h.split(".")[0] == "axioms"} == {
        "axioms.cached_scaled_rows.scale",
        "axioms._recheck_pos1",
    }


def test_support_is_read_from_one_table():
    """Every support test of a cell in the scans reads axioms._positive_rows.
    In scclab.axioms, is_zero and is_positive are called only by the table,
    by the reference paths (the sides and recheck functions) and by one
    test of sums, support transfer's, where zero-support float cells may add
    up past EPS_ZERO.  REL_ADD_2's adjustment denominator sums only the
    table's positive cells, so it is positive exactly where its menu meets
    an item whose revealed constraint set is positive in the grand set."""
    callers = {
        holder
        for holder in _callers("is_zero") | _callers("is_positive")
        if holder.startswith("axioms.")
    }
    assert callers == {
        "axioms._positive_rows",
        "axioms._iis_sides",
        "axioms._rel_add_sides",
        "axioms._piis_sides",
        "axioms._paf_sides",
        "axioms._recheck_pos1",
        "axioms._recheck_support_shape",
        "axioms._recheck_singleton",
        "axioms.support_transfer_violations",
    }


def test_witnesses_are_recorded_one_way():
    """In scclab.axioms a witness is built only by axioms._Collector.extend,
    which every check calls with one argument, its stream of bindings, and
    which takes their lhs/rhs from the axiom's ``sides``; besides it,
    ``sides`` is read only by the rechecks, and the recorded values are
    compared with it by ``_records`` alone, which only recheck_witness
    calls."""
    assert [name for name in vars(axioms._Collector) if not name.startswith("__")] == [
        "extend",
        "report",
    ]
    in_axioms = lambda holders: {h for h in holders if h.split(".")[0] == "axioms"}
    assert in_axioms(_callers("Witness")) == {"axioms._Collector.extend"}
    assert _callers("_records") == {"axioms.recheck_witness"}
    readers = _holders(lambda node: isinstance(node, ast.Attribute) and node.attr == "sides")
    assert in_axioms(readers) == {
        "axioms._Collector.extend",
        "axioms.recheck_witness",
        "axioms._recheck_sides",
    }
    extends = [
        node
        for scope, node in _scoped_nodes()
        if scope.split(".")[0] == "axioms"
        and isinstance(node, ast.Call)
        and getattr(node.func, "attr", None) == "extend"
        and getattr(node.func.value, "id", None) == "out"
    ]
    assert extends and all(len(call.args) == 1 and not call.keywords for call in extends)


def test_each_check_opens_one_frame():
    """Every check builds one axioms._Collector, which refuses an incomplete
    SCC; the other callers of require_complete keep no collector (the two
    consequence scans) or run before any check (the recovery gate and
    ``identify --model auto``).  The registry's closed-form domain is read
    only where a report fills the count it fixes."""
    assert _callers("require_complete") == {
        "axioms._Collector.__init__",
        "axioms.monotonicity_violations",
        "axioms.support_transfer_violations",
        "identify._require",
        "io_cli._cmd_identify",
    }
    readers = _holders(lambda node: isinstance(node, ast.Attribute) and node.attr == "domain")
    assert readers == {"axioms._Collector.report"}


def test_the_frame_is_the_one_cap_exit():
    """The witness cap is read only inside axioms._Collector: its
    constructor refuses a cap below 1, and extend stops pulling a check's
    stream once the cap is full.  A check uses its frame only to extend
    and report, so it neither reads the cap nor counts the witnesses
    recorded, and its streams are its one way to record."""
    readers = _holders(lambda node: isinstance(node, ast.Attribute) and node.attr == "cap")
    assert {h for h in readers if h.startswith("axioms.")} == {
        "axioms._Collector.__init__",
        "axioms._Collector.extend",
    }
    frame_reads = _holders(
        lambda node: isinstance(node, ast.Attribute)
        and getattr(node.value, "id", None) == "out"
        and node.attr not in ("extend", "report")
    )
    # PIIS runs stages 2 and 3 only where stage 1 recorded nothing
    assert {h for h in frame_reads if h.startswith("axioms.")} == {"axioms.check_piis"}


def test_tolerance_is_only_the_equality_tolerance():
    """Support is a property of the data: the one tolerance field is eps_eq,
    and nothing that decides support or validates takes a tolerance."""
    assert [f.name for f in fields(ToleranceConfig)] == ["eps_eq"]
    support_rules = [
        core.is_zero,
        core.is_positive,
        core.validate_scc,
        io_cli.parse_scc,
        axioms.derive_revealed_constraints,
        axioms.derive_revealed_nests,
        axioms.cached_revealed_constraints,
        axioms.cached_revealed_nests,
        axioms._positive_rows,
        axioms._achievable,
        axioms._support_shape_report,
        axioms.support_transfer_violations,
    ]
    for function in support_rules:
        assert "tol" not in inspect.signature(function).parameters, function.__name__


def _near(target: float, steps: int) -> list[float]:
    """The ``steps`` doubles on each side of the double nearest ``target``."""
    below, above, out = target, target, [target]
    for _ in range(steps):
        below, above = math.nextafter(below, 0.0), math.nextafter(above, 2.0)
        out += [below, above]
    return out


def test_datasets_and_bundles_agree_on_float_row_sums():
    """A float row sum and a bundle's weight total get one verdict at every
    double within 4,000 steps of 1 + 1e-9 and 1 - 1e-9.  Each total is
    0.5 + (t - 0.5), which is t exactly, so both read the same double."""
    universe = Universe.default(2)
    verdicts = set()
    for total in _near(1 + 1e-9, 4000) + _near(1 - 1e-9, 4000):
        cells = {1: 0.5, 2: total - 0.5}
        scc = SCC(universe, {3: cells}, exact=False)
        clean = core.validate_scc(scc) == []
        try:
            models._validate_draws(
                [(p, t) for t, p in cells.items()], universe, "category", normalized=True
            )
            drawn = True
        except InvalidParamsError:
            drawn = False
        assert clean == drawn, total.hex()
        verdicts.add(clean)
    assert verdicts == {True, False}  # both sides of each bound are reached


def test_closed_forms_are_stated_in_the_registry():
    """In scclab.axioms, a power is taken only by the domain table (the
    registry and the two forms it shares), by the count beside them that
    gives REL_ADD_2's counts and REL_ADD_1's vacuous one, by the float
    rounding bound :func:`axioms._float_certified`
    and by the two constants it reads, and by the one float limit
    :func:`axioms._unit_limit`, which widens the spread it confirms, so no
    scan states a closed form of its own."""
    holders = set()
    for node in _tree("axioms").body:
        if not any(isinstance(getattr(inner, "op", None), ast.Pow) for inner in ast.walk(node)):
            continue
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            holders.add(node.name)
        else:
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            holders.update(target.id for target in targets)
    assert holders == {
        "_FLOAT_RANGE",
        "_UNIT_ROUNDOFF",
        "_float_certified",
        "_unit_limit",
        "_rel_add_domain",
        "_rel_add_counts",
        "_support_domain",
        "AXIOMS",
    }


def test_co_occurrence_lists_are_merged_by_one_helper():
    """axioms._merged is the one merge of the co-occurrence lists' streams,
    called by IIS's standard form and PIIS stage 1, and no module imports
    heapq.merge, which starts every stream before it yields."""
    assert _callers("_merged") == {"axioms._iis_scan", "axioms.check_piis"}
    merge_imports = _holders(
        lambda node: isinstance(node, ast.ImportFrom)
        and node.module == "heapq"
        and "merge" in [alias.name for alias in node.names]
    )
    heapq_merges = _holders(
        lambda node: isinstance(node, ast.Attribute)
        and node.attr == "merge"
        and getattr(node.value, "id", None) == "heapq"
    )
    assert not merge_imports | heapq_merges


def test_every_command_writes_through_one_printer():
    """io_cli._emit is the one writer of command output: every command
    calls it, and nothing else in scclab.io_cli writes or reads
    sys.stdout.  No module calls json.dumps, so every payload is printed by
    io_cli._print, and an SCC document's shape is read from io_cli._menus
    by scc_to_document and by the streamed writer alone."""
    in_io_cli = lambda holders: {h for h in holders if h.split(".")[0] == "io_cli"}
    assert _callers("_emit") == {f"io_cli.{f.__name__}" for f in io_cli._DISPATCH.values()}
    assert in_io_cli(_callers("write")) == {"io_cli._emit"}
    assert in_io_cli(
        _holders(lambda node: isinstance(node, ast.Attribute) and node.attr == "stdout")
    ) == {"io_cli._emit"}
    assert not _callers("dumps")
    assert _callers("_print") == {"io_cli._print", "io_cli._text"}
    assert _callers("_menus") == {"io_cli.scc_to_document", "io_cli._scc_chunks"}
