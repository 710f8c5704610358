"""Acceptance gates: nine end-to-end criteria, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  Each test times itself against its stated budget
(criteria without a stated budget report elapsed time only).
"""

import json
import random
import time
from collections import Counter
from fractions import Fraction

from scclab.axioms import (
    AxiomId,
    check_iis,
    check_paf,
    check_relative_additivity,
    full_battery,
    monotonicity_violations,
    recheck_witness,
    run_axiom,
    support_transfer_violations,
)
from scclab.classify import FAILS, HOLDS, classify
from scclab.core import (
    PreconditionFailedError,
    SCC,
    ToleranceConfig,
    Universe,
    nonempty_submasks,
)
from scclab.fuzz import (
    ALL_VARIANTS,
    GenConfig,
    fuzz_characterization,
    fuzz_relationships,
    sample_nest_invariant_params,
    sample_params,
    sample_singleton_params,
)
from scclab.identify import (
    identify_ic,
    identify_logit,
    identify_nsc,
    identify_rcg,
    identify_rrm,
)
from scclab.io_cli import CountsTable, cli_main, estimate_from_counts, scc_to_document
from scclab.models import (
    ARParams,
    ArAttribute,
    Aspect,
    EBAParams,
    ICParams,
    LogitParams,
    ModelSpec,
    ModelTag,
    NSCParams,
    RCGParams,
    RRMParams,
    eval_ar_item,
    generate_scc,
    menu_row,
)

F = Fraction
A, B, C, AB, AC, BC, ABC = 1, 2, 4, 3, 5, 6, 7
U2 = Universe.default(2)
U3 = Universe.default(3)

NSC_EXAMPLE = ModelSpec(
    ModelTag.NSC, NSCParams((AB, C), {A: F(1), B: F(2), AB: F(4), C: F(3)})
)


def _finish(number, label, start, problems, budget=None):
    elapsed = time.perf_counter() - start
    over = budget is not None and elapsed >= budget
    status = "FAIL" if problems or over else "PASS"
    timing = f"{elapsed:.2f}s" + (f" / {budget:.0f}s budget" if budget else "")
    print(f"[criterion {number}] {label}: {status} ({timing})")
    assert not problems, f"{label}: {problems[:5]}"
    if budget is not None:
        assert elapsed < budget, f"{label}: {elapsed:.2f}s over {budget:.0f}s budget"


def test_criterion_1_fixture_exactness():
    start = time.perf_counter()
    problems = []

    def expect(label, actual, wanted):
        if actual != wanted:
            problems.append(f"{label}: {actual} != {wanted}")

    logit = ModelSpec(ModelTag.LOGIT, LogitParams({A: F(2), B: F(1), AB: F(1)}))
    expect(
        "set-weight row",
        menu_row(logit, U2, AB),
        {A: F(1, 2), B: F(1, 4), AB: F(1, 4)},
    )

    ic = ModelSpec(ModelTag.IC, ICParams({0: F(1, 2), 1: F(1, 3)}))
    recovered = identify_ic(generate_scc(ic, U2))
    expect(
        "inclusion-rate round trip",
        (recovered.model_spec.params.inclusion, recovered.round_trip_exact),
        ({0: F(1, 2), 1: F(1, 3)}, True),
    )

    rcg = ModelSpec(
        ModelTag.RCG, RCGParams({AB: F(1, 2), C: F(1, 4), ABC: F(1, 4)})
    )
    expect(
        "category row", menu_row(rcg, U3, AC), {A: F(1, 2), C: F(1, 4), AC: F(1, 4)}
    )

    eba = ModelSpec(
        ModelTag.EBA, EBAParams((Aspect(F(3, 5), AB), Aspect(F(2, 5), C)))
    )
    expect("attribute row", menu_row(eba, U3, ABC), {AB: F(3, 5), C: F(2, 5)})

    ar = ARParams(
        (ArAttribute(F(1), AB, {0: 1, 1: 2}), ArAttribute(F(1), C, {2: 1}))
    )
    items = tuple(eval_ar_item(ar, U3, x, ABC)[0] for x in range(3))
    expect("item-level probabilities", items, (F(1, 6), F(1, 3), F(1, 2)))
    p_a, decomp = eval_ar_item(ar, U3, 0, ABC)
    expect("item decomposition", decomp[AB], (F(1, 2), F(1, 3)))
    expect(
        "decomposition identity",
        p_a,
        sum(mu * rho for mu, rho in decomp.values()),
    )

    nsc = identify_nsc(generate_scc(NSC_EXAMPLE, U3))
    expect(
        "nest-weight recovery",
        nsc.model_spec.params.nest_weights,
        {A: F(1), B: F(2), AB: F(4), C: F(3)},
    )

    rrm = ModelSpec(ModelTag.RRM, RRMParams({0: F(1), 1: F(1)}, {0: 3, 1: 2}))
    expect("reference-table row", menu_row(rrm, U2, 3), {3: F(1, 2), 2: F(1, 2)})

    _finish(1, "fixture exactness", start, problems, budget=1.0)


def test_criterion_2_necessity():
    start = time.perf_counter()
    problems = []
    for index, (model, empty) in enumerate(ALL_VARIANTS):
        summary = fuzz_characterization(
            model, trials=100, n_range=[3, 4], seed=2000 + index, empty_variant=empty
        )
        for failure in summary.failures:
            problems.append(f"{summary.suite}: {failure}")
    _finish(2, "necessity (11 variants x 100 bundles)", start, problems, budget=60.0)


def test_criterion_3_sufficiency():
    start = time.perf_counter()
    problems = []
    # same seeds as criterion 2, so the identical bundles flow through
    # identification and exact round-trip verification
    for index, (model, empty) in enumerate(ALL_VARIANTS):
        summary = fuzz_characterization(
            model, trials=100, n_range=[3, 4], seed=2000 + index, empty_variant=empty
        )
        for failure in summary.failures:
            if failure.stage == "identification":
                problems.append(f"{summary.suite}: {failure}")

    # identification is scale-free: uniformly rescaled weights recover the
    # same normalized bundle
    scale = F(7)
    for seed in range(100):
        spec = sample_params(GenConfig(3, ModelTag.LOGIT, seed=3000 + seed))
        scaled = ModelSpec(
            ModelTag.LOGIT,
            LogitParams({t: w * scale for t, w in spec.params.weights.items()}),
        )
        r1 = identify_logit(generate_scc(spec, U3))
        r2 = identify_logit(generate_scc(scaled, U3))
        if r1.model_spec != r2.model_spec:
            problems.append(f"set-weight rescale changed recovery at seed {seed}")

        spec = sample_params(GenConfig(3, ModelTag.RRM, seed=3100 + seed))
        scaled = ModelSpec(
            ModelTag.RRM,
            RRMParams(
                {x: s * scale for x, s in spec.params.salience.items()},
                spec.params.constraints,
            ),
        )
        r1 = identify_rrm(generate_scc(spec, U3))
        r2 = identify_rrm(generate_scc(scaled, U3))
        if r1.model_spec != r2.model_spec:
            problems.append(f"salience rescale changed recovery at seed {seed}")

        spec = sample_params(GenConfig(3, ModelTag.NSC, seed=3200 + seed))
        scaled = ModelSpec(
            ModelTag.NSC,
            NSCParams(
                spec.params.nests,
                {t: w * scale for t, w in spec.params.nest_weights.items()},
            ),
        )
        r1 = identify_nsc(generate_scc(spec, U3))
        r2 = identify_nsc(generate_scc(scaled, U3))
        if r1.model_spec != r2.model_spec:
            problems.append(f"nest-weight rescale changed recovery at seed {seed}")
    _finish(3, "sufficiency and scale invariance", start, problems, budget=60.0)


def test_criterion_4_equivalences():
    start = time.perf_counter()
    problems = []
    for seed in range(100):
        n = 4 if seed % 3 == 0 else 3
        universe = Universe.default(n)

        # attribute rule equals category model with pooled carrier masses
        spec = sample_params(GenConfig(n, ModelTag.EBA, seed=4000 + seed))
        mass: dict = {}
        for aspect in spec.params.attributes:
            mass[aspect.carrier] = mass.get(aspect.carrier, F(0)) + aspect.weight
        induced = ModelSpec(ModelTag.RCG, RCGParams(mass))
        if generate_scc(spec, universe) != generate_scc(induced, universe):
            problems.append(f"attribute/category mismatch at seed {seed}")

        # two-stage attribute rule's collection level equals the static rule
        spec = sample_params(GenConfig(n, ModelTag.AR, seed=4100 + seed))
        flat = ModelSpec(
            ModelTag.EBA,
            EBAParams(
                tuple(Aspect(a.weight, a.carrier) for a in spec.params.attributes)
            ),
        )
        if generate_scc(spec, universe) != generate_scc(flat, universe):
            problems.append(f"two-stage/static mismatch at seed {seed}")

        # independent inclusion equals product-form set weights
        spec = sample_params(GenConfig(n, ModelTag.IC, seed=4200 + seed))
        gammas = spec.params.inclusion
        weights = {}
        for t in nonempty_submasks(universe.full_mask):
            w = F(1)
            for x in range(n):
                w *= gammas[x] if t & (1 << x) else 1 - gammas[x]
            weights[t] = w
        product = ModelSpec(ModelTag.LOGIT, LogitParams(weights))
        if generate_scc(spec, universe) != generate_scc(product, universe):
            problems.append(f"inclusion/product-form mismatch at seed {seed}")

        # power-weighted nested model equals nested choice with induced weights
        spec = sample_params(GenConfig(n, ModelTag.NESTED_LOGIT, seed=4300 + seed))
        sigma = {}
        for nest, eta in zip(spec.params.nests, spec.params.exponents):
            for t in nonempty_submasks(nest):
                total = sum(spec.params.utilities[x] for x in range(n) if t & (1 << x))
                sigma[t] = total ** eta
        induced = ModelSpec(ModelTag.NSC, NSCParams(spec.params.nests, sigma))
        if generate_scc(spec, universe) != generate_scc(induced, universe):
            problems.append(f"power-form/nested mismatch at seed {seed}")

        # item-level identity: p equals the collection mixture, exactly
        spec = sample_params(GenConfig(n, ModelTag.AR, seed=4400 + seed))
        for menu in nonempty_submasks(universe.full_mask):
            for x in range(n):
                if not menu & (1 << x):
                    continue
                p, decomp = eval_ar_item(spec.params, universe, x, menu)
                if p != sum(mu * rho for mu, rho in decomp.values()):
                    problems.append(
                        f"item identity broken at seed {seed}, menu {menu}, item {x}"
                    )
    _finish(4, "equivalence theorems (5 families x 100 seeds)", start, problems)


def test_criterion_5_relationship_consistency():
    start = time.perf_counter()
    problems = []

    summary = fuzz_relationships(trials=500, n_range=[3], seed=5000)
    for failure in summary.failures:
        problems.append(str(failure))

    # singleton data: reference-point, nested, and category memberships all
    # hold; full-support models are excluded
    for seed in range(10):
        spec = sample_singleton_params(3, seed=5100 + seed)
        report = classify(generate_scc(spec, U3))
        if not report.special["SINGLETON"]:
            problems.append(f"singleton flag missing at seed {seed}")
        for key in ("rrm", "nsc", "rcg", "nested_logit"):
            if report.membership[key].status != HOLDS:
                problems.append(f"singleton membership {key} at seed {seed}")
        for key in ("logit", "ic"):
            if report.membership[key].status != FAILS:
                problems.append(f"singleton exclusion {key} at seed {seed}")

    # nest-invariant data: nested and category memberships, and the
    # attention-filter property, exactly
    for seed in range(10):
        spec = sample_nest_invariant_params(3, seed=5200 + seed)
        report = classify(generate_scc(spec, U3))
        if not report.special["NEST_INVARIANT"]:
            problems.append(f"nest-invariant flag missing at seed {seed}")
        for key in ("nsc", "rcg"):
            if report.membership[key].status != HOLDS:
                problems.append(f"nest-invariant membership {key} at seed {seed}")
        if not report.special["PAF"]:
            problems.append(f"attention-filter flag missing at seed {seed}")

    # disjointness: every reference-point or nested dataset fails the
    # full-support precondition of set-weight identification
    for seed in range(100):
        for model in (ModelTag.RRM, ModelTag.NSC):
            spec = sample_params(GenConfig(3, model, seed=5300 + seed))
            scc = generate_scc(spec, U3)
            try:
                identify_logit(scc)
            except PreconditionFailedError as exc:
                if exc.report is None or exc.report.axiom is not AxiomId.FULL_SUPPORT:
                    problems.append(
                        f"{model.value} seed {seed}: wrong precondition report"
                    )
            else:
                problems.append(
                    f"{model.value} seed {seed}: full-support precondition passed"
                )
    _finish(5, "relationship consistency (500 trials + targeted)", start, problems)


def test_criterion_6_witness_validity():
    start = time.perf_counter()
    problems = []

    nsc_scc = generate_scc(NSC_EXAMPLE, U3)
    logit_scc = generate_scc(
        ModelSpec(
            ModelTag.LOGIT,
            LogitParams(
                {A: F(4), B: F(2), C: F(1), AB: F(3), AC: F(2), BC: F(5), ABC: F(7)}
            ),
        ),
        U3,
    )
    rows = {menu: dict(row) for menu, row in logit_scc.rows.items()}
    rows[AB][A], rows[AB][B] = rows[AB][B], rows[AB][A]
    perturbed = SCC(U3, rows)
    rrm_scc = generate_scc(sample_params(GenConfig(3, ModelTag.RRM, seed=6000)), U3)

    # every witness from full batteries over a varied pool re-evaluates
    for scc in (nsc_scc, logit_scc, perturbed, rrm_scc):
        for report in full_battery(scc):
            for witness in report.witnesses:
                if not recheck_witness(scc, witness):
                    problems.append(f"stale witness for {report.axiom.value}")

    # hand-built counterexample 1: menu-swap breaks independence, and every
    # witness names the tampered menu
    report = check_iis(perturbed)
    if report.holds or not report.witnesses:
        problems.append("tampered independence not detected")
    for witness in report.witnesses:
        if AB not in (witness.bindings["S"], witness.bindings["S_prime"]):
            problems.append("independence witness misses the tampered menu")

    # hand-built counterexample 2: relative additivity fails on the nested
    # example at the advertised bindings and values
    report = check_relative_additivity(nsc_scc)
    wanted = {"S": ABC, "x": B, "T": A, "T_prime": C}
    found = [w for w in report.witnesses if w.bindings == wanted]
    if not found:
        problems.append("advertised relative-additivity witness not found")
    elif (found[0].lhs, found[0].rhs) != (F(3, 28), F(12, 28)):
        problems.append(
            f"relative-additivity values {found[0].lhs}, {found[0].rhs}"
        )

    # hand-built counterexample 3: the attention-filter failure with the
    # advertised values
    report = check_paf(nsc_scc)
    found = [w for w in report.witnesses if w.bindings == {"S": ABC, "x": B, "T": C}]
    if not found:
        problems.append("advertised attention-filter witness not found")
    elif (found[0].lhs, found[0].rhs) != (F(3, 7), F(3, 4)):
        problems.append(f"attention-filter values {found[0].lhs}, {found[0].rhs}")

    _finish(6, "witness validity and hand-built counterexamples", start, problems)


def test_criterion_7_derived_consequences():
    start = time.perf_counter()
    problems = []

    # wherever relative additivity holds, menu growth cannot raise any
    # collection's probability, and support transfers exactly
    for seed in range(30):
        for model in (ModelTag.RCG, ModelTag.EBA, ModelTag.AR, ModelTag.IC):
            spec = sample_params(GenConfig(3, model, seed=7000 + seed))
            scc = generate_scc(spec, U3)
            if not check_relative_additivity(scc).holds:
                problems.append(f"{model.value} seed {seed}: additivity premise")
                continue
            if monotonicity_violations(scc):
                problems.append(f"{model.value} seed {seed}: monotonicity")
            if support_transfer_violations(scc):
                problems.append(f"{model.value} seed {seed}: support transfer")

    # wherever path-independence holds, the fully-positive independence
    # instances hold as well
    for seed in range(30):
        for model in (ModelTag.NSC, ModelTag.NESTED_LOGIT):
            spec = sample_params(GenConfig(3, model, seed=7100 + seed))
            scc = generate_scc(spec, U3)
            if not run_axiom(scc, AxiomId.PIIS).holds:
                problems.append(f"{model.value} seed {seed}: path premise")
                continue
            if not check_iis(scc).holds:
                problems.append(f"{model.value} seed {seed}: independence instances")
    _finish(7, "derived consequences", start, problems)


def test_criterion_8_empirical_pipeline():
    start = time.perf_counter()
    problems = []

    spec = ModelSpec(ModelTag.IC, ICParams({0: F(1, 2), 1: F(1, 3)}))
    truth = generate_scc(spec, U2)
    rng = random.Random(8042)
    counts: dict = {}
    for menu in truth.menus():
        row = truth.rows[menu]
        collections = sorted(row)
        weights = [float(row[t]) for t in collections]
        tally = Counter(rng.choices(collections, weights=weights, k=10**6))
        for t, c in tally.items():
            counts[(menu, t)] = c
    estimated = estimate_from_counts(CountsTable(U2, counts))

    tol = ToleranceConfig(eps_eq=1e-2)
    for axiom in (AxiomId.IIS, AxiomId.REL_ADD):
        report = run_axiom(estimated, axiom, tol=tol)
        if not report.holds:
            problems.append(f"{axiom.value} rejected at eps_eq=1e-2")

    recovered = identify_ic(estimated, tol=tol).model_spec.params.inclusion
    for x, target in ((0, 0.5), (1, 1 / 3)):
        if abs(recovered[x] - target) > 0.01:
            problems.append(f"inclusion rate {x}: {recovered[x]} vs {target}")
    _finish(8, "empirical pipeline (1e6 draws/menu)", start, problems, budget=30.0)


def test_criterion_9_performance_floor(tmp_path):
    problems = []

    def timed_check(n, budget):
        rng = random.Random(900 + n)
        universe = Universe.default(n)
        weights = {
            t: F(rng.randint(1, 64)) for t in nonempty_submasks(universe.full_mask)
        }
        scc = generate_scc(ModelSpec(ModelTag.LOGIT, LogitParams(weights)), universe)
        path = tmp_path / f"scc{n}.json"
        path.write_text(json.dumps(scc_to_document(scc)))
        begin = time.perf_counter()
        code = cli_main(
            ["check", str(path), "--axioms", "all", "-o", str(tmp_path / "out.json")]
        )
        elapsed = time.perf_counter() - begin
        if code not in (0, 1):
            problems.append(f"n={n}: exit code {code}")
        if elapsed >= budget:
            problems.append(f"n={n}: {elapsed:.2f}s over {budget:.0f}s budget")
        return elapsed

    start = time.perf_counter()
    t6 = timed_check(6, 10.0)
    t8 = timed_check(8, 300.0)
    status = "FAIL" if problems else "PASS"
    print(
        f"[criterion 9] performance floor: {status} "
        f"(n=6 {t6:.2f}s / 10s budget, n=8 {t8:.2f}s / 300s budget)"
    )
    assert not problems, problems
    assert time.perf_counter() - start < 310.0
