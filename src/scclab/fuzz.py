"""Seeded random parameter bundles and property harnesses.

Sampling stays on a rational grid (denominators bounded by
``rational_grid``) so the whole pipeline remains exact and the theorem
checks are unconditional: across all suites the expected failure count is
zero, and any failure is reported with its reproducer seed — the theorems
are proved, so a disagreement is a library bug, not a mathematical finding.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional, Sequence

from .axioms import CHARACTERIZING_AXIOMS, AxiomId, cached_report
from .classify import FAILS, classify, verify_relationships
from .core import (
    InfeasibleStructureError,
    InvalidParamsError,
    Universe,
    bits,
    nonempty_submasks,
)
from .identify import RECOVERIES, RecoveryResult
from .models import (
    ARParams,
    ArAttribute,
    Aspect,
    EMPTY_CAPABLE,
    EBAParams,
    ICParams,
    LogitParams,
    ModelSpec,
    ModelTag,
    NestedLogitParams,
    NSCParams,
    RCGParams,
    RRMParams,
    generate_scc,
    menu_row,
)

#: The eleven samplable model variants.
ALL_VARIANTS: tuple[tuple[ModelTag, bool], ...] = tuple(CHARACTERIZING_AXIOMS)


@dataclass(frozen=True)
class GenConfig:
    """Deterministic sampling configuration for one parameter bundle.

    rational_grid bounds numerators/denominators of sampled weights;
    nest_count and attribute_count are inclusive ranges (clamped to the
    universe where needed); constraint_density is the probability that a
    foreign item joins a constraint set.
    """

    n: int
    model: ModelTag
    seed: int
    empty_variant: bool = False
    rational_grid: int = 64
    nest_count: tuple[int, int] = (1, 3)
    attribute_count: tuple[int, int] = (2, 5)
    constraint_density: float = 0.35

    def __post_init__(self):
        if self.n < 1:
            raise InvalidParamsError("universe size must be positive")
        if self.rational_grid < 2:
            raise InvalidParamsError("rational grid bound must be at least 2")
        if not 0.0 <= self.constraint_density <= 1.0:
            raise InvalidParamsError("constraint density must lie in [0, 1]")


def _grid_weight(rng: random.Random, grid: int) -> Fraction:
    return Fraction(rng.randint(1, grid))


def _grid_prob(rng: random.Random, grid: int) -> Fraction:
    den = rng.randint(2, grid)
    return Fraction(rng.randint(1, den - 1), den)


def _normalized(values: list[int]) -> list[Fraction]:
    total = sum(values)
    return [Fraction(v, total) for v in values]


def _sample_partition(rng: random.Random, n: int, count_range: tuple[int, int]) -> tuple[int, ...]:
    lo, hi = count_range
    hi = min(hi, n)
    if lo > hi:
        raise InfeasibleStructureError(
            f"cannot split {n} items into at least {lo} non-empty nests"
        )
    k = rng.randint(max(lo, 1), hi)
    items = list(range(n))
    rng.shuffle(items)
    cuts = sorted(rng.sample(range(1, n), k - 1)) if k > 1 else []
    nests = []
    start = 0
    for cut in cuts + [n]:
        mask = 0
        for i in items[start:cut]:
            mask |= 1 << i
        nests.append(mask)
        start = cut
    return tuple(sorted(nests))


def _covering(sets: list[int], n: int) -> list[int]:
    """``sets`` followed by a singleton for each of the n items they miss."""
    covered = 0
    for s in sets:
        covered |= s
    return sets + [1 << x for x in range(n) if not covered & (1 << x)]


def _sample_carriers(rng: random.Random, config: GenConfig) -> list[int]:
    """A carrier family covering the universe (missing items get singletons)."""
    full = (1 << config.n) - 1
    lo, hi = config.attribute_count
    k = rng.randint(max(1, lo), max(1, hi))
    return _covering([rng.randint(1, full) for _ in range(k)], config.n)


def sample_params(config: GenConfig) -> ModelSpec:
    """A valid random parameter bundle, deterministic in the seed.

    Invalid raw draws are repaired (coverage) or redrawn (constraint-set
    distinctness); an impossible structure request raises
    InfeasibleStructureError.
    """
    rng = random.Random(config.seed)
    grid = config.rational_grid
    n = config.n
    full = (1 << n) - 1
    universe = Universe.default(n)
    model = config.model
    if config.empty_variant and model not in EMPTY_CAPABLE:
        raise InvalidParamsError(
            f"model {model.value} has no empty-collection variant"
        )

    if model is ModelTag.LOGIT:
        weights = {t: _grid_weight(rng, grid) for t in nonempty_submasks(full)}
        empty_weight = _grid_weight(rng, grid) if config.empty_variant else None
        spec = ModelSpec(model, LogitParams(weights, empty_weight), config.empty_variant)
    elif model is ModelTag.RCG:
        pool = list(range(1, full + 1))
        cats = rng.sample(pool, rng.randint(1, min(len(pool), 6)))
        ordered = sorted(_covering(cats, n))
        masses = _normalized([rng.randint(1, grid) for _ in ordered])
        spec = ModelSpec(
            model, RCGParams(dict(zip(ordered, masses))), config.empty_variant
        )
    elif model is ModelTag.IC:
        inclusion = {x: _grid_prob(rng, grid) for x in range(n)}
        spec = ModelSpec(model, ICParams(inclusion), config.empty_variant)
    elif model is ModelTag.EBA:
        carriers = _sample_carriers(rng, config)
        weights = _normalized([rng.randint(1, grid) for _ in carriers])
        spec = ModelSpec(
            model,
            EBAParams(tuple(Aspect(w, c) for w, c in zip(weights, carriers))),
        )
    elif model is ModelTag.AR:
        carriers = _sample_carriers(rng, config)
        weights = _normalized([rng.randint(1, grid) for _ in carriers])
        attrs = []
        for w, c in zip(weights, carriers):
            values = {i: rng.randint(1, grid) for i in bits(c)}
            attrs.append(ArAttribute(w, c, values))
        spec = ModelSpec(model, ARParams(tuple(attrs)))
    elif model is ModelTag.RRM:
        constraints = None
        for _ in range(200):
            candidate = {}
            for x in range(n):
                q = 1 << x
                for y in range(n):
                    if y != x and rng.random() < config.constraint_density:
                        q |= 1 << y
                candidate[x] = q
            if len(set(candidate.values())) == n:
                constraints = candidate
                break
        if constraints is None:
            raise InfeasibleStructureError(
                "could not draw pairwise-distinct constraint sets at "
                f"density {config.constraint_density}"
            )
        salience = {x: _grid_weight(rng, grid) for x in range(n)}
        spec = ModelSpec(model, RRMParams(salience, constraints))
    elif model is ModelTag.NSC:
        nests = _sample_partition(rng, n, config.nest_count)
        weights = {
            t: _grid_weight(rng, grid)
            for nest in nests
            for t in nonempty_submasks(nest)
        }
        spec = ModelSpec(model, NSCParams(nests, weights))
    elif model is ModelTag.NESTED_LOGIT:
        nests = _sample_partition(rng, n, config.nest_count)
        utilities = {x: _grid_weight(rng, grid) for x in range(n)}
        exponents = tuple(Fraction(rng.randint(1, 3)) for _ in nests)
        spec = ModelSpec(model, NestedLogitParams(nests, utilities, exponents))
    else:
        raise InvalidParamsError(f"unknown model tag {model}")

    spec.validate(universe)
    return spec


def sample_singleton_params(n: int, seed: int, grid: int = 64) -> ModelSpec:
    """A reference-point bundle with identity constraint sets: the generated
    SCC has a singleton representation (only singletons ever chosen, with
    menu-independent relative weights)."""
    rng = random.Random(seed)
    salience = {x: _grid_weight(rng, grid) for x in range(n)}
    constraints = {x: 1 << x for x in range(n)}
    spec = ModelSpec(ModelTag.RRM, RRMParams(salience, constraints))
    spec.validate(Universe.default(n))
    return spec


def sample_nest_invariant_params(
    n: int, seed: int, grid: int = 64, nest_count: tuple[int, int] = (2, 3)
) -> ModelSpec:
    """A nested-choice bundle whose weight is constant on each nest: the
    generated SCC is nest-invariant (equivalently, satisfies the
    probabilistic attention filter)."""
    rng = random.Random(seed)
    nests = _sample_partition(rng, n, nest_count)
    weights: dict[int, Fraction] = {}
    for nest in nests:
        level = _grid_weight(rng, grid)
        for t in nonempty_submasks(nest):
            weights[t] = level
    spec = ModelSpec(ModelTag.NSC, NSCParams(nests, weights))
    spec.validate(Universe.default(n))
    return spec


@dataclass(frozen=True)
class FuzzFailure:
    """Reproducer for one failed trial."""

    seed: int
    model: str
    n: int
    empty_variant: bool
    stage: str
    detail: str


@dataclass(frozen=True)
class FuzzSummary:
    suite: str
    trials: int
    failures: tuple[FuzzFailure, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def _carriers_of(spec: ModelSpec) -> Optional[list[int]]:
    if isinstance(spec.params, (EBAParams, ARParams)):
        return [a.carrier for a in spec.params.attributes]
    return None


def _run_characterization_trial(
    spec: ModelSpec, universe: Universe, failures: list[FuzzFailure], meta: FuzzFailure
) -> None:
    scc = generate_scc(spec, universe)
    attributes = _carriers_of(spec)
    for axiom in CHARACTERIZING_AXIOMS[(spec.model, spec.empty_variant)]:
        report = cached_report(scc, axiom, attributes=attributes)
        if not report.holds:
            failures.append(
                replace(
                    meta,
                    stage="necessity",
                    detail=f"{axiom.value} failed with {len(report.witnesses)} witness(es)",
                )
            )
            return
    try:
        result: RecoveryResult = RECOVERIES[spec.model](scc)
    except Exception as exc:  # harness boundary: report, never crash the sweep
        failures.append(
            replace(meta, stage="identification", detail=f"{type(exc).__name__}: {exc}")
        )
        return
    if not result.round_trip_exact:
        failures.append(
            replace(meta, stage="round-trip", detail="regenerated SCC differs from input")
        )


def fuzz_characterization(
    model: ModelTag,
    trials: int,
    n_range: Sequence[int],
    seed: int,
    empty_variant: bool = False,
    rational_grid: int = 64,
) -> FuzzSummary:
    """Necessity + sufficiency sweep for one model variant.

    Each trial samples a bundle, generates its SCC, requires every
    characterizing axiom to hold, recovers parameters, and requires an exact
    round trip.  Deterministic in ``seed``.
    """
    base = random.Random(seed)
    failures: list[FuzzFailure] = []
    n_choices = list(n_range)
    for _ in range(trials):
        trial_seed = base.getrandbits(64)
        n = base.choice(n_choices)
        config = GenConfig(
            n=n,
            model=model,
            seed=trial_seed,
            empty_variant=empty_variant,
            rational_grid=rational_grid,
        )
        spec = sample_params(config)
        meta = FuzzFailure(trial_seed, model.value, n, empty_variant, "", "")
        _run_characterization_trial(spec, Universe.default(n), failures, meta)
    return FuzzSummary(
        suite=f"characterization:{model.value}{'_o' if empty_variant else ''}",
        trials=trials,
        failures=tuple(failures),
    )


def fuzz_relationships(
    trials: int,
    n_range: Sequence[int],
    seed: int,
    rational_grid: int = 64,
) -> FuzzSummary:
    """Relationship-consistency sweep over random models.

    Each trial samples a random model variant, classifies the generated SCC,
    and requires (a) membership in the generating model's own class and
    (b) an empty relationship-violation list.  Every fifth trial instead
    probes the implication "set-weight + relative additivity implies
    independent inclusion" by generating a product-form set-weight bundle
    (these satisfy relative additivity by construction, so the implication
    is actually exercised rather than vacuously skipped).
    """
    base = random.Random(seed)
    failures: list[FuzzFailure] = []
    n_choices = list(n_range)

    for index in range(trials):
        trial_seed = base.getrandbits(64)
        n = base.choice(n_choices)
        if index % 5 == 4:
            # implication probe: a set-weight bundle with product-form
            # weights, the grand-set row of the empty-variant ic model with
            # sampled inclusion probabilities (ic = logit AND rcg)
            rng = random.Random(trial_seed)
            gammas = {x: _grid_prob(rng, rational_grid) for x in range(n)}
            ic = ModelSpec(ModelTag.IC, ICParams(gammas), empty_variant=True)
            row = menu_row(ic, (1 << n) - 1)
            weights = {t: w for t, w in row.items() if t}
            spec = ModelSpec(ModelTag.LOGIT, LogitParams(weights))
            scc = generate_scc(spec, Universe.default(n))
            if not cached_report(scc, AxiomId.REL_ADD).holds:
                failures.append(
                    FuzzFailure(
                        trial_seed, "logit-product-form", n, False, "probe",
                        "product-form weights should satisfy relative additivity",
                    )
                )
                continue
            report = classify(scc)
            if not report.membership["ic"].holds:
                failures.append(
                    FuzzFailure(
                        trial_seed, "logit-product-form", n, False, "probe",
                        "set-weight bundle satisfying relative additivity is "
                        "not classified as independent inclusion",
                    )
                )
            continue
        model, empty_variant = ALL_VARIANTS[
            base.randrange(len(ALL_VARIANTS))
        ]
        config = GenConfig(
            n=n,
            model=model,
            seed=trial_seed,
            empty_variant=empty_variant,
            rational_grid=rational_grid,
        )
        spec = sample_params(config)
        scc = generate_scc(spec, Universe.default(n))
        report = classify(scc, attributes=_carriers_of(spec))
        key = model.value + ("_o" if empty_variant else "")
        verdict = report.membership[key]
        if model is ModelTag.NESTED_LOGIT:
            # power-form weights are generally not decidable from finite
            # rational data; the nested-choice level must still hold and the
            # power-form verdict must not be an outright failure
            ok = report.membership["nsc"].holds and verdict.status != FAILS
        else:
            ok = verdict.holds
        if not ok:
            failures.append(
                FuzzFailure(
                    trial_seed, model.value, n, empty_variant, "membership",
                    f"generated SCC not classified as {key}: "
                    f"{[a.value for a in verdict.failing_axioms]}",
                )
            )
        violations = verify_relationships(report)
        if violations:
            failures.append(
                FuzzFailure(
                    trial_seed, model.value, n, empty_variant, "relationships",
                    ", ".join(violations),
                )
            )
    return FuzzSummary(suite="relationships", trials=trials, failures=tuple(failures))
