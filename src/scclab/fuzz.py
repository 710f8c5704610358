"""Seeded random parameter bundles and property harnesses.

Sampling stays on a rational grid (numerators and denominators bounded by
:data:`GRID`) so the whole pipeline remains exact and the theorem
checks are unconditional: across all suites the expected failure count is
zero, and any failure is reported with its reproducer seed — the theorems
are proved, so a disagreement is a library bug, not a mathematical finding.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Sequence

from .axioms import CHARACTERIZING_AXIOMS, AxiomId, cached_report
from .classify import FAILS, classify
from .core import (
    InfeasibleStructureError,
    InvalidParamsError,
    Universe,
    bits,
    nonempty_submasks,
)
from .identify import RECOVERIES
from .models import (
    ARParams,
    ArAttribute,
    Aspect,
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
    variant_name,
)

#: The eleven samplable model variants.
ALL_VARIANTS: tuple[tuple[ModelTag, bool], ...] = tuple(CHARACTERIZING_AXIOMS)

#: Bound on the numerators and denominators of sampled weights.
GRID = 64
#: Inclusive range of the nest count (clamped to the universe size).
NEST_COUNT = (1, 3)
#: Inclusive range of the number of sampled attribute carriers.
ATTRIBUTE_COUNT = (2, 5)
#: Probability that a foreign item joins a sampled constraint set.
CONSTRAINT_DENSITY = 0.35


@dataclass(frozen=True)
class GenConfig:
    """Deterministic sampling configuration for one parameter bundle: the
    universe size, the model variant and the seed.  The grid and the
    structure ranges are the module constants above."""

    n: int
    model: ModelTag
    seed: int
    empty_variant: bool = False

    def __post_init__(self):
        if self.n < 1:
            raise InvalidParamsError("universe size must be positive")


def _grid_weight(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(1, GRID))


def _grid_prob(rng: random.Random) -> Fraction:
    den = rng.randint(2, GRID)
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
    k = rng.randint(lo, hi)
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


def _sample_carriers(rng: random.Random, n: int) -> list[int]:
    """A carrier family covering the universe (missing items get singletons)."""
    full = (1 << n) - 1
    k = rng.randint(*ATTRIBUTE_COUNT)
    return _covering([rng.randint(1, full) for _ in range(k)], n)


def sample_params(config: GenConfig) -> ModelSpec:
    """A valid random parameter bundle, deterministic in the seed.

    Invalid raw draws are repaired (coverage) or redrawn (constraint-set
    distinctness); an impossible structure request raises
    InfeasibleStructureError.
    """
    rng = random.Random(config.seed)
    n = config.n
    full = (1 << n) - 1
    universe = Universe.default(n)
    model = config.model

    if model is ModelTag.LOGIT:
        weights = {t: _grid_weight(rng) for t in nonempty_submasks(full)}
        empty_weight = _grid_weight(rng) if config.empty_variant else None
        params = LogitParams(weights, empty_weight)
    elif model is ModelTag.RCG:
        pool = list(range(1, full + 1))
        cats = rng.sample(pool, rng.randint(1, min(len(pool), 6)))
        ordered = sorted(_covering(cats, n))
        masses = _normalized([rng.randint(1, GRID) for _ in ordered])
        params = RCGParams(dict(zip(ordered, masses)))
    elif model is ModelTag.IC:
        inclusion = {x: _grid_prob(rng) for x in range(n)}
        params = ICParams(inclusion)
    elif model in (ModelTag.EBA, ModelTag.AR):
        carriers = _sample_carriers(rng, n)
        weights = _normalized([rng.randint(1, GRID) for _ in carriers])
        if model is ModelTag.EBA:
            params = EBAParams(tuple(Aspect(w, c) for w, c in zip(weights, carriers)))
        else:
            params = ARParams(tuple(
                ArAttribute(w, c, {i: rng.randint(1, GRID) for i in bits(c)})
                for w, c in zip(weights, carriers)
            ))
    elif model is ModelTag.RRM:
        constraints = None
        for _ in range(200):
            candidate = {}
            for x in range(n):
                q = 1 << x
                for y in range(n):
                    if y != x and rng.random() < CONSTRAINT_DENSITY:
                        q |= 1 << y
                candidate[x] = q
            if len(set(candidate.values())) == n:
                constraints = candidate
                break
        if constraints is None:
            raise InfeasibleStructureError(
                "could not draw pairwise-distinct constraint sets at "
                f"density {CONSTRAINT_DENSITY}"
            )
        salience = {x: _grid_weight(rng) for x in range(n)}
        params = RRMParams(salience, constraints)
    elif model is ModelTag.NSC:
        nests = _sample_partition(rng, n, NEST_COUNT)
        weights = {
            t: _grid_weight(rng)
            for nest in nests
            for t in nonempty_submasks(nest)
        }
        params = NSCParams(nests, weights)
    elif model is ModelTag.NESTED_LOGIT:
        nests = _sample_partition(rng, n, NEST_COUNT)
        utilities = {x: _grid_weight(rng) for x in range(n)}
        exponents = tuple(Fraction(rng.randint(1, 3)) for _ in nests)
        params = NestedLogitParams(nests, utilities, exponents)
    else:
        raise InvalidParamsError(f"unknown model tag {model}")

    spec = ModelSpec(model, params, config.empty_variant)
    spec.validate(universe)
    return spec


def sample_singleton_params(n: int, seed: int) -> ModelSpec:
    """A reference-point bundle with identity constraint sets: the generated
    SCC has a singleton representation (only singletons ever chosen, with
    menu-independent relative weights)."""
    rng = random.Random(seed)
    salience = {x: _grid_weight(rng) for x in range(n)}
    constraints = {x: 1 << x for x in range(n)}
    spec = ModelSpec(ModelTag.RRM, RRMParams(salience, constraints))
    spec.validate(Universe.default(n))
    return spec


def sample_nest_invariant_params(n: int, seed: int) -> ModelSpec:
    """A nested-choice bundle whose weight is constant on each nest: the
    generated SCC is nest-invariant (equivalently, satisfies the
    probabilistic attention filter)."""
    rng = random.Random(seed)
    nests = _sample_partition(rng, n, (2, 3))
    weights: dict[int, Fraction] = {}
    for nest in nests:
        level = _grid_weight(rng)
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


def _trials(
    seed: int, trials: int, n_range: Sequence[int]
) -> Iterator[tuple[random.Random, int, int]]:
    """Both sweeps' trial stream: each trial's reproducer seed and universe
    size, drawn in that order from one ``random.Random(seed)``, yielded with
    the stream so that a sweep can draw more for the trial."""
    stream = random.Random(seed)
    n_choices = list(n_range)
    for _ in range(trials):
        yield stream, stream.getrandbits(64), stream.choice(n_choices)


def _characterization_trial(
    model: ModelTag, empty_variant: bool, trial_seed: int, n: int
) -> list[tuple[str, str]]:
    """The (stage, detail) of a sampled bundle's first failure: a
    characterizing axiom that fails on its SCC, or a recovery that raises."""
    spec = sample_params(GenConfig(n, model, trial_seed, empty_variant))
    scc = generate_scc(spec, Universe.default(n))
    attributes = _carriers_of(spec)
    for axiom in CHARACTERIZING_AXIOMS[(model, empty_variant)]:
        report = cached_report(scc, axiom, attributes=attributes)
        if not report.holds:
            return [("necessity", f"{axiom.value} failed with {len(report.witnesses)} witness(es)")]
    try:
        RECOVERIES[model](scc)
    except Exception as exc:  # harness boundary: report, never crash the sweep
        return [("identification", f"{type(exc).__name__}: {exc}")]
    return []


def fuzz_characterization(
    model: ModelTag,
    trials: int,
    n_range: Sequence[int],
    seed: int,
    empty_variant: bool = False,
) -> FuzzSummary:
    """Necessity + sufficiency sweep for one model variant.

    Each trial samples a bundle, generates its SCC, requires every
    characterizing axiom to hold, recovers parameters, and requires an exact
    round trip.  Deterministic in ``seed``.
    """
    failures = [
        FuzzFailure(trial_seed, model.value, n, empty_variant, stage, detail)
        for _, trial_seed, n in _trials(seed, trials, n_range)
        for stage, detail in _characterization_trial(model, empty_variant, trial_seed, n)
    ]
    return FuzzSummary(
        suite=f"characterization:{variant_name(model, empty_variant)}",
        trials=trials,
        failures=tuple(failures),
    )


def _probe_trial(trial_seed: int, n: int) -> list[tuple[str, str]]:
    """The implication probe's failure, if any.  Its set-weight bundle has
    product-form weights: the grand-set row of the empty-variant ic model
    with sampled inclusion probabilities (ic = logit AND rcg)."""
    rng = random.Random(trial_seed)
    gammas = {x: _grid_prob(rng) for x in range(n)}
    ic = ModelSpec(ModelTag.IC, ICParams(gammas), empty_variant=True)
    universe = Universe.default(n)
    row = menu_row(ic, universe, universe.full_mask)
    weights = {t: w for t, w in row.items() if t}
    scc = generate_scc(ModelSpec(ModelTag.LOGIT, LogitParams(weights)), universe)
    if not cached_report(scc, AxiomId.REL_ADD).holds:
        detail = "product-form weights should satisfy relative additivity"
    elif not classify(scc).membership["ic"].holds:
        detail = (
            "set-weight bundle satisfying relative additivity is not "
            "classified as independent inclusion"
        )
    else:
        return []
    return [("probe", detail)]


def _membership_trial(
    model: ModelTag, empty_variant: bool, trial_seed: int, n: int
) -> list[tuple[str, str]]:
    """The (stage, detail) failures of a sampled bundle's classification: its
    own model's membership, then the relationship violations."""
    spec = sample_params(GenConfig(n, model, trial_seed, empty_variant))
    report = classify(generate_scc(spec, Universe.default(n)), attributes=_carriers_of(spec))
    key = variant_name(model, empty_variant)
    verdict = report.membership[key]
    if model is ModelTag.NESTED_LOGIT:
        # power-form weights are generally not decidable from finite
        # rational data; the nested-choice level must still hold and the
        # power-form verdict must not be an outright failure
        ok = report.membership["nsc"].holds and verdict.status != FAILS
    else:
        ok = verdict.holds
    problems = []
    if not ok:
        failing = [a.value for a in verdict.failing_axioms]
        problems.append(("membership", f"generated SCC not classified as {key}: {failing}"))
    if report.relationship_violations:
        problems.append(("relationships", ", ".join(report.relationship_violations)))
    return problems


def fuzz_relationships(trials: int, n_range: Sequence[int], seed: int) -> FuzzSummary:
    """Relationship-consistency sweep over random models.

    Each trial samples a random model variant, classifies the generated SCC,
    and requires (a) membership in the generating model's own class and
    (b) an empty relationship-violation list.  Every fifth trial instead
    probes the implication "set-weight + relative additivity implies
    independent inclusion" by generating a product-form set-weight bundle
    (these satisfy relative additivity by construction, so the implication
    is actually exercised rather than vacuously skipped).
    """
    failures: list[FuzzFailure] = []
    for index, (stream, trial_seed, n) in enumerate(_trials(seed, trials, n_range)):
        if index % 5 == 4:
            name, empty_variant = "logit-product-form", False
            problems = _probe_trial(trial_seed, n)
        else:
            model, empty_variant = ALL_VARIANTS[stream.randrange(len(ALL_VARIANTS))]
            name = model.value
            problems = _membership_trial(model, empty_variant, trial_seed, n)
        failures += [FuzzFailure(trial_seed, name, n, empty_variant, *pair) for pair in problems]
    return FuzzSummary(suite="relationships", trials=trials, failures=tuple(failures))
