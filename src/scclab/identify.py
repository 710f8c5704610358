"""Constructive parameter recovery with mandatory round-trip verification.

Each recovery follows the constructive sufficiency argument for its model:
check the characterizing axioms, read the parameters off the data (mostly
the grand-set row), rebuild the SCC from them, and verify the rebuild
matches the input — exactly in exact mode, within eps_eq cell-by-cell in
float mode.  Recovery refuses to run (PreconditionFailedError) instead of
returning best-effort parameters when the axioms fail, because the
constructions are only valid under them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from .axioms import (
    CHARACTERIZING_AXIOMS,
    AxiomId,
    cached_report,
    cached_revealed_constraints,
    cached_revealed_nests,
)
from .core import (
    SCC,
    DEFAULT_TOL,
    InvalidParamsError,
    MissingWeightError,
    PreconditionFailedError,
    Prob,
    ShapeError,
    ToleranceConfig,
    WrongVariantError,
    is_positive,
    is_zero,
    nonempty_submasks,
    require_complete,
)
from .models import (
    ICParams,
    LogitParams,
    ModelSpec,
    ModelTag,
    NSCParams,
    RCGParams,
    RRMParams,
    Weight,
    generate_scc,
)


@dataclass(frozen=True)
class RecoveryResult:
    """A recovered parameter bundle plus its verification status.

    round_trip_exact is True only when the regenerated SCC reproduced the
    input bit-exactly (always the case for successful exact-mode recovery;
    float-mode recovery verifies within eps_eq and reports False here).
    normalization_note states the scaling convention of the emitted
    parameters, since several bundles are only identified up to a uniform
    positive factor.
    """

    model_spec: ModelSpec
    round_trip_exact: bool
    normalization_note: str

    @property
    def model(self) -> ModelTag:
        return self.model_spec.model


def _rows_match(reference: SCC, regen: SCC, tol: ToleranceConfig) -> bool:
    """Cell-by-cell row comparison; exact iff both sides are exact."""
    if set(reference.rows) != set(regen.rows):
        return False
    exact = reference.exact and regen.exact
    for menu, ref_row in reference.rows.items():
        new_row = regen.rows[menu]
        for coll in set(ref_row) | set(new_row):
            a = ref_row.get(coll, reference.zero())
            b = new_row.get(coll, regen.zero())
            if exact:
                if a != b:
                    return False
            elif not math.isclose(
                float(a), float(b), rel_tol=tol.eps_eq, abs_tol=tol.eps_eq
            ):
                return False
    return True


def round_trip_verify(
    scc: SCC, result: RecoveryResult, tol: ToleranceConfig = DEFAULT_TOL
) -> bool:
    """Regenerate the SCC from recovered parameters and compare to the input."""
    regen = generate_scc(result.model_spec, scc.universe)
    return _rows_match(scc, regen, tol)


def _resolve_variant(scc: SCC, empty_variant: Optional[bool]) -> bool:
    if empty_variant is None:
        return scc.allows_empty
    if empty_variant != scc.allows_empty:
        raise WrongVariantError(
            "requested variant does not match the SCC's empty-collection flag"
        )
    return empty_variant


def _require(
    scc: SCC, model: ModelTag, variant: bool, tol: ToleranceConfig, construction: str
) -> None:
    """Refuse unless every characterizing axiom of the model variant holds.

    Full support is checked first: it is the cheapest check and the usual
    failure, so it is the precondition reported when several fail.
    """
    axioms = sorted(
        CHARACTERIZING_AXIOMS[(model, variant)],
        key=lambda axiom: axiom is not AxiomId.FULL_SUPPORT,
    )
    for axiom in axioms:
        report = cached_report(scc, axiom, tol)
        if not report.holds:
            raise PreconditionFailedError(
                f"{construction} requires {report.axiom.value}, which fails "
                f"({len(report.witnesses)} witness(es) attached)",
                report=report,
            )


def _finish(
    scc: SCC, spec: ModelSpec, note: str, tol: ToleranceConfig
) -> RecoveryResult:
    try:
        regen = generate_scc(spec, scc.universe)
    except (InvalidParamsError, MissingWeightError) as exc:
        raise PreconditionFailedError(
            f"recovered parameters are not a valid bundle: {exc}"
        ) from exc
    if not _rows_match(scc, regen, tol):
        raise PreconditionFailedError(
            "recovered parameters do not reproduce the dataset"
        )
    return RecoveryResult(
        model_spec=spec,
        round_trip_exact=scc.exact and regen.exact,
        normalization_note=note,
    )


def identify_logit(
    scc: SCC,
    empty_variant: Optional[bool] = None,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> RecoveryResult:
    """Collection weights read off the grand-set row.

    Requires full support plus menu-independence of relative probabilities
    (the empty-collection form of the latter on empty-collection SCCs, where
    the empty collection's grand-set probability becomes the explicit empty
    weight).  The recovered weights are already normalized: they sum to 1
    together with any empty weight.
    """
    require_complete(scc)
    variant = _resolve_variant(scc, empty_variant)
    _require(scc, ModelTag.LOGIT, variant, tol, "set-weight recovery")
    full = scc.universe.full_mask
    row = scc.rows[full]
    weights = {t: row[t] for t in nonempty_submasks(full)}
    empty_weight = row.get(0, scc.zero()) if variant else None
    spec = ModelSpec(ModelTag.LOGIT, LogitParams(weights, empty_weight), variant)
    return _finish(
        scc,
        spec,
        "weights are the grand-set row, hence normalized to total mass 1",
        tol,
    )


def identify_rcg(
    scc: SCC,
    empty_variant: Optional[bool] = None,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> RecoveryResult:
    """Category masses read off the grand-set row.

    Standard form requires kind-1 positivity and relative additivity; the
    empty-collection form requires additivity.  In the latter case the data
    must put zero mass on the empty collection at the grand set (categories
    are non-empty, so no category family can produce such mass) and every
    item must appear in some positively weighted category; both conditions
    are enforced on the recovered bundle.
    """
    require_complete(scc)
    variant = _resolve_variant(scc, empty_variant)
    _require(scc, ModelTag.RCG, variant, tol, "category-mass recovery")
    full = scc.universe.full_mask
    mass = {
        c: p
        for c, p in scc.rows[full].items()
        if c != 0 and is_positive(scc, p, tol)
    }
    spec = ModelSpec(ModelTag.RCG, RCGParams(mass), variant)
    return _finish(
        scc,
        spec,
        "category masses are the grand-set row (already a distribution)",
        tol,
    )


def identify_ic(
    scc: SCC,
    empty_variant: Optional[bool] = None,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> RecoveryResult:
    """Per-item inclusion probabilities from grand-set row ratios.

    gamma(x) = p(X) / (p(X) + p(X\\x)) with p the grand-set row.  Standard
    form requires full support, menu-independence, and relative additivity;
    the empty-collection form requires the empty-collection
    menu-independence plus additivity.  A single-item universe is rejected
    (the formula needs the menu X\\x).
    """
    require_complete(scc)
    variant = _resolve_variant(scc, empty_variant)
    if scc.universe.n < 2:
        raise ShapeError(
            "inclusion-probability recovery needs at least two items"
        )
    _require(scc, ModelTag.IC, variant, tol, "inclusion recovery")
    full = scc.universe.full_mask
    row = scc.rows[full]
    p_full = row.get(full, scc.zero())
    inclusion = {}
    for x in range(scc.universe.n):
        p_minus = row.get(full & ~(1 << x), scc.zero())
        denom = p_full + p_minus
        if is_zero(scc, denom, tol):
            raise PreconditionFailedError(
                "grand-set probabilities of the full collection and its "
                f"co-singleton at item {scc.universe.items[x]!r} are both zero; "
                "inclusion probabilities are undefined"
            )
        if isinstance(p_full, Fraction) and isinstance(denom, Fraction):
            inclusion[x] = p_full / denom
        else:
            inclusion[x] = float(p_full) / float(denom)
    spec = ModelSpec(ModelTag.IC, ICParams(inclusion), variant)
    return _finish(
        scc,
        spec,
        "inclusion probabilities are grand-set ratios; scale-free",
        tol,
    )


def identify_rrm(scc: SCC, tol: ToleranceConfig = DEFAULT_TOL) -> RecoveryResult:
    """Constraint sets from binary-menu zeros, salience from the grand set.

    Requires the four-postulate random-reference suite.  The constraint
    function is uniquely determined; salience is unique up to uniform
    scaling and is emitted summing to 1 (each s_x is a grand-set
    probability and the revealed constraint sets exhaust the support).
    """
    require_complete(scc)
    _require(scc, ModelTag.RRM, False, tol, "reference-point recovery")
    revealed = cached_revealed_constraints(scc, tol)
    full = scc.universe.full_mask
    row = scc.rows[full]
    salience = {x: row.get(revealed[x], scc.zero()) for x in range(scc.universe.n)}
    spec = ModelSpec(ModelTag.RRM, RRMParams(salience, dict(revealed)))
    return _finish(
        scc,
        spec,
        "salience unique up to uniform scaling; emitted summing to 1",
        tol,
    )


def identify_nsc(scc: SCC, tol: ToleranceConfig = DEFAULT_TOL) -> RecoveryResult:
    """Nests from the grand-set support, weights by a cross-nest ladder.

    Requires path-independence, the revealed-nest partition, and kind-4
    positivity.  With a single nest any constant weighting works (weight 1
    is emitted).  Otherwise anchors are the first items (canonical order) of
    the first two nests: the first anchor's singleton gets weight 1, weights
    inside other nests come from menus joining the collection with the first
    anchor, and weights inside the first nest go through the second anchor,
    scaled by the anchors' binary-menu ratio.  Weights are unique up to
    uniform scaling and only defined on non-empty single-nest collections.
    """
    require_complete(scc)
    _require(scc, ModelTag.NSC, False, tol, "nested-choice recovery")
    nests = cached_revealed_nests(scc, tol)

    def ratio(num_coll: int, den_coll: int, menu: int) -> Prob:
        row = scc.rows[menu]
        num = row.get(num_coll, scc.zero())
        den = row.get(den_coll, scc.zero())
        if is_zero(scc, den, tol) or is_zero(scc, num, tol):
            raise PreconditionFailedError(
                "nested-choice recovery hit a zero probability where the "
                "positivity postulate promises support"
            )
        if isinstance(num, Fraction) and isinstance(den, Fraction):
            return num / den
        return float(num) / float(den)

    weights: dict[int, Weight] = {}
    if len(nests) == 1:
        for t in nonempty_submasks(nests[0]):
            weights[t] = Fraction(1) if scc.exact else 1.0
    else:
        anchor1 = nests[0] & -nests[0]
        anchor2 = nests[1] & -nests[1]
        pair = anchor1 | anchor2
        cross_scale = ratio(anchor2, anchor1, pair)
        for i, nest in enumerate(nests):
            for t in nonempty_submasks(nest):
                if i == 0:
                    weights[t] = ratio(t, anchor2, t | anchor2) * cross_scale
                else:
                    weights[t] = ratio(t, anchor1, t | anchor1)
    spec = ModelSpec(ModelTag.NSC, NSCParams(tuple(nests), weights))
    return _finish(
        scc,
        spec,
        "nest weights unique up to uniform scaling; first anchor singleton "
        "fixed at weight 1",
        tol,
    )


#: The recovery each model's data goes through, keyed by model tag (a string
#: enum, so a tag's name finds its entry).  Attribute models recover as
#: category masses and power-weighted nesting as plain nesting: the
#: extensional equivalences make the round trip exact.  Every recovery reads
#: the empty-collection variant from the SCC unless told otherwise.
RECOVERIES: dict[ModelTag, Callable[..., RecoveryResult]] = {
    ModelTag.LOGIT: identify_logit,
    ModelTag.RCG: identify_rcg,
    ModelTag.IC: identify_ic,
    ModelTag.EBA: identify_rcg,
    ModelTag.AR: identify_rcg,
    ModelTag.RRM: identify_rrm,
    ModelTag.NSC: identify_nsc,
    ModelTag.NESTED_LOGIT: identify_nsc,
}
