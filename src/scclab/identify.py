"""Constructive parameter recovery with mandatory round-trip verification.

Each recovery follows the constructive sufficiency argument for its model:
check the characterizing axioms, read the parameters off the data (mostly
the grand-set row), and verify that they reproduce the input.  In both
modes the recovered bundle's rows come from the model kernels over their
denominators (reduced integer rows if exact, floats over 1 otherwise) and
are compared with the dataset's scaled rows
(:func:`~scclab.axioms.cached_scaled_rows`): bit for bit in exact mode,
where no Fraction is built, and within eps_eq in float mode.  No SCC is
regenerated.  Recovery refuses to run
(PreconditionFailedError) instead of returning best-effort parameters when
the axioms fail, because the constructions are only valid under them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .axioms import (
    AxiomId,
    cached_report,
    cached_scaled_rows,
    cached_revealed_constraints,
    cached_revealed_nests,
    characterizing_axioms,
)
from .core import (
    SCC,
    DEFAULT_TOL,
    InvalidParamsError,
    MissingWeightError,
    PreconditionFailedError,
    Prob,
    ToleranceConfig,
    is_zero,
    nonempty_submasks,
    probs_equal,
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
    _menu_rows,
)


@dataclass(frozen=True)
class RecoveryResult:
    """A recovered parameter bundle plus its verification status.

    round_trip_exact is True exactly when the dataset is in exact mode: the
    recovered bundle is then exact and reproduced the input bit for bit.
    Float-mode recovery verifies within eps_eq and reports False here.
    normalization_note states the scaling convention of the emitted
    parameters, since several bundles are only identified up to a uniform
    positive factor.
    """

    model_spec: ModelSpec
    round_trip_exact: bool
    normalization_note: str


def _reproduces(scc: SCC, spec: ModelSpec, tol: ToleranceConfig) -> bool:
    """Whether a validated bundle's rows, from
    :func:`~scclab.models._menu_rows`, are the dataset's scaled rows.

    Each row must have its dataset row's denominator: exact rows are both
    in the canonical :func:`~scclab.core.scale_row` form, and float rows
    are over 1.  Its cells must equal the dataset row's, as equal dicts or
    else cell by cell under :func:`~scclab.core.probs_equal`, a cell
    recorded on one side only counting as 0 (parsed data may record zero
    cells).  Every row is built before any is compared, so a float bundle
    whose weights overflow is refused as invalid wherever its bad row is.
    """
    rows, dens = cached_scaled_rows(scc)
    menus = range(1, scc.universe.full_mask + 1)
    return all(
        den == dens[menu]
        and (
            cells == rows[menu]
            or all(
                probs_equal(scc, cells.get(t, 0), rows[menu].get(t, 0), tol)
                for t in cells.keys() | rows[menu].keys()
            )
        )
        for menu, (cells, den) in zip(menus, list(_menu_rows(spec, menus)[1]))
    )


def _require(
    scc: SCC, model: ModelTag, tol: ToleranceConfig, construction: str
) -> None:
    """The one gate before a recovery: the SCC is complete, the model has a
    variant for its empty-collection flag, and every characterizing axiom of
    that variant holds.

    Full support is checked first: it is the cheapest check and the usual
    failure, so it is the precondition reported when several fail.
    """
    require_complete(scc)
    axioms = characterizing_axioms(model, scc.allows_empty)
    for axiom in sorted(axioms, key=lambda a: a is not AxiomId.FULL_SUPPORT):
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
    """The one round trip: refuse unless the recovered bundle is valid and
    its rows reproduce the input's (:func:`_reproduces`), exactly or within
    eps_eq in the dataset's mode."""
    try:
        spec.validate(scc.universe)
        reproduces = _reproduces(scc, spec, tol)
    except (InvalidParamsError, MissingWeightError) as exc:
        raise PreconditionFailedError(
            f"recovered parameters are not a valid bundle: {exc}"
        ) from exc
    if not reproduces:
        raise PreconditionFailedError(
            "recovered parameters do not reproduce the dataset"
        )
    return RecoveryResult(
        model_spec=spec, round_trip_exact=scc.exact, normalization_note=note
    )


def identify_logit(scc: SCC, tol: ToleranceConfig = DEFAULT_TOL) -> RecoveryResult:
    """Collection weights read off the grand-set row.

    Requires full support plus menu-independence of relative probabilities
    (the empty-collection form of the latter on empty-collection SCCs, where
    the empty collection's grand-set probability becomes the explicit empty
    weight).  The recovered weights are already normalized: they sum to 1
    together with any empty weight.
    """
    _require(scc, ModelTag.LOGIT, tol, "set-weight recovery")
    full = scc.universe.full_mask
    row = scc.rows[full]
    weights = {t: row[t] for t in nonempty_submasks(full)}
    empty_weight = row.get(0, scc.zero()) if scc.allows_empty else None
    spec = ModelSpec(
        ModelTag.LOGIT, LogitParams(weights, empty_weight), scc.allows_empty
    )
    return _finish(
        scc,
        spec,
        "weights are the grand-set row, hence normalized to total mass 1",
        tol,
    )


def identify_rcg(scc: SCC, tol: ToleranceConfig = DEFAULT_TOL) -> RecoveryResult:
    """Category masses read off the grand-set row.

    Standard form requires kind-1 positivity and relative additivity; the
    empty-collection form requires additivity.  In the latter case the data
    must put zero mass on the empty collection at the grand set (categories
    are non-empty, so no category family can produce such mass) and every
    item must appear in some positively weighted category; both conditions
    are enforced on the recovered bundle.
    """
    _require(scc, ModelTag.RCG, tol, "category-mass recovery")
    row = scc.rows[scc.universe.full_mask]
    mass = {c: row[c] for c in cached_revealed_nests(scc)}
    spec = ModelSpec(ModelTag.RCG, RCGParams(mass), scc.allows_empty)
    return _finish(
        scc,
        spec,
        "category masses are the grand-set row (already a distribution)",
        tol,
    )


def identify_ic(scc: SCC, tol: ToleranceConfig = DEFAULT_TOL) -> RecoveryResult:
    """Per-item inclusion probabilities from grand-set row ratios.

    gamma(x) = p(X) / (p(X) + p(X\\x)) with p the grand-set row.  Standard
    form requires full support, menu-independence, and relative additivity;
    the empty-collection form requires the empty-collection
    menu-independence plus additivity.  On a one-item universe the
    empty-collection form reads X\\x as the empty collection, so gamma is
    the item's own probability; the standard form's row is {x: 1} at every
    rate, so the rate is not identified and 1/2 is emitted.
    """
    _require(scc, ModelTag.IC, tol, "inclusion recovery")
    if scc.universe.n == 1 and not scc.allows_empty:
        spec = ModelSpec(ModelTag.IC, ICParams({0: scc.one() / 2}))
        note = "one item: the inclusion probability is not identified; 1/2 emitted"
        return _finish(scc, spec, note, tol)
    full = scc.universe.full_mask
    row = scc.rows[full]
    p_full = row.get(full, scc.zero())
    inclusion = {}
    for x in range(scc.universe.n):
        p_minus = row.get(full & ~(1 << x), scc.zero())
        denom = p_full + p_minus
        if is_zero(scc, denom):
            raise PreconditionFailedError(
                "grand-set probabilities of the full collection and its "
                f"co-singleton at item {scc.universe.items[x]!r} are both zero; "
                "inclusion probabilities are undefined"
            )
        inclusion[x] = p_full / denom
    spec = ModelSpec(ModelTag.IC, ICParams(inclusion), scc.allows_empty)
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
    _require(scc, ModelTag.RRM, tol, "reference-point recovery")
    revealed = cached_revealed_constraints(scc)
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
    _require(scc, ModelTag.NSC, tol, "nested-choice recovery")
    nests = cached_revealed_nests(scc)

    def ratio(num_coll: int, den_coll: int, menu: int) -> Prob:
        row = scc.rows[menu]
        num = row.get(num_coll, scc.zero())
        den = row.get(den_coll, scc.zero())
        if is_zero(scc, den) or is_zero(scc, num):
            raise PreconditionFailedError(
                "nested-choice recovery hit a zero probability where the "
                "positivity postulate promises support"
            )
        return num / den

    weights: dict[int, Weight] = {}
    if len(nests) == 1:
        for t in nonempty_submasks(nests[0]):
            weights[t] = scc.one()
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
#: extensional equivalences make the round trip exact.  Every recovery takes
#: ``(scc, tol)`` and recovers the variant the SCC's empty-collection flag
#: names, refusing a model that has no such variant.
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
