"""Model-class membership and relationship-diagram consistency.

Membership is decided purely through characterizing axiom sets (recovery is
a separate, constructive confirmation step in the identify module).  The
relationship checks encode the known equivalences and exclusions between
model classes and flag any membership vector that contradicts them; such a
contradiction can only come from a bug or from hand-edited reports, never
from data generated by this library's own models on universes of three or
more items.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .axioms import CHARACTERIZING_AXIOMS, AxiomId, WITNESS_CAP, cached_report
from .core import SCC, DEFAULT_TOL, ToleranceConfig, require_complete
from .models import ModelTag

HOLDS = "holds"
FAILS = "fails"
NOT_APPLICABLE = "not-applicable"
#: Membership that rational arithmetic cannot settle either way (only the
#: power-weighted nested model admits such datasets).
NOT_DECIDED = "not-decided"

#: Membership keys, in report order.  The three "_o" keys are the
#: empty-collection variants; "eba_exogenous" is membership with respect to
#: a fixed exogenous attribute family and needs that family as context.
MEMBERSHIP_KEYS = (
    "logit",
    "rcg",
    "ic",
    "eba",
    "ar",
    "eba_exogenous",
    "rrm",
    "nsc",
    "nested_logit",
    "logit_o",
    "rcg_o",
    "ic_o",
)

#: Names of the relationship checks, used in violation lists.
REL_IC_DECOMPOSITION = "ic-equals-logit-and-rcg"
REL_RRM_RCG_SINGLETON = "rrm-and-rcg-iff-singleton"
REL_RRM_NSC_SINGLETON = "rrm-and-nsc-iff-singleton"
REL_NSC_RCG_NEST_INVARIANT = "nsc-and-rcg-iff-nest-invariant"
REL_NSC_PAF_NEST_INVARIANT = "nsc-and-paf-iff-nest-invariant"
REL_REFERENCE_EXCLUSION = "rrm-or-nsc-excludes-logit-and-ic"

#: Theorems behind the relationship checks assume at least three items.
SMALL_UNIVERSE_FLAG = "universe-smaller-than-three: relationship theorems not applicable"


@dataclass(frozen=True)
class MembershipVerdict:
    """Membership of one model class: status plus the axioms that failed."""

    status: str
    failing_axioms: tuple[AxiomId, ...] = ()

    @property
    def holds(self) -> bool:
        return self.status == HOLDS


@dataclass(frozen=True)
class ClassificationReport:
    """Membership vector, special structure flags, and theorem consistency.

    special carries DET_FULL_CHOICE (deterministic full choice), SINGLETON
    (singleton representation), PAF (probabilistic attention filter), and
    NEST_INVARIANT (nest-invariant representation, decided as nested-choice
    membership plus the attention-filter property).
    """

    membership: dict[str, MembershipVerdict]
    special: dict[str, bool]
    relationship_violations: tuple[str, ...]
    assumption_flags: tuple[str, ...]


def verify_relationships(report: ClassificationReport) -> list[str]:
    """Check the membership vector against the known class relationships.

    Returns the names of violated relationships:

    * independent inclusion = set-weight AND category intersection;
    * reference-point AND category ⇔ singleton representation;
    * reference-point AND nested ⇔ singleton representation;
    * nested AND category ⇔ nest-invariant;
    * nested AND attention-filter ⇔ nest-invariant;
    * reference-point OR nested excludes set-weight and independent
      inclusion (full support fails).

    A relationship is evaluated only when every membership it mentions has a
    holds/fails verdict (empty-collection datasets, where the standard
    memberships are not applicable, evaluate none of them).
    """
    m = report.membership
    s = report.special

    def holds(key: str) -> bool:
        return m[key].status == HOLDS

    def decided(*keys: str) -> bool:
        return all(m[k].status in (HOLDS, FAILS) for k in keys)

    out = []
    if decided("ic", "logit", "rcg") and holds("ic") != (
        holds("logit") and holds("rcg")
    ):
        out.append(REL_IC_DECOMPOSITION)
    if decided("rrm", "rcg") and (holds("rrm") and holds("rcg")) != s["SINGLETON"]:
        out.append(REL_RRM_RCG_SINGLETON)
    if decided("rrm", "nsc") and (holds("rrm") and holds("nsc")) != s["SINGLETON"]:
        out.append(REL_RRM_NSC_SINGLETON)
    if decided("nsc", "rcg") and (holds("nsc") and holds("rcg")) != s["NEST_INVARIANT"]:
        out.append(REL_NSC_RCG_NEST_INVARIANT)
    if decided("nsc") and (holds("nsc") and s["PAF"]) != s["NEST_INVARIANT"]:
        out.append(REL_NSC_PAF_NEST_INVARIANT)
    if (
        decided("rrm", "nsc", "logit", "ic")
        and (holds("rrm") or holds("nsc"))
        and (holds("logit") or holds("ic"))
    ):
        out.append(REL_REFERENCE_EXCLUSION)
    return out


def classify(
    scc: SCC,
    tol: ToleranceConfig = DEFAULT_TOL,
    attributes: Optional[Sequence[int]] = None,
    cap: int = WITNESS_CAP,
) -> ClassificationReport:
    """Decide membership in every model class and cross-check the verdicts.

    Standard SCCs get verdicts for the eight standard models (attribute
    membership with respect to an exogenous family only when ``attributes``
    carriers are passed); empty-collection SCCs get verdicts for the three
    empty-collection variants.  Everything else is marked not applicable.

    The power-weighted nested model is special: its membership is decided
    positively for singleton or deterministic-full-choice data, negatively
    when nested-choice membership fails, and reported as not-decided
    otherwise (rational data cannot distinguish power-form weights from
    arbitrary ones in general).

    Relationship checks run only on universes with at least three items;
    smaller universes get an assumption flag instead, since several of the
    underlying theorems genuinely fail there.
    """
    require_complete(scc)

    def holds(axiom: AxiomId) -> bool:
        return cached_report(scc, axiom, tol, attributes, cap).holds

    def member(model: ModelTag) -> MembershipVerdict:
        axioms = CHARACTERIZING_AXIOMS[(model, scc.allows_empty)]
        failing = tuple(a for a in axioms if not holds(a))
        return MembershipVerdict(FAILS if failing else HOLDS, failing)

    na = MembershipVerdict(NOT_APPLICABLE)
    membership: dict[str, MembershipVerdict] = {key: na for key in MEMBERSHIP_KEYS}

    special = {
        "DET_FULL_CHOICE": holds(AxiomId.DET_FULL_CHOICE),
        "SINGLETON": holds(AxiomId.SINGLETON),
        "PAF": holds(AxiomId.PAF),
        "NEST_INVARIANT": False,
    }

    if scc.allows_empty:
        for model in (ModelTag.LOGIT, ModelTag.RCG, ModelTag.IC):
            membership[f"{model.value}_o"] = member(model)
    else:
        for model in (
            ModelTag.LOGIT, ModelTag.RCG, ModelTag.IC, ModelTag.RRM, ModelTag.NSC
        ):
            membership[model.value] = member(model)
        # endogenous attribute selection is extensionally the category
        # model, and the two-stage attribute rule's collection level is
        # extensionally endogenous attribute selection
        membership["eba"] = membership["ar"] = membership["rcg"]
        if attributes is not None:
            membership["eba_exogenous"] = member(ModelTag.EBA)
        nsc = membership["nsc"]
        special["NEST_INVARIANT"] = nsc.holds and special["PAF"]
        if not nsc.holds:
            membership["nested_logit"] = MembershipVerdict(FAILS, nsc.failing_axioms)
        elif special["SINGLETON"] or special["DET_FULL_CHOICE"]:
            membership["nested_logit"] = MembershipVerdict(HOLDS)
        else:
            membership["nested_logit"] = MembershipVerdict(NOT_DECIDED)

    if scc.universe.n < 3:
        violations: tuple[str, ...] = ()
        flags: tuple[str, ...] = (SMALL_UNIVERSE_FLAG,)
    else:
        partial = ClassificationReport(membership, special, (), ())
        violations = tuple(verify_relationships(partial))
        flags = ()
    return ClassificationReport(membership, special, violations, flags)
