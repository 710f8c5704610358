"""The correctness gate: runs after each operation, outside the timed region.

``check_op`` returns the reasons an operation failed (an empty list means it
passed).  An operation fails when:

* it raised, or its exit code differs from the one its own verdicts imply
  (0 or 1; exit code 2 always fails);
* a witness it reports does not pass ``recheck_witness`` on the input;
* a characterizing axiom of the generating model fails
  (``fuzz.CHARACTERIZING_AXIOMS``);
* a float dataset's verdicts differ from the exact verdicts of the same
  dataset;
* ``identify`` output, rebuilt through ``parse_params`` and
  ``generate_scc``, does not reproduce the input rows exactly;
* ``classify`` does not put the dataset in its generating model's class, or
  reports relationship violations;
* a ``fuzz`` summary is not ok;
* in the pin check (``Run.check_pins``), which reruns the default seed's
  first pass in every run, a verdict vector differs from its pin.
"""

from __future__ import annotations

import json
from typing import Any, Optional

from workloads import Dataset, Op


class Gate:
    def __init__(self, prog: Any):
        self.prog = prog
        self.pinned: Optional[dict[str, dict]] = None  # verdict pins, set by the pin check

    def check_op(self, op: Op, rc: Optional[int], error: Optional[str]) -> list[str]:
        if error is not None:
            return [f"raised {error}"]
        if rc not in (0, 1):
            return [f"exit code {rc}"]
        try:
            with open(op.output, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, ValueError) as exc:
            return [f"unreadable output: {exc}"]
        check = getattr(self, f"_check_{op.kind}")
        try:
            return check(op, rc, payload)
        except (KeyError, TypeError, ValueError, self.prog.core.ScclabError) as exc:
            return [f"malformed output: {type(exc).__name__}: {exc}"]

    # -- per command ---------------------------------------------------------

    def _check_check(self, op: Op, rc: int, payload: dict) -> list[str]:
        ds = op.dataset
        p = self.prog
        reasons = []
        verdicts = {r["axiom"]: r["holds"] for r in payload["reports"]}
        implied = 0 if all(verdicts.values()) else 1
        if rc != implied:
            reasons.append(f"exit code {rc}, verdicts imply {implied}")
        scc = p.io_cli.parse_scc(_load(ds.path))
        for report in payload["reports"]:
            if report["holds"] == bool(report["witnesses"]):
                reasons.append(f"{report['axiom']}: holds={report['holds']} with "
                               f"{len(report['witnesses'])} witness(es)")
            for w in report["witnesses"]:
                if not p.axioms.recheck_witness(scc, self._witness(scc, w)):
                    reasons.append(f"{report['axiom']}: witness fails recheck: {w['bindings']}")
        key = (p.models.ModelTag(ds.model), ds.empty_variant)
        for axiom in p.fuzz.CHARACTERIZING_AXIOMS[key]:
            if verdicts.get(axiom.value) is False:
                reasons.append(f"characterizing axiom {axiom.value} of {ds.label} fails")
        if ds.float_mode:
            exact = self.exact_verdicts(ds, payload["reports"])
            if verdicts != exact:
                diff = sorted(a for a in set(verdicts) | set(exact) if verdicts.get(a) != exact.get(a))
                reasons.append(f"float verdicts differ from exact on {diff}")
        reasons += self._against_pin(ds, verdicts)
        return reasons

    def _check_classify(self, op: Op, rc: int, payload: dict) -> list[str]:
        ds = op.dataset
        reasons = []
        membership = {k: v["status"] for k, v in payload["membership"].items()}
        violations = payload["relationship_violations"]
        implied = 0 if "holds" in membership.values() and not violations else 1
        if rc != implied:
            reasons.append(f"exit code {rc}, verdicts imply {implied}")
        if ds.model == "nested_logit":
            # power-form weights are not decidable from rational data: the
            # nested-choice class must hold and the power form must not fail
            # (the rule the program's own relationship sweep applies)
            ok = membership["nsc"] == "holds" and membership[ds.label] != "fails"
        else:
            ok = membership[ds.label] == "holds"
        if not ok:
            reasons.append(f"not classified as {ds.label}: {membership[ds.label]}")
        if violations:
            reasons.append(f"relationship violations {violations}")
        reasons += self._against_pin(ds, membership, suffix=":classify")
        return reasons

    def _check_identify(self, op: Op, rc: int, payload: dict) -> list[str]:
        ds = op.dataset
        p = self.prog
        identified = payload.get("identified") is True
        if rc != (0 if identified else 1):
            return [f"exit code {rc} with identified={identified}"]
        if not identified:
            return [f"{ds.label} dataset not identified"]
        spec, universe = p.io_cli.parse_params(payload)
        regen = p.models.generate_scc(spec, universe)
        scc = p.io_cli.parse_scc(_load(ds.path))
        reasons = []
        if regen.rows != scc.rows or regen.allows_empty != scc.allows_empty:
            reasons.append("identified parameters do not reproduce the input rows")
        reasons += self._against_pin(ds, {"model": payload["model"]}, suffix=":identify")
        return reasons

    def _check_fuzz(self, op: Op, rc: int, payload: dict) -> list[str]:
        summaries = payload["summaries"]
        trials = int(op.argv[op.argv.index("--trials") + 1])
        reasons = []
        implied = 0 if all(s["ok"] for s in summaries) else 1
        if rc != implied:
            reasons.append(f"exit code {rc}, summaries imply {implied}")
        for s in summaries:
            if not s["ok"]:
                reasons.append(f"{s['suite']}: {len(s['failures'])} failure(s): {s['failures'][:1]}")
            if s["trials"] != trials:
                reasons.append(f"{s['suite']}: ran {s['trials']} trials")
        if len(summaries) != 1:
            reasons.append(f"{len(summaries)} summaries")
        return reasons

    # -- helpers ---------------------------------------------------------------

    def exact_verdicts(self, ds: Dataset, reports: list[dict]) -> dict[str, bool]:
        """Verdicts on the exact twin for the axioms of a float ``check`` output.

        Only what the float reports leave open is computed exactly.  A
        characterizing axiom holds on its model's data (check-exact gates
        that); a float witness that still rechecks on the exact twin, with
        its float values dropped, settles "fails"; every other axiom runs in
        exact arithmetic.
        """
        if ds.exact_verdicts is None:
            p = self.prog
            scc = p.io_cli.parse_scc(ds.document)
            key = (p.models.ModelTag(ds.model), ds.empty_variant)
            characterizing = {a.value for a in p.fuzz.CHARACTERIZING_AXIOMS[key]}
            verdicts = {}
            for report in reports:
                axiom = p.axioms.AxiomId(report["axiom"])
                if axiom.value in characterizing:
                    verdicts[axiom.value] = True
                elif any(
                    p.axioms.recheck_witness(scc, self._witness(scc, {**w, "lhs": None, "rhs": None}))
                    for w in report["witnesses"]
                ):
                    verdicts[axiom.value] = False
                else:
                    verdicts[axiom.value] = p.axioms.run_axiom(scc, axiom).holds
            ds.exact_verdicts = verdicts
        return ds.exact_verdicts

    def _against_pin(self, ds: Dataset, vector: dict, suffix: str = "") -> list[str]:
        if self.pinned is None:
            return []
        pin = self.pinned.get(ds.label + suffix)
        if pin is None:
            return [f"no pinned verdicts for {ds.label + suffix}"]
        if pin != vector:
            return [f"verdicts of {ds.label + suffix} differ from the pin"]
        return []

    def _witness(self, scc: Any, w: dict) -> Any:
        p = self.prog
        universe = scc.universe
        literal = p.io_cli.parse_prob_literal
        return p.axioms.Witness(
            p.axioms.AxiomId(w["axiom"]),
            {k: universe.mask_of(v) for k, v in w["bindings"].items()},
            None if w["lhs"] is None else literal(w["lhs"])[0],
            None if w["rhs"] is None else literal(w["rhs"])[0],
        )


def _load(path: str) -> Any:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)
