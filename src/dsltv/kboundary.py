"""Empirical cutoff-boundary validation.

Two phases per property: a uniform sweep that shifts every per-class source
bound by an offset and re-verifies, and a selective pass decrementing one
source class at a time to find the binding classes.  The target is what the
rules make from the source, so it has no bound to vary.  Every run solves
the fragment that `verify` decided on.  Results render to a markdown report
plus raw JSON.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, replace

from .cutoff import PerClassBounds
from .orchestrator import HOLDS, UNKNOWN, VIOLATED, PlanRejected, \
    VerificationConfig, _PropertyRun, plan_property, verify_property

OFFSETS = tuple(range(-3, 4))


@dataclass
class SweepResult:
    property: str
    base_k: int
    per_class_max: int
    dominant: tuple
    expected_pattern: str  # negative | positive
    rows: list = field(default_factory=list)  # (offset, status, seconds)
    reasons: dict = field(default_factory=dict)  # offset -> UNKNOWN reason
    matched: bool = False

    def to_json(self):
        return {
            "property": self.property,
            "baseK": self.base_k,
            "perClassMax": self.per_class_max,
            "dominant": list(self.dominant),
            "expectedPattern": self.expected_pattern,
            "offsets": [{"delta": d, "status": s, "timeSec": round(t, 3),
                         "reason": self.reasons.get(d)}
                        for d, s, t in self.rows],
            "matched": self.matched,
        }


@dataclass
class PerturbationResult:
    property: str
    base_status: str
    runs: list = field(default_factory=list)  # (class, status|skipped)
    reasons: dict = field(default_factory=dict)  # class -> UNKNOWN reason
    binding_classes: list = field(default_factory=list)
    matched: bool = False

    def to_json(self):
        return {
            "property": self.property,
            "baseStatus": self.base_status,
            "runs": [{"class": c, "status": st, "reason": self.reasons.get(c)}
                     for c, st in self.runs],
            "bindingClasses": list(self.binding_classes),
            "matched": self.matched,
        }


class BoundsLab:
    """One property's plan, base verdict, base bounds and seed classes,
    built once for every phase, and a solve-at-bounds primitive that
    bypasses fragment refinement so every run measures exactly the requested
    bounds, each distinct bounds once.  A property the plan rejects has no
    bounds to vary; every run of it is UNKNOWN with the rejection's
    reason."""

    def __init__(self, spec, prop, config=None, base_verdict=None):
        self.config = config = config or VerificationConfig()
        self.prop = spec.property(prop) if isinstance(prop, str) else prop
        self.solved = {}  # bounds key -> solve_at's result
        try:
            self.plan = plan_property(spec, self.prop, config)
        except PlanRejected as exc:
            self.plan, self.rejection = None, exc
            self.base_verdict = base_verdict or exc.verdict()
            self.k, self.dominant = 0, ()
            self.base = PerClassBounds(source={})
            self.seeds = set()
            return
        self.rejection = None
        self.base_verdict = base_verdict or verify_property(
            spec, self.prop, config, self.plan)
        self.k, self.dominant = self.plan.cutoff.k, self.plan.cutoff.dominant
        self.base = self.plan.bounds
        # a decided verdict names the fragment refinement ended on; the
        # plan's first fragment may hold only a spurious counterexample
        self.fragment = self.plan.fragment \
            if self.base_verdict.status == UNKNOWN \
            else self.base_verdict.fragment
        info = spec.metamodel(self.plan.t.source).info
        self.seeds = set().union(*(info[e.klass].subtypes
                                   for e in self.prop.precondition.elements))

    def shifted(self, delta):
        out = {}
        for c, b in self.base.source.items():
            if b <= 0:
                out[c] = 0  # classes out of play stay out of play
                continue
            floor = 1 if c in self.seeds else 0
            out[c] = max(floor, b + delta)
        return PerClassBounds(out)

    def decremented(self, klass):
        if self.base.source.get(klass, 0) <= 0:
            return None
        return PerClassBounds({**self.base.source,
                               klass: self.base.source[klass] - 1})

    def solve_at(self, bounds):
        """(status, seconds, reason) of one unrefined, unconfirmed attempt
        at the decided fragment; reason is "<reason>: <detail>" when
        UNKNOWN, otherwise None.  Each distinct bounds is solved once per
        lab: a later run at the same bounds gets the first run's triple.
        These runs write no --dump-smt files."""
        key = tuple(tuple(sorted(side.items()))
                    for side in (bounds.source, bounds.target))
        if key not in self.solved:
            self.solved[key] = self._solve(bounds)
        return self.solved[key]

    def _solve(self, bounds):
        start = time.monotonic()
        if self.rejection:
            verdict = self.rejection.verdict()
        else:
            run = _PropertyRun(self.plan, replace(self.config, dump_dir=None),
                               start + self.config.timeout_seconds)
            verdict = run.attempt(self.fragment, bounds)
        reason = verdict.reason and f"{verdict.reason}: {verdict.detail}"
        return verdict.status, time.monotonic() - start, reason

    def uniform_sweep(self):
        pattern = "negative" if self.base_verdict.status == VIOLATED \
            else "positive"
        result = SweepResult(self.prop.name, self.k, self.base.max_bound(),
                             self.dominant, pattern)
        expected = []
        for delta in OFFSETS:
            bounds = self.shifted(delta)
            status, elapsed, reason = self.solve_at(bounds)
            result.rows.append((delta, status, elapsed))
            if reason:
                result.reasons[delta] = reason
            # where the floors undo the shift, the row re-solves the base
            expected.append(_expected_at(
                pattern, 0 if bounds.source == self.base.source else delta))
        result.matched = all(s == e for (_, s, _), e in zip(result.rows,
                                                            expected))
        return result

    def selective_minus_one(self):
        base_status = self.base_verdict.status
        result = PerturbationResult(self.prop.name, base_status)
        for klass in sorted(self.base.source):
            bounds = self.decremented(klass)
            if bounds is None:
                result.runs.append((klass, "skipped"))
                continue
            status, _, reason = self.solve_at(bounds)
            result.runs.append((klass, status))
            if reason:
                # an undecided run shows nothing about the class
                result.reasons[klass] = reason
            elif base_status != UNKNOWN and status != base_status:
                result.binding_classes.append(klass)
        if result.reasons or base_status == UNKNOWN:
            # an undecided run or base shows nothing about binding classes
            result.matched = False
        elif base_status == VIOLATED:
            result.matched = bool(result.binding_classes)
        else:
            result.matched = not result.binding_classes
        return result


def _expected_at(pattern, delta):
    if pattern == "positive":
        return HOLDS
    return HOLDS if delta < 0 else VIOLATED


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------

def _tick(flag):
    return "yes" if flag else "NO"


def _status_cell(status, reason):
    return f"{status} ({reason})" if reason else status


def emit_report(results, spec_name="spec"):
    """results: list of dicts with keys sweep and perturbation (either of
    which may be None)."""
    lines = ["# Cutoff boundary validation", ""]
    lines += ["| Spec | Property | Base K | Dominant formula | Uniform | "
              "Sel. -1 |",
              "|---|---|---|---|---|---|"]
    for entry in results:
        sweep = entry.get("sweep")
        pert = entry.get("perturbation")
        name = (sweep or pert).property
        base_k = sweep.base_k if sweep else "-"
        dominant = "/".join(sweep.dominant) if sweep else "-"
        lines.append(
            f"| {spec_name} | {name} | {base_k} | {dominant} | "
            f"{_tick(sweep.matched) if sweep else '-'} | "
            f"{_tick(pert.matched) if pert else '-'} |")
    lines.append("")

    lines += ["## Uniform sweep", ""]
    for entry in results:
        sweep = entry.get("sweep")
        if sweep is None:
            continue
        lines += [f"### {sweep.property} ({sweep.expected_pattern})", "",
                  "| delta | verdict | time (s) |", "|---|---|---|"]
        for d, s, t in sweep.rows:
            lines.append(f"| {d:+d} | {_status_cell(s, sweep.reasons.get(d))}"
                         f" | {t:.3f} |")
        lines.append("")

    lines += ["## Selective per-class decrement", ""]
    for entry in results:
        pert = entry.get("perturbation")
        if pert is None:
            continue
        binding = ", ".join(pert.binding_classes) or "none"
        lines += [f"### {pert.property} (base {pert.base_status})", "",
                  f"Binding classes: {binding}", "",
                  "| class | verdict |", "|---|---|"]
        for c, status in pert.runs:
            cell = _status_cell(status, pert.reasons.get(c))
            lines.append(f"| {c} | {cell} |")
        lines.append("")

    return "\n".join(lines)


def results_json(results):
    out = []
    for entry in results:
        item = {}
        for key in ("sweep", "perturbation"):
            item[key] = entry[key].to_json() if entry.get(key) else None
        out.append(item)
    return json.dumps(out, indent=2)
