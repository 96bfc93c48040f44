"""Empirical cutoff-boundary validation.

Two phases per property: a uniform sweep that shifts every per-class bound
by an offset and re-verifies, and a selective pass decrementing one class at
a time to find the binding classes.  A source row moves the slots of a
source class; a target row moves the cap on the creations of a target
class (see `smtencode`), which the planned bounds set high enough to cap
nothing, so only a row below them can cap.  Results render to a markdown
report plus raw JSON.
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
    runs: list = field(default_factory=list)  # (class, side, status|skipped)
    reasons: dict = field(default_factory=dict)  # (class, side) -> reason
    binding_classes: list = field(default_factory=list)
    matched: bool = False

    def to_json(self):
        return {
            "property": self.property,
            "baseStatus": self.base_status,
            "runs": [{"class": c, "side": s, "status": st,
                      "reason": self.reasons.get((c, s))}
                     for c, s, st in self.runs],
            "bindingClasses": list(self.binding_classes),
            "matched": self.matched,
        }


class BoundsLab:
    """One property's plan, base verdict, base bounds and seed classes,
    built once for every phase, and a solve-at-bounds primitive that
    bypasses fragment refinement so every run measures exactly the requested
    bounds.  A property the plan rejects has no bounds to vary; every run of
    it is UNKNOWN with the rejection's reason."""

    def __init__(self, spec, prop, config=None, base_verdict=None):
        self.config = config = config or VerificationConfig()
        self.prop = spec.property(prop) if isinstance(prop, str) else prop
        try:
            self.plan = plan_property(spec, self.prop, config)
        except PlanRejected as exc:
            self.plan, self.rejection = None, exc
            self.base_verdict = base_verdict or exc.verdict()
            self.k, self.dominant = 0, ()
            self.base = PerClassBounds(source={}, target={})
            self.seed_source = self.seed_target = set()
            return
        self.rejection = None
        self.base_verdict = base_verdict or verify_property(
            spec, self.prop, config, self.plan)
        self.k, self.dominant = self.plan.cutoff.k, self.plan.cutoff.dominant
        self.base = self.plan.bounds(self.plan.fragment)
        t = self.plan.t

        def seeds(pattern, mm_name):
            info = spec.metamodel(mm_name).info
            return set().union(*(info[e.klass].subtypes
                                 for e in pattern.elements))
        self.seed_source = seeds(self.prop.precondition, t.source)
        self.seed_target = seeds(self.prop.postcondition, t.target)

    def shifted(self, delta):
        def shift(side, seeds):
            out = {}
            for c, b in side.items():
                if b <= 0:
                    out[c] = 0  # classes out of play stay out of play
                    continue
                floor = 1 if c in seeds else 0
                out[c] = max(floor, b + delta)
            return out
        return PerClassBounds(source=shift(self.base.source,
                                           self.seed_source),
                              target=shift(self.base.target,
                                           self.seed_target))

    def decremented(self, klass, side):
        source = dict(self.base.source)
        target = dict(self.base.target)
        table = source if side == "source" else target
        if table.get(klass, 0) <= 0:
            return None
        table[klass] -= 1
        return PerClassBounds(source=source, target=target)

    def solve_at(self, bounds):
        """(status, seconds, reason) of one unrefined, unconfirmed attempt
        at the plan's first fragment; reason is "<reason>: <detail>" when
        UNKNOWN, otherwise None.  These runs write no --dump-smt files."""
        start = time.monotonic()
        if self.rejection:
            verdict = self.rejection.verdict()
        else:
            run = _PropertyRun(self.plan, replace(self.config, dump_dir=None),
                               start + self.config.timeout_seconds)
            verdict = run.attempt(self.plan.fragment, bounds)
        reason = verdict.reason and f"{verdict.reason}: {verdict.detail}"
        return verdict.status, time.monotonic() - start, reason

    def uniform_sweep(self):
        pattern = "negative" if self.base_verdict.status == VIOLATED \
            else "positive"
        result = SweepResult(self.prop.name, self.k, self.base.max_bound(),
                             self.dominant, pattern)
        for delta in OFFSETS:
            status, elapsed, reason = self.solve_at(self.shifted(delta))
            result.rows.append((delta, status, elapsed))
            if reason:
                result.reasons[delta] = reason
        result.matched = all(s == _expected_at(pattern, d)
                             for d, s, _ in result.rows)
        return result

    def selective_minus_one(self):
        base_status = self.base_verdict.status
        result = PerturbationResult(self.prop.name, base_status)
        for side, table in (("source", self.base.source),
                            ("target", self.base.target)):
            for klass in sorted(table):
                bounds = self.decremented(klass, side)
                if bounds is None:
                    result.runs.append((klass, side, "skipped"))
                    continue
                status, _, reason = self.solve_at(bounds)
                result.runs.append((klass, side, status))
                if reason:
                    # an undecided run shows nothing about the class
                    result.reasons[(klass, side)] = reason
                elif base_status != UNKNOWN and status != base_status:
                    result.binding_classes.append(f"{side}:{klass}")
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


def uniform_sweep(spec, prop, config=None, base_verdict=None):
    return BoundsLab(spec, prop, config, base_verdict).uniform_sweep()


def selective_minus_one(spec, prop, config=None, base_verdict=None):
    return BoundsLab(spec, prop, config, base_verdict).selective_minus_one()


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
                  "| class | side | verdict |", "|---|---|---|"]
        for c, side, status in pert.runs:
            cell = _status_cell(status, pert.reasons.get((c, side)))
            lines.append(f"| {c} | {side} | {cell} |")
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
