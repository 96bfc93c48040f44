"""Verification pipeline driver.

For each property: fragment guards, attribute abstraction when domains are
infinite, relevance and fragment selection, cutoff and per-class bounds,
encode/solve, counterexample-guided fragment refinement, and concrete
confirmation of every violation against the property as written before it
is reported.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

from .abstraction import synthesize_abstraction, validate_abstraction, \
    flatten_property
from .cutoff import (
    CutoffBounds, CutoffParams, FragmentKind, PerClassBounds, RelevanceMode,
    RelevanceResult, compute_cutoff, cutoff_params, per_class_bounds,
    relevant_rules, select_fragment,
)
from .engine import check_property_concrete, execute
from .fragments import check_flnr, check_gbpp
from .model import UnboundedClosureError, mandatory_closure
from .parser import property_metamodels
from .smtencode import EncodeOptions, EncodingCeilingError, \
    EncodingDeadlineError, decode_counterexample, encode
from .smtrun import lazy_closure_loop

HOLDS = "HOLDS"
VIOLATED = "VIOLATED"
UNKNOWN = "UNKNOWN"


@dataclass
class VerificationConfig:
    timeout_seconds: float = 600.0
    relevance_mode: RelevanceMode = RelevanceMode.TRACE_ATTRIBUTE_AWARE
    per_class: bool = True
    fragment_kind: FragmentKind = FragmentKind.MINIMAL
    binding_ceiling: int = 200_000
    cutoff_budget: int = 100_000
    solver_command: list | None = None
    dump_dir: str | None = None

    def __post_init__(self):
        if self.timeout_seconds <= 0:
            raise ValueError("timeout must be positive")
        if self.cutoff_budget < 1:
            raise ValueError("cutoff budget must be at least 1")


@dataclass
class PropertyVerdict:
    status: str
    reason: str | None = None  # timeout | budget | ceiling | solver-error | fragment
    counterexample: tuple | None = None  # (source, target, binding)
    k: int = 0
    per_class_max: int = 0
    fragment: tuple = ()
    cegar_rounds: int = 0
    closure_rounds: int = 0
    firing_variables: int = 0
    dominant: tuple = ()
    wall_time: float = 0.0
    detail: str = ""
    artifacts: dict = field(default_factory=dict)

    def __post_init__(self):
        assert (self.status == VIOLATED) == (self.counterexample is not None)
        assert (self.status == UNKNOWN) == (self.reason is not None)

    def event(self, prop_name):
        return {
            "event": "verdict",
            "property": prop_name,
            "status": self.status,
            "reason": self.reason,
            "k": self.k,
            "perClassMax": self.per_class_max,
            "fragment": list(self.fragment),
            "dominant": list(self.dominant),
            "timeSec": round(self.wall_time, 3),
            "cegarRounds": self.cegar_rounds,
            "closureRounds": self.closure_rounds,
            "firingVariables": self.firing_variables,
            "detail": self.detail,
        }


class PlanRejected(Exception):
    """The property cannot be verified; `reason` and `detail` become those
    of its UNKNOWN verdict."""

    def __init__(self, reason, detail):
        super().__init__(detail)
        self.reason = reason  # fragment | budget
        self.detail = detail

    def verdict(self):
        return PropertyVerdict(UNKNOWN, reason=self.reason,
                               detail=self.detail)


def _transformation_for(spec, prop):
    """The one transformation whose source and target metamodels are those
    of the property's non-empty patterns; PlanRejected if none or several
    are."""
    src_mm, tgt_mm = property_metamodels(spec, prop)
    found = [t for t in spec.transformations
             if (src_mm is None or t.source == src_mm.name)
             and (tgt_mm is None or t.target == tgt_mm.name)]
    if len(found) != 1:
        raise PlanRejected("fragment", f"{len(found)} transformations match "
                                       f"the metamodels of {prop.name}")
    return found[0]


@dataclass(frozen=True)
class PropertyPlan:
    """Every decision made once per property before anything is solved.

    `spec` is the proof specification when attribute abstraction applies,
    otherwise the user's own; `t` and `prop` are the user's in both cases,
    since the proof specification shares them.
    """
    spec: object
    t: object
    prop: object
    relevance: RelevanceResult
    params: CutoffParams
    cutoff: CutoffBounds
    fragment: tuple  # the first fragment to solve
    bounds: PerClassBounds  # source slots, the same for every fragment

    def rule_names(self, fragment):
        """Relevant rules of the layers in `fragment`, sorted."""
        return tuple(sorted(r for r in self.relevance.relevant_rules
                            if self.t.rule_layer(r) in fragment))


def plan_property(spec, prop, config):
    """Fragment guards, attribute abstraction, relevance, cutoff, source
    bounds and the first fragment for one property.  Raises PlanRejected
    when the property falls outside the verifiable fragment or its closure
    is unbounded."""
    t = _transformation_for(spec, prop)
    flnr = check_flnr(t, spec.metamodel(t.source), spec.metamodel(t.target))
    violations = [v for v in flnr.violations if v.restriction != "R5"]
    if not violations:
        violations = check_gbpp(prop).violations
    if violations:
        raise PlanRejected("fragment", "; ".join(
            f"{v.restriction} at {v.location}: {v.message}"
            for v in violations))
    if any(v.restriction == "R5" for v in flnr.violations):
        proof, amap = synthesize_abstraction(spec)
        report = validate_abstraction(spec, amap)
        if not report.valid:
            bad = [text for _, text, ok in report.predicate_outcomes
                   if not ok]
            raise PlanRejected("fragment",
                               "abstraction not predicate-preserving: "
                               + "; ".join(bad))
        spec = proof  # it shares the user's transformations and properties
    try:
        flatten_property(prop, spec)  # rejects a vacuous abstract element
    except ValueError as exc:
        raise PlanRejected("fragment", str(exc)) from None
    relevance = relevant_rules(spec, prop, config.relevance_mode, t)
    try:
        closure = mandatory_closure(spec.metamodel(t.source))
    except UnboundedClosureError as exc:
        raise PlanRejected("budget", str(exc)) from None
    params = cutoff_params(spec, prop, relevance, closure, t)
    cutoff = compute_cutoff(params)
    if config.per_class:
        bounds = per_class_bounds(spec, prop, cutoff.k, t)
    else:
        bounds = PerClassBounds({c: cutoff.k for c, ci in
                                 spec.metamodel(t.source).info.items()
                                 if not ci.abstract})
    return PropertyPlan(
        spec, t, prop, relevance, params, cutoff,
        select_fragment(spec, prop, relevance, config.fragment_kind, t),
        bounds)


class _PropertyRun:
    def __init__(self, plan, config, deadline):
        self.plan = plan
        self.config = config
        self.deadline = deadline
        self.closure_rounds = 0   # lazy-closure rounds over all attempts
        self.firing_variables = 0  # rule firings encoded, over all attempts

    def attempt(self, fragment, bounds=None):
        """Encode and solve `fragment` at `bounds`, by default the plan's;
        a violation is decoded but not yet confirmed."""
        plan = self.plan
        bounds = plan.bounds if bounds is None else bounds
        per_class_max = bounds.max_bound()
        common = dict(k=plan.cutoff.k, per_class_max=per_class_max,
                      fragment=fragment, dominant=plan.cutoff.dominant)

        def unknown(reason, detail):
            return PropertyVerdict(UNKNOWN, reason=reason, detail=detail,
                                   **common)

        if per_class_max > self.config.cutoff_budget:
            return unknown("budget", f"bound {per_class_max} exceeds budget "
                                     f"{self.config.cutoff_budget}")
        options = EncodeOptions(binding_ceiling=self.config.binding_ceiling,
                                rule_names=plan.rule_names(fragment))
        try:
            problem = encode(plan.spec, plan.prop, bounds, options, plan.t,
                             self.deadline)
        except EncodingCeilingError as exc:
            self.firing_variables += exc.firing_variables
            return unknown("ceiling", str(exc))
        except EncodingDeadlineError as exc:
            self.firing_variables += exc.firing_variables
            return unknown("timeout", str(exc))
        self.firing_variables += problem.metadata["firingVariables"]
        self._dump(problem, fragment)
        verdict, rounds = lazy_closure_loop(
            problem, self.deadline - time.monotonic(), plan.spec, plan.t,
            self.config.solver_command)
        if rounds and self.config.dump_dir:
            self._dump(problem.with_extra_assertions(problem.deferred),
                       fragment, "_closed")
        self.closure_rounds += rounds
        if verdict.status == "unsat":
            return PropertyVerdict(HOLDS, **common)
        if verdict.status == "timeout":
            return unknown("timeout", "solver exceeded the time budget")
        if verdict.status != "sat":
            return unknown("solver-error", verdict.raw_output[:500])
        cex = decode_counterexample(verdict.model, problem, plan.spec, plan.t,
                                    source=verdict.source)
        return PropertyVerdict(VIOLATED, counterexample=cex, **common)

    def _dump(self, problem, fragment, suffix=""):
        """Write a solved problem's text to the dump directory, if any."""
        if self.config.dump_dir:
            layers = "-".join(str(i) for i in fragment)
            path = os.path.join(self.config.dump_dir,
                                f"{self.plan.prop.name}_L{layers}{suffix}"
                                f".smt2")
            with open(path, "w") as fh:
                fh.write(problem.text)

    def confirm(self, verdict, result):
        """Re-check the property concretely on `result`, the full
        transformation's execution on the counterexample source; an
        unconfirmed violation becomes UNKNOWN with the decoded and executed
        targets as artifacts."""
        source, target, binding = verdict.counterexample
        if not check_property_concrete(self.plan.prop, source, result,
                                       self.plan.spec).holds:
            return verdict
        return replace(
            verdict, status=UNKNOWN, reason="solver-error",
            counterexample=None,
            detail="solver counterexample not confirmed by concrete "
                   "execution",
            artifacts={"decoded_target": target,
                       "executed_target": result.target,
                       "decoded_binding": binding})

    def run(self):
        plan = self.plan
        fragment = plan.fragment
        cegar_rounds = 0
        while True:
            verdict = self.attempt(fragment)
            if verdict.status != VIOLATED:
                break
            result = execute(plan.t, verdict.counterexample[0], plan.spec)
            # a rule has a match on the source exactly when its execution
            # fired or skipped it; a Full fragment leaves no layer out
            matched = {f.rule for f in result.firings} | \
                {rule for rule, _, _ in result.skipped}
            matching = {plan.t.rule_layer(r) for r in
                        matched & plan.relevance.relevant_rules} \
                - set(fragment)
            if not matching:
                # no omitted relevant rule matches this source: the
                # violation is real
                verdict = self.confirm(verdict, result)
                break
            # a Minimal fragment is a layer prefix range(p), so every
            # matching layer is at least p and the refined prefix is
            # strictly longer: refinement ends within len(t.layers) rounds
            cegar_rounds += 1
            fragment = tuple(range(max(matching) + 1))
        return replace(verdict, cegar_rounds=cegar_rounds,
                       closure_rounds=self.closure_rounds,
                       firing_variables=self.firing_variables)


def verify_property(spec, prop, config=None, plan=None):
    """Verify one property; all failure modes land in UNKNOWN verdicts.
    `plan`, when given, is the property's `plan_property` result."""
    config = config or VerificationConfig()
    if isinstance(prop, str):
        prop = spec.property(prop)
    start = time.monotonic()
    try:
        plan = plan or plan_property(spec, prop, config)
    except PlanRejected as exc:
        verdict = exc.verdict()
    else:
        verdict = _PropertyRun(plan, config,
                               start + config.timeout_seconds).run()
    verdict.wall_time = time.monotonic() - start
    return verdict


def verify_all(spec, config=None, parallelism=1):
    """Yield (property name, verdict) in declaration order, each as soon as
    it and every earlier one are decided, then a summary dict.  Worker-pool
    completion order never affects results."""
    config = config or VerificationConfig()
    names = [p.name for p in spec.properties]

    def verdicts():
        if parallelism <= 1:
            for n in names:
                yield n, verify_property(spec, n, config)
            return
        pool = ThreadPoolExecutor(max_workers=parallelism)
        try:
            futures = {n: pool.submit(verify_property, spec, n, config)
                       for n in names}
            for n in names:
                yield n, futures[n].result()
        finally:
            # a reader that stops early drops the properties still queued
            pool.shutdown(cancel_futures=True)

    counts = {"holds": 0, "violated": 0, "unknown": 0}
    for n, verdict in verdicts():
        counts[verdict.status.lower()] += 1
        yield n, verdict
    yield None, {"event": "summary", **counts}
