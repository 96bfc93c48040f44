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
from .engine import check_property_concrete, enumerate_matches, execute
from .fragments import check_flnr, check_gbpp
from .inheritance import flatten_inheritance_info
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

    `spec`, `t` and `prop` are the proof specification's when attribute
    abstraction applies, otherwise the user's own.
    """
    spec: object
    t: object
    prop: object
    relevance: RelevanceResult
    params: CutoffParams
    cutoff: CutoffBounds
    fragment: tuple  # the first fragment to solve
    per_class: bool

    def rule_names(self, fragment):
        """Relevant rules of the layers in `fragment`, sorted."""
        return tuple(sorted(r for r in self.relevance.relevant_rules
                            if self.t.rule_layer(r) in fragment))

    def bounds(self, fragment):
        """Per-class slot bounds for `fragment`, or K for every concrete
        class when per-class bounds are off."""
        k = self.cutoff.k
        if self.per_class:
            return per_class_bounds(self.spec, self.prop, self.relevance, k,
                                    self.t,
                                    rule_names=self.rule_names(fragment))

        def uniform(mm_name):
            info = flatten_inheritance_info(self.spec.metamodel(mm_name))
            return {c: k for c in info if not info[c].abstract}
        return PerClassBounds(source=uniform(self.t.source),
                              target=uniform(self.t.target))


def plan_property(spec, prop, config):
    """Fragment guards, attribute abstraction, relevance, cutoff and the
    first fragment for one property.  Raises PlanRejected when the property
    falls outside the verifiable fragment or its closure is unbounded."""
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
        spec = proof
        t = _transformation_for(spec, prop)
        prop = spec.property(prop.name)
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
    return PropertyPlan(
        spec, t, prop, relevance, params, compute_cutoff(params),
        select_fragment(spec, prop, relevance, config.fragment_kind, t),
        config.per_class)


class _PropertyRun:
    def __init__(self, plan, config, deadline):
        self.plan = plan
        self.config = config
        self.deadline = deadline
        self.closure_rounds = 0   # lazy-closure rounds over all attempts
        self.firing_variables = 0  # rule firings encoded, over all attempts

    def attempt(self, fragment, bounds=None):
        """Encode and solve `fragment` at `bounds`, by default the plan's
        bounds for it; a violation is decoded but not yet confirmed."""
        plan = self.plan
        bounds = plan.bounds(fragment) if bounds is None else bounds
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
        cex = decode_counterexample(verdict.model, problem, plan.spec, plan.t)
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

    def omitted_matching_layers(self, source, fragment):
        """Layers of relevant rules outside `fragment` whose match pattern
        has at least one occurrence in the counterexample source."""
        plan = self.plan
        src_info = flatten_inheritance_info(plan.spec.metamodel(plan.t.source))
        layers = set()
        for name in plan.relevance.relevant_rules:
            li = plan.t.rule_layer(name)
            if li in fragment:
                continue
            rule = plan.t.find_rule(name)
            if any(True for _ in enumerate_matches(rule.match, source,
                                                   src_info)):
                layers.add(li)
        return layers

    def confirm(self, verdict):
        """Execute the full transformation on the counterexample source and
        re-check the property concretely; an unconfirmed violation becomes
        UNKNOWN with the decoded and executed targets as artifacts."""
        plan = self.plan
        source, target, binding = verdict.counterexample
        result = execute(plan.t, source, plan.spec)
        if not check_property_concrete(plan.prop, source, result,
                                       plan.spec).holds:
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
        fragment = self.plan.fragment
        cegar_rounds = 0
        tried = set()
        while True:
            tried.add(fragment)
            verdict = self.attempt(fragment)
            if verdict.status != VIOLATED:
                break
            matching = set()
            if self.config.fragment_kind is FragmentKind.MINIMAL:
                matching = self.omitted_matching_layers(
                    verdict.counterexample[0], fragment)
            if not matching:
                # no omitted rule fires on this source: the violation is real
                verdict = self.confirm(verdict)
                break
            cegar_rounds += 1
            enlarged = tuple(range(max(set(fragment) | matching) + 1))
            if enlarged in tried:
                enlarged = tuple(range(len(self.plan.t.layers)))
            if enlarged in tried:
                verdict = replace(
                    verdict, status=UNKNOWN, reason="budget",
                    counterexample=None,
                    detail="refinement exhausted the layer set")
                break
            fragment = enlarged
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
    """Yield (property name, verdict) in declaration order, then a summary
    dict.  Worker-pool completion order never affects results."""
    config = config or VerificationConfig()
    names = [p.name for p in spec.properties]
    if parallelism <= 1:
        results = {n: verify_property(spec, n, config) for n in names}
    else:
        with ThreadPoolExecutor(max_workers=parallelism) as pool:
            futures = {n: pool.submit(verify_property, spec, n, config)
                       for n in names}
            results = {n: f.result() for n, f in futures.items()}
    counts = {"holds": 0, "violated": 0, "unknown": 0}
    for n in names:
        counts[results[n].status.lower()] += 1
        yield n, results[n]
    yield None, {"event": "summary", **counts}
