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
from dataclasses import dataclass, field

from .abstraction import synthesize_abstraction, validate_abstraction, \
    flatten_property
from .cutoff import (
    FragmentKind, PerClassBounds, RelevanceMode, compute_cutoff, cutoff_params,
    per_class_bounds, relevant_rules, select_fragment,
)
from .engine import check_property_concrete, enumerate_matches, execute
from .fragments import check_flnr, check_gbpp
from .inheritance import flatten_inheritance_info
from .model import UnboundedClosureError, mandatory_closure
from .parser import property_metamodels
from .smtencode import EncodeOptions, EncodingCeilingError, \
    decode_counterexample, encode
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
    cegar: bool = True
    factored: bool = True
    lazy_closure: bool = True
    symmetry_break: bool = False
    binding_ceiling: int = 200_000
    cutoff_budget: int = 100_000
    solver_command: list | None = None
    dump_dir: str | None = None

    def __post_init__(self):
        if self.timeout_seconds <= 0:
            raise ValueError("timeout must be positive")
        if self.cutoff_budget < 1:
            raise ValueError("cutoff budget must be at least 1")

    def encode_options(self, fragment, rule_names):
        return EncodeOptions(
            factored=self.factored,
            lazy_closure=self.lazy_closure,
            symmetry_break=self.symmetry_break,
            binding_ceiling=self.binding_ceiling,
            layer_indices=fragment,
            rule_names=rule_names,
        )


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


def _transformation_for(spec, prop):
    src_mm, tgt_mm = property_metamodels(spec, prop)
    if src_mm is not None and tgt_mm is not None:
        return spec.transformation_for(src_mm.name, tgt_mm.name)
    return spec.transformations[0]


def _uniform_bounds(spec, t, k):
    src_info = flatten_inheritance_info(spec.metamodel(t.source))
    tgt_info = flatten_inheritance_info(spec.metamodel(t.target))
    return PerClassBounds(
        source={c: k for c in src_info if not src_info[c].abstract},
        target={c: k for c in tgt_info if not tgt_info[c].abstract},
    )


@dataclass
class _Attempt:
    """Outcome of solving one fragment."""
    kind: str  # holds | sat | unknown
    reason: str = ""
    detail: str = ""
    counterexample: tuple = None
    k: int = 0
    per_class_max: int = 0
    fragment: tuple = ()
    dominant: tuple = ()


class _PropertyRun:
    def __init__(self, spec, t, prop, config, deadline):
        self.spec = spec
        self.t = t
        self.prop = prop
        self.config = config
        self.deadline = deadline
        self.relevance = relevant_rules(spec, prop, config.relevance_mode, t)
        self.closure = mandatory_closure(spec.metamodel(t.source))
        self.params = cutoff_params(spec, prop, self.relevance, self.closure, t)
        self.bounds = compute_cutoff(self.params)
        self.layer_of_rule = {r.name: li for li, r in t.all_rules()}
        self.closure_rounds = 0   # lazy-closure rounds over all attempts
        self.firing_variables = 0  # rule firings encoded, over all attempts

    def fragment_rules(self, fragment):
        return tuple(sorted(r for r in self.relevance.relevant_rules
                            if self.layer_of_rule.get(r) in set(fragment)))

    def attempt(self, fragment):
        k = self.bounds.k
        rule_names = self.fragment_rules(fragment)
        if self.config.per_class:
            bounds = per_class_bounds(self.spec, self.prop, self.relevance, k,
                                      self.t, rule_names=rule_names)
            reported_k = bounds.max_bound()
        else:
            bounds = _uniform_bounds(self.spec, self.t, k)
            reported_k = k
        common = dict(k=k, per_class_max=reported_k, fragment=fragment,
                      dominant=self.bounds.dominant)
        if reported_k > self.config.cutoff_budget:
            return _Attempt("unknown", reason="budget",
                            detail=f"bound {reported_k} exceeds budget "
                                   f"{self.config.cutoff_budget}", **common)
        options = self.config.encode_options(fragment, rule_names)
        try:
            problem = encode(self.spec, self.prop, bounds, options, self.t)
        except EncodingCeilingError as exc:
            return _Attempt("unknown", reason="ceiling", detail=str(exc),
                            **common)
        self.firing_variables += problem.metadata["firingVariables"]
        if self.config.dump_dir:
            layers = "-".join(str(i) for i in fragment)
            path = os.path.join(self.config.dump_dir,
                                f"{self.prop.name}_L{layers}.smt2")
            with open(path, "w") as fh:
                fh.write(problem.text)
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            return _Attempt("unknown", reason="timeout",
                            detail="deadline reached before solving", **common)
        verdict, rounds = lazy_closure_loop(
            problem, remaining, self.spec, self.t,
            self.config.solver_command)
        self.closure_rounds += rounds
        if verdict.status == "unsat":
            return _Attempt("holds", **common)
        if verdict.status == "timeout":
            return _Attempt("unknown", reason="timeout",
                            detail="solver exceeded the time budget", **common)
        if verdict.status != "sat":
            return _Attempt("unknown", reason="solver-error",
                            detail=verdict.raw_output[:500], **common)
        cex = decode_counterexample(verdict.model, problem, self.spec, self.t)
        return _Attempt("sat", counterexample=cex, **common)

    def omitted_matching_layers(self, source):
        """Layers of relevant rules outside the fragment whose match pattern
        has at least one occurrence in the counterexample source."""
        src_info = flatten_inheritance_info(self.spec.metamodel(self.t.source))
        layers = set()
        for name in self.relevance.relevant_rules:
            li = self.layer_of_rule.get(name)
            if li is None or li in self._fragment_set:
                continue
            rule = self.t.find_rule(name)
            if any(True for _ in enumerate_matches(rule.match, source,
                                                   src_info)):
                layers.add(li)
        return layers

    def confirm(self, attempt):
        """Execute the full transformation on the counterexample source and
        re-check the property concretely."""
        source, target, binding = attempt.counterexample
        result = execute(self.t, source, self.spec)
        concrete = check_property_concrete(self.prop, source, result,
                                           self.spec)
        if concrete.holds:
            return _Attempt(
                "unknown", reason="solver-error",
                detail="solver counterexample not confirmed by concrete "
                       "execution",
                k=attempt.k, per_class_max=attempt.per_class_max,
                fragment=attempt.fragment, dominant=attempt.dominant), {
                "decoded_target": target,
                "executed_target": result.target,
                "decoded_binding": binding,
            }
        return attempt, {}

    def run(self):
        fragment = select_fragment(self.spec, self.prop, self.relevance,
                                   self.config.fragment_kind, self.t)
        full = tuple(range(len(self.t.layers)))
        cegar_rounds = 0
        tried = set()
        while True:
            self._fragment_set = set(fragment)
            tried.add(fragment)
            attempt = self.attempt(fragment)
            if attempt.kind != "sat":
                return attempt, cegar_rounds, {}
            source = attempt.counterexample[0]
            if not (self.config.cegar
                    and self.config.fragment_kind is FragmentKind.MINIMAL):
                confirmed, artifacts = self.confirm(attempt)
                return confirmed, cegar_rounds, artifacts
            matching = self.omitted_matching_layers(source)
            if not matching:
                # no omitted rule fires on this source: the violation is real
                confirmed, artifacts = self.confirm(attempt)
                return confirmed, cegar_rounds, artifacts
            cegar_rounds += 1
            enlarged = tuple(range(max(set(fragment) | matching) + 1))
            if enlarged in tried:
                enlarged = full
            if enlarged in tried:
                return _Attempt(
                    "unknown", reason="budget",
                    detail="refinement exhausted the layer set",
                    k=attempt.k, per_class_max=attempt.per_class_max,
                    fragment=fragment,
                    dominant=attempt.dominant), cegar_rounds, {}
            fragment = enlarged


def verify_property(spec, prop, config=None):
    """Verify one property; all failure modes land in UNKNOWN verdicts."""
    config = config or VerificationConfig()
    if isinstance(prop, str):
        prop = spec.property(prop)
    start = time.monotonic()
    deadline = start + config.timeout_seconds

    def finish(verdict):
        verdict.wall_time = time.monotonic() - start
        return verdict

    t = _transformation_for(spec, prop)
    working = spec

    flnr = check_flnr(t, spec.metamodel(t.source), spec.metamodel(t.target))
    hard = [v for v in flnr.violations if v.restriction != "R5"]
    if hard:
        msgs = "; ".join(f"{v.restriction} at {v.location}: {v.message}"
                         for v in hard)
        return finish(PropertyVerdict(UNKNOWN, reason="fragment",
                                      detail=msgs))
    gbpp = check_gbpp(prop)
    if gbpp.violations:
        msgs = "; ".join(f"{v.restriction} at {v.location}: {v.message}"
                         for v in gbpp.violations)
        return finish(PropertyVerdict(UNKNOWN, reason="fragment",
                                      detail=msgs))
    if any(v.restriction == "R5" for v in flnr.violations):
        proof, amap = synthesize_abstraction(spec)
        report = validate_abstraction(spec, amap)
        if not report.valid:
            bad = [text for _, text, ok in report.predicate_outcomes
                   if not ok]
            return finish(PropertyVerdict(
                UNKNOWN, reason="fragment",
                detail="abstraction not predicate-preserving: "
                       + "; ".join(bad)))
        working = proof
        t = _transformation_for(working, prop)
        prop = working.property(prop.name)

    try:
        flatten_property(prop, working)  # rejects a vacuous abstract element
    except ValueError as exc:
        return finish(PropertyVerdict(UNKNOWN, reason="fragment",
                                      detail=str(exc)))

    try:
        run = _PropertyRun(working, t, prop, config, deadline)
    except UnboundedClosureError as exc:
        return finish(PropertyVerdict(UNKNOWN, reason="budget",
                                      detail=str(exc)))
    attempt, cegar_rounds, artifacts = run.run()
    common = dict(k=attempt.k, per_class_max=attempt.per_class_max,
                  fragment=attempt.fragment, dominant=attempt.dominant,
                  cegar_rounds=cegar_rounds,
                  closure_rounds=run.closure_rounds,
                  firing_variables=run.firing_variables)
    if attempt.kind == "sat":
        return finish(PropertyVerdict(
            VIOLATED, counterexample=attempt.counterexample, **common))
    if attempt.kind == "unknown":
        return finish(PropertyVerdict(
            UNKNOWN, reason=attempt.reason, detail=attempt.detail,
            artifacts=artifacts, **common))
    return finish(PropertyVerdict(HOLDS, **common))


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
