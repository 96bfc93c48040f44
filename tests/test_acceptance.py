"""End-to-end acceptance checks for the verifier.

Each test pins one externally stated guarantee: exact cutoff arithmetic,
agreement with brute-force enumeration, boundary behavior of the computed
bounds, concrete confirmation of every violation, execution monotonicity,
option-combination agreement, refinement round counts, the reference
verdict pattern, and bounded-resource robustness.
"""

import itertools
import os
import random
import time

import pytest

from dsltv.cutoff import (CutoffParams, FragmentKind, RelevanceMode,
                          compute_cutoff)
from dsltv.engine import check_property_concrete, execute
from dsltv.kboundary import BoundsLab
from dsltv.model import model_from_parts, validate_conformance
from dsltv.orchestrator import (HOLDS, UNKNOWN, VIOLATED, VerificationConfig,
                                plan_property, verify_property)
from dsltv.parser import parse_spec

from oracle import oracle_verdict, random_model, source_bounds_for


def _expected(prop_name):
    return VIOLATED if prop_name.endswith("_ShouldFail") else HOLDS


# -- 1: cutoff exactness -----------------------------------------------------

def test_cutoff_exactness_reference_point(uml2java_b4):
    bounds = compute_cutoff(CutoffParams(c=5, m=3, p=1, d=1, a=5, r=8))
    assert (bounds.k_coarse, bounds.k_sharp, bounds.k_tight) == (120, 150, 102)
    assert bounds.k == 102

    # the same numbers must fall out of the pipeline on the proof-scale
    # fixture, not just from hand-fed parameters
    from dsltv.cutoff import cutoff_params, relevant_rules
    from dsltv.model import mandatory_closure
    prop = uml2java_b4.property("PropertyHasField")
    t = uml2java_b4.transformations[0]
    rel = relevant_rules(uml2java_b4, prop, RelevanceMode.TRACE_AWARE, t)
    params = cutoff_params(uml2java_b4, prop, rel,
                           mandatory_closure(uml2java_b4.metamodel(t.source)),
                           t)
    assert params == CutoffParams(c=5, m=3, p=1, d=1, a=5, r=8)
    assert compute_cutoff(params).k == 102


# -- 2: trivial-bound cases --------------------------------------------------

def test_trivial_bound_cases():
    for p, m, r, a, c in itertools.product((1, 3), (1, 4), (1, 6), (0, 5),
                                           (1, 7)):
        zero_depth = compute_cutoff(CutoffParams(c=c, m=m, p=p, d=0, a=a, r=r))
        assert zero_depth.k_sharp == p * (1 + m * r) * (a + 1)
        single = compute_cutoff(CutoffParams(c=c, m=1, p=p, d=3, a=a, r=r))
        assert single.k_tight == p * (a + 1)


# -- 3: oracle equivalence ---------------------------------------------------

def test_oracle_equivalence_on_corpus(corpus):
    start = time.monotonic()
    config = VerificationConfig()
    checked = 0
    assert len(corpus) >= 10
    for name, spec in corpus:
        assert len(spec.properties) >= 3, name
        statuses = {_expected(p.name) for p in spec.properties}
        assert statuses == {HOLDS, VIOLATED}, name
        for prop in spec.properties:
            verdict = verify_property(spec, prop, config)
            bounds, _ = source_bounds_for(
                spec, prop, RelevanceMode.TRACE_ATTRIBUTE_AWARE)
            grid = {k: min(v + 1, 3) if v else 0 for k, v in bounds.items()}
            oracle = oracle_verdict(spec, prop, grid)
            assert verdict.status == oracle, (name, prop.name)
            assert verdict.status == _expected(prop.name), (name, prop.name)
            checked += 1
    assert checked >= 30
    assert time.monotonic() - start < 120


# -- 4: boundary pattern of the computed bounds -------------------------------

def test_boundary_pattern(kboundary_spec):
    start = time.monotonic()
    negative = kboundary_spec.property("SourceSharesTypeDecl_ShouldFail")
    lab = BoundsLab(kboundary_spec, negative)
    statuses = {off: st for off, st, _ in lab.uniform_sweep().rows}
    assert all(statuses[off] == HOLDS for off in (-3, -2, -1))
    assert all(statuses[off] == VIOLATED for off in (0, 1, 2, 3))
    assert len(lab.selective_minus_one().binding_classes) >= 1

    positive = kboundary_spec.property("SourceHasTypeDecl")
    lab = BoundsLab(kboundary_spec, positive)
    assert all(st == HOLDS for _, st, _ in lab.uniform_sweep().rows)
    assert lab.selective_minus_one().binding_classes == []
    assert time.monotonic() - start < 60


# -- 5: counterexample cross-validation ---------------------------------------

def test_every_violation_is_concretely_confirmed(corpus, uml2java,
                                                 kboundary_spec, cegar_spec):
    config = VerificationConfig()
    suites = list(corpus) + [("uml2java", uml2java),
                             ("kboundary", kboundary_spec),
                             ("cegar", cegar_spec)]
    confirmed = 0
    for name, spec in suites:
        for prop in spec.properties:
            verdict = verify_property(spec, prop, config)
            if verdict.status != VIOLATED:
                continue
            source, target, binding = verdict.counterexample
            t = spec.transformations[0]
            assert validate_conformance(source,
                                        spec.metamodel(t.source)).conformant
            result = execute(t, source, spec)
            concrete = check_property_concrete(prop, source, result, spec)
            assert not concrete.holds, (name, prop.name)
            confirmed += 1
    assert confirmed >= 10


# -- 6: execution monotonicity ------------------------------------------------

def test_execution_monotone_under_submodels(corpus):
    start = time.monotonic()
    rng = random.Random(20260826)
    wanted = {"c01_copy.dslt", "c02_guard.dslt", "c03_layers.dslt",
              "c07_pair.dslt", "c10_applylink.dslt"}
    specs = [spec for name, spec in corpus if name in wanted]
    assert len(specs) == 5
    for trial in range(200):
        spec = specs[trial % len(specs)]
        t = spec.transformations[0]
        mm = spec.metamodel(t.source)
        model = random_model(spec, mm, rng)
        ids = sorted(e.id for e in model.elements)
        if not ids:
            continue
        keep = set(rng.sample(ids, rng.randint(1, len(ids))))
        # random_model's metamodels have no lower bounds, so the induced
        # submodel conforms as it is
        sub = model_from_parts(
            (e for e in model.elements if e.id in keep),
            (l for l in model.links if l.src in keep and l.tgt in keep))
        full = execute(t, model, spec)
        part = execute(t, sub, spec)
        assert part.target.elements <= full.target.elements
        assert part.target.links <= full.target.links
        assert part.target.traces <= full.target.traces
    assert time.monotonic() - start < 60


# -- 7: option composability ---------------------------------------------------

# the three ablation axes: a VerificationConfig field and its values
_AXES = (("per_class", (True, False)),
         ("fragment_kind", tuple(FragmentKind)),
         ("relevance_mode", tuple(RelevanceMode)))


# (per_class, fragment_kind, relevance_mode) -> each property's verdict event
# on the corpus plus cegar.dslt, without its time and fragment; filled once
# per row, so the two tests below solve each row once between them
_EVENTS = {}


def _option_events(corpus, cegar_spec, row):
    if row not in _EVENTS:
        config = VerificationConfig(**dict(zip((n for n, _ in _AXES), row)))
        # only cegar.dslt needs refinement, so only it separates the fragments
        suites = list(corpus) + [("cegar.dslt", cegar_spec)]
        events = []
        for name, spec in suites:
            for prop in spec.properties:
                verdict = verify_property(spec, prop, config)
                assert verdict.status == _expected(prop.name), \
                    (name, prop.name, row)
                event = verdict.event(prop.name)
                del event["timeSec"], event["fragment"]
                events.append(event)
        _EVENTS[row] = events
    return _EVENTS[row]


def test_all_option_combinations_agree(corpus, cegar_spec):
    configs = list(itertools.product(*(values for _, values in _AXES)))
    assert len(configs) == 12
    for row in configs:
        _option_events(corpus, cegar_spec, row)


def test_option_pairs_agree(corpus, cegar_spec):
    # no option is a no-op: any two values of one axis, the other axes at
    # their defaults, agree on every status but give a different verdict
    # event on some property
    default = VerificationConfig()
    base = tuple(getattr(default, n) for n, _ in _AXES)
    for i, (axis, values) in enumerate(_AXES):
        for a, b in itertools.combinations(values, 2):
            row_a = base[:i] + (a,) + base[i + 1:]
            row_b = base[:i] + (b,) + base[i + 1:]
            assert _option_events(corpus, cegar_spec, row_a) != \
                _option_events(corpus, cegar_spec, row_b), (axis, a, b)


# -- 8: refinement behavior -----------------------------------------------------

def test_refinement_round_counts(cegar_spec):
    config = VerificationConfig()
    spurious = verify_property(cegar_spec,
                               cegar_spec.property("SourceHasWidget"), config)
    assert spurious.status == HOLDS
    assert spurious.cegar_rounds == 1
    direct = verify_property(
        cegar_spec, cegar_spec.property("SourceHasGadget_ShouldFail"), config)
    assert direct.status == VIOLATED
    assert direct.cegar_rounds == 0


# -- 9: reference verdict pattern ------------------------------------------------

def test_reference_verdicts(uml2java):
    start = time.monotonic()
    config = VerificationConfig()
    holds = verify_property(
        uml2java, uml2java.property("PackageHasPackageDeclaration"), config)
    assert holds.status == HOLDS
    assert holds.per_class_max == 1
    violated = verify_property(
        uml2java,
        uml2java.property("ClassMappedToInterfaceDeclaration_ShouldFail"),
        config)
    assert violated.status == VIOLATED
    assert time.monotonic() - start < 60


# -- 10: robustness ----------------------------------------------------------------

def _zombie_children():
    out = []
    for pid in os.listdir("/proc"):
        if not pid.isdigit():
            continue
        try:
            with open(f"/proc/{pid}/stat") as fh:
                fields = fh.read().split()
        except OSError:
            continue
        if fields[2] == "Z" and int(fields[3]) == os.getpid():
            out.append(int(pid))
    return out


# Nine pigeons, each with one of eight holes, and one rule per hole that
# creates a Clash for every two pigeons sharing it: the property holds by
# the pigeonhole principle, which the solver must refute by search (CDCL
# needs exponentially many conflicts for it).  The planned bound is 9:
# encoding takes about 0.1 s (1.3 MB, 6.4k assertions), and the solver
# child needs about 200 s untimed on a 2-vCPU VM, so the 3 s deadline
# lands in the child.
PIGEON_SPEC = """
metamodel Roost {
    class Pigeon { hole: Int[0..7] }
}
metamodel Report {
    class Clash { }
}
transformation roost : Roost -> Report {
    layer Pairs {""" + "".join(f"""
        rule Clash{h} {{
            match {{
                any a : Pigeon where hole == {h}
                any b : Pigeon where hole == {h}
            }}
            apply {{ c : Clash }}
        }}""" for h in range(8)) + """
    }
}
property PigeonsShareAHole "Nine pigeons in eight holes make a clash." {
    precondition {""" + "".join(f"""
        any p{i} : Pigeon""" for i in range(9)) + """
    }
    postcondition {
        c : Clash
    }
}
"""


def test_timeout_and_ceiling_are_clean():
    start = time.monotonic()
    spec = parse_spec(PIGEON_SPEC, "inline")
    assert not isinstance(spec, list), spec
    prop = spec.property("PigeonsShareAHole")

    config = VerificationConfig(timeout_seconds=3, per_class=False,
                                fragment_kind=FragmentKind.FULL)
    plan = plan_property(spec, prop, config)
    assert plan.cutoff.k == 9
    verdict = verify_property(spec, prop, config, plan=plan)
    assert verdict.status == UNKNOWN
    assert verdict.reason == "timeout"
    assert verdict.detail == "solver exceeded the time budget"
    assert verdict.wall_time <= 8
    assert _zombie_children() == []

    config = VerificationConfig(timeout_seconds=30, binding_ceiling=10,
                                per_class=False,
                                fragment_kind=FragmentKind.FULL)
    verdict = verify_property(spec, prop, config)
    assert verdict.status == UNKNOWN
    assert verdict.reason == "ceiling"
    assert _zombie_children() == []
    assert time.monotonic() - start < 30
