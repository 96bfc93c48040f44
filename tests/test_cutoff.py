import glob
import itertools
import os
import random

from dsltv.cutoff import (CutoffParams, FragmentKind, RelevanceMode,
                          compute_cutoff, cutoff_params, cutoff_report,
                          per_class_bounds, relevant_rules, select_fragment)
from dsltv.fragments import trace_producers
from dsltv.model import mandatory_closure
from dsltv.orchestrator import HOLDS, VerificationConfig, verify_property

from conftest import FIXTURES, load_spec


def test_reference_parameters_give_reference_bounds():
    bounds = compute_cutoff(CutoffParams(c=5, m=3, p=1, d=1, a=5, r=8))
    assert (bounds.k_coarse, bounds.k_sharp, bounds.k_tight) == (120, 150, 102)
    assert bounds.k == 102
    assert bounds.dominant == ("tight",)


def test_zero_depth_reduces_sharp_and_tight():
    p, m, r, a, c = 2, 3, 5, 1, 4
    bounds = compute_cutoff(CutoffParams(c=c, m=m, p=p, d=0, a=a, r=r))
    # d' = 1 keeps multiplicative bounds alive while d = 0 kills tight's
    # dependency term entirely.
    assert bounds.k_sharp == p * (1 + m * r) * (a + 1)
    assert bounds.k_tight == p * (a + 1)
    assert bounds.dominant == ("tight",)


def test_single_element_rules_make_tight_linear():
    for p, r, d, a in itertools.product((1, 2), (1, 4), (1, 3), (0, 2)):
        bounds = compute_cutoff(CutoffParams(c=3, m=1, p=p, d=d, a=a, r=r))
        assert bounds.k_tight == p * (a + 1)


def test_bounds_monotone_in_every_parameter():
    rng = random.Random(7)
    fields = ("c", "m", "p", "d", "a", "r")
    for _ in range(200):
        base = CutoffParams(c=rng.randint(1, 6), m=rng.randint(1, 5),
                            p=rng.randint(1, 4), d=rng.randint(0, 4),
                            a=rng.randint(0, 6), r=rng.randint(1, 9))
        for f in fields:
            bumped = CutoffParams(**{**base.__dict__, f: getattr(base, f) + 1})
            assert compute_cutoff(bumped).k >= compute_cutoff(base).k, (base, f)


def _pipeline(spec, prop_name, mode=RelevanceMode.TRACE_ATTRIBUTE_AWARE):
    prop = spec.property(prop_name)
    t = spec.transformations[0]
    closure = mandatory_closure(spec.metamodel(t.source))
    rel = relevant_rules(spec, prop, mode, t)
    params = cutoff_params(spec, prop, rel, closure, t)
    return prop, rel, params, t


def test_attribute_awareness_only_prunes(uml2java):
    t = uml2java.transformations[0]
    for prop in uml2java.properties:
        trace = relevant_rules(uml2java, prop, RelevanceMode.TRACE_AWARE, t)
        attr = relevant_rules(uml2java, prop,
                              RelevanceMode.TRACE_ATTRIBUTE_AWARE, t)
        assert attr.relevant_rules <= trace.relevant_rules, prop.name


def test_b4_pipeline_reproduces_reference_cutoff(uml2java_b4):
    _, _, params, _ = _pipeline(uml2java_b4, "PropertyHasField",
                             RelevanceMode.TRACE_AWARE)
    assert params == CutoffParams(c=5, m=3, p=1, d=1, a=5, r=8)
    assert compute_cutoff(params).k == 102


def test_legacy_relevance_keeps_the_producers_of_backward_links(
        uml2java_b4):
    # the layer-1 *2Field rules link back to the ClassDeclaration that
    # Class2ClassDeclaration creates: without it no field rule can fire, and
    # the encoding's counterexample is spurious
    prop = uml2java_b4.property("PropertyHasField")
    t = uml2java_b4.transformations[0]
    legacy = relevant_rules(uml2java_b4, prop, RelevanceMode.LEGACY, t)
    assert "Class2ClassDeclaration" in legacy.relevant_rules
    for mode in RelevanceMode:
        verdict = verify_property(uml2java_b4, prop,
                                  VerificationConfig(relevance_mode=mode))
        assert verdict.status == HOLDS, (mode, verdict.detail)


def test_per_class_bounds_cap_and_seed(uml2java):
    prop, rel, params, t = _pipeline(uml2java,
                                     "PackageHasPackageDeclaration")
    k = compute_cutoff(params).k
    bounds = per_class_bounds(uml2java, prop, k, t)
    assert bounds.max_bound() == 1
    assert all(0 <= v <= k for v in bounds.source.values())
    # the seed, and the Model that a Package's mandatory owner forces
    assert bounds.source["Package"] == bounds.source["Model"] == 1
    assert bounds.target == {}


def _producer_layers(spec, prop, t):
    """The layers of the rules reached by walking ``trace_producers`` from
    the property's demands (each trace pair, and each untraced
    postcondition element) through the backward pairs of every rule
    reached, each to the producers in layers below its rule's."""
    src_info = spec.metamodel(t.source).info
    tgt_info = spec.metamodel(t.target).info
    pre = prop.precondition.element_map()
    post = prop.postcondition.element_map()
    todo = [(pre[b].klass, post[a].klass, None) for a, b in prop.traces]
    traced = {a for a, _ in prop.traces}
    todo += [(None, e.klass, None) for e in prop.postcondition.elements
             if e.name not in traced]
    reached = {}
    while todo:
        match_class, apply_class, before = todo.pop()
        for li, rule in trace_producers(t, src_info, tgt_info, match_class,
                                        apply_class, before):
            if rule.name not in reached:
                reached[rule.name] = li
                todo += [(m, a, li) for m, a in rule.backward_classes()]
    return tuple(sorted(set(reached.values())))


def test_fragment_kinds_are_nested():
    # every fixture, every dependency mode; in the trace modes the layers
    # of the relevant rules are those of the producers the property
    # demands, closed over their backward pairs
    for path in sorted(glob.glob(os.path.join(FIXTURES, "**", "*.dslt"),
                                 recursive=True)):
        spec = load_spec(os.path.relpath(path, FIXTURES))
        t = spec.transformations[0]
        n_layers = len(t.layers)
        for prop, mode in itertools.product(spec.properties, RelevanceMode):
            where = (path, prop.name, mode)
            rel = relevant_rules(spec, prop, mode, t)
            minimal = select_fragment(spec, prop, rel, FragmentKind.MINIMAL,
                                      t)
            full = select_fragment(spec, prop, rel, FragmentKind.FULL, t)
            relevant = tuple(sorted({t.rule_layer(r)
                                     for r in rel.relevant_rules}))
            assert set(minimal) <= set(full), where
            if rel.relevant_rules:
                # legacy relevance ignores trace sources, so a trace demand
                # can lack a relevant producer; Minimal is then every layer
                assert set(minimal) <= set(relevant) or (
                    mode is RelevanceMode.LEGACY and minimal == full), where
            assert tuple(full) == tuple(range(n_layers))
            if mode is not RelevanceMode.LEGACY:
                # no fixture has a guard that rules a producer out, or a
                # rule that only links elements it resolves backward, so
                # the walk reaches exactly the relevant rules
                assert relevant == _producer_layers(spec, prop, t), where


def test_relevance_keeps_the_producers_of_backward_pairs():
    # the relevant rules are closed under backward demands: every
    # earlier-layer producer of a relevant rule's backward pair is itself
    # relevant, in every mode
    checked = 0
    for path in sorted(glob.glob(os.path.join(FIXTURES, "**", "*.dslt"),
                                 recursive=True)):
        spec = load_spec(os.path.relpath(path, FIXTURES))
        t = spec.transformations[0]
        src_info = spec.metamodel(t.source).info
        tgt_info = spec.metamodel(t.target).info
        for prop, mode in itertools.product(spec.properties, RelevanceMode):
            relevant = relevant_rules(spec, prop, mode, t).relevant_rules
            for li, rule in t.all_rules():
                if rule.name not in relevant:
                    continue
                for s_cls, t_cls in rule.backward_classes():
                    for _, producer in trace_producers(
                            t, src_info, tgt_info, s_cls, t_cls, li):
                        assert producer.name in relevant, \
                            (path, prop.name, mode, rule.name)
                        checked += 1
    assert checked


def test_cutoff_report_shape(uml2java):
    prop, rel, params, t = _pipeline(uml2java,
                                     "PackageHasPackageDeclaration")
    k = compute_cutoff(params).k
    per_class = per_class_bounds(uml2java, prop, k, t)
    report = cutoff_report(params, compute_cutoff(params), per_class)
    assert report["params"] == {"c": params.c, "m": params.m, "p": params.p,
                                "d": params.d, "a": params.a, "r": params.r,
                                "dPrime": params.d_prime}
    assert report["bounds"]["k"] == k
    assert report["dominant"] == list(compute_cutoff(params).dominant)
    assert max(report["perClass"]["source"].values()) <= k
