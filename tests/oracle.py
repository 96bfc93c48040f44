"""Brute-force oracle: exhaustive source-model enumeration plus a random
conformant-model generator.  Only practical for specs with a handful of
slots, which is exactly what the corpus provides."""

from __future__ import annotations

import itertools

from dsltv.cutoff import compute_cutoff, cutoff_params, per_class_bounds, \
    relevant_rules
from dsltv.engine import check_property_concrete, execute
from dsltv.inheritance import is_subtype
from dsltv.model import Element, InstanceModel, Link, mandatory_closure, \
    validate_conformance
from dsltv.orchestrator import _transformation_for


def _attr_choices(info, klass):
    names = sorted(info[klass].attributes)
    value_lists = [info[klass].attributes[n].values() for n in names]
    for combo in itertools.product(*value_lists):
        yield tuple(zip(names, combo))


def enumerate_source_models(spec, mm, bounds):
    """Every instance model with at most bounds[class] elements per concrete
    class, every attribute assignment, every link subset.  Conformance is
    NOT filtered here; callers decide."""
    info = mm.info
    classes = [c for c in sorted(bounds) if bounds[c] > 0
               and not info[c].abstract]
    count_axes = [range(bounds[c] + 1) for c in classes]
    for counts in itertools.product(*count_axes):
        ids_by_class = {c: [f"{c.lower()}{i}" for i in range(n)]
                        for c, n in zip(classes, counts)}
        ids = [(c, i) for c in classes for i in ids_by_class[c]]
        attr_axes = [list(_attr_choices(info, c)) for c, _ in ids]
        pairs = []
        for a in mm.associations:
            for c_s, src in ids:
                if not is_subtype(info, c_s, a.source):
                    continue
                for c_t, tgt in ids:
                    if is_subtype(info, c_t, a.target):
                        pairs.append((a.name, src, tgt))
        for attrs in itertools.product(*attr_axes):
            elements = tuple(Element(i, c, tuple(a))
                             for (c, i), a in zip(ids, attrs))
            for mask in itertools.product((False, True), repeat=len(pairs)):
                links = tuple(Link(n, s, t)
                              for keep, (n, s, t) in zip(mask, pairs) if keep)
                yield InstanceModel(elements, links, ())


def source_bounds_for(spec, prop, mode):
    """The verifier's own per-class source bounds for the property."""
    t = _transformation_for(spec, prop)
    relevance = relevant_rules(spec, prop, mode, t)
    closure = mandatory_closure(spec.metamodel(t.source))
    k = compute_cutoff(cutoff_params(spec, prop, relevance, closure, t)).k
    return per_class_bounds(spec, prop, k, t).source, t


def oracle_verdict(spec, prop, bounds, transformation=None):
    """HOLDS iff no conformant source model on the grid violates the
    property under full concrete execution."""
    t = transformation or _transformation_for(spec, prop)
    mm = spec.metamodel(t.source)
    for source in enumerate_source_models(spec, mm, bounds):
        if not validate_conformance(source, mm).conformant:
            continue
        result = execute(t, source, spec)
        if not check_property_concrete(prop, source, result, spec).holds:
            return "VIOLATED"
    return "HOLDS"


def random_model(spec, mm, rng, max_per_class=3):
    """A random conformant model for metamodels without mandatory lowers."""
    assert all(a.lower == 0 for a in mm.associations)
    info = mm.info
    elements = []
    for c in sorted(info):
        if info[c].abstract:
            continue
        for i in range(rng.randrange(max_per_class + 1)):
            attrs = tuple(
                (n, rng.choice(list(info[c].attributes[n].values())))
                for n in sorted(info[c].attributes))
            elements.append(Element(f"{c.lower()}{i}", c, attrs))
    links = []
    for a in mm.associations:
        for src in elements:
            if not is_subtype(info, src.klass, a.source):
                continue
            targets = [e for e in elements
                       if is_subtype(info, e.klass, a.target)
                       and e.id != src.id]
            rng.shuffle(targets)
            cap = len(targets) if a.upper is None else min(a.upper,
                                                           len(targets))
            for tgt in targets[:rng.randrange(cap + 1)]:
                links.append(Link(a.name, src.id, tgt.id))
    return InstanceModel(tuple(elements), tuple(links), ())
