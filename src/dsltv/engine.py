"""Concrete layer-by-layer execution of a transformation.

Execution always runs every layer.  Each layer enumerates all injective,
type-compatible, guard-satisfying matches of its rules against the source
model.  Backward pairs must resolve to a unique trace-consistent target
element created by an earlier layer; otherwise the firing is skipped and
logged.  Every match thus ends in `firings` or `skipped`, so together they
name exactly the rules that have a match on the source: the orchestrator
reads one execution per counterexample both to refine a fragment and to
confirm the violation.  Each firing creates one target element per
fresh apply element, with the deterministic id "<ruleName>#<source ids of
the binding, in match-element-name order>#<applyElementName>", so no two
firings share one.  Trace links are recorded from every matched source
element to every freshly created target element of the firing.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .inheritance import is_subtype
from .model import InstanceModel, model_from_parts, Element, Link, TraceLink
from .parser import property_metamodels
from .spec_ast import CopyBinding, compare


@dataclass(frozen=True)
class Firing:
    layer: int
    rule: str
    binding: tuple  # sorted (matchElementName, sourceId) pairs
    created: tuple  # fresh target element ids


@dataclass
class ExecutionResult:
    target: InstanceModel
    firings: list = field(default_factory=list)
    skipped: list = field(default_factory=list)  # (rule, binding, reason)

    @property
    def traces(self):
        return self.target.traces

    def log_ndjson(self):
        lines = []
        for f in self.firings:
            lines.append(json.dumps({
                "layer": f.layer, "rule": f.rule,
                "binding": [eid for _, eid in f.binding],
                "created": list(f.created),
            }))
        return "\n".join(lines)


@dataclass
class ConcreteVerdict:
    holds: bool
    violating_bindings: list = field(default_factory=list)

    def __post_init__(self):
        assert self.holds == (not self.violating_bindings)


def _guards_hold(element, constraints):
    attrs = element.attr_map()
    for c in constraints:
        if c.attr not in attrs:
            return False
        if not compare(c.op, attrs[c.attr], c.value):
            return False
    return True


def enumerate_matches(pattern, model, info):
    """All injective, type-compatible, guard-satisfying, link-respecting
    assignments of pattern elements to model element ids, in a deterministic
    order.  Yields dicts element name -> element id."""
    elems = sorted(model.elements, key=lambda e: e.id)
    link_index = {}
    for l in model.links:
        link_index.setdefault((l.assoc, l.src), set()).add(l.tgt)

    names = [e.name for e in pattern.elements]
    by_name = pattern.element_map()

    def extend(i, binding, used):
        if i == len(names):
            yield dict(binding)
            return
        pe = by_name[names[i]]
        for e in elems:
            if e.id in used:
                continue
            if not is_subtype(info, e.klass, pe.klass):
                continue
            if not _guards_hold(e, pe.constraints):
                continue
            binding[pe.name] = e.id
            if _links_ok(pattern, binding, link_index):
                yield from extend(i + 1, binding, used | {e.id})
            del binding[pe.name]

    yield from extend(0, {}, set())


def _links_ok(pattern, binding, link_index):
    # check every link whose endpoints are both already bound
    for l in pattern.links:
        s = binding.get(l.source)
        t = binding.get(l.target)
        if s is None or t is None:
            continue
        if t not in link_index.get((l.assoc, s), ()):
            return False
    return True


def _eval_binding(value, binding, source_elems):
    if isinstance(value, CopyBinding):
        src = source_elems[binding[value.element]]
        attrs = src.attr_map()
        if value.attr not in attrs:
            raise KeyError(
                f"element {src.id!r} has no attribute {value.attr!r}")
        return attrs[value.attr]
    return value


def execute(transformation, source, spec):
    """Run every layer of the transformation on a source model."""
    src_info = spec.metamodel(transformation.source).info
    tgt_info = spec.metamodel(transformation.target).info
    source_elems = source.element_map()

    tgt_elements = {}
    tgt_links = set()
    traces = set()  # (source id, target id)
    result = ExecutionResult(target=model_from_parts())

    for li, layer in enumerate(transformation.layers):
        # snapshot: same-layer outputs are invisible to backward resolution
        visible_traces = set(traces)
        visible_elements = dict(tgt_elements)
        for rule in layer.rules:
            for binding in enumerate_matches(rule.match, source, src_info):
                bkey = tuple(sorted(binding.items()))
                # backward resolution against earlier layers only
                resolved = {}
                reason = None
                for apply_name, match_name in rule.backward:
                    apply_el = rule.apply.element_map()[apply_name]
                    src_id = binding[match_name]
                    candidates = sorted(
                        t for (s, t) in visible_traces
                        if s == src_id and t in visible_elements
                        and is_subtype(tgt_info, visible_elements[t].klass,
                                       apply_el.klass))
                    if len(candidates) != 1:
                        reason = (f"backward pair {apply_name} <--trace-- "
                                  f"{match_name}: "
                                  f"{len(candidates)} candidates")
                        break
                    resolved[apply_name] = candidates[0]
                if reason is not None:
                    result.skipped.append((rule.name, bkey, reason))
                    continue

                src_ids = ",".join(eid for _, eid in bkey)
                fresh_ids = {}
                for ae in rule.fresh_apply_elements():
                    eid = f"{rule.name}#{src_ids}#{ae.name}"
                    attrs = {}
                    for b in ae.bindings:
                        attrs[b.attr] = _eval_binding(b.value, binding,
                                                      source_elems)
                    tgt_elements[eid] = Element(eid, ae.klass,
                                                tuple(sorted(attrs.items())))
                    fresh_ids[ae.name] = eid
                created = list(fresh_ids.values())

                def apply_id(name):
                    return resolved.get(name) or fresh_ids[name]

                for l in rule.apply.links:
                    tgt_links.add(Link(l.assoc, apply_id(l.source),
                                       apply_id(l.target)))
                for src_id in binding.values():
                    for eid in created:
                        traces.add((src_id, eid))
                result.firings.append(Firing(li, rule.name, bkey,
                                             tuple(created)))

    result.target = model_from_parts(
        tgt_elements.values(), tgt_links,
        (TraceLink(s, t) for s, t in traces))
    return result


def check_property_concrete(prop, source, result, spec):
    """Concrete property evaluation over a source model and execution result.

    For every injective precondition match there must exist an injective
    postcondition match whose links hold and whose trace constraints are
    recorded.  Reports all witnessless precondition bindings.
    """
    src_mm, tgt_mm = property_metamodels(spec, prop)
    # an empty pattern has one match, whatever the classes
    src_info = src_mm.info if src_mm else {}
    tgt_info = tgt_mm.info if tgt_mm else {}
    trace_set = {(t.src, t.tgt) for t in result.target.traces}

    violating = []
    for pre_binding in enumerate_matches(prop.precondition, source, src_info):
        witness = False
        for post_binding in enumerate_matches(prop.postcondition,
                                              result.target, tgt_info):
            if all((pre_binding[pre_el], post_binding[post_el]) in trace_set
                   for post_el, pre_el in prop.traces):
                witness = True
                break
        if not witness:
            violating.append(tuple(sorted(pre_binding.items())))
    return ConcreteVerdict(not violating, violating)

