"""Instance models: typed attributed graphs with trace links.

A model is a set of typed elements with attribute valuations, a set of
association links, and a set of trace links recording which target elements
were produced from which source elements.  JSON interchange uses exactly the
keys elements/links/traces, id/type/attrs, assoc/src/tgt.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .inheritance import is_subtype
from .spec_ast import EnumRef, EnumValue


@dataclass(frozen=True)
class Element:
    id: str
    klass: str
    attrs: tuple  # sorted tuple of (name, value)

    def attr_map(self):
        return dict(self.attrs)


@dataclass(frozen=True)
class Link:
    assoc: str
    src: str
    tgt: str


@dataclass(frozen=True)
class TraceLink:
    src: str
    tgt: str


def _freeze_attrs(attrs):
    return tuple(sorted(attrs.items()))


@dataclass(frozen=True)
class InstanceModel:
    elements: frozenset = frozenset()
    links: frozenset = frozenset()
    traces: frozenset = frozenset()

    def element_map(self):
        return {e.id: e for e in self.elements}

    def with_element(self, id, klass, attrs=None):
        e = Element(id, klass, _freeze_attrs(attrs or {}))
        return InstanceModel(self.elements | {e}, self.links, self.traces)

    def with_link(self, assoc, src, tgt):
        return InstanceModel(self.elements, self.links | {Link(assoc, src, tgt)},
                             self.traces)

    def with_trace(self, src, tgt):
        return InstanceModel(self.elements, self.links,
                             self.traces | {TraceLink(src, tgt)})


# every empty part of a model built here is this one object
_EMPTY = frozenset()


def model_from_parts(elements=(), links=(), traces=()):
    return InstanceModel(frozenset(elements) or _EMPTY,
                         frozenset(links) or _EMPTY,
                         frozenset(traces) or _EMPTY)


@dataclass(frozen=True)
class ConformanceViolation:
    kind: str  # type | multiplicity-lower | multiplicity-upper | attribute-domain
    ids: tuple
    message: str


@dataclass
class ConformanceReport:
    violations: list = field(default_factory=list)

    @property
    def conformant(self):
        return not self.violations


@dataclass(frozen=True)
class ClosureInfo:
    per_class_forced_bound: dict

    @property
    def effective_arity(self):
        """The symbol a: the largest per-class forced bound."""
        return max(self.per_class_forced_bound.values(), default=0)


class UnboundedClosureError(ValueError):
    pass


# ---------------------------------------------------------------------------
# JSON interchange
# ---------------------------------------------------------------------------

_ELEMENT_KEYS = {"id", "type", "attrs"}
_LINK_KEYS = {"assoc", "src", "tgt"}
_TRACE_KEYS = {"src", "tgt"}


class ModelFormatError(ValueError):
    pass


def _attr_value_from_json(v):
    if isinstance(v, str) and "." in v and all(
            part.isidentifier() for part in v.split(".", 1)):
        # qualified enum literal, e.g. "ClassKind.Entity"
        enum, literal = v.split(".", 1)
        return EnumValue(enum, literal)
    return v


def _attr_value_to_json(v):
    if isinstance(v, EnumValue):
        return f"{v.enum}.{v.literal}"
    return v


def load_model(text):
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise ModelFormatError(f"invalid JSON: {e}") from e
    if not isinstance(data, dict):
        raise ModelFormatError("top level must be an object")
    unknown = set(data) - {"elements", "links", "traces"}
    if unknown:
        raise ModelFormatError(f"unknown top-level keys: {sorted(unknown)}")
    elements, links, traces = [], [], []
    seen_ids = set()
    for obj in data.get("elements", []):
        unknown = set(obj) - _ELEMENT_KEYS
        if unknown:
            raise ModelFormatError(f"unknown element keys: {sorted(unknown)}")
        if "id" not in obj or "type" not in obj:
            raise ModelFormatError("element needs 'id' and 'type'")
        if obj["id"] in seen_ids:
            raise ModelFormatError(f"duplicate element id {obj['id']!r}")
        seen_ids.add(obj["id"])
        attrs = {k: _attr_value_from_json(v)
                 for k, v in obj.get("attrs", {}).items()}
        elements.append(Element(obj["id"], obj["type"], _freeze_attrs(attrs)))
    for obj in data.get("links", []):
        unknown = set(obj) - _LINK_KEYS
        if unknown:
            raise ModelFormatError(f"unknown link keys: {sorted(unknown)}")
        if set(obj) != _LINK_KEYS:
            raise ModelFormatError("link needs 'assoc', 'src', 'tgt'")
        links.append(Link(obj["assoc"], obj["src"], obj["tgt"]))
    for obj in data.get("traces", []):
        unknown = set(obj) - _TRACE_KEYS
        if unknown:
            raise ModelFormatError(f"unknown trace keys: {sorted(unknown)}")
        if set(obj) != _TRACE_KEYS:
            raise ModelFormatError("trace needs 'src' and 'tgt'")
        traces.append(TraceLink(obj["src"], obj["tgt"]))
    return model_from_parts(elements, links, traces)


def dump_model(model):
    data = {
        "elements": [
            {"id": e.id, "type": e.klass,
             "attrs": {k: _attr_value_to_json(v) for k, v in e.attrs}}
            for e in sorted(model.elements, key=lambda e: e.id)
        ],
        "links": [
            {"assoc": l.assoc, "src": l.src, "tgt": l.tgt}
            for l in sorted(model.links, key=lambda l: (l.assoc, l.src, l.tgt))
        ],
        "traces": [
            {"src": t.src, "tgt": t.tgt}
            for t in sorted(model.traces, key=lambda t: (t.src, t.tgt))
        ],
    }
    return json.dumps(data, indent=2)


# ---------------------------------------------------------------------------
# Conformance
# ---------------------------------------------------------------------------

def _value_in_domain(domain, value):
    if isinstance(domain, EnumRef):
        return isinstance(value, EnumValue) and value.enum == domain.enum \
            and value.literal in domain.literals
    if isinstance(value, EnumValue):
        return False
    if not domain.is_finite():
        from .spec_ast import IntUnbounded, StringUnbounded
        if isinstance(domain, IntUnbounded):
            return isinstance(value, int) and not isinstance(value, bool)
        if isinstance(domain, StringUnbounded):
            return isinstance(value, str)
        return False
    return value in domain.values()


def validate_conformance(model, mm):
    """Check a model against one metamodel; report every violation."""
    info = mm.info
    report = ConformanceReport()
    elems = model.element_map()

    for e in sorted(model.elements, key=lambda e: e.id):
        ci = info.get(e.klass)
        if ci is None:
            raise KeyError(f"unknown class {e.klass!r}")
        if ci.abstract:
            report.violations.append(ConformanceViolation(
                "type", (e.id,), f"abstract instantiation of {e.klass}"))
        amap = e.attr_map()
        for name, dom in ci.attributes.items():
            if name in amap and not _value_in_domain(dom, amap[name]):
                report.violations.append(ConformanceViolation(
                    "attribute-domain", (e.id,),
                    f"value {amap[name]!r} outside domain of {e.klass}.{name}"))
        for name in amap:
            if name not in ci.attributes:
                report.violations.append(ConformanceViolation(
                    "attribute-domain", (e.id,),
                    f"{e.klass} has no attribute {name!r}"))

    assocs = mm.assoc_map()
    for l in sorted(model.links, key=lambda l: (l.assoc, l.src, l.tgt)):
        a = assocs.get(l.assoc)
        if a is None:
            raise KeyError(f"unknown association {l.assoc!r}")
        for end_id, decl_end, side in ((l.src, a.source, "source"),
                                       (l.tgt, a.target, "target")):
            e = elems.get(end_id)
            if e is None:
                report.violations.append(ConformanceViolation(
                    "type", (end_id,),
                    f"link {l.assoc} {side} {end_id!r} does not exist"))
            elif e.klass not in info or not is_subtype(info, e.klass, decl_end):
                report.violations.append(ConformanceViolation(
                    "type", (end_id,),
                    f"link {l.assoc} {side} {end_id!r} has class {e.klass}, "
                    f"expected {decl_end}"))

    # multiplicities: count outgoing links per (element, assoc)
    for a in mm.associations:
        if a.lower == 0 and a.upper is None:
            continue
        counts = {}
        for l in model.links:
            if l.assoc == a.name:
                counts[l.src] = counts.get(l.src, 0) + 1
        for e in sorted(model.elements, key=lambda e: e.id):
            if e.klass not in info or not is_subtype(info, e.klass, a.source):
                continue
            n = counts.get(e.id, 0)
            if n < a.lower:
                report.violations.append(ConformanceViolation(
                    "multiplicity-lower", (e.id,),
                    f"{e.id!r} has {n} {a.name} links, lower bound {a.lower}"))
            if a.upper is not None and n > a.upper:
                report.violations.append(ConformanceViolation(
                    "multiplicity-upper", (e.id,),
                    f"{e.id!r} has {n} {a.name} links, upper bound {a.upper}"))
    return report


# ---------------------------------------------------------------------------
# Mandatory-association closure
# ---------------------------------------------------------------------------

def _mandatory_edges(mm):
    """class -> list of (lower, target class), subtype-aware on the source."""
    edges = {c: [] for c in mm.info}
    for a in mm.associations:
        if a.lower >= 1:
            for c in edges:
                if is_subtype(mm.info, c, a.source):
                    edges[c].append((a.lower, a.target))
    return edges


def mandatory_closure(mm):
    """Per-class transitive count of elements forced by lower bounds.

    forced(C) = sum over mandatory associations out of C of
    lower * (1 + forced(targetClass)).  Any reachable mandatory cycle makes
    the closure unbounded and raises UnboundedClosureError.
    """
    edges = _mandatory_edges(mm)
    memo = {}
    on_stack = set()

    def forced(c):
        if c in memo:
            return memo[c]
        if c in on_stack:
            raise UnboundedClosureError(
                f"mandatory-association cycle through class {c!r}")
        on_stack.add(c)
        total = 0
        for lower, tgt in edges[c]:
            total += lower * (1 + forced(tgt))
        on_stack.discard(c)
        memo[c] = total
        return total

    return ClosureInfo({c: forced(c) for c in sorted(edges)})
