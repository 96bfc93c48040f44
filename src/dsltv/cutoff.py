"""Cutoff bound computation.

Given a property over a layered monotone transformation, compute:
  - the relevant rule set and backward-dependency depth (three pruning modes),
  - the three global cutoff formulas and their minimum K,
  - per-class source slot bounds as a least fixed point,
  - the layer fragment to verify (Minimal / Full).

Relevance, the depth d and Minimal rest on one producer relation,
`fragments.trace_producers` (the R3 check uses it too): the rules of the
layers below a cut-off that record a trace from a source type to a fresh
element of a target type.  The property's demands, one per trace
constraint and one per untraced postcondition element, seed the relevance
worklist; each retained rule's backward pairs add demands on earlier
layers.  d is the longest path over retained producers.  Minimal is the
first producer per demand: the layer prefix up to the latest layer that
holds the first relevant producer of some demand.  Only the relevant rules
of a fragment's layers are encoded, so Full, every layer, encodes every
relevant rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .fragments import trace_producers
from .inheritance import is_subtype, types_overlap
from .model import _mandatory_edges
from .spec_ast import CopyBinding, compare


class RelevanceMode(Enum):
    LEGACY = "legacy"
    TRACE_AWARE = "trace"
    TRACE_ATTRIBUTE_AWARE = "trace-attr"


class FragmentKind(Enum):
    MINIMAL = "minimal"
    FULL = "full"


@dataclass(frozen=True)
class RelevanceResult:
    relevant_rules: frozenset  # rule names
    depth: int                 # d: longest backward-dependency chain
    source_classes: frozenset  # classes behind c

    @property
    def r(self):
        return len(self.relevant_rules)

    @property
    def c(self):
        return max(1, len(self.source_classes))


@dataclass(frozen=True)
class CutoffParams:
    c: int
    m: int
    p: int
    d: int
    a: int
    r: int

    @property
    def d_prime(self):
        return max(self.d, 1)


@dataclass(frozen=True)
class CutoffBounds:
    k_coarse: int
    k_sharp: int
    k_tight: int

    @property
    def k(self):
        return min(self.k_coarse, self.k_sharp, self.k_tight)

    @property
    def dominant(self):
        names = (("coarse", self.k_coarse), ("sharp", self.k_sharp),
                 ("tight", self.k_tight))
        return tuple(n for n, v in names if v == self.k)


@dataclass(frozen=True)
class PerClassBounds:
    """Slots per concrete source class.  `target` optionally caps, per
    target class, the elements of exactly that class that the rules may
    create (see `smtencode`); a class not listed is uncapped."""
    source: dict
    target: dict = field(default_factory=dict)

    def max_bound(self):
        return max(self.source.values(), default=0)


def compute_cutoff(params):
    p, m, r, d, a, c = params.p, params.m, params.r, params.d, params.a, params.c
    dp = params.d_prime
    return CutoffBounds(
        k_coarse=c * (m + p) * dp * (a + 1),
        k_sharp=p * (1 + m * r) * dp * (a + 1),
        k_tight=p * (1 + (m - 1) * r * d) * (a + 1),
    )


# ---------------------------------------------------------------------------
# Relevance
# ---------------------------------------------------------------------------

def _rule_can_satisfy(rule, tgt_info, post_element):
    """False only when every fresh apply element that can play post_element
    has a literal binding contradicting one of its guards."""
    for e in rule.fresh_apply_elements():
        if not types_overlap(tgt_info, e.klass, post_element.klass):
            continue
        literals = {b.attr: b.value for b in e.bindings
                    if not isinstance(b.value, CopyBinding)}
        if all(c.attr not in literals
               or compare(c.op, literals[c.attr], c.value)
               for c in post_element.constraints):
            return True
    return False


def _property_demands(prop):
    """(source class or None, target class, postcondition element) for each
    trace constraint and each untraced postcondition element."""
    post_map = prop.postcondition.element_map()
    pre_map = prop.precondition.element_map()
    demands = [(pre_map[pre_el].klass, post_map[post_el].klass,
                post_map[post_el]) for post_el, pre_el in prop.traces]
    traced = {post_el for post_el, _ in prop.traces}
    demands += [(None, e.klass, e) for e in prop.postcondition.elements
                if e.name not in traced]
    return demands


def relevant_rules(spec, prop, mode, t):
    """Select the rules that can contribute to the property's postcondition.

    Legacy keeps every rule producing any postcondition target type, and
    the producers of every target type its backward links demand.  The
    trace-aware modes start from the property's demanded (source, target)
    trace pairs and close recursively through backward-link demands; the
    attribute-aware mode additionally drops producers whose literal apply
    bindings contradict the property's guards on the produced element.
    """
    src_info = spec.metamodel(t.source).info
    tgt_info = spec.metamodel(t.target).info
    post_map = prop.postcondition.element_map()
    retained = {}
    worklist = []

    def retain(li, rule):
        if rule.name in retained:
            return
        retained[rule.name] = (li, rule)
        # its backward links demand earlier-layer producers; legacy ignores
        # the trace source of a demand
        worklist.extend((None if mode is RelevanceMode.LEGACY else s_cls,
                         t_cls, None, li)
                        for s_cls, t_cls in rule.backward_classes())

    # a rule that links two backward-resolved apply elements with the
    # association of a postcondition link may create no element, so no
    # production demand finds it
    for li, rule in t.all_rules():
        apply_map = rule.apply.element_map()
        backward = rule.backward_apply_names()
        if any(link.source in backward and link.target in backward
               and post.assoc == link.assoc
               and types_overlap(tgt_info, apply_map[link.source].klass,
                                 post_map[post.source].klass)
               and types_overlap(tgt_info, apply_map[link.target].klass,
                                 post_map[post.target].klass)
               for link in rule.apply.links
               for post in prop.postcondition.links):
            retain(li, rule)
    if mode is RelevanceMode.LEGACY:
        demands = [(None, e.klass, e) for e in prop.postcondition.elements]
    else:
        demands = _property_demands(prop)
    worklist.extend((s_cls, t_cls, post_el, None)
                    for s_cls, t_cls, post_el in demands)
    seen_demands = set()
    while worklist:
        d_src, d_tgt, post_el, before = worklist.pop()
        key = (d_src, d_tgt, id(post_el), before)
        if key in seen_demands:
            continue
        seen_demands.add(key)
        found = trace_producers(t, src_info, tgt_info, d_src, d_tgt, before)
        if mode is RelevanceMode.TRACE_ATTRIBUTE_AWARE and post_el is not None:
            found = [(li, rule) for li, rule in found
                     if _rule_can_satisfy(rule, tgt_info, post_el)]
        for li, rule in found:
            retain(li, rule)

    # d: longest backward chain over retained rules (edges to earlier-layer
    # producers of the demanded trace pair)
    depth_memo = {}

    def depth_of(name):
        if name not in depth_memo:
            li, rule = retained[name]
            depth_memo[name] = max(
                (1 + depth_of(other.name)
                 for s_cls, t_cls in rule.backward_classes()
                 for _, other in trace_producers(t, src_info, tgt_info,
                                                 s_cls, t_cls, li)
                 if other.name in retained), default=0)
        return depth_memo[name]

    d = max((depth_of(n) for n in retained), default=0)

    classes = {e.klass for _, rule in retained.values()
               for e in rule.match.elements}
    classes |= {e.klass for e in prop.precondition.elements}
    closure = _mandatory_reachable(spec.metamodel(t.source), classes)
    return RelevanceResult(frozenset(retained), d, frozenset(closure))


def _mandatory_reachable(mm, classes):
    """`classes` and every class reachable from them over mandatory
    associations."""
    edges = _mandatory_edges(mm)
    out = set(classes)
    work = list(out)
    while work:
        for _, target in edges[work.pop()]:
            if target not in out:
                out.add(target)
                work.append(target)
    return out


def cutoff_params(spec, prop, relevance, closure, t):
    """Assemble the six theorem parameters for one property."""
    arities = [rule.arity() for _, rule in t.all_rules()
               if rule.name in relevance.relevant_rules]
    p = max(len(prop.precondition.elements), len(prop.postcondition.elements))
    return CutoffParams(
        c=relevance.c,
        m=max(arities, default=0),
        p=max(p, 1),
        d=relevance.depth,
        a=closure.effective_arity,
        r=relevance.r,
    )


# ---------------------------------------------------------------------------
# Per-class bounds (least fixed point)
# ---------------------------------------------------------------------------

def per_class_bounds(spec, prop, k, t):
    """Least fixed point of per-class source slot obligations.

    Seeds are the property's precondition element counts (counting an
    element for every concrete class compatible with its declared class),
    and mandatory lower bounds propagate from them, capped at k.  The
    target needs no bound: the rules make it from the source.
    """
    mm = spec.metamodel(t.source)
    seeds = {c: min(k, sum(types_overlap(mm.info, c, e.klass)
                           for e in prop.precondition.elements))
             for c in mm.info}
    # counts[B] = max(seeds[B], min(k, seeds[B] + sum of lower *
    # count(forcing A)))
    counts = dict(seeds)
    changed = True
    while changed:
        changed = False
        for b in seeds:
            forced = 0
            for a in mm.associations:
                if a.lower < 1 or a.target != b:
                    continue
                forcing = sum(counts[c] for c in seeds
                              if is_subtype(mm.info, c, a.source))
                forced += a.lower * min(forcing, k)
            demand = min(k, seeds[b] + forced)
            if counts[b] < demand:
                counts[b] = demand
                changed = True
    return PerClassBounds(counts)


# ---------------------------------------------------------------------------
# Fragment selection
# ---------------------------------------------------------------------------

def select_fragment(spec, prop, relevance, kind, t):
    """Ordered layer-index subset to verify.

    Minimal is the shortest layer prefix that holds, for every demanded
    postcondition type / trace pair, its first relevant producer.  Full is
    every layer.
    """
    n = len(t.layers)
    if kind is FragmentKind.FULL:
        return tuple(range(n))
    relevant = relevance.relevant_rules
    src_info = spec.metamodel(t.source).info
    tgt_info = spec.metamodel(t.target).info
    if not relevant:
        return (0,) if n else ()
    last = 0
    for d_src, d_tgt, _ in _property_demands(prop):
        found = [li for li, rule in trace_producers(t, src_info, tgt_info,
                                                    d_src, d_tgt)
                 if rule.name in relevant]
        if not found:
            return tuple(range(n))
        last = max(last, found[0])  # the demand's first relevant producer
    return tuple(range(last + 1))


# ---------------------------------------------------------------------------
# Report
# ---------------------------------------------------------------------------

def cutoff_report(params, bounds, per_class):
    return {
        "params": {"c": params.c, "m": params.m, "p": params.p,
                   "d": params.d, "a": params.a, "r": params.r,
                   "dPrime": params.d_prime},
        "bounds": {"coarse": bounds.k_coarse, "sharp": bounds.k_sharp,
                   "tight": bounds.k_tight, "k": bounds.k},
        "perClass": {"source": dict(sorted(per_class.source.items()))},
        "dominant": list(bounds.dominant),
    }
