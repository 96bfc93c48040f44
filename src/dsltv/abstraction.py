"""Attribute abstraction: finite proof domains for concrete specifications.

Guards, property constraints, and copy bindings determine which attributes
are observable.  Observable unbounded integers are partitioned into maximal
intervals by the constants of their predicates; observable unbounded strings
become the referenced literals plus a catch-all word; everything unobserved
collapses to a singleton.  The structural spec is untouched, so a synthesized
proof spec differs from its concrete source only in attribute domains.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .spec_ast import (
    AttributeDecl, ClassDecl, CopyBinding, IntSet, IntUnbounded, Metamodel,
    Specification, StringUnbounded, StringVocab, compare,
)

_BIG = 10 ** 9


@dataclass(frozen=True)
class IntBlock:
    lo: object  # int or None for -inf
    hi: object  # int or None for +inf

    @property
    def rep(self):
        if self.lo is not None:
            return self.lo
        if self.hi is not None:
            return self.hi
        return 0


@dataclass(frozen=True)
class StringBlock:
    value: object  # literal, or None for the catch-all block
    other_word: str = "OTHER"

    @property
    def rep(self):
        return self.value if self.value is not None else self.other_word


@dataclass
class AbstractionMap:
    # (metamodel, class, attr) -> list of IntBlock | StringBlock
    blocks: dict = field(default_factory=dict)

    def to_json(self):
        out = {}
        for (mm, cls, attr), blocks in sorted(self.blocks.items()):
            entry = []
            for b in blocks:
                if isinstance(b, IntBlock):
                    entry.append({"kind": "interval", "lo": b.lo, "hi": b.hi,
                                  "rep": b.rep})
                else:
                    entry.append({"kind": "value", "value": b.value,
                                  "rep": b.rep})
            out[f"{mm}.{cls}.{attr}"] = entry
        return out


@dataclass
class AbstractionReport:
    observables: list
    predicate_outcomes: list  # (location, predicate text, ok flag)

    @property
    def valid(self):
        return all(ok for _, _, ok in self.predicate_outcomes)


class AbstractionError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Observables
# ---------------------------------------------------------------------------

def _declaring_class(mm, klass, attr):
    """The class on `klass`'s inheritance chain that declares `attr`."""
    cmap = mm.class_map()
    for c in mm.info[klass].ancestors:
        if any(a.name == attr for a in cmap[c].attributes):
            return c
    raise KeyError(f"{klass}.{attr} not declared in metamodel {mm.name}")


def collect_observables(spec):
    """(metamodel, declaring class, attribute) -> list of (op, value).

    Observability sources: rule match guards, property attribute constraints,
    literal apply bindings (as equality predicates), and copy bindings, which
    propagate the target attribute's predicates back to the copied source
    attribute (and vice versa, keeping the two partitions aligned).  A copy
    from a finite source domain observes each of its values (as equality
    predicates on the target attribute), so that every value copied has a
    block of its own in an abstracted target.
    """
    preds = {}

    def mm_of_class(klass):
        mm, _ = spec.find_class(klass)
        return mm

    def note(mm, klass, attr, op, value):
        key = (mm.name, _declaring_class(mm, klass, attr), attr)
        preds.setdefault(key, []).append((op, value))

    def note_pattern(pattern):
        for e in pattern.elements:
            for c in e.constraints:
                note(mm_of_class(e.klass), e.klass, c.attr, c.op, c.value)

    copy_pairs = []
    for t in spec.transformations:
        src_mm = spec.metamodel(t.source)
        tgt_mm = spec.metamodel(t.target)
        for _, rule in t.all_rules():
            note_pattern(rule.match)
            match_map = rule.match.element_map()
            for ae in rule.apply.elements:
                for b in ae.bindings:
                    if isinstance(b.value, CopyBinding):
                        src_el = match_map[b.value.element]
                        copy_pairs.append((
                            (src_mm.name,
                             _declaring_class(src_mm, src_el.klass,
                                              b.value.attr), b.value.attr),
                            (tgt_mm.name,
                             _declaring_class(tgt_mm, ae.klass, b.attr),
                             b.attr)))
                        # the copy keeps every value of a finite source
                        src_dom = src_mm.info[src_el.klass].attributes[
                            b.value.attr]
                        if src_dom.is_finite():
                            for v in src_dom.values():
                                note(tgt_mm, ae.klass, b.attr, "==", v)
                    else:
                        note(tgt_mm, ae.klass, b.attr, "==", b.value)
    for p in spec.properties:
        note_pattern(p.precondition)
        note_pattern(p.postcondition)

    # propagate predicates across copy-linked attribute groups (union-find)
    parent = {}

    def find(x):
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in copy_pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    groups = {}
    for key in set(list(preds) + list(parent)):
        groups.setdefault(find(key), set()).add(key)
    merged = {}
    for members in groups.values():
        combined = []
        for m in members:
            combined.extend(preds.get(m, []))
        for m in members:
            merged[m] = combined
    for key, ps in preds.items():
        merged.setdefault(key, ps)
    return merged


# ---------------------------------------------------------------------------
# Synthesis
# ---------------------------------------------------------------------------

def _int_blocks(predicates):
    """Maximal intervals on which every predicate is constant."""
    cuts = set()
    for op, v in predicates:
        if not isinstance(v, int) or isinstance(v, bool):
            raise AbstractionError(
                f"non-integer constant {v!r} in integer predicate")
        if op in ("==", "!="):
            cuts.add(v)
            cuts.add(v + 1)
        elif op == "<":
            cuts.add(v)
        elif op == "<=":
            cuts.add(v + 1)
        elif op == ">":
            cuts.add(v + 1)
        elif op == ">=":
            cuts.add(v)
        else:
            raise AbstractionError(f"unsupported predicate operator {op!r}")
    points = sorted(cuts)
    if not points:
        return [IntBlock(None, None)]
    blocks = [IntBlock(None, points[0] - 1)]
    for a, b in zip(points, points[1:]):
        blocks.append(IntBlock(a, b - 1))
    blocks.append(IntBlock(points[-1], None))
    return blocks


def _string_blocks(predicates):
    literals = []
    for op, v in predicates:
        if op not in ("==", "!="):
            raise AbstractionError(
                f"unsupported string predicate operator {op!r}")
        if not isinstance(v, str):
            raise AbstractionError(f"non-string constant {v!r}")
        if v not in literals:
            literals.append(v)
    return [StringBlock(v) for v in sorted(literals)] + [StringBlock(None)]


def _other_word(literals):
    w = "OTHER"
    while w in literals:
        w += "_"
    return w


def synthesize_abstraction(spec):
    """Rewrite every infinite attribute domain to a finite proof domain."""
    observables = collect_observables(spec)
    amap = AbstractionMap()
    new_mms = []
    for mm in spec.metamodels:
        classes = []
        for c in mm.classes:
            attrs = []
            for a in c.attributes:
                key = (mm.name, c.name, a.name)
                dom = a.domain
                if dom.is_finite():
                    attrs.append(a)
                    continue
                preds = observables.get(key, [])
                if isinstance(dom, IntUnbounded):
                    blocks = _int_blocks(preds) if preds \
                        else [IntBlock(None, None)]
                    amap.blocks[key] = blocks
                    dom = IntSet(tuple(sorted({b.rep for b in blocks})))
                elif isinstance(dom, StringUnbounded):
                    blocks = _string_blocks(preds) if preds \
                        else [StringBlock(None)]
                    literals = [b.value for b in blocks
                                if b.value is not None]
                    other = _other_word(literals)
                    blocks = [StringBlock(b.value, other) for b in blocks]
                    amap.blocks[key] = blocks
                    dom = StringVocab(tuple(literals + [other]))
                else:
                    raise AbstractionError(
                        f"cannot abstract domain {dom!r}")
                attrs.append(AttributeDecl(a.name, dom))
            classes.append(ClassDecl(c.name, c.abstract, c.parent,
                                     tuple(attrs)))
        new_mms.append(Metamodel(mm.name, tuple(classes), mm.enums,
                                 mm.associations))
    proof = Specification(tuple(new_mms), spec.transformations,
                          spec.properties)
    return proof, amap


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def validate_abstraction(spec, amap):
    """Every predicate over an abstracted attribute must be constant on each
    abstraction block."""
    observables = collect_observables(spec)
    outcomes = []
    for key, preds in sorted(observables.items()):
        if key not in amap.blocks:
            continue
        blocks = amap.blocks[key]
        for op, c in preds:
            text = f"{key[1]}.{key[2]} {op} {c!r}"
            ok = True
            for b in blocks:
                if isinstance(b, IntBlock):
                    lo = b.lo if b.lo is not None else -_BIG
                    hi = b.hi if b.hi is not None else _BIG
                    probes = {lo, hi, min(hi, lo + 1), b.rep}
                    vals = {compare(op, x, c) for x in probes}
                    if len(vals) > 1:
                        ok = False
                else:
                    if b.value is None:
                        # catch-all: constant iff the constant has its own block
                        separated = any(b2.value == c for b2 in blocks
                                        if isinstance(b2, StringBlock))
                        if not separated:
                            ok = False
                    # singleton blocks are trivially constant
            outcomes.append((f"{key[0]}.{key[1]}.{key[2]}", text, ok))
    return AbstractionReport(sorted(amap.blocks), outcomes)


# ---------------------------------------------------------------------------
# Abstract-typed property elements
# ---------------------------------------------------------------------------

def flatten_property(prop, spec):
    """The properties to verify for `prop`: always ``[prop]`` itself.

    An abstract-typed pattern element is not split into one variant per
    concrete subtype.  The cutoff, the encoder and the concrete check all
    range it over every concrete subtype, so one run verifies and confirms
    the user's own property; requiring every variant of an existential
    postcondition element to hold reported false violations.  The name and
    the list result remain because perfbench/tracer.py wraps this function
    and counts its result as ``abstraction.variants``.

    Raises AbstractionError when an abstract element has no concrete
    subtype, which makes the property vacuous.
    """
    for pattern in (prop.precondition, prop.postcondition):
        for e in pattern.elements:
            mm, _ = spec.find_class(e.klass)
            ci = mm.info[e.klass]
            if ci.abstract and not ci.subtypes:
                raise AbstractionError(
                    f"abstract class {e.klass} has no concrete subtypes; "
                    f"property {prop.name} is vacuous")
    return [prop]
