"""Encoding of the bounded verification problem as SMT-LIB 2 text.

World: per concrete class, a bounded number of slots with existence booleans,
finite-domain integer attribute variables, and boolean link matrices.
Rules: one firing boolean per injective source binding, defined as the
conjunction of existence, links, guards, and backward resolution; fresh apply
elements get integer slot-choice variables with at-most-one-creator, and a
target slot exists iff exactly one firing claims it.  Traces are implicit in
the firing structure.  The query asserts some precondition binding holds and
no postcondition witness exists for it; sat means counterexample.

Every problem breaks the symmetry between target slots of one concrete
class with two constraints:

- value precedence: walking the creations (fresh apply elements of every
  firing, in encoding order), a creation may claim the class-c slot j only
  if j <= r_c, the number of earlier creations whose candidate slots
  include a class-c slot.  A choice's declared range ends at its last
  allowed value, which is all a choice among one class's slots needs; a
  choice that also spans subclass slots excludes the values below that
  one by one;
- ordered existence: ex_t_c_{j+1} => ex_t_c_j.

Both are sound.  Within one concrete class, target slots are
interchangeable everywhere in the encoding: existence, attributes, links
and their upper bounds, claims, backward cases, postcondition bindings and
trace terms.  Every existing slot is claimed by exactly one firing
creation, so renumbering each class's slots in the order in which firing
creations claim them maps any model to one that meets both constraints; a
creation that does not fire leaves its choice free, and slot 0 of each
class is always allowed.  The constraints change the search, never the
verdict.  ``EncodeOptions.symmetry_break`` (``--symmetry-break``, off by
default) adds ordered existence on the source side only.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .inheritance import flatten_inheritance_info, is_subtype
from .model import Element, Link, TraceLink, model_from_parts
from .spec_ast import (
    BoolDomain, CopyBinding, EnumRef, EnumValue, IntRange, IntSet,
    StringVocab,
)


class EncodingCeilingError(Exception):
    """Raised when binding enumeration exceeds the configured ceiling."""


@dataclass
class EncodeOptions:
    factored: bool = True
    lazy_closure: bool = True
    symmetry_break: bool = False
    binding_ceiling: int = 200_000
    layer_indices: tuple = None   # fragment; None = all layers
    rule_names: frozenset = None  # relevant subset; None = all rules


@dataclass
class EncodedProblem:
    text: str
    varmap: dict
    deferred: list            # withheld lower-bound assertions (lazy closure)
    source_slots: dict        # class -> slot count (concrete classes)
    target_slots: dict
    pre_bindings: list        # the enumerated precondition bindings
    metadata: dict = field(default_factory=dict)

    def with_extra_assertions(self, assertions):
        lines = self.text.splitlines()
        tail_at = lines.index("(check-sat)")
        new = lines[:tail_at] + list(assertions) + lines[tail_at:]
        return EncodedProblem("\n".join(new), self.varmap, self.deferred,
                              self.source_slots, self.target_slots,
                              self.pre_bindings, self.metadata)


# -- attribute value codecs --------------------------------------------------

def _domain_codec(domain):
    """(encode(value)->int, decode(int)->value, lo, hi, sparse values or None)"""
    if isinstance(domain, BoolDomain):
        return (lambda v: 1 if v else 0), (lambda i: bool(i)), 0, 1, None
    if isinstance(domain, IntRange):
        return (lambda v: v), (lambda i: i), domain.lo, domain.hi, None
    if isinstance(domain, IntSet):
        m = domain.members
        return (lambda v: v), (lambda i: i), min(m), max(m), list(m)
    if isinstance(domain, StringVocab):
        idx = {w: i for i, w in enumerate(domain.words)}
        return (lambda v: idx[v]), (lambda i: domain.words[i]), 0, \
            len(domain.words) - 1, None
    if isinstance(domain, EnumRef):
        idx = {l: i for i, l in enumerate(domain.literals)}
        return (lambda v: idx[v.literal]),  \
            (lambda i: EnumValue(domain.enum, domain.literals[i])), 0, \
            len(domain.literals) - 1, None
    raise EncodingCeilingError(f"infinite attribute domain {domain!r}")


class _World:
    """One side (source or target) of the bounded world."""

    def __init__(self, tag, mm, info, bounds):
        self.tag = tag
        self.mm = mm
        self.info = info
        self.slots = {c: bounds.get(c, 0) for c in info
                      if not info[c].abstract and bounds.get(c, 0) > 0}

    def all_slots(self, klass):
        """(concrete class, index) pairs compatible with a declared class."""
        out = []
        for c in sorted(self.slots):
            if is_subtype(self.info, c, klass):
                out.extend((c, i) for i in range(self.slots[c]))
        return out

    def ex(self, c, i):
        return f"ex_{self.tag}_{c}_{i}"

    def at(self, c, i, attr):
        return f"at_{self.tag}_{c}_{i}_{attr}"

    def ln(self, assoc, cs, i, ct, j):
        return f"ln_{self.tag}_{assoc}_{cs}_{i}_{ct}_{j}"


def _and(terms):
    terms = [t for t in terms if t != "true"]
    if any(t == "false" for t in terms):
        return "false"
    if not terms:
        return "true"
    if len(terms) == 1:
        return terms[0]
    return "(and " + " ".join(terms) + ")"


def _or(terms):
    terms = [t for t in terms if t != "false"]
    if any(t == "true" for t in terms):
        return "true"
    if not terms:
        return "false"
    if len(terms) == 1:
        return terms[0]
    return "(or " + " ".join(terms) + ")"


def _not(t):
    if t == "true":
        return "false"
    if t == "false":
        return "true"
    return f"(not {t})"


def _exactly_one(terms):
    if not terms:
        return "false"
    at_least = _or(terms)
    pairs = [_not(_and([a, b])) for a, b in itertools.combinations(terms, 2)]
    return _and([at_least] + pairs)


def _cmp_atom(op, var, value):
    if op == "==":
        return f"(= {var} {value})"
    if op == "!=":
        return f"(not (= {var} {value}))"
    return f"({op} {var} {value})"


class Encoder:
    def __init__(self, spec, prop, bounds, options, transformation=None):
        self.spec = spec
        self.prop = prop
        self.options = options
        self.t = transformation or spec.transformations[0]
        self.src_mm = spec.metamodel(self.t.source)
        self.tgt_mm = spec.metamodel(self.t.target)
        self.src_info = flatten_inheritance_info(self.src_mm)
        self.tgt_info = flatten_inheritance_info(self.tgt_mm)
        self.src = _World("s", self.src_mm, self.src_info, bounds.source)
        self.tgt = _World("t", self.tgt_mm, self.tgt_info, bounds.target)
        self.decls = []
        self.asserts = []
        self.deferred = []
        self.varmap = {}
        self.bool_vars = set()
        self.int_vars = {}
        self.firings = []   # (layer, rule, binding dict, fires var)
        self.n_firing_vars = 0

    # -- declarations --------------------------------------------------------

    def decl_bool(self, name, role=None):
        if name not in self.bool_vars:
            self.bool_vars.add(name)
            self.decls.append(f"(declare-const {name} Bool)")
            if role:
                self.varmap[name] = role
        return name

    def decl_int(self, name, lo, hi, role=None, sparse=None):
        if name not in self.int_vars:
            self.int_vars[name] = (lo, hi)
            self.decls.append(f"(declare-const {name} Int)")
            self.asserts.append(f"(assert (and (<= {lo} {name}) "
                                f"(<= {name} {hi})))")
            if sparse is not None and list(sparse) != list(range(lo, hi + 1)):
                self.asserts.append("(assert " + _or(
                    [f"(= {name} {v})" for v in sparse]) + ")")
            if role:
                self.varmap[name] = role
        return name

    # -- world ---------------------------------------------------------------

    def encode_world(self, world):
        for c in sorted(world.slots):
            for i in range(world.slots[c]):
                self.decl_bool(world.ex(c, i), ("exists", world.tag, c, i))
                for attr, dom in sorted(world.info[c].attributes.items()):
                    enc, dec, lo, hi, sparse = _domain_codec(dom)
                    name = world.at(c, i, attr)
                    self.decl_int(name, lo, hi,
                                  ("attr", world.tag, c, i, attr), sparse)
                    # nonexistent slots pin attributes to the default
                    self.asserts.append(
                        f"(assert (=> (not {world.ex(c, i)}) "
                        f"(= {name} {lo})))")
        for a in world.mm.associations:
            rows = world.all_slots(a.source)
            cols = world.all_slots(a.target)
            for cs, i in rows:
                for ct, j in cols:
                    v = self.decl_bool(world.ln(a.name, cs, i, ct, j),
                                       ("link", world.tag, a.name,
                                        cs, i, ct, j))
                    self.asserts.append(
                        f"(assert (=> {v} (and {world.ex(cs, i)} "
                        f"{world.ex(ct, j)})))")
            # upper bounds, eagerly
            if a.upper is not None:
                for cs, i in rows:
                    row = [world.ln(a.name, cs, i, ct, j) for ct, j in cols]
                    for subset in itertools.combinations(row, a.upper + 1):
                        self.asserts.append(
                            "(assert " + _not(_and(list(subset))) + ")")
            # lower bounds: only meaningful on the source world, where the
            # model is free; target structure is fixed by the rules
            if a.lower >= 1 and world is self.src:
                for cs, i in rows:
                    target = self.deferred if self.options.lazy_closure \
                        else self.asserts
                    row = [world.ln(a.name, cs, i, ct, j) for ct, j in cols]
                    need = _or([_and(list(sub)) for sub in
                                itertools.combinations(row, a.lower)])
                    target.append(
                        f"(assert (=> {world.ex(cs, i)} {need}))")
        # ordered existence: each class's slots exist as a prefix; always on
        # the target side (see the module docstring)
        if world is self.tgt or self.options.symmetry_break:
            for c in sorted(world.slots):
                for i in range(world.slots[c] - 1):
                    self.asserts.append(
                        f"(assert (=> {world.ex(c, i + 1)} "
                        f"{world.ex(c, i)}))")

    # -- pattern helpers -------------------------------------------------------

    def guard_term(self, world, c, i, constraints):
        terms = []
        for g in constraints:
            dom = world.info[c].attributes.get(g.attr)
            if dom is None:
                return "false"
            enc, dec, lo, hi, sparse = _domain_codec(dom)
            try:
                v = enc(g.value)
            except KeyError:
                # literal outside the finite domain: == never holds
                return "false" if g.op == "==" else "true"
            terms.append(_cmp_atom(g.op, world.at(c, i, attr=g.attr), v))
        return _and(terms)

    def enumerate_bindings(self, pattern, world):
        """Injective assignments of pattern elements to (class, slot) pairs,
        guards not included (they become formula terms)."""
        names = [e.name for e in pattern.elements]
        by_name = pattern.element_map()
        options = []
        for n in names:
            options.append(world.all_slots(by_name[n].klass))
        bindings = []
        for combo in itertools.product(*options):
            if len(set(combo)) != len(combo):
                continue
            bindings.append(dict(zip(names, combo)))
        return bindings

    def binding_term(self, pattern, world, binding):
        """existence + links + guards conjunction for one binding."""
        by_name = pattern.element_map()
        terms = []
        for n, (c, i) in binding.items():
            terms.append(world.ex(c, i))
            terms.append(self.guard_term(world, c, i,
                                         by_name[n].constraints))
        for l in pattern.links:
            cs, i = binding[l.source]
            ct, j = binding[l.target]
            a = world.mm.assoc_map()[l.assoc]
            if not (is_subtype(world.info, cs, a.source)
                    and is_subtype(world.info, ct, a.target)):
                return "false"
            terms.append(world.ln(l.assoc, cs, i, ct, j))
        return _and(terms)

    # -- rules ------------------------------------------------------------------

    def active_rules(self):
        out = []
        for li, layer in enumerate(self.t.layers):
            if self.options.layer_indices is not None \
                    and li not in self.options.layer_indices:
                continue
            for rule in layer.rules:
                if self.options.rule_names is not None \
                        and rule.name not in self.options.rule_names:
                    continue
                out.append((li, rule))
        return out

    def encode_rules(self):
        """Firing variables, fresh-element claims, backward resolution."""
        # first pass: firing and choice variables so later layers can refer
        # back to earlier creations
        firing_data = []  # (li, rule, bindings list)
        for li, rule in self.active_rules():
            bindings = self.enumerate_bindings(rule.match, self.src)
            self.n_firing_vars += len(bindings)
            if self.n_firing_vars > self.options.binding_ceiling:
                raise EncodingCeilingError(
                    f"binding enumeration exceeded ceiling "
                    f"{self.options.binding_ceiling}")
            firing_data.append((li, rule, bindings))

        fires_name = {}
        choice_name = {}
        creations = []  # (li, rule, bidx, apply element, fires, choice var)
        earlier = dict.fromkeys(self.tgt.slots, 0)  # r_c, value precedence
        for li, rule, bindings in firing_data:
            for bidx, binding in enumerate(bindings):
                fv = self.decl_bool(f"fr_{rule.name}_{bidx}",
                                    ("fires", rule.name, bidx))
                fires_name[(rule.name, bidx)] = fv
                self.firings.append((li, rule, binding, fv))
                for ae in rule.fresh_apply_elements():
                    slots = self.tgt.all_slots(ae.klass)
                    cv = f"ch_{rule.name}_{bidx}_{ae.name}"
                    # value precedence: the class-c slot j only if j <= r_c;
                    # the range ends at the last allowed value and the
                    # disallowed values below it are excluded one by one
                    allowed = [k for k, (c, j) in enumerate(slots)
                               if j <= earlier[c]]
                    hi = allowed[-1] if allowed else 0
                    self.decl_int(cv, 0, hi,
                                  ("choice", rule.name, bidx, ae.name))
                    for k in sorted(set(range(hi)) - set(allowed)):
                        self.asserts.append(f"(assert (not (= {cv} {k})))")
                    for c in {c for c, _ in slots}:
                        earlier[c] += 1
                    choice_name[(rule.name, bidx, ae.name)] = (cv, slots)
                    creations.append((li, rule, bidx, ae, fv, cv, slots))

        # backward resolution candidates: creations of earlier layers whose
        # binding maps some match element to the demanded source slot
        def backward_term(li, rule, bidx, binding):
            terms = []
            resolved = {}
            for apply_name, match_name in rule.backward:
                apply_el = rule.apply.element_map()[apply_name]
                src_slot = binding[match_name]
                cands = []
                for lj, r2, b2, ae2, fv2, cv2, slots2 in creations:
                    if lj >= li:
                        continue
                    if not is_subtype(self.tgt_info, ae2.klass,
                                      apply_el.klass):
                        continue
                    cands.append((r2, b2, ae2, fv2, cv2, slots2))
                # keep only candidates whose binding touches src_slot
                cands = [c for c in cands
                         if src_slot in self._binding_of(c[0].name, c[1],
                                                         firing_data).values()]
                resolved[apply_name] = cands
                terms.append(_exactly_one([fires_name[(c[0].name, c[1])]
                                           for c in cands]))
            return _and(terms), resolved

        # second pass: define each firing and wire up claims and links
        claims_by_slot = {}  # (class, slot idx) -> list of claim terms
        self.creation_index = []
        for li, rule, bindings in firing_data:
            for bidx, binding in enumerate(bindings):
                fv = fires_name[(rule.name, bidx)]
                match_term = self.binding_term(rule.match, self.src, binding)
                bw_term, bw_cands = backward_term(li, rule, bidx, binding)
                self.asserts.append(
                    f"(assert (= {fv} {_and([match_term, bw_term])}))")

                # slot expressions for apply elements
                fresh = {ae.name: ae for ae in rule.fresh_apply_elements()}

                def slot_cases(name):
                    """(condition, (class, slot)) cases for an apply element."""
                    if name in fresh:
                        cv, slots = choice_name[(rule.name, bidx, name)]
                        return [(f"(= {cv} {k})", slots[k])
                                for k in range(len(slots))]
                    cases = []
                    for (r2, b2, ae2, fv2, cv2, slots2) in bw_cands.get(
                            name, ()):
                        for k in range(len(slots2)):
                            cases.append((_and([fv2, f"(= {cv2} {k})"]),
                                          slots2[k]))
                    return cases

                # claims: firing picks a distinct existing slot per fresh
                # element and binds its attributes
                for ae in rule.fresh_apply_elements():
                    cv, slots = choice_name[(rule.name, bidx, ae.name)]
                    if not slots:
                        self.asserts.append(f"(assert (not {fv}))")
                        continue
                    for k, (c, j) in enumerate(slots):
                        claim = _and([fv, f"(= {cv} {k})"])
                        claims_by_slot.setdefault((c, j), []).append(claim)
                        self.creation_index.append(
                            (rule.name, bidx, ae.name, binding, claim, (c, j)))
                        bind_terms = [self.tgt.ex(c, j)]
                        for b in ae.bindings:
                            bind_terms.append(self._binding_assignment(
                                b, c, j, binding))
                        self.asserts.append(
                            f"(assert (=> {claim} {_and(bind_terms)}))")
                # same-class fresh elements must claim distinct slots
                fresh_list = list(rule.fresh_apply_elements())
                for x in range(len(fresh_list)):
                    for y in range(x + 1, len(fresh_list)):
                        ax, ay = fresh_list[x], fresh_list[y]
                        cvx, sx = choice_name[(rule.name, bidx, ax.name)]
                        cvy, sy = choice_name[(rule.name, bidx, ay.name)]
                        for kx, s1 in enumerate(sx):
                            for ky, s2 in enumerate(sy):
                                if s1 == s2:
                                    self.asserts.append(
                                        f"(assert (=> {fv} (not (and "
                                        f"(= {cvx} {kx}) "
                                        f"(= {cvy} {ky})))))")

                # apply links between chosen slots
                for l in rule.apply.links:
                    a = self.tgt_mm.assoc_map()[l.assoc]
                    for cond_s, (cs, i) in slot_cases(l.source):
                        for cond_t, (ct, j) in slot_cases(l.target):
                            if not (is_subtype(self.tgt_info, cs, a.source)
                                    and is_subtype(self.tgt_info, ct,
                                                   a.target)):
                                continue
                            self.asserts.append(
                                f"(assert (=> {_and([fv, cond_s, cond_t])} "
                                f"{self.tgt.ln(l.assoc, cs, i, ct, j)}))")

        # target existence iff claimed by exactly one creator
        for c in sorted(self.tgt.slots):
            for j in range(self.tgt.slots[c]):
                claims = claims_by_slot.get((c, j), [])
                self.asserts.append(
                    f"(assert (= {self.tgt.ex(c, j)} "
                    f"{_exactly_one(claims)}))")

    def _binding_of(self, rule_name, bidx, firing_data):
        for li, rule, bindings in firing_data:
            if rule.name == rule_name:
                return bindings[bidx]
        raise KeyError(rule_name)

    def _binding_assignment(self, b, c, j, binding):
        dom = self.tgt_info[c].attributes[b.attr]
        enc, dec, lo, hi, sparse = _domain_codec(dom)
        tvar = self.tgt.at(c, j, b.attr)
        if isinstance(b.value, CopyBinding):
            cs, i = binding[b.value.element]
            sdom = self.src_info[cs].attributes[b.value.attr]
            senc, sdec, slo, shi, ssparse = _domain_codec(sdom)
            svar = self.src.at(cs, i, b.value.attr)
            if type(sdom) is type(dom) and sdom == dom:
                return f"(= {tvar} {svar})"
            # translate value-by-value across differing finite domains
            cases = []
            for v in sdom.values():
                try:
                    cases.append(_and([f"(= {svar} {senc(v)})",
                                       f"(= {tvar} {enc(v)})"]))
                except KeyError:
                    continue
            return _or(cases)
        return f"(= {tvar} {enc(b.value)})"

    # -- traces ------------------------------------------------------------------

    def trace_term(self, src_slot, tgt_slot):
        """Disjunction over creations recording trace src_slot -> tgt_slot."""
        terms = []
        for rule_name, bidx, ae_name, binding, claim, placed in \
                self.creation_index:
            if placed != tgt_slot:
                continue
            if src_slot not in binding.values():
                continue
            terms.append(claim)
        return _or(terms)

    # -- property -------------------------------------------------------------------

    def encode_property(self):
        pre_bindings = self.enumerate_bindings(self.prop.precondition,
                                               self.src)
        self.pre_bindings = pre_bindings
        post_groups = self._post_components()

        cases = []
        for pidx, pre in enumerate(pre_bindings):
            sel = self.decl_bool(f"sel_{pidx}", ("select", pidx))
            pre_term = self.binding_term(self.prop.precondition, self.src,
                                         pre)
            comp_refuted = []
            for comp in post_groups:
                witnesses = []
                for post in self.enumerate_bindings(comp, self.tgt):
                    w = [self.binding_term(comp, self.tgt, post)]
                    for post_el, pre_el in self.prop.traces:
                        if post_el not in post:
                            continue
                        w.append(self.trace_term(pre[pre_el],
                                                 post[post_el]))
                    witnesses.append(_and(w))
                comp_refuted.append(_not(_or(witnesses)))
            no_witness = _or(comp_refuted) if comp_refuted else "false"
            self.asserts.append(
                f"(assert (=> {sel} {_and([pre_term, no_witness])}))")
            cases.append(sel)
        self.asserts.append("(assert " + _or(cases) + ")")

    def _post_components(self):
        """Postcondition split into connected components when factoring is on
        and the components' class sets are pairwise disjoint (so injectivity
        cannot couple them)."""
        from .spec_ast import PatternGraph
        post = self.prop.postcondition
        if not self.options.factored:
            return [post]
        parent = {e.name: e.name for e in post.elements}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for l in post.links:
            a, b = find(l.source), find(l.target)
            if a != b:
                parent[a] = b
        groups = {}
        for e in post.elements:
            groups.setdefault(find(e.name), []).append(e)
        if len(groups) <= 1:
            return [post]
        # class sets (expanded to concrete classes) must be pairwise disjoint
        concrete = []
        for members in groups.values():
            s = set()
            for e in members:
                s |= {c for c in self.tgt.slots
                      if is_subtype(self.tgt_info, c, e.klass)}
            concrete.append(s)
        for x in range(len(concrete)):
            for y in range(x + 1, len(concrete)):
                if concrete[x] & concrete[y]:
                    return [post]
        out = []
        for root, members in sorted(groups.items()):
            names = {e.name for e in members}
            links = tuple(l for l in post.links
                          if l.source in names and l.target in names)
            out.append(PatternGraph(tuple(members), links))
        return out

    # -- assembly ---------------------------------------------------------------------

    def encode(self):
        self.encode_world(self.src)
        self.encode_world(self.tgt)
        self.encode_rules()
        self.encode_property()
        lines = ["(set-logic QF_LIA)", "(set-option :produce-models true)"]
        lines += self.decls
        lines += self.asserts
        lines += ["(check-sat)", "(get-model)", "(exit)"]
        return EncodedProblem(
            "\n".join(lines), self.varmap, list(self.deferred),
            dict(self.src.slots), dict(self.tgt.slots),
            self.pre_bindings,
            {"factored": self.options.factored,
             "symmetryBreak": self.options.symmetry_break,
             "lazyClosure": self.options.lazy_closure,
             "firingVariables": self.n_firing_vars},
        )


def encode(spec, prop, bounds, options=None, transformation=None):
    options = options or EncodeOptions()
    enc = Encoder(spec, prop, bounds, options, transformation)
    problem = enc.encode()
    problem.metadata["encoder"] = enc
    return problem


# ---------------------------------------------------------------------------
# Decoding
# ---------------------------------------------------------------------------

def decode_counterexample(model, problem, spec, transformation=None):
    """Rebuild (source model, target model, violated precondition binding)
    from a sat assignment."""
    enc = problem.metadata["encoder"]
    t = transformation or spec.transformations[0]

    def truthy(name):
        return bool(model.get(name, False))

    def decode_world(world):
        elements = []
        for c in sorted(world.slots):
            for i in range(world.slots[c]):
                if not truthy(world.ex(c, i)):
                    continue
                attrs = {}
                for attr, dom in sorted(world.info[c].attributes.items()):
                    encf, dec, lo, hi, sparse = _domain_codec(dom)
                    raw = model.get(world.at(c, i, attr), lo)
                    try:
                        attrs[attr] = dec(raw)
                    except (IndexError, KeyError):
                        attrs[attr] = dec(lo)
                elements.append(Element(f"{world.tag}_{c}_{i}", c,
                                        tuple(sorted(attrs.items()))))
        ids = {e.id for e in elements}
        links = []
        for a in world.mm.associations:
            for cs, i in world.all_slots(a.source):
                for ct, j in world.all_slots(a.target):
                    if truthy(world.ln(a.name, cs, i, ct, j)):
                        s, g = f"{world.tag}_{cs}_{i}", f"{world.tag}_{ct}_{j}"
                        if s in ids and g in ids:
                            links.append(Link(a.name, s, g))
        return model_from_parts(elements, links)

    source = decode_world(enc.src)
    target = decode_world(enc.tgt)

    traces = set()
    for rule_name, bidx, ae_name, binding, claim, (c, j) in \
            enc.creation_index:
        if not truthy(f"fr_{rule_name}_{bidx}"):
            continue
        cv = f"ch_{rule_name}_{bidx}_{ae_name}"
        slots = enc.tgt.all_slots(
            _apply_class(enc, rule_name, ae_name))
        k = model.get(cv, 0)
        if k >= len(slots) or slots[k] != (c, j):
            continue
        for cs, i in binding.values():
            traces.add(TraceLink(f"s_{cs}_{i}", f"t_{c}_{j}"))
    target = model_from_parts(target.elements, target.links, traces)

    violated = None
    for pidx, pre in enumerate(problem.pre_bindings):
        if truthy(f"sel_{pidx}"):
            violated = {name: f"s_{c}_{i}" for name, (c, i) in pre.items()}
            break
    return source, target, violated


def _apply_class(enc, rule_name, ae_name):
    for _, rule in enc.t.all_rules():
        if rule.name == rule_name:
            return rule.apply.element_map()[ae_name].klass
    raise KeyError(rule_name)
