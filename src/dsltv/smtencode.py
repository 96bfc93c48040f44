"""Encoding of the bounded verification problem as SMT-LIB 2 text.

World: per concrete class, a bounded number of slots with existence booleans,
finite-domain integer attribute variables, and boolean link matrices.
Rules: one firing boolean per injective source binding, defined as the
conjunction of existence, links, guards, and backward resolution; fresh apply
elements get integer slot-choice variables with at-most-one-creator.  A
target slot exists iff exactly one firing claims it, asserted in three
parts: each claim implies that the slot exists (with the claim's attribute
bindings), the slot exists only if some claim holds, and at most one claim
holds.  The parts allow the same assignments as the iff with the first
part did.
Where the slot exists, the second and third parts leave exactly one claim;
where it does not, the first leaves none.  Conversely, the iff and the
first part already ruled out two claims at once, since both would make the
slot exist while "exactly one" fails.  Traces are implicit in the firing
structure.  The query asserts that some canonical precondition binding
holds and no postcondition witness exists for it; sat means
counterexample.

Every problem breaks the symmetry between the slots of one concrete class
with four constraints:

- ordered existence on both sides: ex_s_c_{i+1} => ex_s_c_i and
  ex_t_c_{j+1} => ex_t_c_j;
- target value precedence: walking the creations (fresh apply elements of
  every firing, in encoding order), a creation may claim the class-c slot j
  only if j <= r_c, the number of earlier creations whose candidate slots
  include a class-c slot.  A choice's declared range ends at its last
  allowed value; a choice that also spans subclass slots excludes the
  values below that one by one.  A claim on any other value would be false
  in every model, so claims, slot existence, traces, apply links and
  distinctness are written for the allowed values only;
- canonical precondition bindings: the query selects only bindings in which
  the pattern elements bound to concrete class c take slots 0, 1, ..., m-1
  of c in pattern-element order, one binding per assignment of elements to
  compatible classes (Crawford et al., KR 1996, pick one representative per
  orbit of a symmetry group; Kodkod does the same, Torlak & Jackson, TACAS
  2007).  Rule matches still enumerate every injective binding, since every
  firing is needed.

They are sound together.  Take any model without them, and the injective
precondition binding b that it selects.  Within one class, source slots are
interchangeable everywhere in the encoding (existence, attributes, links
and their multiplicities, the injective rule and precondition bindings, and
through those every firing, choice, backward case and trace term), so
renumbering each class with b's slots first, in pattern order,
then its other existing slots, then the absent ones, yields a model again.
b's slots exist (its binding term holds their existence), so source
existence is ordered, and b has become the canonical binding of its class
assignment.  Target slots are interchangeable in the same way and each
existing one is claimed by exactly one firing creation, so renumbering them
in claim order then meets both target constraints (a creation that does not
fire leaves its choice free, and slot 0 is always allowed) without touching
a source variable.  Source goes first because its renumbering permutes the
firings, and with them the creation order that value precedence reads.  So
a counterexample exists iff one exists whose violated binding is canonical.
The argument holds with or without the deferred multiplicities (below),
which are as symmetric as the rest, so it covers the relaxed first problem
that the lazy closure loop solves as well as the closed one.
``tests/test_smtencode.py`` checks verdicts against the brute-force oracle
with all four on.

Each claim ``(and fr (= ch k))``, trace term and binding term is written
once, as ``(define-fun d_n () Bool <body>)``, and every use refers to the
name (Kodkod's subformula sharing, Torlak & Jackson, TACAS 2007).  The claim
a backward case reads is the text of its creation's claim, so both get one
name.  The definitions follow the declarations, and a body only refers to
names made before it.  A defined name means its body, so verdicts cannot
change; the text no longer repeats a claim in every existence clause,
trace term, backward case and apply link.  An apply link's fresh end is
named by its claim, which holds the firing, so the link's antecedent leaves
the firing out whenever an end is fresh; the solver splices the same
literals either way.  The bundled solver compiles a
body at the name's first reference and reuses the literal.  Compiling the
body again in place of a later reference would only find the gates made the
first time, so the CNF is the one of the inlined text, clause for clause,
and the search is unchanged.

A postcondition whose connected components have pairwise disjoint concrete
class sets is refuted one component at a time: injectivity cannot couple
them, so a witness of the whole exists iff each component has one.

A source association upper bound ``[..k]`` limits each link row
x_0..x_{n-1} (the links out of one slot) with one term, ``(<= (+ (ite x_0 1
0) ... (ite x_{n-1} 1 0)) k)``, which the bundled solver grounds as Sinz's
sequential counter (see ``smtsolver``).  k = 0 becomes unit negations, and
a row of at most k links needs no constraint.  These terms and the lower
bounds ``[k..]``, with the assertions that the links they count have
existing ends, are deferred (``EncodedProblem.deferred``): the problem
text leaves them out, and ``smtrun.lazy_closure_loop`` adds them all only
when a model breaks one, as in counterexample-guided abstraction refinement
(Clarke et al., CAV 2000).  A first solve that answers unsat thus never
grounds a counter.  Target multiplicities are not encoded: the target is
what the rules make, neither execution nor the property checks it against
its metamodel, and a bound there would only throw out sources whose output
breaks it, turning their violations into a wrong HOLDS.  The "at most one
claim" part of target existence is the same term with k = 1 over the
slot's claims, conjoined with the slot's "exists only if claimed"
implication into one assertion.

The encoding is sliced to what the property can observe (cone of influence,
Clarke, Grumberg & Peled, *Model Checking*, 1999; Kodkod's slicing, Torlak
& Jackson, TACAS 2007).  The full encoding would declare every link of both
worlds, assert that each link's ends exist, and write every apply link.
The sliced one keeps less:

- a source association that no encoded rule's match and no precondition
  reads, and whose lower bound is 0, gets no links;
- a target association that the postcondition does not read gets no links;
- an apply link is written only for a pair of creations (the firing's own
  for a fresh end, a backward candidate otherwise) that some witness can
  read: for some canonical precondition binding and some postcondition link
  of the association, the creation behind each end holds, in its binding,
  the slots of every precondition element that the end's postcondition
  element is traced to (``_link_needs``).  An end traced to nothing needs
  nothing;
- a target link is declared by the first apply link that writes it, and a
  witness that needs a link no apply link writes is false;
- a link's ends must exist only where a lower bound counts the link, and
  that assertion is deferred with the lower bound (below).  Every other
  read of a link, in a binding term, sits next to the existence of both
  ends, and an upper bound only gains from a link fewer.

The slicing applies to the encoding with its symmetry breaking, and its
argument needs no symmetry.  Take a full model.  Each target link is true
wherever one of its apply links' conditions holds; make it true there only,
and only for the written apply links.  That removes links, and target links
are read only by witnesses, which the query negates, so the result is a
sliced model: unsat is kept.  Conversely, take a sliced model.  Make each
pruned source link false, clear each link whose slot at either end does not
exist, and make each target link true exactly where the condition of one of
its apply links, written or pruned, holds.  No binding term changes, so
firings, claims and traces stay as they were, and an apply link's condition
holds claims, which hold their slots' existence.  Every full assertion then
holds, except perhaps the query.  Suppose a witness for the selected
canonical binding b reads, for a postcondition link whose ends are traced
to b's slots S and T, a link that only a pruned apply link's condition made
true.  That condition holds the claims of the two creations behind the
apply link, and each existing target slot is claimed by exactly one
creation.  The witness's trace terms (``trace_term``) read only those
claims, so the two creations hold S and T, and the apply link was not
pruned.  Every other link the witness reads was true in the sliced model,
so the witness was there too, which the query rules out; sat is kept.
``decode_counterexample`` decodes the sliced model, with the links between
existing slots only: its target holds the links that the property reads.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field

from .inheritance import is_subtype
from .model import Element, Link, TraceLink, model_from_parts
from .spec_ast import (
    BoolDomain, CopyBinding, EnumRef, EnumValue, IntRange, IntSet,
    PatternGraph, StringVocab,
)


class _EncodingStopped(Exception):
    """An encoding given up before it was finished; `firing_variables` is
    the number of rule firings it had counted by then."""

    def __init__(self, message, firing_variables=0):
        super().__init__(message)
        self.firing_variables = firing_variables


class EncodingCeilingError(_EncodingStopped):
    """Raised when the rule firings or the emitted assertions exceed the
    configured ceiling."""


class EncodingDeadlineError(_EncodingStopped):
    """Raised when encoding runs past the deadline it was given."""


@dataclass
class EncodeOptions:
    binding_ceiling: int = 200_000
    rule_names: frozenset = None  # relevant subset; None = all rules


@dataclass
class EncodedProblem:
    text: str
    deferred: list            # withheld source multiplicity assertions,
                              # with the link-end ones lower bounds need
    source_slots: dict        # class -> slot count (concrete classes)
    target_slots: dict
    pre_bindings: list        # canonical precondition bindings, by sel_ index
    metadata: dict = field(default_factory=dict)

    def with_extra_assertions(self, assertions):
        lines = self.text.splitlines()
        tail_at = lines.index("(check-sat)")
        new = lines[:tail_at] + list(assertions) + lines[tail_at:]
        return EncodedProblem("\n".join(new), self.deferred,
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

    def __init__(self, tag, mm, bounds, assocs):
        self.tag = tag
        self.mm = mm
        self.slots = {c: bounds.get(c, 0) for c, ci in mm.info.items()
                      if not ci.abstract and bounds.get(c, 0) > 0}
        self.assocs = assocs  # the associations whose links are encoded

    def all_slots(self, klass):
        """(concrete class, index) pairs compatible with a declared class."""
        out = []
        for c in sorted(self.slots):
            if is_subtype(self.mm.info, c, klass):
                out.extend((c, i) for i in range(self.slots[c]))
        return out

    def element_id(self, c, i):
        return f"{self.tag}_{c}_{i}"

    def ex(self, c, i):
        return f"ex_{self.tag}_{c}_{i}"

    def at(self, c, i, attr):
        return f"at_{self.tag}_{c}_{i}_{attr}"

    def ln(self, assoc, cs, i, ct, j):
        return f"ln_{self.tag}_{assoc}_{cs}_{i}_{ct}_{j}"


def _and(terms):
    if "false" in terms:
        return "false"
    if "true" in terms:
        terms = [t for t in terms if t != "true"]
    if len(terms) > 1:
        return "(and " + " ".join(terms) + ")"
    return terms[0] if terms else "true"


def _or(terms):
    if "true" in terms:
        return "true"
    if "false" in terms:
        terms = [t for t in terms if t != "false"]
    if len(terms) > 1:
        return "(or " + " ".join(terms) + ")"
    return terms[0] if terms else "false"


def _not(t):
    if t == "true":
        return "false"
    if t == "false":
        return "true"
    return f"(not {t})"


def _exactly_one(terms):
    """Exactly one of ``terms`` holds.  They are names or compound terms,
    never the constants true and false."""
    if len(terms) <= 1:
        return terms[0] if terms else "false"
    pairs = " ".join(f"(not (and {a} {b}))"
                     for a, b in itertools.combinations(terms, 2))
    return f"(and (or {' '.join(terms)}) {pairs})"


def _at_most_term(terms, k):
    """At most ``k`` of ``terms`` hold, as the solver language writes it."""
    ones = " ".join(f"(ite {t} 1 0)" for t in terms)
    return f"(<= (+ {ones}) {k})"


def _int(n):
    """The SMT-LIB text of the Int constant ``n``: a numeral, or ``(- 2)``
    for -2, which SMT-LIB 2.6 would read as a symbol."""
    return str(n) if n >= 0 else f"(- {-n})"


def _cmp_atom(op, var, value):
    value = _int(value)
    if op == "==":
        return f"(= {var} {value})"
    if op == "!=":
        return f"(not (= {var} {value}))"
    return f"({op} {var} {value})"


class Encoder:
    def __init__(self, spec, prop, bounds, options, transformation,
                 deadline=None):
        self.spec = spec
        self.prop = prop
        self.options = options
        self.deadline = deadline  # time.monotonic() value, or None
        self.t = transformation
        # slicing (see the module docstring): the source links that a match
        # or the precondition reads, or that a lower bound demands, and the
        # target links that the postcondition reads
        src_mm = spec.metamodel(self.t.source)
        tgt_mm = spec.metamodel(self.t.target)
        read_s = {l.assoc for _, rule in self.active_rules()
                  for l in rule.match.links}
        read_s |= {l.assoc for l in prop.precondition.links}
        read_t = {l.assoc for l in prop.postcondition.links}
        self.src = _World("s", src_mm, bounds.source,
                          [a for a in src_mm.associations
                           if a.name in read_s or a.lower >= 1])
        self.tgt = _World("t", tgt_mm, bounds.target,
                          [a for a in tgt_mm.associations
                           if a.name in read_t])
        self.decls = []
        self.defs = []
        self.shared = {}          # Bool term text -> its defined name
        self.asserts = []
        self.deferred = []
        self.bool_vars = set()
        self.int_vars = set()
        self.n_firing_vars = 0
        self.counter_clauses = 0

    # -- declarations --------------------------------------------------------

    def decl_bool(self, name):
        if name not in self.bool_vars:
            self.bool_vars.add(name)
            self.decls.append(f"(declare-const {name} Bool)")
        return name

    def decl_int(self, name, lo, hi, sparse=None):
        if name not in self.int_vars:
            self.int_vars.add(name)
            self.decls.append(f"(declare-const {name} Int)")
            self.asserts.append(f"(assert (and (<= {_int(lo)} {name}) "
                                f"(<= {name} {_int(hi)})))")
            if sparse is not None and list(sparse) != list(range(lo, hi + 1)):
                self.asserts.append("(assert " + _or(
                    [f"(= {name} {_int(v)})" for v in sparse]) + ")")
        return name

    def claim(self, fv, cv, k):
        """The shared name of the claim that firing ``fv`` puts its fresh
        element in the ``k``-th slot its choice variable ``cv`` ranges
        over.  Slot cases and claim assertions both take it from here, so
        they always name the same term."""
        return self.share(_and([fv, f"(= {cv} {_int(k)})"]))

    def share(self, term):
        """A name for the Bool term ``term``: the first call with a compound
        term defines a fresh name for it, and every later call with the same
        text returns that name.  Names and constants come back as they
        are."""
        if not term.startswith("("):
            return term
        name = self.shared.get(term)
        if name is None:
            name = self.shared[term] = f"d_{len(self.shared)}"
            self.defs.append(f"(define-fun {name} () Bool {term})")
        return name

    # -- world ---------------------------------------------------------------

    def encode_world(self, world):
        for c in sorted(world.slots):
            for i in range(world.slots[c]):
                self.decl_bool(world.ex(c, i))
                for attr, dom in sorted(world.mm.info[c].attributes.items()):
                    enc, dec, lo, hi, sparse = _domain_codec(dom)
                    name = world.at(c, i, attr)
                    self.decl_int(name, lo, hi, sparse)
                    # nonexistent slots pin attributes to the default
                    self.asserts.append(
                        f"(assert (=> (not {world.ex(c, i)}) "
                        f"(= {name} {_int(lo)})))")
        # source links; a target link is declared by the first apply link
        # that writes it.  A link is read only next to the existence of both
        # its ends, so only a lower bound, which a link to a missing slot
        # could meet, needs the link's ends to exist; those assertions are
        # deferred with the bounds (see the module docstring)
        if world is self.src:
            for a in world.assocs:
                cols = world.all_slots(a.target)
                for cs, i in world.all_slots(a.source):
                    row = [self.decl_bool(world.ln(a.name, cs, i, ct, j))
                           for ct, j in cols]
                    if a.upper is not None:
                        self._at_most(row, a.upper)
                    if a.lower >= 1:
                        self.deferred.extend(
                            f"(assert (=> {v} (and {world.ex(cs, i)} "
                            f"{world.ex(ct, j)})))"
                            for v, (ct, j) in zip(row, cols))
                        need = _or([_and(list(sub)) for sub in
                                    itertools.combinations(row, a.lower)])
                        self.deferred.append(
                            f"(assert (=> {world.ex(cs, i)} {need}))")
        # ordered existence: each class's slots exist as a prefix (see the
        # module docstring)
        for c in sorted(world.slots):
            for i in range(world.slots[c] - 1):
                self.asserts.append(
                    f"(assert (=> {world.ex(c, i + 1)} {world.ex(c, i)}))")

    def _at_most(self, lits, k):
        """Defer the assertion that at most k of ``lits`` hold (see the
        module docstring)."""
        n = len(lits)
        if n <= k:
            return
        if k == 0:
            self.deferred.extend(f"(assert {_not(x)})" for x in lits)
            return
        self.deferred.append(f"(assert {_at_most_term(lits, k)})")
        # the ceiling counts the term as the counter clauses it stands for
        self.counter_clauses += 2 * n * k + n - 3 * k - 2

    def checkpoint(self):
        """Stop the encoding once its firings or its emitted assertions pass
        the binding ceiling, or once its deadline has passed."""
        emitted = len(self.asserts) + len(self.deferred) \
            + self.counter_clauses
        ceiling = self.options.binding_ceiling
        if self.n_firing_vars > ceiling or emitted > ceiling:
            raise EncodingCeilingError(
                f"encoding exceeded ceiling {ceiling} ({self.n_firing_vars} "
                f"firings, {emitted} assertions)", self.n_firing_vars)
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise EncodingDeadlineError("deadline reached while encoding",
                                        self.n_firing_vars)

    # -- pattern helpers -------------------------------------------------------

    def guard_term(self, world, c, i, constraints):
        terms = []
        for g in constraints:
            dom = world.mm.info[c].attributes.get(g.attr)
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

    def canonical_bindings(self, pattern, world):
        """One injective binding per assignment of pattern elements to
        compatible concrete classes: the elements bound to class c take
        slots 0, 1, ... of c in pattern order, and an assignment that puts
        more elements on c than c has slots has no binding.  Every injective
        binding is a renumbering of one of these within each class (see the
        module docstring)."""
        names = [e.name for e in pattern.elements]
        options = [[c for c in sorted(world.slots)
                    if is_subtype(world.mm.info, c, e.klass)]
                   for e in pattern.elements]
        bindings = []
        for combo in itertools.product(*options):
            taken = dict.fromkeys(combo, 0)
            binding = {}
            for n, c in zip(names, combo):
                binding[n] = (c, taken[c])
                taken[c] += 1
            if all(taken[c] <= world.slots[c] for c in taken):
                bindings.append(binding)
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
            if not (is_subtype(world.mm.info, cs, a.source)
                    and is_subtype(world.mm.info, ct, a.target)):
                return "false"
            link = world.ln(l.assoc, cs, i, ct, j)
            if world is self.tgt and link not in self.written_links:
                return "false"  # no apply link writes it
            terms.append(link)
        return self.share(_and(terms))

    # -- rules ------------------------------------------------------------------

    def active_rules(self):
        out = []
        for li, layer in enumerate(self.t.layers):
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
            self.checkpoint()
            firing_data.append((li, rule, bindings))

        fires_name = {}
        # (rule, binding index, apply element) -> (choice, allowed), where
        # allowed lists the (value, slot) pairs the choice may take; a claim
        # on any other value is false in every model, so none is written
        choice_name = {}
        # source slot -> [(li, apply element, creation)] of the creations
        # whose binding holds it, in creation order; a creation is (source
        # slots of its binding, fires, choice, allowed)
        creations_of = {}
        earlier = dict.fromkeys(self.tgt.slots, 0)  # r_c, value precedence
        for li, rule, bindings in firing_data:
            for bidx, binding in enumerate(bindings):
                fv = self.decl_bool(f"fr_{rule.name}_{bidx}")
                fires_name[(rule.name, bidx)] = fv
                src_slots = frozenset(binding.values())
                for ae in rule.fresh_apply_elements():
                    slots = self.tgt.all_slots(ae.klass)
                    cv = f"ch_{rule.name}_{bidx}_{ae.name}"
                    # value precedence: the class-c slot j only if j <= r_c;
                    # the range ends at the last allowed value and the
                    # disallowed values below it are excluded one by one
                    allowed = [(k, (c, j)) for k, (c, j) in enumerate(slots)
                               if j <= earlier[c]]
                    hi = allowed[-1][0] if allowed else 0
                    self.decl_int(cv, 0, hi)
                    for k in sorted(set(range(hi)) - {k for k, _ in allowed}):
                        self.asserts.append(
                            f"(assert (not (= {cv} {_int(k)})))")
                    for c in {c for c, _ in slots}:
                        earlier[c] += 1
                    choice_name[(rule.name, bidx, ae.name)] = (cv, allowed)
                    for src_slot in src_slots:
                        creations_of.setdefault(src_slot, []).append(
                            (li, ae, (src_slots, fv, cv, allowed)))

        # backward resolution candidates: creations of earlier layers whose
        # binding maps some match element to the demanded source slot
        def backward_term(li, rule, binding):
            terms = []
            resolved = {}
            for apply_name, match_name in rule.backward:
                apply_el = rule.apply.element_map()[apply_name]
                src_slot = binding[match_name]
                cands = [creation for lj, ae2, creation
                         in creations_of.get(src_slot, ())
                         if lj < li and is_subtype(self.tgt.mm.info, ae2.klass,
                                                   apply_el.klass)]
                resolved[apply_name] = cands
                terms.append(_exactly_one([c[1] for c in cands]))
            return _and(terms), resolved

        # second pass: define each firing and wire up claims and links
        # (class, slot idx) -> [(source slots of the binding, claim term)]
        self.claims_by_slot = {}
        self.creation_index = []  # (binding, slot, fires, choice, k)
        self.written_links = set()  # target links some apply link writes
        for li, rule, bindings in firing_data:
            for bidx, binding in enumerate(bindings):
                self.checkpoint()
                fv = fires_name[(rule.name, bidx)]
                match_term = self.binding_term(rule.match, self.src, binding)
                bw_term, bw_cands = backward_term(li, rule, binding)
                self.asserts.append(
                    f"(assert (= {fv} {_and([match_term, bw_term])}))")

                src_slots = frozenset(binding.values())
                fresh = {ae.name: ae for ae in rule.fresh_apply_elements()}

                def creations(name):
                    """The creations that may put apply element ``name`` in
                    a slot: this firing's for a fresh element, else the
                    backward candidates."""
                    if name in fresh:
                        return [(src_slots, fv,
                                 *choice_name[(rule.name, bidx, name)])]
                    return bw_cands.get(name, ())

                # claims: firing picks a distinct existing slot per fresh
                # element and binds its attributes
                for ae in rule.fresh_apply_elements():
                    cv, allowed = choice_name[(rule.name, bidx, ae.name)]
                    if not allowed:
                        self.asserts.append(f"(assert (not {fv}))")
                        continue
                    for k, (c, j) in allowed:
                        claim = self.claim(fv, cv, k)
                        self.claims_by_slot.setdefault((c, j), []).append(
                            (src_slots, claim))
                        self.creation_index.append((binding, (c, j), fv, cv, k))
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
                        for kx, s1 in sx:
                            for ky, s2 in sy:
                                if s1 == s2:
                                    self.asserts.append(
                                        f"(assert (=> {fv} (not (and "
                                        f"(= {cvx} {_int(kx)}) "
                                        f"(= {cvy} {_int(ky)})))))")

                # apply links between chosen slots
                for l in rule.apply.links:
                    # a fresh end's claim already holds fv
                    lead = [] if l.source in fresh or l.target in fresh \
                        else [fv]
                    self._apply_links(l, lead, creations(l.source),
                                      creations(l.target))

        # target existence; each claim's assertion above gives claim => ex
        slots = [(c, j) for c in sorted(self.tgt.slots)
                 for j in range(self.tgt.slots[c])]
        for c, j in slots:
            claims = [claim for _, claim
                      in self.claims_by_slot.get((c, j), ())]
            self.asserts.append(
                self._slot_existence(self.tgt.ex(c, j), claims))

    def _apply_links(self, l, lead, ends_s, ends_t):
        """Assert apply link ``l`` between each pair of slots that the
        creations ``ends_s`` and ``ends_t`` may claim, for the pairs of
        creations whose link a witness can read (see the module docstring).
        ``lead`` holds the firing when neither end's claim does."""
        needs = self.link_needs.get(l.assoc)
        if not needs:
            return
        a = self.tgt.mm.assoc_map()[l.assoc]
        for end_s in ends_s:
            needs_t = [nt for ns, nt in needs if ns <= end_s[0]]
            kept = [end_t for end_t in ends_t
                    if any(nt <= end_t[0] for nt in needs_t)]
            if not kept:  # before _slot_cases names any claim
                continue
            for cond_s, (cs, i) in self._slot_cases(end_s, a.source):
                for end_t in kept:
                    for cond_t, (ct, j) in self._slot_cases(end_t, a.target):
                        cond = _and(lead + [cond_s, cond_t])
                        link = self.tgt.ln(l.assoc, cs, i, ct, j)
                        self.written_links.add(self.decl_bool(link))
                        self.asserts.append(f"(assert (=> {cond} {link}))")

    def _slot_cases(self, creation, klass):
        """(claim, (class, slot)) for each slot of a class compatible with
        ``klass`` that ``creation`` may claim."""
        _, fv, cv, allowed = creation
        return [(self.claim(fv, cv, k), (c, j)) for k, (c, j) in allowed
                if is_subtype(self.tgt.mm.info, c, klass)]

    def _link_needs(self):
        """Target association the postcondition reads -> the (source end,
        target end) pairs of source-slot sets, one per canonical
        precondition binding and postcondition link of it: the slots of the
        precondition elements that the link's end elements are traced to.
        An apply link is read by a witness only if the creations behind its
        ends hold both sets of some pair (see the module docstring)."""
        traced = {}
        for post_el, pre_el in self.prop.traces:
            traced.setdefault(post_el, []).append(pre_el)
        needs = {}
        for l in self.prop.postcondition.links:
            pairs = needs.setdefault(l.assoc, set())
            for pre in self.pre_bindings:
                pairs.add(tuple(frozenset(pre[e] for e in traced.get(end, ()))
                                for end in (l.source, l.target)))
        return needs

    def _slot_existence(self, ex, claims):
        """One assertion: target slot ``ex`` exists only if one of its
        ``claims`` holds, and at most one of them holds.  With ``claim =>
        ex`` for every claim this says ``ex`` iff exactly one claim holds
        (see the module docstring)."""
        parts = [f"(=> {ex} {_or(claims)})"]
        if len(claims) > 1:
            parts.append(_at_most_term(claims, 1))
        return f"(assert {_and(parts)})"

    def _binding_assignment(self, b, c, j, binding):
        dom = self.tgt.mm.info[c].attributes[b.attr]
        enc, dec, lo, hi, sparse = _domain_codec(dom)
        tvar = self.tgt.at(c, j, b.attr)
        if isinstance(b.value, CopyBinding):
            cs, i = binding[b.value.element]
            sdom = self.src.mm.info[cs].attributes[b.value.attr]
            senc, sdec, slo, shi, ssparse = _domain_codec(sdom)
            svar = self.src.at(cs, i, b.value.attr)
            if type(sdom) is type(dom) and sdom == dom:
                return f"(= {tvar} {svar})"
            # translate value-by-value across differing finite domains; the
            # parser and the abstraction keep every source value in the
            # target domain, so each value has its case
            return _or([_and([f"(= {svar} {_int(senc(v))})",
                              f"(= {tvar} {_int(enc(v))})"])
                        for v in sdom.values()])
        return f"(= {tvar} {_int(enc(b.value))})"

    # -- traces ------------------------------------------------------------------

    def trace_term(self, src_slot, tgt_slot):
        """Disjunction over creations recording trace src_slot -> tgt_slot."""
        return self.share(_or([claim for src_slots, claim
                               in self.claims_by_slot.get(tgt_slot, ())
                               if src_slot in src_slots]))

    # -- property -------------------------------------------------------------------

    def encode_property(self):
        post_groups = self._post_components()

        cases = []
        for pidx, pre in enumerate(self.pre_bindings):
            self.checkpoint()
            sel = self.decl_bool(f"sel_{pidx}")
            pre_term = self.binding_term(self.prop.precondition, self.src,
                                         pre)
            comp_refuted = []
            for comp in post_groups:
                witnesses = []
                for post in self.enumerate_bindings(comp, self.tgt):
                    w = [self.trace_term(pre[pre_el], post[post_el])
                         for post_el, pre_el in self.prop.traces
                         if post_el in post]
                    if "false" not in w:
                        w.append(self.binding_term(comp, self.tgt, post))
                        witnesses.append(_and(w))
                comp_refuted.append(_not(_or(witnesses)))
            no_witness = _or(comp_refuted) if comp_refuted else "false"
            self.asserts.append(
                f"(assert (=> {sel} {_and([pre_term, no_witness])}))")
            cases.append(sel)
        self.asserts.append("(assert " + _or(cases) + ")")

    def _post_components(self):
        """Postcondition split into connected components when their class
        sets are pairwise disjoint (so injectivity cannot couple them)."""
        post = self.prop.postcondition
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
                      if is_subtype(self.tgt.mm.info, c, e.klass)}
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
        self.pre_bindings = self.canonical_bindings(self.prop.precondition,
                                                    self.src)
        self.link_needs = self._link_needs()
        self.encode_rules()
        self.encode_property()
        lines = ["(set-logic QF_LIA)", "(set-option :produce-models true)"]
        lines += self.decls
        lines += self.defs
        lines += self.asserts
        lines += ["(check-sat)", "(get-model)", "(exit)"]
        return EncodedProblem(
            "\n".join(lines), list(self.deferred),
            dict(self.src.slots), dict(self.tgt.slots),
            self.pre_bindings,
            {"firingVariables": self.n_firing_vars},
        )


def encode(spec, prop, bounds, options, transformation, deadline=None):
    """The problem text and decoding data; raises EncodingCeilingError or
    EncodingDeadlineError when the encoding outgrows its limits."""
    enc = Encoder(spec, prop, bounds, options, transformation, deadline)
    problem = enc.encode()
    problem.metadata["encoder"] = enc
    return problem


# ---------------------------------------------------------------------------
# Decoding
# ---------------------------------------------------------------------------

def decode_world(model, world):
    """The instance model held by `world`'s slots in a sat assignment:
    the existing elements with their attribute values, and the links
    between them."""
    def truthy(name):
        return bool(model.get(name, False))

    elements = []
    for c in sorted(world.slots):
        for i in range(world.slots[c]):
            if not truthy(world.ex(c, i)):
                continue
            attrs = {}
            for attr, dom in sorted(world.mm.info[c].attributes.items()):
                encf, dec, lo, hi, sparse = _domain_codec(dom)
                raw = model.get(world.at(c, i, attr), lo)
                try:
                    attrs[attr] = dec(raw)
                except (IndexError, KeyError):
                    attrs[attr] = dec(lo)
            elements.append(Element(world.element_id(c, i), c,
                                    tuple(sorted(attrs.items()))))
    ids = {e.id for e in elements}
    links = []
    for a in world.assocs:
        for cs, i in world.all_slots(a.source):
            for ct, j in world.all_slots(a.target):
                if truthy(world.ln(a.name, cs, i, ct, j)):
                    s, g = world.element_id(cs, i), world.element_id(ct, j)
                    if s in ids and g in ids:
                        links.append(Link(a.name, s, g))
    return model_from_parts(elements, links)


def decode_counterexample(model, problem, spec, transformation=None,
                          source=None):
    """Rebuild (source model, target model, violated precondition binding)
    from a sat assignment; `source`, when given, is the assignment's source
    model, already decoded."""
    enc = problem.metadata["encoder"]
    if source is None:
        source = decode_world(model, enc.src)
    target = decode_world(model, enc.tgt)

    src_id, tgt_id = enc.src.element_id, enc.tgt.element_id
    traces = set()
    for binding, (c, j), fv, cv, k in enc.creation_index:
        if model.get(fv, False) and model.get(cv, 0) == k:
            traces.update(TraceLink(src_id(cs, i), tgt_id(c, j))
                          for cs, i in binding.values())
    target = model_from_parts(target.elements, target.links, traces)

    violated = None
    for pidx, pre in enumerate(problem.pre_bindings):
        if model.get(f"sel_{pidx}", False):
            violated = {name: src_id(c, i) for name, (c, i) in pre.items()}
            break
    return source, target, violated
