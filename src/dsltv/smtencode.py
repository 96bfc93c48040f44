"""Encoding of the bounded verification problem as SMT-LIB 2 text.

Source: per concrete class, a bounded number of slots with existence
booleans, finite-domain integer variables for the attributes that a guard
or a copy reads, and boolean link matrices.  Rules: one firing boolean per
injective source binding, defined as the conjunction of existence, links,
guards, and backward resolution.
Target: one element per creation, that is, per firing and fresh apply
element.  The query asserts that some canonical precondition binding holds
and no postcondition witness exists for it; sat means counterexample.

The target encoding is exact because DSLTrans never shares a fresh target
element between firings: ``engine.execute`` makes one element per firing
and fresh apply element, named by the rule, the match binding and the apply
element.  So a creation is a target element of its own.  It exists iff its
firing holds, its class is exactly the apply element's, and its attributes
are its bindings' values: a literal is a constant and a copy is the source
attribute it copies.  An attribute that no binding sets is absent, as in
the engine, so a postcondition guard on it is false.  Its traces are
static, from each source slot of its binding, so a postcondition witness
enumerates, for an element traced to precondition elements, only the
creations whose binding holds their slots, and reads no trace variable.
A backward pair resolves to exactly one of its candidates: the creations
of earlier layers, of a compatible class, whose binding holds the demanded
slot, as the engine resolves it through the traces of earlier layers.
Exactly one of m candidates is written in Sinz's sequential form (CP 2005,
k = 1), linear in m: the disjunction p_i of the first i candidates is a
shared name, and the term is p_m and, for each i > 1, not both p_{i-1} and
candidate i.  ``decode_counterexample`` rebuilds the target from the
firings, with the engine's element ids.

The target is what the rules make from the source, so ``verify`` bounds
only the source.  ``PerClassBounds.target`` may cap the creations of a
target class: when a class has more creations than its cap k, the encoding
asserts that at most k of them fire, so a source that would make more
leaves the search with every violation it holds.  A class with no cap is
uncapped.  ``verify`` sets no cap; fixed-bound experiments may.

Every problem breaks the symmetry between the slots of one source class
with two constraints:

- ordered existence: ex_s_c_{i+1} => ex_s_c_i;
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
through those every firing, creation, cap, backward case and witness), so
renumbering each class with b's slots first, in pattern order, then its
other existing slots, then the absent ones, permutes the firings and their
creations and yields a model again.  b's slots exist (its binding term
holds their existence), so existence is ordered, and b has become the
canonical binding of its class assignment.  So a counterexample exists iff
one exists whose violated binding is canonical.  The argument holds with or
without the deferred multiplicities (below), which are as symmetric as the
rest, so it covers the relaxed first problem that the lazy closure loop
solves as well as the closed one.  Target elements need no symmetry
breaking: each is named by its creation, and no two are interchangeable.
``tests/test_smtencode.py`` checks verdicts against the brute-force oracle
with both on.

Each binding term, backward resolution and witness is written once, as
``(define-fun d_n () Bool <body>)``, and every use refers to the name (Kodkod's subformula
sharing, Torlak & Jackson, TACAS 2007).  The definitions follow the
declarations, and a body only refers to names made before it.  A defined
name means its body, so verdicts cannot change.  The bundled solver
compiles a body at the name's first reference and reuses the literal.
Compiling the body again in place of a later reference would only find the
gates made the first time, so the CNF is the one of the inlined text,
clause for clause, and the search is unchanged.

A postcondition whose connected components have pairwise disjoint class
sets (the classes of the creations each element can be) is refuted one
component at a time: injectivity cannot couple them, so a witness of the
whole exists iff each component has one.

A source association upper bound ``[..k]`` limits each link row
x_0..x_{n-1} (the links out of one slot) with one term, ``(<= (+ (ite x_0 1
0) ... (ite x_{n-1} 1 0)) k)``, which the bundled solver grounds as Sinz's
sequential counter (see ``smtsolver``); a cap is the same term over the
firings of a class's creations.  k = 0 becomes unit negations, and a row of
at most k terms needs no constraint.  The source bounds and the lower
bounds ``[k..]``, with the assertions that the links they count have
existing ends, are deferred (``EncodedProblem.deferred``): the problem
text leaves them out, and ``smtrun.lazy_closure_loop`` adds them all only
when a model breaks one, as in counterexample-guided abstraction refinement
(Clarke et al., CAV 2000).  A first solve that answers unsat thus never
grounds a counter.  Target multiplicities are not encoded: the target is
what the rules make, neither execution nor the property checks it against
its metamodel, and a bound there would only throw out sources whose output
breaks it, turning their violations into a wrong HOLDS.

The encoding is sliced to what the property can observe (cone of influence,
Clarke, Grumberg & Peled, *Model Checking*, 1999; Kodkod's slicing, Torlak
& Jackson, TACAS 2007).  The full encoding would declare every link of the
source, assert that each link's ends exist, and write every apply link.
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
- a target link, one variable per pair of creations, is declared by the
  first apply link that writes it, and a witness that needs a link no
  apply link writes is false;
- a link's ends must exist only where a lower bound counts the link, and
  that assertion is deferred with the lower bound (above).  Every other
  read of a source link, in a binding term, sits next to the existence of
  both ends, and an upper bound only gains from a link fewer;
- a source attribute variable, with its range, is declared by the first
  guard or copy that reads it (``Encoder.src_attr``), and no assertion
  ties the attribute of an absent slot to a value.

The slicing applies to the encoding with its symmetry breaking, and its
argument needs no symmetry.  Take a full model.  Each target link is true
wherever one of its apply links' conditions holds; make it true there only,
and only for the written apply links.  That removes links, and target links
are read only by witnesses, which the query negates, so the result is a
sliced model: unsat is kept.  Conversely, take a sliced model.  Make each
pruned source link false, clear each source link whose slot at either end
does not exist, and make each target link true exactly where the condition
of one of its apply links, written or pruned, holds.  No binding term
changes, so the firings stay as they were.  Every full assertion then
holds, except perhaps the query.  A witness for the selected canonical
binding b takes, for a postcondition element traced to b's slots S, only
creations whose binding holds S; so each link it reads between the
creations of two ends traced to S and T joins creations that hold S and T,
and the apply links that write it were not pruned.  Every link the witness
reads was thus true in the sliced model, so the witness was there too,
which the query rules out; sat is kept.

Attributes are sliced the same way.  A full model, with every attribute
declared and an absent slot's attributes pinned to its domain's first
value, is a sliced model once the undeclared variables are dropped: the
sliced assertions are a subset of the full ones, so unsat is kept.  A
sliced model becomes a full one when every undeclared attribute, and every
attribute of an absent slot, takes its domain's first value: no assertion
reads an undeclared name, and an absent slot's attribute is read only next
to its existence, in a binding term, or through a creation whose firing
needs that binding, so every assertion keeps its value and sat is kept.
``decode_world`` reads a missing name as that first value, so the decoded
source is the one the argument extends the model to, and confirmation
replays it.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field

from .inheritance import is_subtype
from .model import Element, Link, TraceLink, model_from_parts
from .spec_ast import (
    BoolDomain, CopyBinding, EnumRef, EnumValue, IntRange, IntSet,
    PatternGraph, StringVocab, compare,
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
    pre_bindings: list        # canonical precondition bindings, by sel_ index
    metadata: dict = field(default_factory=dict)

    def with_extra_assertions(self, assertions):
        lines = self.text.splitlines()
        tail_at = lines.index("(check-sat)")
        new = lines[:tail_at] + list(assertions) + lines[tail_at:]
        return EncodedProblem("\n".join(new), self.deferred,
                              self.source_slots, self.pre_bindings,
                              self.metadata)


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
    """The bounded source world."""

    tag = "s"

    def __init__(self, mm, bounds, assocs):
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


@dataclass(eq=False)
class _Creation:
    """The target element that firing ``fires`` of ``rule`` on ``binding``
    makes for its fresh apply element ``element``; ``n`` numbers it."""
    n: int
    layer: int
    rule: object
    binding: dict             # match element -> source slot
    fires: str
    element: object

    def __post_init__(self):
        self.klass = self.element.klass
        self.slots = frozenset(self.binding.values())

    def element_id(self, src_id):
        """The engine's id of this element, given the ids of source
        slots."""
        ids = ",".join(src_id(*slot) for _, slot in sorted(
            self.binding.items()))
        return f"{self.rule.name}#{ids}#{self.element.name}"


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
        self.prop = prop
        self.options = options
        self.deadline = deadline  # time.monotonic() value, or None
        self.t = transformation
        self.caps = bounds.target
        # slicing (see the module docstring): the source links that a match
        # or the precondition reads, or that a lower bound demands, and the
        # target links that the postcondition reads
        src_mm = spec.metamodel(self.t.source)
        self.tgt_mm = spec.metamodel(self.t.target)
        read_s = {l.assoc for _, rule in self.active_rules()
                  for l in rule.match.links}
        read_s |= {l.assoc for l in prop.precondition.links}
        self.src = _World(src_mm, bounds.source,
                          [a for a in src_mm.associations
                           if a.name in read_s or a.lower >= 1])
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

    def src_attr(self, c, i, attr):
        """The variable of attribute ``attr`` of source slot (c, i),
        declared with its domain's range at the first read (see the module
        docstring)."""
        name = self.src.at(c, i, attr)
        if name not in self.int_vars:
            self.int_vars.add(name)
            _, _, lo, hi, sparse = _domain_codec(
                self.src.mm.info[c].attributes[attr])
            self.decls.append(f"(declare-const {name} Int)")
            self.asserts.append(f"(assert (and (<= {_int(lo)} {name}) "
                                f"(<= {name} {_int(hi)})))")
            if sparse is not None and list(sparse) != list(range(lo, hi + 1)):
                self.asserts.append("(assert " + _or(
                    [f"(= {name} {_int(v)})" for v in sparse]) + ")")
        return name

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

    def exactly_one(self, terms):
        """Exactly one of ``terms``, which are names, holds, in Sinz's
        sequential form over the shared prefix disjunctions p_1 = t_1,
        p_i = (or p_{i-1} t_i) (see the module docstring)."""
        if len(terms) <= 1:
            return terms[0] if terms else "false"
        prefix, clauses = terms[0], []
        for t in terms[1:]:
            clauses.append(f"(not (and {prefix} {t}))")
            prefix = self.share(f"(or {prefix} {t})")
        return _and([prefix] + clauses)

    # -- source --------------------------------------------------------------

    def encode_source(self):
        world = self.src
        for c in sorted(world.slots):
            for i in range(world.slots[c]):
                self.decl_bool(world.ex(c, i))
        # a link is read only next to the existence of both its ends, so
        # only a lower bound, which a link to a missing slot could meet,
        # needs the link's ends to exist; those assertions are deferred
        # with the bounds (see the module docstring)
        for a in world.assocs:
            cols = world.all_slots(a.target)
            for cs, i in world.all_slots(a.source):
                row = [self.decl_bool(world.ln(a.name, cs, i, ct, j))
                       for ct, j in cols]
                if a.upper is not None:
                    self._at_most(row, a.upper, self.deferred)
                if a.lower >= 1:
                    self.deferred.extend(
                        f"(assert (=> {v} (and {world.ex(cs, i)} "
                        f"{world.ex(ct, j)})))"
                        for v, (ct, j) in zip(row, cols))
                    if a.lower > 1:
                        # the term below has one conjunction per choice of
                        # `lower` links; the ceiling counts each, before
                        # they are built
                        self.counter_clauses += math.comb(len(row), a.lower)
                        self.checkpoint()
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

    def _at_most(self, lits, k, out):
        """Append to ``out`` the assertion that at most k of ``lits`` hold
        (see the module docstring)."""
        n = len(lits)
        if n <= k:
            return
        if k == 0:
            out.extend(f"(assert {_not(x)})" for x in dict.fromkeys(lits))
            return
        ones = " ".join(f"(ite {x} 1 0)" for x in lits)
        out.append(f"(assert (<= (+ {ones}) {k}))")
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

    def guard_term(self, c, i, constraints):
        attrs = self.src.mm.info[c].attributes
        if any(g.attr not in attrs for g in constraints):
            return "false"
        terms = []
        for g in constraints:
            terms.append(self._compare(c, i, g.attr, g))
            if terms[-1] == "false":
                return "false"
        return _and(terms)

    def _compare(self, c, i, attr, g):
        """Guard ``g`` on attribute ``attr`` of source slot (c, i)."""
        try:
            v = _domain_codec(self.src.mm.info[c].attributes[attr])[0](
                g.value)
        except KeyError:
            # literal outside the finite domain: == never holds
            return "false" if g.op == "==" else "true"
        return _cmp_atom(g.op, self.src_attr(c, i, attr), v)

    def enumerate_bindings(self, pattern):
        """Injective assignments of pattern elements to source (class, slot)
        pairs, guards not included (they become formula terms), one at a
        time."""
        names = [e.name for e in pattern.elements]
        options = [self.src.all_slots(e.klass) for e in pattern.elements]
        return (dict(zip(names, combo))
                for combo in itertools.product(*options)
                if len(set(combo)) == len(combo))

    def canonical_bindings(self, pattern):
        """One injective binding per assignment of pattern elements to
        compatible concrete classes: the elements bound to class c take
        slots 0, 1, ... of c in pattern order, and an assignment that puts
        more elements on c than c has slots has no binding.  Every injective
        binding is a renumbering of one of these within each class (see the
        module docstring)."""
        world = self.src
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

    def binding_term(self, pattern, binding):
        """existence + links + guards conjunction for one source binding."""
        world = self.src
        by_name = pattern.element_map()
        links = []
        for l in pattern.links:
            cs, i = binding[l.source]
            ct, j = binding[l.target]
            a = world.mm.assoc_map()[l.assoc]
            if not (is_subtype(world.mm.info, cs, a.source)
                    and is_subtype(world.mm.info, ct, a.target)):
                return "false"
            links.append(world.ln(l.assoc, cs, i, ct, j))
        # the guards come after every way to be false, so that a false
        # binding declares no attribute
        terms = []
        for n, (c, i) in binding.items():
            guard = self.guard_term(c, i, by_name[n].constraints)
            if guard == "false":
                return "false"
            terms += [world.ex(c, i), guard]
        return self.share(_and(terms + links))

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
        """Firing variables, creations, backward resolution, apply links
        and creation caps."""
        # first pass: firing variables and creations, so later layers can
        # refer back to earlier creations
        firing_data = []  # (li, rule, bindings list)
        for li, rule in self.active_rules():
            bindings = []
            # stop enumerating once the firings pass the ceiling
            for binding in self.enumerate_bindings(rule.match):
                bindings.append(binding)
                self.n_firing_vars += 1
                if self.n_firing_vars > self.options.binding_ceiling:
                    break
            self.checkpoint()
            firing_data.append((li, rule, bindings))

        self.creations = []
        # source slot -> the creations whose binding holds it, in order
        creations_of = {}
        fresh_of = {}  # firing -> apply element name -> its creation
        for li, rule, bindings in firing_data:
            for bidx, binding in enumerate(bindings):
                fv = self.decl_bool(f"fr_{rule.name}_{bidx}")
                fresh = fresh_of[fv] = {}
                for ae in rule.fresh_apply_elements():
                    cr = _Creation(len(self.creations), li, rule, binding,
                                   fv, ae)
                    self.creations.append(cr)
                    fresh[ae.name] = cr
                    for slot in binding.values():
                        creations_of.setdefault(slot, []).append(cr)

        # second pass: define each firing and write its apply links
        self.firings = []         # (fires, rule, apply element -> creations)
        self.written_links = set()  # target links some apply link writes
        for li, rule, bindings in firing_data:
            apply_map = rule.apply.element_map()
            for bidx, binding in enumerate(bindings):
                self.checkpoint()
                fv = f"fr_{rule.name}_{bidx}"
                # backward candidates: creations of earlier layers whose
                # binding holds the demanded source slot
                ends = {name: [cr] for name, cr in fresh_of[fv].items()}
                bw_terms = []
                for apply_name, match_name in rule.backward:
                    klass = apply_map[apply_name].klass
                    ends[apply_name] = [
                        cr for cr in creations_of.get(binding[match_name], ())
                        if cr.layer < li
                        and is_subtype(self.tgt_mm.info, cr.klass, klass)]
                    bw_terms.append(self.share(self.exactly_one(
                        [cr.fires for cr in ends[apply_name]])))
                match_term = self.binding_term(rule.match, binding)
                self.asserts.append(
                    f"(assert (= {fv} {_and([match_term] + bw_terms)}))")
                self.firings.append((fv, rule, ends))
                for l in rule.apply.links:
                    self._apply_links(l, fv, ends[l.source], ends[l.target])

        # caps: at most bounds.target[c] creations of class c fire
        by_class = {}
        for cr in self.creations:
            by_class.setdefault(cr.klass, []).append(cr.fires)
        for c, fires in sorted(by_class.items()):
            if c in self.caps:
                self._at_most(fires, self.caps[c], self.asserts)

    def _apply_links(self, l, fv, ends_s, ends_t):
        """Assert apply link ``l`` of firing ``fv`` between each pair of
        creations of ``ends_s`` and ``ends_t`` whose link a witness can read
        (see the module docstring)."""
        needs = self.link_needs.get(l.assoc)
        if not needs:
            return
        for x in ends_s:
            needs_t = [nt for ns, nt in needs if ns <= x.slots]
            for y in ends_t:
                if any(nt <= y.slots for nt in needs_t):
                    cond = _and(list(dict.fromkeys([fv, x.fires, y.fires])))
                    link = self.decl_bool(f"ln_t_{l.assoc}_{x.n}_{y.n}")
                    self.written_links.add(link)
                    self.asserts.append(f"(assert (=> {cond} {link}))")

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

    # -- property -------------------------------------------------------------------

    def encode_property(self):
        post_groups = self._post_components()
        cases = []
        for pidx, pre in enumerate(self.pre_bindings):
            self.checkpoint()
            sel = self.decl_bool(f"sel_{pidx}")
            pre_term = self.binding_term(self.prop.precondition, pre)
            traced = {}  # postcondition element -> the slots it is traced to
            for post_el, pre_el in self.prop.traces:
                traced.setdefault(post_el, set()).add(pre[pre_el])
            comp_refuted = [
                _not(_or(list(dict.fromkeys(
                    self.witness_term(comp, post)
                    for post in self._witnesses(comp, traced)))))
                for comp in post_groups]
            no_witness = _or(comp_refuted) if comp_refuted else "false"
            self.asserts.append(
                f"(assert (=> {sel} {_and([pre_term, no_witness])}))")
            cases.append(sel)
        self.asserts.append("(assert " + _or(cases) + ")")

    def _candidates(self, element):
        """The creations that postcondition ``element`` can be."""
        return [cr for cr in self.creations
                if is_subtype(self.tgt_mm.info, cr.klass, element.klass)]

    def _witnesses(self, pattern, traced):
        """Injective assignments of ``pattern``'s elements to creations, each
        element to a creation whose binding holds the slots it is traced to
        in ``traced``."""
        names = [e.name for e in pattern.elements]
        options = [[cr for cr in self._candidates(e)
                    if traced.get(e.name, set()) <= cr.slots]
                   for e in pattern.elements]
        return [dict(zip(names, combo))
                for combo in itertools.product(*options)
                if len(set(combo)) == len(combo)]

    def witness_term(self, pattern, post):
        """Existence, guards and links of the creations ``post`` assigns to
        ``pattern``'s elements."""
        by_name = pattern.element_map()
        links = []
        for l in pattern.links:
            x, y = post[l.source], post[l.target]
            link = f"ln_t_{l.assoc}_{x.n}_{y.n}"
            if link not in self.written_links:
                return "false"  # no apply link writes it
            links.append(link)
        # as in binding_term, a false witness declares no attribute
        terms = []
        for n, cr in post.items():
            terms.append(cr.fires)
            for g in by_name[n].constraints:
                terms.append(self._creation_guard(cr, g))
                if terms[-1] == "false":
                    return "false"
        return self.share(_and(list(dict.fromkeys(terms + links))))

    def _creation_guard(self, cr, g):
        """Guard ``g`` on an attribute of creation ``cr``: a literal binding
        decides it here, a copy reads the source attribute, and a guard on
        an attribute that no binding sets is false, as in the engine, which
        leaves that attribute out of the element."""
        binding = next((b for b in cr.element.bindings if b.attr == g.attr),
                       None)
        if binding is None:
            return "false"
        if not isinstance(binding.value, CopyBinding):
            return "true" if compare(g.op, binding.value, g.value) \
                else "false"
        # the copied value is the source attribute's: the parser and the
        # abstraction keep every source value in the target domain
        c, i = cr.binding[binding.value.element]
        return self._compare(c, i, binding.value.attr, g)

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
        # the classes of the creations each group can take must be pairwise
        # disjoint
        classes = [{cr.klass for e in members for cr in self._candidates(e)}
                   for members in groups.values()]
        for x, y in itertools.combinations(classes, 2):
            if x & y:
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
        self.encode_source()
        self.pre_bindings = self.canonical_bindings(self.prop.precondition)
        self.link_needs = self._link_needs()
        self.encode_rules()
        self.encode_property()
        lines = ["(set-logic QF_LIA)", "(set-option :produce-models true)"]
        lines += self.decls
        lines += self.defs
        lines += self.asserts
        lines += ["(check-sat)", "(get-model)", "(exit)"]
        return EncodedProblem(
            "\n".join(lines), list(self.deferred), dict(self.src.slots),
            self.pre_bindings, {"firingVariables": self.n_firing_vars},
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


def decode_target(model, enc, source):
    """The target that the rules make from `source`, the decoded source of
    a sat assignment: each firing creation with its bound attributes and
    its traces, and the apply links of each firing, named as
    ``engine.execute`` names them."""
    src_id = enc.src.element_id
    by_id = source.element_map()
    ids = {}
    elements, traces = [], []
    for cr in enc.creations:
        if not model.get(cr.fires, False):
            continue
        ids[cr] = cr.element_id(src_id)
        attrs = {}
        for b in cr.element.bindings:
            if isinstance(b.value, CopyBinding):
                b_id = src_id(*cr.binding[b.value.element])
                attrs[b.attr] = by_id[b_id].attr_map()[b.value.attr]
            else:
                attrs[b.attr] = b.value
        elements.append(Element(ids[cr], cr.klass,
                                tuple(sorted(attrs.items()))))
        traces += [TraceLink(src_id(*slot), ids[cr]) for slot in cr.slots]
    links = []
    for fv, rule, ends in enc.firings:
        if model.get(fv, False):
            # a firing holds exactly one candidate of each backward end
            end = {name: next(ids[cr] for cr in crs if cr in ids)
                   for name, crs in ends.items()}
            links += [Link(l.assoc, end[l.source], end[l.target])
                      for l in rule.apply.links]
    return model_from_parts(elements, links, traces)


def decode_counterexample(model, problem, spec, transformation=None,
                          source=None):
    """Rebuild (source model, target model, violated precondition binding)
    from a sat assignment; `source`, when given, is the assignment's source
    model, already decoded."""
    enc = problem.metadata["encoder"]
    if source is None:
        source = decode_world(model, enc.src)
    target = decode_target(model, enc, source)
    violated = None
    for pidx, pre in enumerate(problem.pre_bindings):
        if model.get(f"sel_{pidx}", False):
            violated = {name: enc.src.element_id(c, i)
                        for name, (c, i) in pre.items()}
            break
    return source, target, violated
