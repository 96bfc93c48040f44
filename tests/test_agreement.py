"""The encoding agrees with the engine, one source at a time.

For every spec in scope, every rule set that a plan encodes (the first
fragment and the Full one) is encoded at the planned bounds without the
property query, and a source model is pinned with unit assertions on the
variables that the encoding declares.  The solver must answer sat.  The
source decoded from its model must agree with the pinned one on elements,
read links and declared attributes, and make the same firings under
``engine.execute`` with the same rules.  The target and traces decoded from
the model must be the ones ``engine.execute`` makes from the decoded source,
element for element: both name a created element by its rule, match binding
and apply element.  The target is a function of the source, so a model that
differs from the decoded one must not exist either.

This is translation validation (Pnueli, Siegel & Singerman, TACAS 1998)
over bounded-exhaustive inputs (Korat, Boyapati, Khurshid & Marinov, ISSTA
2002): the sources are the conformant ones among those that
``oracle.enumerate_source_models`` yields within the source bounds.  A rule
set with more than ``CHECKED`` of them, or with more than ``ENUMERATED``
models to enumerate, is checked on a seeded sample of ``SAMPLED``, drawn from
the enumeration or, past ``ENUMERATED``, from random models of the same
space.
"""

import dataclasses
import io
import itertools
import os
import random

from conftest import FIXTURES, fixture_specs
from oracle import enumerate_source_models

from dsltv.engine import execute
from dsltv.inheritance import is_subtype
from dsltv.model import Element, InstanceModel, Link, model_from_parts, \
    validate_conformance
from dsltv.orchestrator import PlanRejected, VerificationConfig, \
    plan_property
from dsltv.parser import parse_spec, parse_spec_file
from dsltv.smtencode import EncodeOptions, Encoder, _domain_codec, _int, \
    decode_target, decode_world
from dsltv.smtrun import parse_model_text
from dsltv.smtsolver import solve_text

import test_kboundary
import test_orchestrator
import test_smtencode

ENUMERATED = 20_000  # models enumerated at most per rule set
CHECKED = 64         # a rule set with more conformant sources is sampled
SAMPLED = 24
SEED = 26

INLINE = {
    "SPLIT_SPEC": test_smtencode.SPLIT_SPEC,
    "TWO_LINKS_SPEC": test_smtencode.TWO_LINKS_SPEC,
    "TARGET_UPPER_SPEC": test_smtencode.TARGET_UPPER_SPEC,
    "SLOT_SPEC": test_smtencode.SLOT_SPEC,
    "ORBIT_SPEC": test_smtencode.ORBIT_SPEC,
    "TAG_SPEC": test_smtencode.TAG_SPEC.replace("UPPER", "3"),
    "NEGATIVE_SPEC": test_smtencode.NEGATIVE_SPEC,
    "UNREAD_SPEC": test_smtencode.UNREAD_SPEC.replace("LOWER", "1"),
    "SUB_SPEC": test_smtencode.SUB_SPEC,
    "PAIR_SPEC": test_smtencode.PAIR_SPEC,
    "TWO_FRESH_SPEC": test_smtencode.TWO_FRESH_SPEC,
    "ABSTRACT_APPLY_SPEC": test_smtencode.ABSTRACT_APPLY_SPEC,
    "WIDE_SPEC": test_smtencode.WIDE_SPEC,
    "UNBOUND_ATTR_SPEC": test_smtencode.UNBOUND_ATTR_SPEC,
    "ABSTRACT_POST": test_orchestrator.ABSTRACT_POST,
    "PAIR_EDGE": test_orchestrator.PAIR_EDGE,
    "COPY_INTO": test_orchestrator.COPY_INTO.format(domain="Int[0..7]"),
    "TWO_PRODUCERS": test_orchestrator.TWO_PRODUCERS,
    "INT_SPEC": test_kboundary.INT_SPEC,
}


def _specs():
    specs = fixture_specs()
    specs.append(("mult.dslt", parse_spec_file(os.path.join(
        FIXTURES, os.pardir, os.pardir, "perfbench", "specs", "mult.dslt"))))
    for name, text in INLINE.items():
        spec = parse_spec(text, name)
        assert not isinstance(spec, list), (name, spec)
        specs.append((name, spec))
    return specs


def _rule_sets(spec):
    """(proof spec, transformation, rule names, bounds) of each distinct
    rule set that a plan of one of ``spec``'s properties encodes: its first
    fragment and the Full one, each at the plan's bounds."""
    out = {}
    for prop in spec.properties:
        try:
            plan = plan_property(spec, prop, VerificationConfig())
        except PlanRejected:
            continue
        for fragment in (plan.fragment, tuple(range(len(plan.t.layers)))):
            names = plan.rule_names(fragment)
            bounds = plan.bounds
            key = (plan.t.name, names, tuple(sorted(bounds.source.items())))
            out.setdefault(key, (plan.spec, plan.t, prop, names, bounds))
    return list(out.values())


def _restricted(t, names):
    """``t`` with only the rules in ``names``."""
    return dataclasses.replace(t, layers=tuple(
        dataclasses.replace(layer, rules=tuple(
            r for r in layer.rules if r.name in names))
        for layer in t.layers))


def _random_source(mm, bounds, rng):
    """A random model from the space ``enumerate_source_models`` walks."""
    info = mm.info
    elements = []
    for c in sorted(bounds):
        if info[c].abstract:
            continue
        for i in range(rng.randrange(bounds[c] + 1)):
            attrs = tuple((n, rng.choice(list(info[c].attributes[n].values())))
                          for n in sorted(info[c].attributes))
            elements.append(Element(f"{c.lower()}{i}", c, attrs))
    links = tuple(Link(a.name, s.id, g.id)
                  for a in mm.associations for s in elements for g in elements
                  if is_subtype(info, s.klass, a.source)
                  and is_subtype(info, g.klass, a.target)
                  and rng.random() < 0.5)
    return InstanceModel(tuple(elements), links, ())


def _sources(mm, bounds, rng):
    """The conformant sources to check within ``bounds``, and whether they
    are all of them."""
    every = list(itertools.islice(enumerate_source_models(None, mm, bounds),
                                  ENUMERATED + 1))
    complete = len(every) <= ENUMERATED
    if not complete:
        every = [_random_source(mm, bounds, rng) for _ in range(4 * SAMPLED)]
    sources = [s for s in dict.fromkeys(every)
               if validate_conformance(s, mm).conformant]
    if complete and len(sources) <= CHECKED:
        return sources, True
    return rng.sample(sources, min(SAMPLED, len(sources))), False


def _on_slots(source, world):
    """``source`` with each class's elements renamed to its slots 0, 1, ...
    in id order."""
    ids = {}
    for c in world.slots:
        members = sorted(e.id for e in source.elements if e.klass == c)
        assert len(members) <= world.slots[c], c
        ids.update((eid, world.element_id(c, i))
                   for i, eid in enumerate(members))
    return model_from_parts(
        (Element(ids[e.id], e.klass, e.attrs) for e in source.elements),
        (Link(l.assoc, ids[l.src], ids[l.tgt]) for l in source.links))


def _pins(enc, source):
    """Unit assertions that fix every source variable of ``enc`` to
    ``source``, whose elements sit on their slots: existence, links, and
    the attributes that the encoding declares."""
    world = enc.src
    present = {e.id: e for e in source.elements}
    links = set(source.links)
    pins = []
    for c in sorted(world.slots):
        for i in range(world.slots[c]):
            e = present.get(world.element_id(c, i))
            pins.append(f"(assert {world.ex(c, i)})" if e
                        else f"(assert (not {world.ex(c, i)}))")
            if e is None:
                continue
            for attr, value in e.attrs:
                if world.at(c, i, attr) not in enc.int_vars:
                    continue
                enc_value = _domain_codec(world.mm.info[c].attributes[attr])[0]
                pins.append(f"(assert (= {world.at(c, i, attr)} "
                            f"{_int(enc_value(value))}))")
    for a in world.assocs:
        for cs, i in world.all_slots(a.source):
            for ct, j in world.all_slots(a.target):
                link = Link(a.name, world.element_id(cs, i),
                            world.element_id(ct, j))
                pins.append(f"(assert {world.ln(a.name, cs, i, ct, j)})"
                            if link in links else
                            f"(assert (not {world.ln(a.name, cs, i, ct, j)}))")
    return pins


def _encoded_part(enc, source):
    """``source`` as far as ``enc`` holds it: its elements with the
    attributes that ``enc`` declares, and the links of the associations that
    it reads."""
    world = enc.src
    slot = {world.element_id(c, i): (c, i)
            for c in world.slots for i in range(world.slots[c])}
    read = {a.name for a in world.assocs}
    return model_from_parts(
        (Element(e.id, e.klass, tuple(
            (attr, v) for attr, v in e.attrs
            if world.at(*slot[e.id], attr) in enc.int_vars))
         for e in source.elements),
        (l for l in source.links if l.assoc in read))


def _rules_only(spec, t, prop, names, bounds):
    """The encoder of ``names`` at ``bounds``, with its rules encoded and
    no query: every apply link of every target association is written."""
    enc = Encoder(spec, prop, bounds, EncodeOptions(rule_names=frozenset(
        names)), t)
    enc.pre_bindings = []
    enc.link_needs = {a.name: {(frozenset(), frozenset())}
                      for a in spec.metamodel(t.target).associations}
    enc.encode_source()
    enc.encode_rules()
    return enc


def _solve(lines):
    out = io.StringIO()
    solve_text("\n".join(lines + ["(check-sat)", "(get-model)"]), out=out)
    answer = out.getvalue()
    return answer.split()[0], parse_model_text(answer)


def _blocked(enc, model):
    """The assertion that some rule firing differs from ``model``'s: the
    target is a function of the source and the firings."""
    fires = [fv if model.get(fv, False) else f"(not {fv})"
             for fv, _, _ in enc.firings]
    return [f"(assert (not (and {' '.join(fires)} true)))"]


def _check(spec, t, prop, names, bounds, rng):
    enc = _rules_only(spec, t, prop, names, bounds)
    base = ["(set-logic QF_LIA)"] + enc.decls + enc.defs + enc.asserts
    engine_t = _restricted(t, names)
    mm = spec.metamodel(t.source)
    sources, complete = _sources(mm, bounds.source, rng)
    for raw in sources:
        source = _on_slots(raw, enc.src)
        pinned = base + _pins(enc, source)
        answer, model = _solve(pinned)
        assert answer == "sat", (t.name, names, source)
        decoded = decode_world(model, enc.src)
        assert _encoded_part(enc, decoded) == _encoded_part(enc, source), \
            (t.name, names, source)
        # what the encoding leaves out changes no firing, and the target
        # is what the rules make from the decoded source
        replayed = execute(engine_t, decoded, spec)
        assert replayed.firings == execute(engine_t, source, spec).firings, \
            (t.name, names, source)
        assert decode_target(model, enc, decoded) == replayed.target, \
            (t.name, names, source)
        assert _solve(pinned + _blocked(enc, model))[0] == "unsat", \
            (t.name, names, source)
    return len(sources), complete


def test_encoded_rules_make_what_the_engine_makes():
    rng = random.Random(SEED)
    checked = [_check(proof, t, prop, names, bounds, rng)
               for _, spec in _specs()
               for proof, t, prop, names, bounds in _rule_sets(spec)]
    assert sum(n for n, _ in checked) > 400
    assert sum(1 for _, complete in checked if not complete) <= 6
