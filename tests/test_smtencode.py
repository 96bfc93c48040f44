import io
import itertools
import re
import time
from dataclasses import replace

import pytest

from conftest import fixture_specs, load_spec
from oracle import oracle_verdict, source_bounds_for

from dsltv.cutoff import PerClassBounds, RelevanceMode, compute_cutoff, \
    cutoff_params, per_class_bounds, relevant_rules
from dsltv.engine import check_property_concrete, execute
from dsltv.model import mandatory_closure, validate_conformance
from dsltv.orchestrator import HOLDS, VIOLATED, VerificationConfig, \
    plan_property, verify_property
from dsltv.parser import parse_spec
from dsltv.smtencode import EncodeOptions, EncodingCeilingError, \
    EncodingDeadlineError, Encoder, decode_counterexample, encode
from dsltv import smtencode, smtrun
from dsltv.smtrun import run_solver
from dsltv.smtsolver import solve_text, tokenize_sexprs


def _bounds(spec, prop_name, mode=RelevanceMode.TRACE_ATTRIBUTE_AWARE):
    prop = spec.property(prop_name)
    t = spec.transformations[0]
    closure = mandatory_closure(spec.metamodel(t.source))
    rel = relevant_rules(spec, prop, mode, t)
    k = compute_cutoff(cutoff_params(spec, prop, rel, closure, t)).k
    return prop, per_class_bounds(spec, prop, k, t), t


def test_encoded_text_is_wellformed_smtlib(uml2java):
    prop, bounds, t = _bounds(uml2java, "PackageHasPackageDeclaration")
    problem = encode(uml2java, prop, bounds, EncodeOptions(), t)
    assert problem.text.count("(check-sat)") == 1
    assert "(get-model)" in problem.text
    assert problem.source_slots["Package"] == bounds.source["Package"]


def test_holding_property_is_unsat(uml2java):
    prop, bounds, t = _bounds(uml2java, "PackageHasPackageDeclaration")
    problem = encode(uml2java, prop, bounds, EncodeOptions(), t)
    verdict = run_solver(problem, 60)
    assert verdict.status == "unsat"


def test_violated_property_decodes_to_confirmed_counterexample(uml2java):
    prop, bounds, t = _bounds(uml2java,
                              "ClassMappedToInterfaceDeclaration_ShouldFail")
    problem = encode(uml2java, prop, bounds, EncodeOptions(), t)
    verdict = run_solver(problem, 60)
    assert verdict.status == "sat"
    source, target, binding = decode_counterexample(verdict.model, problem,
                                                    uml2java)
    mm = uml2java.metamodel("UMLConcrete")
    assert validate_conformance(source, mm).conformant
    result = execute(t, source, uml2java)
    assert not check_property_concrete(prop, source, result, uml2java).holds


def test_binding_ceiling_raises(uml2java):
    prop, bounds, t = _bounds(uml2java, "OwnedPropertyHasOwnedField")
    with pytest.raises(EncodingCeilingError):
        encode(uml2java, prop, bounds, EncodeOptions(binding_ceiling=1), t)


TRIPLE_SPEC = """
metamodel S { class A { } }
metamodel T { class B { } }
transformation t : S -> T {
    layer L {
        rule Triple2B {
            match {
                any x : A
                any y : A
                any z : A
            }
            apply { b : B }
        }
    }
}
property AHasB "Every A is in a triple's B." {
    precondition { any a : A }
    postcondition {
        b : B
        b <--trace-- a
    }
}
"""


def test_binding_enumeration_stops_at_the_ceiling():
    # 60 * 59 * 58 = 205,320 injective bindings; the encoder stops at the
    # first one past the ceiling instead of listing them all
    spec = _inline_spec(TRIPLE_SPEC)
    with pytest.raises(EncodingCeilingError,
                       match=r"\(1001 firings, ") as exc:
        encode(spec, spec.property("AHasB"), PerClassBounds({"A": 60}),
               EncodeOptions(binding_ceiling=1000), spec.transformations[0])
    assert exc.value.firing_variables == 1001


# Few firings, and more assertions than firings: ordered existence, the
# firings and the query.
WIDE_SPEC = """
metamodel WS { class A { } assoc next : A -> A [0..*] }
metamodel WT { class B { } assoc to : B -> B [0..*] }
transformation wide : WS -> WT {
    layer L { rule A2B { match { any a : A } apply { b : B } } }
}
property AHasB "Every A gets a B." {
    precondition { any a : A }
    postcondition {
        b : B
        b <--trace-- a
    }
}
"""
WIDE_BOUNDS = PerClassBounds(source={"A": 4}, target={"B": 4})


def test_assertion_count_hits_the_ceiling():
    spec = parse_spec(WIDE_SPEC, "inline")
    assert not isinstance(spec, list), spec
    prop = spec.property("AHasB")
    t = spec.transformations[0]
    assert encode(spec, prop, WIDE_BOUNDS,
                  EncodeOptions(binding_ceiling=1000), t).text
    with pytest.raises(EncodingCeilingError, match=r"\(4 firings, \d+ "):
        encode(spec, prop, WIDE_BOUNDS, EncodeOptions(binding_ceiling=5), t)
    with pytest.raises(EncodingDeadlineError):
        encode(spec, prop, WIDE_BOUNDS, EncodeOptions(), t,
               deadline=time.monotonic())


# Every A maps to an X with its XPart; only a flagged A also maps to a Y.
# The postconditions have two components, {x, p} and {y}, whose class sets
# are disjoint, so the encoder refutes them one at a time.
SPLIT_SPEC = """
metamodel SplitSrc { class A { flag: Bool } }
metamodel SplitTgt {
    class X { }
    class XPart { }
    class Y { }
    assoc has : X -> XPart [0..*]
}
transformation split : SplitSrc -> SplitTgt {
    layer Only {
        rule A2X {
            match { any a : A }
            apply {
                x : X
                p : XPart
                h : has -- x.p
            }
        }
        rule Flagged2Y {
            match { any a : A where flag == true }
            apply { y : Y }
        }
    }
}
property FlaggedAHasXAndY "A flagged A maps to a whole X and to a Y." {
    precondition { any a : A where flag == true }
    postcondition {
        x : X
        p : XPart
        y : Y
        h : has -- x.p
        x <--trace-- a
        y <--trace-- a
    }
}
property AnyAHasXAndY_ShouldFail "Negative: an unflagged A has no Y." {
    precondition { any a : A }
    postcondition {
        x : X
        p : XPart
        y : Y
        h : has -- x.p
        x <--trace-- a
        y <--trace-- a
    }
}
"""


def test_class_disjoint_postcondition_is_split():
    spec = parse_spec(SPLIT_SPEC, "inline")
    assert not isinstance(spec, list), spec
    t = spec.transformations[0]
    for prop in spec.properties:
        problem = encode(spec, prop, PerClassBounds(
            source={"A": 2}, target={"X": 2, "XPart": 2, "Y": 2}),
            EncodeOptions(), t)
        groups = problem.metadata["encoder"]._post_components()
        assert [sorted(e.name for e in g.elements) for g in groups] == \
            [["p", "x"], ["y"]], prop.name
        expected = oracle_verdict(spec, prop, {"A": 2})
        assert expected == (VIOLATED if prop.name.endswith("_ShouldFail")
                            else HOLDS), prop.name
        verdict = verify_property(spec, prop)
        assert verdict.status == expected, prop.name
        if verdict.status == VIOLATED:
            source, _, _ = verdict.counterexample
            assert validate_conformance(source, spec.metamodel(t.source)) \
                .conformant
            result = execute(t, source, spec)
            assert not check_property_concrete(prop, source, result,
                                               spec).holds


def _inline_spec(text):
    spec = parse_spec(text, "inline")
    assert not isinstance(spec, list), spec
    return spec


# Every A has exactly one r link.  The first property's precondition needs
# two, so it holds vacuously, and only the upper bound shows it.  The second
# one's models have one link.
TWO_LINKS_SPEC = """
metamodel OneSrc {
    class A { }
    class B { }
    assoc r : A -> B [1..1]
}
metamodel OneTgt {
    class TA { }
    class TC { }
}
transformation one : OneSrc -> OneTgt {
    layer Only { rule A2TA { match { any a : A } apply { ta : TA } } }
}
property TwoLinksHaveTC "An A with two r links maps to a TC." {
    precondition {
        any a : A
        any b1 : B
        any b2 : B
        direct l1 : r -- a.b1
        direct l2 : r -- a.b2
    }
    postcondition {
        ta : TA
        c : TC
        ta <--trace-- a
        c <--trace-- a
    }
}
property LinkedAHasTC_ShouldFail "Negative: no rule makes a TC." {
    precondition {
        any a : A
        any b : B
        direct l : r -- a.b
    }
    postcondition {
        c : TC
        c <--trace-- a
    }
}
"""


def test_each_attempt_solves_one_text_that_holds_the_source_bounds(
        monkeypatch, fixture_dumps):
    solved = []
    real = smtrun.run_solver

    def recording(problem, *args, **kwargs):
        solved.append(problem.text)
        return real(problem, *args, **kwargs)

    monkeypatch.setattr(smtrun, "run_solver", recording)
    statuses = [verify_property(spec, prop).status
                for _, spec in fixture_specs() for prop in spec.properties]
    # one solve per attempt: 40 properties and one CEGAR round
    assert (len(statuses), len(solved)) == (40, 41)
    # the source bounds that these two properties' models would otherwise
    # break: Child's owner [1..1] and Package's contains [2..*], each with
    # the existing ends of the links it counts; [2..*] is a shared at-least
    # definition
    bounds = {
        "corpus/c06_mandatory.dslt/ChildHasPOut_ShouldFail_L0.smt2": [
            "(assert (=> ln_s_owner_Child_0_Parent_0 "
            "(and ex_s_Child_0 ex_s_Parent_0)))",
            "(assert (=> ex_s_Child_0 ln_s_owner_Child_0_Parent_0))"],
        "uml2java_b4.dslt/PropertyHasField_L0-1.smt2": [
            "(assert (=> ln_s_contains_Package_0_DataType_0 "
            "(and ex_s_Package_0 ex_s_DataType_0)))",
            "(define-fun d_0 () Bool (and ln_s_contains_Package_0_Class_0"
            " ln_s_contains_Package_0_DataType_0))",
            "(assert (=> ex_s_Package_0 d_0))"],
    }
    texts = dict(fixture_dumps)
    for name, lines in bounds.items():
        assert texts[name] in solved, name
        assert set(lines) <= set(texts[name].splitlines()), name
    # an upper bound alone rules out TwoLinksHaveTC's precondition
    spec = _inline_spec(TWO_LINKS_SPEC)
    prop = spec.property("TwoLinksHaveTC")
    assert oracle_verdict(spec, prop, {"A": 1, "B": 3}) == HOLDS
    solved.clear()
    assert verify_property(spec, prop).status == HOLDS
    assert len(solved) == 1
    assert any(line.startswith("(assert (<= (+ (ite ln_s_r_A_0_B_0 1 0) ")
               and line.endswith(") 1))") for line in solved[0].splitlines())


def test_sat_verdict_decodes_its_source_once(monkeypatch):
    decoded = []
    real = smtencode.decode_world

    def counting(model, world):
        decoded.append(world.tag)
        return real(model, world)

    monkeypatch.setattr(smtencode, "decode_world", counting)
    spec = _inline_spec(TWO_LINKS_SPEC)
    verdict = verify_property(spec, spec.property("LinkedAHasTC_ShouldFail"))
    assert verdict.status == VIOLATED
    assert decoded.count("s") == 1


# tr is [0..1] in the target, but R2Tr makes one tr link per r link, from
# the TA of the link's A, and no rule makes a TC.  Execution does not
# enforce target multiplicities, so an A with two r links violates the
# property; an encoding that bounded tr would hide that violation.
TARGET_UPPER_SPEC = """
metamodel TUSrc {
    class A { }
    class B { }
    assoc r : A -> B [0..*]
}
metamodel TUTgt {
    class TA { }
    class TB { }
    class TC { }
    assoc tr : TA -> TB [0..1]
}
transformation tu : TUSrc -> TUTgt {
    layer Make {
        rule A2TA { match { any a : A } apply { ta : TA } }
        rule B2TB { match { any b : B } apply { tb : TB } }
    }
    layer Wire {
        rule R2Tr {
            match {
                any a : A
                any b : B
                direct l : r -- a.b
            }
            apply {
                ta : TA
                tb : TB
                t : tr -- ta.tb
            }
            backward {
                ta <--trace-- a
                tb <--trace-- b
            }
        }
    }
}
property TwoBsHaveTC_ShouldFail "Negative: no rule makes a TC." {
    precondition {
        any a : A
        any b1 : B
        any b2 : B
        direct l1 : r -- a.b1
        direct l2 : r -- a.b2
    }
    postcondition {
        ta : TA
        tb : TB
        c : TC
        t : tr -- ta.tb
        ta <--trace-- a
        c <--trace-- a
    }
}
"""


def test_target_upper_bounds_are_not_encoded():
    spec = _inline_spec(TARGET_UPPER_SPEC)
    prop = spec.property("TwoBsHaveTC_ShouldFail")
    assert oracle_verdict(spec, prop, {"A": 1, "B": 2}) == VIOLATED
    verdict = verify_property(spec, prop)
    assert verdict.status == VIOLATED
    t = spec.transformations[0]
    source, _, _ = verdict.counterexample
    assert validate_conformance(source, spec.metamodel(t.source)).conformant
    result = execute(t, source, spec)
    assert not check_property_concrete(prop, source, result, spec).holds


def test_run_solver_timeout_kills_child(uml2java):
    prop, bounds, t = _bounds(uml2java, "OwnedPropertyHasOwnedField",
                              RelevanceMode.LEGACY)
    problem = encode(uml2java, prop, bounds, EncodeOptions(), t)
    verdict = run_solver(problem, timeout_seconds=0.05)
    assert verdict.status in ("timeout", "sat", "unsat")


# -- slot symmetry breaking --------------------------------------------------

# Two rules create a Node, a concrete class with the concrete subclass Leaf;
# a third creates a Leaf.  Each creation is an element of exactly its apply
# element's class.
SLOT_SPEC = """
metamodel SymSrc {
    class A { flag: Bool }
    class B { }
    assoc pairs : A -> B [0..*]
}
metamodel SymTgt {
    class Node { }
    class Leaf extends Node { }
    assoc edge : Node -> Node [0..*]
}
transformation sym : SymSrc -> SymTgt {
    layer Make {
        rule A2Node { match { any a : A } apply { n : Node } }
        rule B2Leaf { match { any b : B } apply { l : Leaf } }
    }
    layer Wire {
        rule Pair2Edge {
            match {
                any a : A
                any b : B
                direct r : pairs -- a.b
            }
            apply {
                n : Node
                m : Node
                e : edge -- n.m
            }
            backward {
                n <--trace-- a
            }
        }
    }
}
property AHasNode "Every A maps to a Node." {
    precondition { any a : A }
    postcondition {
        n : Node
        n <--trace-- a
    }
}
property BHasNode "Every B maps to a Node, a Leaf being one." {
    precondition { any b : B }
    postcondition {
        n : Node
        n <--trace-- b
    }
}
property PairHasEdge "Paired elements map to linked targets." {
    precondition {
        any a : A
        any b : B
        direct r : pairs -- a.b
    }
    postcondition {
        n : Node
        m : Node
        e : edge -- n.m
        n <--trace-- a
        m <--trace-- b
    }
}
property AHasLeaf_ShouldFail "Negative: an A maps to a Node, not a Leaf." {
    precondition { any a : A }
    postcondition {
        l : Leaf
        l <--trace-- a
    }
}
property FlaggedAHasTwoNodes_ShouldFail "Negative: one A, one Node." {
    precondition { any a : A where flag == true }
    postcondition {
        n1 : Node
        n2 : Node
        n1 <--trace-- a
        n2 <--trace-- a
    }
}
property PairHasBackEdge_ShouldFail "Negative: edges run from A's Node." {
    precondition {
        any a : A
        any b : B
        direct r : pairs -- a.b
    }
    postcondition {
        n : Node
        m : Node
        e : edge -- m.n
        n <--trace-- a
        m <--trace-- b
    }
}
"""


SLOT_SOURCE = {"A": 2, "B": 2}
SLOT_BOUNDS = PerClassBounds(source=SLOT_SOURCE,
                             target={"Node": 6, "Leaf": 6})


def _slot_spec():
    spec = parse_spec(SLOT_SPEC, "inline")
    assert not isinstance(spec, list), spec
    return spec


def test_slot_symmetry_constraints_are_emitted():
    spec = _slot_spec()
    problem = encode(spec, spec.property("PairHasEdge"), SLOT_BOUNDS,
                     EncodeOptions(), spec.transformations[0])
    lines = problem.text.splitlines()
    # source slots exist as a prefix; a target element is a creation, with
    # no slot to order, choose or claim
    assert "(assert (=> ex_s_A_1 ex_s_A_0))" in lines
    assert "(assert (=> ex_s_B_1 ex_s_B_0))" in lines
    assert not re.search(r"\b(ex_t|ch)_", problem.text)
    assert len(set(lines)) == len(lines)


def test_slot_symmetry_breaking_agrees_with_oracle():
    spec = _slot_spec()
    t = spec.transformations[0]
    config = VerificationConfig()
    for prop in spec.properties:
        expected = oracle_verdict(spec, prop, SLOT_SOURCE)
        assert expected == (VIOLATED if prop.name.endswith("_ShouldFail")
                            else HOLDS), prop.name
        assert verify_property(spec, prop, config).status == expected, \
            prop.name

        # the same at explicit bounds whose caps leave every creation free
        problem = encode(spec, prop, SLOT_BOUNDS, EncodeOptions(), t)
        verdict = run_solver(problem, 60)
        assert verdict.status == ("sat" if expected == VIOLATED
                                  else "unsat"), prop.name
        if verdict.status != "sat":
            continue
        source, target, _ = decode_counterexample(verdict.model, problem,
                                                  spec)
        assert validate_conformance(source, spec.metamodel(t.source)) \
            .conformant
        result = execute(t, source, spec)
        assert target == result.target, prop.name
        assert not check_property_concrete(prop, source, result,
                                           spec).holds, prop.name


def test_every_creation_fires_on_a_full_source():
    spec = _slot_spec()
    prop = spec.property("AHasLeaf_ShouldFail")
    problem = encode(spec, prop, SLOT_BOUNDS, EncodeOptions(),
                     spec.transformations[0])
    # every source slot exists and every A is paired with every B, so all
    # eight creations fire, each an element of its apply element's class
    declared = [line.split()[1] for line in problem.text.splitlines()
                if line.startswith("(declare-const ")]
    forced = replace(problem, text=problem.text.replace(
        "(check-sat)", "".join(f"(assert {v})\n" for v in declared
                               if v.startswith(("ex_s_", "ln_s_")))
        + "(check-sat)"))
    verdict = run_solver(forced, 60)
    assert verdict.status == "sat"
    _, target, _ = decode_counterexample(verdict.model, forced, spec)
    assert sorted(e.klass for e in target.elements) == \
        ["Leaf"] * 2 + ["Node"] * 6


# -- canonical precondition bindings -----------------------------------------

def _class_signature(binding, pattern):
    return tuple(binding[e.name][0] for e in pattern.elements)


@pytest.mark.parametrize("name, prop_name, source, expected, injective", [
    ("stress.dslt", "ContainedClsHasDecl", {"Pkg": 4, "Cls": 4},
     [{"p": ("Pkg", 0), "c": ("Cls", 0)}], 16),
    ("kboundary_tight.dslt", "SourceSharesTypeDecl_ShouldFail",
     {"Source": 3}, [{"a": ("Source", 0), "b": ("Source", 1)}], 6),
    ("corpus/c04_inherit.dslt", "BaseHasOut", {"LeafA": 3, "LeafB": 2},
     [{"b": ("LeafA", 0)}, {"b": ("LeafB", 0)}], 5),
])
def test_precondition_bindings_are_canonical(name, prop_name, source,
                                             expected, injective):
    spec = load_spec(name)
    prop = spec.property(prop_name)
    problem = encode(spec, prop, PerClassBounds(source=source, target={}),
                     EncodeOptions(), spec.transformations[0])
    assert problem.pre_bindings == expected
    # one binding per orbit: every injective binding renumbers the slots
    # of exactly one canonical binding within each class
    enc = problem.metadata["encoder"]
    every = list(enc.enumerate_bindings(prop.precondition))
    assert len(every) == injective
    signatures = [_class_signature(b, prop.precondition) for b in expected]
    assert sorted(signatures) == sorted(
        {_class_signature(b, prop.precondition) for b in every})
    lines = problem.text.splitlines()
    assert f"(declare-const sel_{len(expected) - 1} Bool)" in lines
    assert f"(declare-const sel_{len(expected)} Bool)" not in lines


# Base and Leaf share the concrete class Leaf, so a precondition binding
# puts x and y on two Leaf slots or x on Other and y on a Leaf.  A Pair
# needs two Leafs: the negative property's violation has one Leaf, which
# only a binding on the first Leaf slot can show.
ORBIT_SPEC = """
metamodel SOrbit {
    abstract class Base { }
    class Leaf extends Base { }
    class Other extends Base { }
}
metamodel TOrbit {
    class Node { }
    class Pair { }
}
transformation orbit : SOrbit -> TOrbit {
    layer Only {
        rule Base2Node {
            match { any b : Base }
            apply { n : Node }
        }
        rule Leaves2Pair {
            match {
                any l1 : Leaf
                any l2 : Leaf
            }
            apply { p : Pair }
        }
    }
}
property BaseAndLeafHaveNodes "A Base and a Leaf map to their Nodes." {
    precondition {
        any x : Base
        any y : Leaf
    }
    postcondition {
        n : Node
        m : Node
        n <--trace-- x
        m <--trace-- y
    }
}
property BaseAndLeafMakeAPair_ShouldFail "Negative: one Leaf, no Pair." {
    precondition {
        any x : Base
        any y : Leaf
    }
    postcondition { p : Pair }
}
"""


def test_canonical_bindings_agree_with_oracle():
    spec = parse_spec(ORBIT_SPEC, "inline")
    assert not isinstance(spec, list), spec
    config = VerificationConfig()
    for prop in spec.properties:
        bounds, t = source_bounds_for(spec, prop,
                                      RelevanceMode.TRACE_ATTRIBUTE_AWARE)
        assert (bounds["Leaf"], bounds["Other"]) == (2, 1), prop.name
        expected = oracle_verdict(spec, prop, bounds, t)
        assert expected == (VIOLATED if prop.name.endswith("_ShouldFail")
                            else HOLDS), prop.name
        assert verify_property(spec, prop, config).status == expected, \
            prop.name
    for prop in spec.properties:
        problem = encode(spec, prop, plan_property(spec, prop, config)
                         .bounds, EncodeOptions(), t)
        assert problem.pre_bindings == [
            {"x": ("Leaf", 0), "y": ("Leaf", 1)},
            {"x": ("Other", 0), "y": ("Leaf", 0)}], prop.name


# -- cardinality: association upper bounds and creation caps ----------------

def _solver_answer(text):
    out = io.StringIO()
    solve_text(text, out=out)
    return out.getvalue().split()[0]


# An Item's tags row is limited by the association's upper bound UPPER; with
# UPPER = 2 no Item has three Tags, so both properties hold vacuously.
TAG_SPEC = """
metamodel TagSrc {
    class Item { flag: Bool }
    class Tag { }
    assoc tags : Item -> Tag [0..UPPER]
}
metamodel TagTgt { class Mark { } }
transformation marks : TagSrc -> TagTgt {
    layer Only {
        rule Flagged2Mark {
            match { any i : Item where flag == true }
            apply { m : Mark }
        }
    }
}
property ThreeTagsHaveMark "An Item linked to three distinct Tags has a Mark." {
    precondition {
        any i : Item
        any a : Tag
        any b : Tag
        any c : Tag
        direct ra : tags -- i.a
        direct rb : tags -- i.b
        direct rc : tags -- i.c
    }
    postcondition {
        m : Mark
        m <--trace-- i
    }
}
property FlaggedThreeTagsHaveMark "A flagged such Item has a Mark." {
    precondition {
        any i : Item where flag == true
        any a : Tag
        any b : Tag
        any c : Tag
        direct ra : tags -- i.a
        direct rb : tags -- i.b
        direct rc : tags -- i.c
    }
    postcondition {
        m : Mark
        m <--trace-- i
    }
}
"""

# rows of five links, longer than either upper bound, so the counter is used
TAG_BOUNDS = PerClassBounds(source={"Item": 2, "Tag": 5},
                            target={"Mark": 2})


@pytest.mark.parametrize("upper, expected", [
    (2, {"ThreeTagsHaveMark": HOLDS, "FlaggedThreeTagsHaveMark": HOLDS}),
    (3, {"ThreeTagsHaveMark": VIOLATED, "FlaggedThreeTagsHaveMark": HOLDS}),
])
def test_upper_bound_counter_agrees_with_oracle(upper, expected):
    spec = parse_spec(TAG_SPEC.replace("UPPER", str(upper)), "inline")
    assert not isinstance(spec, list), spec
    t = spec.transformations[0]
    mm = spec.metamodel(t.source)
    for prop in spec.properties:
        want = expected[prop.name]
        assert oracle_verdict(spec, prop, {"Item": 1, "Tag": 4}) == want
        verdict = verify_property(spec, prop)
        assert verdict.status == want, (upper, prop.name)
        problem = encode(spec, prop, TAG_BOUNDS, EncodeOptions(), t)
        solved = run_solver(problem, 60)
        assert solved.status == ("sat" if want == VIOLATED else "unsat")
        sources = []
        if verdict.counterexample:
            sources.append(verdict.counterexample[0])
        if solved.status == "sat":
            sources.append(decode_counterexample(solved.model, problem,
                                                 spec)[0])
        for source in sources:
            assert validate_conformance(source, mm).conformant
            result = execute(t, source, spec)
            assert not check_property_concrete(prop, source, result,
                                               spec).holds


def test_ceiling_counts_an_at_most_term_as_its_counter_clauses():
    # each Item's row of 5 tags under [0..2] is one term, which the ceiling
    # counts as the 2nk + n - 3k - 1 = 18 clauses of its counter, and each
    # Item's flag is at most one of its 2 value Bools, counted as 2
    spec = parse_spec(TAG_SPEC.replace("UPPER", "2"), "inline")
    enc = Encoder(spec, spec.property("ThreeTagsHaveMark"), TAG_BOUNDS,
                  EncodeOptions(), spec.transformations[0])
    enc.encode()
    terms = [a for a in enc.asserts if a.startswith("(assert (<= (+ ")]
    rows = [a for a in terms if a.startswith("(assert (<= (+ (ite ln_s_")]
    assert len(rows) == TAG_BOUNDS.source["Item"]
    assert len(terms) == 2 * len(rows)
    emitted = len(enc.asserts) + len(rows) * 17 + (len(terms) - len(rows))
    enc.options.binding_ceiling = emitted
    enc.checkpoint()
    enc.options.binding_ceiling = emitted - 1
    with pytest.raises(EncodingCeilingError,
                       match=rf", {emitted} assertions\)"):
        enc.checkpoint()


def test_upper_bound_encoding_grows_polynomially():
    # tags [0..3] is read by the precondition, so its links are encoded
    spec = parse_spec(TAG_SPEC.replace("UPPER", "3"), "inline")
    bounds = PerClassBounds(source={"Item": 16, "Tag": 16},
                            target={"Mark": 16})
    problem = encode(spec, spec.property("ThreeTagsHaveMark"), bounds,
                     EncodeOptions(), spec.transformations[0])
    # one at-most-3 term per Item's row of 16 links
    lines = problem.text.splitlines()
    terms = [a for a in lines if a.startswith("(assert (<= (+ (ite ln_s_")]
    assert len(terms) == 16
    assert all(t.count("(ite ln_s_tags_") == 16 and t.endswith(" 3))")
               for t in terms)
    assertions = sum(1 for line in lines if line.startswith("(assert"))
    # one clause per 4-subset of each 16-link row would be 16 * 1,820
    assert assertions < 3000


NEGATIVE_SPEC = """
metamodel NegSrc {
    class Reading { v: Int[-2..1] }
}
metamodel NegTgt {
    class Alarm { level: Int[-2..1] }
    class Mark { code: Int{-3, -1, 2} }
}
transformation alarms : NegSrc -> NegTgt {
    layer Only {
        rule Cold2Alarm {
            match { any r : Reading where v < -1 }
            apply { a : Alarm { level = r.v } }
        }
        rule Cool2Mark {
            match { any r : Reading where v <= 0 }
            apply { m : Mark { code = -3 } }
        }
    }
}
property ColdestHasAlarm "A reading of -2 raises an alarm at level -2." {
    precondition { any r : Reading where v == -2 }
    postcondition {
        a : Alarm where level == -2
        a <--trace-- r
    }
}
property ChillyHasAlarm_ShouldFail "Negative: -1 raises no alarm." {
    precondition { any r : Reading where v >= -1 }
    postcondition {
        a : Alarm
        a <--trace-- r
    }
}
property CoolHasMark "A reading below 1 gets a mark of -3." {
    precondition { any r : Reading where v != 1 }
    postcondition {
        m : Mark where code == -3
        m <--trace-- r
    }
}
"""

# the verdict of each property at two source slots
NEGATIVE_EXPECTED = {"ColdestHasAlarm": HOLDS,
                     "ChillyHasAlarm_ShouldFail": VIOLATED,
                     "CoolHasMark": HOLDS}


def test_negative_domains_agree_with_the_oracle():
    # a guard is a disjunction of value Bools, so neither a negative
    # constant nor an Int reaches the text
    spec = _inline_spec(NEGATIVE_SPEC)
    t = spec.transformations[0]
    target = {"Alarm": 2, "Mark": 2}
    bounds = PerClassBounds(source={"Reading": 2}, target=target)
    for prop in spec.properties:
        want = NEGATIVE_EXPECTED[prop.name]
        assert oracle_verdict(spec, prop, {"Reading": 2}) == want
        assert verify_property(spec, prop).status == want
        text = encode(spec, prop, bounds, EncodeOptions(), t).text
        assert "(- " not in text and " Int)" not in text
        assert not [tok for tok in tokenize_sexprs(text)
                    if re.fullmatch("-[0-9]+", tok)]
    _assert_agrees_with_oracle(spec, {"Reading": 2}, target)


# -- slicing to what the property reads ---------------------------------------

def _assert_agrees_with_oracle(spec, source, target):
    """For every property of ``spec``, ``verify`` and the encoding at the
    source bounds ``source`` (with ``target`` caps per target class, that
    cap no creation) give the oracle's verdict, at the verifier's bounds
    and at ``source``; every counterexample conforms and replays."""
    t = spec.transformations[0]
    mm = spec.metamodel(t.source)
    bounds = PerClassBounds(source=source, target=target)
    for prop in spec.properties:
        verdict = verify_property(spec, prop)
        own, _ = source_bounds_for(spec, prop,
                                   RelevanceMode.TRACE_ATTRIBUTE_AWARE)
        assert verdict.status == oracle_verdict(spec, prop, own), prop.name
        want = oracle_verdict(spec, prop, source)
        problem = encode(spec, prop, bounds, EncodeOptions(), t)
        solved = run_solver(problem, 60)
        assert solved.status == ("sat" if want == VIOLATED else "unsat"), \
            prop.name
        sources = []
        if verdict.counterexample:
            sources.append(verdict.counterexample[0])
        if solved.status == "sat":
            sources.append(decode_counterexample(solved.model, problem,
                                                 spec)[0])
        for src in sources:
            assert validate_conformance(src, mm).conformant, prop.name
            result = execute(t, src, spec)
            assert not check_property_concrete(prop, src, result,
                                               spec).holds, prop.name


def _apply_links(text):
    """The apply-link assertions of ``text``: firings imply a target
    link."""
    return [line for line in text.splitlines()
            if re.fullmatch(r"\(assert \(=> \S.* ln_t_\w+\)\)", line)]


def _keep_every_apply_link(monkeypatch):
    """Make the encoder write every apply link of the associations that the
    postcondition reads, as if no end were traced."""
    monkeypatch.setattr(Encoder, "_link_needs", lambda self: {
        l.assoc: {(frozenset(), frozenset())}
        for l in self.prop.postcondition.links})


# ref is read by a match and by a precondition; tag by neither.  With
# LOWER = 0 its links are sliced away; with LOWER = 1 every A needs a B, so
# B2TB makes a TB and AHasSomeTB holds, which the links' lower bounds must
# show.
UNREAD_SPEC = """
metamodel USrc {
    class A { }
    class B { }
    assoc tag : A -> B [LOWER..*]
    assoc ref : A -> B [0..*]
}
metamodel UTgt {
    class TA { }
    class TB { }
    assoc tref : TA -> TB [0..*]
}
transformation unread : USrc -> UTgt {
    layer Make {
        rule A2TA { match { any a : A } apply { ta : TA } }
        rule B2TB { match { any b : B } apply { tb : TB } }
    }
    layer Wire {
        rule Ref2TRef {
            match {
                any a : A
                any b : B
                direct r : ref -- a.b
            }
            apply {
                ta : TA
                tb : TB
                t : tref -- ta.tb
            }
            backward {
                ta <--trace-- a
                tb <--trace-- b
            }
        }
    }
}
property RefHasTRef "A ref link maps to a tref link between the images." {
    precondition {
        any a : A
        any b : B
        direct r : ref -- a.b
    }
    postcondition {
        ta : TA
        tb : TB
        t : tref -- ta.tb
        ta <--trace-- a
        tb <--trace-- b
    }
}
property AHasSomeTB "Some TB exists wherever an A does." {
    precondition { any a : A }
    postcondition { tb : TB }
}
"""


@pytest.mark.parametrize("lower, some_tb",
                         [(0, VIOLATED), (1, HOLDS), (2, HOLDS)])
def test_unread_source_association_is_sliced_unless_bounded_below(lower,
                                                                 some_tb):
    spec = _inline_spec(UNREAD_SPEC.replace("LOWER", str(lower)))
    t = spec.transformations[0]
    assert oracle_verdict(spec, spec.property("AHasSomeTB"),
                          {"A": 1, "B": 1}) == some_tb
    for prop in spec.properties:
        problem = encode(spec, prop, PerClassBounds(
            source={"A": 2, "B": 2}, target={"TA": 2, "TB": 2}),
            EncodeOptions(), t)
        assert ("ln_s_tag_" in problem.text) == bool(lower), prop.name
        # each A's lower bound, at least 2 through a shared definition, and
        # its links' existing ends
        defs = dict(re.findall(r"^\(define-fun (\S+) \(\) Bool (.*)\)$",
                               problem.text, re.M))
        needs = re.findall(r"^\(assert \(=> ex_s_A_0 (.*)\)\)$",
                           problem.text, re.M)
        row = "ln_s_tag_A_0_B_0 ln_s_tag_A_0_B_1"
        assert [defs.get(x, x) for x in needs] == \
            [[], [f"(or {row})"], [f"(and {row})"]][lower], prop.name
        assert ("(assert (=> ln_s_tag_A_0_B_0 (and ex_s_A_0 ex_s_B_0)))"
                in problem.text.splitlines()) == bool(lower), prop.name
        assert "ln_s_ref_" in problem.text
        # the postcondition of AHasSomeTB reads no tref link
        assert ("ln_t_tref_" in problem.text) == \
            (prop.name == "RefHasTRef"), prop.name
    _assert_agrees_with_oracle(spec, {"A": 2, "B": 2},
                               {"TA": 2, "TB": 2})


# Special is a concrete subclass of Node, so the precondition has two
# canonical bindings, x on Node_0 or on Special_0, with y on the next free
# Special slot.  The ends of each postcondition link are traced to x and y:
# only Next2TNext firings on (x, y) of some canonical binding write tnext
# links.
SUB_SPEC = """
metamodel SubSrc {
    class Node { }
    class Special extends Node { }
    assoc next : Node -> Special [0..*]
}
metamodel SubTgt {
    class TN { }
    assoc tnext : TN -> TN [0..*]
}
transformation sub : SubSrc -> SubTgt {
    layer Make { rule Node2TN { match { any n : Node } apply { t : TN } } }
    layer Wire {
        rule Next2TNext {
            match {
                any a : Node
                any b : Special
                direct l : next -- a.b
            }
            apply {
                ta : TN
                tb : TN
                e : tnext -- ta.tb
            }
            backward {
                ta <--trace-- a
                tb <--trace-- b
            }
        }
    }
}
property NextHasTNext "A next link maps to a tnext link." {
    precondition {
        any x : Node
        any y : Special
        direct l : next -- x.y
    }
    postcondition {
        tx : TN
        ty : TN
        e : tnext -- tx.ty
        tx <--trace-- x
        ty <--trace-- y
    }
}
property NextHasBackTNext_ShouldFail "Negative: tnext runs forward only." {
    precondition {
        any x : Node
        any y : Special
        direct l : next -- x.y
    }
    postcondition {
        tx : TN
        ty : TN
        e : tnext -- ty.tx
        tx <--trace-- x
        ty <--trace-- y
    }
}
"""


def test_apply_links_need_the_traces_of_both_ends(monkeypatch):
    spec = _inline_spec(SUB_SPEC)
    source = {"Node": 2, "Special": 2}
    target = {"TN": 4}
    bounds = PerClassBounds(source=source, target=target)
    t = spec.transformations[0]
    for prop in spec.properties:
        problem = encode(spec, prop, bounds, EncodeOptions(), t)
        assert problem.pre_bindings == [
            {"x": ("Node", 0), "y": ("Special", 0)},
            {"x": ("Special", 0), "y": ("Special", 1)}], prop.name
        with monkeypatch.context() as m:
            _keep_every_apply_link(m)
            every = encode(spec, prop, bounds, EncodeOptions(), t)
        assert 0 < len(_apply_links(problem.text)) \
            < len(_apply_links(every.text)), prop.name
    _assert_agrees_with_oracle(spec, source, target)


# AB2P makes a P for each ab link, traced to both of its ends, and hangs it
# off the TA of its A.  p has two traces in PairIsOwned and
# PairIsOwnedByAnother_ShouldFail; the other properties leave the TA end of
# their has link untraced, and SomeTAOwnsAP_ShouldFail both ends.
PAIR_SPEC = """
metamodel PairSrc {
    class A { }
    class B { }
    assoc ab : A -> B [0..*]
}
metamodel PairTgt {
    class TA { }
    class P { }
    assoc has : TA -> P [0..*]
}
transformation pairs : PairSrc -> PairTgt {
    layer Make { rule A2TA { match { any a : A } apply { ta : TA } } }
    layer Pair {
        rule AB2P {
            match {
                any a : A
                any b : B
                direct l : ab -- a.b
            }
            apply {
                ta : TA
                p : P
                h : has -- ta.p
            }
            backward { ta <--trace-- a }
        }
    }
}
property PairIsOwned "The P of a linked pair hangs off the pair's A." {
    precondition {
        any a : A
        any b : B
        direct l : ab -- a.b
    }
    postcondition {
        ta : TA
        p : P
        h : has -- ta.p
        ta <--trace-- a
        p <--trace-- a
        p <--trace-- b
    }
}
property PairIsOwnedByAnother_ShouldFail "Negative: only its own A owns it." {
    precondition {
        any a : A
        any a2 : A
        any b : B
        direct l : ab -- a.b
    }
    postcondition {
        ta : TA
        p : P
        h : has -- ta.p
        ta <--trace-- a2
        p <--trace-- a
        p <--trace-- b
    }
}
property LinkedBHasOwnedP "A linked B's P is owned by some TA." {
    precondition {
        any a : A
        any b : B
        direct l : ab -- a.b
    }
    postcondition {
        ta : TA
        p : P
        h : has -- ta.p
        p <--trace-- b
    }
}
property AnyBHasOwnedP_ShouldFail "Negative: an unlinked B has no P." {
    precondition { any b : B }
    postcondition {
        ta : TA
        p : P
        h : has -- ta.p
        p <--trace-- b
    }
}
property SomeTAOwnsAP_ShouldFail "Negative: no link, no P." {
    precondition { any b : B }
    postcondition {
        ta : TA
        p : P
        h : has -- ta.p
    }
}
"""


def test_apply_links_of_doubly_traced_and_untraced_ends(monkeypatch):
    spec = _inline_spec(PAIR_SPEC)
    source = {"A": 2, "B": 2}
    target = {"TA": 2, "P": 4}
    bounds = PerClassBounds(source=source, target=target)
    t = spec.transformations[0]
    links = {}
    for prop in spec.properties:
        problem = encode(spec, prop, bounds, EncodeOptions(), t)
        with monkeypatch.context() as m:
            _keep_every_apply_link(m)
            every = encode(spec, prop, bounds, EncodeOptions(), t)
        links[prop.name] = (len(_apply_links(problem.text)),
                            len(_apply_links(every.text)))
        # an untraced end needs nothing: with both ends untraced, every
        # apply link is written
        if prop.name == "SomeTAOwnsAP_ShouldFail":
            assert problem.text == every.text
    # AB2P fires on (A0, B0), (A0, B1), (A1, B0) and (A1, B1), each with
    # one apply link from the one TA of its A to its own P, so every apply
    # link is 4 lines.  A witness for the canonical a = A0, b = B0 (and
    # a2 = A1) reads only the first firing's link, needs a TA of A1 there,
    # or reads the links of the 2 Ps of B0.
    assert links == {"PairIsOwned": (1, 4),
                     "PairIsOwnedByAnother_ShouldFail": (0, 4),
                     "LinkedBHasOwnedP": (2, 4),
                     "AnyBHasOwnedP_ShouldFail": (2, 4),
                     "SomeTAOwnsAP_ShouldFail": (4, 4)}
    _assert_agrees_with_oracle(spec, source, target)


# -- fresh elements of one class ------------------------------------------------

# A2TwoB creates two B elements per A: two creations of one firing, which
# are distinct elements by construction.
TWO_FRESH_SPEC = """
metamodel S { class A { } }
metamodel T { class B { } }
transformation t : S -> T {
    layer L { rule A2TwoB { match { any a : A } apply { b1 : B  b2 : B } } }
}
property EveryAHasTwoB "Each A makes two Bs of its own." {
    precondition { any a : A }
    postcondition {
        b1 : B
        b2 : B
        b1 <--trace-- a
        b2 <--trace-- a
    }
}
property EveryAHasThreeB_ShouldFail "Negative: no A makes three Bs." {
    precondition { any a : A }
    postcondition {
        b1 : B
        b2 : B
        b3 : B
        b1 <--trace-- a
        b2 <--trace-- a
        b3 <--trace-- a
    }
}
"""


def test_fresh_elements_of_one_class_take_distinct_slots():
    spec = _inline_spec(TWO_FRESH_SPEC)
    t = spec.transformations[0]
    bounds = PerClassBounds(source={"A": 2}, target={"B": 4})
    lines = encode(spec, spec.property("EveryAHasTwoB"), bounds,
                   EncodeOptions(), t).text.splitlines()
    # the first A's two Bs are the two creations of its firing, so the
    # witness is that firing; three Bs of one A have no witness
    assert "(assert (=> sel_0 (and ex_s_A_0 (not fr_A2TwoB_0))))" in lines
    lines = encode(spec, spec.property("EveryAHasThreeB_ShouldFail"), bounds,
                   EncodeOptions(), t).text.splitlines()
    assert "(assert (=> sel_0 ex_s_A_0))" in lines
    assert verify_property(spec, "EveryAHasTwoB").status == HOLDS
    assert verify_property(spec, "EveryAHasThreeB_ShouldFail").status \
        == VIOLATED
    _assert_agrees_with_oracle(spec, {"A": 2}, {"B": 4})


# A2Base creates an element of the abstract class Base, as the engine does:
# it is no LeafT, so an A has no LeafT traced to it.
ABSTRACT_APPLY_SPEC = """
metamodel S { class A { } }
metamodel T {
    abstract class Base { }
    class LeafT extends Base { }
}
transformation t : S -> T {
    layer L { rule A2Base { match { any a : A } apply { b : Base } } }
}
property AHasLeafT "Every A maps to a LeafT." {
    precondition { any a : A }
    postcondition {
        x : LeafT
        x <--trace-- a
    }
}
"""


def test_fresh_element_of_an_abstract_class_keeps_its_class():
    spec = _inline_spec(ABSTRACT_APPLY_SPEC)
    t = spec.transformations[0]
    prop = spec.property("AHasLeafT")
    assert oracle_verdict(spec, prop, {"A": 2}) == VIOLATED
    verdict = verify_property(spec, prop)
    assert verdict.status == VIOLATED
    source, target, _ = verdict.counterexample
    result = execute(t, source, spec)
    assert target == result.target
    assert [e.klass for e in target.elements] == ["Base"]
    assert not check_property_concrete(prop, source, result, spec).holds


# A2B binds no w, so the engine's B has no w and every guard on it is
# false, even one that each value of w meets.
UNBOUND_ATTR_SPEC = """
metamodel S { class A { } }
metamodel T { class B { w: Int[0..3] } }
transformation t : S -> T {
    layer L { rule A2B { match { any a : A } apply { b : B } } }
}
property AHasBWithW "Every A maps to a B whose w is at least 0." {
    precondition { any a : A }
    postcondition {
        b : B where w >= 0
        b <--trace-- a
    }
}
property AHasBWithWNot7 "Every A maps to a B whose w is not 7." {
    precondition { any a : A }
    postcondition {
        b : B where w != 7
        b <--trace-- a
    }
}
"""


def test_guard_on_an_unbound_attribute_is_false():
    spec = _inline_spec(UNBOUND_ATTR_SPEC)
    t = spec.transformations[0]
    for prop in spec.properties:
        assert oracle_verdict(spec, prop, {"A": 2}) == VIOLATED, prop.name
        verdict = verify_property(spec, prop)
        assert verdict.status == VIOLATED, prop.name
        source, target, _ = verdict.counterexample
        result = execute(t, source, spec)
        assert target == result.target, prop.name
        assert not check_property_concrete(prop, source, result,
                                           spec).holds, prop.name
        text = encode(spec, prop, PerClassBounds(source={"A": 2}),
                      EncodeOptions(), t).text
        assert "at_t_" not in text, prop.name


# v == 9 and w == "z" never hold and their negations always do: each
# literal lies outside its attribute's domain.
OUT_OF_DOMAIN_SPEC = """
metamodel S { class A { v: Int[0..3]  w: String["x", "y"] } }
metamodel T {
    class B { }
    class C { }
}
transformation t : S -> T {
    layer L {
        rule Nine2B { match { any a : A where v == 9 } apply { b : B } }
        rule Zed2B { match { any a : A where w == "z" } apply { b : B } }
        rule NotNine2C { match { any a : A where v != 9 } apply { c : C } }
    }
}
property AHasC "Every A maps to a C." {
    precondition { any a : A }
    postcondition {
        c : C
        c <--trace-- a
    }
}
property AHasB_ShouldFail "Every A maps to a B." {
    precondition { any a : A where w != "z" }
    postcondition {
        b : B
        b <--trace-- a
    }
}
property NineAHasB "An A whose v is 9 maps to a B." {
    precondition { any a : A where v == 9 }
    postcondition {
        b : B
        b <--trace-- a
    }
}
"""


def test_guard_with_a_literal_outside_its_domain():
    spec = _inline_spec(OUT_OF_DOMAIN_SPEC)
    t = spec.transformations[0]
    expected = {"AHasC": HOLDS, "AHasB_ShouldFail": VIOLATED,
                "NineAHasB": HOLDS}
    for prop in spec.properties:
        assert oracle_verdict(spec, prop, {"A": 2}) == expected[prop.name]
        # every guard is a constant, so no attribute is declared
        text = encode(spec, prop, PerClassBounds(source={"A": 2}),
                      EncodeOptions(), t).text
        assert "at_s_" not in text, prop.name
    _assert_agrees_with_oracle(spec, {"A": 2}, {})


# -- attributes declared where they are read ----------------------------------

# Flag2Out's guard reads flag; nothing reads size, which Flag2Out copies
# into an Out that no guard reads.
UNREAD_ATTR_SPEC = """
metamodel S { class A { flag: Bool  size: Int[2..5] } }
metamodel T { class Out { s: Int[2..5] } }
transformation t : S -> T {
    layer L {
        rule Flag2Out {
            match { any a : A where flag == true }
            apply { o : Out { s = a.size } }
        }
    }
}
property AHasOut_ShouldFail "Every A maps to an Out." {
    precondition { any a : A }
    postcondition {
        o : Out
        o <--trace-- a
    }
}
"""


def test_unread_attribute_decodes_to_its_first_value():
    spec = _inline_spec(UNREAD_ATTR_SPEC)
    t = spec.transformations[0]
    prop = spec.property("AHasOut_ShouldFail")
    _assert_agrees_with_oracle(spec, {"A": 2}, {})
    assert oracle_verdict(spec, prop, {"A": 2}) == VIOLATED
    text = encode(spec, prop, PerClassBounds(source={"A": 2}),
                  EncodeOptions(), t).text
    assert "at_s_A_0_flag" in text and "_size" not in text
    verdict = verify_property(spec, prop)
    assert verdict.status == VIOLATED
    source, target, _ = verdict.counterexample
    # the attribute that the encoding leaves out takes its first value
    assert source.elements and \
        {e.attr_map()["size"] for e in source.elements} == {2}
    assert target == execute(t, source, spec).target


# Only R2TR writes tr links, between A2TA and B2TB creations, so a witness
# whose TA is C2TA's reads a link that nothing writes and is false before
# its guard reads C's u through the copy.
FALSE_WITNESS_SPEC = """
metamodel S {
    class A { }
    class B { }
    class C { u: Int[0..3] }
    assoc r : A -> B [0..*]
}
metamodel T {
    class TA { w: Int[0..3] }
    class TB { }
    assoc tr : TA -> TB [0..*]
}
transformation t : S -> T {
    layer Make {
        rule A2TA { match { any a : A } apply { ta : TA { w = 1 } } }
        rule C2TA { match { any c : C } apply { ta : TA { w = c.u } } }
        rule B2TB { match { any b : B } apply { tb : TB } }
    }
    layer Wire {
        rule R2TR {
            match {
                any a : A
                any b : B
                direct l : r -- a.b
            }
            apply {
                ta : TA
                tb : TB
                e : tr -- ta.tb
            }
            backward {
                ta <--trace-- a
                tb <--trace-- b
            }
        }
    }
}
property BHasOneLink_ShouldFail "Every B gets a tr link from a TA of w 1." {
    precondition { any b : B }
    postcondition {
        ta : TA where w == 1
        tb : TB
        e : tr -- ta.tb
        tb <--trace-- b
    }
}
"""


def test_a_false_witness_declares_no_attribute():
    spec = _inline_spec(FALSE_WITNESS_SPEC)
    source = {"A": 1, "B": 1, "C": 1}
    text = encode(spec, spec.properties[0], PerClassBounds(source=source),
                  EncodeOptions(), spec.transformations[0]).text
    assert "at_s_" not in text
    _assert_agrees_with_oracle(spec, source, {})


def _symbols(line):
    """The names in an SMT-LIB line, but for its connectives."""
    return set(re.findall(r"[A-Za-z_]\w*", line)) - {"assert", "and", "or",
                                                     "not", "ite"}


def test_no_absent_slot_pins_and_every_attribute_is_read(fixture_dumps):
    for name, text in fixture_dumps:
        assert "(=> (not ex_s_" not in text, name
        lines = [_symbols(line) for line in text.splitlines()
                 if not line.startswith("(declare-const ")]
        attrs = {}  # attribute -> its value Bools
        for value in re.findall(r"\(declare-const (at_s_\w+) Bool\)", text):
            attrs.setdefault(value.rsplit("_", 1)[0], set()).add(value)
        for attr, values in attrs.items():
            # its exactly-one names no symbol but its value Bools
            assert any(names & values and not names <= values
                       for names in lines), (name, attr)


@pytest.mark.parametrize("m", range(5))
def test_exactly_one_is_sequential(m):
    spec = _inline_spec(UNREAD_ATTR_SPEC)
    enc = Encoder(spec, spec.properties[0], PerClassBounds(source={"A": 1}),
                  EncodeOptions(), spec.transformations[0])
    names = [f"c_{i}" for i in range(m)]
    term = enc.exactly_one(names)
    # one shared prefix disjunction and one exclusion per later candidate
    assert len(enc.defs) == max(m - 1, 0) == term.count("(not (and ")
    for values in itertools.product((False, True), repeat=m):
        out = io.StringIO()
        solve_text("\n".join(
            [f"(declare-const {n} Bool)" for n in names] + enc.defs
            + [f"(assert {term})"]
            + [f"(assert {n if v else f'(not {n})'})"
               for n, v in zip(names, values)] + ["(check-sat)"]), out=out)
        assert out.getvalue().split()[0] == \
            ("sat" if sum(values) == 1 else "unsat"), values
