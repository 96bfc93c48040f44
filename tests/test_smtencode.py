import pytest

from oracle import oracle_verdict

from dsltv.cutoff import PerClassBounds, RelevanceMode, compute_cutoff, \
    cutoff_params, per_class_bounds, relevant_rules
from dsltv.engine import check_property_concrete, execute
from dsltv.model import mandatory_closure, validate_conformance
from dsltv.orchestrator import HOLDS, VIOLATED, VerificationConfig, \
    verify_property
from dsltv.parser import parse_spec
from dsltv.smtencode import EncodeOptions, EncodingCeilingError, \
    decode_counterexample, encode
from dsltv.smtrun import lazy_closure_loop, run_solver


def _bounds(spec, prop_name, mode=RelevanceMode.TRACE_ATTRIBUTE_AWARE):
    prop = spec.property(prop_name)
    t = spec.transformations[0]
    closure = mandatory_closure(spec.metamodel(t.source))
    rel = relevant_rules(spec, prop, mode)
    k = compute_cutoff(cutoff_params(spec, prop, rel, closure)).k
    return prop, per_class_bounds(spec, prop, rel, k)


def test_encoded_text_is_wellformed_smtlib(uml2java):
    prop, bounds = _bounds(uml2java, "PackageHasPackageDeclaration")
    problem = encode(uml2java, prop, bounds)
    assert problem.text.count("(check-sat)") == 1
    assert "(get-model)" in problem.text
    assert problem.source_slots["Package"] == bounds.source["Package"]


def test_holding_property_is_unsat(uml2java):
    prop, bounds = _bounds(uml2java, "PackageHasPackageDeclaration")
    problem = encode(uml2java, prop, bounds)
    verdict, _ = lazy_closure_loop(problem, 60, uml2java)
    assert verdict.status == "unsat"


def test_violated_property_decodes_to_confirmed_counterexample(uml2java):
    prop, bounds = _bounds(uml2java,
                           "ClassMappedToInterfaceDeclaration_ShouldFail")
    problem = encode(uml2java, prop, bounds)
    verdict, _ = lazy_closure_loop(problem, 60, uml2java)
    assert verdict.status == "sat"
    source, target, binding = decode_counterexample(verdict.model, problem,
                                                    uml2java)
    mm = uml2java.metamodel("UMLConcrete")
    assert validate_conformance(source, mm).conformant
    result = execute(uml2java.transformations[0], source, uml2java)
    assert not check_property_concrete(prop, source, result, uml2java).holds


def test_binding_ceiling_raises(uml2java):
    prop, bounds = _bounds(uml2java, "OwnedPropertyHasOwnedField")
    with pytest.raises(EncodingCeilingError):
        encode(uml2java, prop, bounds, EncodeOptions(binding_ceiling=1))


def test_factored_and_monolithic_agree(uml2java):
    for name in ("PackageHasPackageDeclaration",
                 "ClassMappedToInterfaceDeclaration_ShouldFail"):
        prop, bounds = _bounds(uml2java, name)
        answers = []
        for factored in (True, False):
            problem = encode(uml2java, prop, bounds,
                             EncodeOptions(factored=factored))
            verdict, _ = lazy_closure_loop(problem, 60, uml2java)
            answers.append(verdict.status)
        assert answers[0] == answers[1], name


def test_symmetry_breaking_preserves_verdict(uml2java):
    for name in ("PackageHasPackageDeclaration",
                 "ClassMappedToInterfaceDeclaration_ShouldFail"):
        prop, bounds = _bounds(uml2java, name)
        plain = encode(uml2java, prop, bounds)
        broken = encode(uml2java, prop, bounds,
                        EncodeOptions(symmetry_break=True))
        if any(v >= 2 for v in bounds.source.values()):
            # prefix ordering constraints only exist with multiple slots
            assert len(broken.text) > len(plain.text)
        a, _ = lazy_closure_loop(plain, 60, uml2java)
        b, _ = lazy_closure_loop(broken, 60, uml2java)
        assert a.status == b.status, name


def test_lazy_closure_defers_lower_bounds(uml2java):
    prop, bounds = _bounds(uml2java, "PackageHasPackageDeclaration")
    lazy = encode(uml2java, prop, bounds, EncodeOptions(lazy_closure=True))
    eager = encode(uml2java, prop, bounds, EncodeOptions(lazy_closure=False))
    assert lazy.deferred and not eager.deferred
    a, _ = lazy_closure_loop(lazy, 60, uml2java)
    b, _ = lazy_closure_loop(eager, 60, uml2java)
    assert a.status == b.status


def test_run_solver_timeout_kills_child(uml2java):
    prop, bounds = _bounds(uml2java, "OwnedPropertyHasOwnedField",
                           RelevanceMode.LEGACY)
    problem = encode(uml2java, prop, bounds, EncodeOptions(lazy_closure=False))
    verdict = run_solver(problem, timeout_seconds=0.05)
    assert verdict.status in ("timeout", "sat", "unsat")


# -- target-slot symmetry breaking -------------------------------------------

# Two rules create a Node, a concrete class with the concrete subclass Leaf,
# so their slot choices range over two classes; a third creates a Leaf.
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


def _existing_slots(problem, model):
    """Per target class, the indices of the existing slots."""
    return {c: [j for j in range(n) if model.get(f"ex_t_{c}_{j}")]
            for c, n in problem.target_slots.items()}


def test_slot_symmetry_constraints_are_emitted():
    spec = _slot_spec()
    problem = encode(spec, spec.property("PairHasEdge"), SLOT_BOUNDS)
    lines = problem.text.splitlines()
    # A2Node's choices span Leaf and Node slots (Leaf_0..5, Node_0..5):
    # the first creation may take only Leaf_0 (0) or Node_0 (6), so its
    # range ends at 6 and the values in between are excluded
    assert "(assert (and (<= 0 ch_A2Node_0_n) (<= ch_A2Node_0_n 6)))" \
        in lines
    excluded = {int(ln[len("(assert (not (= ch_A2Node_0_n "):-3])
                for ln in lines
                if ln.startswith("(assert (not (= ch_A2Node_0_n ")}
    assert excluded == {1, 2, 3, 4, 5}
    # B2Leaf's choices are one-class, after the two A2Node creations that
    # may also take Leaf slots: a narrower range per creation
    assert "(assert (and (<= 0 ch_B2Leaf_0_l) (<= ch_B2Leaf_0_l 2)))" \
        in lines
    assert "(assert (and (<= 0 ch_B2Leaf_1_l) (<= ch_B2Leaf_1_l 3)))" \
        in lines
    assert "(assert (=> ex_t_Node_1 ex_t_Node_0))" in lines
    assert "(assert (=> ex_t_Leaf_5 ex_t_Leaf_4))" in lines
    # source-side ordering is left to --symmetry-break
    assert "(assert (=> ex_s_A_1 ex_s_A_0))" not in lines
    ordered = encode(spec, spec.property("PairHasEdge"), SLOT_BOUNDS,
                     EncodeOptions(symmetry_break=True))
    assert "(assert (=> ex_s_A_1 ex_s_A_0))" in ordered.text.splitlines()
    assert len(set(ordered.text.splitlines())) == \
        len(ordered.text.splitlines())


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

        # the same at explicit bounds with enough target slots for every
        # firing, where several creations compete for Node slots
        problem = encode(spec, prop, SLOT_BOUNDS)
        verdict, _ = lazy_closure_loop(problem, 60, spec)
        assert verdict.status == ("sat" if expected == VIOLATED
                                  else "unsat"), prop.name
        if verdict.status != "sat":
            continue
        for c, present in _existing_slots(problem,
                                             verdict.model).items():
            assert present == list(range(len(present))), (prop.name, c)
        source, _, _ = decode_counterexample(verdict.model, problem, spec)
        assert validate_conformance(source, spec.metamodel(t.source)) \
            .conformant
        result = execute(t, source, spec)
        assert not check_property_concrete(prop, source, result,
                                           spec).holds, prop.name


def test_existing_target_slots_form_a_prefix():
    spec = _slot_spec()
    prop = spec.property("AHasLeaf_ShouldFail")
    problem = encode(spec, prop, SLOT_BOUNDS)
    # every source slot exists and every A is paired with every B, so all
    # eight creations fire and fill Node and Leaf slots
    forced = problem.with_extra_assertions(
        [f"(assert {v})" for v in problem.varmap
         if v.startswith("ex_s_") or v.startswith("ln_s_")])
    verdict, _ = lazy_closure_loop(forced, 60, spec)
    assert verdict.status == "sat"
    present = _existing_slots(forced, verdict.model)
    assert sum(len(p) for p in present.values()) == 8
    for c, p in present.items():
        assert p == list(range(len(p))), c
