import json

import pytest

from dsltv.model import (InstanceModel, ModelFormatError, UnboundedClosureError,
                         dump_model, induce_submodel, load_model,
                         mandatory_closure, model_from_parts,
                         validate_conformance)
from dsltv.orchestrator import VIOLATED, VerificationConfig, verify_property
from dsltv.parser import parse_spec
from dsltv.spec_ast import EnumValue


def _mini_model():
    m = InstanceModel()
    m = m.with_element("m1", "Model", {"name": "app"})
    m = m.with_element("p1", "Package", {"name": "core"})
    m = m.with_element("c1", "Class", {"name": "util", "isAbstract": False,
                                       "isFinal": False, "priority": 0,
                                       "layerTag": "domain",
                                       "kind": EnumValue("ClassKind", "Entity")})
    m = m.with_link("owningModel", "p1", "m1")
    m = m.with_link("packagedElement", "p1", "c1")
    return m


def test_empty_parts_of_a_counterexample_share_one_frozenset(corpus):
    spec = dict(corpus)["c06_mandatory.dslt"]
    verdict = verify_property(spec, "ChildHasPOut_ShouldFail",
                              VerificationConfig())
    assert verdict.status == VIOLATED
    empty = model_from_parts().elements
    assert model_from_parts().links is empty
    assert model_from_parts().traces is empty
    source, target, _ = verdict.counterexample
    parts = [getattr(m, part) for m in (source, target)
             for part in ("elements", "links", "traces")]
    assert any(not p for p in parts) and any(parts)
    for p in parts:
        assert p or p is empty
    # equal to the same model built from distinct frozensets
    for m in (source, target):
        fresh = InstanceModel(frozenset(list(m.elements)),
                              frozenset(list(m.links)),
                              frozenset(list(m.traces)))
        assert m == fresh and hash(m) == hash(fresh)


def test_json_round_trip(uml2java):
    model = _mini_model().with_trace("p1", "c1")
    text = dump_model(model)
    assert load_model(text) == model
    # dumped form is plain JSON with stable top-level keys
    doc = json.loads(text)
    assert set(doc) == {"elements", "links", "traces"}


def test_load_rejects_duplicate_ids():
    doc = {"elements": [{"id": "x", "type": "A", "attrs": {}},
                        {"id": "x", "type": "A", "attrs": {}}],
           "links": [], "traces": []}
    with pytest.raises(ModelFormatError):
        load_model(json.dumps(doc))


def test_load_rejects_unknown_keys():
    doc = {"elements": [], "links": [], "traces": [], "bogus": 1}
    with pytest.raises(ModelFormatError):
        load_model(json.dumps(doc))


def test_conformant_model_passes(uml2java):
    mm = uml2java.metamodel("UMLConcrete")
    report = validate_conformance(_mini_model(), mm)
    assert report.conformant, report.violations


def test_abstract_class_instantiation_rejected():
    spec = parse_spec("""
metamodel M {
    abstract class Base { }
    class Leaf extends Base { }
}
metamodel N { class B { } }
transformation t : M -> N {
    layer L { rule R { match { any x : Leaf } apply { b : B } } }
}
""", "inline")
    mm = spec.metamodel("M")
    bad = InstanceModel().with_element("e", "Base", {})
    report = validate_conformance(bad, mm)
    assert not report.conformant
    assert any("abstract" in v.message for v in report.violations)


def test_attribute_domain_violation_detected(uml2java):
    mm = uml2java.metamodel("UMLConcrete")
    bad = InstanceModel().with_element("c1", "Class",
                                       {"name": "C", "isAbstract": 7})
    report = validate_conformance(bad, mm)
    assert not report.conformant


def test_multiplicity_violations_detected():
    spec = parse_spec("""
metamodel M {
    class Child { }
    class Parent { }
    assoc owner : Child -> Parent [1..1]
}
metamodel N { class B { } }
transformation t : M -> N {
    layer L { rule R { match { any p : Parent } apply { b : B } } }
}
""", "inline")
    mm = spec.metamodel("M")
    orphan = InstanceModel().with_element("c", "Child", {})
    assert not validate_conformance(orphan, mm).conformant
    crowded = (InstanceModel()
               .with_element("c", "Child", {})
               .with_element("p1", "Parent", {})
               .with_element("p2", "Parent", {})
               .with_link("owner", "c", "p1")
               .with_link("owner", "c", "p2"))
    assert not validate_conformance(crowded, mm).conformant


def test_mandatory_closure_values(uml2java, uml2java_b4):
    a = mandatory_closure(uml2java.metamodel("UMLConcrete")).effective_arity
    assert a == 1
    b4 = mandatory_closure(uml2java_b4.metamodel("UMLProof")).effective_arity
    assert b4 == 5


def test_mandatory_cycle_is_unbounded():
    spec = parse_spec("""
metamodel M {
    class A { }
    class B { }
    assoc ab : A -> B [1..1]
    assoc ba : B -> A [1..1]
}
metamodel N { class C { } }
transformation t : M -> N {
    layer L { rule R { match { any a : A } apply { c : C } } }
}
""", "inline")
    with pytest.raises(UnboundedClosureError):
        mandatory_closure(spec.metamodel("M"))


def test_induce_submodel_completes_mandatory_links():
    spec = parse_spec("""
metamodel M {
    class Child { }
    class Parent { }
    assoc owner : Child -> Parent [1..1]
}
metamodel N { class B { } }
transformation t : M -> N {
    layer L { rule R { match { any p : Parent } apply { b : B } } }
}
""", "inline")
    mm = spec.metamodel("M")
    full = (InstanceModel()
            .with_element("c", "Child", {})
            .with_element("p", "Parent", {})
            .with_link("owner", "c", "p"))
    sub = induce_submodel(full, {"c"}, mm)
    assert {e.id for e in sub.elements} == {"c", "p"}
    assert validate_conformance(sub, mm).conformant
    assert sub.is_subgraph_of(full)


def test_merge_and_subgraph():
    a = model_from_parts([("x", "A", ())][:0])
    a = InstanceModel().with_element("x", "A", {})
    b = InstanceModel().with_element("y", "B", {})
    both = a.merge(b)
    assert a.is_subgraph_of(both) and b.is_subgraph_of(both)
    assert not both.is_subgraph_of(a)
