from dsltv.engine import (check_property_concrete, enumerate_matches, execute)
from dsltv.model import InstanceModel
from dsltv.parser import parse_spec
from dsltv.spec_ast import EnumValue


def _uml_source(uml2java):
    m = InstanceModel()
    m = m.with_element("m1", "Model", {"name": "app"})
    m = m.with_element("p1", "Package", {"name": "core"})
    m = m.with_element("c1", "Class", {"name": "util", "isAbstract": False,
                                       "isFinal": False, "priority": 0,
                                       "layerTag": "domain",
                                       "kind": EnumValue("ClassKind",
                                                         "Entity")})
    m = m.with_link("owningModel", "p1", "m1")
    m = m.with_link("packagedElement", "p1", "c1")
    return m


def test_matching_is_injective():
    spec = parse_spec("""
metamodel M {
    class A { }
    assoc knows : A -> A [0..*]
}
metamodel N { class B { } }
transformation t : M -> N {
    layer L {
        rule R {
            match {
                any x : A
                any y : A
            }
            apply { b : B }
        }
    }
}
""", "inline")
    info = spec.metamodel("M").info
    model = InstanceModel().with_element("a1", "A", {})
    rule = spec.transformations[0].layers[0].rules[0]
    assert list(enumerate_matches(rule.match, model, info)) == []
    model = model.with_element("a2", "A", {})
    matches = list(enumerate_matches(rule.match, model, info))
    assert len(matches) == 2
    assert all(b["x"] != b["y"] for b in matches)


def test_execute_uml2java_produces_expected_target(uml2java):
    source = _uml_source(uml2java)
    result = execute(uml2java.transformations[0], source, uml2java)
    classes = sorted(e.klass for e in result.target.elements)
    assert "CompilationUnit" in classes
    assert "PackageDeclaration" in classes
    assert "ClassDeclaration" in classes
    # every firing traces all matched sources to all created targets
    for f in result.firings:
        for _, sid in f.binding:
            for tid in f.created:
                assert (sid, tid) in {(t.src, t.tgt) for t in result.traces}


def test_created_ids_are_deterministic(uml2java):
    source = _uml_source(uml2java)
    a = execute(uml2java.transformations[0], source, uml2java)
    b = execute(uml2java.transformations[0], source, uml2java)
    assert a.target == b.target
    assert a.firings == b.firings
    ids = {e.id for e in a.target.elements}
    assert any(id.startswith("Package2PackageDeclaration#") for id in ids)


def test_guard_blocks_firing():
    spec = parse_spec("""
metamodel M { class A { flag: Bool } }
metamodel N { class B { } }
transformation t : M -> N {
    layer L {
        rule R { match { any a : A where flag == true } apply { b : B } }
    }
}
""", "inline")
    off = InstanceModel().with_element("a1", "A", {"flag": False})
    result = execute(spec.transformations[0], off, spec)
    assert result.target.elements == frozenset()
    on = InstanceModel().with_element("a1", "A", {"flag": True})
    result = execute(spec.transformations[0], on, spec)
    assert len(result.target.elements) == 1


def test_layer_snapshot_hides_same_layer_output(cegar_spec):
    # both rules in layer one see the same pre-layer snapshot, so neither
    # can depend on the other's output; a true-flag source yields exactly
    # one Widget and one Gadget with independent traces
    src = InstanceModel().with_element("s1", "Source", {"flag": True})
    result = execute(cegar_spec.transformations[0], src, cegar_spec)
    classes = sorted(e.klass for e in result.target.elements)
    assert classes == ["Gadget", "Widget"]
    assert len(result.firings) == 2


def test_backward_ambiguity_skips_firing():
    spec = parse_spec("""
metamodel M { class A { } }
metamodel N {
    class B { }
    class C { }
}
transformation t : M -> N {
    layer One {
        rule R1 { match { any a : A } apply { b : B } }
        rule R2 { match { any a : A } apply { b : B } }
    }
    layer Two {
        rule R3 {
            match { any a : A }
            apply {
                b : B
                c : C
            }
            backward { b <--trace-- a }
        }
    }
}
""", "inline")
    src = InstanceModel().with_element("a1", "A", {})
    result = execute(spec.transformations[0], src, spec)
    # two Bs were created for a1, so the backward link has no unique
    # resolution and R3 must not fire
    assert sorted(e.klass for e in result.target.elements) == ["B", "B"]
    assert any(entry[0] == "R3" for entry in result.skipped)


def test_check_property_concrete_verdicts(uml2java):
    source = _uml_source(uml2java)
    result = execute(uml2java.transformations[0], source, uml2java)
    good = uml2java.property("PackageHasPackageDeclaration")
    assert check_property_concrete(good, source, result, uml2java).holds
    bad = uml2java.property("ClassMappedToInterfaceDeclaration_ShouldFail")
    verdict = check_property_concrete(bad, source, result, uml2java)
    assert not verdict.holds
    assert verdict.violating_bindings
