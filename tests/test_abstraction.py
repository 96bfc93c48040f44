import pytest

from dsltv.abstraction import (AbstractionError, collect_observables,
                               flatten_property, synthesize_abstraction,
                               validate_abstraction)
from dsltv.parser import parse_spec
from dsltv.spec_ast import IntSet, StringVocab


INFINITE = """
metamodel Src {
    class Item {
        weight: Int
        label: String
    }
}
metamodel Tgt {
    class Entry { note: String }
}
transformation pack : Src -> Tgt {
    layer Only {
        rule Heavy2Entry {
            match { any i : Item where weight >= 10 and label != "skip" }
            apply { e : Entry { note = "done" } }
        }
    }
}
property HeavyHasEntry "Heavy items map to entries." {
    precondition { any i : Item where weight >= 10 and label != "skip" }
    postcondition {
        e : Entry
        e <--trace-- i
    }
}
"""


def _spec():
    spec = parse_spec(INFINITE, "inline")
    assert not isinstance(spec, list), spec
    return spec


def test_observables_key_on_declaring_class():
    obs = collect_observables(_spec())
    assert ("Src", "Item", "weight") in obs
    assert ("Src", "Item", "label") in obs
    ops = {op for op, _ in obs[("Src", "Item", "weight")]}
    assert ">=" in ops


def test_synthesis_replaces_infinite_domains():
    spec = _spec()
    proof, amap = synthesize_abstraction(spec)
    item = proof.find_class("Item")[1]
    domains = {a.name: a.domain for a in item.attributes}
    weight, label = domains["weight"], domains["label"]
    assert isinstance(weight, IntSet)
    assert isinstance(label, StringVocab)
    # cut points straddle the guard constant
    assert any(v < 10 for v in weight.members)
    assert any(v >= 10 for v in weight.members)
    assert "skip" in label.words
    assert len(label.words) >= 2  # literal plus catch-all


def test_validation_accepts_synthesized_map():
    spec = _spec()
    _, amap = synthesize_abstraction(spec)
    report = validate_abstraction(spec, amap)
    assert report.valid, report.predicate_outcomes


def test_map_json_is_serializable():
    import json
    _, amap = synthesize_abstraction(_spec())
    doc = json.loads(json.dumps(amap.to_json()))
    kinds = {entry["kind"] for blocks in doc.values() for entry in blocks}
    assert kinds <= {"interval", "value"}


def test_finite_spec_needs_no_abstraction(uml2java):
    proof, amap = synthesize_abstraction(uml2java)
    assert proof == uml2java
    assert not amap.blocks


def test_flatten_keeps_abstract_property_whole(uml2java):
    prop = uml2java.property("PackageHasPackageDeclaration")
    assert flatten_property(prop, uml2java) == [prop]

    # an element over the abstract Classifier stays abstract: the encoder
    # and the concrete check range it over the concrete subtypes
    abstract_prop = parse_spec_text_property(uml2java)
    assert flatten_property(abstract_prop, uml2java) == [abstract_prop]
    _, decl = uml2java.find_class("Classifier")
    assert decl.abstract


def test_flatten_rejects_abstract_class_without_subtypes():
    spec = parse_spec("""
metamodel M { abstract class Ghost { } class Real { } }
metamodel N { class Out { } }
transformation t : M -> N {
    layer L { rule R { match { any r : Real } apply { o : Out } } }
}
property P "doc" {
    precondition { any g : Ghost }
    postcondition {
        o : Out
        o <--trace-- g
    }
}
""", "inline")
    with pytest.raises(AbstractionError, match="vacuous"):
        flatten_property(spec.property("P"), spec)


def parse_spec_text_property(uml2java):
    # a property over the abstract Classifier class
    from dsltv.spec_ast import (PatternElement, PatternGraph, PropertyDecl)
    base = uml2java.property("PackageHasPackageDeclaration")
    pre = PatternGraph(elements=(
        PatternElement(name="x", klass="Classifier", any_flag=True),),
        links=())
    return PropertyDecl(name="AnyClassifier", doc="", precondition=pre,
                        postcondition=base.postcondition, traces=())
