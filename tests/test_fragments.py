from dsltv.fragments import check_flnr, check_gbpp, trace_producers
from dsltv.parser import parse_spec


def _flnr(spec):
    t = spec.transformations[0]
    return check_flnr(t, spec.metamodel(t.source), spec.metamodel(t.target))


def test_uml2java_is_in_fragment(uml2java):
    report = _flnr(uml2java)
    assert report.ok, report.violations
    assert set(report.satisfied) >= {"R2", "R3", "R4", "R5"}
    assert report.m == 2


def test_b4_parameters(uml2java_b4):
    report = _flnr(uml2java_b4)
    assert report.ok, report.violations
    assert report.m == 3


def test_vacuous_restrictions_reported(uml2java):
    report = _flnr(uml2java)
    assert "R1" in report.satisfied
    assert "R6" in report.satisfied


def test_backward_without_earlier_producer_violates():
    spec = parse_spec("""
metamodel M { class A { } }
metamodel N {
    class B { }
    class C { }
}
transformation t : M -> N {
    layer L {
        rule R {
            match {
                any a : A
                b <--trace-- a
            }
            apply {
                b : B
                c : C
            }
        }
    }
}
""", "inline")
    assert isinstance(spec, list) or not _flnr(spec).ok


def test_infinite_attribute_domain_flags_abstraction():
    spec = parse_spec("""
metamodel M { class A { n: Int } }
metamodel N { class B { } }
transformation t : M -> N {
    layer L { rule R { match { any a : A where n >= 1 } apply { b : B } } }
}
""", "inline")
    report = _flnr(spec)
    assert not report.ok
    assert all(v.restriction == "R5" for v in report.violations)


def test_gbpp_accepts_corpus_properties(corpus):
    for name, spec in corpus:
        for prop in spec.properties:
            report = check_gbpp(prop)
            assert report.ok, (name, prop.name, report.violations)
            assert report.p >= 1


def test_gbpp_pattern_sizes(uml2java):
    sizes = {p.name: check_gbpp(p).p
             for p in uml2java.properties}
    assert sizes["PackageHasPackageDeclaration"] == 1
    assert sizes["OwnedPropertyHasOwnedField"] == 2


# Abstract superclasses on both sides; the layer-2 rule Relink creates no
# element, so it records no trace of its own.
PRODUCER_SPEC = """
metamodel S {
    abstract class Base { }
    class LeafA extends Base { }
    class LeafB extends Base { }
    class Other { }
}
metamodel T {
    abstract class Decl { }
    class ADecl extends Decl { }
    class BDecl extends Decl { }
}
transformation t : S -> T {
    layer L1 {
        rule A2ADecl { match { any a : LeafA } apply { d : ADecl } }
        rule Other2BDecl { match { any o : Other } apply { d : BDecl } }
    }
    layer L2 {
        rule Base2BDecl { match { any b : Base } apply { d : BDecl } }
        rule Relink {
            match { any a : LeafA }
            apply { d : ADecl }
            backward { d <--trace-- a }
        }
    }
}
"""


def test_trace_producers_overlap_types_and_respect_the_cut_off():
    spec = parse_spec(PRODUCER_SPEC, "inline")
    assert not isinstance(spec, list), spec
    t = spec.transformations[0]
    src = spec.metamodel(t.source).info
    tgt = spec.metamodel(t.target).info

    def producers(match_class, apply_class, before=None):
        return [(li, rule.name) for li, rule in trace_producers(
            t, src, tgt, match_class, apply_class, before)]

    assert producers("Base", "Decl") == [(0, "A2ADecl"), (1, "Base2BDecl")]
    assert producers("LeafB", "Decl") == [(1, "Base2BDecl")]
    assert producers("LeafB", "ADecl") == []
    assert producers("LeafA", "ADecl") == [(0, "A2ADecl")]
    assert producers("Base", "Decl", before=1) == [(0, "A2ADecl")]
    assert producers("Base", "Decl", before=0) == []
    assert producers(None, "BDecl") == [(0, "Other2BDecl"),
                                        (1, "Base2BDecl")]
    assert producers(None, "Decl", before=1) == [(0, "A2ADecl"),
                                                 (0, "Other2BDecl")]
