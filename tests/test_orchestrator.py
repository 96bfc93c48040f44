from conftest import load_spec
from oracle import oracle_verdict

from dsltv.engine import check_property_concrete, execute
from dsltv.model import validate_conformance
from dsltv.orchestrator import (HOLDS, UNKNOWN, VIOLATED, VerificationConfig,
                                verify_all, verify_property)
from dsltv.parser import parse_spec


def test_uml2java_verdicts(uml2java):
    config = VerificationConfig()
    results = {name: v for name, v in verify_all(uml2java, config)
               if name is not None}
    assert results["PackageHasPackageDeclaration"].status == HOLDS
    assert results["PackageHasPackageDeclaration"].per_class_max == 2
    assert results["ClassMappedToInterfaceDeclaration_ShouldFail"].status \
        == VIOLATED


def test_violations_ship_confirmed_counterexamples(uml2java):
    config = VerificationConfig()
    prop = uml2java.property("ClassMappedToInterfaceDeclaration_ShouldFail")
    verdict = verify_property(uml2java, prop, config)
    assert verdict.status == VIOLATED
    source, target, binding = verdict.counterexample
    mm = uml2java.metamodel("UMLConcrete")
    assert validate_conformance(source, mm).conformant
    result = execute(uml2java.transformations[0], source, uml2java)
    assert not check_property_concrete(prop, source, result, uml2java).holds


def test_cegar_refines_spurious_minimal_fragment(cegar_spec):
    config = VerificationConfig()
    holds = verify_property(cegar_spec,
                            cegar_spec.property("SourceHasWidget"), config)
    assert holds.status == HOLDS
    assert holds.cegar_rounds == 1
    assert holds.fragment == (0, 1)
    violated = verify_property(
        cegar_spec, cegar_spec.property("SourceHasGadget_ShouldFail"), config)
    assert violated.status == VIOLATED
    assert violated.cegar_rounds == 0
    assert violated.fragment == (0,)


def test_cegar_disabled_still_confirms(cegar_spec):
    config = VerificationConfig(cegar=False)
    verdict = verify_property(cegar_spec,
                              cegar_spec.property("SourceHasWidget"), config)
    # without refinement the minimal-fragment counterexample must still be
    # checked against the full transformation, so no false violation escapes
    assert verdict.status != VIOLATED


def test_fragment_violations_give_unknown():
    spec = parse_spec("""
metamodel M { class A { n: Int } }
metamodel N { class B { } }
transformation t : M -> N {
    layer L { rule R { match { any a : A } apply { b : B } } }
}
property P "doc" {
    precondition { any a : A where n > 3 }
    postcondition {
        b : B
        b <--trace-- a
    }
}
""", "inline")
    # infinite Int domain with a guard triggers abstraction instead of a
    # hard fragment rejection, so the property still verifies
    verdict = verify_property(spec, spec.property("P"),
                              VerificationConfig())
    assert verdict.status == HOLDS


def test_verdict_events_are_json_ready(uml2java):
    config = VerificationConfig()
    prop = uml2java.property("PackageHasPackageDeclaration")
    verdict = verify_property(uml2java, prop, config)
    event = verdict.event(prop.name)
    assert event["event"] == "verdict"
    assert event["property"] == prop.name
    assert event["status"] == HOLDS
    assert event["timeSec"] >= 0
    assert event["closureRounds"] == 0


def test_verdict_event_counts_closure_rounds():
    spec = load_spec("corpus/c06_mandatory.dslt")
    prop = spec.property("ChildHasPOut_ShouldFail")
    verdict = verify_property(spec, prop, VerificationConfig())
    assert verdict.status == VIOLATED
    # the first model leaves a Child without its mandatory owner
    assert verdict.event(prop.name)["closureRounds"] == 1
    eager = verify_property(spec, prop,
                            VerificationConfig(lazy_closure=False))
    assert eager.event(prop.name)["closureRounds"] == 0


def test_verify_all_order_and_summary(uml2java):
    config = VerificationConfig()
    rows = list(verify_all(uml2java, config))
    names = [n for n, _ in rows if n is not None]
    assert names == [p.name for p in uml2java.properties]
    summary_name, summary = rows[-1]
    assert summary_name is None
    assert summary["event"] == "summary"
    assert summary["holds"] + summary["violated"] + summary["unknown"] \
        == len(names)


def test_parallel_matches_sequential(uml2java):
    config = VerificationConfig()
    seq = {n: v.status for n, v in verify_all(uml2java, config)
           if n is not None}
    par = {n: v.status for n, v in verify_all(uml2java, config, parallelism=4)
           if n is not None}
    assert seq == par


def test_timeout_reports_unknown(uml2java):
    config = VerificationConfig(timeout_seconds=1e-6)
    prop = uml2java.property("PackageHasPackageDeclaration")
    verdict = verify_property(uml2java, prop, config)
    assert verdict.status == UNKNOWN
    assert verdict.reason == "timeout"


def test_budget_reports_unknown(uml2java):
    config = VerificationConfig(cutoff_budget=1, per_class=False)
    prop = uml2java.property("OwnedPropertyHasOwnedField")
    verdict = verify_property(uml2java, prop, config)
    assert verdict.status == UNKNOWN
    assert verdict.reason == "budget"


ABSTRACT_POST = """
metamodel Src { class Item { flag: Bool } }
metamodel Tgt {
    abstract class Out { }
    class OutA extends Out { }
    class OutB extends Out { }
}
transformation t : Src -> Tgt {
    layer L {
        rule ToA { match { any i : Item where flag == true } apply { a : OutA } }
        rule ToB { match { any i : Item where flag == false } apply { b : OutB } }
    }
}
property ItemHasOut "Every Item maps to some Out, of either subtype." {
    precondition { any i : Item }
    postcondition {
        o : Out
        o <--trace-- i
    }
}
property ItemHasOutA_ShouldFail "Negative: unflagged Items map to OutB." {
    precondition { any i : Item }
    postcondition {
        o : OutA
        o <--trace-- i
    }
}
"""


def test_abstract_typed_postcondition_is_checked_as_written():
    # an existential element of an abstract class is satisfied by any
    # concrete subtype; it is not split into one demand per subtype
    spec = parse_spec(ABSTRACT_POST, "inline")
    t = spec.transformations[0]
    holds = spec.property("ItemHasOut")
    assert verify_property(spec, holds).status == HOLDS
    assert oracle_verdict(spec, holds, {"Item": 2}) == HOLDS

    fails = spec.property("ItemHasOutA_ShouldFail")
    verdict = verify_property(spec, fails)
    assert verdict.status == VIOLATED
    assert oracle_verdict(spec, fails, {"Item": 2}) == VIOLATED
    source = verdict.counterexample[0]
    result = execute(t, source, spec)
    assert not check_property_concrete(fails, source, result, spec).holds
