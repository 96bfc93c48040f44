import json
import threading
import time
from dataclasses import replace
from types import SimpleNamespace

from conftest import fixture_path, fixture_specs, load_spec
from oracle import oracle_verdict, source_bounds_for

from dsltv import cli, orchestrator
from dsltv.cutoff import RelevanceMode, relevant_rules
from dsltv.engine import check_property_concrete, execute
from dsltv.model import InstanceModel, dump_model, load_model, \
    validate_conformance
from dsltv.orchestrator import (HOLDS, UNKNOWN, VIOLATED, PropertyVerdict,
                                VerificationConfig, _PropertyRun,
                                plan_property, verify_all, verify_property)
from dsltv.parser import parse_spec


def test_uml2java_verdicts(uml2java):
    config = VerificationConfig()
    results = {name: v for name, v in verify_all(uml2java, config)
               if name is not None}
    assert results["PackageHasPackageDeclaration"].status == HOLDS
    assert results["PackageHasPackageDeclaration"].per_class_max == 1
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


def test_each_counterexample_is_executed_once(cegar_spec, monkeypatch):
    # the same execution decides refinement and confirms the violation
    executions, violated = [], []
    real_execute, real_attempt = orchestrator.execute, _PropertyRun.attempt

    def counting_execute(*args):
        executions.append(args)
        return real_execute(*args)

    def counting_attempt(self, fragment, bounds=None):
        verdict = real_attempt(self, fragment, bounds)
        if verdict.status == VIOLATED:
            violated.append(fragment)
        return verdict

    monkeypatch.setattr(orchestrator, "execute", counting_execute)
    monkeypatch.setattr(_PropertyRun, "attempt", counting_attempt)
    pins = {"SourceHasWidget": (HOLDS, (0, 1), 1),
            "SourceHasGadget_ShouldFail": (VIOLATED, (0,), 0)}
    for name, pin in pins.items():
        executions.clear()
        violated.clear()
        verdict = verify_property(cegar_spec, name, VerificationConfig())
        assert (verdict.status, verdict.fragment, verdict.cegar_rounds) \
            == pin, name
        assert violated == [(0,)], name
        assert len(executions) == len(violated), name


def test_unconfirmed_counterexample_is_unknown_with_artifacts(cegar_spec):
    # a flag-false Source has no Widget after the first layer alone; the
    # second layer maps it, so the full transformation repairs the claimed
    # violation and confirmation must refuse it
    config = VerificationConfig()
    plan = plan_property(cegar_spec, cegar_spec.property("SourceHasWidget"),
                         config)
    run = _PropertyRun(plan, config, time.monotonic() + 60)
    source = InstanceModel().with_element("s0", "Source", {"flag": False})
    claimed = PropertyVerdict(VIOLATED, fragment=(0,), counterexample=(
        source, InstanceModel(), {"s": "s0"}))
    verdict = run.confirm(claimed, execute(plan.t, source, plan.spec))
    assert verdict.status == UNKNOWN
    assert verdict.reason == "solver-error"
    assert verdict.counterexample is None
    assert verdict.fragment == (0,)
    assert verdict.artifacts["decoded_target"] == InstanceModel()
    assert verdict.artifacts["decoded_binding"] == {"s": "s0"}
    executed = verdict.artifacts["executed_target"]
    assert {e.klass for e in executed.elements} == {"Widget"}

    # a violation the full transformation does not repair stands
    plan = plan_property(
        cegar_spec, cegar_spec.property("SourceHasGadget_ShouldFail"), config)
    claimed = PropertyVerdict(VIOLATED, counterexample=(
        source, InstanceModel(), {"s": "s0"}))
    assert _PropertyRun(plan, config, time.monotonic() + 60).confirm(
        claimed, execute(plan.t, source, plan.spec)) is claimed


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
    assert event["firingVariables"] == 1


def test_verdict_event_sums_firing_variables(cegar_spec):
    verdict = verify_property(cegar_spec,
                              cegar_spec.property("SourceHasWidget"))
    assert verdict.cegar_rounds == 1
    # one Source slot: one firing in the minimal fragment, then two in the
    # refined one, where both Widget rules are relevant
    assert verdict.event("SourceHasWidget")["firingVariables"] == 3


def test_ceiling_verdict_counts_its_firing_variables(uml2java):
    prop = uml2java.property("OwnedPropertyHasOwnedField")
    # uniform K=28: the world alone passes the ceiling at the first check
    verdict = verify_property(uml2java, prop, VerificationConfig(
        per_class=False, binding_ceiling=2000))
    event = verdict.event(prop.name)
    assert (event["status"], event["reason"]) == (UNKNOWN, "ceiling")
    firings = int(event["detail"].split("(")[1].split(" firings")[0])
    assert event["firingVariables"] == firings > 0


def test_lower_bound_blowup_ends_at_the_ceiling_at_once(capsys):
    # contains [2..*] at K = 102 gives each Package a lower-bound term of
    # C(204, 2) = 20,706 conjunctions; the encoding stops before writing
    # the one that passes the ceiling
    for extra in ([], ["--budget", "100000000"]):
        start = time.monotonic()
        assert cli.main(["verify", "--no-per-class", *extra, "--property",
                         "PropertyHasField",
                         fixture_path("uml2java_b4.dslt")]) == 2
        assert time.monotonic() - start < 1
        event = json.loads(capsys.readouterr().out.splitlines()[0])
        assert (event["status"], event["reason"], event["perClassMax"]) \
            == (UNKNOWN, "ceiling", 102)
        assert event["detail"].startswith("encoding exceeded ceiling 200000")


def test_verdict_event_counts_closure_rounds():
    spec = load_spec("corpus/c06_mandatory.dslt")
    prop = spec.property("ChildHasPOut_ShouldFail")
    verdict = verify_property(spec, prop, VerificationConfig())
    assert verdict.status == VIOLATED
    # the first model leaves a Child without its mandatory owner
    assert verdict.event(prop.name)["closureRounds"] == 1


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


def test_verify_all_yields_each_verdict_once_decided(uml2java, monkeypatch):
    calls = []

    def fake_verify(spec, name, config):
        calls.append(name)
        return PropertyVerdict(HOLDS)

    monkeypatch.setattr(orchestrator, "verify_property", fake_verify)
    stream = verify_all(uml2java)
    name, _ = next(stream)
    assert name == uml2java.properties[0].name
    assert calls == [name]
    stream.close()


def test_parallel_verify_all_yields_while_later_properties_run(
        uml2java, monkeypatch):
    names = [p.name for p in uml2java.properties]
    release = threading.Event()
    finished = []

    def fake_verify(spec, name, config):
        if name != names[0]:
            release.wait(10)
        finished.append(name)
        return PropertyVerdict(HOLDS)

    monkeypatch.setattr(orchestrator, "verify_property", fake_verify)
    stream = verify_all(uml2java, parallelism=2)
    try:
        name, _ = next(stream)
        assert name == names[0]
        assert finished == [names[0]]
    finally:
        release.set()
    rows = list(stream)
    assert [n for n, _ in rows] == names[1:] + [None]
    assert rows[-1][1]["holds"] == len(names)


def test_parallel_verify_all_drops_queued_properties_when_closed(
        uml2java, monkeypatch):
    spec = replace(uml2java, properties=tuple(
        replace(p, name=f"{p.name}_{i}")
        for i in range(2) for p in uml2java.properties))
    first = spec.properties[0].name
    started = []

    def fake_verify(spec, name, config):
        started.append(name)
        if name != first:
            time.sleep(0.5)  # still running when the reader stops
        return PropertyVerdict(HOLDS)

    monkeypatch.setattr(orchestrator, "verify_property", fake_verify)
    stream = verify_all(spec, parallelism=2)
    assert next(stream)[0] == first
    stream.close()
    # the first, the one beside it and the next one its worker took
    assert len(spec.properties) == 8 and len(started) <= 3


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


PAIR_EDGE = """
metamodel S {
    class A { }
    class B { }
    assoc pairs : A -> B [0..*]
}
metamodel T {
    class N { }
    class L { }
    assoc edge : N -> L [0..*]
}
transformation t : S -> T {
    layer Nodes {
        rule A2N { match { any a : A } apply { n : N } }
        rule B2L { match { any b : B } apply { l : L } }
    }
    layer Edges {
        rule Pair2Edge {
            match {
                any a : A
                any b : B
                direct p : pairs -- a.b
            }
            apply {
                n : N
                l : L
                e : edge -- n.l
            }
            backward {
                n <--trace-- a
                l <--trace-- b
            }
        }
    }
}
property PairedMapToLinked "Paired elements map to linked targets." {
    precondition {
        any a : A
        any b : B
        direct p : pairs -- a.b
    }
    postcondition {
        n : N
        l : L
        e : edge -- n.l
        n <--trace-- a
        l <--trace-- b
    }
}
property AnyMapToLinked_ShouldFail "Negative: unpaired elements map apart." {
    precondition {
        any a : A
        any b : B
    }
    postcondition {
        n : N
        l : L
        e : edge -- n.l
        n <--trace-- a
        l <--trace-- b
    }
}
"""


def test_link_only_rule_is_relevant_in_every_mode():
    # Pair2Edge creates no element, only the link between two targets that
    # earlier rules made; the property's link needs it all the same
    spec = parse_spec(PAIR_EDGE, "inline")
    t = spec.transformations[0]
    expected = {"PairedMapToLinked": HOLDS,
                "AnyMapToLinked_ShouldFail": VIOLATED}
    for mode in RelevanceMode:
        for prop in spec.properties:
            relevance = relevant_rules(spec, prop, mode, t)
            assert "Pair2Edge" in relevance.relevant_rules, (mode, prop.name)
            verdict = verify_property(spec, prop,
                                      VerificationConfig(relevance_mode=mode))
            assert verdict.status == expected[prop.name], (mode, verdict)
            assert oracle_verdict(spec, prop, {"A": 2, "B": 2}) \
                == verdict.status
            if verdict.status == VIOLATED:
                source = verdict.counterexample[0]
                assert validate_conformance(
                    source, spec.metamodel("S")).conformant
                result = execute(t, source, spec)
                assert not check_property_concrete(prop, source, result,
                                                   spec).holds



THREE_METAMODELS = """
metamodel A { class X { } }
metamodel B { class Y { } }
metamodel C { class Z { } }
"""
AB = """
transformation ab : A -> B {
    layer L { rule X2Y { match { x : X } apply { y : Y } } }
}
"""
AC = """
transformation ac : A -> C {
    layer L { rule X2Z { match { x : X } apply { z : Z } } }
}
"""


def test_transformation_is_the_one_matching_the_property(tmp_path, capsys):
    # the empty precondition leaves only the target side to choose by
    spec = parse_spec(THREE_METAMODELS + AB + AC + """
property SomeZ_ShouldFail {
    precondition { }
    postcondition { any z : Z }
}
""", "inline")
    prop = spec.property("SomeZ_ShouldFail")
    assert plan_property(spec, prop, VerificationConfig()).t.name == "ac"
    assert verify_property(spec, prop).status == VIOLATED
    bounds, t = source_bounds_for(spec, prop,
                                  RelevanceMode.TRACE_ATTRIBUTE_AWARE)
    assert oracle_verdict(spec, prop, bounds, t) == VIOLATED

    # no transformation serves A -> B: UNKNOWN, not a traceback
    text = THREE_METAMODELS + AC + """
property XHasY { precondition { x : X } postcondition { any y : Y } }
"""
    spec = parse_spec(text, "inline")
    verdict = verify_property(spec, spec.property("XHasY"))
    assert (verdict.status, verdict.reason) == (UNKNOWN, "fragment")
    assert "0 transformations" in verdict.detail
    path = tmp_path / "no_ab.dslt"
    path.write_text(text)
    assert cli.main(["cutoff", str(path)]) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["XHasY"]["reason"] == "fragment"


# -- verdicts that must match the oracle and replay through `dsltv run` --------

def _assert_oracle_and_replay(tmp_path, text, expected, config=None):
    """Every property of ``text`` gets its ``expected`` verdict, which the
    oracle gives at the verifier's source bounds, and every counterexample
    replays: ``dsltv run`` on the dumped source, then the concrete check on
    the target it writes."""
    spec = parse_spec(text, "inline")
    assert not isinstance(spec, list), spec
    path = tmp_path / "spec.dslt"
    path.write_text(text)
    for prop in spec.properties:
        verdict = verify_property(spec, prop, config)
        assert verdict.status == expected[prop.name], (prop.name, verdict)
        bounds, t = source_bounds_for(spec, prop,
                                      RelevanceMode.TRACE_ATTRIBUTE_AWARE)
        assert oracle_verdict(spec, prop, bounds, t) == verdict.status, \
            prop.name
        if verdict.status != VIOLATED:
            continue
        source = verdict.counterexample[0]
        model, out = tmp_path / "source.json", tmp_path / "target.json"
        model.write_text(dump_model(source))
        assert cli.main(["run", str(path), "--model", str(model),
                         "--out", str(out)]) == 0
        executed = SimpleNamespace(target=load_model(out.read_text()))
        assert not check_property_concrete(prop, source, executed,
                                           spec).holds, prop.name


# A copies v, 0..3, into an attribute whose domain is wider (the encoder
# translates value by value) or unbounded (abstraction keeps every value
# copied, beside the blocks of w > 5).  No value gives w > 5.
COPY_INTO = """
metamodel SA {{ class A {{ v: Int[0..3] }} }}
metamodel TB {{ class B {{ w: {domain} }} }}
transformation ab : SA -> TB {{
    layer L {{ rule A2B {{ match {{ any a : A }} apply {{ b : B {{ w = a.v }} }} }} }}
}}
property EveryAHasB {{
    precondition {{ any a : A }}
    postcondition {{
        b : B
        b <--trace-- a
    }}
}}
property EveryAHasBigB {{
    precondition {{ any a : A }}
    postcondition {{
        b : B where w > 5
        b <--trace-- a
    }}
}}
"""


def test_copy_into_a_wider_or_abstracted_domain_keeps_every_value(tmp_path):
    expected = {"EveryAHasB": HOLDS, "EveryAHasBigB": VIOLATED}
    for domain in ("Int[0..7]", "Int"):
        _assert_oracle_and_replay(
            tmp_path, COPY_INTO.format(domain=domain), expected)
    spec = parse_spec(COPY_INTO.format(domain="Int"), "inline")
    plan = plan_property(spec, spec.property("EveryAHasBigB"),
                         VerificationConfig())
    w = plan.spec.metamodel("TB").info["B"].attributes["w"]
    assert set(w.values()) == {-1, 0, 1, 2, 3, 4, 6}


# R1 and R2 both make a D for an A with f = true, so R3's backward pair is
# ambiguous there and R3 skips it: such an A has no E.  K is 1, and no
# bound may stop D's creations at K.
TWO_PRODUCERS = """
metamodel SA { class A { f: Bool } }
metamodel TD {
    class D { }
    class E { }
    assoc ref : E -> D [0..*]
}
transformation ad : SA -> TD {
    layer One {
        rule R1 { match { any a : A } apply { d : D } }
        rule R2 { match { any a : A where f == true } apply { d : D } }
    }
    layer Two {
        rule R3 {
            match { any a : A }
            apply {
                e : E
                d : D
                l : ref -- e.d
            }
            backward { d <--trace-- a }
        }
    }
}
property EveryAHasE {
    precondition { any a : A }
    postcondition {
        e : E
        e <--trace-- a
    }
}
property FalseAHasE {
    precondition { any a : A where f == false }
    postcondition {
        e : E
        e <--trace-- a
    }
}
"""


def test_target_bounds_cover_every_creation(tmp_path, fixture_dumps):
    expected = {"EveryAHasE": VIOLATED, "FalseAHasE": HOLDS}
    for per_class in (True, False):
        config = VerificationConfig(per_class=per_class)
        _assert_oracle_and_replay(tmp_path, TWO_PRODUCERS, expected, config)
        spec = parse_spec(TWO_PRODUCERS, "inline")
        plan = plan_property(spec, spec.property("EveryAHasE"), config)
        assert plan.cutoff.k == 1
        # the plan bounds the source only, so no creation is capped
        assert plan.bounds.target == {}, per_class
    for rel, spec in fixture_specs():
        for prop in spec.properties:
            plan = plan_property(spec, prop, VerificationConfig())
            assert plan.bounds.target == {}, (rel, prop.name)
    # a cap is a cardinality term over firings, or unit negations of them
    for name, text in fixture_dumps:
        assert "(ite fr_" not in text and "(assert (not fr_" not in text, \
            name
