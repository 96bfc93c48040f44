import json

import pytest

from conftest import fixture_path, load_spec

from dsltv import cli, kboundary, orchestrator
from dsltv.cli import main
from dsltv.kboundary import (emit_report, results_json, selective_minus_one,
                             uniform_sweep)
from dsltv.orchestrator import HOLDS, UNKNOWN, VIOLATED, VerificationConfig, \
    plan_property, verify_property
from dsltv.parser import parse_spec


def test_negative_sweep_flips_exactly_at_base(kboundary_spec):
    prop = kboundary_spec.property("SourceSharesTypeDecl_ShouldFail")
    sweep = uniform_sweep(kboundary_spec, prop)
    assert sweep.expected_pattern == "negative"
    assert sweep.base_k == 2
    statuses = {off: st for off, st, _ in sweep.rows}
    assert sorted(statuses) == list(range(-3, 4))
    for off, st in statuses.items():
        assert st == (HOLDS if off < 0 else VIOLATED), off
    assert sweep.matched


def test_rows_the_floors_pin_to_the_base_expect_its_status():
    # Source sits at its seed bound of 1, so every negative offset
    # re-solves the base problem and must find its violation again
    spec = load_spec("corpus/c01_copy.dslt")
    lab = kboundary.BoundsLab(spec, "SourceHasTwoTargets_ShouldFail")
    assert all(lab.shifted(d).source == lab.base.source for d in (-3, -2, -1))
    sweep = lab.uniform_sweep()
    assert sweep.expected_pattern == "negative"
    assert [st for _, st, _ in sweep.rows] == [VIOLATED] * 7
    assert sweep.matched


def test_positive_sweep_holds_everywhere(kboundary_spec):
    prop = kboundary_spec.property("SourceHasTypeDecl")
    sweep = uniform_sweep(kboundary_spec, prop)
    assert sweep.expected_pattern == "positive"
    assert all(st == HOLDS for _, st, _ in sweep.rows)
    assert sweep.matched


def test_selective_decrement_finds_binding_classes(kboundary_spec):
    prop = kboundary_spec.property("SourceSharesTypeDecl_ShouldFail")
    result = selective_minus_one(kboundary_spec, prop)
    assert result.base_status == VIOLATED
    assert result.binding_classes == ["Source"]
    assert result.matched


def test_selective_decrement_positive_has_no_binding(kboundary_spec):
    prop = kboundary_spec.property("SourceHasTypeDecl")
    result = selective_minus_one(kboundary_spec, prop)
    assert result.base_status == HOLDS
    assert result.binding_classes == []
    assert result.matched


def test_rows_solve_the_fragment_verify_decided_on(cegar_spec):
    # the first fragment's counterexample is spurious, and verify decides
    # HOLDS on the fragment one refinement round gives
    prop = cegar_spec.property("SourceHasWidget")
    verdict = verify_property(cegar_spec, prop)
    assert (verdict.status, verdict.cegar_rounds, verdict.fragment) == \
        (HOLDS, 1, (0, 1))
    sweep = uniform_sweep(cegar_spec, prop)
    assert [st for _, st, _ in sweep.rows] == [HOLDS] * 7
    assert sweep.matched
    pert = selective_minus_one(cegar_spec, prop)
    assert pert.binding_classes == []
    assert pert.matched


def test_report_and_json(kboundary_spec):
    results = []
    for prop in kboundary_spec.properties:
        results.append({
            "sweep": uniform_sweep(kboundary_spec, prop),
            "selective": selective_minus_one(kboundary_spec, prop),
        })
    text = emit_report(results, "kboundary_tight")
    assert "| Spec |" in text or "Spec" in text.splitlines()[2]
    for prop in kboundary_spec.properties:
        assert prop.name in text
    assert "Uniform sweep" in text
    assert "Selective per-class decrement" in text
    doc = json.loads(results_json(results))
    assert len(doc) == len(results)
    assert doc[0]["sweep"]["property"] == kboundary_spec.properties[0].name


# an A's mandatory owner gives C a bound of 1 beside A's seed
INT_SPEC = """
metamodel M {
    class A { n: Int }
    class C { }
    assoc owner : A -> C [1..1]
}
metamodel N { class B { } }
transformation t : M -> N {
    layer L { rule A2B { match { any a : A } apply { b : B } } }
}
property AHasB "Every A maps to a B." {
    precondition { any a : A }
    postcondition {
        b : B
        b <--trace-- a
    }
}
"""


def test_infinite_domain_sweeps_the_proof_spec(tmp_path):
    # the experiment plans like verify: the Int attribute is abstracted
    # first, so every fixed-bound run encodes the finite proof spec
    spec = parse_spec(INT_SPEC, "inline")
    prop = spec.property("AHasB")
    sweep = uniform_sweep(spec, prop)
    assert sweep.expected_pattern == "positive"
    assert sweep.base_k > 0
    assert {st for _, st, _ in sweep.rows} == {HOLDS}
    assert sweep.reasons == {}
    assert sweep.matched
    pert = selective_minus_one(spec, prop)
    assert pert.base_status == HOLDS
    assert pert.reasons == {}
    assert pert.matched

    path = tmp_path / "int.dslt"
    path.write_text(INT_SPEC)
    out = tmp_path / "report.md"
    assert main(["kboundary", str(path), "--out", str(out)]) == 0
    assert "| +0 | HOLDS |" in out.read_text()


def test_binding_ceiling_gives_unknown_rows():
    spec = parse_spec(INT_SPEC, "inline")
    prop = spec.property("AHasB")
    # at ceiling 1 only the A = 0 run, which fires nothing, fits
    config = VerificationConfig(binding_ceiling=1)
    sweep = uniform_sweep(spec, prop, config)
    assert {st for _, st, _ in sweep.rows} == {UNKNOWN}
    assert sweep.reasons[0].startswith("ceiling: ")
    assert not sweep.matched
    pert = selective_minus_one(spec, prop, config)
    assert pert.base_status == UNKNOWN
    assert pert.reasons["C"].startswith("ceiling: ")
    # A at bound 0 needs no firing and HOLDS, but an undecided base makes
    # no class binding
    assert ("A", HOLDS) in pert.runs
    assert pert.binding_classes == []
    assert not pert.matched
    results = [{"sweep": sweep, "perturbation": pert}]
    assert "| +0 | UNKNOWN (ceiling: " in emit_report(results, "int")
    doc = json.loads(results_json(results))
    assert doc[0]["sweep"]["offsets"][3]["reason"].startswith("ceiling: ")


def test_sweep_rows_stop_at_the_deadline_while_encoding(kboundary_spec):
    # the deadline passes long before the encoder's first checkpoint, so
    # every row stops inside the encoding instead of after it
    config = VerificationConfig(timeout_seconds=1e-6)
    for prop in kboundary_spec.properties:
        sweep = uniform_sweep(kboundary_spec, prop, config)
        assert [st for _, st, _ in sweep.rows] == [UNKNOWN] * 7, prop.name
        assert set(sweep.reasons.values()) == {
            "timeout: deadline reached while encoding"}, prop.name


@pytest.mark.parametrize("name", ["kboundary_tight.dslt",
                                  "corpus/c04_inherit.dslt", "uml2java.dslt"])
def test_verify_kboundary_and_cutoff_agree(name, capsys):
    assert main(["cutoff", fixture_path(name)]) == 0
    report = json.loads(capsys.readouterr().out)
    spec = load_spec(name)
    for prop in spec.properties:
        verdict = verify_property(spec, prop)
        sweep = uniform_sweep(spec, prop, base_verdict=verdict)
        assert sweep.base_k == verdict.k == report[prop.name]["bounds"]["k"]
        assert sweep.per_class_max == verdict.per_class_max == max(
            report[prop.name]["perClass"]["source"].values())


def test_kboundary_plans_each_property_once(tmp_path, monkeypatch, capsys):
    planned = []

    def counting(spec, prop, config):
        planned.append(prop.name)
        return plan_property(spec, prop, config)

    for module in (orchestrator, kboundary, cli):
        monkeypatch.setattr(module, "plan_property", counting)
    spec = load_spec("kboundary_tight.dslt")
    assert main(["kboundary", fixture_path("kboundary_tight.dslt"),
                 "--out", str(tmp_path / "r.md")]) == 0
    assert sorted(planned) == sorted(p.name for p in spec.properties)


# a backward pair resolvable only in its own layer violates FLNR R3
R3_SPEC = """
metamodel M { class A { } }
metamodel N {
    class B { }
    class C { }
}
transformation t : M -> N {
    layer L {
        rule A2B { match { any a : A } apply { b : B } }
        rule A2C {
            match { any a : A }
            apply {
                b : B
                c : C
            }
            backward { b <--trace-- a }
        }
    }
}
property AHasC "Every A maps to a C." {
    precondition { any a : A }
    postcondition {
        c : C
        c <--trace-- a
    }
}
"""


def test_rejected_property_is_unknown_everywhere(tmp_path, capsys):
    spec = parse_spec(R3_SPEC, "inline")
    verdict = verify_property(spec, "AHasC")
    assert verdict.status == UNKNOWN
    assert verdict.reason == "fragment"
    assert verdict.detail.startswith("R3 at rule A2C")

    path = tmp_path / "r3.dslt"
    path.write_text(R3_SPEC)
    out = tmp_path / "report.md"
    assert main(["kboundary", str(path), "--out", str(out)]) == 2
    doc = json.loads((tmp_path / "report.md.json").read_text())
    offsets = doc[0]["sweep"]["offsets"]
    assert {o["status"] for o in offsets} == {UNKNOWN}
    assert {o["reason"] for o in offsets} == {f"fragment: {verdict.detail}"}
    assert not doc[0]["perturbation"]["matched"]
    capsys.readouterr()

    assert main(["cutoff", str(path)]) == 2
    report = json.loads(capsys.readouterr().out)
    assert report == {"AHasC": {"status": UNKNOWN, "reason": "fragment",
                                "detail": verdict.detail}}
