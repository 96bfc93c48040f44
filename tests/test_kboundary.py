import json

import pytest

from dsltv.cli import main
from dsltv.kboundary import (emit_report, results_json, selective_minus_one,
                             uniform_sweep, witness_validation)
from dsltv.model import InstanceModel
from dsltv.orchestrator import HOLDS, UNKNOWN, VIOLATED, VerificationConfig
from dsltv.parser import parse_spec


def _source(n):
    m = InstanceModel()
    names = ["a", "b"]
    for i in range(n):
        m = m.with_element(f"s{i}", "Source", {"name": names[i % 2]})
    return m


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
    assert sorted(result.binding_classes) == ["source:Source",
                                              "target:TypeDecl"]
    assert result.matched


def test_selective_decrement_positive_has_no_binding(kboundary_spec):
    prop = kboundary_spec.property("SourceHasTypeDecl")
    result = selective_minus_one(kboundary_spec, prop)
    assert result.base_status == HOLDS
    assert result.binding_classes == []
    assert result.matched


def test_witness_validation_executes_family(kboundary_spec):
    prop = kboundary_spec.property("SourceSharesTypeDecl_ShouldFail")
    family = {"base-1": [_source(1)], "base": [_source(2)],
              "base+1": [_source(3)]}
    result = witness_validation(kboundary_spec, prop, family)
    assert result.matched, result.rows
    assert len(result.rows) == 3


def test_witness_validation_rejects_nonconformant(kboundary_spec):
    prop = kboundary_spec.property("SourceHasTypeDecl")
    bad = InstanceModel().with_element("s0", "Source", {"name": "zzz"})
    with pytest.raises(ValueError):
        witness_validation(kboundary_spec, prop, {"base": [bad]})


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


INT_SPEC = """
metamodel M { class A { n: Int } }
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


def test_infinite_domain_gives_unknown_rows(tmp_path):
    # verify abstracts the Int attribute first; the fixed-bound runs of the
    # experiment encode the spec as written and cannot
    spec = parse_spec(INT_SPEC, "inline")
    prop = spec.property("AHasB")
    sweep = uniform_sweep(spec, prop)
    assert {st for _, st, _ in sweep.rows} == {UNKNOWN}
    assert sweep.reasons[0].startswith("ceiling: infinite attribute domain")
    assert not sweep.matched
    pert = selective_minus_one(spec, prop)
    assert pert.base_status == HOLDS
    assert pert.binding_classes == []
    assert pert.reasons[("B", "target")].startswith("ceiling:")
    assert not pert.matched

    path = tmp_path / "int.dslt"
    path.write_text(INT_SPEC)
    out = tmp_path / "report.md"
    assert main(["kboundary", str(path), "--out", str(out)]) == 2
    assert "| +0 | UNKNOWN (ceiling: infinite attribute domain" in \
        out.read_text()
    doc = json.loads((tmp_path / "report.md.json").read_text())
    assert doc[0]["sweep"]["offsets"][3]["reason"].startswith("ceiling:")
