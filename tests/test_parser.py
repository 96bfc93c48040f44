import glob
import itertools
import os
from dataclasses import replace

import pytest

from dsltv.cli import main
from dsltv.inheritance import InheritanceCycleError
from dsltv.parser import COMPARISON_OPS, parse_spec, parse_spec_file
from dsltv.printer import print_spec
from dsltv.spec_ast import (AttrBinding, ClassDecl, EnumValue, Metamodel,
                            compare)

from conftest import FIXTURES


def all_fixture_paths():
    return sorted(glob.glob(os.path.join(FIXTURES, "**", "*.dslt"),
                            recursive=True))


def test_all_fixtures_parse():
    for path in all_fixture_paths():
        spec = parse_spec_file(path)
        assert not isinstance(spec, list), (path, spec)


def test_print_parse_round_trip():
    for path in all_fixture_paths():
        spec = parse_spec_file(path)
        text = print_spec(spec)
        again = parse_spec(text, path)
        assert not isinstance(again, list), (path, again)
        assert again == spec, path


def test_print_idempotent():
    for path in all_fixture_paths():
        spec = parse_spec_file(path)
        once = print_spec(spec)
        assert print_spec(parse_spec(once, path)) == once, path


def _errors(text):
    result = parse_spec(text, "inline")
    assert isinstance(result, list), "expected diagnostics"
    return " | ".join(d.message for d in result)


MINI = """
metamodel M {{
    class A {{ }}
}}
metamodel N {{
    class B {{ }}
}}
transformation t : M -> N {{
    layer L {{
        rule R {{
            match {{ any a : A }}
            apply {{ b : B }}
        }}
    }}
}}
{extra}
"""


def test_unknown_class_is_reported():
    msg = _errors(MINI.format(extra="""
property P "doc" {
    precondition { any x : Nope }
    postcondition { b : B }
}
"""))
    assert "Nope" in msg


def test_duplicate_rule_is_reported():
    bad = MINI.format(extra="").replace(
        "rule R {\n            match { any a : A }\n            apply { b : B }\n        }",
        "rule R { match { any a : A } apply { b : B } }\n"
        "        rule R { match { any a : A } apply { b : B } }")
    assert "duplicate rule" in _errors(bad)


def test_incompatible_link_endpoint_is_reported():
    msg = _errors("""
metamodel M {
    class A { }
    class B { }
    assoc ab : A -> B [0..*]
}
metamodel N { class C { } }
transformation t : M -> N {
    layer L {
        rule R {
            match {
                any a : A
                any b : B
                direct l : ab -- b.a
            }
            apply { c : C }
        }
    }
}
""")
    assert "incompatible" in msg


def test_enum_literal_apply_binding_resolves():
    spec = parse_spec("""
metamodel M { class A { } }
metamodel N {
    enum Kind { X, Y }
    class B { kind: Kind }
}
transformation t : M -> N {
    layer L {
        rule R {
            match { any a : A }
            apply { b : B { kind = Kind.X } }
        }
    }
}
""", "inline")
    assert not isinstance(spec, list), spec
    rule = spec.transformations[0].layers[0].rules[0]
    binding = rule.apply.elements[0].bindings[0]
    assert binding == AttrBinding("kind", EnumValue("Kind", "X"))


def test_unknown_enum_literal_is_reported():
    msg = _errors("""
metamodel M { class A { } }
metamodel N {
    enum Kind { X }
    class B { kind: Kind }
}
transformation t : M -> N {
    layer L {
        rule R {
            match { any a : A }
            apply { b : B { kind = Kind.Z } }
        }
    }
}
""")
    assert "unknown literal" in msg


KIND_MISMATCH = """
metamodel M { class A { v: Int } }
metamodel N { class B { w: String } }
transformation t : M -> N {
    layer L {
        rule R {
            match { any a : A }
            apply { b : B { w = a.v } }
        }
    }
}
property P {
    precondition { any a : A }
    postcondition {
        b : B where w == "x"
        b <--trace-- a
    }
}
"""


def test_copy_across_attribute_kinds_is_reported():
    msg = _errors(KIND_MISMATCH)
    assert "binding 'b.w' copies 'a.v' (Int) into a String attribute" in msg
    template = """
metamodel M {{
    enum K {{ X, Y }}
    class A {{ v: {src} }}
}}
metamodel N {{
    enum K {{ X, Y }}
    enum J {{ X, Y }}
    class B {{ w: {tgt} }}
}}
transformation t : M -> N {{
    layer L {{ rule R {{ match {{ any a : A }} apply {{ b : B {{ w = a.v }} }} }} }}
}}
"""
    kinds = {"Bool": "Bool", "Int[0..3]": "Int", "Int": "Int",
             "String": "String", "K": "K", "J": "J"}
    for src, tgt in itertools.product(kinds.keys() - {"J"}, kinds):
        result = parse_spec(template.format(src=src, tgt=tgt), "inline")
        # an unbounded Int has values that Int[0..3] lacks
        rejected = kinds[src] != kinds[tgt] or (src, tgt) == ("Int",
                                                              "Int[0..3]")
        assert isinstance(result, list) == rejected, (src, tgt, result)


COPY_DOMAINS = """
metamodel M {{
    enum K {{ X, Y }}
    class A {{ v: {src} }}
}}
metamodel N {{
    enum K {{ {literals} }}
    class B {{ w: {tgt} }}
}}
transformation t : M -> N {{
    layer L {{ rule R {{ match {{ any a : A }} apply {{ b : B {{ w = a.v }} }} }} }}
}}
"""


@pytest.mark.parametrize("src, tgt, literals, missing", [
    ("Int[0..3]", "Int[0..2]", "X", "the value 3"),
    ("Int[0..3]", "Int[0..5]", "X", None),
    ("Int[0..3]", "Int", "X", None),
    ("Int", "Int[0..3]", "X", "most values of its unbounded source domain"),
    ('String["a", "b"]', 'String["a"]', "X", "the value 'b'"),
    ('String["a"]', 'String["b", "a"]', "X", None),
    ('String["a"]', "String", "X", None),
    ("K", "K", "X", "the value Y"),
    ("K", "K", "Y, X", None),
])
def test_copy_into_a_domain_without_a_source_value_is_reported(
        tmp_path, capsys, src, tgt, literals, missing):
    text = COPY_DOMAINS.format(src=src, tgt=tgt, literals=literals)
    result = parse_spec(text, "inline")
    if missing is None:
        assert not isinstance(result, list), result
        return
    assert _errors(text) == ("rule 'R': binding 'b.w' copies 'a.v' into a "
                             f"domain without {missing}")
    path = tmp_path / "copy.dslt"
    path.write_text(text)
    with pytest.raises(SystemExit) as exc:
        main(["verify", str(path)])
    assert exc.value.code == 3
    assert missing in capsys.readouterr().err


def test_trace_constraint_rejected_in_match():
    msg = _errors("""
metamodel M { class A { } }
metamodel N { class B { } }
transformation t : M -> N {
    layer L {
        rule R {
            match {
                any a : A
                a <--trace-- a
            }
            apply { b : B }
        }
    }
}
""")
    assert "trace" in msg.lower()


def test_compare_orders_only_ints():
    t, f = True, False
    a, b = EnumValue("K", "A"), EnumValue("K", "B")
    # value, constant, results for ==  !=  <  <=  >  >=
    table = [(2, 3, (f, t, t, t, f, f)),
             (3, 3, (t, f, f, t, f, t)),
             (4, 3, (f, t, f, f, t, t)),
             (False, True, (f, t, f, f, f, f)),
             (True, True, (t, f, f, f, f, f)),
             ("a", "b", (f, t, f, f, f, f)),
             ("b", "b", (t, f, f, f, f, f)),
             (a, b, (f, t, f, f, f, f)),
             (b, b, (t, f, f, f, f, f))]
    assert COMPARISON_OPS == ("==", "!=", "<", "<=", ">", ">=")
    for value, constant, expected in table:
        assert tuple(compare(op, value, constant)
                     for op in COMPARISON_OPS) == expected, (value, constant)


BROKEN_INHERITANCE = """
metamodel M {{
{classes}
    class C {{ }}
}}
metamodel N {{ class D {{ y: Bool }} }}
transformation t : M -> N {{
    layer L {{
        rule R {{
            match {{ any c : C where nope == true }}
            apply {{ d : D {{ y = c.nope  z = true }} }}
        }}
    }}
}}
"""


def test_unflattenable_metamodel_is_reported_and_skips_its_checks():
    # the source pattern's unknown attribute goes unreported, since M has
    # no flattened view; the target side is still checked
    unknown_z = "rule 'R': apply element 'd' has no attribute 'z'"
    for classes, message in [
            ("    class A extends B { x: Bool }\n"
             "    class B extends A { }",
             "inheritance cycle through class 'A' in metamodel 'M'"),
            ("    class A { x: Bool }\n"
             "    class B extends A { x: Int }",
             "in metamodel 'M': attribute 'x' redeclared along inheritance "
             "chain of 'B' in metamodel 'M'")]:
        result = parse_spec(BROKEN_INHERITANCE.format(classes=classes),
                            "inline")
        assert [(d.line, d.col, d.message) for d in result] == \
            [(2, 11, message), (12, 41, unknown_z)], classes


def test_failed_flattening_is_not_kept():
    mm = Metamodel("M", (ClassDecl("A", parent="B"), ClassDecl("B", parent="A")))
    for _ in range(2):
        with pytest.raises(InheritanceCycleError):
            mm.info
    fixed = replace(mm, classes=(ClassDecl("A", parent="B"), ClassDecl("B")))
    assert fixed.info["B"].subtypes == {"A", "B"}
    assert fixed.info is fixed.info and fixed == replace(fixed)


def test_a_duplicate_metamodel_with_a_cycle_hides_no_class():
    # the metamodel that flattens still anchors the property
    good = "metamodel M { class A { x: Bool } }"
    bad = "metamodel M { class B extends C { } class C extends B { } }"
    rest = """
metamodel N { class D { y: Bool } }
transformation t : M -> N {
    layer L { rule R { match { any a : A } apply { d : D { y = a.x } } } }
}
property P "p" { precondition { any a : A } postcondition { d : D } }
"""
    for first, second in ((good, bad), (bad, good)):
        result = parse_spec(f"{first}\n{second}\n{rest}", "inline")
        assert [d.message for d in result] == [
            "duplicate metamodel 'M'",
            "inheritance cycle through class 'B' in metamodel 'M'"]
