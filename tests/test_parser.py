import glob
import itertools
import os

from dsltv.parser import COMPARISON_OPS, parse_spec, parse_spec_file
from dsltv.printer import print_spec
from dsltv.spec_ast import AttrBinding, EnumValue, compare

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
        assert isinstance(result, list) == (kinds[src] != kinds[tgt]), \
            (src, tgt, result)


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
