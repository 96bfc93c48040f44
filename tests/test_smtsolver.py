import gc
import glob
import io
import itertools
import os
import random
import re
import subprocess
import types
import weakref

import pytest
from conftest import FIXTURES, load_spec
from hypothesis import given, settings
from hypothesis import strategies as st

from dsltv import smtsolver
from dsltv.cli import main as cli_main
from dsltv.cutoff import PerClassBounds
from dsltv.inheritance import flatten_inheritance_info
from dsltv.smtencode import EncodeOptions, encode
from dsltv.smtrun import default_solver_command, discard_spare, run_solver
from dsltv.parser import parse_spec_file
from dsltv.smtsolver import Cnf, SmtScript, Solver, SmtSyntaxError
from dsltv.smtsolver import parse_sexprs
from dsltv.smtsolver import main as solver_main
from dsltv.smtsolver import solve_text, tokenize_sexprs


def _solve(text):
    out = io.StringIO()
    solve_text(text, out=out)
    return out.getvalue()


def test_simple_sat_with_model():
    out = _solve("""
(declare-const a Bool)
(declare-const b Bool)
(assert (or a b))
(assert (not a))
(check-sat)
(get-model)
""")
    assert out.startswith("sat")
    assert "(define-fun b () Bool true)" in out
    assert "(define-fun a () Bool false)" in out


def test_simple_unsat():
    out = _solve("""
(declare-const a Bool)
(assert a)
(assert (not a))
(check-sat)
""")
    assert out.strip() == "unsat"


def test_pigeonhole_is_unsat():
    lines = []
    for p in range(4):
        for h in range(3):
            lines.append(f"(declare-const p{p}h{h} Bool)")
    for p in range(4):
        lines.append("(assert (or " +
                     " ".join(f"p{p}h{h}" for h in range(3)) + "))")
    for h in range(3):
        for p in range(4):
            for q in range(p + 1, 4):
                lines.append(f"(assert (not (and p{p}h{h} p{q}h{h})))")
    lines.append("(check-sat)")
    assert _solve("\n".join(lines)).strip() == "unsat"


def test_bounded_integers():
    out = _solve("""
(declare-const x Int)
(declare-const y Int)
(assert (>= x 0))
(assert (<= x 3))
(assert (>= y 0))
(assert (<= y 3))
(assert (= (+ x y) 5))
(assert (> x y))
(check-sat)
(get-model)
""")
    assert out.startswith("sat")
    model = {}
    for line in out.splitlines():
        if "define-fun" in line:
            parts = line.replace("(", " ").replace(")", " ").split()
            model[parts[1]] = int(parts[-1])
    assert model["x"] + model["y"] == 5 and model["x"] > model["y"]


def test_push_pop_scoping():
    out = _solve("""
(declare-const a Bool)
(assert a)
(push 1)
(assert (not a))
(check-sat)
(pop 1)
(check-sat)
""")
    assert out.split() == ["unsat", "sat"]


def test_push_and_pop_move_n_levels():
    out = _solve("""
(declare-const x Bool)
(assert x)
(push 1)
(assert (not x))
(push 1)
(pop 2)
(check-sat)
(push 3)
(assert (not x))
(pop 1)
(check-sat)
(push 0)
(pop 0)
(check-sat)
""")
    assert out.split() == ["sat", "sat", "sat"]


def test_pop_drops_the_declarations_of_its_levels(tmp_path, capsys):
    gone = tmp_path / "gone.smt2"
    gone.write_text("(push 1)(declare-const a Bool)(pop 1)(assert a)"
                    "(check-sat)")
    assert solver_main([str(gone)]) == 1
    assert capsys.readouterr().out.startswith("(error ")
    out = _solve("(declare-const a Bool)(push 2)(declare-const b Bool)"
                 "(pop 1)(declare-const c Bool)(pop 1)(assert a)"
                 "(check-sat)")
    assert out.split() == ["sat"]


def test_deep_nesting_is_an_error_line(tmp_path, capsys):
    deep = tmp_path / "deep.smt2"
    deep.write_text("(declare-const a Bool)(assert " + "(not " * 1500 + "a"
                    + ")" * 1501 + "(check-sat)")
    assert solver_main([str(deep)]) == 1
    assert capsys.readouterr().out == '(error "term nested too deeply")\n'


def test_malformed_scripts_are_reported_not_raised(tmp_path, capsys):
    scripts = [
        "(pop 1)",
        "(push 1) (pop 2)",
        "(push -1)",
        "(push x)",
        "(assert)",
        "(assert true true)",
        "(declare-const)",
        "(declare-fun f)",
        "(declare-const (a) Bool)",
        "(declare-const a Bool) (push 1) (declare-const a Int)",
        "(declare-const a Bool) (assert (ite a)) (check-sat)",
        "(declare-const a Bool) (assert (not)) (check-sat)",
        "(declare-const a Bool) (assert (=> a)) (check-sat)",
        "(declare-const a Bool) (assert (xor)) (check-sat)",
        "(declare-const a Bool) (assert (=)) (check-sat)",
        "(assert ()) (check-sat)",
        "(declare-const x Int) (assert (<= 0 x)) (assert (<= x 2))"
        " (assert (<= x)) (check-sat)",
        "(declare-const x Int) (assert (<= 0 x)) (assert (<= x 2))"
        " (assert (= x (-))) (check-sat)",
        "(declare-const x Int) (assert (<= 0 x)) (assert (<= x 2))"
        " (assert (= x ())) (check-sat)",
        "(declare-const x Int) (assert (<= --1 x)) (assert (<= x 2))"
        " (check-sat)",
    ]
    for n, text in enumerate(scripts):
        path = tmp_path / f"bad{n}.smt2"
        path.write_text(text)
        assert solver_main([str(path)]) == 1, text
        assert capsys.readouterr().out.startswith("(error "), text


def test_definitions_are_scoped_and_checked(tmp_path, capsys):
    out = _solve("""
(declare-const a Bool)
(push 1)
(define-fun d () Bool (and a (not a)))
(assert d)
(check-sat)
(pop 1)
(define-fun d () Bool (or a (not a)))
(define-fun e () Bool (and d a))
(assert (=> d e))
(check-sat)
(get-model)
""")
    assert out.split() == ["unsat", "sat", "(model", "(define-fun", "a",
                           "()", "Bool", "true)", ")"]
    errors = {
        "(declare-const a Bool) (push 1) (define-fun d () Bool a) (pop 1)"
        " (assert d) (check-sat)": "unknown Bool term 'd'",
        "(declare-const a Bool) (define-fun d () Bool a)"
        " (define-fun d () Bool a)": "'d' is already declared",
        "(declare-const a Bool) (define-fun a () Bool true)":
            "'a' is already declared",
        "(define-fun d () Bool true) (declare-const d Bool)":
            "'d' is already declared",
        "(define-fun f ((x Bool)) Bool x)":
            "only zero-arity Bool definitions supported",
        "(define-fun n () Int 3)":
            "only zero-arity Bool definitions supported",
        "(define-fun d () Bool)": "malformed define-fun",
        "(declare-const a Bool) (assert d) (define-fun d () Bool a)"
        " (check-sat)": "'d' is used before its definition",
        "(declare-const a Bool) (define-fun d () Bool (not e))"
        " (define-fun e () Bool a) (assert d) (check-sat)":
            "'e' is used before its definition",
        "(define-fun d () Bool (not d)) (assert d) (check-sat)":
            "'d' is used before its definition",
    }
    for n, (text, message) in enumerate(errors.items()):
        path = tmp_path / f"bad{n}.smt2"
        path.write_text(text)
        assert solver_main([str(path)]) == 1, text
        assert capsys.readouterr().out.startswith(f'(error "{message}'), text


def test_get_model_before_check_sat_is_an_error_line():
    assert _solve("(declare-const a Bool)\n(get-model)\n").strip() == \
        '(error "no model available")'


def test_distinct_forces_order():
    out = _solve("""
(declare-const x Int)
(declare-const y Int)
(assert (>= x 0)) (assert (<= x 1))
(assert (>= y 0)) (assert (<= y 1))
(assert (distinct x y))
(assert (> x y))
(check-sat)
(get-model)
""")
    assert out.startswith("sat")
    assert "(define-fun x () Int 1)" in out
    assert "(define-fun y () Int 0)" in out


def test_cli_reports_errors(tmp_path, capsys):
    bad = tmp_path / "bad.smt2"
    bad.write_text("(assert unknown-symbol)\n(check-sat)\n")
    rc = solver_main([str(bad)])
    assert rc == 1
    assert "(error" in capsys.readouterr().out


# The regular expression the reader was first written with, kept as the
# reference that the str-method reader must match token for token.
_REFERENCE_TOKEN = re.compile(r"""
    [()]
  | [^ \t\r\n();|"][^ \t\r\n();]*    # symbol or numeral
  | \|[^|]*\|                        # quoted symbol
  | "(?:[^"]|"")*"                   # string; "" stands for one quote
  | ;[^\n]*                          # comment
  | [|"]                             # unterminated quoted symbol or string
""", re.VERBOSE)


def _reference_tokens(text):
    toks = []
    for tok in _REFERENCE_TOKEN.findall(text):
        ch = tok[0]
        if ch == ";":
            continue
        if ch == "|":
            if len(tok) == 1:
                raise SmtSyntaxError("unterminated quoted symbol")
            tok = tok[1:-1]
        elif ch == '"':
            if len(tok) == 1:
                raise SmtSyntaxError("unterminated string")
            tok = '"' + tok[1:-1].replace('""', '"') + '"'
        toks.append(tok)
    return toks


def _tokens_or_error(tokenize, text):
    try:
        return tokenize(text)
    except SmtSyntaxError as exc:
        return f"error: {exc}"


# Besides the reader's own characters: str.split() would also break on
# \x0b, \x0c, \x1c and \xa0, which are symbol characters in SMT-LIB text.
@settings(derandomize=True, database=None, max_examples=1500,
          deadline=None)
@given(st.text(alphabet='()|";ab1-x \t\r\n\x0b\x0c\x1c\xa0', max_size=40))
def test_reader_matches_the_regex_reader(text):
    got = _tokens_or_error(tokenize_sexprs, text)
    assert got == _tokens_or_error(_reference_tokens, text)
    if isinstance(got, list):
        # equal tokens are one shared string object
        assert len({id(t) for t in got}) == len(set(got))


def test_reader_edge_cases():
    cases = {
        "a|b c|d": ["a|b", "c|d"],
        '(x"y)': ["(", 'x"y', ")"],
        "|a b|c": ["a b", "c"],
        '"a""b"c': ['"a"b"', "c"],
        '"a"""': ['"a""'],
        "a;b|\nc": ["a", "c"],
        "a;b\rc": ["a"],
        "\x0ba\xa0b": ["\x0ba\xa0b"],
        '"a""': "error: unterminated string",
        "(|a)": "error: unterminated quoted symbol",
    }
    for text, expected in cases.items():
        assert _tokens_or_error(tokenize_sexprs, text) == expected, text
        assert _tokens_or_error(_reference_tokens, text) == expected, text


def _print_sexpr(form):
    if isinstance(form, list):
        return "(" + " ".join(map(_print_sexpr, form)) + ")"
    return form


@pytest.fixture(scope="module")
def fixture_dumps(tmp_path_factory):
    """(file name, text) of every problem ``verify --dump-smt`` writes for
    the fixture specs."""
    root = tmp_path_factory.mktemp("dumps")
    for path in sorted(glob.glob(os.path.join(FIXTURES, "**", "*.dslt"),
                                 recursive=True)):
        # one directory per spec: property names repeat across specs
        cli_main(["verify", path, "--dump-smt",
                  str(root / os.path.relpath(path, FIXTURES))])
    dumps = sorted(root.rglob("*.smt2"))
    assert len(dumps) >= 40
    return [(dump.name, dump.read_text()) for dump in dumps]


def test_every_fixture_problem_round_trips(fixture_dumps):
    for name, text in fixture_dumps:
        assert tokenize_sexprs(text) == _reference_tokens(text), name
        printed = "\n".join(map(_print_sexpr, parse_sexprs(text)))
        assert printed == text.rstrip("\n"), name


def _expand_definitions(forms):
    """``forms`` without its define-fun commands, each defined name
    replaced by its body."""
    bodies = {}

    def expand(e):
        if e.__class__ is str:
            return bodies.get(e, e)
        return [expand(x) for x in e]

    out = []
    for form in forms:
        if form[0] == "define-fun":
            bodies[form[1]] = expand(form[4])
        else:
            out.append(expand(form))
    return out


def test_shared_terms_ground_like_their_bodies(fixture_dumps, monkeypatch):
    # a defined name is compiled at its first reference and its literal
    # reused, so naming a term leaves the CNF clause for clause as it was
    cnfs = []

    class Capture(Solver):
        def __init__(self, cnf):
            cnfs.append((cnf.nvars, [list(c) for c in cnf.clauses]))

        def solve(self):
            return False

    monkeypatch.setattr(smtsolver, "Solver", Capture)
    ladder = [_stress_problem(k).text for k in (2, 3, 4)] + \
        [_mult_problem(k).text for k in (4, 8, 12)]
    for text in [text for _, text in fixture_dumps] + ladder:
        forms = parse_sexprs(text)
        bodies = [_print_sexpr(form[4]) for form in forms
                  if form[0] == "define-fun"]
        assert len(set(bodies)) == len(bodies), "a body is defined twice"
        assert bodies or text not in ladder
        cnfs.clear()
        SmtScript().run(forms, out=io.StringIO())
        SmtScript().run(_expand_definitions(forms), out=io.StringIO())
        shared, expanded = cnfs
        assert shared == expanded


def test_solver_child_starts_without_re():
    # re pulls in enum, functools and collections: about 15 ms of every
    # solver child's start-up
    cmd = default_solver_command()
    probe = ("import sys; sys.path.insert(0, sys.argv.pop(1)); "
             "import smtsolver; print(*sys.modules, sep='\\n')")
    out = subprocess.run([*cmd[:-2], probe, cmd[-1]], capture_output=True,
                         text=True, check=True, timeout=60).stdout
    loaded = set(out.split())
    assert "smtsolver" in loaded
    assert not loaded & {"re", "enum", "functools", "collections"}


def _random_clause(rng, nvars):
    """Mostly 3-literal clauses, with some units, binaries, duplicate
    literals and tautologies."""
    roll = rng.random()
    width = 1 if roll < 0.02 else 2 if roll < 0.07 else 3
    lits = [rng.choice((1, -1)) * rng.randint(1, nvars) for _ in range(width)]
    roll = rng.random()
    if roll < 0.05:
        lits.append(lits[0])                # duplicate literal
    elif roll < 0.08:
        lits.append(-lits[0])               # tautology
    return lits


def _truth_tables(nvars):
    """Variable v's truth table over all 2**nvars assignments, as an int
    whose bit m is set when assignment m (bit v-1 = v's value) has v true."""
    return [0] + [sum(1 << m for m in range(1 << nvars) if m >> (v - 1) & 1)
                  for v in range(1, nvars + 1)]


def test_solver_agrees_with_brute_force():
    rng = random.Random(20260417)
    tables = {}
    answers = []
    for _ in range(400):
        nvars = rng.randint(1, 12)
        # 3.5 to 5.5 clauses per variable: around the 3-SAT threshold
        clauses = [_random_clause(rng, nvars)
                   for _ in range(round(rng.uniform(3.5, 5.5) * nvars))]
        if nvars not in tables:
            tables[nvars] = _truth_tables(nvars)
        table = tables[nvars]
        full = (1 << (1 << nvars)) - 1
        models = full
        for clause in clauses:
            sat_by = 0
            for lit in clause:
                sat_by |= table[lit] if lit > 0 else full & ~table[-lit]
            models &= sat_by
        cnf = Cnf()
        for _ in range(nvars):
            cnf.new_var()
        for clause in clauses:
            cnf.add(clause)
        solver = Solver(cnf)
        sat = solver.solve()
        assert sat == (models != 0), clauses
        if sat:
            # a sat answer assigns every variable, not only enough of them
            assert all(solver.lv[v] for v in range(1, nvars + 1)), clauses
            for clause in clauses:
                assert any(solver.model_value(abs(lit)) == (lit > 0)
                           for lit in clause), clauses
        answers.append(sat)
    assert 50 < sum(answers) < 350   # both answers are well represented


class _RandomProblem:
    """A random script over at most 3 Bools and 2 Ints with domains inside
    [-2..3] and at most 3 zero-arity Bool definitions, using every operator
    the grounder accepts.  ``atoms`` keeps the comparisons made so far, so
    later ones can repeat them.  A definition's body may use the earlier
    ones, and the assertions nest conjunctions, disjunctions and
    implications at the top, where the grounder asserts them as clauses."""

    def __init__(self, rng):
        self.rng = rng
        self.bools = [f"b{i}" for i in range(rng.randint(0, 3))]
        self.ints = {}
        for i in range(rng.randint(0, 2)):
            lo = rng.randint(-2, 3)
            self.ints[f"x{i}"] = (lo, rng.randint(lo, 3))
        self.atoms = []
        self.defs = []
        for i in range(rng.randint(0, 3)):
            self.defs.append((f"d{i}", self.bool_term(2)))

    def const(self):
        n = self.rng.randint(-2, 3)
        return str(n) if n >= 0 or self.rng.random() < 0.5 else ["-", str(-n)]

    def int_term(self, depth):
        rng = self.rng
        roll = rng.random()
        if depth == 0 or roll < 0.4:
            if self.ints and rng.random() < 0.7:
                return rng.choice(list(self.ints))
            return self.const()
        sub = [self.int_term(depth - 1) for _ in range(rng.randint(1, 3))]
        if roll < 0.6:
            return ["+", *sub]
        if roll < 0.8:
            return ["-", *sub[:2]]
        k = str(rng.randint(-2, 3))
        return ["*", k, sub[0]] if rng.random() < 0.5 else ["*", sub[0], k]

    def atom(self, depth):
        rng = self.rng
        if self.atoms and rng.random() < 0.4:
            op, *args = rng.choice(self.atoms)
            return [op, *(args[::-1] if rng.random() < 0.5 else args)]
        op = rng.choice(("=", "distinct", "<=", "<", ">=", ">"))
        width = rng.choice((2, 2, 3)) if op in ("=", "distinct") else 2
        # plain tokens are the atoms the grounder compiles only once
        args = [self.int_term(0 if rng.random() < 0.6 else depth)
                for _ in range(width)]
        self.atoms.append([op, *args])
        return [op, *args]

    def bool_term(self, depth):
        rng = self.rng
        roll = rng.random()
        if depth == 0 or roll < 0.25:
            names = self.bools + [name for name, _ in self.defs]
            if names and rng.random() < 0.6:
                return rng.choice(names)
            if self.ints and rng.random() < 0.8:
                return self.atom(1)
            return rng.choice(("true", "false"))
        if roll < 0.35 and (self.ints or not self.bools):
            return self.atom(2)
        op = rng.choice(("and", "or", "not", "=>", "xor", "ite", "=",
                         "distinct"))
        width = {"not": 1, "ite": 3}.get(op) or rng.randint(
            1 if op in ("and", "or") else 2, 3)
        return [op, *(self.bool_term(depth - 1) for _ in range(width))]

    def bounds(self, x, lo, hi):
        lo_s, hi_s = str(lo), str(hi)
        shapes = [[["<=", lo_s, x], ["<=", x, hi_s]],
                  [[">=", x, lo_s], [">=", hi_s, x]],
                  [["<", str(lo - 1), x], [">", str(hi + 1), x]],
                  [["and", ["<=", lo_s, x], ["<", x, str(hi + 1)]]]]
        if lo == hi:
            shapes.append([["=", x, lo_s]])
        return self.rng.choice(shapes)

    def top_term(self, depth):
        rng = self.rng
        roll = rng.random()
        if depth == 0 or roll < 0.4:
            return self.bool_term(3)
        op = "and" if roll < 0.6 else "or" if roll < 0.8 else "=>"
        width = rng.randint(1 if op != "=>" else 2, 3)
        return [op, *(self.top_term(depth - 1) for _ in range(width))]

    def assertions(self):
        out = [b for x, (lo, hi) in self.ints.items()
               for b in self.bounds(x, lo, hi)]
        return out + [self.top_term(2)
                      for _ in range(self.rng.randint(1, 4))]

    def assignments(self):
        envs = [{}]
        for b in self.bools:
            envs = [{**env, b: v} for env in envs for v in (False, True)]
        for x, (lo, hi) in self.ints.items():
            envs = [{**env, x: v} for env in envs for v in range(lo, hi + 1)]
        for env in envs:
            for name, body in self.defs:
                env[name] = _bool_value(body, env)
        return envs

    def script(self, assertions):
        decls = [f"(declare-const {b} Bool)" for b in self.bools] + \
            [f"(declare-const {x} Int)" for x in self.ints] + \
            [f"(define-fun {name} () Bool {_print_sexpr(body)})"
             for name, body in self.defs]
        return "\n".join(decls + [f"(assert {_print_sexpr(a)})"
                                  for a in assertions] +
                         ["(check-sat)", "(get-model)"])


def _int_value(e, env):
    if isinstance(e, str):
        return env[e] if e in env else int(e)
    args = [_int_value(x, env) for x in e[1:]]
    if e[0] == "+":
        return sum(args)
    if e[0] == "-":
        return -args[0] if len(args) == 1 else args[0] - sum(args[1:])
    assert e[0] == "*"
    return args[0] * args[1]


_COMPARE = {"<=": int.__le__, "<": int.__lt__, ">=": int.__ge__,
            ">": int.__gt__}


def _bool_value(e, env):
    if isinstance(e, str):
        return {"true": True, "false": False}.get(e, env.get(e))
    op, args = e[0], e[1:]
    if op in _COMPARE:
        return _COMPARE[op](_int_value(args[0], env), _int_value(args[1], env))
    if op in ("=", "distinct"):
        first = args[0]
        if isinstance(first, str):
            is_bool = first in ("true", "false") or \
                isinstance(env.get(first), bool)
        else:
            is_bool = first[0] not in ("+", "-", "*")
        value = _bool_value if is_bool else _int_value
        vals = [value(x, env) for x in args]
        if op == "=":
            return all(v == vals[0] for v in vals)
        return len(set(vals)) == len(vals)
    vals = [_bool_value(x, env) for x in args]
    if op == "and":
        return all(vals)
    if op == "or":
        return any(vals)
    if op == "not":
        return not vals[0]
    if op == "=>":
        out = vals[-1]
        for v in reversed(vals[:-1]):
            out = not v or out
        return out
    if op == "xor":
        return sum(vals) % 2 == 1
    assert op == "ite"
    return vals[1] if vals[0] else vals[2]


def test_grounding_agrees_with_brute_force():
    rng = random.Random(20261018)
    answers = []
    for _ in range(300):
        problem = _RandomProblem(rng)
        assertions = problem.assertions()
        text = problem.script(assertions)
        expected = any(all(_bool_value(a, env) for a in assertions)
                       for env in problem.assignments())
        forms = parse_sexprs(_solve(text))
        assert forms[0] == ("sat" if expected else "unsat"), text
        if expected:
            model = {}
            for _, name, _, sort, value in forms[1][1:]:
                if sort == "Bool":
                    model[name] = value == "true"
                else:           # a negative value is printed as (- n)
                    model[name] = int(value) if isinstance(value, str) \
                        else -int(value[1])
            # the model names no definition; the bodies give their values
            assert set(model) == set(problem.bools) | set(problem.ints)
            for name, body in problem.defs:
                model[name] = _bool_value(body, model)
            assert all(_bool_value(a, model) for a in assertions), text
        answers.append(expected)
    assert 50 < sum(answers) < 250   # both answers are well represented


def _uniform_problem(spec, prop_name, k):
    """``prop_name`` of ``spec`` encoded at uniform bound k."""
    prop = spec.property(prop_name)
    t = spec.transformations[0]
    src = flatten_inheritance_info(spec.metamodel(t.source))
    tgt = flatten_inheritance_info(spec.metamodel(t.target))
    bounds = PerClassBounds(
        source={c: k for c in src if not src[c].abstract},
        target={c: k for c in tgt if not tgt[c].abstract})
    return encode(spec, prop, bounds, EncodeOptions(), t)


def _stress_problem(k):
    return _uniform_problem(load_spec("stress.dslt"), "ContainedClsHasDecl",
                            k)


def _mult_problem(k):
    spec = parse_spec_file(os.path.join(FIXTURES, os.pardir, os.pardir,
                                        "perfbench", "specs", "mult.dslt"))
    return _uniform_problem(spec, "ItemHasOut", k)


# (CNF variables, CNF clauses, conflicts) of the stress ladder.  Grounding
# that produces another CNF, or a search that takes another path, shows here
# first: update these deliberately, with the reason, when either changes.
STRESS_LADDER = {2: (130, 394, 0), 3: (371, 1302, 0), 4: (970, 3736, 0)}


def test_stress_ladder_cnf_and_search_are_pinned(monkeypatch):
    seen = []

    class Counting(Solver):
        def __init__(self, cnf):
            self.size = (cnf.nvars, len(cnf.clauses))
            self.conflicts = 0
            super().__init__(cnf)
            seen.append(self)

        def analyze(self, conflict):
            self.conflicts += 1
            return super().analyze(conflict)

    monkeypatch.setattr(smtsolver, "Solver", Counting)
    got = {}
    for k in STRESS_LADDER:
        seen.clear()
        smtsolver.SmtScript().run(parse_sexprs(_stress_problem(k).text),
                                  out=io.StringIO())
        solver, = seen
        got[k] = (*solver.size, solver.conflicts)
    assert got == STRESS_LADDER


def _pigeonhole_cnf(pigeons, holes):
    """PHP(pigeons, holes): every pigeon sits in a hole, no two share one.
    Variable p * holes + h + 1 puts pigeon p in hole h."""
    cnf = Cnf()
    var = [[cnf.new_var() for _ in range(holes)] for _ in range(pigeons)]
    for row in var:
        cnf.add(row)
    for h in range(holes):
        for p, q in itertools.combinations(range(pigeons), 2):
            cnf.add([-var[p][h], -var[q][h]])
    return cnf


def test_vsids_heap_stays_bounded():
    class Recording(Solver):
        def __init__(self, cnf):
            super().__init__(cnf)
            self.conflicts = 0
            self.max_heap = len(self.heap)

        def analyze(self, conflict):
            self.conflicts += 1
            return super().analyze(conflict)

        def backtrack(self, level):
            super().backtrack(level)
            self.max_heap = max(self.max_heap, len(self.heap))

    solver = Recording(_pigeonhole_cnf(7, 6))
    assert solver.solve() is False
    # enough search for stale heap entries to pile up without the rebuild
    assert solver.conflicts > 300
    assert solver.n < solver.max_heap <= 2 * solver.n


def test_solve_leaves_no_reference_cycles(monkeypatch):
    # with the cyclic collector off, the solve's CNF (and the circuit and
    # clause lists around it) must be freed by reference counting alone
    cnfs = []

    class Tracked(Cnf):
        def __init__(self):
            super().__init__()
            cnfs.append(weakref.ref(self))

    monkeypatch.setattr(smtsolver, "Cnf", Tracked)
    text = """
(declare-const a Bool)
(declare-const x Int)
(declare-const y Int)
(assert (and (<= 0 x) (<= x 3) (<= 0 y) (<= y 3)))
(assert (or a (= (+ x y) 5)))
(assert (=> a (< x (- y 1))))
(check-sat)
(get-model)
"""
    gc.collect()
    gc.disable()
    try:
        script = smtsolver.SmtScript()
        script.run(parse_sexprs(text), out=io.StringIO())
        assert script.last == "sat"
        assert len(cnfs) == 1 and cnfs[0]() is None
    finally:
        gc.enable()


def test_default_solver_runs_from_plain_checkout(tmp_path, monkeypatch):
    discard_spare()  # so that the child starts in this environment
    monkeypatch.delenv("PYTHONPATH", raising=False)
    monkeypatch.chdir(tmp_path)
    problem = types.SimpleNamespace(text="""
(declare-const a Bool)
(declare-const b Bool)
(assert (and a (not b)))
(check-sat)
(get-model)
""")
    verdict = run_solver(problem, timeout_seconds=60)
    assert verdict.status == "sat", verdict.raw_output
    assert verdict.model == {"a": True, "b": False}


def test_default_solver_ignores_python_environment(tmp_path, monkeypatch):
    # a module on PYTHONPATH that shadows the stdlib must not reach the child
    discard_spare()  # so that the child starts in this environment
    (tmp_path / "heapq.py").write_text("raise ImportError('shadowed')\n")
    monkeypatch.setenv("PYTHONPATH", str(tmp_path))
    problem = types.SimpleNamespace(text="""
(declare-const a Bool)
(assert a)
(check-sat)
(get-model)
""")
    verdict = run_solver(problem, timeout_seconds=60)
    assert verdict.status == "sat", verdict.raw_output
    assert verdict.model == {"a": True}
