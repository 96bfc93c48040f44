import contextlib
import gc
import io
import itertools
import os
import random
import re
import subprocess
import types
import weakref

import pytest
from conftest import FIXTURES, fixture_specs, load_spec
from hypothesis import given, settings
from hypothesis import strategies as st

from dsltv import smtsolver
from dsltv.cutoff import PerClassBounds
from dsltv.inheritance import is_subtype
from dsltv.orchestrator import VerificationConfig, plan_property
from dsltv.smtencode import EncodeOptions, EncodingCeilingError, encode
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
        "(declare-const a Bool) (push 1) (declare-const a Bool)",
        "(declare-const a Bool) (assert (ite a)) (check-sat)",
        "(declare-const a Bool) (assert (not)) (check-sat)",
        "(declare-const a Bool) (assert (=> a)) (check-sat)",
        "(declare-const a Bool) (assert (xor)) (check-sat)",
        "(declare-const a Bool) (assert (=)) (check-sat)",
        "(assert ()) (check-sat)",
        "(declare-const a Bool) (assert (= a ())) (check-sat)",
        # constructs outside the language the encoder writes
        "(declare-const |a| Bool) (check-sat)",
        '(set-option :x "s") (check-sat)',
        "(check-sat) ; c",
        "(set-info :status sat) (check-sat)",
        "(declare-const a Bool) (push 1) (assert a) (check-sat)",
        "(declare-const a Bool) (assert a) (pop 1) (check-sat)",
        "(declare-fun a () Bool) (assert a) (check-sat)",
        "(declare-const a Bool) (assert (xor a a)) (check-sat)",
        "(declare-const a Bool) (assert (ite a a (not a))) (check-sat)",
        "(declare-const a Bool) (declare-const b Bool)"
        " (assert (distinct a b)) (check-sat)",
        "(declare-const a Bool) (assert (= a a a)) (check-sat)",
        "(declare-const a Bool) (assert (=> a a a)) (check-sat)",
        "(declare-const a Bool) (assert (or a (=> a a a))) (check-sat)",
        "(declare-const a Bool) (assert (not (=> a a a))) (check-sat)",
    ] + [
        # + and ite outside a positive, top-level cardinality term
        f"(declare-const a Bool) (declare-const b Bool) {rest} (check-sat)"
        for rest in (
            "(assert (= (+ (ite a 1 0) (ite b 1 0)) 1))",
            "(assert (<= 1 (+ (ite a 1 0) (ite b 1 0))))",
            "(assert (ite a 1 0))",
            "(assert (<= (ite a 1 0) 1))",
            "(assert (<= (+ (ite a 2 0) (ite b 1 0)) 1))",
            "(assert (<= (+ (ite a 0 1) (ite b 1 0)) 1))",
            "(assert (<= (+ (ite a 1 0) b) 1))",
            "(assert (<= (+ (ite a 1 0)) 1))",
            "(assert (<= (+ (ite a 1 0) (ite b 1 0)) (- 1)))",
            "(assert (<= (+ (ite a 1 0) (ite b 1 0)) a))",
            "(assert (not (<= (+ (ite a 1 0) (ite b 1 0)) 1)))",
            "(assert (or a (<= (+ (ite a 1 0) (ite b 1 0)) 1)))",
            "(assert (=> a (<= (+ (ite a 1 0) (ite b 1 0)) 1)))",
            "(assert (and a (not (<= (+ (ite a 1 0) (ite b 1 0)) 1))))",
            "(define-fun d () Bool (<= (+ (ite a 1 0) (ite b 1 0)) 1))"
            " (assert (or d a))",
            "(assert (<= (+ (ite (<= (+ (ite a 1 0) (ite b 1 0)) 1) 1 0)"
            " (ite b 1 0)) 1))",
        )
    ] + [
        # no comparison atom: every term is a Bool
        f"(declare-const a Bool) (declare-const b Bool) (assert {atom})"
        " (check-sat)"
        for atom in ("(<= a b)", "(< a b)", "(>= a b)", "(> a b)",
                     "(= a 1)", "(= a (- 1))", "(or a (<= 0 1))")
    ]
    for n, text in enumerate(scripts):
        path = tmp_path / f"bad{n}.smt2"
        path.write_text(text)
        assert solver_main([str(path)]) == 1, text
        assert capsys.readouterr().out.startswith("(error "), text


def test_definitions_are_scoped_and_checked(tmp_path, capsys):
    out = _solve("""
(declare-const a Bool)
(define-fun d () Bool (or a (not a)))
(define-fun e () Bool (and d a))
(assert (=> d e))
(check-sat)
(get-model)
""")
    assert out.split() == ["sat", "(model", "(define-fun", "a", "()", "Bool",
                           "true)", ")"]
    errors = {
        "(declare-const a Bool) (assert d) (check-sat)":
            "'d' is used before its declaration",
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
        # every declared name is a Bool
        "(declare-const x Int) (check-sat)": "unsupported sort 'Int'",
        "(define-fun d () Bool)": "malformed define-fun",
        "(assert 1) (check-sat)": "'1' is not a Bool term",
        # one scope rule for both kinds of name: a declared constant, like a
        # defined name, is in scope from its command on
        "(assert x) (declare-const x Bool) (check-sat)":
            "'x' is used before its declaration",
        "(declare-const a Bool) (define-fun d () Bool (and a x))"
        " (declare-const x Bool) (assert d) (check-sat)":
            "'x' is used before its declaration",
        "(declare-const a Bool) (assert d) (define-fun d () Bool a)"
        " (check-sat)": "'d' is used before its declaration",
        "(declare-const a Bool) (define-fun d () Bool (not e))"
        " (define-fun e () Bool a) (assert d) (check-sat)":
            "'e' is used before its declaration",
        "(define-fun d () Bool (not d)) (assert d) (check-sat)":
            "'d' is used before its declaration",
        # e is defined by the time of the assertions, yet d, made before e,
        # still may not use it
        "(declare-const a Bool) (define-fun d () Bool (or e a))"
        " (define-fun e () Bool (or a a)) (assert (or e a)) (assert d)"
        " (check-sat)": "'e' is used before its declaration",
    }
    for n, (text, message) in enumerate(errors.items()):
        path = tmp_path / f"bad{n}.smt2"
        path.write_text(text)
        assert solver_main([str(path)]) == 1, text
        assert capsys.readouterr().out.startswith(f'(error "{message}'), text


def test_get_model_before_check_sat_is_an_error_line():
    assert _solve("(declare-const a Bool)\n(get-model)\n").strip() == \
        '(error "no model available")'


def test_cli_reports_errors(tmp_path, capsys):
    bad = tmp_path / "bad.smt2"
    bad.write_text("(assert unknown-symbol)\n(check-sat)\n")
    rc = solver_main([str(bad)])
    assert rc == 1
    assert "(error" in capsys.readouterr().out


# The regular expression the reader was first written with, cut to the
# plain tokens it now reads, kept as the reference that the str-method
# reader must match token for token.
_REFERENCE_TOKEN = re.compile(r"[()]|[^ \t\r\n()]+")


def _reference_tokens(text):
    if re.search(r'[|";]', text):
        raise SmtSyntaxError("quoted symbol, string or comment")
    return _REFERENCE_TOKEN.findall(text)


def _tokens_or_error(tokenize, text):
    try:
        return tokenize(text)
    except SmtSyntaxError:
        return "error"


# Besides the reader's own characters: str.split() would also break on
# \x0b, \x0c, \x1c and \xa0, which are symbol characters in SMT-LIB text.
# Half the texts are drawn without "|", '"' and ";", so that most are read.
_PLAIN = "()ab1-x \t\r\n\x0b\x0c\x1c\xa0"


@settings(derandomize=True, database=None, max_examples=1500,
          deadline=None)
@given(st.one_of(st.text(alphabet=_PLAIN, max_size=40),
                 st.text(alphabet=_PLAIN + '|";', max_size=40)))
def test_reader_matches_the_regex_reader(text):
    got = _tokens_or_error(tokenize_sexprs, text)
    assert got == _tokens_or_error(_reference_tokens, text)
    if isinstance(got, list):
        # equal tokens are one shared string object
        assert len({id(t) for t in got}) == len(set(got))


def test_reader_edge_cases():
    cases = {
        "a|b c|d": "error",
        '(x"y)': "error",
        "|a b|c": "error",
        '"a""b"c': "error",
        '"a"""': "error",
        "a;b|\nc": "error",
        "a;b\rc": "error",
        "\x0ba\xa0b": ["\x0ba\xa0b"],
        '"a""': "error",
        "(|a)": "error",
    }
    for text, expected in cases.items():
        assert _tokens_or_error(tokenize_sexprs, text) == expected, text
        assert _tokens_or_error(_reference_tokens, text) == expected, text


def _print_sexpr(form):
    if isinstance(form, list):
        return "(" + " ".join(map(_print_sexpr, form)) + ")"
    return form


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
    ladder = [_stress_problem(k).text for k in (2, 3, 4)]
    for text in [text for _, text in fixture_dumps] + ladder + \
            [_mult_problem(k).text for k in (4, 8, 12)]:
        forms = parse_sexprs(text)
        bodies = [_print_sexpr(form[4]) for form in forms
                  if form[0] == "define-fun"]
        assert len(set(bodies)) == len(bodies), "a body is defined twice"
        # mult's terms are names or single atoms, which are never defined
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
    """A random script over at most 4 Bools and zero-arity Bool definitions,
    in exactly the language the grounder accepts: ``=`` and ``=>`` take two
    operands.  A definition's body may use the earlier ones, and the
    assertions nest conjunctions, disjunctions and implications at the top,
    where the grounder asserts them as clauses.  Some assertions take a
    shape the grounder splices into clauses, with each of its parts inline
    or behind a definition.  Others are cardinality terms ``(<= (+ (ite x 1
    0) ...) k)``, asserted alone or as a conjunct of an asserted ``and``,
    the only positions where the grounder takes them."""

    def __init__(self, rng):
        self.rng = rng
        self.bools = [f"b{i}" for i in range(rng.randint(0, 4))]
        self.defs = []
        for i in range(rng.randint(0, 3)):
            self.defs.append((f"d{i}", self.bool_term(2)))

    def bool_term(self, depth):
        rng = self.rng
        if depth == 0 or rng.random() < 0.3:
            names = self.bools + [name for name, _ in self.defs]
            if names and rng.random() < 0.8:
                return rng.choice(names)
            return rng.choice(("true", "false"))
        op = rng.choice(("and", "or", "not", "=>", "="))
        width = {"not": 1, "=>": 2, "=": 2}.get(op) or rng.randint(1, 3)
        return [op, *(self.bool_term(depth - 1) for _ in range(width))]

    def named(self, term):
        """``term``, or at random the name of a new definition of it."""
        if self.rng.random() < 0.5:
            return term
        name = f"d{len(self.defs)}"
        self.defs.append((name, term))
        return name

    def spliced_term(self):
        rng = self.rng

        def part(op):
            return self.named([op, *(self.bool_term(2)
                                     for _ in range(rng.randint(1, 3)))])

        shape = rng.randrange(6)
        if shape == 0:      # an and antecedent
            term = ["=>", part("and"), self.bool_term(2)]
        elif shape == 1:    # an or consequent
            term = ["=>", self.bool_term(2), part("or")]
        elif shape == 2:    # an and consequent
            term = ["=>", self.bool_term(2), part("and")]
        elif shape == 3:    # a nested or
            term = ["or", self.bool_term(2), part("or")]
        elif shape == 4:    # a negated conjunction inside an or
            term = ["or", self.named(["not", part("and")]), self.bool_term(2)]
        else:               # a negated conjunction at the top
            term = ["not", part("and")]
        return self.named(term)

    def top_term(self, depth):
        rng = self.rng
        roll = rng.random()
        if roll < 0.15:
            return self.spliced_term()
        if depth == 0 or roll < 0.4:
            return self.bool_term(3)
        op = "and" if roll < 0.6 else "or" if roll < 0.8 else "=>"
        width = 2 if op == "=>" else rng.randint(1, 3)
        return [op, *(self.top_term(depth - 1) for _ in range(width))]

    def at_most(self):
        n = self.rng.randint(2, 4)
        return ["<=", ["+", *(["ite", self.bool_term(2), "1", "0"]
                              for _ in range(n))],
                str(self.rng.randint(0, n))]

    def assertions(self):
        rng = self.rng
        out = []
        for _ in range(rng.randint(1, 4)):
            roll = rng.random()
            if roll < 0.15:
                out.append(self.at_most())
            elif roll < 0.3:
                parts = [self.at_most(), self.top_term(1)]
                rng.shuffle(parts)
                out.append(["and", *parts])
            else:
                out.append(self.top_term(2))
        return out

    def assignments(self):
        envs = [{}]
        for b in self.bools:
            envs = [{**env, b: v} for env in envs for v in (False, True)]
        for env in envs:
            for name, body in self.defs:
                env[name] = _bool_value(body, env)
        return envs

    def script(self, assertions):
        decls = [f"(declare-const {b} Bool)" for b in self.bools] + \
            [f"(define-fun {name} () Bool {_print_sexpr(body)})"
             for name, body in self.defs]
        return "\n".join(decls + [f"(assert {_print_sexpr(a)})"
                                  for a in assertions] +
                         ["(check-sat)", "(get-model)"])


def _bool_value(e, env):
    if isinstance(e, str):
        return {"true": True, "false": False}.get(e, env.get(e))
    op, args = e[0], e[1:]
    if op == "<=":
        # a cardinality term: the ite operands are all (ite x 1 0)
        held = sum(_bool_value(x[1], env) for x in args[0][1:])
        return held <= int(args[1])
    vals = [_bool_value(x, env) for x in args]
    if op == "and":
        return all(vals)
    if op == "or":
        return any(vals)
    if op == "not":
        return not vals[0]
    if op == "=":
        return vals[0] == vals[1]
    assert op == "=>"
    return not vals[0] or vals[1]


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
        # after unsat, (get-model) prints nothing
        assert forms[:1] == ["sat" if expected else "unsat"], text
        assert len(forms) == (2 if expected else 1), text
        if expected:
            model = {}
            for _, name, _, sort, value in forms[1][1:]:
                assert sort == "Bool" and value in ("true", "false"), text
                model[name] = value == "true"
            # the model names no definition; the bodies give their values
            assert set(model) == set(problem.bools)
            for name, body in problem.defs:
                model[name] = _bool_value(body, model)
            assert all(_bool_value(a, model) for a in assertions), text
        answers.append(expected)
    assert 50 < sum(answers) < 250   # both answers are well represented


def _uniform_problem(spec, prop_name, k):
    """``prop_name`` of ``spec`` encoded at uniform bound k."""
    prop = spec.property(prop_name)
    t = spec.transformations[0]
    src = spec.metamodel(t.source).info
    tgt = spec.metamodel(t.target).info
    bounds = PerClassBounds(
        source={c: k for c in src if not src[c].abstract},
        target={c: k for c in tgt if not tgt[c].abstract})
    return encode(spec, prop, bounds, EncodeOptions(), t)


def _stress_problem(k):
    return _uniform_problem(load_spec("stress.dslt"), "ContainedClsHasDecl",
                            k)


def _mult_spec():
    return parse_spec_file(os.path.join(FIXTURES, os.pardir, os.pardir,
                                        "perfbench", "specs", "mult.dslt"))


def _mult_problem(k):
    return _uniform_problem(_mult_spec(), "ItemHasOut", k)


# (CNF variables, CNF clauses, conflicts, text bytes) of the stress and mult
# ladders.  An encoding that writes another text, grounding that produces
# another CNF, or a search that takes another path, shows here first: update
# these deliberately, with the reason, when any of them changes.  Splicing
# top-level connectives into clauses, instead of gating them, took stress
# from (130, 394, 0), (371, 1302, 0) and (970, 3736, 0) to
# (103, 310, 0), (288, 1018, 0) and (762, 2986, 0); asserting target
# existence with an at-most-one counter per slot, instead of an iff over
# the pairwise exactly-one, took them to (83, 236, 0), (201, 648, 0) and
# (392, 1418, 0), and mult to (117, 276, 0), (425, 1098, 0) and
# (925, 2528, 0).  Writing claims for allowed slot values only, and
# deferring the source upper bounds, took both to (80, 220, 0),
# (194, 587, 0) and (379, 1255, 0), and (74, 176, 0), (228, 610, 0) and
# (462, 1364, 0), with stress texts of 5,705, 14,675 and 31,260 bytes and
# mult texts of 4,744, 14,959 and 30,874.  Slicing the encoding to what the
# property reads (mult's tags links, all but one of stress's apply links,
# the target links no apply link writes and the assertions that a link's
# ends exist) took stress to (77, 193, 0, 3993), (184, 493, 0, 8905) and
# (361, 1023, 0, 16855), and mult to (58, 144, 0, 2984), (164, 482, 0,
# 7919) and (318, 1076, 0, 14890).  Making each creation a target element
# of its own, with the target bounds as caps on creations, instead of a
# bank of slots that creations claim, took both to the values below.
STRESS_LADDER = {2: (49, 110, 0, 1729), 3: (108, 247, 0, 3184),
                 4: (199, 456, 0, 5167)}
MULT_LADDER = {4: (26, 50, 0, 961), 8: (50, 98, 0, 1813),
               12: (74, 146, 0, 2681)}


def _ladder(problem, rungs, monkeypatch):
    """(CNF variables, CNF clauses, conflicts, text bytes) of
    ``problem(k)`` per rung."""
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
    for k in rungs:
        seen.clear()
        text = problem(k).text
        smtsolver.SmtScript().run(parse_sexprs(text), out=io.StringIO())
        solver, = seen
        got[k] = (*solver.size, solver.conflicts, len(text.encode()))
    return got


def test_stress_ladder_cnf_and_search_are_pinned(monkeypatch):
    assert _ladder(_stress_problem, STRESS_LADDER, monkeypatch) \
        == STRESS_LADDER


def test_mult_ladder_cnf_and_search_are_pinned(monkeypatch):
    assert _ladder(_mult_problem, MULT_LADDER, monkeypatch) == MULT_LADDER


# The SMT-LIB that the encoder writes and the bundled solver reads (see the
# smtsolver module docstring).
COMMANDS = {"set-logic", "set-option", "declare-const", "define-fun",
            "assert", "check-sat", "get-model", "exit"}
OPERATORS = {"and", "or", "not", "=>", "="}


def _at_most_operands(e):
    """The terms x_i of a cardinality term ``(<= (+ (ite x_0 1 0) ...
    (ite x_{n-1} 1 0)) k)`` with n >= 2 and a numeral k, else None."""
    if not (isinstance(e, list) and len(e) == 3 and e[0] == "<="
            and isinstance(e[1], list) and e[1][0] == "+" and len(e[1]) > 2
            and isinstance(e[2], str) and e[2].isdigit()):
        return None
    if not all(isinstance(x, list) and len(x) == 4 and x[0] == "ite"
               and x[2:] == ["1", "0"] for x in e[1][1:]):
        return None
    return [x[1] for x in e[1][1:]]


def _outside_language(forms):
    """The command heads, operators and arities in ``forms`` that the
    solver's language does not have.  ``+`` and ``ite`` are admitted only
    in a cardinality term that is asserted or is a conjunct of an asserted
    ``and``."""
    found = []

    def visit(e):
        if e.__class__ is str:
            return
        if e[0] not in OPERATORS:
            found.append(e[0])
        elif e[0] in ("=", "=>") and len(e) != 3:
            found.append(f"{e[0]} with {len(e) - 1} operands")
        for x in e[1:]:
            visit(x)

    def visit_conjunct(e):
        operands = _at_most_operands(e)
        for x in [e] if operands is None else operands:
            visit(x)

    for form in forms:
        if form[0] not in COMMANDS:
            found.append(form[0])
        elif form[0] == "assert":
            term = form[1]
            if isinstance(term, list) and term[0] == "and":
                for x in term[1:]:
                    visit_conjunct(x)
            else:
                visit_conjunct(term)
        elif form[0] == "define-fun":
            visit(form[4])
        elif form[0] == "declare-const" and form[2] != "Bool":
            found.append(f"sort {form[2]}")
    return found


def _mandatory_problem(k):
    # owner [1..1] keeps its links through its lower bound, and at k >= 2
    # its upper bound is a cardinality term of its own
    return _uniform_problem(load_spec("corpus/c06_mandatory.dslt"),
                            "ParentHasPOut", k)


def test_encoder_writes_only_the_solver_language(fixture_dumps):
    texts = [text for _, text in fixture_dumps]
    for problem in [_stress_problem(k) for k in (2, 3, 4)] + \
            [_mult_problem(k) for k in (4, 8, 12)] + \
            [_mandatory_problem(k) for k in (2, 3)]:
        texts.append(problem.text)
    for text in texts:
        # no quoted symbol, string or comment
        assert not set('|";') & set(text), text[:200]
        assert _outside_language(parse_sexprs(text)) == [], text[:200]
    # the cardinality term occurs over links, as an association upper
    # bound, and over firings, as a cap on creations; both are asserted
    # alone, so the checker's conjunct position is tried on its own below
    forms = [f for text in texts for f in parse_sexprs(text)
             if f[0] == "assert"]
    for prefix in ("ln_s_", "fr_"):
        assert any((_at_most_operands(f[1]) or [""])[0].startswith(prefix)
                   for f in forms), prefix
    a = "(declare-const a Bool) "
    card = "(<= (+ (ite a 1 0) (ite a 1 0)) 1)"
    assert _outside_language(parse_sexprs(f"{a}(assert (and a {card}))")) \
        == []
    # the checker itself refuses + and ite in any other position
    for bad in (f"(assert (not {card}))", f"(assert (or a {card}))",
                f"(assert (=> a {card}))", f"(define-fun d () Bool {card})",
                "(assert (<= (+ (ite a 2 0) (ite a 1 0)) 1))",
                "(assert (<= (+ (ite a 1 0) (ite a 1 0)) (- 1)))",
                "(assert (= (+ (ite a 1 0) (ite a 1 0)) 1))",
                "(declare-const x Int)", "(assert (<= a a))"):
        assert _outside_language(parse_sexprs(a + bad)) != [], bad


def test_encoding_size_stays_within_budget(fixture_dumps):
    # with a bank of target slots that creations claimed, the default-config
    # fixture texts took 82.8 kB and the mult rung at 12 took 14,890 bytes
    assert sum(len(text.encode()) for _, text in fixture_dumps) <= 55_000
    assert len(_mult_problem(12).text.encode()) <= 5_000


_DUMP_NAME = re.compile(r"(.+)_L([\d-]+)\.smt2")


def _sliced_link_rows(spec, prop, t, rule_names=None):
    """(link name prefix, a variable and variables of which one more must
    be declared for the row to have had links) of each row of links that
    the encoding slices away.  A source row belongs to an association that
    no encoded rule's match and no precondition reads and no lower bound
    demands; it would have had links with its slot and a slot at the other
    end.  A target row is the links of an association that the
    postcondition does not read; it would have had links with a firing of
    an encoded rule that writes one."""
    rules = [r for _, r in t.all_rules()
             if rule_names is None or r.name in rule_names]
    read = {l.assoc for r in rules for l in r.match.links} | \
        {l.assoc for l in prop.precondition.links}
    info = spec.metamodel(t.source).info
    rows = []
    for a in spec.metamodel(t.source).associations:
        if a.name in read or a.lower > 0:
            continue
        cs, ct = ([c for c in info if not info[c].abstract
                   and is_subtype(info, c, end)]
                  for end in (a.source, a.target))
        rows += [(f"ln_s_{a.name}_{c}_", f"ex_s_{c}_0",
                  [f"ex_s_{d}_0" for d in ct]) for c in cs]
    read = {l.assoc for l in prop.postcondition.links}
    for a in spec.metamodel(t.target).associations:
        if a.name not in read:
            fires = [f"fr_{r.name}_0" for r in rules
                     if any(l.assoc == a.name for l in r.apply.links)]
            rows += [(f"ln_t_{a.name}_", fr, fires) for fr in fires]
    return rows


def test_unread_associations_have_no_links(fixture_dumps):
    problems = []
    for name, text in fixture_dumps:
        spec_path, file_name = os.path.split(name)
        m = _DUMP_NAME.fullmatch(file_name)
        spec = load_spec(spec_path)
        plan = plan_property(spec, spec.property(m[1]), VerificationConfig())
        fragment = tuple(int(i) for i in m[2].split("-"))
        problems.append((plan.spec, plan.prop, plan.t,
                         plan.rule_names(fragment), text))
        # a link's ends must exist only under a lower bound
        bounded = tuple(f"(assert (=> ln_s_{a.name}_" for a in
                        plan.spec.metamodel(plan.t.source).associations
                        if a.lower >= 1)
        assert all(line.startswith(bounded) for line in text.splitlines()
                   if line.startswith("(assert (=> ln_")), name
    # the ladder rungs, and every fixture property with every rule at
    # uniform bound 2
    rungs = [(load_spec("stress.dslt"), "ContainedClsHasDecl", k)
             for k in (2, 3, 4)] + \
        [(_mult_spec(), "ItemHasOut", k) for k in (4, 8, 12)] + \
        [(spec, prop.name, 2) for _, spec in fixture_specs()
         for prop in spec.properties]
    for spec, name, k in rungs:
        try:
            text = _uniform_problem(spec, name, k).text
        except EncodingCeilingError:  # an unbounded attribute domain
            continue
        problems.append((spec, spec.property(name), spec.transformations[0],
                         None, text))
    rows = 0
    for spec, prop, t, rule_names, text in problems:
        # a target link is declared by an apply link that writes it
        assert set(re.findall(r"\(declare-const (ln_t_\w+) Bool\)", text)) \
            <= set(re.findall(r"^\(assert \(=> .* (ln_t_\w+)\)\)$", text,
                              re.M)), prop.name
        for prefix, source, targets in _sliced_link_rows(spec, prop, t,
                                                         rule_names):
            assert prefix not in text, (prop.name, prefix)
            # a row that would have had links: slots at both of its ends
            if f"(declare-const {source} Bool)" in text and \
                    any(f"(declare-const {x} Bool)" in text for x in targets):
                rows += 1
    assert rows > 25


def _cnf_size(text, monkeypatch):
    """(CNF variables, CNF clauses) that ``text`` grounds to."""
    seen = []

    class Sized(Solver):
        def __init__(self, cnf):
            seen.append((cnf.nvars, len(cnf.clauses)))
            super().__init__(cnf)

    monkeypatch.setattr(smtsolver, "Solver", Sized)
    _solve(text)
    size, = seen
    return size


def test_at_most_counter_is_exact_on_small_rows(monkeypatch):
    for n in range(2, 6):
        row = [f"x{i}" for i in range(n)]
        decls = "".join(f"(declare-const {x} Bool)" for x in row)
        for k in range(n + 1):
            ones = " ".join(f"(ite {x} 1 0)" for x in row)
            card = f"(assert (<= (+ {ones}) {k}))"
            base = _cnf_size(decls + "(check-sat)", monkeypatch)
            vars_, clauses = _cnf_size(decls + card + "(check-sat)",
                                       monkeypatch)
            if k == 0:
                grown = (0, n)
            elif k < n:
                grown = ((n - 1) * k, 2 * n * k + n - 3 * k - 1)
            else:
                grown = (0, 0)
            assert (vars_ - base[0], clauses - base[1]) == grown, (n, k)
            for values in itertools.product((False, True), repeat=n):
                units = "".join(f"(assert {x})" if v
                                else f"(assert (not {x}))"
                                for x, v in zip(row, values))
                out = _solve(decls + card + units + "(check-sat)")
                assert out.split() == ["sat" if sum(values) <= k
                                       else "unsat"], (n, k, values)


def test_cardinality_prints_no_register():
    out = _solve("(declare-const a Bool) (declare-const b Bool)"
                 "(declare-const c Bool)"
                 "(assert (and a (<= (+ (ite a 1 0) (ite b 1 0) (ite c 1 0))"
                 " 1))) (check-sat) (get-model)")
    assert out.split("\n", 1)[0] == "sat"
    model = parse_sexprs(out)[1]
    assert [(d[1], d[4]) for d in model[1:]] == [
        ("a", "true"), ("b", "false"), ("c", "false")]


def test_default_output_is_the_current_stdout():
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        solve_text("(declare-const a Bool) (assert a) (assert (not a))"
                   " (check-sat)")
    assert buf.getvalue() == "unsat\n"


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
(declare-const b Bool)
(declare-const c Bool)
(define-fun d () Bool (and b c))
(assert (or a d))
(assert (=> a (= b (not c))))
(assert (<= (+ (ite a 1 0) (ite b 1 0) (ite c 1 0)) 2))
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
