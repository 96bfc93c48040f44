import gc
import io
import random
import types
import weakref

from conftest import load_spec

from dsltv import smtsolver
from dsltv.cutoff import PerClassBounds
from dsltv.inheritance import flatten_inheritance_info
from dsltv.smtencode import encode
from dsltv.smtrun import run_solver
from dsltv.smtsolver import Cnf, Solver, parse_sexprs
from dsltv.smtsolver import main as solver_main
from dsltv.smtsolver import solve_text


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


def test_vsids_heap_stays_bounded(monkeypatch):
    spec = load_spec("stress.dslt")
    prop = spec.property("ContainedClsHasDecl")
    t = spec.transformations[0]
    src = flatten_inheritance_info(spec.metamodel(t.source))
    tgt = flatten_inheritance_info(spec.metamodel(t.target))
    bounds = PerClassBounds(
        source={c: 4 for c in src if not src[c].abstract},
        target={c: 4 for c in tgt if not tgt[c].abstract})
    problem = encode(spec, prop, bounds, transformation=t)

    solvers = []

    class Recording(Solver):
        def __init__(self, cnf):
            super().__init__(cnf)
            self.conflicts = 0
            self.max_heap = len(self.heap)
            solvers.append(self)

        def analyze(self, conflict):
            self.conflicts += 1
            return super().analyze(conflict)

        def backtrack(self, level):
            super().backtrack(level)
            self.max_heap = max(self.max_heap, len(self.heap))

    monkeypatch.setattr(smtsolver, "Solver", Recording)
    smtsolver.SmtScript().run(parse_sexprs(problem.text), out=io.StringIO())
    solver, = solvers
    # enough search for stale heap entries to pile up without the rebuild
    assert solver.conflicts > 300
    assert solver.max_heap <= 2 * solver.n


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
