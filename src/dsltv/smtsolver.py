"""Self-contained solver for the SMT-LIB 2 language this package emits.

It reads exactly that language and reports anything else as an error:

- tokens: ``(``, ``)`` and the maximal runs of other characters between
  them and space, tab, CR and LF; a ``|``, ``"`` or ``;`` anywhere (a
  quoted symbol, a string or a comment) is an error;
- commands ``set-logic``, ``set-option`` (both ignored), ``declare-const``
  of sort Bool or Int, ``define-fun`` of a zero-arity Bool name, each name
  declared or defined once and before its first use, ``assert``,
  ``check-sat``, ``get-model`` and ``exit``;
- Bool terms: declared and defined names, ``true``, ``false``, ``and``,
  ``or``, ``not``, binary ``=>`` and binary ``=`` over Bool terms;
- atoms ``=``, ``<=``, ``<``, ``>=`` and ``>`` whose two sides are each an
  Int name or an Int constant, written as a numeral (``3``) or as
  ``(- 3)``: SMT-LIB reads ``-3`` as a symbol;
- cardinality terms ``(<= (+ (ite x_0 1 0) ... (ite x_{n-1} 1 0)) k)``: at
  most k of the n >= 2 Bool terms x_i hold, k a numeral.  Such a term is
  asserted or is a conjunct of an asserted ``and``, in positive polarity
  only; ``+`` and ``ite`` occur nowhere else.

Every Int name needs a lower and an upper bound asserted as ``(<= c x)``
and ``(<= x c)``, bare or as conjuncts of an asserted ``and`` (the encoder
always asserts them).  Integers are grounded with a one-hot boolean
encoding, formulas are Tseitin-transformed to CNF, and a small CDCL search
(watched literals, first-UIP learning, VSIDS, restarts) decides
satisfiability.  A defined name's body is compiled at the first reference
and the literal reused.

Top-level connectives become clauses without gates (the top-level half of
Plaisted & Greenbaum's transform, 1986).  A top-level ``and`` is asserted
conjunct by conjunct.  A top-level ``or`` becomes one clause, into which
nested ``or`` operands and ``(not (and ...))`` operands splice their
operands; a top-level ``(not (and ...))`` is one clause too.  A top-level
``=>`` puts its negated antecedent into the clause of its consequent: an
``and`` antecedent adds its negated operands, an ``or`` consequent adds its
operands, and an ``and`` consequent gives one clause per conjunct.  The
negations of these shapes split or join the same way.  A defined name in
such a position is replaced by its body before its shape is tested, so
naming a term never changes the CNF.

A cardinality term with n > k >= 1 becomes Sinz's sequential counter
("Towards an Optimal CNF Encoding of Boolean Cardinality Constraints", CP
2005): (n-1)*k fresh registers s_{i,j} and 2nk + n - 3k - 1 clauses, where
the subset form takes one clause per (k+1)-subset.  The clauses say x_i =>
s_{i,0}, s_{i-1,j} => s_{i,j}, x_i & s_{i-1,j-1} => s_{i,j}, s_{0,j} false
for j >= 1, and x_i => not s_{i-1,k-1}.  The counter is equisatisfiable
with "at most k of the row": every assignment of the row with at most k
true terms extends to the registers (set s_{i,j} iff at least j+1 of
x_0..x_i hold), and in every model of the counter s_{i,j} holds whenever
j+1 of x_0..x_i do, so a (k+1)-th true term would falsify its last clause.
k = 0 gives one unit clause per term and n <= k none.  Each negated x_i
enters its clauses as it would in ``(or (not x_i) ...)``, so a defined name
splices its operands there.  The registers are not declared names, so no
model prints them.

Grounding compiles each distinct comparison atom once and reuses its
literal, and keeps the literals that a defined name splices into a clause,
per polarity; gates are shared by their sorted inputs, and binary clauses
are ordered without the set and sort of the general clause path.
None of the memos changes the CNF: a repeated atom or defined name would
only find its gates again.  Literal values and watch lists are lists indexed
directly by the signed literal, and VSIDS picks its decision variable from a
lazy binary heap that is rebuilt whenever it holds more than 2n entries; see
``Solver``.

This module imports only the standard library and nothing from its package,
so it also runs as a plain file: ``python path/to/smtsolver.py [file]``.

Usage: dsltv-solve [file]   (reads stdin when no file is given)
Prints "sat" plus a (model ...) block, or "unsat".
"""

import heapq
import sys


# ---------------------------------------------------------------------------
# S-expression reader
# ---------------------------------------------------------------------------

class SmtSyntaxError(ValueError):
    pass


_UNREAD = (("|", "quoted symbols"), ('"', "strings"), (";", "comments"))


def tokenize_sexprs(text):
    """The tokens of ``text``, as the module docstring defines them, equal
    ones as one shared string object.  The reader imports nothing: ``re``
    would pull enum, functools and collections into every solver child."""
    for char, what in _UNREAD:
        if char in text:
            raise SmtSyntaxError(f"{what} are not supported")
    intern = {}.setdefault
    return [intern(t, t) for t in text
            .replace("\t", " ").replace("\r", " ").replace("\n", " ")
            .replace("(", " ( ").replace(")", " ) ").split(" ") if t]


def parse_sexprs(text):
    out = []
    stack = []
    cur = out
    for tok in tokenize_sexprs(text):
        if tok == "(":
            stack.append(cur)
            lst = []
            cur.append(lst)
            cur = lst
        elif tok == ")":
            if not stack:
                raise SmtSyntaxError("unexpected ')'")
            cur = stack.pop()
        else:
            cur.append(tok)
    if stack:
        raise SmtSyntaxError("unbalanced parenthesis")
    return out


# ---------------------------------------------------------------------------
# CNF + CDCL
# ---------------------------------------------------------------------------

class Cnf:
    def __init__(self):
        self.nvars = 0
        self.clauses = []

    def new_var(self):
        self.nvars += 1
        return self.nvars

    def add(self, clause):
        """Append ``clause`` without repeated literals, ordered by variable;
        drop it if it is a tautology."""
        if len(clause) == 2:          # the common case, without set and sort
            a, b = clause
            if a != -b:
                self.clauses.append([a] if a == b else
                                    [a, b] if abs(a) < abs(b) else [b, a])
            return
        lits = set(clause)
        for lit in lits:
            if -lit in lits:
                return
        self.clauses.append(sorted(lits, key=abs))


class Solver:
    """CDCL over integer-labelled literals (v and -v).

    Per-literal tables (``lv`` values and ``watches``) are lists of length
    2n+1 indexed directly by the signed literal: Python's negative indexing
    puts -v at index 2n+1-v, past every positive literal, so no lookup needs
    abs().  ``watches[lit]`` holds the clauses that watch -lit, visited when
    lit becomes true.

    Decisions take the unassigned variable of highest activity, lowest index
    on ties, from a lazy binary heap of (-activity, var) entries.  Every
    unassigned variable has a live entry keyed on its current activity, and
    ``heap_act[var]`` is the key of var's newest live entry (-1 once popped).
    Popped entries of assigned variables or of an older activity are
    dropped.  Backtracking pushes an unassigned variable only when it has no
    live entry with its current activity, and the heap is rebuilt from the
    unassigned variables when activities are rescaled or when it holds more
    than 2n entries, which bounds its size.

    The solver takes over the clause lists of ``cnf`` and reorders their
    literals while it watches them.
    """

    def __init__(self, cnf):
        n = self.n = cnf.nvars
        self.lv = [0] * (2 * n + 1)        # literal -> 1 true, -1 false, 0
        self.level = [0] * (n + 1)
        self.reason = [None] * (n + 1)
        self.activity = [0.0] * (n + 1)
        self.phase = [False] * (n + 1)
        self.seen = [False] * (n + 1)      # scratch for analyze
        self.trail = []
        self.trail_lim = []
        self.watches = [[] for _ in range(2 * n + 1)]
        self.heap = [(0.0, v) for v in range(1, n + 1)]  # sorted: a heap
        self.heap_act = [0.0] * (n + 1)    # key of var's newest entry, or -1
        self.var_inc = 1.0
        self._qhead = 0
        self.ok = True
        for c in cnf.clauses:
            if not self.add_clause(c):
                self.ok = False
                break

    def add_clause(self, lits):
        if not lits:
            return False
        if len(lits) == 1:
            return self.enqueue(lits[0], None)
        self.watches[-lits[0]].append(lits)
        self.watches[-lits[1]].append(lits)
        return True

    def enqueue(self, lit, reason):
        lv = self.lv
        v = lv[lit]
        if v:
            return v == 1
        lv[lit] = 1
        lv[-lit] = -1
        var = lit if lit > 0 else -lit
        self.level[var] = len(self.trail_lim)
        self.reason[var] = reason
        self.trail.append(lit)
        return True

    def propagate(self):
        lv = self.lv
        trail = self.trail
        watches = self.watches
        enqueue = self.enqueue
        qhead = self._qhead
        while qhead < len(trail):
            lit = trail[qhead]
            qhead += 1
            false_lit = -lit
            ws = watches[lit]
            # compact ws in place: clauses that keep watching false_lit move
            # down to ws[:j]; none is added to ws while it is scanned
            j = moved = 0
            for clause in ws:
                # keep the falsified watch in position 1
                first = clause[0]
                if first == false_lit:
                    first = clause[0] = clause[1]
                    clause[1] = false_lit
                v = lv[first]
                if v == 1:
                    ws[j] = clause
                    j += 1
                    continue
                for k in range(2, len(clause)):
                    other = clause[k]
                    if lv[other] != -1:
                        clause[k] = clause[1]
                        clause[1] = other
                        watches[-other].append(clause)
                        moved += 1
                        break
                else:
                    ws[j] = clause
                    j += 1
                    if v:
                        # conflict: keep the clauses not yet visited
                        ws[j:] = ws[j + moved:]
                        self._qhead = qhead
                        return clause
                    enqueue(first, clause)
            del ws[j:]
        self._qhead = qhead
        return None

    def _rebuild_heap(self):
        lv, activity, heap_act = self.lv, self.activity, self.heap_act
        heap = self.heap = []
        for v in range(1, self.n + 1):
            if lv[v] == 0:
                heap.append((-activity[v], v))
                heap_act[v] = activity[v]
            else:
                heap_act[v] = -1.0
        heapq.heapify(heap)

    def analyze(self, conflict):
        seen = self.seen
        level = self.level
        reason = self.reason
        activity = self.activity
        trail = self.trail
        var_inc = self.var_inc
        learnt = [0]                 # learnt[0] becomes the negated UIP
        counter = 0
        p = None
        clause = conflict
        idx = len(trail) - 1
        cur_level = len(self.trail_lim)
        while True:
            for q in clause:
                if q == p:
                    continue
                var = q if q > 0 else -q
                if not seen[var] and level[var] > 0:
                    seen[var] = True
                    act = activity[var] = activity[var] + var_inc
                    if act > 1e100:
                        for v in range(1, self.n + 1):
                            activity[v] *= 1e-100
                        var_inc = self.var_inc = var_inc * 1e-100
                        self._rebuild_heap()
                    if level[var] == cur_level:
                        counter += 1
                    else:
                        learnt.append(q)
            while not seen[abs(trail[idx])]:
                idx -= 1
            p = trail[idx]
            var = abs(p)
            seen[var] = False
            counter -= 1
            idx -= 1
            if counter == 0:
                break
            clause = reason[var] or ()
        learnt[0] = -p
        bt = 0
        for q in learnt[1:]:
            var = abs(q)
            seen[var] = False
            if level[var] > bt:
                bt = level[var]
        return learnt, bt

    def backtrack(self, level):
        trail_lim = self.trail_lim
        if len(trail_lim) > level:
            trail = self.trail
            lim = trail_lim[level]
            lv, phase, reason = self.lv, self.phase, self.reason
            activity, heap, heap_act = self.activity, self.heap, self.heap_act
            push = heapq.heappush
            for k in range(len(trail) - 1, lim - 1, -1):
                lit = trail[k]
                var = lit if lit > 0 else -lit
                phase[var] = lit > 0
                lv[lit] = lv[-lit] = 0
                reason[var] = None
                act = activity[var]
                if heap_act[var] != act:
                    push(heap, (-act, var))
                    heap_act[var] = act
            del trail[lim:]
            del trail_lim[level:]
            if len(heap) > 2 * self.n:
                self._rebuild_heap()
        self._qhead = min(self._qhead, len(self.trail))

    def decide(self):
        heap, lv, heap_act = self.heap, self.lv, self.heap_act
        pop = heapq.heappop
        while heap:
            key, var = pop(heap)
            if -key == heap_act[var]:
                heap_act[var] = -1.0
                if lv[var] == 0:
                    return var
        return 0

    def solve(self):
        if not self.ok:
            return False
        self._qhead = 0
        conflicts_budget = 100
        total_restarts = 0
        level = self.level
        while True:
            conflict = self.propagate()
            if conflict is not None:
                if not self.trail_lim:
                    return False
                learnt, bt = self.analyze(conflict)
                self.backtrack(bt)
                if len(learnt) == 1:
                    if not self.enqueue(learnt[0], None):
                        return False
                else:
                    # put a literal of backtrack level in watch position 1
                    for i in range(1, len(learnt)):
                        if level[abs(learnt[i])] == bt:
                            learnt[1], learnt[i] = learnt[i], learnt[1]
                            break
                    self.watches[-learnt[0]].append(learnt)
                    self.watches[-learnt[1]].append(learnt)
                    self.enqueue(learnt[0], learnt)
                self.var_inc *= 1.05
                conflicts_budget -= 1
                if conflicts_budget <= 0:
                    total_restarts += 1
                    conflicts_budget = 100 * (total_restarts + 1)
                    self.backtrack(0)
                continue
            var = self.decide()
            if var == 0:
                return True
            self.trail_lim.append(len(self.trail))
            self.enqueue(var if self.phase[var] else -var, None)

    def model_value(self, var):
        return self.lv[var] == 1


# ---------------------------------------------------------------------------
# Boolean circuit with Tseitin transform
# ---------------------------------------------------------------------------

class Circuit:
    def __init__(self):
        self.cnf = Cnf()
        self.const_true = self.cnf.new_var()
        self.cnf.add([self.const_true])
        self.cache = {}

    def var(self):
        return self.cnf.new_var()

    def and_(self, lits):
        """Literal of the conjunction of ``lits``: one gate variable per
        distinct sorted tuple of its inputs, shared through ``cache``."""
        true = self.const_true
        if true in lits:
            lits = [l for l in lits if l != true]
        if -true in lits:
            return -true
        if len(lits) < 2:
            return lits[0] if lits else true
        key = tuple(sorted(lits))
        out = self.cache.get(key)
        if out is None:
            out = self.cache[key] = self.var()
            # out is newer than every input, so [l, -out] is already sorted
            self.cnf.clauses += [[l, -out] for l in lits]
            self.cnf.add([out] + [-l for l in lits])
        return out

    def or_(self, lits):
        return -self.and_([-l for l in lits])

    def iff(self, a, b):
        return self.and_([self.or_([-a, b]), self.or_([-b, a])])


# ---------------------------------------------------------------------------
# SMT front end: sorts, grounding, evaluation
# ---------------------------------------------------------------------------

class SmtError(ValueError):
    pass


class SmtScript:
    def __init__(self):
        self.sorts = {}        # name -> "Bool" | "Int"
        self.defs = {}         # defined name -> (body, index in defs)
        self.assertions = []
        self.visible = []      # per assertion: the definitions made before it
        self.last = None       # the last check-sat's answer
        self._model = None

    def run(self, forms, out=None):
        """Run the commands ``forms``; answers go to ``out``, by default
        the ``sys.stdout`` of the time of the call."""
        out = sys.stdout if out is None else out
        for form in forms:
            if not isinstance(form, list) or not form:
                raise SmtError(f"bad command: {form!r}")
            head = form[0]
            if head in ("set-logic", "set-option"):
                continue
            if head == "declare-const":
                if len(form) != 3 or form[1].__class__ is not str:
                    raise SmtError(f"malformed declare-const: {form!r}")
                if form[2] not in ("Bool", "Int"):
                    raise SmtError(f"unsupported sort {form[2]!r}")
                self._check_fresh(form[1])
                self.sorts[form[1]] = form[2]
            elif head == "define-fun":
                if len(form) != 5 or form[1].__class__ is not str:
                    raise SmtError(f"malformed define-fun: {form!r}")
                name = form[1]
                if form[2] != [] or form[3] != "Bool":
                    raise SmtError("only zero-arity Bool definitions "
                                   "supported")
                self._check_fresh(name)
                self.defs[name] = (form[4], len(self.defs))
            elif head == "assert":
                if len(form) != 2:
                    raise SmtError(f"assert takes one term: {form!r}")
                self.assertions.append(form[1])
                self.visible.append(len(self.defs))
            elif head == "check-sat":
                self.last = self.check(out)
            elif head == "get-model":
                self.print_model(out)
            elif head == "exit":
                break
            else:
                raise SmtError(f"unsupported command {head!r}")

    def _check_fresh(self, name):
        # SMT-LIB forbids a second declaration or definition of a name
        if name in self.sorts or name in self.defs:
            raise SmtError(f"{name!r} is already declared")

    # -- grounding ---------------------------------------------------------

    def derive_bounds(self):
        """Bound the Int variables by the assertions of the shapes
        ``(<= c x)`` and ``(<= x c)``, with c a constant, taken bare or as
        conjuncts of asserted conjunctions."""
        lo = {}
        hi = {}
        todo = list(self.assertions)
        while todo:
            e = todo.pop()
            if e.__class__ is not list or not e:
                continue
            if e[0] == "and":
                todo.extend(e[1:])
            elif e[0] == "<=" and len(e) == 3:
                a, b = e[1], e[2]
                if b.__class__ is str and self.sorts.get(b) == "Int":
                    v = _constant(a)
                    if v is not None:
                        lo[b] = max(lo[b], v) if b in lo else v
                if a.__class__ is str and self.sorts.get(a) == "Int":
                    v = _constant(b)
                    if v is not None:
                        hi[a] = min(hi[a], v) if a in hi else v
        return lo, hi

    def check(self, out):
        circuit = Circuit()
        bool_vars = {}
        for name, sort in self.sorts.items():
            if sort == "Bool":
                bool_vars[name] = circuit.var()

        lo, hi = self.derive_bounds()
        onehot = {}  # int var -> {value: sat literal}
        for name, sort in self.sorts.items():
            if sort != "Int":
                continue
            if name not in lo or name not in hi:
                raise SmtError(
                    f"cannot derive finite bounds for Int variable {name!r}")
            if lo[name] > hi[name]:
                # contradictory asserted bounds: trivially unsatisfiable
                self._model = None
                print("unsat", file=out)
                return "unsat"
            lits = {v: circuit.var() for v in range(lo[name], hi[name] + 1)}
            onehot[name] = lits
            vs = list(lits.values())
            circuit.cnf.add(vs)
            # vs ascends, so each pair is already ordered by variable
            circuit.cnf.clauses += [[-vs[i], -vs[j]]
                                    for i in range(len(vs))
                                    for j in range(i + 1, len(vs))]

        grounding = _Grounding(circuit, self.defs, bool_vars, onehot)
        for a, visible in zip(self.assertions, self.visible):
            grounding.visible = visible
            grounding.assert_term(a)

        solver = Solver(circuit.cnf)
        sat = solver.solve()
        self._model = None
        if sat:
            model = {}
            for name, lit in bool_vars.items():
                model[name] = solver.model_value(lit)
            for name, lits in onehot.items():   # exactly one literal holds
                model[name] = next(v for v, l in lits.items()
                                   if solver.model_value(l))
            self._model = model
            print("sat", file=out)
            return "sat"
        print("unsat", file=out)
        return "unsat"

    def print_model(self, out):
        if self._model is None:
            if self.last is None:  # no check-sat yet; after unsat, nothing
                print("(error \"no model available\")", file=out)
            return
        lines = ["(model"]
        for name in sorted(self._model):
            v = self._model[name]
            if isinstance(v, bool):
                sv, sort = ("true" if v else "false"), "Bool"
            else:
                sv = str(v) if v >= 0 else f"(- {-v})"
                sort = "Int"
            lines.append(f"  (define-fun {name} () {sort} {sv})")
        lines.append(")")
        print("\n".join(lines), file=out)


class _Grounding:
    """Compiles the asserted Bool terms of one check-sat into clauses and
    literals of ``circuit``.  Its recursion goes through methods rather than
    nested closures: a closure that calls itself is a reference cycle, which
    would keep the circuit and its CNF alive until the cyclic collector
    runs."""

    def __init__(self, circuit, defs, bool_vars, onehot):
        self.circuit = circuit
        self.defs = defs              # defined name -> (body, index)
        self.bool_vars = bool_vars
        self.onehot = onehot          # int var -> {value: sat literal}
        self.atoms = {}               # (op, operand, operand) -> literal
        self.defined = {}             # defined name -> literal
        self.spliced = ({}, {})       # per polarity: defined name -> literals
        self.visible = 0              # definitions the current term may use

    def assert_term(self, e, positive=True, clause=()):
        """Add clauses that make ``e`` (``(not e)`` when not ``positive``)
        or a literal of ``clause`` hold.

        A conjunction, and the negation of a disjunction or an implication,
        is asserted one operand at a time with the same ``clause``.  An
        implication adds its negated antecedent to ``clause`` and asserts
        its consequent with it, so an ``and`` consequent gives one clause
        per conjunct.  A cardinality term reached with an empty ``clause``
        in positive polarity becomes its counter.  Any other term ends the
        clause with the literals of ``clause_lits``."""
        term, visible = self.shape(e)
        head = term[0] if term.__class__ is list and term else None
        if head == "not" and len(term) == 2:
            flipped, kept = term[1:], ()
        elif head == ("and" if positive else "or"):
            flipped, kept = (), term[1:]
        elif head == "=>" and len(term) == 3:
            flipped, kept = term[1:2], term[2:]
        elif head == "<=" and positive and not clause and _is_at_most(term):
            outer, self.visible = self.visible, visible
            self.at_most([x[1] for x in term[1][1:]], int(term[2]))
            self.visible = outer
            return
        else:
            lits = list(clause)
            self.clause_lits(e, positive, lits)
            self.circuit.cnf.add(lits)
            return
        outer, self.visible = self.visible, visible
        if head == "=>" and positive:
            # the negated antecedent joins the clause of the consequent
            clause = list(clause)
            for x in flipped:
                self.clause_lits(x, False, clause)
            flipped = ()
        for x in flipped:
            self.assert_term(x, not positive, clause)
        for x in kept:
            self.assert_term(x, positive, clause)
        self.visible = outer

    def at_most(self, terms, k):
        """Clauses saying that at most ``k`` of the Bool ``terms`` hold:
        the sequential counter of the module docstring."""
        n = len(terms)
        if n <= k:
            return
        negated = []
        for x in terms:
            lits = []
            self.clause_lits(x, False, lits)
            negated.append(lits)
        add = self.circuit.cnf.add
        if k == 0:
            for lits in negated:
                add(lits)
            return
        new = self.circuit.var
        s = [[new() for _ in range(k)] for _ in range(n - 1)]
        add(negated[0] + [s[0][0]])
        for j in range(1, k):
            add([-s[0][j]])
        for i in range(1, n - 1):
            add(negated[i] + [s[i][0]])
            add([-s[i - 1][0], s[i][0]])
            for j in range(1, k):
                add(negated[i] + [-s[i - 1][j - 1], s[i][j]])
                add([-s[i - 1][j], s[i][j]])
            add(negated[i] + [-s[i - 1][k - 1]])
        add(negated[n - 1] + [-s[n - 2][k - 1]])

    def clause_lits(self, e, positive, lits):
        """Append to ``lits`` literals whose disjunction is ``e`` (``(not
        e)`` when not ``positive``).  The operands of a disjunction or an
        implication, and the negated operands of a conjunction, are taken
        one by one; any other term is compiled to one literal.

        The literals a defined name splices are kept in ``spliced``, one
        table per polarity, and a later use of the name appends them
        without walking its body again.  The walk would only find the same
        atoms and gates, so the memo leaves the CNF as it was."""
        memo = None
        if e.__class__ is str:
            lit = self.bool_vars.get(e)
            if lit is not None:          # the common case, taken first
                lits.append(lit if positive else -lit)
                return
            term, visible = self.shape(e)
            if term is not e:            # a defined name, visible here
                memo = self.spliced[positive]
                done = memo.get(e)
                if done is not None:
                    lits += done
                    return
                start = len(lits)
        else:
            term, visible = e, self.visible
        head = term[0] if term.__class__ is list and term else None
        if head == "not" and len(term) == 2:
            flipped, kept = term[1:], ()
        elif head == ("or" if positive else "and"):
            flipped, kept = (), term[1:]
        elif positive and head == "=>" and len(term) == 3:
            flipped, kept = term[1:2], term[2:]
        else:
            lit = self.compile_bool(e)
            lits.append(lit if positive else -lit)
            return
        outer, self.visible = self.visible, visible
        for x in flipped:
            self.clause_lits(x, not positive, lits)
        for x in kept:
            self.clause_lits(x, positive, lits)
        self.visible = outer
        if memo is not None:
            memo[e] = lits[start:]

    def shape(self, e):
        """``e`` with a defined name replaced by its body, repeatedly, and
        the definitions the result may use.  ``assert_term`` and
        ``clause_lits`` test this shape, so that a name splices into a
        clause exactly as its body written in its place would."""
        visible = self.visible
        while e.__class__ is str:
            entry = self.defs.get(e)
            if entry is None:
                break
            if entry[1] >= visible:
                raise SmtError(f"{e!r} is used before its definition")
            e, visible = entry
        return e, visible

    def defined_lit(self, name):
        """Literal of a defined name.  Its body is compiled at the first
        reference and the literal kept in ``defined``: compiling the body
        again in place of a later reference would only find every gate in
        ``circuit.cache``, so the names leave the CNF as inlined bodies
        would give it."""
        entry = self.defs.get(name)
        if entry is None:
            raise SmtError(f"unknown Bool term {name!r}")
        body, index = entry
        if index >= self.visible:
            raise SmtError(f"{name!r} is used before its definition")
        lit = self.defined.get(name)
        if lit is None:
            outer, self.visible = self.visible, index
            lit = self.defined[name] = self.compile_bool(body)
            self.visible = outer
        return lit

    def operand(self, e):
        """An Int operand: a declared Int name as it is, or the value of a
        constant."""
        if e.__class__ is str and e in self.onehot:
            return e
        value = _constant(e)
        if value is None:
            raise SmtError(f"not an Int name or constant: {e!r}")
        return value

    def atom_lit(self, op, left, right):
        """Comparison atom between two Int operands, compiled by enumerating
        the domains of its variables.

        Each atom is compiled once and its literal kept in ``atoms``, keyed
        by its operands, so ``(- 2)`` is keyed by its value.  Compiling it
        again would only find every gate in ``circuit.cache``, so the memo
        leaves the CNF as it was."""
        key = (op, self.operand(left), self.operand(right))
        lit = self.atoms.get(key)
        if lit is None:
            lit = self.atoms[key] = self._compile_atom(*key)
        return lit

    def _compile_atom(self, op, a, b):
        test = _COMPARE[op]
        if a == b:                  # x op x holds for every value of x
            a = b = 0
        circuit, onehot = self.circuit, self.onehot
        if a.__class__ is str:
            if b.__class__ is str:
                good = [circuit.and_([la, lb])
                        for va, la in onehot[a].items()
                        for vb, lb in onehot[b].items() if test(va, vb)]
            else:
                good = [l for v, l in onehot[a].items() if test(v, b)]
        elif b.__class__ is str:
            good = [l for v, l in onehot[b].items() if test(a, v)]
        else:
            return circuit.const_true if test(a, b) else -circuit.const_true
        return circuit.or_(good)

    def compile_bool(self, e):
        circuit = self.circuit
        if e.__class__ is str:
            if e == "true":
                return circuit.const_true
            if e == "false":
                return -circuit.const_true
            lit = self.bool_vars.get(e)
            return self.defined_lit(e) if lit is None else lit
        if not e:
            raise SmtError("empty term ()")
        compile_bool = self.compile_bool
        head = e[0]
        if head == "and":
            return circuit.and_([compile_bool(x) for x in e[1:]])
        if head == "or":
            return -circuit.and_([-compile_bool(x) for x in e[1:]])
        if head == "not":
            if len(e) != 2:
                raise _arity_error(e, "1 operand")
            return -compile_bool(e[1])
        if head in ("=", "<=", "<", ">=", ">"):
            if len(e) != 3:
                raise _arity_error(e, "2 operands")
            if head == "=" and not self.is_int_term(e[1]):
                return circuit.iff(compile_bool(e[1]), compile_bool(e[2]))
            return self.atom_lit(head, e[1], e[2])
        if head == "=>":
            if len(e) != 3:
                raise _arity_error(e, "2 operands")
            return circuit.or_([-compile_bool(e[1]), compile_bool(e[2])])
        raise SmtError(f"unsupported operator {head!r}")

    def is_int_term(self, e):
        """Whether ``e`` is an Int name or constant; an ``=`` over such an
        operand is an atom, any other is an iff of Bool terms."""
        if e.__class__ is str:
            return e in self.onehot or _constant(e) is not None
        return e[:1] == ["-"]


_COMPARE = {"=": int.__eq__, "<=": int.__le__, "<": int.__lt__,
            ">=": int.__ge__, ">": int.__gt__}


def _constant(e):
    """The value of an Int constant, a numeral such as "3" or a negation
    such as ``(- 3)``, else None."""
    if e.__class__ is list and len(e) == 2 and e[0] == "-":
        e, sign = e[1], -1
    else:
        sign = 1
    if e.__class__ is str and e.isascii() and e.isdigit():
        return sign * int(e)
    return None


def _is_at_most(e):
    """Whether the ``<=`` term ``e`` is a cardinality term ``(<= (+ (ite x
    1 0) ...) k)`` with a numeral k."""
    if len(e) != 3 or e[1].__class__ is not list or e[1][:1] != ["+"] \
            or len(e[1]) < 3:
        return False
    k = e[2]
    return k.__class__ is str and k.isascii() and k.isdigit() and all(
        x.__class__ is list and len(x) == 4 and x[0] == "ite"
        and x[2] == "1" and x[3] == "0" for x in e[1][1:])


def _arity_error(e, expected):
    return SmtError(f"{e[0]} takes {expected}: {e!r}")


def solve_text(text, out=None):
    script = SmtScript()
    script.run(parse_sexprs(text), out=out)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if argv:
        with open(argv[0], "r", encoding="utf-8") as fh:
            text = fh.read()
    else:
        text = sys.stdin.buffer.read().decode("utf-8")
    try:
        solve_text(text)
    except (SmtError, SmtSyntaxError) as e:
        print(f"(error \"{e}\")")
        return 1
    except RecursionError:
        print("(error \"term nested too deeply\")")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
