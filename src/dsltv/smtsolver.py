"""Self-contained solver for the SMT-LIB 2 subset this package emits.

Supports QF_LIA restricted to finite-domain integer constants: every Int
variable must have derivable lower and upper bounds from the asserted
constraints (the encoder always asserts them).  Integers are grounded with a
one-hot boolean encoding, formulas are Tseitin-transformed to CNF, and a
small CDCL search (watched literals, first-UIP learning, VSIDS, restarts)
decides satisfiability.  Zero-arity Bool ``define-fun`` names a term; its
body is compiled at the first reference and the literal reused.  A top-level
``and`` is asserted conjunct by conjunct, and a top-level ``or`` or ``=>``
becomes one clause over its operands' literals, without a gate (the
top-level half of Plaisted & Greenbaum's transform, 1986).  Grounding
compiles each distinct comparison atom over two tokens once and reuses its
literal; gates are shared by their sorted inputs, and binary clauses are
ordered without the set and sort of the general clause path.  None of the
memos changes the CNF: a repeated atom or defined name would only find its
gates again.  Literal values and watch lists are lists indexed
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


def tokenize_sexprs(text):
    """Split SMT-LIB text into tokens: "(", ")", symbols and numerals, quoted
    symbols without their bars, and strings with their quotes and "" undone.
    Equal tokens are one shared string object.

    Only space, tab, CR and LF separate tokens.  A symbol runs up to
    whitespace, a parenthesis or ";", so a bar or quote inside it (``a|b``)
    belongs to it; elsewhere "|" opens a quoted symbol, '"' a string and ";"
    a comment up to the next LF.  The plain stretches between those three
    are split with str methods, and only quoted symbols, strings and comments
    are scanned here.  The reader imports nothing: ``re`` would pull enum,
    functools and collections into every solver child.
    """
    toks = []
    intern = {}.setdefault
    find = text.find
    n = len(text)
    start = pos = 0       # text[start:pos] is plain and pos is not in a token
    bar = quote = semi = -1
    while True:
        # the next "|", '"' and ";" at or after pos, n when there is none
        if bar < pos:
            bar = find("|", pos) % (n + 1)
        if quote < pos:
            quote = find('"', pos) % (n + 1)
        if semi < pos:
            semi = find(";", pos) % (n + 1)
        k = min(bar, quote, semi)
        if k < n and k > start and semi != k and \
                text[k - 1] not in " \t\r\n()":
            pos = k + 1                 # a bar or quote inside a symbol
            continue
        toks += [intern(t, t) for t in text[start:k]
                 .replace("\t", " ").replace("\r", " ").replace("\n", " ")
                 .replace("(", " ( ").replace(")", " ) ").split(" ") if t]
        if k == n:
            return toks
        if k == semi:
            end = find("\n", k) % (n + 1)
        elif k == bar:
            end = find("|", k + 1) + 1
            if not end:
                raise SmtSyntaxError("unterminated quoted symbol")
            tok = text[k + 1:end - 1]
            toks.append(intern(tok, tok))
        else:
            end = k                     # skip "" pairs up to a lone quote
            while True:
                end = find('"', end + 1) + 1
                if not end:
                    raise SmtSyntaxError("unterminated string")
                if text[end:end + 1] != '"':
                    break
            tok = '"' + text[k + 1:end - 1].replace('""', '"') + '"'
            toks.append(intern(tok, tok))
        start = pos = end


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

    def ite(self, c, t, e):
        return self.and_([self.or_([-c, t]), self.or_([c, e])])

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
        # one [assertion count, declaration count, definition count, levels]
        # per (push n): the n levels it opens all start from those counts
        self.stack = []
        self._model = None

    def run(self, forms, out=sys.stdout):
        for form in forms:
            if not isinstance(form, list) or not form:
                raise SmtError(f"bad command: {form!r}")
            head = form[0]
            if head in ("set-logic", "set-info", "set-option"):
                continue
            if head in ("declare-const", "declare-fun"):
                arity = 3 if head == "declare-const" else 4
                if len(form) != arity or form[1].__class__ is not str:
                    raise SmtError(f"malformed {head}: {form!r}")
                name = form[1]
                sort = form[-1]
                if head == "declare-fun" and form[2] != []:
                    raise SmtError("only zero-arity functions supported")
                if sort not in ("Bool", "Int"):
                    raise SmtError(f"unsupported sort {sort!r}")
                self._check_fresh(name)
                self.sorts[name] = sort
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
            elif head == "push":
                n = _levels(form)
                if n:
                    self.stack.append([len(self.assertions), len(self.sorts),
                                       len(self.defs), n])
            elif head == "pop":
                n = _levels(form)
                depth = sum(top[3] for top in self.stack)
                if n > depth:
                    raise SmtError(f"cannot pop {n} of {depth} levels")
                while n:
                    top = self.stack[-1]
                    k = min(n, top[3])
                    n -= k
                    top[3] -= k
                    del self.assertions[top[0]:]
                    del self.visible[top[0]:]
                    for name in list(self.sorts)[top[1]:]:
                        del self.sorts[name]
                    for name in list(self.defs)[top[2]:]:
                        del self.defs[name]
                    if not top[3]:
                        self.stack.pop()
            elif head == "check-sat":
                self.last = self.check(out)
            elif head == "get-model":
                self.print_model(out)
            elif head == "exit":
                break
            else:
                raise SmtError(f"unsupported command {head!r}")

    def _check_fresh(self, name):
        # SMT-LIB forbids a second declaration or definition of a name, and
        # pop could not restore the shadowed one
        if name in self.sorts or name in self.defs:
            raise SmtError(f"{name!r} is already declared")

    # -- grounding ---------------------------------------------------------

    def derive_bounds(self):
        """Scan assertions, and the conjuncts of asserted conjunctions, for
        (<= c x) / (<= x c) / (= x c) shapes to bound every Int variable."""
        lo = {}
        hi = {}

        def note_lo(name, v):
            lo[name] = max(lo.get(name, v), v) if name in lo else v

        def note_hi(name, v):
            hi[name] = min(hi.get(name, v), v) if name in hi else v

        todo = list(self.assertions)
        while todo:
            e = todo.pop()
            if not isinstance(e, list) or not e:
                continue
            head = e[0]
            if head == "and":
                todo.extend(e[1:])
            elif head in ("<=", "<", ">=", ">", "=") and len(e) == 3:
                a, b = e[1], e[2]
                va, vb = _numeral(a), _numeral(b)
                if va is not None and isinstance(b, str) and b in self.sorts:
                    v = va
                    if head in ("<=",):
                        note_lo(b, v)
                    elif head == "<":
                        note_lo(b, v + 1)
                    elif head == ">=":
                        note_hi(b, v)
                    elif head == ">":
                        note_hi(b, v - 1)
                    elif head == "=":
                        note_lo(b, v)
                        note_hi(b, v)
                elif vb is not None and isinstance(a, str) and a in self.sorts:
                    v = vb
                    if head == "<=":
                        note_hi(a, v)
                    elif head == "<":
                        note_hi(a, v - 1)
                    elif head == ">=":
                        note_lo(a, v)
                    elif head == ">":
                        note_lo(a, v + 1)
                    elif head == "=":
                        note_lo(a, v)
                        note_hi(a, v)
        return lo, hi

    def check(self, out):
        circuit = Circuit()
        bool_vars = {}
        for name, sort in self.sorts.items():
            if sort == "Bool":
                bool_vars[name] = circuit.var()

        lo, hi = self.derive_bounds()
        onehot = {}  # int var -> {value: sat literal}
        self.domains = {}
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
            values = range(lo[name], hi[name] + 1)
            self.domains[name] = list(values)
            lits = {v: circuit.var() for v in values}
            onehot[name] = lits
            vs = list(lits.values())
            circuit.cnf.add(vs)
            # vs ascends, so each pair is already ordered by variable
            circuit.cnf.clauses += [[-vs[i], -vs[j]]
                                    for i in range(len(vs))
                                    for j in range(i + 1, len(vs))]

        grounding = _Grounding(circuit, self.sorts, self.defs, bool_vars,
                               onehot, self.domains)
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
            for name, lits in onehot.items():
                val = next((v for v, l in lits.items()
                            if solver.model_value(l)), None)
                model[name] = self.domains[name][0] if val is None else val
            self._model = model
            print("sat", file=out)
            return "sat"
        print("unsat", file=out)
        return "unsat"

    def print_model(self, out):
        if self._model is None:
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
            sym = f"|{name}|" if any(c in name for c in "()# ") else name
            lines.append(f"  (define-fun {sym} () {sort} {sv})")
        lines.append(")")
        print("\n".join(lines), file=out)


class _Grounding:
    """Compiles the asserted Bool terms of one check-sat into clauses and
    literals of ``circuit``.  Its recursion goes through methods rather than
    nested closures: a closure that calls itself is a reference cycle, which
    would keep the circuit and its CNF alive until the cyclic collector
    runs."""

    def __init__(self, circuit, sorts, defs, bool_vars, onehot, domains):
        self.circuit = circuit
        self.sorts = sorts
        self.defs = defs              # defined name -> (body, index)
        self.bool_vars = bool_vars
        self.onehot = onehot          # int var -> {value: sat literal}
        self.domains = domains        # int var -> list of values
        self.atoms = {}               # (op, token, token) -> literal
        self.defined = {}             # defined name -> literal
        self.visible = 0              # definitions the current term may use

    def assert_term(self, e):
        """Add clauses that make ``e`` hold.  A conjunction is asserted one
        conjunct at a time, and a disjunction or an implication becomes one
        clause over the literals of its operands; any other term is
        compiled to a literal and asserted as a unit clause."""
        head = e[0] if e.__class__ is list and e else None
        if head == "and":
            for x in e[1:]:
                self.assert_term(x)
        elif head == "or":
            self.circuit.cnf.add([self.compile_bool(x) for x in e[1:]])
        elif head == "=>":
            if len(e) < 3:
                raise _arity_error(e, "at least 2 operands")
            lits = [-self.compile_bool(x) for x in e[1:-1]]
            lits.append(self.compile_bool(e[-1]))
            self.circuit.cnf.add(lits)
        else:
            self.circuit.cnf.add([self.compile_bool(e)])

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

    def int_operands(self, e):
        """Collect (variable names, constant offset factor) for a linear
        term; supports var, constant, +, -, * by constant."""
        if isinstance(e, str):
            value = _numeral(e)
            if value is not None:
                return [], value
            if self.sorts.get(e) == "Int":
                return [(e, 1)], 0
            raise SmtError(f"not an Int term: {e!r}")
        if not e:
            raise SmtError("empty Int term ()")
        head = e[0]
        if head == "+":
            vs, c = [], 0
            for sub in e[1:]:
                v2, c2 = self.int_operands(sub)
                vs += v2
                c += c2
            return vs, c
        if head == "-":
            if len(e) < 2:
                raise _arity_error(e, "at least 1 operand")
            if len(e) == 2:
                vs, c = self.int_operands(e[1])
                return [(n, -k) for n, k in vs], -c
            vs, c = self.int_operands(e[1])
            for sub in e[2:]:
                v2, c2 = self.int_operands(sub)
                vs += [(n, -k) for n, k in v2]
                c -= c2
            return vs, c
        if head == "*" and len(e) == 3:
            for a, b in ((e[1], e[2]), (e[2], e[1])):
                k = _numeral(a)
                if k is not None:
                    vs, c = self.int_operands(b)
                    return [(n, f * k) for n, f in vs], c * k
        if head == "ite":
            raise SmtError("ite over Int not supported")
        raise SmtError(f"unsupported Int term {e!r}")

    def atom_lit(self, op, left, right):
        """Comparison atom over linear Int terms, compiled by enumerating
        the involved variables' finite domains.

        An atom over two tokens is compiled once and its literal kept in
        ``atoms``.  Compiling it again would only find every gate in
        ``circuit.cache``, so the memo leaves the CNF as it was."""
        if left.__class__ is str and right.__class__ is str:
            key = (op, left, right)
            lit = self.atoms.get(key)
            if lit is None:
                lit = self.atoms[key] = self._compile_atom(op, left, right)
            return lit
        return self._compile_atom(op, left, right)

    def _compile_atom(self, op, left, right):
        lvs, lc = self.int_operands(left)
        rvs, rc = self.int_operands(right)
        terms = {}
        for n, k in lvs:
            terms[n] = terms.get(n, 0) + k
        for n, k in rvs:
            terms[n] = terms.get(n, 0) - k
        const = lc - rc  # atom: sum(terms) + const OP 0
        names = [n for n, k in terms.items() if k != 0]
        if len(names) > 3:
            raise SmtError("atom involves too many Int variables")

        def test(total):
            if op == "=":
                return total == 0
            if op == "<=":
                return total <= 0
            if op == "<":
                return total < 0
            if op == ">=":
                return total >= 0
            if op == ">":
                return total > 0
            raise SmtError(f"unknown comparison {op!r}")

        combos = [[]]
        for n in names:
            combos = [c + [(n, v)] for c in combos for v in self.domains[n]]
        circuit, onehot = self.circuit, self.onehot
        good = []
        for combo in combos:
            total = const + sum(terms[n] * v for n, v in combo)
            if test(total):
                good.append(circuit.and_([onehot[n][v] for n, v in combo]))
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
        if head == "=" or head == "distinct":
            if len(e) < 3:
                raise _arity_error(e, "at least 2 operands")
            if len(e) == 3 and e[1].__class__ is str and \
                    e[2].__class__ is str:
                # an Int atom seen before needs no sort test
                eq = self.atoms.get(("=", e[1], e[2]))
                if eq is not None:
                    return eq if head == "=" else -eq
            args = e[1:]
            if self.is_bool_term(args[0]):
                lits = [compile_bool(x) for x in args]
                pairs = []
                for i in range(len(lits) - 1):
                    for j in range(i + 1, len(lits)):
                        eq = circuit.iff(lits[i], lits[j])
                        pairs.append(eq if head == "=" else -eq)
                return circuit.and_(pairs)
            if len(args) == 2:            # and_ of one literal is itself
                eq = self.atom_lit("=", args[0], args[1])
                return eq if head == "=" else -eq
            pairs = []
            for i in range(len(args) - 1):
                for j in range(i + 1, len(args)):
                    eq = self.atom_lit("=", args[i], args[j])
                    pairs.append(eq if head == "=" else -eq)
            return circuit.and_(pairs)
        if head == "not":
            if len(e) != 2:
                raise _arity_error(e, "1 operand")
            return -compile_bool(e[1])
        if head == "or":
            return -circuit.and_([-compile_bool(x) for x in e[1:]])
        if head == "=>":
            if len(e) < 3:
                raise _arity_error(e, "at least 2 operands")
            lits = [compile_bool(x) for x in e[1:]]
            out2 = lits[-1]
            for l in reversed(lits[:-1]):
                out2 = circuit.or_([-l, out2])
            return out2
        if head == "xor":
            if len(e) < 3:
                raise _arity_error(e, "at least 2 operands")
            out2 = compile_bool(e[1])
            for x in e[2:]:
                out2 = -circuit.iff(out2, compile_bool(x))
            return out2
        if head == "ite":
            if len(e) != 4:
                raise _arity_error(e, "3 operands")
            return circuit.ite(compile_bool(e[1]), compile_bool(e[2]),
                               compile_bool(e[3]))
        if head in ("<=", "<", ">=", ">"):
            if len(e) != 3:
                raise _arity_error(e, "2 operands")
            return self.atom_lit(head, e[1], e[2])
        raise SmtError(f"unsupported operator {head!r}")

    def is_bool_term(self, e):
        if e in ("true", "false"):
            return True
        if isinstance(e, str):
            return self.sorts.get(e) == "Bool" or e in self.defs
        return bool(e) and e[0] in ("and", "or", "not", "=>", "xor", "ite",
                                    "=", "distinct", "<=", "<", ">=", ">")


def _levels(form):
    """The level count n of (push n) or (pop n); 1 when n is left out."""
    if len(form) == 1:
        return 1
    n = _numeral(form[1]) if len(form) == 2 else None
    if n is not None and n >= 0:
        return n
    raise SmtError(f"{form[0]} takes one numeral: {form!r}")


def _numeral(tok):
    """The value of an integer token such as "3" or "-3", else None."""
    if tok.__class__ is not str:
        return None
    digits = tok[1:] if tok[:1] == "-" else tok
    return int(tok) if digits.isascii() and digits.isdigit() else None


def _arity_error(e, expected):
    return SmtError(f"{e[0]} takes {expected}: {e!r}")


def solve_text(text, out=sys.stdout):
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
