"""Tracing for the traced benchmark run, done entirely from outside dsltv.

The tracer wraps public functions of the pipeline modules where their
callers look them up: ``orchestrator`` imports most of them with
``from ... import``, so those names are patched in the orchestrator's
namespace, while the benchmark's own calls and ``smtrun``'s internal calls
go through the defining module.  Each wrapped call records a span (name,
start, end, parent span, request id) in memory; the spans are written out
when the run ends.  A function that no longer exists is reported as not
observed instead of failing the run.

The solver normally runs in a child process, out of reach of the wrappers.
Every problem text given to ``smtrun.run_solver`` is therefore kept and,
after the timed loop, solved again in-process with
``smtsolver.parse_sexprs`` and ``smtsolver.SmtScript``: once with only
timers installed, to split the solve into s-expression parsing, grounding
and CDCL, and once with counters on ``Solver.analyze``/``decide``/
``enqueue``.  If the solver already runs in-process, the same wrappers see
the real solve during the loop and the re-solve is skipped.
"""

from __future__ import annotations

import collections
import hashlib
import importlib
import io
import json
import threading
import time

from dsltv import smtsolver

# (span name, module, attribute) for every wrapped module-level function.
# The span name is the function's home module and name.
FUNCTIONS = [
    ("fragments.check_flnr", "dsltv.orchestrator", "check_flnr"),
    ("fragments.check_gbpp", "dsltv.orchestrator", "check_gbpp"),
    ("abstraction.synthesize_abstraction", "dsltv.orchestrator",
     "synthesize_abstraction"),
    ("abstraction.validate_abstraction", "dsltv.orchestrator",
     "validate_abstraction"),
    ("abstraction.flatten_property", "dsltv.orchestrator",
     "flatten_property"),
    ("cutoff.relevant_rules", "dsltv.orchestrator", "relevant_rules"),
    ("cutoff.cutoff_params", "dsltv.orchestrator", "cutoff_params"),
    ("cutoff.compute_cutoff", "dsltv.orchestrator", "compute_cutoff"),
    ("cutoff.per_class_bounds", "dsltv.orchestrator", "per_class_bounds"),
    ("cutoff.select_fragment", "dsltv.orchestrator", "select_fragment"),
    ("model.mandatory_closure", "dsltv.orchestrator", "mandatory_closure"),
    ("smtencode.encode", "dsltv.orchestrator", "encode"),
    ("smtencode.encode", "dsltv.smtencode", "encode"),
    ("smtencode.decode_counterexample", "dsltv.orchestrator",
     "decode_counterexample"),
    ("smtencode.decode_counterexample", "dsltv.smtencode",
     "decode_counterexample"),
    ("smtrun.lazy_closure_loop", "dsltv.orchestrator", "lazy_closure_loop"),
    ("smtrun.lazy_closure_loop", "dsltv.smtrun", "lazy_closure_loop"),
    ("smtrun.run_solver", "dsltv.smtrun", "run_solver"),
    ("engine.execute", "dsltv.orchestrator", "execute"),
    ("engine.check_property_concrete", "dsltv.orchestrator",
     "check_property_concrete"),
    ("orchestrator.verify_property", "dsltv.orchestrator", "verify_property"),
]

# Span names summed into each per-layer time.
LAYER_TIMES = {
    "fragments.check_s": ("fragments.check_flnr", "fragments.check_gbpp"),
    "abstraction.s": ("abstraction.synthesize_abstraction",
                      "abstraction.validate_abstraction",
                      "abstraction.flatten_property"),
    "cutoff.plan_s": ("cutoff.relevant_rules", "cutoff.cutoff_params",
                      "cutoff.compute_cutoff", "cutoff.per_class_bounds",
                      "cutoff.select_fragment", "model.mandatory_closure"),
    "smtencode.encode_s": ("smtencode.encode",),
    "smtencode.decode_s": ("smtencode.decode_counterexample",),
    "smtrun.solver_wall_s": ("smtrun.run_solver",),
    "engine.confirm_s": ("engine.execute", "engine.check_property_concrete"),
}

SOLVER_COUNTS = ("conflicts", "decisions", "propagations")
SOLVER_STATS = ("sexpr_s", "ground_s", "cdcl_s", "cnf_vars", "cnf_clauses") \
    + SOLVER_COUNTS


def text_key(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def problem_counts(text):
    """Size of one SMT-LIB problem text."""
    lines = text.splitlines()
    return {
        "smt_bytes": len(text.encode("utf-8")),
        "assertions": sum(1 for ln in lines if ln.startswith("(assert")),
        "decls": sum(1 for ln in lines if ln.startswith("(declare-")),
    }


class _Patches:
    """Attribute replacements that can all be undone."""

    def __init__(self):
        self.saved = []

    def set(self, owner, attr, value):
        self.saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def undo(self):
        while self.saved:
            owner, attr, value = self.saved.pop()
            setattr(owner, attr, value)


class SolverProbe:
    """Timers and counters on the bundled solver's classes.

    ``stats`` collects, for whatever solve runs while installed, the time in
    s-expression parsing, in ``SmtScript.run`` outside ``Solver.solve``
    (grounding), and in ``Solver.solve`` (CDCL), plus CNF size and, when
    counting, conflicts, decisions and propagations.
    """

    def __init__(self):
        self.stats = collections.Counter()
        self.solves = 0
        self.missing = set()
        self.patches = _Patches()

    def _patch(self, owner, attr, make, label):
        fn = getattr(owner, attr, None)
        if fn is None:
            self.missing.add("dsltv.smtsolver." + label)
            return
        self.patches.set(owner, attr, make(fn))

    def install(self, counting):
        probe = self
        stats = self.stats

        def timed(key):
            def make(fn):
                def wrapped(*args, **kwargs):
                    t0 = time.perf_counter()
                    try:
                        return fn(*args, **kwargs)
                    finally:
                        stats[key] += time.perf_counter() - t0
                return wrapped
            return make

        def run_minus_cdcl(run):
            def wrapped(self, *args, **kwargs):
                t0 = time.perf_counter()
                before = stats["cdcl_s"]
                try:
                    return run(self, *args, **kwargs)
                finally:
                    spent = time.perf_counter() - t0
                    stats["ground_s"] += spent - (stats["cdcl_s"] - before)
            return wrapped

        def sized(init):
            def wrapped(self, cnf, *args, **kwargs):
                stats["cnf_vars"] += cnf.nvars
                stats["cnf_clauses"] += len(cnf.clauses)
                return init(self, cnf, *args, **kwargs)
            return wrapped

        def solve(fn):
            timer = timed("cdcl_s")(fn)

            def wrapped(*args, **kwargs):
                probe.solves += 1
                return timer(*args, **kwargs)
            return wrapped

        solver_cls = getattr(smtsolver, "Solver", None)
        script_cls = getattr(smtsolver, "SmtScript", None)
        self._patch(smtsolver, "parse_sexprs", timed("sexpr_s"),
                    "parse_sexprs")
        self._patch(script_cls, "run", run_minus_cdcl, "SmtScript.run")
        self._patch(solver_cls, "__init__", sized, "Solver.__init__")
        self._patch(solver_cls, "solve", solve, "Solver.solve")
        if not counting:
            return

        def conflicts(analyze):
            def wrapped(*args, **kwargs):
                stats["conflicts"] += 1
                return analyze(*args, **kwargs)
            return wrapped

        def decisions(decide):
            def wrapped(*args, **kwargs):
                var = decide(*args, **kwargs)
                if var:
                    stats["decisions"] += 1
                return var
            return wrapped

        def propagations(enqueue):
            # the solver enqueues an implied literal only while it is
            # unassigned, so a successful call with a reason clause is one
            # propagation; decisions and units carry no reason
            def wrapped(self, lit, reason):
                ok = enqueue(self, lit, reason)
                if ok and reason is not None:
                    stats["propagations"] += 1
                return ok
            return wrapped

        self._patch(solver_cls, "analyze", conflicts, "Solver.analyze")
        self._patch(solver_cls, "decide", decisions, "Solver.decide")
        self._patch(solver_cls, "enqueue", propagations,
                    "Solver.enqueue")

    def uninstall(self):
        self.patches.undo()


def solve_in_process(text, counting):
    """Solve one problem text in-process; return (status, stats)."""
    probe = SolverProbe()
    probe.install(counting)
    try:
        out = io.StringIO()
        script = smtsolver.SmtScript()
        script.run(smtsolver.parse_sexprs(text), out=out)
    finally:
        probe.uninstall()
    words = out.getvalue().split()
    return (words[0] if words else "error"), dict(probe.stats)


class Resolver:
    """In-process solves of problem texts, each text solved once per kind
    (timed or counted)."""

    def __init__(self):
        self.done = {}
        self.missing = set()

    def solve(self, text, counting):
        key = (text_key(text), counting)
        if key not in self.done:
            try:
                self.done[key] = solve_in_process(text, counting)
            except AttributeError as exc:  # the solver's API has changed
                self.missing.add(f"dsltv.smtsolver: {exc}")
                self.done[key] = ("not observed", {})
        return self.done[key]

    def stats(self, text):
        """Times from a solve without counters, counts from one with them."""
        _, timed = self.solve(text, counting=False)
        _, counted = self.solve(text, counting=True)
        stats = {k: timed.get(k, 0.0) for k in ("sexpr_s", "ground_s",
                                                 "cdcl_s")}
        stats.update({k: counted.get(k, 0) for k in
                      ("cnf_vars", "cnf_clauses") + SOLVER_COUNTS})
        return stats


class Tracer:
    """Spans and counts for one traced timed loop."""

    def __init__(self, spec_names):
        self.spec_names = spec_names  # id(spec) -> input file
        self.spans = []               # [name, start, end, parent, request]
        self.counts = collections.Counter()
        self.solver_texts = []        # text of every run_solver call
        self.not_observed = []
        self.local = threading.local()
        self.lock = threading.Lock()  # spans are appended from pool threads
        self.patches = _Patches()
        self.probe = SolverProbe()

    # -- spans -----------------------------------------------------------

    def _stack(self):
        if not hasattr(self.local, "stack"):
            self.local.stack = []
        return self.local.stack

    def call(self, name, fn, args, kwargs, request=None):
        stack = self._stack()
        parent = stack[-1] if stack else None
        if request is None and parent is not None:
            request = self.spans[parent][4]
        span = [name, time.perf_counter(), None, parent, request]
        with self.lock:
            self.spans.append(span)
            index = len(self.spans) - 1
        stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            stack.pop()
            span[2] = time.perf_counter()

    def request(self, request_id, fn, *args, **kwargs):
        """Run one benchmark request under a top-level span."""
        return self.call("bench.request", fn, args, kwargs, request_id)

    # -- wrappers --------------------------------------------------------

    def _observe(self, name, args, result):
        c = self.counts
        if name == "abstraction.flatten_property":
            c["abstraction.variants"] += len(result)
        elif name == "cutoff.compute_cutoff":
            c["cutoff.k"] += result.k
        elif name == "cutoff.per_class_bounds":
            c["cutoff.per_class_max"] += result.max_bound()
        elif name == "smtencode.encode":
            for key, value in problem_counts(result.text).items():
                c["smtencode." + key] += value
            c["smtencode.firing_vars"] += \
                result.metadata.get("firingVariables", 0)
            c["smtencode.deferred"] += len(result.deferred)
        elif name == "smtrun.lazy_closure_loop":
            verdict, rounds = result
            c["smtrun.closure_rounds"] += rounds
            if verdict.status == "timeout":
                c["smtrun.timeouts"] += 1
            elif verdict.status not in ("sat", "unsat"):
                c["smtrun.solver_errors"] += 1
        elif name == "smtrun.run_solver":
            c["smtrun.solve_calls"] += 1
            self.solver_texts.append(args[0].text)
        elif name == "engine.execute":
            c["engine.executions"] += 1
        elif name == "orchestrator.verify_property":
            c["orchestrator.cegar_rounds"] += result.cegar_rounds
            if result.status in ("HOLDS", "VIOLATED"):
                c["orchestrator.decided"] += 1

    def _wrapper(self, name, fn):
        tracer = self

        def wrapped(*args, **kwargs):
            request = None
            if name == "orchestrator.verify_property":
                spec, prop = args[0], args[1]
                prop_name = prop if isinstance(prop, str) else prop.name
                request = f"{tracer.spec_names.get(id(spec), '?')}:{prop_name}"
            result = tracer.call(name, fn, args, kwargs, request)
            tracer._observe(name, args, result)
            return result

        return wrapped

    def install(self):
        for name, module_name, attr in FUNCTIONS:
            try:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr)
            except (ImportError, AttributeError):
                self.not_observed.append(f"{module_name}.{attr}")
                continue
            self.patches.set(module, attr, self._wrapper(name, fn))
        self.probe.install(counting=True)

    def uninstall(self):
        self.probe.uninstall()
        self.patches.undo()

    # -- results ---------------------------------------------------------

    def span_seconds(self, names):
        return sum(s[2] - s[1] for s in self.spans if s[0] in names)

    def self_seconds(self, name):
        """Duration of every span called `name` minus its direct children."""
        children = collections.Counter()
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                children[parent] += end - start
        return sum(end - start - children[index]
                   for index, (n, start, end, _, _) in enumerate(self.spans)
                   if n == name)

    def solver_stats(self, resolver):
        """Solver statistics summed over every solve of the loop.  Solves
        seen in-process during the loop were timed with the counters on."""
        if self.probe.solves:
            stats = dict(self.probe.stats)
            for key in SOLVER_STATS:
                stats.setdefault(key, 0)
            return stats
        stats = collections.Counter()
        for text in self.solver_texts:
            stats.update(resolver.stats(text))
        return {key: stats.get(key, 0) for key in SOLVER_STATS}

    def metrics(self, passes, wall, workers, resolver):
        """Per-layer metrics, each per pass over the workload's requests."""
        out = {}
        for metric, names in LAYER_TIMES.items():
            out[metric] = self.span_seconds(names) / passes
        for key in ("abstraction.variants", "cutoff.k", "cutoff.per_class_max",
                    "smtencode.smt_bytes", "smtencode.assertions",
                    "smtencode.decls", "smtencode.firing_vars",
                    "smtencode.deferred", "smtrun.solve_calls",
                    "smtrun.closure_rounds", "smtrun.timeouts",
                    "smtrun.solver_errors", "engine.executions",
                    "orchestrator.cegar_rounds"):
            out[key] = self.counts[key] / passes
        solver = self.solver_stats(resolver)
        for key in SOLVER_STATS:
            out["smtsolver." + key] = solver[key] / passes
        in_process = solver["sexpr_s"] + solver["ground_s"] + solver["cdcl_s"]
        out["smtrun.spawn_s"] = \
            out["smtrun.solver_wall_s"] - in_process / passes
        out["orchestrator.self_s"] = \
            self.self_seconds("orchestrator.verify_property") / passes
        decided = self.counts["orchestrator.decided"]
        out["orchestrator.solves_per_verdict"] = \
            self.counts["smtrun.solve_calls"] / decided if decided else 0.0
        verify = self.span_seconds(("orchestrator.verify_property",))
        out["orchestrator.pool_efficiency"] = \
            verify / (wall * workers) if verify else 0.0
        return out

    def dump(self, path, extra):
        spans = [{"name": n, "start": s, "end": e, "parent": p,
                  "request": r} for n, s, e, p, r in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": spans, "notObserved": self.not_observed,
                       **extra}, fh)
