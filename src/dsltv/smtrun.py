"""Child-process driver for an SMT-LIB 2 solver.

Each problem is solved by its own child process, which reads the problem
text as UTF-8 on its stdin and exits.  By default the bundled finite-domain
solver is used, loaded from its file in this package's directory so that the
child needs no installed package and no PYTHONPATH.  The child interpreter
starts isolated and without ``site`` (``-I -S``), so neither the
environment's PYTHON* variables nor site-packages hooks reach it.  Beyond the
interpreter's start-up modules it imports only ``sys``, ``heapq`` and
``smtsolver``, whose reader avoids ``re``: importing ``re`` (with enum,
functools and collections) would add about 15 ms to every solve.  Any solver
command that reads SMT-LIB from stdin and prints sat/unsat plus a
(model ...) block works (``z3 -in``, ``cvc5``, ...).

Starting a child costs more than solving a typical problem, so one spare
child is kept ready: once a solve has handed its problem over, it starts the
child for the next solve with the same command, whose start-up then overlaps
the current solve.  The spare has loaded its solver and waits on stdin; if
its owner dies, it reads end-of-file, solves the empty script and exits.

Problem texts name shared Bool terms with zero-arity ``define-fun``
commands, so a solver must accept those too.  The bundled one takes exactly
that subset: ``(define-fun name () Bool body)``, scoped by push and pop,
each name defined once and before its first use.  It compiles a body at the
name's first reference and reuses the literal, and leaves defined names out
of ``(get-model)``.  It asserts a top-level ``and`` one conjunct at a time,
and a top-level ``or`` or ``=>`` as one clause over the literals of its
operands; any other assertion becomes a Tseitin gate and a unit clause.
"""

from __future__ import annotations

import atexit
import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

from .smtsolver import parse_sexprs


@dataclass
class SolverVerdict:
    status: str               # sat | unsat | unknown | timeout | solver-error
    model: dict = None
    wall_time: float = 0.0
    raw_output: str = ""

    def __post_init__(self):
        assert (self.model is not None) == (self.status == "sat")


# The child puts this package's directory first on its path and imports the
# stdlib-only smtsolver.py as a top-level module.  Importing it, rather than
# running the file as a script, lets the child use its cached bytecode
# instead of compiling the module on every solve.  It starts isolated (-I:
# no PYTHON* variables, no user site-packages, no cwd on the path) and
# without ``site`` (-S), whose .pth hooks may import third-party packages on
# every start; the stdlib-only child needs neither.
_SOLVER_LAUNCHER = ("import sys; sys.path.insert(0, sys.argv.pop(1)); "
                    "import smtsolver; sys.exit(smtsolver.main())")


def default_solver_command():
    return [sys.executable, "-I", "-S", "-c", _SOLVER_LAUNCHER,
            os.path.dirname(os.path.abspath(__file__))]


def parse_model_text(text):
    """Extract variable values from solver output following 'sat'."""
    start = text.find("(")
    if start < 0:
        return {}
    forms = parse_sexprs(text[start:])
    model = {}

    def visit(form):
        if not isinstance(form, list):
            return
        if form and form[0] == "define-fun" and len(form) >= 5:
            name = form[1]
            value = form[4]
            model[name] = _decode_value(value)
        else:
            for sub in form:
                visit(sub)

    for f in forms:
        visit(f)
    return model


def _decode_value(value):
    if value == "true":
        return True
    if value == "false":
        return False
    if isinstance(value, str) and value.lstrip("-").isdigit():
        return int(value)
    if isinstance(value, list) and len(value) == 2 and value[0] == "-":
        return -_decode_value(value[1])
    return value


# The one spare child, keyed by its command (Popen.args), or None.  The lock
# guards the slot for verify_all's worker threads; `_spare_starting` marks a
# spare being started outside the lock, so that no second one is started.
_spare_lock = threading.Lock()
_spare = None
_spare_starting = False


def _start(cmd):
    return subprocess.Popen(cmd, stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)


def _reap(proc):
    proc.kill()
    proc.communicate()


def _take(cmd):
    """A child for `cmd` that has not been given a problem: the spare if it
    was started with `cmd` and is still running, else a new one.  Raises
    OSError when a new child cannot be started."""
    global _spare
    with _spare_lock:
        proc, _spare = _spare, None
    if proc is not None:
        if proc.args == cmd and proc.poll() is None:
            return proc
        _reap(proc)
    return _start(cmd)


def _refill(cmd):
    """Start the spare for a later solve with `cmd`, unless one is ready or
    being started.  A child that cannot be started leaves the slot empty:
    the next solve then reports the error."""
    global _spare, _spare_starting
    with _spare_lock:
        if _spare is not None or _spare_starting:
            return
        _spare_starting = True
    proc = None
    try:
        proc = _start(cmd)
    except OSError:
        pass
    finally:
        with _spare_lock:
            _spare, _spare_starting = proc, False


def discard_spare():
    """Kill and reap the spare child, if there is one."""
    global _spare
    with _spare_lock:
        proc, _spare = _spare, None
    if proc is not None:
        _reap(proc)


def _forget_spare():
    """In a forked process: drop the parent's spare and close this process's
    copies of its pipes, so that only the parent can give it a problem and
    its end-of-file still comes when the parent dies."""
    global _spare_lock, _spare, _spare_starting
    if _spare is not None:
        for pipe in (_spare.stdin, _spare.stdout, _spare.stderr):
            pipe.close()
    _spare_lock = threading.Lock()
    _spare, _spare_starting = None, False


atexit.register(discard_spare)
os.register_at_fork(after_in_child=_forget_spare)


def _hand_over(proc, data):
    """Write as much of `data` to the child's stdin as its pipe takes without
    blocking, and close stdin when that is all of it.  Returns the rest, for
    `communicate`, or None."""
    fd = proc.stdin.fileno()
    os.set_blocking(fd, False)
    try:
        sent = os.write(fd, data)
    except BlockingIOError:
        sent = 0
    except BrokenPipeError:   # the child has exited; its output tells why
        sent = len(data)
    if sent < len(data):
        os.set_blocking(fd, True)
        return data[sent:]
    proc.stdin.close()
    proc.stdin = None
    return None


def run_solver(problem, timeout_seconds, solver_command=None):
    """Solve one encoded problem in a child process.

    The problem goes to the child's stdin, then the spare for the next solve
    is started.  The child is terminated and reaped when the timeout
    expires.
    """
    cmd = list(solver_command or default_solver_command())
    start = time.monotonic()
    try:
        proc = _take(cmd)
    except OSError as exc:
        return SolverVerdict("solver-error",
                             wall_time=time.monotonic() - start,
                             raw_output=f"cannot start solver {cmd[0]}: "
                                        f"{exc.strerror or exc}")
    try:
        rest = _hand_over(proc, problem.text.encode("utf-8"))
        _refill(cmd)
        try:
            out, err = proc.communicate(
                rest, timeout=max(0.0, start + timeout_seconds
                                  - time.monotonic()))
        except subprocess.TimeoutExpired:
            return SolverVerdict("timeout",
                                 wall_time=time.monotonic() - start)
        wall = time.monotonic() - start
        out = out.decode("utf-8", "replace")
        err = err.decode("utf-8", "replace")
        first = next((ln.strip() for ln in out.splitlines() if ln.strip()),
                     "")
        if first == "unsat":
            return SolverVerdict("unsat", wall_time=wall, raw_output=out)
        if first == "sat":
            try:
                model = parse_model_text(out)
            except Exception:
                return SolverVerdict("solver-error", wall_time=wall,
                                     raw_output=out)
            return SolverVerdict("sat", model=model, wall_time=wall,
                                 raw_output=out)
        if first == "unknown":
            return SolverVerdict("unknown", wall_time=wall, raw_output=out)
        return SolverVerdict("solver-error", wall_time=wall,
                             raw_output=out + ("\n" + err if err else ""))
    finally:
        if proc.poll() is None:
            _reap(proc)


def _violated_deferred(problem, model, spec, transformation=None):
    """Deferred lower-bound assertions whose constraint the model violates.

    The deferred assertions were generated per source slot; re-checking them
    symbolically is unnecessary: decode the source and test each mandatory
    lower bound concretely.
    """
    from .smtencode import decode_counterexample
    from .model import validate_conformance
    enc = problem.metadata["encoder"]
    source, _, _ = decode_counterexample(model, problem, spec, transformation)
    report = validate_conformance(source, enc.src_mm)
    return [v for v in report.violations if v.kind == "multiplicity-lower"]


def lazy_closure_loop(problem, timeout_seconds, spec, transformation=None,
                      solver_command=None):
    """Solve with the source lower-bound assertions deferred.

    When a sat model breaks a deferred lower bound, all of them are added
    and the problem is solved once more, which gives the verdict of solving
    with them from the start.  Returns the verdict and the number of such
    rounds (0 or 1).
    """
    deadline = time.monotonic() + timeout_seconds
    verdict = _solve_by(problem, deadline, solver_command)
    if verdict.status != "sat" or not problem.deferred \
            or not _violated_deferred(problem, verdict.model, spec,
                                      transformation):
        return verdict, 0
    closed = problem.with_extra_assertions(problem.deferred)
    return _solve_by(closed, deadline, solver_command), 1


def _solve_by(problem, deadline, solver_command):
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        return SolverVerdict("timeout")
    return run_solver(problem, remaining, solver_command)
