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
child is kept ready: a solve takes the spare, starts the spare for the next
solve with the same command, and only then hands its problem over.  The new
spare's fork and exec thus happen before the solving child needs the CPU,
and the rest of its start-up overlaps the solve.  The spare has loaded its
solver and waits on stdin; if its owner dies, it reads end-of-file, solves
the empty script and exits.  The bundled child exits as soon as its answer
is flushed, without the interpreter's teardown.  Once the child's output
has ended, the child is killed and reaped at once: ``Popen.wait`` with a
timeout would poll, sleeping a millisecond while the child exits.

A ``--solver`` command must accept what the encoder writes: Bool
declarations, zero-arity ``define-fun`` commands naming shared Bool terms,
cardinality terms ``(<= (+ (ite x 1 0) ...) k)`` (standard QF_LIA;
untried with z3 or cvc5), and plain tokens only, with no quoted symbol,
string or comment.  Its output is read by the same reader, so a model
holding one of those, or a value other than ``true`` and ``false``, is a
solver-error.  ``smtsolver``'s docstring gives the bundled solver's
language and how it grounds it.
"""

from __future__ import annotations

import atexit
import os
import selectors
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
# every start; the stdlib-only child needs neither.  The solve makes no
# reference cycles, so the cyclic collector is off: it only rescans the
# growing CNF.  Once the answer is flushed the child leaves with _exit,
# skipping the interpreter's teardown, which would hold back end-of-file
# by a few milliseconds; ``posix`` is loaded at start-up, ``os`` is not.
_SOLVER_LAUNCHER = ("import gc, posix, sys; gc.disable(); "
                    "sys.path.insert(0, sys.argv.pop(1)); import smtsolver; "
                    "code = smtsolver.main(); sys.stdout.flush(); "
                    "sys.stderr.flush(); posix._exit(code)")


def default_solver_command():
    return [sys.executable, "-I", "-S", "-c", _SOLVER_LAUNCHER,
            os.path.dirname(os.path.abspath(__file__))]


def parse_model_text(text):
    """Extract variable values from solver output following 'sat'.  Every
    name the encoder declares is a Bool, so any other value raises."""
    start = text.find("(")
    if start < 0:
        return {}
    forms = parse_sexprs(text[start:])
    model = {}

    def visit(form):
        if not isinstance(form, list):
            return
        if form and form[0] == "define-fun" and len(form) >= 5:
            if form[4] not in ("true", "false"):
                raise ValueError(f"not a Bool value: {form[4]!r}")
            model[form[1]] = form[4] == "true"
        else:
            for sub in form:
                visit(sub)

    for f in forms:
        visit(f)
    return model


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
    """Kill and wait for the child, and close its pipes.  The wait cannot
    sleep: without a timeout, Popen.wait blocks in waitpid."""
    proc.kill()
    proc.wait()
    for pipe in (proc.stdin, proc.stdout, proc.stderr):
        if pipe is not None:
            pipe.close()


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


def _read_answer(proc, data, deadline):
    """Write `data` to the child's stdin and close it, and read the child's
    stdout and stderr to end-of-file, all before `deadline`.  Returns the two
    outputs as bytes, or None when the deadline passes first.  The child is
    not waited for: `run_solver` kills and reaps it."""
    stdin = proc.stdin.fileno()
    os.set_blocking(stdin, False)
    outputs = {proc.stdout.fileno(): [], proc.stderr.fileno(): []}
    rest = memoryview(data)
    with selectors.PollSelector() as sel:
        sel.register(stdin, selectors.EVENT_WRITE)
        for fd in outputs:
            sel.register(fd, selectors.EVENT_READ)
        while sel.get_map():
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return None
            for key, _ in sel.select(remaining):
                if key.fd != stdin:
                    chunk = os.read(key.fd, 1 << 16)
                    if chunk:
                        outputs[key.fd].append(chunk)
                    else:
                        sel.unregister(key.fd)
                    continue
                try:
                    rest = rest[os.write(stdin, rest):]
                except BlockingIOError:
                    continue
                except BrokenPipeError:   # the child has exited; its output
                    rest = rest[:0]       # tells why
                if not rest:
                    sel.unregister(stdin)
                    proc.stdin.close()
                    proc.stdin = None
    return [b"".join(chunks) for chunks in outputs.values()]


def run_solver(problem, timeout_seconds, solver_command=None):
    """Solve one encoded problem in a child process.

    The spare for the next solve is started, then the problem goes to the
    child's stdin.  The child is killed and reaped once its output ends or
    the timeout expires.  A timeout already spent starts no child.
    """
    if timeout_seconds <= 0:
        return SolverVerdict("timeout")
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
        _refill(cmd)
        outputs = _read_answer(proc, problem.text.encode("utf-8"),
                               start + timeout_seconds)
        if outputs is None:
            return SolverVerdict("timeout",
                                 wall_time=time.monotonic() - start)
        wall = time.monotonic() - start
        out, err = (o.decode("utf-8", "replace") for o in outputs)
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
        _reap(proc)


def lazy_closure_loop(problem, timeout_seconds, spec, transformation=None,
                      solver_command=None):
    """``run_solver``'s verdict and 0 closure rounds: every source
    multiplicity is in the problem text, so nothing is left to close.  Kept
    only for ``perfbench``, which calls and traces it by this name; it reads
    neither `spec` nor `transformation`."""
    return run_solver(problem, timeout_seconds, solver_command), 0
