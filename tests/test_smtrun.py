"""The solver child's life cycle: the one spare child, timeouts, command
changes, and what is left when the owning interpreter exits."""

import os
import subprocess
import sys
import time
import types
from concurrent.futures import ThreadPoolExecutor

from dsltv import smtrun
from dsltv.orchestrator import VerificationConfig, verify_all
from dsltv.smtrun import default_solver_command, discard_spare, run_solver

from conftest import load_spec

SRC = os.path.dirname(os.path.dirname(os.path.abspath(smtrun.__file__)))
SAT = types.SimpleNamespace(text="""
(declare-const a Bool)
(assert a)
(check-sat)
(get-model)
""")


def _children():
    """{pid: state} of this process's children, zombies included."""
    out = {}
    for pid in os.listdir("/proc"):
        if not pid.isdigit():
            continue
        try:
            with open(f"/proc/{pid}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == os.getpid():
            out[int(pid)] = fields[0]
    return out


def _running(pid):
    """Whether `pid` is a process that has not exited (a zombie has)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def _pigeonhole(n):
    """n + 1 pigeons in n holes: unsat, and hard for plain CDCL."""
    p = [[f"p_{i}_{j}" for j in range(n)] for i in range(n + 1)]
    lines = [f"(declare-const {v} Bool)" for row in p for v in row]
    lines += [f"(assert (or {' '.join(row)}))" for row in p]
    lines += [f"(assert (or (not {p[a][j]}) (not {p[b][j]})))"
              for j in range(n) for a in range(n + 1)
              for b in range(a + 1, n + 1)]
    return types.SimpleNamespace(text="\n".join(lines) + "\n(check-sat)\n")


def test_verify_all_leaves_no_child_after_discard():
    spec = load_spec("corpus/c06_mandatory.dslt")
    verdicts = list(verify_all(spec, VerificationConfig(), parallelism=2))
    assert verdicts[-1][1]["unknown"] == 0
    # one spare waits for the next solve; nothing else is left
    (state,) = _children().values()
    assert state != "Z"
    discard_spare()
    assert _children() == {}


def test_threads_share_one_spare():
    # more solving threads than cores, switching often: a lost update of the
    # spare slot would leave a second live child behind
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(run_solver, SAT, 60) for _ in range(16)]
            statuses = [f.result(timeout=60).status for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert statuses == ["sat"] * 16
    assert set(_children()) == {smtrun._spare.pid}
    discard_spare()
    assert _children() == {}


def test_timeout_is_followed_by_a_solve():
    verdict = run_solver(_pigeonhole(9), timeout_seconds=0.3)
    assert verdict.status == "timeout"
    assert verdict.wall_time < 5
    # the timed-out child was killed and reaped; the spare solves next
    assert len(_children()) == 1
    verdict = run_solver(SAT, timeout_seconds=60)
    assert verdict.status == "sat", verdict.raw_output
    assert verdict.model == {"a": True}


def test_changing_the_command_replaces_the_spare():
    script = [sys.executable, "-I", "-S",
              os.path.join(os.path.dirname(smtrun.__file__), "smtsolver.py")]
    assert run_solver(SAT, 60).status == "sat"
    first = smtrun._spare
    assert first.args == default_solver_command()
    assert set(_children()) == {first.pid}

    verdict = run_solver(SAT, 60, script)
    assert verdict.status == "sat", verdict.raw_output
    second = smtrun._spare
    assert second.args == script
    assert first.returncode is not None
    assert set(_children()) == {second.pid}

    assert run_solver(SAT, 60).status == "sat"
    assert second.returncode is not None
    assert set(_children()) == {smtrun._spare.pid}
    discard_spare()


def _after_one_solve(code):
    """Solve once in a fresh interpreter, then run `code` there; its
    standard output."""
    script = f"""
import os, sys, types
from dsltv import smtrun
problem = types.SimpleNamespace(text={SAT.text!r})
assert smtrun.run_solver(problem, 60).status == "sat"
{code}
"""
    env = {**os.environ, "PYTHONPATH": SRC}
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _spare_pid_of(exit_call):
    """The pid of the spare left by an interpreter that solves once and
    then calls `exit_call`."""
    return int(_after_one_solve(
        f"print(smtrun._spare.pid, flush=True)\n{exit_call}"))


def test_forked_process_does_not_take_the_parents_spare():
    out = _after_one_solve("""
pid = os.fork()
if pid == 0:
    os._exit(0 if smtrun._spare is None else 1)
print(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
print(smtrun.run_solver(problem, 60).status)
""")
    assert out.split() == ["0", "sat"]


def test_spare_exits_when_its_owner_dies():
    # os._exit skips atexit: the spare reads end-of-file on its stdin, solves
    # the empty script and exits.  Reaping it is up to whichever process
    # adopted it, so a zombie counts as gone.
    pid = _spare_pid_of("os._exit(0)")
    deadline = time.monotonic() + 2
    while _running(pid) and time.monotonic() < deadline:
        time.sleep(0.02)
    assert not _running(pid)


def test_no_solver_outlives_a_normal_exit():
    pid = _spare_pid_of("sys.exit(0)")
    assert not os.path.exists(f"/proc/{pid}")
