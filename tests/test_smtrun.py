"""The solver child's life cycle: the one spare child, timeouts, command
changes, and what is left when the owning interpreter exits."""

import os
import subprocess
import sys
import time
import types
from concurrent.futures import ThreadPoolExecutor

import pytest

from dsltv import smtrun
from dsltv.orchestrator import VerificationConfig, verify_all, \
    verify_property
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


def test_spare_is_running_when_the_problem_is_handed_over(monkeypatch):
    discard_spare()
    seen = []
    read_answer = smtrun._read_answer

    def record(proc, data, deadline):
        spare = smtrun._spare
        seen.append(spare is not None and spare.pid != proc.pid
                    and spare.poll() is None)
        return read_answer(proc, data, deadline)

    monkeypatch.setattr(smtrun, "_read_answer", record)
    # the first solve starts its own child and the spare; the next ones take
    # the spare and start the next before they hand over
    for _ in range(3):
        assert run_solver(SAT, 60).status == "sat"
    assert seen == [True] * 3


def test_large_model_arrives_whole_and_no_child_is_left():
    # the model is about 170 kB, more than twice a 64 kB pipe buffer: the
    # child must flush all of it before it leaves with _exit
    names = [f"b{i}" for i in range(5000)]
    problem = types.SimpleNamespace(text="\n".join(
        [f"(declare-const {n} Bool)" for n in names] +
        [f"(assert {'' if i % 3 else '(not '}{n}{'' if i % 3 else ')'})"
         for i, n in enumerate(names)] + ["(check-sat)", "(get-model)"]))
    verdict = run_solver(problem, 60)
    assert verdict.status == "sat", verdict.raw_output[-200:]
    assert len(verdict.raw_output) > 2 * 65536
    assert verdict.model == {n: bool(i % 3) for i, n in enumerate(names)}
    # the solving child was reaped; only the spare is left, and it runs
    assert set(_children()) == {smtrun._spare.pid}
    assert _running(smtrun._spare.pid)


def test_timeout_is_followed_by_a_solve():
    verdict = run_solver(_pigeonhole(9), timeout_seconds=0.3)
    assert verdict.status == "timeout"
    assert verdict.wall_time < 5
    # the timed-out child was killed and reaped; the spare solves next
    assert len(_children()) == 1
    verdict = run_solver(SAT, timeout_seconds=60)
    assert verdict.status == "sat", verdict.raw_output
    assert verdict.model == {"a": True}


def test_a_spent_timeout_starts_no_child(monkeypatch):
    # an attempt whose deadline passed during encoding solves nothing
    started = []
    monkeypatch.setattr(smtrun, "_start", started.append)
    for timeout in (0, -1.0):
        assert run_solver(SAT, timeout).status == "timeout"
    assert started == []


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


def test_back_to_back_solves_do_not_sleep(monkeypatch):
    # a child whose output has ended is killed and reaped at once:
    # Popen.wait with a timeout polls waitpid with sleeps from 1 ms, and most
    # solves slept once while the child exited
    sleeps = []

    class Clock:
        """subprocess's time module, with its sleeps recorded."""

        def __getattr__(self, name):
            return getattr(time, name)

        def sleep(self, seconds):
            sleeps.append(seconds)
            time.sleep(seconds)

    monkeypatch.setattr(subprocess, "time", Clock())
    for _ in range(10):
        assert run_solver(SAT, 60).status == "sat"
    assert sleeps == []


@pytest.mark.parametrize("answer", [
    "unknown\n",
    "sat\n((define-fun ex_s_Source_0 () Bool\n",
    "Segmentation fault\n",
])
def test_unusable_answers_are_solver_errors(answer):
    # a solver that reads the problem and prints an answer the verifier
    # cannot use: no model, an unreadable one, or no answer at all
    spec = load_spec("corpus/c01_copy.dslt")
    config = VerificationConfig(solver_command=[
        sys.executable, "-c",
        f"import sys; sys.stdin.read(); sys.stdout.write({answer!r})"])
    verdict = verify_property(spec, "SourceHasTarget", config)
    assert (verdict.status, verdict.reason) == ("UNKNOWN", "solver-error")
    assert verdict.detail.strip() == answer.strip()
    # the solving child was reaped; only the spare is left
    assert set(_children()) == {smtrun._spare.pid}
    discard_spare()
    assert _children() == {}
