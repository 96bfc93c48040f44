"""The calls that ``perfbench/run.py`` makes into dsltv keep working.

The benchmark builds its bounds with ``PerClassBounds(source=…, target=…)``
(caps on every target class) through ``inheritance.flatten_inheritance_info``,
and solves with positional calls to ``smtrun.lazy_closure_loop`` and
``smtencode.decode_counterexample``.  These tests run those paths on small
inputs, with the answers of ``perfbench/expected.json``, without setting up
the benchmark's environment.  ``perfbench/tracer.py`` wraps dsltv functions
by module and name; a name it lists that no longer resolves is a span the
benchmark silently stops recording, so the names are checked here too.
"""

import importlib
import importlib.util
import os
import sys
import time

from conftest import FIXTURES

ROOT = os.path.join(FIXTURES, os.pardir, os.pardir)

# tracer names that are gone on purpose: the orchestrator solves with
# run_solver, which the tracer wraps in smtrun
UNRESOLVED_TRACER_NAMES = ["dsltv.orchestrator.lazy_closure_loop"]


def _perfbench(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", os.path.join(ROOT, "perfbench", f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look themselves up
    spec.loader.exec_module(module)
    return module


def test_tracer_names_resolve():
    tracer = _perfbench("tracer")
    missing = [f"{module}.{attr}" for _, module, attr in tracer.FUNCTIONS
               if not hasattr(importlib.import_module(module), attr)]
    assert missing == UNRESOLVED_TRACER_NAMES


def test_lazy_closure_shim_takes_no_round():
    from dsltv import smtencode, smtrun
    run = _perfbench("run")
    request = run.Inputs().bounded("stress", 2)
    t = request.transformation
    problem = smtencode.encode(request.spec, request.prop,
                               run.uniform_bounds(request.spec, t, 2),
                               smtencode.EncodeOptions(), t)
    assert problem.deferred == ()
    verdict, rounds = smtrun.lazy_closure_loop(problem, 60, request.spec, t)
    assert (verdict.status, rounds) == ("unsat", 0)


def test_perfbench_solves_its_rungs_and_a_violation():
    start = time.monotonic()
    run = _perfbench("run")
    inputs = run.Inputs()
    for name, k in (("stress", 2), ("mult", 4)):
        request = inputs.bounded(name, k)
        bounds = run.uniform_bounds(request.spec, request.transformation, k)
        assert set(bounds.source.values()) == set(bounds.target.values()) \
            == {k}, name
        assert run.solve_bounded(request) == (request.expected, None, ""), \
            name
    # a sat answer goes through decode_counterexample and confirms
    rel = "tests/fixtures/corpus/c01_copy.dslt"
    prop_name = "SourceHasTwoTargets_ShouldFail"
    expected, = [a["expected"] for a in inputs.answers["verify"]
                 if (a["input"], a["property"]) == (rel, prop_name)]
    spec = inputs.spec(rel)
    request = run.Request(f"{rel}:{prop_name}@2", os.path.join(ROOT, rel),
                          spec, spec.property(prop_name), expected, bound=2)
    status, cex, error = run.solve_bounded(request)
    assert (status, error) == (expected, "") == ("VIOLATED", "")
    assert run.confirmation_problem(
        run.Outcome(request, status, 0.0, cex)) is None
    assert time.monotonic() - start < 0.5
