"""The calls that ``perfbench/run.py`` makes into dsltv keep working.

The benchmark builds its bounds with ``PerClassBounds(source=…, target=…)``
(caps on every target class) through ``inheritance.flatten_inheritance_info``,
and solves with positional calls to ``smtrun.lazy_closure_loop`` and
``smtencode.decode_counterexample``.  These tests run those paths on small
inputs, with the answers of ``perfbench/expected.json``, without setting up
the benchmark's environment.
"""

import importlib.util
import os
import sys
import time

from conftest import FIXTURES

ROOT = os.path.join(FIXTURES, os.pardir, os.pardir)


def _perfbench_run():
    spec = importlib.util.spec_from_file_location(
        "perfbench_run", os.path.join(ROOT, "perfbench", "run.py"))
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look themselves up
    spec.loader.exec_module(module)
    return module


def test_perfbench_solves_its_rungs_and_a_violation():
    start = time.monotonic()
    run = _perfbench_run()
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
