#!/usr/bin/env python3
"""Benchmark of the dsltv verification pipeline.

Run from the repository root:

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --smoke

Workloads (BENCHMARK.json gives the reason for each):

  corpus           every property of every fixture under tests/fixtures, one
                   sequential verify_property call each, default config
  stress_k4        tests/fixtures/stress.dslt / ContainedClsHasDecl at uniform
                   bound 4 per class, through smtencode.encode and
                   smtrun.lazy_closure_loop (the per-bound primitive of
                   `dsltv kboundary`)
  mult_k12         perfbench/specs/mult.dslt / ItemHasOut at 12 slots per
                   class, through the same primitive
  corpus_parallel  the corpus specs through verify_all(parallelism=2)

All are closed loops with one caller; corpus_parallel's caller runs two
pool workers.  The seed shuffles the visit order; the deep and wide solver
workloads have a single fixed input.  Only complete passes over a workload's
requests are timed, and passes repeat until --seconds have elapsed.

Every verdict is checked against the hand-written answers in
perfbench/expected.json.  Every VIOLATED counterexample is confirmed outside
the timed loop: it must conform to the source metamodel and, re-executed
with engine.execute, break the original property.

With --trace 0 the last line of standard output is a JSON object with the
end-to-end metrics.  With --trace 1 the run is split in an untraced half and
a traced half (see tracer.py); the JSON object holds the per-layer metrics,
each per pass over the workload's requests, the count ladders, and the
tracing overhead.  The process exits nonzero after printing if any verdict
was wrong.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = ROOT / "perfbench"
SRC = ROOT / "src"
FIXTURES = ROOT / "tests" / "fixtures"
OUT = ROOT / ".perfbench"

HOLDS, VIOLATED, UNKNOWN = "HOLDS", "VIOLATED", "UNKNOWN"
SOLVE_TIMEOUT_S = 120.0
SETUP_REPEATS = 4  # before and again after the timed loop
PARALLELISM = 2
LADDERS = (("stress", (2, 3, 4)), ("mult", (4, 8, 12)))

SETUP_CODE = """
import sys
from dsltv import orchestrator, parser
for path in sys.argv[1:]:
    spec = parser.parse_spec_file(path)
    if isinstance(spec, list):
        sys.exit(f"{path} failed to parse: {spec}")
"""


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def prepare_environment():
    """Make dsltv importable here and in every solver child, and keep the
    program's temporary files inside the checkout."""
    if not (SRC / "dsltv" / "__init__.py").is_file():
        fail(f"no dsltv sources under {SRC}; run from a full checkout")
    if not FIXTURES.is_dir():
        fail(f"no fixtures under {FIXTURES}; run from a full checkout")
    paths = [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "")
                          .split(os.pathsep) if p]
    os.environ["PYTHONPATH"] = os.pathsep.join(paths)
    sys.path.insert(0, str(SRC))
    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = str(tmp)


# -- inputs and expected answers ----------------------------------------------

@dataclasses.dataclass
class Request:
    key: str          # input file relative to the root, ":" property[, "@k"]
    path: Path
    spec: object
    prop: object      # the original property of the parsed spec
    expected: str
    bound: int | None = None

    @property
    def transformation(self):
        from dsltv.parser import property_metamodels
        src_mm, tgt_mm = property_metamodels(self.spec, self.prop)
        if src_mm is not None and tgt_mm is not None:
            return self.spec.transformation_for(src_mm.name, tgt_mm.name)
        return self.spec.transformations[0]


class Inputs:
    """Parsed inputs and the hand-written expected answers."""

    def __init__(self):
        from dsltv.parser import parse_spec_file
        with open(HERE / "expected.json", encoding="utf-8") as fh:
            self.answers = json.load(fh)
        self.specs = {}
        self._parse = parse_spec_file

    def spec(self, rel):
        if rel not in self.specs:
            spec = self._parse(ROOT / rel)
            if isinstance(spec, list):
                fail(f"{rel} failed to parse: {spec}")
            self.specs[rel] = spec
        return self.specs[rel]

    def corpus(self):
        """Every property of every committed fixture, each with its answer."""
        table = {(a["input"], a["property"]): a["expected"]
                 for a in self.answers["verify"]}
        requests = []
        for path in sorted(FIXTURES.rglob("*.dslt")):
            rel = path.relative_to(ROOT).as_posix()
            spec = self.spec(rel)
            for prop in spec.properties:
                if (rel, prop.name) not in table:
                    fail(f"no expected answer for {rel}:{prop.name} in "
                         f"perfbench/expected.json")
                requests.append(Request(f"{rel}:{prop.name}", path, spec,
                                        prop, table[(rel, prop.name)]))
        return requests

    def bounded(self, name, k):
        entry = self.answers["bounded"][name]
        if k not in entry["bounds"]:
            fail(f"no expected answer for {name} at bound {k}")
        spec = self.spec(entry["input"])
        return Request(f"{entry['input']}:{entry['property']}@{k}",
                       ROOT / entry["input"], spec,
                       spec.property(entry["property"]), entry["expected"],
                       bound=k)

    def spec_names(self):
        return {id(spec): rel for rel, spec in self.specs.items()}


def uniform_bounds(spec, t, k):
    from dsltv.cutoff import PerClassBounds
    from dsltv.inheritance import flatten_inheritance_info
    src = flatten_inheritance_info(spec.metamodel(t.source))
    tgt = flatten_inheritance_info(spec.metamodel(t.target))
    return PerClassBounds(
        source={c: k for c in src if not src[c].abstract},
        target={c: k for c in tgt if not tgt[c].abstract})


# -- one verdict --------------------------------------------------------------

@dataclasses.dataclass
class Outcome:
    request: Request
    status: str
    latency_s: float
    counterexample: tuple | None = None
    error: str = ""


def solve_bounded(request):
    """Encode at explicit bounds and solve with the lazy-closure loop."""
    from dsltv import smtencode, smtrun
    t = request.transformation
    problem = smtencode.encode(request.spec, request.prop,
                               uniform_bounds(request.spec, t, request.bound),
                               smtencode.EncodeOptions(), t)
    verdict, _ = smtrun.lazy_closure_loop(problem, SOLVE_TIMEOUT_S,
                                          request.spec, t)
    if verdict.status == "unsat":
        return HOLDS, None, ""
    if verdict.status == "sat":
        cex = smtencode.decode_counterexample(verdict.model, problem,
                                              request.spec, t)
        return VIOLATED, cex, ""
    return UNKNOWN, None, \
        f"solver {verdict.status}: {verdict.raw_output[:200]}"


def bounded_unit(request, tracer):
    def unit():
        t0 = time.perf_counter()
        try:
            if tracer is None:
                status, cex, error = solve_bounded(request)
            else:
                status, cex, error = tracer.request(request.key, solve_bounded,
                                                    request)
        except Exception as exc:  # a crash is a failed verdict, not a stop
            status, cex, error = UNKNOWN, None, repr(exc)
        return [Outcome(request, status, time.perf_counter() - t0, cex,
                        error)]
    return unit


def verdict_outcome(request, verdict, latency):
    error = "" if verdict.reason is None else \
        f"{verdict.reason}: {verdict.detail[:200]}"
    return Outcome(request, verdict.status, latency, verdict.counterexample,
                   error)


def verify_unit(request):
    def unit():
        from dsltv import orchestrator
        t0 = time.perf_counter()
        try:
            verdict = orchestrator.verify_property(
                request.spec, request.prop, orchestrator.VerificationConfig())
        except Exception as exc:
            return [Outcome(request, UNKNOWN, time.perf_counter() - t0,
                            error=repr(exc))]
        return [verdict_outcome(request, verdict, time.perf_counter() - t0)]
    return unit


def verify_all_unit(requests):
    """All properties of one spec through the worker pool.  A verdict's
    latency runs from the call to the moment verify_all yields it."""
    spec = requests[0].spec
    by_name = {r.prop.name: r for r in requests}

    def unit():
        from dsltv import orchestrator
        pending = dict(by_name)
        out = []
        t0 = time.perf_counter()
        try:
            for name, verdict in orchestrator.verify_all(
                    spec, orchestrator.VerificationConfig(),
                    parallelism=PARALLELISM):
                if name is not None:
                    out.append(verdict_outcome(pending.pop(name), verdict,
                                               time.perf_counter() - t0))
        except Exception as exc:
            error = repr(exc)
        else:
            error = "verify_all yielded no verdict"
        out += [Outcome(r, UNKNOWN, time.perf_counter() - t0, error=error)
                for r in pending.values()]
        return out
    return unit


# -- workloads ----------------------------------------------------------------

@dataclasses.dataclass
class Workload:
    name: str
    units: list          # callables, each returning a list of Outcome
    spec_paths: list     # what the set-up measurement parses
    workers: int = 1


def build_workload(name, inputs, tracer=None):
    if name in ("corpus", "corpus_parallel"):
        requests = inputs.corpus()
        paths = sorted({str(r.path) for r in requests})
        if name == "corpus":
            return Workload(name, [verify_unit(r) for r in requests], paths)
        by_spec = {}
        for r in requests:
            by_spec.setdefault(r.path, []).append(r)
        return Workload(name, [verify_all_unit(rs)
                               for rs in by_spec.values()],
                        paths, workers=PARALLELISM)
    ladder, k = {"stress_k4": ("stress", 4), "mult_k12": ("mult", 12)}[name]
    request = inputs.bounded(ladder, k)
    return Workload(name, [bounded_unit(request, tracer)],
                    [str(request.path)])


def timed_loop(workload, rng, seconds):
    """Complete passes over the workload's units, in a shuffled order each
    pass, until `seconds` have elapsed; at least one pass."""
    outcomes = []
    passes = 0
    start = time.perf_counter()
    while passes == 0 or time.perf_counter() - start < seconds:
        order = list(workload.units)
        rng.shuffle(order)
        for unit in order:
            outcomes.extend(unit())
        passes += 1
    return outcomes, time.perf_counter() - start, passes


def preflight(inputs):
    """Solve one trivial problem through the solver child, so a broken child
    set-up stops the run instead of reading as fast UNKNOWN verdicts."""
    request = inputs.bounded("mult", 1)
    try:
        status, _, error = solve_bounded(request)
    except Exception as exc:
        fail(f"preflight solve raised {exc!r}")
    if status != request.expected:
        fail(f"preflight solve of {request.key} gave {status}, expected "
             f"{request.expected}; the solver child is not working ({error})")


def warm_up(workload):
    """One untimed unit, so first-call imports and caches are not timed.  The
    single-input solver workloads are warm after the preflight; one more
    unit there would cost a whole solve."""
    if len(workload.units) > 1:
        workload.units[0]()


def setup_times(spec_paths, repeats):
    """Wall times of fresh interpreters that import dsltv and parse the
    workload's specs."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, *spec_paths],
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=120)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            fail(f"set-up interpreter failed: {proc.stderr.strip()[-500:]}")
    return times


# -- checking -----------------------------------------------------------------

def confirmation_problem(outcome):
    """Why the counterexample fails to confirm, or None when it conforms to
    the source metamodel and, re-executed, breaks the original property."""
    from dsltv.engine import check_property_concrete, execute
    from dsltv.model import validate_conformance
    request = outcome.request
    t = request.transformation
    source, _, _ = outcome.counterexample
    try:
        report = validate_conformance(source, request.spec.metamodel(t.source))
        if not report.conformant:
            return f"counterexample does not conform: {report.violations[:3]}"
        result = execute(t, source, request.spec)
        if check_property_concrete(request.prop, source, result,
                                   request.spec).holds:
            return "counterexample does not break the original property"
    except Exception as exc:  # a crash here is a failed confirmation
        return f"confirming the counterexample raised {exc!r}"
    return None


def judge(outcomes):
    """(failed, wrong) counts, with every failure described on stderr."""
    failed = wrong = 0
    for o in outcomes:
        problem = None
        if o.status not in (HOLDS, VIOLATED):
            problem = f"{o.status} {o.error}"
        elif o.status != o.request.expected:
            problem = f"wrong verdict {o.status}, " \
                      f"expected {o.request.expected}"
            wrong += 1
        elif o.status == VIOLATED:
            problem = confirmation_problem(o)
            wrong += problem is not None
        if problem:
            failed += 1
            print(f"perfbench: {o.request.key}: {problem}", file=sys.stderr)
    return failed, wrong


def peak_rss_mb():
    rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return rss_kb / 1024.0


def latency_lines(latencies):
    """Human-readable median and p90, with the p90 only where at least ten
    samples lie beyond it."""
    n = len(latencies)
    lines = [f"verdict_p50_ms {statistics.median(latencies) * 1e3:.3f} ms "
             f"(n={n})"]
    beyond = n - math.ceil(0.9 * n)
    if beyond >= 10:
        p90 = statistics.quantiles(latencies, n=10)[-1]
        lines.append(f"verdict_p90_ms {p90 * 1e3:.3f} ms (n={n}, "
                     f"{beyond} beyond)")
    else:
        lines.append(f"verdict_p90_ms not reported: n={n}, {beyond} samples "
                     f"beyond the 90th percentile, 10 needed")
    return lines


# -- runs ---------------------------------------------------------------------

def load_benchmark():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def result_json(bench_metrics, values, attempted, failed, wrong):
    names = [m["name"] for m in bench_metrics]
    if set(names) != set(values):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: "
                           f"{sorted(set(names) ^ set(values))}")
    return json.dumps({
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in bench_metrics},
    })


def run_untraced(args, bench, inputs):
    workload = build_workload(args.workload, inputs)
    setup_times(workload.spec_paths, 1)  # warm-up start, not counted
    # set-up is timed on both sides of the timed loop, so that one slow
    # stretch of the host does not decide the median alone
    setup = setup_times(workload.spec_paths, SETUP_REPEATS)
    preflight(inputs)
    warm_up(workload)
    outcomes, elapsed, passes = timed_loop(workload, random.Random(args.seed),
                                           args.seconds)
    setup += setup_times(workload.spec_paths, SETUP_REPEATS)
    failed, wrong = judge(outcomes)
    latencies = [o.latency_s for o in outcomes]
    values = {
        "setup_s": statistics.median(setup),
        "verdict_p50_ms": statistics.median(latencies) * 1e3,
        "verdicts_per_s": len(outcomes) / elapsed,
        "peak_rss_mb": peak_rss_mb(),
    }
    print(f"workload {args.workload} seed {args.seed}: {passes} passes, "
          f"{len(outcomes)} verdicts in {elapsed:.3f} s")
    for line in latency_lines(latencies):
        print(line)
    print(f"failed_ratio {failed / len(outcomes):.6f} "
          f"({failed}/{len(outcomes)})")
    print(f"wrong_verdicts {wrong}")
    print(result_json(bench["end_to_end"], values, len(outcomes), failed,
                      wrong))
    return wrong


def ladder_counts(inputs, resolver):
    """Problem size and solver work on the fixed scaling ladders."""
    from dsltv import smtencode
    from tracer import problem_counts
    values = {}
    outcomes = []
    for ladder, bounds in LADDERS:
        for k in bounds:
            request = inputs.bounded(ladder, k)
            t = request.transformation
            problem = smtencode.encode(
                request.spec, request.prop,
                uniform_bounds(request.spec, t, k),
                smtencode.EncodeOptions(), t)
            status, stats = resolver.solve(problem.text, counting=True)
            outcomes.append(Outcome(
                request, {"unsat": HOLDS, "sat": VIOLATED}.get(status,
                                                               UNKNOWN),
                0.0, error=status))
            sizes = problem_counts(problem.text)
            prefix = f"ladder.{ladder}_k{k}."
            values[prefix + "smt_bytes"] = sizes["smt_bytes"]
            values[prefix + "assertions"] = sizes["assertions"]
            for key in ("cnf_vars", "cnf_clauses", "conflicts"):
                values[prefix + key] = stats.get(key, 0)
    return values, outcomes


def run_traced(args, bench, inputs):
    import tracer as tracing
    from dsltv.parser import parse_spec_file
    rng = random.Random(args.seed)
    half = args.seconds / 2

    # untraced half: the reference for the tracing overhead
    workload = build_workload(args.workload, inputs)
    preflight(inputs)
    warm_up(workload)
    plain, _, _ = timed_loop(workload, rng, half)

    tracer = tracing.Tracer(inputs.spec_names())
    workload = build_workload(args.workload, inputs, tracer)
    spec_bytes = 0
    parse_s = 0.0
    for path in workload.spec_paths:
        spec_bytes += os.path.getsize(path)
        t0 = time.perf_counter()
        parse_spec_file(path)
        parse_s += time.perf_counter() - t0
    tracer.install()
    try:
        traced, wall, passes = timed_loop(workload, rng, half)
    finally:
        tracer.uninstall()

    resolver = tracing.Resolver()
    values = tracer.metrics(passes, wall, workload.workers, resolver)
    values["parser.parse_s"] = parse_s
    values["parser.spec_bytes"] = spec_bytes
    values["trace.pass_s"] = wall / passes
    traced_p50 = statistics.median(o.latency_s for o in traced)
    plain_p50 = statistics.median(o.latency_s for o in plain)
    values["trace.overhead_ms"] = (traced_p50 - plain_p50) * 1e3
    ladders, ladder_outcomes = ladder_counts(inputs, resolver)
    values.update(ladders)

    outcomes = plain + traced + ladder_outcomes
    failed, wrong = judge(outcomes)
    missing = sorted(set(tracer.not_observed) | tracer.probe.missing
                     | resolver.missing)
    OUT.mkdir(exist_ok=True)
    trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    tracer.dump(trace_path, {"workload": args.workload, "passes": passes,
                             "metrics": values})
    print(f"workload {args.workload} seed {args.seed} traced: {passes} "
          f"passes, {len(traced)} traced verdicts; spans in {trace_path}")
    print(f"tracing overhead on verdict_p50_ms: {plain_p50 * 1e3:.3f} ms "
          f"untraced, {traced_p50 * 1e3:.3f} ms traced")
    for key in ("smtrun.spawn_s", "smtsolver.sexpr_s", "smtsolver.ground_s",
                "smtsolver.cdcl_s", "smtencode.encode_s", "smtencode.decode_s",
                "cutoff.plan_s", "engine.confirm_s", "orchestrator.self_s"):
        print(f"{key} per traced pass time: "
              f"{values[key] / values['trace.pass_s']:.3f}")
    solve = sum(values["smtsolver." + k] for k in ("sexpr_s", "ground_s",
                                                   "cdcl_s"))
    if solve:
        print(f"smtsolver.cdcl_s per in-process solve time: "
              f"{values['smtsolver.cdcl_s'] / solve:.3f}")
    print("not observed: " + (", ".join(missing) if missing else "none"))
    print(f"wrong_verdicts {wrong}")
    print(result_json(bench["per_layer"], values, len(outcomes), failed,
                      wrong))
    return wrong


# -- smoke check --------------------------------------------------------------

def smoke(bench):
    """Run every workload at minimal size, untraced and twice traced, print
    each workload's end-to-end metrics, and check the printed metric names
    against BENCHMARK.json and that the traced counts repeat exactly."""
    def run(workload, trace):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
               workload, "--seed", "1", "--seconds", "0", "--trace",
               str(trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=900)
        if proc.returncode != 0:
            raise SystemExit(f"smoke: {workload} --trace {trace} exited "
                             f"{proc.returncode}:\n{proc.stderr[-2000:]}")
        lines = proc.stdout.strip().splitlines()
        return lines[:-1], json.loads(lines[-1])

    def check_names(result, declared, what):
        got = {n: m["unit"] for n, m in result["metrics"].items()}
        want = {m["name"]: m["unit"] for m in declared}
        if got != want:
            raise SystemExit(f"smoke: {what} metrics differ from "
                             f"BENCHMARK.json: {sorted(set(got) ^ set(want))}")

    counted = {m["name"] for m in bench["per_layer"]
               if m["unit"] in ("count", "B")}
    for w in bench["workloads"]:
        name = w["name"]
        lines, result = run(name, 0)
        check_names(result, bench["end_to_end"], f"{name} untraced")
        for metric, m in result["metrics"].items():
            print(f"smoke: {name}: {metric} {m['value']:.6g} {m['unit']}")
        for line in lines[1:]:
            if line.split()[0] not in result["metrics"]:
                print(f"smoke: {name}: {line}")
        (_, first), (_, second) = run(name, 1), run(name, 1)
        for result in (first, second):
            check_names(result, bench["per_layer"], f"{name} traced")
        drift = [n for n in sorted(counted)
                 if first["metrics"][n]["value"]
                 != second["metrics"][n]["value"]]
        if drift:
            raise SystemExit(f"smoke: {name}: counts differ between two "
                             f"traced runs: {drift}")
        print(f"smoke: {name} ok")
    print("smoke: ok")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload at minimal size and check "
                             "the metric names and traced counts")
    args = parser.parse_args(argv)
    prepare_environment()
    bench = load_benchmark()
    if args.smoke:
        smoke(bench)
        return 0
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names:
        fail(f"--workload must be one of {names}")
    if args.seconds < 0:
        fail("--seconds must not be negative")
    sys.path.insert(0, str(HERE))
    inputs = Inputs()
    run = run_traced if args.trace else run_untraced
    return 1 if run(args, bench, inputs) else 0


if __name__ == "__main__":
    sys.exit(main())
