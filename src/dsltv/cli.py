"""Command-line front end.

Subcommands: check (fragment membership), cutoff (bound computation),
verify (bounded verification, NDJSON stream), run (concrete execution),
abstract (proof-spec synthesis), kboundary (cutoff boundary experiment).

Exit codes: 0 success / all HOLDS, 1 violations present, 2 unknowns present,
3 usage or parse error, 141 (128 + SIGPIPE, as a shell reports a program
that SIGPIPE ended) when the reader of stdout went away before the end.
"""

from __future__ import annotations

import argparse
import json
import os
import shlex
import sys

from .abstraction import synthesize_abstraction, validate_abstraction
from .cutoff import FragmentKind, RelevanceMode, cutoff_report
from .fragments import check_flnr, check_gbpp
from .kboundary import BoundsLab, emit_report, results_json
from .model import dump_model, load_model, validate_conformance
from .orchestrator import UNKNOWN, PlanRejected, VerificationConfig, \
    plan_property, verify_all
from .parser import parse_spec_file
from .printer import print_spec

EXIT_OK = 0
EXIT_VIOLATED = 1
EXIT_UNKNOWN = 2
EXIT_USAGE = 3
EXIT_PIPE = 141

_MODES = [m.value for m in RelevanceMode]
_FRAGMENTS = [f.value for f in FragmentKind]


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(EXIT_USAGE)


def build_parser():
    top = _Parser(prog="dsltv",
                  description="bounded verification of layered model "
                              "transformations")
    sub = top.add_subparsers(dest="command", required=True)

    def add(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("spec", help="specification file (.dslt)")
        p.add_argument("--config", help="key=value config file; flags win")
        return p

    def add_verify_flags(p):
        p.add_argument("--property", action="append", default=None,
                       help="verify only this property (repeatable)")
        p.add_argument("--timeout", type=float, default=600.0,
                       metavar="SECONDS")
        p.add_argument("--solver", default=None, metavar="CMD",
                       help="SMT-LIB solver command line, split like a "
                            "shell would (e.g. \"z3 -in\"); it reads each "
                            "problem on stdin")
        p.add_argument("--dependency-mode", choices=_MODES,
                       default="trace-attr")
        p.add_argument("--fragment", choices=_FRAGMENTS,
                       default="minimal")
        p.add_argument("--per-class", dest="per_class", action="store_true",
                       default=True)
        p.add_argument("--no-per-class", dest="per_class",
                       action="store_false")
        p.add_argument("--dump-smt", metavar="DIR")
        p.add_argument("--budget", type=int, default=100_000,
                       help="largest per-class bound accepted")

    p = add("check", "fragment membership reports")
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = add("cutoff", "theorem bounds and per-class bounds")
    p.add_argument("--property", action="append", default=None)
    p.add_argument("--dependency-mode", choices=_MODES,
                   default="trace-attr")

    p = add("verify", "verify properties, streaming NDJSON verdicts")
    add_verify_flags(p)
    p.add_argument("--parallel", type=int, default=1, metavar="N")

    p = add("run", "execute the transformation on a model")
    p.add_argument("--model", required=True, help="source model JSON")
    p.add_argument("--out", required=True, help="target model JSON path")
    p.add_argument("--log", help="write the firing log (NDJSON) here")
    p.add_argument("--transformation", metavar="NAME",
                   help="the transformation to execute; required when the "
                        "spec declares more than one")

    p = add("abstract", "synthesize a finite-domain proof specification")
    p.add_argument("--out", required=True, help="proof spec path (.dslt); "
                   "the block map lands beside it as <out>.map.json")

    p = add("kboundary", "cutoff boundary experiment (sweep + selective -1)")
    add_verify_flags(p)
    p.add_argument("--out", required=True, help="markdown report path; raw "
                   "JSON lands beside it as <out>.json")
    return top


# config-file keys: a switch is true or false and maps to its own flag or
# to the flag that turns it off; a valued key passes its value to its flag
_CONFIG_SWITCHES = {"per-class": "--no-per-class"}
_CONFIG_VALUES = ("timeout", "solver", "dependency-mode", "fragment",
                  "parallel", "budget", "format")


def _config_tokens(parser, path, args):
    """The config file's flat `key = value` lines ('#' comments) as flags,
    for the keys the subcommand takes.  An unknown key, a switch that is not
    true or false, or an unreadable file is a usage error."""
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        parser.error(f"config file {path}: {exc.strerror}")
    tokens = []
    for number, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = (part.strip() for part in line.partition("="))
        if len(value) > 1 and value[0] == value[-1] and value[0] in "\"'":
            value = value[1:-1]   # one pair of quotes around the value
        if not sep:
            parser.error(f"config file {path}:{number}: expected key = value")
        if key in _CONFIG_SWITCHES:
            if value not in ("true", "false"):
                parser.error(f"config file {path}:{number}: {key} must be "
                             f"true or false, not {value!r}")
            flag = f"--{key}" if value == "true" else _CONFIG_SWITCHES[key]
        elif key in _CONFIG_VALUES:
            flag = f"--{key}={value}"
        else:
            parser.error(f"config file {path}:{number}: unknown key {key!r}")
        if hasattr(args, key.replace("-", "_")):
            tokens.append(flag)
    return tokens


def parse_args(argv=None):
    """Parse the command line.  A --config file is read as flags placed
    before the user's own, so the parser validates its values and explicit
    flags win."""
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.config:
        # the subcommand comes first: the top-level parser takes no options
        tokens = _config_tokens(parser, args.config, args)
        args = parser.parse_args([argv[0], *tokens, *argv[1:]])
    return args


def _parse(path):
    try:
        result = parse_spec_file(path)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(EXIT_USAGE)
    if isinstance(result, list):
        for d in result:
            print(f"{d.file}:{d.line}:{d.col}: {d.severity}: {d.message}",
                  file=sys.stderr)
        sys.exit(EXIT_USAGE)
    return result


def _make_config(args):
    try:
        if args.dump_smt:
            os.makedirs(args.dump_smt, exist_ok=True)
        return VerificationConfig(
            timeout_seconds=args.timeout,
            relevance_mode=RelevanceMode(args.dependency_mode),
            per_class=args.per_class,
            fragment_kind=FragmentKind(args.fragment),
            cutoff_budget=args.budget,
            solver_command=shlex.split(args.solver) if args.solver
            else None,
            dump_dir=args.dump_smt,
        )
    except (OSError, ValueError) as exc:
        # a dump directory that cannot be made, a timeout or budget out of
        # range, or a solver command with an unclosed quote
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(EXIT_USAGE)


def _selected_properties(spec, names):
    if not names:
        return list(spec.properties)
    out = []
    for n in names:
        try:
            out.append(spec.property(n))
        except KeyError:
            print(f"error: no property named {n!r}", file=sys.stderr)
            sys.exit(EXIT_USAGE)
    return out


def _chosen_transformation(spec, name):
    """The transformation named, or the spec's only one when none is."""
    if name is None and len(spec.transformations) == 1:
        return spec.transformations[0]
    for t in spec.transformations:
        if t.name == name:
            return t
    names = ", ".join(t.name for t in spec.transformations) or "none"
    problem = "give --transformation" if name is None else \
        f"no transformation named {name!r}"
    print(f"error: {problem}; the spec declares {names}", file=sys.stderr)
    sys.exit(EXIT_USAGE)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_check(args):
    spec = _parse(args.spec)
    reports = {}
    for t in spec.transformations:
        reports[f"transformation {t.name}"] = check_flnr(
            t, spec.metamodel(t.source), spec.metamodel(t.target))
    for p in spec.properties:
        reports[f"property {p.name}"] = check_gbpp(p)
    if args.format == "json":
        print(json.dumps({k: r.to_json() for k, r in reports.items()},
                         indent=2))
    else:
        for name, report in reports.items():
            state = "ok" if report.ok else "violations"
            print(f"{name}: {state} "
                  f"(satisfied: {', '.join(report.satisfied) or 'none'})")
            for v in report.violations:
                print(f"  {v.restriction} at {v.location}: {v.message}")
    return EXIT_OK if all(r.ok for r in reports.values()) else EXIT_VIOLATED


def cmd_cutoff(args):
    spec = _parse(args.spec)
    config = VerificationConfig(
        relevance_mode=RelevanceMode(args.dependency_mode))
    out = {}
    code = EXIT_OK
    for prop in _selected_properties(spec, args.property):
        try:
            plan = plan_property(spec, prop, config)
        except PlanRejected as exc:
            out[prop.name] = {"status": UNKNOWN, "reason": exc.reason,
                              "detail": exc.detail}
            code = EXIT_UNKNOWN
            continue
        out[prop.name] = cutoff_report(plan.params, plan.cutoff, plan.bounds)
    print(json.dumps(out, indent=2))
    return code


def cmd_verify(args):
    spec = _parse(args.spec)
    config = _make_config(args)
    props = _selected_properties(spec, args.property)
    wanted = {p.name for p in props}
    sub = spec if not args.property else \
        type(spec)(spec.metamodels, spec.transformations,
                   tuple(p for p in spec.properties if p.name in wanted))
    counts = {"holds": 0, "violated": 0, "unknown": 0}
    for name, verdict in verify_all(sub, config, args.parallel):
        if name is None:
            counts = {k: verdict[k] for k in counts}
            print(json.dumps(verdict))
        else:
            print(json.dumps(verdict.event(name)), flush=True)
    if counts["violated"]:
        return EXIT_VIOLATED
    if counts["unknown"]:
        return EXIT_UNKNOWN
    return EXIT_OK


def cmd_run(args):
    spec = _parse(args.spec)
    from .engine import execute
    try:
        with open(args.model, "r") as fh:
            source = load_model(fh.read())
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    t = _chosen_transformation(spec, args.transformation)
    try:
        problems = [v.message for v in validate_conformance(
            source, spec.metamodel(t.source)).violations]
    except KeyError as exc:  # a class or association the metamodel lacks
        problems = [exc.args[0]]
    if problems:
        print(f"error: the model does not conform to {t.source}:",
              *problems[:5], sep="\n  ", file=sys.stderr)
        return EXIT_USAGE
    result = execute(t, source, spec)
    with open(args.out, "w") as fh:
        fh.write(dump_model(result.target))
    if args.log:
        with open(args.log, "w") as fh:
            fh.write(result.log_ndjson())
    return EXIT_OK


def cmd_abstract(args):
    spec = _parse(args.spec)
    proof, amap = synthesize_abstraction(spec)
    report = validate_abstraction(spec, amap)
    with open(args.out, "w") as fh:
        fh.write(print_spec(proof))
    with open(args.out + ".map.json", "w") as fh:
        json.dump(amap.to_json(), fh, indent=2)
    if not report.valid:
        for loc, text, ok in report.predicate_outcomes:
            if not ok:
                print(f"not block-constant: {loc}: {text}", file=sys.stderr)
        return EXIT_VIOLATED
    return EXIT_OK


def cmd_kboundary(args):
    spec = _parse(args.spec)
    config = _make_config(args)
    results = []
    for prop in _selected_properties(spec, args.property):
        lab = BoundsLab(spec, prop, config)  # one plan and one base verdict
        results.append({"sweep": lab.uniform_sweep(),
                        "perturbation": lab.selective_minus_one()})
    report = emit_report(results, os.path.basename(args.spec))
    with open(args.out, "w") as fh:
        fh.write(report)
    with open(args.out + ".json", "w") as fh:
        fh.write(results_json(results))
    if any(e["sweep"].reasons or e["perturbation"].reasons
           for e in results):
        return EXIT_UNKNOWN
    ok = all(e["sweep"].matched and e["perturbation"].matched
             for e in results)
    return EXIT_OK if ok else EXIT_VIOLATED


def main(argv=None):
    args = parse_args(argv)
    handler = {"check": cmd_check, "cutoff": cmd_cutoff,
               "verify": cmd_verify, "run": cmd_run,
               "abstract": cmd_abstract, "kboundary": cmd_kboundary}
    try:
        return handler[args.command](args)
    except BrokenPipeError:
        # stdout's reader has gone, as under `| head -1`: what is still
        # buffered goes to devnull, so the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE


if __name__ == "__main__":
    sys.exit(main())
