"""Command-line front end.

Subcommands: check (fragment membership), cutoff (bound computation),
verify (bounded verification, NDJSON stream), run (concrete execution),
abstract (proof-spec synthesis), kboundary (cutoff boundary experiment).

Exit codes: 0 success / all HOLDS, 1 violations present, 2 unknowns present,
3 usage or parse error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .abstraction import synthesize_abstraction, validate_abstraction
from .cutoff import (
    FragmentKind, RelevanceMode, compute_cutoff, cutoff_params,
    cutoff_report, per_class_bounds, relevant_rules,
)
from .fragments import check_flnr, check_gbpp
from .kboundary import emit_report, results_json, selective_minus_one, \
    uniform_sweep
from .model import dump_model, load_model, mandatory_closure
from .orchestrator import VerificationConfig, verify_all, verify_property, \
    _transformation_for
from .parser import parse_spec_file
from .printer import print_spec

EXIT_OK = 0
EXIT_VIOLATED = 1
EXIT_UNKNOWN = 2
EXIT_USAGE = 3

_MODES = {"legacy": RelevanceMode.LEGACY,
          "trace": RelevanceMode.TRACE_AWARE,
          "trace-attr": RelevanceMode.TRACE_ATTRIBUTE_AWARE}
_FRAGMENTS = {"minimal": FragmentKind.MINIMAL,
              "baseline": FragmentKind.BASELINE,
              "full": FragmentKind.FULL}


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
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--config", help="key=value config file; flags win")
        return p

    def add_verify_flags(p):
        p.add_argument("--property", action="append", default=None,
                       help="verify only this property (repeatable)")
        p.add_argument("--timeout", type=float, default=600.0,
                       metavar="SECONDS")
        p.add_argument("--solver", default=None,
                       help="path to an SMT-LIB solver executable")
        p.add_argument("--dependency-mode", choices=sorted(_MODES),
                       default="trace-attr")
        p.add_argument("--fragment", choices=sorted(_FRAGMENTS),
                       default="minimal")
        p.add_argument("--per-class", dest="per_class", action="store_true",
                       default=True)
        p.add_argument("--no-per-class", dest="per_class",
                       action="store_false")
        p.add_argument("--factored", dest="factored", action="store_true",
                       default=True)
        p.add_argument("--monolithic", dest="factored", action="store_false")
        p.add_argument("--lazy-closure", dest="lazy_closure",
                       action="store_true", default=True)
        p.add_argument("--eager-closure", dest="lazy_closure",
                       action="store_false")
        p.add_argument("--symmetry-break", action="store_true",
                       help="also order the source slots of each class "
                       "(target slots are always ordered)")
        p.add_argument("--dump-smt", metavar="DIR")
        p.add_argument("--parallel", type=int, default=1, metavar="N")
        p.add_argument("--budget", type=int, default=100_000,
                       help="largest per-class bound accepted")

    add("check", "fragment membership reports")

    p = add("cutoff", "theorem bounds and per-class bounds")
    p.add_argument("--property", action="append", default=None)
    p.add_argument("--dependency-mode", choices=sorted(_MODES),
                   default="trace-attr")

    p = add("verify", "verify properties, streaming NDJSON verdicts")
    add_verify_flags(p)

    p = add("run", "execute the transformation on a model")
    p.add_argument("--model", required=True, help="source model JSON")
    p.add_argument("--out", required=True, help="target model JSON path")
    p.add_argument("--log", help="write the firing log (NDJSON) here")

    p = add("abstract", "synthesize a finite-domain proof specification")
    p.add_argument("--out", required=True, help="proof spec path (.dslt); "
                   "the block map lands beside it as <out>.map.json")

    p = add("kboundary", "cutoff boundary experiment (sweep + selective -1)")
    add_verify_flags(p)
    p.add_argument("--out", required=True, help="markdown report path; raw "
                   "JSON lands beside it as <out>.json")
    return top


def _load_config_file(path):
    """Flat key = value lines; '#' comments; bools, ints, floats, strings."""
    data = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"bad config line: {raw.strip()!r}")
            key, value = (s.strip() for s in line.split("=", 1))
            value = value.strip("\"'")
            if value in ("true", "false"):
                data[key] = value == "true"
            else:
                try:
                    data[key] = int(value)
                except ValueError:
                    try:
                        data[key] = float(value)
                    except ValueError:
                        data[key] = value
    return data


def _apply_config_file(args):
    """File values fill in only flags the user left at their defaults."""
    if not getattr(args, "config", None):
        return
    data = _load_config_file(args.config)
    mapping = {"timeout": "timeout", "solver": "solver",
               "dependency-mode": "dependency_mode", "fragment": "fragment",
               "per-class": "per_class", "factored": "factored",
               "lazy-closure": "lazy_closure",
               "symmetry-break": "symmetry_break", "parallel": "parallel",
               "budget": "budget", "format": "format"}
    defaults = build_parser().parse_args(
        [args.command, args.spec] + _required_of(args))
    for key, attr in mapping.items():
        if key in data and hasattr(args, attr) and \
                getattr(args, attr) == getattr(defaults, attr, None):
            setattr(args, attr, data[key])


def _required_of(args):
    extra = []
    for name in ("model", "out"):
        if getattr(args, name, None) is not None:
            extra += [f"--{name}", str(getattr(args, name))]
    return extra


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
    return VerificationConfig(
        timeout_seconds=args.timeout,
        relevance_mode=_MODES[args.dependency_mode],
        per_class=args.per_class,
        fragment_kind=_FRAGMENTS[args.fragment],
        factored=args.factored,
        lazy_closure=args.lazy_closure,
        symmetry_break=args.symmetry_break,
        cutoff_budget=args.budget,
        solver_command=[args.solver] if args.solver else None,
        dump_dir=args.dump_smt,
    )


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
    mode = _MODES[args.dependency_mode]
    out = {}
    for prop in _selected_properties(spec, args.property):
        t = _transformation_for(spec, prop)
        relevance = relevant_rules(spec, prop, mode, t)
        closure = mandatory_closure(spec.metamodel(t.source))
        params = cutoff_params(spec, prop, relevance, closure, t)
        bounds = compute_cutoff(params)
        per_class = per_class_bounds(spec, prop, relevance, bounds.k, t)
        out[prop.name] = cutoff_report(params, bounds, per_class)
    print(json.dumps(out, indent=2))
    return EXIT_OK


def cmd_verify(args):
    spec = _parse(args.spec)
    config = _make_config(args)
    props = _selected_properties(spec, args.property)
    if args.dump_smt:
        os.makedirs(args.dump_smt, exist_ok=True)
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
    t = spec.transformations[0]
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
        base = verify_property(spec, prop, config)
        sweep = uniform_sweep(spec, prop, config, base_verdict=base)
        pert = selective_minus_one(spec, prop, config, base_verdict=base)
        results.append({"sweep": sweep, "perturbation": pert,
                        "witness": None})
    report = emit_report(results, os.path.basename(args.spec))
    with open(args.out, "w") as fh:
        fh.write(report)
    with open(args.out + ".json", "w") as fh:
        fh.write(results_json(results))
    ok = all(e["sweep"].matched and e["perturbation"].matched
             for e in results)
    return EXIT_OK if ok else EXIT_VIOLATED


def main(argv=None):
    args = build_parser().parse_args(argv)
    _apply_config_file(args)
    handler = {"check": cmd_check, "cutoff": cmd_cutoff,
               "verify": cmd_verify, "run": cmd_run,
               "abstract": cmd_abstract, "kboundary": cmd_kboundary}
    return handler[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
