import argparse
import json
import os
import shlex
import stat
import subprocess
import sys

import pytest

from dsltv import cli, smtrun
from dsltv.cli import main, parse_args
from dsltv.model import dump_model, load_model
from dsltv.parser import parse_spec_file

from conftest import fixture_path


UML = fixture_path("uml2java.dslt")
B4 = fixture_path("uml2java_b4.dslt")
KB = fixture_path("kboundary_tight.dslt")


def test_check_text_exit_zero(capsys):
    assert main(["check", UML]) == 0
    out = capsys.readouterr().out
    assert "satisfied" in out


def test_package_runs_as_a_module():
    src = os.path.dirname(os.path.dirname(cli.__file__))
    run = subprocess.run([sys.executable, "-m", "dsltv", "check",
                          fixture_path("cegar.dslt")], capture_output=True,
                         text=True, env=dict(os.environ, PYTHONPATH=src),
                         timeout=60)
    assert run.returncode == 0, run.stderr
    assert "property SourceHasWidget: ok" in run.stdout


def test_check_json_schema(capsys):
    assert main(["check", UML, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    report = doc["transformation uml2java"]
    assert report["violations"] == []
    assert "parameters" in report
    assert "property PackageHasPackageDeclaration" in doc


def test_check_violating_spec_exits_one(tmp_path, capsys):
    spec = tmp_path / "inf.dslt"
    spec.write_text("""
metamodel M { class A { n: Int } }
metamodel N { class B { } }
transformation t : M -> N {
    layer L { rule R { match { any a : A where n > 0 } apply { b : B } } }
}
""")
    assert main(["check", str(spec)]) == 1


def test_format_is_a_check_flag_only(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", UML, "--format", "json"])
    assert exc.value.code == 3


def test_cutoff_reports_reference_bounds(capsys):
    assert main(["cutoff", B4, "--dependency-mode", "trace"]) == 0
    doc = json.loads(capsys.readouterr().out)
    row = doc["PropertyHasField"]
    assert row["params"] == {"c": 5, "m": 3, "p": 1, "d": 1, "a": 5, "r": 8,
                             "dPrime": 1}
    assert row["bounds"] == {"coarse": 120, "sharp": 150, "tight": 102,
                             "k": 102}
    assert row["dominant"] == ["tight"]


def test_verify_streams_ndjson(capsys):
    assert main(["verify", UML, "--property",
                 "PackageHasPackageDeclaration"]) == 0
    lines = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
    verdicts = [l for l in lines if l["event"] == "verdict"]
    assert len(verdicts) == 1
    v = verdicts[0]
    assert v["property"] == "PackageHasPackageDeclaration"
    assert v["status"] == "HOLDS"
    assert set(v) >= {"event", "property", "status", "k", "perClassMax",
                      "fragment", "dominant", "timeSec"}
    assert lines[-1]["event"] == "summary"


def test_verify_violated_exits_one(capsys):
    assert main(["verify", UML, "--property",
                 "ClassMappedToInterfaceDeclaration_ShouldFail"]) == 1


def test_verify_unknown_exits_two(capsys):
    assert main(["verify", UML, "--timeout", "0.000001", "--property",
                 "PackageHasPackageDeclaration"]) == 2


def test_verify_unknown_property_name_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", UML, "--property", "NoSuchProperty"])
    assert exc.value.code == 3


def test_parse_error_exits_three(tmp_path, capsys):
    bad = tmp_path / "bad.dslt"
    bad.write_text("metamodel { oops")
    with pytest.raises(SystemExit) as exc:
        main(["check", str(bad)])
    assert exc.value.code == 3


def test_copy_across_attribute_kinds_exits_three(tmp_path, capsys):
    # rejected while parsing, before the abstraction could fail on it
    from test_parser import KIND_MISMATCH
    spec = tmp_path / "kind.dslt"
    spec.write_text(KIND_MISMATCH)
    with pytest.raises(SystemExit) as exc:
        main(["verify", str(spec)])
    assert exc.value.code == 3
    err = capsys.readouterr().err
    assert "copies 'a.v' (Int) into a String attribute" in err


def test_semantic_errors_carry_their_position(tmp_path, capsys):
    # each at the token that starts the offending node: the binding's
    # attribute, the pattern element, the repeated declaration's name
    from test_parser import KIND_MISMATCH
    unknown = KIND_MISMATCH.replace("precondition { any a : A }",
                                    "precondition { any a : Nope }")
    duplicate = KIND_MISMATCH.replace("class B { w: String }",
                                      "class B { w: String }\n"
                                      "    class B { }")
    cases = [
        (KIND_MISMATCH, "8:29: error: rule 'R': binding 'b.w' copies 'a.v' "
                        "(Int) into a String attribute"),
        (unknown, "13:24: error: property 'P' precondition: unknown class "
                  "'Nope'"),
        (duplicate, "4:11: error: duplicate class 'B' in metamodel 'N'"),
    ]
    for n, (text, message) in enumerate(cases):
        spec = tmp_path / f"bad{n}.dslt"
        spec.write_text(text)
        with pytest.raises(SystemExit) as exc:
            main(["check", str(spec)])
        assert exc.value.code == 3
        err = capsys.readouterr().err
        assert f"{spec}:{message}\n" in err, err


def test_duplicate_names_are_reported_in_declaration_order(tmp_path):
    # set iteration order follows the hash seed; diagnostics must not
    spec = tmp_path / "dup.dslt"
    spec.write_text("metamodel M { class Alpha { } class Beta { } "
                    "class Gamma { } class Alpha { } class Beta { } "
                    "class Gamma { } }")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    outputs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)
        run = subprocess.run([sys.executable, "-m", "dsltv.cli", "check",
                              str(spec)], capture_output=True, text=True,
                             env=env, timeout=60)
        assert run.returncode == 3
        outputs.append(run.stderr)
    assert outputs[0] == outputs[1]
    names = [line.split("duplicate class ")[1].split("'")[1]
             for line in outputs[0].splitlines()]
    assert names == ["Alpha", "Beta", "Gamma"]


def test_usage_error_exits_three(capsys):
    # the removed baseline fragment names the choices that remain
    for bad, named in ((["--fragment", "bogus"], ()),
                       (["--eager-closure"], ()),
                       (["--fragment", "baseline"], ("'minimal'", "'full'"))):
        with pytest.raises(SystemExit) as exc:
            main(["verify", UML, *bad])
        assert exc.value.code == 3, bad
        err = capsys.readouterr().err
        assert all(choice in err for choice in named), err


def test_config_file_fills_defaults_but_flags_win(tmp_path, capsys):
    cfg = tmp_path / "dsltv.cfg"
    cfg.write_text("timeout = 0.000001\n")
    # config alone drives the timeout into UNKNOWN territory
    assert main(["verify", UML, "--config", str(cfg), "--property",
                 "PackageHasPackageDeclaration"]) == 2
    capsys.readouterr()
    # an explicit flag overrides the config value
    assert main(["verify", UML, "--config", str(cfg), "--timeout", "60",
                 "--property", "PackageHasPackageDeclaration"]) == 0


def test_explicit_flags_win_over_config_file(tmp_path):
    cfg = tmp_path / "dsltv.cfg"
    cfg.write_text("per-class = false\nfragment = full\n"
                   "timeout = 5  # seconds\n")
    args = parse_args(["verify", UML, "--config", str(cfg)])
    assert (args.per_class, args.fragment, args.timeout) == \
        (False, "full", 5.0)
    # flags equal to their defaults still win over the file
    args = parse_args(["verify", UML, "--per-class", "--config", str(cfg),
                       "--fragment", "minimal", "--timeout", "600"])
    assert (args.per_class, args.fragment, args.timeout) == \
        (True, "minimal", 600.0)


@pytest.mark.parametrize("line, key", [
    ("timout = 5", "timout"),
    ("dependency-mode = bogus", "--dependency-mode"),
    ("per-class = maybe", "per-class"),
    ("lazy-closure = true", "lazy-closure"),
    ("fragment = baseline", "choose from 'minimal', 'full'"),
])
def test_bad_config_key_or_value_is_usage_error(tmp_path, capsys, line, key):
    cfg = tmp_path / "dsltv.cfg"
    cfg.write_text(line + "\n")
    with pytest.raises(SystemExit) as exc:
        main(["verify", UML, "--config", str(cfg)])
    assert exc.value.code == 3
    assert key in capsys.readouterr().err


def test_run_writes_target_and_log(tmp_path, capsys):
    spec = parse_spec_file(KB)
    source = {"elements": [{"id": "s1", "type": "Source",
                            "attrs": {"name": "a"}}],
              "links": [], "traces": []}
    model_path = tmp_path / "in.json"
    model_path.write_text(json.dumps(source))
    out_path = tmp_path / "out.json"
    log_path = tmp_path / "log.ndjson"
    assert main(["run", KB, "--model", str(model_path),
                 "--out", str(out_path), "--log", str(log_path)]) == 0
    target = load_model(out_path.read_text())
    assert {e.klass for e in target.elements} == {"TypeDecl"}
    log = [json.loads(l) for l in log_path.read_text().splitlines()]
    assert log and log[0]["rule"] == "Source2TypeDecl"


TWO_TRANSFORMATIONS = """
metamodel MA { class A { } }
metamodel MB { class B { } }
metamodel MC { class C { } }
transformation ab : MA -> MB {
    layer L { rule R { match { any a : A } apply { b : B } } }
}
transformation ac : MA -> MC {
    layer L { rule R { match { any a : A } apply { c : C } } }
}
"""


def test_run_executes_the_named_transformation(tmp_path, capsys):
    spec = tmp_path / "two.dslt"
    spec.write_text(TWO_TRANSFORMATIONS)
    model = tmp_path / "in.json"
    model.write_text(json.dumps({"elements": [{"id": "a1", "type": "A"}],
                                 "links": [], "traces": []}))
    out = tmp_path / "out.json"
    argv = ["run", str(spec), "--model", str(model), "--out", str(out)]
    assert main([*argv, "--transformation", "ac"]) == 0
    assert [e.klass for e in load_model(out.read_text()).elements] == ["C"]
    for extra in ([], ["--transformation", "ad"]):
        with pytest.raises(SystemExit) as exc:
            main([*argv, *extra])
        assert exc.value.code == 3
        assert "ab, ac" in capsys.readouterr().err
    # a model outside the source metamodel is refused, not executed
    model.write_text(json.dumps({"elements": [{"id": "b1", "type": "B"}],
                                 "links": [], "traces": []}))
    out.unlink()
    assert main([*argv, "--transformation", "ab"]) == 3
    assert "unknown class 'B'" in capsys.readouterr().err
    assert not out.exists()


def test_abstract_writes_proof_spec(tmp_path, capsys):
    spec = tmp_path / "inf.dslt"
    spec.write_text("""
metamodel M { class A { n: Int } }
metamodel N { class B { } }
transformation t : M -> N {
    layer L { rule R { match { any a : A where n > 0 } apply { b : B } } }
}
""")
    out = tmp_path / "proof.dslt"
    assert main(["abstract", str(spec), "--out", str(out)]) == 0
    proof = parse_spec_file(str(out))
    assert not isinstance(proof, list)
    domain = {a.name: a.domain for a in
              proof.find_class("A")[1].attributes}["n"]
    assert domain.is_finite()
    mapping = json.loads((tmp_path / "proof.dslt.map.json").read_text())
    assert mapping


def test_kboundary_has_no_parallel_flag(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["kboundary", KB, "--out", str(tmp_path / "r.md"),
              "--parallel", "2"])
    assert exc.value.code == 3


def test_kboundary_writes_report(tmp_path, capsys):
    out = tmp_path / "report.md"
    rc = main(["kboundary", KB, "--out", str(out)])
    assert rc == 0
    text = out.read_text()
    assert "SourceHasTypeDecl" in text
    assert "SourceSharesTypeDecl_ShouldFail" in text
    doc = json.loads((tmp_path / "report.md.json").read_text())
    assert len(doc) == 2


def test_kboundary_dump_smt_makes_the_directory(tmp_path, capsys):
    dump = tmp_path / "fresh" / "smt"
    rc = main(["kboundary", fixture_path("corpus/c01_copy.dslt"),
               "--out", str(tmp_path / "r.md"), "--dump-smt", str(dump)])
    assert rc in (0, 1, 2)
    assert list(dump.glob("*.smt2"))


def _verify_events(capsys, argv):
    """Exit code and verdict events, without their timeSec, of `verify`."""
    rc = main(["verify", *argv])
    events = [json.loads(line)
              for line in capsys.readouterr().out.splitlines()]
    for e in events:
        e.pop("timeSec", None)
    return rc, events


@pytest.mark.parametrize("kind, message", [
    ("not executable", "Permission denied"),
    ("directory", "Permission denied"),
    ("not a program", "Exec format error"),
])
def test_solver_that_cannot_start_is_unknown(tmp_path, capsys, kind,
                                              message):
    solver = tmp_path / "solver"
    if kind == "directory":
        solver.mkdir()
    else:
        solver.write_text("not a program\n")
        if kind == "not a program":
            solver.chmod(solver.stat().st_mode | stat.S_IXUSR)
    rc, events = _verify_events(capsys, [fixture_path("corpus/c01_copy.dslt"),
                                         "--solver", str(solver)])
    assert rc == 2
    verdicts = [e for e in events if e["event"] == "verdict"]
    assert verdicts
    for v in verdicts:
        assert (v["status"], v["reason"]) == ("UNKNOWN", "solver-error")
        assert v["detail"] == f"cannot start solver {solver}: {message}"


def test_solver_is_a_command_line(tmp_path, capsys):
    spec = fixture_path("corpus/c06_mandatory.dslt")
    script = os.path.join(os.path.dirname(smtrun.__file__), "smtsolver.py")
    solver = shlex.join([sys.executable, "-I", "-S", script])
    default = _verify_events(capsys, [spec])
    assert default[0] == 1
    assert _verify_events(capsys, [spec, "--solver", solver]) == default
    config = tmp_path / "dsltv.cfg"
    for value in (f'"{solver}"',
                  f"'{sys.executable}' -I -S {shlex.quote(script)}"):
        config.write_text(f"solver = {value}\n")
        assert _verify_events(capsys, [spec, "--config", str(config)]) == \
            default


def _running(pid):
    """Whether process ``pid`` exists and has not exited."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


def test_closed_stdout_ends_quietly(tmp_path):
    # a reader that leaves after one line, as `dsltv verify ... | head -1`
    # does; the solver is the bundled one behind a script that records the
    # pid of every child, spare included
    pids = tmp_path / "pids"
    wrapper = tmp_path / "solver.sh"
    wrapper.write_text(f'echo $$ >> {shlex.quote(str(pids))}\nexec "$@"\n')
    solver = shlex.join(["sh", str(wrapper),
                         *smtrun.default_solver_command()])
    src = os.path.dirname(os.path.dirname(cli.__file__))
    proc = subprocess.Popen(
        [sys.executable, "-m", "dsltv.cli", "verify", UML, "--solver",
         solver], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=src))
    assert json.loads(proc.stdout.readline())["event"] == "verdict"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == cli.EXIT_PIPE
    assert err == b""
    started = [int(p) for p in pids.read_text().split()]
    assert len(started) >= 2
    assert not [p for p in started if _running(p)]


class _ReadRecorder(argparse.Namespace):
    """A namespace that adds the name of every attribute read to `reads`."""

    def __init__(self, reads, **values):
        super().__init__(**values)
        object.__setattr__(self, "_reads", reads)

    def __getattribute__(self, name):
        if not name.startswith("_"):
            object.__getattribute__(self, "_reads").add(name)
        return object.__getattribute__(self, name)


def test_every_flag_is_read(tmp_path, monkeypatch, capsys):
    """Each subcommand reads every option it offers: no flag is a no-op."""
    model = tmp_path / "in.json"
    model.write_text(json.dumps({"elements": [
        {"id": "s1", "type": "Source", "attrs": {"name": "a"}}],
        "links": [], "traces": []}))
    out = str(tmp_path / "out")
    one = ["--property", "SourceHasTypeDecl"]
    argvs = {
        "check": ["check", KB],
        "cutoff": ["cutoff", KB, *one],
        "verify": ["verify", KB, *one],
        "run": ["run", KB, "--model", str(model), "--out", out,
                "--transformation", "srck2tgtk"],
        "abstract": ["abstract", KB, "--out", out],
        "kboundary": ["kboundary", KB, *one, "--out", out],
    }
    build = cli.build_parser
    for command, argv in argvs.items():
        reads = set()

        def recording_parser():
            parser = build()
            parse = parser.parse_args
            parser.parse_args = lambda args: _ReadRecorder(
                reads, **vars(parse(args)))
            return parser

        dests = set(vars(build().parse_args(argv))) - {"command"}
        monkeypatch.setattr(cli, "build_parser", recording_parser)
        main(argv)
        assert dests <= reads, (command, sorted(dests - reads))
