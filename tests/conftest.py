import glob
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))

from dsltv.cli import main as cli_main
from dsltv.parser import parse_spec_file

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def fixture_path(name):
    return os.path.join(FIXTURES, name)


def load_spec(name):
    spec = parse_spec_file(fixture_path(name))
    assert not isinstance(spec, list), f"{name} failed to parse: {spec}"
    return spec


def fixture_specs():
    """(path relative to the fixtures directory, parsed spec), sorted."""
    rels = sorted(os.path.relpath(os.path.join(d, f), FIXTURES)
                  for d, _, files in os.walk(FIXTURES)
                  for f in files if f.endswith(".dslt"))
    return [(rel, load_spec(rel)) for rel in rels]


def corpus_paths():
    return sorted(glob.glob(os.path.join(FIXTURES, "corpus", "*.dslt")))


@pytest.fixture(scope="session")
def uml2java():
    return load_spec("uml2java.dslt")


@pytest.fixture(scope="session")
def uml2java_b4():
    return load_spec("uml2java_b4.dslt")


@pytest.fixture(scope="session")
def cegar_spec():
    return load_spec("cegar.dslt")


@pytest.fixture(scope="session")
def kboundary_spec():
    return load_spec("kboundary_tight.dslt")


@pytest.fixture(scope="session")
def corpus():
    return [(os.path.basename(p), load_spec(os.path.relpath(p, FIXTURES)))
            for p in corpus_paths()]


@pytest.fixture(scope="session")
def fixture_dumps(tmp_path_factory):
    """(spec path/file name, text) of every problem ``verify --dump-smt``
    writes for the fixture specs."""
    root = tmp_path_factory.mktemp("dumps")
    for path in sorted(glob.glob(os.path.join(FIXTURES, "**", "*.dslt"),
                                 recursive=True)):
        # one directory per spec: property names repeat across specs
        cli_main(["verify", path, "--dump-smt",
                  str(root / os.path.relpath(path, FIXTURES))])
    dumps = sorted(root.rglob("*.smt2"))
    assert len(dumps) >= 40
    return [(str(dump.relative_to(root)), dump.read_text())
            for dump in dumps]
