import importlib.resources
import os

import pytest
from hypothesis import settings

from adsl.model import validate_program
from adsl.parser import parse_program
from adsl.workcell import load_workcell_config

# On CI a failing property prints the blob that `@reproduce_failure` replays,
# so a failure on any of the tested Pythons can be rerun locally.
settings.register_profile("ci", print_blob=True)
if os.environ.get("CI"):
    settings.load_profile("ci")

EXAMPLES = importlib.resources.files("adsl") / "examples"


@pytest.fixture(scope="session")
def corpus_path():
    return str(EXAMPLES / "peg_in_hole.adsl")


@pytest.fixture(scope="session")
def corpus_text():
    return (EXAMPLES / "peg_in_hole.adsl").read_text(encoding="utf-8")


@pytest.fixture(scope="session")
def corpus_program(corpus_text):
    program = parse_program(corpus_text)
    assert validate_program(program) == []
    return program


@pytest.fixture(scope="session")
def aligned_config():
    return load_workcell_config(str(EXAMPLES / "aligned.json"))


@pytest.fixture(scope="session")
def blocked_config():
    return load_workcell_config(str(EXAMPLES / "blocked.json"))


@pytest.fixture(scope="session")
def free_config():
    return load_workcell_config(str(EXAMPLES / "free_space.json"))


@pytest.fixture(scope="session")
def aligned_path():
    return str(EXAMPLES / "aligned.json")


@pytest.fixture(scope="session")
def blocked_path():
    return str(EXAMPLES / "blocked.json")


@pytest.fixture(scope="session")
def free_path():
    return str(EXAMPLES / "free_space.json")
