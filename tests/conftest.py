from pathlib import Path

import pytest

from lotoskit import generate_lts, parse_spec, validate_spec
from lotoskit.syntax import has_errors

CORPUS = Path(__file__).resolve().parent.parent / "corpus"

LOT_FILES = sorted(p.name for p in CORPUS.glob("*.lot"))


def load_spec(name: str):
    """Parse and validate a corpus behaviour file; fails the test on any
    error so the corpus itself acts as a fixture sanity check."""
    result = parse_spec((CORPUS / name).read_text())
    assert result.ok, [str(d) for d in result.diagnostics]
    problems = validate_spec(result.spec)
    assert not has_errors(problems), [str(d) for d in problems]
    return result.spec


@pytest.fixture(scope="session")
def corpus_dir() -> Path:
    return CORPUS


@pytest.fixture(scope="session")
def client_server():
    return load_spec("client_server.lot")


@pytest.fixture(scope="session")
def multicast():
    return load_spec("multicast.lot")


@pytest.fixture(scope="session")
def multicast_unordered():
    return load_spec("multicast_unordered.lot")


@pytest.fixture(scope="session")
def observer():
    return load_spec("observer.lot")


@pytest.fixture(scope="session")
def client_server_lts(client_server):
    return generate_lts(client_server)
