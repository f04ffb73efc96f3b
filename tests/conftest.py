from pathlib import Path

import pytest

from lotoskit import generate_lts, parse_spec, validate_spec

CORPUS = Path(__file__).resolve().parent.parent / "corpus"

LOT_FILES = sorted(p.name for p in CORPUS.glob("*.lot"))


def load_spec(name: str):
    """Parse and validate a corpus behaviour file; fails the test on any
    error so the corpus itself acts as a fixture sanity check."""
    spec, diags = parse_spec((CORPUS / name).read_text())
    assert spec is not None, [str(d) for d in diags]
    problems = validate_spec(spec)
    assert not problems, [str(d) for d in problems]
    return spec


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
