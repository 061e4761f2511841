import os

import pytest

from twistalg import standard_contexts
from twistalg.seeds import substream


@pytest.fixture(scope="session")
def contexts():
    return standard_contexts()


@pytest.fixture
def r2(contexts):
    return contexts["R2"]


@pytest.fixture
def r3(contexts):
    return contexts["R3"]


@pytest.fixture
def z4(contexts):
    return contexts["Z4"]


@pytest.fixture
def v4_pauli(contexts):
    return contexts["V4_pauli"]


@pytest.fixture
def rng():
    return substream(42, "tests")


@pytest.fixture(autouse=True)
def no_child_left_unreaped():
    """Fail a test that leaves a child process behind, running or unreaped."""
    yield
    try:
        left = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"a child process was left unreaped: {left}")
