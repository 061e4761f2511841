import os
from fractions import Fraction

import pytest

from twistalg import standard_contexts
from twistalg.algebra import Cocycle, Phase, TwistedAlgebra
from twistalg.groupoid import cyclic_group
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
def z6_cob():
    """Z6 twisted by the coboundary of b with values in 1/8 and 1/100 turns."""
    z6 = cyclic_group(6, "Z6_cob")
    b = {g: Fraction(i, 8) if i % 2 else Fraction(i, 100)
         for i, g in enumerate(z6.elements) if not z6.is_unit(g)}
    values = {}
    for (g, h), gh in z6.compose.items():
        turns = (b.get(g, 0) + b.get(h, 0) - b.get(gh, 0)) % 1
        if turns:
            values[(g, h)] = Phase(turns)
    return TwistedAlgebra(z6, Cocycle(z6, values), name="Z6_cob")


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
