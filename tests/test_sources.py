"""Source rules checked on the syntax tree of every module in src/twistalg.

Every input document is parsed in one place, `fileio.read_object`: a second
parser would need its own depth, encoding and type checks.  Every random
generator is made in one place, `seeds.substream`, so that all sampling flows
from the seed through named substreams."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "twistalg"


def _trees() -> dict[str, ast.AST]:
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(SRC.glob("*.py"))}


def _json_parses(tree: ast.AST) -> list[int]:
    """Lines that call json.load or json.loads, or import either from json."""
    lines = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("load", "loads")
                and isinstance(node.func.value, ast.Name) and node.func.value.id == "json"):
            lines.append(node.lineno)
        elif (isinstance(node, ast.ImportFrom) and node.module == "json"
                and any(alias.name in ("load", "loads") for alias in node.names)):
            lines.append(node.lineno)
    return lines


def _random_sources(tree: ast.AST) -> list[int]:
    """Lines that call anything in numpy.random (default_rng, Generator, RandomState,
    a bit generator, seed, ...) or import from numpy.random or the random module."""
    lines = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Attribute) and node.func.value.attr == "random"
                and isinstance(node.func.value.value, ast.Name)
                and node.func.value.value.id in ("np", "numpy")):
            lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module in ("numpy.random", "random"):
            lines.append(node.lineno)
        elif isinstance(node, ast.Import) and any(
                alias.name in ("numpy.random", "random") for alias in node.names):
            lines.append(node.lineno)
    return lines


def test_only_the_reader_parses_json():
    parses = {module: _json_parses(tree) for module, tree in _trees().items()}
    assert {module: lines for module, lines in parses.items() if lines and module != "fileio"} == {}
    assert len(parses["fileio"]) == 1


def test_only_seeds_makes_random_generators():
    sources = {module: _random_sources(tree) for module, tree in _trees().items()}
    assert {module: lines for module, lines in sources.items() if lines and module != "seeds"} == {}
    assert len(sources["seeds"]) == 1


def test_the_random_source_rule_sees_each_form():
    forms = ["np.random.default_rng(0)", "numpy.random.Generator(bits)", "np.random.seed(1)",
             "from numpy.random import default_rng", "import random", "from random import random"]
    assert [_random_sources(ast.parse(text)) for text in forms] == [[1]] * len(forms)
    assert _random_sources(ast.parse("def f(rng: np.random.Generator): rng.normal()")) == []
