"""Every input document is parsed in one place, `fileio.read_object`: a second
parser would need its own depth, encoding and type checks."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "twistalg"


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


def test_only_the_reader_parses_json():
    parses = {path.stem: _json_parses(ast.parse(path.read_text(encoding="utf-8")))
              for path in sorted(SRC.glob("*.py"))}
    assert {module: lines for module, lines in parses.items() if lines and module != "fileio"} == {}
    assert len(parses["fileio"]) == 1
