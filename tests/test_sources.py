"""Source rules checked on the syntax tree of every module in src/twistalg.

Every input document is parsed in one place, `fileio.read_object`: a second
parser would need its own depth, encoding and type checks.  Every input file
is read once, by `fileio.read_input`, so the sha256 in a report is of the
bytes that were parsed.  Every random generator is made in one place,
`seeds.substream`, so that all sampling flows from the seed through named
substreams.  The default seed, isomorphism budget and zero tolerance are each
defined once, as a named constant, and reports hold only JSON types, so the
writer needs no fallback encoder.  Exact rational turns are Fractions only in
`twists`, where cocycles are given and shown, and README's library map names
every module.  Groupoid tables are written out only by the few builders that
need their own: groups and group actions go through `groupoid.group` and
`groupoid.transformation_groupoid`.  Only `groupoid` and
`suites.expectation_suite` enumerate bisections: R8 alone has 1,441,729."""

import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "twistalg"
README = SRC.parent.parent / "README.md"


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


SETTINGS = {"DEFAULT_SEED": ("seeds", 42), "DEFAULT_ISO_BUDGET": ("groupoid", 10**6),
            "DEFAULT_ZERO_TOL": ("algebra", 1e-9)}


def _number(node):
    """The value of a numeric literal or of a power of two of them, else None."""
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        return node.value
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
        base, exponent = _number(node.left), _number(node.right)
        return None if base is None or exponent is None else base ** exponent
    return None


def _literal_defaults(tree: ast.AST) -> list[int]:
    """Lines where a setting's value is written out as a parameter default, a class
    field default or the `default=` of a call such as add_argument."""
    defaults = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            defaults += [*node.args.defaults, *filter(None, node.args.kw_defaults)]
        elif isinstance(node, ast.ClassDef):
            defaults += [s.value for s in node.body if isinstance(s, ast.AnnAssign) and s.value]
        elif isinstance(node, ast.keyword) and node.arg == "default":
            defaults.append(node.value)
    values = [value for _, value in SETTINGS.values()]
    return [d.lineno for d in defaults if _number(d) in values]


def test_each_setting_is_defined_once():
    trees = _trees()
    defined = {(module, target.id, _number(node.value))
               for module, tree in trees.items() for node in ast.walk(tree)
               if isinstance(node, ast.Assign) for target in node.targets
               if isinstance(target, ast.Name) and target.id in SETTINGS}
    assert defined == {(module, name, value) for name, (module, value) in SETTINGS.items()}
    lines = {module: _literal_defaults(tree) for module, tree in trees.items()}
    assert {module: found for module, found in lines.items() if found} == {}


def test_the_default_rule_sees_each_form():
    forms = ["def f(seed=42): pass", "def f(*, budget=10**6): pass", "lambda tol=1e-9: tol",
             "class C:\n    seed: int = 42", "p.add_argument('--tol', default=1e-9)"]
    assert [_literal_defaults(ast.parse(text)) for text in forms] == [[1], [1], [1], [2], [1]]
    assert _literal_defaults(ast.parse("DEFAULT_SEED = 42\ndef f(seed=DEFAULT_SEED): pass")) == []


def test_the_report_writer_has_no_fallback_encoder():
    dumps = next(node for node in ast.walk(_trees()["fileio"])
                 if isinstance(node, ast.FunctionDef) and node.name == "dumps")
    calls = [node for node in ast.walk(dumps) if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Attribute) and node.func.attr == "dumps"]
    assert len(calls) == 1
    assert [k.arg for k in calls[0].keywords if k.arg in ("default", "cls")] == []


def _fraction_imports(tree: ast.AST) -> list[int]:
    """Lines that import the fractions module or anything from it."""
    return [node.lineno for node in ast.walk(tree)
            if (isinstance(node, ast.ImportFrom) and node.module == "fractions")
            or (isinstance(node, ast.Import) and any(a.name == "fractions" for a in node.names))]


def test_only_twists_imports_fraction():
    imports = {module: _fraction_imports(tree) for module, tree in _trees().items()}
    assert {module for module, lines in imports.items() if lines} == {"twists"}


def test_the_fraction_rule_sees_each_form():
    forms = ["from fractions import Fraction", "import fractions", "from fractions import *"]
    assert [_fraction_imports(ast.parse(text)) for text in forms] == [[1]] * len(forms)


def _callers(tree: ast.AST, matches) -> list:
    """The name of the function around each call that matches, None for a call
    outside any function; a nested function is named for itself."""
    out = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and matches(child.func):
                out.append(owner)
            visit(child, child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
                  else owner)

    visit(tree, None)
    return out


def _groupoid_builders(tree: ast.AST) -> set:
    """The names of the functions that call FiniteGroupoid(...)."""
    return set(_callers(tree, lambda f: "FiniteGroupoid" in (getattr(f, "id", None),
                                                             getattr(f, "attr", None))))


def test_only_the_builders_write_groupoid_tables():
    builders = {(module, name) for module, tree in _trees().items()
                for name in _groupoid_builders(tree)}
    assert builders == {("groupoid", "group"), ("groupoid", "transformation_groupoid"),
                        ("groupoid", "full_relation"), ("groupoid", "disjoint_union"),
                        ("fileio", "groupoid_from_dict"), ("reconstruction", "rebuild_groupoid")}


def test_the_builder_rule_sees_each_form():
    forms = {"def f():\n    return FiniteGroupoid(n, e, u, s, r, i, c)": {"f"},
             "g = groupoid.FiniteGroupoid(n, e, u, s, r, i, c)": {None},
             "def f():\n    def h():\n        FiniteGroupoid()\n    return h": {"h"},
             "def f(g: FiniteGroupoid) -> FiniteGroupoid:\n    return group(n, e, m)": set()}
    assert {text: _groupoid_builders(ast.parse(text)) for text in forms} == forms


def test_the_library_map_names_every_module():
    text = README.read_text(encoding="utf-8")
    table = text[text.index("## Library map"):].split("\n\n")[1]  # the block after the heading
    named = {name for row in table.splitlines() for name in re.findall(r"`twistalg\.(\w+)`", row)}
    assert named == {path.stem for path in SRC.glob("*.py")} - {"__init__"}


def _file_reads(tree: ast.AST) -> list:
    """The function around each call of .read_bytes(), .read_text() or the builtin
    open(); os.read and os.fdopen, which the fan-out uses on its own pipes, are not."""
    return _callers(tree, lambda f: getattr(f, "attr", None) in ("read_bytes", "read_text")
                    or getattr(f, "id", None) == "open")


def test_only_read_input_reads_a_file():
    reads = [(module, owner) for module, tree in _trees().items() for owner in _file_reads(tree)]
    assert reads == [("fileio", "read_input")]


def test_the_file_read_rule_sees_each_form():
    forms = ["p.read_bytes()", "Path(p).read_text(encoding='utf-8')", "open(p)",
             "def f(p):\n    with open(p, 'rb') as f:\n        return f.read()"]
    assert [_file_reads(ast.parse(text)) for text in forms] == [[None], [None], [None], ["f"]]
    assert _file_reads(ast.parse("os.read(fd, 1)\nos.fdopen(fd, 'rb')\np.write_text(t)")) == []


def _bisection_walks(tree: ast.AST) -> list:
    """The function around each call of iter_bisections or all_bisections."""
    names = {"iter_bisections", "all_bisections"}
    return _callers(tree, lambda f: bool({getattr(f, "id", None), getattr(f, "attr", None)}
                                         & names))


def test_only_the_groupoid_and_the_expectation_suite_walk_bisections():
    walks = {(module, owner) for module, tree in _trees().items()
             for owner in _bisection_walks(tree) if module != "groupoid"}
    assert walks == {("suites", "expectation_suite")}


def test_the_bisection_walk_rule_sees_each_form():
    forms = {"for b in all_bisections(g):\n    pass": [None],
             "def f(g):\n    return groupoid.iter_bisections(g)": ["f"],
             "def f(g, s):\n    return is_bisection(g, s)": []}
    assert {text: _bisection_walks(ast.parse(text)) for text in forms} == forms
