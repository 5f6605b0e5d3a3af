"""Every name the package exports has a caller.

Each name that src/degrootnet/__init__.py imports for export must occur
somewhere that uses it: as a Python name (a NAME token, so not in a string,
a comment or a docstring) in a module of the package other than __init__.py
or in the acceptance criteria in tests/test_acceptance.py, or as a whole
word anywhere in perfbench/, whose tracer patches functions by name.  Its
own ``def`` or ``class`` statement is no caller.  A unit test alone does
not count.  The names in
LIBRARY_ONLY are exported for library users with no such caller; each must
stay exported and stay otherwise unreferenced, so the list cannot rot.
"""

import ast
import functools
import io
import pathlib
import re
import tokenize

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "degrootnet"

LIBRARY_ONLY = {
    "lyapunov_exponent": "the almost-sure contraction rate, to be checked against ROADMAP item 2's exact bound",
    "check_mic3_rates": "the paper's balance-growth condition on a family of Dirichlet weights",
    "skeleton_is_primitive": "the exact (Wielandt-bound) consensus criterion for a static network",
}


def exported_names():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return [alias.asname or alias.name for node in tree.body if isinstance(node, ast.ImportFrom)
            for alias in node.names]


def _caller_sources():
    paths = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    paths += sorted((ROOT / "perfbench").rglob("*.py")) + [ROOT / "tests" / "test_acceptance.py"]
    return {path.relative_to(ROOT).as_posix(): path.read_text() for path in paths}


SOURCES = _caller_sources()
EXPORTED = exported_names()


@functools.cache
def _definitions(text):
    """(name, first line, last line) of each def and class statement in ``text``."""
    return [(node.name, node.lineno, node.end_lineno) for node in ast.walk(ast.parse(text))
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))]


def _own_lines(name, text):
    """The lines of every def or class statement named ``name`` in ``text``."""
    return {k for own, first, last in _definitions(text) if own == name for k in range(first, last + 1)}


@functools.cache
def _name_lines(text):
    """{name: lines} of the NAME tokens in ``text``."""
    lines = {}
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type == tokenize.NAME:
            lines.setdefault(tok.string, []).append(tok.start[0])
    return lines


def _occurrences(name, path, text):
    """The lines where ``name`` occurs: as a whole word in perfbench/, as a NAME token elsewhere."""
    if path.startswith("perfbench/"):
        word = re.compile(rf"\b{re.escape(name)}\b")
        return [k for k, line in enumerate(text.splitlines(), 1) if word.search(line)]
    return sorted(set(_name_lines(text).get(name, ())))


def references(name, sources=SOURCES):
    """(file, line) of each occurrence of ``name`` outside its own def or class statement."""
    hits = []
    for path, text in sources.items():
        lines = _occurrences(name, path, text)
        if lines:
            own = _own_lines(name, text)
            hits += [(path, k) for k in lines if k not in own]
    return hits


@pytest.mark.parametrize("name", sorted(set(EXPORTED) - set(LIBRARY_ONLY)))
def test_exported_name_has_a_caller(name):
    assert references(name), f"{name} is exported but nothing outside its unit tests uses it"


@pytest.mark.parametrize("name", sorted(LIBRARY_ONLY))
def test_library_only_name_is_exported_and_has_no_other_caller(name):
    assert name in EXPORTED
    assert references(name) == []


@pytest.mark.parametrize("sources, hits", [
    ({"a.py": "def helper(x):\n    return x\n"}, []),
    ({"a.py": "class helper:\n    pass\n"}, []),
    ({"a.py": "def helper(x):\n    raise ValueError('helper needs x')\n"}, []),
    ({"a.py": "y = helper_two(1)\nz = my_helper\n"}, []),
    ({"a.py": "def f():\n    return helper(1)\n"}, [("a.py", 2)]),
    ({"a.py": "from .m import helper\n", "perfbench/b.py": "'engine.helper'\n"},
     [("a.py", 1), ("perfbench/b.py", 1)]),
    ({"a.py": "p.add_argument('--x', help='helper of x')\nq = 'x'  # a helper\n"}, []),
    ({"a.py": "def f():\n    \"\"\"Calls helper.\"\"\"\n    return 'helper'\n"}, []),
    ({"a.py": "x = engine.helper(\n    1)\n"}, [("a.py", 1)]),
])
def test_guard_finds_what_it_names(sources, hits):
    assert references("helper", sources) == hits
