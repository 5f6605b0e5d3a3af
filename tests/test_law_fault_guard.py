"""The CLI maps the library's law faults to usage errors in one place.

A law outside a method's scope comes back from the library as Unsupported,
NotIid, BalanceViolation or SizeLimit, raised by its law checks before any
replica runs.  cli._LAW_FAULTS names these once, and a handler reports them
with ``_user_input(flag, _LAW_FAULTS)``.  No ``except`` clause in cli.py
outside _user_input names one of them, or _LAW_FAULTS, so no handler works
out on its own which flag a fault came from.
"""

import ast
import pathlib

import pytest

import degrootnet

CLI = pathlib.Path(degrootnet.__file__).parent / "cli.py"
NAMES = {"Unsupported", "NotIid", "BalanceViolation", "SizeLimit", "_LAW_FAULTS"}


def offences(source):
    """Line of each ``except`` clause that names a law fault, outside the function _user_input."""
    tree = ast.parse(source)
    allowed = {id(node) for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef) and fn.name == "_user_input"
               for node in ast.walk(fn)}
    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler) and node.type is not None and id(node) not in allowed:
            named = {sub.id if isinstance(sub, ast.Name) else sub.attr for sub in ast.walk(node.type)
                     if isinstance(sub, (ast.Name, ast.Attribute))}
            if named & NAMES:
                yield node.lineno


def test_no_law_fault_is_caught_outside_user_input():
    assert list(offences(CLI.read_text())) == []


@pytest.mark.parametrize("source, lines", [
    ("try:\n    f()\nexcept SizeLimit:\n    pass", [3]),
    ("try:\n    f()\nexcept (NotIid, Unsupported) as exc:\n    raise", [3]),
    ("try:\n    f()\nexcept errors.BalanceViolation:\n    pass", [3]),
    ("def g():\n    try:\n        f()\n    except _LAW_FAULTS:\n        pass", [4]),
    ("def _user_input(what, faults):\n    try:\n        yield\n    except faults:\n        raise\n"
     "    except Unsupported:\n        raise", []),
    ("try:\n    f()\nexcept (ValueError, DegrootNetError):\n    pass", []),
    ("try:\n    f()\nexcept:\n    pass", []),
])
def test_guard_flags_what_it_names(source, lines):
    assert list(offences(source)) == lines
