"""The one roundoff policy is written once, in matrices.renormalized.

No module of the package other than matrices.py divides by a
``.sum(..., keepdims=True)``, with ``/``, ``/=`` or np.divide.  Every row
renormalization of a product or of normalized weights goes through
matrices.renormalized, so every code path rounds a product the same way.
"""

import ast
import pathlib

import pytest

import degrootnet

PACKAGE = pathlib.Path(degrootnet.__file__).parent
MODULES = sorted(path.name for path in PACKAGE.glob("*.py") if path.name != "matrices.py")


def _keepdims_sum(node):
    """True iff ``node`` is a call ``<x>.sum(..., keepdims=<anything but False>)``."""
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "sum"
            and any(k.arg == "keepdims" and not (isinstance(k.value, ast.Constant) and k.value.value is False)
                    for k in node.keywords))


def offences(source):
    """Line of each division by a keepdims sum in ``source``."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            divisor = node.right if isinstance(node, ast.BinOp) else node.value
        elif (isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute))
              and getattr(node.func, "attr", getattr(node.func, "id", None)) in ("divide", "true_divide")
              and len(node.args) >= 2):
            divisor = node.args[1]
        else:
            continue
        if _keepdims_sum(divisor):
            yield node.lineno


@pytest.mark.parametrize("module", MODULES)
def test_no_row_division_outside_matrices(module):
    assert list(offences((PACKAGE / module).read_text())) == []


@pytest.mark.parametrize("source, lines", [
    ("p = prod / prod.sum(axis=1, keepdims=True)", [1]),
    ("prods /= prods.sum(axis=2, keepdims=True)", [1]),
    ("w = a / a.sum(axis=-1, keepdims=1)", [1]),
    ("q = f(p / p.sum(keepdims=True))", [1]),
    ("np.divide(p, p.sum(axis=2, keepdims=True), out=p)", [1]),
    ("x = (\n    p\n    / p.sum(axis=1, keepdims=True))", [2]),
    ("p = renormalized(p)", []),
    ("m = p.mean(axis=1, keepdims=True)", []),
    ("c = p - p.sum(axis=1, keepdims=True)", []),
    ("r = rows / out.sum(axis=2)[:, i]", []),
    ("r = p / p.sum(axis=1, keepdims=False)", []),
    ("r = p.sum(axis=1, keepdims=True) / 2", []),
])
def test_guard_flags_what_it_names(source, lines):
    assert list(offences(source)) == lines
