"""Each numerical test a consensus verdict rests on is written once, in matrices.

No module of the package other than matrices.py compares anything against
ZERO_TOL or RANK_REL_TOL, as an operand or inside one, or calls
np.linalg.svd.  Those comparisons and the SVD with its failure handling go
through matrices' stack forms (consensus_gaps, strictly_positive, skeletons,
numeric_ranks), so every code path decides a verdict by the same expression.
"""

import ast
import pathlib

import pytest

import degrootnet

PACKAGE = pathlib.Path(degrootnet.__file__).parent
TOLERANCES = {"ZERO_TOL", "RANK_REL_TOL"}
MODULES = sorted(path.name for path in PACKAGE.glob("*.py") if path.name != "matrices.py")


def _name(node):
    return node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else None


def offences(source):
    """(line, what) for each tolerance comparison and each SVD call in ``source``."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Compare) and TOLERANCES.intersection(map(_name, ast.walk(node))):
            yield node.lineno, "comparison against a tolerance"
        elif isinstance(node, ast.Call) and _name(node.func) == "svd":
            yield node.lineno, "svd call"


@pytest.mark.parametrize("module", MODULES)
def test_no_tolerance_comparison_or_svd_outside_matrices(module):
    assert list(offences((PACKAGE / module).read_text())) == []


@pytest.mark.parametrize("source, lines", [
    ("ok = prod.min(axis=(1, 2)) > ZERO_TOL", [1]),
    ("ok = mn.min() > m.ZERO_TOL", [1]),
    ("r = (sv > RANK_REL_TOL * sv[:, :1]).sum()", [1]),
    ("mask = SkeletonMask(\n    e > ZERO_TOL)", [2]),
    ("sv = np.linalg.svd(a, compute_uv=False)", [1]),
    ("sv = svd(a)", [1]),
    ("ok = np.allclose(e, e.T, atol=ZERO_TOL)", []),
    ("tol = max(RANK_REL_TOL, 0.1)", []),
    ("ok = gap <= gap_tol", []),
])
def test_guard_flags_what_it_names(source, lines):
    assert [line for line, _ in offences(source)] == lines
