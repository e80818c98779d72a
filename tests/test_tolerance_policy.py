"""One tolerance policy: only ``distributions`` decides float closeness.

Every other module compares float answers through ``leq``/``close`` and the
bounds ``FLOAT_TOL`` and ``LEVEL_ROUNDING``.  The guard below reads each
module's source and fails on a tolerance of the module's own: a tiny float
literal inside a comparison, or a module constant bound to one.
"""

import ast
import os

from mixquant import distributions

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "mixquant")

#: Below this, a float literal reads as a tolerance rather than a value.
TINY = 1e-6


def _is_tiny(node: ast.AST) -> bool:
    """A float literal below ``TINY`` in magnitude, signed or not."""
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        node = node.operand
    if not (isinstance(node, ast.Constant) and isinstance(node.value, float)):
        return False
    return 0 < abs(node.value) < TINY


def _own_tolerances(tree: ast.Module) -> list:
    """Lines of tiny literals in comparisons and of module constants bound to one."""
    lines = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Compare) and any(_is_tiny(sub) for sub in ast.walk(node))
    ]
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets = [stmt.target]
        else:
            continue
        if _is_tiny(stmt.value):
            lines.append(stmt.lineno)
    return lines


def test_the_guard_catches_a_tolerance_of_its_own():
    for old in (
        "GRID_FLOAT_SLACK = 1e-9",
        "SLACK: float = 1e-9",
        "ok = abs(float(recombined) - float(p)) <= 1e-12",
        "ok = -1e-9 <= grid - s <= step + 1e-9",
        "WIDTH = 1e-14",
    ):
        assert _own_tolerances(ast.parse(old)) == [1], old
    for fine in ("lo = d.quantile(1e-7)", "TOL = 0.5", "ok = a <= b + 0.5"):
        assert _own_tolerances(ast.parse(fine)) == [], fine


def test_only_distributions_holds_float_tolerances():
    found = []
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py") and name != "distributions.py":
            with open(os.path.join(SRC, name), encoding="utf-8") as handle:
                tree = ast.parse(handle.read(), filename=name)
            found += [(name, line) for line in _own_tolerances(tree)]
    assert found == []


def test_distributions_states_the_two_bounds():
    assert distributions.FLOAT_TOL == 1e-9
    assert distributions.LEVEL_ROUNDING == 1e-12
