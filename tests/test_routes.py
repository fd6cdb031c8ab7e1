"""The independent routes share no code that could make them fail alike.

Each route is the closure of the module-level functions and classes of
knot.py, intersect.py and _kernels.py that its entry points reference,
followed through the names each module defines or imports from the other
two.  The closures are read from the source with ast, so a call added
from one route into the other fails here.
"""

import ast
from pathlib import Path

import branchknot

SRC = Path(branchknot.__file__).resolve().parent
MODULES = ("knot", "intersect", "_kernels")


def definitions() -> tuple:
    """({'module.name': node} of every module-level def and class of
    MODULES, {module: {name bound there: 'module.name' or module}})."""
    defs, scopes = {}, {}
    for mod in MODULES:
        scope = scopes[mod] = {}
        for node in ast.parse((SRC / f"{mod}.py").read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs[f"{mod}.{node.name}"] = node
                scope[node.name] = f"{mod}.{node.name}"
            elif isinstance(node, ast.ImportFrom) and node.level == 1:
                for a in node.names:
                    target = f"{node.module}.{a.name}" if node.module else a.name
                    scope[a.asname or a.name] = target
    return defs, scopes


DEFS, SCOPES = definitions()


def closure(*roots: str) -> set:
    """Every def of MODULES that the roots reach, the roots included."""
    assert set(roots) <= DEFS.keys(), set(roots) - DEFS.keys()
    seen, todo = set(), list(roots)
    while todo:
        name = todo.pop()
        if name in seen or name not in DEFS:
            continue
        seen.add(name)
        scope = SCOPES[name.partition(".")[0]]
        for node in ast.walk(DEFS[name]):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and scope.get(node.value.id) in MODULES):
                todo.append(f"{scope[node.value.id]}.{node.attr}")
            elif isinstance(node, ast.Name) and node.id in scope:
                todo.append(scope[node.id])
    return seen


def test_braid_and_gauss_share_only_the_slice():
    braid = closure("knot.braid_from_knot", "knot.algebraic_crossing_number")
    gauss = closure("knot.linking_number_gauss")
    assert "_kernels.linking_sum" in gauss
    assert braid & gauss == {"knot.KnotCurve"}


def test_oracle_shares_nothing_with_the_newton_search():
    newton = closure("intersect.find_double_points")
    assert {"intersect._merge_pairs", "intersect._frame",
            "_kernels.newton_double_points"} <= newton
    assert closure("intersect.brute_force_double_points") & newton == set()


def test_closure_follows_imports():
    # through a name imported from a sibling module and a module alias
    assert {"intersect.find_double_points",
            "_kernels.newton_double_points"} <= closure("knot._search")
