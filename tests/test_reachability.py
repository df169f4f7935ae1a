"""The package ships only what runs: every module-level function and class,
and every method that is not a dunder, is referenced somewhere in the
package other than its own definition and ``__init__.py``."""

import ast
import collections
import pathlib

import visco_pt

PACKAGE = pathlib.Path(visco_pt.__file__).parent

# Definitions kept without a caller in the package, each for a reason.
EXEMPT = (
    # Energy with its analytic gradient: acceptance test_11 checks the
    # gradient, and the planned per-step stationarity check will call it.
    "total_energy",
    # Linear Euler-Lagrange residual: acceptance test_08 certifies a linear
    # step with it, and the planned stationarity check serves both ledgers.
    "lin_el_residual",
)


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _definitions(tree):
    """(qualified name, name, node) of each module-level function and class
    and of each method that is not a dunder."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not _is_dunder(item.name):
                    yield f"{node.name}.{item.name}", item.name, item


def _references(node):
    """Counts of the names read in ``node`` as identifiers or attributes."""
    return collections.Counter(
        sub.id if isinstance(sub, ast.Name) else sub.attr
        for sub in ast.walk(node)
        if isinstance(sub, (ast.Name, ast.Attribute))
    )


def _modules():
    """The parsed modules of the package, ``__init__.py`` left out."""
    return {
        path.stem: ast.parse(path.read_text(), str(path))
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
    }


def test_every_definition_has_a_caller_in_the_package():
    modules = _modules()
    assert modules, PACKAGE
    everywhere = sum((_references(tree) for tree in modules.values()), collections.Counter())
    unused = [
        f"{module}.{qualified}"
        for module, tree in modules.items()
        for qualified, name, node in _definitions(tree)
        if name not in EXEMPT and everywhere[name] == _references(node)[name]
    ]
    assert not unused, "no caller in the package: " + ", ".join(unused)


def test_each_exemption_names_a_definition_without_a_caller():
    # An exemption that gains a caller, or loses its definition, is stale.
    modules = _modules().values()
    defined = {name for tree in modules for _, name, _ in _definitions(tree)}
    everywhere = sum((_references(tree) for tree in modules), collections.Counter())
    for name in EXEMPT:
        assert name in defined and everywhere[name] == 0, name
