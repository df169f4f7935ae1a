"""The package ships only what runs: every module-level function and class,
and every method that is not a dunder, is reached by following the names
that reached code reads, transitively, from ``cli.main``, from the
module-level code of each module (with the bases and decorators of its
definitions, which run at import), and from the exempt names.

Names are matched by name alone, as an identifier or an attribute: reaching
``x.solve`` reaches every definition named ``solve``. A reached class runs
what its definition holds apart from its methods that are not dunders (its
bases, decorators, fields and dunder methods); each of those is reached by
its own name."""

import ast
import pathlib

import visco_pt

PACKAGE = pathlib.Path(visco_pt.__file__).parent

# The entry point of every command.
ROOTS = ("main",)

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


def _is_method(item):
    return isinstance(item, ast.FunctionDef) and not _is_dunder(item.name)


def _definitions(tree):
    """(qualified name, name, node) of each module-level function and class
    and of each method that is not a dunder."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if _is_method(item):
                    yield f"{node.name}.{item.name}", item.name, item


def _reads(nodes):
    """The names read in ``nodes`` as identifiers or attributes."""
    return {
        sub.id if isinstance(sub, ast.Name) else sub.attr
        for node in nodes
        for sub in ast.walk(node)
        if isinstance(sub, (ast.Name, ast.Attribute))
    }


def _runs(node):
    """The nodes a definition runs once it is reached."""
    if isinstance(node, ast.ClassDef):
        return [item for item in node.body if not _is_method(item)]
    return [node]


def _module_level(tree):
    """The nodes a module runs at import: its statements other than
    definitions, and the bases, keywords and decorators of those."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            yield from node.bases + node.keywords + node.decorator_list
        elif isinstance(node, ast.FunctionDef):
            yield from node.decorator_list
        else:
            yield node


def _modules():
    """The parsed modules of the package, ``__init__.py`` left out."""
    return {
        path.stem: ast.parse(path.read_text(), str(path))
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
    }


def _reached(modules):
    """Every name reached from the roots, the module-level code and the
    exemptions."""
    by_name = {}
    for tree in modules.values():
        for _, name, node in _definitions(tree):
            by_name.setdefault(name, []).append(node)
    start = [node for tree in modules.values() for node in _module_level(tree)]
    pending = set(ROOTS + EXEMPT) | _reads(start)
    reached = set()
    while pending:
        name = pending.pop()
        reached.add(name)
        for node in by_name.get(name, ()):
            pending |= _reads(_runs(node)) - reached
    return reached


def test_every_definition_has_a_caller_in_the_package():
    modules = _modules()
    assert modules, PACKAGE
    reached = _reached(modules)
    unused = [
        f"{module}.{qualified}"
        for module, tree in modules.items()
        for qualified, name, _ in _definitions(tree)
        if name not in reached
    ]
    assert not unused, "not reached from the commands: " + ", ".join(unused)


def test_the_walk_follows_references_transitively():
    # A chain of definitions that only call each other is dead however long
    # it is, and it is reached once a live definition calls its head.
    chain = ast.parse(
        "def _a():\n    return _b()\n\n"
        "def _b():\n    return _c()\n\n"
        "class _C:\n    def used(self):\n        return 1\n\n"
        "    def unused(self):\n        return 2\n\n"
        "def _c():\n    return _C().used()\n"
    )
    dead = _reached({"chain": chain})
    assert not {"_a", "_b", "_c", "_C", "used", "unused"} & dead
    live = _reached({"chain": chain, "entry": ast.parse("def main():\n    return _a()\n")})
    assert {"main", "_a", "_b", "_c", "_C", "used"} <= live
    assert "unused" not in live


def test_each_exemption_names_a_definition_without_a_caller():
    # An exemption that gains a caller, or loses its definition, is stale.
    modules = _modules().values()
    defined = {name for tree in modules for _, name, _ in _definitions(tree)}
    everywhere = _reads(modules)
    for name in EXEMPT:
        assert name in defined and name not in everywhere, name
