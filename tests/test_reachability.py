"""The package ships only what runs: every module-level function and class,
and every method that is not a dunder, is reached by following the names
that reached code reads, transitively, from ``cli.main``, from the
module-level code of each module (with the bases and decorators of its
definitions, which run at import), and from the exempt names.

Names are matched by name alone: reading ``x.solve`` reaches every
definition named ``solve``. A module-level definition is reached by its name
read as an identifier or an attribute, a method only as an attribute, so a
local variable that shares a method's name does not reach it. A reached
class runs what its definition holds apart from its methods that are not
dunders (its bases, decorators, fields and dunder methods); each of those
is reached by its own name."""

import ast
import pathlib

import visco_pt

PACKAGE = pathlib.Path(visco_pt.__file__).parent

# The entry point of every command.
ROOTS = ("main",)

# Definitions kept without a caller in the package, each for a reason; a
# method by its qualified name.
EXEMPT = (
    # Energy with its analytic gradient: acceptance test_11 checks the
    # gradient, test_08 certifies a linear step with it, and the planned
    # per-step stationarity check will call it.
    "total_energy",
    # psi': the planned per-step stationarity check takes the gradient from
    # the model's densities, the dissipation's with it.
    "MaterialModel.dpsi",
)


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _is_method(item):
    return isinstance(item, ast.FunctionDef) and not _is_dunder(item.name)


def _key(qualified):
    """The read that reaches a definition: its name for a module-level one,
    ``.name`` for a method ``Class.name``."""
    return "." + qualified.split(".")[1] if "." in qualified else qualified


def _definitions(tree):
    """(qualified name, key, node) of each module-level function and class
    and of each method that is not a dunder."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if _is_method(item):
                    qualified = f"{node.name}.{item.name}"
                    yield qualified, _key(qualified), item


def _reads(nodes):
    """The keys read in ``nodes``: an identifier as its name, an attribute
    as its name (a module-level definition) and as ``.name`` (a method)."""
    keys = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                keys.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                keys |= {sub.attr, "." + sub.attr}
    return keys


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
    by_key = {}
    for tree in modules.values():
        for _, key, node in _definitions(tree):
            by_key.setdefault(key, []).append(node)
    start = [node for tree in modules.values() for node in _module_level(tree)]
    pending = {_key(name) for name in ROOTS + EXEMPT} | _reads(start)
    reached = set()
    while pending:
        key = pending.pop()
        reached.add(key)
        for node in by_key.get(key, ()):
            pending |= _reads(_runs(node)) - reached
    return reached


def test_every_definition_has_a_caller_in_the_package():
    modules = _modules()
    assert modules, PACKAGE
    reached = _reached(modules)
    unused = [
        f"{module}.{qualified}"
        for module, tree in modules.items()
        for qualified, key, _ in _definitions(tree)
        if key not in reached
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
    assert not {"_a", "_b", "_c", "_C", ".used", ".unused"} & dead
    live = _reached({"chain": chain, "entry": ast.parse("def main():\n    return _a()\n")})
    assert {"main", "_a", "_b", "_c", "_C", ".used"} <= live
    assert ".unused" not in live


def test_a_method_is_reached_only_by_an_attribute_read():
    # A local variable named like a method does not reach it; an attribute
    # read does, and reaches a module-level definition of that name too.
    methods = ast.parse(
        "class _C:\n    def slope(self):\n        return 1\n\n"
        "def slope():\n    return 2\n"
    )
    local = ast.parse("def main():\n    slope = _C()\n    return slope\n")
    assert ".slope" not in _reached({"methods": methods, "entry": local})
    read = ast.parse("def main():\n    return _C().slope()\n")
    assert {"slope", ".slope"} <= _reached({"methods": methods, "entry": read})


def test_each_exemption_names_a_definition_without_a_caller():
    # An exemption that gains a caller, or loses its definition, is stale.
    modules = _modules().values()
    defined = {qualified for tree in modules for qualified, _, _ in _definitions(tree)}
    everywhere = _reads(modules)
    for name in EXEMPT:
        assert name in defined and _key(name) not in everywhere, name
