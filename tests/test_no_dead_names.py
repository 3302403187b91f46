"""Every module-level name in ``src/entdex`` is used somewhere in the package.

A function, class or assigned name at the top of a module counts as used
when some other place in ``src/entdex/*.py`` reads it: as a name, as an
attribute, or as a name imported from a module.  Its own definition (a
function's body, a class's body, the target of its assignment) does not
count, so a recursive helper or a constant that only names itself is dead.
Dunder names are left out.
"""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "entdex"
TREES = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}


def _definitions(tree):
    """(name, node) of each module-level function, class and assigned name."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id, name


def _references(tree, skip):
    """Every name ``tree`` reads, outside the nodes of ``skip``."""
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)
        stack.extend(ast.iter_child_nodes(node))


def test_every_module_level_name_is_used():
    read = {module: set(_references(tree, None)) for module, tree in TREES.items()}
    defined, dead = 0, []
    for module, tree in TREES.items():
        elsewhere = set().union(*(names for other, names in read.items() if other != module))
        for name, node in _definitions(tree):
            if name.startswith("__") and name.endswith("__"):
                continue
            defined += 1
            if name not in elsewhere and name not in set(_references(tree, node)):
                dead.append(f"{module}:{name}")
    assert defined > 50  # the walk found the package's names
    assert dead == []
