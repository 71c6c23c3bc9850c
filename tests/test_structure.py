"""Structural checks over the package source, read with ``ast``."""

import ast
import pathlib
from collections import Counter

import resbdy

PACKAGE = pathlib.Path(resbdy.__file__).parent
MODULES = {path.name: ast.parse(path.read_text(), filename=str(path))
           for path in sorted(PACKAGE.glob("*.py"))}

# argparse calls a parser's ``error`` itself
CALLED_FROM_OUTSIDE = {("cli.py", "_Parser.error")}
# network -> boundary -> solver -> network would cycle at import time
LAZY_IMPORTS = {("network.py", "x_rail_path", "PathToInfinity"),
                ("network.py", "y_rail_path", "PathToInfinity")}


def _references(tree):
    """Every name read as a bare name or as an attribute, with its count."""
    refs = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            refs[node.id] += 1
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            refs[node.attr] += 1
    return refs


def _definitions():
    """(module, qualified name, node) of every module-level function and
    every method of a module-level class, dunders excluded."""
    for module, tree in MODULES.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                yield module, node.name, node
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (isinstance(item, ast.FunctionDef)
                            and not (item.name.startswith("__")
                                     and item.name.endswith("__"))):
                        yield module, f"{node.name}.{item.name}", item


def test_every_function_has_a_consumer_or_is_exported():
    refs = sum((_references(tree) for tree in MODULES.values()), Counter())
    exported = {alias.asname or alias.name
                for node in MODULES["__init__.py"].body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    unused = []
    for module, name, node in _definitions():
        short = node.name
        # a function that only calls itself has no consumer
        outside = refs[short] - _references(node)[short]
        if (outside == 0 and short not in exported
                and (module, name) not in CALLED_FROM_OUTSIDE):
            unused.append(f"{module}:{name}")
    assert unused == []


def test_no_function_imports_from_the_package():
    inner = []
    for module, tree in MODULES.items():
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            for node in ast.walk(fn):
                if (isinstance(node, ast.ImportFrom)
                        and (node.level or node.module.split(".")[0] == "resbdy")):
                    inner += [(module, fn.name, alias.name) for alias in node.names
                              if (module, fn.name, alias.name) not in LAZY_IMPORTS]
                elif isinstance(node, ast.Import):
                    inner += [(module, fn.name, alias.name) for alias in node.names
                              if alias.name.split(".")[0] == "resbdy"]
    assert inner == []
