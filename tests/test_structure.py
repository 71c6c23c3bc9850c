"""Structural checks over the package source, read with ``ast``."""

import ast
import pathlib
from collections import Counter

import resbdy

PACKAGE = pathlib.Path(resbdy.__file__).parent
MODULES = {path.name: ast.parse(path.read_text(), filename=str(path))
           for path in sorted(PACKAGE.glob("*.py"))}
# the benchmark harness reads the package as a client does
BENCH = [ast.parse(path.read_text(), filename=str(path)) for path in
         sorted((PACKAGE.parents[1] / "perfbench").glob("*.py"))]

# argparse calls a parser's ``error`` itself
CALLED_FROM_OUTSIDE = {("cli.py", "_Parser.error")}
# exported for the Gel'fand triple's seminorms, which the ONB identity suite
# does not report yet
EXPORTED_UNREAD = {"reconstruction_check", "number_operator", "p_seminorm",
                   "number_pairing_check"}
# network -> boundary -> solver -> network would cycle at import time
LAZY_IMPORTS = {("network.py", "x_rail_path", "PathToInfinity"),
                ("network.py", "y_rail_path", "PathToInfinity")}


def _references(tree, names=True):
    """Every name read as an attribute, and with ``names`` as a bare name,
    with its count."""
    refs = Counter()
    for node in ast.walk(tree):
        if names and isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            refs[node.id] += 1
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            refs[node.attr] += 1
    return refs


def _reads(trees, names=True):
    return sum((_references(tree, names) for tree in trees), Counter())


def _exported():
    return {alias.asname or alias.name
            for node in MODULES["__init__.py"].body
            if isinstance(node, ast.ImportFrom) for alias in node.names}


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
    refs = _reads(MODULES.values())
    # a method is read as an attribute, by the package or the benchmark; a
    # local variable of the same name is no consumer
    attrs = _reads([*MODULES.values(), *BENCH], names=False)
    exported = _exported()
    unused = []
    for module, name, node in _definitions():
        short = node.name
        if "." in name:
            read = attrs[short] - _references(node, names=False)[short]
        else:
            # a function that only calls itself has no consumer
            read = refs[short] - _references(node)[short] or short in exported
        if not read and (module, name) not in CALLED_FROM_OUTSIDE:
            unused.append(f"{module}:{name}")
    assert unused == []


def test_every_exported_function_is_read_by_the_package_or_the_benchmark():
    functions = {node.name: node for tree in MODULES.values()
                 for node in tree.body if isinstance(node, ast.FunctionDef)}
    package, bench = _reads(MODULES.values()), _reads(BENCH)
    unread = {short for short in _exported() & functions.keys()
              if package[short] - _references(functions[short])[short]
              + bench[short] == 0}
    assert unread == EXPORTED_UNREAD


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
