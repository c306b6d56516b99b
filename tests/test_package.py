"""Package-wide properties that no single module's tests cover."""

import ast
import importlib
import pkgutil
from pathlib import Path

import numpy as np
import pytest

import squeezesim

MODULES = ["squeezesim"] + [f"squeezesim.{m.name}" for m in pkgutil.iter_modules(squeezesim.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_no_module_level_mutable_state(name):
    # a mutable global is state shared by every run in the process
    module = importlib.import_module(name)
    mutable = [
        key for key, value in vars(module).items()
        if not key.startswith("__")
        and (isinstance(value, (list, dict, set, bytearray))
             or isinstance(value, np.ndarray) and value.flags.writeable)
    ]
    assert mutable == [], name


def _private_definitions(tree) -> set[str]:
    """Module-level names with a leading _ (not dunders) that a def, a class
    or an assignment binds."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def test_no_dead_private_names():
    # a private helper that nothing in the package reads is code kept alive
    # for no caller
    package = Path(squeezesim.__file__).parent
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in package.glob("*.py")]
    read = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    defined = set().union(*map(_private_definitions, trees))
    assert sorted(defined - read) == []


def test_every_parameter_is_read():
    # a parameter that its function's body never reads is accepted and
    # ignored: callers pass it for nothing
    package = Path(squeezesim.__file__).parent
    unread = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            args = node.args
            params = args.posonlyargs + args.args + args.kwonlyargs
            params += [a for a in (args.vararg, args.kwarg) if a is not None]
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {
                n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
            }
            name = getattr(node, "name", "<lambda>")
            unread += [f"{path.name}:{node.lineno} {name}({a.arg})" for a in params if a.arg not in read]
    assert unread == []
