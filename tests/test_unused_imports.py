"""No module of the package imports a name it never uses, and the
package defines no top-level function or class that nothing reads.

No linter is part of the toolchain, so these are small stdlib ``ast``
checks.  A name counts as used in a module when it is read anywhere in
it, appears in a quoted annotation, or is listed in ``__all__``.  A
top-level definition is live when it is in ``edgeideals.__all__``, is
``cli.main`` (the ``eil`` entry point), or is used in some module of the
package, as a name or as an attribute.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "edgeideals"
MODULES = sorted(PACKAGE.glob("*.py"))


def annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]:
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def used_names(tree):
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                quoted = ast.parse(node.value, mode="eval")
                used |= {n.id for n in ast.walk(quoted) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return used


def imported_names(tree):
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def unused_imports(source):
    tree = ast.parse(source)
    used = used_names(tree)
    return [(name, line) for name, line in imported_names(tree) if name not in used]


@pytest.mark.parametrize("module", MODULES, ids=[m.name for m in MODULES])
def test_module_uses_every_name_it_imports(module):
    assert unused_imports(module.read_text(encoding="utf-8")) == []


def test_check_flags_an_unused_import_and_passes_a_used_one():
    source = (
        "from typing import Iterable, Sequence\n"
        "import os\n"
        "from .monomials import Variable\n"
        "def f(x: 'Sequence[int]') -> int:\n"
        "    return os.sep\n"
    )
    assert unused_imports(source) == [("Iterable", 1), ("Variable", 3)]


def dead_definitions(sources):
    """(module, name, line) of each top-level function or class in
    ``sources`` (module name -> source) that no module uses."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    used = set()
    for tree in trees.values():
        used |= used_names(tree) | {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    return [
        (module, node.name, node.lineno)
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name not in used
        and (module, node.name) != ("cli", "main")
    ]


def test_package_defines_nothing_that_nothing_reads():
    sources = {m.stem: m.read_text(encoding="utf-8") for m in MODULES}
    assert dead_definitions(sources) == []


def test_check_flags_a_dead_helper_and_passes_live_ones():
    sources = {
        "__init__": "from .core import api\n__all__ = ['api']\n",
        "core": (
            "def api():\n    return _used() + Box().size\n"
            "def _used():\n    return 1\n"
            "class Box:\n    size = 2\n"
            "def _dead():\n    return 3\n"
            "def _by_attribute():\n    return 4\n"
        ),
        "cli": "from . import core\ndef main():\n    return core._by_attribute()\n",
    }
    assert dead_definitions(sources) == [("core", "_dead", 7)]


def test_check_flags_a_dead_class_and_a_main_outside_the_cli():
    sources = {
        "core": "class _Dead:\n    pass\ndef main():\n    return 1\n",
        "cli": "def main():\n    return 0\n",
    }
    assert dead_definitions(sources) == [("core", "_Dead", 1), ("core", "main", 3)]


def test_check_counts_a_quoted_annotation_as_a_use():
    sources = {
        "core": "class Box:\n    pass\ndef f(b: 'Box') -> 'list[Box]':\n    return [b]\n",
        "cli": "from .core import f\ndef main():\n    return f(None)\n",
    }
    assert dead_definitions(sources) == []
