"""The README's library example, and the public names it and the package use."""

import ast
import contextlib
import io
import re
from pathlib import Path

import latglue

README = Path(__file__).resolve().parent.parent / "README.md"


def library_example() -> str:
    section = README.read_text(encoding="utf-8").split("## Library example", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_example_prints_24():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(library_example(), str(README), "exec"), {})
    assert out.getvalue() == "24\n"


def loaded_names(tree: ast.Module) -> set[str]:
    """Names read as a ``Name`` or an ``Attribute``, each outside its own top-level definition."""
    names = set()
    for stmt in tree.body:
        found = set()
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                found.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                found.add(node.attr)
        found.discard(getattr(stmt, "name", None))
        names |= found
    return names


def test_every_public_name_has_a_caller():
    """Each name in ``latglue.__all__`` is used by a package module or by the README example.

    A name only the tests call is dead API: it is deleted, or moved into
    ``tests/oracles.py`` when a test needs it as a reference.
    """
    used = loaded_names(ast.parse(library_example()))
    for path in Path(latglue.__file__).parent.glob("*.py"):
        if path.name != "__init__.py":
            used |= loaded_names(ast.parse(path.read_text(encoding="utf-8")))
    assert sorted(set(latglue.__all__) - used) == []
