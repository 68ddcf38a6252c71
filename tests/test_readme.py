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


def attribute_reads(tree: ast.AST) -> set[str]:
    """Attribute names read in ``tree``, except each method's reads of its own name in its body."""
    names = set()

    def visit(node, own):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load) and node.attr != own:
            names.add(node.attr)
        for child in ast.iter_child_nodes(node):
            method = isinstance(node, ast.ClassDef) and isinstance(child, ast.FunctionDef)
            visit(child, child.name if method else own)

    visit(tree, None)
    return names


def test_every_public_class_member_has_a_caller():
    """Each public member (method, property) of a class in ``latglue.__all__`` is read as
    an attribute by a package module, outside that member's own body, or by the README example.

    The check goes by name, so a member is kept alive by a read of the same
    name on any object; a member no such read reaches is dead API.
    """
    used = attribute_reads(ast.parse(library_example()))
    for path in Path(latglue.__file__).parent.glob("*.py"):
        used |= attribute_reads(ast.parse(path.read_text(encoding="utf-8")))
    members = {f"{name}.{member}" for name in latglue.__all__
               if isinstance(getattr(latglue, name), type)
               for member in vars(getattr(latglue, name)) if not member.startswith("_")}
    assert sorted(m for m in members if m.split(".")[1] not in used) == []
