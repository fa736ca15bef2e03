"""Code that nothing but the tests calls does not live in ``src/``: every
public function, class and method of the package is named somewhere in the
package outside its own definition."""

import ast
from collections import Counter
from pathlib import Path

from corpus_forge.pipeline import STAGE_TABLE

SRC = Path(__file__).resolve().parents[1] / "src" / "corpus_forge"


def public_definitions(body):
    """Public functions and classes of a module body, and the public methods
    (and nested classes) of its classes."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not node.name.startswith("_"):
                yield node
            if isinstance(node, ast.ClassDef):
                yield from public_definitions(node.body)


def names_in(node) -> Counter:
    """How often each identifier is named by a ``Name`` or an ``Attribute``
    under ``node``; docstrings and other strings do not count."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    )


def test_every_public_definition_is_used_in_src():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    used = sum((names_in(tree) for tree in trees.values()), Counter())
    used.update(f"stage_{name}" for name in STAGE_TABLE)  # run_stage looks them up by key
    unused = [
        f"{module}:{node.lineno} {node.name}"
        for module, tree in trees.items()
        for node in public_definitions(tree.body)
        if used[node.name] <= names_in(node)[node.name]
    ]
    assert unused == []
