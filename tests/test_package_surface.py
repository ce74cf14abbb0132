"""The package holds no code that only the tests use.

Every function, method and class defined in ``src/dpctomo`` must be
referenced by name from the package itself, the benchmark or the docs:
as a name, an attribute, an imported name, or a string that is exactly
the name (the benchmark traces functions by their names).  Definitions
whose own name is their only mention, and test-only helpers, belong in
``tests/``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "dpctomo"
USERS = (ROOT / "src", ROOT / "benchmarks", ROOT / "docs")

# kept though nothing calls them: they document a layout for readers
ALLOWED = {
    "Image.as_matrix",  # the (n_y, n_x) view that hides the column-major order
}


def definitions(tree, prefix=""):
    """(qualified name, name) of each function and class, nested ones too."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield prefix + node.name, node.name
            yield from definitions(node, prefix + node.name + ".")
        else:
            yield from definitions(node, prefix)


def referenced_names():
    names = set()
    for folder in USERS:
        for path in folder.rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.alias):
                    names.add(node.name.rsplit(".", 1)[-1])
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    if node.value.isidentifier():
                        names.add(node.value)
    return names


def test_every_definition_is_used_outside_the_tests():
    used = referenced_names()
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for qualified, name in definitions(tree):
            dunder = name.startswith("__") and name.endswith("__")
            if not dunder and name not in used and qualified not in ALLOWED:
                unused.append(f"{path.name}: {qualified}")
    assert not unused, "defined in the package but used only by tests, if at all: " + ", ".join(
        unused
    )


def test_allowlist_names_real_definitions():
    defined = set()
    for path in PACKAGE.glob("*.py"):
        defined.update(q for q, _ in definitions(ast.parse(path.read_text(), str(path))))
    assert ALLOWED <= defined
