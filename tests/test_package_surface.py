"""The package holds no code, and no option, that only the tests use.

Every function, method and class defined in ``src/dpctomo`` must be
referenced by name from the package itself, the benchmark or the docs:
as a name, an attribute, an imported name, or a string that is exactly
the name (the benchmark traces functions by their names).  Definitions
whose own name is their only mention, and test-only helpers, belong in
``tests/``.  Likewise every parameter or field with a default must be
set by some call there.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "dpctomo"
USERS = (ROOT / "src", ROOT / "benchmarks", ROOT / "docs")

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
            if not dunder and name not in used:
                unused.append(f"{path.name}: {qualified}")
    assert not unused, "defined in the package but used only by tests, if at all: " + ", ".join(
        unused
    )


def is_dataclass(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return False


def is_default_factory(value) -> bool:
    return isinstance(value, ast.Call) and any(
        kw.arg == "default_factory" for kw in value.keywords
    )


def settable_options(tree):
    """(callee name, parameter name, positional index or None) of each
    parameter and dataclass field that has a default.  A method's index
    leaves out ``self``; ``__init__`` is called by its class's name."""
    owner = {}  # id of each method's node -> its class's name
    for cls in [n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)]:
        owner.update((id(fn), cls.name) for fn in cls.body if isinstance(fn, ast.FunctionDef))
        if is_dataclass(cls):
            fields = [n for n in cls.body if isinstance(n, ast.AnnAssign)]
            for index, node in enumerate(fields):
                if node.value is not None and not is_default_factory(node.value):
                    yield cls.name, node.target.id, index
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in fn.decorator_list)
        skip = 1 if id(fn) in owner and not static else 0
        callee = owner[id(fn)] if fn.name == "__init__" else fn.name
        positional = (fn.args.posonlyargs + fn.args.args)[skip:]
        first_default = len(positional) - len(fn.args.defaults)
        for index, arg in enumerate(positional[first_default:], start=first_default):
            yield callee, arg.arg, index
        for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
            if default is not None:
                yield callee, arg.arg, None


def passed_arguments():
    """Per callee name: the keywords passed to it, the largest number of
    positional arguments, and whether any call spreads a mapping."""
    keywords, positions, spread = {}, {}, set()
    for folder in USERS:
        for path in folder.rglob("*.py"):
            for call in ast.walk(ast.parse(path.read_text(), str(path))):
                if not isinstance(call, ast.Call):
                    continue
                func = call.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name is None:
                    continue
                starred = any(isinstance(a, ast.Starred) for a in call.args)
                count = float("inf") if starred else len(call.args)
                positions[name] = max(positions.get(name, 0), count)
                for kw in call.keywords:
                    if kw.arg is None:
                        spread.add(name)
                    else:
                        keywords.setdefault(name, set()).add(kw.arg)
    return keywords, positions, spread


def test_every_option_is_set_outside_the_tests():
    """A parameter or dataclass field with a default must be passed by
    some call in ``src/``, ``benchmarks/`` or ``docs/``: by keyword, by
    position past its index, or through ``**``.  Calls are matched by the
    callee's name alone, so a same-named callee elsewhere can hide an
    unused option, and a ``**`` call counts as setting every field of its
    callee.  ``default_factory`` fields are containers filled in place,
    not options, and are skipped."""
    keywords, positions, spread = passed_arguments()
    unset = []
    for path in sorted(PACKAGE.glob("*.py")):
        for callee, name, index in settable_options(ast.parse(path.read_text(), str(path))):
            passed = (
                name in keywords.get(callee, ())
                or callee in spread
                or (index is not None and positions.get(callee, 0) > index)
            )
            if not passed:
                unset.append(f"{path.name}: {callee}({name})")
    assert not unset, "options with a default that only the tests set: " + ", ".join(unset)
