"""Every module-level public name of the package is reached: from another
module of the package, from its own module past its definition, or from the
benchmark in perfbench/. A name that nothing reaches is surface to delete."""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = sorted((ROOT / "src" / "stepmath").glob("*.py"))
BENCH = sorted((ROOT / "perfbench").glob("*.py"))
sys.path.insert(0, str(ROOT / "perfbench"))

import spans  # noqa: E402
import workloads  # noqa: E402

# name -> why it stays with no caller
ALLOWED = {
    "datagen.sample_expression": "the sampling API the tests drive, one expression per record",
}


def _defined(tree: ast.Module):
    """(name, node) for each public name a module binds at its top level."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, ast.Assign):
            targets = [n.id for t in node.targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            targets = [node.target.id]
        else:
            continue
        for name in targets:
            if not name.startswith("_"):  # private names and dunders
                yield name, node


def _reached_from(tree: ast.Module, module: str) -> set:
    """Names of `module` that `tree` imports by name or reads as module.NAME."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == module:
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id == module:
            names.add(node.attr)
    return names


def test_every_public_name_is_reached():
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in SRC + BENCH}
    unreached = set()
    for path in SRC:
        module, tree = path.stem, trees[path]
        reached = set().union(*(_reached_from(trees[other], module)
                                for other in SRC + BENCH if other != path))
        for name, node in _defined(tree):
            used_past = any(isinstance(n, ast.Name) and n.id == name
                            and n.lineno > node.end_lineno for n in ast.walk(tree))
            if name not in reached and not used_past:
                unreached.add(f"{module}.{name}")
    assert unreached == set(ALLOWED)


# what `dataclass` generates from a class's fields
_GENERATED = {"__eq__", "__hash__", "__repr__", "__setattr__"}


def test_no_class_writes_what_dataclass_generates():
    """A class's equality, hash, repr and immutability come from `dataclass`,
    which lists its fields once: a hand-written one fails here."""
    written = set()
    for path in SRC:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef):
                written.update(f"{path.stem}.{node.name}.{f.name}" for f in node.body
                               if isinstance(f, ast.FunctionDef) and f.name in _GENERATED)
    assert written == set()


def test_every_benchmark_wrap_target_exists():
    """The benchmark's traced runs wrap package attributes by name: a renamed
    or deleted one fails here, not first in a `--trace 1` run."""
    tracer = spans.Tracer()
    workloads.instrument(tracer)
    patched = list(tracer._patched)
    try:
        assert patched
        for owner, attr, original in patched:
            assert getattr(owner, attr) is not original, f"{owner.__name__}.{attr}"
    finally:
        tracer.unwrap_all()
    assert all(getattr(owner, attr) is original for owner, attr, original in patched)
