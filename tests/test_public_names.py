"""Every public function and class of ``puhda`` has a user outside the tests.

A public module-level name of ``src/puhda`` must be referenced in the code of
``src/puhda`` or ``perfbench``, or named in ``README.md``; a name only the
tests call is dead code in the package. In code, a reference is a name, an
attribute or an import; a mention in a docstring or comment does not count.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "puhda"


def _definitions(tree: ast.Module) -> set[str]:
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return {node.name for node in tree.body
            if isinstance(node, kinds) and not node.name.startswith("_")}


def _references(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
    return names


def test_every_public_name_of_the_package_is_used_outside_the_tests():
    modules = {path: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    bench = [ast.parse(path.read_text()) for path in sorted((ROOT / "perfbench").glob("*.py"))]
    used = set().union(*map(_references, [*modules.values(), *bench]))
    used |= set(re.findall(r"\w+", (ROOT / "README.md").read_text()))
    unused = sorted(f"{path.stem}.{name}" for path, tree in modules.items()
                    for name in _definitions(tree) - used)
    assert unused == [], f"public names no code outside the tests uses: {unused}"
