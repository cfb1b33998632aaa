"""Every module-level import in ``src/repro`` is used by its own module.

An import nothing reads is dead weight: it costs start-up time, hides which
modules really depend on each other and outlives the code that needed it.
A name bound by a module-level import (including those inside ``if
TYPE_CHECKING:`` blocks and ``try`` gates) counts as used when the module
reads it anywhere, when a string annotation names it (``"MacAddress"``,
``List["MacSubframe"]``), or when the module lists it in ``__all__``.  A
package ``__init__`` exists to re-export, so its imports are exempt, and so
is ``from __future__ import ...``.
"""

from __future__ import annotations

import ast
import textwrap
from pathlib import Path
from typing import Iterable, Iterator, List, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"


def _imports(statements: Iterable[ast.stmt]) -> Iterator[Tuple[str, int]]:
    """``(bound name, line)`` for each import among ``statements``, looking
    into ``if`` and ``try`` blocks but not into functions or classes."""
    for node in statements:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno
        elif isinstance(node, (ast.If, ast.Try)):
            yield from _imports(node.body)
            yield from _imports(node.orelse)
            for handler in getattr(node, "handlers", ()):
                yield from _imports(handler.body)
            yield from _imports(getattr(node, "finalbody", ()))


def _annotations(tree: ast.AST) -> Iterator[ast.expr]:
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node.returns is not None:
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used_names(tree: ast.Module) -> Set[str]:
    used = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    parsed = ast.parse(node.value, mode="eval")
                except SyntaxError:
                    continue
                used.update(name.id for name in ast.walk(parsed)
                            if isinstance(name, ast.Name))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            used.update(element.value for element in ast.walk(node.value)
                        if isinstance(element, ast.Constant))
    return used


def _unused_imports(package: Path = PACKAGE) -> List[str]:
    """``"<path>:<line> <name>"`` for each unused module-level import."""
    unused = []
    for path in sorted(package.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        used = _used_names(tree)
        relative = path.relative_to(package.parent).as_posix()
        unused.extend(f"{relative}:{line} {name}" for name, line in _imports(tree.body)
                      if name not in used)
    return unused


def test_every_module_level_import_is_used():
    assert _unused_imports() == []


# ---------------------------------------------------------------------------
# The guard itself, on small trees
# ---------------------------------------------------------------------------

def _package(root: Path, modules: dict) -> Path:
    package = root / "repro"
    for name, text in modules.items():
        path = package / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text))
    return package


def test_guard_flags_an_unused_import_wherever_the_module_binds_it(tmp_path):
    package = _package(tmp_path, {"toy.py": """
        from __future__ import annotations

        import os.path
        from typing import TYPE_CHECKING, List, Optional

        if TYPE_CHECKING:
            from repro.other import Widget

        try:
            import tomllib
        except ModuleNotFoundError:
            tomllib = None


        def size(items: List[int]) -> int:
            return len(items)
    """})
    assert _unused_imports(package) == [
        "repro/toy.py:4 os", "repro/toy.py:5 Optional", "repro/toy.py:8 Widget",
        "repro/toy.py:11 tomllib"]


def test_guard_counts_code_string_annotations_and_all(tmp_path):
    package = _package(tmp_path, {"toy.py": """
        import os
        from typing import TYPE_CHECKING, List

        if TYPE_CHECKING:
            from repro.other import Gadget, Widget

        from repro.other import helper

        __all__ = ["helper"]


        def paths(items: List["Widget"]) -> "Gadget":
            return os.sep
    """})
    assert _unused_imports(package) == []


def test_guard_exempts_package_reexports(tmp_path):
    package = _package(tmp_path, {"__init__.py": "from repro.toy import helper\n",
                                  "toy.py": "def helper():\n    return 1\n"})
    assert _unused_imports(package) == []


def test_guard_reads_only_module_level_imports(tmp_path):
    package = _package(tmp_path, {"toy.py": """
        def size(items):
            import os
            return len(items)


        class Box:
            from typing import List
    """})
    assert _unused_imports(package) == []
