"""Every public name in ``src/repro`` has a user outside the tests.

A public module-level function or class, or a public method or property
of a public class, must be referenced outside its own definition from
``src/``, ``examples/``, ``perfbench/`` or ``benchmarks/``.  A name that
only tests reach is surface kept alive for its tests: delete it and test
the behaviour it stood for, or list it in :data:`ALLOWLIST` with the
reason no other view of that state exists.

What counts as a reference: a ``Name``, an ``Attribute``, an import (but
not the re-exports of a package ``__init__``), or a string constant equal
to the name (``_notify("job_started")``, ``wrap(Phy, "send", ...)``).
Strings listed in an ``__all__`` do not count.  Matching is by name only,
so a test-only name that shares its spelling with a used one passes
unnoticed; a name that really is used never fails.
"""

from __future__ import annotations

import ast
import textwrap
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"
USER_DIRS = ("src", "examples", "perfbench", "benchmarks")

#: Public names kept although only tests reach them, with the reason.  To
#: keep a new one, add ``"<module>.<Class>.<name>": "<reason>"`` here; the
#: reason should name the state that has no other view.
ALLOWLIST: Dict[str, str] = {
    "repro.sim.scheduler.Scheduler.heap_size":
        "the only view of how many entries the event heap holds",
    "repro.sim.scheduler.Scheduler.cancelled_in_heap":
        "the only view of cancelled entries still waiting in the heap",
    "repro.sim.timer.Timer.expiry_time":
        "the only view of when an armed timer will fire",
    "repro.channel.medium.WirelessChannel.phys":
        "the only view of which PHYs the medium holds, in registration order",
    "repro.channel.medium.WirelessChannel.received_power_dbm":
        "the only view of one link's budget; delivery plans are private",
    "repro.channel.medium.WirelessChannel.unregister":
        "the only way to take a PHY off the medium mid-run; no experiment "
        "removes a node yet, and the churn and plan-invalidation tests drive it",
    "repro.phy.error_model.bit_error_rate":
        "reference function the cached error probability is checked against",
    "repro.phy.error_model.noise_error_probability":
        "reference function the cached error probability is checked against",
    "repro.phy.error_model.aging_error_probability":
        "reference function the cached error probability is checked against",
}

Definition = Tuple[str, str]  # (qualified name, bare name)


def _module_name(path: Path, package: Path = PACKAGE) -> str:
    parts = list(path.relative_to(package.parent).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _is_public(name: str) -> bool:
    return not name.startswith("_")


def _definitions(path: Path, package: Path = PACKAGE) -> Iterator[Definition]:
    """Public module-level functions and classes, and public class members."""
    module = _module_name(path, package)
    for node in ast.parse(path.read_text(), str(path)).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) \
                and _is_public(node.name):
            yield f"{module}.{node.name}", node.name
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                            and _is_public(member.name):
                        yield f"{module}.{node.name}.{member.name}", member.name


class _References(ast.NodeVisitor):
    """Each referenced name, with the qualified definitions it sits inside."""

    def __init__(self, module: str, is_package_init: bool) -> None:
        self.found: List[Tuple[str, frozenset]] = []
        self._module = module
        self._is_package_init = is_package_init
        self._scope: List[str] = []

    def _add(self, name: str) -> None:
        enclosing = frozenset(".".join([self._module] + self._scope[:depth])
                              for depth in range(1, len(self._scope) + 1))
        self.found.append((name, enclosing))

    def _visit_definition(self, node) -> None:
        self._scope.append(node.name)
        self.generic_visit(node)
        self._scope.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _visit_definition

    def visit_Name(self, node: ast.Name) -> None:
        self._add(node.id)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        self._add(node.attr)
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if not self._is_package_init:
            for alias in node.names:
                self._add(alias.name)

    def visit_Assign(self, node: ast.Assign) -> None:
        if any(isinstance(target, ast.Name) and target.id == "__all__"
               for target in node.targets):
            return
        self.generic_visit(node)

    def visit_Constant(self, node: ast.Constant) -> None:
        if isinstance(node.value, str) and node.value.isidentifier():
            self._add(node.value)


def _user_files(root: Path) -> Iterator[Path]:
    for directory in USER_DIRS:
        yield from sorted((root / directory).rglob("*.py"))


def _references(root: Path) -> Dict[str, Set[frozenset]]:
    package = root / "src" / "repro"
    references: Dict[str, Set[frozenset]] = {}
    for path in _user_files(root):
        inside_package = package in path.parents
        module = _module_name(path, package) if inside_package \
            else str(path.relative_to(root))
        visitor = _References(module, path.name == "__init__.py")
        visitor.visit(ast.parse(path.read_text(), str(path)))
        for name, enclosing in visitor.found:
            references.setdefault(name, set()).add(enclosing)
    return references


def _test_only_names(root: Path = ROOT) -> List[str]:
    """Qualified public names with no reference outside their own definition."""
    package = root / "src" / "repro"
    references = _references(root)
    unused = []
    for path in sorted(package.rglob("*.py")):
        for qualified, name in _definitions(path, package):
            if name.startswith("__") and name.endswith("__"):
                continue
            if not any(qualified not in enclosing for enclosing in references.get(name, ())):
                unused.append(qualified)
    return unused


def test_every_public_name_has_a_user_outside_the_tests():
    unused = [name for name in _test_only_names() if name not in ALLOWLIST]
    assert unused == [], f"public names only tests use: {unused}"


def test_every_allowlisted_name_is_still_defined():
    # A stale entry would let a future test-only name of the same
    # qualified name pass unnoticed.
    defined = {qualified for path in PACKAGE.rglob("*.py")
               for qualified, _ in _definitions(path)}
    assert sorted(set(ALLOWLIST) - defined) == []


# ---------------------------------------------------------------------------
# The guard itself, on small trees
# ---------------------------------------------------------------------------

#: A module whose names reach themselves only from inside their own
#: definitions; ``__repr__`` is a dunder and never counts.
TOY_MODULE = """
class Widget:
    def spin(self):
        return self.spin

    def __repr__(self):
        return "Widget"


def helper():
    return helper()
"""
TOY_NAMES = ["repro.toy.Widget", "repro.toy.Widget.spin", "repro.toy.helper"]


def _tree(root: Path, files: Dict[str, str]) -> Path:
    """A repository with ``src/repro/toy.py`` plus ``files``, relative to ``root``."""
    for directory in USER_DIRS:
        (root / directory).mkdir(parents=True, exist_ok=True)
    for relative, text in {"src/repro/toy.py": TOY_MODULE, **files}.items():
        path = root / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text))
    return root


def test_guard_flags_names_only_their_own_definitions_and_the_tests_reach(tmp_path):
    root = _tree(tmp_path, {
        "tests/test_toy.py": """
            from repro.toy import Widget, helper

            def test_toy():
                assert Widget().spin() and helper()
        """,
    })
    assert _test_only_names(root) == TOY_NAMES


@pytest.mark.parametrize("relative, text", [
    # A package ``__init__``'s import is no use, so only the call counts.
    ("src/repro/__init__.py", "from repro.toy import helper\n\nDEFAULT = helper()\n"),
    ("examples/use.py", "import repro.toy\n\nrepro.toy.helper()\n"),
    ("benchmarks/use.py", "from repro.toy import helper\n"),
    ("perfbench/use.py", "HOOK = \"helper\"\n"),
], ids=["name", "attribute", "import", "string"])
def test_guard_counts_each_kind_of_reference(tmp_path, relative, text):
    root = _tree(tmp_path, {relative: text})
    assert _test_only_names(root) == ["repro.toy.Widget", "repro.toy.Widget.spin"]


def test_guard_counts_a_use_by_a_sibling_definition(tmp_path):
    # ``run`` lies outside ``helper``'s definition, so its call is a user
    # even though both sit in the same module.
    root = _tree(tmp_path, {
        "src/repro/toy.py": TOY_MODULE + "\n\ndef run():\n    return helper()\n",
        "examples/use.py": "from repro.toy import run\n",
    })
    assert _test_only_names(root) == ["repro.toy.Widget", "repro.toy.Widget.spin"]


def test_guard_ignores_package_reexports_and_all(tmp_path):
    root = _tree(tmp_path, {
        "src/repro/__init__.py": """
            from repro.toy import Widget, helper

            __all__ = ["Widget", "helper"]
        """,
    })
    assert _test_only_names(root) == TOY_NAMES
