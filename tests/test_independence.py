"""The oracle does not import the criterion code.

``splitting_oracle``, ``polynomial`` and ``finite_field`` must not reach
``heis_arith``, neither directly nor through another package module nor
through the package ``__init__`` (which re-exports ``heis_arith``).
``finite_field``, the base layer, imports no package module but ``errors``.
The checks read the sources with ``ast``, so they see every import
statement, including ones inside functions.
"""

import ast
from pathlib import Path

import heissplit

PACKAGE = "heissplit"
PACKAGE_DIR = Path(heissplit.__file__).parent
ORACLE_MODULES = ("splitting_oracle", "polynomial", "finite_field")
# "__init__" stands for the package itself, which imports heis_arith
FORBIDDEN = {"heis_arith", "__init__"}


def _is_module(name: str) -> bool:
    return (PACKAGE_DIR / f"{name}.py").exists()


def package_imports(source: str) -> set[str]:
    """Package modules that ``source`` imports ("__init__" for the package)."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == PACKAGE:
                    found.add(parts[1] if len(parts) > 1 else "__init__")
        elif isinstance(node, ast.ImportFrom):
            parts = node.module.split(".") if node.module else []
            if node.level == 0:
                if not parts or parts[0] != PACKAGE:
                    continue
                parts = parts[1:]
            elif node.level > 1:
                continue
            if parts:
                found.add(parts[0])
            else:  # from . import name: a submodule, or a name of __init__
                for alias in node.names:
                    found.add(alias.name if _is_module(alias.name) else "__init__")
    return found


def reachable(start, read) -> set[str]:
    """Every package module imported from ``start``, transitively."""
    seen, todo = set(), list(start)
    while todo:
        module = todo.pop()
        if module in seen:
            continue
        seen.add(module)
        if module not in FORBIDDEN:
            todo.extend(package_imports(read(module)))
    return seen


def read_module(module: str) -> str:
    return (PACKAGE_DIR / f"{module}.py").read_text()


def test_oracle_never_reaches_heis_arith():
    seen = reachable(ORACLE_MODULES, read_module)
    assert "polynomial" in seen and "errors" in seen
    assert not seen & FORBIDDEN, sorted(seen)


def test_finite_field_imports_only_errors():
    # the base layer: a lazy import of polynomial here would bring back the
    # cycle that a second polynomial kernel once existed to avoid
    assert package_imports(read_module("finite_field")) == {"errors"}


def test_guard_catches_every_import_form():
    forms = {
        "from .heis_arith import epsilon_value": "heis_arith",
        "from . import heis_arith": "heis_arith",
        "from . import frobenius_prediction": "__init__",
        "from heissplit import epsilon_value": "__init__",
        "import heissplit.heis_arith": "heis_arith",
        "import heissplit": "__init__",
        "def f():\n    from .heis_arith import a2_value\n": "heis_arith",
    }
    for source, module in forms.items():
        assert package_imports(source) == {module}, source


def test_guard_follows_other_modules():
    sources = {
        "splitting_oracle": "from .polynomial import Poly",
        "polynomial": "from .verification import scan_point",
        "verification": "from .heis_arith import frobenius_prediction",
    }
    assert "heis_arith" in reachable(["splitting_oracle"], sources.get)
