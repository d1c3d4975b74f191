"""The oracle does not import the criterion code, neither uses
randomness, and the package has no polynomial type.

``splitting_oracle`` and ``finite_field`` must not reach ``heis_arith``,
neither directly nor through another package module nor through the
package ``__init__`` (which re-exports ``heis_arith``).  ``finite_field``,
the base layer, imports no package module but ``errors``, and
``splitting_oracle`` reaches no package module but those two: it works in
roots and degrees.  The prediction and the oracle (``heis_arith``,
``splitting_oracle``, ``finite_field``, and every package module they
reach, among them the F_p kernels of ``polynomial``) import neither
``random`` nor ``heissplit.seeds``.  The criterion polynomial is a tuple of
F_p ints, so no package module defines a class ``Poly``; the generic ring
lives with the tests (``reference_factor.py``).  The checks read the
sources with ``ast``, so they see every import statement, including ones
inside functions.
"""

import ast
import types
from pathlib import Path

import heissplit

PACKAGE = "heissplit"
PACKAGE_DIR = Path(heissplit.__file__).parent
ORACLE_MODULES = ("splitting_oracle", "finite_field")
# "__init__" stands for the package itself, which imports heis_arith
FORBIDDEN = {"heis_arith", "__init__"}
DETERMINISTIC_MODULES = ("heis_arith", "splitting_oracle", "finite_field")


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


def outside_imports(source: str) -> set[str]:
    """Top-level names of the modules outside the package that ``source``
    imports."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            found.add(node.module.split(".")[0])
    found.discard(PACKAGE)
    return found


def reachable(start, read, stop=FORBIDDEN) -> set[str]:
    """Every package module imported from ``start``, transitively; the
    imports of a module in ``stop`` are not followed."""
    seen, todo = set(), list(start)
    while todo:
        module = todo.pop()
        if module in seen:
            continue
        seen.add(module)
        if module not in stop:
            todo.extend(package_imports(read(module)))
    return seen


def read_module(module: str) -> str:
    return (PACKAGE_DIR / f"{module}.py").read_text()


def test_oracle_never_reaches_heis_arith():
    seen = reachable(ORACLE_MODULES, read_module)
    assert "errors" in seen
    assert not seen & FORBIDDEN, sorted(seen)


def test_finite_field_imports_only_errors():
    # the base layer: a lazy import of polynomial here would bring back the
    # cycle that a second polynomial kernel once existed to avoid
    assert package_imports(read_module("finite_field")) == {"errors"}


def test_oracle_reaches_only_errors_and_finite_field():
    seen = reachable(["splitting_oracle"], read_module) - {"splitting_oracle"}
    assert seen == {"errors", "finite_field"}


def test_prediction_and_oracle_use_no_randomness():
    # the package __init__ imports seeds, so reaching it is a leak too
    seen = reachable(DETERMINISTIC_MODULES, read_module, stop={"__init__"})
    assert "polynomial" in seen
    assert not seen & {"seeds", "__init__"}, sorted(seen)
    random_users = [m for m in sorted(seen) if "random" in outside_imports(read_module(m))]
    assert random_users == []


def test_randomness_guard_catches_every_import_form():
    outside = {
        "import random": {"random"},
        "from random import Random": {"random"},
        "import random as rnd, math": {"random", "math"},
        "def f():\n    import random\n": {"random"},
        "from .random import x": set(),
        "from heissplit.finite_field import prime_field": set(),
    }
    for source, names in outside.items():
        assert outside_imports(source) == names, source
    for source in (
        "from .seeds import derive_seed",
        "from . import seeds",
        "import heissplit.seeds",
        "from heissplit.seeds import derive_seed",
    ):
        assert package_imports(source) == {"seeds"}, source


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
        "splitting_oracle": "from .finite_field import prime_field",
        "finite_field": "from .verification import scan_point",
        "verification": "from .heis_arith import frobenius_prediction",
    }
    assert "heis_arith" in reachable(["splitting_oracle"], sources.get)


# Every public name of the package, sorted: a change to the API shows here.
PUBLIC_NAMES = [
    "ClassHistogram", "Context", "DEFAULT_SEED", "DegenerateSpecializationError",
    "DegenerateValueError", "DivisibilityError", "ExpansionTooLargeError",
    "ExtField", "FrobPrediction", "HeisElem", "HeisSplitError",
    "MalformedSpecError", "MixedModulusError", "NoRootOfUnityError",
    "NonPositiveCountError", "NotPrimeError", "NotResidueError",
    "PrimeField", "PrimeOutOfRangeError", "ScanRecord", "ScanResult",
    "SplitReport", "SymbolNotTrivialError", "UnsupportedEllError",
    "WrongEllError", "ZeroArgumentError", "a2_value",
    "a_ell_value", "a_poly_eval", "admissible_values",
    "binomial_roots", "build_extension", "chebotarev_stats", "check_block_det",
    "class_label", "classify_a2", "conjugacy_classes", "derive_seed",
    "discriminant_ratio_check", "element_order", "epsilon_value",
    "expand_a_poly", "frobenius_prediction", "identity",
    "is_prime", "lth_root", "make_context", "power_residue_symbol",
    "prime_field", "primitive_root", "split_K", "split_R", "split_R2_curve",
    "verify_theorems_scan",
]


def poly_classes(source: str) -> list[str]:
    """Names of the classes called ``Poly`` that ``source`` defines."""
    return [
        node.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ClassDef) and node.name == "Poly"
    ]


def test_no_module_defines_a_poly_class():
    assert poly_classes("class Poly:\n    pass\n") == ["Poly"]
    assert poly_classes("def f():\n    class Poly(tuple):\n        pass\n") == ["Poly"]
    modules = sorted(PACKAGE_DIR.glob("*.py"))
    assert len(modules) > 5
    assert [path.stem for path in modules if poly_classes(path.read_text())] == []


def test_public_names_are_pinned():
    public = sorted(
        name
        for name, value in vars(heissplit).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert PUBLIC_NAMES == sorted(PUBLIC_NAMES)
    assert public == PUBLIC_NAMES
