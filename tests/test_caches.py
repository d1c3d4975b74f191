"""No new unbounded cache lands silently.

A function under ``@lru_cache(maxsize=None)`` (or ``@cache``) keeps every
key it ever sees, so over a long multi-prime scan its memory only grows.
The few that exist are listed here; the check reads the sources with
``ast``, so it sees every decorator spelling.
"""

import ast
from pathlib import Path

import heissplit

PACKAGE_DIR = Path(heissplit.__file__).parent
# keyed by p, (p, m) and the context: one entry per prime in use
UNBOUNDED = {"prime_field", "build_extension", "packed_a_poly"}


def _name(node) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def is_unbounded_cache(decorator) -> bool:
    if _name(decorator) == "cache":
        return True
    if isinstance(decorator, ast.Call):
        if _name(decorator.func) == "cache":
            return True
        if _name(decorator.func) == "lru_cache":
            args = list(decorator.args) + [
                k.value for k in decorator.keywords if k.arg == "maxsize"
            ]
            return bool(args) and isinstance(args[0], ast.Constant) and args[0].value is None
    return False


def unbounded_caches(source: str) -> set[str]:
    return {
        node.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(is_unbounded_cache(d) for d in node.decorator_list)
    }


def test_unbounded_caches_are_the_known_ones():
    found = set()
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        found |= unbounded_caches(path.read_text())
    assert found == UNBOUNDED


def test_guard_sees_every_spelling():
    unbounded = [
        "@lru_cache(maxsize=None)\ndef f(): pass",
        "@functools.lru_cache(None)\ndef f(): pass",
        "@cache\ndef f(): pass",
        "@functools.cache\ndef f(): pass",
    ]
    bounded = [
        "@lru_cache(maxsize=64)\ndef f(): pass",
        "@lru_cache\ndef f(): pass",
        "@lru_cache()\ndef f(): pass",
        "def f(): pass",
    ]
    for source in unbounded:
        assert unbounded_caches(source) == {"f"}, source
    for source in bounded:
        assert unbounded_caches(source) == set(), source
