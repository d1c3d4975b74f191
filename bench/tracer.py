"""Per-layer tracing of the heissplit package, applied from outside.

The package's modules bind each other's names with ``from .x import y``, so
a function is patched in every module whose attribute is the original
object, and methods are patched on their class.  Each patched callable is
either a *span* (name, start, end, parent, point id, kept in memory) or a
*counter* (calls only; used where timing each call would swamp the run).

Self time is a span's duration minus the time covered by its child spans.
Work done inside counter-only callables (``ExtField.mul``, ``Poly.__mul__``)
therefore accrues to the self time of the nearest enclosing span.

Calls into functions cached with ``functools.lru_cache`` are also counted as
hits or misses.  ``Tracer.remove`` restores every patched attribute, so later
untraced runs in the same process are unaffected.
"""

from __future__ import annotations

import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

PACKAGE = "heissplit"
MODULES = (
    "cli",
    "verification",
    "heis_arith",
    "splitting_oracle",
    "polynomial",
    "finite_field",
    "heisenberg",
    "seeds",
)

# (module, attribute path, kind).  Paths with a dot are class methods.
# Private names are traced where a layer metric needs them; a target that
# no longer exists is skipped and its metrics read 0.
TARGETS = (
    ("cli", "main", "span"),
    ("verification", "scan_point", "span"),
    ("verification", "rows_to_csv", "span"),
    ("verification", "record_to_row", "span"),
    ("verification", "admissible_values", "span"),
    ("heis_arith", "frobenius_prediction", "span"),
    ("heis_arith", "a2_value", "span"),
    ("heis_arith", "a2_by_recurrence", "span"),
    ("heis_arith", "a2_by_closed_form", "span"),
    ("heis_arith", "classify_a2", "span"),
    ("heis_arith", "a_ell_value", "span"),
    ("heis_arith", "a_poly_eval", "span"),
    ("heis_arith", "expand_a_poly", "span"),
    ("heis_arith", "epsilon_value", "span"),
    ("splitting_oracle", "split_K", "span"),
    ("splitting_oracle", "split_R", "span"),
    ("splitting_oracle", "_k_primes", "span"),
    ("polynomial", "factor", "span"),
    ("polynomial", "squarefree_decomposition", "span"),
    ("polynomial", "_ddf", "span"),
    ("polynomial", "_edf", "span"),
    ("polynomial", "roots_in_field", "span"),
    ("polynomial", "field_embedding", "span"),
    ("polynomial", "is_irreducible", "span"),
    ("polynomial", "Poly.pow_mod", "span"),
    ("polynomial", "Poly.gcd", "span"),
    ("polynomial", "Poly.__mul__", "count"),
    ("polynomial", "Poly.__divmod__", "count"),
    ("polynomial", "_random_poly", "count"),
    ("finite_field", "make_context", "span"),
    ("finite_field", "build_extension", "span"),
    ("finite_field", "lth_root", "span"),
    ("finite_field", "discrete_log", "span"),
    ("finite_field", "primitive_root", "span"),
    ("finite_field", "ExtField.pow", "span"),
    ("finite_field", "ExtField.mul", "count"),
    ("finite_field", "ExtField.inv", "count"),
    ("finite_field", "power_residue_symbol", "count"),
    ("heisenberg", "element_order", "span"),
    ("heisenberg", "class_label", "count"),
    ("seeds", "derive_seed", "span"),
)

# Spans kept for the JSON-lines dump; statistics are exact past this cap.
MAX_SPANS = 100_000


def _display(path: str) -> str:
    """Metric spelling of an attribute path: Poly.__mul__ -> Poly.mul."""
    return path.replace("__", "")


class Tracer:
    """Spans and counters for one traced pass over a workload."""

    def __init__(self):
        self.point = None
        self.spans: list[tuple] = []
        self.dropped = 0
        self.calls: Counter = Counter()
        self.total: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        self.mul_by_degree: Counter = Counter()
        self.edf_splits = 0
        self._stack: list[list] = []  # [span id, child seconds]
        self._depth: Counter = Counter()
        self._next_id = 0
        self._undo: list[tuple] = []

    # -- patching ----------------------------------------------------------

    def _module(self, short: str):
        return sys.modules.get(f"{PACKAGE}.{short}")

    def install(self) -> None:
        for short, path, kind in TARGETS:
            mod = self._module(short)
            if mod is None:
                continue
            name = f"{short}.{_display(path)}"
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(mod, cls_name, None)
                orig = cls.__dict__.get(attr) if cls is not None else None
                if orig is None:
                    continue
                self._patch(cls, attr, self._wrap(orig, name, kind, short))
                continue
            orig = getattr(mod, path, None)
            if orig is None:
                continue
            for other in MODULES:
                binding = self._module(other)
                if binding is None:
                    continue
                for attr, value in list(vars(binding).items()):
                    if value is orig:
                        self._patch(binding, attr, self._wrap(orig, name, kind, other))

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def remove(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    def _wrap(self, orig, name: str, kind: str, binding: str):
        calls = self.calls
        binding_key = None
        if not name.startswith(binding + "."):
            binding_key = f"{binding}.{name.split('.', 1)[1]}.calls"

        if name == "finite_field.ExtField.mul":
            by_degree = self.mul_by_degree

            def mul(field, a, b):
                by_degree[field.degree] += 1
                return orig(field, a, b)

            return mul
        if kind == "count":

            def counter(*args, **kwargs):
                calls[name] += 1
                if binding_key is not None:
                    calls[binding_key] += 1
                return orig(*args, **kwargs)

            return counter
        wrapper = self._span(orig, name, binding_key)
        if name == "polynomial._edf":
            tracer = self

            def edf(f, d, rng):
                # every call on a product of several factors ends in one split
                if f.degree > d:
                    tracer.edf_splits += 1
                return wrapper(f, d, rng)

            return edf
        if hasattr(orig, "cache_clear"):
            wrapper.cache_clear = orig.cache_clear
        return wrapper

    def _span(self, orig, name: str, binding_key: str | None):
        tracer = self
        stack = self._stack
        depth = self._depth
        calls = self.calls
        cache_info = getattr(orig, "cache_info", None)
        misses_key = f"{name}.misses"
        hits_key = f"{name}.hits"

        scan_point = name == "verification.scan_point"

        def span(*args, **kwargs):
            calls[name] += 1
            if binding_key is not None:
                calls[binding_key] += 1
            if cache_info is not None:
                misses_before = cache_info().misses
            outer_point = tracer.point
            if scan_point:  # spans of one scan point share "p:a" as point id
                tracer.point = f"{args[0].p}:{args[1]}"
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1][0] if stack else None
            frame = [span_id, 0.0]
            stack.append(frame)
            depth[name] += 1
            start = perf_counter()
            try:
                return orig(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                depth[name] -= 1
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                if depth[name] == 0:  # recursion counts once in total time
                    tracer.total[name] += duration
                tracer.self_time[name] += duration - frame[1]
                if cache_info is not None:
                    missed = cache_info().misses != misses_before
                    calls[misses_key if missed else hits_key] += 1
                if len(tracer.spans) < MAX_SPANS:
                    tracer.spans.append((span_id, name, start, end, parent, tracer.point))
                else:
                    tracer.dropped += 1
                tracer.point = outer_point

        return span

    # -- output ------------------------------------------------------------

    def module_self_seconds(self) -> dict[str, float]:
        out = dict.fromkeys(MODULES, 0.0)
        for name, seconds in self.self_time.items():
            out[name.split(".", 1)[0]] += seconds
        return out

    def write_spans(self, path) -> None:
        """A header line naming the fields, then one JSON array per span."""
        fields = ["id", "name", "start", "end", "parent", "point"]
        with open(path, "w") as fh:
            fh.write(json.dumps({"fields": fields, "dropped": self.dropped}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")
