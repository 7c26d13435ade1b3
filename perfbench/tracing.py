"""Per-layer tracing from outside the library.

``Tracer.install(hw)`` replaces the public functions and methods of each
``hwtaylor`` module with wrappers, at the place where each importing module
looks them up (module globals, class attributes, and the two constructor
tables), and ``uninstall()`` puts the originals back.  Nothing inside the
library changes.

A wrapper counts every call.  A call whose layer differs from its caller's
opens a span; a nested call in the same layer only counts, so its time stays
in the enclosing span.  A layer's self time is the sum of its spans'
durations minus the part covered by their child spans.  Spans that last at
least ``SPAN_MIN_NS`` carry name, start, end, parent span and request id;
they are kept in memory and written out when the run ends.  A parent lasts
at least as long as its children, so the kept spans form a tree.  Shorter
spans (single ring or multi-index operations, tens of thousands per request)
still add to the counts and self times.
"""

from __future__ import annotations

import itertools
import json
import time
from collections import Counter
from pathlib import Path
from typing import Any, Callable

LAYERS = ("multiindex", "rings", "hurwitz", "diffpoly", "taylor", "checks", "cli")
SPAN_MIN_NS = 100_000
MAX_SPANS = 200_000

_RING_ARITHMETIC = ("add", "mul", "neg", "sub", "eq", "is_zero", "is_one", "embed_int",
                    "try_invert", "pow", "sum", "parse", "render")
_MULTIINDEX_METHODS = ("__add__", "__sub__", "le", "binomial", "factorial", "is_zero")
_MULTIINDEX_CLASSMETHODS = ("of", "zero", "unit")
_HURWITZ_METHODS = ("from_table", "zero", "one", "embed", "indeterminate", "ev", "add", "neg",
                    "mul", "cauchy_mul", "eq", "agree", "agree_up_to", "first_disagreement",
                    "embed_int", "is_unit", "is_nilpotent", "try_invert", "invert",
                    "shift_derive", "coeff_derive", "formal_derive", "to_divided",
                    "from_divided", "differential_structure", "render", "parse", "sample")
_DIFFPOLY_METHODS = ("symbol", "gen", "constant", "add", "neg", "mul", "eq", "embed_int",
                     "try_invert", "derive", "evaluate", "render", "sample",
                     "element_to_json", "element_from_json")
_TAYLOR_FUNCTIONS = ("hurwitz_morphism", "classical_taylor", "twisted_hurwitz",
                     "twisted_taylor", "derivative_table", "ev_twist", "ev_untwist")


def _layer_of_module(module: str) -> str:
    tail = module.rpartition(".")[2]
    return tail if tail in LAYERS else "rings"


class Tracer:
    """Counts, self times and spans of calls into the library's layers."""

    def __init__(self) -> None:
        self.counts: Counter = Counter()
        self.self_ns = dict.fromkeys(LAYERS, 0)
        self.spans: list[tuple] = []
        self.dropped_spans = 0
        self._ids = itertools.count()
        self._stack: list[list] = [["bench", 0, None]]  # [layer, child ns, span id]
        self._request: int | None = None
        self._undo: list[Callable[[], None]] = []

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, fn: Callable, name: str, layer: str | None, counters: tuple[str, ...]) -> Callable:
        """Wrap ``fn``; a ``None`` layer is read from the class of the first argument."""
        stack, counts, self_ns, spans = self._stack, self.counts, self.self_ns, self.spans
        layer_of_type: dict = {}
        clock = time.perf_counter_ns
        ids = self._ids
        tracer = self

        def keys(here: str) -> tuple[str, ...]:
            extra = ("rings.mul_calls",) if here == "rings" and name.endswith(".mul") else ()
            return (counters or (here + ".calls",)) + extra

        static_keys = keys(layer) if layer is not None else ()

        def wrapper(*args, **kwargs):
            here, names = layer, static_keys
            if here is None:
                cls = type(args[0])
                if cls not in layer_of_type:
                    dynamic = _layer_of_module(cls.__module__)
                    layer_of_type[cls] = (dynamic, keys(dynamic))
                here, names = layer_of_type[cls]
            for key in names:
                counts[key] += 1
            parent = stack[-1]
            if parent[0] == here:
                return fn(*args, **kwargs)
            frame = [here, 0, next(ids)]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self_ns[here] += duration - frame[1]
                parent[1] += duration
                if duration >= SPAN_MIN_NS:
                    if len(spans) < MAX_SPANS:
                        spans.append((frame[2], parent[2], tracer._request, f"{here}.{name}", start, end))
                    else:
                        tracer.dropped_spans += 1

        return wrapper

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        setattr(owner, attr, value)
        self._undo.append(lambda: setattr(owner, attr, original))

    def _method(self, cls: type, attr: str, layer: str | None, counters: tuple[str, ...] = ()) -> None:
        if attr in cls.__dict__:
            fn = cls.__dict__[attr]
            self._set(cls, attr, self._wrap(fn, f"{cls.__name__}.{attr}", layer, counters))

    def _function(self, modules: list, attr: str, layer: str, wrapped: dict) -> None:
        """Wrap a module-level function wherever a module looks it up."""
        for module in modules:
            original = getattr(module, attr, None)
            if original is None:
                continue
            if id(original) not in wrapped:
                wrapped[id(original)] = self._wrap(original, attr, layer, ())
            self._set(module, attr, wrapped[id(original)])

    def _returns_wrapped(self, cls: type, attr: str, layer: str, inner: str) -> None:
        """Wrap a method and the function it returns (derivations, value maps)."""
        make = cls.__dict__[attr]

        def factory(*args, **kwargs):
            return self._wrap(make(*args, **kwargs), inner, layer, ())

        self._set(cls, attr, self._wrap(factory, f"{cls.__name__}.{attr}", layer, ()))

    def install(self, hw) -> None:
        from hwtaylor import checks, cli, diffpoly, hurwitz, multiindex, rings, taylor

        everywhere = [hw, multiindex, rings, hurwitz, diffpoly, taylor, checks, cli]
        wrapped: dict = {}

        MI = multiindex.MultiIndex
        for attr in _MULTIINDEX_METHODS:
            self._method(MI, attr, "multiindex")
        for attr in _MULTIINDEX_CLASSMETHODS:
            fn = MI.__dict__[attr].__func__
            self._set(MI, attr, classmethod(self._wrap(fn, f"MultiIndex.{attr}", "multiindex", ())))
        self._method(MI, "__post_init__", "multiindex", ("multiindex.built",))
        for attr in ("enumerate_upto", "iter_dominated", "count_upto", "grlex_key"):
            self._function(everywhere, attr, "multiindex", wrapped)

        for cls in (rings.Ring, rings.RationalField, rings.PrimeField, rings.PolynomialRing):
            layer = None if cls is rings.Ring else "rings"
            for attr in _RING_ARITHMETIC:
                self._method(cls, attr, layer)
        self._returns_wrapped(rings.PolynomialRing, "derivation", "rings", "PolynomialRing.derive")
        for attr in ("derive", "derive_iter"):
            self._method(rings.DifferentialRing, attr, "rings")
        self._function(everywhere, "ring_from_json", "rings", wrapped)

        for attr in _HURWITZ_METHODS:
            self._method(hurwitz.HurwitzRing, attr, "hurwitz")
        for attr in ("coeff", "constant_term"):
            self._method(hurwitz.HurwitzSeries, attr, "hurwitz")
        self._method(hurwitz.HurwitzSeries, "__post_init__", "hurwitz", ("hurwitz.series_built",))
        for attr in ("series_to_json", "series_from_json"):
            self._function(everywhere, attr, "hurwitz", wrapped)

        for attr in _DIFFPOLY_METHODS:
            self._method(diffpoly.DiffPolyRing, attr, "diffpoly")
        self._returns_wrapped(diffpoly.DiffPolyRing, "value_hom", "diffpoly", "value_hom.apply")

        for attr in _TAYLOR_FUNCTIONS:
            self._function(everywhere, attr, "taylor", wrapped)
        self._set(cli, "_CONSTRUCTORS", {n: getattr(taylor, n) for n in cli._CONSTRUCTORS})
        self._set(checks, "_CONSTRUCTORS", tuple(
            (n, getattr(taylor, n), *flags) for n, _fn, *flags in checks._CONSTRUCTORS
        ))

        for attr in ("run_suite", "run_check", "reports_to_jsonl"):
            self._function(everywhere, attr, "checks", wrapped)
        wrapped_checks = {
            n: self._wrap(fn, f"check:{n}", "checks", ("checks.instances",))
            for n, fn in checks._CHECKS.items()
        }
        self._set(checks, "_CHECKS", wrapped_checks)

        for attr in ("main", "cmd_expand", "cmd_check", "cmd_selftest", "load_problem"):
            self._function([cli], attr, "cli", wrapped)

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- requests ----------------------------------------------------------

    def begin(self, request: int) -> dict[str, int]:
        self._request = request
        self._stack[0][1] = 0
        return dict(self.self_ns)

    def end(self, before: dict[str, int]) -> dict[str, int]:
        """Per-layer self nanoseconds of the request since ``begin``."""
        self._request = None
        return {layer: self.self_ns[layer] - before[layer] for layer in LAYERS}

    def write_spans(self, path: Path) -> None:
        keys = ("id", "parent", "request", "name", "start_ns", "end_ns")
        with open(path, "w", encoding="utf-8") as fh:
            for span in sorted(self.spans):
                fh.write(json.dumps(dict(zip(keys, span)), separators=(",", ":")) + "\n")
