"""Spans around the public functions of modcool's layers, recorded from outside.

:class:`Tracer` replaces every public function of the traced modules, at each
module attribute the program calls through, with a wrapper that records a
span ``[name, start, end, parent, tags]``.  ``parent`` is the index of the
enclosing span in the same list (-1 at the top), so parents always precede
their children.  ``sweep`` imports ``circuit_cooling_rate`` by name; that
binding is wrapped too, because the scan covers every module's namespace.
Outside a ``with tracer:`` block the program runs unpatched.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import time
from collections import defaultdict

LAYERS = ("analytic", "gaussian", "fock", "semiclassical", "sweep", "cli")


def _steady_state_tags(args, kwargs, _result):
    generator = args[0] if args else kwargs["generator"]
    return {"variant": "full" if generator.config.include_counter_rotating
            else "rwa"}


def _generator_tags(_args, _kwargs, result):
    return {"nnz": result.matrix.nnz}


def _fit_tags(_args, _kwargs, result):
    return {"flagged": int(result.flagged)}


def _sweep_tags(args, kwargs, result):
    spec = args[0] if args else kwargs["spec"]
    if "gaussian" not in spec.solvers:
        return None
    return {"attempted": len(result),
            "rated": sum(row.rates["gaussian"] is not None for row in result)}


# Facts read off arguments or results at a boundary, keyed by span name.
_TAGGERS = {
    "fock.steady_state": _steady_state_tags,
    "fock.build_generator": _generator_tags,
    "gaussian.fit_cooling_rate": _fit_tags,
    "sweep.run_sweep": _sweep_tags,
}


class Tracer:
    """Patches the traced modules while active; collects spans in memory."""

    def __init__(self, modules: dict) -> None:
        names = {}
        for layer, module in modules.items():
            for attr, value in vars(module).items():
                if (inspect.isfunction(value) and not attr.startswith("_")
                        and value.__module__ == module.__name__):
                    names[value] = f"{layer}.{attr}"
        self.spans: list[list] = []
        self._stack: list[int] = []
        wrappers = {fn: self._wrap(fn, name) for fn, name in names.items()}
        self._patches = [
            (module, attr, value, wrappers[value])
            for module in modules.values()
            for attr, value in vars(module).items()
            if inspect.isfunction(value) and value in wrappers]

    def _wrap(self, fn, name):
        spans, stack, tagger = self.spans, self._stack, _TAGGERS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if tagger is not None:
                span[4] = tagger(args, kwargs, result)
            return result

        return traced

    def __enter__(self) -> "Tracer":
        for module, attr, _original, wrapper in self._patches:
            setattr(module, attr, wrapper)
        return self

    def __exit__(self, *_exc) -> None:
        for module, attr, original, _wrapper in self._patches:
            setattr(module, attr, original)

    def take(self) -> list[list]:
        """Return the spans recorded so far and start a fresh list."""
        spans = list(self.spans)
        self.spans.clear()
        return spans


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for _name, start, end, _parent, _tags in spans]
    for name, start, end, parent, _tags in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def _layer(name: str) -> str:
    return name.partition(".")[0]


def op_metrics(spans) -> dict[str, float]:
    """Per-layer figures of one operation from its spans.

    ``<name>.s`` and ``<name>.calls`` count only spans with no enclosing span
    of the same name, and ``<layer>.s``/``<layer>.calls`` only spans with no
    enclosing span of the same layer, so nested calls are not counted twice.
    ``.self_s`` is the summed self time.  Missing names read as zero.
    """
    own = self_times(spans)
    names_above: list[frozenset] = []
    layers_above: list[frozenset] = []
    total = defaultdict(float)
    calls = defaultdict(int)
    self_s = defaultdict(float)
    tags = defaultdict(float)
    for i, (name, start, end, parent, tag) in enumerate(spans):
        if parent < 0:
            names, layers = frozenset(), frozenset()
        else:
            parent_name = spans[parent][0]
            names = names_above[parent] | {parent_name}
            layers = layers_above[parent] | {_layer(parent_name)}
        names_above.append(names)
        layers_above.append(layers)
        keys = []
        if name not in names:
            keys.append(name)
            if tag and "variant" in tag:
                keys.append(f"{name}.{tag['variant']}")
        if _layer(name) not in layers:
            keys.append(_layer(name))
        for key in keys:
            total[key] += end - start
            calls[key] += 1
        self_s[name] += own[i]
        for key, value in (tag or {}).items():
            if key != "variant":
                tags[f"{name}:{key}"] += value

    return {
        "fock.calls": calls["fock"],
        "fock.build_generator.s": total["fock.build_generator"],
        "fock.steady_state.full.s": total["fock.steady_state.full"],
        "fock.steady_state.rwa.s": total["fock.steady_state.rwa"],
        "fock.steady_state.calls": calls["fock.steady_state"],
        "fock.evolve.s": total["fock.evolve"],
        "fock.evolve.calls": calls["fock.evolve"],
        "fock.liouvillian_nnz": tags["fock.build_generator:nnz"],
        "gaussian.calls": calls["gaussian"],
        "gaussian.steady_state.s": total["gaussian.steady_state"],
        "gaussian.evolve.s": total["gaussian.evolve"],
        "gaussian.evolve.calls": calls["gaussian.evolve"],
        "gaussian.fit_cooling_rate.s": total["gaussian.fit_cooling_rate"],
        "gaussian.fit_cooling_rate.calls": calls["gaussian.fit_cooling_rate"],
        "gaussian.fit_flagged": tags["gaussian.fit_cooling_rate:flagged"],
        "analytic.s": total["analytic"],
        "analytic.calls": calls["analytic"],
        "semiclassical.s": total["semiclassical"],
        "semiclassical.calls": calls["semiclassical"],
        "sweep.run_sweep.self_s": self_s["sweep.run_sweep"],
        "sweep.compare.self_s": self_s["sweep.compare"],
        "sweep.render_csv.s": total["sweep.render_csv"],
        "cli.main.self_s": self_s["cli.main"],
        "rate_points.attempted": tags["sweep.run_sweep:attempted"],
        "rate_points.rated": tags["sweep.run_sweep:rated"],
    }


def run_metrics(per_op: list[dict], traced_walls: list[float],
                untraced_walls: list[float]) -> dict[str, float]:
    """Medians over traced operations, plus yield and tracing overhead."""
    result = {key: float(statistics.median(op[key] for op in per_op))
              for key in per_op[0] if not key.startswith("rate_points.")}
    attempted = sum(op["rate_points.attempted"] for op in per_op)
    rated = sum(op["rate_points.rated"] for op in per_op)
    result["gaussian.rate_yield"] = rated / attempted if attempted else 0.0
    traced = statistics.median(traced_walls)
    result["trace.op_s_p50"] = traced
    result["trace.overhead_s"] = traced - statistics.median(untraced_walls)
    return result
