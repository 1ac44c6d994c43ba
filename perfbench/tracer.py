"""Span tracing of calls into pertlab, installed from the benchmark's side.

The library has no tracing of its own, so this module wraps the public
functions listed in ``WRAPPED`` for the length of one traced pass.  A
module that did ``from .exactlin import solve_integer`` holds its own
reference, bound at import time, so the wrapper replaces the name in every
loaded ``pertlab`` module that holds the original function, not only in
the module that defines it; calls inside the defining module go through
its globals and are caught as well.

Spans are recorded only while an op is open (``begin_op``/``end_op``), so
the benchmark's own output checks, which call the same validators, stay
out of the trace.  Each span is (function, start ns, end ns, parent span,
op id) from ``perf_counter_ns``.  Self time is a span's duration minus the
time its child spans cover; a child covers its call plus the bookkeeping
the tracer does after it, so no parent is charged for tracer work.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter_ns

# (module, function, short name in metric names); every wrapped function
# gets "<module>.<short>_calls" and "<module>.<short>_s" (self time).
WRAPPED = (
    ("exactlin", "smith_normal_form", "snf"),
    ("exactlin", "solve_integer", "solve"),
    ("chaincore", "compose", "compose"),
    ("chaincore", "hom_complex", "hom_complex"),
    ("chaincore", "hom_differential", "hom_differential"),
    ("chaincore", "validate_complex", "validate_complex"),
    ("sdr_bpl", "bpl_transfer", "bpl_transfer"),
    ("sdr_bpl", "geometric_kernel", "geometric_kernel"),
    ("sdr_bpl", "validate_sdr", "validate_sdr"),
    ("sdr_bpl", "validate_perturbation", "validate_perturbation"),
    ("she_obstruction", "extend_to_she", "extend"),
    ("she_obstruction", "obstruction_cycles", "obstruction"),
    ("she_obstruction", "validate_he", "validate_he"),
    ("she_obstruction", "validate_she", "validate_she"),
    ("she_obstruction", "trivial_extension", "trivial"),
    ("operad_sym", "retraction_r", "retraction"),
    ("operad_sym", "element", "element"),
    ("operad_sym", "multiply", "multiply"),
    ("operad_sym", "diff", "diff"),
    ("operad_sym", "kernel_Z", "kernel"),
    ("ipl_pipeline", "solve_pp", "solve_pp"),
    ("ipl_pipeline", "ipl_perturb", "ipl_perturb"),
    ("ipl_pipeline", "action_from_she", "action"),
    ("ipl_pipeline", "evaluate", "evaluate"),
    ("cli_io", "parse_document", "parse"),
    ("cli_io", "serialize_document", "serialize"),
)

# Size and outcome metrics measured from arguments and results, with units.
EXTRA_METRICS = {
    "exactlin.snf_unique": "count",
    "exactlin.snf_max_cells": "cells",
    "exactlin.snf_max_bits": "bits",
    "exactlin.solve_none": "count",
    "chaincore.hom_complex_max_cells": "cells",
    "she_obstruction.lift_none": "count",
    "she_obstruction.validate_he_repeats": "count",
    "she_obstruction.trivial_hits": "count",
    "operad_sym.retraction_unique": "count",
    "operad_sym.terms_max": "count",
    "ipl_pipeline.evaluate_compositions": "count",
    "cli_io.parse_bytes": "bytes",
    "cli_io.serialize_bytes": "bytes",
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced pass reports, with its unit."""
    units: dict[str, str] = {}
    for module, _, short in WRAPPED:
        units[f"{module}.{short}_calls"] = "count"
        units[f"{module}.{short}_s"] = "s"
    units.update(EXTRA_METRICS)
    return units


class Tracer:
    """Wraps the functions in ``WRAPPED`` and records spans per op."""

    def __init__(self) -> None:
        self.names = [f"{module}.{short}" for module, _, short in WRAPPED]
        self._index = {name: i for i, (_, name, _) in enumerate(WRAPPED)}
        n = len(WRAPPED)
        self.calls = [0] * n
        self.self_ns = [0] * n
        self._open = [0] * n
        self.spans: list[tuple[int, int, int, int, int]] = []
        self._stack: list[int] = []
        self._cover: list[int] = []
        self.op = -1
        self.extra = dict.fromkeys(EXTRA_METRICS, 0)
        self._snf_inputs: set = set()
        self._snf_bits: dict[int, tuple[object, int]] = {}
        self._retraction_inputs: set = set()
        self._he_seen: set = set()
        self._patched: list[tuple[object, str, object]] = []
        # workloads imports pertlab, which only workers have on their path
        from workloads import coeff_bits

        self._coeff_bits = coeff_bits

    # -- ops

    def begin_op(self, op_id: int) -> None:
        self.op = op_id
        self._he_seen = set()

    def end_op(self) -> None:
        self.op = -1

    # -- installation

    def install(self) -> None:
        """Replace every reference to a wrapped function in loaded pertlab
        modules; ``uninstall`` puts the originals back."""
        originals = {}
        for module, func, _ in WRAPPED:
            fn = getattr(sys.modules[f"pertlab.{module}"], func)
            originals[id(fn)] = self._wrap(self._index[func], fn)
        for name, mod in list(sys.modules.items()):
            if name != "pertlab" and not name.startswith("pertlab."):
                continue
            for attr, value in list(vars(mod).items()):
                wrapper = originals.get(id(value))
                if wrapper is not None:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched = []

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _wrap(self, idx: int, fn):
        post = getattr(self, f"_post_{WRAPPED[idx][1]}", None)
        stack, cover, spans = self._stack, self._cover, self.spans
        calls, self_ns, open_ = self.calls, self.self_ns, self._open

        def traced(*args, **kwargs):
            if self.op < 0:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else -1
            span = len(spans)
            spans.append(None)  # type: ignore[arg-type]
            stack.append(span)
            cover.append(0)
            open_[idx] += 1
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                open_[idx] -= 1
                stack.pop()
                children = cover.pop()
                spans[span] = (idx, start, end, parent, self.op)
                calls[idx] += 1
                self_ns[idx] += end - start - children
            if post is not None:
                post(args, result)
            if cover:
                cover[-1] += perf_counter_ns() - start
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__doc__ = fn.__doc__
        return traced

    # -- size and outcome bookkeeping, run after the span has closed

    def _post_smith_normal_form(self, args, dec) -> None:
        a = args[0]
        self._snf_inputs.add(a)
        x = self.extra
        x["exactlin.snf_unique"] = len(self._snf_inputs)
        x["exactlin.snf_max_cells"] = max(x["exactlin.snf_max_cells"], a.rows * a.cols)
        # a cache hit returns the same object; keep it so its id stays unique
        seen = self._snf_bits.get(id(dec))
        if seen is None:
            bits = self._coeff_bits
            seen = (dec, max(bits(dec.U), bits(dec.S), bits(dec.V)))
            self._snf_bits[id(dec)] = seen
        x["exactlin.snf_max_bits"] = max(x["exactlin.snf_max_bits"], seen[1])

    def _post_solve_integer(self, args, x) -> None:
        if x is None:
            self.extra["exactlin.solve_none"] += 1
            if self._open[self._index["extend_to_she"]]:
                self.extra["she_obstruction.lift_none"] += 1

    def _post_hom_complex(self, args, sl) -> None:
        m = sl.differential_matrix
        key = "chaincore.hom_complex_max_cells"
        self.extra[key] = max(self.extra[key], m.rows * m.cols)

    def _post_validate_he(self, args, problems) -> None:
        if args[0] in self._he_seen:
            self.extra["she_obstruction.validate_he_repeats"] += 1
        else:
            self._he_seen.add(args[0])

    def _post_trivial_extension(self, args, she) -> None:
        if she is not None:
            self.extra["she_obstruction.trivial_hits"] += 1

    def _post_retraction_r(self, args, e) -> None:
        self._retraction_inputs.add(args)
        self.extra["operad_sym.retraction_unique"] = len(self._retraction_inputs)

    def _post_element(self, args, e) -> None:
        if len(e.terms) > self.extra["operad_sym.terms_max"]:
            self.extra["operad_sym.terms_max"] = len(e.terms)

    def _post_evaluate(self, args, value) -> None:
        self.extra["ipl_pipeline.evaluate_compositions"] += sum(
            len(w.factors) - 1 for w, _ in args[0].terms if len(w.factors) > 1
        )

    def _post_parse_document(self, args, obj) -> None:
        self.extra["cli_io.parse_bytes"] += len(args[0].encode())

    def _post_serialize_document(self, args, text) -> None:
        self.extra["cli_io.serialize_bytes"] += len(text.encode())

    # -- results

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for i, name in enumerate(self.names):
            out[f"{name}_calls"] = self.calls[i]
            out[f"{name}_s"] = self.self_ns[i] / 1e9
        out.update(self.extra)
        return out

    def write_spans(self, path) -> None:
        """All spans as JSON: one [function, start_ns, end_ns, parent, op]
        row per span, parent -1 for a span called directly by an op."""
        doc = {
            "functions": self.names,
            "columns": ["function", "start_ns", "end_ns", "parent", "op"],
            "spans": self.spans,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
