"""Spans around the public functions of each layer, timed from outside.

The package imports its functions by name (`from .lattice import
lll_reduce`), so a wrapper must replace the name in every module namespace
that binds it, not only in the defining module. A wrapped function that a
later version of the package no longer has is skipped and reports 0 calls.

Ball methods get no span: they run millions of times per request and
wrapping them would swamp the trace; their cost shows in their callers'
self time. Nothing is waited for inside the program (one thread, no queue
or lock), so no waiting time is reported.
"""

from __future__ import annotations

import functools
import json
import sys
from time import perf_counter


def _bits(x) -> int:
    return abs(int(x)).bit_length()


def _lll_note(args, kwargs, result):
    lat = args[0]
    return {"entry_bits": max(_bits(v) for col in lat.basis for v in col)}


# Counters taken at a span's boundary: f(args, kwargs, result) -> dict.
# `result` is None when the call raised.
_NOTES = {
    "lattice.lll_reduce": _lll_note,
    "pisotsearch.verify_pisot": lambda a, k, r: {"accepted": int(r is not None)},
    "pisotsearch.compute_scale_P": lambda a, k, r: {"P_bits": _bits(r)} if r is not None else {},
    "pisotsearch.build_scaled_lattice": lambda a, k, r: {"Q_bits": _bits(a[2] if len(a) > 2 else k["Q"])},
    "algebraic.embeddings_for": lambda a, k, r: {
        "prec_bits": r.precision_bits if r is not None else int(a[1])
    },
    "algebraic.analyze_minpoly": lambda a, k, r: {"threshold_n0": r.threshold_n0} if r is not None else {},
    "powtrace.nearest_power": lambda a, k, r: {"result_bits": _bits(r)} if r is not None else {},
    "powtrace.nearest_power_mod": lambda a, k, r: {"n_bits": _bits(a[1])},
    "slp.emit_power_slp": lambda a, k, r: (
        {"n_bits": _bits(a[1]), "instructions": len(r.instructions) - 1} if r is not None else {}
    ),
    "slp.format_slp": lambda a, k, r: {"bytes": len(r)} if r is not None else {},
}

LAYERS = {
    "cli": ("run",),
    "pisotsearch": ("find_pisot", "compute_scale_P", "build_scaled_lattice", "verify_pisot"),
    "lattice": ("lll_reduce",),
    "algebraic": ("embeddings_for", "eval_combination", "minimal_polynomial", "analyze_minpoly", "poly_roots"),
    "powtrace": ("nearest_power", "nearest_power_mod", "matpow"),
    "slp": ("emit_power_slp", "format_slp", "parse_slp", "slp_eval"),
}
SPAN_NAMES = tuple(f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns)


class Tracer:
    """Records spans [name, start, end, parent index, request id, counters]
    in memory while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.request_id = None
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def install(self):
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "pisot" or name.startswith("pisot."))]
        for layer, fns in LAYERS.items():
            home = sys.modules.get(f"pisot.{layer}")
            for fn in fns:
                original = getattr(home, fn, None)
                if not callable(original):
                    continue
                wrapper = self._wrap(f"{layer}.{fn}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def _wrap(self, name, fn):
        note = _NOTES.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.request_id, None]
            spans.append(span)
            stack.append(idx)
            result = None
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                span[2] = perf_counter()
                stack.pop()
                if note is not None:
                    try:
                        span[5] = note(args, kwargs, result)
                    except Exception:  # a changed signature must not stop the run
                        span[5] = None

        return wrapper

    def write(self, path: str):
        with open(path, "w", encoding="ascii") as fh:
            for name, start, end, parent, rid, counters in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent,
                                     "request": rid, "counters": counters}) + "\n")


def self_times(spans) -> list[float]:
    """Duration minus the time covered by direct child spans."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child[s[3]] += s[2] - s[1]
    return [s[2] - s[1] - c for s, c in zip(spans, child)]


def _has_ancestor(spans, idx: int, name: str) -> bool:
    p = spans[idx][3]
    while p >= 0:
        if spans[p][0] == name:
            return True
        p = spans[p][3]
    return False


def layer_metrics(spans, weights: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics for one pass over the request list: calls and self
    time for every wrapped function, plus counters and ratios from the span
    boundaries. A span counts with the weight of its request id, 1 / (traced
    sends of that request), so that every request counts once, however many
    rounds it was sent in."""
    selfs = self_times(spans)
    calls = {n: 0.0 for n in SPAN_NAMES}
    self_s = {n: 0.0 for n in SPAN_NAMES}
    total_s = {n: 0.0 for n in SPAN_NAMES}
    sums: dict[str, float] = {}
    maxes: dict[str, float] = {}
    roots_in_analyze = 0.0
    for i, (name, start, end, _parent, rid, counters) in enumerate(spans):
        w = weights[rid]
        calls[name] += w
        self_s[name] += w * selfs[i]
        total_s[name] += w * (end - start)
        for key, v in (counters or {}).items():
            sums[f"{name}.{key}"] = sums.get(f"{name}.{key}", 0) + w * v
            maxes[f"{name}.{key}"] = max(maxes.get(f"{name}.{key}", 0), v)
        if name == "algebraic.poly_roots" and _has_ancestor(spans, i, "algebraic.analyze_minpoly"):
            roots_in_analyze += w

    def ratio(a, b):
        return a / b if b else 0.0

    out = {}
    for n in SPAN_NAMES:
        out[f"{n}.calls"] = (calls[n], "count")
        out[f"{n}.self_s"] = (self_s[n], "s")
    emit_bits = sums.get("slp.emit_power_slp.n_bits", 0)
    out.update({
        "lattice.lll_reduce.entry_bits_max": (maxes.get("lattice.lll_reduce.entry_bits", 0), "bits"),
        "pisotsearch.find_pisot.attempts": (
            ratio(calls["lattice.lll_reduce"], calls["pisotsearch.find_pisot"]), "count"),
        "algebraic.embeddings_for.prec_bits_max": (maxes.get("algebraic.embeddings_for.prec_bits", 0), "bits"),
        "pisotsearch.verify_pisot.accept_ratio": (
            ratio(sums.get("pisotsearch.verify_pisot.accepted", 0), calls["pisotsearch.verify_pisot"]), "1"),
        "pisotsearch.compute_scale_P.P_bits_max": (maxes.get("pisotsearch.compute_scale_P.P_bits", 0), "bits"),
        "pisotsearch.build_scaled_lattice.Q_bits_max": (
            maxes.get("pisotsearch.build_scaled_lattice.Q_bits", 0), "bits"),
        "algebraic.poly_roots.calls_per_analyze": (
            ratio(roots_in_analyze, calls["algebraic.analyze_minpoly"]), "count"),
        "algebraic.analyze_minpoly.threshold_n0_max": (
            maxes.get("algebraic.analyze_minpoly.threshold_n0", 0), "count"),
        "powtrace.nearest_power.result_bits": (maxes.get("powtrace.nearest_power.result_bits", 0), "bits"),
        "powtrace.nearest_power_mod.ms_per_bit": (
            ratio(1000 * total_s["powtrace.nearest_power_mod"], sums.get("powtrace.nearest_power_mod.n_bits", 0)),
            "ms/bit"),
        "slp.emit_power_slp.instructions": (sums.get("slp.emit_power_slp.instructions", 0), "count"),
        "slp.emit_power_slp.instructions_per_bit": (
            ratio(sums.get("slp.emit_power_slp.instructions", 0), emit_bits), "count/bit"),
        "slp.format_slp.bytes": (sums.get("slp.format_slp.bytes", 0), "B"),
    })
    return out


def check_spans(spans, request_times: dict) -> list[str]:
    """Self times are never negative, and a request's spans' self times sum
    to no more than the request's own wall time."""
    problems = []
    per_request: dict = {}
    for s, st in zip(spans, self_times(spans)):
        if st < -1e-9:
            problems.append(f"negative self time {st:.3g} s in {s[0]}")
        per_request[s[4]] = per_request.get(s[4], 0.0) + st
    for rid, total in per_request.items():
        if total > request_times.get(rid, 0.0) + 1e-9:
            problems.append(f"request {rid}: span self times {total:.6f} s exceed its {request_times.get(rid, 0.0):.6f} s")
    return problems
