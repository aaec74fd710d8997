"""Span wrappers around opoly's public functions, installed from outside.

`install` replaces each function in TARGETS, and every `from .x import f`
alias of it inside opoly's modules, by a wrapper that records a span
(name, start, end, parent, item) in a Recorder; `uninstall` puts the
originals back.  Spans stay in memory and are written out as JSON lines
at the end.  A span's self time is its duration minus the part of it
that its child spans cover.
"""

import functools
import importlib
import json
import sys
import time

TARGETS = {
    "orthopoly": ("smop_from_moments", "moments_from_jacobi", "polys_from_recurrence", "hankel_minor"),
    "poly": ("Polynomial.mul", "wronskian"),
    "functional": ("apply", "invert", "multiply_poly", "divide_power"),
    "associated": ("inverse_recurrence", "inverse_connection", "inverse_smop", "associated_polys"),
    "darboux": ("christoffel_lu", "geronimus_ul"),
    "quadratic": ("quadratic_geronimus_smop", "quadratic_recurrence", "quadratic_factorization"),
    "composition": ("christoffel_assoc_chain", "geronimus_assoc_chain"),
    "stieltjes": ("stieltjes_series",),
    "series": ("series_multiply",),
    "matrices": ("mat_multiply",),
    "serialize": ("dumps", "functional_from_json"),
    "cli": ("main", "run_verify", "family_reproduction"),
}

SMOP = "orthopoly.smop_from_moments"


def metric_units():
    """(name, unit) of every per-layer metric, in the order they are reported."""
    names = []
    for module, functions in TARGETS.items():
        for fn in functions:
            names += [("%s.%s.calls" % (module, fn), "count"), ("%s.%s.self_s" % (module, fn), "s")]
        names.append(("%s.self_s" % module, "s"))
    return names + [
        (SMOP + ".distinct_frac", "frac"),
        ("orthopoly.out_bits_max", "bits"),
        ("cli.startup_ms", "ms"),
        ("trace.overhead_frac", "frac"),
    ]


class Recorder:
    """Spans of one process, as [name, start, end, parent, item, extra] lists."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.item = None

    def write_jsonl(self, path):
        with open(path, "w") as handle:
            for ident, (name, start, end, parent, item, extra) in enumerate(self.spans):
                record = {"id": ident, "name": name, "start": start, "end": end,
                          "parent": parent, "item": item}
                if extra:
                    record.update(extra)
                handle.write(json.dumps(record) + "\n")


def _bits(values):
    return max((max(v.numerator.bit_length(), v.denominator.bit_length()) for v in values), default=0)


def _smop_key(args, kwargs):
    """The (moments, n_max) input of smop_from_moments, hashed."""
    u, n_max = (list(args) + [kwargs.get("u"), kwargs.get("n_max")])[:2]
    return hash((u.moments, n_max))


def _wrap(name, fn, recorder):
    spans, stack = recorder.spans, recorder.stack
    clock = time.perf_counter

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = len(spans)
        span = [name, 0.0, 0.0, stack[-1] if stack else None, recorder.item, None]
        if name == SMOP:
            span[5] = {"key": _smop_key(args, kwargs), "bits": 0}
        spans.append(span)
        stack.append(index)
        span[1] = clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = clock()
            stack.pop()
        if name == SMOP:
            rc, system = result
            span[5]["bits"] = _bits(rc.b + rc.a + system.norms)
        return result

    return wrapper


def install(recorder):
    """Wrap every target and rebind its aliases; returns the undo list."""
    replacements = {}
    undo = []
    for module, functions in TARGETS.items():
        mod = importlib.import_module("opoly." + module)
        for fn_name in functions:
            name = "%s.%s" % (module, fn_name)
            if fn_name == "Polynomial.mul":
                cls = mod.Polynomial
                original = cls.__dict__["__mul__"]
                wrapper = _wrap(name, original, recorder)
                for attr in ("__mul__", "__rmul__"):
                    if cls.__dict__.get(attr) is original:
                        undo.append((cls, attr, original))
                        setattr(cls, attr, wrapper)
                continue
            original = getattr(mod, fn_name)
            replacements[id(original)] = (original, _wrap(name, original, recorder))
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "opoly" or mod_name.startswith("opoly.")):
            continue
        for attr, value in list(vars(mod).items()):
            hit = replacements.get(id(value))
            if hit is not None and hit[0] is value:
                undo.append((mod, attr, value))
                setattr(mod, attr, hit[1])
    return undo


def uninstall(undo):
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


def self_times(spans):
    """Self time of each span: its duration minus the union of its children."""
    children = [[] for _ in spans]
    for index, span in enumerate(spans):
        if span["parent"] is not None:
            children[span["parent"]].append(index)
    out = []
    for index, span in enumerate(spans):
        covered = 0.0
        cursor = span["start"]
        for lo, hi in sorted((spans[c]["start"], spans[c]["end"]) for c in children[index]):
            lo, hi = max(lo, cursor), min(hi, span["end"])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(span["end"] - span["start"] - covered)
    return out


def read_jsonl(paths):
    """Spans from several files, with ids and parents renumbered to be unique."""
    spans = []
    for path in paths:
        base = len(spans)
        with open(path) as handle:
            for line in handle:
                span = json.loads(line)
                span["id"] += base
                if span["parent"] is not None:
                    span["parent"] += base
                spans.append(span)
    return spans


def layer_metrics(spans):
    """calls and self_s per target, self_s per module, and the smop counters."""
    metrics = {}
    for module, functions in TARGETS.items():
        metrics["%s.self_s" % module] = 0.0
        for fn in functions:
            metrics["%s.%s.calls" % (module, fn)] = 0
            metrics["%s.%s.self_s" % (module, fn)] = 0.0
    keys = set()
    bits = 0
    for span, own in zip(spans, self_times(spans)):
        name = span["name"]
        metrics[name + ".calls"] += 1
        metrics[name + ".self_s"] += own
        metrics[name.split(".")[0] + ".self_s"] += own
        if name == SMOP:
            keys.add(span["key"])
            bits = max(bits, span["bits"])
    calls = metrics[SMOP + ".calls"]
    metrics[SMOP + ".distinct_frac"] = len(keys) / calls if calls else 0.0
    metrics["orthopoly.out_bits_max"] = bits
    return metrics
