"""Span recorder for the traced run, and the wrappers that feed it.

`instrument()` replaces the library's public functions and the hot methods
of its classes with wrappers that open a span, call the original and close
the span.  A function is replaced under every module-level name that is
bound to it, so `mse.st_membership` and `monoid.st_membership` are both
traced.  Spans are kept in flat arrays and written out when the run ends;
self time is a span's duration minus the time its direct children cover.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array
from collections import Counter

LAYERS = ("exactnum", "billiard", "words", "morphisms", "monoid", "mse", "cli")

ARITH = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__",
    "__rmul__", "__truediv__", "__rtruediv__", "__pow__", "_inverse",
)
COMPARE = ("__lt__", "__le__", "__gt__", "__ge__", "__eq__", "floor")
STREAM_FUNCS = (
    "fibonacci_stream", "fixed_point_stream", "mechanical_stream",
    "apply_stream", "literal_stream",
)
ANALYZERS = ("complexity", "balance_order", "wse_verdict", "sturmian_verdict")
WORD_ANALYZERS = ("complexity", "balance_order", "wse_verdict")


class SpanRecorder:
    """Spans as parallel arrays: name id, parent index, operation id, start
    and end in nanoseconds.  Parent -1 marks a root span."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("q")
        self.op = array("q")
        self.start = array("q")
        self.end = array("q")
        self.stack = []
        self.op_id = -1
        self.counts = Counter()
        self.depth = Counter()

    def name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid):
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.op_id)
        self.end.append(0)
        self.stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def close(self, idx):
        self.end[idx] = time.perf_counter_ns()
        self.stack.pop()

    def span(self, name):
        return _Span(self, self.name_id(name))

    def aggregate(self):
        """{name: [calls, total_ns, self_ns]} over every closed span."""
        child_ns = [0] * len(self.name)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child_ns[p] += self.end[i] - self.start[i]
        out = {}
        for i, nid in enumerate(self.name):
            dur = self.end[i] - self.start[i]
            row = out.setdefault(self.names[nid], [0, 0, 0])
            row[0] += 1
            row[1] += dur
            row[2] += dur - child_ns[i]
        return out

    def write(self, stem):
        """Write the spans as `<stem>.bin` (arrays) and `<stem>.json` (index)."""
        fields = ("name", "parent", "op", "start", "end")
        with open(f"{stem}.bin", "wb") as fh:
            for field in fields:
                getattr(self, field).tofile(fh)
        with open(f"{stem}.json", "w", encoding="ascii") as fh:
            json.dump(
                {
                    "spans": len(self.name),
                    "names": self.names,
                    "fields": [[f, getattr(self, f).typecode] for f in fields],
                    "counts": dict(self.counts),
                },
                fh,
            )


class _Span:
    __slots__ = ("rec", "nid", "idx")

    def __init__(self, rec, nid):
        self.rec, self.nid = rec, nid

    def __enter__(self):
        self.idx = self.rec.open(self.nid)
        return self

    def __exit__(self, *exc):
        self.rec.close(self.idx)
        return False


def _wrap(rec, name, fn, after=None, depth=None):
    """Span around fn; `after(result, args)` updates counters inside it."""
    nid = rec.name_id(name)
    opened, closed, counts = rec.open, rec.close, rec.depth

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = opened(nid)
        if depth:
            counts[depth] += 1
        try:
            result = fn(*args, **kwargs)
            if after is not None:
                after(result, args)
            return result
        finally:
            if depth:
                counts[depth] -= 1
            closed(idx)

    return wrapper


def _rebind(original, replacement):
    """Point every module-level name bound to `original` at `replacement`."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not mod_name.startswith("sturmian_erasures"):
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, replacement)


def instrument(rec):
    """Wrap the library in place; every later call records spans in rec."""
    import sturmian_erasures.cli as cli
    from sturmian_erasures import billiard, exactnum, monoid, morphisms, mse, words

    counts = rec.counts
    mods = {
        "exactnum": exactnum, "billiard": billiard, "words": words,
        "morphisms": morphisms, "monoid": monoid, "mse": mse, "cli": cli,
    }

    # -- counters taken inside the spans they describe -------------------------
    def after_apply(result, _args):
        counts["morphisms.apply.letters_out"] += len(result)

    def after_st(result, _args):
        counts["monoid.st_membership.calls"] += 1
        if hasattr(result, "factors"):
            counts["monoid.st_membership.accepted"] += 1
            counts["monoid.certificate.factors"] += len(result.factors)
        if rec.depth["mse"]:
            counts["mse.st_calls_in_membership"] += 1

    def after_mse(result, _args):
        counts["mse.mse_membership.calls"] += 1
        if result.reason == "length-filter":
            counts["mse.length_filter.rejects"] += 1

    def after_analyzer(result, args):
        if rec.depth["analyzer"] == 1 and isinstance(args[0], str):
            counts["words.analyzed_letters"] += len(args[0])

    def after_build_parser(parser, _args):
        if not getattr(parser, "_traced", False):
            parser.parse_args = _wrap(
                rec, "cli.parse_args", parser.parse_args, after=after_parse
            )
            parser._traced = True

    def after_parse(ns, _args):
        handler = getattr(ns, "handler", None)
        if handler is not None:
            ns.handler = _wrap(rec, "cli.handler", handler)

    special = {
        "morphisms.apply": dict(after=after_apply),
        "monoid.st_membership": dict(after=after_st),
        "mse.mse_membership": dict(after=after_mse, depth="mse"),
        "cli.build_parser": dict(after=after_build_parser),
    }
    for fn_name in ANALYZERS:
        special[f"words.{fn_name}"] = dict(after=after_analyzer, depth="analyzer")

    # -- module-level functions, under every name they are bound to ------------
    for layer, mod in mods.items():
        for attr in getattr(mod, "__all__", ()):
            fn = getattr(mod, attr, None)
            # Functions, and lru_cache wrappers of functions; not classes or
            # callable constants such as the generator morphisms.
            if not (inspect.isfunction(fn) or inspect.isfunction(getattr(fn, "__wrapped__", 0))):
                continue
            if fn.__module__ != mod.__name__:
                continue
            name = f"{layer}.{attr}"
            if name == "billiard.event_stream":
                _rebind(fn, _traced_event_stream(rec, fn))
                continue
            _rebind(fn, _wrap(rec, name, fn, **special.get(name, {})))

    # -- methods of the exact number type --------------------------------------
    num = exactnum.SqrtBasisNumber
    sign_nid = rec.name_id("exactnum.sign")
    orig_sign = num.sign
    opened, closed = rec.open, rec.close

    def sign(self):
        idx = opened(sign_nid)
        try:
            if self.is_rational():
                counts["exactnum.sign.rational"] += 1
            result = orig_sign(self)
            if result == 0:
                counts["exactnum.sign.zero"] += 1
            return result
        finally:
            closed(idx)

    num.sign = sign
    for attr in ARITH:
        setattr(num, attr, _wrap(rec, f"exactnum.arith.{attr}", getattr(num, attr)))
    for attr in COMPARE:
        setattr(num, attr, _wrap(rec, f"exactnum.compare.{attr}", getattr(num, attr)))
    num.__init__ = _wrap(rec, "exactnum.init", num.__init__)

    billiard.BilliardConfig.__init__ = _wrap(
        rec, "billiard.config", billiard.BilliardConfig.__init__
    )

    # -- streams: prefix() and every pump ------------------------------------
    stream_cls = words.WordStream
    orig_init, orig_prefix = stream_cls.__init__, stream_cls.prefix
    pump_nid = rec.name_id("words.pump")
    served = {}
    ledger = []

    def init(self, pump, source="literal"):
        entry = [0, 0]  # letters pumped, longest prefix served
        ledger.append(entry)
        served[id(self)] = entry

        def traced_pump(need):
            idx = opened(pump_nid)
            try:
                chunk = pump(need)
                entry[0] += len(chunk)
                counts["words.pump.letters"] += len(chunk)
                return chunk
            finally:
                closed(idx)

        orig_init(self, traced_pump, source)

    def after_prefix(result, args):
        counts["words.prefix.calls"] += 1
        counts["words.prefix.letters"] += len(result)
        entry = served.get(id(args[0]))
        if entry is not None:
            entry[1] = max(entry[1], len(result))

    stream_cls.__init__ = init
    stream_cls.prefix = _wrap(rec, "words.prefix", orig_prefix, after=after_prefix)
    return ledger


def _traced_event_stream(rec, original):
    nid = rec.name_id("billiard.event_stream")
    counts = rec.counts

    @functools.wraps(original)
    def event_stream(config):
        gen = original(config)

        def events():
            while True:
                idx = rec.open(nid)
                try:
                    event = next(gen)
                finally:
                    rec.close(idx)
                counts["billiard.events"] += 1
                if len(event.omega) > 1:
                    counts["billiard.fused"] += 1
                yield event

        return events()

    return event_stream


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(rec, ledger, wall_s, untraced_s, cli_extra=None):
    """Every per-layer metric, from the spans and counters of one traced run."""
    agg = rec.aggregate()
    counts = rec.counts

    def calls(*names):
        return sum(agg.get(n, (0, 0, 0))[0] for n in names)

    def self_s(*names):
        return sum(agg.get(n, (0, 0, 0))[2] for n in names) / 1e9

    def prefixed(prefix):
        return [n for n in agg if n.startswith(prefix)]

    sign_calls = calls("exactnum.sign")
    events = counts["billiard.events"]
    pumped = sum(e[0] for e in ledger)
    useful = sum(min(e) for e in ledger)
    st_calls = counts["monoid.st_membership.calls"]
    mse_calls = counts["mse.mse_membership.calls"]
    m = {
        "exactnum.sign.calls": sign_calls,
        "exactnum.sign.self_s": self_s("exactnum.sign"),
        "exactnum.sign.rational_share": _ratio(counts["exactnum.sign.rational"], sign_calls),
        "exactnum.sign.zero_share": _ratio(counts["exactnum.sign.zero"], sign_calls),
        "exactnum.arith.calls": calls(*prefixed("exactnum.arith.")),
        "exactnum.arith.self_s": self_s(*prefixed("exactnum.arith.")),
        "exactnum.init.calls": calls("exactnum.init"),
        "exactnum.init.self_s": self_s("exactnum.init"),
        "exactnum.parse_number.calls": calls("exactnum.parse_number"),
        "exactnum.parse_number.self_s": self_s("exactnum.parse_number"),
        "billiard.config.self_s": self_s("billiard.config"),
        "billiard.events": events,
        "billiard.fused_share": _ratio(counts["billiard.fused"], events),
        "billiard.event_stream.self_s": self_s("billiard.event_stream"),
        "words.prefix.calls": counts["words.prefix.calls"],
        "words.prefix.letters": counts["words.prefix.letters"],
        "words.pump.letters": counts["words.pump.letters"],
        "words.pump.useful_ratio": _ratio(useful, pumped),
        "words.stream.self_s": self_s(
            "words.prefix", "words.pump", *(f"words.{f}" for f in STREAM_FUNCS)
        ),
        "words.complexity.calls": calls("words.complexity"),
        "words.complexity.self_s": self_s("words.complexity"),
        "words.balance_order.calls": calls("words.balance_order"),
        "words.balance_order.self_s": self_s("words.balance_order"),
        "words.wse_verdict.self_s": self_s("words.wse_verdict"),
        "words.erase.self_s": self_s("words.erase"),
        "words.analyzed_letters": counts["words.analyzed_letters"],
        "morphisms.apply.calls": calls("morphisms.apply"),
        "morphisms.apply.letters_out": counts["morphisms.apply.letters_out"],
        "morphisms.apply.self_s": self_s("morphisms.apply"),
        "morphisms.compose.calls": calls("morphisms.compose"),
        "morphisms.compose.self_s": self_s("morphisms.compose"),
        "monoid.st_membership.calls": st_calls,
        "monoid.st_membership.self_s": self_s("monoid.st_membership"),
        "monoid.st_membership.accept_share": _ratio(
            counts["monoid.st_membership.accepted"], st_calls
        ),
        "monoid.certificate.factors": counts["monoid.certificate.factors"],
        "mse.mse_membership.calls": mse_calls,
        "mse.mse_membership.self_s": self_s("mse.mse_membership"),
        "mse.length_filter.reject_share": _ratio(
            counts["mse.length_filter.rejects"], mse_calls
        ),
        "mse.st_calls_per_verdict": _ratio(counts["mse.st_calls_in_membership"], mse_calls),
        "mse.primality.calls": calls("mse.primality"),
        "mse.primality.self_s": self_s("mse.primality"),
        "mse.psi.self_s": self_s("mse.psi"),
        "mse.intercalate.calls": calls("mse.intercalate"),
        "mse.intercalate.self_s": self_s("mse.intercalate"),
    }
    extra = cli_extra or {}
    for key in ("interp_ms", "import_ms", "parse_args_ms", "handler_ms", "stdout_bytes"):
        m[f"cli.{key}"] = extra.get(key, 0.0)
    for layer in LAYERS + ("bench",):
        m[f"{layer}.self_s"] = self_s(*prefixed(f"{layer}."))
    accounted = sum(row[2] for row in agg.values()) / 1e9
    m["trace.wall_s"] = wall_s
    m["trace.spans"] = len(rec.name)
    m["trace.accounted_share"] = _ratio(accounted, wall_s)
    m["trace.overhead_ratio"] = _ratio(wall_s, untraced_s)
    return m
