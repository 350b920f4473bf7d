"""Spans around equicode's public functions, recorded from outside the library.

The library itself is not instrumented.  `Tracer.installed()` rebinds each
function in TRACED in every `equicode.*` namespace that holds it: names
imported with `from ... import` (kg_apply lives in decode, code and kgmat)
and module attributes (gauss.solve, ff.factorize) are both covered, because
the rebinding looks for the function object itself, not for a name.

A span is one list [name, parent, start_ns, end_ns, word, phase, info].
Spans stay in memory and are written out once, by `dump`.  `aggregate`
folds them into the per-layer metrics; self time is a span's duration minus
the durations of its direct children.
"""

from __future__ import annotations

import gzip
import json
import statistics
import sys
import time
from contextlib import contextmanager

# (module, function) pairs to wrap, by span name.
TRACED = {
    "ff.factorize": ("equicode.ff", "factorize"),
    "ff.root_of_unity": ("equicode.ff", "root_of_unity"),
    "galg.ga_mul_fast": ("equicode.galg", "ga_mul_fast"),
    "galg.ft_group": ("equicode.galg", "ft_group"),
    "galg.ft_inverse": ("equicode.galg", "ft_inverse"),
    "kgmat.kg_apply": ("equicode.kgmat", "kg_apply"),
    "kgmat.kg_matmul": ("equicode.kgmat", "kg_matmul"),
    "kgmat.expand": ("equicode.kgmat", "expand"),
    "kgmat.expanded_rank": ("equicode.kgmat", "expanded_rank"),
    "kgmat.split_kernel_and_inverse":
        ("equicode.kgmat", "split_kernel_and_inverse"),
    "blackbox.kernel_sample": ("equicode.blackbox", "wiedemann_kernel_sample"),
    "blackbox.berlekamp_massey": ("equicode.blackbox", "berlekamp_massey"),
    "gauss.solve": ("equicode.gauss", "solve"),
    "gauss.matvec": ("equicode.gauss", "matvec"),
    "gauss.rank": ("equicode.gauss", "rank"),
    "code.validate": ("equicode.code", "validate"),
    "code.parity_check": ("equicode.code", "parity_check"),
    "code.interpolate": ("equicode.code", "interpolate"),
    "decode.basic_decode": ("equicode.decode", "basic_decode"),
    "decode.denominator_check": ("equicode.decode", "denominator_check"),
    "decode.make_cyclic_decoder_data":
        ("equicode.decode", "make_cyclic_decoder_data"),
    "decode.make_rs_decoder_data": ("equicode.decode", "make_rs_decoder_data"),
    "files.load_decoder": ("equicode.files", "load_decoder"),
    "files.canonical_dumps": ("equicode.files", "canonical_dumps"),
    "cli.main": ("equicode.cli", "main"),
}

REQUEST = "bench.request"


# What a span keeps from its call's arguments and result (None when the
# call raised), by span name.  basic_decode makes a fresh operator per
# round, so the operator's call count after a kernel sample is that
# sample's black-box applications.
INFO = {
    "blackbox.kernel_sample":
        lambda args, result: (args[0].calls, result is not None),
    "gauss.solve": lambda args, result: len(args[1]) * len(args[1][0]),
    "decode.basic_decode":
        lambda args, result: None if result is None else len(result.zeros),
}


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self.active = False
        self.phase = None
        self.word = None

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns
        info = INFO.get(name)

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = [name, stack[-1] if stack else None, clock(), None,
                    self.word, self.phase, None]
            stack.append(len(spans))
            spans.append(span)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                span[3] = clock()
                stack.pop()
                if info is not None:
                    span[6] = info(args, result)

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        """Rebind every traced function in every equicode namespace."""
        undo = []
        try:
            for name, (modname, attr) in TRACED.items():
                original = getattr(sys.modules[modname], attr)
                wrapper = self._wrap(name, original)
                for mname, mod in list(sys.modules.items()):
                    if mname != "equicode" and \
                            not mname.startswith("equicode."):
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)
                            undo.append((mod, key, original))
            yield self
        finally:
            for mod, key, original in reversed(undo):
                setattr(mod, key, original)

    @contextmanager
    def recording(self, phase, word=None):
        """Record spans inside the block, under one bench.request span."""
        self.phase, self.word, self.active = phase, word, True
        span = [REQUEST, None, time.perf_counter_ns(), None, word, phase,
                None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield
        finally:
            span[3] = time.perf_counter_ns()
            self._stack.pop()
            self.active = False

    def dump(self, path):
        with gzip.open(path, "wt") as fh:
            json.dump({"fields": ["name", "parent", "start_ns", "end_ns",
                                  "word", "phase", "info"],
                       "spans": self.spans}, fh, separators=(",", ":"))


def _self_times(spans):
    child = [0] * len(spans)
    for s in spans:
        if s[1] is not None:
            child[s[1]] += s[3] - s[2]
    return [s[3] - s[2] - c for s, c in zip(spans, child)]


# Per-layer metrics read straight off the spans: name -> (phase, kind,
# span names).  Setup-phase metrics are the ones that should move setup_s;
# the rest should move the request metrics.
LAYER_METRICS = {
    "ff.factorize.calls": ("work", "calls", ("ff.factorize",)),
    "ff.root_of_unity.calls": ("work", "calls", ("ff.root_of_unity",)),
    "galg.ga_mul_fast.calls": ("work", "calls", ("galg.ga_mul_fast",)),
    "galg.ga_mul_fast.self_s": ("work", "self", ("galg.ga_mul_fast",)),
    "galg.ft.calls": ("work", "calls", ("galg.ft_group", "galg.ft_inverse")),
    "galg.ft.s": ("work", "total", ("galg.ft_group", "galg.ft_inverse")),
    "kgmat.kg_apply.calls": ("work", "calls", ("kgmat.kg_apply",)),
    "kgmat.kg_apply.self_s": ("work", "self", ("kgmat.kg_apply",)),
    "kgmat.expand.s": ("work", "total", ("kgmat.expand",)),
    "kgmat.expanded_rank.s": ("setup", "total", ("kgmat.expanded_rank",)),
    "kgmat.kg_matmul.s": ("setup", "total", ("kgmat.kg_matmul",)),
    "kgmat.split_kernel_and_inverse.s":
        ("setup", "total", ("kgmat.split_kernel_and_inverse",)),
    "blackbox.kernel_sample.calls":
        ("work", "calls", ("blackbox.kernel_sample",)),
    "blackbox.kernel_sample.self_s":
        ("work", "self", ("blackbox.kernel_sample",)),
    "blackbox.berlekamp_massey.s":
        ("work", "total", ("blackbox.berlekamp_massey",)),
    "gauss.solve.s": ("work", "total", ("gauss.solve",)),
    "gauss.matvec.s": ("work", "total", ("gauss.matvec",)),
    "gauss.rank.s": ("setup", "total", ("gauss.rank",)),
    "code.validate.s": ("setup", "total", ("code.validate",)),
    "code.parity_check.s": ("work", "total", ("code.parity_check",)),
    "code.interpolate.s": ("work", "total", ("code.interpolate",)),
    "decode.basic_decode.self_s":
        ("work", "self", ("decode.basic_decode",)),
    "decode.denominator_check.s":
        ("work", "total", ("decode.denominator_check",)),
    "decode.decoder_data.s":
        ("setup", "total", ("decode.make_cyclic_decoder_data",
                            "decode.make_rs_decoder_data")),
    "files.load_decoder.s": ("work", "total", ("files.load_decoder",)),
    "files.canonical_dumps.s": ("work", "total", ("files.canonical_dumps",)),
    "cli.main.self_s": ("work", "self", ("cli.main",)),
}


def aggregate(spans, pair_names, scale):
    """Per-layer metric values from one traced run.

    Counts and times cover the traced requests ("work" phase) or the traced
    set-up, as LAYER_METRICS says.  Times are multiplied by `scale`, the
    run's reference seconds per wall second.  Metrics of layers a workload
    never reaches come out as 0.
    """
    selfs = _self_times(spans)
    calls, total, self_ns = {}, {}, {}
    for s, own in zip(spans, selfs):
        key = (s[5], s[0])
        calls[key] = calls.get(key, 0) + 1
        total[key] = total.get(key, 0) + s[3] - s[2]
        self_ns[key] = self_ns.get(key, 0) + own
    out = {}
    for metric, (phase, kind, names) in LAYER_METRICS.items():
        table = {"calls": calls, "total": total, "self": self_ns}[kind]
        value = sum(table.get((phase, n), 0) for n in names)
        out[metric] = value if kind == "calls" else value * scale / 1e9

    samples = [s for s in spans if s[0] == "blackbox.kernel_sample"
               and s[5] == "work"]
    out["blackbox.applies"] = sum(s[6][0] for s in samples)
    found = sum(1 for s in samples if s[6][1])
    out["blackbox.kernel_sample.success_ratio"] = \
        found / len(samples) if samples else 0.0
    out["gauss.solve.cells"] = sum(s[6] for s in spans
                                   if s[0] == "gauss.solve"
                                   and s[5] == "work")

    # a basic_decode span's info is its zero count, None if it raised
    rounds_of = {i: 0 for i, s in enumerate(spans)
                 if s[0] == "decode.basic_decode" and s[5] == "work"}
    for s in samples:
        if s[1] in rounds_of:
            rounds_of[s[1]] += 1
    decoded = [i for i in rounds_of if spans[i][6] is not None]
    rounds = sum(rounds_of.values())
    out["decode.rounds"] = rounds
    out["decode.round_success_ratio"] = (
        sum(1 for i in decoded if rounds_of[i]) / rounds if rounds else 0.0)
    out["decode.zeros"] = (sum(spans[i][6] for i in decoded) / len(decoded)
                           if decoded else 0.0)

    for pair in pair_names:
        times = [s[3] - s[2] for s in spans
                 if s[0] == "galg.ga_mul_fast" and s[5] == "work"
                 and s[4] == pair and spans[s[1]][0] == REQUEST]
        out["galg.mul.%s_s" % pair] = \
            statistics.median(times) * scale / 1e9 if times else 0.0
    return out
