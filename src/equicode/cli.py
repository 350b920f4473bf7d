"""Command-line driver: multiplication, benchmarks, code and decode I/O.

Conventions:
  * data to stdout or --out files, warnings and progress to stderr;
  * every randomized subcommand (bench-mul, gen split) echoes the seed
    it used to stderr (--seed, falling back to the EQUICODE_SEED
    variable, then 0); decode draws no random number and ignores --seed;
  * JSON artifacts are canonical (see files.py) so identical inputs give
    byte-identical outputs;
  * exit codes: 0 success, 1 parse/usage problems, 2 InvariantViolation,
    3 NotInImage, 4 DecodeFail.
"""

from __future__ import annotations

import argparse
import csv
import functools
import os
import statistics
import sys
import time
import warnings

from . import files
from .code import (
    cyclic_cover_code,
    encode,
    genus2_example_code,
    interpolate,
    parity_check,
    rs_degenerate_code,
    synth_split_code,
    validate,
)
from .decode import basic_decode, make_cyclic_decoder_data, \
    make_rs_decoder_data
from .errors import (
    DecodeFail,
    EquicodeError,
    InvariantViolation,
    Mismatch,
    NotInImage,
    ParseError,
)
from .ff import count_field_ops, field_make
from .galg import AbelianGroup, ga_mul_fast, ga_mul_naive, ga_rand


def _parse_group(text) -> AbelianGroup:
    """"1" is the trivial group; otherwise comma-separated invariant
    factors, e.g. "4" or "2,6"."""
    text = text.strip()
    if text == "1":
        return AbelianGroup([])
    try:
        factors = [int(t) for t in text.split(",")]
    except ValueError:
        raise ParseError("cannot parse group %r" % text)
    try:
        return AbelianGroup(factors)
    except EquicodeError as e:
        raise ParseError("bad group %r: %s" % (text, e))


def _load_elements(arg, group, ctx, what):
    """@file loads a vector artifact; anything else is inline JSON: one
    coefficient list (a single element) or a list of coefficient lists."""
    if arg.startswith("@"):
        got_group, got_ctx, elems = files.load_vector(arg[1:])
        if got_group != group or got_ctx != ctx:
            raise Mismatch("%s file disagrees with the code's field/group"
                           % what)
        return elems
    obj = files.loads(arg)
    if not isinstance(obj, list) or not obj:
        raise ParseError("%s must be a non-empty JSON list" % what)
    depth, probe = 0, obj
    while isinstance(probe, list) and probe:
        probe, depth = probe[0], depth + 1
    element_depth = 1 if ctx.d == 1 else 2
    if depth == element_depth:
        obj = [obj]
    elif depth != element_depth + 1:
        raise ParseError("%s has the wrong nesting for this field" % what)
    return [files.element_from_obj(group, ctx, e) for e in obj]


def _emit(text, out):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _resolve_seed(args):
    if args.seed is not None:
        return args.seed
    env = os.environ.get("EQUICODE_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ParseError("EQUICODE_SEED must be an integer")
    return 0


def _echo_seed(seed):
    print("seed: %d" % seed, file=sys.stderr)


# ------------------------------------------------------------ subcommands


def cmd_mul(args):
    ctx = field_make(args.p, args.d)
    group = _parse_group(args.group)
    a = _load_elements(args.a, group, ctx, "--a")
    b = _load_elements(args.b, group, ctx, "--b")
    if len(a) != 1 or len(b) != 1:
        raise ParseError("--a and --b each take exactly one element")
    if args.method == "naive":
        prod = ga_mul_naive(a[0], b[0])
        out = files.element_to_obj(prod)
    elif args.method == "fast":
        prod = ga_mul_fast(a[0], b[0])
        out = files.element_to_obj(prod)
    else:
        fast = ga_mul_fast(a[0], b[0])
        naive = ga_mul_naive(a[0], b[0])
        if fast != naive:
            raise InvariantViolation("fast and naive products disagree")
        out = {"agree": True, "product": files.element_to_obj(fast)}
    _emit(files.canonical_dumps(out), args.out)
    return 0


def cmd_bench_mul(args):
    ctx = field_make(args.p, args.d)
    # each size is a cyclic group order, "1" the trivial group
    groups = [_parse_group(t) for t in args.sizes.split(",")] \
        if args.sizes else []
    if args.reps < 1:
        raise ParseError("--reps must be at least 1, got %d" % args.reps)
    seed = _resolve_seed(args)
    _echo_seed(seed)
    import random as _random
    rng = _random.Random(seed)
    rows = [["group_order", "method", "median_ns", "ops_per_element"]]
    for group in groups:
        m = group.order
        a = ga_rand(group, ctx, rng)
        b = ga_rand(group, ctx, rng)
        for name, fn in (("naive", ga_mul_naive), ("fast", ga_mul_fast)):
            times = []
            for _ in range(args.reps):
                t0 = time.perf_counter_ns()
                fn(a, b)
                times.append(time.perf_counter_ns() - t0)
            with count_field_ops() as ops:
                fn(a, b)
            rows.append([m, name, int(statistics.median(times)),
                         ops.count // m])
    if args.out:
        with open(args.out, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
    else:
        csv.writer(sys.stdout).writerows(rows)
    return 0


def _validate(code):
    """validate(code), with its warnings printed to stderr."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        validate(code)
    for w in caught:
        print("warning: %s" % w.message, file=sys.stderr)


def cmd_code(args):
    code = files.load_code(args.code)
    group, ctx = code.group, code.field
    if args.action == "validate":
        _validate(code)
        print("ok")
        return 0
    if args.action == "encode":
        if args.message is None:
            raise ParseError("encode needs --message")
        m = _load_elements(args.message, group, ctx, "--message")
        c = encode(code, m)
        _emit(files.canonical_dumps(files.vector_to_obj(group, ctx, c)),
              args.out)
        return 0
    if args.received is None:
        raise ParseError("%s needs --received" % args.action)
    r = _load_elements(args.received, group, ctx, "--received")
    if args.action == "check":
        syndrome = parity_check(code, r)
        _emit(files.canonical_dumps(
            files.vector_to_obj(group, ctx, syndrome)), args.out)
        return 0
    m = interpolate(code, r)
    _emit(files.canonical_dumps(files.vector_to_obj(group, ctx, m)),
          args.out)
    return 0


def cmd_decode(args):
    dd = files.load_decoder(args.decoder)
    if args.code:
        if files.load_code(args.code) != dd.code:
            raise Mismatch("--code disagrees with the decoder's code")
    code = dd.code
    _validate(code)
    group, ctx = code.group, code.field
    r = _load_elements(args.received, group, ctx, "--received")
    trace = None
    if args.trace:
        trace = lambda line: print("trace: %s" % line, file=sys.stderr)
    res = basic_decode(dd, r, trace=trace)
    out = {"codeword": [files.element_to_obj(a) for a in res.codeword],
           "message": [files.element_to_obj(a) for a in res.message],
           "error": [files.element_to_obj(a) for a in res.error],
           "zeros": [[i, s] for i, s in res.zeros],
           "denominator": (None if res.denominator is None else
                           [files.element_to_obj(a)
                            for a in res.denominator])}
    _emit(files.canonical_dumps(out), args.out)
    return 0


def _require(args, *names):
    for name in names:
        if getattr(args, name) is None:
            raise ParseError("gen %s needs --%s"
                             % (args.what, name.replace("_", "-")))


def cmd_gen(args):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if args.what == "rs":
            _require(args, "p", "n", "deg")
            code = rs_degenerate_code(args.p, args.n, args.deg, args.d)
            files.save_code(args.out, code)
            if args.decoder_out:
                dd = make_rs_decoder_data(code, args.deg_d0)
                files.save_decoder(args.decoder_out, dd)
        elif args.what == "cyclic":
            _require(args, "p", "order", "n", "k")
            code = cyclic_cover_code(args.p, args.d, args.order, args.n,
                                     args.k)
            files.save_code(args.out, code)
            if args.decoder_out:
                dd = make_cyclic_decoder_data(code, args.k0)
                files.save_decoder(args.decoder_out, dd)
        elif args.what == "split":
            _require(args, "p", "group", "n", "k")
            seed = _resolve_seed(args)
            _echo_seed(seed)
            code = synth_split_code(args.p, args.d,
                                    _parse_group(args.group),
                                    args.n, args.k, seed)
            files.save_code(args.out, code)
        else:
            code = genus2_example_code()
            files.save_code(args.out, code)
    for w in caught:
        print("warning: %s" % w.message, file=sys.stderr)
    print("wrote %s" % args.out, file=sys.stderr)
    return 0


# ------------------------------------------------------------------ driver


class _Parser(argparse.ArgumentParser):
    """Usage errors raise ParseError, so --json-errors reports them too;
    subparsers inherit the class."""

    def error(self, message):
        raise ParseError("%s: %s" % (self.prog, message))


def build_parser():
    top = _Parser(
        prog="equicode",
        description="group-algebra arithmetic and equivariant codes")
    top.add_argument("--json-errors", action="store_true",
                     help="report errors as one JSON object on stdout")
    sub = top.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("mul", help="multiply two group-algebra elements")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--group", required=True)
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--method", choices=["naive", "fast", "both"],
                   default="fast")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_mul)

    p = sub.add_parser("bench-mul", help="time and count multiplications")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--sizes", default="",
                   help="comma-separated group orders")
    p.add_argument("--reps", type=int, default=5)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", help="CSV path (default stdout)")
    p.set_defaults(fn=cmd_bench_mul)

    p = sub.add_parser("code", help="validate/encode/check/interpolate")
    p.add_argument("action",
                   choices=["validate", "encode", "check", "interpolate"])
    p.add_argument("--code", required=True)
    p.add_argument("--message")
    p.add_argument("--received")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_code)

    p = sub.add_parser("decode", help="correct a received word")
    p.add_argument("--decoder", required=True)
    p.add_argument("--code")
    p.add_argument("--received", required=True)
    p.add_argument("--seed", type=int, default=None,
                   help="ignored: decoding draws no random number")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_decode)

    p = sub.add_parser("gen", help="generate a code file")
    p.add_argument("what", choices=["rs", "split", "cyclic", "example"])
    p.add_argument("--p", type=int)
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--group")
    p.add_argument("--order", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--k0", type=int, default=1)
    p.add_argument("--deg", type=int)
    p.add_argument("--deg-d0", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--decoder-out")
    p.set_defaults(fn=cmd_gen)
    return top


# argparse builds a fresh Namespace per parse_args, so one parser serves
# every main() call in a process; built on first use, not at import
_parser = functools.cache(build_parser)


_EXIT_CODES = (
    (ParseError, 1),
    (InvariantViolation, 2),
    (NotInImage, 3),
    (DecodeFail, 4),
    (EquicodeError, 1),
)


def _report(e: EquicodeError, json_errors: bool) -> int:
    for klass, status in _EXIT_CODES:
        if isinstance(e, klass):
            break
    if json_errors:
        sys.stdout.write(files.canonical_dumps(
            {"error": type(e).__name__, "message": str(e)}))
    else:
        print("error: %s: %s" % (type(e).__name__, e), file=sys.stderr)
    return status


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        # --help exits through here
        return 0 if not e.code else 1
    except ParseError as e:
        # the flag itself may be what failed to parse, so look for it
        return _report(e, "--json-errors" in argv)
    try:
        return args.fn(args)
    except EquicodeError as e:
        return _report(e, args.json_errors)


if __name__ == "__main__":
    sys.exit(main())
