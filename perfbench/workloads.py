"""The benchmark's workloads: inputs from a seed, set-up, requests, checks.

Each workload is a closed loop with one client: the next request is sent
only after the previous one returned.  A request is a list of Items; an
item's `call` is the only code that runs on the clock, its `check` verifies
the output off the clock and returns False (or raises) on a wrong answer.
Every input is drawn from random.Random("<workload>/<seed>/<index>"), so a
request's inputs depend on the seed and its position only.

Library functions are looked up on the `equicode` package at call time
(eq.basic_decode, not a name bound here), so that a traced run sees the
calls the benchmark itself makes.
"""

from __future__ import annotations

import contextlib
import os
import random
from dataclasses import dataclass
from typing import Any, Callable

import equicode as eq
from equicode import cli, files


@dataclass
class Item:
    word: str
    call: Callable[[], Any]
    check: Callable[[Any], bool]


def _rng(name, seed, index):
    return random.Random("%s/%d/%s" % (name, seed, index))


def audit_decode(code, received, sent, res):
    """The soundness audit of a decode result, plus the exact message.

    codeword + error = received, the codeword has zero syndrome and
    re-encodes, the error sits inside the denominator's zeros (or is zero
    on the syndrome-zero path), and the message is the one sent.
    """
    zero = code.field.zero
    if list(res.message) != list(sent):
        return False
    if any(eq.ga_add(c, e) != x
           for c, e, x in zip(res.codeword, res.error, received)):
        return False
    cw = list(res.codeword)
    if not all(s.is_zero() for s in eq.parity_check(code, cw)):
        return False
    if list(eq.encode(code, eq.interpolate(code, cw))) != cw:
        return False
    if res.denominator is None:
        return all(e.is_zero() for e in res.error)
    zeros = set(res.zeros)
    return all(c == zero or (i, s) in zeros
               for i, e in enumerate(res.error)
               for s, c in enumerate(e.coeffs))


class CoverDecode:
    """Cyclic-cover code over F_12289, G = Z/32, n=8, k=2 (N=256).

    Every word carries exactly `radius` = 63 expanded errors and all words
    share one decoder data, so caches tied to the decoder data can hit.
    """

    name = "cover-decode"
    setup_reps = 5
    trace_requests = 2

    def __init__(self, seed, workdir):
        self.seed = seed
        self.code = self.dd = None

    def setup(self):
        self.code = eq.cyclic_cover_code(12289, 1, 32, 8, 2)
        self.dd = eq.make_cyclic_decoder_data(self.code, 2)

    def check_setup(self):
        return self.dd.radius == 63 and self.code.n * self.code.group.order \
            == 256

    def request(self, index):
        code, dd = self.code, self.dd
        ctx, G = code.field, code.group
        rng = _rng(self.name, self.seed, index)
        msg = [eq.ga_rand(G, ctx, rng) for _ in range(code.k)]
        rows = [list(c.coeffs) for c in eq.encode(code, msg)]
        spots = rng.sample([(i, s) for i in range(code.n)
                            for s in range(G.order)], dd.radius)
        for i, s in spots:
            rows[i][s] = ctx.add(rows[i][s], ctx.rand_nonzero(rng))
        r = [eq.GroupAlgebraElement(G, ctx, tuple(row)) for row in rows]
        dseed = rng.randrange(2 ** 31)
        return [Item(str(index), lambda: eq.basic_decode(dd, r, seed=dseed),
                     lambda res: audit_decode(code, r, msg, res))]


class RsCli:
    """The [12, 6] Reed-Solomon code over F_13 through the equicode CLI.

    Set-up is one `equicode gen rs`; each request is one in-process
    `equicode decode` call that re-reads the decoder file, decodes a word
    with 0 to 3 errors (uniform) and writes the result file.
    """

    name = "rs-cli"
    setup_reps = 9
    trace_requests = 64

    def __init__(self, seed, workdir):
        self.seed = seed
        self.code_path = os.path.join(workdir, "code.json")
        self.dec_path = os.path.join(workdir, "decoder.json")
        self.vec_path = os.path.join(workdir, "received.json")
        self.out_path = os.path.join(workdir, "decoded.json")
        self.code = None

    def _cli(self, argv):
        # the CLI reports seeds and progress on stderr; keep it off the log
        with open(os.devnull, "w") as sink, \
                contextlib.redirect_stderr(sink):
            return cli.main(argv)

    def setup(self):
        self.status = self._cli(
            ["gen", "rs", "--p", "13", "--n", "12", "--deg", "5",
             "--out", self.code_path, "--decoder-out", self.dec_path])

    def check_setup(self):
        if self.status != 0:
            return False
        self.code = files.load_code(self.code_path)
        return files.load_decoder(self.dec_path).radius == 3

    def request(self, index):
        code = self.code
        ctx, G = code.field, code.group
        rng = _rng(self.name, self.seed, index)
        msg = [eq.ga_from_ints(G, ctx, [rng.randrange(13)])
               for _ in range(code.k)]
        r = list(eq.encode(code, msg))
        for i in rng.sample(range(code.n), rng.randint(0, 3)):
            delta = ctx.from_int(rng.randint(1, 12))
            r[i] = eq.GroupAlgebraElement(G, ctx, (ctx.add(r[i].coeffs[0],
                                                         delta),))
        files.save_vector(self.vec_path, G, ctx, r)
        argv = ["decode", "--decoder", self.dec_path,
                "--received", "@" + self.vec_path,
                "--seed", str(rng.randrange(2 ** 31)),
                "--out", self.out_path]
        return [Item(str(index), lambda: self._cli(argv),
                     lambda status: self._check(status, r, msg))]

    def _check(self, status, r, msg):
        if status != 0:
            return False
        with open(self.out_path) as fh:
            obj = files.loads(fh.read())
        code = self.code
        G, ctx = code.group, code.field

        def elems(key):
            return [files.element_from_obj(G, ctx, e) for e in obj[key]]

        den = obj["denominator"]
        res = eq.DecodeResult(elems("codeword"), elems("message"),
                              elems("error"),
                              None if den is None else elems("denominator"),
                              [tuple(z) for z in obj["zeros"]])
        return audit_decode(code, r, msg, res)


# name, p, d, invariant factors, products per request.  Repetitions give
# each pair a similar share of a request at the seed commit, so a gain on
# any one path moves the product rate.
MUL_PAIRS = (
    ("split_ntt", 12289, 1, (1024,), 18),
    ("split_multiaxis", 12289, 1, (4, 64), 58),
    ("split_direct", 7, 1, (6, 6), 190),
    ("split_bluestein_ntt", 12289, 1, (96,), 22),
    ("split_bluestein_kron", 1999, 1, (111,), 165),
    ("lifted_ntt", 3, 1, (1024,), 18),
    ("lifted_bluestein", 257, 1, (1000,), 1),
    ("extension", 3, 2, (1024,), 6),
    ("ext_split_ntt", 3, 4, (16,), 190),
    ("ext_bluestein_school", 3, 4, (80,), 1),
)


class MulPaths:
    """A fixed mix of ga_mul_fast products, one operand pair per path.

    Request i multiplies c1*a by c2*b for fresh nonzero scalars c1, c2, so
    no two products share operands, and the exact answer is c1*c2 times
    ga_mul_naive(a, b), computed once per run off the clock.
    """

    name = "mul-paths"
    setup_reps = 5
    trace_requests = 2
    pair_names = tuple(p[0] for p in MUL_PAIRS)

    def __init__(self, seed, workdir):
        self.seed = seed
        self.ref = None

    def setup(self):
        rng = _rng(self.name, self.seed, "operands")
        self.operands = []
        self.cold = []
        for name, p, d, factors, _ in MUL_PAIRS:
            ctx = eq.field_make(p, d)
            G = eq.AbelianGroup(factors)
            a, b = eq.ga_rand(G, ctx, rng), eq.ga_rand(G, ctx, rng)
            self.operands.append((ctx, a, b))
            self.cold.append(eq.ga_mul_fast(a, b))

    def check_setup(self):
        if self.ref is None:
            self.ref = [eq.ga_mul_naive(a, b) for _, a, b in self.operands]
        return self.cold == self.ref

    def request(self, index):
        rng = _rng(self.name, self.seed, index)
        items = []
        for (name, _, _, _, reps), (ctx, a, b), ref in zip(
                MUL_PAIRS, self.operands, self.ref):
            for _ in range(reps):
                c1, c2 = ctx.rand_nonzero(rng), ctx.rand_nonzero(rng)
                x, y = eq.ga_scale(a, c1), eq.ga_scale(b, c2)
                want = eq.ga_scale(ref, ctx.mul(c1, c2))
                items.append(Item(name, lambda x=x, y=y: eq.ga_mul_fast(x, y),
                                  lambda got, want=want: got == want))
        return items


WORKLOADS = {w.name: w for w in (CoverDecode, RsCli, MulPaths)}
