"""Randomized black-box linear algebra over finite fields.

Berlekamp-Massey, Wiedemann-style solving and kernel sampling; tests
certify them against dense elimination in `gauss`.  Both Wiedemann drivers
take square operators and are Las Vegas: every candidate is re-verified by
a fresh application of the operator, and a None return means "no luck
within the attempt budget", never a certificate that no solution exists.

Over fields with fewer than 16 elements the drivers re-run the whole
computation over an extension F_{q^l} with q^l >= 16 (random projections in
a tiny field fail too often) and project the answer back; one extension
apply costs l base applies.  A prime base F_p lifts to FieldCtx(p, l, f)
for a random irreducible f drawn from the driver's stream; an extension
base (F_4, F_8, F_9) lifts to the polynomial tower _ExtensionContext.

Over prime fields the scalar loops run on plain ints with one reduction
per value; OPS gets the count the ctx calls would make.
"""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import product
from operator import mul

from . import gauss
from .errors import DimMismatch, DivisionByZero
from .ff import (OPS, FieldCtx, _zdivmod, poly_mod, poly_mul, poly_powmod,
                 poly_random_monic_irreducible)


class BlackBoxOperator:
    """A matrix known only through x -> Ax.

    `calls` counts every black-box touch and is never reset here; callers
    snapshot it around whatever they want to measure.
    """

    __slots__ = ("ctx", "rows", "cols", "calls", "_fn")

    def __init__(self, ctx, rows, cols, apply_fn):
        self.ctx = ctx
        self.rows = rows
        self.cols = cols
        self._fn = apply_fn
        self.calls = 0

    def apply(self, x):
        if len(x) != self.cols:
            raise DimMismatch("operator takes %d entries, got %d"
                              % (self.cols, len(x)))
        self.calls += 1
        return self._fn(list(x))


def operator_from_matrix(ctx, matrix):
    m = [list(r) for r in matrix]
    return BlackBoxOperator(ctx, len(m), len(m[0]),
                            lambda x: gauss.matvec(ctx, m, x))


# ------------------------------------------------------------ scalar loops


def _prime(ctx):
    """p when ctx is a prime field (raw values are ints mod p), else None."""
    return ctx.p if isinstance(ctx, FieldCtx) and ctx.d == 1 else None


def _dot(ctx, u, v, acc=None):
    """acc + sum u_i v_i (acc defaults to zero)."""
    p = _prime(ctx)
    if p is not None:
        OPS.add(2 * len(u))
        return ((acc or 0) + sum(map(mul, u, v))) % p
    if acc is None:
        acc = ctx.zero
    for x, y in zip(u, v):
        acc = ctx.add(acc, ctx.mul(x, y))
    return acc


def _scale(ctx, diag, x):
    """The entrywise product diag * x."""
    p = _prime(ctx)
    if p is not None:
        OPS.add(len(x))
        return [d * v % p for d, v in zip(diag, x)]
    return [ctx.mul(d, v) for d, v in zip(diag, x)]


def _sub_scaled(ctx, y, a, x):
    """y - a x, entrywise."""
    p = _prime(ctx)
    if p is not None:
        OPS.add(2 * len(x))
        return [(u - a * v) % p for u, v in zip(y, x)]
    return [ctx.sub(u, ctx.mul(a, v)) for u, v in zip(y, x)]


def _combine(ctx, coeffs, vecs):
    """sum_i coeffs[i] vecs[i]; zero coefficients cost nothing.  The
    callers' coefficients come from a minimal polynomial, never all zero."""
    cs, vs = zip(*[(c, v) for c, v in zip(coeffs, vecs) if c != ctx.zero])
    return [_dot(ctx, cs, col) for col in zip(*vs)]


# ------------------------------------------------------- Berlekamp-Massey


def berlekamp_massey(ctx, seq):
    """Minimal-degree monic polynomial annihilating the sequence.

    Coefficients low-first: sum_i m[i] s[j+i] = 0 for every window.  The
    all-zero sequence yields [1].  For Wiedemann the input must hold at
    least twice the expected recurrence length.
    """
    zero = ctx.zero
    c = [ctx.one]
    b = [ctx.one]
    length = 0
    m = 1
    bb = ctx.one
    for i, s in enumerate(seq):
        d = _dot(ctx, c[1:length + 1], seq[i - length:i][::-1], s)
        if d == zero:
            m += 1
            continue
        coef = ctx.mul(d, ctx.inv(bb))
        if len(c) < len(b) + m:
            c = c + [zero] * (len(b) + m - len(c))
        prev = list(c) if 2 * length <= i else None
        c[m:m + len(b)] = _sub_scaled(ctx, c[m:m + len(b)], coef, b)
        if prev is not None:
            length = i + 1 - length
            b = prev
            bb = d
            m = 1
        else:
            m += 1
    c = (c + [zero] * (length + 1))[:length + 1]
    return list(reversed(c))


# ----------------------------------------------- extension-field lifting


def _lift_degree(q):
    ell = 1
    t = q
    while t < 16:
        t *= q
        ell += 1
    return ell


@lru_cache(maxsize=None)
def _irreducible_mod(p, f):
    """Whether the monic f (a tuple of ints mod p, low degree first) is
    irreducible over F_p, by trial division with every monic polynomial of
    degree at most deg(f) / 2, at most 13 of them for a lift degree.
    Same answer as ff.poly_is_irreducible."""
    return all(_zdivmod(f, low + (1,), p)[1]
               for k in range(1, (len(f) - 1) // 2 + 1)
               for low in product(range(p), repeat=k))


class _ExtensionContext:
    """F_{q^d} over an extension base F_q, as base-field polynomials modulo
    a random irreducible.

    Values are fixed-length tuples of base values, low-degree first, so
    equality is plain tuple equality.  Only the handful of operations the
    Wiedemann machinery needs are provided.
    """

    __slots__ = ("base", "d", "modulus", "zero", "one", "_card")

    def __init__(self, base, d, rng):
        self.base = base
        self.d = d
        self.modulus = list(poly_random_monic_irreducible(base, d, rng))
        self.zero = (base.zero,) * d
        self.one = tuple([base.one] + [base.zero] * (d - 1))
        self._card = base.q ** d

    def _pad(self, f):
        return tuple(list(f) + [self.base.zero] * (self.d - len(f)))

    def add(self, a, b):
        return tuple(self.base.add(x, y) for x, y in zip(a, b))

    def sub(self, a, b):
        return tuple(self.base.sub(x, y) for x, y in zip(a, b))

    def neg(self, a):
        return tuple(self.base.neg(x) for x in a)

    def mul(self, a, b):
        prod = poly_mul(list(a), list(b), self.base)
        return self._pad(poly_mod(prod, self.modulus, self.base))

    def inv(self, a):
        if a == self.zero:
            raise DivisionByZero("inverse of zero")
        return self._pad(poly_powmod(list(a), self._card - 2,
                                     self.modulus, self.base))

    def rand(self, rng):
        return tuple(self.base.rand(rng) for _ in range(self.d))

    def rand_nonzero(self, rng):
        while True:
            v = self.rand(rng)
            if v != self.zero:
                return v


def _work_field(a: BlackBoxOperator, rng):
    """The field the drivers run in and the operator's apply there: the
    base field itself when it has at least 16 elements, else a random
    extension of degree _lift_degree(q) drawn from rng, applied
    coordinatewise."""
    ctx = a.ctx
    if ctx.q >= 16:
        return ctx, a.apply
    ell = _lift_degree(ctx.q)
    if ctx.d == 1:
        # the draws of poly_random_monic_irreducible(ctx, ell, rng)
        while True:
            f = tuple(rng.randrange(ctx.p) for _ in range(ell)) + (1,)
            if _irreducible_mod(ctx.p, f):
                break
        work = FieldCtx(ctx.p, ell, f)
    else:
        work = _ExtensionContext(ctx, ell, rng)

    def lifted(x):
        images = [a.apply([xi[c] for xi in x]) for c in range(ell)]
        return list(zip(*images))

    return work, lifted


# ----------------------------------------------------- Wiedemann drivers


def _solve_attempt(ctx, apply_fn, n, b, rng):
    """One Las Vegas round for (A.D) x' = b; returns D x' or None.

    Krylov vectors are cached while the projected sequence is generated, so
    building the candidate from the minimal polynomial costs no further
    applies: 2n-1 for the sequence, nothing for the combination.
    """
    diag = [ctx.rand_nonzero(rng) for _ in range(n)]
    u = [ctx.rand(rng) for _ in range(n)]
    krylov = [list(b)]
    seq = [_dot(ctx, u, b)]
    for _ in range(2 * n - 1):
        prev = krylov[-1]
        nxt = apply_fn(_scale(ctx, diag, prev))
        krylov.append(nxt)
        seq.append(_dot(ctx, u, nxt))
    mp = berlekamp_massey(ctx, seq)
    if len(mp) == 1 or mp[0] == ctx.zero:
        return None
    scale = ctx.inv(ctx.neg(mp[0]))
    coeffs = [c if c == ctx.zero else ctx.mul(scale, c) for c in mp[1:]]
    y = _combine(ctx, coeffs, krylov)
    return _scale(ctx, diag, y)


def _kernel_attempt(ctx, apply_fn, n, rng):
    """Try for a nonzero w with apply(w) = 0; the return is verified.

    Splits the minimal polynomial of a random Krylov sequence as
    lambda^s g(lambda) with g(0) != 0 and walks g(B)v forward until it dies.
    """
    v = [ctx.rand(rng) for _ in range(n)]
    if all(x == ctx.zero for x in v):
        return None
    u = [ctx.rand(rng) for _ in range(n)]
    krylov = [v]
    seq = [_dot(ctx, u, v)]
    first = apply_fn(v)
    if all(x == ctx.zero for x in first):
        return v
    krylov.append(first)
    seq.append(_dot(ctx, u, first))
    for _ in range(2 * n - 2):
        nxt = apply_fn(krylov[-1])
        krylov.append(nxt)
        seq.append(_dot(ctx, u, nxt))
    mp = berlekamp_massey(ctx, seq)
    s = 0
    while s < len(mp) and mp[s] == ctx.zero:
        s += 1
    if s == 0 or s >= len(mp):
        return None
    w = _combine(ctx, mp[s:], krylov)
    if all(x == ctx.zero for x in w):
        return None
    for _ in range(s):
        nxt = apply_fn(w)
        if all(x == ctx.zero for x in nxt):
            return w
        w = nxt
    return None


def wiedemann_solve(a: BlackBoxOperator, b, seed=0, max_attempts=40):
    """Random solution of Ax = b for a square black box, or None.

    Per attempt the operator is touched at most 3n + 2 deg(minimal
    polynomial) times (in fact 2n with the Krylov cache, plus one verify).
    None reports failure for these seeds only; inconsistency can only be
    certified densely.
    """
    if a.rows != a.cols:
        raise DimMismatch("solve needs a square operator, got %dx%d"
                          % (a.rows, a.cols))
    if len(b) != a.rows:
        raise DimMismatch("right-hand side has %d entries, need %d"
                          % (len(b), a.rows))
    ctx = a.ctx
    n = a.cols
    if all(x == ctx.zero for x in b):
        return [ctx.zero] * n
    rng = random.Random(seed)
    work, apply_fn = _work_field(a, rng)
    if work is ctx:
        wb = list(b)
    else:
        pad = (ctx.zero,) * (work.d - 1)
        wb = [(x,) + pad for x in b]
    for _ in range(max_attempts):
        x = _solve_attempt(work, apply_fn, n, wb, rng)
        if x is None or apply_fn(x) != wb:
            continue
        if work is not ctx:
            x = [xi[0] for xi in x]
            if a.apply(x) != list(b):
                continue
        return x
    return None


def wiedemann_kernel_sample(a: BlackBoxOperator, seed=0, max_attempts=40):
    """Verified nonzero kernel vector of a square black box, or None.

    The operator is preconditioned as A.D with a fresh random unit diagonal
    per attempt, and the candidate is checked against A itself before
    anything is returned.
    """
    if a.rows != a.cols:
        raise DimMismatch("kernel sampling needs a square operator, got "
                          "%dx%d" % (a.rows, a.cols))
    ctx = a.ctx
    n = a.cols
    rng = random.Random(seed)
    work, fwd = _work_field(a, rng)
    for _ in range(max_attempts):
        diag = [work.rand_nonzero(rng) for _ in range(n)]
        w = _kernel_attempt(work, lambda x: fwd(_scale(work, diag, x)), n,
                            rng)
        if w is None:
            continue
        cand = _scale(work, diag, w)
        if work is not ctx:  # its first nonzero coordinate vector
            cand = next((list(c) for c in zip(*cand)
                         if any(v != ctx.zero for v in c)), None)
        if (cand is None or all(v == ctx.zero for v in cand)
                or a.apply(cand) != [ctx.zero] * n):
            continue
        return cand
    return None
