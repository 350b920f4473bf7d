"""Randomized black-box linear algebra over finite fields.

Berlekamp-Massey, Wiedemann-style solving and kernel sampling, and the dense
Gaussian oracle that certifies them in tests.  Both Wiedemann drivers are
Las Vegas: every candidate is re-verified by a fresh application of the
operator, and a None return means "no luck within the attempt budget", never
a certificate that no solution exists.

Over fields with fewer than 16 elements the drivers re-run the whole
computation over an extension F_{q^l} with q^l >= 16 (random projections in
a tiny field fail too often) and project the answer back; one extension
apply costs l base applies.

Over prime fields the scalar loops run on plain ints with one reduction
per value; OPS gets the count the ctx calls would make.
"""

from __future__ import annotations

import random
from operator import mul

from . import gauss
from .errors import DimMismatch, DivisionByZero, Mismatch
from .ff import (OPS, FieldCtx, poly_mod, poly_mul, poly_powmod,
                 poly_random_monic_irreducible)


class BlackBoxOperator:
    """A matrix known only through x -> Ax, and optionally y -> A^t y.

    `calls` counts every black-box touch (transpose included) and is never
    reset here; callers snapshot it around whatever they want to measure.
    """

    __slots__ = ("ctx", "rows", "cols", "calls", "_fn", "_fn_t")

    def __init__(self, ctx, rows, cols, apply_fn, apply_t_fn=None):
        self.ctx = ctx
        self.rows = rows
        self.cols = cols
        self._fn = apply_fn
        self._fn_t = apply_t_fn
        self.calls = 0

    @property
    def has_transpose(self):
        return self._fn_t is not None

    def apply(self, x):
        if len(x) != self.cols:
            raise DimMismatch("operator takes %d entries, got %d"
                              % (self.cols, len(x)))
        self.calls += 1
        return self._fn(list(x))

    def apply_t(self, y):
        if self._fn_t is None:
            raise Mismatch("operator has no transpose apply")
        if len(y) != self.rows:
            raise DimMismatch("transpose takes %d entries, got %d"
                              % (self.rows, len(y)))
        self.calls += 1
        return self._fn_t(list(y))


def operator_from_matrix(ctx, matrix):
    rows = len(matrix)
    cols = len(matrix[0])
    m = [list(r) for r in matrix]
    mt = gauss.transpose(m)
    return BlackBoxOperator(
        ctx, rows, cols,
        lambda x: gauss.matvec(ctx, m, x),
        lambda y: gauss.matvec(ctx, mt, y))


def dense_solve(ctx, matrix, b):
    """Exact elimination; certifies consistency (raises Inconsistent)."""
    return gauss.solve(ctx, [list(r) for r in matrix], list(b))


def dense_kernel(ctx, matrix):
    return gauss.kernel_basis(ctx, [list(r) for r in matrix])


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


class _ExtensionContext:
    """F_{q^ell} as base-field polynomials modulo a random irreducible.

    Values are fixed-length tuples of base values, low-degree first, so
    equality is plain tuple equality.  Only the handful of operations the
    Wiedemann machinery needs are provided.
    """

    __slots__ = ("base", "ell", "modulus", "zero", "one", "_card")

    def __init__(self, base, ell, rng):
        self.base = base
        self.ell = ell
        self.modulus = list(poly_random_monic_irreducible(base, ell, rng))
        self.zero = (base.zero,) * ell
        self.one = tuple([base.one] + [base.zero] * (ell - 1))
        self._card = base.q ** ell

    def lift(self, a):
        return tuple([a] + [self.base.zero] * (self.ell - 1))

    def _pad(self, f):
        return tuple(list(f) + [self.base.zero] * (self.ell - len(f)))

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
        return tuple(self.base.rand(rng) for _ in range(self.ell))

    def rand_nonzero(self, rng):
        while True:
            v = self.rand(rng)
            if v != self.zero:
                return v


def _componentwise(work, fn):
    """Extend a base-field black box to extension scalars coordinatewise."""
    ell = work.ell

    def wrapped(x):
        images = [fn([xi[c] for xi in x]) for c in range(ell)]
        return [tuple(img[i] for img in images)
                for i in range(len(images[0]))]

    return wrapped


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
    if ctx.q >= 16:
        work = ctx
        apply_fn = a.apply
        wb = list(b)
    else:
        work = _ExtensionContext(ctx, _lift_degree(ctx.q), rng)
        apply_fn = _componentwise(work, a.apply)
        wb = [work.lift(x) for x in b]
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
    """Verified nonzero kernel vector of the black box, or None.

    Square operators are preconditioned as A.D with a fresh random unit
    diagonal per attempt; rectangular ones go through the square
    A^t.D.A (which needs the transpose apply) and the candidate is checked
    against A itself before anything is returned.
    """
    ctx = a.ctx
    n = a.cols
    square = a.rows == a.cols
    if not square and not a.has_transpose:
        raise Mismatch("rectangular kernel sampling needs a transpose apply")
    rng = random.Random(seed)
    if ctx.q >= 16:
        work = ctx
        fwd = a.apply
        bwd = a.apply_t if a.has_transpose else None
    else:
        work = _ExtensionContext(ctx, _lift_degree(ctx.q), rng)
        fwd = _componentwise(work, a.apply)
        bwd = (_componentwise(work, a.apply_t)
               if a.has_transpose else None)
    wzero = [work.zero] * a.rows
    for _ in range(max_attempts):
        if square:
            diag = [work.rand_nonzero(rng) for _ in range(n)]

            def bb(x, _d=diag):
                return fwd(_scale(work, _d, x))
        else:
            d1 = [work.rand_nonzero(rng) for _ in range(a.rows)]

            def bb(x, _d=d1):
                return bwd(_scale(work, _d, fwd(x)))
        w = _kernel_attempt(work, bb, n, rng)
        if w is None:
            continue
        if square:
            cand = _scale(work, diag, w)
        else:
            cand = w
            if fwd(cand) != wzero:
                continue
        if work is not ctx:
            comp = None
            for c in range(work.ell):
                candidate = [xi[c] for xi in cand]
                if any(x != ctx.zero for x in candidate):
                    comp = candidate
                    break
            if comp is None:
                continue
            cand = comp
        if all(x == ctx.zero for x in cand):
            continue
        if a.apply(list(cand)) != [ctx.zero] * a.rows:
            continue
        return list(cand)
    return None
