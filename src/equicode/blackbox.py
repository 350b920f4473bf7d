"""Randomized black-box linear algebra over finite fields.

Wiedemann-style solving and kernel sampling, and Berlekamp-Massey; tests
certify them against dense elimination in `gauss`.  Both Wiedemann drivers
take square operators and are Las Vegas: every candidate is re-verified by
a fresh application of the operator, and a None return means "no luck
within the attempt budget", never a certificate that no solution exists.
Each attempt builds its Krylov vectors v, Bv, .. in `_minimal_polynomial`
and finds v's minimal polynomial exactly, as their first linear
dependency, with `gauss.first_dependency`, which eliminates the vectors as
they come and stops at B^deg(mp) v: deg(mp) <= n applies of the n x n
operator B, and no random projection.  The decoder does not use this
module: it finds denominators by a first dependency among the columns of
its Pade condition (see `decode.find_denominator`).

The drivers run in the operator's own field, however small, and call
`a.apply` directly.  A solve attempt preconditions A as B = A.D.P, with a
fresh random unit diagonal D and random column permutation P, and returns
D P x' for B x' = b; it succeeds when b's minimal polynomial under B has a
nonzero constant term.  The diagonal alone cannot always get there: for
A = [[0, 1], [0, 0]] and b = e_1, A.D is nilpotent for every D, so b's
minimal polynomial is lambda^2; and over F_2 the only unit diagonal is
the identity, so every attempt would repeat one computation.  The
permutation moves the columns, as in Kaltofen and Saunders (AAECC-9,
1991), and costs no field operation.  Even so b's minimal polynomial can
keep a zero constant term under every D and P: over F_2, A = [[1, 1],
[1, 1]] and b = [1, 1] give A.P = A and A b = 0.  Such an attempt goes on
to a kernel vector (x, t) of the augmented operator [[A, -b], [0, 0]]
with t != 0, so that A (x / t) = b.  The kernel sampler keeps the
diagonal alone.  The scalar loops are the field's vector operations
(FieldCtx.dot, vmul and sub_scaled).
"""

from __future__ import annotations

import random

from . import gauss
from .errors import DimMismatch


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
    if not m or any(len(r) != len(m[0]) for r in m):
        raise DimMismatch("operator needs a non-empty matrix with rows of "
                          "equal length")
    return BlackBoxOperator(ctx, len(m), len(m[0]),
                            lambda x: gauss.matvec(ctx, m, x))


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
        d = ctx.dot(c[1:length + 1], seq[i - length:i][::-1], s)
        if d == zero:
            m += 1
            continue
        coef = ctx.mul(d, ctx.inv(bb))
        if len(c) < len(b) + m:
            c = c + [zero] * (len(b) + m - len(c))
        prev = list(c) if 2 * length <= i else None
        c[m:m + len(b)] = ctx.sub_scaled(c[m:m + len(b)], coef, b)
        if prev is not None:
            length = i + 1 - length
            b = prev
            bb = d
            m = 1
        else:
            m += 1
    c = (c + [zero] * (length + 1))[:length + 1]
    return list(reversed(c))


# ----------------------------------------------------- Wiedemann drivers


def _combine(ctx, coeffs, vecs):
    """sum_i coeffs[i] vecs[i]; zero coefficients cost nothing.  The
    callers' coefficients come from a minimal polynomial, never all zero."""
    cs, vs = zip(*[(c, v) for c, v in zip(coeffs, vecs) if c != ctx.zero])
    return [ctx.dot(cs, col) for col in zip(*vs)]


def _minimal_polynomial(ctx, apply_fn, krylov, n):
    """Extend krylov in place, each vector apply_fn of the last, up to
    their first linear dependency, and return it: the minimal polynomial
    of krylov[0] (monic, low-first).

    `gauss.first_dependency` pulls the vectors one at a time and stops at
    vector deg(mp), so the extension costs deg(mp) - len(krylov) + 1
    applies; a dependency exists among n + 1 vectors of length n."""
    def stream():
        for j in range(n + 1):
            if j == len(krylov):
                krylov.append(apply_fn(krylov[-1]))
            yield krylov[j]

    return gauss.first_dependency(ctx, stream(), n)


def _solve_attempt(ctx, apply_fn, n, b, rng):
    """One Las Vegas round for A x = b; returns a candidate or None.

    First (A.D.P) x' = b from b's Krylov vectors, which returns D P x'
    when b's minimal polynomial has a nonzero constant term.  When it has
    none, one `_kernel_attempt` on the augmented operator
    [[A, -b], [0, 0]], with its own random unit diagonal, looks for a
    kernel vector (x, t) with t != 0, and returns x / t.

    Applies: deg(mp) <= n of A.D.P for the Krylov vectors, whose
    combination costs none; then, if b's constant term is zero, at most
    n + 1 of A for the kernel sample.
    """
    diag = [ctx.rand_nonzero(rng) for _ in range(n)]
    perm = rng.sample(range(n), n)

    def pre(x):
        return ctx.vmul(diag, [x[i] for i in perm])

    krylov = [list(b)]
    mp = _minimal_polynomial(ctx, lambda x: apply_fn(pre(x)), krylov, n)
    if mp[0] != ctx.zero:
        scale = ctx.inv(ctx.neg(mp[0]))
        coeffs = [c if c == ctx.zero else ctx.mul(scale, c) for c in mp[1:]]
        return pre(_combine(ctx, coeffs, krylov))
    diag = [ctx.rand_nonzero(rng) for _ in range(n + 1)]

    def augmented(y):
        y = ctx.vmul(diag, y)
        return ctx.sub_scaled(apply_fn(y[:n]), y[n], b) + [ctx.zero]

    w = _kernel_attempt(ctx, augmented, n + 1, rng)
    if w is None or w[n] == ctx.zero:
        return None
    w = ctx.vmul(diag, w)
    return ctx.vmul([ctx.inv(w[n])] * n, w[:n])


def _kernel_attempt(ctx, apply_fn, n, rng):
    """Try for a nonzero w with apply(w) = 0; the return is verified.

    Splits the minimal polynomial of a random v as lambda^s g(lambda) with
    g(0) != 0 and returns B^(s-1) g(B) v, a combination of the cached
    Krylov vectors: it is nonzero by minimality, and B kills it because
    B^s g(B) v = mp(B) v = 0.  Applies: one to v, which ends the attempt
    if it kills v; else deg(mp) in all, at most n.
    """
    v = [ctx.rand(rng) for _ in range(n)]
    if all(x == ctx.zero for x in v):
        return None
    first = apply_fn(v)
    if all(x == ctx.zero for x in first):
        return v
    krylov = [v, first]
    mp = _minimal_polynomial(ctx, apply_fn, krylov, n)
    s = next(i for i, c in enumerate(mp) if c != ctx.zero)
    if s == 0:
        return None
    return _combine(ctx, [ctx.zero] * (s - 1) + mp[s:], krylov)


def wiedemann_solve(a: BlackBoxOperator, b, seed=0, max_attempts=40):
    """Random solution of Ax = b for a square black box, or None.

    Per attempt the operator is touched at most 2n + 2 times: deg(mp) <= n
    applies for b's Krylov vectors, at most n + 1 more for the augmented
    kernel sample when b's minimal polynomial has a zero constant term
    (see `_solve_attempt`), and one to verify the candidate.  None
    reports failure for these seeds only; inconsistency can only be
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
    b = list(b)
    rng = random.Random(seed)
    for _ in range(max_attempts):
        x = _solve_attempt(ctx, a.apply, n, b, rng)
        if x is not None and a.apply(x) == b:
            return x
    return None


def wiedemann_kernel_sample(a: BlackBoxOperator, seed=0, max_attempts=40):
    """Verified nonzero kernel vector of a square black box, or None.

    The operator is preconditioned as A.D with a fresh random unit diagonal
    per attempt, and the candidate is checked against A itself before
    anything is returned.  Per attempt the operator is touched at most
    n + 1 times: deg(mp) <= n applies for the Krylov vectors, plus the
    check.
    """
    if a.rows != a.cols:
        raise DimMismatch("kernel sampling needs a square operator, got "
                          "%dx%d" % (a.rows, a.cols))
    ctx = a.ctx
    n = a.cols
    rng = random.Random(seed)
    for _ in range(max_attempts):
        diag = [ctx.rand_nonzero(rng) for _ in range(n)]
        w = _kernel_attempt(ctx, lambda x: a.apply(ctx.vmul(diag, x)), n,
                            rng)
        if w is None:
            continue
        cand = ctx.vmul(diag, w)
        if (any(v != ctx.zero for v in cand)
                and a.apply(cand) == [ctx.zero] * n):
            return cand
    return None
