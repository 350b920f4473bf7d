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
its folded condition (see `decode.find_denominator`).

Over fields F_q = F_{p^d} with fewer than 16 elements the drivers re-run
the whole computation over an extension F_{q^l} with q^l >= 16 (random
vectors and diagonals in a tiny field fail too often) and project the
answer back; one extension apply costs l base applies.  The extension is
the flat FieldCtx(p, d l, f) for a random f from the driver's stream that
passes Rabin's test; an extension base (F_4, F_8, F_9) embeds in it
through a root of its own modulus.  The scalar loops are the work field's
vector operations (FieldCtx.dot, vmul and sub_scaled).
"""

from __future__ import annotations

import random
from functools import lru_cache
from operator import mul

from . import gauss
from .errors import DimMismatch
from .ff import FieldCtx, poly_is_irreducible


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


# ----------------------------------------------- extension-field lifting


def _lift_degree(q):
    ell = 1
    t = q
    while t < 16:
        t *= q
        ell += 1
    return ell


_irreducible = lru_cache(maxsize=None)(poly_is_irreducible)


@lru_cache(maxsize=None)
def _embedding(ctx, f):
    """(down, up) between W = FieldCtx(p, d l, f) and l-tuples over the
    extension base ctx = F_{p^d}.

    alpha, the first root of ctx.modulus in W, embeds F_q; the products
    alpha^i x^r (i < d, r < l) are the rows of an F_p-basis M of W, so
    x^0 .. x^(l-1) is a basis over F_q.  down(z) is z M^-1 cut into l base
    values, and up inverts it.
    """
    p, d = ctx.p, ctx.d
    work = FieldCtx(p, len(f) - 1, f)

    def is_root(z):
        acc = work.zero
        for c in reversed(ctx.modulus):
            acc = work.add(work.mul(acc, z), work.from_int(c))
        return acc == work.zero

    alpha = next(filter(is_root, work.elements()))
    x = (0, 1) + (0,) * (work.d - 2)
    rows = [work.mul(work.pow_(alpha, i), work.pow_(x, r))
            for r in range(work.d // d) for i in range(d)]
    up_cols = list(zip(*rows))
    down_cols = list(zip(*gauss.inverse(FieldCtx(p, 1, (0, 1)), rows)))

    def down(z):
        c = [sum(map(mul, z, col)) % p for col in down_cols]
        return [tuple(c[i:i + d]) for i in range(0, len(c), d)]

    def up(v):
        c = [ci for e in v for ci in e]
        return tuple(sum(map(mul, c, col)) % p for col in up_cols)

    return down, up


def _work_field(a: BlackBoxOperator, rng):
    """(work, apply, down, up): the field the drivers run in and the
    operator's apply there, with down/up between its values and l-tuples of
    base values (None when no lift is needed).

    The work field is the base itself when it has at least 16 elements.
    Else it is FieldCtx(p, d l, f) for l = _lift_degree(q) and a random
    irreducible f drawn from rng, and the apply runs on each of the l base
    coordinates.  For a prime base down and up are `tuple`.
    """
    ctx = a.ctx
    if ctx.q >= 16:
        return ctx, a.apply, None, None
    degree = ctx.d * _lift_degree(ctx.q)
    while True:
        f = tuple(rng.randrange(ctx.p) for _ in range(degree)) + (1,)
        if _irreducible(f, ctx.p):
            break
    work = FieldCtx(ctx.p, degree, f)
    down, up = (tuple, tuple) if ctx.d == 1 else _embedding(ctx, f)

    def lifted(x):
        return [up(v) for v in
                zip(*[a.apply(col) for col in zip(*map(down, x))])]

    return work, lifted, down, up


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
    """One Las Vegas round for (A.D) x' = b; returns D x' or None.

    Applies: deg(mp) <= n of A.D, for the Krylov vectors from b; the
    candidate combines cached vectors and costs none.
    """
    diag = [ctx.rand_nonzero(rng) for _ in range(n)]
    krylov = [list(b)]
    mp = _minimal_polynomial(ctx, lambda x: apply_fn(ctx.vmul(diag, x)),
                             krylov, n)
    if mp[0] == ctx.zero:
        return None
    scale = ctx.inv(ctx.neg(mp[0]))
    coeffs = [c if c == ctx.zero else ctx.mul(scale, c) for c in mp[1:]]
    return ctx.vmul(diag, _combine(ctx, coeffs, krylov))


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

    Per attempt the operator is touched at most (n + 1) l + 1 times, l the
    lift degree (1 when the base has at least 16 elements): deg(mp) <= n
    work-field applies for the Krylov vectors and one to verify, each
    costing l base applies, plus one base apply when a lifted candidate is
    verified on `a` itself.  None reports failure for these seeds only;
    inconsistency can only be certified densely.
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
    work, apply_fn, down, up = _work_field(a, rng)
    if work is ctx:
        wb = list(b)
    else:
        pad = (ctx.zero,) * (work.d // ctx.d - 1)
        wb = [up((x,) + pad) for x in b]
    for _ in range(max_attempts):
        x = _solve_attempt(work, apply_fn, n, wb, rng)
        if x is None or apply_fn(x) != wb:
            continue
        if work is not ctx:
            x = [down(xi)[0] for xi in x]
            if a.apply(x) != list(b):
                continue
        return x
    return None


def wiedemann_kernel_sample(a: BlackBoxOperator, seed=0, max_attempts=40):
    """Verified nonzero kernel vector of a square black box, or None.

    The operator is preconditioned as A.D with a fresh random unit diagonal
    per attempt, and the candidate is checked against A itself before
    anything is returned.  Per attempt the operator is touched at most
    n l + 1 times: deg(mp) <= n work-field applies for the Krylov vectors,
    each costing l base applies, plus the check.
    """
    if a.rows != a.cols:
        raise DimMismatch("kernel sampling needs a square operator, got "
                          "%dx%d" % (a.rows, a.cols))
    ctx = a.ctx
    n = a.cols
    rng = random.Random(seed)
    work, fwd, down, _ = _work_field(a, rng)
    for _ in range(max_attempts):
        diag = [work.rand_nonzero(rng) for _ in range(n)]
        w = _kernel_attempt(work, lambda x: fwd(work.vmul(diag, x)), n,
                            rng)
        if w is None:
            continue
        cand = work.vmul(diag, w)
        if work is not ctx:  # its first nonzero base-coordinate vector
            cand = next((list(c) for c in zip(*map(down, cand))
                         if any(v != ctx.zero for v in c)), None)
        if (cand is None or all(v == ctx.zero for v in cand)
                or a.apply(cand) != [ctx.zero] * n):
            continue
        return cand
    return None
