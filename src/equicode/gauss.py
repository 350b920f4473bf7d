"""Dense exact linear algebra over a FieldCtx.

Matrices are lists of rows of raw field values.  Everything is plain
Gaussian elimination; inputs stay desk-scale, so no pivoting strategy beyond
"first nonzero" is needed (arithmetic is exact).
"""

from __future__ import annotations

from .errors import DimMismatch, Inconsistent
from .ff import OPS


def identity(ctx, n):
    return [[ctx.one if i == j else ctx.zero for j in range(n)]
            for i in range(n)]


def zeros(ctx, rows, cols):
    return [[ctx.zero] * cols for _ in range(rows)]


def transpose(m):
    return [list(col) for col in zip(*m)] if m else []


def matvec(ctx, m, v):
    if m and len(m[0]) != len(v):
        raise DimMismatch("matrix is %dx%d, vector has %d entries"
                          % (len(m), len(m[0]), len(v)))
    out = []
    for row in m:
        acc = ctx.zero
        for c, x in zip(row, v):
            if c != ctx.zero and x != ctx.zero:
                acc = ctx.add(acc, ctx.mul(c, x))
        out.append(acc)
    return out


def matmul(ctx, a, b):
    if a and b and len(a[0]) != len(b):
        raise DimMismatch("inner dimensions %d and %d differ"
                          % (len(a[0]), len(b)))
    bt = transpose(b)
    out = []
    for row in a:
        out.append([_dot(ctx, row, col) for col in bt])
    return out


def _dot(ctx, u, v):
    acc = ctx.zero
    for x, y in zip(u, v):
        if x != ctx.zero and y != ctx.zero:
            acc = ctx.add(acc, ctx.mul(x, y))
    return acc


def rref(ctx, m):
    """Reduced row echelon form; returns (new matrix, pivot column list)."""
    m = [list(row) for row in m]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    prime, p = ctx.d == 1, ctx.p
    pivots = []
    r = 0
    for c in range(cols):
        pivot = None
        for i in range(r, rows):
            if m[i][c] != ctx.zero:
                pivot = i
                break
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = ctx.inv(m[r][c])
        if prime:
            # plain ints, one reduction per cell; OPS gets the count the
            # ctx calls below would make (cols, then 2 cols per row)
            m[r] = [inv * x % p for x in m[r]]
            OPS.add(cols)
        else:
            m[r] = [ctx.mul(inv, x) for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c] != ctx.zero:
                f = m[i][c]
                if prime:
                    m[i] = [(x - f * y) % p for x, y in zip(m[i], m[r])]
                    OPS.add(2 * cols)
                else:
                    m[i] = [ctx.sub(x, ctx.mul(f, y))
                            for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def rank(ctx, m):
    return len(rref(ctx, m)[1])


def solve(ctx, a, b):
    """One solution of a·x = b (free variables set to zero) or Inconsistent."""
    return [col[0] for col in solve_matrix(ctx, a, [[x] for x in b])]


def solve_matrix(ctx, a, b):
    """Solve a·X = B column by column; raises Inconsistent if any fails."""
    if len(a) != len(b):
        raise DimMismatch("a has %d rows, b has %d" % (len(a), len(b)))
    cols = len(a[0]) if a else 0
    width = len(b[0]) if b else 0
    aug = [list(ra) + list(rb) for ra, rb in zip(a, b)]
    red, pivots = rref(ctx, aug)
    for c in pivots:
        if c >= cols:
            raise Inconsistent("right-hand side outside the column span")
    x = zeros(ctx, cols, width)
    for r, c in enumerate(pivots):
        x[c] = red[r][cols:]
    return x


def kernel_basis(ctx, m):
    """Basis of the right kernel of m, one vector per free column."""
    cols = len(m[0]) if m else 0
    red, pivots = rref(ctx, m)
    pivot_set = set(pivots)
    basis = []
    for free in range(cols):
        if free in pivot_set:
            continue
        v = [ctx.zero] * cols
        v[free] = ctx.one
        for r, c in enumerate(pivots):
            v[c] = ctx.neg(red[r][free])
        basis.append(v)
    return basis


def inverse(ctx, m):
    n = len(m)
    if any(len(row) != n for row in m):
        raise DimMismatch("inverse needs a square matrix")
    try:
        return solve_matrix(ctx, m, identity(ctx, n))
    except Inconsistent:
        raise Inconsistent("matrix is singular")
