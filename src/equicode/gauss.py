"""Dense exact linear algebra over a FieldCtx.

Matrices are lists of rows of raw field values.  `rref` is Gauss-Jordan
elimination with the first nonzero entry as pivot, which is all exact
arithmetic needs.  Over prime fields it runs on packed columns: a column is
one int with a fixed-width slot per row, a pivot costs one big-int
multiply-add per later column it touches, and slots are reduced mod p only
when read (delayed reduction, as in FFLAS-FFPACK).  Extension fields run the
same elimination through the FieldCtx calls.
"""

from __future__ import annotations

from .errors import DimMismatch, Inconsistent
from .ff import OPS
from .galg import _from_int, _to_int


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
    if ctx.d == 1:
        return _rref_packed(ctx, m)
    m = [list(row) for row in m]
    rows = len(m)
    cols = len(m[0]) if rows else 0
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
        m[r] = [ctx.mul(inv, x) for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c] != ctx.zero:
                m[i] = ctx.sub_scaled(m[i], m[i][c], m[r])
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def _rref_packed(ctx, m):
    """`rref` over F_p on one int per column, row i in slot i.

    Rows are never moved: `order` maps echelon positions to slots.  A
    pivot on slot t turns column c into the unit at t, and every later
    column with x = (its slot t) != 0 gets one big-int update
    col += (-inv x) F, where F is column c with slot t set to piv - 1
    (so slot t becomes inv x and slot i loses inv x c_i).  The factor is
    taken in [1, p - 1], so slots only grow: each column gets at most one
    update of at most (p - 1)^2 per slot per pivot, which the slot width
    holds, and slots are reduced mod p only when read.  OPS gets the
    count the ctx calls of the extension-field loop would make.
    """
    rows = len(m)
    cols = len(m[0]) if rows else 0
    if not cols:
        return [list(row) for row in m], []
    p = ctx.p
    bound = (p - 1) + min(rows, cols) * (p - 1) ** 2
    width = max(8, -(-bound.bit_length() // 8))  # 8: the 64-bit array path
    bits = 8 * width
    mask = (1 << bits) - 1
    packed = [_to_int(col, width) for col in zip(*m)]
    order = list(range(rows))
    out = []
    pivots = []
    r = 0
    for c in range(cols):
        vals = [v % p for v in _from_int(packed[c], rows, width)]
        out.append(vals)
        if r == rows:
            continue
        for pos in range(r, rows):
            if vals[order[pos]]:
                break
        else:
            continue
        order[r], order[pos] = order[pos], order[r]
        t = order[r]
        inv = pow(vals[t], -1, p)
        OPS.add(1 + cols + 2 * cols * (rows - vals.count(0) - 1))
        vals[t] -= 1
        f = _to_int(vals, width)
        shift = t * bits
        for j in range(c + 1, cols):
            x = (packed[j] >> shift & mask) % p
            if x:
                packed[j] += (p - inv * x % p) * f
        out[c] = [0] * rows
        out[c][t] = 1
        pivots.append(c)
        r += 1
    by_slot = list(zip(*out))
    return [list(by_slot[t]) for t in order], pivots


def rank(ctx, m):
    return len(rref(ctx, m)[1])


def solve(ctx, a, b):
    """One solution of a·x = b (free variables set to zero) or Inconsistent."""
    return [col[0] for col in solve_matrix(ctx, a, [[x] for x in b])]


def solve_matrix(ctx, a, b):
    """Solve a·X = B column by column; raises Inconsistent if any fails."""
    x = kernel_and_solution(ctx, a, b)[1]
    if x is None:
        raise Inconsistent("right-hand side outside the column span")
    return x


def kernel_basis(ctx, m):
    """Basis of the right kernel of m, one vector per free column."""
    return kernel_and_solution(ctx, m, [[] for _ in m])[0]


def kernel_and_solution(ctx, a, b):
    """(kernel_basis(a), one solution X of a·X = B or None if there is
    none), from one elimination of [a | B], whose left block is rref(a)."""
    if len(a) != len(b):
        raise DimMismatch("a has %d rows, b has %d" % (len(a), len(b)))
    cols = len(a[0]) if a else 0
    width = len(b[0]) if b else 0
    red, pivots = rref(ctx, [list(ra) + list(rb) for ra, rb in zip(a, b)])
    left = [c for c in pivots if c < cols]
    pivot_set = set(left)
    basis = []
    for free in range(cols):
        if free in pivot_set:
            continue
        v = [ctx.zero] * cols
        v[free] = ctx.one
        for r, c in enumerate(left):
            v[c] = ctx.neg(red[r][free])
        basis.append(v)
    if len(left) < len(pivots):
        return basis, None
    x = zeros(ctx, cols, width)
    for r, c in enumerate(pivots):
        x[c] = red[r][cols:]
    return basis, x


def inverse(ctx, m):
    n = len(m)
    if any(len(row) != n for row in m):
        raise DimMismatch("inverse needs a square matrix")
    try:
        return solve_matrix(ctx, m, identity(ctx, n))
    except Inconsistent:
        raise Inconsistent("matrix is singular")
