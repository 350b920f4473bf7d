"""Dense exact linear algebra over a FieldCtx.

Matrices are lists of rows of raw field values.  `rref` is Gauss-Jordan
elimination with the first nonzero entry as pivot, which is all exact
arithmetic needs.  It runs on packed columns over every field: a column is
one int with a block of fixed-width slots per row, a pivot costs one big-int
multiply-add per later column it touches, and slots are reduced only when
read (delayed reduction, as in FFLAS-FFPACK).  Over F_p a block is one slot.
Over F_{p^d} it is 2d - 1 slots, the d coordinates of a value and d - 1 zero
slots that a product with a d-coordinate factor fills; a block is read by
folding x^w for w >= d along the field modulus, then mod p.
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
    """Reduced row echelon form; returns (new matrix, pivot column list).

    Runs on packed columns, row i in slot i (see the module docstring).
    Rows are never moved: `order` maps echelon positions to slots.  A
    pivot on slot t turns column c into the unit at t, and every later
    column whose slot t holds x != 0 gets one big-int update from F,
    column c with slot t set to piv - 1: over F_p col += (-inv x) F, with
    the factor in [1, p - 1]; over F_{p^d} col += x f for f = -inv F,
    packed once per pivot.  Either way slot t becomes inv x and slot i
    loses inv x c_i.  Slots only grow, each by at most d (p - 1)^2 per
    pivot, which the slot width holds, and are reduced only when read.
    OPS gets the count the per-cell loop of ctx calls would make.
    """
    rows = len(m)
    cols = len(m[0]) if rows else 0
    if not cols:
        return [list(row) for row in m], []
    p, d, zero = ctx.p, ctx.d, ctx.zero
    bound = (p - 1) + min(rows, cols) * d * (p - 1) ** 2
    width = max(8, -(-bound.bit_length() // 8))  # 8: the 64-bit array path
    size = 2 * d - 1  # slots per value
    bits = 8 * width * size
    mask = (1 << bits) - 1
    if d == 1:
        packed = [_to_int(col, width) for col in zip(*m)]
    else:
        packed = [_pack(col, width) for col in zip(*m)]
    order = list(range(rows))
    out = []
    pivots = []
    r = 0
    for c in range(cols):
        slots = _from_int(packed[c], rows * size, width)
        vals = [v % p for v in slots] if d == 1 else _reduce(ctx, slots)
        out.append(vals)
        if r == rows:
            continue
        for pos in range(r, rows):
            if vals[order[pos]] != zero:
                break
        else:
            continue
        order[r], order[pos] = order[pos], order[r]
        t = order[r]
        inv = ctx.inv(vals[t])
        OPS.add(cols + 2 * cols * (rows - vals.count(zero) - 1))
        shift = t * bits
        if d == 1:
            vals[t] -= 1
            f = _to_int(vals, width)
            for j in range(c + 1, cols):
                x = (packed[j] >> shift & mask) % p
                if x:
                    packed[j] += (p - inv * x % p) * f
        else:
            vals[t] = ((vals[t][0] - 1) % p,) + vals[t][1:]
            neg_inv = _to_int([-e % p for e in inv], width)
            f = _pack(_reduce(ctx, _from_int(_pack(vals, width) * neg_inv,
                                             rows * size, width)), width)
            for j in range(c + 1, cols):
                x = _reduce(ctx, _from_int(packed[j] >> shift & mask, size,
                                           width))[0]
                if x != zero:
                    packed[j] += _to_int(x, width) * f
        out[c] = [zero] * rows
        out[c][t] = ctx.one
        pivots.append(c)
        r += 1
    # lists straight from zip, which reuses its one tuple: short rows as
    # tuples would be kept on the interpreter's tuple free lists
    by_slot = list(map(list, zip(*out)))
    return [by_slot[t] for t in order], pivots


def first_dependency(ctx, columns, rows):
    """The first linear dependency among the columns that the iterable
    yields (each `rows` raw values): [c_0, .., c_j] with c_j = 1 and
    sum c_i col_i = 0, or None when every column is independent of the
    ones before it.  No column after col_j is pulled.

    Each column is packed as `rref` packs it, with a unit in slot
    rows + j of an identity block below, and reduced as it arrives against
    the pivots so far, in order (left-looking): pivot k keeps its reduced
    column F_k, nonzero in slot t_k and zero at every earlier pivot slot,
    as f_k = -F_k / F_k[t_k], and x in slot t_k of a column gets
    col += x f_k, which clears slot t_k.  A column that reduces to zero
    above the identity block has its coefficients in it.  Pivot slots are
    chosen as in `rref`, with the same slot bound at min(rows, cols) = rows
    pivots.  OPS gets the count the per-cell `rref` would make on the
    columns pulled: by the time a column becomes a pivot, the identity
    block holds minus the coefficients of its reduced form on the earlier
    pivot columns.
    """
    p, d, zero = ctx.p, ctx.d, ctx.zero
    bound = (p - 1) + rows * d * (p - 1) ** 2
    # no 8-byte floor as in rref: a column is unpacked once, but every
    # pivot costs a pass over it
    width = -(-bound.bit_length() // 8)
    size = 2 * d - 1  # slots per value
    bits = 8 * width * size
    mask = (1 << bits) - 1
    order = list(range(rows))
    pivots = []  # (slot t_k's shift, f_k) per pivot
    cells = 0  # nonzeros off the pivot of every pivot column, for OPS
    j = -1
    for j, col in enumerate(columns):
        if len(col) != rows:
            raise DimMismatch("column %d has %d entries, expected %d"
                              % (j, len(col), rows))
        v = (_to_int(col, width) if d == 1 else _pack(col, width)) \
            + (1 << (rows + j) * bits)
        for shift, f in pivots:
            if d == 1:
                x = (v >> shift & mask) % p
                if x:
                    v += x * f
            else:
                x = _reduce(ctx, _from_int(v >> shift & mask, size,
                                           width))[0]
                if x != zero:
                    v += _to_int(x, width) * f
        slots = _from_int(v, (rows + j + 1) * size, width)
        vals = [s % p for s in slots] if d == 1 else _reduce(ctx, slots)
        r = len(pivots)
        for pos in range(r, rows):
            if vals[order[pos]] != zero:
                break
        else:
            OPS.add((j + 1) * (r + 2 * cells))
            return vals[rows:]
        order[r], order[pos] = order[pos], order[r]
        t = order[r]
        cells += len(vals) - vals.count(zero) - 2  # not the unit, the pivot
        if d == 1:
            neg_inv = p - ctx.inv(vals[t])
            f = _to_int([neg_inv * e % p for e in vals], width)
        else:
            neg_inv = _to_int([-e % p for e in ctx.inv(vals[t])], width)
            f = _pack(_reduce(ctx, _from_int(_pack(vals, width) * neg_inv,
                                             len(vals) * size, width)), width)
        pivots.append((t * bits, f))
    OPS.add((j + 1) * (len(pivots) + 2 * cells))
    return None


def _pack(vals, width):
    """F_{p^d} values packed in blocks of 2d - 1 slots: the d coordinates
    and d - 1 zero slots, so a product with a packed d-coordinate factor
    stays inside each block."""
    pad = (0,) * (len(vals[0]) - 1) if vals else ()
    return _to_int([e for v in vals for e in v + pad], width)


def _reduce(ctx, slots):
    """The F_{p^d} values of slots, blocks of 2d - 1 unreduced polynomial
    coefficients: x^w for w >= d folds along the field modulus (as in
    FieldCtx.mul), then each coordinate is taken mod p."""
    d, p = ctx.d, ctx.p
    size = 2 * d - 1
    power = [slots[w::size] for w in range(size)]
    for w in range(size - 1, d - 1, -1):
        for j, rj in enumerate(ctx._red[w - d]):
            if rj:
                power[j] = [u + rj * v for u, v in zip(power[j], power[w])]
    return [tuple([c % p for c in v]) for v in zip(*power[:d])]


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
