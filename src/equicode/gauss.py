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

`first_dependency` eliminates a stream of such columns as they come and
stops at the first that depends on the ones before it.  It carries no
identity block: each pivot keeps the multipliers that reduced it, packed,
and the dependency is recovered by back-substitution through them.  Its
columns may arrive packed, with unreduced slots (`column_width` gives the
slot width that holds them and the elimination's growth), so a producer
of big-int products hands them over without a reduction or a repack.
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
        packed = [_pack(ctx, col, width) for col in zip(*m)]
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
            f = _pack(ctx, _unpack(ctx, _pack(ctx, vals, width) * neg_inv,
                                   rows, width), width)
            for j in range(c + 1, cols):
                x = _unpack(ctx, packed[j] >> shift & mask, 1, width)[0]
                if x != zero:
                    packed[j] += _pack(ctx, [x], width) * f
        out[c] = [zero] * rows
        out[c][t] = ctx.one
        pivots.append(c)
        r += 1
    # lists straight from zip, which reuses its one tuple: short rows as
    # tuples would be kept on the interpreter's tuple free lists
    by_slot = list(map(list, zip(*out)))
    return [by_slot[t] for t in order], pivots


def column_width(ctx, rows, terms=0):
    """Bytes per slot of `first_dependency`'s packed columns of `rows`
    values: room for a slot that arrives below (p - 1) + terms d (p - 1)^2
    (a sum of terms products of raw values, or a raw value when terms is
    0), plus d (p - 1)^2 from each of at most rows pivots."""
    p = ctx.p
    bound = (p - 1) + (terms + rows) * ctx.d * (p - 1) ** 2
    return -(-bound.bit_length() // 8)


def first_dependency(ctx, columns, rows, width=None):
    """The first linear dependency among the columns that the iterable
    yields: [c_0, .., c_j] with c_j = 1 and sum c_i col_i = 0, or None
    when every column is independent of the ones before it.  No column
    after col_j is pulled.

    A column is a list of `rows` raw values, packed here as `rref` packs
    one; or, with width given, one int already in that layout at width
    bytes a slot, its slots unreduced but within what `column_width` gave
    width for.

    Columns are reduced as they arrive against the pivots so far, in order
    (left-looking).  Pivot k keeps its reduced column F_k, every slot
    reduced, nonzero in slot t_k (chosen as in `rref`) and zero at every
    earlier pivot slot, and s_k = -1 / F_k[t_k].  A column whose slot t_k
    holds y gets col += x F_k with x = s_k y, which clears slot t_k; the
    read masks below slot t_k first, so it costs t_k slots, not rows.
    There is no identity block: pivot k keeps the multipliers x_{k,i}
    that made it, packed in one int, so F_k = col_k + sum_i x_{k,i} F_i.
    The first column that reduces to zero, col_j + sum_k a_k F_k = 0, goes
    back to the columns by back-substitution, one packed pass per pivot
    from the last: a_k is final, it is c_k, and a += a_k x_k.

    OPS gets the count of this elimination run cell by cell through ctx:
    1 + 2 rows per nonzero y (x, and col += x F_k), 2 per pivot (s_k), and
    2k per pass of the back-substitution with a_k != 0.
    """
    p, zero = ctx.p, ctx.zero
    packed = width is not None
    if not packed:
        width = column_width(ctx, rows)
    bits = 8 * width * (2 * ctx.d - 1)  # one value's block
    order = list(range(rows))
    pivots = []  # (slot t_k's shift, F_k, s_k) per pivot
    kept = []  # the multipliers of F_k, packed, per pivot
    ops = 0
    for j, col in enumerate(columns):
        if not packed:
            if len(col) != rows:
                raise DimMismatch("column %d has %d entries, expected %d"
                                  % (j, len(col), rows))
            col = _pack(ctx, col, width)
        xs = []
        if ctx.d == 1:
            for shift, f, s in pivots:
                x = ((col & (1 << shift + bits) - 1) >> shift) * s % p
                if x:
                    col += x * f
                xs.append(x)
            ops += len(xs) - xs.count(zero)  # x = s y, as ctx.mul counts
        else:
            for shift, f, s in pivots:
                x = _unpack(ctx, (col & (1 << shift + bits) - 1) >> shift,
                            1, width)[0]
                if x != zero:
                    x = ctx.mul(s, x)
                    col += _pack(ctx, [x], width) * f
                xs.append(x)
        ops += 2 * rows * (len(xs) - xs.count(zero))
        vals = _unpack(ctx, col, rows, width)
        r = len(pivots)
        for pos in range(r, rows):
            if vals[order[pos]] != zero:
                break
        else:
            a, mask = _pack(ctx, xs, width), (1 << bits) - 1
            for k in range(r - 1, -1, -1):
                xs[k] = _unpack(ctx, a >> k * bits & mask, 1, width)[0]
                if xs[k] != zero:
                    a += _pack(ctx, [xs[k]], width) * kept[k]
                    ops += 2 * k
            OPS.add(ops)
            return xs + [ctx.one]
        order[r], order[pos] = order[pos], order[r]
        t = order[r]
        pivots.append((t * bits, _pack(ctx, vals, width),
                       ctx.neg(ctx.inv(vals[t]))))
        kept.append(_pack(ctx, xs, width))
    OPS.add(ops)
    return None


def _pack(ctx, vals, width):
    """Raw values packed as `rref` packs a column: one slot each over F_p;
    over F_{p^d} blocks of 2d - 1 slots, the d coordinates and d - 1 zero
    slots, so a product with a packed d-coordinate factor stays inside
    each block."""
    if ctx.d == 1:
        return _to_int(vals, width)
    pad = (0,) * (ctx.d - 1)
    return _to_int([e for v in vals for e in v + pad], width)


def _unpack(ctx, x, count, width):
    """The first count values packed in x (see `_pack`), their slots
    reduced."""
    slots = _from_int(x, count * (2 * ctx.d - 1), width)
    return [v % ctx.p for v in slots] if ctx.d == 1 else _reduce(ctx, slots)


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


def kernel_and_solution(ctx, a, b):
    """(a basis of a's right kernel, one vector per free column; one
    solution X of a·X = B or None if there is none), from one elimination
    of [a | B], whose left block is rref(a)."""
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
