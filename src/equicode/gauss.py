"""Dense exact linear algebra over a FieldCtx.

Matrices are lists of rows of raw field values.  Every elimination is one
left-looking loop on packed columns, over every field, with the first
nonzero entry as pivot, which is all exact arithmetic needs.  A column is
one int with a block of fixed-width slots per row, reduced as it arrives
by one big-int multiply-add per earlier pivot whose slot it holds nonzero
(`_eliminate`); slots are reduced only when read (delayed reduction, as in
FFLAS-FFPACK).  Over F_p a block is one slot.  Over F_{p^d} it is 2d - 1
slots, the d coordinates of a value and d - 1 zero slots that a product
with a d-coordinate factor fills; a block is read by folding x^w for
w >= d along the field modulus, then mod p.

`_reduce_columns` is that loop.  `rank` counts its pivots; `rref` gives
each column a coordinate block, which the same updates turn into its
echelon column; `first_dependency` stops at the first column that depends
on the ones before it and gets the dependency back through the multipliers
each pivot keeps.  `solve_rows` runs the same reduce step on a stream of
rows [a | b].
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

    `_reduce_columns` on m's columns, each with a coordinate block after
    its rows slots: -1 in slot rows + r, r the pivots so far, 0 elsewhere.
    The updates carry it along (and the slot width holds its growth), so
    a column that reduces to zero holds there its echelon column a, col =
    sum_k a_k col(pivot k); a pivot column's is the unit at its rank.

    OPS gets the per-cell Gauss-Jordan count in place of the reduce
    step's: per pivot 1 + cols + 2 cols per other nonzero value of the
    column or its coordinates.
    """
    rows = len(m)
    cols = len(m[0]) if rows else 0
    if not cols:
        return [list(row) for row in m], []
    p, zero = ctx.p, ctx.zero
    width = max(8, column_width(ctx, min(rows, cols)))  # 8: 64-bit arrays
    bits = 8 * width * (2 * ctx.d - 1)  # one value's block
    start, ops = OPS.count, 0
    pivots, out = [], []  # out: the echelon columns
    # -1, first coordinate p - 1, in the slot of the pivot a column would
    # become: len(pivots) is read as the loop pulls the column
    columns = (_pack(ctx, col, width)
               + ((p - 1) << (rows + len(pivots)) * bits) for col in zip(*m))
    for c, (vals, _, t) in enumerate(_reduce_columns(ctx, columns, rows,
                                                     width)):
        r = len(pivots)
        if t is None:
            out.append(vals[rows:rows + r] + [zero] * (rows - r))
            continue
        nonzero = rows + r - vals[:rows + r].count(zero)
        ops += 1 + cols + 2 * cols * (nonzero - 1)
        out.append([zero] * r + [ctx.one] + [zero] * (rows - r - 1))
        pivots.append(c)
    OPS.count = start
    OPS.add(ops)
    # lists straight from zip, which reuses its one tuple: short rows as
    # tuples would be kept on the interpreter's tuple free lists
    return list(map(list, zip(*out))), pivots


def column_width(ctx, rows, terms=0):
    """Bytes per slot of packed columns: room for a slot that arrives
    below (p - 1) + terms d (p - 1)^2 (a sum of terms products of raw
    values, or a raw value when terms is 0), plus d (p - 1)^2 from each of
    at most rows pivots."""
    p = ctx.p
    bound = (p - 1) + (terms + rows) * ctx.d * (p - 1) ** 2
    return -(-bound.bit_length() // 8)


def first_dependency(ctx, columns, rows, width=None):
    """The first linear dependency among the columns that the iterable
    yields: [c_0, .., c_j] with c_j = 1 and sum c_i col_i = 0, or None
    when every column is independent of the ones before it.  No column
    after col_j is pulled.

    A column is a list of `rows` raw values, packed here by `_pack`; or,
    with width given, one int already in that layout at width bytes a
    slot, its slots unreduced but within what `column_width` gave width
    for.

    Columns are reduced as they arrive by `_reduce_columns`.  Pivot k
    keeps its reduced column F_k, every slot reduced, nonzero in its pivot
    slot t_k and zero at every earlier pivot slot, and s_k = -1 / F_k[t_k].
    There is no identity block: pivot k keeps the multipliers x_{k,i} that
    made it, packed in one int, so F_k = col_k + sum_i x_{k,i} F_i.  The
    first column that reduces to zero, col_j + sum_k a_k F_k = 0, goes
    back to the columns by back-substitution, one packed pass per pivot
    from the last: a_k is final, it is c_k, and a += a_k x_k.

    OPS gets the count of this elimination run cell by cell through ctx:
    1 + 2 rows per nonzero y (x, and col += x F_k), 2 per pivot (s_k), and
    2k per pass of the back-substitution with a_k != 0.
    """
    p, zero, prime = ctx.p, ctx.zero, ctx.d == 1
    if width is None:
        width = column_width(ctx, rows)
        columns = _packed(ctx, columns, rows, width, "column")
    bits = 8 * width * (2 * ctx.d - 1)  # one value's block
    kept = []  # the multipliers of F_k, packed, per pivot
    for _, xs, t in _reduce_columns(ctx, columns, rows, width):
        if t is None:
            break
        kept.append(_pack(ctx, xs, width))
    else:
        return None
    low = (1 << bits) - 1
    ops = 0
    if prime:
        a = _to_int(xs, width)
        for k in range(len(kept) - 1, -1, -1):
            xs[k] = x = (a >> k * bits & low) % p
            if x:
                a += x * kept[k]
                ops += 2 * k
    else:
        a = _pack(ctx, xs, width)
        for k in range(len(kept) - 1, -1, -1):
            xs[k] = _unpack(ctx, a >> k * bits & low, 1, width)[0]
            if xs[k] != zero:
                a += _pack(ctx, [xs[k]], width) * kept[k]
                ops += 2 * k
    OPS.add(ops)
    return xs + [ctx.one]


def solve_rows(ctx, rows, cols):
    """The solution u of a u = b, from the rows [a_i | b_i] (lists of cols
    + 1 raw values) that the iterable yields, read off the first cols of
    them that are independent; None when the rows run out first.  No row
    after the cols-th independent one is pulled, and the rows not pulled
    are not checked: when a has full column rank, u is the one solution
    exactly when it satisfies them.

    Rows are reduced as they arrive against the pivots so far, in order,
    by `_eliminate`, the step of `first_dependency` on the transpose: each
    pivot row F_k keeps every slot reduced, b_k's included, is nonzero in
    its first nonzero slot t_k of a and zero at every earlier pivot slot,
    and s_k = -1 / F_k[t_k].  A row that reduces to zero is dropped; one
    whose a part does while its b does not raises Inconsistent at once.
    The cols pivot rows are then triangular in pivot order, and u comes
    from the last: u_{t_k} = s_k (sum_{i > k} F_k[t_i] u_{t_i} - b_k).

    OPS gets the count of this run cell by cell through ctx: 1 + 2 (cols
    + 1) per nonzero y (x = s_k y, and row += x F_k), 2 per pivot (s_k),
    and 2 (cols - k) per unknown u_{t_k} of the back-substitution.
    """
    zero = ctx.zero
    width = column_width(ctx, cols)
    pivots = []  # `_pivot` per pivot
    reduced = []  # (t_k, F_k's values) per pivot
    for row in _packed(ctx, rows if cols else (), cols + 1, width, "row"):
        row = _eliminate(ctx, row, pivots, width, cols + 1)[0]
        vals = _unpack(ctx, row, cols + 1, width)
        t = next((t for t in range(cols) if vals[t] != zero), cols)
        if t == cols:
            if vals[t] != zero:
                raise Inconsistent("right-hand side outside the column "
                                   "span")
            continue
        pivots.append(_pivot(ctx, vals, t, width))
        reduced.append((t, vals))
        if len(pivots) == cols:
            break
    if len(pivots) < cols:
        return None
    u = [zero] * cols
    later = []  # the slots t_i of the pivots after k
    for (_, _, _, s), (t, vals) in zip(reversed(pivots), reversed(reduced)):
        u[t] = ctx.mul(s, ctx.dot([vals[i] for i in later],
                                  [u[i] for i in later], ctx.neg(vals[cols])))
        later.append(t)
    return u


def _packed(ctx, vectors, count, width, what):
    """Each of the vectors packed at width, DimMismatch for one that does
    not hold count values."""
    for i, v in enumerate(vectors):
        if len(v) != count:
            raise DimMismatch("%s %d has %d entries, expected %d"
                              % (what, i, len(v), count))
        yield _pack(ctx, v, width)


def _reduce_columns(ctx, columns, rows, width):
    """The left-looking column loop: yields (vals, xs, t) per column the
    iterable yields, packed at width.  The column is reduced against the
    pivots so far by `_eliminate`, with multipliers xs; vals are all its
    values, `rref`'s coordinates too, reduced; t is the first slot in
    `order` from the rank on that holds a nonzero value, swapped to the
    rank's place, or None.  The pivot keeps all of vals."""
    zero = ctx.zero
    bits = 8 * width * (2 * ctx.d - 1)  # one value's block
    order = list(range(rows))
    pivots = []  # `_pivot` per pivot
    for col in columns:
        col, xs = _eliminate(ctx, col, pivots, width, rows)
        count = -(-col.bit_length() // bits)  # values, coordinates too
        vals = _unpack(ctx, col, count if count > rows else rows, width)
        r = len(pivots)
        for pos in range(r, rows):
            if vals[order[pos]] != zero:
                break
        else:
            yield vals, xs, None
            continue
        order[r], order[pos] = order[pos], order[r]
        t = order[r]
        pivots.append(_pivot(ctx, vals, t, width))
        yield vals, xs, t


def _pivot(ctx, vals, t, width):
    """The pivot `_eliminate` reads, from reduced values nonzero in slot t:
    (read mask, slot t's shift, vals packed at width, -1 / vals[t])."""
    bits = 8 * width * (2 * ctx.d - 1)  # one value's block
    return ((1 << (t + 1) * bits) - 1, t * bits, _pack(ctx, vals, width),
            ctx.neg(ctx.inv(vals[t])))


def _eliminate(ctx, col, pivots, width, n):
    """col, packed at width bytes a slot, reduced against the pivots in
    order, and the multipliers that did it: pivot (mask, shift, F, s) reads
    the slot y at shift from col's bits below mask, so the read costs the
    slots up to it, not all of col; y != 0 gets col += x F with x = s y,
    which clears it.  Over F_p that is int arithmetic alone; over F_{p^d}
    y's block is unpacked and reduced, and x packed.  OPS gets the count
    of the per-cell update of n values: 1 + 2n per y != 0."""
    xs = []
    if ctx.d == 1:
        p = ctx.p
        for mask, shift, f, s in pivots:
            x = ((col & mask) >> shift) * s % p
            if x:
                col += x * f
            xs.append(x)
        OPS.add((1 + 2 * n) * (len(xs) - xs.count(0)))
        return col, xs
    zero = ctx.zero
    for mask, shift, f, s in pivots:
        x = _unpack(ctx, (col & mask) >> shift, 1, width)[0]
        if x != zero:
            x = ctx.mul(s, x)
            col += _pack(ctx, [x], width) * f
        xs.append(x)
    OPS.add(2 * n * (len(xs) - xs.count(zero)))
    return col, xs


def _pack(ctx, vals, width):
    """Raw values packed at width bytes a slot: one slot each over F_p;
    over F_{p^d} blocks of 2d - 1 slots, the d coordinates and d - 1 zero
    slots, so a product with a packed d-coordinate factor stays inside
    each block."""
    if ctx.d == 1:
        return _to_int(vals, width)
    pad = (0,) * (ctx.d - 1)
    return _to_int([e for v in vals for e in v + pad], width)


def _unpack(ctx, x, count, width):
    """The first count values packed in x (see `_pack`), their slots
    reduced: over F_{p^d} x^w for w >= d folds along the field modulus
    (as in FieldCtx.mul), then each coordinate is taken mod p."""
    d, p = ctx.d, ctx.p
    size = 2 * d - 1
    slots = _from_int(x, count * size, width)
    if d == 1:
        return [v % p for v in slots]
    power = [slots[w::size] for w in range(size)]
    for w in range(size - 1, d - 1, -1):
        for j, rj in enumerate(ctx._red[w - d]):
            if rj:
                power[j] = [u + rj * v for u, v in zip(power[j], power[w])]
    return [tuple([c % p for c in v]) for v in zip(*power[:d])]


def rank(ctx, m):
    """The number of pivots `_reduce_columns` finds in m's columns, pulled
    until it is len(m).  OPS gets the per-cell count of `first_dependency`
    without its back-substitution."""
    rows = len(m)
    width = max(8, column_width(ctx, rows))  # 8: 64-bit arrays
    r = 0
    for _, _, t in _reduce_columns(
            ctx, (_pack(ctx, col, width) for col in zip(*m)), rows, width):
        r += t is not None
        if r == rows:
            break
    return r


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
