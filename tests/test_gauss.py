import random

import pytest
from hypothesis import given, settings, strategies as st

from equicode import ff, galg, gauss
from equicode.errors import DimMismatch, Inconsistent
from gauss_helpers import kernel_basis, matmul


K13 = ff.field_make(13)
K9 = ff.field_make(3, 2)


def rand_matrix(ctx, rng, rows, cols):
    return [[ctx.rand(rng) for _ in range(cols)] for _ in range(rows)]


def test_identity_and_matmul():
    I3 = gauss.identity(K13, 3)
    rng = random.Random(1)
    m = rand_matrix(K13, rng, 3, 3)
    assert matmul(K13, m, I3) == m
    assert matmul(K13, I3, m) == m
    with pytest.raises(DimMismatch):
        matmul(K13, m, rand_matrix(K13, rng, 4, 2))


def test_solve_and_verify():
    rng = random.Random(2)
    for ctx in (K13, K9):
        for _ in range(30):
            n = rng.randrange(1, 7)
            a = rand_matrix(ctx, rng, n, n)
            x0 = [ctx.rand(rng) for _ in range(n)]
            b = gauss.matvec(ctx, a, x0)
            try:
                x = gauss.solve(ctx, a, b)
            except Inconsistent:
                pytest.fail("consistent system reported inconsistent")
            assert gauss.matvec(ctx, a, x) == b


def test_solve_inconsistent():
    a = [[1, 1], [2, 2]]
    with pytest.raises(Inconsistent):
        gauss.solve(K13, a, [1, 3])
    # consistent variant works
    assert gauss.matvec(K13, a, gauss.solve(K13, a, [1, 2])) == [1, 2]


def test_rank_and_rref():
    a = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
    assert gauss.rank(K13, a) == 2
    red, pivots = gauss.rref(K13, a)
    assert pivots == [0, 1]
    assert red[0][0] == 1 and red[1][1] == 1
    assert gauss.rank(K13, gauss.identity(K13, 5)) == 5
    assert gauss.rank(K13, gauss.zeros(K13, 3, 4)) == 0


def test_kernel_basis():
    rng = random.Random(3)
    a = [[1, 2], [2, 4]]  # rank 1 over F_3? over F_13 rank 1
    basis = kernel_basis(K13, a)
    assert len(basis) == 1
    assert gauss.matvec(K13, a, basis[0]) == [0, 0]
    for ctx in (K13, K9):
        for _ in range(20):
            rows = rng.randrange(1, 6)
            cols = rng.randrange(1, 6)
            m = rand_matrix(ctx, rng, rows, cols)
            basis = kernel_basis(ctx, m)
            assert len(basis) == cols - gauss.rank(ctx, m)
            for v in basis:
                assert gauss.matvec(ctx, m, v) == [ctx.zero] * rows


def test_inverse():
    rng = random.Random(4)
    for ctx in (K13, K9):
        for _ in range(20):
            n = rng.randrange(1, 6)
            while True:
                m = rand_matrix(ctx, rng, n, n)
                if gauss.rank(ctx, m) == n:
                    break
            mi = gauss.inverse(ctx, m)
            assert matmul(ctx, m, mi) == gauss.identity(ctx, n)
            assert matmul(ctx, mi, m) == gauss.identity(ctx, n)
    with pytest.raises(Inconsistent):
        gauss.inverse(K13, [[1, 2], [2, 4]])


# (p, d, rows, cols, seed) -> (field ops, rank), counted through the
# per-cell FieldCtx calls before prime fields got a plain-int row update
RREF_COUNTS = {
    (13, 1, 5, 7, 1): (186, 4),
    (12289, 1, 8, 6, 2): (486, 6),
    (3, 1, 6, 6, 3): (167, 5),
    (3, 2, 4, 6, 4): (105, 3),
    (7, 1, 3, 0, 5): (0, 0),
    (5, 1, 0, 3, 6): (0, 0),
}


@pytest.mark.parametrize("case", list(RREF_COUNTS))
def test_rref_field_op_count(case):
    p, d, rows, cols, seed = case
    ctx = ff.field_make(p, d)
    m = rand_matrix(ctx, random.Random(seed), rows, cols)
    if rows > 2:
        m[2] = list(m[0])  # a dependent row
    with ff.count_field_ops() as ops:
        _, pivots = gauss.rref(ctx, m)
    assert (ops.count, len(pivots)) == RREF_COUNTS[case]


def rref_reference(ctx, m):
    """The per-cell elimination that gauss.rref replaced, through the
    FieldCtx calls over every field: each call counts itself in OPS."""
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


def assert_rref_matches_reference(ctx, m):
    with ff.count_field_ops() as ops:
        got = gauss.rref(ctx, m)
    with ff.count_field_ops() as ref_ops:
        want = rref_reference(ctx, m)
    assert got == want
    assert ops.count == ref_ops.count


# (p, d): prime fields up to 2^61 - 1 and F_4, F_9, F_169, F_343
RREF_FIELDS = ((2, 1), (3, 1), (13, 1), (12289, 1), (2 ** 31 - 1, 1),
               (2 ** 61 - 1, 1), (2, 2), (3, 2), (13, 2), (7, 3))


def top(ctx):
    """The value with every coefficient p - 1."""
    return ctx.p - 1 if ctx.d == 1 else (ctx.p - 1,) * ctx.d


@st.composite
def field_matrices(draw):
    """Shapes from 0 x k and k x 0 to tall and wide; entries drawn from a
    pool so that zeros, ones, every coefficient p - 1 and repeated rows
    (rank deficiency) occur, or else every entry is the top value."""
    ctx = ff.field_make(*draw(st.sampled_from(RREF_FIELDS)))
    p, d = ctx.p, ctx.d
    rows = draw(st.integers(0, 9))
    cols = draw(st.integers(0, 9)) if rows else 0
    coeff = st.one_of(st.sampled_from((0, 1, p - 1)), st.integers(0, p - 1))
    rand = coeff if d == 1 else st.tuples(*[coeff] * d)
    value = st.one_of(st.sampled_from((ctx.zero, ctx.one, top(ctx))), rand)
    if draw(st.integers(0, 9)) == 0:
        value = st.just(top(ctx))
    m = [[draw(value) for _ in range(cols)] for _ in range(rows)]
    for i in range(1, rows):
        if draw(st.booleans()) and draw(st.booleans()):
            j = draw(st.integers(0, i - 1))
            f = draw(rand)
            m[i] = [ctx.mul(f, x) for x in m[j]]
    return ctx, m


@settings(max_examples=400, deadline=None)
@given(field_matrices())
def test_rref_matches_per_cell_reference(case):
    ctx, m = case
    assert_rref_matches_reference(ctx, m)


@pytest.mark.parametrize("p", [2 ** 31 - 1, 2 ** 61 - 1])
@pytest.mark.parametrize("rows, cols", [(2, 2), (2, 5), (5, 2), (6, 6)])
def test_rref_slots_near_their_bound(p, rows, cols):
    """All entries p - 1 leave (p - 1) + (p - 1)^2, the most one update can
    add to a fresh slot; p - 1 off the diagonal carries a slot through
    several pivots (to 0.44 of the bound at 6 x 6).  With slots one byte
    narrower, every case at 2^61 - 1 fails, and so does every case with
    two rows or two columns at 2^31 - 1."""
    ctx = ff.field_make(p)
    assert_rref_matches_reference(ctx, [[p - 1] * cols for _ in range(rows)])
    assert_rref_matches_reference(
        ctx, [[0 if i == j else p - 1 for j in range(cols)]
              for i in range(rows)])


@pytest.mark.parametrize("p, d", [(2 ** 31 - 1, 2), (2 ** 61 - 1, 2),
                                  (13, 2), (7, 3)])
@pytest.mark.parametrize("rows, cols", [(2, 2), (2, 5), (5, 2), (6, 6)])
def test_rref_extension_slots_near_their_bound(p, d, rows, cols):
    """The same shapes over F_{p^d} with every coefficient p - 1: a fresh
    slot can reach (p - 1) + d (p - 1)^2, a d-term sum per product.  Over
    F_169 and F_343 the slots are 8 bytes, far above the bound, so those
    cases check the block layout and its reduction along the modulus."""
    ctx = ff.field_make(p, d)
    t = top(ctx)
    assert_rref_matches_reference(ctx, [[t] * cols for _ in range(rows)])
    assert_rref_matches_reference(
        ctx, [[ctx.zero if i == j else t for j in range(cols)]
              for i in range(rows)])


@pytest.mark.parametrize("p, d", [(4294967291, 2), (4294967291, 3),
                                  (2 ** 61 - 1, 2)])
def test_rref_extension_block_reaches_its_bound(p, d):
    """[[piv, x]] with x = top and 1/piv = (0, p - 1, .., p - 1): the one
    update adds x (1/piv - 1) to x's block, both factors with every
    coefficient p - 1, so slot d - 1 reaches (p - 1) + d (p - 1)^2, the
    bound at one pivot.  For p just below 2^32 that needs 9 bytes only
    because of the factor d."""
    ctx = ff.field_make(p, d)
    piv = ctx.inv((0,) + (p - 1,) * (d - 1))
    assert_rref_matches_reference(ctx, [[piv, top(ctx)]])


def first_dependency_reference(ctx, columns, rows):
    """The elimination gauss.first_dependency runs, cell by cell through
    the FieldCtx calls, each counting itself in OPS.  Columns are reduced
    as they come against the pivots so far, in order: y in slot t_k gets
    col += x F_k with x = s_k y and s_k = -1 / F_k[t_k].  Each pivot keeps
    the multipliers that reduced it, and the first column that reduces to
    zero is taken back to the columns by back-substitution through them,
    from the last pivot: c_k = a_k, and a += a_k x_k."""
    zero = ctx.zero
    order = list(range(rows))
    pivots = []  # (t_k, F_k, s_k, multipliers of F_k)
    for col in columns:
        col = list(col)
        xs = []
        for t, f, s, _ in pivots:
            x = zero
            if col[t] != zero:
                x = ctx.mul(s, col[t])
                col = [ctx.add(c, ctx.mul(x, e)) for c, e in zip(col, f)]
            xs.append(x)
        r = len(pivots)
        pos = next((pos for pos in range(r, rows)
                    if col[order[pos]] != zero), None)
        if pos is None:
            a = xs
            for k in range(r - 1, -1, -1):
                if a[k] != zero:
                    a = [ctx.add(u, ctx.mul(a[k], y))
                         for u, y in zip(a, pivots[k][3])] + a[k:]
            return a + [ctx.one]
        order[r], order[pos] = order[pos], order[r]
        t = order[r]
        pivots.append((t, col, ctx.neg(ctx.inv(col[t])), xs))
    return None


def rank_reference(ctx, m):
    """The elimination gauss.rank runs, cell by cell through the FieldCtx
    calls: first_dependency_reference's loop on m's columns, carried on
    past the columns that reduce to zero until there are len(m) pivots."""
    zero, rows = ctx.zero, len(m)
    order = list(range(rows))
    pivots = []  # (t_k, F_k, s_k)
    for col in gauss.transpose(m):
        r = len(pivots)
        if r == rows:
            break
        for t, f, s in pivots:
            if col[t] != zero:
                x = ctx.mul(s, col[t])
                col = [ctx.add(c, ctx.mul(x, e)) for c, e in zip(col, f)]
        pos = next((pos for pos in range(r, rows)
                    if col[order[pos]] != zero), None)
        if pos is not None:
            order[r], order[pos] = order[pos], order[r]
            t = order[r]
            pivots.append((t, col, ctx.neg(ctx.inv(col[t]))))
    return len(pivots)


@settings(max_examples=400, deadline=None)
@given(field_matrices())
def test_rank_matches_per_cell_reference(case):
    """gauss.rank is the per-cell rref's pivot count, with the OPS count
    of rank_reference."""
    ctx, m = case
    with ff.count_field_ops() as ref_ops:
        want = rank_reference(ctx, m)
    with ff.count_field_ops() as ops:
        got = gauss.rank(ctx, m)
    assert got == want == len(rref_reference(ctx, m)[1])
    assert ops.count == ref_ops.count


def assert_first_dependency_matches_reference(ctx, m):
    """gauss.first_dependency on m's columns is the per-cell rref's first
    non-pivot column, as coefficients ending in one, or None when every
    column is a pivot; its OPS count is first_dependency_reference's on
    the columns it pulled.  The same holds for the columns handed over
    packed, every slot p (p - 1) above its value, at a width that allows
    for it."""
    rows = len(m)
    cols = len(m[0]) if rows else 0
    red, pivots = rref_reference(ctx, m)
    j = next((j for j, c in enumerate(pivots) if c != j), len(pivots))
    if j < cols:
        want = [ctx.neg(red[r][j]) for r in range(j)] + [ctx.one]
        m = [row[:j + 1] for row in m]
    else:
        want = None
    columns = gauss.transpose(m)
    with ff.count_field_ops() as ref_ops:
        assert first_dependency_reference(ctx, columns, rows) == want
    with ff.count_field_ops() as ops:
        got = gauss.first_dependency(ctx, iter(columns), rows)
    assert got == want
    assert ops.count == ref_ops.count
    p = ctx.p
    width = gauss.column_width(ctx, rows, 2)
    lift = galg._to_int([p * (p - 1)] * (rows * (2 * ctx.d - 1)), width)
    with ff.count_field_ops() as ops:
        got = gauss.first_dependency(
            ctx, (gauss._pack(ctx, col, width) + lift for col in columns),
            rows, width)
    assert got == want
    assert ops.count == ref_ops.count


@settings(max_examples=400, deadline=None)
@given(field_matrices())
def test_first_dependency_matches_per_cell_reference(case):
    ctx, m = case
    assert_first_dependency_matches_reference(ctx, m)


@pytest.mark.parametrize("p, d", RREF_FIELDS)
def test_first_dependency_of_a_zero_column_and_of_a_full_rank_stream(p, d):
    """A zero first column is a dependency by itself, [1]; with no rows,
    so is every first column.  Independent columns, the identity's and
    a random full-rank matrix's, give None."""
    ctx = ff.field_make(p, d)
    rng = random.Random("first/%d/%d" % (p, d))
    rest = [[ctx.rand(rng) for _ in range(4)] for _ in range(2)]
    assert gauss.first_dependency(ctx, iter([[ctx.zero] * 4] + rest),
                                  4) == [ctx.one]
    assert gauss.first_dependency(ctx, iter([[], []]), 0) == [ctx.one]
    assert gauss.first_dependency(ctx, iter([]), 3) is None
    assert gauss.first_dependency(
        ctx, iter(gauss.identity(ctx, 5)), 5) is None
    while True:
        m = rand_matrix(ctx, rng, 6, 4)
        if gauss.rank(ctx, m) == 4:
            break
    assert gauss.first_dependency(ctx, iter(gauss.transpose(m)), 6) is None
    assert_first_dependency_matches_reference(ctx, m)


@pytest.mark.parametrize("p, d", [(2 ** 31 - 1, 2), (2 ** 61 - 1, 2),
                                  (13, 2), (7, 3)])
@pytest.mark.parametrize("rows, cols", [(2, 2), (2, 5), (5, 2), (6, 6)])
def test_first_dependency_slots_near_their_bound(p, d, rows, cols):
    """The shapes of test_rref_extension_slots_near_their_bound, every
    coefficient p - 1, with the back-substitution's packed passes."""
    ctx = ff.field_make(p, d)
    t = top(ctx)
    assert_first_dependency_matches_reference(
        ctx, [[t] * cols for _ in range(rows)])
    assert_first_dependency_matches_reference(
        ctx, [[ctx.zero if i == j else t for j in range(cols)]
              for i in range(rows)])


def test_first_dependency_pulls_no_column_past_the_dependency():
    """The third column is the sum of the first two, and the stream fails
    when asked for a fourth; a column of the wrong length is refused."""
    def stream():
        yield from ([1, 2, 0], [0, 1, 1], [1, 3, 1])
        raise AssertionError("pulled past the first dependency")

    assert gauss.first_dependency(K13, stream(), 3) == [12, 12, 1]
    with pytest.raises(DimMismatch):
        gauss.first_dependency(K13, iter([[1, 2], [3]]), 2)


def solve_rows_reference(ctx, rows, cols):
    """The elimination gauss.solve_rows runs, cell by cell through the
    FieldCtx calls, each counting itself in OPS.  Rows [a | b] are reduced
    as they come against the pivot rows so far, in order: y in slot t_k
    gets row += x F_k with x = s_k y and s_k = -1 / F_k[t_k].  A row that
    reduces to zero is dropped, and one that does only in a raises
    Inconsistent.  After cols pivots the unknowns come from the last
    pivot: u_{t_k} = s_k (sum_{i > k} F_k[t_i] u_{t_i} - b_k)."""
    zero = ctx.zero
    pivots = []  # (t_k, F_k, s_k)
    for row in rows if cols else ():
        row = list(row)
        for t, f, s in pivots:
            if row[t] != zero:
                x = ctx.mul(s, row[t])
                row = [ctx.add(c, ctx.mul(x, e)) for c, e in zip(row, f)]
        t = next((t for t in range(cols) if row[t] != zero), None)
        if t is None:
            if row[cols] != zero:
                raise Inconsistent("right-hand side outside the column span")
            continue
        pivots.append((t, row, ctx.neg(ctx.inv(row[t]))))
        if len(pivots) == cols:
            break
    if len(pivots) < cols:
        return None
    u = [zero] * cols
    for k in range(cols - 1, -1, -1):
        t, f, s = pivots[k]
        acc = ctx.neg(f[cols])
        for i, _, _ in pivots[k + 1:]:
            acc = ctx.add(acc, ctx.mul(f[i], u[i]))
        u[t] = ctx.mul(s, acc)
    return u


def assert_solve_rows_matches_reference(ctx, a, b):
    """gauss.solve_rows on the rows of [a | b] gives what
    solve_rows_reference gives, or both raise Inconsistent, with the same
    OPS count; and it agrees with gauss.solve: a solution when a has full
    column rank and the system is consistent, None when a is
    rank-deficient and it is, Inconsistent or a u that fails some row
    when it is not."""
    cols = len(a[0]) if a else 0
    rows = [list(ra) + [v] for ra, v in zip(a, b)]
    outcome = {}
    for name, run in (("got", gauss.solve_rows),
                      ("want", solve_rows_reference)):
        with ff.count_field_ops() as ops:
            try:
                outcome[name] = run(ctx, iter(rows), cols)
            except Inconsistent:
                outcome[name] = "inconsistent"
        outcome[name + "_ops"] = ops.count
    assert outcome["got"] == outcome["want"]
    assert outcome["got_ops"] == outcome["want_ops"]
    got = outcome["got"]
    full = gauss.rank(ctx, a) == cols if a else cols == 0
    try:
        sol = gauss.solve(ctx, a, b) if a else [ctx.zero] * cols
    except Inconsistent:
        assert got == "inconsistent" or full and gauss.matvec(
            ctx, a, got) != list(b)
        return
    assert got == (sol if full else None)


@settings(max_examples=400, deadline=None)
@given(field_matrices())
def test_solve_rows_matches_per_cell_reference(case):
    """The last column of m is the right-hand side."""
    ctx, m = case
    if m and m[0]:
        assert_solve_rows_matches_reference(
            ctx, [row[:-1] for row in m], [row[-1] for row in m])


@pytest.mark.parametrize("p, d", RREF_FIELDS)
def test_solve_rows_on_consistent_random_systems(p, d):
    """Tall random systems a u = a x: solve_rows finds x at full column
    rank, None below it, and the per-cell count; with the first row
    repeated ahead of the rest, the repeat is dropped."""
    ctx = ff.field_make(p, d)
    rng = random.Random("rows/%d/%d" % (p, d))
    for rows, cols in ((1, 1), (3, 2), (6, 3), (9, 4), (5, 5), (4, 6)):
        a = rand_matrix(ctx, rng, rows, cols)
        a.insert(1, list(a[0]))
        x = [ctx.rand(rng) for _ in range(cols)]
        b = gauss.matvec(ctx, a, x)
        assert_solve_rows_matches_reference(ctx, a, b)
        if gauss.rank(ctx, a) == cols:
            assert gauss.solve_rows(ctx, iter(
                [list(r) + [v] for r, v in zip(a, b)]), cols) == x


def test_solve_rows_pulls_no_row_past_the_last_pivot():
    """u + 2v = 3 twice, then v = 5: the repeat is dropped, the third row
    is the second pivot, and the stream fails when asked for a fourth.
    With no unknowns no row is pulled; a row of the wrong length is
    refused."""
    def stream():
        yield from ([1, 2, 3], [2, 4, 6], [0, 1, 5])
        raise AssertionError("pulled past the last pivot")

    assert gauss.solve_rows(K13, stream(), 2) == [6, 5]
    assert gauss.solve_rows(K13, stream(), 0) == []
    with pytest.raises(DimMismatch):
        gauss.solve_rows(K13, iter([[1, 2, 3], [4, 5]]), 2)


def test_solve_rows_raises_at_the_first_inconsistent_row():
    """A row that reduces to zero in a but not in b raises Inconsistent
    before the next row is pulled; rows that run out below full rank
    give None."""
    def stream():
        yield from ([1, 2, 3], [2, 4, 7])
        raise AssertionError("pulled past the inconsistent row")

    with pytest.raises(Inconsistent):
        gauss.solve_rows(K13, stream(), 2)
    assert gauss.solve_rows(K13, iter([[1, 2, 3], [2, 4, 6]]), 2) is None
