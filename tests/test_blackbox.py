import random

import pytest

from equicode import blackbox, ff, gauss
from equicode.errors import DimMismatch, Mismatch

K13 = ff.field_make(13)
K257 = ff.field_make(257)
K9 = ff.field_make(3, 2)
K3 = ff.field_make(3)


def rand_matrix(ctx, rng, rows, cols):
    return [[ctx.rand(rng) for _ in range(cols)] for _ in range(rows)]


def rank_deficient_square(ctx, rng, n):
    """Random n x n of rank n-1 (last row a combination of the others)."""
    while True:
        top = rand_matrix(ctx, rng, n - 1, n)
        if gauss.rank(ctx, top) != n - 1:
            continue
        weights = [ctx.rand(rng) for _ in range(n - 1)]
        last = [ctx.zero] * n
        for w, row in zip(weights, top):
            last = [ctx.add(a, ctx.mul(w, x)) for a, x in zip(last, row)]
        return top + [last]


def test_operator_contract():
    rng = random.Random(21)
    m = rand_matrix(K13, rng, 3, 4)
    op = blackbox.operator_from_matrix(K13, m)
    assert (op.rows, op.cols) == (3, 4)
    x = [K13.rand(rng) for _ in range(4)]
    y = [K13.rand(rng) for _ in range(4)]
    c = K13.rand(rng)
    lhs = op.apply([K13.add(a, b) for a, b in zip(x, y)])
    rhs = [K13.add(a, b) for a, b in zip(op.apply(x), op.apply(y))]
    assert lhs == rhs
    assert op.apply([K13.mul(c, a) for a in x]) == \
        [K13.mul(c, a) for a in op.apply(x)]
    t = [K13.rand(rng) for _ in range(3)]
    assert op.apply_t(t) == gauss.matvec(K13, gauss.transpose(m), t)
    assert op.calls == 6
    with pytest.raises(DimMismatch):
        op.apply(t)
    with pytest.raises(DimMismatch):
        op.apply_t(x)
    bare = blackbox.BlackBoxOperator(K13, 2, 2, lambda v: v)
    assert not bare.has_transpose
    with pytest.raises(Mismatch):
        bare.apply_t([K13.zero, K13.zero])


def test_dense_oracle():
    assert blackbox.dense_solve(K13, gauss.identity(K13, 3), [3, 1, 4]) == \
        [3, 1, 4]
    basis = blackbox.dense_kernel(K3, [[1, 2], [2, 1]])
    assert len(basis) == 1
    assert gauss.matvec(K3, [[1, 2], [2, 1]], basis[0]) == [0, 0]


def test_berlekamp_massey_frozen():
    k5 = ff.field_make(5)
    assert blackbox.berlekamp_massey(k5, [1, 1, 1, 1]) == [4, 1]
    fib = [1, 1]
    while len(fib) < 8:
        fib.append((fib[-1] + fib[-2]) % 13)
    assert blackbox.berlekamp_massey(K13, fib) == [12, 12, 1]
    assert blackbox.berlekamp_massey(K13, [0] * 6) == [1]


def test_berlekamp_massey_annihilates():
    rng = random.Random(22)
    for ctx in (K13, K9):
        for _ in range(40):
            d = rng.randrange(1, 5)
            rec = [ctx.rand(rng) for _ in range(d)]
            seq = [ctx.rand(rng) for _ in range(d)]
            while len(seq) < 2 * d + 6:
                nxt = ctx.zero
                for j, r in enumerate(rec):
                    nxt = ctx.add(nxt, ctx.mul(r, seq[-d + j]))
                seq.append(nxt)
            mp = blackbox.berlekamp_massey(ctx, seq)
            deg = len(mp) - 1
            assert deg <= d
            assert mp[-1] == ctx.one
            for j in range(len(seq) - deg):
                acc = ctx.zero
                for k, m in enumerate(mp):
                    acc = ctx.add(acc, ctx.mul(m, seq[j + k]))
                assert acc == ctx.zero


def test_prime_field_op_counts_pinned():
    # Over a prime field the scalar loops run on plain ints and add their
    # ops to OPS in bulk; the totals are pinned to the per-call counts
    k = ff.field_make(12289)
    rng = random.Random(12289)
    seq = [k.rand(rng) for _ in range(40)]
    with ff.count_field_ops() as ops:
        mp = blackbox.berlekamp_massey(k, seq)
    assert (ops.count, len(mp)) == (2482, 21)
    n = 12
    while True:
        top = rand_matrix(k, rng, n - 1, n)
        if gauss.rank(k, top) == n - 1:
            break
    w = [k.rand(rng) for _ in range(n - 1)]
    last = [sum(wi * row[j] for wi, row in zip(w, top)) % k.p
            for j in range(n)]
    a = top + [last]
    op = blackbox.operator_from_matrix(k, a)
    with ff.count_field_ops() as ops:
        x = blackbox.wiedemann_kernel_sample(op, seed=5)
    assert (ops.count, op.calls) == (9278, 25)
    assert any(x) and gauss.matvec(k, a, x) == [0] * n
    b = [k.rand(rng) for _ in range(n)]
    a = rand_matrix(k, rng, n, n)
    op = blackbox.operator_from_matrix(k, a)
    with ff.count_field_ops() as ops:
        x = blackbox.wiedemann_solve(op, b, seed=5)
    assert (ops.count, op.calls) == (8992, 24)
    assert gauss.matvec(k, a, x) == b


def test_wiedemann_solve_identity_and_zero():
    op = blackbox.operator_from_matrix(K257, gauss.identity(K257, 5))
    b = [3, 1, 4, 1, 5]
    assert blackbox.wiedemann_solve(op, b, seed=1) == b
    zero_op = blackbox.operator_from_matrix(K257, gauss.zeros(K257, 3, 3))
    assert blackbox.wiedemann_solve(zero_op, [1, 0, 0], seed=1,
                                    max_attempts=5) is None
    assert blackbox.wiedemann_solve(zero_op, [0, 0, 0], seed=1) == [0, 0, 0]
    with pytest.raises(DimMismatch):
        blackbox.wiedemann_solve(
            blackbox.operator_from_matrix(K257, gauss.zeros(K257, 2, 3)),
            [0, 0], seed=1)
    with pytest.raises(DimMismatch):
        blackbox.wiedemann_solve(op, [1, 2], seed=1)


def test_wiedemann_solve_30x30():
    rng = random.Random(23)
    a = rand_matrix(K13, rng, 30, 30)
    x0 = [K13.rand(rng) for _ in range(30)]
    b = gauss.matvec(K13, a, x0)
    op = blackbox.operator_from_matrix(K13, a)
    x = blackbox.wiedemann_solve(op, b, seed=3)
    assert x is not None
    assert gauss.matvec(K13, a, x) == b
    xd = blackbox.dense_solve(K13, a, b)
    assert gauss.matvec(K13, a, xd) == b
    if gauss.rank(K13, a) == 30:
        assert x == xd


def test_wiedemann_solve_agrees_with_dense():
    rng = random.Random(24)
    for ctx in (K13, K257, K9):
        for trial in range(50):
            n = rng.randrange(2, 8)
            a = rand_matrix(ctx, rng, n, n)
            x0 = [ctx.rand(rng) for _ in range(n)]
            b = gauss.matvec(ctx, a, x0)
            op = blackbox.operator_from_matrix(ctx, a)
            x = blackbox.wiedemann_solve(op, b, seed=100 + trial)
            assert x is not None, (ctx.q, trial)
            assert gauss.matvec(ctx, a, x) == b
            if gauss.rank(ctx, a) == n:
                assert x == blackbox.dense_solve(ctx, a, b)


def test_wiedemann_call_budget():
    rng = random.Random(25)
    n = 20
    while True:
        a = rand_matrix(K257, rng, n, n)
        if gauss.rank(K257, a) == n:
            break
    x0 = [K257.rand(rng) for _ in range(n)]
    b = gauss.matvec(K257, a, x0)
    op = blackbox.operator_from_matrix(K257, a)
    x = blackbox.wiedemann_solve(op, b, seed=7)
    assert x == blackbox.dense_solve(K257, a, b)
    # per-attempt documented bound with minimal-polynomial degree <= n;
    # the seed above succeeds on the first attempt
    assert op.calls <= 3 * n + 2 * n


def test_kernel_sample_rank_deficient():
    rng = random.Random(26)
    for ctx in (K13, K257, K9):
        a = rank_deficient_square(ctx, rng, 6)
        basis = blackbox.dense_kernel(ctx, a)
        assert len(basis) == 1
        op = blackbox.operator_from_matrix(ctx, a)
        w = blackbox.wiedemann_kernel_sample(op, seed=5)
        assert w is not None
        assert gauss.matvec(ctx, a, w) == [ctx.zero] * 6
        assert any(x != ctx.zero for x in w)
        gen = basis[0]
        pivot = next(i for i, x in enumerate(gen) if x != ctx.zero)
        scale = ctx.mul(w[pivot], ctx.inv(gen[pivot]))
        assert w == [ctx.mul(scale, x) for x in gen]


def test_kernel_sample_edge_operators():
    op = blackbox.operator_from_matrix(K257, gauss.zeros(K257, 3, 3))
    w = blackbox.wiedemann_kernel_sample(op, seed=1)
    assert w is not None and any(x != K257.zero for x in w)
    rng = random.Random(27)
    while True:
        a = rand_matrix(K257, rng, 4, 4)
        if gauss.rank(K257, a) == 4:
            break
    op = blackbox.operator_from_matrix(K257, a)
    assert blackbox.wiedemann_kernel_sample(op, seed=1, max_attempts=6) is None


def test_kernel_sample_rectangular():
    rng = random.Random(28)
    # tall: 6x3 of rank 2, kernel dimension 1
    while True:
        cols = [[K257.rand(rng) for _ in range(6)] for _ in range(2)]
        mix = [K257.rand_nonzero(rng) for _ in range(2)]
        third = [K257.add(K257.mul(mix[0], a), K257.mul(mix[1], b))
                 for a, b in zip(cols[0], cols[1])]
        a = gauss.transpose(cols + [third])
        if gauss.rank(K257, a) == 2:
            break
    op = blackbox.operator_from_matrix(K257, a)
    w = blackbox.wiedemann_kernel_sample(op, seed=9)
    assert w is not None
    assert gauss.matvec(K257, a, w) == [K257.zero] * 6
    # wide: 3x6 random, kernel dimension >= 3
    a = rand_matrix(K257, rng, 3, 6)
    op = blackbox.operator_from_matrix(K257, a)
    w = blackbox.wiedemann_kernel_sample(op, seed=9)
    assert w is not None
    assert gauss.matvec(K257, a, w) == [K257.zero] * 3
    assert any(x != K257.zero for x in w)
    bare = blackbox.BlackBoxOperator(K257, 3, 6,
                                     lambda x: [K257.zero] * 3)
    with pytest.raises(Mismatch):
        blackbox.wiedemann_kernel_sample(bare, seed=1)


def test_kernel_sample_small_field_lift():
    # F_3 lifts through F_27; columns proportional so the kernel is known
    a = [[1, 2], [2, 1], [0, 0], [1, 2]]
    op = blackbox.operator_from_matrix(K3, a)
    w = blackbox.wiedemann_kernel_sample(op, seed=2)
    assert w is not None
    assert gauss.matvec(K3, a, w) == [0, 0, 0, 0]
    assert any(x != 0 for x in w)
    rng = random.Random(29)
    a = rank_deficient_square(K9, rng, 4)
    op = blackbox.operator_from_matrix(K9, a)
    w = blackbox.wiedemann_kernel_sample(op, seed=4)
    assert w is not None
    assert gauss.matvec(K9, a, w) == [K9.zero] * 4
    assert any(x != K9.zero for x in w)
