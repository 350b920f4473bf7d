import hashlib
import itertools
import json
import random

import pytest

from equicode import blackbox, ff, gauss
from equicode.errors import DimMismatch

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
    assert op.calls == 5
    with pytest.raises(DimMismatch):
        op.apply([K13.rand(rng) for _ in range(3)])


def test_dense_oracle():
    assert gauss.solve(K13, gauss.identity(K13, 3), [3, 1, 4]) == \
        [3, 1, 4]
    basis = gauss.kernel_basis(K3, [[1, 2], [2, 1]])
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
    xd = gauss.solve(K13, a, b)
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
                assert x == gauss.solve(ctx, a, b)


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
    assert x == gauss.solve(K257, a, b)
    # per-attempt documented bound with minimal-polynomial degree <= n;
    # the seed above succeeds on the first attempt
    assert op.calls <= 3 * n + 2 * n


def test_kernel_sample_rank_deficient():
    rng = random.Random(26)
    for ctx in (K13, K257, K9):
        a = rank_deficient_square(ctx, rng, 6)
        basis = gauss.kernel_basis(ctx, a)
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


def test_kernel_sample_rejects_non_square():
    rng = random.Random(28)
    for rows, cols in ((6, 3), (3, 6)):
        op = blackbox.operator_from_matrix(
            K257, rand_matrix(K257, rng, rows, cols))
        with pytest.raises(DimMismatch):
            blackbox.wiedemann_kernel_sample(op, seed=9)
        assert op.calls == 0


def test_kernel_sample_small_field_lift():
    # F_3 lifts to F_27 and F_9 to F_729; each kernel is one-dimensional
    rng = random.Random(29)
    for ctx, seed in ((K3, 2), (K9, 4)):
        a = rank_deficient_square(ctx, rng, 4)
        op = blackbox.operator_from_matrix(ctx, a)
        w = blackbox.wiedemann_kernel_sample(op, seed=seed)
        assert w is not None
        assert gauss.matvec(ctx, a, w) == [ctx.zero] * 4
        gen = gauss.kernel_basis(ctx, a)[0]
        pivot = next(i for i, x in enumerate(gen) if x != ctx.zero)
        scale = ctx.mul(w[pivot], ctx.inv(gen[pivot]))
        assert scale != ctx.zero
        assert w == [ctx.mul(scale, x) for x in gen]


def test_lift_irreducibility_matches_rabin():
    # every monic candidate of each small degree, lift degrees included
    for p in (2, 3, 5, 7, 11, 13):
        prime = ff.field_make(p)
        for deg in range(1, 5):
            if p ** deg > 400:
                break
            for low in itertools.product(range(p), repeat=deg):
                f = low + (1,)
                assert blackbox._irreducible_mod(p, f) == \
                    ff.poly_is_irreducible(list(f), prime), (p, f)


# sha256 of the JSON list of (kernel sample, solution, operator calls) that
# lift_records draws; recorded when the lift ran on the tower of ff.poly_*
# helpers, so the lifted field must make the same random draws.
LIFT_DIGESTS = {
    2: "82216e9698eb2d253a7daf5c1e1bfba5659bbf1c6fc1929099bb4e4891682b84",
    3: "7e5c2f5d530917a95431aadf3418d36efd899b1959b210dfcf0842833c87cef4",
    5: "85b24d7c27768cca1a2c2a3b14872f8b1a0467adb00bfe99708ca9d63b5da18f",
    7: "06b681b2c7f887eca66209f02ff0d43f6b38d540e3ed8034a26cf2648f31179c",
    11: "9d3cce5cb82f79d915f48f27f88760072fb82462616ca254011deb456bdfcf34",
    13: "c629fbf108d5deb7450efe0325f66267ac39290b614762c7bfde5209d08c1e88",
}


def lift_records(p):
    """32 square operators over F_p, every other one singular (a repeated
    row), each run through both drivers at a fixed seed."""
    ctx = ff.field_make(p)
    rng = random.Random("lift/%d/1" % p)
    out = []
    for trial in range(32):
        n = rng.randrange(2, 7)
        a = rand_matrix(ctx, rng, n, n)
        if trial % 2 == 0:
            a[-1] = list(a[rng.randrange(n - 1)])
        if trial % 3 == 0:
            b = gauss.matvec(ctx, a, [ctx.rand(rng) for _ in range(n)])
        else:
            b = [ctx.rand(rng) for _ in range(n)]
        op = blackbox.operator_from_matrix(ctx, a)
        k = blackbox.wiedemann_kernel_sample(op, seed=trial, max_attempts=6)
        x = blackbox.wiedemann_solve(op, b, seed=trial, max_attempts=6)
        out.append([k, x, op.calls])
    return out


@pytest.mark.parametrize("p", sorted(LIFT_DIGESTS))
def test_small_prime_lift_pinned(p):
    records = lift_records(p)
    assert any(k is not None for k, _, _ in records)
    assert any(x is not None for _, x, _ in records)
    digest = hashlib.sha256(json.dumps(records).encode()).hexdigest()
    assert digest == LIFT_DIGESTS[p]
