import hashlib
import json
import random

import pytest

from equicode import blackbox, ff, gauss
from equicode.errors import DimMismatch
from gauss_helpers import kernel_basis

K2 = ff.field_make(2)
K13 = ff.field_make(13)
K257 = ff.field_make(257)
K9 = ff.field_make(3, 2)
K3 = ff.field_make(3)
K4 = ff.field_make(2, 2)
K8 = ff.field_make(2, 3)


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
    basis = kernel_basis(K3, [[1, 2], [2, 1]])
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
    # ops to OPS in bulk; the totals are pinned to the per-call counts.
    # The Wiedemann drivers' counts include gauss.first_dependency's, the
    # per-cell count of its elimination (test_gauss's
    # first_dependency_reference)
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
    assert (ops.count, op.calls) == (6294, 13)
    assert any(x) and gauss.matvec(k, a, x) == [0] * n
    b = [k.rand(rng) for _ in range(n)]
    a = rand_matrix(k, rng, n, n)
    op = blackbox.operator_from_matrix(k, a)
    with ff.count_field_ops() as ops:
        x = blackbox.wiedemann_solve(op, b, seed=5)
    assert (ops.count, op.calls) == (6308, 13)
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
    for ctx in (K13, K257, K9, K4, K8):
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
    # the documented per-attempt bound, n + 1; the seed above succeeds on
    # the first attempt
    assert op.calls <= n + 1


@pytest.mark.parametrize("p", [2, 3, 13])
def test_wiedemann_solve_nilpotent(p):
    """A.D is nilpotent for every unit diagonal D, so e_1's minimal
    polynomial under it is lambda^2 and a diagonal alone never solves; the
    column permutation makes the operator diag(d, 0) when it swaps."""
    ctx = ff.field_make(p)
    a = [[0, 1], [0, 0]]
    op = blackbox.operator_from_matrix(ctx, a)
    x = blackbox.wiedemann_solve(op, [1, 0], seed=1)
    assert x is not None and gauss.matvec(ctx, a, x) == [1, 0]


def test_wiedemann_solve_augmented_kernel_over_f2():
    """Over F_2 the only unit diagonal is 1, and A.P = A for both column
    orders, with A b = 0: b's minimal polynomial is lambda under every
    preconditioner, so no attempt solves from b's Krylov vectors.  The
    kernel vector (x, 1) of [[A, -b], [0, 0]] gives x."""
    ctx = ff.field_make(2)
    a = [[1, 1], [1, 1]]
    op = blackbox.operator_from_matrix(ctx, a)
    x = blackbox.wiedemann_solve(op, [1, 1], seed=1)
    assert x is not None and gauss.matvec(ctx, a, x) == [1, 1]


def test_kernel_sample_rank_deficient():
    rng = random.Random(26)
    for ctx in (K13, K257, K9, K4, K8):
        a = rank_deficient_square(ctx, rng, 6)
        basis = kernel_basis(ctx, a)
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


def test_kernel_sample_small_fields():
    # the sampler runs in each field itself, with no larger work field;
    # each kernel is one-dimensional
    rng = random.Random(29)
    for ctx, seed in ((K3, 2), (K9, 4), (K4, 6), (K8, 8), (K2, 10)):
        a = rank_deficient_square(ctx, rng, 4)
        op = blackbox.operator_from_matrix(ctx, a)
        w = blackbox.wiedemann_kernel_sample(op, seed=seed)
        assert w is not None
        assert gauss.matvec(ctx, a, w) == [ctx.zero] * 4
        gen = kernel_basis(ctx, a)[0]
        pivot = next(i for i, x in enumerate(gen) if x != ctx.zero)
        scale = ctx.mul(w[pivot], ctx.inv(gen[pivot]))
        assert scale != ctx.zero
        assert w == [ctx.mul(scale, x) for x in gen]


# sha256 of the JSON list of (kernel sample, solution, operator calls) that
# lift_records draws; recorded when the solver, on a zero constant term,
# went on to a kernel sample of the augmented operator (the drivers run in
# the operator's own field and the solver takes a column permutation), so
# any change to the drivers' random draws or to the attempts' apply counts
# shows up here.
LIFT_DIGESTS = {
    2: "9f9ca19d2824585cbb4bc04deb607543cbde3e5a381af0bdd0f56933c1a0e2d3",
    3: "d3b2409c6d8b556e50cc07a8e945e4ae6381d8afa8a7fe1c714480db6decc8e5",
    5: "e5e51e562b625d5d9dfeca5fe546d198ba9bf558b17e6376f7f8e170eca422d5",
    7: "8f8344732f571a4b11d60cd8bc56dfddcf7e44e6b648c4c86a35e063cde919a8",
    11: "7b72ffcdf4496082696d06de3d62bf45b8f9b9e8c4290ebb9b18862c97cca55d",
    13: "06c1276d3d65f778194688214ceade715f3151a24358a55f986b20caab3a2885",
}


def lift_records(p):
    """32 square operators over F_p, every other one singular (a repeated
    row), each run through both drivers at a fixed seed: (a, b, kernel
    sample, solution, operator calls).  These are the operators on which
    the drivers once ran lifted to a larger field."""
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
        out.append((a, b, k, x, op.calls))
    return out


@pytest.mark.parametrize("p", sorted(LIFT_DIGESTS))
def test_small_prime_lift_pinned(p):
    ctx = ff.field_make(p)
    records = lift_records(p)
    assert any(k is not None for _, _, k, _, _ in records)
    assert any(x is not None for _, _, _, x, _ in records)
    for a, b, k, x, _ in records:
        assert k is None or any(k) and \
            gauss.matvec(ctx, a, k) == [0] * len(a)
        assert x is None or gauss.matvec(ctx, a, x) == b
    pinned = [[k, x, calls] for _, _, k, x, calls in records]
    digest = hashlib.sha256(json.dumps(pinned).encode()).hexdigest()
    assert digest == LIFT_DIGESTS[p]


@pytest.mark.parametrize("matrix", [[[1, 2], [3]], [[1], [2, 3]], []],
                         ids=["short-row", "long-row", "empty"])
def test_operator_from_matrix_needs_a_rectangular_matrix(matrix):
    with pytest.raises(DimMismatch):
        blackbox.operator_from_matrix(K13, matrix)


def _per_cell_rank(ctx, m):
    """Rank by the per-cell elimination through FieldCtx calls, kept apart
    from the packed gauss.first_dependency that _minimal_polynomial runs."""
    m = [list(row) for row in m]
    rank = 0
    for c in range(len(m[0]) if m else 0):
        pivot = next((i for i in range(rank, len(m))
                      if m[i][c] != ctx.zero), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = ctx.inv(m[rank][c])
        for i in range(rank + 1, len(m)):
            if m[i][c] != ctx.zero:
                m[i] = ctx.sub_scaled(m[i], ctx.mul(m[i][c], inv), m[rank])
        rank += 1
    return rank


# small and large prime fields and an extension field
MINPOLY_FIELDS = [(2, 1), (13, 1), (257, 1), (12289, 1), (7, 3)]


@pytest.mark.parametrize("p, d", MINPOLY_FIELDS,
                         ids=["F2", "F13", "F257", "F12289", "F343"])
def test_minimal_polynomial_is_exact(p, d):
    """On random singular and nonsingular operators, scalar and zero ones,
    and v = 0: the result is monic, kills v through dense products, and
    its degree is the rank of the n + 1 Krylov vectors, so it is v's
    minimal polynomial; it costs exactly deg(mp) applies, and krylov ends
    at B^deg(mp) v.  Each driver stays within its per-attempt bound:
    2n + 2 calls for a solve (b's Krylov vectors, the augmented kernel
    sample and the check), n + 1 for a kernel sample."""
    ctx = ff.field_make(p, d)
    rng = random.Random("minpoly/%d/%d" % (p, d))
    for trial in range(24):
        n = rng.randrange(1, 9)
        kind = trial % 6
        if kind == 4:
            a = [[ctx.zero] * n for _ in range(n)]
        elif kind == 5:
            c = ctx.rand(rng)
            a = [[c if i == j else ctx.zero for j in range(n)]
                 for i in range(n)]
        else:
            a = rand_matrix(ctx, rng, n, n)
            if kind % 2 and n > 1:
                a[-1] = list(a[rng.randrange(n - 1)])
        op = blackbox.operator_from_matrix(ctx, a)
        v = [ctx.zero] * n if trial == 3 else \
            [ctx.rand(rng) for _ in range(n)]
        krylov = [v]
        mp = blackbox._minimal_polynomial(ctx, op.apply, krylov, n)
        assert op.calls == len(mp) - 1
        assert mp[-1] == ctx.one
        vecs = [v]
        while len(vecs) <= n:
            vecs.append(gauss.matvec(ctx, a, vecs[-1]))
        assert krylov == vecs[:len(mp)]
        acc = [ctx.zero] * n
        for c, x in zip(mp, vecs):
            acc = [ctx.add(s, ctx.mul(c, y)) for s, y in zip(acc, x)]
        assert acc == [ctx.zero] * n
        assert len(mp) - 1 == _per_cell_rank(ctx, vecs)

        b = [ctx.rand(rng) for _ in range(n)]
        op.calls = 0
        blackbox.wiedemann_solve(op, b, seed=trial, max_attempts=1)
        assert op.calls <= 2 * n + 2
        op.calls = 0
        blackbox.wiedemann_kernel_sample(op, seed=trial, max_attempts=1)
        assert op.calls <= n + 1
