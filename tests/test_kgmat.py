import random

import pytest
from hypothesis import example, given, settings, strategies as st

from equicode import ff, gauss, kgmat
from equicode.code import (
    EquivariantCode,
    cyclic_cover_code,
    genus2_example_code,
    synth_split_code,
    validate,
)
from equicode.decode import make_split_decoder_data
from equicode.errors import (
    DimMismatch,
    InvariantViolation,
    Mismatch,
    NotFree,
    NotSplit,
    NotSystematizable,
    RankDeficient,
)
from equicode.galg import (
    AbelianGroup,
    GroupAlgebraElement,
    ga_add,
    ga_from_ints,
    ga_involution,
    ga_mul_naive,
    ga_one,
    ga_rand,
    ga_sigma,
    ga_zero,
)

K3 = ff.field_make(3)
K5 = ff.field_make(5)
Z2 = AbelianGroup([2])
Z4 = AbelianGroup([4])
Z2Z2 = AbelianGroup([2, 2])


def kg_rand(group, ctx, rng, rows, cols):
    return kgmat.KGMatrix(group, ctx, rows, cols,
                          tuple(ga_rand(group, ctx, rng)
                                for _ in range(rows * cols)))


# The 3x1 evaluation column that the code-construction tests build on; its
# entries are units / near-units of F_3[Z/4] and the top entry is 1.
def eval_column_f3z4():
    return kgmat.kg_from_rows([
        [ga_from_ints(Z4, K3, (1, 0, 0, 0))],
        [ga_from_ints(Z4, K3, (1, 2, 2, 2))],
        [ga_from_ints(Z4, K3, (2, 2, 2, 1))],
    ])


def test_kgmatrix_invariants():
    one = ga_one(Z4, K5)
    with pytest.raises(InvariantViolation):
        kgmat.KGMatrix(Z4, K5, 2, 2, (one, one, one))
    with pytest.raises(Mismatch):
        kgmat.KGMatrix(Z4, K5, 1, 2, (one, ga_one(Z2, K5)))
    m = kgmat.kg_identity(Z4, K5, 2)
    assert m.entry(0, 0) == one and m.entry(0, 1).is_zero()
    assert m.row(0) == [one, ga_zero(Z4, K5)]
    assert m.col(1) == [ga_zero(Z4, K5), one]


def test_expand_identity_and_shift():
    em = kgmat.expand(kgmat.kg_identity(Z4, K5, 1))
    assert [list(r) for r in em.matrix] == gauss.identity(K5, 4)
    # multiplication by sigma permutes the group basis cyclically
    em = kgmat.expand(kgmat.kg_from_rows([[ga_sigma(Z4, K5, 1)]]))
    perm = [list(r) for r in em.matrix]
    for g in range(4):
        for h in range(4):
            assert perm[g][h] == (1 if g == (h + 1) % 4 else 0)
    assert em.rows == 4 and em.cols == 4


def test_expand_action_and_multiplicativity():
    rng = random.Random(11)
    for group in (Z4, Z2Z2):
        for _ in range(25):
            a = ga_rand(group, K5, rng)
            b = ga_rand(group, K5, rng)
            em = kgmat.expand(kgmat.kg_from_rows([[a]]))
            lhs = gauss.matvec(K5, em.matrix, list(b.coeffs))
            assert tuple(lhs) == ga_mul_naive(a, b).coeffs
    for _ in range(5):
        a = kg_rand(Z4, K5, rng, 2, 2)
        b = kg_rand(Z4, K5, rng, 2, 2)
        lhs = kgmat.expand(kgmat.kg_matmul(a, b)).matrix
        rhs = gauss.matmul(K5, [list(r) for r in kgmat.expand(a).matrix],
                           [list(r) for r in kgmat.expand(b).matrix])
        assert [list(r) for r in lhs] == rhs


def test_expand_involution_transpose_law():
    rng = random.Random(12)
    for group in (Z4, Z2Z2, AbelianGroup([2, 4])):
        for _ in range(35):
            a = ga_rand(group, K5, rng)
            em = kgmat.expand(kgmat.kg_from_rows([[ga_involution(a)]]))
            et = gauss.transpose(
                [list(r) for r in
                 kgmat.expand(kgmat.kg_from_rows([[a]])).matrix])
            assert [list(r) for r in em.matrix] == et


def test_kg_matmul_identities():
    rng = random.Random(13)
    a = kg_rand(Z4, K5, rng, 2, 3)
    assert kgmat.kg_matmul(a, kgmat.kg_identity(Z4, K5, 3)) == a
    assert kgmat.kg_matmul(kgmat.kg_identity(Z4, K5, 2), a) == a
    z = kgmat.kg_matmul(a, kgmat.kg_zero(Z4, K5, 3, 2))
    assert z == kgmat.kg_zero(Z4, K5, 2, 2)
    with pytest.raises(DimMismatch):
        kgmat.kg_matmul(a, kg_rand(Z4, K5, rng, 2, 2))
    vec = [ga_rand(Z4, K5, rng) for _ in range(3)]
    out = kgmat.kg_apply(a, vec)
    expected = kgmat.kg_matmul(a, kgmat.KGMatrix(Z4, K5, 3, 1, tuple(vec)))
    assert out == expected.col(0)
    with pytest.raises(DimMismatch):
        kgmat.kg_apply(a, vec[:2])


def kg_apply_reference(a, vec):
    """Entry by entry through the convolution's definition."""
    out = []
    for i in range(a.rows):
        acc = ga_zero(a.group, a.field)
        for j in range(a.cols):
            acc = ga_add(acc, ga_mul_naive(a.entry(i, j), vec[j]))
        out.append(acc)
    return out


# (p, d, invariant factors): every kg_apply path
APPLY_CASES = {
    "split-cyclic": (13, 1, [4]),
    "split-multiaxis": (13, 1, [2, 6]),
    "split-extension-f9": (3, 2, [8]),
    "split-extension-f81": (3, 4, [16]),
    "lifted-prime": (3, 1, [8]),
    "lifted-extension": (3, 2, [16]),
    "trivial-group": (13, 1, []),
}


@pytest.mark.parametrize("case", list(APPLY_CASES))
@settings(max_examples=30, deadline=None)
@given(rows=st.integers(0, 3), cols=st.integers(0, 3),
       seed=st.integers(0, 2 ** 32))
@example(rows=2, cols=0, seed=0)  # the check matrix of an n == k code
def test_kg_apply_matches_entrywise_reference(case, rows, cols, seed):
    p, d, factors = APPLY_CASES[case]
    ctx, G = ff.field_make(p, d), AbelianGroup(factors)
    rng = random.Random(seed)
    a = kg_rand(G, ctx, rng, rows, cols)
    copy = kgmat.KGMatrix(G, ctx, rows, cols, a.entries)
    before = hash(a)
    early = kgmat.kg_transpose(a)  # split: a's spectrum is computed here
    for _ in range(2):  # the second apply reuses the cached spectra
        vec = [ga_rand(G, ctx, rng) for _ in range(cols)]
        assert kgmat.kg_apply(a, vec) == kg_apply_reference(a, vec)
    assert a == copy and hash(a) == before == hash(copy)
    late = kgmat.kg_transpose(a)  # shares a's cached spectrum
    assert len(late._spectra) == len(a._spectra) <= 1
    for t in (early, late, kgmat.kg_transpose(late)):
        vec = [ga_rand(G, ctx, rng) for _ in range(t.cols)]
        assert kgmat.kg_apply(t, vec) == kg_apply_reference(t, vec)
    for spec in a._spectra:
        rebuilt = kgmat.kg_from_spectrum(G, ctx, spec, rows, cols)
        assert rebuilt == a
        vec = [ga_rand(G, ctx, rng) for _ in range(cols)]
        assert kgmat.kg_apply(rebuilt, vec) == kg_apply_reference(a, vec)


def test_transpose_is_built_once():
    """kg_transpose keeps its result on the matrix, so repeated checks
    pack C^t once; a Fourier image computed on m afterwards still
    carries over."""
    rng = random.Random(22)
    a = kg_rand(Z4, K5, rng, 2, 3)
    t = kgmat.kg_transpose(a)
    assert t == kgmat.KGMatrix(Z4, K5, 3, 2, tuple(
        a.entry(i, j) for j in range(3) for i in range(2)))
    vec = [ga_rand(Z4, K5, rng) for _ in range(2)]
    assert kgmat.kg_apply(t, vec) == kg_apply_reference(t, vec)
    assert kgmat.kg_transpose(a) is t and t._packed
    spec = kgmat._spectrum(a)
    assert kgmat.kg_transpose(a)._spectra == [[list(zip(*mat))
                                               for mat in spec]]


# (p, d, invariant factors, slot width at 9 columns): every coefficient
# p - 1 makes every slot of the packed product as large as it can get
WORST_CASES = {
    "f12289-z32": (12289, 1, [32], 5),
    "f13-z2xz6": (13, 1, [2, 6], 2),
    "f81-z16": (3, 4, [16], 2),
    "f9-z2xz4": (3, 2, [2, 4], 2),
    "f3-z8": (3, 1, [8], 2),
    "f13-trivial": (13, 1, [], 2),
    "f67108859-z4": (67108859, 1, [4], 8),
    "f2^61-1-z2xz2": (2 ** 61 - 1, 1, [2, 2], 16),
}


@pytest.mark.parametrize("case", list(WORST_CASES))
def test_kg_apply_worst_case_slots(case):
    p, d, factors, width = WORST_CASES[case]
    ctx, G = ff.field_make(p, d), AbelianGroup(factors)
    top = p - 1 if d == 1 else (p - 1,) * d
    full = GroupAlgebraElement(G, ctx, (top,) * G.order)
    assert kgmat._slot_width(G, ctx, 9) == width
    for cols in (1, 9):
        a = kgmat.KGMatrix(G, ctx, 2, cols, (full,) * (2 * cols))
        vec = [full] * cols
        assert kgmat.kg_apply(a, vec) == kg_apply_reference(a, vec)


@pytest.mark.parametrize("case", list(APPLY_CASES))
@settings(max_examples=20, deadline=None)
@given(rows=st.integers(0, 3), inner=st.integers(0, 3),
       cols=st.integers(0, 3), seed=st.integers(0, 2 ** 32))
def test_kg_matmul_matches_naive_reference(case, rows, inner, cols, seed):
    p, d, factors = APPLY_CASES[case]
    ctx, G = ff.field_make(p, d), AbelianGroup(factors)
    rng = random.Random(seed)
    a = kg_rand(G, ctx, rng, rows, inner)
    b = kg_rand(G, ctx, rng, inner, cols)
    want = []
    for i in range(rows):
        for j in range(cols):
            acc = ga_zero(G, ctx)
            for t in range(inner):
                acc = ga_add(acc, ga_mul_naive(a.entry(i, t), b.entry(t, j)))
            want.append(acc)
    assert kgmat.kg_matmul(a, b) == kgmat.KGMatrix(G, ctx, rows, cols,
                                                   tuple(want))


@pytest.mark.parametrize("p, d, factors, ops", [
    (13, 1, [2, 6], 2 * 2 * 3 * 33),  # T = 3 * 11
    (3, 2, [8], 2 * 2 * 3 * 3 * 15),  # 2d - 1 = 3 blocks of T = 15
    (13, 1, [], 2 * 2 * 3),           # plain dot products
])
def test_kg_apply_nominal_op_count(p, d, factors, ops):
    """One multiplication and one addition per slot of each packed
    product: 2 rows cols (2d - 1) prod_k (2 o_k - 1)."""
    ctx, G = ff.field_make(p, d), AbelianGroup(factors)
    rng = random.Random(21)
    a = kg_rand(G, ctx, rng, 2, 3)
    vec = [ga_rand(G, ctx, rng) for _ in range(3)]
    kgmat.kg_apply(a, vec)  # packs a
    with ff.count_field_ops() as counted:
        kgmat.kg_apply(a, vec)
    assert counted.count == ops


def test_kg_apply_rejects_foreign_vector():
    rng = random.Random(16)
    for ctx, G in ((K5, Z4), (K3, Z4)):
        a = kg_rand(G, ctx, rng, 2, 1)
        with pytest.raises(Mismatch):
            kgmat.kg_apply(a, [ga_rand(Z2, ctx, rng)])
        with pytest.raises(Mismatch):
            kgmat.kg_matmul(a, kg_rand(Z2, ctx, rng, 1, 1))


def test_duality_form_z2_values():
    d = kgmat.DualityContext(Z2, K3, 1)
    f = [ga_from_ints(Z2, K3, (1, 0))]
    w10 = [ga_from_ints(Z2, K3, (1, 0))]
    w01 = [ga_from_ints(Z2, K3, (0, 1))]
    assert kgmat.duality_form(f, w10, d) == ga_one(Z2, K3)
    assert kgmat.duality_form(f, w01, d) == ga_sigma(Z2, K3, 1)
    assert kgmat.duality_form([ga_zero(Z2, K3)], w01, d).is_zero()
    with pytest.raises(DimMismatch):
        d.base_form(f, f + f)


def test_base_form_invariance_and_bilinearity():
    rng = random.Random(14)
    for group in (Z4, Z2Z2):
        d = kgmat.DualityContext(group, K5, 2)
        for _ in range(40):
            n = [ga_rand(group, K5, rng) for _ in range(2)]
            m = [ga_rand(group, K5, rng) for _ in range(2)]
            s = rng.randrange(group.order)
            assert d.base_form(d.right_act(m, s), n) == \
                d.base_form(m, d.left_act(s, n))
            # K[G]-bilinearity through the basis actions
            tau = ga_sigma(group, K5, s)
            left = kgmat.duality_form([ga_mul_naive(tau, x) for x in n], m, d)
            assert left == ga_mul_naive(tau, kgmat.duality_form(n, m, d))
            right = kgmat.duality_form(n, d.right_act(m, s), d)
            assert right == ga_mul_naive(kgmat.duality_form(n, m, d), tau)


def test_phi_g_unit_and_recovery():
    # coordinate form at (block 0, identity) lifts to the unit row
    w = kgmat.phi_G([[1, 0, 0, 0], [0, 0, 0, 0]], Z4, K5)
    assert w.rows == 1 and w.cols == 2
    assert w.entry(0, 0) == ga_one(Z4, K5)
    assert w.entry(0, 1).is_zero()
    z = kgmat.phi_G([[0] * 4, [0] * 4], Z4, K5)
    assert all(a.is_zero() for a in z.entries)
    with pytest.raises(DimMismatch):
        kgmat.phi_G([[1, 0]], Z4, K5)
    rng = random.Random(15)
    for _ in range(30):
        values = [[K5.rand(rng) for _ in range(4)] for _ in range(2)]
        w = kgmat.phi_G(values, Z4, K5)
        n = [ga_rand(Z4, K5, rng) for _ in range(2)]
        applied = kgmat.kg_apply(w, n)[0]
        # identity coefficient recovers the K-form
        expect = K5.zero
        for j in range(2):
            for t in range(4):
                expect = K5.add(expect, K5.mul(values[j][t], n[j].coeffs[t]))
        assert applied.coeffs[0] == expect


def test_equivariant_projection_standard_embedding():
    one = ga_one(Z4, K5)
    z = ga_zero(Z4, K5)
    v = kgmat.kg_from_rows([[one, z], [z, one], [z, z]])
    p = kgmat.equivariant_projection(v)
    assert p == kgmat.kg_from_rows([[one, z, z], [z, one, z]])


def test_equivariant_projection_eval_column():
    e = eval_column_f3z4()
    p = kgmat.equivariant_projection(e)
    assert p == kgmat.kg_from_rows(
        [[ga_one(Z4, K3), ga_zero(Z4, K3), ga_zero(Z4, K3)]])
    assert kgmat.kg_matmul(p, e) == kgmat.kg_identity(Z4, K3, 1)
    # V.P is an idempotent endomorphism of K[G]^3
    m = kgmat.kg_matmul(e, p)
    assert kgmat.kg_matmul(m, m) == m


def test_equivariant_projection_random_and_support_choice():
    rng = random.Random(16)
    built = 0
    while built < 10:
        v = kg_rand(Z4, K5, rng, 3, 2)
        if kgmat.expanded_rank(v) != 8:
            continue
        built += 1
        p = kgmat.equivariant_projection(v)
        assert kgmat.kg_matmul(p, v) == kgmat.kg_identity(Z4, K5, 2)
        m = kgmat.kg_matmul(v, p)
        assert kgmat.kg_matmul(m, m) == m
    # explicit support choice: full coordinate set of the first two blocks
    one = ga_one(Z4, K5)
    z = ga_zero(Z4, K5)
    v = kgmat.kg_from_rows([[one], [z], [z]])
    p = kgmat.equivariant_projection(v, support_rows=range(4))
    assert kgmat.kg_matmul(p, v) == kgmat.kg_identity(Z4, K5, 1)
    with pytest.raises(NotFree):
        kgmat.equivariant_projection(v, support_rows=range(4, 8))
    with pytest.raises(NotFree):
        kgmat.equivariant_projection(
            kgmat.kg_from_rows([[ga_from_ints(Z4, K5, (0, 1, 0, 1))]]))


def test_ga_unit_inverse():
    s = ga_sigma(Z4, K5, 1)
    inv = kgmat.ga_unit_inverse(s)
    assert inv == ga_sigma(Z4, K5, 3)
    assert kgmat.ga_unit_inverse(ga_from_ints(Z4, K5, (0, 1, 0, 1))) is None
    assert kgmat.ga_unit_inverse(ga_zero(Z4, K5)) is None
    rng = random.Random(17)
    found = 0
    while found < 15:
        a = ga_rand(Z4, K5, rng)
        inv = kgmat.ga_unit_inverse(a)
        if inv is None:
            continue
        found += 1
        assert ga_mul_naive(a, inv) == ga_one(Z4, K5)


def test_systematize_eval_column():
    e = eval_column_f3z4()
    res = kgmat.systematize(e)
    assert res.matrix == e
    assert res.row_permutation == (0, 1, 2)
    two = 2  # -1 over F_3
    assert res.check == kgmat.kg_from_rows([
        [ga_from_ints(Z4, K3, (1, 2, 2, 2)), ga_from_ints(Z4, K3, (2, 2, 2, 1))],
        [ga_from_ints(Z4, K3, (two, 0, 0, 0)), ga_zero(Z4, K3)],
        [ga_zero(Z4, K3), ga_from_ints(Z4, K3, (two, 0, 0, 0))],
    ])
    assert res.interp == kgmat.kg_from_rows(
        [[ga_one(Z4, K3), ga_zero(Z4, K3), ga_zero(Z4, K3)]])
    assert kgmat.kg_matmul(kgmat.kg_transpose(res.check), res.matrix) == \
        kgmat.kg_zero(Z4, K3, 2, 1)
    assert kgmat.kg_matmul(res.interp, res.matrix) == \
        kgmat.kg_identity(Z4, K3, 1)


def test_systematize_padded_identity():
    one = ga_one(Z4, K5)
    z = ga_zero(Z4, K5)
    e = kgmat.kg_from_rows([[one, z], [z, one], [z, z]])
    res = kgmat.systematize(e)
    assert res.matrix == e
    assert res.check == kgmat.kg_from_rows([[z], [z], [-one]])
    assert res.interp == kgmat.kg_from_rows([[one, z, z], [z, one, z]])


def test_systematize_needs_row_swap():
    one = ga_one(Z4, K5)
    bad = ga_from_ints(Z4, K5, (0, 1, 0, 1))
    e = kgmat.kg_from_rows([[bad], [ga_sigma(Z4, K5, 1)], [one]])
    res = kgmat.systematize(e)
    assert res.row_permutation[0] == 1
    assert res.matrix.entry(0, 0) == one
    assert kgmat.kg_matmul(kgmat.kg_transpose(res.check), res.matrix) == \
        kgmat.kg_zero(Z4, K5, 2, 1)


def test_systematize_random_postconditions():
    rng = random.Random(18)
    done = 0
    while done < 10:
        e = kg_rand(Z4, K5, rng, 4, 2)
        try:
            res = kgmat.systematize(e)
        except NotSystematizable:
            continue
        done += 1
        n, k = e.rows, e.cols
        assert kgmat.kg_matmul(kgmat.kg_transpose(res.check), res.matrix) == \
            kgmat.kg_zero(Z4, K5, n - k, k)
        assert kgmat.kg_matmul(res.interp, res.matrix) == \
            kgmat.kg_identity(Z4, K5, k)
        # same submodule: adjoining the systematized columns to the permuted
        # originals does not grow the expanded column span
        permuted = kgmat.kg_from_rows(
            [e.row(res.row_permutation[i]) for i in range(n)])
        joined = kgmat.kg_from_rows(
            [permuted.row(i) + res.matrix.row(i) for i in range(n)])
        assert kgmat.expanded_rank(joined) == kgmat.expanded_rank(e)


def test_systematize_rejects_non_unit_column():
    bad = ga_from_ints(Z4, K3, (0, 1, 0, 1))
    with pytest.raises(NotSystematizable):
        kgmat.systematize(kgmat.kg_from_rows([[bad]]))
    with pytest.raises(NotSystematizable):
        kgmat.systematize(kgmat.kg_from_rows(
            [[bad], [ga_from_ints(Z4, K3, (0, 2, 0, 2))]]))


def test_split_kernel_and_inverse_unit_column():
    one = ga_one(Z4, K5)
    z = ga_zero(Z4, K5)
    e = kgmat.kg_from_rows([[one], [z], [z]])
    c, i_mat = kgmat.split_kernel_and_inverse(e)
    assert kgmat.kg_matmul(kgmat.kg_transpose(c), e) == \
        kgmat.kg_zero(Z4, K5, 2, 1)
    assert kgmat.kg_matmul(i_mat, e) == kgmat.kg_identity(Z4, K5, 1)
    # kernel lives entirely in coordinates 2..n
    assert c.entry(0, 0).is_zero() and c.entry(0, 1).is_zero()
    assert kgmat.expanded_rank(c) == 8


def test_split_kernel_and_inverse_random():
    rng = random.Random(19)
    # the trivial group is split too: K[1] = K, one character, omega = 1
    for group, ctx in ((Z4, K5), (AbelianGroup([]), ff.field_make(13))):
        done = 0
        while done < 8:
            e = kg_rand(group, ctx, rng, 4, 2)
            try:
                c, i_mat = kgmat.split_kernel_and_inverse(e)
            except RankDeficient:
                continue
            done += 1
            assert kgmat.kg_matmul(kgmat.kg_transpose(c), e) == \
                kgmat.kg_zero(group, ctx, 2, 2)
            assert kgmat.kg_matmul(i_mat, e) == \
                kgmat.kg_identity(group, ctx, 2)


def test_split_kernel_and_inverse_errors():
    with pytest.raises(NotSplit):
        kgmat.split_kernel_and_inverse(
            kgmat.kg_identity(AbelianGroup([3]), K3, 1))
    k7 = ff.field_make(7)
    with pytest.raises(NotSplit):
        kgmat.split_kernel_and_inverse(kgmat.kg_identity(Z4, k7, 1))
    deficient = kgmat.kg_from_rows([[ga_from_ints(Z4, K5, (0, 1, 0, 1))],
                                    [ga_zero(Z4, K5)]])
    with pytest.raises(RankDeficient):
        kgmat.split_kernel_and_inverse(deficient)


@pytest.mark.filterwarnings("ignore::equicode.errors.DegreeWindowWarning")
@pytest.mark.parametrize("p, order", [(7, 4), (3, 3)],
                         ids=["f7-z4-no-root", "f3-z3-p-divides-order"])
def test_one_split_decision(p, order):
    """K[G] is split only when the exponent of G divides q - 1; otherwise
    every character-domain entry point raises NotSplit, and the rank comes
    from the dense expansion."""
    ctx, G = ff.field_make(p), AbelianGroup([order])
    m = kg_rand(G, ctx, random.Random(p), 3, 2)
    for call in (lambda: kgmat.split_root(G, ctx),
                 lambda: kgmat.split_kernel_and_inverse(m),
                 lambda: kgmat.kg_from_spectrum(
                     G, ctx, [[(ctx.one,)]] * order, 1, 1),
                 lambda: synth_split_code(p, 1, G, 4, 2),
                 lambda: cyclic_cover_code(p, 1, order, 1, 1),
                 # the genus-2 example lives over F_3[Z/4]
                 lambda: make_split_decoder_data(genus2_example_code(), 1)):
        with pytest.raises(NotSplit):
            call()
    dense = gauss.rank(ctx, [list(r) for r in kgmat.expand(m).matrix])
    assert kgmat.expanded_rank(m) == dense


def test_split_kernel_and_inverse_eliminates_once_per_character(
        monkeypatch):
    """C and I come from one rref of [E_chi^t | I] per character; the
    other rref per character is the rank of the stored C."""
    code = cyclic_cover_code(13, 1, 4, 3, 1)  # E is 3 x 1, C is 3 x 2
    real = gauss.rref
    widths = []

    def counting(ctx, m):
        widths.append(len(m[0]))
        return real(ctx, m)

    monkeypatch.setattr(gauss, "rref", counting)
    kgmat.split_kernel_and_inverse(code.evaluation)
    assert widths == [3 + 1] * 4 + [2] * 4


def test_split_kernel_and_inverse_checks_the_rank_of_c(monkeypatch):
    """A C whose stored entries are all zero passes C^t E = 0; the rank
    check on the stored C catches it."""
    code = cyclic_cover_code(13, 1, 4, 3, 1)  # C's 6 entries come first
    G, ctx = code.group, code.field
    real = kgmat.ft_inverse
    calls = []

    def zeroing(image):
        calls.append(image)
        return ga_zero(G, ctx) if len(calls) <= 6 else real(image)

    monkeypatch.setattr(kgmat, "ft_inverse", zeroing)
    with pytest.raises(InvariantViolation, match="full rank"):
        kgmat.split_kernel_and_inverse(code.evaluation)


def test_expanded_rank_examples():
    assert kgmat.expanded_rank(kgmat.kg_identity(Z4, K5, 3)) == 12
    assert kgmat.expanded_rank(kgmat.kg_zero(Z4, K5, 2, 3)) == 0
    assert kgmat.expanded_rank(eval_column_f3z4()) == 4


def low_rank(ctx, rng, rows, cols, r):
    """A rows x cols K-matrix of rank at most r, as a product A B."""
    a = [[ctx.rand(rng) for _ in range(r)] for _ in range(rows)]
    b_cols = [[ctx.rand(rng) for _ in range(r)] for _ in range(cols)]
    return [tuple(gauss.matvec(ctx, b_cols, row)) for row in a]


# (p, d, invariant factors): split algebras rank per character, the
# non-split ones expand densely
RANK_CASES = {
    "split-cyclic": (13, 1, [4]),
    "split-multiaxis": (13, 1, [2, 6]),
    "split-extension-f9": (3, 2, [8]),
    "split-trivial": (13, 1, []),
    "nonsplit-f3-z4": (3, 1, [4]),
    "nonsplit-f3-z8": (3, 1, [8]),
}


@pytest.mark.parametrize("case", list(RANK_CASES))
@settings(max_examples=20, deadline=None)
@given(rows=st.integers(0, 3), cols=st.integers(0, 3),
       seed=st.integers(0, 2 ** 32), deficient=st.booleans())
def test_expanded_rank_matches_dense_rank(case, rows, cols, seed, deficient):
    p, d, factors = RANK_CASES[case]
    ctx, G = ff.field_make(p, d), AbelianGroup(factors)
    rng = random.Random(seed)
    split = (ctx.q - 1) % G.exponent == 0
    spec = None
    if not deficient:
        m = kg_rand(G, ctx, rng, rows, cols)
    elif split:
        # chosen per-character ranks, most of them below full
        spec = [low_rank(ctx, rng, rows, cols,
                         rng.randrange(min(rows, cols) + 1))
                for _ in range(G.order)]
        m = kgmat.kg_from_spectrum(G, ctx, spec, rows, cols)
    else:
        # last column a multiple of the first
        m = kg_rand(G, ctx, rng, rows, cols)
        if rows and cols >= 2:
            x = ga_rand(G, ctx, rng)
            m = kgmat.kg_from_rows(
                [m.row(i)[:-1] + [ga_mul_naive(m.entry(i, 0), x)]
                 for i in range(rows)])
    dense = gauss.rank(ctx, [list(r) for r in kgmat.expand(m).matrix])
    assert kgmat.expanded_rank(m) == dense
    if spec is not None:
        assert dense == sum(gauss.rank(ctx, mat) for mat in spec)


@pytest.mark.parametrize("bad_call", [0, 6], ids=["check", "interp"])
def test_certification_transforms_the_stored_entries(monkeypatch, bad_call):
    """An inverse transform that corrupts one coefficient is caught: the
    checks read the image of the entries, not the spectrum that
    kg_from_spectrum was given."""
    code = cyclic_cover_code(13, 1, 4, 3, 1)  # C is 3 x 2, I is 1 x 3
    G, ctx = code.group, code.field
    c_spec = kgmat._spectrum(code.check)
    i_spec = kgmat._spectrum(code.interp)
    real = kgmat.ft_inverse
    calls = []

    def faulty(image):
        out = real(image)
        calls.append(out)
        if len(calls) - 1 != bad_call:
            return out
        coeffs = (ctx.add(out.coeffs[0], ctx.one),) + out.coeffs[1:]
        return GroupAlgebraElement(G, ctx, coeffs)

    monkeypatch.setattr(kgmat, "ft_inverse", faulty)
    with pytest.raises(InvariantViolation):
        kgmat.split_kernel_and_inverse(code.evaluation)
    calls.clear()
    chk = kgmat.kg_from_spectrum(G, ctx, c_spec, 3, 2)
    interp = kgmat.kg_from_spectrum(G, ctx, i_spec, 1, 3)
    assert (chk, interp) != (code.check, code.interp)
    broken = EquivariantCode(ctx, G, 3, 1, code.evaluation, chk, interp,
                             code.meta)
    with pytest.raises(InvariantViolation):
        validate(broken)
