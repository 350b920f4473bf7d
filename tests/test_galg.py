import random

import pytest
from hypothesis import example, given, settings, strategies as st

from equicode import ff, galg
from equicode.code import (cyclic_cover_code, rs_degenerate_code,
                           synth_split_code)
from equicode.decode import (make_cyclic_decoder_data, make_rs_decoder_data,
                             make_split_decoder_data)
from equicode.errors import (
    BadRootOrder,
    CompositeP,
    DegreeMismatch,
    InvariantViolation,
    Mismatch,
    OrderDividesCharacteristic,
)
from equicode.galg import (
    AbelianGroup,
    FourierImage,
    GroupAlgebraElement,
    ft_cyclic,
    ft_group,
    ft_inverse,
    ga_add,
    ga_from_ints,
    ga_involution,
    ga_mul_fast,
    ga_mul_naive,
    ga_one,
    ga_rand,
    ga_scale,
    ga_sigma,
    ga_sub,
    ga_zero,
)
from equicode.kgmat import KGMatrix


def dft_oracle(ctx, n, omega, values):
    """Straight O(n^2) DFT: out_j = sum_i omega^(ij) v_i."""
    out = []
    for j in range(n):
        acc = ctx.zero
        for i, v in enumerate(values):
            acc = ctx.add(acc, ctx.mul(ctx.pow_(omega, i * j), v))
        out.append(acc)
    return out


def character_sum_oracle(a, omega):
    """values[chi] = sum_sigma a_sigma chi(sigma), chi in dual mixed radix."""
    G = a.group
    ctx = a.field
    e = G.exponent
    vals = []
    for chi in range(G.order):
        k = G.coords_of(chi)
        acc = ctx.zero
        for s in range(G.order):
            c = G.coords_of(s)
            expo = sum(ki * ci * (e // oi)
                       for ki, ci, oi in zip(k, c, G.factors))
            acc = ctx.add(acc, ctx.mul(ctx.pow_(omega, expo), a.coeffs[s]))
        vals.append(acc)
    return tuple(vals)


# ----------------------------------------------------------------- groups


def test_group_basic():
    G = AbelianGroup([2, 6])
    assert G.order == 12
    assert G.exponent == 6
    for idx in range(12):
        assert G.index_of(G.coords_of(idx)) == idx
        inv = G.inverse_index(idx)
        assert G.compose(idx, inv) == 0
    assert G.compose(G.index_of((1, 3)), G.index_of((1, 4))) == G.index_of((0, 1))


@pytest.mark.parametrize("factors", [[], [5], [2, 6], [2, 2, 4]])
def test_group_quotients(factors):
    G = AbelianGroup(factors)
    for s in range(G.order):
        assert G.quotients(s) == [G.compose(g, G.inverse_index(s))
                                  for g in range(G.order)]


def test_trivial_group():
    G = AbelianGroup([])
    assert G.order == 1
    assert G.exponent == 1
    assert G.coords_of(0) == ()
    assert G.inverse_index(0) == 0


def test_group_validation():
    with pytest.raises(InvariantViolation):
        AbelianGroup([1])
    with pytest.raises(InvariantViolation):
        AbelianGroup([2, 3])
    with pytest.raises(InvariantViolation):
        AbelianGroup([4, 2])
    AbelianGroup([2, 2])
    AbelianGroup([3, 9])


NON_INT_PARAMETERS = {
    "p-float": (lambda: ff.field_make(13.0), CompositeP),
    "p-str": (lambda: ff.field_make("13"), CompositeP),
    "d-float": (lambda: ff.field_make(3, 2.0), DegreeMismatch),
    "d-str": (lambda: ff.field_make(3, "2"), DegreeMismatch),
    "factor-float": (lambda: AbelianGroup([2.5]), InvariantViolation),
    "factor-str": (lambda: AbelianGroup(["3"]), InvariantViolation),
    "coeff-float": (lambda: ga_from_ints(AbelianGroup([2]), ff.field_make(13),
                                         [1.5, 2]), InvariantViolation),
    "coeff-str": (lambda: ga_from_ints(AbelianGroup([2]), ff.field_make(13),
                                       ["1", 2]), InvariantViolation),
    "scale-float": (lambda: ga_scale(ga_one(AbelianGroup([2]),
                                            ff.field_make(13)), 1.5),
                    InvariantViolation),
    "scale-str": (lambda: ga_scale(ga_one(AbelianGroup([2]),
                                          ff.field_make(3, 2)), "12"),
                  InvariantViolation),
    "elem-float": (lambda: ff.elem(ff.field_make(13), 1.5),
                   InvariantViolation),
    "elem-str": (lambda: ff.elem(ff.field_make(3, 2), "12"),
                 InvariantViolation),
    "sigma-float": (lambda: ga_sigma(AbelianGroup([2]), ff.field_make(13),
                                     2.0), InvariantViolation),
    "sigma-too-large": (lambda: ga_sigma(AbelianGroup([4]),
                                         ff.field_make(13), 5),
                        InvariantViolation),
    "sigma-negative": (lambda: ga_sigma(AbelianGroup([4]),
                                        ff.field_make(13), -1),
                       InvariantViolation),
    "cover-order-float": (lambda: cyclic_cover_code(12289, 1, 32.7, 8, 2),
                          InvariantViolation),
    "rs-n-float": (lambda: rs_degenerate_code(13, 12.0, 5),
                   InvariantViolation),
    "rs-deg-float": (lambda: rs_degenerate_code(13, 12, 5.0),
                     InvariantViolation),
    "cover-n-float": (lambda: cyclic_cover_code(12289, 1, 32, 8.0, 2),
                      InvariantViolation),
    "cover-k-float": (lambda: cyclic_cover_code(12289, 1, 32, 8, 2.0),
                      InvariantViolation),
    "split-n-float": (lambda: synth_split_code(13, 1, AbelianGroup([2]), 4.0,
                                               2), InvariantViolation),
    "split-k-float": (lambda: synth_split_code(13, 1, AbelianGroup([2]), 4,
                                               2.0), InvariantViolation),
    "rs-decoder-float": (lambda: make_rs_decoder_data(
        rs_degenerate_code(13, 12, 5), 2.0), InvariantViolation),
    "cyclic-decoder-float": (lambda: make_cyclic_decoder_data(
        cyclic_cover_code(13, 1, 4, 3, 1), 2.0), InvariantViolation),
    "split-decoder-float": (lambda: make_split_decoder_data(
        synth_split_code(5, 1, AbelianGroup([2, 2]), 6, 1), 1.0),
                            InvariantViolation),
    "kg-matrix-rows-float": (lambda: KGMatrix(
        AbelianGroup([]), ff.field_make(13), 1.0, 1, (1,)),
                             InvariantViolation),
}


@pytest.mark.parametrize("case", list(NON_INT_PARAMETERS))
def test_constructors_refuse_non_int_parameters(case):
    build, error = NON_INT_PARAMETERS[case]
    with pytest.raises(error):
        build()


# ----------------------------------------------------- coefficient algebra


def test_ga_add_sub_examples():
    K = ff.field_make(3)
    G = AbelianGroup([2])
    a = ga_from_ints(G, K, [1, 2])
    b = ga_from_ints(G, K, [2, 2])
    assert ga_add(a, b) == ga_from_ints(G, K, [0, 1])
    assert ga_sub(a, a) == ga_zero(G, K)
    assert (a + b) == ga_add(a, b)
    assert (a - b) == ga_sub(a, b)


def test_ga_scale():
    K = ff.field_make(5)
    G = AbelianGroup([4])
    a = ga_from_ints(G, K, [1, 2, 3, 4])
    assert ga_scale(a, 2) == ga_from_ints(G, K, [2, 4, 6 % 5, 8 % 5])
    assert ga_scale(a, ff.elem(K, 0)) == ga_zero(G, K)
    # a raw value of F_9 scales like the FieldElement wrapping it
    K9 = ff.field_make(3, 2)
    b = ga_from_ints(G, K9, [1, 2, 0, 1])
    assert ga_scale(b, (0, 1)) == ga_scale(b, ff.elem(K9, [0, 1])) == \
        GroupAlgebraElement(G, K9, ((0, 1), (0, 2), (0, 0), (0, 1)))


def test_ga_mismatch():
    K = ff.field_make(3)
    G = AbelianGroup([2])
    H = AbelianGroup([4])
    with pytest.raises(Mismatch):
        ga_add(ga_zero(G, K), ga_zero(H, K))
    with pytest.raises(Mismatch):
        ga_add(ga_zero(G, K), ga_zero(G, ff.field_make(5)))


def test_ga_mul_naive_examples():
    K = ff.field_make(3)
    G = AbelianGroup([4])
    a = ga_from_ints(G, K, [1, 2, 2, 2])
    sigma = ga_sigma(G, K, 1)
    assert ga_mul_naive(a, sigma) == ga_from_ints(G, K, [2, 1, 2, 2])
    assert ga_mul_naive(a, ga_one(G, K)) == a
    # trivial group reduces to field multiplication
    T = AbelianGroup([])
    x = ga_from_ints(T, K, [2])
    y = ga_from_ints(T, K, [2])
    assert ga_mul_naive(x, y) == ga_from_ints(T, K, [1])


def test_ga_mul_naive_commutative_associative():
    rng = random.Random(3)
    K = ff.field_make(5)
    for factors in ([4], [2, 2], [2, 6]):
        G = AbelianGroup(factors)
        for _ in range(100):
            a = ga_rand(G, K, rng)
            b = ga_rand(G, K, rng)
            c = ga_rand(G, K, rng)
            assert ga_mul_naive(a, b) == ga_mul_naive(b, a)
            lhs = ga_mul_naive(ga_mul_naive(a, b), c)
            rhs = ga_mul_naive(a, ga_mul_naive(b, c))
            assert lhs == rhs


def test_involution():
    K = ff.field_make(3)
    G = AbelianGroup([4])
    sigma = ga_sigma(G, K, 1)
    assert ga_involution(sigma) == ga_sigma(G, K, 3)
    assert ga_involution(ga_one(G, K)) == ga_one(G, K)
    rng = random.Random(5)
    H = AbelianGroup([2, 6])
    for _ in range(100):
        a = ga_rand(H, K, rng)
        b = ga_rand(H, K, rng)
        assert ga_involution(ga_involution(a)) == a
        # ring involution
        assert (ga_involution(ga_mul_naive(a, b))
                == ga_mul_naive(ga_involution(a), ga_involution(b)))


# -------------------------------------------------------- cyclic transform


def test_ft_cyclic_frozen_example():
    K = ff.field_make(5)
    assert ft_cyclic(K, [1, 1, 0, 0], 2) == [2, 3, 0, 4]


def test_ft_cyclic_delta_and_ones():
    K = ff.field_make(13)
    w = ff.root_of_unity(K, 12)
    out = ft_cyclic(K, [1] + [0] * 11, w)
    assert out == [1] * 12
    out = ft_cyclic(K, [1] * 12, w)
    assert out == [12] + [0] * 11


@pytest.mark.parametrize("p,d,n", [
    (5, 1, 4),       # power of two
    (12289, 1, 32),  # power of two, 5-byte slots
    (17, 1, 8),      # power of two, 2-byte slots
    (5, 1, 2),       # the shortest transform
    (13, 1, 6),      # small
    (13, 1, 12),     # small and composite
    (769, 1, 48),    # 3-byte slots
    (67, 1, 33),     # 2-byte slots
    (7, 2, 48),      # an extension field
    (3, 2, 8),       # an extension field and a power of two
    (3, 4, 16),      # the same over F_81
])
def test_ft_cyclic_vs_direct(p, d, n):
    K = ff.field_make(p, d)
    w = ff.root_of_unity(K, n)
    rng = random.Random(n * 1000 + p)
    for _ in range(4):
        values = [K.rand(rng) for _ in range(n)]
        assert ft_cyclic(K, values, w) == dft_oracle(K, n, w, values)


@pytest.mark.parametrize("p,d,n,kind", [
    (13, 1, 6, "bluestein"),
    (13, 1, 12, "bluestein"),
    (3, 2, 8, "bluestein"),   # extension fields take the same chirp
    (3, 4, 16, "bluestein"),
    (13, 1, 1, "identity"),
])
def test_cyclic_plan_kind(p, d, n, kind):
    """Length 1 is the identity and builds no plan; every longer length
    caches Bluestein's chirp, a convolution in K[Z/(3n - 2)] weighted by
    beta_i^-1 = omega^(-i(i-1)/2)."""
    K = ff.field_make(p, d)
    w = ff.root_of_unity(K, n)
    rng = random.Random(n * 1000 + p)
    values = [K.rand(rng) for _ in range(n)]
    galg._PLAN_CACHE.clear()
    out = ft_cyclic(K, values, w)
    if kind == "identity":
        assert out == values and not galg._PLAN_CACHE
        return
    beta_inv, group, _, _ = galg._PLAN_CACHE[(K, n, w)]
    assert group == AbelianGroup([3 * n - 2])
    assert [K.mul(b, K.pow_(w, i * (i - 1) // 2))
            for i, b in enumerate(beta_inv)] == [K.one] * n
    assert out == dft_oracle(K, n, w, values)


def test_ft_cyclic_bad_root():
    K = ff.field_make(13)
    # 3 has order 3, not 4
    with pytest.raises(BadRootOrder):
        ft_cyclic(K, [1, 2, 3, 4], 3)
    # 12 = -1 has order 2, not 4
    with pytest.raises(BadRootOrder):
        ft_cyclic(K, [1, 2, 3, 4], 12)
    with pytest.raises(BadRootOrder):
        ft_cyclic(K, [7], 2)
    assert ft_cyclic(K, [7], 1) == [7]


# --------------------------------------------------------- group transform


def test_ft_group_frozen_example():
    K = ff.field_make(5)
    G = AbelianGroup([2, 2])
    a = ga_from_ints(G, K, [1, 2, 0, 0])
    img = ft_group(a, 4)
    assert img.values == (3, 4, 3, 4)


def test_ft_group_identity_and_trivial():
    K = ff.field_make(13)
    G = AbelianGroup([2, 6])
    img = ft_group(ga_one(G, K), ff.root_of_unity(K, 6))
    assert img.values == (1,) * 12
    T = AbelianGroup([])
    a = ga_from_ints(T, K, [7])
    assert ft_group(a, 1).values == (7,)


GROUP_FIELD_CASES = []
for factors in ([4], [2, 2], [2, 6], [3, 9]):
    for p, d in ((5, 1), (13, 1), (257, 1), (3, 2), (19, 1)):
        q = p**d
        e = factors[-1]
        order = 1
        for o in factors:
            order *= o
        if (q - 1) % e == 0 and order % p != 0:
            GROUP_FIELD_CASES.append((factors, p, d))


@pytest.mark.parametrize("factors,p,d", GROUP_FIELD_CASES)
def test_ft_group_vs_character_sums_and_inverse(factors, p, d):
    K = ff.field_make(p, d)
    G = AbelianGroup(factors)
    w = ff.root_of_unity(K, G.exponent)
    rng = random.Random(hash((tuple(factors), p, d)) & 0xFFFF)
    for _ in range(100):
        a = ga_rand(G, K, rng)
        img = ft_group(a, w)
        assert img.values == character_sum_oracle(a, w)
        assert ft_inverse(img) == a


@pytest.mark.parametrize("factors,p,d", GROUP_FIELD_CASES)
def test_convolution_theorem(factors, p, d):
    K = ff.field_make(p, d)
    G = AbelianGroup(factors)
    w = ff.root_of_unity(K, G.exponent)
    rng = random.Random(hash((tuple(factors), p, d, 1)) & 0xFFFF)
    for _ in range(20):
        a = ga_rand(G, K, rng)
        b = ga_rand(G, K, rng)
        fa = ft_group(a, w)
        fb = ft_group(b, w)
        fc = ft_group(ga_mul_naive(a, b), w)
        assert fc.values == tuple(K.mul(x, y)
                                  for x, y in zip(fa.values, fb.values))


def test_ft_group_bad_root():
    # (p, d, invariant factors, order of the wrong root); the plan of the
    # last axis, whose root is omega itself, rejects it
    cases = [
        (13, 1, [2, 6], 2),    # two axes: -1 has order 2
        (13, 1, [6], 3),
        (17, 1, [8], 4),       # a prime-field power of two
        (3, 2, [8], 4),        # an extension field
        (97, 1, [48], 24),     # 3-byte slots
        (12289, 1, [96], 48),  # 5-byte slots
    ]
    for p, d, factors, order in cases:
        K = ff.field_make(p, d)
        G = AbelianGroup(factors)
        # build the good root's plans first; the bad root must not reuse them
        ft_group(ga_one(G, K), ff.root_of_unity(K, G.exponent))
        with pytest.raises(BadRootOrder):
            ft_group(ga_one(G, K), ff.root_of_unity(K, order))


# (p, d, invariant factors) -> count_field_ops() of one ft_group and of
# one ft_inverse.  Over F_p an axis of order o costs (|G| / o) (8 o - 4):
# per strand, 2 o weightings and the packed product's nominal 2 (3 o - 2);
# its root omega^(e / o) costs pow_'s popcount(e / o) + bit length of e / o
# multiplications.  ft_inverse adds one inversion and |G| scalings.  Over
# F_9 a strand costs 2 o + 2 * 3 (3 o - 2).
FT_OP_COUNTS = {
    (12289, 1, (32,)): (254, 287),   # (8 * 32 - 4) + 2
    (13, 1, (2, 6)): (166, 179),     # 6 * 12 + 2 * 44 + (4 + 2)
    (3, 2, (8,)): (150, 159),        # 16 + 6 * 22 + 2
}


@pytest.mark.parametrize("p,d,factors", list(FT_OP_COUNTS))
def test_ft_op_counts(p, d, factors):
    """Pinned counts, the same whether the plans are cold or warm: the
    root check and plan building are set-up and stay off the count."""
    K, G = ff.field_make(p, d), AbelianGroup(factors)
    a = ga_rand(G, K, random.Random(7))
    img = ft_group(a, ff.root_of_unity(K, G.exponent))
    counts = []
    for call in (lambda: ft_group(a, img.omega), lambda: ft_inverse(img)):
        galg._PLAN_CACHE.clear()
        for _ in range(2):  # a cold plan, then a warm one
            with ff.count_field_ops() as ops:
                call()
            counts.append(ops.count)
    forward, inverse = FT_OP_COUNTS[(p, d, factors)]
    assert counts == [forward, forward, inverse, inverse]


def test_fourier_image_checks_its_contents():
    """An image holds |G| raw values of its field and a raw root, so
    neither ft_inverse nor ft_group works on a short, long or out-of-range
    image."""
    K, G = ff.field_make(13), AbelianGroup([4])
    w = ff.root_of_unity(K, 4)
    for values in ((1, 2, 3, 4, 5), (1, 2, 3)):
        with pytest.raises(Mismatch):
            ft_inverse(FourierImage(G, K, w, values))
    for values in ((1, 2, 3, 14), (1.5, 2, 3, 4)):
        with pytest.raises(InvariantViolation):
            ft_inverse(FourierImage(G, K, w, values))
    a = ga_from_ints(G, K, [1, 2, 3, 4])
    for omega in (None, w + 13):  # w + 13 has order 4 mod 13
        with pytest.raises(InvariantViolation):
            ft_group(a, omega)
    assert ft_group(a, w).omega == w


def test_ft_inverse_characteristic_clash():
    K = ff.field_make(2, 4, modulus=[1, 1, 0, 0, 1])
    G = AbelianGroup([2])
    # e = 2 does not divide q-1 = 15 anyway, so build the image by hand
    img = FourierImage(G, K, K.one, (K.one, K.one))
    with pytest.raises(OrderDividesCharacteristic):
        ft_inverse(img)


# ------------------------------------------------------------ fast product

# (p, d, invariant factors): prime and extension fields, p | |G| or not,
# split or not, one to three axes, and the trivial group; f13-z2xz6,
# f7-z2xz2xz4, f25-z8 and f81-z80 need 2-byte slots, the rest 1 byte
MUL_CASES = {
    "f3-z4": (3, 1, [4]),
    "f5-z4": (5, 1, [4]),
    "f2-z2xz6": (2, 1, [2, 6]),
    "f13-z2xz6": (13, 1, [2, 6]),
    "f7-z2xz2xz4": (7, 1, [2, 2, 4]),
    "f3-z3xz9": (3, 1, [3, 9]),
    "f5-z12": (5, 1, [12]),
    "f9-z3": (3, 2, [3]),
    "f9-z4": (3, 2, [4]),
    "f25-z8": (5, 2, [8]),
    "f81-z80": (3, 4, [80]),
    "f13-trivial": (13, 1, []),
}


@pytest.mark.parametrize("case", list(MUL_CASES))
@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2 ** 32), top=st.booleans())
@example(seed=0, top=True)
def test_ga_mul_fast_matches_naive(case, seed, top):
    """top: every coefficient, and every coordinate when d > 1, is p - 1,
    so every slot of the packed product is as large as it can get."""
    p, d, factors = MUL_CASES[case]
    K, G = ff.field_make(p, d), AbelianGroup(factors)
    if top:
        full = GroupAlgebraElement(
            G, K, (p - 1 if d == 1 else (p - 1,) * d,) * G.order)
        a = b = full
    else:
        rng = random.Random(seed)
        a, b = ga_rand(G, K, rng), ga_rand(G, K, rng)
    assert ga_mul_fast(a, b) == ga_mul_naive(a, b)
    assert ga_mul_fast(a, ga_one(G, K)) == a


def test_ga_mul_fast_lifted_path():
    # F_3[Z/4]: no 4th root of unity in F_3, so no transform over K exists
    rng = random.Random(29)
    K = ff.field_make(3)
    G = AbelianGroup([4])
    for _ in range(100):
        a = ga_rand(G, K, rng)
        b = ga_rand(G, K, rng)
        assert ga_mul_fast(a, b) == ga_mul_naive(a, b)


def test_ga_mul_fast_extension_path():
    rng = random.Random(31)
    K = ff.field_make(3, 2)
    G = AbelianGroup([3])  # p divides the group order
    for _ in range(100):
        a = ga_rand(G, K, rng)
        b = ga_rand(G, K, rng)
        assert ga_mul_fast(a, b) == ga_mul_naive(a, b)


def test_fast_mul_operation_count_trend():
    # one data point of criterion 5's check: ops stay below 40 o log2(o)
    K = ff.field_make(257)
    G = AbelianGroup([64])
    rng = random.Random(47)
    a = ga_rand(G, K, rng)
    b = ga_rand(G, K, rng)
    ga_mul_fast(a, b)  # warm the layout cache
    with ff.count_field_ops() as ops:
        ga_mul_fast(a, b)
    assert 0 < ops.count <= 40 * 64 * 6
