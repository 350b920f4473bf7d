import random
import warnings

import pytest

from equicode import code as code_module, kgmat
from equicode.code import (
    EquivariantCode,
    cyclic_cover_code,
    cyclic_orbit_evaluation,
    encode,
    expanded_weight,
    genus2_example_code,
    interpolate,
    parity_check,
    rs_degenerate_code,
    synth_split_code,
    validate,
)
from equicode.errors import (
    DegreeWindow,
    DegreeWindowWarning,
    InvariantViolation,
    NotInImage,
    NotSplit,
    RankDeficient,
    TooManyPoints,
)
from equicode.ff import field_make, root_of_unity
from equicode.galg import (
    AbelianGroup,
    GroupAlgebraElement,
    ga_from_ints,
    ga_mul_naive,
    ga_rand,
    ga_sigma,
)
from equicode.kgmat import KGMatrix, expanded_rank, kg_from_rows

K3 = field_make(3)
K13 = field_make(13)
Z4 = AbelianGroup([4])


def quiet_genus2():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegreeWindowWarning)
        return genus2_example_code()


def ga3(*ints):
    return ga_from_ints(Z4, K3, list(ints))


def rand_message(code, rng):
    return [ga_rand(code.group, code.field, rng) for _ in range(code.k)]


def test_genus2_matrices_frozen():
    code = quiet_genus2()
    assert code.field is K3 or code.field == K3
    assert code.group == Z4
    assert (code.n, code.k) == (3, 1)
    assert code.evaluation.col(0) == [ga3(1, 0, 0, 0), ga3(1, 2, 2, 2),
                                      ga3(2, 2, 2, 1)]
    e12, e13 = ga3(1, 2, 2, 2), ga3(2, 2, 2, 1)
    assert [code.check.row(i) for i in range(3)] == [
        [e12, e13], [ga3(2, 0, 0, 0), ga3(0, 0, 0, 0)],
        [ga3(0, 0, 0, 0), ga3(2, 0, 0, 0)]]
    assert code.interp.row(0) == [ga3(1, 0, 0, 0), ga3(0, 0, 0, 0),
                                  ga3(0, 0, 0, 0)]
    assert code.meta == {"g_x": 2, "g_y": 5, "deg_d": 2, "deg_e": 8,
                         "deg_p": 3}
    assert expanded_rank(code.evaluation) == 4


def test_genus2_warns_about_degree_window():
    with pytest.warns(DegreeWindowWarning):
        code = genus2_example_code()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        issued = validate(code)
    assert len(issued) == 1
    assert "outside the window" in issued[0]
    assert len(caught) == 1


def test_genus2_encode_unit_message():
    code = quiet_genus2()
    c = encode(code, [ga3(1, 0, 0, 0)])
    assert c == [ga3(1, 0, 0, 0), ga3(1, 2, 2, 2), ga3(2, 2, 2, 1)]
    assert c[2] == ga3(2, 2, 2, 1)


def test_encode_zero_message():
    code = quiet_genus2()
    c = encode(code, [ga3(0, 0, 0, 0)])
    assert all(a.is_zero() for a in c)
    assert all(s.is_zero() for s in parity_check(code, c))


def test_parity_check_flags_unit_errors():
    code = quiet_genus2()
    rng = random.Random(1)
    for _ in range(20):
        c = encode(code, rand_message(code, rng))
        assert all(s.is_zero() for s in parity_check(code, c))
        i = rng.randrange(code.n)
        s = rng.randrange(code.group.order)
        coeffs = list(c[i].coeffs)
        coeffs[s] = code.field.add(coeffs[s],
                                   code.field.rand_nonzero(rng))
        bad = list(c)
        bad[i] = GroupAlgebraElement(code.group, code.field, tuple(coeffs))
        assert not all(x.is_zero() for x in parity_check(code, bad))


def test_rs_encode_matches_horner():
    code = rs_degenerate_code(13, 12, 5)
    pts = [K13.from_int(x) for x in range(1, 13)]
    rng = random.Random(2)
    for _ in range(50):
        m = rand_message(code, rng)
        poly = [a.coeffs[0] for a in m]
        c = encode(code, m)
        for i, x in enumerate(pts):
            acc = K13.zero
            for coef in reversed(poly):
                acc = K13.add(K13.mul(acc, x), coef)
            assert c[i].coeffs[0] == acc


def test_interpolate_round_trip():
    rng = random.Random(3)
    for code in (quiet_genus2(), rs_degenerate_code(13, 12, 5)):
        for _ in range(100):
            m = rand_message(code, rng)
            assert interpolate(code, encode(code, m)) == m
        z = [ga_from_ints(code.group, code.field, [0] * code.group.order)
             for _ in range(code.n)]
        assert all(a.is_zero() for a in interpolate(code, z))


def test_interpolate_rejects_corrupted_word():
    code = quiet_genus2()
    c = encode(code, [ga3(1, 2, 0, 1)])
    bad = list(c)
    bad[0] = ga3(1, 1, 0, 0) if bad[0] != ga3(1, 1, 0, 0) else ga3(2, 1, 0, 0)
    with pytest.raises(NotInImage):
        interpolate(code, bad)


def test_validate_names_broken_identity():
    code = quiet_genus2()
    coeffs = list(code.evaluation.coeffs)
    coeffs[4] = K3.add(coeffs[4], K3.one)  # coefficient 0 of entry (1, 0)
    broken = EquivariantCode(K3, Z4, 3, 1,
                             KGMatrix(Z4, K3, 3, 1, tuple(coeffs)),
                             code.check, code.interp, dict(code.meta))
    with pytest.raises(InvariantViolation) as info:
        validate(broken)
    assert "C^t E" in str(info.value)


def test_validate_accepts_identity_code():
    one, zero = ga3(1, 0, 0, 0), ga3(0, 0, 0, 0)
    ev = kg_from_rows([[one], [zero]])
    chk = kg_from_rows([[zero], [one]])
    interp = kg_from_rows([[one, zero]])
    code = EquivariantCode(K3, Z4, 2, 1, ev, chk, interp, {})
    assert validate(code) == []


def test_validate_rejects_wrong_shapes():
    code = quiet_genus2()
    with pytest.raises(InvariantViolation):
        validate(EquivariantCode(K3, Z4, 3, 1, code.evaluation,
                                 code.interp, code.interp, {}))


def test_expanded_weight_counts_nonzeros():
    assert expanded_weight([ga3(0, 0, 0, 0)]) == 0
    assert expanded_weight([ga3(1, 0, 2, 0), ga3(0, 1, 0, 0)]) == 3


def test_rs_min_distance_floor():
    code = rs_degenerate_code(13, 12, 5)
    rng = random.Random(4)
    floor = 12 - 5
    for _ in range(1000):
        while True:
            m = rand_message(code, rng)
            if not all(a.is_zero() for a in m):
                break
        assert expanded_weight(encode(code, m)) >= floor


def test_encode_is_equivariant():
    rng = random.Random(5)
    codes = [quiet_genus2(),
             synth_split_code(5, 1, Z4, 4, 2, seed=1),
             cyclic_cover_code(13, 1, 4, 3, 1)]
    for code in codes:
        for _ in range(20):
            m = rand_message(code, rng)
            sigma = ga_sigma(code.group, code.field,
                             rng.randrange(code.group.order))
            shifted = [ga_mul_naive(sigma, a) for a in m]
            lhs = encode(code, shifted)
            rhs = [ga_mul_naive(sigma, a) for a in encode(code, m)]
            assert lhs == rhs


def test_synth_split_code_invariants():
    code = synth_split_code(5, 1, Z4, 4, 2, seed=1)
    assert (code.n, code.k) == (4, 2)
    assert validate(code) == []
    assert code.meta["deg_d"] is None and code.meta["deg_e"] is None
    again = synth_split_code(5, 1, Z4, 4, 2, seed=1)
    assert again.evaluation.coeffs == code.evaluation.coeffs


def test_synth_split_code_rejections():
    with pytest.raises(NotSplit):
        synth_split_code(3, 1, AbelianGroup([3]), 4, 2)
    with pytest.raises(NotSplit):
        synth_split_code(7, 1, Z4, 4, 2)
    with pytest.raises(RankDeficient):
        synth_split_code(5, 1, Z4, 4, 4)
    with pytest.raises(RankDeficient):
        synth_split_code(5, 1, Z4, 4, 0)


def test_rs_code_parameters():
    code = rs_degenerate_code(13, 12, 5)
    assert (code.n, code.k) == (12, 6)
    assert code.group.order == 1
    assert code.meta == {"g_x": 0, "g_y": 0, "deg_d": 5, "deg_e": 5,
                         "deg_p": 12}
    for i in range(12):
        x = K13.from_int(i + 1)
        for j in range(6):
            assert code.evaluation.entry(i, j).coeffs[0] == K13.pow_(x, j)


def test_rs_full_degree_warns():
    with pytest.warns(DegreeWindowWarning):
        code = rs_degenerate_code(13, 12, 11)
    assert code.k == 12
    assert code.check.cols == 0


def test_rs_rejections():
    with pytest.raises(TooManyPoints):
        rs_degenerate_code(3, 5, 2)
    with pytest.raises(DegreeWindow):
        rs_degenerate_code(13, 12, 12)
    with pytest.raises(DegreeWindow):
        rs_degenerate_code(13, 12, -1)


def test_cyclic_cover_entries_are_orbit_sums():
    code = cyclic_cover_code(13, 1, 4, 3, 2)
    zeta = root_of_unity(K13, 4)
    gen = K13.generator()
    for i in range(3):
        y = K13.pow_(gen, i)
        for l in range(2):
            for s in range(4):
                zs = K13.pow_(zeta, s)
                pt = K13.mul(zs, y)
                acc = K13.zero
                for j in range(4):
                    acc = K13.add(acc, K13.pow_(pt, 4 * l + j))
                assert code.evaluation.entry(i, l).coeffs[s] == acc


def test_cyclic_cover_codewords_are_polynomial_values():
    code = cyclic_cover_code(13, 1, 4, 3, 1)
    zeta = root_of_unity(K13, 4)
    gen = K13.generator()
    zinv = K13.inv(zeta)
    rng = random.Random(6)
    for _ in range(30):
        m = rand_message(code, rng)
        poly = [K13.zero] * 4
        for l in range(code.k):
            for t in range(4):
                w = K13.pow_(zinv, t)
                for j in range(4):
                    deg = 4 * l + j
                    poly[deg] = K13.add(poly[deg],
                                        K13.mul(m[l].coeffs[t],
                                                K13.pow_(w, deg)))
        c = encode(code, m)
        for i in range(3):
            y = K13.pow_(gen, i)
            for s in range(4):
                pt = K13.mul(K13.pow_(zeta, s), y)
                acc = K13.zero
                for coef in reversed(poly):
                    acc = K13.add(K13.mul(acc, pt), coef)
                assert c[i].coeffs[s] == acc


def test_cyclic_cover_metadata_and_validity():
    code = cyclic_cover_code(257, 1, 8, 8, 2)
    assert (code.n, code.k) == (8, 2)
    assert code.meta["deg_e"] == 15
    assert code.meta["g_x"] == 0 and code.meta["g_y"] == 0
    assert validate(code) == []


@pytest.mark.parametrize("build", [
    lambda: rs_degenerate_code(13, 12, 5),
    lambda: cyclic_cover_code(12289, 1, 32, 8, 2),
], ids=["rs", "cyclic-cover"])
def test_split_codes_are_certified_once(monkeypatch, build):
    """The split solver checks C^t E = 0 and I E = 1 on the stored entries;
    the constructor does not repeat them through validate."""
    real = kgmat.kg_product_is_scalar
    calls = []

    def counting(a, b, c):
        calls.append(c)
        return real(a, b, c)

    monkeypatch.setattr(kgmat, "kg_product_is_scalar", counting)
    monkeypatch.setattr(code_module, "kg_product_is_scalar", counting)
    code = build()
    assert calls == [code.field.zero, code.field.one]


def test_cyclic_cover_rejections():
    with pytest.raises(TooManyPoints):
        cyclic_cover_code(13, 1, 4, 4, 1)
    with pytest.raises(NotSplit):
        cyclic_cover_code(7, 1, 4, 1, 1)
    with pytest.raises(RankDeficient):
        cyclic_cover_code(13, 1, 4, 3, 3)


def orbit_evaluation_reference(ctx, G, zeta, ys, rank):
    """Coefficient s of entry (i, l) as the sum over j < o of
    (zeta^s y_i)^(l*o + j), term by term."""
    o = G.order
    zpow = [ctx.pow_(zeta, t) for t in range(o)]
    entries = []
    for y in ys:
        ypow = [ctx.one]
        for _ in range(rank * o - 1):
            ypow.append(ctx.mul(ypow[-1], y))
        for l in range(rank):
            coeffs = []
            for s in range(o):
                acc = ctx.zero
                for j in range(o):
                    acc = ctx.add(acc, ctx.mul(zpow[(s * j) % o],
                                               ypow[l * o + j]))
                coeffs.append(acc)
            entries += coeffs
    return tuple(entries)


@pytest.mark.parametrize("p, d, order, n", [
    (12289, 1, 32, 8), (12289, 1, 128, 3), (13, 1, 4, 3), (13, 1, 12, 1),
    (3, 2, 8, 1), (3, 4, 80, 1), (3, 4, 16, 5),
])
def test_cyclic_orbit_evaluation_matches_the_sum(p, d, order, n):
    ctx, G = field_make(p, d), AbelianGroup([order])
    zeta = root_of_unity(ctx, order)
    gen = ctx.generator()
    ys = [ctx.pow_(gen, i) for i in range(n)]  # ys[0] = 1 hits zeta^0 y = 1
    assert cyclic_orbit_evaluation(ctx, G, zeta, ys, 3) == \
        orbit_evaluation_reference(ctx, G, zeta, ys, 3)


@pytest.mark.parametrize("p, d", [(13, 1), (3, 2)])
def test_trivial_group_orbit_evaluation_is_vandermonde(p, d):
    """On the trivial cover with zeta = 1 the orbit basis is y^l, so the
    evaluation is the Vandermonde matrix; rs_degenerate_code relies on
    this."""
    ctx, G = field_make(p, d), AbelianGroup([])
    ys = [a for a in ctx.elements() if a != ctx.zero]  # includes y = 1
    got = cyclic_orbit_evaluation(ctx, G, ctx.one, ys, 4)
    assert got == tuple(ctx.pow_(y, l) for y in ys for l in range(4))
    assert rs_degenerate_code(p, len(ys), 3, d).evaluation.coeffs == got
