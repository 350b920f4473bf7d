import dataclasses
import random
import sys
import time
import warnings

import pytest
from hypothesis import example, given, settings, strategies as st

from equicode import code as code_module, decode as decode_module, galg, gauss
from equicode import kgmat
from equicode.code import (
    cyclic_cover_code,
    encode,
    genus2_example_code,
    parity_check,
    rs_degenerate_code,
    synth_split_code,
)
from equicode.decode import (
    DecodeResult,
    _denominator_columns,
    _error_system,
    _error_values,
    _lifted_word,
    _unit_places,
    basic_decode,
    basic_radius,
    denominator_check,
    denominator_zeros,
    find_denominator,
    make_cyclic_decoder_data,
    make_rs_decoder_data,
    make_split_decoder_data,
    pade_numerator,
)
from equicode.errors import (
    CheckFailed,
    CompositeP,
    DecodeFail,
    DegreeMismatch,
    DegreeWindow,
    DegreeWindowWarning,
    DimMismatch,
    EquicodeError,
    Inconsistent,
    InvariantViolation,
    Mismatch,
    NotADenominatorCandidate,
    NotSplit,
    RankDeficient,
)
from equicode.ff import _zdivmod, count_field_ops, field_make
from equicode.files import load_decoder, save_decoder
from equicode.galg import (
    AbelianGroup,
    GroupAlgebraElement,
    ga_add,
    ga_mul_naive,
    ga_rand,
    ga_zero,
)
from equicode.kgmat import (KGMatrix, expand, expanded_rank, kg_apply,
                            kg_matmul, kg_transpose)
from gauss_helpers import kernel_basis, matmul

K13 = field_make(13)


def rs_pair():
    code = rs_degenerate_code(13, 12, 5)
    return code, make_rs_decoder_data(code)


def cyclic_pair():
    code = cyclic_cover_code(13, 1, 4, 3, 1)
    return code, make_cyclic_decoder_data(code, 1)


def rand_message(code, rng):
    return [ga_rand(code.group, code.field, rng) for _ in range(code.k)]


def corrupt(code, cw, t, rng):
    """Add a random error of expanded weight exactly t; returns (r, pos)."""
    ctx, o = code.field, code.group.order
    pos = rng.sample(range(code.n * o), t)
    rows = [list(a.coeffs) for a in cw]
    for p in pos:
        i, s = divmod(p, o)
        rows[i][s] = ctx.add(rows[i][s], ctx.rand_nonzero(rng))
    return [GroupAlgebraElement(code.group, ctx, tuple(row))
            for row in rows], sorted(pos)


def audit(dd, r, res):
    """The four soundness conditions every decode must satisfy."""
    code = dd.code
    ctx, o = code.field, code.group.order
    assert all(s.is_zero() for s in parity_check(code, list(res.codeword)))
    assert encode(code, list(res.message)) == list(res.codeword)
    for i in range(code.n):
        for s in range(o):
            assert ctx.add(res.codeword[i].coeffs[s],
                           res.error[i].coeffs[s]) == r[i].coeffs[s]
    if res.denominator is None:
        assert all(a.is_zero() for a in res.error)
    else:
        zeros = set(res.zeros)
        for i in range(code.n):
            for s in range(o):
                if res.error[i].coeffs[s] != ctx.zero:
                    assert (i, s) in zeros


def raw(vec):
    """The raw coefficients of a vector of K[G] elements, concatenated."""
    return [c for a in vec for c in a.coeffs]


def column_values(dd, col):
    """The values of a column of the search's stream, which comes packed
    for gauss.first_dependency at the search's slot width."""
    return gauss._unpack(dd.code.field, col, dd.c1.cols * dd.code.group.order,
                         decode_module._search_width(dd))


def unit_candidate(dd):
    ctx, G, o = dd.code.field, dd.code.group, dd.code.group.order
    one = GroupAlgebraElement(G, ctx, (ctx.one,) + (ctx.zero,) * (o - 1))
    zero = GroupAlgebraElement(G, ctx, (ctx.zero,) * o)
    return [one] + [zero] * (dd.e0.cols - 1)


def berlekamp_welch(pts, rvals, deg_f, e):
    """Classical rational-interpolation decoder; returns the polynomial's
    coefficient list (low degree first) or None."""
    ctx = K13
    n = len(pts)
    for t in range(e, -1, -1):
        width = t + deg_f + t + 1
        rows, rhs = [], []
        for x, r in zip(pts, rvals):
            xp = [ctx.one]
            for _ in range(max(t, deg_f + t)):
                xp.append(ctx.mul(xp[-1], x))
            row = [ctx.mul(xp[j], r) for j in range(t)]
            row += [ctx.neg(xp[j]) for j in range(deg_f + t + 1)]
            rows.append(row)
            rhs.append(ctx.neg(ctx.mul(xp[t], r)))
        try:
            sol = gauss.solve(ctx, rows, rhs)
        except Exception:
            continue
        evec = sol[:t] + [ctx.one]
        nvec = sol[t:]
        q, rem = _zdivmod(nvec, evec, ctx.p)
        if rem:
            continue
        return q
    return None


def test_rs_decoder_data_parameters():
    code, dd = rs_pair()
    assert basic_radius(code) == 3
    assert dd.deg_d0 == 3 and dd.radius == 3
    assert dd.e0.cols == 4
    assert dd.c1.cols == 3 and dd.i1.rows == 9


def test_denominator_check_accepts_unit_on_clean_word():
    code, dd = rs_pair()
    rng = random.Random(1)
    for _ in range(10):
        r = encode(code, rand_message(code, rng))
        assert denominator_check(dd, r, unit_candidate(dd))


def test_denominator_check_rejects_zero_candidate():
    code, dd = rs_pair()
    r = encode(code, rand_message(code, random.Random(2)))
    zero = GroupAlgebraElement(code.group, code.field, (code.field.zero,))
    with pytest.raises(NotADenominatorCandidate):
        denominator_check(dd, r, [zero] * dd.e0.cols)


def test_denominator_check_rejects_random_candidates_on_bad_word():
    code, dd = rs_pair()
    rng = random.Random(3)
    r, _ = corrupt(code, encode(code, rand_message(code, rng)), 5, rng)
    hits = 0
    for _ in range(50):
        x = [ga_rand(code.group, code.field, rng)
             for _ in range(dd.e0.cols)]
        if any(not a.is_zero() for a in x) and denominator_check(dd, r, x):
            hits += 1
    assert hits == 0


def test_denominator_check_shape_errors():
    code, dd = rs_pair()
    r = encode(code, rand_message(code, random.Random(4)))
    with pytest.raises(DimMismatch):
        denominator_check(dd, r[:-1], unit_candidate(dd))
    with pytest.raises(DimMismatch):
        denominator_check(dd, r, unit_candidate(dd)[:-1])


def _operator_pairs():
    rs9 = rs_degenerate_code(3, 8, 3, 2)
    two = synth_split_code(5, 1, AbelianGroup([2, 2]), 6, 1)
    return {"rs-f13": rs_pair(), "rs-f9": (rs9, make_rs_decoder_data(rs9)),
            "cyclic-f13": cyclic_pair(),
            "two-axis-f5": (two, make_split_decoder_data(two, 1))}


# trivial group, extension field, one axis and two axes
OPERATOR_PAIRS = _operator_pairs()


@settings(max_examples=60, deadline=None)
@given(case=st.sampled_from(sorted(OPERATOR_PAIRS)),
       seed=st.integers(0, 2 ** 32), top=st.booleans(),
       holes=st.sampled_from(["none", "some", "all-but-one"]))
# the first example draws a zero candidate
@example(case="two-axis-f5", seed=2773, top=False, holes="none")
@example(case="cyclic-f13", seed=1, top=True, holes="all-but-one")
@example(case="rs-f9", seed=2, top=True, holes="some")
def test_denominator_operator_matches_dense_expansion(case, seed, top, holes):
    """The streamed columns are those of the condition
    A = expand(C1^t) . diag(r) . expand(E0), in coefficient order; with
    top, r and x are all p - 1, so every packed slot is as large as it
    gets.  With holes, r is zero on a random subset of its places, or on
    all places but one, as the lifted word the decoder searches is off
    the unit places: those places scale no window and multiply C1^t by
    0, and the columns are still A's.  denominator_check, pade_numerator
    and denominator_zeros agree
    with A, with expand(I1) on the same product and with the zeros of
    expand(E0) . x, on r and on a codeword, for which every candidate is
    a denominator.  A random candidate can be zero, which
    denominator_check refuses."""
    code, dd = OPERATOR_PAIRS[case]
    G, ctx, o = code.group, code.field, code.group.order
    rng = random.Random(seed)
    full = ctx.p - 1 if ctx.d == 1 else (ctx.p - 1,) * ctx.d
    if top:
        r = [GroupAlgebraElement(G, ctx, (full,) * o)] * code.n
    else:
        r = [ga_rand(G, ctx, rng) for _ in range(code.n)]
    if holes != "none":
        kept = rng.randrange(code.n)
        blank = ga_zero(G, ctx)
        r = [a if i == kept or holes == "some" and rng.random() < 0.5
             else blank for i, a in enumerate(r)]
    e0x = expand(dd.e0)
    cols = [column_values(dd, c) for c in _denominator_columns(dd, raw(r))]
    size = dd.e0.cols * o
    assert len(cols) == size
    assert cols == gauss.transpose(_unfolded_condition(dd, r))
    xs = [[full] * size] if top else []
    xs += [[ctx.rand(rng) for _ in range(size)] for _ in range(3)]
    # a candidate that vanishes at the first k0 o - 1 coordinates at least
    xs.append(kernel_basis(ctx, e0x[:size - 1])[0])
    zero = ctx.zero
    cw = encode(code, rand_message(code, rng))
    for word in (r, cw):
        wvec = [c for a in word for c in a.coeffs]
        prod = [[ctx.mul(wvec[i], v) for v in row]
                for i, row in enumerate(e0x)]
        condition = matmul(ctx, expand(kg_transpose(dd.c1)), prod)
        interp = matmul(ctx, expand(dd.i1), prod)
        for xv in xs:
            x = galg._elements(G, ctx, xv)
            if set(xv) == {zero}:
                with pytest.raises(NotADenominatorCandidate):
                    denominator_check(dd, word, x)
                continue
            passes = set(gauss.matvec(ctx, condition, xv)) == {zero}
            assert denominator_check(dd, word, x) == passes
            assert passes or word is r
            if passes:
                pade = pade_numerator(dd, word, x)
                assert pade.a0 == tuple(x)
                assert [c for a in pade.a1 for c in a.coeffs] == \
                    gauss.matvec(ctx, interp, xv)
            else:
                with pytest.raises(CheckFailed):
                    pade_numerator(dd, word, x)
    for xv in xs:
        values = gauss.matvec(ctx, e0x, xv)
        assert denominator_zeros(dd, xv) == \
            [divmod(i, o) for i, v in enumerate(values) if v == zero]


@pytest.mark.parametrize("case", sorted(OPERATOR_PAIRS))
def test_denominator_operator_apply_nominal_op_count(case):
    """One column counts the nominal field operations of its n |G|
    pointwise products and its packed K[G] matrix-vector product, C1^t
    applied: n |G| + 2 (n - k1) n (2d - 1) T, T = prod_k (2 o_k - 1)."""
    code, dd = OPERATOR_PAIRS[case]
    G, ctx = code.group, code.field
    n, k1, d = code.n, dd.i1.rows, ctx.d
    T = 1
    for o in G.factors:
        T *= 2 * o - 1
    rng = random.Random(23)
    r = [ga_rand(G, ctx, rng) for _ in range(n)]
    columns = _denominator_columns(dd, raw(r))
    for _ in range(2):  # the first column may pack C1^t
        with count_field_ops() as counted:
            next(columns)
        assert counted.count == \
            n * G.order + 2 * (n - k1) * n * (2 * d - 1) * T


def test_column_searches_pack_c1_once(monkeypatch):
    """C1^t is kept on dd.c1 and its rows, once packed, on C1^t: a second
    search packs only its own columns."""
    code, dd = cyclic_pair()
    packed = []
    real = kgmat._pack_coeffs

    def counting(group, ctx, flat, width):
        packed.append(len(flat))
        return real(group, ctx, flat, width)

    monkeypatch.setattr(kgmat, "_pack_coeffs", counting)
    rng = random.Random(5)
    counts = []
    for _ in range(2):
        r = [ga_rand(code.group, code.field, rng) for _ in range(code.n)]
        packed.clear()
        next(_denominator_columns(dd, raw(r)))
        counts.append(list(packed))
    column = code.n * code.group.order
    assert counts == [[len(dd.c1.coeffs), column], [column]]


def _small_field_pairs():
    rs9 = rs_degenerate_code(3, 8, 3, 2)
    rs5 = rs_degenerate_code(5, 4, 1)
    cyc = cyclic_cover_code(13, 1, 4, 3, 1)
    cyc7 = cyclic_cover_code(7, 1, 2, 3, 1)
    cyc13 = cyclic_cover_code(13, 1, 3, 4, 1)
    return [rs_pair(), (rs9, make_rs_decoder_data(rs9)),
            (rs5, make_rs_decoder_data(rs5)),
            (cyc, make_cyclic_decoder_data(cyc, 1)),
            (cyc7, make_cyclic_decoder_data(cyc7, 1)),
            (cyc13, make_cyclic_decoder_data(cyc13, 1))]


SMALL_FIELD_PAIRS = _small_field_pairs()


@settings(max_examples=60, deadline=None)
@given(which=st.integers(0, len(SMALL_FIELD_PAIRS) - 1),
       word_seed=st.integers(0, 2 ** 16), weight=st.integers(0, 3))
def test_find_denominator_results_are_verified(which, word_seed, weight):
    """The columns the search pulls are A's leading columns,
    A = expand(C1^t) . diag(r) . expand(E0), and those before the last
    are independent.  A returned x passes denominator_check and lies in
    the kernel of A, with its last nonzero coefficient one, at the last
    column pulled; None comes after every column, all independent."""
    code, dd = SMALL_FIELD_PAIRS[which]
    ctx = code.field
    rng = random.Random(word_seed)
    r, _ = corrupt(code, encode(code, rand_message(code, rng)),
                   min(weight, dd.radius), rng)
    pulled = []
    real_columns = decode_module._denominator_columns

    def recording_columns(*args):
        for col in real_columns(*args):
            pulled.append(column_values(dd, col))
            yield col

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(decode_module, "_denominator_columns", recording_columns)
        x = find_denominator(dd, r)
    a = _unfolded_condition(dd, r)
    assert pulled == gauss.transpose(a)[:len(pulled)]
    if x is None:
        assert gauss.rank(ctx, pulled) == len(pulled) == len(a[0])
        return
    assert gauss.rank(ctx, pulled[:-1]) == len(pulled) - 1
    assert denominator_check(dd, r, x)
    flat = [c for a in x for c in a.coeffs]
    last = max(i for i, c in enumerate(flat) if c != ctx.zero)
    assert flat[last] == ctx.one and last == len(pulled) - 1
    assert gauss.matvec(ctx, a, flat) == [ctx.zero] * len(a)


def test_column_search_stops_at_the_first_dependency(monkeypatch):
    # N = 256: A has k0 o = 64 columns and rank at most the error count,
    # so a word at the radius t = 63 pulls all 64 columns, and a word with
    # 15 errors at most 16
    code = cyclic_cover_code(12289, 1, 32, 8, 2)
    dd = make_cyclic_decoder_data(code, 2)
    pulled = []
    real = decode_module._denominator_columns

    def counted(*args):
        pulled.append(0)
        for col in real(*args):
            pulled[-1] += 1
            yield col

    monkeypatch.setattr(decode_module, "_denominator_columns", counted)
    rng = random.Random(1)
    for t, most in ((dd.radius, 64), (15, 16)):
        pulled.clear()
        r, _ = corrupt(code, encode(code, rand_message(code, rng)), t, rng)
        assert find_denominator(dd, r) is not None
        assert len(pulled) == 1 and pulled[0] <= most
        assert t < dd.radius or pulled == [64]


def _unfolded_condition(dd, r):
    """A = expand(C1^t) . diag(r) . expand(E0), densely."""
    ctx = dd.code.field
    rvec = [c for a in r for c in a.coeffs]
    prod = [[ctx.mul(rvec[i], v) for v in row]
            for i, row in enumerate(expand(dd.e0))]
    return matmul(ctx, expand(kg_transpose(dd.c1)), prod)


def _first_column_dependency(ctx, a):
    """[c_0, .., c_j, 0, ..] with c_j = 1 and sum c_i col_i = 0 for the
    first column j of a that depends on the ones before it, or None."""
    cols = gauss.transpose(a)
    for j in range(len(cols)):
        if gauss.rank(ctx, cols[:j + 1]) == j:
            (v,) = kernel_basis(ctx, gauss.transpose(cols[:j + 1]))
            inv = ctx.inv(v[j])
            return [ctx.mul(c, inv) for c in v] + [ctx.zero] * (
                len(cols) - j - 1)
    return None


def search_pair(p, d, factors, n, k0, checks, coeff):
    """Decoder data over F_{p^d}[G] whose E0 (n x k0) and C1 (n x checks)
    draw their coefficients from coeff(), with I1 and the code's E zero,
    so a corrupted codeword is its error.  Only DecoderData's shape checks
    stand between these matrices and the search; the radius is the
    k0 |G| - 1 errors that leave A = expand(C1^t) diag(r) expand(E0) a
    dependency among its k0 |G| columns."""
    ctx, G = field_make(p, d), AbelianGroup(factors)
    o, k1 = G.order, n - checks

    def matrix(rows, cols, draw):
        return KGMatrix(G, ctx, rows, cols,
                        tuple(draw() for _ in range(rows * cols * o)))

    def zero():
        return ctx.zero

    code = code_module.EquivariantCode(
        ctx, G, n, 1, matrix(n, 1, zero), matrix(n, n - 1, zero),
        matrix(1, n, zero))
    return code, decode_module.DecoderData(
        code, matrix(n, k0, coeff), matrix(n, checks, coeff),
        matrix(k1, n, zero), None, k0 * o - 1)


def f9_z4_pair():
    # d = 2: A is 12 x 8
    rng = random.Random(41)
    ctx = field_make(3, 2)
    return search_pair(3, 2, [4], 4, 2, 3, lambda: ctx.rand(rng))


def f13_z2z6_pair():
    # two axes: A is 24 x 12
    rng = random.Random(42)
    return search_pair(13, 1, [2, 6], 3, 1, 2, lambda: K13.rand(rng))


@pytest.mark.parametrize("pair", [rs_pair, cyclic_pair, f9_z4_pair,
                                  f13_z2z6_pair])
def test_find_denominator_is_the_first_dependency_of_a(pair):
    # the search returns A's first column dependency, or None when A has
    # full column rank.  The RS pair's A is 3 x 4, so only the others can
    # have full rank.  The F_9[Z/4] and F_13[Z/2 x Z/6] pairs have random
    # E0 and C1 and words that are their errors, so A has a dependency up
    # to the radius and mostly full rank above it
    code, dd = pair()
    ctx = code.field
    rng = random.Random(14)
    radius = dd.radius
    found = {True: 0, False: 0}
    for t in (max(1, radius // 4), radius, radius + 1, radius + 2,
              radius + 3):
        for _ in range(3):
            r, _ = corrupt(code, encode(code, rand_message(code, rng)), t,
                           rng)
            want = _first_column_dependency(ctx, _unfolded_condition(dd, r))
            found[want is None] += 1
            x = find_denominator(dd, r)
            got = None if x is None else [c for a in x for c in a.coeffs]
            assert got == want, t
    assert found[False] > 0
    assert pair is rs_pair or found[True] > 0


TOP_PRIMES = [2 ** 31 - 1, 2 ** 61 - 1]


@pytest.mark.parametrize("p", TOP_PRIMES)
@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("factors", [[4], [2, 2]], ids=["Z4", "Z2xZ2"])
@pytest.mark.parametrize("e0", ["top", "one", "hole"])
def test_find_denominator_with_every_coefficient_top(p, d, factors, e0):
    """Every coefficient of r and C1 is p - 1, and with e0 = "top" so is
    every coefficient of E0.  Then r * E0 is 1 in every coefficient, since
    (p - 1)^2 = 1; with E0 = 1 ("one") it is p - 1, so over F_p with one
    axis each product slot the search hands over unreduced is n |G|
    (p - 1)^2, as large as it gets.  With those two A's columns are all
    equal; a hole (E0 = 1 but coefficient 0 zero) makes the translates
    differ, and the slots stay n (p - 1)^2 below the largest.  The result
    is always the dense A's first column dependency.  With slots one byte
    narrower than _search_width, six cases at 2^61 - 1 fail: every "top"
    case, and the prime one-axis "one" and "hole" cases."""
    ctx = field_make(p, d)
    top = p - 1 if d == 1 else (p - 1,) * d
    code, dd = search_pair(p, d, factors, 3, 1, 2, lambda: top)
    o = code.group.order
    if e0 != "top":
        dd = dataclasses.replace(dd, e0=KGMatrix(
            code.group, ctx, dd.e0.rows, dd.e0.cols, tuple(
                ctx.zero if e0 == "hole" and i % o == 0 else ctx.one
                for i in range(len(dd.e0.coeffs)))))
    r = [GroupAlgebraElement(code.group, ctx, (top,) * o)] * code.n
    want = _first_column_dependency(ctx, _unfolded_condition(dd, r))
    x = find_denominator(dd, r)
    assert want is not None
    assert [c for a in x for c in a.coeffs] == want


def test_prime_one_axis_search_never_unpacks(monkeypatch):
    """Over F_p with one axis the search hands the products' slots to the
    elimination as they are: find_denominator makes no _unpack_coeffs
    call, and C1^t is packed once, at the search's width."""
    code, dd = cyclic_pair()
    calls = []
    real = kgmat._unpack_coeffs

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(kgmat, "_unpack_coeffs", counting)
    rng = random.Random(43)
    for t in (1, dd.radius):
        r, _ = corrupt(code, encode(code, rand_message(code, rng)), t, rng)
        calls.clear()
        assert find_denominator(dd, r) is not None
        assert calls == []
    c1t = kg_transpose(dd.c1)
    assert c1t._packed[0] == decode_module._search_width(dd)


def test_search_scales_only_the_blocks_it_pulls(monkeypatch):
    """Over F_p with one axis the block diag(r) . expand(E0) is scaled 16
    columns at a time, when its first column is pulled (one 64-bit array
    of reduced slots per block): a word with 3 errors pulls 4 columns and
    scales one block, and a word at the radius pulls all k0 |G| = 64
    columns, in 4 blocks."""
    code = cyclic_cover_code(12289, 1, 32, 8, 2)
    dd = make_cyclic_decoder_data(code, 2)
    blocks, columns = [], []
    real_array, real_apply = kgmat.array, decode_module._apply_packed

    def counting_array(*args):
        blocks.append(1)
        return real_array(*args)

    def counting_apply(*args):
        columns.append(1)
        return real_apply(*args)

    monkeypatch.setattr(kgmat, "array", counting_array)
    monkeypatch.setattr(decode_module, "_apply_packed", counting_apply)
    rng = random.Random(7)
    for t, pulled, scaled in ((3, 4, 1), (dd.radius, 64, 4)):
        r, _ = corrupt(code, encode(code, rand_message(code, rng)), t, rng)
        blocks.clear()
        columns.clear()
        assert find_denominator(dd, r) is not None
        assert (len(columns), len(blocks)) == (pulled, scaled)


def test_prime_search_makes_no_vmul_and_keeps_e0_once(monkeypatch):
    """Over F_p the search scales r * E0 by packed products, with no
    FieldCtx.vmul call, and the rows of expand(E0) it scales are packed
    once per decoder, one window per entry of E0 at the first search: a
    second search and a second decode pack none."""
    code, dd = cyclic_pair()
    vmuls, packs = [], []
    real_vmul, real_pack = type(code.field).vmul, kgmat._to_bytes

    def counting_vmul(ctx, u, v):
        vmuls.append(1)
        return real_vmul(ctx, u, v)

    def counting_pack(vals, width):
        packs.append(1)
        return real_pack(vals, width)

    monkeypatch.setattr(type(code.field), "vmul", counting_vmul)
    monkeypatch.setattr(kgmat, "_to_bytes", counting_pack)
    rng = random.Random(8)
    for built in (dd.e0.rows * dd.e0.cols, 0):
        r, _ = corrupt(code, encode(code, rand_message(code, rng)),
                       dd.radius, rng)
        vmuls.clear()
        packs.clear()
        assert find_denominator(dd, r) is not None
        assert (len(vmuls), len(packs)) == (0, built)
    audit(dd, r, basic_decode(dd, r))
    assert packs == []


def _counting(monkeypatch, name):
    calls = []
    real = getattr(decode_module, name)

    def counted(*args):
        calls.append(name)
        return real(*args)

    monkeypatch.setattr(decode_module, name, counted)
    return calls


def test_decode_fails_in_the_search_exactly_at_full_column_rank():
    # beyond the radius of the cyclic pair A is square and mostly of full
    # rank; the search fails exactly when it is, and at the radius never
    code, dd = cyclic_pair()
    rng = random.Random(15)
    seen = {True: 0, False: 0}
    for t in [dd.radius] * 4 + [dd.radius + 1] * 8:
        r, _ = corrupt(code, encode(code, rand_message(code, rng)), t, rng)
        full = _first_column_dependency(
            code.field, _unfolded_condition(dd, r)) is None
        seen[full] += 1
        try:
            audit(dd, r, basic_decode(dd, r))
            failed = ""
        except DecodeFail as e:
            failed = str(e)
        assert failed.startswith("denominator search") == full, t
        if full:
            assert failed == ("denominator search: the Pade condition has "
                              "full column rank")
    assert seen[True] > 0 and seen[False] >= 4


def test_decode_with_a_wrong_denominator_solves_once(monkeypatch):
    # RS [12, 6] over F_13 with 4 errors: A is 3 x 4, so a denominator
    # always exists, but its zeros may not carry the error
    code, dd = rs_pair()
    rng = random.Random(16)
    solves = _counting(monkeypatch, "_error_values")
    systems = _counting(monkeypatch, "_error_system")
    failed = 0
    for _ in range(10):
        r, _ = corrupt(code, encode(code, rand_message(code, rng)), 4, rng)
        solves.clear()
        systems.clear()
        try:
            audit(dd, r, basic_decode(dd, r))
        except DecodeFail as e:
            assert str(e).startswith("error values")
            failed += 1
        assert solves == ["_error_values"]
        # one system, of full column rank without the unit places
        assert systems == ["_error_system"]
    assert failed > 0


# bool subclasses int, but True and False are flags, not sizes
BOOL_SIZES = {
    "rs_degenerate_code-n": (InvariantViolation, lambda dd, r, b:
                             rs_degenerate_code(13, b, 0)),
    "KGMatrix-rows": (InvariantViolation, lambda dd, r, b: KGMatrix(
        AbelianGroup([]), K13, b, 1, (K13.zero,) * b)),
    "field_make-p": (CompositeP, lambda dd, r, b: field_make(b)),
    "field_make-d": (DegreeMismatch, lambda dd, r, b: field_make(13, b)),
}


@pytest.mark.parametrize("flag", [True, False])
@pytest.mark.parametrize("case", list(BOOL_SIZES))
def test_bools_are_refused_as_sizes(case, flag):
    code, dd = rs_pair()
    rng = random.Random(17)
    r, _ = corrupt(code, encode(code, rand_message(code, rng)), 2, rng)
    error, call = BOOL_SIZES[case]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegreeWindowWarning)
        with pytest.raises(error):
            call(dd, r, flag)


def test_find_denominator_matches_classical_locator():
    code, dd = rs_pair()
    rng = random.Random(6)
    pts = [K13.from_int(x) for x in range(1, 13)]
    for trial in range(10):
        cw = encode(code, rand_message(code, rng))
        r, pos = corrupt(code, cw, 3, rng)
        x = find_denominator(dd, r)
        assert x is not None
        assert denominator_check(dd, r, x)
        # locator polynomial prod (X - x_i) over the error positions
        loc = [K13.one]
        for p in pos:
            root = pts[p]
            loc = [K13.sub(lo, K13.mul(root, hi))
                   for lo, hi in zip([K13.zero] + loc, loc + [K13.zero])]
        locvals = []
        for xp in pts:
            acc = K13.zero
            for coef in reversed(loc):
                acc = K13.add(K13.mul(acc, xp), coef)
            locvals.append(acc)
        vals = [a.coeffs[0] for a in kg_apply(dd.e0, x)]
        # the vanishing space has K-dimension 1 here, so values must be
        # proportional to the locator's
        pivot = next(i for i, v in enumerate(locvals) if v != K13.zero)
        scale = K13.mul(vals[pivot], K13.inv(locvals[pivot]))
        assert vals == [K13.mul(scale, lv) for lv in locvals]
        assert set(denominator_zeros(dd, raw(x))) == {(p, 0) for p in pos}


def test_pade_numerator_round_trip():
    code, dd = rs_pair()
    rng = random.Random(7)
    pts = [K13.from_int(x) for x in range(1, 13)]
    vand9 = [[K13.pow_(x, j) for j in range(9)] for x in pts]
    for _ in range(10):
        r = encode(code, rand_message(code, rng))
        pade = pade_numerator(dd, r, unit_candidate(dd))
        assert pade.a0 == tuple(unit_candidate(dd))
        a1 = [a.coeffs[0] for a in pade.a1]
        # with a0 = 1 the numerator must re-evaluate to r itself
        vals = gauss.matvec(K13, vand9, a1)
        assert vals == [a.coeffs[0] for a in r]


def test_pade_numerator_zero_word():
    code, dd = rs_pair()
    zero = GroupAlgebraElement(code.group, code.field, (code.field.zero,))
    pade = pade_numerator(dd, [zero] * code.n, unit_candidate(dd))
    assert all(a.is_zero() for a in pade.a1)


def test_pade_numerator_rejects_non_denominator():
    code, dd = rs_pair()
    rng = random.Random(8)
    r, _ = corrupt(code, encode(code, rand_message(code, rng)), 5, rng)
    assert not denominator_check(dd, r, unit_candidate(dd))
    with pytest.raises(CheckFailed):
        pade_numerator(dd, r, unit_candidate(dd))


def test_basic_decode_rs_against_berlekamp_welch():
    code, dd = rs_pair()
    rng = random.Random(9)
    pts = [K13.from_int(x) for x in range(1, 13)]
    for trial in range(200):
        m = rand_message(code, rng)
        cw = encode(code, m)
        t = rng.randrange(0, 4)
        r, _ = corrupt(code, cw, t, rng)
        res = basic_decode(dd, r)
        audit(dd, r, res)
        assert list(res.codeword) == cw
        assert list(res.message) == m
        oracle = berlekamp_welch(pts, [a.coeffs[0] for a in r], 5, 3)
        assert oracle == [a.coeffs[0] for a in m]


def test_basic_decode_ignores_its_seed():
    # decoding draws no random number; seed stays for older callers
    code, dd = cyclic_pair()
    rng = random.Random(18)
    for t in (1, dd.radius):
        r, _ = corrupt(code, encode(code, rand_message(code, rng)), t, rng)
        want = basic_decode(dd, r)
        audit(dd, r, want)
        for seed in (0, 1, 12345):
            assert basic_decode(dd, r, seed=seed) == want


def _fast_path_pairs():
    rs9 = rs_degenerate_code(3, 8, 3, d=2)
    f25 = cyclic_cover_code(5, 2, 4, 3, 1)
    return {"rs-f13": rs_pair(), "rs-f9": (rs9, make_rs_decoder_data(rs9)),
            "cyclic-f25": (f25, make_cyclic_decoder_data(f25, 1))}


FAST_PATH_PAIRS = _fast_path_pairs()


@pytest.mark.parametrize("case", sorted(FAST_PATH_PAIRS))
def test_basic_decode_fast_path(case):
    """A clean word takes the syndrome-zero path, and a word with one
    error does not.  Over F_{p^d} a raw zero is the tuple (0,) * d, which
    is truthy, so a zero test must compare with the field's zero: the
    fields here are F_13, F_9 and F_25."""
    code, dd = FAST_PATH_PAIRS[case]
    rng = random.Random(10)
    m = rand_message(code, rng)
    cw = encode(code, m)
    res = basic_decode(dd, cw)
    assert res.denominator is None and res.zeros == ()
    assert list(res.message) == m and list(res.codeword) == cw
    assert all(a.is_zero() for a in res.error)
    audit(dd, cw, res)
    assert dd.radius >= 1
    r, pos = corrupt(code, cw, 1, rng)
    res = basic_decode(dd, r)
    assert res.denominator is not None
    assert list(res.message) == m and list(res.codeword) == cw
    o = code.group.order
    assert [i * o + s for i, a in enumerate(res.error)
            for s, c in enumerate(a.coeffs) if c != code.field.zero] == pos
    audit(dd, r, res)


def test_basic_decode_beyond_radius_stays_sound():
    code, dd = rs_pair()
    rng = random.Random(11)
    fails = 0
    for trial in range(10):
        cw = encode(code, rand_message(code, rng))
        r, _ = corrupt(code, cw, 5, rng)
        try:
            res = basic_decode(dd, r)
        except DecodeFail:
            fails += 1
            continue
        audit(dd, r, res)
    assert fails > 0


def test_rs_decoder_data_refusals():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegreeWindowWarning)
        g2 = genus2_example_code()
    with pytest.raises(DegreeWindow):
        make_rs_decoder_data(g2)
    code = rs_degenerate_code(13, 12, 5)
    with pytest.raises(DegreeWindow):
        make_rs_decoder_data(code, deg_d0=6)
    with pytest.raises(DegreeWindow):
        make_rs_decoder_data(code, deg_d0=-1)
    with pytest.raises(Mismatch):
        make_rs_decoder_data(cyclic_cover_code(13, 1, 4, 3, 1), 1)


# a wrong deg_e is named by its bare value
@pytest.mark.parametrize("meta", [
    pytest.param({"deg_e": 0}, id="0"), pytest.param({"deg_e": 2}, id="2"),
    pytest.param({"g_y": None}, id="g_y=None"),
    pytest.param({"g_y": 1}, id="g_y=1")])
@pytest.mark.parametrize("deg_d0", [None, 0, 1])
def test_rs_decoder_data_refuses_a_wrong_metadata_degree(meta, deg_d0):
    # deg_e sizes the product space; trusting a wrong one claimed radius 5
    # for this [12, 6] code (true radius 3) or failed with an IndexError.
    # A missing g_y failed with a TypeError.
    code = rs_degenerate_code(13, 12, 5)
    wrong = type(code)(code.field, code.group, code.n, code.k,
                       code.evaluation, code.check, code.interp,
                       dict(code.meta, **meta))
    with pytest.raises(Mismatch):
        make_rs_decoder_data(wrong, deg_d0)


def test_rs_decoder_data_zero_auxiliary_degree():
    code = rs_degenerate_code(13, 12, 5)
    dd = make_rs_decoder_data(code, deg_d0=0)
    assert dd.radius == 0
    rng = random.Random(12)
    m = rand_message(code, rng)
    res = basic_decode(dd, encode(code, m))
    assert list(res.message) == m


def test_rs_decoder_data_rejects_non_vandermonde():
    code = rs_degenerate_code(13, 12, 5)
    coeffs = list(code.evaluation.coeffs)
    for j in range(code.k):  # the first row, one coefficient per entry
        coeffs[j] = K13.mul(K13.from_int(2), coeffs[j])
    tweaked = type(code)(code.field, code.group, code.n, code.k,
                         KGMatrix(code.group, K13, code.n, code.k,
                                  tuple(coeffs)),
                         code.check, code.interp, dict(code.meta))
    with pytest.raises(Mismatch):
        make_rs_decoder_data(tweaked)


def test_cyclic_decoder_data_parameters_and_decoding():
    code, dd = cyclic_pair()
    assert dd.radius == 3 and dd.deg_d0 == 3
    assert dd.i1.rows == 2
    rng = random.Random(13)
    for trial in range(30):
        m = rand_message(code, rng)
        cw = encode(code, m)
        t = rng.randrange(0, 4)
        r, _ = corrupt(code, cw, t, rng)
        res = basic_decode(dd, r)
        audit(dd, r, res)
        assert list(res.codeword) == cw
        assert list(res.message) == m


def test_cyclic_decoder_data_refusals():
    code = cyclic_cover_code(13, 1, 4, 3, 1)
    with pytest.raises(DegreeWindow):
        make_cyclic_decoder_data(code, 2)
    with pytest.raises(DegreeWindow):
        make_cyclic_decoder_data(code, 0)
    synth = synth_split_code(5, 1, AbelianGroup([4]), 4, 2, seed=1)
    with pytest.raises(Mismatch):
        make_cyclic_decoder_data(synth, 1)
    twofactor = synth_split_code(5, 1, AbelianGroup([2, 2]), 4, 2, seed=1)
    with pytest.raises(Mismatch):
        make_cyclic_decoder_data(twofactor, 1)


def test_cyclic_decoder_data_evaluates_the_orbits_once(monkeypatch):
    code = cyclic_cover_code(13, 1, 4, 3, 1)
    calls = []
    real = decode_module.cyclic_orbit_evaluation
    monkeypatch.setattr(decode_module, "cyclic_orbit_evaluation",
                        lambda *args: calls.append(args[-1]) or real(*args))
    dd = make_cyclic_decoder_data(code, 1)
    assert calls == [2]  # rank k1 = k + k0; E and E0 are its prefixes
    assert dd.e0.coeffs == code.evaluation.coeffs


def test_cyclic_decoder_data_on_a_non_split_code():
    # F_3[Z/4] is not split: the root comes from split_root
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegreeWindowWarning)
        g2 = genus2_example_code()
    with pytest.raises(NotSplit):
        make_cyclic_decoder_data(g2, 1)


def test_split_decoder_data_on_cyclic_code():
    code = cyclic_cover_code(13, 1, 4, 3, 1)
    dd = make_split_decoder_data(code, 1)
    assert dd.radius == 0 and dd.deg_d0 is None
    assert dd.i1.rows == 2  # the product span closes at rank k + k0
    rng = random.Random(14)
    for trial in range(20):
        cw = encode(code, rand_message(code, rng))
        t = rng.randrange(0, 4)
        r, _ = corrupt(code, cw, t, rng)
        res = basic_decode(dd, r)
        audit(dd, r, res)
        assert list(res.codeword) == cw  # observed exact on this fixture


def test_split_decoder_data_refuses_generic_codes():
    synth = synth_split_code(5, 1, AbelianGroup([4]), 4, 2, seed=1)
    with pytest.raises(DegreeWindow):
        make_split_decoder_data(synth, 1)
    code = cyclic_cover_code(13, 1, 4, 3, 1)
    with pytest.raises(DegreeWindow):
        make_split_decoder_data(code, 2)


def test_cyclic_setup_at_n1024_within_budget():
    # with dense expanded_rank this took about a minute on a 2-vCPU VM;
    # per character it takes under a second there
    t0 = time.perf_counter()
    code = cyclic_cover_code(12289, 1, 128, 8, 2)
    dd = make_cyclic_decoder_data(code, 2)
    elapsed = time.perf_counter() - t0
    assert dd.radius == 255 and code.n * code.group.order == 1024
    assert elapsed < 10, "set-up took %.2f s" % elapsed


def test_decode_result_is_frozen():
    code, dd = rs_pair()
    res = basic_decode(dd, encode(code, rand_message(code,
                                                     random.Random(15))),
                       seed=0)
    assert isinstance(res, DecodeResult)
    with pytest.raises(AttributeError):
        res.codeword = ()


def test_decoder_data_refuses_a_non_free_denominator_space(monkeypatch):
    monkeypatch.setattr(decode_module, "expanded_rank",
                        lambda m: m.cols * m.group.order - 1)
    with pytest.raises(RankDeficient):
        make_rs_decoder_data(rs_degenerate_code(13, 12, 5))
    with pytest.raises(RankDeficient):
        make_cyclic_decoder_data(cyclic_cover_code(13, 1, 4, 3, 1), 1)


def entrywise_apply(a, vec):
    """kg_apply as one ga_mul_naive per matrix entry."""
    out = []
    for i in range(a.rows):
        acc = ga_zero(a.group, a.field)
        for j in range(a.cols):
            acc = ga_add(acc, ga_mul_naive(a.entry(i, j), vec[j]))
        out.append(acc)
    return out


def entrywise_apply_flat(a, flat, scale=None):
    """kgmat._apply through entrywise_apply: the raw column is cut into
    elements, and the rows come out as raw coefficients, times scale when
    given."""
    vec = galg._elements(a.group, a.field, flat)
    out = [c for y in entrywise_apply(a, vec) for c in y.coeffs]
    if scale is not None:
        out = [a.field.mul(c, s) for c, s in zip(out, scale)]
    return out


@pytest.mark.parametrize("fixture", ["cyclic", "split", "rs"])
def test_basic_decode_bit_equal_to_entrywise_apply(fixture, monkeypatch):
    if fixture == "rs":
        code, dd = rs_pair()
    else:
        code = cyclic_cover_code(13, 1, 4, 3, 1)
        dd = (make_cyclic_decoder_data(code, 1) if fixture == "cyclic"
              else make_split_decoder_data(code, 1))
    rng = random.Random(17)
    words = []
    for trial in range(6):
        cw = encode(code, rand_message(code, rng))
        words.append(corrupt(code, cw, trial % 4, rng)[0])
    spectral = [basic_decode(dd, r) for r in words]
    monkeypatch.setattr(code_module, "kg_apply", entrywise_apply)
    applied = []

    def reference(*args, **kwargs):
        applied.append("apply")
        return entrywise_apply_flat(*args, **kwargs)

    def packed_reference(a, flat, width):
        applied.append("search")
        return gauss._pack(a.field, entrywise_apply_flat(a, flat), width)

    monkeypatch.setattr(decode_module, "_apply", reference)
    monkeypatch.setattr(decode_module, "_apply_packed", packed_reference)
    entrywise = [basic_decode(dd, r) for r in words]
    assert spectral == entrywise
    # the denominator's column search and the other applies ran the
    # reference
    assert {"apply", "search"} <= set(applied)


@pytest.mark.parametrize("code", [
    cyclic_cover_code(13, 1, 4, 3, 1),
    synth_split_code(5, 1, AbelianGroup([2, 2]), 4, 2, seed=1),
    rs_degenerate_code(13, 12, 5),
], ids=["cyclic", "two-axis", "rs"])
def test_error_system_is_the_expanded_check_at_the_zeros(code):
    o = code.group.order
    ct = expand(kg_transpose(code.check))
    rng = random.Random(18)
    places = [(i, s) for i in range(code.n) for s in range(o)]
    for size in (0, 1, len(places) // 3, len(places)):
        zeros = sorted(rng.sample(places, size))
        assert _error_system(code, zeros) == \
            [[row[i * o + s] for i, s in zeros] for row in ct]
        dropped = set(rng.sample(range(len(ct)), len(ct) // 2))
        assert _error_system(code, zeros, dropped) == \
            [[row[i * o + s] for i, s in zeros]
             for t, row in enumerate(ct) if t not in dropped]


def _mixed_check_code():
    """The cyclic F_13[Z/4] code with C replaced by C M for a random
    invertible K[G] matrix M: the same code, with no unit row in C."""
    code = cyclic_cover_code(13, 1, 4, 3, 1)
    G, ctx, m = code.group, code.field, code.n - code.k
    rng = random.Random(19)
    while True:
        mix = KGMatrix(G, ctx, m, m, tuple(
            ctx.rand(rng) for _ in range(m * m * G.order)))
        if expanded_rank(mix) == m * G.order:
            return dataclasses.replace(code, check=kg_matmul(code.check, mix))


def _error_value_codes():
    """Code and its number of unit places, by name: genus 2 has c = -1,
    three times the RS check matrix has c = 3, and an RS check matrix
    whose rows 6 and 7 are both e_0 has a unit place for j = 0 once."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegreeWindowWarning)
        genus2 = genus2_example_code()
    rs = rs_degenerate_code(13, 12, 5)
    c = rs.check
    tripled = KGMatrix(c.group, c.field, c.rows, c.cols,
                       tuple(3 * x % 13 for x in c.coeffs))
    twice = c.coeffs[:42] + c.coeffs[36:42] + c.coeffs[48:]
    return {
        "rs-times-3": (dataclasses.replace(rs, check=tripled), 6),
        "rs-e0-twice": (dataclasses.replace(rs, check=KGMatrix(
            c.group, c.field, c.rows, c.cols, twice)), 5),
        "cyclic": (cyclic_cover_code(13, 1, 4, 3, 1), 2),
        "two-axis": (synth_split_code(5, 1, AbelianGroup([2, 2]), 4, 2,
                                      seed=1), 1),
        "rs": (rs, 6),
        "genus2": (genus2, 2),
        "f25": (cyclic_cover_code(5, 2, 4, 3, 1), 2),
        "no-units": (_mixed_check_code(), 0),
    }


ERROR_VALUE_CODES = _error_value_codes()


@pytest.mark.parametrize("case", sorted(ERROR_VALUE_CODES))
def test_error_values_match_the_full_solve(monkeypatch, case):
    """_error_values gives gauss.solve's solution of the full system
    _error_system(code, zeros), or both raise Inconsistent: on zero sets
    of every size up to all places, for the syndrome of a random error on
    the zeros and for a random syndrome.  Large zero sets make the
    system without the unit places rank-deficient, so the full solve
    runs there too."""
    code, count = ERROR_VALUE_CODES[case]
    units = _unit_places(code)
    assert len(units) == count
    ctx, o = code.field, code.group.order
    solve = gauss.solve
    fallbacks = []

    def counted(*args):
        fallbacks.append(1)
        return solve(*args)

    monkeypatch.setattr(gauss, "solve", counted)
    rng = random.Random(20)
    places = [(i, s) for i in range(code.n) for s in range(o)]
    outcomes = set()
    for size in range(len(places) + 1):
        for trial in range(4):
            zeros = sorted(rng.sample(places, size))
            full = _error_system(code, zeros)
            if trial % 2:
                syndrome = [ctx.rand(rng) for _ in range(len(full))]
            else:
                syndrome = gauss.matvec(ctx, full,
                                        [ctx.rand(rng) for _ in zeros])
            try:
                sol = solve(ctx, full, syndrome)
            except Inconsistent:
                with pytest.raises(Inconsistent):
                    _error_values(code, units, zeros, syndrome)
                outcomes.add("inconsistent")
                continue
            want = [ctx.zero] * (code.n * o)
            for (i, s), v in zip(zeros, sol):
                want[i * o + s] = v
            assert _error_values(code, units, zeros, syndrome) == want
            outcomes.add("solved")
    assert outcomes == {"inconsistent", "solved"}
    assert fallbacks


# codes without a unit place for every check column: the search takes r
INCOMPLETE_UNITS = {"no-units", "rs-e0-twice", "two-axis"}
SEARCH_WORD_CASES = sorted(OPERATOR_PAIRS) + sorted(ERROR_VALUE_CODES)


def _decode_outcome(dd, r, trace=None):
    try:
        return basic_decode(dd, r, trace=trace)
    except DecodeFail as e:
        return str(e)


@settings(max_examples=80, deadline=None)
@given(case=st.sampled_from(SEARCH_WORD_CASES),
       seed=st.integers(0, 2 ** 32), weight=st.integers(0, 6))
@example(case="cyclic-f13", seed=0, weight=3)
@example(case="two-axis-f5", seed=0, weight=2)
@example(case="no-units", seed=0, weight=2)
@example(case="rs-f9", seed=0, weight=2)
def test_search_word_is_the_lift_of_r(case, seed, weight):
    """The word basic_decode searches has r's syndrome and is zero off C's
    unit places; a code without a unit place for every check column
    searches r itself, whatever its group.  On decoder data the search
    finds r's own first column dependency, basic_decode hands it exactly
    that word, and its outcome is the one it has when the search is given
    r."""
    if case in OPERATOR_PAIRS:
        code, dd = OPERATOR_PAIRS[case]
    else:
        code, dd = ERROR_VALUE_CODES[case][0], None
    G, ctx, o = code.group, code.field, code.group.order
    rng = random.Random(seed)
    r, _ = corrupt(code, encode(code, rand_message(code, rng)),
                   min(weight, code.n * o), rng)
    units = _unit_places(code)
    syndrome = parity_check(code, r)
    lifted = _lifted_word(code, units,
                          [c for a in syndrome for c in a.coeffs])
    assert (lifted is None) == (case in INCOMPLETE_UNITS)
    word = r if lifted is None else galg._elements(G, ctx, lifted)
    assert parity_check(code, word) == syndrome
    assert lifted is None or all(word[i].is_zero() for i in range(code.n)
                                 if i not in units)
    if dd is None:
        return
    assert find_denominator(dd, word) == find_denominator(dd, r)
    real = decode_module._find_denominator
    searched, lines = [], []

    def recording(data, w):
        searched.append(w)
        return real(data, w)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(decode_module, "_find_denominator", recording)
        got = _decode_outcome(dd, r, lines.append)
        mp.setattr(decode_module, "_find_denominator",
                   lambda data, w: real(data, raw(r)))
        assert _decode_outcome(dd, r) == got
    if any(not a.is_zero() for a in syndrome):
        assert searched == [raw(word)]
        nonzero = sum(not a.is_zero() for a in word)
        assert "search word nonzero at %d of %d places" % (
            nonzero, code.n) in lines
    else:
        assert searched == []


def _corrupt_decoder(dd, which, index, delta):
    """dd with coefficient index of its C1 or E0 moved by delta."""
    m = getattr(dd, which)
    ctx = m.field
    coeffs = list(m.coeffs)
    coeffs[index] = ctx.add(coeffs[index], delta)
    return dataclasses.replace(dd, **{which: KGMatrix(
        m.group, ctx, m.rows, m.cols, tuple(coeffs))})


def test_corrupt_decoders_decode_soundly_or_raise():
    """One coefficient of C1 or E0 moved in the decoder of
    cyclic_cover_code(13, 1, 4, 3, 1) breaks A(c) = 0 on codewords, so
    the lifted word's search can find what r's would not.  Decodes of
    words with 1-3 errors either pass the audit against the valid code,
    or raise an EquicodeError; both happen."""
    code, dd = cyclic_pair()
    ctx = code.field
    rng = random.Random(24)
    outcomes = {"decoded": 0, "refused": 0}
    for trial in range(240):
        which = ("c1", "e0")[trial % 2]
        size = len(getattr(dd, which).coeffs)
        bad = _corrupt_decoder(dd, which, rng.randrange(size),
                               ctx.rand_nonzero(rng))
        r, _ = corrupt(code, encode(code, rand_message(code, rng)),
                       rng.randint(1, 3), rng)
        try:
            res = basic_decode(bad, r)
        except EquicodeError:
            outcomes["refused"] += 1
            continue
        audit(dd, r, res)
        outcomes["decoded"] += 1
    assert min(outcomes.values()) > 0, outcomes


def test_basic_decode_runs_no_transform(monkeypatch, tmp_path):
    """Once decoder data exists, fresh or reloaded from its file, a decode
    applies every K[G] matrix through packed products: no group Fourier
    transform runs."""
    code = cyclic_cover_code(257, 1, 16, 8, 2)
    dd = make_cyclic_decoder_data(code, 2)
    save_decoder(tmp_path / "dec.json", dd)
    reloaded = load_decoder(tmp_path / "dec.json")
    rng = random.Random(22)
    msg = rand_message(code, rng)
    r, _ = corrupt(code, encode(code, msg), dd.radius, rng)
    calls = []
    for name in ("ft_group", "ft_inverse", "_transform"):
        real = getattr(galg, name)

        def counting(*args, real=real, name=name):
            calls.append(name)
            return real(*args)

        for mod in list(sys.modules.values()):
            if (mod is not None and mod.__name__.split(".")[0] == "equicode"
                    and getattr(mod, name, None) is real):
                monkeypatch.setattr(mod, name, counting)
    for data in (dd, reloaded):
        calls.clear()
        res = basic_decode(data, r)
        assert res.denominator is not None and list(res.message) == msg
        assert calls == []
        audit(data, r, res)
