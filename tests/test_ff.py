import random

import pytest

from equicode import ff
from equicode.errors import (
    CompositeP,
    CtxMismatch,
    DegreeMismatch,
    DivisionByZero,
    NoSuchRoot,
    ReducibleModulus,
)


def test_is_probable_prime_small():
    for n in range(-2, 2):
        assert not ff.is_probable_prime(n)
    for n in range(2, 500):
        naive = all(n % k for k in range(2, n))
        assert ff.is_probable_prime(n) == naive
    for n in (97, 257, 7681, 1_000_003):
        assert ff.is_probable_prime(n)
    # strong pseudoprimes to single bases
    assert not ff.is_probable_prime(2047)
    assert not ff.is_probable_prime(3215031751)


def test_factorize_roundtrip():
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randrange(2, 10**9)
        fac = ff.factorize(n)
        prod = 1
        for p, m in fac.items():
            assert ff.is_probable_prime(p)
            prod *= p**m
        assert prod == n
    assert ff.factorize(96) == {2: 5, 3: 1}
    assert ff.factorize(2**4 * 257) == {2: 4, 257: 1}


def make_fields():
    return [
        ff.field_make(3),
        ff.field_make(5),
        ff.field_make(13),
        ff.field_make(257),
        ff.field_make(3, 2),
        ff.field_make(2, 4, modulus=[1, 1, 0, 0, 1]),
    ]


@pytest.mark.parametrize("K", make_fields(), ids=repr)
def test_field_axioms_random(K):
    rng = random.Random(hash((K.p, K.d)) & 0xFFFF)
    for _ in range(200):
        a = K.rand(rng)
        b = K.rand(rng)
        c = K.rand(rng)
        assert K.add(a, b) == K.add(b, a)
        assert K.mul(a, b) == K.mul(b, a)
        assert K.add(K.add(a, b), c) == K.add(a, K.add(b, c))
        assert K.mul(K.mul(a, b), c) == K.mul(a, K.mul(b, c))
        assert K.mul(a, K.add(b, c)) == K.add(K.mul(a, b), K.mul(a, c))
        assert K.add(a, K.neg(a)) == K.zero
        assert K.sub(a, b) == K.add(a, K.neg(b))
        assert K.mul(a, K.one) == a
        if a != K.zero:
            assert K.mul(a, K.inv(a)) == K.one


@pytest.mark.parametrize("K", make_fields(), ids=repr)
def test_frobenius_is_additive(K):
    rng = random.Random(11)
    for _ in range(50):
        a = K.rand(rng)
        b = K.rand(rng)
        lhs = K.pow_(K.add(a, b), K.p)
        rhs = K.add(K.pow_(a, K.p), K.pow_(b, K.p))
        assert lhs == rhs


def test_prime_field_inverse_example():
    K = ff.field_make(13)
    assert K.inv(5) == 8
    assert K.mul(5, 8) == 1


def test_f9_element_orders_exhaustive():
    K = ff.field_make(3, 2, modulus=[1, 0, 1])  # x^2 + 1
    x = (0, 1)
    # x^2 = -1, so x has order 4
    assert K.element_order(x) == 4
    orders = sorted(K.element_order(a) for a in K.elements() if a != K.zero)
    # multiplicative group is cyclic of order 8
    from collections import Counter
    counts = Counter(orders)
    assert counts == {1: 1, 2: 1, 4: 2, 8: 4}


def test_root_of_unity_exact_order():
    K = ff.field_make(5)
    w = ff.root_of_unity(K, 4)
    assert w in (2, 3)
    assert K.element_order(w) == 4
    assert K.pow_(w, 4) == 1
    assert all(K.pow_(w, j) != 1 for j in (1, 2, 3))
    # determinism
    assert ff.root_of_unity(K, 4, seed=0) == ff.root_of_unity(K, 4, seed=0)


def test_root_of_unity_larger_fields():
    for p, order in [(13, 12), (13, 3), (257, 256), (257, 16), (97, 96), (97, 16)]:
        K = ff.field_make(p)
        w = ff.root_of_unity(K, order)
        assert K.element_order(w) == order


def test_root_of_unity_extension_field():
    K = ff.field_make(3, 2, modulus=[1, 0, 1])
    w = ff.root_of_unity(K, 8)
    assert K.element_order(w) == 8
    with pytest.raises(NoSuchRoot):
        ff.root_of_unity(K, 3)


def test_no_such_root():
    K = ff.field_make(13)
    with pytest.raises(NoSuchRoot):
        ff.root_of_unity(K, 5)
    with pytest.raises(NoSuchRoot):
        ff.root_of_unity(K, 0)


def test_construction_errors():
    with pytest.raises(CompositeP):
        ff.field_make(6)
    with pytest.raises(CompositeP):
        ff.field_make(1)
    with pytest.raises(ReducibleModulus):
        ff.field_make(3, 2, modulus=[2, 0, 1])  # x^2 - 1 = (x-1)(x+1)
    with pytest.raises(ReducibleModulus):
        ff.field_make(3, 2, modulus=[1, 0, 2])  # not monic
    with pytest.raises(DegreeMismatch):
        ff.field_make(3, 2, modulus=[1, 1, 0, 1])
    with pytest.raises(DegreeMismatch):
        ff.field_make(5, 0)


def test_division_by_zero():
    K = ff.field_make(13)
    with pytest.raises(DivisionByZero):
        K.inv(0)
    K2 = ff.field_make(3, 2)
    with pytest.raises(DivisionByZero):
        K2.inv(K2.zero)
    with pytest.raises(DivisionByZero):
        K2.element_order(K2.zero)


def test_default_modulus_is_irreducible():
    for p, d in [(2, 2), (2, 4), (3, 2), (3, 3), (5, 2), (13, 2)]:
        K = ff.field_make(p, d)
        prime = ff.field_make(p)
        assert len(K.modulus) == d + 1
        assert K.modulus[-1] == 1
        assert ff.poly_is_irreducible(list(K.modulus), prime)


def test_ctx_equality_by_parameters():
    a = ff.field_make(3, 2, modulus=[1, 0, 1])
    b = ff.field_make(3, 2, modulus=[1, 0, 1])
    c = ff.field_make(3, 2, modulus=[2, 1, 1])
    assert a == b and hash(a) == hash(b)
    assert a != c
    assert ff.field_make(13) == ff.field_make(13)


def test_element_wrapper_operators():
    K = ff.field_make(13)
    a = ff.elem(K, 5)
    b = ff.elem(K, 7)
    assert (a + b).value == 12
    assert (a - b).value == 11
    assert (a * b).value == 35 % 13
    assert (a / b).value == 5 * K.inv(7) % 13
    assert (-a).value == 8
    assert (a**3).value == pow(5, 3, 13)
    assert (a + 10).value == 2
    assert (3 * a).value == 2
    assert a.inverse().value == 8
    assert bool(a) and not bool(ff.elem(K, 0))


def test_element_wrapper_ctx_mismatch():
    a = ff.elem(ff.field_make(13), 5)
    b = ff.elem(ff.field_make(5), 2)
    with pytest.raises(CtxMismatch):
        _ = a + b


def test_extension_wrapper_coordinates():
    K = ff.field_make(3, 2, modulus=[1, 0, 1])
    x = ff.elem(K, [0, 1])
    assert (x * x).value == (2, 0)  # x^2 = -1
    with pytest.raises(DegreeMismatch):
        ff.elem(K, [1, 2, 0])


def test_raw_obj_roundtrip():
    K = ff.field_make(13)
    assert ff.raw_from_obj(K, ff.raw_to_obj(K, 7)) == 7
    with pytest.raises(TypeError):
        ff.raw_from_obj(K, True)
    with pytest.raises(TypeError):
        ff.raw_from_obj(K, "7")
    E = ff.field_make(3, 2)
    v = (2, 1)
    assert ff.raw_from_obj(E, ff.raw_to_obj(E, v)) == v
    with pytest.raises(TypeError):
        ff.raw_from_obj(E, [2, True])
    with pytest.raises(TypeError):
        ff.raw_from_obj(E, [1])


def test_op_counter():
    K = ff.field_make(13)
    with ff.count_field_ops() as ops:
        K.mul(3, 4)
        K.add(1, 2)
        K.sub(1, 2)
    assert ops.count == 3
    before = ops.count
    K.mul(3, 4)  # counter disabled outside the block
    assert ops.count == before


def test_op_counter_nested_blocks():
    K = ff.field_make(13)
    with ff.count_field_ops() as outer:
        K.mul(3, 4)
        K.mul(3, 4)
        with ff.count_field_ops() as inner:
            K.mul(3, 4)
        K.mul(3, 4)  # still counted: the outer block is open
    K.mul(3, 4)
    assert (outer.count, inner.count) == (4, 1)
    with ff.count_field_ops() as again:
        K.add(1, 2)
    assert again.count == 1 and outer.count == 4


def test_polynomial_helpers_over_prime_field():
    K = ff.field_make(5)
    f = [1, 2, 3]  # 3x^2 + 2x + 1
    g = [4, 1]     # x + 4
    prod = ff.poly_mul(f, g, K)
    q, r = ff.poly_divmod(prod, g, K)
    assert ff.poly_trim(q) == ff.poly_trim(f)
    assert r == []
    q2, r2 = ff.poly_divmod(f, g, K)
    back = ff.poly_add(ff.poly_mul(q2, g, K), r2, K)
    assert ff.poly_trim(back) == ff.poly_trim(f)
    # gcd of f*g and g is monic g
    gg = ff.poly_gcd(prod, g, K)
    lead_inv = K.inv(g[-1])
    assert gg == [K.mul(c, lead_inv) for c in g]
    with pytest.raises(DivisionByZero):
        ff.poly_divmod(f, [], K)
