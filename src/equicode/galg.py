"""The group algebra K[G] for a finite abelian group G.

G is presented by its invariant factors [o1, ..., oI] (each dividing the
next); elements of G are mixed-radix indices, elements of K[G] are length-|G|
coefficient vectors over a FieldCtx.  Multiplication is convolution, and
`ga_mul_fast` computes it by Kronecker substitution in every algebra: each
operand is packed into one Python int with slots wide enough that no sum of
products carries, so a product is one CPython big-int product (Karatsuba
above a size threshold) and one unpacking.

Fourier transforms over K serve the split case (exponent e of G dividing
q - 1), where matrices are built and certified character by character.
They run on flat raw lists, |G| values per element, and every cyclic
transform is Bluestein's chirp: all strands of an axis share one packing
and one unpacking.  Everything here is a pure function of immutable
values; plans (chirp weights and the packed chirp) are cached per
(field, length, root).
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass

from . import ff
from .errors import (
    BadRootOrder,
    InvariantViolation,
    Mismatch,
    OrderDividesCharacteristic,
)
from .ff import OPS, FieldCtx


class AbelianGroup:
    """Finite abelian group in invariant-factor form; the trivial group is []."""

    __slots__ = ("factors", "order", "exponent", "_inv_perm")

    def __init__(self, invariant_factors):
        factors = tuple(invariant_factors)
        for i, o in enumerate(factors):
            if not isinstance(o, int) or o < 2:
                raise InvariantViolation(
                    "invariant factor %r is not an int >= 2" % (o,))
            if i + 1 < len(factors) and factors[i + 1] % o != 0:
                raise InvariantViolation(
                    "invariant factors must form a divisibility chain, "
                    "got %r" % (factors,))
        self.factors = factors
        order = 1
        for o in factors:
            order *= o
        self.order = order
        self.exponent = factors[-1] if factors else 1
        self._inv_perm = None

    def __eq__(self, other):
        return isinstance(other, AbelianGroup) and self.factors == other.factors

    def __hash__(self):
        return hash(self.factors)

    def __repr__(self):
        if not self.factors:
            return "AbelianGroup([])"
        return "AbelianGroup(%s)" % " x ".join("Z/%d" % o for o in self.factors)

    def coords_of(self, idx):
        out = []
        for o in self.factors:
            out.append(idx % o)
            idx //= o
        return tuple(out)

    def index_of(self, coords):
        idx = 0
        for o, c in zip(reversed(self.factors), reversed(tuple(coords))):
            idx = idx * o + c
        return idx

    def inverse_index(self, idx):
        perm = self._inv_perm
        if perm is None:
            perm = [self.index_of(tuple((-c) % o for c, o in
                                        zip(self.coords_of(i), self.factors)))
                    for i in range(self.order)]
            self._inv_perm = perm
        return perm[idx]

    def compose(self, i, j):
        a = self.coords_of(i)
        b = self.coords_of(j)
        return self.index_of(tuple((x + y) % o
                                   for x, y, o in zip(a, b, self.factors)))

    def quotients(self, s):
        """[index of g s^{-1} for g in range(order)], by mixed-radix index
        arithmetic: along each axis, coordinate x goes to (x - s_axis) mod o."""
        table = [0]
        stride = 1
        for o, c in zip(self.factors, self.coords_of(s)):
            table = [t + (x - c) % o * stride for x in range(o) for t in table]
            stride *= o
        return table


@dataclass(frozen=True)
class GroupAlgebraElement:
    """Element of K[G]: coefficient per group element, mixed-radix order."""

    group: AbelianGroup
    field: FieldCtx
    coeffs: tuple

    def __post_init__(self):
        if len(self.coeffs) != self.group.order:
            raise Mismatch("need %d coefficients, got %d"
                           % (self.group.order, len(self.coeffs)))

    def __add__(self, other):
        return ga_add(self, other)

    def __sub__(self, other):
        return ga_sub(self, other)

    def __neg__(self):
        ctx = self.field
        return GroupAlgebraElement(
            self.group, ctx, tuple(ctx.neg(c) for c in self.coeffs))

    def is_zero(self):
        z = self.field.zero
        return all(c == z for c in self.coeffs)


def _elements(group, ctx, flat):
    """Cut raw coefficients, |G| per element, into elements of K[G]."""
    o = group.order
    return [GroupAlgebraElement(group, ctx, tuple(flat[i:i + o]))
            for i in range(0, len(flat), o)]


def ga_from_ints(group, ctx, ints):
    ints = tuple(ints)
    if not all(isinstance(n, int) for n in ints):
        raise InvariantViolation("coefficients must be ints, got %r" % (ints,))
    return GroupAlgebraElement(group, ctx, tuple(map(ctx.from_int, ints)))


def ga_zero(group, ctx):
    return GroupAlgebraElement(group, ctx, (ctx.zero,) * group.order)


def ga_one(group, ctx):
    return ga_sigma(group, ctx, 0)


def ga_sigma(group, ctx, idx):
    """The basis element for the group element with the given index."""
    if not isinstance(idx, int) or not 0 <= idx < group.order:
        raise InvariantViolation("group index %r is not in range(%d)"
                                 % (idx, group.order))
    coeffs = [ctx.zero] * group.order
    coeffs[idx] = ctx.one
    return GroupAlgebraElement(group, ctx, tuple(coeffs))


def ga_rand(group, ctx, rng):
    return GroupAlgebraElement(group, ctx,
                               tuple(ctx.rand(rng) for _ in range(group.order)))


def _check_pair(a, b):
    if a.group != b.group or a.field != b.field:
        raise Mismatch("operands live in different group algebras")


def ga_add(a, b):
    _check_pair(a, b)
    ctx = a.field
    return GroupAlgebraElement(
        a.group, ctx, tuple(ctx.add(x, y) for x, y in zip(a.coeffs, b.coeffs)))


def ga_sub(a, b):
    _check_pair(a, b)
    ctx = a.field
    return GroupAlgebraElement(
        a.group, ctx, tuple(ctx.sub(x, y) for x, y in zip(a.coeffs, b.coeffs)))


def ga_scale(a, c):
    """Scalar multiple; c may be an int, a raw value, or a FieldElement."""
    ctx = a.field
    if isinstance(c, ff.FieldElement):
        if c.ctx != ctx:
            raise Mismatch("scalar from a different field")
        c = c.value
    else:
        c = ff.elem(ctx, c).value
    return GroupAlgebraElement(a.group, ctx,
                               tuple(ctx.mul(c, x) for x in a.coeffs))


def ga_mul_naive(a, b):
    """Convolution by definition: O(order^2); the reference oracle."""
    _check_pair(a, b)
    G = a.group
    ctx = a.field
    out = [ctx.zero] * G.order
    zero = ctx.zero
    for s, as_ in enumerate(a.coeffs):
        if as_ == zero:
            continue
        for t, bt in enumerate(b.coeffs):
            if bt == zero:
                continue
            i = G.compose(s, t)
            out[i] = ctx.add(out[i], ctx.mul(as_, bt))
    return GroupAlgebraElement(G, ctx, tuple(out))


def ga_involution(a):
    """sigma -> sigma^{-1} extended linearly; a ring involution."""
    G = a.group
    return GroupAlgebraElement(
        G, a.field,
        tuple(a.coeffs[G.inverse_index(i)] for i in range(G.order)))


# --------------------------------------------------- packed (Kronecker) product
#
# A K[G] element becomes one Python int: coefficient (c_1, ..., c_I) of the
# invariant-factor axes goes to the slot sum_k c_k S_k, S_k = prod_{m<k}
# (2 o_m - 1), so an integer product adds exponents axis by axis without a
# carry from one axis into the next; over F_{p^d} coordinate u of the
# field value is one more, outermost axis of stride T = prod_k (2 o_k - 1).
# A slot is `width` bytes with 2^(8 width) above every sum the product can
# form, so the big-int product is the exact integer convolution.

_LAYOUT_CACHE = {}


def _layout(group):
    """(src, T): src[t] is the group index packed into slot t (group.order
    for a gap), T the slot count of one field coordinate of a product."""
    lay = _LAYOUT_CACHE.get(group.factors)
    if lay is None:
        pos, T = [0], 1
        for o in group.factors:
            pos = [t + c * T for c in range(o) for t in pos]
            T *= 2 * o - 1
        src = [group.order] * (pos[-1] + 1)
        for idx, t in enumerate(pos):
            src[t] = idx
        lay = _LAYOUT_CACHE[group.factors] = (src, T)
    return lay


def _slot_width(group, ctx, terms):
    """Bytes per slot for sums of `terms` products over F_{p^d}[G]: every
    slot stays below terms |G| d (p-1)^2."""
    bound = terms * group.order * ctx.d * (ctx.p - 1) ** 2
    return max(1, -(-bound.bit_length() // 8))


def _to_bytes(vals, width):
    """Little-endian slots of `width` bytes holding vals.  Up to 8 bytes
    the slots go through one 64-bit array, cut down in C."""
    if width > 8:
        return b"".join(v.to_bytes(width, "little") for v in vals)
    words = array("Q", vals)
    if sys.byteorder == "big":
        words.byteswap()
    raw = words.tobytes()
    if width < 8:
        cut = bytearray(len(words) * width)
        for j in range(width):
            cut[j::width] = raw[j::8]
        raw = cut
    return raw


def _from_bytes(buf, width):
    """The values of the `width`-byte slots of buf; the inverse of
    `_to_bytes`."""
    if width > 8:
        return [int.from_bytes(buf[i:i + width], "little")
                for i in range(0, len(buf), width)]
    if width < 8:
        raw = bytearray(len(buf) // width * 8)
        for j in range(width):
            raw[j::8] = buf[j::width]
        buf = raw
    words = array("Q", buf)
    if sys.byteorder == "big":
        words.byteswap()
    return words.tolist()


def _to_int(vals, width):
    """The int whose little-endian slots of `width` bytes hold vals."""
    return int.from_bytes(_to_bytes(vals, width), "little")


def _from_int(x, count, width):
    """The first count slots of x; the inverse of `_to_int`."""
    return _from_bytes(x.to_bytes(count * width, "little"), width)


def _pack_coeffs(group, ctx, flat, width):
    """One int per element of F_{p^d}[G] in flat, which holds |G| raw
    coefficients per element in mixed-radix order (flat is left as it
    is).  Field coordinate u starts at slot u T.  All slots go through
    one conversion to bytes."""
    src, T = _layout(group)
    o, d = group.order, ctx.d
    size = (d - 1) * T + len(src)  # slots per element
    if size != o:  # field coordinates, or gaps between the axes
        gap = [0] * (T - len(src))
        slots = []
        for e in range(0, len(flat), o):
            coeffs = flat[e:e + o]
            for u, c in enumerate([coeffs] if d == 1 else zip(*coeffs)):
                if u:
                    slots += gap
                c = [*c, 0]
                slots += [c[i] for i in src]
        flat = slots
    raw = _to_bytes(flat, width)
    step = size * width
    return [int.from_bytes(raw[i:i + step], "little")
            for i in range(0, len(raw), step)]


def _unpack_coeffs(group, ctx, xs, width, scale=None):
    """The raw coefficients of the elements whose packed products are xs,
    concatenated: fold each axis mod o_k, reduce x^w for w >= d along the
    field modulus, then mod p.  With scale (|G| raw values per element),
    each coefficient comes out times its scale value through ctx.vmul,
    still with one reduction per value."""
    _, T = _layout(group)
    d, p = ctx.d, ctx.p
    factors, count = group.factors, (2 * d - 1) * T
    if d == 1 and factors:
        # the outermost axis folds on the integer itself; a folded slot
        # still sums at most |G| products per term, so it does not carry
        count = T // (2 * factors[-1] - 1) * factors[-1]
        shift = 8 * width * count
        mask = (1 << shift) - 1
        xs = [(x & mask) + (x >> shift) for x in xs]
        factors = factors[:-1]
    size = count * width
    vals = _from_bytes(b"".join([x.to_bytes(size, "little") for x in xs]),
                       width)
    # every axis folds whole blocks, so the elements never mix
    stride = 1
    for o in factors:
        wide, keep = (2 * o - 1) * stride, o * stride
        folded = []
        for start in range(0, len(vals), wide):
            lo = vals[start:start + keep]
            hi = vals[start + keep:start + wide]
            folded += [u + v for u, v in zip(lo, hi)]
            folded += lo[len(hi):]
        vals, stride = folded, keep
    if d == 1:
        return ([v % p for v in vals] if scale is None
                else ctx.vmul(vals, scale))
    o = group.order
    coords = []
    for e in range(0, len(vals), (2 * d - 1) * o):
        power = [vals[e + w * o:e + (w + 1) * o] for w in range(2 * d - 1)]
        for w in range(2 * d - 2, d - 1, -1):
            for j, rj in enumerate(ctx._red[w - d]):
                if rj:
                    power[j] = [u + rj * v
                                for u, v in zip(power[j], power[w])]
        coords += zip(*power[:d])
    if scale is None:
        return [tuple([c % p for c in coeff]) for coeff in coords]
    return ctx.vmul(coords, scale)  # reduces the unreduced coords once


def ga_mul_fast(a, b):
    """Product in K[G] by Kronecker substitution: a and b packed into one
    int each (see `_pack_coeffs`), one CPython big-int product (Karatsuba
    above a size threshold), one unpacking.  Always equals ga_mul_naive.

    Nominal cost, added to OPS: one multiplication and one addition per
    slot of the packed product, 2 (2d - 1) prod_k (2 o_k - 1)."""
    _check_pair(a, b)
    G = a.group
    ctx = a.field
    if not G.factors:
        return GroupAlgebraElement(G, ctx,
                                   (ctx.mul(a.coeffs[0], b.coeffs[0]),))
    width = _slot_width(G, ctx, 1)
    OPS.add(2 * (2 * ctx.d - 1) * _layout(G)[1])
    x, y = _pack_coeffs(G, ctx, a.coeffs + b.coeffs, width)
    return GroupAlgebraElement(
        G, ctx, tuple(_unpack_coeffs(G, ctx, [x * y], width)))


@dataclass(frozen=True)
class FourierImage:
    """Values of an element on all characters, dual mixed-radix order.

    Character (k1, ..., kI) sends the i-th generator to omega_i^{k_i} with
    omega_i = omega^(e / o_i); recording omega pins the indexing.
    """

    group: AbelianGroup
    field: FieldCtx
    omega: object
    values: tuple

    def __post_init__(self):
        if len(self.values) != self.group.order:
            raise Mismatch("need %d values" % self.group.order)
        if not self.field.are_raw((self.omega, *self.values)):
            raise InvariantViolation("values and root must be raw values")


# ------------------------------------------------------------ cyclic plans

_PLAN_CACHE = {}


def _cyclic_plan(ctx, n, omega):
    """Bluestein's chirp for one (field, length, root), n >= 2, as
    (beta_inv, group, width, chirp): out_j = binv_j (b * nrev)_{n-1+j}
    with b_i = omega^(i(i-1)/2), and the convolution is one packed product
    in K[Z/t], t = 3n - 2, where the zero-padded operands are short enough
    that no index wraps around.  Checking the root and building the plan
    are set-up, so neither counts in OPS."""
    key = (ctx, n, omega)
    plan = _PLAN_CACHE.get(key)
    if plan is not None:
        return plan
    before = OPS.count
    try:
        if omega == ctx.zero or ctx.element_order(omega) != n:
            raise BadRootOrder("root does not have exact order %d" % n)
        beta = [ctx.one]
        cur = ctx.one
        wk = ctx.one
        for i in range(2 * n - 2):
            cur = ctx.mul(cur, wk)      # beta_{i+1} = beta_i * omega^i
            wk = ctx.mul(wk, omega)
            beta.append(cur)
        beta_inv = [ctx.inv(b) for b in beta[:n]]
    finally:
        OPS.count = before
    group = AbelianGroup([3 * n - 2])
    width = _slot_width(group, ctx, 1)
    (chirp,) = _pack_coeffs(group, ctx, beta + [ctx.zero] * (n - 1), width)
    plan = _PLAN_CACHE[key] = (beta_inv, group, width, chirp)
    return plan


def _run_bluestein(ctx, values, plan):
    """The plan's transform of each length-n strand of values, concatenated:
    one packing, one product by the chirp per strand, one unpacking.
    Nominal cost per strand, added to OPS: the packed product's
    2 (2d - 1) (3n - 2) and the 2n weightings."""
    beta_inv, group, width, chirp = plan
    n, t = len(beta_inv), group.order
    weights = beta_inv * (len(values) // n)
    weighted, pad = ctx.vmul(weights, values), [ctx.zero] * (2 * n - 2)
    # each strand beta_inv-weighted, reversed and zero-padded to length t
    xs = _pack_coeffs(group, ctx, [x for s in range(0, len(values), n)
                                   for x in weighted[s:s + n][::-1] + pad],
                      width)
    r = _unpack_coeffs(group, ctx, [chirp * x for x in xs], width)
    OPS.add(len(xs) * 2 * (2 * ctx.d - 1) * t)
    return ctx.vmul(weights, [x for s in range(n - 1, len(r), t)
                              for x in r[s:s + n]])


def ft_cyclic(ctx, values, omega):
    """DFT of length len(values): out_j = sum_i omega^(ij) values_i."""
    n = len(values)
    if n <= 1:
        if n and omega != ctx.one:
            raise BadRootOrder("a first root of unity must be 1")
        return list(values)
    return _run_bluestein(ctx, values, _cyclic_plan(ctx, n, omega))


# ------------------------------------------------------- group transforms


def _transform(ctx, data, group, omega):
    """The Fourier images of the elements in data, |G| raw values each, in
    place: per axis, all strands of all elements go through one
    `_run_bluestein`.  The last axis takes omega itself as its root, so
    its plan checks that omega has exact order e (BadRootOrder otherwise)."""
    if not ctx.are_raw((omega,)):
        raise InvariantViolation("root %r is not a raw value" % (omega,))
    stride = 1
    for o in group.factors:
        plan = _cyclic_plan(ctx, o, ctx.pow_(omega, group.exponent // o))
        # data[b::stride] is every strand at offset b, one after another
        size = len(data) // stride
        out = _run_bluestein(ctx, [x for b in range(stride)
                                   for x in data[b::stride]], plan)
        for b in range(stride):
            data[b::stride] = out[b * size:(b + 1) * size]
        stride *= o
    return data


def _inverse_transform(ctx, data, group, omega):
    """The elements whose Fourier images data holds (|G| raw values each):
    the dual-group transform, then 1/|G| and ι on each element."""
    o = group.order
    if ctx.from_int(o) == ctx.zero:
        raise OrderDividesCharacteristic(
            "group order %d vanishes in characteristic %d" % (o, ctx.p))
    data = _transform(ctx, data, group, omega)
    inv = [group.inverse_index(i) for i in range(o)]
    return ctx.vmul([ctx.inv(ctx.from_int(o))] * len(data),
                    [data[e + i] for e in range(0, len(data), o) for i in inv])


def ft_group(a, omega):
    """Evaluate a on every character of G; needs omega of exact order e."""
    G, ctx = a.group, a.field
    if not G.factors and omega != ctx.one:
        raise BadRootOrder("trivial group takes omega = 1")
    return FourierImage(G, ctx, omega,
                        tuple(_transform(ctx, list(a.coeffs), G, omega)))


def ft_inverse(F: FourierImage) -> GroupAlgebraElement:
    """Inverse transform: dual-group transform, scale by 1/order, then ι."""
    return GroupAlgebraElement(F.group, F.field, tuple(_inverse_transform(
        F.field, list(F.values), F.group, F.omega)))
