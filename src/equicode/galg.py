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
A cyclic transform of length n has one plan: a radix-2 NTT over a prime
field when n is a power of two, and otherwise Bluestein's chirp, whose
convolution is one packed product.  Everything here is a pure function of
immutable values; plans (twiddle tables, packed chirps) are cached per
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
        factors = tuple(int(o) for o in invariant_factors)
        for i, o in enumerate(factors):
            if o < 2:
                raise InvariantViolation("invariant factor %d < 2" % o)
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
    return GroupAlgebraElement(group, ctx,
                               tuple(ctx.from_int(n) for n in ints))


def ga_zero(group, ctx):
    return GroupAlgebraElement(group, ctx, (ctx.zero,) * group.order)


def ga_one(group, ctx):
    return ga_sigma(group, ctx, 0)


def ga_sigma(group, ctx, idx):
    """The basis element for the group element with the given index."""
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
    elif isinstance(c, int):
        c = ctx.from_int(c)
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
    each coefficient comes out times its scale value, still with one
    reduction per value; those multiplications go to OPS."""
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
        if scale is None:
            return [v % p for v in vals]
        OPS.add(len(vals))
        return [v * s % p for v, s in zip(vals, scale)]
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
    # ctx.mul reduces its unreduced operand once and counts itself
    return [ctx.mul(v, s) for v, s in zip(coords, scale)]


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


# ------------------------------------------------------------ cyclic plans

_PLAN_CACHE = {}


def _root_has_exact_order(ctx, omega, n):
    if ctx.pow_(omega, n) != ctx.one:
        return False
    for r in ff.factorize(n):
        if ctx.pow_(omega, n // r) == ctx.one:
            return False
    return True


def _bit_reverse_inplace(a):
    n = len(a)
    j = 0
    for i in range(1, n):
        bit = n >> 1
        while j & bit:
            j ^= bit
            bit >>= 1
        j |= bit
        if i < j:
            a[i], a[j] = a[j], a[i]


def _ntt_prime(a, p, wtab):
    """In-place radix-2 transform of int list a, len a 2-power; wtab[j]=w^j."""
    n = len(a)
    _bit_reverse_inplace(a)
    length = 2
    while length <= n:
        step = n // length
        half = length >> 1
        for start in range(0, n, length):
            widx = 0
            for k in range(start, start + half):
                u = a[k]
                v = a[k + half] * wtab[widx] % p
                a[k] = (u + v) % p
                a[k + half] = (u - v) % p
                widx += step
        length <<= 1
    if OPS.enabled:
        OPS.count += 3 * (n >> 1) * (n.bit_length() - 1)
    return a


def _power_table(ctx, w, count):
    out = [ctx.one]
    cur = ctx.one
    for _ in range(count - 1):
        cur = ctx.mul(cur, w)
        out.append(cur)
    return out


def _cyclic_plan(ctx, n, omega):
    key = (ctx, n, omega)
    plan = _PLAN_CACHE.get(key)
    if plan is not None:
        return plan
    if n == 1:
        if omega != ctx.one:
            raise BadRootOrder("a first root of unity must be 1")
        plan = ("identity",)
    else:
        if not _root_has_exact_order(ctx, omega, n):
            raise BadRootOrder("root does not have exact order %d" % n)
        before = OPS.count  # table building is setup, not per-call work
        try:
            plan = _build_plan(ctx, n, omega)
        finally:
            OPS.count = before
    _PLAN_CACHE[key] = plan
    return plan


def _build_plan(ctx, n, omega):
    """The plan for one (field, length, root), n >= 2: a radix-2 NTT over
    a prime field when n is a power of two, Bluestein's chirp otherwise."""
    if ctx.d == 1 and n & (n - 1) == 0:
        return ("ntt", _power_table(ctx, omega, n >> 1))
    # Bluestein: out_j = binv_j * (b * nrev)_{n-1+j} with b_i = w^{i(i-1)/2};
    # the convolution is one packed product in K[Z/t], t = 3n - 2, where the
    # zero-padded operands are short enough that no index wraps around
    beta = [ctx.one]
    cur = ctx.one
    wk = ctx.one
    for i in range(2 * n - 2):
        cur = ctx.mul(cur, wk)      # beta_{i+1} = beta_i * omega^i
        wk = ctx.mul(wk, omega)
        beta.append(cur)
    beta_inv = [ctx.inv(beta[i]) for i in range(n)]
    group = AbelianGroup([3 * n - 2])
    width = _slot_width(group, ctx, 1)
    (chirp,) = _pack_coeffs(group, ctx, beta + [ctx.zero] * (n - 1), width)
    return ("bluestein", beta_inv, group, width, chirp)


def _run_bluestein(ctx, values, plan):
    """The Bluestein plan's transform.  Nominal cost of the packed
    product, added to OPS: 2 (2d - 1) (3n - 2)."""
    _, beta_inv, group, width, chirp = plan
    n = len(values)
    mul = ctx.mul
    # reversed beta_inv-weighted input, zero-padded to length t
    nvec = [mul(beta_inv[n - 1 - l], values[n - 1 - l]) for l in range(n)]
    nvec += [ctx.zero] * (2 * n - 2)
    (x,) = _pack_coeffs(group, ctx, nvec, width)
    r = _unpack_coeffs(group, ctx, [chirp * x], width)
    OPS.add(2 * (2 * ctx.d - 1) * (3 * n - 2))
    return [mul(beta_inv[i], r[n - 1 + i]) for i in range(n)]


def _ft_cyclic_raw(ctx, values, plan):
    kind = plan[0]
    if kind == "identity":
        return list(values)
    if kind == "ntt":
        return _ntt_prime(list(values), ctx.p, plan[1])
    return _run_bluestein(ctx, values, plan)


def ft_cyclic(ctx, values, omega):
    """DFT of length len(values): out_j = sum_i omega^(ij) values_i."""
    n = len(values)
    if n == 0:
        return []
    return _ft_cyclic_raw(ctx, values, _cyclic_plan(ctx, n, omega))


# ------------------------------------------------------- group transforms


def _axis_transform(ctx, data, group, omega_axis):
    """Apply the cyclic transform along each invariant-factor axis in turn."""
    order = group.order
    stride = 1
    for ax, o in enumerate(group.factors):
        plan = _cyclic_plan(ctx, o, omega_axis[ax])
        block = stride * o
        for start in range(0, order, block):
            for off in range(stride):
                base = start + off
                strand = [data[base + t * stride] for t in range(o)]
                strand = _ft_cyclic_raw(ctx, strand, plan)
                for t in range(o):
                    data[base + t * stride] = strand[t]
        stride = block
    return data


def _axis_roots(ctx, group, omega):
    e = group.exponent
    return [ctx.pow_(omega, e // o) for o in group.factors]


def ft_group(a, omega):
    """Evaluate a on every character of G; needs omega of exact order e."""
    G = a.group
    ctx = a.field
    if not G.factors:
        if omega != ctx.one:
            raise BadRootOrder("trivial group takes omega = 1")
        return FourierImage(G, ctx, omega, a.coeffs)
    # the last axis has order e and root omega itself, so building its
    # plan checks the exact order (BadRootOrder otherwise)
    data = _axis_transform(ctx, list(a.coeffs), G, _axis_roots(ctx, G, omega))
    return FourierImage(G, ctx, omega, tuple(data))


def ft_inverse(F: FourierImage) -> GroupAlgebraElement:
    """Inverse transform: dual-group transform, scale by 1/order, then ι."""
    G = F.group
    ctx = F.field
    if ctx.from_int(G.order) == ctx.zero:
        raise OrderDividesCharacteristic(
            "group order %d vanishes in characteristic %d" % (G.order, ctx.p))
    if not G.factors:
        return GroupAlgebraElement(G, ctx, F.values)
    data = _axis_transform(ctx, list(F.values), G,
                           _axis_roots(ctx, G, F.omega))
    scale = ctx.inv(ctx.from_int(G.order))
    coeffs = [None] * G.order
    for idx in range(G.order):
        coeffs[idx] = ctx.mul(scale, data[G.inverse_index(idx)])
    return GroupAlgebraElement(G, ctx, tuple(coeffs))
