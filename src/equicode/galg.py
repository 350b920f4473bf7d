"""The group algebra K[G] for a finite abelian group G.

G is presented by its invariant factors [o1, ..., oI] (each dividing the
next); elements of G are mixed-radix indices, elements of K[G] are length-|G|
coefficient vectors over a FieldCtx.  Multiplication is convolution, and the
fast path runs through Fourier transforms:

* when the exponent e of G divides q - 1, transforms happen inside K itself;
* for prime fields without enough roots, coefficients are lifted to an
  auxiliary prime field F_{p'} chosen so the integer convolution is exact;
* extension fields reduce to d^2 prime-field products sharing one p'.

Everything here is a pure function of immutable values; transform plans
(twiddle tables, chirp tables) are cached per (field, length, root).
"""

from __future__ import annotations

from dataclasses import dataclass

from . import ff
from .errors import (
    BadRootOrder,
    InvariantViolation,
    Mismatch,
    NotPrimeField,
    OrderDividesCharacteristic,
    SearchExhausted,
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


def _ntt_ctx(ctx, a, wtab):
    """Same transform through ctx ops (extension fields)."""
    n = len(a)
    _bit_reverse_inplace(a)
    add, sub, mul = ctx.add, ctx.sub, ctx.mul
    length = 2
    while length <= n:
        step = n // length
        half = length >> 1
        for start in range(0, n, length):
            widx = 0
            for k in range(start, start + half):
                u = a[k]
                v = mul(a[k + half], wtab[widx])
                a[k] = add(u, v)
                a[k + half] = sub(u, v)
                widx += step
        length <<= 1
    return a


def _ntt(ctx, a, wtab):
    if ctx.d == 1:
        return _ntt_prime(a, ctx.p, wtab)
    return _ntt_ctx(ctx, a, wtab)


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
        counting = OPS.enabled
        OPS.enabled = False  # table building is setup, not per-call work
        try:
            plan = _build_plan(ctx, n, omega)
        finally:
            OPS.enabled = counting
    _PLAN_CACHE[key] = plan
    return plan


def _build_plan(ctx, n, omega):
    if n & (n - 1) == 0:
        return ("ntt", _power_table(ctx, omega, n >> 1) if n > 1 else [ctx.one])
    if n < 32:
        rows = []
        wpow = _power_table(ctx, omega, n)
        for j in range(n):
            rows.append([wpow[(i * j) % n] for i in range(n)])
        return ("direct", rows)
    # Bluestein: out_j = binv_j * (b * nrev)_{n-1+j} with b_i = w^{i(i-1)/2}
    beta = [ctx.one]
    cur = ctx.one
    wk = ctx.one
    for i in range(2 * n - 2):
        cur = ctx.mul(cur, wk)      # beta_{i+1} = beta_i * omega^i
        wk = ctx.mul(wk, omega)
        beta.append(cur)
    beta_inv = [ctx.inv(beta[i]) for i in range(n)]
    t = 1
    while t < 3 * n - 2:
        t <<= 1
    if (ctx.q - 1) % t == 0:
        wt = ff.root_of_unity(ctx, t)
        wtab = _power_table(ctx, wt, t >> 1)
        wtab_inv = _power_table(ctx, ctx.inv(wt), t >> 1)
        t_inv = ctx.inv(ctx.from_int(t))
        b_hat = _ntt(ctx, list(beta) + [ctx.zero] * (t - len(beta)), wtab)
        return ("bluestein_ntt", beta_inv, t, wtab, wtab_inv, t_inv, b_hat)
    if ctx.d == 1:
        bits = (n * (ctx.p - 1) ** 2).bit_length()
        packed_b = 0
        for i, c in enumerate(beta):
            packed_b |= c << (bits * i)
        return ("bluestein_kron", beta_inv, packed_b, bits, (1 << bits) - 1)
    return ("bluestein_school", beta_inv, beta)


def _run_bluestein(ctx, values, plan):
    n = len(values)
    beta_inv = plan[1]
    mul = ctx.mul
    # n-polynomial: reversed beta_inv-weighted input
    nvec = [mul(beta_inv[n - 1 - l], values[n - 1 - l]) for l in range(n)]
    kind = plan[0]
    if kind == "bluestein_ntt":
        _, _, t, wtab, wtab_inv, t_inv, b_hat = plan
        buf = nvec + [ctx.zero] * (t - n)
        _ntt(ctx, buf, wtab)
        buf = [mul(x, y) for x, y in zip(buf, b_hat)]
        _ntt(ctx, buf, wtab_inv)
        r = [mul(x, t_inv) for x in buf]
    elif kind == "bluestein_kron":
        _, _, packed_b, bits, mask = plan
        p = ctx.p
        packed_n = 0
        for i, c in enumerate(nvec):
            packed_n |= c << (bits * i)
        prod = packed_b * packed_n
        # only indices n-1 .. 2n-2 of the product are read below
        r = [((prod >> (bits * i)) & mask) % p for i in range(2 * n - 1)]
        if OPS.enabled:
            OPS.count += 2 * (3 * n - 2)  # nominal cost of the packed product
    else:
        _, _, beta = plan
        r = ff.poly_mul(beta, nvec, ctx)
        r += [ctx.zero] * (3 * n - 2 - len(r))
    return [mul(beta_inv[i], r[n - 1 + i]) for i in range(n)]


def _ft_cyclic_raw(ctx, values, plan):
    kind = plan[0]
    if kind == "identity":
        return list(values)
    if kind == "ntt":
        return _ntt(ctx, list(values), plan[1])
    if kind == "direct":
        add, mul, zero = ctx.add, ctx.mul, ctx.zero
        out = []
        for row in plan[1]:
            acc = zero
            for w, v in zip(row, values):
                acc = add(acc, mul(w, v))
            out.append(acc)
        return out
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


# ---------------------------------------------------------- prime lifting


def find_lifting_prime(order, exponent, p):
    """Smallest prime p' = 1 mod order*(p-1)^2*t, t = least 2-power > 3e-3.

    p' > order*(p-1)^2, so integer convolutions of mod-p lifts fit exactly;
    order, exponent and t all divide p'-1, so F_{p'} has every needed root.
    """
    t = 1
    while t <= 3 * exponent - 3:
        t <<= 1
    modulus = order * (p - 1) ** 2 * t
    candidate = modulus + 1
    for _ in range(10 ** 9):
        if ff.is_probable_prime(candidate):
            return candidate, t
        candidate += modulus
    raise SearchExhausted("no prime found for modulus %d" % modulus)


_LIFT_CACHE = {}


class _LiftContext:
    """Shared machinery for exact convolution of mod-p vectors over F_{p'}."""

    __slots__ = ("p", "p_prime", "t", "ctx", "omega", "bound")

    def __init__(self, group, p):
        p_prime, t = find_lifting_prime(group.order, group.exponent, p)
        self.p = p
        self.p_prime = p_prime
        self.t = t
        self.ctx = ff.field_make(p_prime)
        self.omega = ff.root_of_unity(self.ctx, group.exponent)
        self.bound = group.order * (p - 1) ** 2


def _lift_context(group, p):
    key = (group.factors, p)
    lc = _LIFT_CACHE.get(key)
    if lc is None:
        lc = _LiftContext(group, p)
        _LIFT_CACHE[key] = lc
    return lc


def _lift_forward(lc, group, ints):
    """Transform a mod-p coefficient list in F_{p'}; values embed as-is."""
    return _axis_transform(lc.ctx, list(ints), group,
                           _axis_roots(lc.ctx, group, lc.omega))


def _lift_backward(lc, group, spectrum):
    """Inverse transform over F_{p'}, then reduce coefficients back mod p."""
    ctx = lc.ctx
    data = _axis_transform(ctx, list(spectrum), group,
                           _axis_roots(ctx, group, lc.omega))
    scale = ctx.inv(ctx.from_int(group.order))
    out = [0] * group.order
    bound = lc.bound
    p = lc.p
    for idx in range(group.order):
        v = ctx.mul(scale, data[group.inverse_index(idx)])
        if v > bound:
            raise InvariantViolation(
                "lifted coefficient %d exceeds the exactness bound %d"
                % (v, bound))
        out[idx] = v % p
    return out


def ga_mul_lifted(a, b):
    """Product in (Z/pZ)[G] via an auxiliary prime field rich in roots."""
    _check_pair(a, b)
    ctx = a.field
    if ctx.d != 1:
        raise NotPrimeField("prime lifting needs a prime field, got F_%d^%d"
                            % (ctx.p, ctx.d))
    G = a.group
    if not G.factors:
        return GroupAlgebraElement(G, ctx,
                                   (ctx.mul(a.coeffs[0], b.coeffs[0]),))
    lc = _lift_context(G, ctx.p)
    fa = _lift_forward(lc, G, a.coeffs)
    fb = _lift_forward(lc, G, b.coeffs)
    mul = lc.ctx.mul
    prod = [mul(x, y) for x, y in zip(fa, fb)]
    return GroupAlgebraElement(G, ctx, tuple(_lift_backward(lc, G, prod)))


# ------------------------------------------------------------ fast product


def ga_mul_fast(a, b):
    """Product in K[G], quasi-linear in the group order.

    Dispatch: transforms inside K when the exponent divides q-1 (the split
    case; the group order is then automatically invertible), prime lifting
    for prime fields otherwise, and d^2 lifted prime-field products for
    extension fields.  Always equals ga_mul_naive.
    """
    _check_pair(a, b)
    G = a.group
    ctx = a.field
    if not G.factors:
        return GroupAlgebraElement(G, ctx,
                                   (ctx.mul(a.coeffs[0], b.coeffs[0]),))
    if (ctx.q - 1) % G.exponent == 0:
        omega = ff.root_of_unity(ctx, G.exponent)
        fa = ft_group(a, omega)
        fb = ft_group(b, omega)
        mul = ctx.mul
        prod = tuple(mul(x, y) for x, y in zip(fa.values, fb.values))
        return ft_inverse(FourierImage(G, ctx, omega, prod))
    if ctx.d == 1:
        return ga_mul_lifted(a, b)
    return _ga_mul_extension(a, b)


def _ga_mul_extension(a, b):
    """Extension-field product via d^2 prime-field products sharing one p'."""
    G = a.group
    ctx = a.field
    d = ctx.d
    p = ctx.p
    lc = _lift_context(G, p)
    order = G.order
    fa = [_lift_forward(lc, G, [a.coeffs[s][u] for s in range(order)])
          for u in range(d)]
    fb = [_lift_forward(lc, G, [b.coeffs[s][v] for s in range(order)])
          for v in range(d)]
    mul = lc.ctx.mul
    # power[w][s]: coefficient of x^w at group index s, as ints mod p
    power = [[0] * order for _ in range(2 * d - 1)]
    for u in range(d):
        for v in range(d):
            spectrum = [mul(x, y) for x, y in zip(fa[u], fb[v])]
            down = _lift_backward(lc, G, spectrum)
            row = power[u + v]
            for s in range(order):
                row[s] = (row[s] + down[s]) % p
    # fold x^w for w >= d down along the field modulus
    red = ctx._red
    for w in range(2 * d - 2, d - 1, -1):
        src = power[w]
        row = red[w - d]
        for j in range(d):
            rj = row[j]
            if rj:
                dst = power[j]
                for s in range(order):
                    dst[s] = (dst[s] + rj * src[s]) % p
    coeffs = tuple(tuple(power[j][s] for j in range(d)) for s in range(order))
    return GroupAlgebraElement(G, ctx, coeffs)
