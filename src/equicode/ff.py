"""Exact arithmetic in finite fields F_{p^d}.

Elements are carried in a polynomial basis over Z/pZ with an explicit monic
irreducible modulus (coefficients listed low degree first).  Two layers:

* raw values: an int in [0, p) when d == 1, else a tuple of d ints.  All the
  heavy inner loops elsewhere in the package work on raw values through a
  FieldCtx, which keeps the arithmetic allocation-free.
* FieldElement: a thin frozen wrapper with operator overloads for tests and
  for the public API.

A module-level operation counter (OPS) measures how many field operations
a computation performs; transforms report their work there.  It counts
while any `count_field_ops()` block is open.  Blocks nest: each yields its
own handle, whose count is the operations made inside that block, inner
blocks included.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from dataclasses import dataclass

from .errors import (
    CompositeP,
    CtxMismatch,
    DegreeMismatch,
    DivisionByZero,
    NoSuchRoot,
    ReducibleModulus,
)

# ----------------------------------------------------------------- counting


class OpCounter:
    """Cheap operation counter: a running total, enabled while any
    `count_field_ops()` block is open."""

    __slots__ = ("enabled", "count", "blocks")

    def __init__(self):
        self.enabled = False
        self.count = 0
        self.blocks = 0

    def add(self, n):
        if self.enabled:
            self.count += n


OPS = OpCounter()


class OpCount:
    """One `count_field_ops()` block's handle; .count is set when the
    block closes."""

    __slots__ = ("count",)


@contextmanager
def count_field_ops():
    """Count field operations inside the block; read .count of the handle
    after the block exits.  Blocks nest: each counts the operations made
    inside it, inner blocks included."""
    handle, start = OpCount(), OPS.count
    OPS.blocks += 1
    OPS.enabled = True
    try:
        yield handle
    finally:
        handle.count = OPS.count - start
        OPS.blocks -= 1
        OPS.enabled = OPS.blocks > 0


# ---------------------------------------------------------------- primality

# Deterministic Miller-Rabin witness set, valid for n < 3.317e24.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3_317_044_064_679_887_385_961_981


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin; deterministic below _MR_LIMIT (all desk-scale inputs)."""
    if n < 2:
        return False
    for small in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41):
        if n % small == 0:
            return n == small
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        if a % n == 0:
            continue
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int) -> int:
    """One nontrivial factor of composite odd n; deterministic constant sweep."""
    if n % 2 == 0:
        return 2
    for c in range(1, 64):
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = _gcd(abs(x - y), n)
        if d != n:
            return d
    raise RuntimeError("rho failed on %d" % n)  # pragma: no cover


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a


def factorize(n: int) -> dict:
    """Prime factorization {p: exponent}; trial division to 1e6, then rho."""
    if n <= 0:
        raise ValueError("factorize expects a positive integer")
    out = {}
    for p in (2, 3, 5):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    f = 7
    wheel = (4, 2, 4, 2, 4, 6, 2, 6)
    i = 0
    while f * f <= n and f < 1_000_000:
        while n % f == 0:
            out[f] = out.get(f, 0) + 1
            n //= f
        f += wheel[i]
        i = (i + 1) % 8
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_probable_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        d = _pollard_rho(m)
        stack.append(d)
        stack.append(m // d)
    return out


# --------------------------------------------------- generic polynomial ops
#
# Polynomials are lists of raw field values, low degree first, not
# necessarily trimmed.  The ctx argument supplies the coefficient field, so
# the same helpers serve Z/pZ modulus generation and extension towers.


def poly_trim(f):
    n = len(f)
    while n > 0 and not _raw_truthy(f[n - 1]):
        n -= 1
    return f[:n]


def _raw_truthy(v):
    if isinstance(v, tuple):
        return any(v)
    return bool(v)


def poly_add(f, g, ctx):
    n = max(len(f), len(g))
    zero = ctx.zero
    out = []
    for i in range(n):
        a = f[i] if i < len(f) else zero
        b = g[i] if i < len(g) else zero
        out.append(ctx.add(a, b))
    return out


def poly_mul(f, g, ctx):
    f = poly_trim(f)
    g = poly_trim(g)
    if not f or not g:
        return []
    out = [ctx.zero] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if not _raw_truthy(a):
            continue
        for j, b in enumerate(g):
            out[i + j] = ctx.add(out[i + j], ctx.mul(a, b))
    return out


def poly_divmod(f, g, ctx):
    f = poly_trim(list(f))
    g = poly_trim(list(g))
    if not g:
        raise DivisionByZero("polynomial division by zero")
    lead_inv = ctx.inv(g[-1])
    q = [ctx.zero] * max(0, len(f) - len(g) + 1)
    r = f
    while len(r) >= len(g):
        shift = len(r) - len(g)
        c = ctx.mul(r[-1], lead_inv)
        q[shift] = c
        for i in range(len(g)):
            r[shift + i] = ctx.sub(r[shift + i], ctx.mul(c, g[i]))
        r = poly_trim(r)
    return q, r


def poly_mod(f, g, ctx):
    return poly_divmod(f, g, ctx)[1]


def poly_gcd(f, g, ctx):
    f = poly_trim(list(f))
    g = poly_trim(list(g))
    while g:
        f, g = g, poly_mod(f, g, ctx)
    if f:
        c = ctx.inv(f[-1])
        f = [ctx.mul(a, c) for a in f]
    return f


def poly_powmod(base, e, modulus, ctx):
    result = [ctx.one]
    base = poly_mod(base, modulus, ctx)
    while e > 0:
        if e & 1:
            result = poly_mod(poly_mul(result, base, ctx), modulus, ctx)
        base = poly_mod(poly_mul(base, base, ctx), modulus, ctx)
        e >>= 1
    return result


def poly_is_irreducible(f, ctx) -> bool:
    """Rabin's test over the coefficient field of ctx (cardinality ctx.q)."""
    f = poly_trim(list(f))
    n = len(f) - 1
    if n <= 0:
        return False
    if n == 1:
        return True
    q = ctx.q
    x = [ctx.zero, ctx.one]
    # x^(q^n) == x mod f
    xq = poly_powmod(x, q ** n, f, ctx)
    if poly_trim(poly_add(xq, [ctx.zero, ctx.neg(ctx.one)], ctx)) != []:
        return False
    for r in factorize(n):
        xqr = poly_powmod(x, q ** (n // r), f, ctx)
        h = poly_trim(poly_add(xqr, [ctx.zero, ctx.neg(ctx.one)], ctx))
        if poly_gcd(h, f, ctx) != [ctx.one]:
            return False
    return True


def poly_random_monic_irreducible(ctx, degree, rng):
    """Uniform-ish random monic irreducible of the given degree over ctx."""
    while True:
        f = [ctx.rand(rng) for _ in range(degree)] + [ctx.one]
        if poly_is_irreducible(f, ctx):
            return f


# Plain mod-p list polynomials (int coefficients, low degree first).  Used
# by FieldCtx.inv, where the ctx-parameterized helpers above would be
# circular.


def _ztrim(f):
    while f and f[-1] == 0:
        f.pop()
    return f


def _zsub(f, g, p):
    n = max(len(f), len(g))
    return _ztrim([((f[i] if i < len(f) else 0) - (g[i] if i < len(g) else 0)) % p
                   for i in range(n)])


def _zmul(f, g, p):
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] = (out[i + j] + a * b) % p
    return _ztrim(out)


def _zdivmod(f, g, p):
    f = list(f)
    q = [0] * max(0, len(f) - len(g) + 1)
    inv_lead = pow(g[-1], -1, p)
    while len(f) >= len(g):
        shift = len(f) - len(g)
        c = f[-1] * inv_lead % p
        q[shift] = c
        for i in range(len(g)):
            f[shift + i] = (f[shift + i] - c * g[i]) % p
        _ztrim(f)
    return q, f


# -------------------------------------------------------------------- field


class FieldCtx:
    """Immutable description of F_{p^d}; all raw-value arithmetic lives here.

    For d == 1 raw values are plain ints mod p; for d > 1 they are length-d
    tuples of ints (polynomial coordinates, low degree first).  The private
    caches are memoization only and never change observable behaviour.
    """

    __slots__ = ("p", "d", "q", "modulus", "zero", "one",
                 "_red", "_gen_cache", "_root_cache", "_q1_factors")

    def __init__(self, p, d, modulus):
        self.p = p
        self.d = d
        self.q = p ** d
        self.modulus = tuple(modulus)
        if d == 1:
            self.zero = 0
            self.one = 1
            self._red = None
        else:
            self.zero = (0,) * d
            self.one = (1,) + (0,) * (d - 1)
            # reduction rows: x^(d+i) mod modulus for i = 0..d-2
            rows = []
            # x^d = -modulus[:d]
            cur = [(-c) % p for c in modulus[:d]]
            rows.append(tuple(cur))
            for _ in range(d - 2):
                nxt = [0] * d
                carry = cur[d - 1]
                for j in range(d - 1, 0, -1):
                    nxt[j] = cur[j - 1]
                if carry:
                    for j in range(d):
                        nxt[j] = (nxt[j] + carry * rows[0][j]) % p
                cur = nxt
                rows.append(tuple(cur))
            self._red = tuple(rows)
        self._gen_cache = {}
        self._root_cache = {}
        self._q1_factors = None

    # identity is by construction parameters, not object id
    def __eq__(self, other):
        return (isinstance(other, FieldCtx)
                and self.p == other.p and self.d == other.d
                and self.modulus == other.modulus)

    def __hash__(self):
        return hash((self.p, self.d, self.modulus))

    def __repr__(self):
        if self.d == 1:
            return "F(%d)" % self.p
        return "F(%d^%d)" % (self.p, self.d)

    # --- raw arithmetic ---------------------------------------------------

    def add(self, a, b):
        if OPS.enabled:
            OPS.count += 1
        if self.d == 1:
            return (a + b) % self.p
        p = self.p
        return tuple((x + y) % p for x, y in zip(a, b))

    def sub(self, a, b):
        if OPS.enabled:
            OPS.count += 1
        if self.d == 1:
            return (a - b) % self.p
        p = self.p
        return tuple((x - y) % p for x, y in zip(a, b))

    def neg(self, a):
        if OPS.enabled:
            OPS.count += 1
        if self.d == 1:
            return (-a) % self.p
        p = self.p
        return tuple((-x) % p for x in a)

    def mul(self, a, b):
        if OPS.enabled:
            OPS.count += 1
        p = self.p
        if self.d == 1:
            return a * b % p
        d = self.d
        prod = [0] * (2 * d - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    prod[i + j] += ai * bj
        red = self._red
        for k in range(2 * d - 2, d - 1, -1):
            c = prod[k] % p
            if c:
                row = red[k - d]
                for j in range(d):
                    prod[j] += c * row[j]
        return tuple(prod[j] % p for j in range(d))

    def inv(self, a):
        if OPS.enabled:
            OPS.count += 1
        if self.d == 1:
            if a == 0:
                raise DivisionByZero("inverse of zero")
            return pow(a, -1, self.p)
        if not any(a):
            raise DivisionByZero("inverse of zero")
        # extended Euclid over Z/pZ[x]: find s with s*a == 1 (mod modulus)
        p = self.p
        r0, r1 = list(self.modulus), _ztrim(list(a))
        s0, s1 = [], [1]
        while r1:
            q, r = _zdivmod(r0, r1, p)
            r0, r1 = r1, r
            s0, s1 = s1, _zsub(s0, _zmul(q, s1, p), p)
        c = pow(r0[-1], -1, p)  # r0 is a nonzero constant gcd
        s0 = [x * c % p for x in s0]
        s0 += [0] * (self.d - len(s0))
        return tuple(s0[: self.d])

    def pow_(self, a, e):
        if e < 0:
            a = self.inv(a)
            e = -e
        result = self.one
        while e > 0:
            if e & 1:
                result = self.mul(result, a)
            a = self.mul(a, a)
            e >>= 1
        return result

    def rand(self, rng):
        if self.d == 1:
            return rng.randrange(self.p)
        p = self.p
        return tuple(rng.randrange(p) for _ in range(self.d))

    def rand_nonzero(self, rng):
        while True:
            v = self.rand(rng)
            if _raw_truthy(v):
                return v

    def from_int(self, n):
        """Embed an integer as a constant (prime subfield) element."""
        v = n % self.p
        if self.d == 1:
            return v
        return (v,) + (0,) * (self.d - 1)

    def elements(self):
        """Iterate all q raw values (tiny fields only; used in tests)."""
        if self.d == 1:
            yield from range(self.p)
            return
        import itertools
        for combo in itertools.product(range(self.p), repeat=self.d):
            yield combo

    # --- multiplicative structure ------------------------------------------

    def _factors_q1(self):
        if self._q1_factors is None:
            self._q1_factors = factorize(self.q - 1)
        return self._q1_factors

    def generator(self, seed=0):
        """A generator of the multiplicative group, found by seeded search."""
        if seed in self._gen_cache:
            return self._gen_cache[seed]
        rng = random.Random(seed)
        q1 = self.q - 1
        factors = self._factors_q1()
        while True:
            g = self.rand_nonzero(rng)
            if all(self.pow_(g, q1 // r) != self.one for r in factors):
                self._gen_cache[seed] = g
                return g

    def element_order(self, a):
        """Multiplicative order of a nonzero element."""
        if not _raw_truthy(a):
            raise DivisionByZero("order of zero is undefined")
        order = self.q - 1
        for r, m in self._factors_q1().items():
            for _ in range(m):
                if self.pow_(a, order // r) == self.one:
                    order //= r
                else:
                    break
        return order


def root_of_unity(ctx: FieldCtx, order: int, seed: int = 0):
    """A raw element of exact multiplicative order `order`.

    Raises NoSuchRoot unless order divides q - 1.  Deterministic for a fixed
    (ctx, order, seed).
    """
    if order <= 0:
        raise NoSuchRoot("order must be positive, got %d" % order)
    if order == 1:
        return ctx.one
    if (ctx.q - 1) % order != 0:
        raise NoSuchRoot("no element of order %d in F_%d" % (order, ctx.q))
    key = (order, seed)
    cached = ctx._root_cache.get(key)
    if cached is not None:
        return cached
    g = ctx.generator(seed)
    w = ctx.pow_(g, (ctx.q - 1) // order)
    ctx._root_cache[key] = w
    return w


# ------------------------------------------------------------- construction


def _default_modulus(p, d, seed=0):
    """Deterministic monic irreducible of degree d over Z/pZ."""
    prime = FieldCtx(p, 1, (0, 1))  # modulus unused for d == 1
    # try sparse candidates x^d + c1*x + c0 first so small fields get
    # familiar moduli (F_9 lands on x^2 + 1, F_4 on x^2 + x + 1, ...)
    for c0 in range(1, p):
        for c1 in range(p):
            f = [c0, c1] + [0] * (d - 2) + [1]
            if poly_is_irreducible(f, prime):
                return f
    rng = random.Random(hash((p, d, seed)) & 0x7FFFFFFF)
    return poly_random_monic_irreducible(prime, d, rng)


def field_make(p: int, d: int = 1, modulus=None, seed: int = 0) -> FieldCtx:
    """Build F_{p^d}; validates primality and the supplied modulus.

    modulus is a sequence of d+1 ints, low degree first, monic.  When omitted
    and d > 1 a deterministic irreducible is generated.
    """
    if p < 2 or not is_probable_prime(p):
        raise CompositeP("p = %d is not prime" % p)
    if d < 1:
        raise DegreeMismatch("extension degree must be >= 1, got %d" % d)
    if d == 1:
        if modulus is not None and [c % p for c in modulus] != [0, 1]:
            raise DegreeMismatch("prime field takes no modulus")
        return FieldCtx(p, 1, (0, 1))
    if modulus is None:
        modulus = _default_modulus(p, d, seed)
    modulus = [c % p for c in modulus]
    if len(modulus) != d + 1:
        raise DegreeMismatch(
            "modulus has degree %d, field asked for %d" % (len(modulus) - 1, d))
    if modulus[-1] != 1:
        raise ReducibleModulus("modulus must be monic")
    prime = FieldCtx(p, 1, (0, 1))
    if not poly_is_irreducible(modulus, prime):
        raise ReducibleModulus("modulus is reducible over F_%d" % p)
    return FieldCtx(p, d, modulus)


# ------------------------------------------------------------------ wrapper


@dataclass(frozen=True)
class FieldElement:
    """Operator-friendly wrapper around a raw value; ctx identity is checked."""

    ctx: FieldCtx
    value: object

    def _peer(self, other):
        if isinstance(other, int):
            return self.ctx.from_int(other)
        if not isinstance(other, FieldElement):
            return NotImplemented
        if other.ctx != self.ctx:
            raise CtxMismatch("elements of %r and %r" % (self.ctx, other.ctx))
        return other.value

    def __add__(self, other):
        v = self._peer(other)
        if v is NotImplemented:
            return v
        return FieldElement(self.ctx, self.ctx.add(self.value, v))

    __radd__ = __add__

    def __sub__(self, other):
        v = self._peer(other)
        if v is NotImplemented:
            return v
        return FieldElement(self.ctx, self.ctx.sub(self.value, v))

    def __rsub__(self, other):
        v = self._peer(other)
        if v is NotImplemented:
            return v
        return FieldElement(self.ctx, self.ctx.sub(v, self.value))

    def __mul__(self, other):
        v = self._peer(other)
        if v is NotImplemented:
            return v
        return FieldElement(self.ctx, self.ctx.mul(self.value, v))

    __rmul__ = __mul__

    def __truediv__(self, other):
        v = self._peer(other)
        if v is NotImplemented:
            return v
        return FieldElement(self.ctx, self.ctx.mul(self.value, self.ctx.inv(v)))

    def __neg__(self):
        return FieldElement(self.ctx, self.ctx.neg(self.value))

    def __pow__(self, e):
        return FieldElement(self.ctx, self.ctx.pow_(self.value, e))

    def inverse(self):
        return FieldElement(self.ctx, self.ctx.inv(self.value))

    def __bool__(self):
        return _raw_truthy(self.value)

    def __repr__(self):
        return "FieldElement(%r, %r)" % (self.ctx, self.value)


def elem(ctx: FieldCtx, value) -> FieldElement:
    """Wrap an int (any d) or a coordinate sequence (d > 1) as an element."""
    if isinstance(value, int):
        return FieldElement(ctx, ctx.from_int(value))
    coords = [int(c) % ctx.p for c in value]
    if len(coords) != ctx.d:
        raise DegreeMismatch(
            "expected %d coordinates, got %d" % (ctx.d, len(coords)))
    if ctx.d == 1:
        return FieldElement(ctx, coords[0])
    return FieldElement(ctx, tuple(coords))


# -------------------------------------------------------------- (de)coding
#
# Raw values <-> JSON-safe objects: an int for prime fields, a list of d
# ints otherwise.  Bools are rejected; they are ints to isinstance().


def raw_to_obj(ctx: FieldCtx, v):
    if ctx.d == 1:
        return v
    return list(v)


def raw_from_obj(ctx: FieldCtx, obj):
    if ctx.d == 1:
        if isinstance(obj, bool) or not isinstance(obj, int):
            raise TypeError("prime-field element must be an int")
        return obj % ctx.p
    if not isinstance(obj, list) or len(obj) != ctx.d:
        raise TypeError("element of F_%d^%d must be a list of %d ints"
                        % (ctx.p, ctx.d, ctx.d))
    out = []
    for c in obj:
        if isinstance(c, bool) or not isinstance(c, int):
            raise TypeError("element coordinates must be ints")
        out.append(c % ctx.p)
    return tuple(out)
