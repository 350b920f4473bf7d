"""Equivariant evaluation codes as plain data.

A code is a triple of K[G]-matrices: an evaluation matrix E (n x k) whose
columns are a free-module basis of the function space, a checking matrix C
(n x (n-k)) with C^t E = 0, and an interpolation matrix I (k x n) with
I E = 1.  Codewords live in the residue module K[G]^n: n blocks of group-
indexed values, one block per orbit of evaluation points.  No curve
machinery is involved; matrices are trusted inputs subject to `validate`.

Bundled constructors:
  * genus2_example_code  -- a hand-sized 3x1 code over F_3[Z/4] from a
    genus-2 base curve, good for exactness checks (encode/check only: its
    basic radius is negative).
  * rs_degenerate_code   -- trivial group, Vandermonde evaluation; the
    classical Reed-Solomon case every decoder test cross-checks against.
  * synth_split_code     -- random per-character data glued by inverse
    Fourier transform; no geometry, all algebraic invariants hold.
  * cyclic_cover_code    -- evaluation of low-degree polynomials on
    mu_o-orbits of the projective line (y -> zeta y over y^o = x); split,
    genuinely geometric, and its K-code is Reed-Solomon, which pins the
    exact correction radius for decoder tests.
"""

from __future__ import annotations

import random
import warnings
from dataclasses import dataclass, field as dc_field

from . import gauss
from .errors import (
    DegreeWindow,
    DegreeWindowWarning,
    InvariantViolation,
    NotInImage,
    RankDeficient,
    TooManyPoints,
)
from .ff import FieldCtx, field_make
from .galg import AbelianGroup, GroupAlgebraElement
from .kgmat import (
    KGMatrix,
    expanded_rank,
    kg_apply,
    kg_from_rows,
    kg_from_spectrum,
    kg_product_is_scalar,
    kg_transpose,
    split_kernel_and_inverse,
    split_root,
)


@dataclass(frozen=True)
class EquivariantCode:
    """n, k are K[G]-ranks; the K-code has length n*order, dimension k*order.

    meta keys (value None = unknown/not applicable): g_x, g_y (genera),
    deg_d (base divisor degree, when E is a pullback), deg_e (total degree
    of E upstairs), deg_p (number of base places = n).
    """

    field: FieldCtx
    group: AbelianGroup
    n: int
    k: int
    evaluation: KGMatrix
    check: KGMatrix
    interp: KGMatrix
    meta: dict = dc_field(default_factory=dict)

    def __post_init__(self):
        n, k = self.n, self.k
        _check_shapes(self.group, self.field,
                      (("evaluation", self.evaluation, n, k),
                       ("check", self.check, n, n - k),
                       ("interp", self.interp, k, n)))


def _check_shapes(group, ctx, shapes):
    """InvariantViolation unless each (name, matrix, rows, cols) has that
    shape and lives over group and ctx."""
    for name, m, rows, cols in shapes:
        if m.rows != rows or m.cols != cols:
            raise InvariantViolation(
                "%s matrix is %dx%d, expected %dx%d"
                % (name, m.rows, m.cols, rows, cols))
        if m.group != group or m.field != ctx:
            raise InvariantViolation("%s matrix group/field mismatch" % name)


def encode(code: EquivariantCode, message):
    """E . m; the message is k group-algebra elements."""
    return kg_apply(code.evaluation, list(message))


def parity_check(code: EquivariantCode, received):
    """C^t . r; all-zero exactly on codewords."""
    return kg_apply(kg_transpose(code.check), list(received))


def interpolate(code: EquivariantCode, word):
    """Recover the message of a codeword; re-encodes to verify membership."""
    m = kg_apply(code.interp, list(word))
    if encode(code, m) != list(word):
        raise NotInImage("vector is not in the image of the evaluation map")
    return m


def expanded_weight(vec) -> int:
    """Number of nonzero (place, group element) coordinates."""
    w = 0
    for a in vec:
        z = a.field.zero
        w += sum(1 for c in a.coeffs if c != z)
    return w


def validate(code: EquivariantCode):
    """Check every defining identity; returns the warnings issued.

    Hard failures (C^t E != 0, I E != 1, rank deficiency of E or C; shapes
    fail at construction) raise InvariantViolation naming the identity.  In
    the split case every check runs per character.  The window
    2 g_x - 1 <= deg_d <= deg_p - 1 only warns: perfectly good codes sit
    outside it (the genus-2 example has deg_d = g_x = 2).
    """
    G, ctx, n, k = code.group, code.field, code.n, code.k
    # the ranks first: in the split case they keep E's and C's Fourier
    # images on the matrices, where C^t and the identities find them
    if expanded_rank(code.evaluation) != k * G.order:
        raise InvariantViolation(
            "evaluation columns are not a free-module basis")
    if expanded_rank(code.check) != (n - k) * G.order:
        # otherwise ker C^t is larger than the image of E
        raise InvariantViolation("check matrix does not have full rank")
    if not kg_product_is_scalar(kg_transpose(code.check), code.evaluation,
                                ctx.zero):
        raise InvariantViolation("checking identity C^t E = 0 fails")
    if not kg_product_is_scalar(code.interp, code.evaluation, ctx.one):
        raise InvariantViolation("interpolation identity I E = 1 fails")
    return _window_warnings(code)


def _window_warnings(code: EquivariantCode):
    """The warn-only part of `validate`; returns the warnings issued."""
    issued = []
    g_x = code.meta.get("g_x")
    deg_d = code.meta.get("deg_d")
    deg_p = code.meta.get("deg_p")
    if g_x is not None and deg_d is not None and deg_p is not None:
        if not (2 * g_x - 1 <= deg_d <= deg_p - 1):
            msg = ("divisor degree %d outside the window [%d, %d]; "
                   "identities hold but interpolation-theoretic guarantees "
                   "need checking by hand" % (deg_d, 2 * g_x - 1, deg_p - 1))
            warnings.warn(DegreeWindowWarning(msg), stacklevel=3)
            issued.append(msg)
    return issued


# ---------------------------------------------------------------- fixtures


def genus2_example_code() -> EquivariantCode:
    """Hand-sized 3x1 code over F_3[Z/4] (genus-2 base, unramified cover).

    The matrices are frozen literals; validate() confirms the identities
    and warns about the degree window (deg_d = g_x here).
    """
    ctx = field_make(3)
    G = AbelianGroup([4])

    def ga(*ints):
        return GroupAlgebraElement(G, ctx, tuple(ints))

    e12 = ga(1, 2, 2, 2)
    e13 = ga(2, 2, 2, 1)
    one = ga(1, 0, 0, 0)
    z = ga(0, 0, 0, 0)
    minus = ga(2, 0, 0, 0)
    ev = kg_from_rows([[one], [e12], [e13]])
    chk = kg_from_rows([[e12, e13], [minus, z], [z, minus]])
    interp = kg_from_rows([[one, z, z]])
    code = EquivariantCode(ctx, G, 3, 1, ev, chk, interp,
                           {"g_x": 2, "g_y": 5, "deg_d": 2, "deg_e": 8,
                            "deg_p": 3})
    validate(code)
    return code


def _first_nonzero_points(ctx, n):
    pts = []
    for a in ctx.elements():
        if a == ctx.zero:
            continue
        pts.append(a)
        if len(pts) == n:
            return pts
    raise TooManyPoints("field supplies %d nonzero points, need %d"
                        % (len(pts), n))


def _split_code(ctx, group, n, k, ev, meta):
    """The code with evaluation matrix ev whose C and I come from the split
    solver.  It certifies on the stored entries what `validate` would (E's
    rank through its kernel, C's rank, C^t E = 0 and I E = 1), so only the
    degree-window warnings are left to issue."""
    chk, interp = split_kernel_and_inverse(ev)
    code = EquivariantCode(ctx, group, n, k, ev, chk, interp, meta)
    _window_warnings(code)
    return code


def rs_degenerate_code(p, n, deg_e, d=1) -> EquivariantCode:
    """Trivial-group Reed-Solomon code: Vandermonde evaluation at the first
    n nonzero field elements, degree <= deg_e."""
    ctx = field_make(p, d)
    if n > ctx.q - 1:
        raise TooManyPoints("need %d distinct nonzero points in F_%d"
                            % (n, ctx.q))
    if deg_e < 0 or deg_e >= n:
        raise DegreeWindow("degree %d impossible for %d points"
                           % (deg_e, n))
    if deg_e > n - 2:
        warnings.warn(DegreeWindowWarning(
            "degree %d leaves no checking capacity (n = %d)"
            % (deg_e, n)), stacklevel=2)
    pts = _first_nonzero_points(ctx, n)
    k = deg_e + 1
    vand = [[ctx.pow_(x, j) for j in range(k)] for x in pts]
    meta = {"g_x": 0, "g_y": 0, "deg_d": deg_e, "deg_e": deg_e, "deg_p": n}
    G = AbelianGroup([])  # its one character is the identity
    ev = kg_from_rows([[GroupAlgebraElement(G, ctx, (v,)) for v in row]
                       for row in vand])
    return _split_code(ctx, G, n, k, ev, meta)


def synth_split_code(p, d, group: AbelianGroup, n, k, seed=0) \
        -> EquivariantCode:
    """Random split-case code: per-character full-rank data glued back by
    inverse Fourier transform.  No geometry behind it, so meta degree
    fields are None and decoders only promise self-consistency."""
    ctx = field_make(p, d)
    split_root(group, ctx)
    if not 0 < k < n:
        raise RankDeficient("need 0 < k < n, got k=%d n=%d" % (k, n))
    rng = random.Random(seed)
    o = group.order
    redraws = 0
    tables = []
    for _ in range(o):
        while True:
            m = [[ctx.rand(rng) for _ in range(k)] for _ in range(n)]
            if gauss.rank(ctx, m) == k:
                break
            redraws += 1
            if redraws > 10:
                raise RankDeficient("no full-rank character table found")
        tables.append(m)
    ev = kg_from_spectrum(group, ctx, tables, n, k)
    return _split_code(ctx, group, n, k, ev,
                       {"g_x": 0, "g_y": None, "deg_d": None,
                        "deg_e": None, "deg_p": None})


def cyclic_orbit_evaluation(ctx, G: AbelianGroup, zeta, ys, rank):
    """Entries of the evaluation matrix for polynomials of degree < rank*o
    on the mu_o-orbits of the points ys, in the free basis
    w_l = sum_{j<o} y^(l*o+j).  Coefficient s of entry (i, l) is
    w_l(zeta^s y_i) = y_i^(l*o) (y_i^o - 1) / (zeta^s y_i - 1), a geometric
    sum in closed form, or o where zeta^s y_i = 1.  Returns the flat entry
    tuple for a KGMatrix."""
    o = G.order
    one, order = ctx.one, ctx.from_int(o)
    zpow = [ctx.pow_(zeta, t) for t in range(o)]
    entries = []
    for y in ys:
        yo = ctx.pow_(y, o)
        num = ctx.sub(yo, one)
        # sums[s] = sum_{j<o} (zeta^s y)^j, one inverse per s for every l
        sums = []
        for z in zpow:
            x = ctx.mul(z, y)
            sums.append(order if x == one
                        else ctx.mul(num, ctx.inv(ctx.sub(x, one))))
        lead = one  # y^(l*o)
        for _ in range(rank):
            entries.append(GroupAlgebraElement(
                G, ctx, tuple(ctx.mul(lead, v) for v in sums)))
            lead = ctx.mul(lead, yo)
    return tuple(entries)


def cyclic_cover_code(p, d, order, n, k) -> EquivariantCode:
    """Split geometric code on the cover y -> y^order of the line.

    G = Z/order acts by y -> zeta y; evaluation points are the n mu-orbits
    {zeta^s g^i} (g a field generator), and the function module is all
    polynomials of degree < k*order, free of rank k with basis
    w_l = sum_{j<order} y^(l*order+j).  The underlying K-code is
    Reed-Solomon of dimension k*order on n*order points, so the true
    correction radius is (n*order - k*order) // 2 -- which is exactly the
    basic radius for deg_e = k*order - 1 and genus 0.
    """
    ctx = field_make(p, d)
    o = int(order)
    G = AbelianGroup([o])
    zeta = split_root(G, ctx)
    if not 0 < k < n:
        raise RankDeficient("need 0 < k < n, got k=%d n=%d" % (k, n))
    if n > (ctx.q - 1) // o:
        raise TooManyPoints("only %d disjoint orbits available, need %d"
                            % ((ctx.q - 1) // o, n))
    gen = ctx.generator()
    ys = [ctx.pow_(gen, i) for i in range(n)]
    ev = KGMatrix(G, ctx, n, k, cyclic_orbit_evaluation(ctx, G, zeta, ys, k))
    return _split_code(ctx, G, n, k, ev,
                       {"g_x": 0, "g_y": 0, "deg_d": None,
                        "deg_e": k * o - 1, "deg_p": n})
