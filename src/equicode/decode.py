"""Basic decoding through Pade approximants over the residue module.

Setup: alongside the code's evaluation matrix E we carry an auxiliary
evaluation matrix E0 (rank k0, the denominator search space) and the
checking/interpolation pair C1, I1 of the larger space spanned by all
products a0 * f with a0 in the E0 space and f in the E space.  A Pade
approximant of a received vector r is a pair (a0, a1), a0 != 0, with
a0 * r = a1 pointwise; a0 is then a denominator of r.  When r = c + eps
with few errors, every denominator vanishes on the error support, so its
zero set locates the errors.  At a place whose row of the check matrix C
is a scalar times a unit vector (a systematic C has n - k) the syndrome
gives the error values directly; one small dense solve finds the rest.

The denominator condition "a0 * r lands in the product space" is one
K-linear system A = expand(C1^t) . diag(r) . expand(E0), (n - k1) |G|
rows by k0 |G| columns, whose matrix is never formed.  A's columns are
made one at a time and eliminated as they come, by an elimination with
no identity block (`gauss.first_dependency`); the first column that
depends on the ones before it is a kernel vector of A, a denominator
(`find_denominator`).  With t errors A has rank at most t, so at most
t + 1 columns are made, and an A of full column rank proves that r has
no denominator.  Decoding draws no random number: a decode's outcome is
a function of r.

A is K-linear in r and vanishes on the code, since C1^t kills every
product of an E0 column with an E column: A(r) = A(r - c) for every
codeword c.  So `basic_decode` searches r - c for the codeword c that
agrees with r off C's unit places (`_lifted_word`).  That word is zero at
the k other places, and at unit place i, with row c_i e_j of C, it is
c_i^{-1} s_j, read off the syndrome s the decode already holds.  When
some check column of C has no unit place, r itself is searched.

The decoder computes on raw coefficients only, from r, flattened once,
to the result, through `kgmat._apply`; K[G] elements are built only
where the public functions return them.  Only diag(r) changes from one
word to the next, so the search scales the block diag(r) . expand(E0) a
few columns at a time, on windows of E0 packed once per decoder, and
hands each column of A, one apply of C1^t to a slice of that block, to
the elimination packed (`_denominator_columns`).  `denominator_check`
applies C1^t and `pade_numerator` I1 to the product (E0 x) * r, taken
while E0 x is unpacked, and `denominator_zeros` scans E0 x.
"""

from __future__ import annotations

import random
import warnings
from dataclasses import dataclass

from . import gauss
from .code import (
    EquivariantCode,
    _check_shapes,
    _first_nonzero_points,
    _message,
    cyclic_orbit_evaluation,
)
from .errors import (
    CheckFailed,
    DecodeFail,
    DegreeWindow,
    DegreeWindowWarning,
    DimMismatch,
    Inconsistent,
    InvariantViolation,
    Mismatch,
    NotADenominatorCandidate,
    NotInImage,
    RankDeficient,
)
from .galg import _elements
from .kgmat import (
    KGMatrix,
    _apply,
    _apply_packed,
    _blocks,
    _flat,
    _leading_columns,
    _require_ints,
    _scaled_expansion,
    _spectrum,
    expanded_rank,
    kg_from_spectrum,
    kg_matmul,
    kg_transpose,
    kg_zero,
    split_kernel_and_inverse,
    split_root,
)


@dataclass(frozen=True)
class DecoderData:
    """Code plus the product-space matrices the denominator search needs.

    e0: n x k0 evaluation of the denominator space; c1: n x (n-k1) check
    and i1: k1 x n interpolation of the product space.  deg_d0 is the
    defining degree of the denominator space upstairs (None when the
    construction is synthetic and degrees mean nothing).  radius is the
    guaranteed correction radius; outside geometric constructions it is 0
    and decode results are self-consistent rather than exact.
    """

    code: EquivariantCode
    e0: KGMatrix
    c1: KGMatrix
    i1: KGMatrix
    deg_d0: object
    radius: int

    def __post_init__(self):
        code, n, k1 = self.code, self.code.n, self.i1.rows
        _check_shapes(code.group, code.field,
                      (("e0", self.e0, n, self.e0.cols),
                       ("c1", self.c1, n, n - k1),
                       ("i1", self.i1, k1, n)))


@dataclass(frozen=True)
class PadeApproximant:
    a0: tuple  # k0 coordinates in the denominator-space basis
    a1: tuple  # k1 coordinates in the product-space basis


@dataclass(frozen=True)
class DecodeResult:
    codeword: tuple
    message: tuple
    error: tuple
    denominator: object  # k0 coordinates, or None on the clean fast path
    zeros: tuple  # (place, group index) pairs where the denominator is 0


def basic_radius(code: EquivariantCode):
    """(N - deg E - 1 - g_Y) // 2, or None when the metadata is missing."""
    deg_e = code.meta.get("deg_e")
    g_y = code.meta.get("g_y")
    if deg_e is None or g_y is None:
        return None
    return (code.n * code.group.order - deg_e - 1 - g_y) // 2


def _product(dd: DecoderData, r, x):
    """(E0 x) * r coefficientwise (the residue-algebra multiplication, NOT
    the group-algebra convolution), as raw coefficients: one K[G]-matrix
    application, multiplied by r while it is unpacked.  r is checked as a
    vector of the residue module, I1's domain."""
    return _apply(dd.e0, _flat(dd.e0, x), _flat(dd.i1, r))


def denominator_check(dd: DecoderData, r, x) -> bool:
    """True iff a0 = E0.x is a denominator of r: (E0 x) * r passes the
    product-space check C1^t.  Cost: two K[G]-matrix applications plus n
    pointwise products."""
    u = _product(dd, r, x)
    if all(a.is_zero() for a in x):
        raise NotADenominatorCandidate("the zero function is not allowed")
    zero = dd.code.field.zero
    return all(c == zero for c in _apply(kg_transpose(dd.c1), u))


def _search_width(dd: DecoderData):
    """Slot width of the search's packed columns: a slot of C1^t's product
    sums n |G| coefficient products, below n |G| d (p - 1)^2, and the
    elimination adds d (p - 1)^2 at each of at most (n - k1) |G| pivots
    (`gauss.column_width`)."""
    o = dd.code.group.order
    return gauss.column_width(dd.code.field, dd.c1.cols * o, dd.code.n * o)


def _denominator_columns(dd: DecoderData, word):
    """The columns of the denominator condition
    A = expand(C1^t) . diag(r) . expand(E0), (n-k1)o x k0 o, for the raw
    coefficients word of r, one at a time as they are pulled, each packed
    for `gauss.first_dependency` at `_search_width`.  The block
    diag(r) . expand(E0) comes a few columns at a time, each block when
    its first column is pulled, from `kgmat._scaled_expansion`, which
    scales windows of E0's entries that it packs once and keeps on dd.e0;
    column (b, h) of A is one apply of C1^t to a slice of that block, and
    the apply's product ints go to the elimination as they are
    (`kgmat._apply_packed`): over F_p with at most one axis a column is
    never unpacked or reduced."""
    c1t, width = kg_transpose(dd.c1), _search_width(dd)
    return (_apply_packed(c1t, col, width)
            for col in _scaled_expansion(dd.e0, word))


def _find_denominator(dd: DecoderData, word):
    """The raw coefficients of a denominator of r, given as its raw
    coefficients word, or None.

    A's columns are eliminated as they come (`gauss.first_dependency`) up
    to the first that depends on the ones before it, which gives a kernel
    vector of A, with its last nonzero coordinate one.  With t errors A
    has rank at most t, so at most t + 1 of its k0 o columns are made,
    and of diag(r) . expand(E0) only the blocks that hold them are scaled
    (`_denominator_columns`).  None certifies that A has full column
    rank: r has no denominator.
    """
    ctx, o = dd.code.field, dd.code.group.order
    x = gauss.first_dependency(ctx, _denominator_columns(dd, word),
                               dd.c1.cols * o, _search_width(dd))
    return None if x is None else x + [ctx.zero] * (dd.e0.cols * o - len(x))


def find_denominator(dd: DecoderData, r):
    """A denominator of r, or None: `_find_denominator` on elements."""
    if len(r) != dd.code.n:
        raise DimMismatch("received word has length %d, expected %d"
                          % (len(r), dd.code.n))
    x = _find_denominator(dd, _flat(dd.i1, r))
    return None if x is None else _elements(dd.code.group, dd.code.field, x)


def pade_numerator(dd: DecoderData, r, x) -> PadeApproximant:
    """Complete a verified denominator to a Pade approximant (a0, a1).

    a1 = I1 . ((E0 x) * r); membership of the product in the I1/C1 space
    is exactly the condition denominator_check verified (the check matrix
    has full rank n - k1, so its kernel IS the product space)."""
    if not denominator_check(dd, r, x):
        raise CheckFailed("candidate is not a denominator of this word")
    a1 = _apply(dd.i1, _product(dd, r, x))
    return PadeApproximant(tuple(x), tuple(
        _elements(dd.code.group, dd.code.field, a1)))


def denominator_zeros(dd: DecoderData, x):
    """(place, group index) pairs where the denominator values E0 x
    vanish, for the raw coefficients x of a denominator."""
    o, zero = dd.code.group.order, dd.code.field.zero
    return [divmod(i, o) for i, c in enumerate(_apply(dd.e0, x)) if c == zero]


def _error_system(code: EquivariantCode, zeros, dropped=frozenset()):
    """The columns of expand(C^t) at the given (place, group index) pairs,
    without the rows j |G| + g in dropped.

    Row (j, g), column (i, s) holds coefficient g s^{-1} of (C^t)_{j,i},
    which is C_{i,j}: the K-matrix taking error values on the zeros to the
    syndrome, built without expanding the rest of C^t.
    """
    G, check = code.group, code.check
    shift = {s: G.quotients(s) for s in {s for _, s in zeros}}
    entries = _blocks(check)
    sub = []
    for j in range(check.cols):
        blocks = [(entries[i * check.cols + j], shift[s]) for i, s in zeros]
        for g in range(G.order):
            if j * G.order + g not in dropped:
                sub.append([c[t[g]] for c, t in blocks])
    return sub


def _unit_places(code: EquivariantCode):
    """{i: (j, c^{-1})} for the places i whose row of C is c e_j: a
    nonzero scalar c at the group identity of entry j and zero elsewhere,
    with distinct j (the first such place keeps j).  Column (i, s) of the
    error system is then c times the unit at row (j, s).  A code built
    through `split_kernel_and_inverse` usually has one per check column:
    each character's kernel basis is the unit at its free columns."""
    o, zero = code.group.order, code.field.zero
    size = code.check.cols * o
    units = {}
    for i in range(code.n):
        row = code.check.coeffs[i * size:(i + 1) * size]
        hits = [t for t, x in enumerate(row) if x != zero]
        if (len(hits) == 1 and hits[0] % o == 0
                and all(j != hits[0] // o for j, _ in units.values())):
            units[i] = (hits[0] // o, code.field.inv(row[hits[0]]))
    return units


def _lifted_word(code: EquivariantCode, units, syndrome):
    """The raw coefficients of r - c, for the codeword c that agrees with
    r off the unit places, from r's raw syndrome; None unless C has a unit
    place for every check column, whatever G.  r - c has r's syndrome and
    is zero off the unit places, so at unit place i, with row c_i e_j of
    C, it is c_i^{-1} s_j: one ctx.vmul per unit place."""
    ctx, o = code.field, code.group.order
    if len(units) < code.check.cols:
        return None
    word = [ctx.zero] * (code.n * o)
    for i, (j, inv) in units.items():
        word[i * o:(i + 1) * o] = ctx.vmul([inv] * o,
                                           syndrome[j * o:(j + 1) * o])
    return word


def _error_values(code: EquivariantCode, units, zeros, syndrome):
    """The raw error vector (n |G| values) that vanishes off the zeros and
    has the given raw syndrome: gauss.solve's solution of
    _error_system(code, zeros), or Inconsistent.

    A unit place i with row c e_j of C puts c eps(i, s) into syndrome
    entry (j, s) and nowhere else, so the zeros at the other places solve
    the system without the unit columns and their rows, consistent
    exactly when the full one is.  When it has full column rank its one
    solution is the full system's, and eps(i, s) = c^{-1} (sigma -
    C^t eps)(j, s) with eps still zero at the unit places; otherwise the
    full system is solved, so gauss.solve's choice of free unknowns
    stands.  units are C's unit places (`_unit_places`)."""
    ctx, o = code.field, code.group.order
    free = [(i, s) for i, s in zeros if i not in units]
    dropped = {units[i][0] * o + s for i, s in zeros if i in units}
    rhs = [v for t, v in enumerate(syndrome) if t not in dropped]
    red, pivots = gauss.rref(ctx, [row + [v] for row, v in zip(
        _error_system(code, free, dropped), rhs)])
    if pivots and pivots[-1] == len(free):
        raise Inconsistent("right-hand side outside the column span")
    evec = [ctx.zero] * (code.n * o)
    if len(pivots) < len(free):
        for (i, s), v in zip(zeros, gauss.solve(
                ctx, _error_system(code, zeros), syndrome)):
            evec[i * o + s] = v
        return evec
    for (i, s), row in zip(free, red):
        evec[i * o + s] = row[-1]
    partial = _apply(kg_transpose(code.check), evec) if dropped else ()
    for i, s in zeros:
        if i in units:
            j, inv = units[i]
            evec[i * o + s] = ctx.mul(inv, ctx.sub(
                syndrome[j * o + s], partial[j * o + s]))
    return evec


def basic_decode(dd: DecoderData, r, seed=None, trace=None) -> DecodeResult:
    """Correct r to a codeword: locate errors at the zeros of a
    denominator, then read the error values at C's unit places off the
    syndrome and solve for the rest densely (`_error_values`).

    The search takes r - c, for the codeword c that agrees with r off C's
    unit places (`_lifted_word`), so k of the n places of its word are
    zero.  C1^t kills every product of an E0 column with an E column, so
    A(r - c) = A(r) and the denominator is r's own.  When some check
    column of C has no unit place the search takes r itself: which word
    it takes depends on C alone.  C's unit places are found once and
    shared with the error solve.  r is flattened once, and K[G] elements
    are built only for the returned DecodeResult.

    Exact up to dd.radius errors for the geometric constructions; always
    sound (the returned triple is verified: c is a codeword, m encodes to
    c, r = c + error, and the error sits inside the denominator's zeros).
    One denominator search, one error solve, one verification; DecodeFail
    names the stage that failed: "denominator search", "error values" or
    "verification".  Nothing is random: seed is accepted for existing
    callers and ignored.  trace, if given, is called with one line per
    pipeline stage.
    """
    log = trace if trace is not None else lambda line: None
    code = dd.code
    G, ctx, o, zero = code.group, code.field, code.group.order, code.field.zero
    r = tuple(r)
    check = kg_transpose(code.check)
    flat = _flat(check, r)
    syndrome = _apply(check, flat)
    if all(s == zero for s in syndrome):
        log("syndrome zero, fast path")
        return DecodeResult(r, tuple(_elements(G, ctx, _message(code, flat))),
                            tuple(_elements(G, ctx, [zero] * len(flat))),
                            None, ())
    log("syndrome nonzero, searching denominators")
    units = _unit_places(code)
    lifted = _lifted_word(code, units, syndrome)
    word = flat if lifted is None else lifted
    log("search word nonzero at %d of %d places" % (sum(
        word[i:i + o] != [zero] * o for i in range(0, len(word), o)), code.n))
    x = _find_denominator(dd, word)
    if x is None:
        raise DecodeFail("denominator search: the Pade condition has full "
                         "column rank")
    zeros = denominator_zeros(dd, x)
    log("denominator vanishes at %d points" % len(zeros))
    try:
        evec = _error_values(code, units, zeros, syndrome)
    except Inconsistent:
        raise DecodeFail("error values: inconsistent system") from None
    cw = [ctx.sub(a, e) for a, e in zip(flat, evec)]
    if any(s != zero for s in _apply(check, cw)):
        raise DecodeFail("verification: parity check failed")
    try:
        m = _message(code, cw)
    except NotInImage:
        raise DecodeFail("verification: not in the image") from None
    log("decoded: %d expanded error positions" % len(zeros))
    return DecodeResult(*(tuple(_elements(G, ctx, v))
                          for v in (cw, m, evec, x)), tuple(zeros))


# ------------------------------------------------------- data constructors


def _orbit_decoder_data(code: EquivariantCode, ys, k0, k1) -> DecoderData:
    """Decoder data of a code whose E is `cyclic_orbit_evaluation` of ys
    (the Vandermonde matrix for the trivial group).  Entry (i, l) does not
    depend on the rank, so E, E0 and E1 are the first k, k0 and k1 columns
    of one evaluation.  Raises Mismatch unless the code's E is, and
    RankDeficient unless E0 is free.  The radius is min(k0 o - 1,
    (n - k1) o): a denominator has at most k0 o - 1 zeros, and the
    product space leaves (n - k1) o checks."""
    G, ctx, n, o = code.group, code.field, code.n, code.group.order
    full = KGMatrix(G, ctx, n, k1, cyclic_orbit_evaluation(
        ctx, G, split_root(G, ctx), ys, k1))
    if _leading_columns(full, code.k) != code.evaluation:
        raise Mismatch("evaluation matrix is not the orbit evaluation of "
                       "the expected points")
    e0 = _leading_columns(full, k0)
    c1, i1 = split_kernel_and_inverse(full)
    if expanded_rank(e0) != k0 * o:
        raise RankDeficient("denominator evaluation is not free")
    return DecoderData(code, e0, c1, i1, k0 * o - 1,
                       min(k0 * o - 1, (n - k1) * o))


def make_rs_decoder_data(code: EquivariantCode, deg_d0=None) -> DecoderData:
    """Decoder data for a trivial-group Vandermonde code with genus-0
    metadata and deg_e = k - 1: `_orbit_decoder_data` at k0 = deg_d0 + 1,
    k1 = k + deg_d0.

    Default deg_d0 is the basic radius, which maximizes
    min(deg_d0, n - deg_e - deg_d0 - 1) -- the exact radius, matching the
    classical bound (n - deg_e - 1) // 2.
    """
    d_basic = basic_radius(code)
    if d_basic is not None and d_basic < 0:
        raise DegreeWindow("basic radius %d is negative; this code "
                           "supports encode/check only" % d_basic)
    if code.group.order != 1:
        raise Mismatch("this constructor handles trivial-group codes only")
    n, k = code.n, code.k
    if (code.meta.get("g_x"), code.meta.get("g_y"),
            code.meta.get("deg_e")) != (0, 0, k - 1):
        raise Mismatch("need genus-0 metadata (g_x = g_y = 0) with "
                       "deg_e = k - 1")
    if deg_d0 is None:
        deg_d0 = d_basic
    _require_ints(deg_d0=deg_d0)
    if deg_d0 < 0 or k + deg_d0 >= n:
        raise DegreeWindow("auxiliary degree %d leaves no checking "
                           "capacity (deg E = %d, n = %d)"
                           % (deg_d0, k - 1, n))
    if k >= 2:
        pts = [a.coeffs[0] for a in code.evaluation.col(1)]
    else:
        pts = _first_nonzero_points(code.field, n)
    dd = _orbit_decoder_data(code, pts, deg_d0 + 1, k + deg_d0)
    # the comfort window 2 g_x - 1 <= deg D + deg D0 <= n - 1 only warns;
    # g_x <= deg D0 <= n - 1 already holds after the refusals above
    deg_d = code.meta.get("deg_d")
    if deg_d is not None and not -1 <= deg_d + deg_d0 <= n - 1:
        warnings.warn(DegreeWindowWarning(
            "product degree %d outside [-1, %d]" % (deg_d + deg_d0, n - 1)),
            stacklevel=2)
    return dd


def make_cyclic_decoder_data(code: EquivariantCode, k0) -> DecoderData:
    """Decoder data for a cyclic-cover code (exact radius) on the points
    of `cyclic_cover_code`, the field generator's powers.

    The denominator space is the rank-k0 polynomial module of degree
    < k0*o; the product space has rank k1 = k + k0.  Through the
    underlying Reed-Solomon structure the radius is
    min(k0*o - 1, o*(n - k - k0)).  Raises NotSplit unless K[G] is split.
    """
    _require_ints(k0=k0)
    G, ctx, n, k1 = code.group, code.field, code.n, code.k + k0
    if len(G.factors) != 1:
        raise Mismatch("cyclic-cover decoder needs a cyclic group")
    if not 0 < k0:
        raise DegreeWindow("auxiliary rank must be positive")
    if k1 >= n:
        raise DegreeWindow("product rank %d leaves no checking capacity "
                           "(n = %d)" % (k1, n))
    gen = ctx.generator()
    return _orbit_decoder_data(code, [ctx.pow_(gen, i) for i in range(n)],
                               k0, k1)


def make_split_decoder_data(code: EquivariantCode, k0, seed=0) -> DecoderData:
    """Geometry-blind decoder data for a split code, radius 0.

    The denominator space is the submodule spanned by the first k0
    evaluation columns; the product space is the K[G]-span of all
    pointwise products (E0 column) * (translate of an E column), closed
    per character and padded to a common rank k1.  This needs the
    products to miss part of the residue module: true for degree-graded
    evaluations (cyclic-cover codes), hopeless for generic random codes,
    whose products fill everything -- those refuse with DegreeWindow.
    Without degrees there is no radius claim: decodes are self-consistent
    only.
    """
    _require_ints(k0=k0)
    G, ctx = code.group, code.field
    o, n, k = G.order, code.n, code.k
    split_root(G, ctx)
    if not 0 < k0 <= k:
        raise DegreeWindow("denominator rank must be in 1..k (columns are "
                           "taken from the evaluation matrix)")
    rng = random.Random(seed)
    e0 = _leading_columns(code.evaluation, k0)
    if expanded_rank(e0) != k0 * o:
        raise RankDeficient("leading evaluation columns are not free")
    # row (a, b, s): place i holds E0_{i,a} * (s E_{i,b}), coefficientwise;
    # coefficient g of s w is w_{g s^{-1}}
    ev, ev0 = _blocks(code.evaluation), _blocks(e0)
    shifts = [G.quotients(s) for s in range(o)]
    products = KGMatrix(G, ctx, k0 * k * o, n, tuple(
        x for a in range(k0) for b in range(k) for q in shifts
        for i in range(n) for x in ctx.vmul(
            ev0[i * k0 + a], [ev[i * k + b][t] for t in q])))
    spans = []
    for rows in _spectrum(products):
        red, pivots = gauss.rref(ctx, rows)
        spans.append([list(red[r]) for r in range(len(pivots))])
    k1 = max(len(s) for s in spans)
    if k1 >= n:
        raise DegreeWindow("product space fills the residue module "
                           "(rank %d of %d); no checking capacity"
                           % (k1, n))
    for span in spans:
        while len(span) < k1:
            cand = [ctx.rand(rng) for _ in range(n)]
            if gauss.rank(ctx, span + [cand]) == len(span) + 1:
                span.append(cand)
    e1 = kg_from_spectrum(G, ctx,
                          [[tuple(v[i] for v in span) for i in range(n)]
                           for span in spans], n, k1)
    c1, i1 = split_kernel_and_inverse(e1)
    if kg_matmul(kg_transpose(c1), kg_transpose(products)) != kg_zero(
            G, ctx, n - k1, products.rows):
        raise InvariantViolation("product-space closure failed")
    return DecoderData(code, e0, c1, i1, None, 0)
