"""Basic decoding through Pade approximants over the residue module.

Setup: alongside the code's evaluation matrix E we carry an auxiliary
evaluation matrix E0 (rank k0, the denominator search space) and the
checking/interpolation pair C1, I1 of the larger space spanned by all
products a0 * f with a0 in the E0 space and f in the E space.  A Pade
approximant of a received vector r is a pair (a0, a1), a0 != 0, with
a0 * r = a1 pointwise; a0 is then a denominator of r.  When r = c + eps
with few errors, every denominator vanishes on the error support, so its
zero set locates the errors and a small dense solve recovers them.

The denominator condition "a0 * r lands in the product space" is one
K-linear system A whose matrix is never formed: it is applied factor by
factor (evaluate a0, multiply pointwise by r, apply the extended check).
A has more rows than columns, so a random K[G] matrix R folds the checks
to the square B = R A, which the randomized black-box kernel sampler
runs with one apply per step.  ker A lies in ker B, and every candidate
is checked against A itself, so an unlucky R or kernel draw costs a
retry, never a wrong answer; decode failures are reported as DecodeFail
after the retry budget, not as silent miscorrections.

One apply (one Krylov step) stays on packed integers from the flat input
to the flat output and builds no K[G] object: the k0 coefficient blocks
of x are packed, the n sums against E0's packed rows are unpacked to raw
slot values and multiplied by r's coefficients with one reduction per
value (the pointwise product), the results are packed at the slot width
of R C1^t, and its k0 sums are unpacked straight into the output list.
"""

from __future__ import annotations

import random
import warnings
from dataclasses import dataclass

from . import gauss
from .blackbox import BlackBoxOperator, wiedemann_kernel_sample
from .code import (
    EquivariantCode,
    _check_shapes,
    _first_nonzero_points,
    cyclic_orbit_evaluation,
    interpolate,
    parity_check,
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
from .ff import OPS, root_of_unity
from .galg import (GroupAlgebraElement, _elements, _pack_coeffs, _slot_width,
                   ga_mul_naive, ga_rand, ga_sigma, ga_sub)
from .kgmat import (
    KGMatrix,
    _apply_packed,
    _spectrum,
    expanded_rank,
    kg_apply,
    kg_from_rows,
    kg_from_spectrum,
    kg_matmul,
    kg_transpose,
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


def _pointwise(a: GroupAlgebraElement, b: GroupAlgebraElement):
    """Coefficientwise product: the residue-algebra multiplication, which
    is NOT the group-algebra convolution.  Over prime fields: plain ints,
    one reduction per value, counted in OPS in bulk."""
    ctx = a.field
    if ctx.d == 1:
        p = ctx.p
        OPS.add(a.group.order)
        return GroupAlgebraElement(a.group, ctx, tuple(
            [x * y % p for x, y in zip(a.coeffs, b.coeffs)]))
    return GroupAlgebraElement(
        a.group, ctx,
        tuple(ctx.mul(x, y) for x, y in zip(a.coeffs, b.coeffs)))


def denominator_values(dd: DecoderData, x):
    """Values of the candidate denominator at all n places."""
    return kg_apply(dd.e0, list(x))


def denominator_check(dd: DecoderData, r, x) -> bool:
    """True iff a0 = E0.x is a denominator of r: (E0 x) * r passes the
    product-space check C1^t.  Cost: two K[G]-matrix applications plus n
    pointwise products."""
    if len(r) != dd.code.n or len(x) != dd.e0.cols:
        raise DimMismatch("received length %d / candidate length %d"
                          % (len(r), len(x)))
    if all(a.is_zero() for a in x):
        raise NotADenominatorCandidate("the zero function is not allowed")
    v = denominator_values(dd, x)
    u = [_pointwise(vi, ri) for vi, ri in zip(v, r)]
    return all(s.is_zero() for s in kg_apply(kg_transpose(dd.c1), u))


def _fold_matrix(dd: DecoderData, rng) -> KGMatrix:
    """A random k0 x (n-k1) K[G] matrix: the fold of the extended checks."""
    G, ctx = dd.code.group, dd.code.field
    rows, cols = dd.e0.cols, dd.c1.cols
    return KGMatrix(G, ctx, rows, cols,
                    tuple(ga_rand(G, ctx, rng) for _ in range(rows * cols)))


def _denominator_operator(dd: DecoderData, r, rng) -> BlackBoxOperator:
    """The folded denominator condition as a square matrix-free operator.

    The condition itself, A = expand(C1^t) . diag(r) . expand(E0), is
    (n-k1)o x k0 o.  A random k0 x (n-k1) K[G] matrix R drawn from rng
    folds it to the square B = expand(R C1^t) . diag(r) . expand(E0),
    which the kernel sampler runs with one apply per Krylov step.
    ker A lies in ker B, and a draw from ker B that is not in ker A fails
    denominator_check, so an unlucky R costs a retry, never a wrong
    answer."""
    G, ctx = dd.code.group, dd.code.field
    o, e0, k0 = G.order, dd.e0, dd.e0.cols
    rc = kg_matmul(_fold_matrix(dd, rng), kg_transpose(dd.c1))
    w0, w1 = _slot_width(G, ctx, k0), _slot_width(G, ctx, rc.cols)
    scale = [c for a in r for c in a.coeffs]

    def apply_fn(xs):
        u = _apply_packed(e0, _pack_coeffs(G, ctx, xs, w0), w0, scale)
        return _apply_packed(rc, _pack_coeffs(G, ctx, u, w1), w1)

    return BlackBoxOperator(ctx, k0 * o, k0 * o, apply_fn)


def find_denominator(dd: DecoderData, r, seed=0, max_attempts=40):
    """Sample a verified denominator of r, or None.

    Each attempt folds the checks with a fresh R (from its own stream, not
    the sampler's) and takes one kernel sample of the square operator.
    None means every attempt came up empty: either no denominator exists
    (too many errors) or the draws were unlucky.  Any non-None return
    passes denominator_check.
    """
    if len(r) != dd.code.n:
        raise DimMismatch("received word has length %d, expected %d"
                          % (len(r), dd.code.n))
    for attempt in range(max_attempts):
        op = _denominator_operator(
            dd, r, random.Random("fold/%d/%d" % (seed, attempt)))
        raw = wiedemann_kernel_sample(op, seed=seed * max_attempts + attempt,
                                      max_attempts=1)
        if raw is None:
            continue
        x = _elements(dd.code.group, dd.code.field, raw)
        if denominator_check(dd, r, x):
            return x
    return None


def pade_numerator(dd: DecoderData, r, x) -> PadeApproximant:
    """Complete a verified denominator to a Pade approximant (a0, a1).

    a1 = I1 . ((E0 x) * r); membership of the product in the I1/C1 space
    is exactly the condition denominator_check verified (the check matrix
    has full rank n - k1, so its kernel IS the product space)."""
    if not denominator_check(dd, r, x):
        raise CheckFailed("candidate is not a denominator of this word")
    v = denominator_values(dd, x)
    u = [_pointwise(vi, ri) for vi, ri in zip(v, r)]
    a1 = kg_apply(dd.i1, u)
    return PadeApproximant(tuple(x), tuple(a1))


def denominator_zeros(dd: DecoderData, x):
    """(place, group index) pairs where the denominator values vanish."""
    zeros = []
    for i, vi in enumerate(denominator_values(dd, x)):
        z = vi.field.zero
        for s, c in enumerate(vi.coeffs):
            if c == z:
                zeros.append((i, s))
    return zeros


def _error_system(code: EquivariantCode, zeros):
    """The columns of expand(C^t) at the given (place, group index) pairs.

    Row (j, g), column (i, s) holds coefficient g s^{-1} of (C^t)_{j,i},
    which is C_{i,j}: the K-matrix taking error values on the zeros to the
    syndrome, built without expanding the rest of C^t.
    """
    G = code.group
    shift = {s: G.quotients(s) for s in {s for _, s in zeros}}
    sub = []
    for j in range(code.check.cols):
        blocks = [(code.check.entry(i, j).coeffs, shift[s]) for i, s in zeros]
        for g in range(G.order):
            sub.append([c[t[g]] for c, t in blocks])
    return sub


def basic_decode(dd: DecoderData, r, seed=0, max_attempts=40,
                 trace=None) -> DecodeResult:
    """Correct r to a codeword: locate errors at the zeros of a sampled
    denominator, then solve for the error values densely.

    Exact up to dd.radius errors for the geometric constructions; always
    sound (the returned triple is verified: c is a codeword, m encodes to
    c, r = c + error, and the error sits inside the denominator's zeros).
    Raises DecodeFail when the retry budget runs out.  trace, if given, is
    called with one line per pipeline stage.
    """
    log = trace if trace is not None else lambda line: None
    code = dd.code
    G, ctx, o = code.group, code.field, code.group.order
    r = list(r)
    syndrome = parity_check(code, r)
    if all(s.is_zero() for s in syndrome):
        log("syndrome zero, fast path")
        m = interpolate(code, r)
        zero = GroupAlgebraElement(G, ctx, (ctx.zero,) * o)
        return DecodeResult(tuple(r), tuple(m), (zero,) * code.n, None, ())
    log("syndrome nonzero, searching denominators")
    target = [c for a in syndrome for c in a.coeffs]
    rounds = max(1, max_attempts // 4)
    for attempt in range(rounds):
        x = find_denominator(dd, r, seed=seed * rounds + attempt,
                             max_attempts=4)
        if x is None:
            log("round %d: no verified denominator" % attempt)
            continue
        zeros = denominator_zeros(dd, x)
        log("round %d: denominator vanishes at %d points"
            % (attempt, len(zeros)))
        cols = [i * o + s for i, s in zeros]
        sub = _error_system(code, zeros)
        try:
            sol = gauss.solve(ctx, sub, target)
        except Inconsistent:
            log("round %d: support system inconsistent" % attempt)
            continue
        evec = [ctx.zero] * (code.n * o)
        for c, value in zip(cols, sol):
            evec[c] = value
        err = _elements(G, ctx, evec)
        cw = [ga_sub(ri, ei) for ri, ei in zip(r, err)]
        if not all(s.is_zero() for s in parity_check(code, cw)):
            log("round %d: corrected word fails the parity check" % attempt)
            continue
        try:
            m = interpolate(code, cw)
        except NotInImage:
            log("round %d: corrected word not in the image" % attempt)
            continue
        log("decoded: %d expanded error positions" % len(cols))
        return DecodeResult(tuple(cw), tuple(m), tuple(err), tuple(x),
                            tuple(zeros))
    raise DecodeFail("no consistent correction within %d rounds" % rounds)


# ------------------------------------------------------- data constructors


def _warn_degree_windows(code: EquivariantCode, deg_d0):
    """Warn-only comfort windows on the base: g <= deg D0 <= n-1 and
    2g - 1 <= deg D + deg D0 <= n - 1."""
    g_x = code.meta.get("g_x")
    deg_d = code.meta.get("deg_d")
    if g_x is None or deg_d is None or deg_d0 is None:
        return
    n = code.n
    if not g_x <= deg_d0 <= n - 1:
        warnings.warn(DegreeWindowWarning(
            "auxiliary degree %d outside [%d, %d]" % (deg_d0, g_x, n - 1)),
            stacklevel=3)
    if not 2 * g_x - 1 <= deg_d + deg_d0 <= n - 1:
        warnings.warn(DegreeWindowWarning(
            "product degree %d outside [%d, %d]"
            % (deg_d + deg_d0, 2 * g_x - 1, n - 1)), stacklevel=3)


def _trivial_kg(group, ctx, kmat, rows, cols):
    entries = tuple(GroupAlgebraElement(group, ctx, (kmat[i][j],))
                    for i in range(rows) for j in range(cols))
    return KGMatrix(group, ctx, rows, cols, entries)


def make_rs_decoder_data(code: EquivariantCode, deg_d0=None) -> DecoderData:
    """Decoder data for a trivial-group Vandermonde code.

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
    if code.meta.get("g_x") != 0 or code.meta.get("deg_e") is None:
        raise Mismatch("need genus-0 metadata with a known degree")
    ctx, n = code.field, code.n
    deg_e = code.meta["deg_e"]
    if deg_d0 is None:
        deg_d0 = d_basic
    if deg_d0 < 0 or deg_e + deg_d0 + 1 >= n:
        raise DegreeWindow("auxiliary degree %d leaves no checking "
                           "capacity (deg E = %d, n = %d)"
                           % (deg_d0, deg_e, n))
    _warn_degree_windows(code, deg_d0)
    if code.k >= 2:
        pts = [code.evaluation.entry(i, 1).coeffs[0] for i in range(n)]
    else:
        pts = _first_nonzero_points(ctx, n)
    k0, k1 = deg_d0 + 1, deg_e + deg_d0 + 1
    vand = [[ctx.pow_(x, j) for j in range(k1)] for x in pts]
    for i in range(n):
        for j in range(code.k):
            if code.evaluation.entry(i, j).coeffs[0] != vand[i][j]:
                raise Mismatch("evaluation matrix is not the Vandermonde "
                               "matrix of the expected points")
    G = code.group
    e0 = _trivial_kg(G, ctx, [row[:k0] for row in vand], n, k0)
    c1, i1 = split_kernel_and_inverse(_trivial_kg(G, ctx, vand, n, k1))
    if expanded_rank(e0) != k0:
        raise RankDeficient("denominator evaluation is not free")
    radius = min(deg_d0, n - deg_e - deg_d0 - 1)
    return DecoderData(code, e0, c1, i1, deg_d0, radius)


def make_cyclic_decoder_data(code: EquivariantCode, k0) -> DecoderData:
    """Decoder data for a cyclic-cover code (exact radius).

    The denominator space is the rank-k0 polynomial module of degree
    < k0*o; the product space has rank k1 = k + k0.  Through the
    underlying Reed-Solomon structure the radius is
    min(k0*o - 1, o*(n - k - k0)).
    """
    G, ctx = code.group, code.field
    o, n, k = G.order, code.n, code.k
    if len(G.factors) != 1:
        raise Mismatch("cyclic-cover decoder needs a cyclic group")
    if not 0 < k0:
        raise DegreeWindow("auxiliary rank must be positive")
    k1 = k + k0
    if k1 >= n:
        raise DegreeWindow("product rank %d leaves no checking capacity "
                           "(n = %d)" % (k1, n))
    zeta = root_of_unity(ctx, o)
    gen = ctx.generator()
    ys = [ctx.pow_(gen, i) for i in range(n)]
    if code.evaluation.entries != cyclic_orbit_evaluation(ctx, G, zeta,
                                                          ys, k):
        raise Mismatch("evaluation matrix is not the cyclic-orbit "
                       "evaluation of the expected points")
    e0 = KGMatrix(G, ctx, n, k0, cyclic_orbit_evaluation(ctx, G, zeta,
                                                         ys, k0))
    e1 = KGMatrix(G, ctx, n, k1, cyclic_orbit_evaluation(ctx, G, zeta,
                                                         ys, k1))
    c1, i1 = split_kernel_and_inverse(e1)
    if expanded_rank(e0) != k0 * o:
        raise RankDeficient("denominator evaluation is not free")
    radius = min(k0 * o - 1, o * (n - k - k0))
    return DecoderData(code, e0, c1, i1, k0 * o - 1, radius)


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
    G, ctx = code.group, code.field
    o, n, k = G.order, code.n, code.k
    split_root(G, ctx)
    if not 0 < k0 <= k:
        raise DegreeWindow("denominator rank must be in 1..k (columns are "
                           "taken from the evaluation matrix)")
    rng = random.Random(seed)
    e0 = KGMatrix(G, ctx, n, k0,
                  tuple(code.evaluation.entry(i, j)
                        for i in range(n) for j in range(k0)))
    if expanded_rank(e0) != k0 * o:
        raise RankDeficient("leading evaluation columns are not free")
    sigmas = [ga_sigma(G, ctx, t) for t in range(o)]
    products = []
    for a in range(k0):
        cols0 = [e0.entry(i, a) for i in range(n)]
        for b in range(k):
            cols = [code.evaluation.entry(i, b) for i in range(n)]
            for s in sigmas:
                products.append([_pointwise(u, ga_mul_naive(s, w))
                                 for u, w in zip(cols0, cols)])
    spans = []
    for rows in _spectrum(kg_from_rows(products)):
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
    c1t = kg_transpose(c1)
    for qs in products:
        if not all(s.is_zero() for s in kg_apply(c1t, qs)):
            raise InvariantViolation("product-space closure failed")
    return DecoderData(code, e0, c1, i1, None, 0)
