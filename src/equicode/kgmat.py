"""Linear algebra over the group algebra K[G].

A KGMatrix is a dense matrix of GroupAlgebraElements.  The bridge to plain
K-linear algebra is `expand`, which replaces every entry by the circulant
block of multiplication by that entry in the group basis (the regular
representation): block[g, h] = entry_{g h^{-1}}.  With that convention
expand(a) . vec(b) = vec(a b) and expand(involution(a)) = expand(a)^t.

Products (`kg_matmul`, `kg_apply`) use the Kronecker substitution of
`galg.ga_mul_fast` and its packing helpers in every algebra: an output
entry costs one sum of big-int products and one unpacking, and no
transform runs.  Both go through `_apply_packed`, a matrix times one
packed column, which the decoder's black box also calls on raw
coefficients.  Each matrix keeps its packed entries and its transpose
once computed.

Whenever K[G] is split (the exponent of G dividing q - 1, so also for the
trivial group, where K[1] = K has one character) the Fourier transform
makes K[G] a product of copies of K, so a matrix is one K-matrix per
character, and certification runs there: `expanded_rank` is the sum of the
per-character ranks (the block DFT is invertible), and
`kg_product_is_scalar` compares per-character products with a multiple of
the identity.  `split_root` decides whether K[G] is split and gives the
one root every Fourier image is taken at; the root only fixes the order
of the characters.  Each matrix keeps its one Fourier image once
computed, always from its stored entries (`kg_from_spectrum` keeps none
of the spectrum it is given), so these certifications check what gets
saved.  Transposes carry the image over.  Non-split algebras expand
densely or multiply through `kg_matmul`.

On top of the expansion: invariant duality forms, the lifting of K-linear
forms to K[G]-linear ones, equivariant projections onto free submodules,
systematization by unit pivots, and (in the split case) per-character kernel
and left-inverse computation.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from operator import mul as int_mul

from . import gauss
from .errors import (
    DimMismatch,
    Inconsistent,
    InvariantViolation,
    Mismatch,
    NotFree,
    NotSplit,
    NotSystematizable,
    RankDeficient,
)
from .galg import (
    AbelianGroup,
    FourierImage,
    GroupAlgebraElement,
    _elements,
    _layout,
    _pack_coeffs,
    _slot_width,
    _unpack_coeffs,
    ft_group,
    ft_inverse,
    ga_mul_fast,
    ga_one,
    ga_sub,
    ga_zero,
)
from .ff import OPS, FieldCtx, root_of_unity


@dataclass(frozen=True)
class KGMatrix:
    group: AbelianGroup
    field: FieldCtx
    rows: int
    cols: int
    entries: tuple  # row-major GroupAlgebraElements
    # the per-character K-matrices (see _spectrum), slot width -> packed
    # rows (see _packed) and the transpose, each once built (see
    # kg_transpose); memoization only
    _spectra: list = dc_field(default_factory=list, init=False,
                              compare=False, hash=False, repr=False)
    _packed: dict = dc_field(default_factory=dict, init=False,
                             compare=False, hash=False, repr=False)
    _transposed: list = dc_field(default_factory=list, init=False,
                                 compare=False, hash=False, repr=False)

    def __post_init__(self):
        if len(self.entries) != self.rows * self.cols:
            raise InvariantViolation("entry count %d, expected %d"
                                     % (len(self.entries),
                                        self.rows * self.cols))
        group, field = self.group, self.field
        for a in self.entries:
            if a.group is group and a.field is field:
                continue
            if a.group != group or a.field != field:
                raise Mismatch("entries live in different group algebras")

    def entry(self, i, j):
        return self.entries[i * self.cols + j]

    def row(self, i):
        return list(self.entries[i * self.cols:(i + 1) * self.cols])

    def col(self, j):
        return [self.entries[i * self.cols + j] for i in range(self.rows)]


def kg_from_rows(rows):
    entries = tuple(a for row in rows for a in row)
    if not entries:
        raise InvariantViolation("kg_from_rows needs at least one entry")
    return KGMatrix(entries[0].group, entries[0].field,
                    len(rows), len(rows[0]), entries)


def kg_zero(group, ctx, rows, cols):
    z = ga_zero(group, ctx)
    return KGMatrix(group, ctx, rows, cols, (z,) * (rows * cols))


def kg_identity(group, ctx, n):
    one = ga_one(group, ctx)
    z = ga_zero(group, ctx)
    return KGMatrix(group, ctx, n, n, tuple(one if i == j else z
                                            for i in range(n)
                                            for j in range(n)))


def kg_transpose(m: KGMatrix) -> KGMatrix:
    """Plain entrywise transpose; no involution is applied.  Built once
    and kept on m, so its packed rows are packed once too.  A Fourier
    image cached on m carries over, transposed character by character."""
    if not m._transposed:
        m._transposed.append(KGMatrix(
            m.group, m.field, m.cols, m.rows,
            tuple(m.entry(i, j)
                  for j in range(m.cols) for i in range(m.rows))))
    t = m._transposed[0]
    if m._spectra and not t._spectra:
        t._spectra.append([list(zip(*mat)) or [()] * m.cols
                           for mat in m._spectra[0]])
    return t


def kg_matmul(a: KGMatrix, b: KGMatrix) -> KGMatrix:
    """Matrix product through packed integers: b's packed columns, each
    through `_apply_packed`."""
    if a.cols != b.rows:
        raise DimMismatch("inner dimensions %d and %d differ"
                          % (a.cols, b.rows))
    if a.group != b.group or a.field != b.field:
        raise Mismatch("entries live in different group algebras")
    G, ctx = a.group, a.field
    width = _slot_width(G, ctx, a.cols)
    b_cols = list(zip(*_packed(b, width))) or [()] * b.cols
    out = [_elements(G, ctx, _apply_packed(a, col, width)) for col in b_cols]
    return KGMatrix(G, ctx, a.rows, b.cols, tuple(
        out[j][i] for i in range(a.rows) for j in range(b.cols)))


# --------------------------------------------------- packed (Kronecker) product


def _packed(m: KGMatrix, width):
    """m's entries packed at the given width, row by row; kept on m."""
    rows = m._packed.get(width)
    if rows is None:
        flat = _pack_coeffs(m.group, m.field,
                            [c for x in m.entries for c in x.coeffs], width)
        rows = [flat[i * m.cols:(i + 1) * m.cols] for i in range(m.rows)]
        m._packed[width] = rows
    return rows


def _apply_packed(a: KGMatrix, col, width, scale=None):
    """a times a column packed at width `_slot_width(G, K, a.cols)`, as the
    raw coefficients of its rows, concatenated: per row one sum of big-int
    products against a's packed rows, and one unpacking for all rows.
    With scale (|G| raw values per row, concatenated), every coefficient
    comes out times its scale value (see `galg._unpack_coeffs`).

    Nominal cost, added to OPS: one multiplication and one addition per
    slot of every packed product, 2 a.rows a.cols (2d - 1) T with
    T = prod_k (2 o_k - 1), plus rows |G| with scale."""
    G, ctx = a.group, a.field
    OPS.add(2 * a.rows * a.cols * (2 * ctx.d - 1) * _layout(G)[1])
    return _unpack_coeffs(G, ctx, [sum(map(int_mul, row, col))
                                   for row in _packed(a, width)],
                          width, scale)


def _is_split(group, ctx):
    """Whether K[G] is split: the exponent of G divides q - 1.  Then p does
    not divide |G| either, since every prime factor of |G| divides the
    exponent."""
    return (ctx.q - 1) % group.exponent == 0


def split_root(group, ctx):
    """The root of unity every Fourier image over K[G] is taken at: a
    primitive root of order the exponent of G (1 for the trivial group).
    Raises NotSplit unless K[G] is split."""
    if not _is_split(group, ctx):
        raise NotSplit("F_%d has no elements of order %d"
                       % (ctx.q, group.exponent))
    return root_of_unity(ctx, group.exponent)


def _spectrum(a: KGMatrix):
    """Per-character K-matrices of a: spec[chi][i][j] = FT(a_ij)(chi), at
    `split_root`.  Computed from the stored entries once and kept on the
    matrix.
    """
    if not a._spectra:
        omega = split_root(a.group, a.field)
        hats = [ft_group(x, omega).values for x in a.entries]
        cols = a.cols
        a._spectra.append(
            [[tuple(h[chi] for h in hats[i * cols:(i + 1) * cols])
              for i in range(a.rows)]
             for chi in range(a.group.order)])
    return a._spectra[0]


def kg_from_spectrum(group, ctx, spec, rows, cols) -> KGMatrix:
    """The rows x cols matrix whose per-character K-matrices are spec.

    spec[chi][i][j] is entry (i, j) at character chi, in the layout
    `_spectrum` returns.  spec is not kept: the matrix's Fourier image is
    transformed from its entries when first needed, so a certification
    never just re-reads its own input.  Raises NotSplit unless K[G] is
    split.
    """
    omega = split_root(group, ctx)
    return KGMatrix(group, ctx, rows, cols, tuple(
        ft_inverse(FourierImage(group, ctx, omega,
                                tuple(mat[i][j] for mat in spec)))
        for i in range(rows) for j in range(cols)))


def kg_apply(a: KGMatrix, vec):
    """Matrix times vector of GroupAlgebraElements through `_apply_packed`:
    OPS gets its nominal 2 rows cols (2d - 1) T field operations."""
    if a.cols != len(vec):
        raise DimMismatch("matrix has %d columns, vector %d entries"
                          % (a.cols, len(vec)))
    G, ctx = a.group, a.field
    if any(x.group != G or x.field != ctx for x in vec):
        raise Mismatch("entries live in different group algebras")
    width = _slot_width(G, ctx, a.cols)
    col = _pack_coeffs(G, ctx, [c for x in vec for c in x.coeffs], width)
    return _elements(G, ctx, _apply_packed(a, col, width))


def _matvec(ctx, m, x):
    """K-matrix times vector.  Over prime fields: plain int dot products,
    one reduction per output value, counted in OPS in bulk."""
    if ctx.d == 1:
        p = ctx.p
        OPS.add(2 * len(m) * len(x))
        return [sum(map(int_mul, row, x)) % p for row in m]
    return gauss.matvec(ctx, m, x)


def kg_product_is_scalar(a: KGMatrix, b: KGMatrix, c) -> bool:
    """Whether a . b is the raw field value c times the identity (c zero:
    the zero matrix).

    Split algebras compare each character's K-matrix product with c I (c I
    takes the value c at every character); others multiply entry by
    entry."""
    if a.cols != b.rows:
        raise DimMismatch("inner dimensions %d and %d differ"
                          % (a.cols, b.rows))
    G, ctx = a.group, a.field
    zero = ctx.zero
    if not _is_split(G, ctx):
        unit = GroupAlgebraElement(G, ctx, (c,) + (zero,) * (G.order - 1))
        z = ga_zero(G, ctx)
        return kg_matmul(a, b).entries == tuple(
            unit if i == j else z for i in range(a.rows)
            for j in range(b.cols))
    for x, y in zip(_spectrum(a), _spectrum(b)):
        y_cols = list(zip(*y)) or [()] * b.cols
        for i, row in enumerate(x):
            # row i of x . y
            if _matvec(ctx, y_cols, row) != [c if i == j else zero
                                             for j in range(b.cols)]:
                return False
    return True


# ------------------------------------------------------------- expansion


@dataclass(frozen=True)
class ExpandedMatrix:
    group: AbelianGroup
    field: FieldCtx
    block_rows: int
    block_cols: int
    matrix: tuple  # tuple of row tuples, raw K-values

    @property
    def rows(self):
        return self.block_rows * self.group.order

    @property
    def cols(self):
        return self.block_cols * self.group.order


def circulant(a: GroupAlgebraElement):
    """The group-order square K-matrix of multiplication by a."""
    G = a.group
    o = G.order
    rows = []
    for g in range(o):
        row = [None] * o
        for h in range(o):
            row[h] = a.coeffs[G.compose(g, G.inverse_index(h))]
        rows.append(tuple(row))
    return rows


def expand(m: KGMatrix) -> ExpandedMatrix:
    G = m.group
    o = G.order
    blocks = [[circulant(m.entry(i, j)) for j in range(m.cols)]
              for i in range(m.rows)]
    out = []
    for i in range(m.rows):
        for g in range(o):
            row = []
            for j in range(m.cols):
                row.extend(blocks[i][j][g])
            out.append(tuple(row))
    return ExpandedMatrix(G, m.field, m.rows, m.cols, tuple(out))


def expanded_rank(m: KGMatrix) -> int:
    """K-rank of expand(m); per character in the split case."""
    if not _is_split(m.group, m.field):
        return gauss.rank(m.field, [list(r) for r in expand(m).matrix])
    return sum(gauss.rank(m.field, mat) for mat in _spectrum(m))


# ---------------------------------------------------------------- duality


@dataclass(frozen=True)
class DualityContext:
    """Residue-sum pairing on K[G]^blocks: <w, f> = sum_{i,g} w_i[g] f_i[g]."""

    group: AbelianGroup
    field: FieldCtx
    blocks: int

    def base_form(self, w, f):
        if len(w) != self.blocks or len(f) != self.blocks:
            raise DimMismatch("vectors must have %d blocks" % self.blocks)
        ctx = self.field
        acc = ctx.zero
        for wi, fi in zip(w, f):
            for x, y in zip(wi.coeffs, fi.coeffs):
                acc = ctx.add(acc, ctx.mul(x, y))
        return acc

    def right_act(self, w, sidx):
        """(w . tau)_{i,g} = w_{i, g tau}."""
        G = self.group
        return [GroupAlgebraElement(
            G, self.field,
            tuple(wi.coeffs[G.compose(g, sidx)] for g in range(G.order)))
            for wi in w]

    def left_act(self, sidx, f):
        """(sigma . f)_{i,t} = f_{i, sigma^{-1} t}."""
        G = self.group
        inv = G.inverse_index(sidx)
        return [GroupAlgebraElement(
            G, self.field,
            tuple(fi.coeffs[G.compose(inv, t)] for t in range(G.order)))
            for fi in f]


def duality_form(n, m, dctx: DualityContext) -> GroupAlgebraElement:
    """(n, m) = sum_sigma <m . sigma^{-1}, n> sigma; K[G]-bilinear."""
    G = dctx.group
    ctx = dctx.field
    coeffs = []
    for s in range(G.order):
        shifted = dctx.right_act(m, G.inverse_index(s))
        coeffs.append(dctx.base_form(shifted, n))
    return GroupAlgebraElement(G, ctx, tuple(coeffs))


def phi_G(values, group, ctx) -> KGMatrix:
    """Lift a K-linear form to a K[G]-linear one.

    values[j][t] is the form on the basis vector (block j, group index t);
    the result is the 1 x L matrix w with (w . n) at sigma equal to the form
    at sigma^{-1} n.  Identity coefficient of w . n recovers the K-form.
    """
    L = len(values)
    entries = []
    for j in range(L):
        col = values[j]
        if len(col) != group.order:
            raise DimMismatch("form block %d has %d values, need %d"
                              % (j, len(col), group.order))
        entries.append(GroupAlgebraElement(
            group, ctx,
            tuple(col[group.inverse_index(s)] for s in range(group.order))))
    return KGMatrix(group, ctx, 1, L, tuple(entries))


# -------------------------------------------------------------- projection


def equivariant_projection(v: KGMatrix, support_rows=None) -> KGMatrix:
    """A K[G]-linear projection P (r x L) with P . v = identity.

    v is L x r, columns forming a free-module basis of a submodule of
    K[G]^L; freeness is witnessed by the expansion having K-rank r*order.
    The K-linear lift extends the dual basis by zero outside a set of
    expanded coordinate rows: the echelon pivot rows by default, or the
    caller-chosen `support_rows` (the lift choice).
    """
    G = v.group
    ctx = v.field
    o = G.order
    need = v.cols * o
    x = [list(row) for row in expand(v).matrix]
    if support_rows is None:
        _, pivots = gauss.rref(ctx, gauss.transpose(x))
        support = list(pivots)
    else:
        support = sorted(set(support_rows))
    if len(support) != need:
        raise NotFree("expanded rank %d, need %d" % (len(support), need))
    minor = [x[s] for s in support]
    try:
        y = gauss.inverse(ctx, minor)
    except Inconsistent:
        raise NotFree("chosen support rows give a singular minor")
    entries = []
    for i in range(v.cols):
        # dual form of basis column (i, identity), zero off the support
        psi = [ctx.zero] * (v.rows * o)
        for pos, s in enumerate(support):
            psi[s] = y[i * o][pos]
        for j in range(v.rows):
            entries.append(GroupAlgebraElement(
                G, ctx,
                tuple(psi[j * o + G.inverse_index(s)] for s in range(o))))
    p = KGMatrix(G, ctx, v.cols, v.rows, tuple(entries))
    if kg_matmul(p, v) != kg_identity(G, ctx, v.cols):
        raise InvariantViolation("projection failed to invert the basis")
    return p


# ------------------------------------------------------------ systematize


def ga_unit_inverse(a: GroupAlgebraElement):
    """Inverse of a unit of K[G], or None when a is not invertible."""
    G = a.group
    ctx = a.field
    mat = [list(r) for r in circulant(a)]
    e0 = [ctx.one] + [ctx.zero] * (G.order - 1)
    try:
        x = gauss.solve(ctx, mat, e0)
    except Inconsistent:
        return None
    return GroupAlgebraElement(G, ctx, tuple(x))


@dataclass(frozen=True)
class SystematizeResult:
    matrix: KGMatrix          # row-permuted, column-operated; top block = I_k
    row_permutation: tuple    # position i holds input row row_permutation[i]
    check: KGMatrix           # n x (n-k), check^t . matrix = 0
    interp: KGMatrix          # k x n, interp . matrix = I_k


def systematize(e: KGMatrix) -> SystematizeResult:
    """Unit-pivot systematization; derives check/interpolation matrices.

    Only row permutations and invertible column operations are used, so the
    result evaluates the same submodule.  From the systematic form [I; B]
    the check matrix is [B^t; -I] and the interpolation matrix [I | 0].
    """
    n, k = e.rows, e.cols
    G = e.group
    ctx = e.field
    work = [[e.entry(i, j) for j in range(k)] for i in range(n)]
    perm = list(range(n))
    for step in range(k):
        found = None
        for r in range(step, n):
            for c in range(step, k):
                inv = ga_unit_inverse(work[r][c])
                if inv is not None:
                    found = (r, c, inv)
                    break
            if found:
                break
        if found is None:
            raise NotSystematizable("no unit pivot at step %d" % step)
        r, c, inv = found
        work[step], work[r] = work[r], work[step]
        perm[step], perm[r] = perm[r], perm[step]
        if c != step:
            for row in work:
                row[step], row[c] = row[c], row[step]
        for row in work:
            row[step] = ga_mul_fast(row[step], inv)
        for c2 in range(k):
            if c2 == step:
                continue
            f = work[step][c2]
            if f.is_zero():
                continue
            for row in work:
                row[c2] = ga_sub(row[c2], ga_mul_fast(row[step], f))
    e_sys = kg_from_rows(work)
    one = ga_one(G, ctx)
    z = ga_zero(G, ctx)
    check_rows = []
    for i in range(k):
        check_rows.append([work[k + j][i] for j in range(n - k)])
    for j in range(n - k):
        check_rows.append([(-one if j == l else z) for l in range(n - k)])
    interp_rows = [[one if i == j else z for j in range(n)] for i in range(k)]
    return SystematizeResult(e_sys, tuple(perm),
                             kg_from_rows(check_rows) if n > k
                             else kg_zero(G, ctx, n, 0),
                             kg_from_rows(interp_rows))


# ------------------------------------------------------- split-case solver


def split_kernel_and_inverse(e: KGMatrix):
    """Kernel-checking and left-inverse matrices through the characters.

    In the split case the Fourier transform turns K[G] into K^order
    pointwise, so C and I come from one elimination of [e_chi^t | I] per
    character.  Returns (C, I) with C of full rank, C^t . e = 0 and
    I . e = identity, each checked on the stored entries of C and I.
    Raises NotSplit unless K[G] is split.
    """
    n, k = e.rows, e.cols
    G = e.group
    ctx = e.field
    split_root(G, ctx)
    c_spec, i_spec = [], []
    ident = gauss.identity(ctx, k)
    for chi, e_chi in enumerate(_spectrum(e)):
        kern, y = gauss.kernel_and_solution(ctx, gauss.transpose(e_chi),
                                            ident)
        if len(kern) != n - k:
            raise RankDeficient(
                "character %d: rank %d, expected %d"
                % (chi, n - len(kern), k))
        c_spec.append([tuple(v[i] for v in kern) for i in range(n)])
        if y is None:
            raise RankDeficient("character %d: no left inverse" % chi)
        i_spec.append([tuple(row[i] for row in y) for i in range(k)])
    c = kg_from_spectrum(G, ctx, c_spec, n, n - k)
    i_mat = kg_from_spectrum(G, ctx, i_spec, k, n)
    # the rank first: it keeps c's Fourier image on c, where its transpose
    # finds it; a C short of full rank has ker C^t larger than the image of e
    if expanded_rank(c) != (n - k) * G.order:
        raise InvariantViolation("kernel matrix does not have full rank")
    if not kg_product_is_scalar(kg_transpose(c), e, ctx.zero):
        raise InvariantViolation("kernel matrix fails C^t E = 0")
    if not kg_product_is_scalar(i_mat, e, ctx.one):
        raise InvariantViolation("left inverse fails I E = 1")
    return c, i_mat
