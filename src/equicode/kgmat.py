"""Linear algebra over the group algebra K[G].

A KGMatrix is a dense matrix over K[G] stored as one row-major tuple of
raw field values, |G| per entry, each checked to be a raw value of the
field when the matrix is built; `entry`, `row` and `col` build elements
on demand.  The bridge to plain K-linear algebra is `expand`, which
replaces every entry by the circulant block of multiplication by that
entry in the group basis (the regular representation): block[g, h] =
entry_{g h^{-1}}.  With that convention
expand(a) . vec(b) = vec(a b) and expand(involution(a)) = expand(a)^t.

Products use the Kronecker substitution of `galg.ga_mul_fast` and its
packing helpers in every algebra: an output entry costs one sum of big-int
products and one unpacking, and no transform runs.  There is one raw
matrix-vector product, `_products`: a matrix times a column of raw
coefficients, both packed at one slot width.  `_apply` unpacks its
products into raw coefficients; `kg_matmul` runs it on each column of its
right factor, `kg_apply` on a vector of elements, flattened, and the
decoder on raw coefficients throughout.  The decoder's denominator search
takes its products through `_apply_packed` instead, as columns already in
`gauss.first_dependency`'s packed layout, so no module but this one, galg
and gauss knows a slot width.  The columns it applies C1^t to are those of
diag(r) . expand(E0), which `_scaled_expansion` makes a block at a time:
over F_p with one axis a row of the block is one big-int product
of a scale value and a packed window of the entry, and one packed
Barrett reduction takes all of the block's slots mod p.  Each matrix
keeps its packed rows, with their width, its packed expansion windows
and its transpose once computed.

Whenever K[G] is split (the exponent of G dividing q - 1, so also for the
trivial group, where K[1] = K has one character) the Fourier transform
makes K[G] a product of copies of K, so a matrix is one K-matrix per
character, and certification runs there: `expanded_rank` is the sum of the
per-character ranks (the block DFT is invertible), and
`kg_product_is_scalar` compares per-character products with a multiple of
the identity.  `split_root` decides whether K[G] is split and gives the
one root every Fourier image is taken at; the root only fixes the order
of the characters.  A matrix's image is one `galg._transform` of its raw
coefficients, and `kg_from_spectrum` is one `galg._inverse_transform`.
Each matrix keeps its one Fourier image once computed, always from its
stored entries (`kg_from_spectrum` keeps none of the spectrum it is
given), so these certifications check what gets saved.  Transposes
carry the image over.  Non-split algebras expand densely or multiply
through `kg_matmul`.

On top of the expansion: invariant duality forms, the lifting of K-linear
forms to K[G]-linear ones, equivariant projections onto free submodules,
systematization by unit pivots, and (in the split case) per-character kernel
and left-inverse computation.
"""

from __future__ import annotations

import sys
from array import array
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
    GroupAlgebraElement,
    _elements,
    _from_bytes,
    _inverse_transform,
    _layout,
    _pack_coeffs,
    _slot_width,
    _to_bytes,
    _transform,
    _unpack_coeffs,
    ga_mul_fast,
    ga_sub,
)
from .ff import OPS, FieldCtx, root_of_unity


def _require_ints(**sizes):
    """InvariantViolation unless every size is an int (a bool is not)."""
    for name, v in sizes.items():
        if isinstance(v, bool) or not isinstance(v, int):
            raise InvariantViolation("%s must be an int, got %r" % (name, v))


@dataclass(frozen=True)
class KGMatrix:
    group: AbelianGroup
    field: FieldCtx
    rows: int
    cols: int
    coeffs: tuple  # row-major raw values, |G| per entry
    # the per-character K-matrices (see _spectrum), the packed rows (see
    # _apply), the packed windows of expand(m)'s rows (see
    # _scaled_expansion) and the transpose, each once built (see
    # kg_transpose); memoization only
    _spectra: list = dc_field(default_factory=list, init=False,
                              compare=False, hash=False, repr=False)
    _packed: list = dc_field(default_factory=list, init=False,
                             compare=False, hash=False, repr=False)
    _expanded: list = dc_field(default_factory=list, init=False,
                               compare=False, hash=False, repr=False)
    _transposed: list = dc_field(default_factory=list, init=False,
                                 compare=False, hash=False, repr=False)

    def __post_init__(self):
        _require_ints(rows=self.rows, cols=self.cols)
        if self.rows < 0 or self.cols < 0:
            raise InvariantViolation("matrix is %dx%d"
                                     % (self.rows, self.cols))
        want = self.rows * self.cols * self.group.order
        if len(self.coeffs) != want:
            raise InvariantViolation("coefficient count %d, expected %d"
                                     % (len(self.coeffs), want))
        if not self.field.are_raw(self.coeffs):
            raise InvariantViolation("coefficients are not raw values of %r"
                                     % (self.field,))

    def entry(self, i, j):
        o = self.group.order
        start = (i * self.cols + j) * o
        return GroupAlgebraElement(self.group, self.field,
                                   self.coeffs[start:start + o])

    def row(self, i):
        return [self.entry(i, j) for j in range(self.cols)]

    def col(self, j):
        return [self.entry(i, j) for i in range(self.rows)]


def _blocks(m: KGMatrix):
    """m's entries as raw coefficient tuples, row-major."""
    o, c = m.group.order, m.coeffs
    return [c[s:s + o] for s in range(0, len(c), o)]


def _leading_columns(m: KGMatrix, cols) -> KGMatrix:
    """The first cols columns of m."""
    size, keep = m.cols * m.group.order, cols * m.group.order
    return KGMatrix(m.group, m.field, m.rows, cols, tuple(
        x for i in range(m.rows) for x in m.coeffs[i * size:i * size + keep]))


def kg_from_rows(rows):
    entries = [a for row in rows for a in row]
    if not entries:
        raise InvariantViolation("kg_from_rows needs at least one entry")
    group, field = entries[0].group, entries[0].field
    if any(a.group != group or a.field != field for a in entries):
        raise Mismatch("entries live in different group algebras")
    return KGMatrix(group, field, len(rows), len(rows[0]),
                    tuple(c for a in entries for c in a.coeffs))


def kg_zero(group, ctx, rows, cols):
    return KGMatrix(group, ctx, rows, cols,
                    (ctx.zero,) * (rows * cols * group.order))


def _scalar_coeffs(group, ctx, rows, cols, c):
    """Raw coefficients of the raw value c times the rows x cols identity."""
    z = (ctx.zero,) * group.order
    unit = (c,) + z[1:]
    return tuple(x for i in range(rows) for j in range(cols)
                 for x in (unit if i == j else z))


def kg_identity(group, ctx, n):
    return KGMatrix(group, ctx, n, n,
                    _scalar_coeffs(group, ctx, n, n, ctx.one))


def kg_transpose(m: KGMatrix) -> KGMatrix:
    """Plain entrywise transpose; no involution is applied.  Built once
    and kept on m, so its packed rows are packed once too.  A Fourier
    image cached on m carries over, transposed character by character."""
    if not m._transposed:
        blocks = _blocks(m)
        m._transposed.append(KGMatrix(
            m.group, m.field, m.cols, m.rows,
            tuple(x for j in range(m.cols) for b in blocks[j::m.cols]
                  for x in b)))
    t = m._transposed[0]
    if m._spectra and not t._spectra:
        t._spectra.append([list(zip(*mat)) or [()] * m.cols
                           for mat in m._spectra[0]])
    return t


def kg_matmul(a: KGMatrix, b: KGMatrix) -> KGMatrix:
    """Matrix product through packed integers: a applied to each of b's
    columns, sliced from its transpose, through `_apply`."""
    if a.cols != b.rows:
        raise DimMismatch("inner dimensions %d and %d differ"
                          % (a.cols, b.rows))
    if a.group != b.group or a.field != b.field:
        raise Mismatch("entries live in different group algebras")
    G, ctx, o = a.group, a.field, a.group.order
    size, b_cols = b.rows * o, kg_transpose(b).coeffs
    out = [_apply(a, b_cols[j * size:(j + 1) * size]) for j in range(b.cols)]
    return KGMatrix(G, ctx, a.rows, b.cols, tuple(
        x for s in range(0, a.rows * o, o) for col in out
        for x in col[s:s + o]))


# --------------------------------------------------- packed (Kronecker) product


def _products(a: KGMatrix, flat, width):
    """The big-int products of a's rows with the column flat (a.cols |G|
    raw values), both packed at width bytes a slot; a's rows are packed
    once per width and kept on a.  OPS gets one multiplication and one
    addition per slot of every packed product, 2 a.rows a.cols (2d - 1) T
    with T = prod_k (2 o_k - 1)."""
    G, ctx = a.group, a.field
    if not a._packed or a._packed[0] != width:
        packed = _pack_coeffs(G, ctx, a.coeffs, width)
        a._packed[:] = [width, [packed[i * a.cols:(i + 1) * a.cols]
                                for i in range(a.rows)]]
    col = _pack_coeffs(G, ctx, flat, width)
    OPS.add(2 * a.rows * a.cols * (2 * ctx.d - 1) * _layout(G)[1])
    return [sum(map(int_mul, row, col)) for row in a._packed[1]]


def _apply(a: KGMatrix, flat, scale=None):
    """a times a column of raw coefficients, as the raw coefficients of its
    rows, concatenated: `_products` at `_slot_width(G, K, a.cols)`, or at
    the wider width a's rows are kept at, then one unpacking.  With scale
    (|G| raw values per row), every coefficient comes out times its scale
    value (see `galg._unpack_coeffs`), and OPS gets rows |G| more."""
    G, ctx = a.group, a.field
    width = max(_slot_width(G, ctx, a.cols), a._packed[0] if a._packed else 0)
    return _unpack_coeffs(G, ctx, _products(a, flat, width), width, scale)


def _apply_packed(a: KGMatrix, flat, width):
    """a times a column of raw coefficients as one column of
    `gauss.first_dependency` at width bytes a slot, coefficient g of row i
    in slot i |G| + g.  Over F_p with at most one axis the slots are
    `_products`' own, unreduced (below a.cols |G| (p - 1)^2, which width
    must hold): the axis folds on the integer, as in `galg._unpack_coeffs`,
    and the rows' bytes are concatenated.  An entry of the column that
    is zero packs to the int 0, so its products with a's rows are
    products by 0.  Other layouts go through `_apply` and pack its
    values."""
    G, ctx = a.group, a.field
    if ctx.d != 1 or len(G.factors) > 1:
        return gauss._pack(ctx, _apply(a, flat), width)
    xs = _products(a, flat, width)
    step = width * G.order
    if G.factors:
        mask = (1 << 8 * step) - 1
        xs = [(x & mask) + (x >> 8 * step) for x in xs]
    return int.from_bytes(b"".join([x.to_bytes(step, "little") for x in xs]),
                          "little")


# columns of diag(scale) . expand(m) that `_scaled_expansion` scales at
# once (at most |G|): enough to spread the Python cost of a block's
# m.rows |G| products, few enough that a word with few errors scales
# little more than the columns it pulls
_BLOCK_COLUMNS = 16


def _scaled_expansion(m: KGMatrix, scale):
    """The columns of diag(scale) . expand(m), in order, each the m.rows |G|
    raw values of rows (i, g), i major; scale holds one raw value per row.
    Column (b, h) of expand(m) is column b of m with every entry translated
    by h: row (i, g) holds coefficient g h^{-1} of m_{i,b}.  OPS gets
    m.rows |G| per column pulled, the entrywise products.

    Over F_p with one axis the columns come in blocks of c =
    min(|G|, _BLOCK_COLUMNS), (b, h0) to (b, h0 + c - 1), each block made
    when its first column is pulled.  Row (i, g) of a block holds
    coefficients g - h0 - v, v < c, of m_{i,b}, which depend on i, b and
    h0 - g only.  So the windows of every entry are packed once and kept
    on m, a slot of w = ceil(B / 8) bytes per coefficient, with B =
    bits((p - 1)^2), and row (i, g) of the scaled block is one window
    times the raw value scale[(i, g)], which does not carry; where scale
    is zero at all of row i's |G| values the rows (i, g) are zero bytes
    and make no products.  The products' bytes are joined, widened once
    to W-byte slots and read as one int, and each slot v <= (p - 1)^2 is
    reduced mod p in one packed pass (Barrett): with k = B + bits(p) and
    mu = ceil(2^k / p),
    floor(v mu / 2^k) = floor(v / p) since v (mu p - 2^k) < 2^k, and
    v mu < 2^(2B + 1) fits a slot of W = max(8, ceil((2B + 1) / 8))
    bytes.  With W = 8 (every p <= 46337) the reduced slots are one
    64-bit array, and the columns its strided slices.  Other algebras
    translate and `ctx.vmul` one column at a time; so does the trivial
    group, which has no translates to keep and whose blocks would hold
    one column each."""
    G, ctx, o, cols = m.group, m.field, m.group.order, m.cols
    if ctx.d != 1 or len(G.factors) != 1:
        entries, shifts = _blocks(m), [G.quotients(h) for h in range(o)]
        for b in range(cols):
            for q in shifts:
                yield ctx.vmul([a[t] for a in entries[b::cols] for t in q],
                               scale)
        return
    p, height = ctx.p, m.rows * o
    B = ((p - 1) ** 2).bit_length()
    w, W, k = -(-B // 8), max(8, -(-(2 * B + 1) // 8)), B + p.bit_length()
    c = min(o, _BLOCK_COLUMNS)
    starts = range(0, o, c)
    if not m._expanded:
        # window u of an entry holds its coefficients -1 - u - v, v < c:
        # row (i, g) of block h0 is window h0 + |G| - 1 - g of m_{i,b}
        count = o + starts[-1]
        windows = []
        for a in _blocks(m):
            raw = _to_bytes([a[-1 - s % o] for s in range(count + c)], w)
            windows.append([int.from_bytes(raw[u * w:(u + c) * w], "little")
                            for u in range(count)])
        m._expanded[:] = [windows, int.from_bytes(
            ((1 << 8 * W - k) - 1).to_bytes(W, "little") * (height * c),
            "little")]
    windows, mask = m._expanded
    mu = -(-(1 << k) // p)
    # None marks a row i whose scale values are all zero
    scales = [scale[i:i + o] for i in range(0, height, o)]
    scales = [xs if any(xs) else None for xs in scales]
    blank = bytes(o * c * w)
    for b in range(cols):
        for h0 in starts:
            us = range(h0 + o - 1, h0 - 1, -1)
            prods = b"".join([
                blank if xs is None else b"".join([
                    (x * r[u]).to_bytes(c * w, "little")
                    for x, u in zip(xs, us)])
                for r, xs in zip(windows[b::cols], scales)])
            # each stage's buffer goes before the next is made, since the
            # search's pivots grow meanwhile
            wide = bytearray(height * c * W)
            for j in range(w):
                wide[j::W] = prods[j::w]
            del prods
            v = int.from_bytes(wide, "little")
            del wide
            # the shift moves each slot's low k bits into the top of the
            # slot below, which the mask clears
            v -= ((v * mu >> k) & mask) * p
            raw = v.to_bytes(height * c * W, "little")
            del v
            if W == 8:
                vals = array("Q", raw)
                if sys.byteorder == "big":
                    vals.byteswap()
            else:
                vals = _from_bytes(raw, W)
            del raw
            for j in range(min(c, o - h0)):
                OPS.add(height)
                yield vals[j::c]


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
    `split_root`.  One `_transform` of the stored entries, computed once
    and kept on the matrix.
    """
    if not a._spectra:
        G, ctx, o = a.group, a.field, a.group.order
        hats = _transform(ctx, list(a.coeffs), G, split_root(G, ctx))
        size = a.cols * o  # values per row
        a._spectra.append([[tuple(hats[i * size + chi:(i + 1) * size:o])
                            for i in range(a.rows)] for chi in range(o)])
    return a._spectra[0]


def kg_from_spectrum(group, ctx, spec, rows, cols) -> KGMatrix:
    """The rows x cols matrix whose per-character K-matrices are spec.

    spec[chi][i][j] is entry (i, j) at character chi, in the layout
    `_spectrum` returns.  spec is not kept: the matrix's Fourier image is
    transformed from its entries when first needed, so a certification
    never just re-reads its own input.  Raises NotSplit unless K[G] is
    split.
    """
    if len(spec) != group.order:
        raise Mismatch("need %d characters, got %d" % (group.order, len(spec)))
    return KGMatrix(group, ctx, rows, cols, tuple(_inverse_transform(
        ctx, [mat[i][j] for i in range(rows) for j in range(cols)
              for mat in spec], group, split_root(group, ctx))))


def _flat(a: KGMatrix, vec):
    """The raw coefficients of vec, a.cols elements of a's K[G],
    concatenated: a column that `_apply` takes."""
    if a.cols != len(vec):
        raise DimMismatch("matrix has %d columns, vector %d entries"
                          % (a.cols, len(vec)))
    if any(x.group != a.group or x.field != a.field for x in vec):
        raise Mismatch("entries live in different group algebras")
    return [c for x in vec for c in x.coeffs]


def kg_apply(a: KGMatrix, vec):
    """Matrix times vector of GroupAlgebraElements through `_apply`: OPS
    gets its nominal 2 rows cols (2d - 1) T field operations."""
    return _elements(a.group, a.field, _apply(a, _flat(a, vec)))


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
        return kg_matmul(a, b).coeffs == _scalar_coeffs(G, ctx, a.rows,
                                                        b.cols, c)
    for x, y in zip(_spectrum(a), _spectrum(b)):
        y_cols = list(zip(*y)) or [()] * b.cols
        for i, row in enumerate(x):
            # row i of x . y
            if [ctx.dot(col, row) for col in y_cols] != [
                    c if i == j else zero for j in range(b.cols)]:
                return False
    return True


# ------------------------------------------------------------- expansion


def expand(m: KGMatrix):
    """The rows rows |G| x cols |G| K-matrix of m, as a list of rows."""
    G, cols, entries = m.group, m.cols, _blocks(m)
    # row (i, g), column (j, h): coefficient g h^{-1} of entry (i, j)
    quot = [G.quotients(h) for h in range(G.order)]
    return [[a[q[g]] for a in entries[i * cols:(i + 1) * cols] for q in quot]
            for i in range(m.rows) for g in range(G.order)]


def expanded_rank(m: KGMatrix) -> int:
    """K-rank of expand(m); per character in the split case."""
    if not _is_split(m.group, m.field):
        return gauss.rank(m.field, expand(m))
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
        return self.field.dot([x for wi in w for x in wi.coeffs],
                              [y for fi in f for y in fi.coeffs])

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
    coeffs = []
    for j, col in enumerate(values):
        if len(col) != group.order:
            raise DimMismatch("form block %d has %d values, need %d"
                              % (j, len(col), group.order))
        coeffs += [col[group.inverse_index(s)] for s in range(group.order)]
    return KGMatrix(group, ctx, 1, len(values), tuple(coeffs))


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
    x = expand(v)
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
    coeffs = []
    for i in range(v.cols):
        # dual form of basis column (i, identity), zero off the support
        psi = [ctx.zero] * (v.rows * o)
        for pos, s in enumerate(support):
            psi[s] = y[i * o][pos]
        for j in range(v.rows):
            coeffs += [psi[j * o + G.inverse_index(s)] for s in range(o)]
    p = KGMatrix(G, ctx, v.cols, v.rows, tuple(coeffs))
    if kg_matmul(p, v) != kg_identity(G, ctx, v.cols):
        raise InvariantViolation("projection failed to invert the basis")
    return p


# ------------------------------------------------------------ systematize


def ga_unit_inverse(a: GroupAlgebraElement):
    """Inverse of a unit of K[G], or None when a is not invertible."""
    G = a.group
    ctx = a.field
    mat = expand(kg_from_rows([[a]]))
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
    b_t = tuple(c for i in range(k) for j in range(k, n)
                for c in work[j][i].coeffs)
    minus_i = _scalar_coeffs(G, ctx, n - k, n - k, ctx.neg(ctx.one))
    return SystematizeResult(
        kg_from_rows(work), tuple(perm),
        KGMatrix(G, ctx, n, n - k, b_t + minus_i),
        KGMatrix(G, ctx, k, n, _scalar_coeffs(G, ctx, k, n, ctx.one)))


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
