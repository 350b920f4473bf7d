"""Versioned JSON artifacts: codes, decoder data, element vectors.

One canonical form -- sorted keys, no whitespace, a trailing newline, and
integers only (exact arithmetic deserves exact serialization; bools are
rejected even though isinstance says they are ints).  Canonical form makes
load/store round trips byte-identical, which the CLI relies on.

Parsing problems of any kind surface as ParseError; loading never
validates code identities (that is cmd_code's job), it only checks that
the file is structurally well-formed.
"""

from __future__ import annotations

import json
import os
from itertools import chain

from .code import EquivariantCode
from .decode import DecoderData
from .errors import EquicodeError, ParseError
from .ff import FieldCtx, field_make, raw_from_obj, raw_to_obj
from .galg import AbelianGroup, GroupAlgebraElement
from .kgmat import KGMatrix, _blocks

FORMAT_VERSION = 1


def canonical_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def loads(text: str):
    try:
        return json.loads(text)
    except ValueError as e:
        raise ParseError("invalid JSON: %s" % e)


def _need(obj, key):
    if not isinstance(obj, dict):
        raise ParseError("expected an object with key %r" % key)
    if key not in obj:
        raise ParseError("missing key %r" % key)
    return obj[key]


def _int(v, what):
    if isinstance(v, bool) or not isinstance(v, int):
        raise ParseError("%s must be an int, got %r" % (what, v))
    return v


def _int_or_none(v, what):
    if v is None:
        return None
    return _int(v, what)


def _check_version(obj, kind):
    if _int(_need(obj, "version"), "version") != FORMAT_VERSION:
        raise ParseError("unsupported version %r" % obj["version"])
    if _need(obj, "kind") != kind:
        raise ParseError("expected a %r file, got %r" % (kind, obj["kind"]))


# ------------------------------------------------------------- primitives


def field_to_obj(ctx: FieldCtx):
    return {"p": ctx.p, "d": ctx.d, "modulus": list(ctx.modulus)}


def field_from_obj(obj) -> FieldCtx:
    p = _int(_need(obj, "p"), "p")
    d = _int(_need(obj, "d"), "d")
    modulus = _need(obj, "modulus")
    if not isinstance(modulus, list):
        raise ParseError("modulus must be a list")
    try:
        return field_make(p, d, [_int(c, "modulus entry") for c in modulus])
    except EquicodeError as e:
        raise ParseError("bad field: %s" % e)


def group_to_obj(group: AbelianGroup):
    return {"invariant_factors": list(group.factors)}


def group_from_obj(obj) -> AbelianGroup:
    factors = _need(obj, "invariant_factors")
    if not isinstance(factors, list):
        raise ParseError("invariant_factors must be a list")
    try:
        return AbelianGroup([_int(o, "invariant factor") for o in factors])
    except EquicodeError as e:
        raise ParseError("bad group: %s" % e)


def element_to_obj(a: GroupAlgebraElement):
    return [raw_to_obj(a.field, c) for c in a.coeffs]


def _raw_coeffs(group, ctx, obj):
    """The raw coefficients an element's object lists."""
    if not isinstance(obj, list) or len(obj) != group.order:
        raise ParseError("element must list %d coefficients" % group.order)
    try:
        return tuple(raw_from_obj(ctx, c) for c in obj)
    except TypeError as e:
        raise ParseError(str(e))


def element_from_obj(group, ctx, obj) -> GroupAlgebraElement:
    return GroupAlgebraElement(group, ctx, _raw_coeffs(group, ctx, obj))


def matrix_to_obj(m: KGMatrix):
    return {"rows": m.rows, "cols": m.cols,
            "entries": [[raw_to_obj(m.field, c) for c in b]
                        for b in _blocks(m)]}


def _prime_coeffs(group, ctx, entries):
    """All coefficients of prime-field entries mod p, checked by passes in
    C over their types and lengths, or None unless every entry is a list
    of |G| plain ints."""
    if set(map(type, entries)) - {list} or \
            set(map(len, entries)) - {group.order}:
        return None
    flat = list(chain.from_iterable(entries))
    if set(map(type, flat)) - {int}:  # type(True) is bool
        return None
    p = ctx.p
    return [c % p for c in flat]


def matrix_from_obj(group, ctx, obj) -> KGMatrix:
    rows = _int(_need(obj, "rows"), "rows")
    cols = _int(_need(obj, "cols"), "cols")
    if rows < 0 or cols < 0:
        raise ParseError("matrix is %dx%d" % (rows, cols))
    entries = _need(obj, "entries")
    if not isinstance(entries, list) or len(entries) != rows * cols:
        raise ParseError("matrix wants %d entries" % (rows * cols))
    flat = _prime_coeffs(group, ctx, entries) if ctx.d == 1 else None
    if flat is None:
        # entry by entry, reporting the first malformed one
        flat = [c for e in entries for c in _raw_coeffs(group, ctx, e)]
    return KGMatrix(group, ctx, rows, cols, tuple(flat))


# -------------------------------------------------------------- artifacts


def code_to_obj(code: EquivariantCode):
    meta = {}
    for key, value in code.meta.items():
        meta[str(key)] = _int_or_none(value, "meta[%s]" % key)
    return {"version": FORMAT_VERSION, "kind": "code",
            "field": field_to_obj(code.field),
            "group": group_to_obj(code.group),
            "n": code.n, "k": code.k,
            "evaluation": matrix_to_obj(code.evaluation),
            "check": matrix_to_obj(code.check),
            "interp": matrix_to_obj(code.interp),
            "meta": meta}


def code_from_obj(obj) -> EquivariantCode:
    _check_version(obj, "code")
    ctx = field_from_obj(_need(obj, "field"))
    group = group_from_obj(_need(obj, "group"))
    n = _int(_need(obj, "n"), "n")
    k = _int(_need(obj, "k"), "k")
    meta_obj = _need(obj, "meta")
    if not isinstance(meta_obj, dict):
        raise ParseError("meta must be an object")
    meta = {key: _int_or_none(value, "meta[%s]" % key)
            for key, value in meta_obj.items()}
    return EquivariantCode(
        ctx, group, n, k,
        matrix_from_obj(group, ctx, _need(obj, "evaluation")),
        matrix_from_obj(group, ctx, _need(obj, "check")),
        matrix_from_obj(group, ctx, _need(obj, "interp")),
        meta)


def decoder_to_obj(dd: DecoderData, code_ref=None):
    obj = {"version": FORMAT_VERSION, "kind": "decoder",
           "e0": matrix_to_obj(dd.e0),
           "c1": matrix_to_obj(dd.c1),
           "i1": matrix_to_obj(dd.i1),
           "deg_d0": _int_or_none(dd.deg_d0, "deg_d0"),
           "radius": _int(dd.radius, "radius")}
    if code_ref is None:
        obj["code"] = code_to_obj(dd.code)
    else:
        obj["code_ref"] = str(code_ref)
    return obj


def decoder_from_obj(obj, base_dir=None) -> DecoderData:
    _check_version(obj, "decoder")
    if "code" in obj:
        code = code_from_obj(obj["code"])
    elif "code_ref" in obj:
        ref = obj["code_ref"]
        if not isinstance(ref, str):
            raise ParseError("code_ref must be a path string")
        if base_dir is not None:
            ref = os.path.join(base_dir, ref)
        code = load_code(ref)
    else:
        raise ParseError("decoder needs either code or code_ref")
    group, ctx = code.group, code.field
    return DecoderData(
        code,
        matrix_from_obj(group, ctx, _need(obj, "e0")),
        matrix_from_obj(group, ctx, _need(obj, "c1")),
        matrix_from_obj(group, ctx, _need(obj, "i1")),
        _int_or_none(_need(obj, "deg_d0"), "deg_d0"),
        _int(_need(obj, "radius"), "radius"))


def vector_to_obj(group, ctx, elements):
    return {"version": FORMAT_VERSION, "kind": "vector",
            "field": field_to_obj(ctx),
            "group": group_to_obj(group),
            "elements": [element_to_obj(a) for a in elements]}


def vector_from_obj(obj):
    """Returns (group, ctx, list of elements)."""
    _check_version(obj, "vector")
    ctx = field_from_obj(_need(obj, "field"))
    group = group_from_obj(_need(obj, "group"))
    elems = _need(obj, "elements")
    if not isinstance(elems, list):
        raise ParseError("elements must be a list")
    return group, ctx, [element_from_obj(group, ctx, e) for e in elems]


# ------------------------------------------------------------------- disk


def _write(path, obj):
    with open(path, "w") as fh:
        fh.write(canonical_dumps(obj))


def _read(path):
    try:
        with open(path) as fh:
            return loads(fh.read())
    except OSError as e:
        raise ParseError("cannot read %s: %s" % (path, e))


def save_code(path, code: EquivariantCode):
    _write(path, code_to_obj(code))


def load_code(path) -> EquivariantCode:
    return code_from_obj(_read(path))


def save_decoder(path, dd: DecoderData, code_ref=None):
    _write(path, decoder_to_obj(dd, code_ref=code_ref))


def load_decoder(path) -> DecoderData:
    return decoder_from_obj(_read(path), base_dir=os.path.dirname(path))


def save_vector(path, group, ctx, elements):
    _write(path, vector_to_obj(group, ctx, elements))


def load_vector(path):
    return vector_from_obj(_read(path))
