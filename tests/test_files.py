import json
import random
import warnings

import pytest

from equicode import kgmat
from equicode.code import (
    cyclic_cover_code,
    encode,
    genus2_example_code,
    parity_check,
    rs_degenerate_code,
    synth_split_code,
    validate,
)
from equicode.decode import basic_decode, make_cyclic_decoder_data, \
    make_rs_decoder_data
from equicode.errors import DegreeWindowWarning, ParseError
from equicode.files import (
    canonical_dumps,
    code_from_obj,
    code_to_obj,
    decoder_from_obj,
    decoder_to_obj,
    element_from_obj,
    load_code,
    load_decoder,
    load_vector,
    matrix_from_obj,
    save_code,
    save_decoder,
    save_vector,
    vector_from_obj,
    vector_to_obj,
)
from equicode.ff import field_make
from equicode.galg import AbelianGroup, ga_rand


def quiet_genus2():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegreeWindowWarning)
        return genus2_example_code()


ALL_CODES = [
    quiet_genus2(),
    rs_degenerate_code(13, 12, 5),
    rs_degenerate_code(3, 5, 2, d=2),
    synth_split_code(5, 1, AbelianGroup([4]), 4, 2, seed=1),
    synth_split_code(5, 1, AbelianGroup([2, 2]), 4, 2, seed=3),
    cyclic_cover_code(13, 1, 4, 3, 1),
]


def test_code_round_trip_is_byte_identical(tmp_path):
    for idx, code in enumerate(ALL_CODES):
        path = tmp_path / ("code%d.json" % idx)
        save_code(path, code)
        first = path.read_bytes()
        loaded = load_code(path)
        assert loaded == code
        save_code(path, loaded)
        assert path.read_bytes() == first


def test_loaded_code_still_works():
    obj = code_to_obj(rs_degenerate_code(13, 12, 5))
    text = canonical_dumps(obj)
    code = code_from_obj(json.loads(text))
    assert validate(code) == []
    rng = random.Random(0)
    m = [ga_rand(code.group, code.field, rng) for _ in range(code.k)]
    assert encode(code, m) == encode(rs_degenerate_code(13, 12, 5), m)


def test_loaded_split_code_transforms_its_check_once(tmp_path, monkeypatch):
    path = tmp_path / "cover.json"
    save_code(path, cyclic_cover_code(257, 1, 16, 8, 2))
    code = load_code(path)
    computed = []
    real = kgmat._spectrum

    def counting(a):
        if not a._spectra:
            computed.append((a.rows, a.cols))
        return real(a)

    monkeypatch.setattr(kgmat, "_spectrum", counting)
    rng = random.Random(6)
    for _ in range(3):
        parity_check(code, [ga_rand(code.group, code.field, rng)
                            for _ in range(code.n)])
    # parity checks apply C^t as packed products: nothing is transformed
    assert computed == []


def test_decoder_round_trip_inline(tmp_path):
    rs = rs_degenerate_code(13, 12, 5)
    cc = cyclic_cover_code(13, 1, 4, 3, 1)
    for idx, dd in enumerate([make_rs_decoder_data(rs),
                              make_cyclic_decoder_data(cc, 1)]):
        path = tmp_path / ("dec%d.json" % idx)
        save_decoder(path, dd)
        first = path.read_bytes()
        loaded = load_decoder(path)
        assert loaded == dd
        save_decoder(path, loaded)
        assert path.read_bytes() == first


def test_decoder_code_ref(tmp_path):
    rs = rs_degenerate_code(13, 12, 5)
    dd = make_rs_decoder_data(rs)
    save_code(tmp_path / "code.json", rs)
    save_decoder(tmp_path / "dec.json", dd, code_ref="code.json")
    loaded = load_decoder(tmp_path / "dec.json")
    assert loaded == dd
    raw = json.loads((tmp_path / "dec.json").read_text())
    assert raw["code_ref"] == "code.json" and "code" not in raw


def test_loaded_decoder_decodes(tmp_path):
    cc = cyclic_cover_code(13, 1, 4, 3, 1)
    dd = make_cyclic_decoder_data(cc, 1)
    save_decoder(tmp_path / "dec.json", dd)
    loaded = load_decoder(tmp_path / "dec.json")
    rng = random.Random(1)
    m = [ga_rand(cc.group, cc.field, rng) for _ in range(cc.k)]
    cw = encode(cc, m)
    res = basic_decode(loaded, cw, seed=0)
    assert list(res.message) == m


def test_vector_round_trip(tmp_path):
    for code in ALL_CODES:
        rng = random.Random(2)
        elems = [ga_rand(code.group, code.field, rng) for _ in range(5)]
        path = tmp_path / "vec.json"
        save_vector(path, code.group, code.field, elems)
        first = path.read_bytes()
        group, ctx, loaded = load_vector(path)
        assert group == code.group and ctx == code.field
        assert loaded == elems
        save_vector(path, group, ctx, loaded)
        assert path.read_bytes() == first


def test_parse_error_cases(tmp_path):
    rs = rs_degenerate_code(13, 12, 5)
    good = code_to_obj(rs)

    def broken(**changes):
        obj = json.loads(canonical_dumps(good))
        obj.update(changes)
        return obj

    with pytest.raises(ParseError):
        code_from_obj(broken(version=2))
    with pytest.raises(ParseError):
        code_from_obj(broken(kind="vector"))
    with pytest.raises(ParseError):
        code_from_obj(broken(field={"p": 12, "d": 1, "modulus": [0, 1]}))
    with pytest.raises(ParseError):
        code_from_obj(broken(n=True))
    obj = broken()
    obj["evaluation"]["entries"] = obj["evaluation"]["entries"][:-1]
    with pytest.raises(ParseError):
        code_from_obj(obj)
    obj = broken()
    obj["evaluation"]["entries"][0] = [True]
    with pytest.raises(ParseError):
        code_from_obj(obj)
    obj = broken()
    del obj["interp"]
    with pytest.raises(ParseError):
        code_from_obj(obj)
    with pytest.raises(ParseError):
        decoder_from_obj({"version": 1, "kind": "decoder"})
    (tmp_path / "junk.json").write_text("{not json")
    with pytest.raises(ParseError):
        load_code(tmp_path / "junk.json")
    with pytest.raises(ParseError):
        load_code(tmp_path / "absent.json")


def test_prime_field_matrix_loader_matches_entrywise():
    """The one-pass prime-field loader gives the matrix, or the ParseError
    message, that element_from_obj gives entry by entry."""
    class Int(int):
        pass

    group, ctx = AbelianGroup([2]), field_make(5)

    def entrywise(entries):
        try:
            return kgmat.KGMatrix(group, ctx, 1, len(entries), tuple(
                element_from_obj(group, ctx, e) for e in entries))
        except ParseError as e:
            return str(e)

    cases = [[[1, 2], [-3, 17]], [[1, Int(7)], [0, 0]], [[1, 2], 3],
             [[1, 2], [3]], [[1, 2], [3, 4, 5]], [[1, True], [0, 0]],
             [[1, 2], [3.0, 4]], [[1, "2"], [0, 0]], [[[1], 2], [0, 0]]]
    for entries in cases:
        obj = {"rows": 1, "cols": len(entries), "entries": entries}
        try:
            got = matrix_from_obj(group, ctx, obj)
        except ParseError as e:
            got = str(e)
        assert got == entrywise(entries), entries


def test_no_floats_or_bools_in_output():
    rs = rs_degenerate_code(3, 5, 2, d=2)
    dd = decoder_to_obj(make_rs_decoder_data(rs))
    vec = vector_to_obj(rs.group, rs.field,
                        [ga_rand(rs.group, rs.field, random.Random(3))])

    def walk(node):
        if isinstance(node, dict):
            for v in node.values():
                walk(v)
        elif isinstance(node, list):
            for v in node:
                walk(v)
        else:
            assert node is None or isinstance(node, (str, int))
            assert not isinstance(node, (bool, float))

    for obj in (code_to_obj(rs), dd, vec):
        walk(obj)
        # canonical form survives a JSON round trip unchanged
        assert canonical_dumps(json.loads(canonical_dumps(obj))) == \
            canonical_dumps(obj)
