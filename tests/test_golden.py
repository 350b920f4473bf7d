"""Golden artifacts: sha256 digests of canonical files at fixed seeds.

Each fixture writes its code and decoder files, corrupts one codeword at
fixed positions and decodes it through the CLI.  The digests pin the bytes
of all three artifacts, so a refactor that changes any matrix or the
denominator search shows up here.  A
second digest pins only the decoded codeword, message and error: those
are unique within the radius, so it holds across changes that find a
different denominator.
"""

import hashlib
import json
import random

import pytest

from equicode import cli, files
from equicode.code import encode
from equicode.decode import make_split_decoder_data
from equicode.galg import GroupAlgebraElement, ga_rand


def _digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _gen(tmp_path, *argv, decoder=True):
    code_path, dec_path = tmp_path / "code.json", tmp_path / "dec.json"
    argv = ["gen", *argv, "--out", code_path]
    if decoder:
        argv += ["--decoder-out", dec_path]
    assert cli.main([str(a) for a in argv]) == 0
    return code_path, dec_path


def _corrupted_word(code, positions, seed):
    """A codeword of a seeded message with nonzero errors at `positions`
    (indices into the expanded length n * order)."""
    rng = random.Random(seed)
    ctx, o = code.field, code.group.order
    cw = encode(code, [ga_rand(code.group, ctx, rng) for _ in range(code.k)])
    rows = [list(a.coeffs) for a in cw]
    for p in positions:
        i, s = divmod(p, o)
        rows[i][s] = ctx.add(rows[i][s], ctx.rand_nonzero(rng))
    return [GroupAlgebraElement(code.group, ctx, tuple(r)) for r in rows]


def _decode(tmp_path, dec_path, positions, seed):
    dd = files.load_decoder(str(dec_path))
    word_path, out_path = tmp_path / "word.json", tmp_path / "out.json"
    files.save_vector(str(word_path), dd.code.group, dd.code.field,
                      _corrupted_word(dd.code, positions, seed))
    assert cli.main(["decode", "--decoder", str(dec_path),
                     "--received", "@%s" % word_path,
                     "--out", str(out_path)]) == 0
    return out_path


def rs13(tmp_path):
    code, dec = _gen(tmp_path, "rs", "--p", 13, "--n", 12, "--deg", 5)
    return code, dec, _decode(tmp_path, dec, [0, 5, 9], 7)


def rs9(tmp_path):
    code, dec = _gen(tmp_path, "rs", "--p", 3, "--d", 2, "--n", 8,
                     "--deg", 3)
    return code, dec, _decode(tmp_path, dec, [1, 6], 2)


def cyclic257(tmp_path):
    code, dec = _gen(tmp_path, "cyclic", "--p", 257, "--order", 16,
                     "--n", 8, "--k", 2, "--k0", 2)
    return code, dec, _decode(tmp_path, dec, range(3, 128, 5)[:24], 1)


def split13(tmp_path):
    code, _ = _gen(tmp_path, "cyclic", "--p", 13, "--order", 4, "--n", 3,
                   "--k", 1, decoder=False)
    dec = tmp_path / "split_dec.json"
    files.save_decoder(str(dec),
                       make_split_decoder_data(files.load_code(str(code)), 1))
    return code, dec, _decode(tmp_path, dec, [2, 7], 5)


def synth13(tmp_path):
    code, _ = _gen(tmp_path, "split", "--p", 13, "--group", "2,6",
                   "--n", 4, "--k", 2, "--seed", 3, decoder=False)
    return (code,)


GOLDEN = {
    "rs13": (rs13, (
        "7058f0755c6545e0166505ca94aca3230433e13ffdfedf0608cc4e5e2c3dbb6f",
        "cbe2d4de761e5163b8c9cc3a44eca05047767a79cc2fab6eaf4b927c2f4c2f2a",
        "868f7ef8192c2abf21f3eceea38d6a6c1689972403f9e4a619baf1aa3be0b09b",
    )),
    "rs9": (rs9, (
        "71f972bd85df5c7224b32469ef742ad053640cd2e1e2b85ec5a2590d54575afe",
        "60726f62f3e0e85ee8d8a671faad502a7d03f918bea9d28b0df76c7d9c29cd35",
        # the decode output holds the denominator, the first column
        # dependency of the Pade condition
        "c546b6bdb83bc5a7a2f06a91b3ac6c8b62e61966a15311bbfbf476bd4648913b",
    )),
    "cyclic257": (cyclic257, (
        "5dbf7dc37384873ce68aab6af1b4deddd231c9bdf6939e177b7dd2f03b99c3ae",
        "e771d950960fd30143517476bf4252825d7474206cd1600fdffea22bf7a9cad1",
        "370c0a57697ec8480482ff1efaaf968b561966b4d20f73dadb5a9c2b64338a92",
    )),
    "split13": (split13, (
        "278f564292fdfbb374226f15d0a6bceaa19952664dcc9216555da383dc2c616b",
        "8939fde8fc2fb7d6a29792a2e4bca74e910678f9566770ef7b6bee30988c5d87",
        "9a8c0e321dbbfb559b996f97df4722b747bd95c5ff5070e87db1168a6d830c42",
    )),
    "synth13": (synth13, (
        "f094aab5ce210dc116521afcdadd57658e3888661d3dfdb7eabd6bbc3ff28cc4",
    )),
}


# sha256 of the canonical {codeword, message, error} of each decode output
DECODED = {
    "rs13": "f34bc24ed0b6f97609b66729bbb625735da9950b802a77e8137b91ea1aa18c05",
    "rs9": "0cb557b93b93f052ab1f2d7534b7716f575270b0c7567a24b7320e8e3a758fe8",
    "cyclic257":
        "dc0943941a431a8a96c1b06fa63a4ca67546f1e4b44a05cc8697b1d02396bbc6",
    "split13":
        "0ab39548125dc5f00d5535f9a730b7119681b0c5c7af83a7fc8de64805bc2eb6",
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_artifacts(name, tmp_path):
    build, expected = GOLDEN[name]
    paths = build(tmp_path)
    if name in DECODED:
        out = json.loads(paths[2].read_text())
        fields = {k: out[k] for k in ("codeword", "message", "error")}
        text = files.canonical_dumps(fields).encode()
        assert hashlib.sha256(text).hexdigest() == DECODED[name]
    assert tuple(_digest(p) for p in paths) == expected
