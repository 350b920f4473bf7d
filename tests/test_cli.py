"""Subprocess tests for the equicode command-line driver."""

import json
import os
import subprocess
import sys

import pytest

import equicode
from equicode import cli
from equicode.files import load_code, load_vector, save_code, save_vector
from equicode.code import cyclic_cover_code, encode, genus2_example_code
from equicode.galg import AbelianGroup, ga_from_ints
from equicode.ff import field_make

import warnings

from equicode.errors import DegreeWindowWarning


# the child imports the same equicode as the tests, installed or not
SRC = os.path.dirname(os.path.dirname(equicode.__file__))


def run_cli(*argv, env=None):
    cmd = [sys.executable, "-m", "equicode"] + [str(a) for a in argv]
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run(cmd, capture_output=True, text=True, env=env,
                          timeout=120)


def test_mul_trivial_group():
    r = run_cli("mul", "--p", 13, "--group", "1",
                "--a", "[3]", "--b", "[4]", "--method", "both")
    assert r.returncode == 0, r.stderr
    out = json.loads(r.stdout)
    assert out == {"agree": True, "product": [12]}


def test_mul_cyclic_matches_convolution():
    # (1 + s)^2 = 1 + 2s + s^2 in F_3[Z/4]
    r = run_cli("mul", "--p", 3, "--group", "4",
                "--a", "[1,1,0,0]", "--b", "[1,1,0,0]")
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout) == [1, 2, 1, 0]


def test_mul_length_mismatch_exits_one():
    r = run_cli("mul", "--p", 13, "--group", "4",
                "--a", "[1,2]", "--b", "[1,0,0,0]")
    assert r.returncode == 1
    assert "error" in r.stderr


def test_mul_extension_field_nesting():
    r = run_cli("mul", "--p", 3, "--d", 2, "--group", "1",
                "--a", "[[1,1]]", "--b", "[[1,1]]")
    assert r.returncode == 0, r.stderr
    # (x+1)^2 = x^2 + 2x + 1 reduced by the default modulus of F_9
    val = json.loads(r.stdout)
    assert len(val) == 1 and len(val[0]) == 2


def test_bench_mul_csv_shape(tmp_path):
    out = tmp_path / "bench.csv"
    r = run_cli("bench-mul", "--p", 257, "--sizes", "8", "--reps", 2,
                "--out", out)
    assert r.returncode == 0, r.stderr
    assert "seed: 0" in r.stderr
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "group_order,method,median_ns,ops_per_element"
    assert len(lines) == 3
    assert lines[1].startswith("8,naive,")
    assert lines[2].startswith("8,fast,")


def test_bench_mul_empty_sizes():
    r = run_cli("bench-mul", "--p", 13, "--sizes", "")
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "group_order,method,median_ns,ops_per_element"


@pytest.mark.parametrize("argv", [("--sizes", "4,x"), ("--sizes", "0"),
                                  ("--reps", 0)],
                         ids=["bad-size", "zero-size", "zero-reps"])
def test_bench_mul_bad_input_is_a_parse_error(argv):
    r = run_cli("--json-errors", "bench-mul", "--p", 13, *argv)
    assert r.returncode == 1
    assert json.loads(r.stdout)["error"] == "ParseError"


def fixture_path(tmp_path):
    path = tmp_path / "fixture.json"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegreeWindowWarning)
        save_code(path, genus2_example_code())
    return path


def test_code_validate_fixture_warns(tmp_path):
    path = fixture_path(tmp_path)
    r = run_cli("code", "validate", "--code", path)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "ok"
    assert "warning:" in r.stderr


def test_code_encode_matches_library(tmp_path):
    path = fixture_path(tmp_path)
    r = run_cli("code", "encode", "--code", path,
                "--message", "[1,0,0,0]")
    assert r.returncode == 0, r.stderr
    got = json.loads(r.stdout)
    assert got["elements"] == [[1, 0, 0, 0], [1, 2, 2, 2], [2, 2, 2, 1]]


def test_code_corrupted_file_exits_two(tmp_path):
    path = fixture_path(tmp_path)
    obj = json.loads(path.read_text())
    obj["evaluation"]["entries"][0][0] = 2
    path.write_text(json.dumps(obj))
    r = run_cli("code", "validate", "--code", path)
    assert r.returncode == 2
    assert "InvariantViolation" in r.stderr


@pytest.mark.parametrize("split", [False, True], ids=["genus2", "cover"])
def test_code_validate_zero_check_matrix_exits_two(tmp_path, split):
    # C^t E = 0 and I E = 1 still hold; only the rank of C is wrong
    path = (tmp_path / "cover.json" if split else fixture_path(tmp_path))
    if split:
        save_code(path, cyclic_cover_code(13, 1, 4, 3, 1))
    obj = json.loads(path.read_text())
    obj["check"]["entries"] = [[0] * len(e) for e in obj["check"]["entries"]]
    path.write_text(json.dumps(obj))
    r = run_cli("code", "validate", "--code", path)
    assert r.returncode == 2
    assert "InvariantViolation" in r.stderr and "check matrix" in r.stderr


def test_code_interpolate_bad_word_exits_three(tmp_path):
    path = fixture_path(tmp_path)
    r = run_cli("code", "interpolate", "--code", path,
                "--received", "[[1,0,0,0],[0,0,0,0],[0,0,0,0]]")
    assert r.returncode == 3
    assert "NotInImage" in r.stderr


def test_gen_rs_round_trips(tmp_path):
    code_path = tmp_path / "rs.json"
    dec_path = tmp_path / "rs_dec.json"
    r = run_cli("gen", "rs", "--p", 13, "--n", 12, "--deg", 5,
                "--out", code_path, "--decoder-out", dec_path)
    assert r.returncode == 0, r.stderr
    code = load_code(code_path)
    assert (code.n, code.k) == (12, 6)
    resaved = tmp_path / "resave.json"
    save_code(resaved, code)
    assert resaved.read_bytes() == code_path.read_bytes()
    assert dec_path.exists()


def test_gen_split_is_seed_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        r = run_cli("gen", "split", "--p", 5, "--group", "4",
                    "--n", 4, "--k", 2, "--seed", 9, "--out", out)
        assert r.returncode == 0, r.stderr
        assert "seed: 9" in r.stderr
    assert a.read_bytes() == b.read_bytes()


def test_gen_split_rejects_bad_characteristic(tmp_path):
    r = run_cli("gen", "split", "--p", 3, "--group", "3",
                "--n", 2, "--k", 1, "--out", tmp_path / "x.json")
    assert r.returncode == 1
    assert "NotSplit" in r.stderr


def test_gen_missing_argument(tmp_path):
    r = run_cli("gen", "rs", "--p", 13, "--out", tmp_path / "x.json")
    assert r.returncode == 1
    assert "--n" in r.stderr


def corrupt_file(path, positions, delta=1, p=13):
    obj = json.loads(path.read_text())
    for i in positions:
        obj["elements"][i][0] = (obj["elements"][i][0] + delta) % p
    path.write_text(json.dumps(obj))


def test_decode_end_to_end(tmp_path):
    code_path, dec_path = tmp_path / "c.json", tmp_path / "d.json"
    run_cli("gen", "rs", "--p", 13, "--n", 12, "--deg", 5,
            "--out", code_path, "--decoder-out", dec_path)
    cw_path = tmp_path / "cw.json"
    r = run_cli("code", "encode", "--code", code_path,
                "--message", "[[1],[2],[3],[4],[5],[6]]",
                "--out", cw_path)
    assert r.returncode == 0, r.stderr
    clean = json.loads(cw_path.read_text())["elements"]
    corrupt_file(cw_path, [2, 9])
    r = run_cli("decode", "--decoder", dec_path,
                "--received", "@%s" % cw_path, "--seed", 7)
    assert r.returncode == 0, r.stderr
    assert "seed: 7" in r.stderr
    res = json.loads(r.stdout)
    assert res["codeword"] == clean
    assert [m[0] for m in res["message"]] == [1, 2, 3, 4, 5, 6]
    err = [e[0] for e in res["error"]]
    assert err[2] != 0 and err[9] != 0
    assert sum(1 for v in err if v) == 2


def test_decode_clean_word_fast_path(tmp_path):
    code_path, dec_path = tmp_path / "c.json", tmp_path / "d.json"
    run_cli("gen", "rs", "--p", 13, "--n", 12, "--deg", 5,
            "--out", code_path, "--decoder-out", dec_path)
    cw_path = tmp_path / "cw.json"
    run_cli("code", "encode", "--code", code_path,
            "--message", "[[3],[0],[0],[0],[0],[1]]", "--out", cw_path)
    r = run_cli("decode", "--decoder", dec_path,
                "--received", "@%s" % cw_path, "--trace")
    assert r.returncode == 0, r.stderr
    res = json.loads(r.stdout)
    assert res["denominator"] is None
    assert res["zeros"] == []
    assert "fast path" in r.stderr


def test_decode_beyond_radius_fails_or_is_sound(tmp_path):
    code_path, dec_path = tmp_path / "c.json", tmp_path / "d.json"
    run_cli("gen", "rs", "--p", 13, "--n", 12, "--deg", 5,
            "--out", code_path, "--decoder-out", dec_path)
    cw_path = tmp_path / "cw.json"
    run_cli("code", "encode", "--code", code_path,
            "--message", "[[1],[1],[1],[1],[1],[1]]", "--out", cw_path)
    corrupt_file(cw_path, [0, 3, 5, 7, 11], delta=4)
    r = run_cli("decode", "--decoder", dec_path,
                "--received", "@%s" % cw_path, "--seed", 0,
                "--max-attempts", 8)
    assert r.returncode in (0, 4)
    if r.returncode == 4:
        assert "DecodeFail" in r.stderr
    else:
        # If anything comes back it must still be a codeword near r.
        res = json.loads(r.stdout)
        ctx = field_make(13)
        code = load_code(code_path)
        triv = AbelianGroup([])
        cw = [ga_from_ints(triv, ctx, e) for e in res["codeword"]]
        msg = [ga_from_ints(triv, ctx, m) for m in res["message"]]
        assert encode(code, msg) == cw


def test_reused_parser_leaks_no_state(tmp_path, capsys):
    """main() keeps one parser per process; a call made after another
    writes the same bytes as the same call made alone."""
    code_path, dec_path = tmp_path / "c.json", tmp_path / "d.json"
    run_cli("gen", "rs", "--p", 13, "--n", 12, "--deg", 5,
            "--out", code_path, "--decoder-out", dec_path)
    word = tmp_path / "w.json"
    run_cli("code", "encode", "--code", code_path,
            "--message", "[[1],[2],[3],[4],[5],[6]]", "--out", word)
    corrupt_file(word, [2, 9])
    out, out_dec = tmp_path / "out.json", tmp_path / "out_dec.json"
    gen = ["gen", "rs", "--p", 13, "--n", 12, "--deg", 5,
           "--out", out, "--decoder-out", out_dec]
    decode = ["decode", "--decoder", dec_path, "--received", "@%s" % word,
              "--seed", 3, "--out", out]
    calls = [gen + ["--deg-d0", 2], gen, decode + ["--trace"], decode]

    def written(argv):
        return [p.read_bytes() for p in (out, out_dec)[:1 + (argv[0] == "gen")]]

    alone = []
    for argv in calls:
        r = run_cli(*argv)
        assert r.returncode == 0, r.stderr
        alone.append((written(argv), r.stderr))
    assert alone[0] != alone[1] and alone[2] != alone[3]
    for argv, want in zip(calls, alone):
        assert cli.main([str(a) for a in argv]) == 0
        assert (written(argv), capsys.readouterr().err) == want


def test_decode_corrects_one_error(tmp_path):
    code_path, dec_path = tmp_path / "c.json", tmp_path / "d.json"
    run_cli("gen", "rs", "--p", 13, "--n", 12, "--deg", 5,
            "--out", code_path, "--decoder-out", dec_path)
    cw_path = tmp_path / "cw.json"
    run_cli("code", "encode", "--code", code_path,
            "--message", "[[1],[0],[2],[0],[3],[0]]", "--out", cw_path)
    corrupt_file(cw_path, [4])
    r = run_cli("decode", "--decoder", dec_path,
                "--received", "@%s" % cw_path)
    assert r.returncode == 0, r.stderr
    res = json.loads(r.stdout)
    assert [m[0] for m in res["message"]] == [1, 0, 2, 0, 3, 0]


@pytest.mark.parametrize("name", ["c1", "e0"])
def test_decode_truncated_decoder_matrix_exits_two(tmp_path, name):
    code_path, dec_path = tmp_path / "c.json", tmp_path / "d.json"
    run_cli("gen", "rs", "--p", 13, "--n", 12, "--deg", 5,
            "--out", code_path, "--decoder-out", dec_path)
    cw_path = tmp_path / "cw.json"
    run_cli("code", "encode", "--code", code_path,
            "--message", "[[1],[0],[0],[0],[0],[0]]", "--out", cw_path)
    corrupt_file(cw_path, [3])
    obj = json.loads(dec_path.read_text())
    m = obj[name]
    m["rows"] -= 1
    del m["entries"][-m["cols"]:]
    dec_path.write_text(json.dumps(obj))
    r = run_cli("decode", "--decoder", dec_path,
                "--received", "@%s" % cw_path)
    assert r.returncode == 2
    assert "InvariantViolation" in r.stderr and name in r.stderr


def test_decode_code_cross_check(tmp_path):
    code_path, dec_path = tmp_path / "c.json", tmp_path / "d.json"
    run_cli("gen", "rs", "--p", 13, "--n", 12, "--deg", 5,
            "--out", code_path, "--decoder-out", dec_path)
    other = tmp_path / "other.json"
    run_cli("gen", "rs", "--p", 13, "--n", 10, "--deg", 5, "--out", other)
    cw_path = tmp_path / "cw.json"
    run_cli("code", "encode", "--code", code_path,
            "--message", "[[1],[0],[0],[0],[0],[0]]", "--out", cw_path)
    r = run_cli("decode", "--decoder", dec_path, "--code", other,
                "--received", "@%s" % cw_path)
    assert r.returncode == 1
    assert "Mismatch" in r.stderr


def test_json_errors_flag(tmp_path):
    r = run_cli("--json-errors", "gen", "rs", "--p", 7, "--n", 99,
                "--deg", 2, "--out", tmp_path / "x.json")
    assert r.returncode == 1
    obj = json.loads(r.stdout)
    assert obj["error"] == "TooManyPoints"
    assert "message" in obj


def test_seed_env_fallback(tmp_path):
    env = dict(os.environ)
    env["EQUICODE_SEED"] = "42"
    out = tmp_path / "s.json"
    r = run_cli("gen", "split", "--p", 5, "--group", "4",
                "--n", 4, "--k", 2, "--out", out, env=env)
    assert r.returncode == 0, r.stderr
    assert "seed: 42" in r.stderr


def test_received_vector_file_field_mismatch(tmp_path):
    code_path = tmp_path / "c.json"
    run_cli("gen", "rs", "--p", 13, "--n", 12, "--deg", 5,
            "--out", code_path)
    vec_path = tmp_path / "v.json"
    ctx, triv = field_make(7), AbelianGroup([])
    save_vector(vec_path, triv, ctx,
                [ga_from_ints(triv, ctx, [1]) for _ in range(12)])
    r = run_cli("code", "check", "--code", code_path,
                "--received", "@%s" % vec_path)
    assert r.returncode == 1
    assert "Mismatch" in r.stderr
