"""Checks on the benchmark itself.

Run from the repository root:  python3 -m pytest perfbench/tests
The exact-count test makes two traced runs per workload and takes about
two minutes.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
RUN = os.path.join(ROOT, "perfbench", "run.py")

# Counts that must repeat exactly at a fixed seed, and the workloads on
# which each one is nonzero.
EXACT = {
    "ff.field_ops": {"cover-decode", "rs-cli", "mul-paths"},
    "ff.factorize.calls": {"cover-decode", "rs-cli", "mul-paths"},
    "galg.ft.calls": {"cover-decode", "mul-paths"},
    "blackbox.applies": {"cover-decode", "rs-cli"},
    "decode.rounds": {"cover-decode", "rs-cli"},
}


def _traced(workload, seed):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])["metrics"]


@pytest.mark.parametrize("workload", ["cover-decode", "rs-cli", "mul-paths"])
def test_exact_counts_repeat(workload):
    first, second = _traced(workload, 3), _traced(workload, 3)
    for name, nonzero_on in EXACT.items():
        assert first[name] == second[name], name
        assert (first[name]["value"] > 0) == (workload in nonzero_on), name


def test_mul_pairs_take_their_paths():
    """Each pair of the mul-paths mix runs the transform its name says."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    from equicode import AbelianGroup, field_make, ga_mul_fast, ga_rand, galg
    from workloads import MUL_PAIRS

    # name -> {(runs over an auxiliary prime, length, plan kind)}
    expected = {
        "split_ntt": {(False, 1024, "ntt")},
        "split_multiaxis": {(False, 4, "ntt"), (False, 64, "ntt")},
        "split_direct": {(False, 6, "direct")},
        "split_bluestein_ntt": {(False, 96, "bluestein_ntt")},
        "split_bluestein_kron": {(False, 111, "bluestein_kron")},
        "lifted_ntt": {(True, 1024, "ntt")},
        "lifted_bluestein": {(True, 1000, "bluestein_ntt")},
        "extension": {(True, 1024, "ntt")},
        "ext_split_ntt": {(False, 16, "ntt")},
        "ext_bluestein_school": {(False, 80, "bluestein_school")},
    }
    rng = random.Random(0)
    assert [p[0] for p in MUL_PAIRS] == list(expected)
    for name, p, d, factors, _ in MUL_PAIRS:
        ctx, G = field_make(p, d), AbelianGroup(factors)
        # plan kinds are not public: read them off galg's plan cache
        galg._PLAN_CACHE.clear()
        ga_mul_fast(ga_rand(G, ctx, rng), ga_rand(G, ctx, rng))
        plans = {(key[0].q != ctx.q, key[1], plan[0])
                 for key, plan in galg._PLAN_CACHE.items()}
        assert plans == expected[name], name


def test_refuses_without_the_library(tmp_path):
    """Given only BENCHMARK.json and perfbench/, it fails with no result."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "rs-cli",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": ""})
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
