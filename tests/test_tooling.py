"""Guards for what the benchmark's tracer and the packaging rely on, and
for the package's one field type.

perfbench/tracer.py wraps library functions by (module, attribute) and
reads the kernel sampler's operator from its first argument; the runtime
is stdlib-only (pyproject requires Python >= 3.10, which has
sys.stdlib_module_names).
"""

import ast
import importlib
import importlib.util
import pathlib
import sys

from equicode import blackbox, ff, gauss

ROOT = pathlib.Path(__file__).resolve().parents[1]


def load_tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def package_trees():
    for path in sorted((ROOT / "src" / "equicode").glob("*.py")):
        yield path.name, ast.parse(path.read_text())


def test_traced_names_resolve():
    tracer = load_tracer()
    missing = [name for name, (modname, attr) in tracer.TRACED.items()
               if not callable(getattr(importlib.import_module(modname),
                                       attr, None))]
    assert missing == []


def test_kernel_sample_takes_the_operator_first():
    """INFO reads args[0].calls from the traced call."""
    tracer = load_tracer()
    k = ff.field_make(13)
    a = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
    op = blackbox.operator_from_matrix(k, a)
    w = blackbox.wiedemann_kernel_sample(op, seed=1)
    assert gauss.matvec(k, a, w) == [0, 0, 0]
    info = tracer.INFO["blackbox.kernel_sample"]
    assert info((op,), w) == (op.calls, True) and op.calls > 0


def test_package_imports_only_the_standard_library():
    imported = set()
    for _, tree in package_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update(a.name.split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    assert imported and imported <= sys.stdlib_module_names, \
        imported - sys.stdlib_module_names


def test_package_has_no_assert_statements():
    """python -O strips asserts, so none may stand in for a check."""
    found = ["%s:%d" % (name, node.lineno)
             for name, tree in package_trees() for node in ast.walk(tree)
             if isinstance(node, ast.Assert)]
    assert found == []


def test_only_the_cli_prints():
    """stdout carries the CLI's artifacts; library code must not write to
    it (or anywhere else) through print."""
    found = ["%s:%d" % (name, node.lineno)
             for name, tree in package_trees() if name != "cli.py"
             for node in ast.walk(tree)
             if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Name) and node.func.id == "print"]
    assert found == []


def test_field_ctx_is_the_only_field_type():
    """Every field the package computes in is a FieldCtx: no other class
    carries its own field arithmetic (both mul and inv)."""
    found = ["%s:%s" % (name, node.name)
             for name, tree in package_trees() for node in ast.walk(tree)
             if isinstance(node, ast.ClassDef)
             and {"mul", "inv"} <= {f.name for f in node.body
                                    if isinstance(f, ast.FunctionDef)}]
    assert found == ["ff.py:FieldCtx"]
